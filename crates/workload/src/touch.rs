//! Touch input generation.
//!
//! [`TouchGenerator`] produces stochastic, bursty gameplay input. Bursts
//! are the *exogenous shocks* of Section V-B: "burst touching events from
//! users may lead to drastic changes in game scenes and transmitting the
//! varying scenes may escalate the network traffic."

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Stochastic touch model: a base Poisson-ish rate plus occasional bursts.
#[derive(Clone, Debug)]
pub struct TouchGenerator {
    rng: StdRng,
    base_rate_hz: f64,
    burst_remaining: u32,
    burst_rate_hz: f64,
    burst_prob_per_sec: f64,
}

impl TouchGenerator {
    /// Creates a generator with the genre's mean `rate_hz`, seeded for
    /// reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is negative or not finite.
    pub fn new(rate_hz: f64, seed: u64) -> Self {
        assert!(rate_hz.is_finite() && rate_hz >= 0.0, "invalid touch rate");
        TouchGenerator {
            rng: StdRng::seed_from_u64(seed),
            base_rate_hz: rate_hz,
            burst_remaining: 0,
            burst_rate_hz: rate_hz * 4.0,
            burst_prob_per_sec: 0.1,
        }
    }

    /// Touches occurring in the next window of `dt_secs` seconds.
    ///
    /// Returns the count (attribute 1 of the ARMAX predictor is this
    /// count per window, read from `/proc/interrupts` in the real system).
    pub fn next_window(&mut self, dt_secs: f64) -> u32 {
        // Enter/exit bursts.
        if self.burst_remaining == 0
            && self
                .rng
                .gen_bool((self.burst_prob_per_sec * dt_secs).min(1.0))
        {
            self.burst_remaining = self.rng.gen_range(2..6);
        }
        let rate = if self.burst_remaining > 0 {
            self.burst_remaining -= 1;
            self.burst_rate_hz
        } else {
            self.base_rate_hz
        };
        let expected = rate * dt_secs;
        // Poisson approximation via Bernoulli sum, adequate for small dt.
        let whole = expected.floor() as u32;
        let frac = expected - whole as f64;
        whole
            + if frac > 0.0 && self.rng.gen_bool(frac.min(1.0)) {
                1
            } else {
                0
            }
    }

    /// True if a burst is in progress (used by tests and the traffic
    /// generator to couple scene changes to input).
    pub fn in_burst(&self) -> bool {
        self.burst_remaining > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_respected_on_average() {
        let mut gen = TouchGenerator::new(5.0, 42);
        let total: u32 = (0..1000).map(|_| gen.next_window(0.5)).sum();
        let rate = total as f64 / 500.0;
        // Bursts push the average above base but same order of magnitude.
        assert!((4.0..=12.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn zero_rate_without_bursts_can_still_burst() {
        let mut gen = TouchGenerator::new(0.0, 1);
        let total: u32 = (0..200).map(|_| gen.next_window(0.5)).sum();
        // base 0 and burst 0 (4x0): always zero.
        assert_eq!(total, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = TouchGenerator::new(3.0, 9);
        let mut b = TouchGenerator::new(3.0, 9);
        for _ in 0..100 {
            assert_eq!(a.next_window(0.5), b.next_window(0.5));
        }
    }

    #[test]
    fn bursts_occur() {
        let mut gen = TouchGenerator::new(2.0, 7);
        let mut saw_burst = false;
        for _ in 0..500 {
            gen.next_window(0.5);
            saw_burst |= gen.in_burst();
        }
        assert!(saw_burst);
    }

    #[test]
    #[should_panic(expected = "invalid touch rate")]
    fn negative_rate_panics() {
        let _ = TouchGenerator::new(-1.0, 0);
    }
}

//! The traffic predictor and the paper's FN/FP evaluation protocol.
//!
//! "The FNs refer to the scenarios that the model fails to predict a
//! soaring traffic demand that exceeds BlueTooth throughput. Conversely,
//! FPs describe the cases that the model wrongly forecasts a traffic
//! demand overpassing the Bluetooth throughput. Clearly, a small FN rate
//! is more important … because a FN case results in elevated network
//! latency while a FP scenario just causes slight increase in energy
//! consumption." (Section V-B)
//!
//! The paper measures: ARMA — FP 23.7 %, FN 35.1 %; ARMAX — FP 23 %,
//! FN 17 %, forecasting 500 ms ahead.

use crate::arma::ArmaModel;
use crate::armax::ArmaxModel;

/// Which model backs the predictor.
#[derive(Clone, Debug)]
enum Backend {
    Arma(ArmaModel),
    Armax(ArmaxModel),
}

/// False-negative / false-positive rates of threshold forecasts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PredictionQuality {
    /// Surges the model missed ÷ all actual surges.
    pub fn_rate: f64,
    /// Forecast surges that did not happen ÷ all actual non-surges.
    pub fp_rate: f64,
    /// Number of evaluated steps.
    pub samples: usize,
}

/// An online traffic-volume predictor with a surge threshold.
///
/// Feed it one traffic sample per tick (the paper forecasts in 500 ms
/// windows) plus the exogenous readings; ask whether the *next* window
/// will exceed the Bluetooth budget.
///
/// # Examples
///
/// ```
/// use gbooster_forecast::predictor::TrafficPredictor;
///
/// let mut p = TrafficPredictor::armax(2, 1, 2, 1, 21.0);
/// for t in 0..300u32 {
///     let touch = if t % 9 == 0 { 6.0 } else { 0.0 };
///     let mbps = 5.0 + 5.0 * touch;
///     p.observe(mbps, &[touch]);
/// }
/// // A touch burst now predicts a surge beyond Bluetooth's 21 Mbps.
/// assert!(p.predict_surge(&[6.0]));
/// assert!(!p.predict_surge(&[0.0]));
/// ```
#[derive(Clone, Debug)]
pub struct TrafficPredictor {
    backend: Backend,
    threshold: f64,
}

impl TrafficPredictor {
    /// Creates an ARMA-backed predictor (no exogenous inputs).
    ///
    /// # Panics
    ///
    /// Panics if `p + q == 0` or the threshold is not positive/finite.
    pub fn arma(p: usize, q: usize, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "invalid threshold"
        );
        TrafficPredictor {
            backend: Backend::Arma(ArmaModel::new(p, q)),
            threshold,
        }
    }

    /// Creates an ARMAX-backed predictor over `n_inputs` exogenous
    /// signals with `b` lags each.
    ///
    /// # Panics
    ///
    /// As [`TrafficPredictor::arma`], plus ARMAX order constraints.
    pub fn armax(p: usize, q: usize, b: usize, n_inputs: usize, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "invalid threshold"
        );
        TrafficPredictor {
            backend: Backend::Armax(ArmaxModel::new(p, q, b, n_inputs)),
            threshold,
        }
    }

    /// Exogenous inputs expected by [`TrafficPredictor::observe`].
    pub fn n_inputs(&self) -> usize {
        match &self.backend {
            Backend::Arma(_) => 0,
            Backend::Armax(m) => m.n_inputs(),
        }
    }

    /// Forecast of the next window's traffic given current exogenous
    /// readings (`exo` ignored for ARMA backends).
    pub fn forecast_next(&self, exo: &[f64]) -> f64 {
        match &self.backend {
            Backend::Arma(m) => m.forecast_next(),
            Backend::Armax(m) => m.forecast_next(exo),
        }
    }

    /// True if the next window is forecast to exceed the threshold —
    /// the signal to pre-wake the WiFi interface.
    pub fn predict_surge(&self, exo: &[f64]) -> bool {
        self.forecast_next(exo) > self.threshold
    }

    /// Feeds the actual traffic of the window just ended.
    pub fn observe(&mut self, traffic: f64, exo: &[f64]) {
        match &mut self.backend {
            Backend::Arma(m) => {
                m.observe(traffic);
            }
            Backend::Armax(m) => {
                m.observe(traffic, exo);
            }
        }
    }

    /// Runs the paper's evaluation protocol over a recorded trace:
    /// at each step, forecast → compare with the actual next value →
    /// update. The first `warmup` steps train without being scored.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree or `warmup >= traffic.len()`.
    pub fn evaluate(
        mut self,
        traffic: &[f64],
        exo_rows: &[Vec<f64>],
        warmup: usize,
    ) -> PredictionQuality {
        assert_eq!(traffic.len(), exo_rows.len(), "trace length mismatch");
        assert!(warmup < traffic.len(), "warmup longer than trace");
        let mut missed_surges = 0usize;
        let mut actual_surges = 0usize;
        let mut false_alarms = 0usize;
        let mut actual_calm = 0usize;
        let mut samples = 0usize;
        for t in 0..traffic.len() {
            let exo = &exo_rows[t];
            if t >= warmup {
                let predicted_surge = self.predict_surge(exo);
                let actual_surge = traffic[t] > self.threshold;
                match (actual_surge, predicted_surge) {
                    (true, false) => {
                        actual_surges += 1;
                        missed_surges += 1;
                    }
                    (true, true) => actual_surges += 1,
                    (false, true) => {
                        actual_calm += 1;
                        false_alarms += 1;
                    }
                    (false, false) => actual_calm += 1,
                }
                samples += 1;
            }
            self.observe(traffic[t], exo);
        }
        PredictionQuality {
            fn_rate: if actual_surges == 0 {
                0.0
            } else {
                missed_surges as f64 / actual_surges as f64
            },
            fp_rate: if actual_calm == 0 {
                0.0
            } else {
                false_alarms as f64 / actual_calm as f64
            },
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;

    /// The synthetic workload of Section V-B: smooth AR base traffic plus
    /// abrupt touch-driven surges that exceed the Bluetooth budget.
    pub fn surge_trace(seed: u64, len: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut traffic = Vec::with_capacity(len);
        let mut exo = Vec::with_capacity(len);
        let mut base: f64 = 8.0;
        let mut burst_left = 0u32;
        let mut burst_touch = 0.0;
        for _ in 0..len {
            if burst_left == 0 && rng.gen_bool(0.06) {
                burst_left = rng.gen_range(2..6);
                burst_touch = rng.gen_range(4.0..9.0);
            }
            let touch = if burst_left > 0 {
                burst_left -= 1;
                burst_touch + rng.gen_range(-0.5..0.5)
            } else {
                rng.gen_range(0.0..0.4)
            };
            base = 0.8 * base + 2.0 + rng.gen_range(-0.8..0.8);
            let textures = 20.0 + 3.0 * touch + rng.gen_range(-2.0..2.0);
            traffic.push((base + 3.5 * touch).max(0.0));
            exo.push(vec![touch, textures]);
        }
        (traffic, exo)
    }

    #[test]
    fn armax_has_much_lower_fn_rate_than_arma() {
        // Reproduces the ordering of Section V-B: ARMA FN 35.1% -> ARMAX
        // FN 17%.
        let (traffic, exo) = surge_trace(42, 4000);
        let arma = TrafficPredictor::arma(3, 2, 21.0);
        let armax = TrafficPredictor::armax(3, 2, 2, 2, 21.0);
        let no_exo: Vec<Vec<f64>> = vec![Vec::new(); traffic.len()];
        let q_arma = arma.evaluate(&traffic, &no_exo, 400);
        let q_armax = armax.evaluate(&traffic, &exo, 400);
        assert!(
            q_armax.fn_rate < q_arma.fn_rate * 0.7,
            "ARMAX FN {:.3} vs ARMA FN {:.3}",
            q_armax.fn_rate,
            q_arma.fn_rate
        );
        assert!(q_arma.fn_rate > 0.2, "ARMA FN {:.3}", q_arma.fn_rate);
        assert!(q_armax.samples > 3000);
    }

    #[test]
    fn perfect_exogenous_signal_nearly_eliminates_misses() {
        // Traffic = pure function of touch: ARMAX should almost never miss.
        let mut traffic = Vec::new();
        let mut exo = Vec::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..2000 {
            let touch: f64 = if rng.gen_bool(0.1) { 6.0 } else { 0.0 };
            traffic.push(5.0 + 4.0 * touch);
            exo.push(vec![touch]);
        }
        let q = TrafficPredictor::armax(1, 0, 1, 1, 21.0).evaluate(&traffic, &exo, 200);
        assert!(q.fn_rate < 0.02, "FN {:.3}", q.fn_rate);
        assert!(q.fp_rate < 0.02, "FP {:.3}", q.fp_rate);
    }

    #[test]
    fn quiet_trace_has_no_surges_and_no_alarms() {
        let traffic = vec![5.0; 500];
        let exo: Vec<Vec<f64>> = vec![Vec::new(); 500];
        let q = TrafficPredictor::arma(1, 0, 21.0).evaluate(&traffic, &exo, 50);
        assert_eq!(q.fn_rate, 0.0);
        assert!(q.fp_rate < 0.01);
    }

    #[test]
    fn n_inputs_follow_the_constructor() {
        let p = TrafficPredictor::arma(1, 0, 21.0);
        assert_eq!(p.n_inputs(), 0);
        let px = TrafficPredictor::armax(1, 0, 1, 2, 21.0);
        assert_eq!(px.n_inputs(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid threshold")]
    fn bad_threshold_panics() {
        let _ = TrafficPredictor::arma(1, 0, -1.0);
    }

    #[test]
    #[should_panic(expected = "trace length mismatch")]
    fn evaluate_checks_lengths() {
        let p = TrafficPredictor::arma(1, 0, 21.0);
        let _ = p.evaluate(&[1.0, 2.0], &[Vec::new()], 0);
    }
}

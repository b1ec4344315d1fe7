//! Streaming SLO objectives and burn-rate evaluation.
//!
//! An [`SloObjective`] declares, over one windowed metric stream
//! ([`crate::registry::WindowedHistogram`]), what a *bad* sample is
//! (above `threshold`) and how many of them the service may afford
//! (`budget`, a fraction). The evaluator then watches the stream the
//! Google-SRE way — **multi-window, multi-burn-rate**: the burn rate is
//! `bad_fraction / budget` (1.0 = spending the budget exactly on
//! schedule), and an objective is *breaching* only when both a short
//! window (is it happening right now?) and a long window (is it
//! material, not a blip?) exceed their burn thresholds. Sim sessions
//! run seconds, not weeks, so the windows are sub-second to a few
//! seconds rather than SRE's hours — the structure is the same.
//!
//! Objectives are expressed so that the bad direction is "too high":
//! latency objectives watch the latency itself, throughput objectives
//! watch the inter-arrival gap, ratio objectives watch the failure
//! ratio. This keeps one comparison direction and one budget algebra.
//!
//! Metrics without a hard objective get an [`AnomalyDetector`] instead:
//! an EWMA mean/variance tracker flagging samples whose z-score exceeds
//! a configured bound. Anomalies annotate incident timelines but never
//! open incidents on their own.

use gbooster_sim::time::{SimDuration, SimTime};

use crate::registry::WindowedHistogram;

/// One service-level objective over a windowed metric stream.
#[derive(Clone, Copy, Debug)]
pub struct SloObjective {
    /// Objective name (see [`crate::names::slo`]) — also the alert name.
    pub name: &'static str,
    /// The windowed stream the objective reads (see
    /// [`crate::names::ops`]).
    pub stream: &'static str,
    /// Unit of the stream's samples, for reports ("us", "permille", …).
    pub unit: &'static str,
    /// Per-sample bad boundary: a sample above this is bad.
    pub threshold: u64,
    /// Allowed bad fraction, in `(0, 1)`.
    pub budget: f64,
    /// Short confirmation window ("is it happening right now?").
    pub fast_window: SimDuration,
    /// Long materiality window ("is it more than a blip?").
    pub slow_window: SimDuration,
    /// Burn-rate threshold for the fast window.
    pub fast_burn: f64,
    /// Burn-rate threshold for the slow window.
    pub slow_burn: f64,
    /// No breach verdicts before this sim time: cold caches and
    /// first-frame transients are not outages.
    pub warmup: SimDuration,
}

impl SloObjective {
    /// Sanity-checks the objective's parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.budget > 0.0 && self.budget < 1.0) {
            return Err(format!("{}: budget must be in (0, 1)", self.name));
        }
        if self.fast_window.is_zero() || self.slow_window.is_zero() {
            return Err(format!("{}: windows must be non-zero", self.name));
        }
        if self.fast_window > self.slow_window {
            return Err(format!(
                "{}: the fast window must not exceed the slow window",
                self.name
            ));
        }
        if self.fast_burn <= 0.0 || self.slow_burn <= 0.0 {
            return Err(format!("{}: burn thresholds must be positive", self.name));
        }
        Ok(())
    }

    /// Evaluates the objective against its stream at `now`.
    pub fn evaluate(&self, now: SimTime, stream: &WindowedHistogram) -> BurnState {
        let (fast_count, fast_over) =
            stream.window_count_over(now, self.fast_window, self.threshold);
        let (slow_count, slow_over) =
            stream.window_count_over(now, self.slow_window, self.threshold);
        let burn = |count: u64, over: u64| {
            if count == 0 {
                0.0
            } else {
                (over as f64 / count as f64) / self.budget
            }
        };
        let fast_burn = burn(fast_count, fast_over);
        let slow_burn = burn(slow_count, slow_over);
        BurnState {
            objective: self.name,
            fast_burn,
            slow_burn,
            fast_count,
            slow_count,
            breaching: now.saturating_duration_since(SimTime::ZERO) >= self.warmup
                && fast_burn >= self.fast_burn
                && slow_burn >= self.slow_burn,
        }
    }
}

/// The evaluator's verdict for one objective at one instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurnState {
    /// The objective evaluated.
    pub objective: &'static str,
    /// Burn rate over the fast window (1.0 = on-budget spend).
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// Samples in the fast window.
    pub fast_count: u64,
    /// Samples in the slow window.
    pub slow_count: u64,
    /// Both windows over threshold (and past warmup).
    pub breaching: bool,
}

/// EWMA mean/variance tracker flagging z-score outliers on a metric
/// stream that has no hard objective (per-interface energy rate, …).
#[derive(Clone, Debug)]
pub struct AnomalyDetector {
    /// The stream this detector watches, for event labels.
    pub metric: &'static str,
    alpha: f64,
    z_threshold: f64,
    warmup_samples: u64,
    mean: f64,
    var: f64,
    seen: u64,
}

/// One flagged outlier.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Anomaly {
    /// The observed sample.
    pub value: f64,
    /// The EWMA mean at observation time.
    pub mean: f64,
    /// How many EWMA standard deviations the sample sits from the mean.
    pub z: f64,
}

impl AnomalyDetector {
    /// Creates a detector with smoothing factor `alpha` (0 < α ≤ 1),
    /// flagging samples more than `z_threshold` EWMA standard
    /// deviations from the mean, after `warmup_samples` observations.
    pub fn new(metric: &'static str, alpha: f64, z_threshold: f64, warmup_samples: u64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range");
        assert!(z_threshold > 0.0, "z threshold must be positive");
        AnomalyDetector {
            metric,
            alpha,
            z_threshold,
            warmup_samples,
            mean: 0.0,
            var: 0.0,
            seen: 0,
        }
    }

    /// Feeds one sample; returns the anomaly verdict *before* folding
    /// the sample into the estimate (an outlier must not vouch for
    /// itself).
    pub fn observe(&mut self, value: f64) -> Option<Anomaly> {
        let verdict = if self.seen >= self.warmup_samples {
            let std = self.var.max(0.0).sqrt();
            if std > f64::EPSILON {
                let z = (value - self.mean) / std;
                (z.abs() >= self.z_threshold).then_some(Anomaly {
                    value,
                    mean: self.mean,
                    z,
                })
            } else {
                None
            }
        } else {
            None
        };
        if self.seen == 0 {
            self.mean = value;
            self.var = 0.0;
        } else {
            let diff = value - self.mean;
            let incr = self.alpha * diff;
            self.mean += incr;
            self.var = (1.0 - self.alpha) * (self.var + diff * incr);
        }
        self.seen += 1;
        verdict
    }

    /// Samples observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::WindowedHistogram;

    fn objective() -> SloObjective {
        SloObjective {
            name: "slo.test_latency",
            stream: "win.test_latency",
            unit: "us",
            threshold: 50_000,
            budget: 0.05,
            fast_window: SimDuration::from_millis(500),
            slow_window: SimDuration::from_secs(2),
            fast_burn: 4.0,
            slow_burn: 2.0,
            warmup: SimDuration::from_millis(100),
        }
    }

    #[test]
    fn validate_rejects_degenerate_objectives() {
        assert!(objective().validate().is_ok());
        let mut bad = objective();
        bad.budget = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = objective();
        bad.fast_window = SimDuration::from_secs(10);
        assert!(bad.validate().is_err());
        let mut bad = objective();
        bad.slow_burn = -1.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn burn_needs_both_windows_over_threshold() {
        let obj = objective();
        let stream = WindowedHistogram::detached(SimDuration::from_millis(100), 64);
        // Two seconds of healthy traffic: ~30 ms, all good.
        let mut t = SimTime::ZERO;
        for _ in 0..80 {
            t += SimDuration::from_millis(25);
            stream.record(t, 30_000);
        }
        let healthy = obj.evaluate(t, &stream);
        assert!(!healthy.breaching);
        assert_eq!(healthy.fast_burn, 0.0);
        // A short spike: the fast window burns hot, but two seconds of
        // history keep the slow window under its threshold — no breach.
        for _ in 0..5 {
            t += SimDuration::from_millis(25);
            stream.record(t, 200_000);
        }
        let spike = obj.evaluate(t, &stream);
        assert!(spike.fast_burn >= obj.fast_burn, "{spike:?}");
        assert!(!spike.breaching, "a blip must not breach: {spike:?}");
        // Sustained badness pushes the slow window over too.
        for _ in 0..60 {
            t += SimDuration::from_millis(25);
            stream.record(t, 200_000);
        }
        let outage = obj.evaluate(t, &stream);
        assert!(outage.breaching, "{outage:?}");
        assert!(outage.slow_burn >= obj.slow_burn);
    }

    #[test]
    fn warmup_and_empty_windows_never_breach() {
        let obj = objective();
        let stream = WindowedHistogram::detached(SimDuration::from_millis(100), 64);
        // All-bad traffic inside the warmup: burns are hot, verdict no.
        let t = SimTime::from_millis(50);
        for _ in 0..10 {
            stream.record(t, 200_000);
        }
        let early = obj.evaluate(t, &stream);
        assert!(early.fast_burn > obj.fast_burn);
        assert!(!early.breaching, "warmup must suppress the verdict");
        // An empty stream reads as zero burn, not a division blow-up.
        let empty = WindowedHistogram::detached(SimDuration::from_millis(100), 64);
        let none = obj.evaluate(SimTime::from_secs(5), &empty);
        assert_eq!(none.fast_burn, 0.0);
        assert!(!none.breaching);
    }

    #[test]
    fn anomaly_detector_flags_outliers_after_warmup() {
        let mut det = AnomalyDetector::new("win.energy", 0.2, 4.0, 10);
        // A steady stream with mild jitter trains the estimate.
        for i in 0..50u64 {
            let v = 100.0 + (i % 5) as f64;
            assert!(det.observe(v).is_none(), "steady stream must not flag");
        }
        // A 10x spike is an outlier.
        let hit = det.observe(1_000.0).expect("spike must flag");
        assert!(hit.z > 4.0);
        assert!(hit.mean < 110.0);
        // The estimate is updated after the verdict, so a return to
        // normal does not flag.
        assert!(det.observe(102.0).is_none());
    }

    #[test]
    fn anomaly_warmup_swallows_early_outliers() {
        let mut det = AnomalyDetector::new("win.energy", 0.2, 3.0, 10);
        for _ in 0..5 {
            assert!(det.observe(5.0).is_none());
        }
        // Still inside warmup: even a wild sample passes silently.
        assert!(det.observe(10_000.0).is_none());
        assert_eq!(det.seen(), 6);
    }
}

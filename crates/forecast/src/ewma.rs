//! Exponentially-weighted moving average — the naive forecasting baseline
//! the ARMA/ARMAX pair should beat.
//!
//! The paper jumps straight from "no prediction" to ARMA; an EWMA is the
//! simplest thing a practitioner would try first, so the prediction
//! benches include it as a third point of comparison.

/// An EWMA forecaster: `ŷ_{t+1} = α·y_t + (1−α)·ŷ_t`.
///
/// # Examples
///
/// ```
/// use gbooster_forecast::ewma::Ewma;
///
/// let mut f = Ewma::new(0.3);
/// for _ in 0..50 {
///     f.observe(10.0);
/// }
/// assert!((f.forecast_next() - 10.0).abs() < 0.1);
/// ```
#[derive(Clone, Debug)]
pub struct Ewma {
    alpha: f64,
    level: Option<f64>,
}

impl Ewma {
    /// Creates a forecaster with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1]: {alpha}"
        );
        Ewma { alpha, level: None }
    }

    /// Feeds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `y` is not finite.
    pub fn observe(&mut self, y: f64) {
        assert!(y.is_finite(), "non-finite observation");
        self.level = Some(match self.level {
            None => y,
            Some(level) => self.alpha * y + (1.0 - self.alpha) * level,
        });
    }

    /// One-step-ahead forecast (0 before any observation).
    pub fn forecast_next(&self) -> f64 {
        self.level.unwrap_or(0.0)
    }

    /// Evaluates surge prediction on a trace with the same FN/FP protocol
    /// as [`crate::predictor::TrafficPredictor::evaluate`].
    ///
    /// # Panics
    ///
    /// Panics if `warmup >= traffic.len()`.
    pub fn evaluate(
        mut self,
        traffic: &[f64],
        threshold: f64,
        warmup: usize,
    ) -> crate::predictor::PredictionQuality {
        assert!(warmup < traffic.len(), "warmup longer than trace");
        let mut missed = 0usize;
        let mut surges = 0usize;
        let mut false_alarms = 0usize;
        let mut calm = 0usize;
        let mut samples = 0usize;
        for (t, &y) in traffic.iter().enumerate() {
            if t >= warmup {
                let predicted = self.forecast_next() > threshold;
                let actual = y > threshold;
                match (actual, predicted) {
                    (true, false) => {
                        surges += 1;
                        missed += 1;
                    }
                    (true, true) => surges += 1,
                    (false, true) => {
                        calm += 1;
                        false_alarms += 1;
                    }
                    (false, false) => calm += 1,
                }
                samples += 1;
            }
            self.observe(y);
        }
        crate::predictor::PredictionQuality {
            fn_rate: if surges == 0 {
                0.0
            } else {
                missed as f64 / surges as f64
            },
            fp_rate: if calm == 0 {
                0.0
            } else {
                false_alarms as f64 / calm as f64
            },
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_constant_signal() {
        let mut f = Ewma::new(0.5);
        for _ in 0..30 {
            f.observe(7.0);
        }
        assert!((f.forecast_next() - 7.0).abs() < 1e-6);
    }

    #[test]
    fn lags_behind_steps() {
        let mut f = Ewma::new(0.2);
        for _ in 0..50 {
            f.observe(1.0);
        }
        f.observe(10.0);
        // One observation of the new level moves it only alpha of the way.
        assert!((f.forecast_next() - 2.8).abs() < 1e-9);
    }

    #[test]
    fn higher_alpha_reacts_faster() {
        let mut slow = Ewma::new(0.1);
        let mut fast = Ewma::new(0.9);
        for _ in 0..20 {
            slow.observe(0.0);
            fast.observe(0.0);
        }
        slow.observe(10.0);
        fast.observe(10.0);
        assert!(fast.forecast_next() > slow.forecast_next());
    }

    #[test]
    fn misses_abrupt_surges_by_construction() {
        // Spiky traffic: EWMA always forecasts yesterday's calm, so it
        // misses isolated one-window surges entirely.
        let mut traffic = vec![5.0; 400];
        for i in (50..400).step_by(25) {
            traffic[i] = 30.0;
        }
        let q = Ewma::new(0.3).evaluate(&traffic, 16.8, 20);
        assert!(q.fn_rate > 0.9, "FN {:.2}", q.fn_rate);
    }

    #[test]
    fn forecast_before_data_is_zero() {
        assert_eq!(Ewma::new(0.5).forecast_next(), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let _ = Ewma::new(0.0);
    }
}

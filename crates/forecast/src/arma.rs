//! Online ARMA(p,q) — Eq. 2 of the paper.
//!
//! ```text
//! y_t = ε_t + Σ φ_i · y_{t−i} + Σ θ_i · ε_{t−i}
//! ```
//!
//! Innovations ε are unobservable, so the model uses the standard
//! pseudo-linear regression: the one-step prediction residuals stand in
//! for ε, and the parameter vector (φ, θ) is tracked online with
//! [`crate::rls::Rls`].

use std::collections::VecDeque;

use crate::rls::Rls;

/// An online ARMA(p,q) forecaster.
///
/// # Examples
///
/// ```
/// use gbooster_forecast::arma::ArmaModel;
///
/// // An AR(1) process is learnable by ARMA(1,0).
/// let mut model = ArmaModel::new(1, 0);
/// let mut y = 1.0;
/// for _ in 0..500 {
///     model.observe(y);
///     y = 0.8 * y + 1.0;
/// }
/// // y converges to 5; the model should predict near it.
/// assert!((model.forecast_next() - 5.0).abs() < 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct ArmaModel {
    p: usize,
    q: usize,
    rls: Rls,
    y_hist: VecDeque<f64>,
    e_hist: VecDeque<f64>,
}

impl ArmaModel {
    /// Creates an ARMA(p,q) model with at least one term.
    ///
    /// # Panics
    ///
    /// Panics if `p + q == 0`.
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p + q > 0, "model needs at least one term");
        ArmaModel {
            p,
            q,
            // +1 for an intercept term so non-zero-mean series fit.
            rls: Rls::new(p + q + 1, 0.995),
            y_hist: VecDeque::with_capacity(p + 1),
            e_hist: VecDeque::with_capacity(q + 1),
        }
    }

    /// Number of parameters (for AIC).
    pub fn param_count(&self) -> usize {
        self.p + self.q + 1
    }

    fn regressor(&self) -> Vec<f64> {
        let mut x = Vec::with_capacity(self.p + self.q + 1);
        for i in 0..self.p {
            x.push(self.y_hist.get(i).copied().unwrap_or(0.0));
        }
        for i in 0..self.q {
            x.push(self.e_hist.get(i).copied().unwrap_or(0.0));
        }
        x.push(1.0); // intercept
        x
    }

    /// One-step-ahead forecast given the history seen so far.
    pub fn forecast_next(&self) -> f64 {
        self.rls.predict(&self.regressor())
    }

    /// Feeds the next observation; returns the one-step prediction error
    /// the model made for it (its innovation estimate).
    ///
    /// # Panics
    ///
    /// Panics if `y` is not finite.
    pub fn observe(&mut self, y: f64) -> f64 {
        assert!(y.is_finite(), "non-finite observation");
        let x = self.regressor();
        let err = self.rls.update(&x, y);
        self.y_hist.push_front(y);
        if self.y_hist.len() > self.p.max(1) {
            self.y_hist.pop_back();
        }
        self.e_hist.push_front(err);
        if self.e_hist.len() > self.q.max(1) {
            self.e_hist.pop_back();
        }
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;

    #[test]
    fn learns_ar2_process() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut model = ArmaModel::new(2, 0);
        let (a1, a2) = (0.6, 0.3);
        let (mut y1, mut y2) = (0.0, 0.0);
        let mut errs = Vec::new();
        for t in 0..2000 {
            let noise: f64 = rng.gen_range(-0.1..0.1);
            let y = a1 * y1 + a2 * y2 + 1.0 + noise;
            let err = model.observe(y);
            if t > 1500 {
                errs.push(err.abs());
            }
            y2 = y1;
            y1 = y;
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean_err < 0.15, "mean error {mean_err}");
    }

    #[test]
    fn ma_terms_capture_shock_echo() {
        // ARMA(0,1) on an MA(1)-ish series should not blow up and should
        // produce finite forecasts.
        let mut model = ArmaModel::new(0, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut prev_noise = 0.0;
        for _ in 0..500 {
            let noise: f64 = rng.gen_range(-1.0..1.0);
            let y = noise + 0.7 * prev_noise + 10.0;
            model.observe(y);
            prev_noise = noise;
        }
        let f = model.forecast_next();
        assert!((f - 10.0).abs() < 1.5, "forecast {f}");
    }

    #[test]
    fn forecast_before_any_data_is_finite() {
        let model = ArmaModel::new(2, 1);
        assert!(model.forecast_next().is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one term")]
    fn zero_order_panics() {
        let _ = ArmaModel::new(0, 0);
    }
}

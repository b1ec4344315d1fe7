//! Recursive least squares with exponential forgetting.
//!
//! The paper applies "a recursive algorithm \[30\] for online estimating and
//! updating the order … and the corresponding parameters" of its ARMA(X)
//! models. RLS is the standard such algorithm: it refines the parameter
//! vector θ after every observation in O(d²) without refitting, and the
//! forgetting factor λ < 1 lets the model track the non-stationary traffic
//! of an interactive game session (the "sliding data window" of ref \[30\]).

/// An online least-squares estimator for `y ≈ θᵀx`.
///
/// # Examples
///
/// ```
/// use gbooster_forecast::rls::Rls;
///
/// // Learn y = 2·a + 3·b online.
/// let mut rls = Rls::new(2, 0.99);
/// for i in 0..200 {
///     let a = (i % 7) as f64;
///     let b = (i % 5) as f64;
///     rls.update(&[a, b], 2.0 * a + 3.0 * b);
/// }
/// assert!((rls.predict(&[1.0, 0.0]) - 2.0).abs() < 0.05);
/// assert!((rls.predict(&[0.0, 1.0]) - 3.0).abs() < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct Rls {
    dim: usize,
    theta: Vec<f64>,
    /// Inverse covariance matrix P, row-major `dim × dim`.
    p: Vec<f64>,
    lambda: f64,
    updates: u64,
}

impl Rls {
    /// Creates an estimator for `dim` regressors with forgetting factor
    /// `lambda` (1.0 = infinite memory; 0.95–0.999 typical for tracking).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `lambda` is outside `(0, 1]`.
    pub fn new(dim: usize, lambda: f64) -> Self {
        assert!(dim > 0, "dimension must be nonzero");
        assert!(
            lambda > 0.0 && lambda <= 1.0,
            "forgetting factor must be in (0, 1]: {lambda}"
        );
        // P starts as δ·I with large δ (uninformative prior).
        let delta = 1e4;
        let mut p = vec![0.0; dim * dim];
        for i in 0..dim {
            p[i * dim + i] = delta;
        }
        Rls {
            dim,
            theta: vec![0.0; dim],
            p,
            lambda,
            updates: 0,
        }
    }

    /// Current parameter estimate θ.
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Number of updates performed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Predicted output for regressor vector `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "regressor dimension mismatch");
        self.theta.iter().zip(x.iter()).map(|(t, v)| t * v).sum()
    }

    /// Incorporates one observation `(x, y)`; returns the a-priori
    /// prediction error `y − θᵀx`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim` or any input is non-finite.
    pub fn update(&mut self, x: &[f64], y: f64) -> f64 {
        assert_eq!(x.len(), self.dim, "regressor dimension mismatch");
        assert!(
            y.is_finite() && x.iter().all(|v| v.is_finite()),
            "non-finite observation"
        );
        let d = self.dim;
        // px = P x
        let mut px = vec![0.0; d];
        for (i, pxi) in px.iter_mut().enumerate() {
            let row = &self.p[i * d..(i + 1) * d];
            *pxi = row.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
        }
        // g = P x / (λ + xᵀ P x)
        let denom = self.lambda + x.iter().zip(px.iter()).map(|(a, b)| a * b).sum::<f64>();
        let err = y - self.predict(x);
        for (theta, pxi) in self.theta.iter_mut().zip(px.iter()) {
            *theta += pxi / denom * err;
        }
        // P ← (P − g xᵀ P) / λ
        let mut xtp = vec![0.0; d]; // xᵀP (row vector)
        for (j, xtpj) in xtp.iter_mut().enumerate() {
            *xtpj = (0..d).map(|i| x[i] * self.p[i * d + j]).sum();
        }
        for (i, pxi) in px.iter().enumerate() {
            for (j, xtpj) in xtp.iter().enumerate() {
                self.p[i * d + j] = (self.p[i * d + j] - pxi * xtpj / denom) / self.lambda;
            }
        }
        self.updates += 1;
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_true_parameters() {
        let mut rls = Rls::new(3, 1.0);
        let truth = [1.5, -2.0, 0.25];
        for i in 0..500 {
            let x = [
                ((i * 13) % 17) as f64 / 17.0,
                ((i * 7) % 11) as f64 / 11.0,
                ((i * 3) % 5) as f64 / 5.0,
            ];
            let y: f64 = truth.iter().zip(x.iter()).map(|(t, v)| t * v).sum();
            rls.update(&x, y);
        }
        for (est, tru) in rls.theta().iter().zip(truth.iter()) {
            assert!((est - tru).abs() < 1e-3, "estimate {est} vs {tru}");
        }
    }

    #[test]
    fn forgetting_tracks_parameter_drift() {
        let mut rls = Rls::new(1, 0.95);
        // First regime: y = 1·x, then y = 5·x.
        for i in 0..300 {
            let x = [1.0 + (i % 3) as f64];
            rls.update(&x, 1.0 * x[0]);
        }
        for i in 0..300 {
            let x = [1.0 + (i % 3) as f64];
            rls.update(&x, 5.0 * x[0]);
        }
        assert!(
            (rls.theta()[0] - 5.0).abs() < 0.1,
            "theta {:?}",
            rls.theta()
        );
    }

    #[test]
    fn prediction_error_decreases() {
        let mut rls = Rls::new(2, 1.0);
        let mut early = 0.0;
        let mut late = 0.0;
        for i in 0..200 {
            let x = [(i % 9) as f64, 1.0];
            let err = rls.update(&x, 3.0 * x[0] + 7.0).abs();
            if i < 20 {
                early += err;
            } else if i >= 180 {
                late += err;
            }
        }
        assert!(late < early / 10.0, "early {early} late {late}");
    }

    #[test]
    fn updates_counter() {
        let mut rls = Rls::new(1, 1.0);
        rls.update(&[1.0], 2.0);
        rls.update(&[2.0], 4.0);
        assert_eq!(rls.updates(), 2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_panics() {
        let mut rls = Rls::new(2, 1.0);
        rls.update(&[1.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "forgetting factor")]
    fn bad_lambda_panics() {
        let _ = Rls::new(1, 1.5);
    }
}

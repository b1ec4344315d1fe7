//! # gbooster-forecast
//!
//! Traffic-volume forecasting for energy-aware interface switching
//! (Section V-B of the paper).
//!
//! Waking a WiFi radio takes 100–500 ms, so GBooster must *foresee* a
//! traffic surge that will exceed Bluetooth's ~21 Mbps and pre-arm WiFi.
//! The paper first fits an ARMA(p,q) model (Eq. 2), finds its false-
//! negative rate too high (35.1 %), and upgrades to ARMAX (Eq. 3) with
//! exogenous inputs — touchstroke frequency and per-frame texture count,
//! selected by Akaike Information Criterion — reaching FN 17 % / FP 23 %.
//!
//! * [`rls`] — recursive least squares with forgetting factor, the
//!   "recursive algorithm for online estimating and updating" (ref \[30\]).
//! * [`ewma`] — the naive exponential-smoothing baseline.
//! * [`arma`] — online ARMA(p,q) (Eq. 2).
//! * [`armax`] — online ARMAX(p,q,b) with exogenous inputs (Eq. 3).
//! * [`aic`] — AIC-based order/attribute selection (ref \[29\]).
//! * [`predictor`] — the traffic predictor with the paper's FN/FP
//!   evaluation protocol.

pub mod aic;
pub mod arma;
pub mod armax;
pub mod ewma;
pub mod predictor;
pub mod rls;

pub use arma::ArmaModel;
pub use armax::ArmaxModel;
pub use predictor::{PredictionQuality, TrafficPredictor};

//! Battery model: from power draw to the paper's headline objective,
//! "Extend Battery Life" (Section II).
//!
//! The evaluation reports normalized energy; this module turns those
//! joules back into what the user feels — hours of gameplay per charge —
//! using the shipping battery capacities of the evaluation phones.

use crate::time::SimDuration;

/// A phone battery with a fixed usable capacity.
///
/// # Examples
///
/// ```
/// use gbooster_sim::battery::Battery;
///
/// let b = Battery::nexus5();
/// // 8.74 Wh lasts two and a half hours at 3.5 W.
/// let hours = b.lifetime_at(3.5).as_secs_f64() / 3600.0;
/// assert!((hours - 2.497).abs() < 1e-3);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Battery {
    capacity_wh: f64,
}

impl Battery {
    /// Creates a battery from capacity in milliamp-hours at the given
    /// nominal voltage.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not positive and finite.
    pub fn from_mah(mah: f64, volts: f64) -> Self {
        assert!(mah.is_finite() && mah > 0.0, "invalid capacity");
        assert!(volts.is_finite() && volts > 0.0, "invalid voltage");
        Battery {
            capacity_wh: mah * volts / 1000.0,
        }
    }

    /// LG Nexus 5: 2300 mAh at 3.8 V nominal.
    pub fn nexus5() -> Self {
        Battery::from_mah(2300.0, 3.8)
    }

    /// LG G5: 2800 mAh at 3.85 V nominal.
    pub fn lg_g5() -> Self {
        Battery::from_mah(2800.0, 3.85)
    }

    /// Usable capacity in watt-hours.
    pub fn capacity_wh(&self) -> f64 {
        self.capacity_wh
    }

    /// How long a full charge lasts at a constant `watts` draw.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is not positive and finite.
    pub fn lifetime_at(&self, watts: f64) -> SimDuration {
        assert!(watts.is_finite() && watts > 0.0, "invalid power");
        SimDuration::from_secs_f64(self.capacity_wh * 3600.0 / watts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_math() {
        let b = Battery::from_mah(2000.0, 4.0);
        assert!((b.capacity_wh() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn nexus5_plays_gta_for_about_2_4_hours_locally() {
        // Local G1 draws ≈3.7 W in our model: 8.74 Wh / 3.7 W ≈ 2.4 h.
        let b = Battery::nexus5();
        let hours = b.lifetime_at(3.7).as_secs_f64() / 3600.0;
        assert!((2.0..=2.8).contains(&hours), "{hours:.2} h");
    }

    #[test]
    fn halved_power_doubles_lifetime() {
        let b = Battery::lg_g5();
        let full = b.lifetime_at(3.0).as_secs_f64();
        let half = b.lifetime_at(1.5).as_secs_f64();
        assert!((half / full - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid power")]
    fn zero_power_lifetime_panics() {
        let _ = Battery::nexus5().lifetime_at(0.0);
    }
}

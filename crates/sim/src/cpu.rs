//! Multi-core CPU time and power model.
//!
//! Table I of the paper shows that phone CPUs comfortably exceed game
//! requirements — the CPU is *not* the bottleneck — but GBooster still
//! needs a CPU model for three reasons:
//!
//! * application game logic consumes CPU time per frame and bounds the
//!   rate at which rendering requests can be generated (Section VI-A
//!   attributes the 3-request buffer cap partly to the CPU);
//! * offloading adds CPU work for serialization, compression and image
//!   decoding (Section VII-G measures 68 % → 79 % on a Nexus 5);
//! * the motivation experiment compares GPU power against CPU power
//!   (≈3 W vs ≈0.6 W, Section II).

use crate::time::SimDuration;

/// Static description of a CPU.
#[derive(Clone, Debug, PartialEq)]
pub struct CpuSpec {
    /// Peak clock of one core in GHz.
    pub clock_ghz: f64,
    /// Number of cores.
    pub cores: u32,
    /// Power at full load across all cores, in watts.
    pub max_power_w: f64,
    /// Idle power, in watts.
    pub idle_power_w: f64,
}

impl CpuSpec {
    /// Creates a phone-class CPU with the paper's ≈0.6 W single-core-heavy
    /// gaming draw scaled to full load.
    pub fn phone(clock_ghz: f64, cores: u32) -> Self {
        CpuSpec {
            clock_ghz,
            cores,
            max_power_w: 2.0,
            idle_power_w: 0.1,
        }
    }

    /// Creates a desktop/console-class CPU.
    pub fn desktop(clock_ghz: f64, cores: u32) -> Self {
        CpuSpec {
            clock_ghz,
            cores,
            max_power_w: 45.0,
            idle_power_w: 5.0,
        }
    }

    /// Aggregate throughput in giga-cycles per second.
    pub fn total_gcycles_per_sec(&self) -> f64 {
        self.clock_ghz * self.cores as f64
    }

    /// Power at whole-chip `utilization`, in watts: linear between idle
    /// and full load.
    pub fn power_w(&self, utilization: f64) -> f64 {
        self.idle_power_w + (self.max_power_w - self.idle_power_w) * utilization
    }
}

/// A stateful CPU accruing energy at a given utilization.
///
/// # Examples
///
/// ```
/// use gbooster_sim::cpu::{CpuModel, CpuSpec};
/// use gbooster_sim::time::SimDuration;
///
/// let mut cpu = CpuModel::new(CpuSpec::phone(2.26, 4));
/// // Ten seconds at full load draw the phone CPU's 2 W peak.
/// cpu.step(SimDuration::from_secs(10), 1.0);
/// assert!((cpu.energy_joules() - 20.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct CpuModel {
    spec: CpuSpec,
    energy_j: f64,
}

impl CpuModel {
    /// Creates an idle CPU.
    pub fn new(spec: CpuSpec) -> Self {
        CpuModel {
            spec,
            energy_j: 0.0,
        }
    }

    /// Advances wall time by `dt` at the given whole-chip utilization,
    /// accruing energy. Returns joules consumed.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]`.
    pub fn step(&mut self, dt: SimDuration, utilization: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization out of range: {utilization}"
        );
        let power = self.power_w(utilization);
        let energy = power * dt.as_secs_f64();
        self.energy_j += energy;
        energy
    }

    /// Instantaneous power at `utilization`, in watts.
    pub fn power_w(&self, utilization: f64) -> f64 {
        self.spec.power_w(utilization)
    }

    /// Total energy consumed so far, in joules.
    pub fn energy_joules(&self) -> f64 {
        self.energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_interpolates_between_idle_and_max() {
        let cpu = CpuModel::new(CpuSpec::phone(2.0, 4));
        assert!((cpu.power_w(0.0) - 0.1).abs() < 1e-9);
        assert!((cpu.power_w(1.0) - 2.0).abs() < 1e-9);
        assert!((cpu.power_w(0.5) - 1.05).abs() < 1e-9);
    }

    #[test]
    fn energy_accrues_with_step() {
        let mut cpu = CpuModel::new(CpuSpec::phone(2.0, 4));
        let e = cpu.step(SimDuration::from_secs(10), 1.0);
        assert!((e - 20.0).abs() < 1e-9);
    }
}

//! Mobile/desktop GPU model: fillrate, DVFS and thermal throttling.
//!
//! Section II of the paper motivates GBooster with two GPU pathologies:
//!
//! 1. **Limited fillrate** — Table I shows game requirements saturating the
//!    fillrate (GPixels/s) of contemporary phones while CPU headroom
//!    remains.
//! 2. **Thermal throttling** — Fig. 1 shows an LG G4 running GTA San
//!    Andreas at 600 MHz for the first ~10 minutes, then collapsing to
//!    100 MHz once the temperature threshold is crossed.
//!
//! [`GpuModel`] reproduces both: rendering cost is pixels ÷ effective
//! fillrate, and a lumped-capacitance thermal model heats the die under
//! utilization and throttles the clock above a threshold. Service devices
//! with active cooling (fans) never reach the threshold, which is the
//! paper's explanation for their higher FPS *stability*.

use crate::time::SimDuration;

/// Static description of a GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuSpec {
    /// Peak fillrate at maximum clock, in GPixels/s (the unit of Table I).
    pub fillrate_gpixels_per_sec: f64,
    /// Maximum core clock in MHz (Fig. 1 shows 600 MHz for the LG G4).
    pub max_freq_mhz: u32,
    /// Clock after thermal throttling in MHz (Fig. 1 shows 100 MHz).
    pub throttled_freq_mhz: u32,
    /// Whether the device has active cooling (fans). Phones do not;
    /// consoles/PCs do (Section VII-B attributes their stable FPS to this).
    pub active_cooling: bool,
    /// Power draw at full utilization and max clock, in watts.
    /// The paper measures ≈3 W for phone GPUs (Section II).
    pub max_power_w: f64,
    /// Idle power draw in watts.
    pub idle_power_w: f64,
    /// Relative thermal density (1.0 = the calibration baseline). Newer
    /// process nodes run cooler (<1); compact hot chassis run hotter (>1).
    pub heat_scale: f64,
}

impl GpuSpec {
    /// Builds a passive-cooled phone GPU with the paper's 3 W draw.
    pub fn phone(fillrate_gpixels_per_sec: f64, max_freq_mhz: u32) -> Self {
        GpuSpec {
            fillrate_gpixels_per_sec,
            max_freq_mhz,
            throttled_freq_mhz: max_freq_mhz / 6, // 600 MHz -> 100 MHz per Fig. 1
            active_cooling: false,
            max_power_w: 3.0,
            idle_power_w: 0.05,
            heat_scale: 1.0,
        }
    }

    /// Builds an actively-cooled service-device GPU.
    pub fn cooled(fillrate_gpixels_per_sec: f64, max_freq_mhz: u32, max_power_w: f64) -> Self {
        GpuSpec {
            fillrate_gpixels_per_sec,
            max_freq_mhz,
            throttled_freq_mhz: max_freq_mhz / 2,
            active_cooling: true,
            max_power_w,
            idle_power_w: 0.5,
            heat_scale: 1.0,
        }
    }
}

/// Thermal constants for the lumped-capacitance model.
///
/// Calibrated so a passively-cooled phone at 100 % utilization crosses
/// [`ThermalParams::throttle_temp_c`] after ≈10 simulated minutes,
/// matching Fig. 1.
#[derive(Clone, Debug, PartialEq)]
pub struct ThermalParams {
    /// Ambient temperature in °C.
    pub ambient_c: f64,
    /// Temperature above which the clock throttles, in °C.
    pub throttle_temp_c: f64,
    /// Temperature below which the clock recovers, in °C (hysteresis).
    pub recover_temp_c: f64,
    /// Heating coefficient, °C/s at full utilization.
    pub heat_rate: f64,
    /// Cooling coefficient, fraction of (T − ambient) shed per second.
    pub cool_rate: f64,
}

impl ThermalParams {
    /// Passive (phone) cooling: reaches the throttle point after ~10 min
    /// of full load and stays throttled, as in Fig. 1.
    pub fn passive() -> Self {
        ThermalParams {
            ambient_c: 25.0,
            throttle_temp_c: 65.0,
            recover_temp_c: 55.0,
            heat_rate: 0.21,
            cool_rate: 0.005,
        }
    }

    /// Active (fan) cooling: equilibrium stays far below the throttle
    /// point at any utilization.
    pub fn active() -> Self {
        ThermalParams {
            ambient_c: 25.0,
            throttle_temp_c: 80.0,
            recover_temp_c: 70.0,
            heat_rate: 0.25,
            cool_rate: 0.05,
        }
    }
}

impl Default for ThermalParams {
    fn default() -> Self {
        ThermalParams::passive()
    }
}

/// A stateful GPU: clock, temperature and utilization tracking.
///
/// # Examples
///
/// ```
/// use gbooster_sim::gpu::{GpuModel, GpuSpec};
/// use gbooster_sim::time::SimDuration;
///
/// let mut gpu = GpuModel::new(GpuSpec::phone(4.8, 600));
/// // Render a 1280x720 frame of average complexity.
/// let cost = gpu.render_time(1280 * 720, 1.0);
/// assert!(cost > SimDuration::ZERO);
/// ```
#[derive(Clone, Debug)]
pub struct GpuModel {
    spec: GpuSpec,
    thermal: ThermalParams,
    temperature_c: f64,
    throttled: bool,
    energy_j: f64,
}

impl GpuModel {
    /// Creates a GPU at ambient temperature and full clock.
    ///
    /// Thermal parameters default to passive or active cooling based on
    /// `spec.active_cooling`.
    pub fn new(spec: GpuSpec) -> Self {
        let thermal = if spec.active_cooling {
            ThermalParams::active()
        } else {
            ThermalParams::passive()
        };
        Self::with_thermal(spec, thermal)
    }

    /// Creates a GPU with explicit thermal parameters (heating is scaled
    /// by the spec's [`GpuSpec::heat_scale`]).
    pub fn with_thermal(spec: GpuSpec, mut thermal: ThermalParams) -> Self {
        thermal.heat_rate *= spec.heat_scale;
        GpuModel {
            temperature_c: thermal.ambient_c,
            thermal,
            spec,
            throttled: false,
            energy_j: 0.0,
        }
    }

    /// Current core clock in MHz, accounting for throttling.
    pub fn current_freq_mhz(&self) -> u32 {
        if self.throttled {
            self.spec.throttled_freq_mhz
        } else {
            self.spec.max_freq_mhz
        }
    }

    /// Current die temperature in °C.
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// True while the clock is thermally throttled.
    pub fn is_throttled(&self) -> bool {
        self.throttled
    }

    /// Effective fillrate at the current clock, in pixels/second.
    pub fn effective_fillrate_pixels_per_sec(&self) -> f64 {
        let ratio = self.current_freq_mhz() as f64 / self.spec.max_freq_mhz as f64;
        self.spec.fillrate_gpixels_per_sec * 1e9 * ratio
    }

    /// Time to render `pixels` shaded pixels at relative shader
    /// `complexity` (1.0 = the paper's baseline fill workload).
    ///
    /// # Panics
    ///
    /// Panics if `complexity` is not finite and positive.
    pub fn render_time(&self, pixels: u64, complexity: f64) -> SimDuration {
        assert!(
            complexity.is_finite() && complexity > 0.0,
            "complexity must be positive: {complexity}"
        );
        let secs = pixels as f64 * complexity / self.effective_fillrate_pixels_per_sec();
        SimDuration::from_secs_f64(secs)
    }

    /// Advances the thermal/energy model by `dt` at the given utilization
    /// (0.0 = idle, 1.0 = fully busy).
    ///
    /// Returns the energy consumed during the step, in joules.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]`.
    pub fn step(&mut self, dt: SimDuration, utilization: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization out of range: {utilization}"
        );
        let dt_s = dt.as_secs_f64();
        // Lumped-capacitance heating, integrated with small sub-steps for
        // stability over long frames.
        let mut remaining = dt_s;
        while remaining > 0.0 {
            let step = remaining.min(1.0);
            let freq_ratio = self.current_freq_mhz() as f64 / self.spec.max_freq_mhz as f64;
            // Dissipation has a voltage/leakage floor: even at the
            // throttled clock a saturated SoC sheds most of its envelope,
            // which is why Fig. 1's trace stays pinned at 100 MHz instead
            // of oscillating.
            let heat_factor = 0.75 + 0.25 * freq_ratio;
            let heat = self.thermal.heat_rate * utilization * heat_factor;
            let cool = self.thermal.cool_rate * (self.temperature_c - self.thermal.ambient_c);
            self.temperature_c += (heat - cool) * step;
            if self.temperature_c >= self.thermal.throttle_temp_c {
                self.throttled = true;
            } else if self.temperature_c <= self.thermal.recover_temp_c {
                self.throttled = false;
            }
            remaining -= step;
        }
        let freq_ratio = self.current_freq_mhz() as f64 / self.spec.max_freq_mhz as f64;
        let power = self.idle_or_active_power(utilization, freq_ratio);
        let energy = power * dt_s;
        self.energy_j += energy;
        energy
    }

    fn idle_or_active_power(&self, utilization: f64, freq_ratio: f64) -> f64 {
        // Dynamic power scales roughly with f·V² ≈ f³ under DVFS (we use
        // f²), and modern GPUs clock/power-gate aggressively at partial
        // load, so utilization enters sub-linearly (^1.5).
        self.spec.idle_power_w
            + (self.spec.max_power_w - self.spec.idle_power_w)
                * utilization.powf(1.5)
                * freq_ratio
                * freq_ratio
    }

    /// Instantaneous power draw at `utilization`, in watts.
    pub fn power_w(&self, utilization: f64) -> f64 {
        let freq_ratio = self.current_freq_mhz() as f64 / self.spec.max_freq_mhz as f64;
        self.idle_or_active_power(utilization, freq_ratio)
    }

    /// Total energy consumed so far, in joules.
    pub fn energy_joules(&self) -> f64 {
        self.energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lg_g4_gpu() -> GpuModel {
        // LG G4: Adreno 418, 600 MHz, 4.8 GP/s per Table I.
        GpuModel::new(GpuSpec::phone(4.8, 600))
    }

    #[test]
    fn renders_at_full_clock_when_cool() {
        let gpu = lg_g4_gpu();
        assert_eq!(gpu.current_freq_mhz(), 600);
        // A 720p frame at complexity 1 on 4.8 GP/s: 921600/4.8e9 s ≈ 192 us.
        let t = gpu.render_time(1280 * 720, 1.0);
        assert!((t.as_secs_f64() - 1280.0 * 720.0 / 4.8e9).abs() < 1e-6);
    }

    #[test]
    fn passive_gpu_throttles_after_about_ten_minutes() {
        // Reproduces the shape of Fig. 1.
        let mut gpu = lg_g4_gpu();
        let step = SimDuration::from_secs(1);
        let mut throttle_at_s = None;
        for s in 0..1200 {
            gpu.step(step, 1.0);
            if gpu.is_throttled() {
                throttle_at_s = Some(s);
                break;
            }
        }
        let at = throttle_at_s.expect("GPU should throttle under sustained load");
        assert!(
            (480..=720).contains(&at),
            "throttle at {at}s, expected ~10 min (Fig. 1)"
        );
        assert_eq!(gpu.current_freq_mhz(), 100);
    }

    #[test]
    fn active_cooling_never_throttles() {
        let mut gpu = GpuModel::new(GpuSpec::cooled(16.0, 1000, 60.0));
        for _ in 0..3600 {
            gpu.step(SimDuration::from_secs(1), 1.0);
        }
        assert!(!gpu.is_throttled());
        assert!(gpu.temperature_c() < 40.0);
    }

    #[test]
    fn throttled_gpu_is_six_times_slower() {
        let mut gpu = lg_g4_gpu();
        let fast = gpu.render_time(1_000_000, 1.0);
        while !gpu.is_throttled() {
            gpu.step(SimDuration::from_secs(10), 1.0);
        }
        let slow = gpu.render_time(1_000_000, 1.0);
        let ratio = slow.as_secs_f64() / fast.as_secs_f64();
        assert!((ratio - 6.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn full_load_power_matches_paper_three_watts() {
        let gpu = lg_g4_gpu();
        assert!((gpu.power_w(1.0) - 3.0).abs() < 1e-9);
        assert!(gpu.power_w(0.0) < 0.1);
    }

    #[test]
    fn energy_accumulates() {
        let mut gpu = lg_g4_gpu();
        let e = gpu.step(SimDuration::from_secs(10), 1.0);
        assert!((e - 30.0).abs() < 1e-6, "10 s at 3 W");
        assert!((gpu.energy_joules() - e).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "utilization out of range")]
    fn rejects_bad_utilization() {
        let mut gpu = lg_g4_gpu();
        gpu.step(SimDuration::from_secs(1), 1.5);
    }

    #[test]
    fn hysteresis_recovers_after_cooling() {
        let mut gpu = lg_g4_gpu();
        while !gpu.is_throttled() {
            gpu.step(SimDuration::from_secs(10), 1.0);
        }
        // Idle until it recovers.
        for _ in 0..10_000 {
            gpu.step(SimDuration::from_secs(1), 0.0);
            if !gpu.is_throttled() {
                break;
            }
        }
        assert!(!gpu.is_throttled());
        assert_eq!(gpu.current_freq_mhz(), 600);
    }
}

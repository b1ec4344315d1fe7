//! Presets for every device named in the paper.
//!
//! *User devices* (Section VII-A): LG Nexus 5 (2013, old generation) and
//! LG G5 (2016, new generation). Table I additionally lists the Samsung
//! Galaxy S5 (2014) and LG G4 (2015) as the mainstream phones of their
//! years.
//!
//! *Service devices*: Nvidia Shield game console (16 GP/s fillrate, ref
//! \[14\]), Minix Neo U1 smart-TV box, Dell M4600 laptop, and Dell Optiplex
//! 9010 desktops with Nvidia GTX 750 Ti GPUs — "modern computers generally
//! possess GPUs that are 10 times more powerful than mobile devices'"
//! (Section II, ref \[15\]).

use crate::cpu::CpuSpec;
use crate::gpu::GpuSpec;

/// Broad class of a device, which determines cooling and radio assumptions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Battery-powered phone: passive cooling, energy matters.
    Phone,
    /// Game console: active cooling, mains powered.
    Console,
    /// Smart-TV box: mostly passive but large heatsink, mains powered.
    TvBox,
    /// Laptop: active cooling.
    Laptop,
    /// Desktop PC: active cooling, most powerful GPUs.
    Desktop,
}

/// A complete hardware description of a user or service device.
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// Marketing name, as used in the paper.
    pub name: &'static str,
    /// Release year (Table I organizes phones by year).
    pub year: u32,
    /// Device class.
    pub class: DeviceClass,
    /// CPU description.
    pub cpu: CpuSpec,
    /// GPU description.
    pub gpu: GpuSpec,
    /// Display resolution (width, height); service devices render
    /// off-screen at the user device's resolution.
    pub display: (u32, u32),
}

impl DeviceSpec {
    /// LG Nexus 5 (2013) — the paper's old-generation user device.
    ///
    /// Snapdragon 800: 2.26 GHz quad-core, Adreno 330 at ≈3.3 GP/s.
    pub fn nexus5() -> Self {
        DeviceSpec {
            name: "LG Nexus 5",
            year: 2013,
            class: DeviceClass::Phone,
            cpu: CpuSpec::phone(2.26, 4),
            gpu: GpuSpec::phone(3.3, 450),
            display: (1920, 1080),
        }
    }

    /// Samsung Galaxy S5 (2014) — Table I: 2.5 GHz 4-core, 3.6 GP/s.
    pub fn galaxy_s5() -> Self {
        DeviceSpec {
            name: "Samsung Galaxy S5",
            year: 2014,
            class: DeviceClass::Phone,
            cpu: CpuSpec::phone(2.5, 4),
            gpu: GpuSpec::phone(3.6, 578),
            display: (1920, 1080),
        }
    }

    /// LG G4 (2015) — Table I: 1.8 GHz 6-core, 4.8 GP/s; the Fig. 1
    /// thermal-throttling trace device (600 MHz → 100 MHz).
    pub fn lg_g4() -> Self {
        DeviceSpec {
            name: "LG G4",
            year: 2015,
            class: DeviceClass::Phone,
            cpu: CpuSpec::phone(1.8, 6),
            // The Snapdragon 808 LG G4 is the Fig. 1 throttling trace
            // device; the baseline thermal calibration is keyed to it.
            gpu: GpuSpec::phone(4.8, 600),
            display: (2560, 1440),
        }
    }

    /// LG G5 (2016) — Table I: 2.15 GHz 4-core, 6.7 GP/s; the paper's
    /// new-generation user device.
    pub fn lg_g5() -> Self {
        DeviceSpec {
            name: "LG G5",
            year: 2016,
            class: DeviceClass::Phone,
            cpu: CpuSpec::phone(2.15, 4),
            gpu: {
                // 14 nm Adreno 530: far better thermals than 2013-15 SoCs.
                let mut g = GpuSpec::phone(6.7, 624);
                g.heat_scale = 0.8;
                g
            },
            display: (2560, 1440),
        }
    }

    /// Nvidia Shield game console — "a GPU with a fillrate up to 16 GP/s,
    /// making it an ideal offloading destination" (Section II, ref \[14\]).
    pub fn nvidia_shield() -> Self {
        DeviceSpec {
            name: "Nvidia Shield",
            year: 2015,
            class: DeviceClass::Console,
            cpu: CpuSpec::desktop(2.0, 8),
            gpu: GpuSpec::cooled(16.0, 1000, 20.0),
            display: (1920, 1080),
        }
    }

    /// Minix Neo U1 smart-TV box (Section VII-A).
    pub fn minix_neo_u1() -> Self {
        DeviceSpec {
            name: "Minix Neo U1",
            year: 2015,
            class: DeviceClass::TvBox,
            cpu: CpuSpec::desktop(1.5, 4),
            gpu: GpuSpec::cooled(6.0, 750, 8.0),
            display: (3840, 2160),
        }
    }

    /// Dell Precision M4600 laptop (Section VII-A).
    pub fn dell_m4600() -> Self {
        DeviceSpec {
            name: "Dell M4600",
            year: 2011,
            class: DeviceClass::Laptop,
            cpu: CpuSpec::desktop(2.7, 4),
            gpu: GpuSpec::cooled(12.0, 700, 45.0),
            display: (1920, 1080),
        }
    }

    /// Dell Optiplex 9010 with an Nvidia GTX 750 Ti (Section VII-A).
    ///
    /// The GTX 750 Ti has a pixel fillrate of ≈16.3 GP/s.
    pub fn dell_optiplex_9010() -> Self {
        DeviceSpec {
            name: "Dell Optiplex 9010 (GTX 750 Ti)",
            year: 2014,
            class: DeviceClass::Desktop,
            cpu: CpuSpec::desktop(3.4, 4),
            gpu: GpuSpec::cooled(16.3, 1020, 60.0),
            display: (1920, 1080),
        }
    }

    /// All phone presets, oldest first.
    pub fn phones() -> Vec<DeviceSpec> {
        vec![
            DeviceSpec::nexus5(),
            DeviceSpec::galaxy_s5(),
            DeviceSpec::lg_g4(),
            DeviceSpec::lg_g5(),
        ]
    }

    /// All service-device presets used in the evaluation.
    pub fn service_devices() -> Vec<DeviceSpec> {
        vec![
            DeviceSpec::nvidia_shield(),
            DeviceSpec::minix_neo_u1(),
            DeviceSpec::dell_m4600(),
            DeviceSpec::dell_optiplex_9010(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_phone_fillrates_match_paper() {
        assert_eq!(DeviceSpec::galaxy_s5().gpu.fillrate_gpixels_per_sec, 3.6);
        assert_eq!(DeviceSpec::lg_g4().gpu.fillrate_gpixels_per_sec, 4.8);
        assert_eq!(DeviceSpec::lg_g5().gpu.fillrate_gpixels_per_sec, 6.7);
    }

    #[test]
    fn table1_phone_clocks_match_paper() {
        assert_eq!(DeviceSpec::galaxy_s5().cpu.clock_ghz, 2.5);
        assert_eq!(DeviceSpec::lg_g4().cpu.clock_ghz, 1.8);
        assert_eq!(DeviceSpec::lg_g5().cpu.clock_ghz, 2.15);
    }

    #[test]
    fn shield_has_sixteen_gpixels() {
        let shield = DeviceSpec::nvidia_shield();
        assert_eq!(shield.gpu.fillrate_gpixels_per_sec, 16.0);
        assert!(shield.gpu.active_cooling);
    }

    #[test]
    fn new_generation_is_about_twice_old_generation() {
        // Section VII-B: the LG G5 achieves roughly 2x the Nexus 5's FPS.
        let ratio = DeviceSpec::lg_g5().gpu.fillrate_gpixels_per_sec
            / DeviceSpec::nexus5().gpu.fillrate_gpixels_per_sec;
        assert!((1.8..=2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn service_gpus_dwarf_phone_gpus() {
        for service in DeviceSpec::service_devices() {
            let phone = DeviceSpec::nexus5().gpu.fillrate_gpixels_per_sec;
            assert!(service.gpu.fillrate_gpixels_per_sec > phone);
        }
    }
}

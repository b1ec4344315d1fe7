//! # gbooster-sim
//!
//! Discrete-event simulation kernel and hardware models underpinning the
//! GBooster reproduction (ICDCS 2017).
//!
//! The paper evaluates GBooster on real phones (LG Nexus 5, LG G5), real
//! service devices (Nvidia Shield, Minix Neo U1, Dell laptops/desktops) and
//! a real 802.11n LAN. None of that hardware is available to a library
//! build, so this crate provides the simulated substrate:
//!
//! * [`time`] — strongly-typed simulated clock ([`SimTime`], [`SimDuration`]).
//! * [`event`] — a deterministic discrete-event queue.
//! * [`hash`] — the workspace's one FNV-1a content hash.
//! * [`gpu`] — a mobile GPU model with fillrate, DVFS and the thermal
//!   throttling behaviour of Fig. 1 of the paper.
//! * [`cpu`] — a multi-core CPU time/power model.
//! * [`power`] — a component-level energy ledger (the simulated equivalent
//!   of the Monsoon power monitor used in the paper).
//! * [`battery`] — charge capacity and gameplay-hours-per-charge math.
//! * [`display`] — a 60 Hz double-buffered display with vsync.
//! * [`device`] — presets for every device named in the paper.
//!
//! # Examples
//!
//! ```
//! use gbooster_sim::device::DeviceSpec;
//!
//! let phone = DeviceSpec::nexus5();
//! let console = DeviceSpec::nvidia_shield();
//! assert!(console.gpu.fillrate_gpixels_per_sec > phone.gpu.fillrate_gpixels_per_sec);
//! ```

pub mod battery;
pub mod cpu;
pub mod device;
pub mod display;
pub mod event;
pub mod gpu;
pub mod hash;
pub mod power;
pub mod rng;
pub mod time;

pub use device::DeviceSpec;
pub use event::EventQueue;
pub use power::{Component, PowerMeter};
pub use time::{SimDuration, SimTime};

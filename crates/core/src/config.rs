//! Session configuration (builder-style).

use gbooster_sim::device::{DeviceClass, DeviceSpec};
use gbooster_sim::time::SimDuration;
use gbooster_telemetry::AlertConfig;
use gbooster_workload::apps::AppTitle;
use gbooster_workload::games::GameTitle;
use gbooster_workload::genre::GenreProfile;

use crate::error::GBoosterError;

/// Largest accepted `loss_scale`, for sessions and the fabric alike:
/// 100× the profiled link. Far larger scales overflow the sim clock
/// when a transfer time is added to it.
pub(crate) const MAX_LOSS_SCALE: f64 = 100.0;

/// Largest accepted side of a render resolution, in pixels, for
/// sessions and the fabric alike.
pub(crate) const MAX_RENDER_SIDE: u32 = 65_535;

/// Phone compositor/driver time per frame, for sessions and the fabric
/// alike. A session charges it on each frame its phone GPU renders; the
/// fabric charges it on every presentation.
pub(crate) const COMPOSITOR: SimDuration = SimDuration::from_millis(2);

/// RTT between a phone and a service device on the evaluation LAN (the
/// paper's same-room deployment), for sessions and the fabric alike.
pub(crate) const LAN_RTT: SimDuration = SimDuration::from_millis(2);

/// Warm-up window a node serves under an Eq. 4 score penalty after it
/// rejoins, or after a migration lands on it, for sessions and the
/// fabric alike (see [`crate::scheduler::Dispatcher::revive_node`]).
pub(crate) const REJOIN_WARMUP: SimDuration = SimDuration::from_millis(50);

/// Bound of the seeded ground-truth service-clock skew, µs: each
/// service clock is offset by a draw from `±MAX_CLOCK_SKEW_US`, which
/// the clock-offset estimators must recover, for sessions and the
/// fabric alike.
pub(crate) const MAX_CLOCK_SKEW_US: i64 = 150_000;

/// The application under test: a game from Table II, an app from Table
/// III, or a custom profile.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Display name.
    pub name: String,
    /// Genre profile shaping the frame stream.
    pub profile: GenreProfile,
    /// Per-title intensity scalar.
    pub intensity: f64,
}

impl From<GameTitle> for Workload {
    fn from(game: GameTitle) -> Self {
        Workload {
            name: format!("{}: {}", game.id, game.name),
            profile: game.profile(),
            intensity: game.intensity,
        }
    }
}

impl From<AppTitle> for Workload {
    fn from(app: AppTitle) -> Self {
        Workload {
            name: app.name.to_string(),
            profile: app.profile(),
            intensity: app.intensity,
        }
    }
}

/// How the session executes its GPU work.
// One config per session: the size gap between variants is irrelevant,
// and boxing would clutter every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ExecutionMode {
    /// Everything on the phone (the paper's baseline).
    Local,
    /// GBooster offloading to nearby service devices.
    Offloaded(OffloadConfig),
    /// OnLive-style remote cloud rendering (Section VII-F comparison): a
    /// 1280×720 stream capped at 30 FPS by the platform's video encoder
    /// (OnLive measurements of ref \[43\]).
    Cloud,
}

/// Offloading parameters.
#[derive(Clone, Debug)]
pub struct OffloadConfig {
    /// Service devices, in discovery order. Must be non-empty and
    /// offload-capable.
    pub service_devices: Vec<DeviceSpec>,
    /// Enable the ARMAX-driven Bluetooth/WiFi switching (Fig. 6b ablates
    /// this).
    pub interface_switching: bool,
    /// Maximum rendering requests in flight (the paper observes the
    /// internal buffer holds at most 3 — Section VI-A / Fig. 7).
    pub buffer_depth: usize,
    /// Hard cap on frames between SwapBuffers return and vsync
    /// presentation (dispatched, in transit, or held for reordering).
    /// Issuing stalls at this bound; stalls are counted under
    /// `sched.window_stalls`. Must be ≥ 1.
    pub max_inflight: usize,
    /// Multiplier on the channel's datagram loss rate (1.0 = the profiled
    /// link). Values above 1.0 model a lossy link: retransmit accounting
    /// scales with it and each transfer pays a deterministic recovery
    /// delay. Must be in `[1, 100]`.
    pub loss_scale: f64,
    /// Resolution rendered remotely and streamed back. Each side must be
    /// in `1..=65_535`.
    pub render_resolution: (u32, u32),
    /// Stitched frame traces a flight dump carries: on a fault, the last
    /// N frames of the session's trace log are copied into the dump
    /// (0 counts as 1). Nothing is allocated from this value up front.
    pub flight_recorder_depth: usize,
    /// Live-ops layer: streaming SLO objectives, alerting, anomaly
    /// detection, and incident correlation.
    pub ops: OpsConfig,
    /// Deterministic fault-injection schedule (all disabled by default).
    pub faults: FaultInjection,
}

impl Default for OffloadConfig {
    fn default() -> Self {
        OffloadConfig {
            service_devices: vec![DeviceSpec::nvidia_shield()],
            interface_switching: true,
            buffer_depth: 3,
            max_inflight: 4,
            loss_scale: 1.0,
            render_resolution: (1280, 720),
            flight_recorder_depth: 32,
            ops: OpsConfig::default(),
            faults: FaultInjection::default(),
        }
    }
}

/// Live-ops layer tuning: whether the layer runs and how the alerts of
/// its built-in SLO objectives dwell.
#[derive(Clone, Debug)]
pub struct OpsConfig {
    /// Master switch: `false` runs the session with no ops layer at
    /// all (no streams, no alerts, no incidents).
    pub enabled: bool,
    /// Dwell/hysteresis shared by every objective's alert machine.
    pub alert: AlertConfig,
}

impl Default for OpsConfig {
    fn default() -> Self {
        OpsConfig {
            enabled: true,
            alert: AlertConfig::default(),
        }
    }
}

/// One scheduled change to a service node's availability, keyed by the
/// frame index at whose dispatch the event applies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NodeEvent {
    /// Hard-kill the node: in-flight frames orphan and re-dispatch, the
    /// health monitor marks it dead without waiting for probe timeouts.
    Kill {
        /// Displayed-frame index at which the node drops.
        frame: u64,
        /// Index into `service_devices`.
        node: usize,
    },
    /// Bring a previously killed node back: probes start succeeding, and
    /// once the health monitor walks it through rejoin it receives a
    /// one-shot state resync and re-enters the dispatch pool.
    Revive {
        /// Displayed-frame index at which the node returns.
        frame: u64,
        /// Index into `service_devices`.
        node: usize,
    },
    /// Multiply the node's effective GPU capability by `factor` (in
    /// `(0, 1]`) — a thermal or contention brownout. The dispatcher's
    /// Eq. 4 score shifts load away organically.
    Degrade {
        /// Displayed-frame index at which the slowdown begins.
        frame: u64,
        /// Index into `service_devices`.
        node: usize,
        /// Capability multiplier in `(0, 1]`.
        factor: f64,
    },
}

impl NodeEvent {
    /// The frame index the event fires at.
    pub fn frame(&self) -> u64 {
        match *self {
            NodeEvent::Kill { frame, .. }
            | NodeEvent::Revive { frame, .. }
            | NodeEvent::Degrade { frame, .. } => frame,
        }
    }

    /// The node the event targets.
    pub fn node(&self) -> usize {
        match *self {
            NodeEvent::Kill { node, .. }
            | NodeEvent::Revive { node, .. }
            | NodeEvent::Degrade { node, .. } => node,
        }
    }
}

/// A window of frames during which a node's link drops all liveness
/// probes without the node itself dying. The health monitor sees probe
/// timeouts, walks Healthy → Suspect → Dead, and evicts the node; when
/// the window closes, probes succeed again and the node rejoins via
/// resync. Frames already dispatched to the node still complete — only
/// the control channel is cut, which is exactly what distinguishes a
/// partition drill from a kill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkPartition {
    /// Index into `service_devices`.
    pub node: usize,
    /// First frame index whose probes are lost (inclusive).
    pub from_frame: u64,
    /// First frame index whose probes succeed again (exclusive).
    pub until_frame: u64,
}

/// Deterministic fault-injection schedule for flight-recorder drills.
/// Each knob names the displayed-frame index at which the fault is
/// forced; `None` leaves the session fault-free (the recorder still
/// arms and triggers on organically detected faults).
#[derive(Clone, Debug, Default)]
pub struct FaultInjection {
    /// Inject a datagram loss storm before this frame: a burst of
    /// retransmissions large enough to trip the loss-storm detector.
    pub loss_storm_at_frame: Option<u64>,
    /// Stall dispatch before this frame: the frame's dispatch wait is
    /// inflated past the dispatch-timeout threshold.
    pub dispatch_stall_at_frame: Option<u64>,
    /// Rapidly power-cycle the WiFi interface before this frame.
    pub iface_flap_at_frame: Option<u64>,
    /// Scheduled node kills / revivals / degradations. A killed node's
    /// in-flight frames re-dispatch to the next-best node, and the
    /// flight recorder latches a `node_loss` fault; with no node left,
    /// the session survives via the local-render fallback.
    pub node_events: Vec<NodeEvent>,
    /// Link-partition windows cutting a node's probe channel.
    pub partitions: Vec<LinkPartition>,
}

impl FaultInjection {
    /// The node-event schedule sorted by (frame, node) for deterministic
    /// application.
    pub fn node_schedule(&self) -> Vec<NodeEvent> {
        let mut events = self.node_events.clone();
        events.sort_by_key(|e| (e.frame(), e.node()));
        events
    }
}

/// A complete session description.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Application under test.
    pub workload: Workload,
    /// The phone running it.
    pub user_device: DeviceSpec,
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Played session length in simulated seconds (the paper plays
    /// 15 minutes; shorter sessions heat the phone GPU proportionally
    /// faster, so every session covers the same thermal arc).
    pub duration_secs: u64,
    /// RNG seed for full reproducibility.
    pub seed: u64,
    /// Traffic forecasting window (the paper forecasts 500 ms ahead).
    /// Offloaded sessions need it in 1 ms to the session length.
    pub predictor_window_ms: u64,
}

impl SessionConfig {
    /// Starts a builder for `workload` on `user_device`.
    pub fn builder(workload: impl Into<Workload>, user_device: DeviceSpec) -> SessionConfigBuilder {
        SessionConfigBuilder {
            config: SessionConfig {
                workload: workload.into(),
                user_device,
                mode: ExecutionMode::Local,
                duration_secs: 120,
                seed: 42,
                predictor_window_ms: 500,
            },
        }
    }

    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns [`GBoosterError::Config`] for empty or overlong sessions,
    /// phones used as service devices, empty device lists, and pipeline
    /// knobs outside their documented ranges.
    pub fn validate(&self) -> Result<(), GBoosterError> {
        if self.duration_secs == 0 {
            return Err(GBoosterError::Config("session duration is zero".into()));
        }
        // The sim clock counts microseconds in a u64.
        if self.duration_secs > u64::MAX / 1_000_000 {
            return Err(GBoosterError::Config(format!(
                "session duration {} s overflows the sim clock",
                self.duration_secs
            )));
        }
        if let ExecutionMode::Offloaded(off) = &self.mode {
            if off.service_devices.is_empty() {
                return Err(GBoosterError::Config(
                    "offloading requires at least one service device".into(),
                ));
            }
            if off.buffer_depth == 0 {
                return Err(GBoosterError::Config("buffer depth is zero".into()));
            }
            if off.max_inflight == 0 {
                return Err(GBoosterError::Config("max_inflight is zero".into()));
            }
            if !(1.0..=MAX_LOSS_SCALE).contains(&off.loss_scale) {
                return Err(GBoosterError::Config(format!(
                    "loss_scale must be in [1, {MAX_LOSS_SCALE}], got {}",
                    off.loss_scale
                )));
            }
            let (w, h) = off.render_resolution;
            if !(1..=MAX_RENDER_SIDE).contains(&w) || !(1..=MAX_RENDER_SIDE).contains(&h) {
                return Err(GBoosterError::Config(format!(
                    "render_resolution {w}x{h} needs each side in 1..={MAX_RENDER_SIDE}"
                )));
            }
            if !(1..=self.duration_secs * 1_000).contains(&self.predictor_window_ms) {
                return Err(GBoosterError::Config(format!(
                    "predictor_window_ms {} must be in 1 ms to the session length",
                    self.predictor_window_ms
                )));
            }
            for ev in &off.faults.node_events {
                if ev.node() >= off.service_devices.len() {
                    return Err(GBoosterError::Config(format!(
                        "node event targets node {} but only {} service devices exist",
                        ev.node(),
                        off.service_devices.len()
                    )));
                }
                if let NodeEvent::Degrade { factor, .. } = *ev {
                    if !factor.is_finite() || factor <= 0.0 || factor > 1.0 {
                        return Err(GBoosterError::Config(format!(
                            "degrade factor must be in (0, 1], got {factor}"
                        )));
                    }
                }
            }
            for p in &off.faults.partitions {
                if p.node >= off.service_devices.len() {
                    return Err(GBoosterError::Config(format!(
                        "partition targets node {} but only {} service devices exist",
                        p.node,
                        off.service_devices.len()
                    )));
                }
                if p.from_frame >= p.until_frame {
                    return Err(GBoosterError::Config(format!(
                        "partition window [{}, {}) is empty",
                        p.from_frame, p.until_frame
                    )));
                }
            }
            for dev in &off.service_devices {
                if dev.class == DeviceClass::Phone {
                    return Err(GBoosterError::Config(format!(
                        "{} is a phone and cannot serve",
                        dev.name
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`SessionConfig`].
#[derive(Clone, Debug)]
pub struct SessionConfigBuilder {
    config: SessionConfig,
}

impl SessionConfigBuilder {
    /// Sets the execution mode.
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Sets the simulated session length.
    pub fn duration_secs(mut self, secs: u64) -> Self {
        self.config.duration_secs = secs;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`SessionConfigBuilder::try_build`] to handle errors.
    pub fn build(self) -> SessionConfig {
        self.try_build().expect("invalid session configuration")
    }

    /// Finishes the builder, returning configuration errors.
    ///
    /// # Errors
    ///
    /// See [`SessionConfig::validate`].
    pub fn try_build(self) -> Result<SessionConfig, GBoosterError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sane() {
        let cfg =
            SessionConfig::builder(GameTitle::g1_gta_san_andreas(), DeviceSpec::nexus5()).build();
        assert!(matches!(cfg.mode, ExecutionMode::Local));
        assert_eq!(cfg.predictor_window_ms, 500);
    }

    #[test]
    fn offloading_to_a_phone_is_rejected() {
        let err = SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
            .mode(ExecutionMode::Offloaded(OffloadConfig {
                service_devices: vec![DeviceSpec::lg_g5()],
                ..OffloadConfig::default()
            }))
            .try_build()
            .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
    }

    #[test]
    fn empty_device_list_is_rejected() {
        let err = SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
            .mode(ExecutionMode::Offloaded(OffloadConfig {
                service_devices: vec![],
                ..OffloadConfig::default()
            }))
            .try_build()
            .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
    }

    #[test]
    fn zero_duration_is_rejected() {
        let err = SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
            .duration_secs(0)
            .try_build()
            .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
    }

    #[test]
    fn invalid_pipeline_knobs_are_rejected() {
        let base = |off: OffloadConfig| {
            SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
                .mode(ExecutionMode::Offloaded(off))
                .try_build()
        };
        let rejected = |off: OffloadConfig| matches!(base(off), Err(GBoosterError::Config(_)));
        assert!(rejected(OffloadConfig {
            max_inflight: 0,
            ..OffloadConfig::default()
        }));
        for loss_scale in [0.5, f64::NAN, 1e6, 1e300] {
            assert!(
                rejected(OffloadConfig {
                    loss_scale,
                    ..OffloadConfig::default()
                }),
                "loss_scale {loss_scale}"
            );
        }
        for render_resolution in [(0, 720), (1280, 0), (1_048_576, 720), (65_536, 65_536)] {
            assert!(
                rejected(OffloadConfig {
                    render_resolution,
                    ..OffloadConfig::default()
                }),
                "render_resolution {render_resolution:?}"
            );
        }
        // The bounds themselves are accepted.
        assert!(base(OffloadConfig {
            loss_scale: MAX_LOSS_SCALE,
            render_resolution: (1, MAX_RENDER_SIDE),
            ..OffloadConfig::default()
        })
        .is_ok());
        let with = |window_ms: u64, secs: u64| {
            let mut cfg =
                SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
                    .duration_secs(secs)
                    .mode(ExecutionMode::Offloaded(OffloadConfig {
                        service_devices: vec![DeviceSpec::nvidia_shield()],
                        ..OffloadConfig::default()
                    }))
                    .build();
            cfg.predictor_window_ms = window_ms;
            cfg.validate()
        };
        for (window_ms, secs) in [(0, 120), (u64::MAX / 2, 120), (2_001, 2)] {
            assert!(
                matches!(with(window_ms, secs), Err(GBoosterError::Config(_))),
                "predictor window {window_ms} ms over {secs} s"
            );
        }
        assert!(with(2_000, 2).is_ok());
        let err = SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
            .duration_secs(u64::MAX / 1_000_000 + 1)
            .try_build()
            .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
    }

    #[test]
    fn node_event_schedule_sorts_by_frame_then_node() {
        let faults = FaultInjection {
            node_events: vec![
                NodeEvent::Revive { frame: 90, node: 1 },
                NodeEvent::Kill { frame: 50, node: 1 },
                NodeEvent::Kill { frame: 20, node: 0 },
            ],
            ..FaultInjection::default()
        };
        let sched = faults.node_schedule();
        assert_eq!(
            sched,
            vec![
                NodeEvent::Kill { frame: 20, node: 0 },
                NodeEvent::Kill { frame: 50, node: 1 },
                NodeEvent::Revive { frame: 90, node: 1 },
            ]
        );
    }

    #[test]
    fn node_events_and_partitions_are_validated() {
        let base = |faults: FaultInjection| {
            SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
                .mode(ExecutionMode::Offloaded(OffloadConfig {
                    service_devices: vec![DeviceSpec::nvidia_shield(), DeviceSpec::minix_neo_u1()],
                    faults,
                    ..OffloadConfig::default()
                }))
                .try_build()
        };
        // Out-of-range node index.
        let err = base(FaultInjection {
            node_events: vec![NodeEvent::Kill { frame: 5, node: 7 }],
            ..FaultInjection::default()
        })
        .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
        // Degrade factor outside (0, 1].
        let err = base(FaultInjection {
            node_events: vec![NodeEvent::Degrade {
                frame: 5,
                node: 0,
                factor: 1.5,
            }],
            ..FaultInjection::default()
        })
        .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
        // Empty partition window.
        let err = base(FaultInjection {
            partitions: vec![LinkPartition {
                node: 0,
                from_frame: 10,
                until_frame: 10,
            }],
            ..FaultInjection::default()
        })
        .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
        // A well-formed schedule passes.
        assert!(base(FaultInjection {
            node_events: vec![
                NodeEvent::Kill { frame: 5, node: 0 },
                NodeEvent::Revive { frame: 40, node: 0 },
                NodeEvent::Degrade {
                    frame: 8,
                    node: 1,
                    factor: 0.5
                },
            ],
            partitions: vec![LinkPartition {
                node: 1,
                from_frame: 60,
                until_frame: 80,
            }],
            ..FaultInjection::default()
        })
        .is_ok());
        // A scheduled Kill is fine with one device: the local-render
        // fallback absorbs an empty pool.
        assert!(
            SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
                .mode(ExecutionMode::Offloaded(OffloadConfig {
                    faults: FaultInjection {
                        node_events: vec![NodeEvent::Kill { frame: 5, node: 0 }],
                        ..FaultInjection::default()
                    },
                    ..OffloadConfig::default()
                }))
                .try_build()
                .is_ok()
        );
    }

    #[test]
    fn workload_from_game_and_app() {
        let w: Workload = GameTitle::g1_gta_san_andreas().into();
        assert!(w.name.contains("GTA"));
        let w: Workload = AppTitle::tumblr().into();
        assert_eq!(w.name, "Tumblr");
    }
}

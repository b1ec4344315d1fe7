//! Session configuration (builder-style).

use gbooster_sim::device::{DeviceClass, DeviceSpec};
use gbooster_sim::time::SimDuration;
use gbooster_telemetry::{names, AlertConfig, SloObjective};
use gbooster_workload::apps::AppTitle;
use gbooster_workload::games::GameTitle;
use gbooster_workload::genre::GenreProfile;

use crate::error::GBoosterError;

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
    /// OnLive-style remote cloud rendering (Section VII-F comparison).
    Cloud(CloudConfig),
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
    /// How long after a node failure its orphaned frames wait before
    /// being re-dispatched to the next-best node (detection delay of the
    /// keep-alive protocol).
    pub redispatch_timeout_ms: u64,
    /// Multiplier on the channel's datagram loss rate (1.0 = the profiled
    /// link). Values above 1.0 model a lossy link: retransmit accounting
    /// scales with it and each transfer pays a deterministic recovery
    /// delay. Must be finite and ≥ 1.0.
    pub loss_scale: f64,
    /// Resolution rendered remotely and streamed back.
    pub render_resolution: (u32, u32),
    /// Stitched frame traces retained by the flight recorder (the last N
    /// frames dumped on a fault).
    pub flight_recorder_depth: usize,
    /// Frame-latency SLO driving the local-render fallback.
    pub slo: SloConfig,
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
            redispatch_timeout_ms: 30,
            loss_scale: 1.0,
            render_resolution: (1280, 720),
            flight_recorder_depth: 32,
            slo: SloConfig::default(),
            ops: OpsConfig::default(),
            faults: FaultInjection::default(),
        }
    }
}

/// Live-ops layer tuning: which SLO objectives are evaluated during the
/// run and how their alerts dwell. The defaults are scaled to the
/// simulator's seconds-long sessions (the Google-SRE structure with
/// sub-second windows) and sit far enough above healthy behavior that
/// a fault-free run raises nothing.
#[derive(Clone, Debug)]
pub struct OpsConfig {
    /// Master switch: `false` runs the session with no ops layer at
    /// all (no streams, no alerts, no incidents).
    pub enabled: bool,
    /// SLO objectives evaluated once per presented frame.
    pub objectives: Vec<SloObjective>,
    /// Dwell/hysteresis shared by every objective's alert machine.
    pub alert: AlertConfig,
}

impl Default for OpsConfig {
    fn default() -> Self {
        let fast = SimDuration::from_millis(800);
        let slow = SimDuration::from_millis(2_500);
        OpsConfig {
            enabled: true,
            objectives: vec![
                // End-to-end frame latency: a healthy offloaded session
                // presents in ~30–60 ms; 100 ms is user-visible jank.
                SloObjective {
                    name: names::slo::FRAME_LATENCY,
                    stream: names::ops::WIN_FRAME_LATENCY,
                    unit: "us",
                    threshold: 100_000,
                    budget: 0.05,
                    fast_window: fast,
                    slow_window: slow,
                    fast_burn: 4.0,
                    slow_burn: 2.0,
                    warmup: SimDuration::from_millis(1_500),
                },
                // Presented fps, as the inter-frame gap: a 60 ms gap is
                // a drop below ~17 fps.
                SloObjective {
                    name: names::slo::PRESENTED_FPS,
                    stream: names::ops::WIN_FRAME_INTERVAL,
                    unit: "us",
                    threshold: 60_000,
                    budget: 0.05,
                    fast_window: fast,
                    slow_window: slow,
                    fast_burn: 4.0,
                    slow_burn: 2.0,
                    warmup: SimDuration::from_millis(1_500),
                },
                // Command-cache effectiveness, as per-frame miss
                // permille: the warmed cache hits ~95%; sustained
                // >70% misses means the cache stopped carrying traffic.
                SloObjective {
                    name: names::slo::CACHE_HIT,
                    stream: names::ops::WIN_CACHE_MISS,
                    unit: "permille",
                    threshold: 700,
                    budget: 0.15,
                    fast_window: fast,
                    slow_window: slow,
                    fast_burn: 4.0,
                    slow_burn: 2.0,
                    warmup: SimDuration::from_millis(2_000),
                },
            ],
            alert: AlertConfig::default(),
        }
    }
}

/// Frame-latency SLO and fallback hysteresis. The engine tracks an EWMA
/// of end-to-end frame latency; when it exceeds `engage_ms` for
/// `breach_frames` consecutive presented frames (or the service pool
/// empties), SwapBuffers flips to local rendering. Offloading resumes
/// only after `min_fallback_frames` locally rendered frames AND the pool
/// reporting healthy again — the engage/release split plus the dwell is
/// the hysteresis that stops the switch from flapping.
#[derive(Clone, Copy, Debug)]
pub struct SloConfig {
    /// EWMA frame latency (ms) above which the SLO counts a breach.
    pub engage_ms: f64,
    /// EWMA frame latency (ms) the *local* path must beat before the
    /// engine considers re-offloading. Must not exceed `engage_ms`.
    pub release_ms: f64,
    /// Consecutive breaching frames required to engage the fallback.
    pub breach_frames: u32,
    /// Minimum locally rendered frames before release is considered.
    pub min_fallback_frames: u32,
    /// EWMA smoothing factor in `(0, 1]`.
    pub alpha: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        // Default thresholds sit far above the ~30–60 ms latencies of a
        // healthy session, so the fallback only fires on real trouble.
        SloConfig {
            engage_ms: 250.0,
            release_ms: 120.0,
            breach_frames: 4,
            min_fallback_frames: 30,
            alpha: 0.2,
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
    /// Kill service node `.1` (index into `service_devices`) when frame
    /// `.0` is dispatched: the node stops serving, its in-flight frames
    /// are re-dispatched to the next-best node after the re-dispatch
    /// timeout, and the flight recorder latches a `node_loss` fault.
    /// Requires at least two service devices. Sugar for a lone
    /// [`NodeEvent::Kill`] in `node_events`.
    pub kill_node_at_frame: Option<(u64, usize)>,
    /// Scheduled node kills / revivals / degradations. Unlike the
    /// `kill_node_at_frame` sugar, a `Kill` here is allowed with a
    /// single service device: the session survives via the local-render
    /// fallback instead of re-dispatching.
    pub node_events: Vec<NodeEvent>,
    /// Link-partition windows cutting a node's probe channel.
    pub partitions: Vec<LinkPartition>,
}

impl FaultInjection {
    /// True if any fault is scheduled.
    pub fn any(&self) -> bool {
        self.loss_storm_at_frame.is_some()
            || self.dispatch_stall_at_frame.is_some()
            || self.iface_flap_at_frame.is_some()
            || self.kill_node_at_frame.is_some()
            || !self.node_events.is_empty()
            || !self.partitions.is_empty()
    }

    /// The full node-event schedule with the `kill_node_at_frame` sugar
    /// folded in, sorted by (frame, node) for deterministic application.
    pub fn node_schedule(&self) -> Vec<NodeEvent> {
        let mut events = self.node_events.clone();
        if let Some((frame, node)) = self.kill_node_at_frame {
            events.push(NodeEvent::Kill { frame, node });
        }
        events.sort_by_key(|e| (e.frame(), e.node()));
        events
    }
}

/// Cloud-baseline parameters (OnLive measurements of ref \[43\]).
#[derive(Clone, Debug)]
pub struct CloudConfig {
    /// Stream FPS cap imposed by the platform's video encoder.
    pub encoder_fps_cap: u32,
    /// Stream resolution.
    pub resolution: (u32, u32),
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            encoder_fps_cap: 30,
            resolution: (1280, 720),
        }
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
    /// 15 minutes; tests use shorter sessions with thermal time
    /// compression).
    pub duration_secs: u64,
    /// RNG seed for full reproducibility.
    pub seed: u64,
    /// Resolution games render at locally (internal render target;
    /// commercial titles render near 1080p regardless of panel).
    pub local_render_resolution: (u32, u32),
    /// Multiplier on GPU heating so shortened sessions still reach the
    /// Fig. 1 throttle point at the same *proportional* session position
    /// (e.g. 5.0 compresses the 10-minute throttle onset to 2 minutes).
    pub thermal_time_compression: f64,
    /// Traffic forecasting window (the paper forecasts 500 ms ahead).
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
                local_render_resolution: (1920, 1080),
                thermal_time_compression: 900.0 / 120.0,
                predictor_window_ms: 500,
            },
        }
    }

    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns [`GBoosterError::Config`] for empty sessions, phones used
    /// as service devices, or empty device lists.
    pub fn validate(&self) -> Result<(), GBoosterError> {
        if self.duration_secs == 0 {
            return Err(GBoosterError::Config("session duration is zero".into()));
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
            if !off.loss_scale.is_finite() || off.loss_scale < 1.0 {
                return Err(GBoosterError::Config(format!(
                    "loss_scale must be finite and >= 1.0, got {}",
                    off.loss_scale
                )));
            }
            if let Some((_, node)) = off.faults.kill_node_at_frame {
                if off.service_devices.len() < 2 {
                    return Err(GBoosterError::Config(
                        "kill_node_at_frame needs at least two service devices".into(),
                    ));
                }
                if node >= off.service_devices.len() {
                    return Err(GBoosterError::Config(format!(
                        "kill_node_at_frame node index {node} out of range",
                    )));
                }
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
            let slo = &off.slo;
            if !slo.engage_ms.is_finite() || slo.engage_ms <= 0.0 {
                return Err(GBoosterError::Config(format!(
                    "SLO engage_ms must be finite and positive, got {}",
                    slo.engage_ms
                )));
            }
            if !slo.release_ms.is_finite()
                || slo.release_ms <= 0.0
                || slo.release_ms > slo.engage_ms
            {
                return Err(GBoosterError::Config(format!(
                    "SLO release_ms must be in (0, engage_ms], got {}",
                    slo.release_ms
                )));
            }
            if slo.breach_frames == 0 || slo.min_fallback_frames == 0 {
                return Err(GBoosterError::Config(
                    "SLO breach_frames and min_fallback_frames must be >= 1".into(),
                ));
            }
            if !slo.alpha.is_finite() || slo.alpha <= 0.0 || slo.alpha > 1.0 {
                return Err(GBoosterError::Config(format!(
                    "SLO alpha must be in (0, 1], got {}",
                    slo.alpha
                )));
            }
            for obj in &off.ops.objectives {
                if let Err(e) = obj.validate() {
                    return Err(GBoosterError::Config(format!("ops objective {e}")));
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

    /// Shortcut: offload to the given devices with default options.
    pub fn offload_to(mut self, devices: Vec<DeviceSpec>) -> Self {
        self.config.mode = ExecutionMode::Offloaded(OffloadConfig {
            service_devices: devices,
            ..OffloadConfig::default()
        });
        self
    }

    /// Sets the simulated session length. Thermal time compression is
    /// rescaled so the session still covers a 15-minute thermal arc.
    pub fn duration_secs(mut self, secs: u64) -> Self {
        self.config.duration_secs = secs;
        self.config.thermal_time_compression = 900.0 / secs.max(1) as f64;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Overrides thermal time compression (1.0 = real time).
    pub fn thermal_time_compression(mut self, factor: f64) -> Self {
        self.config.thermal_time_compression = factor;
        self
    }

    /// Overrides the local render resolution.
    pub fn local_render_resolution(mut self, width: u32, height: u32) -> Self {
        self.config.local_render_resolution = (width, height);
        self
    }

    /// Overrides the predictor window.
    pub fn predictor_window_ms(mut self, ms: u64) -> Self {
        self.config.predictor_window_ms = ms;
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
        assert_eq!(cfg.local_render_resolution, (1920, 1080));
        assert_eq!(cfg.predictor_window_ms, 500);
    }

    #[test]
    fn duration_rescales_thermal_compression() {
        let cfg = SessionConfig::builder(GameTitle::g1_gta_san_andreas(), DeviceSpec::nexus5())
            .duration_secs(90)
            .build();
        assert!((cfg.thermal_time_compression - 10.0).abs() < 1e-9);
    }

    #[test]
    fn offloading_to_a_phone_is_rejected() {
        let err = SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
            .offload_to(vec![DeviceSpec::lg_g5()])
            .try_build()
            .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
    }

    #[test]
    fn empty_device_list_is_rejected() {
        let err = SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
            .offload_to(vec![])
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
        let err = base(OffloadConfig {
            max_inflight: 0,
            ..OffloadConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
        let err = base(OffloadConfig {
            loss_scale: 0.5,
            ..OffloadConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
        let err = base(OffloadConfig {
            loss_scale: f64::NAN,
            ..OffloadConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
    }

    #[test]
    fn kill_node_fault_requires_a_spare_device() {
        // One device: nobody to re-dispatch to.
        let err = SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
            .mode(ExecutionMode::Offloaded(OffloadConfig {
                faults: FaultInjection {
                    kill_node_at_frame: Some((10, 0)),
                    ..FaultInjection::default()
                },
                ..OffloadConfig::default()
            }))
            .try_build()
            .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
        // Out-of-range node index.
        let err = SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
            .mode(ExecutionMode::Offloaded(OffloadConfig {
                service_devices: vec![DeviceSpec::nvidia_shield(), DeviceSpec::minix_neo_u1()],
                faults: FaultInjection {
                    kill_node_at_frame: Some((10, 2)),
                    ..FaultInjection::default()
                },
                ..OffloadConfig::default()
            }))
            .try_build()
            .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
    }

    #[test]
    fn node_event_schedule_folds_in_the_kill_sugar_and_sorts() {
        let faults = FaultInjection {
            kill_node_at_frame: Some((50, 1)),
            node_events: vec![
                NodeEvent::Revive { frame: 90, node: 1 },
                NodeEvent::Kill { frame: 20, node: 0 },
            ],
            ..FaultInjection::default()
        };
        assert!(faults.any());
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
        // Unlike the sugar, a scheduled Kill is fine with one device:
        // the local-render fallback absorbs an empty pool.
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
    fn slo_thresholds_are_validated() {
        let base = |slo: SloConfig| {
            SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
                .mode(ExecutionMode::Offloaded(OffloadConfig {
                    slo,
                    ..OffloadConfig::default()
                }))
                .try_build()
        };
        // Release above engage breaks the hysteresis ordering.
        let err = base(SloConfig {
            engage_ms: 100.0,
            release_ms: 200.0,
            ..SloConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
        let err = base(SloConfig {
            breach_frames: 0,
            ..SloConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
        let err = base(SloConfig {
            alpha: 0.0,
            ..SloConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, GBoosterError::Config(_)));
        assert!(base(SloConfig::default()).is_ok());
    }

    #[test]
    fn workload_from_game_and_app() {
        let w: Workload = GameTitle::g1_gta_san_andreas().into();
        assert!(w.name.contains("GTA"));
        let w: Workload = AppTitle::tumblr().into();
        assert_eq!(w.name, "Tumblr");
    }
}

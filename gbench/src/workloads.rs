//! The four workloads: their configs (made from the seed alone), one
//! timed run of each, and the digest that checks a run's simulated
//! outputs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gbooster::core::config::{ExecutionMode, OffloadConfig, SessionConfig};
use gbooster::core::fabric::{FabricConfig, FabricReport, PoolEvent, SessionManager};
use gbooster::core::{Session, SessionReport};
use gbooster::sim::device::DeviceSpec;
use gbooster::sim::time::{SimDuration, SimTime};
use gbooster::workload::games::GameTitle;

use crate::alloc;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// G1 on a Nexus 5 offloaded to one Shield: the paper's headline path.
    SessionG1,
    /// G2 on an LG G5 offloaded to four Minix boxes at 1080p over a lossy
    /// link: every frame decoded and applied on four replicas.
    SessionPool4Lossy,
    /// 1024 offered tenants on a 16-node pool, observer off: the fabric
    /// event loop, fair share and cross-session dispatch.
    FabricScale,
    /// 64 tenants on 3 nodes with a drain, a kill and a revive, observer
    /// on, then every export: sampler, TSDB, exports and migration.
    FabricOps,
}

/// How long a workload simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Horizon {
    /// The measured horizon.
    Full,
    /// A tenth of it (`--quick`).
    Quick,
    /// The shortest horizon: what `setup_s` times.
    Setup,
}

/// A workload's generated config.
// One value per run: the size gap between variants costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Config {
    /// A single session.
    Session(SessionConfig),
    /// A multi-tenant fabric.
    Fabric(FabricConfig),
}

impl Workload {
    /// Every workload, in the default run order.
    pub const ALL: [Workload; 4] = [
        Workload::SessionG1,
        Workload::SessionPool4Lossy,
        Workload::FabricScale,
        Workload::FabricOps,
    ];

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SessionG1 => "session_g1",
            Workload::SessionPool4Lossy => "session_pool4_lossy",
            Workload::FabricScale => "fabric_scale",
            Workload::FabricOps => "fabric_ops",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's config for `seed` at `horizon`.
    pub fn config(self, seed: u64, horizon: Horizon) -> Config {
        match self {
            Workload::SessionG1 | Workload::SessionPool4Lossy => {
                let secs = match horizon {
                    Horizon::Full => 120,
                    Horizon::Quick => 12,
                    Horizon::Setup => 1,
                };
                let (game, phone, off) = if self == Workload::SessionG1 {
                    (
                        GameTitle::g1_gta_san_andreas(),
                        DeviceSpec::nexus5(),
                        OffloadConfig::default(),
                    )
                } else {
                    let off = OffloadConfig {
                        service_devices: vec![DeviceSpec::minix_neo_u1(); 4],
                        render_resolution: (1920, 1080),
                        loss_scale: 4.0,
                        ..OffloadConfig::default()
                    };
                    (GameTitle::g2_modern_combat(), DeviceSpec::lg_g5(), off)
                };
                Config::Session(
                    SessionConfig::builder(game, phone)
                        .duration_secs(secs)
                        .seed(seed)
                        .mode(ExecutionMode::Offloaded(off))
                        .build(),
                )
            }
            Workload::FabricScale => {
                let kinds = [
                    DeviceSpec::nvidia_shield(),
                    DeviceSpec::dell_optiplex_9010(),
                    DeviceSpec::dell_m4600(),
                    DeviceSpec::minix_neo_u1(),
                ];
                let pool = (0..16).map(|i| kinds[i % kinds.len()].clone()).collect();
                let mut cfg = FabricConfig::uniform(1024, pool, seed);
                cfg.duration = fabric_horizon(horizon, 120);
                Config::Fabric(cfg)
            }
            Workload::FabricOps => {
                // The chaos shape of the fabric tracing suite over a
                // longer horizon, every event at the same share of it.
                let pool = vec![
                    DeviceSpec::nvidia_shield(),
                    DeviceSpec::dell_optiplex_9010(),
                    DeviceSpec::dell_m4600(),
                ];
                let mut cfg = FabricConfig::uniform(64, pool, seed);
                cfg.duration = fabric_horizon(horizon, 1200);
                cfg.loss_scale = 1.0;
                for t in &mut cfg.tenants {
                    t.fps = 10.0;
                }
                let us = cfg.duration.as_micros();
                cfg.drain_node(SimTime::from_micros(us / 2), 0);
                cfg.events.push(PoolEvent::Kill {
                    at: SimTime::from_micros(us * 2 / 3),
                    node: 1,
                });
                cfg.events.push(PoolEvent::Revive {
                    at: SimTime::from_micros(us * 5 / 6),
                    node: 1,
                });
                cfg.observe_default();
                Config::Fabric(cfg)
            }
        }
    }
}

fn fabric_horizon(horizon: Horizon, full_secs: u64) -> SimDuration {
    match horizon {
        Horizon::Full => SimDuration::from_secs(full_secs),
        Horizon::Quick => SimDuration::from_secs(full_secs / 10),
        Horizon::Setup => SimDuration::from_millis(1),
    }
}

/// The fixed query list `fabric_ops` runs after the fabric.
const OPS_QUERIES: [&str; 5] = [
    "fabric.sessions_admitted",
    "rate(fabric.uplink_bytes[2s])",
    "quantile(0.99, fabric.frame_latency[2s])",
    "topk(5, fabric.frame_latency{tenant=\"t000\"})",
    "avg_over_time(fabric.pool_utilization[2s])",
];

/// The report of one run.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Report {
    /// From `Session::try_run`.
    Session(SessionReport),
    /// From `SessionManager::run`.
    Fabric(FabricReport),
}

/// One timed run of a config.
#[derive(Clone, Debug)]
pub struct Run {
    /// What the program returned.
    pub report: Report,
    /// Host wall time of the run (and, with an observer, its exports).
    pub wall_s: f64,
    /// Host wall time of the exports and queries alone.
    pub export_s: f64,
    /// Heap bytes allocated during the run.
    pub alloc_bytes: u64,
    /// Peak live heap during the run above the live heap before it.
    pub peak_bytes: u64,
    /// Frames presented (for a fabric, across every tenant).
    pub frames: u64,
    /// The simulated outputs a simulator-speed change must leave
    /// unchanged, by metric name.
    pub sim: Vec<(&'static str, f64)>,
    /// FNV-1a over the frame count, the bits of every simulated output,
    /// and for a fabric the bytes of its SLO report.
    pub digest: u64,
}

/// Runs `cfg` once under the timer and the allocation counters, then
/// checks the report. A returned error, a panic, and a report that
/// breaks the program's own invariants all come back as `Err`.
///
/// # Errors
///
/// The reason the run failed.
pub fn run(cfg: &Config) -> Result<Run, String> {
    let timed = catch_unwind(AssertUnwindSafe(|| -> Result<_, String> {
        let alloc_before = alloc::allocated();
        let live_before = alloc::live();
        alloc::reset_peak();
        let start = Instant::now();
        let (report, export_s) = match cfg {
            Config::Session(c) => {
                let report = Session::try_run(c).map_err(|e| e.to_string())?;
                (Report::Session(report), 0.0)
            }
            Config::Fabric(c) => {
                let report = SessionManager::run(c).map_err(|e| e.to_string())?;
                let export_start = Instant::now();
                if c.observe.is_some() {
                    export(&report, c.duration)?;
                }
                let export_s = export_start.elapsed().as_secs_f64();
                (Report::Fabric(report), export_s)
            }
        };
        let wall_s = start.elapsed().as_secs_f64();
        let alloc_bytes = alloc::allocated() - alloc_before;
        let peak_bytes = alloc::peak().saturating_sub(live_before);
        Ok((report, wall_s, export_s, alloc_bytes, peak_bytes))
    }));
    let (report, wall_s, export_s, alloc_bytes, peak_bytes) = match timed {
        Ok(result) => result?,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            return Err(format!("panicked: {msg}"));
        }
    };
    let (frames, sim, slo_json) = match (&report, cfg) {
        (Report::Session(r), _) => {
            if !r.state_consistent {
                return Err("service replicas ended with different GL state".into());
            }
            (r.frames, session_sim(r), String::new())
        }
        (Report::Fabric(r), Config::Fabric(c)) => {
            if r.admitted == 0 {
                return Err("fabric admitted no tenant".into());
            }
            (r.frames_presented, fabric_sim(r, c.duration), r.slo_json())
        }
        (Report::Fabric(_), Config::Session(_)) => unreachable!("a session config runs a session"),
    };
    if frames == 0 {
        return Err("no frame was presented".into());
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let values = sim.iter().flat_map(|(_, v)| v.to_bits().to_le_bytes());
    for b in frames
        .to_le_bytes()
        .into_iter()
        .chain(values)
        .chain(slo_json.bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok(Run {
        report,
        wall_s,
        export_s,
        alloc_bytes,
        peak_bytes,
        frames,
        sim,
        digest: h,
    })
}

/// Every export an operator pulls after an observed fabric run, with
/// the queries asked at the end of the run.
fn export(report: &FabricReport, horizon: SimDuration) -> Result<(), String> {
    let at = SimTime::from_micros(horizon.as_micros());
    std::hint::black_box((
        report.slo_json(),
        report.prometheus(),
        report.timeline_json(),
    ));
    for q in OPS_QUERIES {
        std::hint::black_box(
            report
                .query(q, at)
                .map_err(|e| format!("query {q}: {e:?}"))?,
        );
    }
    Ok(())
}

/// A session's energy and Eq. 5 response time beside its fps and bytes.
fn session_sim(r: &SessionReport) -> Vec<(&'static str, f64)> {
    let frames = r.frames.max(1) as f64;
    vec![
        ("sim_fps", r.median_fps),
        ("sim_response_ms", r.response_time_ms),
        ("sim_uplink_bytes_per_frame", r.uplink_bytes as f64 / frames),
        (
            "sim_downlink_bytes_per_frame",
            r.downlink_bytes as f64 / frames,
        ),
        ("sim_energy_j", r.energy.total_joules()),
    ]
}

/// A fabric's cross-session p99 and scaling figure beside its mean
/// per-tenant fps and bytes.
fn fabric_sim(r: &FabricReport, horizon: SimDuration) -> Vec<(&'static str, f64)> {
    let frames = r.frames_presented.max(1) as f64;
    let presented: u64 = r
        .tenants
        .iter()
        .filter(|t| t.admitted)
        .map(|t| t.frames_presented)
        .sum();
    let tenant_secs = r.admitted as f64 * horizon.as_secs_f64();
    vec![
        ("sim_fps", presented as f64 / tenant_secs),
        ("sim_p99_ms", r.p99_us as f64 / 1000.0),
        (
            "sim_uplink_bytes_per_frame",
            r.pool_uplink_bytes as f64 / frames,
        ),
        (
            "sim_downlink_bytes_per_frame",
            r.pool_downlink_bytes as f64 / frames,
        ),
        ("sim_sessions_per_node_at_slo", r.sessions_per_node_at_slo),
    ]
}

/// The seed the committed digests were made with.
pub const CANONICAL_SEED: u64 = 20_170_605;

/// Each workload's digest at [`CANONICAL_SEED`] and the full horizon.
/// A run with that seed and horizon must reproduce it.
pub fn expected_digest(w: Workload) -> u64 {
    match w {
        Workload::SessionG1 => 0x6161_4ad5_7f97_8131,
        Workload::SessionPool4Lossy => 0x4e79_e6d8_df4a_208d,
        Workload::FabricScale => 0xc0ee_de45_a0db_0828,
        Workload::FabricOps => 0x47fe_331a_fcd3_cce2,
    }
}

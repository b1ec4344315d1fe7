//! The multi-tenant service fabric: hundreds of concurrent phone
//! sessions multiplexed over one shared service pool (docs/FABRIC.md).
//!
//! Everything below `SessionManager` is the same machinery the
//! single-session engine uses — Eq. 4 scoring and per-node bookings via
//! [`crate::scheduler::Dispatcher`], the forwarder's LRU + LZ4 wire
//! model, the Turbo encode model — lifted one level: the *tenant*
//! becomes the scheduling unit.
//!
//! * **Admission control** — each tenant's steady-state node demand
//!   (render + encode seconds per second) is estimated from a real
//!   calibration run of its title; tenants are admitted until the pool
//!   reaches its configured utilization cap, the rest are rejected and
//!   counted (the gated `fabric.rejected_rate`).
//! * **Per-tenant queues + fair share** — issued frames wait in their
//!   own session's queue. When a node goes idle, the *session* is
//!   chosen max-min (least GPU time attained in the current 1 s
//!   window), then the *node* is chosen by Eq. 4 over the idle nodes.
//!   No admitted tenant can be starved while another hogs the pool.
//! * **Partitioned command caches with a shared-segment option** — each
//!   session owns its command cache (cold setup upload per tenant); in
//!   [`CacheMode::SharedSegments`] tenants of the same title attach to
//!   an already-resident immutable setup segment and skip the upload.
//! * **Aggregate SLO report** — cross-session p50/p99/p999 frame
//!   latency, pool utilization, and sessions-per-node-at-SLO, exported
//!   deterministically ([`FabricReport::slo_json`] is byte-identical
//!   across reruns of the same config).
//!
//! Per-tenant observability rides on the existing exporters: every
//! tenant owns a private [`Registry`] whose snapshot is exposed with a
//! `tenant="…"` base label through
//! [`gbooster_telemetry::export::prometheus_text_with_labels_dedup`].

use std::cell::OnceCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use gbooster_sim::device::DeviceSpec;
use gbooster_sim::rng::derived;
use gbooster_sim::time::{SimDuration, SimTime};
use gbooster_telemetry::export::prometheus_text_with_labels_dedup;
use gbooster_telemetry::flight::{Fault, FlightDump, FlightRecorder};
use gbooster_telemetry::query::QueryError;
use gbooster_telemetry::sample::{self, FrameVerdict, TailSampler};
use gbooster_telemetry::trace::{FrameTrace, SpanNode};
use gbooster_telemetry::tsdb::Tsdb;
use gbooster_telemetry::{
    names, ClockOffsetEstimator, Counter, Histogram, Registry, TelemetrySnapshot,
};
use gbooster_workload::games::GameTitle;
use gbooster_workload::tracegen::TraceGenerator;
use rand::rngs::StdRng;
use rand::Rng;

use crate::error::GBoosterError;
use crate::forward::CommandForwarder;
use crate::rebalance::{assign_destinations, RebalancePolicy, Rebalancer};
use crate::scheduler::{Dispatcher, ReorderBuffer, ServiceNode};
use crate::service::ServiceRuntime;
use crate::transport::{fabric_link_secs, fabric_migration_secs};

/// Frames of steady-state workload calibrated per title (cycled).
const CALIB_FRAMES: usize = 48;
/// Display compositor latency charged on every presentation.
const COMPOSITOR: SimDuration = SimDuration::from_millis(2);
/// LAN RTT to every pool node (the paper's same-room deployment).
const LAN_RTT: SimDuration = SimDuration::from_millis(2);
/// Eq. 4 warm-up booked onto a revived node.
const REJOIN_WARMUP: SimDuration = SimDuration::from_millis(50);
/// Loss-burst recovery stall charged per excess retransmission round.
const RETX_PENALTY: SimDuration = SimDuration::from_millis(20);
/// Per-frame probability of a loss burst at `loss_scale = 1`.
const LOSS_BURST_P: f64 = 0.02;
/// Wire cost of attaching to an already-resident shared setup segment.
const SHARED_ATTACH_BYTES: u64 = 64;
/// Presented frames before the SLO fallback may engage.
const SLO_MIN_FRAMES: u64 = 8;
/// Fallback engages when the latency EWMA exceeds `slo_ms` times this.
const SLO_ENGAGE_FACTOR: f64 = 4.0;
/// Smoothing for the per-tenant latency EWMA.
const SLO_ALPHA: f64 = 0.2;
/// Fair-share audit window width.
const WINDOW: SimDuration = SimDuration::from_secs(1);
/// Period of the observer's TSDB scrape of the pool and every admitted
/// tenant registry.
const SCRAPE_INTERVAL: SimDuration = SimDuration::from_millis(250);
/// Observer TSDB ring capacity per series.
const TSDB_SLOTS: usize = 64;
/// Largest accepted [`FabricConfig::loss_scale`]: 100× the nominal
/// lossy link. Far larger scales overflow the sim clock when a transfer
/// time is added to it.
const MAX_LOSS_SCALE: f64 = 100.0;

/// One tenant's workload contract.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Game the tenant is running.
    pub title: GameTitle,
    /// Target frame rate (frames issued per second).
    pub fps: f64,
    /// p99 frame-latency objective, milliseconds.
    pub slo_ms: f64,
}

/// Command-cache layout across sessions on the service side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Every session owns its cache: full setup upload per tenant.
    Partitioned,
    /// Sessions of the same title share the immutable setup segment
    /// (shaders, static textures): one upload per title, later tenants
    /// attach for `SHARED_ATTACH_BYTES`.
    SharedSegments,
}

/// Admission-control policy.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionControl {
    /// Fraction of pool node-seconds the admitted set may book (ρ cap).
    pub utilization_cap: f64,
    /// Hard ceiling on admitted sessions per pool node.
    pub max_sessions_per_node: usize,
}

impl Default for AdmissionControl {
    fn default() -> Self {
        AdmissionControl {
            utilization_cap: 0.85,
            max_sessions_per_node: 64,
        }
    }
}

/// Fabric observability: tail-sampled per-frame tracing plus the
/// embedded ring-buffer TSDB (docs/OBSERVABILITY.md). The sampler keeps
/// a 1-in-[`sample::DEFAULT_HEAD_INTERVAL`] baseline under a
/// [`sample::DEFAULT_TENANT_BUDGET_BYTES`] per-tenant budget, and the
/// TSDB scrapes every 250 ms into 64-slot rings. `None` on
/// [`FabricConfig::observe`] — the default — runs with no observer at
/// all: no extra events, no extra registry entries, no extra RNG
/// draws, so un-observed runs stay byte-identical to builds that
/// predate the observer.
#[derive(Clone, Copy, Debug, Default)]
pub struct ObserveConfig;

/// A scheduled pool fault, sim-time keyed (the fabric has no single
/// frame counter to key on — hundreds of sessions each have their own).
#[derive(Clone, Copy, Debug)]
pub enum PoolEvent {
    /// Node drops dead at `at`; its in-flight frames are orphaned.
    Kill {
        /// Failure instant.
        at: SimTime,
        /// Pool node index.
        node: usize,
    },
    /// Node rejoins at `at` with an Eq. 4 warm-up.
    Revive {
        /// Rejoin instant.
        at: SimTime,
        /// Pool node index.
        node: usize,
    },
    /// Operator-style drain at `at`: the node's homed sessions live-
    /// migrate to survivors, then the node is cordoned
    /// (docs/MIGRATION.md). The node keeps serving during the
    /// transfers, so presentation never gaps.
    Drain {
        /// Drain instant.
        at: SimTime,
        /// Pool node index.
        node: usize,
    },
    /// Thermal brownout at `at`: the node's ground-truth capability is
    /// scaled by `factor` in `(0, 1]`. Opens one `"node_degraded"`
    /// incident per admitted tenant; a later rebalancer drain of the
    /// node folds into it instead of opening more.
    Degrade {
        /// Brownout instant.
        at: SimTime,
        /// Pool node index.
        node: usize,
        /// Capability multiplier in `(0, 1]`.
        factor: f64,
    },
}

impl PoolEvent {
    /// The event's instant and pool node.
    fn parts(&self) -> (SimTime, usize) {
        match *self {
            PoolEvent::Kill { at, node }
            | PoolEvent::Revive { at, node }
            | PoolEvent::Drain { at, node }
            | PoolEvent::Degrade { at, node, .. } => (at, node),
        }
    }
}

/// Full fabric run description.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// The shared service pool.
    pub pool: Vec<DeviceSpec>,
    /// Offered tenants, in admission order.
    pub tenants: Vec<TenantSpec>,
    /// Issue horizon: frames are issued while `t < duration`.
    pub duration: SimDuration,
    /// Master seed; every stream derives from it.
    pub seed: u64,
    /// Command-cache layout.
    pub cache_mode: CacheMode,
    /// Admission policy.
    pub admission: AdmissionControl,
    /// Link loss scale (0 = clean; 1 = nominal lossy; at most 100).
    pub loss_scale: f64,
    /// Per-tenant stream resolution (width, height).
    pub resolution: (u32, u32),
    /// Scheduled pool faults, in time order.
    pub events: Vec<PoolEvent>,
    /// Rebalancer policy loop. `None` (the default) disables the
    /// thermal watch entirely — clean runs are byte-identical to a
    /// build without the rebalancer.
    pub rebalance: Option<RebalancePolicy>,
    /// Observability: tail-sampled tracing + embedded TSDB. `None`
    /// (the default) runs with no observer and is byte-identical to a
    /// build without one.
    pub observe: Option<ObserveConfig>,
}

impl FabricConfig {
    /// A uniform tenant mix: `n` sessions cycling through a fixed
    /// four-title corpus slice at 20 fps with a 100 ms p99 SLO.
    pub fn uniform(n: usize, pool: Vec<DeviceSpec>, seed: u64) -> Self {
        let corpus = [
            GameTitle::g2_modern_combat(),
            GameTitle::g5_candy_crush(),
            GameTitle::g6_cut_the_rope(),
            GameTitle::g3_star_wars(),
        ];
        let tenants = (0..n)
            .map(|i| TenantSpec {
                title: corpus[i % corpus.len()].clone(),
                fps: 20.0,
                slo_ms: 100.0,
            })
            .collect();
        FabricConfig {
            pool,
            tenants,
            duration: SimDuration::from_secs(4),
            seed,
            cache_mode: CacheMode::SharedSegments,
            admission: AdmissionControl::default(),
            loss_scale: 0.0,
            resolution: (320, 180),
            events: Vec::new(),
            rebalance: None,
            observe: None,
        }
    }

    /// Switches the fabric observer on.
    pub fn observe_default(&mut self) {
        self.observe = Some(ObserveConfig);
    }

    /// Schedules an operator drain of `node` at `at`: the entry point
    /// the live-migration acceptance scenario drives.
    pub fn drain_node(&mut self, at: SimTime, node: usize) {
        self.events.push(PoolEvent::Drain { at, node });
    }

    /// Sanity-checks the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GBoosterError::Config`] on an empty pool, no
    /// tenants, a non-positive duration, broken per-tenant numbers, or
    /// a `loss_scale` outside `[0, 100]`.
    pub fn validate(&self) -> Result<(), GBoosterError> {
        let fail = |msg: String| Err(GBoosterError::Config(msg));
        if self.pool.is_empty() {
            return fail("fabric pool must have at least one node".into());
        }
        if self.tenants.is_empty() {
            return fail("fabric needs at least one tenant".into());
        }
        if self.duration.is_zero() {
            return fail("fabric duration must be positive".into());
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if !(t.fps.is_finite() && t.fps > 0.0 && t.fps <= 240.0) {
                return fail(format!("tenant {i}: fps {} out of range", t.fps));
            }
            if !(t.slo_ms.is_finite() && t.slo_ms > 0.0) {
                return fail(format!("tenant {i}: slo_ms {} out of range", t.slo_ms));
            }
        }
        if !(self.admission.utilization_cap > 0.0 && self.admission.utilization_cap <= 1.0) {
            return fail(format!(
                "utilization_cap {} must be in (0, 1]",
                self.admission.utilization_cap
            ));
        }
        if self.admission.max_sessions_per_node == 0 {
            return fail("max_sessions_per_node must be positive".into());
        }
        if !(self.loss_scale >= 0.0 && self.loss_scale <= MAX_LOSS_SCALE) {
            return fail(format!(
                "loss_scale {} must be in [0, {MAX_LOSS_SCALE}]",
                self.loss_scale
            ));
        }
        let (w, h) = self.resolution;
        if w == 0 || h == 0 {
            return fail("resolution must be non-zero".into());
        }
        for ev in &self.events {
            let node = ev.parts().1;
            if node >= self.pool.len() {
                return fail(format!("pool event names node {node} outside the pool"));
            }
            if let PoolEvent::Degrade { factor, .. } = ev {
                if !(factor.is_finite() && *factor > 0.0 && *factor <= 1.0) {
                    return fail(format!("degrade factor {factor} must be in (0, 1]"));
                }
            }
        }
        if let Some(p) = &self.rebalance {
            if !p.valid() {
                return fail("rebalance policy knobs out of range".into());
            }
        }
        Ok(())
    }
}

/// One incident record: a pool fault as one tenant experienced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantIncident {
    /// Affected tenant.
    pub tenant: u32,
    /// `"node_loss"` or `"pool_lost"`.
    pub kind: &'static str,
    /// Fault instant.
    pub at: SimTime,
}

/// One live migration as the report's timeline records it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationRecord {
    /// Migrated tenant.
    pub tenant: u32,
    /// Source node (the drained one).
    pub from: usize,
    /// Final destination (after any retargets).
    pub to: usize,
    /// Transfer start.
    pub started: SimTime,
    /// Cutover instant; `None` when the migration aborted.
    pub completed: Option<SimTime>,
    /// Snapshot bytes shipped, including retarget re-ships.
    pub bytes: u64,
    /// Destinations lost mid-transfer.
    pub retargets: u32,
    /// Whether the migration stalled out with no survivor to take it.
    pub aborted: bool,
    /// `"operator_drain"` or `"rebalance"`.
    pub reason: &'static str,
}

/// Per-tenant slice of the aggregate report.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant index (admission order).
    pub tenant: u32,
    /// Paper title id (G1–G6).
    pub title: &'static str,
    /// Whether admission let the session in.
    pub admitted: bool,
    /// Frames the session issued.
    pub frames_issued: u64,
    /// Frames presented (must equal issued for a gapless session).
    pub frames_presented: u64,
    /// Frames rendered on the tenant's own GPU.
    pub frames_local: u64,
    /// Frames re-queued away from a killed node.
    pub redispatches: u64,
    /// Uplink wire bytes (setup + per-frame streams).
    pub uplink_bytes: u64,
    /// Downlink encoded bytes.
    pub downlink_bytes: u64,
    /// Pool GPU seconds this session was scheduled.
    pub service_secs: f64,
    /// Median frame latency, µs.
    pub p50_us: u64,
    /// p99 frame latency, µs.
    pub p99_us: u64,
    /// The session's SLO, for reference.
    pub slo_ms: f64,
    /// p99 ≤ SLO over the whole run.
    pub slo_met: bool,
    /// Frames presented strictly in sequence with no gaps.
    pub gapless: bool,
    /// Incident records opened for this tenant.
    pub incidents: u64,
}

/// One 1 s fair-share audit window.
#[derive(Clone, Debug)]
pub struct WindowAudit {
    /// Window index (floor of sim seconds).
    pub window: u64,
    /// Pool GPU seconds scheduled in the window, all tenants.
    pub pool_busy_secs: f64,
    /// Per-admitted-tenant GPU seconds scheduled in the window.
    pub tenant_busy_secs: Vec<f64>,
}

/// Aggregate outcome of a fabric run.
#[derive(Clone, Debug)]
pub struct FabricReport {
    /// Sessions that asked for admission.
    pub sessions_offered: usize,
    /// Sessions admitted.
    pub admitted: usize,
    /// Sessions rejected at admission.
    pub rejected: usize,
    /// Rejected ÷ offered.
    pub rejected_rate: f64,
    /// Estimated admitted node demand (node-seconds per second).
    pub admitted_load: f64,
    /// The admission budget: `utilization_cap × pool nodes`.
    pub load_cap: f64,
    /// Pool size at start.
    pub nodes: usize,
    /// Frames presented across every session.
    pub frames_presented: u64,
    /// Cross-session p50 frame latency, µs.
    pub p50_us: u64,
    /// Cross-session p99 frame latency, µs.
    pub p99_us: u64,
    /// Cross-session p99.9 frame latency, µs.
    pub p999_us: u64,
    /// Pool GPU busy seconds ÷ alive pool node-seconds.
    pub pool_utilization: f64,
    /// Admitted sessions meeting their p99 SLO, gapless.
    pub sessions_at_slo: usize,
    /// `sessions_at_slo ÷ nodes` — the gated scaling metric.
    pub sessions_per_node_at_slo: f64,
    /// Total uplink wire bytes (pool registry view).
    pub pool_uplink_bytes: u64,
    /// Total downlink bytes (pool registry view).
    pub pool_downlink_bytes: u64,
    /// Setup bytes avoided by shared segments.
    pub shared_segment_bytes_saved: u64,
    /// Frames re-queued away from killed nodes.
    pub redispatches: u64,
    /// Tenants that flipped to local rendering on SLO breach.
    pub slo_fallbacks: u64,
    /// Live-migration timeline, start-ordered.
    pub migrations: Vec<MigrationRecord>,
    /// Worst per-migrated-tenant presentation gap, milliseconds:
    /// `(issued − presented + held-in-reorder) × frame period`. Zero
    /// means every migrated session presented every issued frame — the
    /// gated `fabric.migration_blackout_ms` row.
    pub migration_blackout_ms: f64,
    /// Snapshot bytes shipped by migrations (also charged to uplink).
    pub migrate_bytes: u64,
    /// Migrations that lost their destination mid-transfer.
    pub migrate_retargets: u64,
    /// Sessions whose migration stalled with no survivor.
    pub migrate_aborted: u64,
    /// Rebalancer migrations folded into an already-open node incident
    /// instead of opening one per migrated tenant.
    pub incidents_folded: u64,
    /// Flight-recorder postmortems (at most one; the recorder latches).
    pub flight: Vec<FlightDump>,
    /// Per-tenant incident records, time-ordered.
    pub incidents: Vec<TenantIncident>,
    /// Per-tenant slices, tenant order.
    pub tenants: Vec<TenantReport>,
    /// 1 s fair-share audit windows.
    pub windows: Vec<WindowAudit>,
    /// Pool-level registry snapshot.
    pub telemetry: TelemetrySnapshot,
    /// Per-tenant registry snapshots (admitted tenants only),
    /// exported with `tenant="…"` labels by [`Self::prometheus`].
    pub tenant_telemetry: Vec<(u32, TelemetrySnapshot)>,
    /// The tail sampler with the retained trace set (observe runs
    /// only). Exemplar trace ids on the latency histograms resolve
    /// into it.
    pub sampler: Option<TailSampler>,
    /// The embedded TSDB with the run's metric history (observe runs
    /// only). Query it via [`Self::query`].
    pub tsdb: Option<Tsdb>,
    /// Recovered per-node clock offsets, milliseconds, node order
    /// (observe runs only; empty otherwise).
    pub clock_offsets_ms: Vec<f64>,
}

impl FabricReport {
    /// The aggregate SLO report as deterministic JSON: two runs of the
    /// same config produce byte-identical output (the scaling matrix
    /// asserts this).
    pub fn slo_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.tenants.len() * 160);
        out.push_str(&format!(
            "{{\"offered\":{},\"admitted\":{},\"rejected\":{},\"rejected_rate\":{:.6},\
             \"nodes\":{},\"frames\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\
             \"pool_utilization\":{:.6},\"sessions_at_slo\":{},\
             \"sessions_per_node_at_slo\":{:.4},\"uplink_bytes\":{},\"downlink_bytes\":{},\
             \"shared_segment_bytes_saved\":{},\"redispatches\":{},\"slo_fallbacks\":{},\
             \"migrations\":{},\"migrate_bytes\":{},\"migrate_retargets\":{},\
             \"migrate_aborted\":{},\"incidents_folded\":{},\"blackout_ms\":{:.3},\
             \"incidents\":{},\"tenants\":[",
            self.sessions_offered,
            self.admitted,
            self.rejected,
            self.rejected_rate,
            self.nodes,
            self.frames_presented,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.pool_utilization,
            self.sessions_at_slo,
            self.sessions_per_node_at_slo,
            self.pool_uplink_bytes,
            self.pool_downlink_bytes,
            self.shared_segment_bytes_saved,
            self.redispatches,
            self.slo_fallbacks,
            self.migrations.len(),
            self.migrate_bytes,
            self.migrate_retargets,
            self.migrate_aborted,
            self.incidents_folded,
            self.migration_blackout_ms,
            self.incidents.len(),
        ));
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tenant\":{},\"title\":\"{}\",\"admitted\":{},\"issued\":{},\
                 \"presented\":{},\"local\":{},\"redispatches\":{},\"uplink\":{},\
                 \"downlink\":{},\"service_us\":{},\"p50_us\":{},\"p99_us\":{},\
                 \"slo_met\":{},\"gapless\":{},\"incidents\":{}}}",
                t.tenant,
                t.title,
                t.admitted,
                t.frames_issued,
                t.frames_presented,
                t.frames_local,
                t.redispatches,
                t.uplink_bytes,
                t.downlink_bytes,
                (t.service_secs * 1e6).round() as u64,
                t.p50_us,
                t.p99_us,
                t.slo_met,
                t.gapless,
                t.incidents,
            ));
        }
        out.push_str("]}");
        out
    }

    /// Prometheus exposition of the pool registry followed by every
    /// admitted tenant's registry labelled `tenant="t…"` — the
    /// multi-session form of the single-session exporter. `# HELP` /
    /// `# TYPE` metadata is emitted once per metric name, not once per
    /// tenant block (256 tenants would otherwise repeat every header
    /// 256 times). Observe runs append the per-node recovered clock
    /// offsets as `trace.clock_offset_ms{node="nNN"}` samples.
    pub fn prometheus(&self) -> String {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = prometheus_text_with_labels_dedup(&self.telemetry, &[], &mut seen);
        for (tenant, snap) in &self.tenant_telemetry {
            let label = format!("t{tenant:03}");
            out.push_str(&prometheus_text_with_labels_dedup(
                snap,
                &[("tenant", &label)],
                &mut seen,
            ));
        }
        for (j, ms) in self.clock_offsets_ms.iter().enumerate() {
            out.push_str(&format!(
                "gbooster_trace_clock_offset_ms{{node=\"n{j:02}\"}} {ms}\n"
            ));
        }
        out
    }

    /// Runs a PromQL-lite query (see [`gbooster_telemetry::query`])
    /// against the embedded TSDB at sim time `at`.
    ///
    /// # Errors
    ///
    /// [`QueryError::Parse`] on a malformed expression or when the run
    /// had no observer; [`QueryError::Kind`] when a function is applied
    /// to the wrong series kind.
    pub fn query(&self, expr: &str, at: SimTime) -> Result<Vec<(String, f64)>, QueryError> {
        let Some(db) = &self.tsdb else {
            return Err(QueryError::Parse(
                "fabric ran without an observer (FabricConfig::observe is None)".into(),
            ));
        };
        gbooster_telemetry::query::eval(db, expr, at)
    }

    /// The run's operational timeline as deterministic JSON: incidents
    /// and migrations in time order, followed by the tail-sampling
    /// tally — the skeleton an incident postmortem embeds next to
    /// TSDB queries and retained traces.
    pub fn timeline_json(&self) -> String {
        // (t_us, rank, payload): rank makes same-instant ordering
        // explicit — incidents before migration starts before cutovers.
        let mut events: Vec<(u64, u8, String)> = Vec::new();
        for inc in &self.incidents {
            events.push((
                inc.at.as_micros(),
                0,
                format!(
                    "{{\"t_us\":{},\"kind\":\"incident\",\"tenant\":{},\"what\":\"{}\"}}",
                    inc.at.as_micros(),
                    inc.tenant,
                    inc.kind
                ),
            ));
        }
        for m in &self.migrations {
            events.push((
                m.started.as_micros(),
                1,
                format!(
                    "{{\"t_us\":{},\"kind\":\"migration_start\",\"tenant\":{},\"from\":{},\
                     \"to\":{},\"reason\":\"{}\"}}",
                    m.started.as_micros(),
                    m.tenant,
                    m.from,
                    m.to,
                    m.reason
                ),
            ));
            if let Some(done) = m.completed {
                events.push((
                    done.as_micros(),
                    2,
                    format!(
                        "{{\"t_us\":{},\"kind\":\"migration_cutover\",\"tenant\":{},\"to\":{}}}",
                        done.as_micros(),
                        m.tenant,
                        m.to
                    ),
                ));
            }
        }
        events.sort();
        let mut out = String::from("{\"events\":[");
        for (i, (_, _, e)) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(e);
        }
        out.push_str("],\"traces\":");
        match &self.sampler {
            Some(s) => out.push_str(&format!(
                "{{\"kept\":{},\"dropped\":{},\"budget_evictions\":{},\"retained\":{}}}",
                s.kept(),
                s.dropped(),
                s.evictions(),
                s.retained_count()
            )),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// Per-title workload model calibrated from a real trace-generator +
/// forwarder run: actual wire bytes (LRU + LZ4), fill, changed pixels,
/// and Turbo encode/downlink figures per steady-state frame.
#[derive(Clone, Debug)]
struct TitleModel {
    setup_wire: u64,
    frame_wire: Vec<u64>,
    frame_fill: Vec<u64>,
    encode_us: Vec<u64>,
    down_bytes: Vec<u64>,
    /// Full GL-state snapshot of a warm session (wire model bytes).
    snap_full: u64,
    /// The same snapshot as a delta against the immutable setup
    /// segment — what a migration ships when the destination already
    /// holds the title's shared segment.
    snap_delta: u64,
}

fn calibrate(title: &GameTitle, resolution: (u32, u32), seed: u64) -> TitleModel {
    let (w, h) = resolution;
    let calib_seed = derived(seed, &format!("fabric-calib-{}", title.id)).gen::<u64>();
    let mut gen = TraceGenerator::new(title.profile(), title.intensity, w, h, calib_seed);
    let mut fw = CommandForwarder::new();
    // A real replica rides along with the calibration: decoding the
    // forwarded wires into a service runtime yields the title's warm
    // GL-state snapshot — the payload a live migration ships.
    let mut rt = ServiceRuntime::new(DeviceSpec::nvidia_shield());
    let setup = gen.setup_trace();
    let setup_fwd = fw
        .forward_frame(&setup.commands, gen.client_memory())
        .expect("calibration setup stream must forward");
    let setup_wire = setup_fwd.wire.len() as u64;
    let setup_cmds = rt
        .decode(&setup_fwd.wire)
        .expect("calibration setup stream must decode");
    rt.apply_frame(&setup_cmds, true)
        .expect("calibration setup stream must apply");
    let setup_snapshot = rt.context().snapshot();
    let mut model = TitleModel {
        setup_wire,
        frame_wire: Vec::with_capacity(CALIB_FRAMES),
        frame_fill: Vec::with_capacity(CALIB_FRAMES),
        encode_us: Vec::with_capacity(CALIB_FRAMES),
        down_bytes: Vec::with_capacity(CALIB_FRAMES),
        snap_full: 0,
        snap_delta: 0,
    };
    let frame_px = w as u64 * h as u64;
    for _ in 0..CALIB_FRAMES {
        let frame = gen.next_frame(1.0 / 30.0);
        let fwd = fw
            .forward_frame(&frame.commands, gen.client_memory())
            .expect("calibration frame must forward");
        let cmds = rt.decode(&fwd.wire).expect("calibration frame must decode");
        rt.apply_frame(&cmds, true)
            .expect("calibration frame must apply");
        let changed = (frame.changed_pixel_ratio * frame_px as f64).round() as u64;
        model.frame_wire.push(fwd.wire.len() as u64);
        model.frame_fill.push(frame.effective_fill);
        model
            .encode_us
            .push((gbooster_codec::turbo::model_encode_secs(frame_px, changed) * 1e6) as u64);
        model
            .down_bytes
            .push(gbooster_codec::turbo::model_encoded_bytes(changed) as u64);
    }
    let warm = rt.context().snapshot();
    model.snap_full = warm.wire_bytes();
    model.snap_delta = warm.delta_wire_bytes(&setup_snapshot);
    model
}

/// A frame waiting in (or moving toward) its tenant's queue.
#[derive(Clone, Copy, Debug)]
struct FrameJob {
    seq: u64,
    issued: SimTime,
    arrived: SimTime,
    fill: u64,
    encode: SimDuration,
    down_bytes: u64,
}

/// Every tenant's FIFO frame queue, plus the ascending list of tenants
/// whose queue is non-empty. All queue changes go through this type, so
/// the list cannot disagree with the queues, and the fair-share pick
/// walks only the tenants with queued work: rejected and idle tenants
/// cost nothing per event.
struct Backlog {
    queues: Vec<VecDeque<FrameJob>>,
    /// Tenants with queued work, ascending. Only admitted tenants queue
    /// frames, so the capacity reserved for them is never outgrown.
    ready: Vec<usize>,
}

impl Backlog {
    fn new(tenants: usize, admitted: usize) -> Self {
        Backlog {
            queues: (0..tenants).map(|_| VecDeque::new()).collect(),
            ready: Vec::with_capacity(admitted),
        }
    }

    fn mark_ready(&mut self, t: usize) {
        if let Err(at) = self.ready.binary_search(&t) {
            self.ready.insert(at, t);
        }
    }

    fn push_back(&mut self, t: usize, job: FrameJob) {
        self.queues[t].push_back(job);
        self.mark_ready(t);
    }

    fn push_front(&mut self, t: usize, job: FrameJob) {
        self.queues[t].push_front(job);
        self.mark_ready(t);
    }

    fn pop_front(&mut self, t: usize) -> Option<FrameJob> {
        let job = self.queues[t].pop_front()?;
        if self.queues[t].is_empty() {
            let at = self
                .ready
                .binary_search(&t)
                .expect("queued tenant is listed");
            self.ready.remove(at);
        }
        Some(job)
    }

    fn front(&self, t: usize) -> Option<&FrameJob> {
        self.queues[t].front()
    }

    /// Max-min fair share: the tenant with queued work that attained the
    /// least GPU time in the current window (`attained`, indexed by
    /// tenant; `None` before anything was charged to it), ties to the
    /// lowest index.
    fn pick(&self, attained: Option<&[f64]>) -> Option<usize> {
        let got = |t: usize| attained.map_or(0.0, |v| v[t]);
        let mut pick: Option<(f64, usize)> = None;
        // `ready` ascends, so keeping the first of equal minima is the
        // lowest-index tie-break.
        for &t in &self.ready {
            let g = got(t);
            if pick.is_none_or(|(best, _)| g < best) {
                pick = Some((g, t));
            }
        }
        pick.map(|(_, t)| t)
    }
}

/// Per-tenant live state.
struct TenantState {
    spec: TenantSpec,
    model: usize,
    fill_scale: f64,
    rng: StdRng,
    registry: Registry,
    /// Instruments fed once per frame, resolved from `registry` on first
    /// use: each registers at the moment a by-name lookup would, but
    /// later frames skip the registry's lock and map search.
    c_uplink: OnceCell<Counter>,
    c_downlink: OnceCell<Counter>,
    h_latency: OnceCell<Histogram>,
    reorder: ReorderBuffer<(SimTime, SimTime)>,
    last_present: SimTime,
    frames_issued: u64,
    frames_presented: u64,
    service_secs: f64,
    latency_ewma_ms: f64,
    local_mode: bool,
    incidents: u64,
    migrations: u32,
}

impl TenantState {
    fn new(seed: u64, i: usize, spec: &TenantSpec, model: usize) -> Self {
        let mut rng = derived(seed, &format!("fabric-tenant-{i}"));
        TenantState {
            spec: spec.clone(),
            model,
            fill_scale: rng.gen_range(0.95..1.05),
            rng,
            registry: Registry::new(),
            c_uplink: OnceCell::new(),
            c_downlink: OnceCell::new(),
            h_latency: OnceCell::new(),
            reorder: ReorderBuffer::new(),
            last_present: SimTime::ZERO,
            frames_issued: 0,
            frames_presented: 0,
            service_secs: 0.0,
            latency_ewma_ms: 0.0,
            local_mode: false,
            incidents: 0,
            migrations: 0,
        }
    }

    fn uplink_counter(&self) -> &Counter {
        self.c_uplink
            .get_or_init(|| self.registry.counter(names::fabric::UPLINK_BYTES))
    }

    fn downlink_counter(&self) -> &Counter {
        self.c_downlink
            .get_or_init(|| self.registry.counter(names::fabric::DOWNLINK_BYTES))
    }

    fn latency_histogram(&self) -> &Histogram {
        self.h_latency
            .get_or_init(|| self.registry.histogram(names::fabric::FRAME_LATENCY))
    }
}

/// One live migration in flight (or finished). `epoch` guards the
/// cutover event: a retarget bumps it, so the stale completion of a
/// transfer toward a killed destination never fires.
struct Mig {
    tenant: usize,
    from: usize,
    to: usize,
    started: SimTime,
    /// Bytes per ship (the retarget re-ship charges this again).
    ship: u64,
    /// Total bytes shipped including re-ships.
    bytes: u64,
    retargets: u32,
    epoch: u64,
    done: Option<SimTime>,
    aborted: bool,
    reason: &'static str,
}

/// Dispatch waypoints of one in-flight frame, recorded as the event
/// loop moves it and folded into a span tree at retirement.
#[derive(Clone, Copy, Debug)]
struct PendingFrame {
    arrived: SimTime,
    start: Option<SimTime>,
    finish: Option<SimTime>,
    encode: SimDuration,
    down_end: Option<SimTime>,
    /// Rendered on the phone GPU (fallback / pool loss) — the span
    /// tree is a single local_render stage.
    local: bool,
}

impl PendingFrame {
    fn new(arrived: SimTime, encode: SimDuration, local: bool) -> Self {
        PendingFrame {
            arrived,
            start: None,
            finish: None,
            encode,
            down_end: None,
            local,
        }
    }
}

/// Live observer state threaded through the event loop. Exists only
/// when [`FabricConfig::observe`] is set; un-observed runs never touch
/// it and stay byte-identical to builds without it.
struct FabricObserver {
    sampler: TailSampler,
    pending: BTreeMap<(u32, u64), PendingFrame>,
    tsdb: Tsdb,
    clocks: Vec<ClockOffsetEstimator>,
    /// Ground-truth per-node service-clock skew, µs (the quantity the
    /// estimators must recover from booking timestamps).
    skew_us: Vec<i64>,
    /// Precomputed `tNNN` scrape labels, one per tenant — the scrape
    /// loop runs every interval for every tenant and must not format.
    tenant_labels: Vec<String>,
}

impl FabricObserver {
    fn new(seed: u64, nodes: usize, tenants: usize) -> Self {
        FabricObserver {
            sampler: TailSampler::new(
                sample::DEFAULT_HEAD_INTERVAL,
                sample::DEFAULT_TENANT_BUDGET_BYTES,
            ),
            pending: BTreeMap::new(),
            tsdb: Tsdb::new(TSDB_SLOTS),
            clocks: (0..nodes).map(|_| ClockOffsetEstimator::new()).collect(),
            skew_us: (0..nodes)
                .map(|j| {
                    derived(seed, &format!("fabric-node-skew-{j}")).gen_range(-150_000i64..=150_000)
                })
                .collect(),
            tenant_labels: (0..tenants).map(|i| format!("t{i:03}")).collect(),
        }
    }

    /// Tail verdict at retirement: the frame's fate is known, so keep
    /// exactly the traces an operator would open. Returns the trace id
    /// of a kept frame, which tags its latency samples (exemplars).
    fn offer(
        &mut self,
        t: usize,
        seq: u64,
        issued: SimTime,
        shown: SimTime,
        verdict: FrameVerdict,
    ) -> Option<u64> {
        let tid = sample::trace_id(session_of(t), seq);
        // Waypoint cleanup is unconditional, but the span tree is built
        // inside the closure — only if the verdict keeps the frame.
        let waypoints = self.pending.remove(&(t as u32, seq));
        let latency_us = (shown - issued).as_micros();
        self.sampler
            .offer_with(t as u32, seq, tid, latency_us, verdict, |out, reason| {
                let frame = build_frame(waypoints, seq, issued, shown);
                sample::serialize_into(out, t as u32, tid, reason, &frame);
            })
            .map(|_| tid)
    }

    /// Publishes the sampling counters, the worst recovered clock offset
    /// and the TSDB self-metrics into `pool`; returns every node's
    /// recovered offset, milliseconds.
    fn publish(&self, pool: &Registry) -> Vec<f64> {
        pool.counter(names::tracing::SAMPLED_KEPT)
            .add(self.sampler.kept());
        pool.counter(names::tracing::SAMPLED_DROPPED)
            .add(self.sampler.dropped());
        pool.counter(names::tracing::BUDGET_EVICTIONS)
            .add(self.sampler.evictions());
        let offsets_ms: Vec<f64> = self
            .clocks
            .iter()
            .map(|c| c.offset_us().map_or(0.0, |us| us as f64 / 1e3))
            .collect();
        let worst = offsets_ms.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        pool.gauge(names::tracing::CLOCK_OFFSET_MS).set(worst);
        #[allow(clippy::cast_precision_loss)]
        {
            pool.gauge(names::tsdb::SERIES)
                .set(self.tsdb.series_count() as f64);
            pool.gauge(names::tsdb::SAMPLES)
                .set(self.tsdb.ingested() as f64);
            pool.gauge(names::tsdb::POINTS_EVICTED)
                .set(self.tsdb.evicted() as f64);
        }
        offsets_ms
    }

    /// Copies the pool and every admitted tenant registry into the
    /// TSDB at `at`.
    fn scrape(&mut self, at: SimTime, pool: &Registry, tenants: &[TenantState], admitted: &[bool]) {
        pool.scrape_into(&mut self.tsdb, at, &[]);
        for (i, st) in tenants.iter().enumerate() {
            if admitted[i] {
                let label = &self.tenant_labels[i];
                st.registry
                    .scrape_into(&mut self.tsdb, at, &[("tenant", label)]);
            }
        }
    }
}

/// Builds the span tree for a retiring frame from its recorded
/// waypoints: uplink → dispatch_wait → remote{replay, encode} →
/// downlink → display_wait, or a single local_render stage for
/// phone-rendered frames. Frames with no waypoints (issued before
/// the observer saw them) get the minimal deterministic tree. A free
/// function taking the waypoints by value so the tail sampler can run
/// it lazily — only frames the verdict keeps pay for tree
/// construction and serialization.
fn build_frame(
    waypoints: Option<PendingFrame>,
    seq: u64,
    issued: SimTime,
    shown: SimTime,
) -> FrameTrace {
    let mut root = SpanNode::new(names::stage::FRAME, issued, shown);
    match waypoints {
        Some(p) if !p.local => {
            root.stage(names::stage::UPLINK, issued, p.arrived);
            if let (Some(start), Some(finish)) = (p.start, p.finish) {
                root.stage(names::stage::DISPATCH_WAIT, p.arrived, start);
                let mut remote = SpanNode::new(names::remote::SUBTREE, start, finish);
                let enc_start = finish - p.encode;
                remote.stage(names::remote::REPLAY, start, enc_start);
                remote.stage(names::remote::ENCODE, enc_start, finish);
                root.push(remote);
                if let Some(down_end) = p.down_end {
                    root.stage(names::stage::DOWNLINK, finish, down_end);
                    root.stage(names::stage::DISPLAY_WAIT, down_end, shown);
                }
            }
        }
        _ => {
            root.stage(names::stage::LOCAL_RENDER, issued, shown);
        }
    }
    FrameTrace { seq, root }
}

/// Event kinds, in tie-break priority order at equal instants. The
/// relative order of the kinds present in migration-free runs (fault,
/// node-free, arrive, issue) is unchanged from before live migration
/// existed, so clean runs stay byte-identical. The scrape event sorts
/// after everything else and exists only in observed runs.
const EV_FAULT: u8 = 0;
const EV_MIGRATE: u8 = 1;
const EV_NODE_FREE: u8 = 2;
const EV_ARRIVE: u8 = 3;
const EV_ISSUE: u8 = 4;
const EV_REBALANCE: u8 = 5;
const EV_SCRAPE: u8 = 6;

/// Pool counters bumped only by rare events, looked up by name when
/// they fire. They are registered up front so the exports list them
/// even when a run never bumps them.
const POOL_COUNTERS: [&str; 12] = [
    names::fabric::REDISPATCHES,
    names::fabric::LOCAL_FRAMES,
    names::fabric::SLO_FALLBACKS,
    names::fabric::SHARED_SEGMENT_BYTES_SAVED,
    names::fabric::INCIDENTS,
    names::migrate::SESSIONS,
    names::migrate::DRAINS,
    names::migrate::BYTES,
    names::migrate::SNAPSHOT_BYTES_SAVED,
    names::migrate::RETARGETS,
    names::migrate::ABORTED,
    names::migrate::INCIDENTS_FOLDED,
];

/// The dispatcher's session id of tenant `t` (0 is the single-session
/// engine's).
fn session_of(t: usize) -> u64 {
    t as u64 + 1
}

/// The session manager: runs a [`FabricConfig`] to completion.
pub struct SessionManager;

impl SessionManager {
    /// Runs the fabric: admission, the shared-pool schedule, and the
    /// aggregate report. Fully deterministic for a given config.
    ///
    /// # Errors
    ///
    /// Returns [`GBoosterError::Config`] for a broken config.
    pub fn run(cfg: &FabricConfig) -> Result<FabricReport, GBoosterError> {
        cfg.validate()?;
        let pool = Registry::new();
        let (models, model_of) = calibrate_titles(cfg);
        let admission = admit(cfg, &models, &model_of, &pool)?;
        let mut fabric = Fabric::new(cfg, models, model_of, admission, pool);
        while let Some(Reverse((t_us, kind, a, b))) = fabric.heap.pop() {
            fabric.handle(t_us, kind, a, b);
        }
        Ok(fabric.finish())
    }
}

/// Calibrates one model per distinct title, in offer order. Returns the
/// models and each tenant's model index.
fn calibrate_titles(cfg: &FabricConfig) -> (Vec<TitleModel>, Vec<usize>) {
    let mut models = Vec::new();
    let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
    for t in &cfg.tenants {
        index.entry(t.title.id).or_insert_with(|| {
            models.push(calibrate(&t.title, cfg.resolution, cfg.seed));
            models.len() - 1
        });
    }
    // Built after calibration, so it is not live at the calibration
    // replicas' peak heap.
    let model_of = cfg.tenants.iter().map(|t| index[t.title.id]).collect();
    (models, model_of)
}

/// Who admission let in, and the load figures the report quotes.
struct Admission {
    admitted: Vec<bool>,
    /// Each offered tenant's estimated node demand (node-seconds per
    /// second).
    demand: Vec<f64>,
    count: usize,
    load: f64,
    cap: f64,
}

/// Admits tenants in offer order while their estimated demand fits
/// under the utilization cap and the per-node session ceiling; fails
/// when the pool cannot host a single tenant.
fn admit(
    cfg: &FabricConfig,
    models: &[TitleModel],
    model_of: &[usize],
    pool: &Registry,
) -> Result<Admission, GBoosterError> {
    let nodes = cfg.pool.len();
    let offered = cfg.tenants.len();
    let mean_capability = cfg
        .pool
        .iter()
        .map(|s| s.gpu.fillrate_gpixels_per_sec * 1e9)
        .sum::<f64>()
        / nodes as f64;
    // Saturating: `usize::MAX` per node means no ceiling at all.
    let max_sessions = cfg.admission.max_sessions_per_node.saturating_mul(nodes);
    let mut adm = Admission {
        admitted: Vec::with_capacity(offered),
        demand: Vec::with_capacity(offered),
        count: 0,
        load: 0.0,
        cap: cfg.admission.utilization_cap * nodes as f64,
    };
    for (t, &model) in cfg.tenants.iter().zip(model_of) {
        let m = &models[model];
        let mean_fill = m.frame_fill.iter().sum::<u64>() as f64 / m.frame_fill.len() as f64;
        let mean_encode = m.encode_us.iter().sum::<u64>() as f64 / m.encode_us.len() as f64 / 1e6;
        // A booking occupies its node from dispatch to finish: uplink
        // propagation (rtt/2) + render + encode.
        let frame_occupancy =
            LAN_RTT.as_secs_f64() / 2.0 + mean_fill / mean_capability + mean_encode;
        let demand = t.fps * frame_occupancy;
        let admit = adm.load + demand <= adm.cap && adm.count < max_sessions;
        if admit {
            adm.load += demand;
            adm.count += 1;
        }
        adm.demand.push(demand);
        adm.admitted.push(admit);
    }
    let rejected = offered - adm.count;
    pool.counter(names::fabric::SESSIONS_OFFERED)
        .add(offered as u64);
    pool.counter(names::fabric::SESSIONS_ADMITTED)
        .add(adm.count as u64);
    pool.counter(names::fabric::SESSIONS_REJECTED)
        .add(rejected as u64);
    pool.gauge(names::fabric::REJECTED_RATE)
        .set(rejected as f64 / offered as f64);
    if adm.count == 0 {
        return Err(GBoosterError::Config(
            "admission rejected every tenant: pool cannot host a single session".into(),
        ));
    }
    Ok(adm)
}

/// The event loop's state, with one handler per event kind. The heap
/// key is `(µs, kind, a, b)`; `a` and `b` are the kind's operands.
struct Fabric<'a> {
    cfg: &'a FabricConfig,
    models: Vec<TitleModel>,
    admission: Admission,
    pool: Registry,
    c_uplink: Counter,
    c_downlink: Counter,
    h_latency: Histogram,
    h_queue_wait: Histogram,
    /// The phone GPU's fill rate, pixels per second.
    phone_rate: f64,
    dispatcher: Dispatcher,
    tenants: Vec<TenantState>,
    backlog: Backlog,
    heap: BinaryHeap<Reverse<(u64, u8, u64, u64)>>,
    /// Frames in uplink flight, keyed (tenant, seq).
    uplinking: BTreeMap<(u32, u64), FrameJob>,
    /// The frame each node is serving, with its booking start.
    on_node: Vec<Option<(u32, FrameJob, SimTime)>>,
    /// Per-node booking epoch: a kill bumps it, so the dead booking's
    /// node-free event never fires.
    epochs: Vec<u64>,
    dead_since: Vec<Option<SimTime>>,
    dead_secs: Vec<f64>,
    /// Fair-share audit: window → per-tenant scheduled seconds.
    windows: BTreeMap<u64, Vec<f64>>,
    incidents: Vec<TenantIncident>,
    busy_secs_total: f64,
    /// Each admitted tenant's GL-state authority (its checkpoint
    /// lineage) lives on one node. Frames still dispatch pool-wide —
    /// the per-frame wire stream carries every mutable update — so
    /// homing is pure migration bookkeeping.
    home: Vec<Option<usize>>,
    homed_demand: Vec<f64>,
    draining: Vec<bool>,
    open_incident: Vec<Option<&'static str>>,
    migs: Vec<Mig>,
    active_mig: Vec<Option<usize>>,
    cutover_at: Vec<Option<SimTime>>,
    /// Per node, migrations away from it not yet cut over.
    pending_off: Vec<usize>,
    flight: FlightRecorder,
    rebal: Option<Rebalancer>,
    obs: Option<FabricObserver>,
    /// Run horizon actually reached: the final TSDB scrape lands here.
    end_us: u64,
}

impl<'a> Fabric<'a> {
    fn new(
        cfg: &'a FabricConfig,
        models: Vec<TitleModel>,
        model_of: Vec<usize>,
        admission: Admission,
        pool: Registry,
    ) -> Self {
        let (nodes, n) = (cfg.pool.len(), cfg.tenants.len());
        for name in POOL_COUNTERS {
            pool.counter(name);
        }
        pool.histogram(names::migrate::TRANSFER);
        let mut fabric = Fabric {
            c_uplink: pool.counter(names::fabric::UPLINK_BYTES),
            c_downlink: pool.counter(names::fabric::DOWNLINK_BYTES),
            h_latency: pool.histogram(names::fabric::FRAME_LATENCY),
            h_queue_wait: pool.histogram(names::fabric::QUEUE_WAIT),
            pool,
            phone_rate: DeviceSpec::nexus5().gpu.fillrate_gpixels_per_sec * 1e9,
            dispatcher: Dispatcher::new(
                cfg.pool
                    .iter()
                    .map(|spec| ServiceNode::new(spec.clone(), LAN_RTT))
                    .collect(),
            ),
            tenants: (cfg.tenants.iter().zip(model_of).enumerate())
                .map(|(i, (spec, model))| TenantState::new(cfg.seed, i, spec, model))
                .collect(),
            backlog: Backlog::new(n, admission.count),
            heap: BinaryHeap::new(),
            uplinking: BTreeMap::new(),
            on_node: vec![None; nodes],
            epochs: vec![0; nodes],
            dead_since: vec![None; nodes],
            dead_secs: vec![0.0; nodes],
            windows: BTreeMap::new(),
            incidents: Vec::new(),
            busy_secs_total: 0.0,
            home: vec![None; n],
            homed_demand: vec![0.0; nodes],
            draining: vec![false; nodes],
            open_incident: vec![None; nodes],
            migs: Vec::new(),
            active_mig: vec![None; n],
            cutover_at: vec![None; n],
            pending_off: vec![0; nodes],
            flight: FlightRecorder::new(8),
            rebal: cfg.rebalance.map(|p| Rebalancer::new(nodes, p)),
            obs: cfg.observe.map(|_| FabricObserver::new(cfg.seed, nodes, n)),
            end_us: cfg.duration.as_micros(),
            cfg,
            models,
            admission,
        };
        fabric.upload_setup_segments();
        // Initial homing is max-min fair over estimated demand, ties to
        // the lowest index.
        let admitted = fabric.homed_on(None);
        for (t, dest) in
            assign_destinations(&admitted, &vec![true; nodes], &mut fabric.homed_demand)
        {
            fabric.home[t] = dest;
        }
        fabric.seed_events();
        fabric
    }

    /// Setup segment upload: partitioned caches pay per session; shared
    /// segments pay once per title.
    fn upload_setup_segments(&mut self) {
        let mut resident: BTreeMap<&'static str, bool> = BTreeMap::new();
        for t in 0..self.tenants.len() {
            if !self.admission.admitted[t] {
                continue;
            }
            let title = self.tenants[t].spec.title.id;
            let setup = self.models[self.tenants[t].model].setup_wire;
            let resident = resident.entry(title).or_insert(false);
            let cost = match self.cfg.cache_mode {
                CacheMode::Partitioned => setup,
                CacheMode::SharedSegments if !*resident => {
                    *resident = true;
                    setup
                }
                CacheMode::SharedSegments => {
                    self.pool
                        .counter(names::fabric::SHARED_SEGMENT_BYTES_SAVED)
                        .add(setup.saturating_sub(SHARED_ATTACH_BYTES));
                    SHARED_ATTACH_BYTES
                }
            };
            self.uplink(t, cost);
        }
    }

    /// Schedules each admitted tenant's first issue (staggered across
    /// one frame period), the configured pool faults, and the first
    /// rebalance check and scrape.
    fn seed_events(&mut self) {
        let horizon = self.cfg.duration.as_micros();
        let count = self.admission.count as u64;
        for t in 0..self.tenants.len() {
            let period_us = (1e6 / self.tenants[t].spec.fps) as u64;
            let offset = (t as u64 * period_us) / count;
            if self.admission.admitted[t] && offset < horizon {
                self.schedule(offset, EV_ISSUE, t as u64, 0);
            }
        }
        for (idx, ev) in self.cfg.events.iter().enumerate() {
            self.schedule(ev.parts().0.as_micros(), EV_FAULT, idx as u64, 0);
        }
        if let Some(p) = self.cfg.rebalance {
            if p.check_interval.as_micros() < horizon {
                self.schedule(p.check_interval.as_micros(), EV_REBALANCE, 0, 0);
            }
        }
        if self.obs.is_some() && SCRAPE_INTERVAL.as_micros() <= horizon {
            self.schedule(SCRAPE_INTERVAL.as_micros(), EV_SCRAPE, 0, 0);
        }
    }

    fn schedule(&mut self, at_us: u64, kind: u8, a: u64, b: u64) {
        self.heap.push(Reverse((at_us, kind, a, b)));
    }

    fn handle(&mut self, t_us: u64, kind: u8, a: u64, b: u64) {
        let now = SimTime::from_micros(t_us);
        self.end_us = self.end_us.max(t_us);
        match kind {
            EV_FAULT => match self.cfg.events[a as usize] {
                PoolEvent::Kill { node, .. } => self.on_kill(now, node),
                PoolEvent::Revive { node, .. } => self.on_revive(now, node),
                PoolEvent::Drain { node, .. } => self.on_drain(now, node),
                PoolEvent::Degrade { node, factor, .. } => self.on_degrade(now, node, factor),
            },
            EV_MIGRATE => self.on_cutover(now, a as usize, b),
            EV_NODE_FREE => self.on_node_free(now, a as usize, b),
            EV_ARRIVE => self.on_arrive(now, a as usize, b),
            EV_ISSUE => self.on_issue(t_us, a as usize, b),
            EV_REBALANCE => self.on_rebalance(t_us),
            EV_SCRAPE => self.on_scrape(t_us),
            _ => unreachable!("unknown event kind"),
        }
    }

    fn serving(&self, j: usize) -> bool {
        self.dead_since[j].is_none() && !self.draining[j] && self.dispatcher.nodes()[j].accepting()
    }

    fn survivors(&self, excluded: &[usize]) -> Vec<bool> {
        (0..self.cfg.pool.len())
            .map(|j| !excluded.contains(&j) && self.serving(j))
            .collect()
    }

    /// Admitted sessions homed on `node` and not mid-migration, with
    /// their demand.
    fn homed_on(&self, node: Option<usize>) -> Vec<(usize, f64)> {
        (0..self.tenants.len())
            .filter(|&t| {
                self.admission.admitted[t] && self.home[t] == node && self.active_mig[t].is_none()
            })
            .map(|t| (t, self.admission.demand[t]))
            .collect()
    }

    /// The least-loaded survivor outside `excluded` for tenant `t`, with
    /// its demand booked there; `None` when no node survives.
    fn place(&mut self, t: usize, excluded: &[usize]) -> Option<usize> {
        let survivor = self.survivors(excluded);
        let spec = [(t, self.admission.demand[t])];
        assign_destinations(&spec, &survivor, &mut self.homed_demand)
            .pop()
            .and_then(|(_, dest)| dest)
    }

    fn count(&self, t: usize, name: &'static str, n: u64) {
        self.pool.counter(name).add(n);
        self.tenants[t].registry.counter(name).add(n);
    }

    fn uplink(&self, t: usize, bytes: u64) {
        self.c_uplink.add(bytes);
        self.tenants[t].uplink_counter().add(bytes);
    }

    /// Recovery stall of a loss burst on tenant `t`'s link, seconds. A
    /// lossy link draws from the tenant's stream once per transfer, and
    /// again for the burst's retransmission rounds.
    fn loss_burst_secs(&mut self, t: usize) -> f64 {
        let loss = self.cfg.loss_scale;
        let rng = &mut self.tenants[t].rng;
        if loss > 0.0 && rng.gen_range(0.0..1.0) < (LOSS_BURST_P * loss).min(0.5) {
            let rounds = rng.gen_range(1..=3);
            RETX_PENALTY.as_secs_f64() * rounds as f64
        } else {
            0.0
        }
    }

    /// Charges `secs` of node time to tenant `t`, split across the 1 s
    /// audit windows the booking overlaps.
    fn charge(&mut self, t: usize, start: SimTime, finish: SimTime) {
        let (mut a, b) = (start.as_micros(), finish.as_micros());
        let win_us = WINDOW.as_micros();
        let n = self.tenants.len();
        while a < b {
            let w = a / win_us;
            let end = ((w + 1) * win_us).min(b);
            let secs = (end - a) as f64 / 1e6;
            self.windows.entry(w).or_insert_with(|| vec![0.0; n])[t] += secs;
            a = end;
        }
    }

    /// Opens a `kind` incident on `node`, one record per admitted tenant.
    fn open_incident(&mut self, node: usize, kind: &'static str, now: SimTime) {
        self.open_incident[node] = Some(kind);
        let c_incidents = self.pool.counter(names::fabric::INCIDENTS);
        for (t, st) in self.tenants.iter_mut().enumerate() {
            if self.admission.admitted[t] {
                st.incidents += 1;
                c_incidents.inc();
                self.incidents.push(TenantIncident {
                    tenant: t as u32,
                    kind,
                    at: now,
                });
            }
        }
    }

    /// Queues tenant `t`'s frame `seq` for display at `ready` and
    /// presents every frame now in sequence. `local` marks each frame
    /// this call presents as phone-rendered.
    fn present(&mut self, t: usize, seq: u64, issued: SimTime, ready: SimTime, local: bool) {
        self.tenants[t].reorder.insert(seq, (ready, issued));
        while let Some((ready_at, issued)) = self.tenants[t].reorder.pop_next() {
            let st = &mut self.tenants[t];
            let shown = ready_at.max(st.last_present);
            st.last_present = shown;
            let lat = shown - issued;
            let lat_ms = lat.as_micros() as f64 / 1e3;
            let tag = self.obs.as_mut().and_then(|o| {
                let verdict = FrameVerdict {
                    slo_violation: lat_ms > st.spec.slo_ms,
                    in_incident: self.open_incident.iter().any(|i| i.is_some()),
                    migration: self.active_mig[t].is_some()
                        || self.cutover_at[t].is_some_and(|c| c >= issued && c <= shown),
                };
                o.offer(t, st.reorder.awaiting() - 1, issued, shown, verdict)
            });
            match tag {
                Some(tid) => {
                    self.h_latency.record_tagged(lat.as_micros(), tid);
                    st.latency_histogram().record_tagged(lat.as_micros(), tid);
                }
                None => {
                    self.h_latency.record(lat.as_micros());
                    st.latency_histogram().record(lat.as_micros());
                }
            }
            st.frames_presented += 1;
            // SLO hysteresis: a persistently-breached session sheds
            // itself onto the phone GPU.
            st.latency_ewma_ms = SLO_ALPHA * lat_ms + (1.0 - SLO_ALPHA) * st.latency_ewma_ms;
            let fell_back = !st.local_mode
                && st.frames_presented >= SLO_MIN_FRAMES
                && st.latency_ewma_ms > st.spec.slo_ms * SLO_ENGAGE_FACTOR;
            st.local_mode |= fell_back;
            if local {
                self.count(t, names::fabric::LOCAL_FRAMES, 1);
            }
            if fell_back {
                self.pool.counter(names::fabric::SLO_FALLBACKS).inc();
            }
        }
    }

    /// Renders `job` on tenant `t`'s own GPU from `now` and presents it.
    fn render_local(&mut self, t: usize, job: FrameJob, now: SimTime) {
        let secs = job.fill as f64 / self.phone_rate;
        let ready = now + SimDuration::from_secs_f64(secs) + COMPOSITOR;
        if let Some(o) = self.obs.as_mut() {
            // Phone-rendered: the span tree collapses to one
            // local_render stage whatever came before.
            o.pending
                .entry((t as u32, job.seq))
                .or_insert(PendingFrame::new(job.arrived, job.encode, true))
                .local = true;
        }
        self.present(t, job.seq, job.issued, ready, true);
    }

    /// Books queued frames onto idle nodes until either runs out: the
    /// session with the least GPU time attained in the current window
    /// goes first (max-min fair share), onto the idle node Eq. 4 scores
    /// best for it.
    fn pump(&mut self, now: SimTime) {
        let win = now.as_micros() / WINDOW.as_micros();
        while let Some(t) = self.backlog.pick(self.windows.get(&win).map(Vec::as_slice)) {
            let fill = self.backlog.front(t).expect("picked tenant has work").fill;
            let Some(node) = self.dispatcher.best_idle_node(fill, now) else {
                break;
            };
            if self.on_node[node].is_some() {
                // The node's free event is scheduled for this very
                // instant but has not fired yet (a sibling completion
                // pumped first). It will re-pump.
                break;
            }
            let job = self.backlog.pop_front(t).expect("picked tenant has work");
            let dec = self.dispatcher.dispatch_to(
                node,
                session_of(t),
                job.seq,
                job.fill,
                job.encode,
                now,
            );
            self.h_queue_wait.record((now - job.arrived).as_micros());
            let secs = (dec.finish - dec.start).as_secs_f64();
            self.busy_secs_total += secs;
            self.tenants[t].service_secs += secs;
            self.charge(t, dec.start, dec.finish);
            if let Some(rb) = self.rebal.as_mut() {
                rb.record(node, dec.start, dec.finish);
            }
            if let Some(o) = self.obs.as_mut() {
                // Waypoints for the span tree; a redispatch overwrites
                // with the booking that actually completes.
                if let Some(e) = o.pending.get_mut(&(t as u32, job.seq)) {
                    e.start = Some(dec.start);
                    e.finish = Some(dec.finish);
                }
            }
            self.on_node[node] = Some((t as u32, job, dec.start));
            let epoch = self.epochs[node];
            self.schedule(dec.finish.as_micros(), EV_NODE_FREE, node as u64, epoch);
        }
    }

    /// Starts live-migrating tenant `t`'s warm snapshot from `src` to
    /// `dst`. The transfer rides the paced background channel; the
    /// source keeps serving (it is not cordoned until its last session
    /// has cut over), so presentation never gaps.
    fn start_migration(
        &mut self,
        now: SimTime,
        t: usize,
        src: usize,
        dst: usize,
        reason: &'static str,
    ) {
        let m = &self.models[self.tenants[t].model];
        let (ship, saved) = match self.cfg.cache_mode {
            // The destination already holds the title's immutable setup
            // segment (multicast at first upload), so only the session's
            // mutable delta ships.
            CacheMode::SharedSegments => (m.snap_delta, m.snap_full.saturating_sub(m.snap_delta)),
            CacheMode::Partitioned => (m.snap_full, 0),
        };
        if saved > 0 {
            self.count(t, names::migrate::SNAPSHOT_BYTES_SAVED, saved);
        }
        // A migration caused by an already-reported node fault folds
        // into that incident instead of opening another.
        if self.open_incident[src].is_some() {
            self.pool.counter(names::migrate::INCIDENTS_FOLDED).inc();
        }
        self.migs.push(Mig {
            tenant: t,
            from: src,
            to: dst,
            started: now,
            ship,
            bytes: 0,
            retargets: 0,
            epoch: 0,
            done: None,
            aborted: false,
            reason,
        });
        self.active_mig[t] = Some(self.migs.len() - 1);
        self.pending_off[src] += 1;
        self.homed_demand[src] -= self.admission.demand[t];
        self.ship(now, self.migs.len() - 1);
    }

    /// Ships migration `idx`'s snapshot toward its current destination
    /// and schedules the epoch-guarded cutover for when it lands.
    fn ship(&mut self, now: SimTime, idx: usize) {
        let mg = &mut self.migs[idx];
        mg.bytes += mg.ship;
        let (t, bytes, epoch) = (mg.tenant, mg.ship, mg.epoch);
        self.uplink(t, bytes);
        self.count(t, names::migrate::BYTES, bytes);
        let secs = fabric_migration_secs(bytes, self.cfg.loss_scale) + self.loss_burst_secs(t);
        let done_at = now + SimDuration::from_secs_f64(secs);
        self.schedule(done_at.as_micros(), EV_MIGRATE, idx as u64, epoch);
    }

    /// Drains `node`: live-migrates every session homed there to the
    /// survivors under max-min fair share. With no survivor the drain
    /// stalls (flight recorder: `MigrationStalled`).
    fn start_drain(&mut self, now: SimTime, node: usize, reason: &'static str) {
        let movers = self.homed_on(Some(node));
        let survivor = self.survivors(&[node]);
        self.pool.counter(names::migrate::DRAINS).inc();
        if let Some(rb) = self.rebal.as_mut() {
            rb.note_drain(now);
        }
        if !survivor.contains(&true) {
            self.pool
                .counter(names::migrate::ABORTED)
                .add(movers.len() as u64);
            self.flight
                .trigger(Fault::MigrationStalled, now, self.pool.snapshot());
            return;
        }
        self.draining[node] = true;
        for (t, dest) in assign_destinations(&movers, &survivor, &mut self.homed_demand) {
            let dest = dest.expect("survivor checked above");
            self.start_migration(now, t, node, dest, reason);
        }
        if movers.is_empty() && self.pending_off[node] == 0 {
            self.dispatcher.cordon_node(node, true);
        }
    }

    fn on_kill(&mut self, now: SimTime, node: usize) {
        if self.dead_since[node].is_some() {
            return;
        }
        self.epochs[node] += 1;
        self.dead_since[node] = Some(now);
        let orphans = self.dispatcher.fail_node(node, now);
        let served = self.on_node[node].take();
        debug_assert_eq!(orphans.len(), served.iter().count());
        let pool_empty = self.dispatcher.alive_nodes() == 0;
        if let Some((t, mut job, _)) = served {
            let t = t as usize;
            if pool_empty {
                self.render_local(t, job, now);
            } else {
                job.arrived = now;
                self.backlog.push_front(t, job);
            }
            self.count(t, names::fabric::REDISPATCHES, 1);
        }
        if pool_empty {
            // No pool left: every session flips to its own GPU, queued
            // work drains there.
            for t in 0..self.tenants.len() {
                if !self.admission.admitted[t] {
                    continue;
                }
                self.tenants[t].local_mode = true;
                while let Some(job) = self.backlog.pop_front(t) {
                    self.render_local(t, job, now);
                }
            }
        }
        let kind = if pool_empty { "pool_lost" } else { "node_loss" };
        self.open_incident(node, kind, now);
        self.retarget_toward(now, node);
        // Authority sessions stranded on the dead node re-home to
        // survivors for free: the replicas bootstrap from the live
        // command stream they already receive. With no survivor they
        // stay homeless until a node revives.
        let stranded = self.homed_on(Some(node));
        let survivor = self.survivors(&[node]);
        for (t, dest) in assign_destinations(&stranded, &survivor, &mut self.homed_demand) {
            self.home[t] = dest;
        }
        self.homed_demand[node] = 0.0;
        self.pump(now);
    }

    /// Transfers aimed at the dead `node` retarget to the next-best
    /// survivor (the snapshot re-ships); with none left the migration
    /// stalls and the session stays homed on its source.
    fn retarget_toward(&mut self, now: SimTime, node: usize) {
        for idx in 0..self.migs.len() {
            let mg = &self.migs[idx];
            if mg.done.is_some() || mg.aborted || mg.to != node {
                continue;
            }
            let (t, src) = (mg.tenant, mg.from);
            let dest = self.place(t, &[node, src]);
            let mg = &mut self.migs[idx];
            mg.epoch += 1;
            if let Some(d) = dest {
                mg.to = d;
                mg.retargets += 1;
                self.count(t, names::migrate::RETARGETS, 1);
                self.ship(now, idx);
            } else {
                mg.aborted = true;
                self.active_mig[t] = None;
                self.homed_demand[src] += self.admission.demand[t];
                self.pending_off[src] -= 1;
                self.count(t, names::migrate::ABORTED, 1);
                self.flight
                    .trigger(Fault::MigrationStalled, now, self.pool.snapshot());
            }
        }
    }

    fn on_revive(&mut self, now: SimTime, node: usize) {
        let Some(since) = self.dead_since[node].take() else {
            return;
        };
        self.dead_secs[node] += (now - since).as_secs_f64();
        self.dispatcher.revive_node(node, now, REJOIN_WARMUP);
        self.draining[node] = false;
        self.open_incident[node] = None;
        // Sessions orphaned by a total pool loss re-home onto the
        // revived node.
        for (t, demand) in self.homed_on(None) {
            self.home[t] = Some(node);
            self.homed_demand[node] += demand;
        }
        // The pool is back: sessions return to the remote path at their
        // next issue.
        for st in &mut self.tenants {
            st.local_mode = false;
        }
        self.pump(now);
    }

    fn on_drain(&mut self, now: SimTime, node: usize) {
        if self.dead_since[node].is_none() && !self.draining[node] {
            self.start_drain(now, node, "operator_drain");
            self.pump(now);
        }
    }

    fn on_degrade(&mut self, now: SimTime, node: usize, factor: f64) {
        if self.dead_since[node].is_some() {
            return;
        }
        self.dispatcher.degrade_node(node, factor);
        if self.open_incident[node].is_none() {
            self.open_incident(node, "node_degraded", now);
        }
    }

    /// Cutover: the destination becomes the session's state authority.
    /// In-flight frames keep draining through the tenant's reorder
    /// buffer untouched — the presented stream never gaps.
    fn on_cutover(&mut self, now: SimTime, idx: usize, epoch: u64) {
        let mg = &mut self.migs[idx];
        if mg.epoch != epoch || mg.aborted || mg.done.is_some() {
            return;
        }
        mg.done = Some(now);
        let (t, src, dst, started, reason) = (mg.tenant, mg.from, mg.to, mg.started, mg.reason);
        debug_assert!(
            self.dead_since[dst].is_none(),
            "cutover onto a dead destination must have been retargeted"
        );
        self.home[t] = Some(dst);
        self.active_mig[t] = None;
        self.cutover_at[t] = Some(now);
        self.tenants[t].migrations += 1;
        self.count(t, names::migrate::SESSIONS, 1);
        self.pool
            .histogram(names::migrate::TRANSFER)
            .record((now - started).as_micros());
        // The destination warms up exactly like a revived node: its
        // caches are cold for the new arrival.
        self.dispatcher.warm_node(dst, now, REJOIN_WARMUP);
        self.pending_off[src] -= 1;
        if self.pending_off[src] == 0
            && !self.home.contains(&Some(src))
            && self.dead_since[src].is_none()
        {
            // Last session has left: cordon the source. It stays alive
            // and drains its in-flight frames.
            self.dispatcher.cordon_node(src, true);
        }
        // A destination that started draining mid-transfer hands the
        // arrival straight onward.
        if self.draining[dst] && self.dead_since[dst].is_none() {
            if let Some(next) = self.place(t, &[dst]) {
                self.start_migration(now, t, dst, next, reason);
            }
        }
        self.pump(now);
    }

    fn on_rebalance(&mut self, t_us: u64) {
        let now = SimTime::from_micros(t_us);
        let nodes = self.cfg.pool.len();
        let candidate: Vec<bool> = (0..nodes)
            .map(|j| self.serving(j) && self.home.contains(&Some(j)))
            .collect();
        let absorbers = (0..nodes).filter(|&j| self.serving(j)).count();
        let rb = self.rebal.as_mut().expect("rebalance events need a policy");
        if let Some(d) = rb.tick(now, &candidate, absorbers.saturating_sub(1)) {
            self.start_drain(now, d.node, "rebalance");
            self.pump(now);
        }
        let interval = self.cfg.rebalance.expect("rebalance events need a policy");
        let next = t_us + interval.check_interval.as_micros();
        if next < self.cfg.duration.as_micros() {
            self.schedule(next, EV_REBALANCE, 0, 0);
        }
    }

    fn on_node_free(&mut self, now: SimTime, node: usize, epoch: u64) {
        if epoch != self.epochs[node] {
            return;
        }
        if let Some((t, job, start)) = self.on_node[node].take() {
            let t = t as usize;
            self.dispatcher.complete_for(node, session_of(t), job.seq);
            let down_secs = fabric_link_secs(job.down_bytes, self.cfg.loss_scale);
            self.c_downlink.add(job.down_bytes);
            self.tenants[t].downlink_counter().add(job.down_bytes);
            if let Some(o) = self.obs.as_mut() {
                if let Some(e) = o.pending.get_mut(&(t as u32, job.seq)) {
                    e.down_end = Some(now + SimDuration::from_secs_f64(down_secs));
                }
                // NTP-style clock recovery from this booking's timestamp
                // quadruple: the node stamps arrival/reply on its own
                // skewed clock, the fabric stamps send/receive.
                let skew = o.skew_us[node];
                let half_rtt = (LAN_RTT.as_micros() / 2) as i64;
                let t1 = start.as_micros() as i64 - half_rtt;
                let t2 = start.as_micros() as i64 + skew;
                let t3 = now.as_micros() as i64 + skew;
                let t4 = now.as_micros() as i64 + half_rtt;
                o.clocks[node].observe(t1, t2, t3, t4);
            }
            let ready = now + SimDuration::from_secs_f64(down_secs) + COMPOSITOR;
            self.present(t, job.seq, job.issued, ready, false);
        }
        self.pump(now);
    }

    fn on_arrive(&mut self, now: SimTime, t: usize, seq: u64) {
        let job = self
            .uplinking
            .remove(&(t as u32, seq))
            .expect("arriving frame was issued");
        self.backlog.push_back(t, job);
        self.pump(now);
    }

    /// Issues tenant `t`'s frame `seq` from its calibrated model: onto
    /// the uplink, or onto the phone GPU in local mode.
    fn on_issue(&mut self, t_us: u64, t: usize, seq: u64) {
        let now = SimTime::from_micros(t_us);
        let st = &self.tenants[t];
        let m = &self.models[st.model];
        let i = (seq as usize) % CALIB_FRAMES;
        let wire = m.frame_wire[i];
        let mut job = FrameJob {
            seq,
            issued: now,
            arrived: now,
            fill: (m.frame_fill[i] as f64 * st.fill_scale) as u64,
            encode: SimDuration::from_micros(m.encode_us[i]),
            down_bytes: m.down_bytes[i],
        };
        self.tenants[t].frames_issued += 1;
        if self.tenants[t].local_mode {
            self.render_local(t, job, now);
        } else {
            let up_secs = fabric_link_secs(wire, self.cfg.loss_scale) + self.loss_burst_secs(t);
            self.uplink(t, wire);
            job.arrived = now + SimDuration::from_secs_f64(up_secs);
            self.uplinking.insert((t as u32, seq), job);
            if let Some(o) = self.obs.as_mut() {
                let waypoints = PendingFrame::new(job.arrived, job.encode, false);
                o.pending.insert((t as u32, seq), waypoints);
            }
            self.schedule(job.arrived.as_micros(), EV_ARRIVE, t as u64, seq);
        }
        let next = t_us + (1e6 / self.tenants[t].spec.fps) as u64;
        if next < self.cfg.duration.as_micros() {
            self.schedule(next, EV_ISSUE, t as u64, seq + 1);
        }
    }

    /// Snapshots the pool and every admitted tenant registry into the
    /// TSDB (scrape events exist only in observed runs).
    fn on_scrape(&mut self, t_us: u64) {
        let now = SimTime::from_micros(t_us);
        let o = self.obs.as_mut().expect("scrape events need an observer");
        o.scrape(now, &self.pool, &self.tenants, &self.admission.admitted);
        let next = t_us + SCRAPE_INTERVAL.as_micros();
        if next <= self.cfg.duration.as_micros() {
            self.schedule(next, EV_SCRAPE, 0, 0);
        }
    }

    /// Per-tenant report rows (every offered tenant) and the registry
    /// snapshots of the admitted ones.
    fn tenant_reports(&self) -> (Vec<TenantReport>, Vec<(u32, TelemetrySnapshot)>) {
        let mut reports = Vec::with_capacity(self.tenants.len());
        let mut snaps = Vec::new();
        for (i, st) in self.tenants.iter().enumerate() {
            let admitted = self.admission.admitted[i];
            let snap = st.registry.snapshot();
            let (p50_us, p99_us) = snap
                .histogram(names::fabric::FRAME_LATENCY)
                .map_or((0, 0), |h| (h.quantile(0.50), h.quantile(0.99)));
            reports.push(TenantReport {
                tenant: i as u32,
                title: st.spec.title.id,
                admitted,
                frames_issued: st.frames_issued,
                frames_presented: st.frames_presented,
                frames_local: snap.counter(names::fabric::LOCAL_FRAMES),
                redispatches: snap.counter(names::fabric::REDISPATCHES),
                uplink_bytes: snap.counter(names::fabric::UPLINK_BYTES),
                downlink_bytes: snap.counter(names::fabric::DOWNLINK_BYTES),
                service_secs: st.service_secs,
                p50_us,
                p99_us,
                slo_ms: st.spec.slo_ms,
                slo_met: admitted
                    && st.frames_presented > 0
                    && p99_us as f64 / 1e3 <= st.spec.slo_ms,
                gapless: st.reorder.held() == 0 && st.reorder.awaiting() == st.frames_issued,
                incidents: st.incidents,
            });
            if admitted {
                snaps.push((i as u32, snap));
            }
        }
        (reports, snaps)
    }

    /// Report assembly: utilization, per-tenant rows, migration
    /// blackout, and the observer's closing state.
    fn finish(mut self) -> FabricReport {
        let duration_secs = self.cfg.duration.as_secs_f64();
        for (j, since) in self.dead_since.iter().enumerate() {
            if let Some(s) = since {
                self.dead_secs[j] += (duration_secs - s.as_secs_f64()).max(0.0);
            }
        }
        let alive_node_secs: f64 = (self.dead_secs.iter())
            .map(|dead| (duration_secs - dead).max(0.0))
            .sum();
        let pool_utilization = if alive_node_secs > 0.0 {
            self.busy_secs_total / alive_node_secs
        } else {
            0.0
        };
        self.pool
            .gauge(names::fabric::POOL_UTILIZATION)
            .set(pool_utilization);
        let (tenants, tenant_telemetry) = self.tenant_reports();
        let sessions_at_slo = tenants
            .iter()
            .filter(|r| r.admitted && r.slo_met && r.gapless)
            .count();
        let nodes = self.cfg.pool.len();
        let sessions_per_node_at_slo = sessions_at_slo as f64 / nodes as f64;
        self.pool
            .gauge(names::fabric::SESSIONS_PER_NODE_AT_SLO)
            .set(sessions_per_node_at_slo);
        // Migration blackout: the worst presented-frame gap over the
        // migrated sessions, in frame periods. A gapless cutover holds
        // this at exactly zero — every issued frame is presented and
        // the reorder buffer is empty at the end of the run.
        let blackout_ms = (self.tenants.iter())
            .filter(|st| st.migrations > 0)
            .map(|st| {
                let missing = st.frames_issued - st.frames_presented + st.reorder.held() as u64;
                missing as f64 * (1e3 / st.spec.fps)
            })
            .fold(0.0f64, f64::max);
        self.pool
            .gauge(names::fabric::MIGRATION_BLACKOUT_MS)
            .set(blackout_ms);
        let clock_offsets_ms = self
            .obs
            .as_ref()
            .map_or(Vec::new(), |o| o.publish(&self.pool));
        let telemetry = self.pool.snapshot();
        let (sampler, tsdb) = match self.obs {
            Some(mut o) => {
                // A last scrape at the realized horizon, so instant
                // queries at the run's end answer with the report state.
                let end = SimTime::from_micros(self.end_us);
                o.scrape(end, &self.pool, &self.tenants, &self.admission.admitted);
                (Some(o.sampler), Some(o.tsdb))
            }
            None => (None, None),
        };
        let (p50_us, p99_us, p999_us) = telemetry
            .histogram(names::fabric::FRAME_LATENCY)
            .map_or((0, 0, 0), |h| {
                (h.quantile(0.50), h.quantile(0.99), h.quantile(0.999))
            });
        let offered = self.cfg.tenants.len();
        let rejected = offered - self.admission.count;
        FabricReport {
            sessions_offered: offered,
            admitted: self.admission.count,
            rejected,
            rejected_rate: rejected as f64 / offered as f64,
            admitted_load: self.admission.load,
            load_cap: self.admission.cap,
            nodes,
            frames_presented: tenants.iter().map(|r| r.frames_presented).sum(),
            p50_us,
            p99_us,
            p999_us,
            pool_utilization,
            sessions_at_slo,
            sessions_per_node_at_slo,
            pool_uplink_bytes: telemetry.counter(names::fabric::UPLINK_BYTES),
            pool_downlink_bytes: telemetry.counter(names::fabric::DOWNLINK_BYTES),
            shared_segment_bytes_saved: telemetry
                .counter(names::fabric::SHARED_SEGMENT_BYTES_SAVED),
            redispatches: telemetry.counter(names::fabric::REDISPATCHES),
            slo_fallbacks: telemetry.counter(names::fabric::SLO_FALLBACKS),
            migrations: (self.migs.iter())
                .map(|m| MigrationRecord {
                    tenant: m.tenant as u32,
                    from: m.from,
                    to: m.to,
                    started: m.started,
                    completed: m.done,
                    bytes: m.bytes,
                    retargets: m.retargets,
                    aborted: m.aborted,
                    reason: m.reason,
                })
                .collect(),
            migration_blackout_ms: blackout_ms,
            migrate_bytes: telemetry.counter(names::migrate::BYTES),
            migrate_retargets: telemetry.counter(names::migrate::RETARGETS),
            migrate_aborted: telemetry.counter(names::migrate::ABORTED),
            incidents_folded: telemetry.counter(names::migrate::INCIDENTS_FOLDED),
            flight: self.flight.dumps().to_vec(),
            incidents: self.incidents,
            tenants,
            windows: (self.windows.into_iter())
                .map(|(window, per)| WindowAudit {
                    window,
                    pool_busy_secs: per.iter().sum(),
                    tenant_busy_secs: per,
                })
                .collect(),
            telemetry,
            tenant_telemetry,
            sampler,
            tsdb,
            clock_offsets_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pool() -> Vec<DeviceSpec> {
        vec![DeviceSpec::nvidia_shield(), DeviceSpec::minix_neo_u1()]
    }

    #[test]
    fn admission_never_books_past_the_cap() {
        let cfg = FabricConfig::uniform(200, small_pool(), 7);
        let report = SessionManager::run(&cfg).unwrap();
        assert!(report.admitted_load <= report.load_cap + 1e-9);
        assert_eq!(report.admitted + report.rejected, report.sessions_offered);
        assert!(report.rejected > 0, "200 tenants must overload 2 nodes");
        assert!(
            (report.rejected_rate - report.rejected as f64 / report.sessions_offered as f64).abs()
                < 1e-12
        );
    }

    #[test]
    fn single_tenant_meets_slo_and_presents_every_frame() {
        let mut cfg = FabricConfig::uniform(1, small_pool(), 11);
        cfg.duration = SimDuration::from_secs(2);
        let report = SessionManager::run(&cfg).unwrap();
        let t = &report.tenants[0];
        assert!(t.admitted);
        assert!(t.frames_issued > 30);
        assert_eq!(t.frames_presented, t.frames_issued);
        assert!(t.gapless);
        assert!(t.slo_met, "idle pool must meet a 100 ms SLO: {t:?}");
        assert_eq!(report.sessions_at_slo, 1);
    }

    #[test]
    fn per_tenant_bytes_reconcile_with_the_pool_counters() {
        let mut cfg = FabricConfig::uniform(12, small_pool(), 13);
        cfg.duration = SimDuration::from_secs(2);
        let report = SessionManager::run(&cfg).unwrap();
        let up: u64 = report.tenants.iter().map(|t| t.uplink_bytes).sum();
        let down: u64 = report.tenants.iter().map(|t| t.downlink_bytes).sum();
        assert_eq!(up, report.pool_uplink_bytes);
        assert_eq!(down, report.pool_downlink_bytes);
    }

    #[test]
    fn shared_segments_save_setup_bytes_versus_partitioned() {
        let mut shared = FabricConfig::uniform(8, small_pool(), 17);
        shared.duration = SimDuration::from_secs(1);
        let mut partitioned = shared.clone();
        partitioned.cache_mode = CacheMode::Partitioned;
        let a = SessionManager::run(&shared).unwrap();
        let b = SessionManager::run(&partitioned).unwrap();
        assert!(a.shared_segment_bytes_saved > 0);
        assert_eq!(b.shared_segment_bytes_saved, 0);
        assert_eq!(
            b.pool_uplink_bytes,
            a.pool_uplink_bytes + a.shared_segment_bytes_saved,
            "partitioned caches pay exactly the bytes shared segments save"
        );
    }

    #[test]
    fn double_run_is_byte_identical() {
        let mut cfg = FabricConfig::uniform(16, small_pool(), 19);
        cfg.loss_scale = 1.0;
        cfg.duration = SimDuration::from_secs(2);
        let a = SessionManager::run(&cfg).unwrap();
        let b = SessionManager::run(&cfg).unwrap();
        assert_eq!(a.slo_json(), b.slo_json());
        assert_eq!(a.prometheus(), b.prometheus());
    }

    #[test]
    fn pool_event_on_unknown_node_is_rejected() {
        let mut cfg = FabricConfig::uniform(2, small_pool(), 23);
        cfg.events.push(PoolEvent::Kill {
            at: SimTime::from_secs(1),
            node: 9,
        });
        assert!(SessionManager::run(&cfg).is_err());
        let mut cfg = FabricConfig::uniform(2, small_pool(), 23);
        cfg.loss_scale = 1e300;
        assert!(SessionManager::run(&cfg).is_err());
    }

    #[test]
    fn drain_migrates_every_homed_session_without_a_presentation_gap() {
        let mut cfg = FabricConfig::uniform(8, small_pool(), 31);
        cfg.duration = SimDuration::from_secs(2);
        cfg.drain_node(SimTime::from_secs(1), 0);
        let report = SessionManager::run(&cfg).unwrap();
        assert!(
            !report.migrations.is_empty(),
            "node 0 must have homed sessions to migrate"
        );
        for m in &report.migrations {
            assert_eq!(m.from, 0);
            assert_ne!(m.to, 0);
            assert!(m.completed.is_some() && !m.aborted, "{m:?}");
            assert_eq!(m.reason, "operator_drain");
        }
        assert_eq!(report.migration_blackout_ms, 0.0);
        assert!(report.migrate_bytes > 0, "snapshots ship real bytes");
        for t in report.tenants.iter().filter(|t| t.admitted) {
            assert_eq!(t.frames_presented, t.frames_issued, "tenant {}", t.tenant);
            assert!(t.gapless, "tenant {}", t.tenant);
        }
        // A planned drain is an operation, not an incident.
        assert!(report.incidents.is_empty());
        assert_eq!(report.incidents_folded, 0);
    }

    #[test]
    fn migration_ships_only_the_delta_when_the_segment_is_resident() {
        let mut shared = FabricConfig::uniform(8, small_pool(), 37);
        shared.duration = SimDuration::from_secs(2);
        shared.drain_node(SimTime::from_secs(1), 1);
        let mut partitioned = shared.clone();
        partitioned.cache_mode = CacheMode::Partitioned;
        let a = SessionManager::run(&shared).unwrap();
        let b = SessionManager::run(&partitioned).unwrap();
        assert_eq!(a.migrations.len(), b.migrations.len());
        let saved = a.telemetry.counter(names::migrate::SNAPSHOT_BYTES_SAVED);
        assert!(saved > 0, "a resident segment must save snapshot bytes");
        assert_eq!(
            b.migrate_bytes,
            a.migrate_bytes + saved,
            "partitioned migrations pay exactly the bytes the shared segment saves"
        );
        assert!(a.migrate_bytes > 0);
    }

    #[test]
    fn prometheus_export_carries_tenant_labels() {
        let mut cfg = FabricConfig::uniform(3, small_pool(), 29);
        cfg.duration = SimDuration::from_secs(1);
        let report = SessionManager::run(&cfg).unwrap();
        let text = report.prometheus();
        assert!(text.contains("gbooster_fabric_sessions_admitted"));
        assert!(text.contains("tenant=\"t000\""));
        assert!(text.contains("tenant=\"t002\""));
    }

    /// The pick the backlog must reproduce: a scan over every tenant,
    /// least attained among non-empty queues, ties to the lowest index.
    fn full_scan_pick(backlog: &Backlog, attained: Option<&[f64]>) -> Option<usize> {
        let mut pick: Option<(f64, usize)> = None;
        for (t, queue) in backlog.queues.iter().enumerate() {
            if queue.is_empty() {
                continue;
            }
            let got = attained.map_or(0.0, |v| v[t]);
            if pick.is_none_or(|(g, pt)| got < g || (got == g && t < pt)) {
                pick = Some((got, t));
            }
        }
        pick.map(|(_, t)| t)
    }

    #[test]
    fn backlog_pick_matches_the_full_scan() {
        let job = |seq| FrameJob {
            seq,
            issued: SimTime::ZERO,
            arrived: SimTime::ZERO,
            fill: 0,
            encode: SimDuration::ZERO,
            down_bytes: 0,
        };
        for seed in 0..64 {
            let mut rng = derived(seed, "backlog-oracle");
            let n = rng.gen_range(1..=64usize);
            let mut backlog = Backlog::new(n, n);
            let capacity = backlog.ready.capacity();
            for seq in 0..400 {
                let t = rng.gen_range(0..n);
                match rng.gen_range(0..10u32) {
                    0..=3 => backlog.push_back(t, job(seq)),
                    4 => backlog.push_front(t, job(seq)),
                    5..=8 => {
                        backlog.pop_front(t);
                    }
                    _ => while backlog.pop_front(t).is_some() {},
                }
                // No window yet, or quarter-second steps: zeros and ties
                // are common.
                let attained: Option<Vec<f64>> = (rng.gen_range(0..4u32) > 0).then(|| {
                    (0..n)
                        .map(|_| rng.gen_range(0..4u32) as f64 / 4.0)
                        .collect()
                });
                let attained = attained.as_deref();
                assert_eq!(backlog.pick(attained), full_scan_pick(&backlog, attained));
                let non_empty: Vec<usize> =
                    (0..n).filter(|&t| !backlog.queues[t].is_empty()).collect();
                assert_eq!(backlog.ready, non_empty);
                assert_eq!(
                    backlog.ready.capacity(),
                    capacity,
                    "the backlog reallocated"
                );
            }
        }
    }
}

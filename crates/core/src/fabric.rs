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
//! [`gbooster_telemetry::export::prometheus_text_with_labels`].

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
    /// attach for [`SHARED_ATTACH_BYTES`].
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
/// embedded ring-buffer TSDB (docs/OBSERVABILITY.md). `None` on
/// [`FabricConfig::observe`] — the default — runs with no observer at
/// all: no extra events, no extra registry entries, no extra RNG
/// draws, so un-observed runs stay byte-identical to builds that
/// predate the observer.
#[derive(Clone, Copy, Debug)]
pub struct ObserveConfig {
    /// Deterministic baseline sample: keep 1 frame in N regardless of
    /// the tail verdict (0 disables head sampling).
    pub head_interval: u64,
    /// Per-tenant byte budget over serialized kept traces
    /// (oldest-kept eviction, worst-latency trace pinned).
    pub tenant_budget_bytes: u64,
    /// Period of the TSDB scrape event that snapshots the pool and
    /// every admitted tenant registry.
    pub scrape_interval: SimDuration,
    /// Ring capacity per TSDB series.
    pub tsdb_slots: usize,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            head_interval: sample::DEFAULT_HEAD_INTERVAL,
            tenant_budget_bytes: sample::DEFAULT_TENANT_BUDGET_BYTES,
            scrape_interval: SimDuration::from_millis(250),
            tsdb_slots: 64,
        }
    }
}

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
    /// Link loss scale (0 = clean; 1 = nominal lossy).
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

    /// Switches the fabric observer on with default knobs.
    pub fn observe_default(&mut self) {
        self.observe = Some(ObserveConfig::default());
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
    /// tenants, a non-positive duration, or broken per-tenant numbers.
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
        if !(self.loss_scale.is_finite() && self.loss_scale >= 0.0) {
            return fail(format!("loss_scale {} must be ≥ 0", self.loss_scale));
        }
        let (w, h) = self.resolution;
        if w == 0 || h == 0 {
            return fail("resolution must be non-zero".into());
        }
        for ev in &self.events {
            let node = match ev {
                PoolEvent::Kill { node, .. }
                | PoolEvent::Revive { node, .. }
                | PoolEvent::Drain { node, .. }
                | PoolEvent::Degrade { node, .. } => *node,
            };
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
        if let Some(o) = &self.observe {
            if o.scrape_interval.is_zero() {
                return fail("observe.scrape_interval must be positive".into());
            }
            if o.tsdb_slots == 0 {
                return fail("observe.tsdb_slots must be positive".into());
            }
            if o.tenant_budget_bytes == 0 {
                return fail("observe.tenant_budget_bytes must be positive".into());
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
    frames_local: u64,
    redispatches: u64,
    uplink_bytes: u64,
    downlink_bytes: u64,
    service_secs: f64,
    latency_ewma_ms: f64,
    local_mode: bool,
    slo_fell_back: bool,
    incidents: u64,
    migrations: u32,
}

impl TenantState {
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

/// Live observer state threaded through the event loop. Exists only
/// when [`FabricConfig::observe`] is set; un-observed runs never touch
/// it and stay byte-identical to builds without it.
struct FabricObserver {
    knobs: ObserveConfig,
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
        let pool_registry = Registry::new();
        let nodes_n = cfg.pool.len();
        let duration_secs = cfg.duration.as_secs_f64();

        // ---- Calibration: one real forwarder run per distinct title.
        let mut models: Vec<TitleModel> = Vec::new();
        let mut model_of: BTreeMap<&'static str, usize> = BTreeMap::new();
        for t in &cfg.tenants {
            model_of.entry(t.title.id).or_insert_with(|| {
                models.push(calibrate(&t.title, cfg.resolution, cfg.seed));
                models.len() - 1
            });
        }

        // ---- Admission control.
        let mean_capability = cfg
            .pool
            .iter()
            .map(|s| s.gpu.fillrate_gpixels_per_sec * 1e9)
            .sum::<f64>()
            / nodes_n as f64;
        let load_cap = cfg.admission.utilization_cap * nodes_n as f64;
        let max_sessions = cfg.admission.max_sessions_per_node * nodes_n;
        let mut admitted_load = 0.0;
        let mut admitted: Vec<bool> = Vec::with_capacity(cfg.tenants.len());
        let mut demand_of: Vec<f64> = Vec::with_capacity(cfg.tenants.len());
        for t in &cfg.tenants {
            let m = &models[model_of[t.title.id]];
            let mean_fill = m.frame_fill.iter().sum::<u64>() as f64 / m.frame_fill.len() as f64;
            let mean_encode =
                m.encode_us.iter().sum::<u64>() as f64 / m.encode_us.len() as f64 / 1e6;
            // A booking occupies its node from dispatch to finish:
            // uplink propagation (rtt/2) + render + encode.
            let frame_occupancy =
                LAN_RTT.as_secs_f64() / 2.0 + mean_fill / mean_capability + mean_encode;
            let demand = t.fps * frame_occupancy;
            demand_of.push(demand);
            let n_admitted = admitted.iter().filter(|&&a| a).count();
            let admit = admitted_load + demand <= load_cap && n_admitted < max_sessions;
            if admit {
                admitted_load += demand;
            }
            admitted.push(admit);
        }
        let n_admit = admitted.iter().filter(|&&a| a).count();
        let n_reject = cfg.tenants.len() - n_admit;
        pool_registry
            .counter(names::fabric::SESSIONS_OFFERED)
            .add(cfg.tenants.len() as u64);
        pool_registry
            .counter(names::fabric::SESSIONS_ADMITTED)
            .add(n_admit as u64);
        pool_registry
            .counter(names::fabric::SESSIONS_REJECTED)
            .add(n_reject as u64);
        let rejected_rate = n_reject as f64 / cfg.tenants.len() as f64;
        pool_registry
            .gauge(names::fabric::REJECTED_RATE)
            .set(rejected_rate);
        if n_admit == 0 {
            return Err(GBoosterError::Config(
                "admission rejected every tenant: pool cannot host a single session".into(),
            ));
        }

        // ---- Pool + per-tenant state.
        let mut dispatcher = Dispatcher::new(
            cfg.pool
                .iter()
                .map(|spec| ServiceNode::new(spec.clone(), LAN_RTT))
                .collect(),
        );
        let c_uplink = pool_registry.counter(names::fabric::UPLINK_BYTES);
        let c_downlink = pool_registry.counter(names::fabric::DOWNLINK_BYTES);
        let c_redispatch = pool_registry.counter(names::fabric::REDISPATCHES);
        let c_local = pool_registry.counter(names::fabric::LOCAL_FRAMES);
        let c_slo_fallbacks = pool_registry.counter(names::fabric::SLO_FALLBACKS);
        let c_shared_saved = pool_registry.counter(names::fabric::SHARED_SEGMENT_BYTES_SAVED);
        let c_incidents = pool_registry.counter(names::fabric::INCIDENTS);
        let h_latency = pool_registry.histogram(names::fabric::FRAME_LATENCY);
        let h_queue_wait = pool_registry.histogram(names::fabric::QUEUE_WAIT);
        let c_mig_sessions = pool_registry.counter(names::migrate::SESSIONS);
        let c_mig_drains = pool_registry.counter(names::migrate::DRAINS);
        let c_mig_bytes = pool_registry.counter(names::migrate::BYTES);
        let c_mig_saved = pool_registry.counter(names::migrate::SNAPSHOT_BYTES_SAVED);
        let c_mig_retargets = pool_registry.counter(names::migrate::RETARGETS);
        let c_mig_aborted = pool_registry.counter(names::migrate::ABORTED);
        let c_mig_folded = pool_registry.counter(names::migrate::INCIDENTS_FOLDED);
        let h_mig_transfer = pool_registry.histogram(names::migrate::TRANSFER);

        let phone_rate = DeviceSpec::nexus5().gpu.fillrate_gpixels_per_sec * 1e9;
        let mut tenants: Vec<TenantState> = Vec::with_capacity(cfg.tenants.len());
        let mut segment_resident: BTreeMap<&'static str, bool> = BTreeMap::new();
        for (i, spec) in cfg.tenants.iter().enumerate() {
            let mut rng = derived(cfg.seed, &format!("fabric-tenant-{i}"));
            let fill_scale = rng.gen_range(0.95..1.05);
            let registry = Registry::new();
            let mut st = TenantState {
                spec: spec.clone(),
                model: model_of[spec.title.id],
                fill_scale,
                rng,
                registry,
                c_uplink: OnceCell::new(),
                c_downlink: OnceCell::new(),
                h_latency: OnceCell::new(),
                reorder: ReorderBuffer::new(),
                last_present: SimTime::ZERO,
                frames_issued: 0,
                frames_presented: 0,
                frames_local: 0,
                redispatches: 0,
                uplink_bytes: 0,
                downlink_bytes: 0,
                service_secs: 0.0,
                latency_ewma_ms: 0.0,
                local_mode: false,
                slo_fell_back: false,
                incidents: 0,
                migrations: 0,
            };
            if admitted[i] {
                // Setup segment upload: partitioned caches pay per
                // session; shared segments pay once per title.
                let setup = models[st.model].setup_wire;
                let resident = segment_resident.entry(spec.title.id).or_insert(false);
                let cost = match cfg.cache_mode {
                    CacheMode::Partitioned => setup,
                    CacheMode::SharedSegments if !*resident => {
                        *resident = true;
                        setup
                    }
                    CacheMode::SharedSegments => {
                        c_shared_saved.add(setup.saturating_sub(SHARED_ATTACH_BYTES));
                        SHARED_ATTACH_BYTES
                    }
                };
                st.uplink_bytes += cost;
                c_uplink.add(cost);
                st.uplink_counter().add(cost);
            }
            tenants.push(st);
        }

        let mut backlog = Backlog::new(tenants.len(), n_admit);

        // ---- Session homing: each admitted tenant's GL-state
        // authority (its checkpoint lineage) lives on one node. Frames
        // still dispatch pool-wide — the per-frame wire stream carries
        // every mutable update — so homing is pure migration
        // bookkeeping and leaves the schedule untouched. Placement is
        // max-min fair over estimated demand, ties to the lowest index.
        let mut home: Vec<Option<usize>> = vec![None; cfg.tenants.len()];
        let mut homed_demand: Vec<f64> = vec![0.0; nodes_n];
        {
            let all_nodes = vec![true; nodes_n];
            let specs: Vec<(usize, f64)> = (0..cfg.tenants.len())
                .filter(|&i| admitted[i])
                .map(|i| (i, demand_of[i]))
                .collect();
            for (t, dest) in assign_destinations(&specs, &all_nodes, &mut homed_demand) {
                home[t] = dest;
            }
        }

        // ---- Event machine.
        let mut heap: BinaryHeap<Reverse<(u64, u8, u64, u64)>> = BinaryHeap::new();
        let duration_us = cfg.duration.as_micros();
        for (i, st) in tenants.iter().enumerate() {
            if !admitted[i] {
                continue;
            }
            let period_us = (1e6 / st.spec.fps) as u64;
            let offset = (i as u64 * period_us) / n_admit as u64;
            if offset < duration_us {
                heap.push(Reverse((offset, EV_ISSUE, i as u64, 0)));
            }
        }
        for (idx, ev) in cfg.events.iter().enumerate() {
            let at = match ev {
                PoolEvent::Kill { at, .. }
                | PoolEvent::Revive { at, .. }
                | PoolEvent::Drain { at, .. }
                | PoolEvent::Degrade { at, .. } => *at,
            };
            heap.push(Reverse((at.as_micros(), EV_FAULT, idx as u64, 0)));
        }
        let rebalance_interval_us = cfg
            .rebalance
            .map_or(u64::MAX, |p| p.check_interval.as_micros());
        if cfg.rebalance.is_some() && rebalance_interval_us < duration_us {
            heap.push(Reverse((rebalance_interval_us, EV_REBALANCE, 0, 0)));
        }

        // Frames in uplink flight, keyed (tenant, seq).
        let mut uplinking: BTreeMap<(u32, u64), FrameJob> = BTreeMap::new();
        // The frame each node is serving, plus its booking epoch.
        let mut on_node: Vec<Option<(u32, FrameJob, SimTime)>> = vec![None; nodes_n];
        let mut epochs: Vec<u64> = vec![0; nodes_n];
        let mut dead_since: Vec<Option<SimTime>> = vec![None; nodes_n];
        let mut dead_secs: Vec<f64> = vec![0.0; nodes_n];
        // Fair-share audit: window → per-tenant scheduled seconds.
        let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        let mut incidents: Vec<TenantIncident> = Vec::new();
        let mut busy_secs_total = 0.0;
        let session_of = |tenant: usize| tenant as u64 + 1;
        // Migration machinery.
        let mut draining: Vec<bool> = vec![false; nodes_n];
        let mut open_incident: Vec<Option<&'static str>> = vec![None; nodes_n];
        let mut migs: Vec<Mig> = Vec::new();
        let mut active_mig: Vec<Option<usize>> = vec![None; tenants.len()];
        let mut pending_off: Vec<usize> = vec![0; nodes_n];
        let mut flight = FlightRecorder::new(8);
        let mut rebal: Option<Rebalancer> = cfg.rebalance.map(|p| Rebalancer::new(nodes_n, p));
        // Tail-sampling observer. Everything below is gated on the
        // option so un-observed runs draw no extra RNG and register no
        // extra metrics.
        let mut cutover_at: Vec<Option<SimTime>> = vec![None; tenants.len()];
        let mut obs: Option<FabricObserver> = cfg.observe.map(|knobs| FabricObserver {
            knobs,
            sampler: TailSampler::new(knobs.head_interval, knobs.tenant_budget_bytes),
            pending: BTreeMap::new(),
            tsdb: Tsdb::new(knobs.tsdb_slots),
            clocks: (0..nodes_n).map(|_| ClockOffsetEstimator::new()).collect(),
            skew_us: (0..nodes_n)
                .map(|j| {
                    derived(cfg.seed, &format!("fabric-node-skew-{j}"))
                        .gen_range(-150_000i64..=150_000)
                })
                .collect(),
            tenant_labels: (0..cfg.tenants.len()).map(|i| format!("t{i:03}")).collect(),
        });
        if let Some(o) = obs.as_ref() {
            let first = o.knobs.scrape_interval.as_micros();
            if first <= duration_us {
                heap.push(Reverse((first, EV_SCRAPE, 0, 0)));
            }
        }

        // Charges `secs` of node time to `tenant`, split across the 1 s
        // audit windows the booking overlaps.
        let n_tenants = tenants.len();
        let charge = |windows: &mut BTreeMap<u64, Vec<f64>>,
                      tenant: usize,
                      start: SimTime,
                      finish: SimTime| {
            let (mut a, b) = (start.as_micros(), finish.as_micros());
            let win_us = WINDOW.as_micros();
            while a < b {
                let w = a / win_us;
                let end = ((w + 1) * win_us).min(b);
                let secs = (end - a) as f64 / 1e6;
                windows.entry(w).or_insert_with(|| vec![0.0; n_tenants])[tenant] += secs;
                a = end;
            }
        };

        macro_rules! present {
            ($st:expr, $tenant:expr, $seq:expr, $issued:expr, $present_at:expr, $local:expr) => {{
                let st: &mut TenantState = $st;
                st.reorder.insert($seq, ($present_at, $issued));
                while let Some((ready_at, issued)) = st.reorder.pop_next() {
                    let shown = ready_at.max(st.last_present);
                    st.last_present = shown;
                    let lat = shown - issued;
                    // Tail verdict at retirement: the frame's fate is
                    // known, so keep exactly the traces an operator
                    // would open and tag the latency samples of kept
                    // frames with their trace id (exemplars).
                    let mut tag: Option<u64> = None;
                    if let Some(o) = obs.as_mut() {
                        let seq = st.reorder.awaiting() - 1;
                        let tid = sample::trace_id(session_of($tenant), seq);
                        // Waypoint cleanup is unconditional, but the
                        // span tree is built inside the closure — only
                        // if the verdict keeps the frame.
                        let waypoints = o.pending.remove(&($tenant as u32, seq));
                        let verdict = FrameVerdict {
                            slo_violation: lat.as_micros() as f64 / 1e3 > st.spec.slo_ms,
                            in_incident: open_incident.iter().any(|i| i.is_some()),
                            migration: active_mig[$tenant].is_some()
                                || cutover_at[$tenant].is_some_and(|c| c >= issued && c <= shown),
                        };
                        if o.sampler
                            .offer_with(
                                $tenant as u32,
                                seq,
                                tid,
                                lat.as_micros(),
                                verdict,
                                |out, reason| {
                                    let frame = build_frame(waypoints, seq, issued, shown);
                                    sample::serialize_into(
                                        out,
                                        $tenant as u32,
                                        tid,
                                        reason,
                                        &frame,
                                    );
                                },
                            )
                            .is_some()
                        {
                            tag = Some(tid);
                        }
                    }
                    match tag {
                        Some(tid) => {
                            h_latency.record_tagged(lat.as_micros(), tid);
                            st.latency_histogram().record_tagged(lat.as_micros(), tid);
                        }
                        None => {
                            h_latency.record(lat.as_micros());
                            st.latency_histogram().record(lat.as_micros());
                        }
                    }
                    st.frames_presented += 1;
                    if $local {
                        st.frames_local += 1;
                        c_local.inc();
                        st.registry.counter(names::fabric::LOCAL_FRAMES).inc();
                    }
                    // SLO hysteresis: a persistently-breached session
                    // sheds itself onto the phone GPU.
                    let lat_ms = lat.as_micros() as f64 / 1e3;
                    st.latency_ewma_ms =
                        SLO_ALPHA * lat_ms + (1.0 - SLO_ALPHA) * st.latency_ewma_ms;
                    if !st.local_mode
                        && st.frames_presented >= SLO_MIN_FRAMES
                        && st.latency_ewma_ms > st.spec.slo_ms * SLO_ENGAGE_FACTOR
                    {
                        st.local_mode = true;
                        st.slo_fell_back = true;
                        c_slo_fallbacks.inc();
                    }
                }
            }};
        }

        macro_rules! render_local {
            ($st:expr, $tenant:expr, $job:expr, $now:expr) => {{
                let job: FrameJob = $job;
                let secs = job.fill as f64 / phone_rate;
                let present_at = $now + SimDuration::from_secs_f64(secs) + COMPOSITOR;
                if let Some(o) = obs.as_mut() {
                    // Phone-rendered: the span tree collapses to one
                    // local_render stage whatever came before.
                    o.pending
                        .entry(($tenant as u32, job.seq))
                        .or_insert(PendingFrame {
                            arrived: job.arrived,
                            start: None,
                            finish: None,
                            encode: job.encode,
                            down_end: None,
                            local: true,
                        })
                        .local = true;
                }
                present!($st, $tenant, job.seq, job.issued, present_at, true);
            }};
        }

        macro_rules! pump {
            ($now:expr) => {{
                let now: SimTime = $now;
                let win = now.as_micros() / WINDOW.as_micros();
                loop {
                    // Fair share: the session with the least GPU time
                    // attained in the current window goes first.
                    let Some(t) = backlog.pick(windows.get(&win).map(Vec::as_slice)) else {
                        break;
                    };
                    let fill = backlog.front(t).expect("picked tenant has work").fill;
                    // Cross-session Eq. 4 over the idle nodes.
                    let Some(node) = dispatcher.best_idle_node(fill, now) else {
                        break;
                    };
                    if on_node[node].is_some() {
                        // The node's free event is scheduled for this
                        // very instant but has not fired yet (a sibling
                        // completion pumped first). It will re-pump.
                        break;
                    }
                    let job = backlog.pop_front(t).expect("picked tenant has work");
                    let dec = dispatcher.dispatch_to(
                        node,
                        session_of(t),
                        job.seq,
                        job.fill,
                        job.encode,
                        now,
                    );
                    h_queue_wait.record((now - job.arrived).as_micros());
                    let secs = (dec.finish - dec.start).as_secs_f64();
                    busy_secs_total += secs;
                    tenants[t].service_secs += secs;
                    charge(&mut windows, t, dec.start, dec.finish);
                    if let Some(rb) = rebal.as_mut() {
                        rb.record(node, dec.start, dec.finish);
                    }
                    if let Some(o) = obs.as_mut() {
                        // Waypoints for the span tree; a redispatch
                        // overwrites with the booking that actually
                        // completes.
                        if let Some(e) = o.pending.get_mut(&(t as u32, job.seq)) {
                            e.start = Some(dec.start);
                            e.finish = Some(dec.finish);
                        }
                    }
                    on_node[node] = Some((t as u32, job, dec.start));
                    heap.push(Reverse((
                        dec.finish.as_micros(),
                        EV_NODE_FREE,
                        node as u64,
                        epochs[node],
                    )));
                }
            }};
        }

        // Ships tenant `t`'s warm snapshot from `src` toward `dst`.
        // The transfer rides the paced background channel; the source
        // keeps serving (it is not cordoned until its last session has
        // cut over), so presentation never gaps.
        macro_rules! start_migration {
            ($now:expr, $t:expr, $src:expr, $dst:expr, $reason:expr) => {{
                let (now, t, src, dst): (SimTime, usize, usize, usize) = ($now, $t, $src, $dst);
                let m = &models[tenants[t].model];
                let (bytes, saved) = match cfg.cache_mode {
                    // The destination already holds the title's
                    // immutable setup segment (multicast at first
                    // upload), so only the session's mutable delta
                    // ships.
                    CacheMode::SharedSegments => {
                        (m.snap_delta, m.snap_full.saturating_sub(m.snap_delta))
                    }
                    CacheMode::Partitioned => (m.snap_full, 0),
                };
                let mut secs = fabric_migration_secs(bytes, cfg.loss_scale);
                if cfg.loss_scale > 0.0 {
                    let p = (LOSS_BURST_P * cfg.loss_scale).min(0.5);
                    let st = &mut tenants[t];
                    if st.rng.gen_range(0.0..1.0) < p {
                        let rounds = st.rng.gen_range(1..=3);
                        secs += RETX_PENALTY.as_secs_f64() * rounds as f64;
                    }
                }
                tenants[t].uplink_bytes += bytes;
                c_uplink.add(bytes);
                tenants[t].uplink_counter().add(bytes);
                c_mig_bytes.add(bytes);
                tenants[t]
                    .registry
                    .counter(names::migrate::BYTES)
                    .add(bytes);
                if saved > 0 {
                    c_mig_saved.add(saved);
                    tenants[t]
                        .registry
                        .counter(names::migrate::SNAPSHOT_BYTES_SAVED)
                        .add(saved);
                }
                // A migration caused by an already-reported node fault
                // folds into that incident instead of opening another.
                if open_incident[src].is_some() {
                    c_mig_folded.inc();
                }
                let idx = migs.len();
                migs.push(Mig {
                    tenant: t,
                    from: src,
                    to: dst,
                    started: now,
                    ship: bytes,
                    bytes,
                    retargets: 0,
                    epoch: 0,
                    done: None,
                    aborted: false,
                    reason: $reason,
                });
                active_mig[t] = Some(idx);
                pending_off[src] += 1;
                homed_demand[src] -= demand_of[t];
                let done_at = now + SimDuration::from_secs_f64(secs);
                heap.push(Reverse((done_at.as_micros(), EV_MIGRATE, idx as u64, 0)));
            }};
        }

        // Drains `node`: live-migrates every session homed there to
        // the survivors under max-min fair share. With no survivor the
        // drain stalls (flight recorder: `MigrationStalled`).
        macro_rules! start_drain {
            ($now:expr, $node:expr, $reason:expr) => {{
                let (now, node): (SimTime, usize) = ($now, $node);
                let movers: Vec<usize> = (0..n_tenants)
                    .filter(|&t| home[t] == Some(node) && active_mig[t].is_none())
                    .collect();
                let survivor: Vec<bool> = (0..nodes_n)
                    .map(|j| {
                        j != node
                            && dead_since[j].is_none()
                            && !draining[j]
                            && dispatcher.nodes()[j].accepting()
                    })
                    .collect();
                c_mig_drains.inc();
                if let Some(rb) = rebal.as_mut() {
                    rb.note_drain(now);
                }
                if !survivor.iter().any(|&s| s) {
                    c_mig_aborted.add(movers.len() as u64);
                    flight.trigger(Fault::MigrationStalled, now, pool_registry.snapshot());
                } else {
                    draining[node] = true;
                    let specs: Vec<(usize, f64)> =
                        movers.iter().map(|&t| (t, demand_of[t])).collect();
                    for (t, dest) in assign_destinations(&specs, &survivor, &mut homed_demand) {
                        let dest = dest.expect("survivor checked above");
                        start_migration!(now, t, node, dest, $reason);
                    }
                    if movers.is_empty() && pending_off[node] == 0 {
                        dispatcher.cordon_node(node, true);
                    }
                }
            }};
        }

        // Run horizon actually reached: the final TSDB scrape lands
        // here so end-of-run instant queries see the closing state.
        let mut end_us = duration_us;
        while let Some(Reverse((t_us, kind, a, b))) = heap.pop() {
            let now = SimTime::from_micros(t_us);
            end_us = end_us.max(t_us);
            match kind {
                EV_FAULT => {
                    match cfg.events[a as usize] {
                        PoolEvent::Kill { node, .. } => {
                            if dead_since[node].is_some() {
                                continue;
                            }
                            epochs[node] += 1;
                            dead_since[node] = Some(now);
                            let orphans = dispatcher.fail_node(node, now);
                            let served = on_node[node].take();
                            debug_assert_eq!(orphans.len(), served.iter().count());
                            let pool_empty = dispatcher.alive_nodes() == 0;
                            if let Some((t, mut job, _)) = served {
                                let t = t as usize;
                                if pool_empty {
                                    render_local!(&mut tenants[t], t, job, now);
                                } else {
                                    job.arrived = now;
                                    backlog.push_front(t, job);
                                }
                                tenants[t].redispatches += 1;
                                c_redispatch.inc();
                                tenants[t]
                                    .registry
                                    .counter(names::fabric::REDISPATCHES)
                                    .inc();
                            }
                            if pool_empty {
                                // No pool left: every session flips to
                                // its own GPU, queued work drains there.
                                for t in 0..tenants.len() {
                                    if !admitted[t] {
                                        continue;
                                    }
                                    tenants[t].local_mode = true;
                                    while let Some(job) = backlog.pop_front(t) {
                                        render_local!(&mut tenants[t], t, job, now);
                                    }
                                }
                            }
                            let kind = if pool_empty { "pool_lost" } else { "node_loss" };
                            for (t, st) in tenants.iter_mut().enumerate() {
                                if admitted[t] {
                                    st.incidents += 1;
                                    c_incidents.inc();
                                    incidents.push(TenantIncident {
                                        tenant: t as u32,
                                        kind,
                                        at: now,
                                    });
                                }
                            }
                            open_incident[node] = Some(kind);
                            // Transfers aimed at the dead destination
                            // retarget to the next-best survivor (the
                            // snapshot re-ships); with none left the
                            // migration stalls and the session stays
                            // homed on its source.
                            for (idx, mg) in migs.iter_mut().enumerate() {
                                if mg.done.is_some() || mg.aborted || mg.to != node {
                                    continue;
                                }
                                let t = mg.tenant;
                                let src = mg.from;
                                let survivor: Vec<bool> = (0..nodes_n)
                                    .map(|j| {
                                        j != node
                                            && j != src
                                            && dead_since[j].is_none()
                                            && !draining[j]
                                            && dispatcher.nodes()[j].accepting()
                                    })
                                    .collect();
                                let dest = assign_destinations(
                                    &[(t, demand_of[t])],
                                    &survivor,
                                    &mut homed_demand,
                                )
                                .pop()
                                .and_then(|(_, d)| d);
                                mg.epoch += 1;
                                match dest {
                                    Some(d) => {
                                        mg.to = d;
                                        mg.retargets += 1;
                                        c_mig_retargets.inc();
                                        tenants[t]
                                            .registry
                                            .counter(names::migrate::RETARGETS)
                                            .inc();
                                        let bytes = mg.ship;
                                        mg.bytes += bytes;
                                        tenants[t].uplink_bytes += bytes;
                                        c_uplink.add(bytes);
                                        tenants[t].uplink_counter().add(bytes);
                                        c_mig_bytes.add(bytes);
                                        tenants[t]
                                            .registry
                                            .counter(names::migrate::BYTES)
                                            .add(bytes);
                                        let mut secs = fabric_migration_secs(bytes, cfg.loss_scale);
                                        if cfg.loss_scale > 0.0 {
                                            let p = (LOSS_BURST_P * cfg.loss_scale).min(0.5);
                                            let st = &mut tenants[t];
                                            if st.rng.gen_range(0.0..1.0) < p {
                                                let rounds = st.rng.gen_range(1..=3);
                                                secs += RETX_PENALTY.as_secs_f64() * rounds as f64;
                                            }
                                        }
                                        let done_at = now + SimDuration::from_secs_f64(secs);
                                        heap.push(Reverse((
                                            done_at.as_micros(),
                                            EV_MIGRATE,
                                            idx as u64,
                                            mg.epoch,
                                        )));
                                    }
                                    None => {
                                        mg.aborted = true;
                                        active_mig[t] = None;
                                        homed_demand[src] += demand_of[t];
                                        pending_off[src] -= 1;
                                        c_mig_aborted.inc();
                                        tenants[t].registry.counter(names::migrate::ABORTED).inc();
                                        flight.trigger(
                                            Fault::MigrationStalled,
                                            now,
                                            pool_registry.snapshot(),
                                        );
                                    }
                                }
                            }
                            // Authority sessions stranded on the dead
                            // node re-home to survivors for free: the
                            // replicas bootstrap from the live command
                            // stream they already receive.
                            let stranded: Vec<usize> = (0..n_tenants)
                                .filter(|&t| home[t] == Some(node) && active_mig[t].is_none())
                                .collect();
                            let survivor: Vec<bool> = (0..nodes_n)
                                .map(|j| {
                                    j != node
                                        && dead_since[j].is_none()
                                        && !draining[j]
                                        && dispatcher.nodes()[j].accepting()
                                })
                                .collect();
                            if survivor.iter().any(|&s| s) {
                                let specs: Vec<(usize, f64)> =
                                    stranded.iter().map(|&t| (t, demand_of[t])).collect();
                                for (t, dest) in
                                    assign_destinations(&specs, &survivor, &mut homed_demand)
                                {
                                    home[t] = dest;
                                }
                            } else {
                                for &t in &stranded {
                                    home[t] = None;
                                }
                            }
                            homed_demand[node] = 0.0;
                            pump!(now);
                        }
                        PoolEvent::Revive { node, .. } => {
                            if let Some(since) = dead_since[node].take() {
                                dead_secs[node] += (now - since).as_secs_f64();
                                dispatcher.revive_node(node, now, REJOIN_WARMUP);
                                draining[node] = false;
                                open_incident[node] = None;
                                // Sessions orphaned by a total pool
                                // loss re-home onto the revived node.
                                for t in 0..n_tenants {
                                    if admitted[t] && home[t].is_none() && active_mig[t].is_none() {
                                        home[t] = Some(node);
                                        homed_demand[node] += demand_of[t];
                                    }
                                }
                                // The pool is back: sessions return to
                                // the remote path at their next issue.
                                for st in tenants.iter_mut() {
                                    st.local_mode = false;
                                }
                                pump!(now);
                            }
                        }
                        PoolEvent::Drain { node, .. } => {
                            if dead_since[node].is_none() && !draining[node] {
                                start_drain!(now, node, "operator_drain");
                                pump!(now);
                            }
                        }
                        PoolEvent::Degrade { node, factor, .. } => {
                            if dead_since[node].is_none() {
                                dispatcher.degrade_node(node, factor);
                                if open_incident[node].is_none() {
                                    open_incident[node] = Some("node_degraded");
                                    for (t, st) in tenants.iter_mut().enumerate() {
                                        if admitted[t] {
                                            st.incidents += 1;
                                            c_incidents.inc();
                                            incidents.push(TenantIncident {
                                                tenant: t as u32,
                                                kind: "node_degraded",
                                                at: now,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                EV_MIGRATE => {
                    let idx = a as usize;
                    if migs[idx].epoch != b || migs[idx].aborted || migs[idx].done.is_some() {
                        continue;
                    }
                    // Cutover: the destination becomes the session's
                    // state authority. In-flight frames keep draining
                    // through the tenant's reorder buffer untouched —
                    // the presented stream never gaps.
                    let (t, src, dst, started, reason) = {
                        let mg = &mut migs[idx];
                        mg.done = Some(now);
                        (mg.tenant, mg.from, mg.to, mg.started, mg.reason)
                    };
                    debug_assert!(
                        dead_since[dst].is_none(),
                        "cutover onto a dead destination must have been retargeted"
                    );
                    home[t] = Some(dst);
                    active_mig[t] = None;
                    cutover_at[t] = Some(now);
                    tenants[t].migrations += 1;
                    c_mig_sessions.inc();
                    tenants[t].registry.counter(names::migrate::SESSIONS).inc();
                    h_mig_transfer.record((now - started).as_micros());
                    // The destination warms up exactly like a revived
                    // node: its caches are cold for the new arrival.
                    dispatcher.warm_node(dst, now, REJOIN_WARMUP);
                    pending_off[src] -= 1;
                    let src_homed = home.iter().filter(|h| **h == Some(src)).count();
                    if pending_off[src] == 0 && src_homed == 0 && dead_since[src].is_none() {
                        // Last session has left: cordon the source. It
                        // stays alive and drains its in-flight frames.
                        dispatcher.cordon_node(src, true);
                    }
                    // A destination that started draining mid-transfer
                    // hands the arrival straight onward.
                    if draining[dst] && dead_since[dst].is_none() {
                        let survivor: Vec<bool> = (0..nodes_n)
                            .map(|j| {
                                j != dst
                                    && dead_since[j].is_none()
                                    && !draining[j]
                                    && dispatcher.nodes()[j].accepting()
                            })
                            .collect();
                        if survivor.iter().any(|&s| s) {
                            let specs = [(t, demand_of[t])];
                            if let Some((_, Some(next))) =
                                assign_destinations(&specs, &survivor, &mut homed_demand).pop()
                            {
                                start_migration!(now, t, dst, next, reason);
                            }
                        }
                    }
                    pump!(now);
                }
                EV_REBALANCE => {
                    let verdict = if let Some(rb) = rebal.as_mut() {
                        let candidate: Vec<bool> = (0..nodes_n)
                            .map(|j| {
                                dead_since[j].is_none()
                                    && !draining[j]
                                    && dispatcher.nodes()[j].accepting()
                                    && home.contains(&Some(j))
                            })
                            .collect();
                        let absorbers = (0..nodes_n)
                            .filter(|&j| {
                                dead_since[j].is_none()
                                    && !draining[j]
                                    && dispatcher.nodes()[j].accepting()
                            })
                            .count();
                        rb.tick(now, &candidate, absorbers.saturating_sub(1))
                    } else {
                        None
                    };
                    if let Some(d) = verdict {
                        start_drain!(now, d.node, "rebalance");
                        pump!(now);
                    }
                    let next = t_us + rebalance_interval_us;
                    if next < duration_us {
                        heap.push(Reverse((next, EV_REBALANCE, 0, 0)));
                    }
                }
                EV_NODE_FREE => {
                    let node = a as usize;
                    if b != epochs[node] {
                        continue;
                    }
                    if let Some((t, job, start)) = on_node[node].take() {
                        let t = t as usize;
                        dispatcher.complete_for(node, session_of(t), job.seq);
                        let down_secs = fabric_link_secs(job.down_bytes, cfg.loss_scale);
                        tenants[t].downlink_bytes += job.down_bytes;
                        c_downlink.add(job.down_bytes);
                        tenants[t].downlink_counter().add(job.down_bytes);
                        if let Some(o) = obs.as_mut() {
                            if let Some(e) = o.pending.get_mut(&(t as u32, job.seq)) {
                                e.down_end = Some(now + SimDuration::from_secs_f64(down_secs));
                            }
                            // NTP-style clock recovery from this
                            // booking's timestamp quadruple: the node
                            // stamps arrival/reply on its own skewed
                            // clock, the fabric stamps send/receive.
                            let skew = o.skew_us[node];
                            let half_rtt = (LAN_RTT.as_micros() / 2) as i64;
                            let t1 = start.as_micros() as i64 - half_rtt;
                            let t2 = start.as_micros() as i64 + skew;
                            let t3 = now.as_micros() as i64 + skew;
                            let t4 = now.as_micros() as i64 + half_rtt;
                            o.clocks[node].observe(t1, t2, t3, t4);
                        }
                        let present_at = now + SimDuration::from_secs_f64(down_secs) + COMPOSITOR;
                        present!(&mut tenants[t], t, job.seq, job.issued, present_at, false);
                    }
                    pump!(now);
                }
                EV_ARRIVE => {
                    let t = a as usize;
                    let job = uplinking
                        .remove(&(t as u32, b))
                        .expect("arriving frame was issued");
                    backlog.push_back(t, job);
                    pump!(now);
                }
                EV_ISSUE => {
                    let t = a as usize;
                    let seq = b;
                    let model_idx = tenants[t].model;
                    let i = (seq as usize) % CALIB_FRAMES;
                    let fill =
                        (models[model_idx].frame_fill[i] as f64 * tenants[t].fill_scale) as u64;
                    let wire = models[model_idx].frame_wire[i];
                    let encode = SimDuration::from_micros(models[model_idx].encode_us[i]);
                    let down_bytes = models[model_idx].down_bytes[i];
                    tenants[t].frames_issued += 1;
                    if tenants[t].local_mode {
                        let job = FrameJob {
                            seq,
                            issued: now,
                            arrived: now,
                            fill,
                            encode,
                            down_bytes: 0,
                        };
                        render_local!(&mut tenants[t], t, job, now);
                    } else {
                        let mut up_secs = fabric_link_secs(wire, cfg.loss_scale);
                        if cfg.loss_scale > 0.0 {
                            let p = (LOSS_BURST_P * cfg.loss_scale).min(0.5);
                            let st = &mut tenants[t];
                            if st.rng.gen_range(0.0..1.0) < p {
                                let rounds = st.rng.gen_range(1..=3);
                                up_secs += RETX_PENALTY.as_secs_f64() * rounds as f64;
                            }
                        }
                        tenants[t].uplink_bytes += wire;
                        c_uplink.add(wire);
                        tenants[t].uplink_counter().add(wire);
                        let arrive = now + SimDuration::from_secs_f64(up_secs);
                        uplinking.insert(
                            (t as u32, seq),
                            FrameJob {
                                seq,
                                issued: now,
                                arrived: arrive,
                                fill,
                                encode,
                                down_bytes,
                            },
                        );
                        if let Some(o) = obs.as_mut() {
                            o.pending.insert(
                                (t as u32, seq),
                                PendingFrame {
                                    arrived: arrive,
                                    start: None,
                                    finish: None,
                                    encode,
                                    down_end: None,
                                    local: false,
                                },
                            );
                        }
                        heap.push(Reverse((arrive.as_micros(), EV_ARRIVE, a, seq)));
                    }
                    let period_us = (1e6 / tenants[t].spec.fps) as u64;
                    let next = t_us + period_us;
                    if next < duration_us {
                        heap.push(Reverse((next, EV_ISSUE, a, seq + 1)));
                    }
                }
                EV_SCRAPE => {
                    if let Some(o) = obs.as_mut() {
                        pool_registry.scrape_into(&mut o.tsdb, now, &[]);
                        for (i, st) in tenants.iter().enumerate() {
                            if admitted[i] {
                                let label = &o.tenant_labels[i];
                                st.registry
                                    .scrape_into(&mut o.tsdb, now, &[("tenant", label)]);
                            }
                        }
                        let next = t_us + o.knobs.scrape_interval.as_micros();
                        if next <= duration_us {
                            heap.push(Reverse((next, EV_SCRAPE, 0, 0)));
                        }
                    }
                }
                _ => unreachable!("unknown event kind"),
            }
        }

        // ---- Report assembly.
        for (node, since) in dead_since.iter().enumerate() {
            if let Some(s) = since {
                dead_secs[node] += (cfg.duration.as_secs_f64() - s.as_secs_f64()).max(0.0);
            }
        }
        let alive_node_secs: f64 = (0..nodes_n)
            .map(|n| (duration_secs - dead_secs[n]).max(0.0))
            .sum();
        let pool_utilization = if alive_node_secs > 0.0 {
            busy_secs_total / alive_node_secs
        } else {
            0.0
        };
        pool_registry
            .gauge(names::fabric::POOL_UTILIZATION)
            .set(pool_utilization);

        let pool_snap = pool_registry.snapshot();
        let mut tenant_reports = Vec::with_capacity(tenants.len());
        let mut tenant_telemetry = Vec::new();
        let mut sessions_at_slo = 0usize;
        let mut frames_presented = 0u64;
        for (i, st) in tenants.iter().enumerate() {
            let snap = st.registry.snapshot();
            let hist = snap.histogram(names::fabric::FRAME_LATENCY).cloned();
            let (p50_us, p99_us) = hist
                .as_ref()
                .map(|h| (h.quantile(0.50), h.quantile(0.99)))
                .unwrap_or((0, 0));
            let gapless = st.reorder.held() == 0 && st.reorder.awaiting() == st.frames_issued;
            let slo_met =
                admitted[i] && st.frames_presented > 0 && p99_us as f64 / 1e3 <= st.spec.slo_ms;
            if admitted[i] && slo_met && gapless {
                sessions_at_slo += 1;
            }
            frames_presented += st.frames_presented;
            tenant_reports.push(TenantReport {
                tenant: i as u32,
                title: st.spec.title.id,
                admitted: admitted[i],
                frames_issued: st.frames_issued,
                frames_presented: st.frames_presented,
                frames_local: st.frames_local,
                redispatches: st.redispatches,
                uplink_bytes: st.uplink_bytes,
                downlink_bytes: st.downlink_bytes,
                service_secs: st.service_secs,
                p50_us,
                p99_us,
                slo_ms: st.spec.slo_ms,
                slo_met,
                gapless,
                incidents: st.incidents,
            });
            if admitted[i] {
                tenant_telemetry.push((i as u32, snap));
            }
        }
        let sessions_per_node_at_slo = sessions_at_slo as f64 / nodes_n as f64;
        pool_registry
            .gauge(names::fabric::SESSIONS_PER_NODE_AT_SLO)
            .set(sessions_per_node_at_slo);

        // Migration blackout: the worst presented-frame gap over the
        // migrated sessions, in frame periods. A gapless cutover holds
        // this at exactly zero — every issued frame is presented and
        // the reorder buffer is empty at the end of the run.
        let mut blackout_ms = 0.0f64;
        for st in tenants.iter() {
            if st.migrations > 0 {
                let period_ms = 1e3 / st.spec.fps;
                let missing = st.frames_issued - st.frames_presented + st.reorder.held() as u64;
                blackout_ms = blackout_ms.max(missing as f64 * period_ms);
            }
        }
        pool_registry
            .gauge(names::fabric::MIGRATION_BLACKOUT_MS)
            .set(blackout_ms);
        let migration_records: Vec<MigrationRecord> = migs
            .iter()
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
            .collect();

        let agg = pool_snap.histogram(names::fabric::FRAME_LATENCY).cloned();
        let (p50_us, p99_us, p999_us) = agg
            .as_ref()
            .map(|h| (h.quantile(0.50), h.quantile(0.99), h.quantile(0.999)))
            .unwrap_or((0, 0, 0));
        let window_audits = windows
            .iter()
            .map(|(&w, per)| WindowAudit {
                window: w,
                pool_busy_secs: per.iter().sum(),
                tenant_busy_secs: per.clone(),
            })
            .collect();

        // Observer finalization: publish the sampling counters, the
        // recovered-clock gauge, and the TSDB self-metrics before the
        // closing snapshot so they appear in the report's telemetry.
        let mut clock_offsets_ms: Vec<f64> = Vec::new();
        if let Some(o) = obs.as_mut() {
            pool_registry
                .counter(names::tracing::SAMPLED_KEPT)
                .add(o.sampler.kept());
            pool_registry
                .counter(names::tracing::SAMPLED_DROPPED)
                .add(o.sampler.dropped());
            pool_registry
                .counter(names::tracing::BUDGET_EVICTIONS)
                .add(o.sampler.evictions());
            for c in &o.clocks {
                clock_offsets_ms.push(c.offset_us().map_or(0.0, |us| us as f64 / 1e3));
            }
            let worst = clock_offsets_ms.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            pool_registry
                .gauge(names::tracing::CLOCK_OFFSET_MS)
                .set(worst);
            #[allow(clippy::cast_precision_loss)]
            {
                pool_registry
                    .gauge(names::tsdb::SERIES)
                    .set(o.tsdb.series_count() as f64);
                pool_registry
                    .gauge(names::tsdb::SAMPLES)
                    .set(o.tsdb.ingested() as f64);
                pool_registry
                    .gauge(names::tsdb::POINTS_EVICTED)
                    .set(o.tsdb.evicted() as f64);
            }
        }
        // Snapshot again so the SLO gauges set above are included.
        let telemetry = pool_registry.snapshot();
        // Final scrape at the realized horizon: instant queries at the
        // run's end answer with the closing report state.
        let (sampler, tsdb) = match obs {
            Some(mut o) => {
                let end = SimTime::from_micros(end_us);
                o.tsdb.ingest(end, &[], &telemetry);
                for (tenant, snap) in &tenant_telemetry {
                    let label = format!("t{tenant:03}");
                    o.tsdb.ingest(end, &[("tenant", &label)], snap);
                }
                (Some(o.sampler), Some(o.tsdb))
            }
            None => (None, None),
        };
        Ok(FabricReport {
            sessions_offered: cfg.tenants.len(),
            admitted: n_admit,
            rejected: n_reject,
            rejected_rate,
            admitted_load,
            load_cap,
            nodes: nodes_n,
            frames_presented,
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
            migrations: migration_records,
            migration_blackout_ms: blackout_ms,
            migrate_bytes: telemetry.counter(names::migrate::BYTES),
            migrate_retargets: telemetry.counter(names::migrate::RETARGETS),
            migrate_aborted: telemetry.counter(names::migrate::ABORTED),
            incidents_folded: telemetry.counter(names::migrate::INCIDENTS_FOLDED),
            flight: flight.dumps().to_vec(),
            incidents,
            tenants: tenant_reports,
            windows: window_audits,
            telemetry,
            tenant_telemetry,
            sampler,
            tsdb,
            clock_offsets_ms,
        })
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

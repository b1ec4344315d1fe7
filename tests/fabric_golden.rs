//! Golden digests of the fabric's exports, one config per event-loop
//! path (docs/FABRIC.md). The other fabric suites compare a run with
//! itself; this one pins what a run exports against values recorded
//! from an earlier build, so a refactor of the event loop that shifts
//! any exported byte fails here.
//!
//! Each digest is FNV-1a over `slo_json()`, `prometheus()`,
//! `timeline_json()`, the retained trace set, every flight-recorder
//! dump, the fair-share window rows (f64 bits) and a fixed list of TSDB
//! queries. A change that is meant to alter fabric outputs updates the
//! one `expected` line the failure message prints.

use gbooster::core::fabric::{CacheMode, FabricConfig, FabricReport, PoolEvent, SessionManager};
use gbooster::core::rebalance::RebalancePolicy;
use gbooster::sim::device::DeviceSpec;
use gbooster::sim::time::{SimDuration, SimTime};
use gbooster::telemetry::SeriesData;

/// Asked of every observed run, at mid-run and at the horizon.
const QUERIES: [&str; 9] = [
    "fabric.sessions_admitted",
    "rate(fabric.uplink_bytes[2s])",
    "quantile(0.99, fabric.frame_latency[2s])",
    "topk(5, fabric.frame_latency{tenant=\"t000\"})",
    "avg_over_time(fabric.pool_utilization[2s])",
    "migrate.bytes",
    "fabric.incidents",
    "rate(fabric.downlink_bytes{tenant=\"t001\"}[1s])",
    "max_over_time(fabric.local_frames{tenant=\"t002\"}[2s])",
];

fn pool(nodes: usize) -> Vec<DeviceSpec> {
    let all = [
        DeviceSpec::nvidia_shield(),
        DeviceSpec::dell_optiplex_9010(),
        DeviceSpec::dell_m4600(),
        DeviceSpec::minix_neo_u1(),
    ];
    all[..nodes].to_vec()
}

/// 64 tenants at 10 fps over `nodes` nodes for 4 s.
fn light(nodes: usize, seed: u64) -> FabricConfig {
    let mut cfg = FabricConfig::uniform(64, pool(nodes), seed);
    cfg.duration = SimDuration::from_secs(4);
    for t in &mut cfg.tenants {
        t.fps = 10.0;
    }
    cfg
}

fn kill(cfg: &mut FabricConfig, ms: u64, node: usize) {
    cfg.events.push(PoolEvent::Kill {
        at: SimTime::from_millis(ms),
        node,
    });
}

fn revive(cfg: &mut FabricConfig, ms: u64, node: usize) {
    cfg.events.push(PoolEvent::Revive {
        at: SimTime::from_millis(ms),
        node,
    });
}

struct Fnv(u64);

impl Fnv {
    /// Hashes `bytes` after its length, so adjacent parts cannot trade
    /// bytes without changing the digest.
    fn part(&mut self, bytes: &[u8]) {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(report: &FabricReport, horizon: SimDuration) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.part(report.slo_json().as_bytes());
    h.part(report.prometheus().as_bytes());
    h.part(report.timeline_json().as_bytes());
    h.part(
        report
            .sampler
            .as_ref()
            .map_or(String::new(), |s| s.to_jsonl())
            .as_bytes(),
    );
    for dump in &report.flight {
        h.part(dump.to_jsonl().as_bytes());
    }
    for w in &report.windows {
        let mut row = w.window.to_le_bytes().to_vec();
        row.extend(w.pool_busy_secs.to_bits().to_le_bytes());
        for s in &w.tenant_busy_secs {
            row.extend(s.to_bits().to_le_bytes());
        }
        h.part(&row);
    }
    if report.tsdb.is_some() {
        let end = horizon.as_micros();
        for at in [end / 2, end] {
            for q in QUERIES {
                let rows = report
                    .query(q, SimTime::from_micros(at))
                    .unwrap_or_else(|e| panic!("query {q} must parse: {e:?}"));
                for (series, value) in rows {
                    h.part(series.as_bytes());
                    h.part(&value.to_bits().to_le_bytes());
                }
            }
        }
    }
    h.0
}

fn check(name: &str, cfg: &FabricConfig, expected: u64) {
    let report = SessionManager::run(cfg).expect("golden config is valid");
    let fresh = digest(&report, cfg.duration);
    assert_eq!(
        fresh, expected,
        "fabric exports of `{name}` changed: if intended, set its expected digest to {fresh:#018x}"
    );
}

/// The clean scale path with no observer: admission, fair share,
/// Eq. 4 dispatch and presentation only.
#[test]
fn clean_64_tenants_on_4_nodes() {
    let mut cfg = FabricConfig::uniform(64, pool(4), 20_170_605);
    cfg.duration = SimDuration::from_secs(3);
    check("clean", &cfg, 0x54d4_c498_171e_ed03);
}

/// The same run on a lossy link, observed: the issue-path loss-burst
/// draws, the tail sampler and the TSDB.
#[test]
fn lossy_64_tenants_on_4_nodes() {
    let mut cfg = FabricConfig::uniform(64, pool(4), 20_170_605);
    cfg.duration = SimDuration::from_secs(3);
    cfg.loss_scale = 1.0;
    cfg.observe_default();
    check("lossy", &cfg, 0xd2dd_706f_85fc_e296);
}

/// The fabric tracing suite's chaos run: an operator drain, then a
/// kill and revive of another node, lossy and observed.
#[test]
fn observed_drain_kill_revive() {
    let mut cfg = light(3, 20_170_605);
    cfg.duration = SimDuration::from_secs(3);
    cfg.loss_scale = 1.0;
    cfg.drain_node(SimTime::from_millis(1_500), 0);
    kill(&mut cfg, 2_000, 1);
    revive(&mut cfg, 2_500, 1);
    cfg.observe_default();
    check("drain_kill_revive", &cfg, 0x8991_e3ed_340c_18cd);
}

/// Every node dies, so every session renders locally, then one node
/// revives and takes the homeless sessions back.
#[test]
fn total_pool_loss_then_revive() {
    let mut cfg = light(2, 64_002);
    kill(&mut cfg, 1_000, 0);
    kill(&mut cfg, 1_000, 1);
    revive(&mut cfg, 2_000, 0);
    cfg.observe_default();
    check("pool_loss", &cfg, 0xddf0_2ba1_48e4_18f3);
}

/// The migration destination dies mid-transfer with a third node
/// standing by: every transfer toward it retargets and re-ships, over a
/// lossy link.
#[test]
fn destination_killed_mid_migration_retargets() {
    let mut cfg = light(3, 64_006);
    cfg.tenants.truncate(48);
    cfg.loss_scale = 1.0;
    cfg.drain_node(SimTime::from_secs(2), 0);
    kill(&mut cfg, 2_000, 1);
    cfg.observe_default();
    check("retarget", &cfg, 0x3bf8_fc22_5b10_e220);
}

/// The only destination dies mid-transfer: every migration stalls and
/// the flight recorder dumps.
#[test]
fn only_destination_killed_stalls() {
    let mut cfg = light(2, 64_007);
    cfg.drain_node(SimTime::from_secs(2), 0);
    kill(&mut cfg, 2_000, 1);
    cfg.observe_default();
    check("stall", &cfg, 0xacf4_bc96_acd5_876a);
}

/// A brownout opens one incident per tenant and the rebalancer drains
/// the throttled node into it.
#[test]
fn degrade_then_rebalance() {
    let mut cfg = light(2, 64_008);
    cfg.rebalance = Some(RebalancePolicy {
        thermal_enter: 0.70,
        thermal_exit: 0.50,
    });
    cfg.events.push(PoolEvent::Degrade {
        at: SimTime::from_secs(1),
        node: 0,
        factor: 0.05,
    });
    cfg.observe_default();
    check("degrade_rebalance", &cfg, 0x0eb0_19a8_7139_7830);
}

/// Partitioned caches pay the full setup upload per tenant and ship the
/// full snapshot on a drain.
#[test]
fn partitioned_caches_with_a_drain() {
    let mut cfg = light(3, 64_003);
    cfg.cache_mode = CacheMode::Partitioned;
    cfg.drain_node(SimTime::from_secs(2), 0);
    cfg.observe_default();
    check("partitioned_drain", &cfg, 0x4249_cfc2_2232_e5b5);
}

/// Two drains at one instant: transfers from the first drained node
/// that land on the second are handed straight onward at cutover.
#[test]
fn drain_of_a_migration_destination_hands_arrivals_onward() {
    let mut cfg = light(3, 64_009);
    cfg.drain_node(SimTime::from_secs(2), 0);
    cfg.drain_node(SimTime::from_secs(2), 1);
    cfg.observe_default();
    check("onward", &cfg, 0x43df_07ad_a8ee_3888);
}

/// The observer's write paths under wrap-around: every TSDB ring wraps
/// (64 slots of 250 ms cover 16 s of a 60 s run), and a tight SLO keeps
/// enough traces that tenant budgets evict. The digest adds every
/// stored TSDB point and the TSDB's own counters to [`digest`].
#[test]
fn long_observed_run_wraps_rings_and_evicts_traces() {
    let mut cfg = light(3, 20_170_605);
    cfg.duration = SimDuration::from_secs(60);
    cfg.loss_scale = 1.0;
    for t in &mut cfg.tenants {
        t.slo_ms = 6.0;
    }
    cfg.drain_node(SimTime::from_secs(30), 0);
    kill(&mut cfg, 40_000, 1);
    revive(&mut cfg, 50_000, 1);
    cfg.observe_default();
    let report = SessionManager::run(&cfg).expect("golden config is valid");
    let tsdb = report.tsdb.as_ref().expect("observed run has a TSDB");
    let sampler = report.sampler.as_ref().expect("observed run has a sampler");
    assert!(tsdb.evicted() > 0, "no TSDB ring wrapped");
    assert!(sampler.evictions() > 0, "no trace budget evicted");
    let mut h = Fnv(digest(&report, cfg.duration));
    for s in tsdb.series() {
        h.part(s.name().as_bytes());
        for (k, v) in s.labels() {
            h.part(k.as_bytes());
            h.part(v.as_bytes());
        }
        match s.data() {
            SeriesData::Scalar(ring) => {
                for (at, v) in ring {
                    h.part(&at.to_le_bytes());
                    h.part(&v.to_bits().to_le_bytes());
                }
            }
            SeriesData::Hist(ring) => {
                for (at, snap) in ring {
                    let ex = snap.exemplar().map_or([u64::MAX; 2], |e| [e.value, e.tag]);
                    let fields = [
                        *at,
                        snap.count(),
                        snap.sum(),
                        snap.min(),
                        snap.max(),
                        snap.quantile(0.50),
                        snap.quantile(0.99),
                        ex[0],
                        ex[1],
                    ];
                    for f in fields {
                        h.part(&f.to_le_bytes());
                    }
                }
            }
        }
    }
    for n in [tsdb.series_count() as u64, tsdb.ingested(), tsdb.evicted()] {
        h.part(&n.to_le_bytes());
    }
    let fresh = h.0;
    assert_eq!(
        fresh, 0x2a3f_e7bb_b221_946a,
        "fabric exports of `long` changed: if intended, set its expected digest to {fresh:#018x}"
    );
}

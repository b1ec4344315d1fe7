//! Golden digests of the single-session engine's exports, one config per
//! engine path: local, cloud, a clean offload, a lossy pool with node
//! events and a partition, an emptied pool, an SLO breach, the injected
//! faults and a node kill. The other session suites compare a run with
//! itself; this one pins what a run exports against values recorded
//! from an earlier build, so a refactor that shifts any exported byte
//! fails here.
//!
//! Each digest is FNV-1a over the report's `Display` line, the bits of
//! every report scalar and energy component, `per_device_requests`,
//! `telemetry.to_json()` without its `host.*` (wall-clock) entries, the
//! frame-trace JSONL, `clock_offset_us`, the flight dump, the
//! attribution JSON, the incident and event journals and the
//! postmortem. A change that is meant to alter session outputs updates
//! the one `expected` value the failure message prints.

use gbooster::core::config::{
    ExecutionMode, FaultInjection, LinkPartition, NodeEvent, OffloadConfig, SessionConfig,
};
use gbooster::core::session::{Session, SessionReport};
use gbooster::sim::device::DeviceSpec;
use gbooster::telemetry::{names, Fault};
use gbooster::workload::games::GameTitle;

const SEED: u64 = 20_170_605;

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

fn digest(r: &SessionReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.part(r.to_string().as_bytes());
    let mut row = Vec::new();
    for v in [
        r.median_fps,
        r.stability,
        r.frame_jitter_ms,
        r.response_time_ms,
        r.mean_tp_ms,
        r.cpu_utilization,
        r.avg_mbps,
        r.degraded_fraction,
        r.extra_memory_mb,
    ] {
        row.extend(v.to_bits().to_le_bytes());
    }
    for v in [
        r.uplink_bytes,
        r.downlink_bytes,
        u64::from(r.wifi_wakes),
        r.wifi_bytes,
        r.bt_bytes,
        r.frames,
        u64::from(r.state_consistent),
        r.duration.as_micros(),
        r.energy.elapsed().as_micros(),
    ] {
        row.extend(v.to_le_bytes());
    }
    for (component, joules) in r.energy.breakdown() {
        row.extend(format!("{component:?}").bytes());
        row.extend(joules.to_bits().to_le_bytes());
    }
    for v in &r.per_device_requests {
        row.extend(v.to_le_bytes());
    }
    h.part(&row);
    let mut telemetry = r.telemetry.clone();
    telemetry.counters.retain(|k, _| !k.starts_with("host."));
    telemetry.gauges.retain(|k, _| !k.starts_with("host."));
    telemetry.histograms.retain(|k, _| !k.starts_with("host."));
    h.part(telemetry.to_json().as_bytes());
    h.part(r.frame_trace_jsonl().as_bytes());
    h.part(format!("{:?}", r.clock_offset_us).as_bytes());
    h.part(
        r.flight
            .as_ref()
            .map_or(String::new(), |d| d.to_jsonl())
            .as_bytes(),
    );
    h.part(r.attribution.to_json().as_bytes());
    h.part(r.incidents_jsonl().as_bytes());
    h.part(r.ops_events_jsonl().as_bytes());
    h.part(r.ops_postmortem().as_bytes());
    h.0
}

fn check(name: &str, cfg: &SessionConfig, expected: u64) -> SessionReport {
    let report = Session::run(cfg);
    let fresh = digest(&report);
    assert_eq!(
        fresh, expected,
        "session exports of `{name}` changed: if intended, set its expected digest to {fresh:#018x}"
    );
    report
}

fn offloaded(game: GameTitle, secs: u64, off: OffloadConfig) -> SessionConfig {
    SessionConfig::builder(game, DeviceSpec::nexus5())
        .duration_secs(secs)
        .seed(SEED)
        .mode(ExecutionMode::Offloaded(off))
        .build()
}

fn faulted(devices: Vec<DeviceSpec>, faults: FaultInjection) -> OffloadConfig {
    OffloadConfig {
        service_devices: devices,
        faults,
        ..OffloadConfig::default()
    }
}

fn dumped(report: &SessionReport) -> Option<Fault> {
    report.flight.as_ref().map(|d| d.fault)
}

/// The paper's baseline: every frame on the phone GPU, throttling.
#[test]
fn local_g1_on_nexus5() {
    let cfg = SessionConfig::builder(GameTitle::g1_gta_san_andreas(), DeviceSpec::nexus5())
        .duration_secs(10)
        .seed(SEED)
        .build();
    let report = check("local", &cfg, 0x4c3c_9dba_c188_ea66);
    assert_eq!(report.mode, "local");
}

/// The OnLive-style cloud baseline.
#[test]
fn cloud_g2() {
    let cfg = SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
        .duration_secs(10)
        .seed(SEED)
        .mode(ExecutionMode::Cloud)
        .build();
    let report = check("cloud", &cfg, 0xf65a_72f2_2559_ce36);
    assert_eq!(report.mode, "cloud");
}

/// The headline path with no fault: one Shield, no flight dump.
#[test]
fn clean_g1_on_a_shield() {
    let cfg = offloaded(
        GameTitle::g1_gta_san_andreas(),
        10,
        OffloadConfig::default(),
    );
    let report = check("clean", &cfg, 0x7bf2_2422_5cd6_bb5c);
    assert_eq!(dumped(&report), None);
}

/// Three nodes over a lossy link: a brownout, a kill and revive, and a
/// probe partition of another node.
#[test]
fn lossy_pool_with_node_events_and_a_partition() {
    let cfg = SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::lg_g5())
        .duration_secs(15)
        .seed(SEED)
        .mode(ExecutionMode::Offloaded(OffloadConfig {
            loss_scale: 4.0,
            ..faulted(
                vec![
                    DeviceSpec::nvidia_shield(),
                    DeviceSpec::dell_optiplex_9010(),
                    DeviceSpec::dell_m4600(),
                ],
                FaultInjection {
                    node_events: vec![
                        NodeEvent::Degrade {
                            frame: 100,
                            node: 1,
                            factor: 0.5,
                        },
                        NodeEvent::Kill {
                            frame: 200,
                            node: 0,
                        },
                        NodeEvent::Revive {
                            frame: 400,
                            node: 0,
                        },
                    ],
                    partitions: vec![LinkPartition {
                        node: 2,
                        from_frame: 500,
                        until_frame: 560,
                    }],
                    ..FaultInjection::default()
                },
            )
        }))
        .build();
    let report = check("lossy_pool", &cfg, 0x5af8_728c_155d_e241);
    assert_eq!(report.telemetry.counter(names::sched::NODE_FAILURES), 2);
    assert_eq!(report.telemetry.counter(names::health::REJOINS), 2);
    assert_eq!(dumped(&report), Some(Fault::NodeLoss));
}

/// The only node dies: the pool-empty fallback engages, then releases
/// once the node revives and rejoins.
#[test]
fn pool_empty_fallback_then_rejoin() {
    let cfg = offloaded(
        GameTitle::g2_modern_combat(),
        10,
        faulted(
            vec![DeviceSpec::nvidia_shield()],
            FaultInjection {
                node_events: vec![
                    NodeEvent::Kill { frame: 60, node: 0 },
                    NodeEvent::Revive {
                        frame: 300,
                        node: 0,
                    },
                ],
                ..FaultInjection::default()
            },
        ),
    );
    let report = check("pool_empty", &cfg, 0x81e2_6a61_8be4_560c);
    let events = report.ops_events_jsonl();
    assert!(events.contains("pool_empty"), "{events}");
    assert!(events.contains("fallback_released"), "{events}");
    assert_eq!(report.telemetry.counter(names::health::REJOINS), 1);
}

/// A 1080p stream on a node browned out to 1 %: latency breaches the
/// SLO and the engine falls back to local rendering.
#[test]
fn slo_breach_fallback() {
    let cfg = offloaded(
        GameTitle::g1_gta_san_andreas(),
        10,
        OffloadConfig {
            render_resolution: (1920, 1080),
            ..faulted(
                vec![DeviceSpec::nvidia_shield()],
                FaultInjection {
                    node_events: vec![NodeEvent::Degrade {
                        frame: 50,
                        node: 0,
                        factor: 0.01,
                    }],
                    ..FaultInjection::default()
                },
            )
        },
    );
    let report = check("slo_breach", &cfg, 0xb296_6a66_99d5_5143);
    let events = report.ops_events_jsonl();
    assert!(events.contains("slo_breach"), "{events}");
}

/// The three frame-indexed injections: a loss storm, a dispatch stall
/// and an interface flap.
#[test]
fn injected_storm_stall_and_flap() {
    let cfg = offloaded(
        GameTitle::g1_gta_san_andreas(),
        10,
        faulted(
            vec![DeviceSpec::nvidia_shield()],
            FaultInjection {
                loss_storm_at_frame: Some(40),
                dispatch_stall_at_frame: Some(80),
                iface_flap_at_frame: Some(120),
                ..FaultInjection::default()
            },
        ),
    );
    let report = check("injected", &cfg, 0x3e7c_78d1_1aa7_c1a5);
    assert_eq!(dumped(&report), Some(Fault::LossStorm));
}

/// One of three nodes is killed: its in-flight frames re-dispatch.
#[test]
fn kill_one_of_three_nodes() {
    let cfg = offloaded(
        GameTitle::g2_modern_combat(),
        10,
        faulted(
            vec![
                DeviceSpec::nvidia_shield(),
                DeviceSpec::dell_optiplex_9010(),
                DeviceSpec::dell_m4600(),
            ],
            FaultInjection {
                node_events: vec![NodeEvent::Kill { frame: 50, node: 0 }],
                ..FaultInjection::default()
            },
        ),
    );
    let report = check("kill", &cfg, 0x6372_c148_0df4_d149);
    assert_eq!(report.telemetry.counter(names::sched::NODE_FAILURES), 1);
    assert_eq!(dumped(&report), Some(Fault::NodeLoss));
}

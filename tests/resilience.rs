//! Deterministic chaos matrix for the session-resilience path: the
//! health-monitored pool, rejoin-via-resync, and the local-render
//! fallback (docs/RESILIENCE.md).
//!
//! Three fault shapes — a node flap (kill then revive), a probe-link
//! partition window, and a total pool loss followed by recovery — each
//! across {1, 2, 4} service nodes, each run twice from the same seed.
//! Every scenario must present frames strictly in order with no gaps or
//! duplicates, keep the surviving-and-rejoined GL replicas
//! bit-identical, engage/release the fallback without oscillating, and
//! reproduce byte-for-byte on the second run. Run with
//! `--test-threads=1` in CI to keep failure output readable.

use gbooster::core::config::{
    ExecutionMode, FaultInjection, LinkPartition, NodeEvent, OffloadConfig, SessionConfig,
};
use gbooster::core::session::{Session, SessionReport};
use gbooster::sim::device::DeviceSpec;
use gbooster::telemetry::{names, Fault};
use gbooster::workload::games::GameTitle;

fn pool(nodes: usize) -> Vec<DeviceSpec> {
    let all = [
        DeviceSpec::nvidia_shield(),
        DeviceSpec::dell_optiplex_9010(),
        DeviceSpec::dell_m4600(),
        DeviceSpec::minix_neo_u1(),
    ];
    all[..nodes].to_vec()
}

fn scenario(nodes: usize, seed: u64, faults: FaultInjection) -> SessionConfig {
    SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
        .duration_secs(6)
        .seed(seed)
        .mode(ExecutionMode::Offloaded(OffloadConfig {
            service_devices: pool(nodes),
            faults,
            ..OffloadConfig::default()
        }))
        .build()
}

/// A node drops off the network and comes back: probes detect the
/// death, the node rejoins via one state resync once it answers again.
fn flap(nodes: usize) -> FaultInjection {
    let victim = nodes - 1;
    FaultInjection {
        node_events: vec![
            NodeEvent::Kill {
                frame: 40,
                node: victim,
            },
            NodeEvent::Revive {
                frame: 120,
                node: victim,
            },
        ],
        ..FaultInjection::default()
    }
}

/// The node itself stays up but its probe link is partitioned for a
/// window: the health monitor must declare it dead (its stale GL state
/// is untrusted) and resync it when the partition heals.
fn partition(_nodes: usize) -> FaultInjection {
    FaultInjection {
        partitions: vec![LinkPartition {
            node: 0,
            from_frame: 40,
            until_frame: 110,
        }],
        ..FaultInjection::default()
    }
}

/// Every node dies at once, then the whole pool recovers: the engine
/// must flip to local rendering immediately, keep presenting, and
/// re-offload after the rejoins and the release hysteresis.
fn all_dead_then_recover(nodes: usize) -> FaultInjection {
    let mut node_events = Vec::new();
    for node in 0..nodes {
        node_events.push(NodeEvent::Kill { frame: 50, node });
        node_events.push(NodeEvent::Revive { frame: 150, node });
    }
    FaultInjection {
        node_events,
        ..FaultInjection::default()
    }
}

/// Every injected fault must correlate into exactly one incident of the
/// expected kind: the live-ops layer folds the detector fault, the
/// health transitions around it, and any concurrent alerts into a
/// single causally-ordered record (docs/OBSERVABILITY.md).
fn assert_incident(report: &SessionReport, expected_kind: &str, label: &str) {
    let kinds: Vec<&str> = report.ops.incidents.iter().map(|i| i.kind).collect();
    assert_eq!(
        kinds.len(),
        1,
        "{label}: exactly one correlated incident, got {kinds:?}"
    );
    let inc = &report.ops.incidents[0];
    assert_eq!(inc.kind, expected_kind, "{label}: incident kind");
    assert!(
        !inc.health_transitions().is_empty(),
        "{label}: the incident must link the health transitions around it"
    );
    assert!(
        !inc.attribution.is_empty(),
        "{label}: the attribution diff over the violation window must move"
    );
    assert!(
        inc.flight_fault().is_some(),
        "{label}: the flight dump must land on the incident timeline"
    );
}

/// Invariants every chaos scenario must uphold.
fn assert_invariants(report: &SessionReport, label: &str) {
    assert!(report.frames > 0, "{label}: session must present frames");

    // Every frame presented exactly once, in order, with no gaps: the
    // trace log records frames in display order.
    let seqs: Vec<u64> = report.trace.frames().iter().map(|f| f.seq).collect();
    assert_eq!(
        seqs.len() as u64,
        report.frames,
        "{label}: one trace per frame"
    );
    for (i, &seq) in seqs.iter().enumerate() {
        assert_eq!(
            seq, i as u64,
            "{label}: presentation must be gapless, in order, duplicate-free"
        );
    }

    // Surviving and rejoined replicas end bit-identical: the resync
    // path must hand back exactly the reference state.
    assert!(report.state_consistent, "{label}: GL replicas must agree");

    // The fallback never oscillates: at most one engagement per fault
    // shape (hysteresis + release dwell).
    assert!(
        report
            .telemetry
            .counter(names::health::FALLBACK_ENGAGEMENTS)
            <= 1,
        "{label}: fallback must not oscillate"
    );
}

fn assert_reproducible(a: &SessionReport, b: &SessionReport, label: &str) {
    assert_eq!(
        a.frame_trace_jsonl(),
        b.frame_trace_jsonl(),
        "{label}: frame traces must be byte-identical across runs"
    );
    assert_eq!(a.frames, b.frames, "{label}");
    assert_eq!(a.per_device_requests, b.per_device_requests, "{label}");
    assert_eq!(a.median_fps.to_bits(), b.median_fps.to_bits(), "{label}");
    assert_eq!(a.uplink_bytes, b.uplink_bytes, "{label}");
    assert_eq!(a.downlink_bytes, b.downlink_bytes, "{label}");
    assert_eq!(
        a.telemetry.counter(names::health::REJOINS),
        b.telemetry.counter(names::health::REJOINS),
        "{label}"
    );
    assert_eq!(
        a.telemetry.counter(names::session::FRAMES_LOCAL),
        b.telemetry.counter(names::session::FRAMES_LOCAL),
        "{label}"
    );
    assert_eq!(
        a.incidents_jsonl(),
        b.incidents_jsonl(),
        "{label}: incident records must be byte-identical across runs"
    );
    assert_eq!(
        a.ops_events_jsonl(),
        b.ops_events_jsonl(),
        "{label}: the ops journal must be byte-identical across runs"
    );
}

fn run_twice(nodes: usize, seed: u64, faults: FaultInjection, label: &str) -> SessionReport {
    let config = scenario(nodes, seed, faults);
    let first = Session::run(&config);
    assert_invariants(&first, label);
    let second = Session::run(&config);
    assert_reproducible(&first, &second, label);
    first
}

#[test]
fn node_flap_is_detected_rejoined_and_reproducible() {
    for (i, nodes) in [1usize, 2, 4].into_iter().enumerate() {
        let label = format!("flap, {nodes} node(s)");
        let report = run_twice(nodes, 11_000 + i as u64, flap(nodes), &label);
        // Killing the only node is a total pool loss; with survivors it
        // is a single-node loss. Either way: exactly one incident.
        let expected = if nodes == 1 {
            "all_nodes_lost"
        } else {
            "node_loss"
        };
        assert_incident(&report, expected, &label);
        assert!(
            report.telemetry.counter(names::sched::NODE_FAILURES) >= 1,
            "{label}: the kill must be detected"
        );
        assert_eq!(
            report.telemetry.counter(names::health::REJOINS),
            1,
            "{label}: the revived node must resync exactly once"
        );
        assert!(
            report.telemetry.counter(names::health::RESYNC_BYTES) > 0,
            "{label}: the resync must cost wire bytes"
        );
        if nodes == 1 {
            // Killing the only node empties the pool: frames must keep
            // presenting from the phone GPU until the rejoin.
            assert!(
                report.telemetry.counter(names::session::FRAMES_LOCAL) > 0,
                "{label}: fallback must carry the outage"
            );
        } else {
            assert_eq!(
                report
                    .telemetry
                    .counter(names::health::FALLBACK_ENGAGEMENTS),
                0,
                "{label}: survivors must absorb the load without fallback"
            );
        }
    }
}

#[test]
fn probe_partition_window_evicts_then_resyncs_the_node() {
    for (i, nodes) in [1usize, 2, 4].into_iter().enumerate() {
        let label = format!("partition, {nodes} node(s)");
        let report = run_twice(nodes, 12_000 + i as u64, partition(nodes), &label);
        let expected = if nodes == 1 {
            "all_nodes_lost"
        } else {
            "node_loss"
        };
        assert_incident(&report, expected, &label);
        assert!(
            report.telemetry.counter(names::sched::NODE_FAILURES) >= 1,
            "{label}: the probe misses must evict the node"
        );
        assert!(
            report.telemetry.counter(names::health::PROBE_TIMEOUTS) >= 3,
            "{label}: the eviction must come from the probe walk"
        );
        assert_eq!(
            report.telemetry.counter(names::health::REJOINS),
            1,
            "{label}: the healed node must resync exactly once"
        );
    }
}

#[test]
fn total_pool_loss_falls_back_locally_and_recovers() {
    for (i, nodes) in [1usize, 2, 4].into_iter().enumerate() {
        let label = format!("all-dead, {nodes} node(s)");
        let report = run_twice(
            nodes,
            13_000 + i as u64,
            all_dead_then_recover(nodes),
            &label,
        );
        assert!(
            report.telemetry.counter(names::session::FRAMES_LOCAL) > 0,
            "{label}: the outage must be carried by local rendering"
        );
        assert_eq!(
            report
                .telemetry
                .counter(names::health::FALLBACK_ENGAGEMENTS),
            1,
            "{label}: one engagement, one release — no oscillation"
        );
        assert_eq!(
            report.telemetry.counter(names::health::REJOINS),
            nodes as u64,
            "{label}: every node must rejoin via resync"
        );
        // Offloading must actually resume after the recovery: local
        // frames cover the outage, not the remainder of the session.
        assert!(
            report.telemetry.counter(names::session::FRAMES_LOCAL) < report.frames,
            "{label}: offloading must resume after recovery"
        );
        // The highest-ranked fault wins the first dump: a total pool
        // loss, not the per-node losses it subsumes.
        let dump = report
            .flight
            .as_ref()
            .expect("total pool loss must trigger a flight dump");
        assert_eq!(
            dump.fault,
            Fault::AllNodesLost,
            "{label}: total loss must outrank its symptoms"
        );
        assert!(
            report.telemetry.gauge(names::health::FALLBACK_SECS) > 0.0,
            "{label}: time-in-fallback must be accounted"
        );
        assert_incident(&report, "all_nodes_lost", &label);
    }
}

#[test]
fn capability_brownout_opens_a_node_degraded_incident() {
    let faults = FaultInjection {
        node_events: vec![NodeEvent::Degrade {
            frame: 40,
            node: 0,
            factor: 0.5,
        }],
        ..FaultInjection::default()
    };
    let label = "degrade, 2 nodes";
    let report = run_twice(2, 14_000, faults, label);
    let kinds: Vec<&str> = report.ops.incidents.iter().map(|i| i.kind).collect();
    assert_eq!(
        kinds.len(),
        1,
        "{label}: exactly one correlated incident, got {kinds:?}"
    );
    // A brownout moves no health state (the node stays responsive), so
    // the incident carries no transitions — just the degradation event
    // and whatever the burn windows did around it.
    assert_eq!(report.ops.incidents[0].kind, "node_degraded", "{label}");
    assert!(
        !report.ops.incidents[0].attribution.is_empty(),
        "{label}: attribution must move over the violation window"
    );
}

/// Fabric chaos: kill a pool node with 64 sessions in flight. Every
/// session either re-dispatches its orphaned work to a survivor or
/// falls back to its own GPU, exactly one incident is opened per
/// admitted tenant, presentation stays gapless everywhere, and the
/// whole disaster replays byte-for-byte.
#[test]
fn node_kill_under_sixty_four_sessions_recovers_every_tenant() {
    use gbooster::core::fabric::{FabricConfig, PoolEvent, SessionManager};
    use gbooster::sim::time::{SimDuration, SimTime};

    let mut cfg = FabricConfig::uniform(
        64,
        vec![
            DeviceSpec::nvidia_shield(),
            DeviceSpec::dell_optiplex_9010(),
        ],
        64_001,
    );
    cfg.duration = SimDuration::from_secs(4);
    // Light streams so a two-node pool admits all 64 sessions.
    for t in &mut cfg.tenants {
        t.fps = 10.0;
    }
    cfg.events.push(PoolEvent::Kill {
        at: SimTime::from_secs(2),
        node: 0,
    });
    let label = "fabric kill, 64 sessions";

    let report = SessionManager::run(&cfg).unwrap();
    let replay = SessionManager::run(&cfg).unwrap();
    assert_eq!(
        report.slo_json(),
        replay.slo_json(),
        "{label}: chaos must replay byte-for-byte"
    );

    assert_eq!(report.admitted, 64, "{label}: the pool must admit all 64");
    // Exactly one incident per admitted tenant, all node-loss.
    assert_eq!(report.incidents.len(), 64, "{label}");
    for t in &report.tenants {
        assert_eq!(t.incidents, 1, "{label}: t{} incident count", t.tenant);
    }
    assert!(
        report
            .incidents
            .iter()
            .all(|i| i.kind == "node_loss" && i.at == SimTime::from_secs(2)),
        "{label}: a survivor remains, so incidents are node-loss"
    );
    assert_eq!(
        report.telemetry.counter(names::fabric::INCIDENTS),
        64,
        "{label}"
    );

    // Every orphaned frame re-dispatched (one node: at most one frame
    // was in service at the kill) and every session stayed gapless —
    // remotely on the survivor or locally on its own GPU.
    assert!(report.redispatches >= 1, "{label}: orphan must re-dispatch");
    for t in &report.tenants {
        assert_eq!(
            t.frames_presented, t.frames_issued,
            "{label}: t{} dropped frames",
            t.tenant
        );
        assert!(t.gapless, "{label}: t{} presented out of order", t.tenant);
    }
    let total_local: u64 = report.tenants.iter().map(|t| t.frames_local).sum();
    let total_remote: u64 = report.frames_presented - total_local;
    assert!(
        total_remote > 0,
        "{label}: the surviving node must keep serving"
    );
}

/// Fabric chaos, total pool loss: killing every node flips all 64
/// sessions to local rendering with a pool-lost incident each, and the
/// pool's recovery lets sessions resume remote service.
#[test]
fn total_pool_loss_flips_every_fabric_session_local_then_recovers() {
    use gbooster::core::fabric::{FabricConfig, PoolEvent, SessionManager};
    use gbooster::sim::time::{SimDuration, SimTime};

    let mut cfg = FabricConfig::uniform(
        64,
        vec![
            DeviceSpec::nvidia_shield(),
            DeviceSpec::dell_optiplex_9010(),
        ],
        64_002,
    );
    cfg.duration = SimDuration::from_secs(4);
    for t in &mut cfg.tenants {
        t.fps = 10.0;
    }
    cfg.events.push(PoolEvent::Kill {
        at: SimTime::from_secs(1),
        node: 0,
    });
    cfg.events.push(PoolEvent::Kill {
        at: SimTime::from_secs(1),
        node: 1,
    });
    cfg.events.push(PoolEvent::Revive {
        at: SimTime::from_secs(2),
        node: 0,
    });
    let label = "fabric pool loss, 64 sessions";

    let report = SessionManager::run(&cfg).unwrap();
    let replay = SessionManager::run(&cfg).unwrap();
    assert_eq!(report.slo_json(), replay.slo_json(), "{label}");

    // Two kills → two incidents per tenant; the second is pool-lost.
    assert_eq!(report.incidents.len(), 128, "{label}");
    assert!(
        report.incidents.iter().any(|i| i.kind == "pool_lost"),
        "{label}: the second kill empties the pool"
    );
    for t in &report.tenants {
        assert_eq!(t.incidents, 2, "{label}: t{}", t.tenant);
        assert_eq!(
            t.frames_presented, t.frames_issued,
            "{label}: t{}",
            t.tenant
        );
        assert!(t.gapless, "{label}: t{}", t.tenant);
        assert!(
            t.frames_local > 0,
            "{label}: t{} must bridge the outage locally",
            t.tenant
        );
    }
    // Remote service resumes after the revival.
    let total_local: u64 = report.tenants.iter().map(|t| t.frames_local).sum();
    assert!(
        report.frames_presented > total_local,
        "{label}: offloading must resume once node 0 rejoins"
    );
}

/// A two-node 64-session fabric config shared by the migration chaos
/// matrix: light 10 fps streams so admission takes everyone.
fn migration_fabric(seed: u64) -> gbooster::core::fabric::FabricConfig {
    use gbooster::core::fabric::FabricConfig;
    use gbooster::sim::time::SimDuration;
    let mut cfg = FabricConfig::uniform(
        64,
        vec![
            DeviceSpec::nvidia_shield(),
            DeviceSpec::dell_optiplex_9010(),
        ],
        seed,
    );
    cfg.duration = SimDuration::from_secs(4);
    for t in &mut cfg.tenants {
        t.fps = 10.0;
    }
    cfg
}

/// Migration acceptance: force-drain the busiest node of a 64-session
/// three-node fabric mid-run. Every homed session live-migrates to the
/// survivors with zero presented-frame gaps, every migrated tenant
/// still meets its SLO, and the whole run replays byte-for-byte.
#[test]
fn forced_drain_of_the_busiest_node_migrates_every_session_gapless() {
    use gbooster::core::fabric::{FabricConfig, SessionManager};
    use gbooster::sim::time::{SimDuration, SimTime};

    let mut cfg = FabricConfig::uniform(
        64,
        vec![
            DeviceSpec::nvidia_shield(),
            DeviceSpec::dell_optiplex_9010(),
            DeviceSpec::dell_m4600(),
        ],
        64_003,
    );
    cfg.duration = SimDuration::from_secs(4);
    for t in &mut cfg.tenants {
        t.fps = 10.0;
    }
    // Node 0 (the Shield) is the pool's fastest and therefore busiest.
    cfg.drain_node(SimTime::from_secs(2), 0);
    let label = "fabric drain, 64 sessions";

    let report = SessionManager::run(&cfg).unwrap();
    let replay = SessionManager::run(&cfg).unwrap();
    assert_eq!(report.slo_json(), replay.slo_json(), "{label}");

    assert_eq!(report.admitted, 64, "{label}");
    assert!(
        !report.migrations.is_empty(),
        "{label}: the drained node must hand off its homed sessions"
    );
    for m in &report.migrations {
        assert_eq!(m.from, 0, "{label}");
        assert_ne!(m.to, 0, "{label}: nothing may land back on the drain");
        assert!(m.completed.is_some() && !m.aborted, "{label}: {m:?}");
        assert_eq!(m.reason, "operator_drain", "{label}");
    }
    // Max-min fair assignment spreads the wave over both survivors.
    for dest in [1usize, 2] {
        assert!(
            report.migrations.iter().any(|m| m.to == dest),
            "{label}: survivor {dest} must absorb part of the wave"
        );
    }
    assert_eq!(
        report.migration_blackout_ms, 0.0,
        "{label}: cutover must not black out presentation"
    );
    assert!(report.migrate_bytes > 0, "{label}: snapshots ship bytes");
    for t in &report.tenants {
        assert_eq!(
            t.frames_presented, t.frames_issued,
            "{label}: t{}",
            t.tenant
        );
        assert!(t.gapless, "{label}: t{}", t.tenant);
    }
    let migrated: Vec<u32> = report.migrations.iter().map(|m| m.tenant).collect();
    for t in report
        .tenants
        .iter()
        .filter(|t| migrated.contains(&t.tenant))
    {
        assert!(
            t.slo_met,
            "{label}: migrated t{} must stay at SLO",
            t.tenant
        );
    }
    // A planned drain opens no incidents and folds nothing.
    assert!(report.incidents.is_empty(), "{label}");
    assert_eq!(report.incidents_folded, 0, "{label}");
    // Migration bytes ride the uplink: per-tenant sums still reconcile.
    let up: u64 = report.tenants.iter().map(|t| t.uplink_bytes).sum();
    assert_eq!(up, report.pool_uplink_bytes, "{label}");
}

/// Migrate under loss: the same drain on a lossy link. Transfers eat
/// retransmission bursts but still cut over, presentation stays
/// gapless, and the lossy run replays byte-for-byte.
#[test]
fn migration_under_loss_still_cuts_over_gapless_and_reproducibly() {
    use gbooster::core::fabric::SessionManager;
    use gbooster::sim::time::SimTime;

    let mut cfg = migration_fabric(64_004);
    cfg.loss_scale = 1.0;
    cfg.drain_node(SimTime::from_secs(2), 0);
    let label = "fabric drain under loss";

    let report = SessionManager::run(&cfg).unwrap();
    let replay = SessionManager::run(&cfg).unwrap();
    assert_eq!(report.slo_json(), replay.slo_json(), "{label}");

    assert!(!report.migrations.is_empty(), "{label}");
    for m in &report.migrations {
        assert!(m.completed.is_some() && !m.aborted, "{label}: {m:?}");
    }
    assert_eq!(report.migration_blackout_ms, 0.0, "{label}");
    for t in &report.tenants {
        assert_eq!(
            t.frames_presented, t.frames_issued,
            "{label}: t{}",
            t.tenant
        );
        assert!(t.gapless, "{label}: t{}", t.tenant);
    }
}

/// Migrate during fallback recovery: the pool dies entirely (all
/// sessions flip local), revives, then one node is drained. Sessions
/// re-home onto the revived pool and the drain migrates all of them to
/// the other node without a gap.
#[test]
fn drain_after_total_loss_recovery_migrates_the_rehomed_sessions() {
    use gbooster::core::fabric::{PoolEvent, SessionManager};
    use gbooster::sim::time::SimTime;

    let mut cfg = migration_fabric(64_005);
    cfg.events.push(PoolEvent::Kill {
        at: SimTime::from_secs(1),
        node: 0,
    });
    cfg.events.push(PoolEvent::Kill {
        at: SimTime::from_secs(1),
        node: 1,
    });
    cfg.events.push(PoolEvent::Revive {
        at: SimTime::from_secs(2),
        node: 0,
    });
    cfg.events.push(PoolEvent::Revive {
        at: SimTime::from_secs(2),
        node: 1,
    });
    cfg.drain_node(SimTime::from_secs(3), 0);
    let label = "drain after pool recovery";

    let report = SessionManager::run(&cfg).unwrap();
    let replay = SessionManager::run(&cfg).unwrap();
    assert_eq!(report.slo_json(), replay.slo_json(), "{label}");

    // Every session re-homed onto node 0 at its revival, so the drain
    // must move all 64 to node 1.
    assert_eq!(report.migrations.len(), 64, "{label}");
    for m in &report.migrations {
        assert_eq!((m.from, m.to), (0, 1), "{label}");
        assert!(m.completed.is_some() && !m.aborted, "{label}: {m:?}");
    }
    assert_eq!(report.migration_blackout_ms, 0.0, "{label}");
    for t in &report.tenants {
        assert_eq!(
            t.frames_presented, t.frames_issued,
            "{label}: t{}",
            t.tenant
        );
        assert!(t.gapless, "{label}: t{}", t.tenant);
        // The two kills opened exactly two incidents; the planned
        // drain added none.
        assert_eq!(t.incidents, 2, "{label}: t{}", t.tenant);
    }
}

/// Kill the destination mid-migration with a third node standing by:
/// in-flight transfers retarget to the remaining survivor, re-ship the
/// snapshot, and still cut over gapless.
#[test]
fn killing_the_destination_mid_migration_retargets_to_a_survivor() {
    use gbooster::core::fabric::{FabricConfig, PoolEvent, SessionManager};
    use gbooster::sim::time::{SimDuration, SimTime};

    let mut cfg = FabricConfig::uniform(
        48,
        vec![
            DeviceSpec::nvidia_shield(),
            DeviceSpec::dell_optiplex_9010(),
            DeviceSpec::dell_m4600(),
        ],
        64_006,
    );
    cfg.duration = SimDuration::from_secs(4);
    for t in &mut cfg.tenants {
        t.fps = 10.0;
    }
    cfg.drain_node(SimTime::from_secs(2), 0);
    // Same instant as the drain, but a later event index: the drain
    // processes first, so the kill lands while every transfer headed
    // to node 1 is still in flight.
    cfg.events.push(PoolEvent::Kill {
        at: SimTime::from_secs(2),
        node: 1,
    });
    let label = "destination killed mid-migration";

    let report = SessionManager::run(&cfg).unwrap();
    let replay = SessionManager::run(&cfg).unwrap();
    assert_eq!(report.slo_json(), replay.slo_json(), "{label}");

    assert!(
        report.migrate_retargets > 0,
        "{label}: transfers toward node 1 must retarget"
    );
    assert_eq!(report.migrate_aborted, 0, "{label}: node 2 absorbs them");
    for m in &report.migrations {
        assert!(m.completed.is_some() && !m.aborted, "{label}: {m:?}");
        assert_ne!(m.to, 1, "{label}: nothing may land on the dead node");
    }
    assert_eq!(report.migration_blackout_ms, 0.0, "{label}");
    for t in &report.tenants {
        assert_eq!(
            t.frames_presented, t.frames_issued,
            "{label}: t{}",
            t.tenant
        );
        assert!(t.gapless, "{label}: t{}", t.tenant);
    }
}

/// Kill the only destination mid-migration: with no survivor left the
/// migration stalls — sessions stay homed on the source, the aborted
/// counter ticks, and the flight recorder emits a `MigrationStalled`
/// postmortem. Presentation still never gaps: the source keeps serving.
#[test]
fn killing_the_only_destination_stalls_the_migration_with_a_postmortem() {
    use gbooster::core::fabric::{PoolEvent, SessionManager};
    use gbooster::sim::time::SimTime;

    let mut cfg = migration_fabric(64_007);
    cfg.drain_node(SimTime::from_secs(2), 0);
    // Same instant, later event index: the kill fires while all 64
    // transfers to the pool's only other node are in flight.
    cfg.events.push(PoolEvent::Kill {
        at: SimTime::from_secs(2),
        node: 1,
    });
    let label = "destination killed, no survivor";

    let report = SessionManager::run(&cfg).unwrap();
    let replay = SessionManager::run(&cfg).unwrap();
    assert_eq!(report.slo_json(), replay.slo_json(), "{label}");

    assert!(report.migrate_aborted > 0, "{label}: migrations must stall");
    assert!(
        report.migrations.iter().all(|m| m.completed.is_none()),
        "{label}: no cutover may fire after the destination died"
    );
    assert_eq!(
        report.flight.len(),
        1,
        "{label}: the stall emits one postmortem"
    );
    assert_eq!(report.flight[0].fault, Fault::MigrationStalled, "{label}");
    for t in &report.tenants {
        assert_eq!(
            t.frames_presented, t.frames_issued,
            "{label}: t{}",
            t.tenant
        );
        assert!(t.gapless, "{label}: t{}", t.tenant);
    }
}

/// Satellite audit, exactly-one-incident: a thermal brownout opens one
/// `node_degraded` incident per admitted tenant; the rebalancer's
/// subsequent drain-and-migrate folds into that incident instead of
/// opening one per migrated tenant.
#[test]
fn rebalancer_drain_folds_into_the_open_degradation_incident() {
    use gbooster::core::fabric::{PoolEvent, SessionManager};
    use gbooster::core::rebalance::RebalancePolicy;
    use gbooster::sim::time::SimTime;

    let mut cfg = migration_fabric(64_008);
    // A 20x brownout pins the Shield near 77 % duty at this workload;
    // set the thermal gate below that so the policy loop fires.
    cfg.rebalance = Some(RebalancePolicy {
        thermal_enter: 0.70,
        thermal_exit: 0.50,
    });
    cfg.events.push(PoolEvent::Degrade {
        at: SimTime::from_secs(1),
        node: 0,
        factor: 0.05,
    });
    let label = "degrade then rebalance";

    let report = SessionManager::run(&cfg).unwrap();
    let replay = SessionManager::run(&cfg).unwrap();
    assert_eq!(report.slo_json(), replay.slo_json(), "{label}");

    // The brownout pins node 0's duty cycle; the policy loop must
    // notice and drain it.
    assert!(
        !report.migrations.is_empty(),
        "{label}: the rebalancer must drain the throttling node"
    );
    for m in &report.migrations {
        assert_eq!(m.from, 0, "{label}");
        assert_eq!(m.reason, "rebalance", "{label}");
        assert!(m.completed.is_some() && !m.aborted, "{label}: {m:?}");
    }
    // Exactly one incident per admitted tenant — the degradation. The
    // migration wave folded into it.
    assert_eq!(report.incidents.len(), 64, "{label}");
    assert!(
        report.incidents.iter().all(|i| i.kind == "node_degraded"),
        "{label}"
    );
    for t in &report.tenants {
        assert_eq!(t.incidents, 1, "{label}: t{}", t.tenant);
        assert_eq!(
            t.frames_presented, t.frames_issued,
            "{label}: t{}",
            t.tenant
        );
        assert!(t.gapless, "{label}: t{}", t.tenant);
    }
    assert_eq!(
        report.incidents_folded,
        report.migrations.len() as u64,
        "{label}: every rebalance migration folds into the open incident"
    );
    assert_eq!(report.migration_blackout_ms, 0.0, "{label}");
}

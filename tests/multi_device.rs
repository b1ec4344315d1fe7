//! Deterministic simulation suite for the pipelined multi-device
//! offload path (Section V-C dispatch, Section VI-B replication).
//!
//! A 12-scenario matrix — {1, 2, 4} service nodes × {clean, lossy}
//! channel × {fast, slow} device pool — each run twice from the same
//! seed. Every scenario must present frames strictly in order with no
//! gaps, drop nothing, keep the GL replicas bit-identical, and
//! reproduce byte-for-byte on the second run. Run with
//! `--test-threads=1` in CI to keep failure output readable; the
//! sessions themselves are pure simulations and share no state.

use gbooster::core::config::{ExecutionMode, OffloadConfig, SessionConfig};
use gbooster::core::session::{Session, SessionReport};
use gbooster::sim::device::DeviceSpec;
use gbooster::telemetry::names;
use gbooster::workload::games::GameTitle;

/// The service pool for a scenario: `fast` draws from the heterogeneous
/// high-end pool (Table I), `slow` is a homogeneous set of the weakest
/// service device.
fn pool(nodes: usize, fast: bool) -> Vec<DeviceSpec> {
    if fast {
        let all = [
            DeviceSpec::nvidia_shield(),
            DeviceSpec::dell_optiplex_9010(),
            DeviceSpec::dell_optiplex_9010(),
            DeviceSpec::dell_m4600(),
        ];
        all[..nodes].to_vec()
    } else {
        vec![DeviceSpec::minix_neo_u1(); nodes]
    }
}

fn scenario(nodes: usize, lossy: bool, fast: bool) -> SessionConfig {
    // Seed varies per scenario so no two share a random stream shape.
    let seed = 9_000 + (nodes as u64) * 100 + (lossy as u64) * 10 + (fast as u64);
    SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
        .duration_secs(6)
        .seed(seed)
        .mode(ExecutionMode::Offloaded(OffloadConfig {
            service_devices: pool(nodes, fast),
            loss_scale: if lossy { 4.0 } else { 1.0 },
            ..OffloadConfig::default()
        }))
        .build()
}

/// The invariants every scenario must uphold, regardless of pool size,
/// loss, or device speed.
fn assert_invariants(report: &SessionReport, label: &str) {
    assert!(report.frames > 0, "{label}: session must present frames");

    // In-order presentation with no gaps: the trace log records frames
    // in display order, and seqs must be exactly 0..frames.
    let seqs: Vec<u64> = report.trace.frames().iter().map(|f| f.seq).collect();
    assert_eq!(
        seqs.len() as u64,
        report.frames,
        "{label}: one trace per frame"
    );
    for (i, &seq) in seqs.iter().enumerate() {
        assert_eq!(
            seq, i as u64,
            "{label}: presentation must be gapless and in order"
        );
    }

    // Zero dropped frames: every dispatched request was presented.
    assert_eq!(
        report.telemetry.counter(names::sched::REQUESTS),
        report.frames,
        "{label}: every dispatch must come back"
    );
    let per_node: u64 = report.per_device_requests.iter().sum();
    assert_eq!(
        per_node, report.frames,
        "{label}: per-node counts must cover all frames"
    );

    // Replication safety: all replicas bit-identical at session end.
    assert!(report.state_consistent, "{label}: GL replicas must agree");

    // No faults fired, no orphan spans: the pipeline is clean.
    assert!(report.flight.is_none(), "{label}: no fault should fire");
    assert_eq!(
        report.telemetry.counter(names::tracing::ORPHAN_SPANS),
        0,
        "{label}: every remote span must stitch"
    );
}

/// Two runs from the same config must be byte-identical: same frame
/// traces, same scheduling, same scalar outcomes.
fn assert_reproducible(a: &SessionReport, b: &SessionReport, label: &str) {
    assert_eq!(
        a.frame_trace_jsonl(),
        b.frame_trace_jsonl(),
        "{label}: frame traces must be byte-identical across runs"
    );
    assert_eq!(a.frames, b.frames, "{label}");
    assert_eq!(a.per_device_requests, b.per_device_requests, "{label}");
    assert_eq!(a.median_fps.to_bits(), b.median_fps.to_bits(), "{label}");
    assert_eq!(
        a.response_time_ms.to_bits(),
        b.response_time_ms.to_bits(),
        "{label}"
    );
    assert_eq!(a.uplink_bytes, b.uplink_bytes, "{label}");
    assert_eq!(a.downlink_bytes, b.downlink_bytes, "{label}");
}

fn run_matrix(nodes: usize) {
    for lossy in [false, true] {
        for fast in [false, true] {
            let label = format!(
                "{nodes} node(s), {} channel, {} pool",
                if lossy { "lossy" } else { "clean" },
                if fast { "fast" } else { "slow" }
            );
            let config = scenario(nodes, lossy, fast);
            let first = Session::run(&config);
            assert_invariants(&first, &label);
            assert_eq!(first.per_device_requests.len(), nodes, "{label}");
            let second = Session::run(&config);
            assert_reproducible(&first, &second, &label);
        }
    }
}

#[test]
fn single_device_scenarios_are_ordered_lossless_and_reproducible() {
    run_matrix(1);
}

#[test]
fn two_device_scenarios_are_ordered_lossless_and_reproducible() {
    run_matrix(2);
}

#[test]
fn four_device_scenarios_are_ordered_lossless_and_reproducible() {
    run_matrix(4);
}

/// With more than one node in a heterogeneous pool, the Eq. 4 scorer
/// must actually spread load — a pipeline that funnels everything to
/// one node isn't exercising multi-device dispatch at all.
#[test]
fn heterogeneous_pools_spread_load_across_nodes() {
    for nodes in [2usize, 4] {
        let report = Session::run(&scenario(nodes, false, true));
        let busy = report
            .per_device_requests
            .iter()
            .filter(|&&n| n > 0)
            .count();
        assert!(
            busy >= 2,
            "{nodes} nodes: expected ≥2 busy nodes, got counts {:?}",
            report.per_device_requests
        );
    }
}

/// A lossy channel costs time, never frames: the lossy run presents in
/// order just like the clean one, only slower end-to-end.
#[test]
fn loss_degrades_latency_not_delivery() {
    let clean = Session::run(&scenario(2, false, true));
    let lossy = Session::run(&scenario(2, true, true));
    assert!(lossy.response_time_ms > clean.response_time_ms);
    assert_eq!(
        lossy.telemetry.counter(names::sched::REQUESTS),
        lossy.frames,
        "loss must never drop a frame"
    );
}

/// Multicast hands every replica the same bytes, so the engine decodes
/// each forwarded frame once — not once per replica plus once for the
/// phone-side reference — and the apply-only replicas still end on the
/// reference state.
#[test]
fn each_forwarded_frame_is_decoded_once_for_all_replicas() {
    let report = Session::run(&scenario(4, true, true));
    assert_eq!(report.per_device_requests.len(), 4);
    let profile = report
        .host_profile
        .as_ref()
        .expect("offloaded sessions carry a host profile");
    let calls = |leaf: &str| -> u64 {
        profile
            .paths
            .iter()
            .filter(|p| p.leaf() == leaf)
            .map(|p| p.calls)
            .sum()
    };
    let forwarded = calls(names::host::FORWARD);
    assert!(forwarded > report.frames, "setup stream plus every frame");
    assert_eq!(
        calls(names::host::GLES_DECODE),
        forwarded,
        "one decode per forwarded frame"
    );
    assert!(
        report.state_consistent,
        "every replica must end on the reference state"
    );
}

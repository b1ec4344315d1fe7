//! End-to-end integration tests spanning every crate: the paper's
//! headline claims, exercised through the full session engine.

use gbooster::core::config::{ExecutionMode, OffloadConfig, SessionConfig};
use gbooster::core::session::{Session, SessionReport};
use gbooster::sim::device::DeviceSpec;
use gbooster::telemetry::names;
use gbooster::workload::apps::AppTitle;
use gbooster::workload::games::GameTitle;

const SECS: u64 = 30;

fn local(game: GameTitle, dev: DeviceSpec) -> SessionReport {
    Session::run(
        &SessionConfig::builder(game, dev)
            .duration_secs(SECS)
            .seed(99)
            .build(),
    )
}

fn offloaded(game: GameTitle, dev: DeviceSpec) -> SessionReport {
    Session::run(
        &SessionConfig::builder(game, dev)
            .duration_secs(SECS)
            .seed(99)
            .mode(ExecutionMode::Offloaded(OffloadConfig::default()))
            .build(),
    )
}

#[test]
fn abstract_claim_fps_boost_up_to_85_percent() {
    // "it can boost applications' frame rates by up to 85%"
    let mut best = 0.0f64;
    for game in [
        GameTitle::g1_gta_san_andreas(),
        GameTitle::g2_modern_combat(),
    ] {
        let l = local(game.clone(), DeviceSpec::nexus5());
        let o = offloaded(game, DeviceSpec::nexus5());
        best = best.max(o.median_fps / l.median_fps - 1.0);
    }
    assert!(
        best > 0.5,
        "best action boost {best:.2}, paper reports up to 0.85"
    );
}

#[test]
fn abstract_claim_energy_saving() {
    // "GBooster can preserve up to 70% energy compared with local
    // execution" — our simulated stack preserves >= 40%.
    let l = local(GameTitle::g2_modern_combat(), DeviceSpec::nexus5());
    let o = offloaded(GameTitle::g2_modern_combat(), DeviceSpec::nexus5());
    let saving = 1.0 - o.normalized_energy(&l);
    assert!(saving > 0.4, "action energy saving {saving:.2}");
}

#[test]
fn genre_ordering_of_benefit() {
    // Action gains the most FPS, puzzle the least (Section VII-B).
    let gain = |game: GameTitle| {
        let l = local(game.clone(), DeviceSpec::nexus5());
        let o = offloaded(game, DeviceSpec::nexus5());
        o.median_fps - l.median_fps
    };
    let action = gain(GameTitle::g2_modern_combat());
    let rpg = gain(GameTitle::g3_star_wars());
    let puzzle = gain(GameTitle::g5_candy_crush());
    assert!(
        action > puzzle + 5.0,
        "action {action:.1} vs puzzle {puzzle:.1}"
    );
    assert!(rpg > puzzle, "rpg {rpg:.1} vs puzzle {puzzle:.1}");
}

#[test]
fn offloading_restores_fps_stability() {
    // Local action play destabilizes once the GPU throttles; the
    // actively-cooled service device does not (Section VII-B).
    let l = local(GameTitle::g1_gta_san_andreas(), DeviceSpec::nexus5());
    let o = offloaded(GameTitle::g1_gta_san_andreas(), DeviceSpec::nexus5());
    assert!(
        l.stability < 0.80,
        "local stability {:.2} (paper: 60%)",
        l.stability
    );
    assert!(
        o.stability > l.stability + 0.05,
        "offloaded stability {:.2} must beat local {:.2} (paper: 75% vs 60%)",
        o.stability,
        l.stability
    );
}

#[test]
fn new_generation_phone_barely_benefits() {
    let l = local(GameTitle::g2_modern_combat(), DeviceSpec::lg_g5());
    let o = offloaded(GameTitle::g2_modern_combat(), DeviceSpec::lg_g5());
    assert!(
        (o.median_fps - l.median_fps).abs() < 8.0,
        "LG G5: {:.1} -> {:.1}",
        l.median_fps,
        o.median_fps
    );
    assert!(
        o.response_time_ms > l.response_time_ms,
        "response must rise when there is no FPS headroom to win back"
    );
}

#[test]
fn response_time_stays_below_human_threshold() {
    // "the average response time for human being is generally above
    // 100 ms" — every offloaded game must stay well below it.
    for game in GameTitle::corpus() {
        let o = offloaded(game.clone(), DeviceSpec::nexus5());
        assert!(
            o.response_time_ms < 60.0,
            "{} response {:.1} ms",
            game.id,
            o.response_time_ms
        );
    }
}

#[test]
fn cloud_baseline_matches_section_7f() {
    let report = Session::run(
        &SessionConfig::builder(GameTitle::g1_gta_san_andreas(), DeviceSpec::nexus5())
            .duration_secs(SECS)
            .seed(99)
            .mode(ExecutionMode::Cloud)
            .build(),
    );
    assert!(
        (report.median_fps - 30.0).abs() <= 2.0,
        "fps {}",
        report.median_fps
    );
    assert!(
        (120.0..=260.0).contains(&report.response_time_ms),
        "cloud response {:.0} ms (paper ~150)",
        report.response_time_ms
    );
}

#[test]
fn interface_switching_saves_radio_energy() {
    let game = GameTitle::g3_star_wars(); // borderline demand: switching matters
    let with = offloaded(game.clone(), DeviceSpec::nexus5());
    let without = Session::run(
        &SessionConfig::builder(game, DeviceSpec::nexus5())
            .duration_secs(SECS)
            .seed(99)
            .mode(ExecutionMode::Offloaded(OffloadConfig {
                interface_switching: false,
                ..OffloadConfig::default()
            }))
            .build(),
    );
    assert!(
        without.energy.radio_joules() > with.energy.radio_joules(),
        "switching {:.1} J vs always-wifi {:.1} J",
        with.energy.radio_joules(),
        without.energy.radio_joules()
    );
    assert!(with.bt_bytes > 0, "switching must actually use Bluetooth");
}

#[test]
fn multi_device_scaling_saturates_at_buffer_depth() {
    let fps_at = |n: usize| {
        let pool = [
            DeviceSpec::nvidia_shield(),
            DeviceSpec::dell_optiplex_9010(),
            DeviceSpec::dell_m4600(),
            DeviceSpec::minix_neo_u1(),
        ];
        let report = Session::run(
            &SessionConfig::builder(GameTitle::g1_gta_san_andreas(), DeviceSpec::nexus5())
                .duration_secs(SECS)
                .seed(99)
                .mode(ExecutionMode::Offloaded(OffloadConfig {
                    service_devices: pool[..n].to_vec(),
                    ..OffloadConfig::default()
                }))
                .build(),
        );
        assert!(report.state_consistent);
        report.median_fps
    };
    let one = fps_at(1);
    let three = fps_at(3);
    let four = fps_at(4);
    assert!(
        three > one,
        "3 devices {three:.1} must beat 1 device {one:.1}"
    );
    assert!(
        (four - three).abs() <= 4.0,
        "4th device must not help: {three:.1} vs {four:.1}"
    );
}

#[test]
fn non_gaming_apps_table3() {
    for app in AppTitle::all() {
        let l = Session::run(
            &SessionConfig::builder(app.clone(), DeviceSpec::nexus5())
                .duration_secs(SECS)
                .seed(99)
                .build(),
        );
        let o = Session::run(
            &SessionConfig::builder(app.clone(), DeviceSpec::nexus5())
                .duration_secs(SECS)
                .seed(99)
                .mode(ExecutionMode::Offloaded(OffloadConfig::default()))
                .build(),
        );
        assert!(
            (o.median_fps - l.median_fps).abs() < 6.0,
            "{}: no FPS boost expected",
            app.name
        );
        let norm = o.normalized_energy(&l);
        assert!(
            (0.80..1.0).contains(&norm),
            "{}: normalized energy {norm:.2} (paper ~0.92-0.94)",
            app.name
        );
    }
}

#[test]
fn sessions_are_bit_deterministic() {
    let cfg = SessionConfig::builder(GameTitle::g4_final_fantasy(), DeviceSpec::nexus5())
        .duration_secs(20)
        .seed(1234)
        .mode(ExecutionMode::Offloaded(OffloadConfig::default()))
        .build();
    let a = Session::run(&cfg);
    let b = Session::run(&cfg);
    assert_eq!(a.median_fps, b.median_fps);
    assert_eq!(a.uplink_bytes, b.uplink_bytes);
    assert_eq!(a.downlink_bytes, b.downlink_bytes);
    assert_eq!(a.frames, b.frames);
    assert!((a.energy.total_joules() - b.energy.total_joules()).abs() < 1e-9);
}

#[test]
fn different_seeds_vary_but_stay_in_band() {
    let fps: Vec<f64> = (0..4)
        .map(|seed| {
            Session::run(
                &SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
                    .duration_secs(20)
                    .seed(seed)
                    .mode(ExecutionMode::Offloaded(OffloadConfig::default()))
                    .build(),
            )
            .median_fps
        })
        .collect();
    let min = fps.iter().cloned().fold(f64::MAX, f64::min);
    let max = fps.iter().cloned().fold(f64::MIN, f64::max);
    assert!(max - min < 10.0, "seed variance too high: {fps:?}");
    assert!(min > 30.0, "all seeds must show a solid boost: {fps:?}");
}

#[test]
fn offloaded_run_emits_one_root_span_per_displayed_frame() {
    let o = offloaded(GameTitle::g1_gta_san_andreas(), DeviceSpec::nexus5());
    assert_eq!(
        o.trace.len() as u64 + o.trace.dropped(),
        o.frames,
        "exactly one span tree per displayed frame"
    );
    assert!(!o.trace.is_empty());
    for frame in o.trace.frames() {
        let root = &frame.root;
        assert_eq!(root.name, names::stage::FRAME);
        // Eleven user-device stages plus the stitched remote subtree.
        assert_eq!(
            root.children.len(),
            names::stage::PIPELINE.len() + 1,
            "frame {} has {} stages",
            frame.seq,
            root.children.len()
        );
        for stage in names::stage::PIPELINE {
            let child = root
                .child(stage)
                .unwrap_or_else(|| panic!("frame {} missing stage {stage}", frame.seq));
            // Every stage nests inside its frame's root interval.
            assert!(child.start >= root.start && child.end <= root.end);
        }
        let remote = root
            .child(names::remote::SUBTREE)
            .unwrap_or_else(|| panic!("frame {} missing the remote subtree", frame.seq));
        assert_eq!(remote.children.len(), names::remote::STAGES.len());
        for span in &remote.children {
            assert!(span.start >= root.start && span.end <= root.end);
        }
    }
    // Sequence numbers are the display order, 0-based and strictly rising.
    for (i, frame) in o.trace.frames().iter().enumerate() {
        assert_eq!(frame.seq, i as u64);
    }
}

#[test]
fn telemetry_report_covers_the_acceptance_metrics() {
    let o = offloaded(GameTitle::g2_modern_combat(), DeviceSpec::nexus5());
    // The registry snapshot must expose every headline metric.
    let snap = &o.telemetry;
    assert!(
        snap.cache_hit_rate() > 0.5,
        "hit rate {}",
        snap.cache_hit_rate()
    );
    let ratio = snap.compression_ratio();
    assert!(ratio > 0.0 && ratio < 0.7, "compression ratio {ratio}");
    assert!(snap.retransmit_count() > 0, "expected-loss retransmits");
    for stage in names::stage::PIPELINE {
        let h = snap
            .histogram(stage)
            .unwrap_or_else(|| panic!("no histogram for {stage}"));
        assert_eq!(h.count(), o.frames, "{stage} must record every frame");
        assert!(h.p50_ms() <= h.p90_ms() && h.p90_ms() <= h.p99_ms());
    }
    // JSONL trace: one line per retained frame, each a frame object.
    let jsonl = o.frame_trace_jsonl();
    assert_eq!(jsonl.lines().count(), o.trace.len());
    assert!(jsonl.starts_with("{\"seq\":0,"));
    // Human-readable report mentions the derived metrics.
    let report = o.telemetry_report();
    for needle in [
        "cache hit rate",
        "compression ratio",
        "retransmits",
        "radio mispredictions",
        names::stage::UPLINK,
    ] {
        assert!(
            report.contains(needle),
            "report missing {needle:?}:\n{report}"
        );
    }
}

#[test]
fn exporters_render_both_devices_from_one_session() {
    let o = offloaded(GameTitle::g2_modern_combat(), DeviceSpec::nexus5());
    let chrome = gbooster::telemetry::chrome_trace(&o.trace);
    // Both device timelines are present: user spans on pid 1, the
    // stitched service spans on pid 2.
    assert!(chrome.contains("\"name\":\"user-device\""));
    assert!(chrome.contains("\"name\":\"service-device\""));
    assert!(chrome.contains("\"name\":\"stage.uplink\",\"ph\":\"X\""));
    assert!(chrome.contains("\"name\":\"remote.replay\",\"ph\":\"X\""));
    assert!(chrome.ends_with("\"displayTimeUnit\":\"ms\"}"));
    let prom = gbooster::telemetry::prometheus_text(&o.telemetry);
    for metric in [
        "# TYPE gbooster_trace_stitched_frames counter",
        "# TYPE gbooster_trace_clock_offset_us gauge",
        "# TYPE gbooster_remote_replay summary",
        "gbooster_remote_encode{quantile=\"0.99\"}",
        "gbooster_stage_uplink_count",
    ] {
        assert!(prom.contains(metric), "prometheus text missing {metric}");
    }
}

#[test]
fn memory_overhead_is_tens_of_megabytes() {
    let o = offloaded(GameTitle::g1_gta_san_andreas(), DeviceSpec::nexus5());
    assert!(
        (10.0..=100.0).contains(&o.extra_memory_mb),
        "memory {:.1} MB (paper 47.8 MB)",
        o.extra_memory_mb
    );
}

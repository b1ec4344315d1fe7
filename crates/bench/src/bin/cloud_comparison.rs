//! Section VII-F: comparison with the OnLive cloud-gaming platform —
//! 1280×720 at 30 FPS with ~150 ms response over a 10 Mbps Internet link,
//! versus GBooster's LAN offloading.

use gbooster_bench::{compare, header, run_offloaded, session_secs, SEED};
use gbooster_core::config::{ExecutionMode, SessionConfig};
use gbooster_core::session::Session;
use gbooster_sim::device::DeviceSpec;
use gbooster_workload::games::GameTitle;

fn main() {
    header("Section VII-F: GBooster versus cloud-based remote rendering");
    let nexus = DeviceSpec::nexus5();
    // The paper averages over ten platform titles; the platform streams
    // every genre at the same encoder settings, so genre barely matters.
    let mut cloud_fps = Vec::new();
    let mut cloud_resp = Vec::new();
    for game in GameTitle::corpus() {
        let report = Session::run(
            &SessionConfig::builder(game.clone(), nexus.clone())
                .duration_secs(session_secs())
                .seed(SEED)
                .mode(ExecutionMode::Cloud)
                .build(),
        );
        cloud_fps.push(report.median_fps);
        cloud_resp.push(report.response_time_ms);
    }
    let avg_fps = cloud_fps.iter().sum::<f64>() / cloud_fps.len() as f64;
    let avg_resp = cloud_resp.iter().sum::<f64>() / cloud_resp.len() as f64;

    let gb = run_offloaded(&GameTitle::g1_gta_san_andreas(), &nexus);
    println!(
        "cloud:    {:>5.1} fps, response {:>6.1} ms (1280x720, 10 Mbps Internet)",
        avg_fps, avg_resp
    );
    println!(
        "gbooster: {:>5.1} fps, response {:>6.1} ms (1280x720, in-home LAN)",
        gb.median_fps, gb.response_time_ms
    );
    println!();
    compare("cloud stream FPS", "capped at 30", &format!("{avg_fps:.0}"));
    compare(
        "cloud response time",
        "~150 ms",
        &format!("{avg_resp:.0} ms"),
    );
    compare(
        "response ratio (cloud / gbooster)",
        "almost 5x",
        &format!("{:.1}x", avg_resp / gb.response_time_ms),
    );
    assert!((avg_fps - 30.0).abs() <= 2.0);
    assert!(avg_resp > 100.0);
    assert!(avg_resp / gb.response_time_ms > 3.0);
}

//! Section V-A: traffic-redundancy elimination.
//!
//! Paper datapoints: unoptimized traffic ≈200 Mbps even at 600×480@25;
//! LZ4 reaches a 70 % compression ratio on command streams; Turbo encodes
//! at up to 90 MP/s with ratios up to 25:1 while x264 on ARM manages only
//! ~1 MP/s (vs the ~7 MP/s needed for real time).

use std::time::Instant;

use gbooster_bench::{compare, header, write_bench_json};
use gbooster_codec::stats::megapixels_per_sec;
use gbooster_codec::turbo::TurboEncoder;
use gbooster_codec::video::{EncoderHost, VideoEncoderModel};
use gbooster_codec::{lz4, CommandCache};
use gbooster_core::forward::CommandForwarder;
use gbooster_gles::serialize::encode_stream;
use gbooster_sim::rng::derived;
use gbooster_telemetry::{names, Registry};
use gbooster_workload::genre::GenreProfile;
use gbooster_workload::tracegen::TraceGenerator;
use rand::Rng;

fn main() {
    header("Section V-A: unoptimized traffic volume");
    // The paper's low-quality setting: 600x480 at 25 FPS.
    let (w, h, fps) = (600u32, 480u32, 25u64);
    // Serialized command bytes before caching and compression, as the
    // forwarder counts them; the setup stream is not counted.
    let mut gen = TraceGenerator::new(GenreProfile::action(), 1.0, w, h, 3);
    let mut fw = CommandForwarder::new();
    let setup = gen.setup_trace();
    fw.forward_frame(&setup.commands, gen.client_memory())
        .unwrap();
    let mut raw_cmd_bytes = 0usize;
    let frames = fps * 4;
    for _ in 0..frames {
        let frame = gen.next_frame(1.0 / fps as f64);
        raw_cmd_bytes += fw
            .forward_frame(&frame.commands, gen.client_memory())
            .unwrap()
            .raw_bytes;
    }
    // Raw frames going back: RGBA at full rate.
    let raw_image_bytes = (w as u64 * h as u64 * 4 * frames) as usize;
    let raw_mbps = (raw_cmd_bytes + raw_image_bytes) as f64 * 8.0 / 4.0 / 1e6;
    println!("raw commands + raw frames at 600x480@25: {raw_mbps:.0} Mbps");
    compare(
        "unoptimized traffic",
        "~200 Mbps",
        &format!("{raw_mbps:.0} Mbps"),
    );

    header("LZ4 on command streams");
    let mut gen = TraceGenerator::new(GenreProfile::action(), 1.0, 1280, 720, 5);
    gen.setup_trace();
    let mut total_raw = 0usize;
    let mut total_lz4 = 0usize;
    for _ in 0..60 {
        let frame = gen.next_frame(1.0 / 30.0);
        // Encode through the real wire format, then LZ4 alone (no cache),
        // matching the paper's isolated LZ4 measurement.
        let resolved: Vec<_> = frame
            .commands
            .iter()
            .filter(|c| !c.has_unresolved_pointer())
            .cloned()
            .collect();
        let encoded = encode_stream(&resolved).expect("resolved commands encode");
        total_raw += encoded.len();
        total_lz4 += lz4::compress(&encoded).len();
    }
    let lz4_ratio = total_lz4 as f64 / total_raw as f64;
    println!("command stream: {total_raw} B -> {total_lz4} B (ratio {lz4_ratio:.2})");
    compare(
        "LZ4 compression ratio",
        "70%",
        &format!("{:.0}%", lz4_ratio * 100.0),
    );
    // Within a couple of points of the paper's 70% — the exact value
    // tracks the generated command mix, which varies with the RNG stream.
    assert!(lz4_ratio <= 0.75, "lz4 ratio {lz4_ratio:.3}");

    header("LRU command cache + LZ4 (the full uplink pipeline)");
    // Numbers come from the telemetry registry the forwarder mirrors
    // into — the same counters the session engine reports.
    let registry = Registry::new();
    let mut gen = TraceGenerator::new(GenreProfile::action(), 1.0, 1280, 720, 5);
    let mut fw = CommandForwarder::new();
    fw.attach_registry(&registry);
    let setup = gen.setup_trace();
    fw.forward_frame(&setup.commands, gen.client_memory())
        .unwrap();
    let setup_snap = registry.snapshot();
    let (setup_raw, setup_wire) = (
        setup_snap.counter(names::forward::RAW_BYTES),
        setup_snap.counter(names::forward::WIRE_BYTES),
    );
    for _ in 0..60 {
        let frame = gen.next_frame(1.0 / 30.0);
        fw.forward_frame(&frame.commands, gen.client_memory())
            .unwrap();
    }
    let snap = registry.snapshot();
    let pipe_raw = snap.counter(names::forward::RAW_BYTES) - setup_raw;
    let pipe_wire = snap.counter(names::forward::WIRE_BYTES) - setup_wire;
    println!(
        "cache+lz4: {pipe_raw} B -> {pipe_wire} B (ratio {:.2}, hit rate {:.0}%, {} commands)",
        pipe_wire as f64 / pipe_raw as f64,
        snap.cache_hit_rate() * 100.0,
        snap.counter(names::forward::COMMANDS),
    );

    header("Turbo image encoder vs x264 on ARM");
    // Real measurement: encode a moving scene with the real Turbo codec.
    let (tw, th) = (320u32, 240u32);
    let turbo_registry = Registry::new();
    let mut enc = TurboEncoder::new(tw, th, 80);
    enc.attach_registry(&turbo_registry);
    let mut rng = derived(9, "turbo-bench");
    let mut frame_data = vec![40u8; (tw * th * 4) as usize];
    enc.encode(&frame_data);
    let keyframe_snap = turbo_registry.snapshot();
    let start = Instant::now();
    let mut pixels = 0u64;
    for step in 0..40u32 {
        // Move a 32x32 block across the frame.
        for px in frame_data.chunks_exact_mut(4) {
            px[0] = px[0].wrapping_sub(px[0] / 32);
        }
        for y in (step % 200)..(step % 200 + 32).min(th) {
            for x in (step * 7 % 280)..(step * 7 % 280 + 32).min(tw) {
                let i = ((y * tw + x) * 4) as usize;
                frame_data[i] = 250;
                frame_data[i + 1] = rng.gen();
            }
        }
        enc.encode(&frame_data);
        pixels += (tw * th) as u64;
    }
    let turbo_mps = megapixels_per_sec(pixels, start.elapsed());
    // Delta-phase byte totals from the registry (keyframe excluded).
    let turbo_snap = turbo_registry.snapshot();
    let raw_bytes = turbo_snap.counter(names::service::TURBO_RAW_BYTES)
        - keyframe_snap.counter(names::service::TURBO_RAW_BYTES);
    let encoded_bytes = turbo_snap.counter(names::service::TURBO_ENCODED_BYTES)
        - keyframe_snap.counter(names::service::TURBO_ENCODED_BYTES);
    let turbo_ratio = raw_bytes as f64 / encoded_bytes as f64;
    let x264 = VideoEncoderModel::for_host(EncoderHost::Arm);
    println!(
        "turbo: {turbo_mps:.0} MP/s, ratio {turbo_ratio:.0}:1, changed tiles {:.0}% | x264/ARM model: {:.0} MP/s",
        turbo_snap.turbo_changed_tile_fraction() * 100.0,
        x264.speed_mpixels_per_sec
    );
    compare(
        "Turbo throughput",
        "up to 90 MP/s",
        &format!("{turbo_mps:.0} MP/s"),
    );
    compare("Turbo ratio", "up to 25:1", &format!("{turbo_ratio:.0}:1"));
    compare("x264 on ARM", "~1 MP/s (< 7 MP/s needed)", "1 MP/s (model)");
    assert!(!x264.is_realtime_for(7.0));

    header("TCP vs reliable-UDP (Section IV-B transport choice)");
    use gbooster_net::channel::ChannelModel;
    use gbooster_net::rudp::{simulate_transfer_traced, RudpConfig};
    use gbooster_net::tcp::TcpModel;
    let mut ch = ChannelModel::wifi_80211n();
    ch.loss_rate = 0.0;
    let batch = 20_000;
    let rudp_registry = Registry::new();
    let rudp = simulate_transfer_traced(batch, &ch, RudpConfig::default(), 1, Some(&rudp_registry));
    let tcp = TcpModel::new(ch).transfer_time(batch);
    let rudp_snap = rudp_registry.snapshot();
    println!(
        "one 20 KB command batch: rudp {:.2} ms ({} datagrams, {} retransmits, rtt p50 {:.2} ms), tcp {:.2} ms",
        rudp.completion.as_millis_f64(),
        rudp_snap.counter(names::net::RUDP_DATAGRAMS),
        rudp_snap.counter(names::net::RUDP_RETRANSMITS),
        rudp_snap
            .histogram(names::net::RUDP_RTT)
            .map_or(0.0, |h| h.p50_ms()),
        tcp.as_millis_f64()
    );
    compare(
        "TCP inherent delay",
        "~40 ms",
        &format!("{:.0} ms floor", tcp.as_millis_f64()),
    );
    compare(
        "RUDP delivery",
        "fast delivery",
        &format!("{:.1} ms", rudp.completion.as_millis_f64()),
    );

    // Cache-savings sanity: repeated command bytes become 9-byte refs.
    let mut cache = CommandCache::new(64);
    let cmd = vec![7u8; 120];
    cache.offer(&cmd);
    let token = cache.offer(&cmd);
    println!(
        "\nrepeat command: {} B -> {} B token",
        cmd.len() + 5,
        token.wire_bytes()
    );

    // Machine-readable artifact for the CI smoke gate.
    write_bench_json(
        "traffic_reduction",
        &[
            ("raw_traffic_mbps", raw_mbps),
            ("lz4_ratio", lz4_ratio),
            ("pipeline_ratio", pipe_wire as f64 / pipe_raw as f64),
            ("cache_hit_rate", snap.cache_hit_rate()),
            ("turbo_mpixels_per_sec", turbo_mps),
            ("turbo_ratio", turbo_ratio),
            ("rudp_completion_ms", rudp.completion.as_millis_f64()),
            ("tcp_completion_ms", tcp.as_millis_f64()),
        ],
    )
    .expect("write BENCH_traffic_reduction.json");
}

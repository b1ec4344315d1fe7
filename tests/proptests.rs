//! Property-based tests on the core data structures and invariants.

use std::sync::Arc;

use gbooster::codec::jpeg::{self, JpegError};
use gbooster::codec::lru::{content_key, CommandCache, Lru};
use gbooster::codec::lz4;
use gbooster::codec::turbo::{TurboDecoder, TurboEncoder, TurboError};
use gbooster::core::forward::{ServiceReceiver, CACHE_CAPACITY, SCRATCH_RETAIN_MAX};
use gbooster::core::scheduler::{Dispatcher, ReorderBuffer, ServiceNode};
use gbooster::core::GBoosterError;
use gbooster::gles::command::{GlCommand, UniformValue, VertexSource};
use gbooster::gles::serialize::{decode_command, decode_stream, encode_command, encode_stream};
use gbooster::gles::state::GlContext;
use gbooster::gles::types::{
    AttribType, BlendFactor, BufferId, BufferTarget, BufferUsage, Capability, ClearMask, IndexType,
    PixelFormat, Primitive, ProgramId, ShaderId, ShaderKind, TextureId, TextureTarget,
    UniformLocation,
};
use gbooster::net::channel::ChannelModel;
use gbooster::net::rudp::{simulate_transfer, RudpConfig};
use gbooster::sim::device::DeviceSpec;
use gbooster::sim::display::FpsRecorder;
use gbooster::sim::time::{SimDuration, SimTime};
use gbooster::telemetry::hist::WindowedHistogramCore;
use gbooster::telemetry::WindowedHistogram;
use proptest::prelude::*;

fn arb_primitive() -> impl Strategy<Value = Primitive> {
    prop_oneof![
        Just(Primitive::Points),
        Just(Primitive::Lines),
        Just(Primitive::Triangles),
        Just(Primitive::TriangleStrip),
        Just(Primitive::TriangleFan),
    ]
}

fn arb_uniform() -> impl Strategy<Value = UniformValue> {
    prop_oneof![
        any::<f32>().prop_map(UniformValue::F1),
        any::<[f32; 2]>().prop_map(UniformValue::F2),
        any::<[f32; 3]>().prop_map(UniformValue::F3),
        any::<[f32; 4]>().prop_map(UniformValue::F4),
        any::<i32>().prop_map(UniformValue::I1),
        prop::array::uniform16(any::<f32>()).prop_map(UniformValue::Mat4),
    ]
}

/// Arbitrary *serializable* commands (no unresolved client pointers).
fn arb_command() -> impl Strategy<Value = GlCommand> {
    prop_oneof![
        any::<u32>().prop_map(|v| GlCommand::GenTexture(TextureId(v))),
        any::<u32>().prop_map(|v| GlCommand::DeleteBuffer(BufferId(v))),
        any::<u32>().prop_map(|v| GlCommand::UseProgram(ProgramId(v))),
        (any::<u32>(), any::<bool>()).prop_map(|(id, vertex)| GlCommand::CreateShader(
            ShaderId(id),
            if vertex {
                ShaderKind::Vertex
            } else {
                ShaderKind::Fragment
            }
        )),
        "[ -~]{0,64}".prop_map(|source| GlCommand::ShaderSource {
            shader: ShaderId(1),
            source,
        }),
        (any::<bool>(), prop::collection::vec(any::<u8>(), 0..256)).prop_map(|(elem, data)| {
            GlCommand::BufferData {
                target: if elem {
                    BufferTarget::ElementArray
                } else {
                    BufferTarget::Array
                },
                data: Arc::new(data),
                usage: BufferUsage::DynamicDraw,
            }
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(w, h)| {
            let (w, h) = (w as u32 % 8 + 1, h as u32 % 8 + 1);
            GlCommand::TexImage2D {
                target: TextureTarget::Texture2D,
                level: 0,
                format: PixelFormat::Rgba8,
                width: w,
                height: h,
                data: Arc::new(vec![0xAB; (w * h * 4) as usize]),
            }
        }),
        (any::<f32>(), any::<f32>(), any::<f32>(), any::<f32>())
            .prop_map(|(r, g, b, a)| { GlCommand::ClearColor { r, g, b, a } }),
        (any::<u32>(), arb_uniform()).prop_map(|(loc, value)| GlCommand::Uniform {
            location: UniformLocation(loc),
            value,
        }),
        (arb_primitive(), any::<u16>(), 1u32..10_000).prop_map(|(mode, first, count)| {
            GlCommand::DrawArrays {
                mode,
                first: first as u32,
                count,
            }
        }),
        (0u32..16, 1u8..=4, any::<bool>(), any::<u32>()).prop_map(
            |(index, size, normalized, off)| GlCommand::VertexAttribPointer {
                index,
                size,
                ty: AttribType::F32,
                normalized,
                stride: 0,
                source: VertexSource::BufferOffset(off),
            }
        ),
        prop::collection::vec(any::<u8>(), 0..128).prop_map(|data| {
            GlCommand::VertexAttribPointer {
                index: 0,
                size: 2,
                ty: AttribType::I16,
                normalized: false,
                stride: 4,
                source: VertexSource::Materialized(Arc::new(data)),
            }
        }),
        (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(color, depth, stencil)| {
            GlCommand::Clear(ClearMask {
                color,
                depth,
                stencil,
            })
        }),
        Just(GlCommand::Enable(Capability::Blend)),
        Just(GlCommand::BlendFunc {
            src: BlendFactor::SrcAlpha,
            dst: BlendFactor::OneMinusSrcAlpha,
        }),
        (1u32..1000, prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(count, data)| {
            GlCommand::DrawElements {
                mode: Primitive::Triangles,
                count,
                index_type: IndexType::U16,
                indices: gbooster::gles::command::IndexSource::Inline(Arc::new(data)),
            }
        }),
        Just(GlCommand::SwapBuffers),
        Just(GlCommand::Finish),
    ]
}

fn bits_equal(a: &GlCommand, b: &GlCommand) -> bool {
    // Float fields must survive bit-exactly (NaN != NaN under PartialEq).
    format!("{a:?}") == format!("{b:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wire_roundtrip_single_command(cmd in arb_command()) {
        let mut buf = Vec::new();
        encode_command(&cmd, &mut buf).unwrap();
        let (decoded, used) = decode_command(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert!(bits_equal(&decoded, &cmd), "{:?} != {:?}", decoded, cmd);
    }

    #[test]
    fn wire_roundtrip_streams(cmds in prop::collection::vec(arb_command(), 0..40)) {
        let bytes = encode_stream(&cmds).unwrap();
        let decoded = decode_stream(&bytes).unwrap();
        prop_assert_eq!(decoded.len(), cmds.len());
        for (a, b) in decoded.iter().zip(cmds.iter()) {
            prop_assert!(bits_equal(a, b));
        }
    }

    #[test]
    fn wire_decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_stream(&bytes); // error or success, never a panic
    }

    /// The rejoin resync path (docs/RESILIENCE.md) hands a node a
    /// snapshot instead of the command history: for any command prefix,
    /// restoring the snapshot must reproduce the context bit-exactly —
    /// same state digest, same resident GPU memory.
    #[test]
    fn snapshot_restore_preserves_digest_and_residency(
        cmds in prop::collection::vec(arb_command(), 0..60)
    ) {
        let mut ctx = GlContext::new();
        for cmd in &cmds {
            // Arbitrary prefixes are not always valid GL: apply errors
            // are fine, panics are not.
            let _ = ctx.apply(cmd);
        }
        let snap = ctx.snapshot();
        let restored = GlContext::restore(&snap);
        prop_assert_eq!(restored.digest(), ctx.digest());
        prop_assert_eq!(restored.resident_bytes(), ctx.resident_bytes());
    }

    /// Live migration (docs/MIGRATION.md): checkpoint an in-flight
    /// session at an arbitrary cut point, restore on the destination,
    /// then keep applying the remaining stream to both sides — source
    /// and destination stay digest-identical after every command, and
    /// the delta snapshot never ships more than the full one.
    #[test]
    fn live_migration_checkpoint_stays_in_lockstep(
        prefix in prop::collection::vec(arb_command(), 0..40),
        suffix in prop::collection::vec(arb_command(), 0..40),
    ) {
        let mut src = GlContext::new();
        let baseline = src.snapshot();
        for cmd in &prefix {
            let _ = src.apply(cmd);
        }
        let snap = src.snapshot();
        prop_assert!(
            snap.delta_wire_bytes(&baseline) <= snap.wire_bytes(),
            "a delta against any base must not exceed the full snapshot"
        );
        let mut dst = GlContext::restore(&snap);
        prop_assert_eq!(dst.digest(), src.digest());
        for cmd in &suffix {
            let a = src.apply(cmd);
            let b = dst.apply(cmd);
            prop_assert_eq!(a.is_ok(), b.is_ok());
            prop_assert_eq!(dst.digest(), src.digest());
            prop_assert_eq!(dst.resident_bytes(), src.resident_bytes());
        }
    }

    #[test]
    fn lz4_roundtrip_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let compressed = lz4::compress(&data);
        let back = lz4::decompress(&compressed, data.len()).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn lz4_roundtrip_repetitive_bytes(
        unit in prop::collection::vec(any::<u8>(), 1..16),
        reps in 1usize..200,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let compressed = lz4::compress(&data);
        prop_assert_eq!(lz4::decompress(&compressed, data.len()).unwrap(), data);
    }

    #[test]
    fn lz4_decompress_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = lz4::decompress(&bytes, 1 << 16);
    }

    #[test]
    fn lz4_reused_table_matches_fresh_tables(
        inputs in prop::collection::vec(prop::collection::vec(0u8..6, 0..3000), 1..8),
        headroom in 0u32..12_000,
    ) {
        // The reused table starts `headroom` positions short of the u32
        // limit, so sequences longer than that force a base reset.
        let mut reused = lz4::MatchTable::with_base(u32::MAX - headroom);
        for input in &inputs {
            let mut fresh = Vec::new();
            lz4::MatchTable::new().compress_into(input, &mut fresh);
            let mut again = Vec::new();
            reused.compress_into(input, &mut again);
            prop_assert_eq!(&again, &fresh);
            prop_assert_eq!(&lz4::compress(input), &fresh);
            prop_assert_eq!(&lz4::decompress(&fresh, input.len()).unwrap(), input);
        }
    }

    #[test]
    fn lz4_garbage_returns_err_and_never_over_allocates(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        max_size in 0usize..2048,
    ) {
        let mut out = Vec::new();
        let decoded = lz4::decompress_into(&bytes, max_size, &mut out);
        prop_assert!(out.len() <= max_size);
        prop_assert!(out.capacity() <= max_size.min(lz4::max_decompressed_len(bytes.len())));
        if decoded.is_ok() {
            prop_assert_eq!(lz4::decompress(&bytes, max_size).ok(), Some(out));
        }
    }

    #[test]
    fn lz4_oversized_match_returns_err_before_copying(
        literals in 0usize..20,
        extension in 0usize..4000,
        max_size in 0usize..4096,
    ) {
        // `literals` bytes, then a match at offset 1 whose length uses
        // `extension` 255-bytes: 4 + 15 + 255 * extension bytes.
        let mut block = vec![((literals.min(15) as u8) << 4) | 0x0f];
        if literals >= 15 {
            block.push((literals - 15) as u8);
        }
        block.extend(std::iter::repeat_n(b'z', literals));
        block.extend_from_slice(&[1, 0]);
        block.extend(std::iter::repeat_n(255u8, extension));
        block.push(0);
        let decoded_len = literals + 19 + 255 * extension;
        let mut out = Vec::new();
        let decoded = lz4::decompress_into(&block, max_size, &mut out);
        prop_assert!(out.capacity() <= max_size);
        if literals == 0 {
            prop_assert_eq!(decoded, Err(lz4::Lz4Error::BadOffset));
        } else if decoded_len > max_size {
            prop_assert_eq!(decoded, Err(lz4::Lz4Error::TooLarge));
        } else {
            prop_assert_eq!(decoded, Ok(()));
            prop_assert_eq!(out.len(), decoded_len);
        }
    }

    #[test]
    fn wire_header_beyond_lz4_expansion_returns_err(
        claimed in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut wire = claimed.to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        let mut rx = ServiceReceiver::new();
        let received = rx.receive(&wire);
        if claimed as usize > lz4::max_decompressed_len(payload.len()) {
            prop_assert!(received.is_err());
        }
        prop_assert!(rx.retained_scratch_bytes() <= SCRATCH_RETAIN_MAX);
    }

    #[test]
    fn jpeg_stays_within_lossy_bounds(
        w in 1u32..40,
        h in 1u32..40,
        quality in 1u8..=100,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rgba = vec![0u8; (w * h * 4) as usize];
        // Smooth content: lossy error must stay bounded.
        for (i, b) in rgba.iter_mut().enumerate() {
            let x = (i / 4) as u32 % w;
            *b = ((x * 4) as u8).wrapping_add(rng.gen::<u8>() & 1);
        }
        let data = jpeg::compress(w, h, &rgba, quality);
        let (dw, dh, back) = jpeg::decompress(&data).unwrap();
        prop_assert_eq!((dw, dh), (w, h));
        prop_assert_eq!(back.len(), rgba.len());
    }

    #[test]
    fn turbo_roundtrip_reconstructs(
        w in 17u32..70,
        h in 17u32..70,
        frames in 1usize..6,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut enc = TurboEncoder::new(w, h, 90);
        let mut dec = TurboDecoder::new(w, h);
        let mut frame = vec![100u8; (w * h * 4) as usize];
        for _ in 0..frames {
            // Mutate a random block.
            let bx = rng.gen_range(0..w);
            let by = rng.gen_range(0..h);
            for y in by..(by + 8).min(h) {
                for x in bx..(bx + 8).min(w) {
                    let i = ((y * w + x) * 4) as usize;
                    frame[i] = rng.gen();
                }
            }
            let (bytes, stats) = enc.encode(&frame);
            let shown = dec.decode(&bytes).unwrap();
            prop_assert_eq!(shown.len(), frame.len());
            prop_assert!(stats.tiles_sent <= stats.tiles_total);
        }
    }

    #[test]
    fn lru_sender_receiver_never_desync(
        stream in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..32), 1..300),
        capacity in 2usize..64,
    ) {
        let mut tx = CommandCache::new(capacity);
        let mut rx = CommandCache::new(capacity);
        // The same rule over other entries: a sender that keeps only
        // each message's length, and a receiver that keeps what it
        // decoded from the bytes.
        let mut tx_len: Lru<usize> = Lru::new(capacity);
        let mut rx_decoded: Lru<String> = Lru::new(capacity);
        let decode = |msg: &[u8]| String::from_utf8_lossy(msg).into_owned();
        for msg in &stream {
            let offered = tx.offer_ref(msg);
            prop_assert_eq!(tx_len.offer_with(msg, || msg.len()), offered);
            match offered {
                Some(key) => {
                    prop_assert_eq!(rx.accept_ref(key), Some(msg.as_slice()));
                    prop_assert_eq!(rx_decoded.get(key), Some(&decode(msg)));
                }
                None => {
                    rx.accept_full(msg);
                    rx_decoded.accept_full_with(msg, || decode(msg));
                }
            }
        }
        prop_assert_eq!(tx.len(), rx.len());
        prop_assert_eq!(tx_len.len(), rx_decoded.len());
        prop_assert_eq!(tx_len.values().sum::<usize>(), tx.resident_bytes());
    }

    #[test]
    fn rudp_delivers_everything_under_any_loss(
        bytes in 0usize..200_000,
        loss in 0.0f64..0.35,
        seed in any::<u64>(),
    ) {
        let ch = ChannelModel::lossy(loss);
        let stats = simulate_transfer(bytes, &ch, RudpConfig::default(), seed);
        prop_assert_eq!(stats.bytes, bytes as u64);
    }

    /// A [`ReorderBuffer`] fed any arrival order drawn from a sliding
    /// window of `w` in-flight frames — the pipelined engine's invariant:
    /// frame `s` can only be in flight once everything below `s − w` has
    /// arrived — presents every frame exactly once, strictly in order,
    /// and never buffers more than `w − 1` frames.
    #[test]
    fn reorder_buffer_presents_in_order_within_any_window(
        n in 1usize..80,
        w in 1usize..8,
        picks in prop::collection::vec(any::<usize>(), 80),
    ) {
        let mut buf: ReorderBuffer<u64> = ReorderBuffer::new();
        let mut presented: Vec<u64> = Vec::new();
        let mut next_issue = 0u64;
        let mut in_flight: Vec<u64> = Vec::new();
        let mut step = 0usize;
        while presented.len() < n {
            // Keep the window full: issue while the oldest unarrived
            // frame is within `w` of the newest.
            while next_issue < n as u64 && next_issue < buf.awaiting() + w as u64 {
                in_flight.push(next_issue);
                next_issue += 1;
            }
            // Deliver one in-flight frame in arbitrary order.
            let pick = picks[step % picks.len()] % in_flight.len();
            step += 1;
            let seq = in_flight.swap_remove(pick);
            buf.insert(seq, seq);
            presented.extend(buf.pop_ready());
            prop_assert!(
                buf.held() < w,
                "buffer held {} with window {w}", buf.held()
            );
        }
        prop_assert_eq!(presented, (0..n as u64).collect::<Vec<_>>());
        prop_assert_eq!(buf.held(), 0);
    }

    /// Eq. 4 scoring is total: for arbitrary backlogs `w_j`, workloads
    /// `r`, and capabilities `c_j` — including zero, negative, infinite
    /// and NaN — every score is non-NaN, dispatch always picks a valid
    /// node, and the booking never runs backwards in time.
    #[test]
    fn dispatcher_scoring_is_total_for_arbitrary_inputs(
        caps in prop::collection::vec(any::<f64>(), 1..6),
        fills in prop::collection::vec(any::<u64>(), 1..30),
        rtt_us in 0u64..1_000_000,
        step_us in 0u64..100_000,
    ) {
        let nodes: Vec<ServiceNode> = caps
            .iter()
            .map(|&c| {
                let mut n = ServiceNode::new(
                    DeviceSpec::nvidia_shield(),
                    SimDuration::from_micros(rtt_us),
                );
                n.capability = c;
                n
            })
            .collect();
        let n_nodes = nodes.len();
        let mut d = Dispatcher::new(nodes);
        let mut now = SimTime::ZERO;
        for (seq, &fill) in fills.iter().enumerate() {
            for node in d.nodes() {
                let score = node.score(fill, now);
                prop_assert!(!score.is_nan(), "score must never be NaN");
            }
            let decision = d.dispatch_for(0, seq as u64, fill, SimDuration::ZERO, now);
            prop_assert!(decision.node < n_nodes);
            prop_assert!(decision.finish >= decision.start);
            prop_assert!(decision.start >= now);
            d.complete_for(decision.node, 0, seq as u64);
            now += SimDuration::from_micros(step_us);
        }
    }

    #[test]
    fn fps_recorder_median_is_bounded_by_samples(
        intervals in prop::collection::vec(1_000u64..200_000, 10..300),
    ) {
        use gbooster::sim::time::SimTime;
        let mut rec = FpsRecorder::new();
        let mut t = 0u64;
        for dt in &intervals {
            t += dt;
            rec.record(SimTime::from_micros(t));
        }
        let median = rec.median_fps();
        prop_assert!(median >= 0.0);
        prop_assert!(median <= 1_001.0, "median {} exceeds 1/min-interval", median);
        let stability = rec.stability();
        prop_assert!((0.0..=1.0).contains(&stability));
    }
}

// ---- Burn-rate counts read straight off the windowed slots.

/// A sample relative to the threshold it is judged against: anywhere,
/// the extremes, or inside the threshold's own bucket (the low bits
/// below the bucket's 16-way split vary freely there).
fn sample_value(kind: u8, raw: u64, threshold: u64) -> u64 {
    match kind {
        0 => raw,
        1 => 0,
        2 => u64::MAX,
        3 if threshold >= 128 => {
            let msb = 63 - threshold.leading_zeros();
            let mask = (1u64 << (msb - 4)) - 1;
            (threshold & !mask) | (raw & mask)
        }
        3 => threshold,
        _ => raw % 300_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `window_count_over` is the SLO evaluator's shortcut past the
    /// merged window snapshot; it must report exactly the merged
    /// snapshot's count and over-threshold count.
    #[test]
    fn window_count_over_matches_the_merged_window(
        slot_us in 1u64..50_000,
        retain in 1usize..48,
        samples in prop::collection::vec((0u64..30_000, 0u8..5, any::<u64>()), 0..160),
        threshold_kind in 0u8..4,
        threshold_raw in any::<u64>(),
        queries in prop::collection::vec((0u64..3_000_000, 0u64..100_000), 1..6),
    ) {
        let threshold = match threshold_kind {
            0 => threshold_raw,
            1 => 0,
            2 => u64::MAX,
            _ => threshold_raw % 200_000,
        };
        let mut core = WindowedHistogramCore::new(SimDuration::from_micros(slot_us), retain);
        let handle = WindowedHistogram::detached(SimDuration::from_micros(slot_us), retain);
        let mut at_us = 0u64;
        for &(gap_us, kind, raw) in &samples {
            at_us += gap_us;
            let v = sample_value(kind, raw, threshold);
            core.record(SimTime::from_micros(at_us), v);
            handle.record(SimTime::from_micros(at_us), v);
        }
        for &(window_us, ahead_us) in &queries {
            let (now, window) = (
                SimTime::from_micros(at_us + ahead_us),
                SimDuration::from_micros(window_us),
            );
            let merged = core.window(now, window);
            let expected = (merged.count(), merged.count_over(threshold));
            prop_assert_eq!(core.window_count_over(now, window, threshold), expected);
            prop_assert_eq!(handle.window_count_over(now, window, threshold), expected);
        }
    }
}

// ---- Untrusted bytes through the session engine's one decoder. Every
// frame below has a valid header and LZ4 body; only its token stream
// (the LRU layer's `Ref` / `Full` tokens) is bad.

/// Frames a token stream as the forwarder does: the stream's length,
/// then the stream LZ4-compressed.
fn wire_frame(tokens: &[u8]) -> Vec<u8> {
    let mut wire = (tokens.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&lz4::compress(tokens));
    wire
}

/// Appends `cmd` as a `Full` token (tag, body length, encoded body)
/// and returns the cache key the body is stored under.
fn push_full(tokens: &mut Vec<u8>, cmd: &GlCommand) -> u64 {
    let mut body = Vec::new();
    encode_command(cmd, &mut body).unwrap();
    tokens.push(0x01);
    tokens.extend_from_slice(&(body.len() as u32).to_le_bytes());
    tokens.extend_from_slice(&body);
    content_key(&body)
}

/// Appends a `Ref` token (tag, cache key).
fn push_ref(tokens: &mut Vec<u8>, key: u64) {
    tokens.push(0x00);
    tokens.extend_from_slice(&key.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn receiver_rejects_a_ref_it_never_saw(
        seen in prop::collection::vec(arb_command(), 0..8),
        key in any::<u64>(),
    ) {
        let mut rx = ServiceReceiver::new();
        let mut tokens = Vec::new();
        let keys: Vec<u64> = seen.iter().map(|c| push_full(&mut tokens, c)).collect();
        prop_assert!(rx.receive(&wire_frame(&tokens)).is_ok());
        if keys.contains(&key) {
            return Ok(());
        }
        // Refs to what the receiver holds resolve; the unseen one fails
        // the frame.
        tokens.clear();
        for &k in &keys {
            push_ref(&mut tokens, k);
        }
        push_ref(&mut tokens, key);
        let received = rx.receive(&wire_frame(&tokens));
        prop_assert!(
            matches!(received, Err(GBoosterError::CacheDesync(k)) if k == key),
            "{:?}",
            received
        );
    }

    /// The final token is cut anywhere after its tag: inside a `Ref`'s
    /// key, inside a `Full` token's length, or inside its command body.
    #[test]
    fn receiver_rejects_truncated_tokens(
        prefix in prop::collection::vec(arb_command(), 0..6),
        last in arb_command(),
        as_ref in any::<bool>(),
        cut in any::<usize>(),
    ) {
        let mut rx = ServiceReceiver::new();
        let mut tokens = Vec::new();
        let keys: Vec<u64> = prefix.iter().map(|c| push_full(&mut tokens, c)).collect();
        let start = tokens.len();
        if as_ref && !keys.is_empty() {
            push_ref(&mut tokens, keys[cut % keys.len()]);
        } else {
            push_full(&mut tokens, &last);
        }
        let token_len = tokens.len() - start;
        tokens.truncate(start + 1 + cut % (token_len - 1));
        prop_assert!(rx.receive(&wire_frame(&tokens)).is_err());
    }

    /// A whole `Full` token whose body is a cut command encoding: the
    /// token layer accepts it, the command decoder must not.
    #[test]
    fn receiver_rejects_a_cut_command_in_a_whole_token(
        cmd in arb_command(),
        cut in any::<usize>(),
    ) {
        let mut body = Vec::new();
        encode_command(&cmd, &mut body).unwrap();
        body.truncate(cut % body.len());
        let mut tokens = vec![0x01];
        tokens.extend_from_slice(&(body.len() as u32).to_le_bytes());
        tokens.extend_from_slice(&body);
        prop_assert!(ServiceReceiver::new().receive(&wire_frame(&tokens)).is_err());
    }

    #[test]
    fn receiver_rejects_unknown_token_tags(
        prefix in prop::collection::vec(arb_command(), 0..6),
        tag in 2u8..=255,
        tail in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut tokens = Vec::new();
        for cmd in &prefix {
            push_full(&mut tokens, cmd);
        }
        tokens.push(tag);
        tokens.extend_from_slice(&tail);
        prop_assert!(ServiceReceiver::new().receive(&wire_frame(&tokens)).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `CACHE_CAPACITY + extra` distinct commands evict the first
    /// `extra`, least recently used first: a `Ref` to any of those
    /// fails, a `Ref` to a survivor still resolves.
    #[test]
    fn receiver_rejects_a_ref_to_an_evicted_key(
        extra in 1usize..32,
        probe in any::<usize>(),
    ) {
        let mut rx = ServiceReceiver::new();
        let mut tokens = Vec::new();
        let keys: Vec<u64> = (0..CACHE_CAPACITY + extra)
            .map(|i| push_full(&mut tokens, &GlCommand::GenBuffer(BufferId(i as u32))))
            .collect();
        prop_assert!(rx.receive(&wire_frame(&tokens)).is_ok());
        tokens.clear();
        push_ref(&mut tokens, keys[extra + probe % CACHE_CAPACITY]);
        prop_assert!(rx.receive(&wire_frame(&tokens)).is_ok());
        let evicted = keys[probe % extra];
        tokens.clear();
        push_ref(&mut tokens, evicted);
        let received = rx.receive(&wire_frame(&tokens));
        prop_assert!(
            matches!(received, Err(GBoosterError::CacheDesync(k)) if k == evicted),
            "{:?}",
            received
        );
    }
}

// ---- Untrusted bytes through the downlink's image decoders. They may
// reject any input below, but must never panic on it.

/// A `w`×`h` RGBA image of horizontal ramps.
fn ramp_image(w: u32, h: u32) -> Vec<u8> {
    (0..w * h * 4).map(|i| ((i / 4) % w * 6) as u8).collect()
}

/// Writes a field's little-endian bytes over `data[at..]`.
fn overwrite(data: &mut [u8], at: usize, field: &[u8]) {
    data[at..at + field.len()].copy_from_slice(field);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Garbage as it comes, and again behind a header the decoders'
    /// first checks accept, so their body parsers see it too.
    #[test]
    fn image_decoders_never_panic_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        w in 1u16..64,
        h in 1u16..64,
        quality in 1u8..=100,
    ) {
        let _ = jpeg::decompress(&bytes);
        let mut framed = [w.to_le_bytes(), h.to_le_bytes()].concat();
        framed.push(quality);
        framed.extend_from_slice(&bytes);
        let _ = jpeg::decompress(&framed);

        let mut dec = TurboDecoder::new(w.into(), h.into());
        let _ = dec.decode(&bytes);
        // Keyframe kind, then the garbage from the tile count on.
        framed[4] = 0;
        let _ = dec.decode(&framed);
    }

    /// A valid JPEG with its width, height or quality overwritten.
    #[test]
    fn jpeg_decoder_survives_an_overwritten_header_field(
        w in 1u32..40,
        h in 1u32..40,
        field in 0usize..3,
        value in prop_oneof![any::<u32>(), 0u32..80],
    ) {
        let mut data = jpeg::compress(w, h, &ramp_image(w, h), 75);
        match field {
            0 => overwrite(&mut data, 0, &(value as u16).to_le_bytes()),
            1 => overwrite(&mut data, 2, &(value as u16).to_le_bytes()),
            _ => data[4] = value as u8,
        }
        if let Ok((dw, dh, rgba)) = jpeg::decompress(&data) {
            prop_assert_eq!(rgba.len(), dw as usize * dh as usize * 4);
        }
    }

    /// A valid Turbo keyframe with one field of its first tile record
    /// overwritten: the tile index, the tile length, or the width,
    /// height or quality of the tile's JPEG.
    #[test]
    fn turbo_decoder_survives_an_overwritten_tile_field(
        w in 17u32..70,
        h in 17u32..70,
        field in 0usize..6,
        value in prop_oneof![any::<u32>(), 0u32..80],
    ) {
        let (mut data, _) = TurboEncoder::new(w, h, 80).encode(&ramp_image(w, h));
        // The first tile record starts after the 7-byte frame header:
        // u16 tx, u16 ty, u32 len, then the JPEG's u16 width, u16
        // height and u8 quality.
        let short = (value as u16).to_le_bytes();
        match field {
            0 => overwrite(&mut data, 7, &short),
            1 => overwrite(&mut data, 9, &short),
            2 => overwrite(&mut data, 11, &value.to_le_bytes()),
            3 => overwrite(&mut data, 15, &short),
            4 => overwrite(&mut data, 17, &short),
            _ => data[19] = value as u8,
        }
        if let Ok(frame) = TurboDecoder::new(w, h).decode(&data) {
            prop_assert_eq!(frame.len(), (w * h * 4) as usize);
        }
    }
}

/// Header fields whose arithmetic overflows unless checked: a JPEG
/// header claiming 65535×65535, a JPEG coefficient whose dequantization
/// overflows `i32`, and a Turbo tile outside the frame.
#[test]
fn image_decoders_return_err_on_overflowing_fields() {
    assert_eq!(
        jpeg::decompress(&[0xff, 0xff, 0xff, 0xff, 50]),
        Err(JpegError::Truncated)
    );

    // 8×8 at quality 50: channel 0's block holds coefficient i32::MIN
    // (zigzag varint u32::MAX) and ends; the other two channels' blocks
    // are missing.
    let mut huge = vec![8, 0, 8, 0, 50, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0xff];
    assert_eq!(jpeg::decompress(&huge), Err(JpegError::Truncated));
    // With them present the block decodes, saturated.
    huge.extend_from_slice(&[0xff, 0xff]);
    let (w, h, rgba) = jpeg::decompress(&huge).expect("complete stream decodes");
    assert_eq!((w, h, rgba.len()), (8, 8, 8 * 8 * 4));

    let (mut data, _) = TurboEncoder::new(32, 32, 90).encode(&ramp_image(32, 32));
    overwrite(&mut data, 7, &u16::MAX.to_le_bytes());
    assert_eq!(
        TurboDecoder::new(32, 32).decode(&data),
        Err(TurboError::BadTile)
    );
}

// ---- Multi-tenant fabric invariants (docs/FABRIC.md). Fabric runs
// are whole-system simulations, so these blocks use few, fat cases.

fn fabric_pool(nodes: usize) -> Vec<DeviceSpec> {
    let all = [
        DeviceSpec::nvidia_shield(),
        DeviceSpec::dell_optiplex_9010(),
        DeviceSpec::dell_m4600(),
        DeviceSpec::minix_neo_u1(),
    ];
    all[..nodes].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Max-min fair share: with equal-demand tenants, no admitted
    /// tenant's scheduled GPU time falls below `1/(2·n_tenants)` of the
    /// pool's scheduled time over any interior 1 s window.
    #[test]
    fn fabric_fair_share_holds_in_every_window(
        n_tenants in 2usize..10,
        nodes in 1usize..4,
        fps in prop_oneof![Just(10.0f64), Just(20.0f64)],
        seed in 0u64..1_000,
    ) {
        use gbooster::core::fabric::{FabricConfig, SessionManager, TenantSpec};
        use gbooster::workload::games::GameTitle;

        let mut cfg = FabricConfig::uniform(1, fabric_pool(nodes), seed);
        cfg.duration = SimDuration::from_secs(3);
        // Equal demand: same title, same rate, for every tenant.
        cfg.tenants = (0..n_tenants)
            .map(|_| TenantSpec {
                title: GameTitle::g5_candy_crush(),
                fps,
                slo_ms: 100.0,
            })
            .collect();
        let report = SessionManager::run(&cfg).unwrap();
        if report.admitted != n_tenants {
            // Equal-demand g5 streams fit any pool here; a rejection
            // means the case drew a degenerate config — skip it.
            return Ok(());
        }

        let last_window = cfg.duration.as_secs_f64() as u64 - 1;
        for w in &report.windows {
            // Skip the staggered-start and drain windows, and windows
            // where the pool barely ran.
            if w.window == 0 || w.window >= last_window || w.pool_busy_secs < 0.05 {
                continue;
            }
            let floor = w.pool_busy_secs / (2.0 * n_tenants as f64);
            for (t, &got) in w.tenant_busy_secs.iter().enumerate() {
                prop_assert!(
                    got >= floor - 1e-9,
                    "window {}: tenant {t} got {got:.6}s of {:.6}s pool \
                     (floor {floor:.6}s, {n_tenants} tenants, {nodes} nodes)",
                    w.window,
                    w.pool_busy_secs
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Admission control never books past the configured pool capacity,
    /// regardless of the offered mix.
    #[test]
    fn fabric_admission_never_exceeds_pool_capacity(
        sessions in 1usize..80,
        nodes in 1usize..4,
        cap in 0.3f64..1.0,
        per_node in prop_oneof![1usize..32, Just(usize::MAX)],
        seed in 0u64..1_000,
    ) {
        use gbooster::core::fabric::{FabricConfig, SessionManager};

        let mut cfg = FabricConfig::uniform(sessions, fabric_pool(nodes), seed);
        cfg.duration = SimDuration::from_secs(1);
        cfg.admission.utilization_cap = cap;
        cfg.admission.max_sessions_per_node = per_node;
        match SessionManager::run(&cfg) {
            Ok(report) => {
                prop_assert_eq!(report.admitted + report.rejected, sessions);
                prop_assert!(
                    report.admitted_load <= report.load_cap + 1e-9,
                    "load {} > cap {}",
                    report.admitted_load,
                    report.load_cap
                );
                prop_assert!(
                    report.admitted <= per_node.saturating_mul(nodes),
                    "admitted {} past the per-node ceiling {}",
                    report.admitted,
                    per_node.saturating_mul(nodes)
                );
                prop_assert!(
                    (report.rejected_rate
                        - report.rejected as f64 / sessions as f64)
                        .abs()
                        < 1e-12
                );
            }
            // A tiny cap can reject every tenant; that is the one
            // config the fabric refuses outright.
            Err(_) => prop_assert!(cap < 0.9, "healthy cap rejected everyone"),
        }
    }
}

//! Failure-injection tests: the system must degrade loudly and safely,
//! never silently corrupt.

use std::sync::Arc;

use gbooster::core::config::{
    ExecutionMode, FaultInjection, NodeEvent, OffloadConfig, SessionConfig,
};
use gbooster::core::forward::{CommandForwarder, ServiceReceiver};
use gbooster::core::session::Session;
use gbooster::core::GBoosterError;
use gbooster::gles::command::{ClientMemory, ClientPtr, GlCommand, VertexSource};
use gbooster::gles::exec::{ExecMode, SoftGpu};
use gbooster::gles::types::{AttribType, GlError, Primitive, ProgramId, TextureId, TextureTarget};
use gbooster::net::channel::ChannelModel;
use gbooster::net::rudp::{simulate_transfer, simulate_transfer_ctx, ClockSync, RudpConfig};
use gbooster::sim::device::DeviceSpec;
use gbooster::telemetry::{names, ClockOffsetEstimator, Fault, TraceContext};
use gbooster::workload::games::GameTitle;
use gbooster::workload::genre::GenreProfile;
use gbooster::workload::tracegen::TraceGenerator;

fn faulted_config(faults: FaultInjection) -> SessionConfig {
    SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
        .duration_secs(12)
        .seed(7)
        .mode(ExecutionMode::Offloaded(OffloadConfig {
            flight_recorder_depth: 8,
            faults,
            ..OffloadConfig::default()
        }))
        .build()
}

/// A forwarded frame with one flipped byte must decode to an error or a
/// *different* command list — never panic, never silently pass corrupt
/// state through unnoticed by the checksummed layers.
#[test]
fn corrupted_wire_frames_never_panic() {
    let mut gen = TraceGenerator::new(GenreProfile::action(), 1.0, 160, 120, 5);
    let mut fw = CommandForwarder::new();
    let setup = gen.setup_trace();
    let fwd = fw
        .forward_frame(&setup.commands, gen.client_memory())
        .unwrap();
    // Sample ~128 corruption positions spread over the frame.
    let step = (fwd.wire.len() / 128).max(1);
    for corrupt_at in (0..fwd.wire.len()).step_by(step) {
        let mut wire = fwd.wire.clone();
        wire[corrupt_at] ^= 0x5a;
        let mut rx = ServiceReceiver::new();
        // Must return (Ok or Err), never panic.
        let _ = rx.receive(&wire);
    }
}

/// Truncation at every length must be detected or produce a prefix —
/// never a panic.
#[test]
fn truncated_wire_frames_never_panic() {
    let mut gen = TraceGenerator::new(GenreProfile::puzzle(), 1.0, 64, 64, 2);
    let mut fw = CommandForwarder::new();
    let frame = gen.setup_trace();
    let fwd = fw
        .forward_frame(&frame.commands, gen.client_memory())
        .unwrap();
    let step = (fwd.wire.len() / 200).max(1);
    for cut in (0..fwd.wire.len()).step_by(step) {
        let mut rx = ServiceReceiver::new();
        let _ = rx.receive(&fwd.wire[..cut]);
    }
}

/// A receiver that missed earlier frames reports desynchronization
/// instead of replaying wrong cached commands.
#[test]
fn late_joining_receiver_detects_desync() {
    let mem = ClientMemory::new();
    let mut fw = CommandForwarder::new();
    let frame = vec![GlCommand::clear_all(), GlCommand::SwapBuffers];
    fw.forward_frame(&frame, &mem).unwrap(); // frame 1: receiver missed it
    let second = fw.forward_frame(&frame, &mem).unwrap(); // all Ref tokens
    let mut late_rx = ServiceReceiver::new();
    match late_rx.receive(&second.wire) {
        Err(GBoosterError::CacheDesync(_)) => {}
        other => panic!("expected CacheDesync, got {other:?}"),
    }
}

/// Dangling client pointers surface as errors at draw time — the exact
/// crash class the deferred-serialization design avoids guessing about.
#[test]
fn dangling_client_pointer_is_reported_not_guessed() {
    let mut mem = ClientMemory::new();
    let ptr = mem.alloc(vec![0u8; 8]);
    mem.free(ptr);
    let mut fw = CommandForwarder::new();
    let frame = vec![
        GlCommand::VertexAttribPointer {
            index: 0,
            size: 2,
            ty: AttribType::F32,
            normalized: false,
            stride: 0,
            source: VertexSource::ClientMemory(ptr),
        },
        GlCommand::DrawArrays {
            mode: Primitive::Triangles,
            first: 0,
            count: 3,
        },
    ];
    let err = fw.forward_frame(&frame, &mem).unwrap_err();
    assert!(matches!(err, GBoosterError::Wire(_)), "got {err:?}");
}

/// An undersized client region is caught when the draw reveals the true
/// length requirement.
#[test]
fn undersized_client_region_is_caught() {
    let mut mem = ClientMemory::new();
    let ptr = mem.alloc(vec![0u8; 16]); // 2 vertices only
    let mut fw = CommandForwarder::new();
    let frame = vec![
        GlCommand::VertexAttribPointer {
            index: 0,
            size: 2,
            ty: AttribType::F32,
            normalized: false,
            stride: 0,
            source: VertexSource::ClientMemory(ptr),
        },
        GlCommand::DrawArrays {
            mode: Primitive::Triangles,
            first: 0,
            count: 6, // needs 48 bytes
        },
    ];
    assert!(fw.forward_frame(&frame, &mem).is_err());
}

/// Replaying a stream that references objects the app never created must
/// error on the service device, not corrupt its context.
#[test]
fn invalid_gl_stream_is_rejected_by_the_replica() {
    let mut gpu = SoftGpu::new(32, 32, ExecMode::CostOnly);
    let err = gpu
        .execute(&GlCommand::BindTexture {
            target: TextureTarget::Texture2D,
            texture: TextureId(999),
        })
        .unwrap_err();
    assert!(matches!(err, GlError::InvalidHandle(_)));
    // Drawing without a program is equally rejected.
    let err = gpu
        .execute(&GlCommand::DrawArrays {
            mode: Primitive::Triangles,
            first: 0,
            count: 3,
        })
        .unwrap_err();
    assert!(matches!(err, GlError::InvalidOperation(_)));
    // The context remains usable after errors.
    gpu.execute(&GlCommand::CreateProgram(ProgramId(1)))
        .unwrap();
    gpu.execute(&GlCommand::LinkProgram(ProgramId(1))).unwrap();
    gpu.execute(&GlCommand::UseProgram(ProgramId(1))).unwrap();
}

/// Reliability under severe loss: everything still arrives, in order.
#[test]
fn rudp_survives_brutal_channels() {
    for (loss, seed) in [(0.2, 1u64), (0.3, 2), (0.25, 3)] {
        let ch = ChannelModel::lossy(loss);
        let stats = simulate_transfer(80_000, &ch, RudpConfig::default(), seed);
        assert_eq!(stats.bytes, 80_000, "loss {loss} seed {seed}");
        assert!(stats.retransmissions > 0);
    }
}

/// A loss storm trips the flight recorder exactly once: one dump,
/// carrying the last N stitched traces up to and including the faulted
/// frame, with the registry snapshot frozen at trigger time.
#[test]
fn loss_storm_triggers_exactly_one_flight_dump() {
    let report = Session::run(&faulted_config(FaultInjection {
        loss_storm_at_frame: Some(40),
        ..FaultInjection::default()
    }));
    let dump = report.flight.expect("storm must trigger the recorder");
    assert_eq!(dump.fault, Fault::LossStorm);
    assert_eq!(report.telemetry.counter(names::flight::DUMPS), 1);
    assert!(report.telemetry.counter(names::flight::FAULTS) >= 1);
    // The ring holds the last N frames ending at the faulted one.
    assert_eq!(dump.frames.len(), 8);
    assert_eq!(dump.frames.last().unwrap().seq, 40);
    for pair in dump.frames.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1, "ring must be contiguous");
    }
    // Every retained trace is stitched (remote subtree present).
    for f in &dump.frames {
        assert!(f.root.child(names::remote::SUBTREE).is_some());
    }
    // The dump parses as JSONL: header, one line per frame, trailer.
    let jsonl = dump.to_jsonl();
    assert_eq!(jsonl.lines().count(), 2 + dump.frames.len());
    assert!(jsonl.starts_with("{\"fault\":\"loss_storm\""));
    // The snapshot was taken at the fault, not session end.
    assert!(
        dump.snapshot.counter(names::session::FRAMES_DISPLAYED)
            < report.telemetry.counter(names::session::FRAMES_DISPLAYED)
    );
}

/// A dispatch stall past the timeout budget fires the dispatch-timeout
/// detector; later faults are latched out.
#[test]
fn dispatch_stall_triggers_the_timeout_detector_once() {
    let report = Session::run(&faulted_config(FaultInjection {
        dispatch_stall_at_frame: Some(25),
        // A second scheduled fault after the first must NOT produce a
        // second dump: the latch keeps the primary evidence.
        loss_storm_at_frame: Some(60),
        ..FaultInjection::default()
    }));
    let dump = report.flight.expect("stall must trigger the recorder");
    assert_eq!(dump.fault, Fault::DispatchTimeout);
    assert_eq!(dump.frames.last().unwrap().seq, 25);
    assert_eq!(report.telemetry.counter(names::flight::DUMPS), 1);
    assert!(report.telemetry.counter(names::flight::FAULTS) >= 2);
}

/// Rapid WiFi power cycling fires the interface-flap detector.
#[test]
fn interface_flap_triggers_the_flap_detector() {
    let report = Session::run(&faulted_config(FaultInjection {
        iface_flap_at_frame: Some(30),
        ..FaultInjection::default()
    }));
    let dump = report.flight.expect("flap must trigger the recorder");
    assert_eq!(dump.fault, Fault::InterfaceFlap);
    assert_eq!(report.telemetry.counter(names::flight::DUMPS), 1);
}

/// Killing one of N service nodes mid-stream must drain via re-dispatch:
/// the dead node's in-flight frames finish on the next-best node, the
/// presented sequence has no gap, and the flight recorder captures the
/// node loss as the primary fault.
#[test]
fn node_loss_redispatches_in_flight_frames_without_a_gap() {
    let config = SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
        .duration_secs(12)
        .seed(7)
        .mode(ExecutionMode::Offloaded(OffloadConfig {
            service_devices: vec![
                DeviceSpec::nvidia_shield(),
                DeviceSpec::dell_optiplex_9010(),
                DeviceSpec::dell_m4600(),
            ],
            flight_recorder_depth: 8,
            faults: FaultInjection {
                node_events: vec![NodeEvent::Kill { frame: 50, node: 0 }],
                ..FaultInjection::default()
            },
            ..OffloadConfig::default()
        }))
        .build();
    let report = Session::run(&config);

    // The stream drains: every frame up to session end presents, in
    // order, with no gap where the dead node's frames were.
    let seqs: Vec<u64> = report.trace.frames().iter().map(|f| f.seq).collect();
    assert_eq!(seqs.len() as u64, report.frames);
    for (i, &seq) in seqs.iter().enumerate() {
        assert_eq!(seq, i as u64, "no gap in presented frames");
    }

    // The kill was detected and handled.
    assert_eq!(report.telemetry.counter(names::sched::NODE_FAILURES), 1);
    assert!(
        report.telemetry.counter(names::sched::REDISPATCHES) >= 1,
        "in-flight frames on the dead node must re-dispatch"
    );
    // The dead node served nothing after frame 50's dispatch; the
    // survivors carried the rest of the stream.
    assert_eq!(report.per_device_requests.len(), 3);
    let survivors: u64 = report.per_device_requests[1..].iter().sum();
    assert!(survivors > 0, "surviving nodes must take over");
    // A re-dispatched frame counts at both its original and its rescue
    // node, so the per-node totals exceed the frame count by exactly the
    // number of re-dispatches.
    assert_eq!(
        report.per_device_requests.iter().sum::<u64>(),
        report.frames + report.telemetry.counter(names::sched::REDISPATCHES),
    );

    // The flight recorder's one dump names the node loss — not the
    // secondary dispatch-delay symptoms the re-dispatch causes.
    let dump = report.flight.expect("node loss must trigger the recorder");
    assert_eq!(dump.fault, Fault::NodeLoss);
    assert_eq!(report.telemetry.counter(names::flight::DUMPS), 1);
    assert!(report.telemetry.counter(names::flight::FAULTS) >= 1);
}

/// A G1 session on a Nexus 5 whose loss storm lands at frame 40, with
/// the flight dump sized `depth` frames.
fn storm_at_40_with_flight_depth(depth: usize) -> SessionConfig {
    SessionConfig::builder(GameTitle::g1_gta_san_andreas(), DeviceSpec::nexus5())
        .duration_secs(3)
        .seed(20170605)
        .mode(ExecutionMode::Offloaded(OffloadConfig {
            flight_recorder_depth: depth,
            faults: FaultInjection {
                loss_storm_at_frame: Some(40),
                ..FaultInjection::default()
            },
            ..OffloadConfig::default()
        }))
        .build()
}

/// The dump is cut from the trace log, so a depth no memory could hold
/// allocates nothing up front: the session completes and the dump holds
/// every frame presented up to the fault.
#[test]
fn an_unbounded_flight_depth_dumps_every_frame_up_to_the_fault() {
    let report = Session::run(&storm_at_40_with_flight_depth(usize::MAX));
    let dump = report.flight.expect("storm must trigger the recorder");
    assert_eq!(dump.fault, Fault::LossStorm);
    let seqs: Vec<u64> = dump.frames.iter().map(|f| f.seq).collect();
    assert_eq!(seqs, (0..=40).collect::<Vec<u64>>());
}

/// A zero depth is promoted to one: the dump holds the faulted frame.
#[test]
fn zero_flight_depth_is_promoted_to_one() {
    let report = Session::run(&storm_at_40_with_flight_depth(0));
    let dump = report.flight.expect("storm must trigger the recorder");
    assert_eq!(dump.frames.len(), 1);
    assert_eq!(dump.frames[0].seq, 40);
}

/// A fault-free session never fires the recorder.
#[test]
fn fault_free_sessions_emit_no_dump() {
    let report = Session::run(&faulted_config(FaultInjection::default()));
    assert!(report.flight.is_none());
    assert_eq!(report.telemetry.counter(names::flight::FAULTS), 0);
    assert_eq!(report.telemetry.counter(names::flight::DUMPS), 0);
}

/// Trace-context propagation is loss-proof: under heavy loss (forcing
/// retransmission and out-of-order arrival) every delivered datagram
/// still carries the original context, the clock offset is still
/// recovered, and the faulted session strands no orphan remote spans.
#[test]
fn trace_context_survives_loss_without_orphan_spans() {
    for (loss, seed, skew) in [(0.25, 11u64, 70_000i64), (0.3, 12, -40_000)] {
        let ch = ChannelModel::lossy(loss);
        let mut est = ClockOffsetEstimator::new();
        let ctx = TraceContext::new(0xFEED, 9, 1);
        let stats = simulate_transfer_ctx(
            60_000,
            &ch,
            RudpConfig::default(),
            seed,
            None,
            ctx,
            Some(ClockSync {
                true_offset_us: skew,
                estimator: &mut est,
            }),
        );
        assert_eq!(stats.bytes, 60_000);
        assert!(stats.retransmissions > 0, "loss {loss} must retransmit");
        let recovered = est.offset_us().expect("acks observed");
        assert!(
            (recovered - skew).abs() < 2_000,
            "loss {loss}: skew {skew} recovered {recovered}"
        );
    }
    // Session-level: even with a loss storm mid-run, every remote span
    // finds its frame — no orphans.
    let report = Session::run(&faulted_config(FaultInjection {
        loss_storm_at_frame: Some(20),
        ..FaultInjection::default()
    }));
    assert_eq!(report.telemetry.counter(names::tracing::ORPHAN_SPANS), 0);
    assert_eq!(
        report.telemetry.counter(names::tracing::STITCHED_FRAMES),
        report.frames
    );
}

/// A command with a huge (but bounded) payload flows through the whole
/// pipeline without overflow.
#[test]
fn oversized_texture_uploads_round_trip() {
    let mem = ClientMemory::new();
    let mut fw = CommandForwarder::new();
    let mut rx = ServiceReceiver::new();
    let big = vec![7u8; 1024 * 1024 * 4];
    let frame = vec![GlCommand::TexImage2D {
        target: TextureTarget::Texture2D,
        level: 0,
        format: gbooster::gles::types::PixelFormat::Rgba8,
        width: 1024,
        height: 1024,
        data: Arc::new(big.clone()),
    }];
    let fwd = fw.forward_frame(&frame, &mem).unwrap();
    let decoded = rx.receive(&fwd.wire).unwrap();
    let GlCommand::TexImage2D { data, .. } = &decoded[0] else {
        panic!("wrong command decoded");
    };
    assert_eq!(data.len(), big.len());
}

/// Client-pointer reuse across frames: freeing memory *after* the frames
/// that referenced it were forwarded is safe.
#[test]
fn pointer_lifetime_across_frames() {
    let mut mem = ClientMemory::new();
    let ptr = mem.alloc(vec![1u8; 48]);
    let mut fw = CommandForwarder::new();
    let frame = |p: ClientPtr| {
        vec![
            GlCommand::VertexAttribPointer {
                index: 0,
                size: 2,
                ty: AttribType::F32,
                normalized: false,
                stride: 0,
                source: VertexSource::ClientMemory(p),
            },
            GlCommand::DrawArrays {
                mode: Primitive::Triangles,
                first: 0,
                count: 6,
            },
            GlCommand::SwapBuffers,
        ]
    };
    fw.forward_frame(&frame(ptr), &mem).unwrap();
    fw.forward_frame(&frame(ptr), &mem).unwrap();
    mem.free(ptr);
    // A later frame using the dead pointer errors cleanly.
    assert!(fw.forward_frame(&frame(ptr), &mem).is_err());
}

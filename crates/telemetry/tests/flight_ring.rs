//! Flight-dump window coverage: the dump is the trace log's last N
//! frames, so fill the log far past N, storm the recorder with N+k
//! faults, and assert the window's order, the one-shot latch, and the
//! JSONL dump shape all hold together.

use gbooster_sim::time::SimTime;
use gbooster_telemetry::json::{self, JsonValue};
use gbooster_telemetry::trace::{FrameTrace, SpanNode};
use gbooster_telemetry::{names, Fault, FlightRecorder, Registry, TraceLog};

fn frame(seq: u64) -> FrameTrace {
    let start = SimTime::from_micros(seq * 16_000);
    let end = SimTime::from_micros(seq * 16_000 + 12_000);
    let mut root = SpanNode::new(names::stage::FRAME, start, end);
    root.stage(
        names::stage::UPLINK,
        start,
        SimTime::from_micros(seq * 16_000 + 2_000),
    );
    FrameTrace { seq, root }
}

#[test]
fn wraparound_evicts_oldest_latches_once_and_dumps_well_formed_jsonl() {
    const N: usize = 8;
    const FRAMES: u64 = 50;
    const K: u64 = 5;

    let mut rec = FlightRecorder::new();

    // Slide the dump window several times over.
    let mut log = TraceLog::new();
    for seq in 0..FRAMES {
        log.push(frame(seq));
    }

    // A registry snapshot with something in it, so the trailer is
    // non-trivial.
    let reg = Registry::new();
    reg.counter(names::session::FRAMES_DISPLAYED).add(FRAMES);
    reg.histogram(names::stage::TOTAL).record_tagged(14_000, 49);

    // N + k faults: only the first may emit.
    let mut emitted = 0;
    for i in 0..(N as u64 + K) {
        let fired = rec.trigger(
            Fault::LossStorm,
            SimTime::from_micros(900_000 + i),
            log.tail(N),
            || reg.snapshot(),
        );
        if fired {
            emitted += 1;
            assert_eq!(i, 0, "only the first fault may fire the latch");
        }
    }
    assert_eq!(emitted, 1);
    assert_eq!(rec.dumps().len(), 1, "latch caps dumps at one");
    assert_eq!(rec.faults_seen(), N as u64 + K);
    assert!(rec.has_fired());

    // Exactly the newest N frames survive, oldest first, contiguous.
    let dump = &rec.dumps()[0];
    let seqs: Vec<u64> = dump.frames.iter().map(|f| f.seq).collect();
    let expect: Vec<u64> = (FRAMES - N as u64..FRAMES).collect();
    assert_eq!(seqs, expect, "dump must hold the last {N} frames in order");

    // The dump is well-formed JSONL: header + N frames + snapshot
    // trailer, every line independently parseable.
    let jsonl = dump.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 1 + N + 1);

    let header = json::parse(lines[0]).expect("header parses");
    let header = header.as_obj().expect("header is an object");
    assert_eq!(
        header.get("fault").and_then(JsonValue::as_str),
        Some("loss_storm")
    );
    assert_eq!(
        header.get("frames").and_then(JsonValue::as_f64),
        Some(N as f64)
    );

    for (i, line) in lines[1..=N].iter().enumerate() {
        let doc = json::parse(line).unwrap_or_else(|e| panic!("frame line {i} bad: {e}"));
        let obj = doc.as_obj().expect("frame line is an object");
        assert_eq!(
            obj.get("seq").and_then(JsonValue::as_f64),
            Some(expect[i] as f64),
            "frame line {i} seq"
        );
        let span = obj.get("span").and_then(JsonValue::as_obj).expect("span");
        assert_eq!(
            span.get("name").and_then(JsonValue::as_str),
            Some(names::stage::FRAME)
        );
    }

    let trailer = json::parse(lines[N + 1]).expect("trailer parses");
    let snap = trailer
        .as_obj()
        .and_then(|o| o.get("snapshot"))
        .and_then(JsonValue::as_obj)
        .expect("snapshot trailer");
    let counters = snap
        .get("counters")
        .and_then(JsonValue::as_obj)
        .expect("counters");
    assert_eq!(
        counters
            .get(names::session::FRAMES_DISPLAYED)
            .and_then(JsonValue::as_f64),
        Some(FRAMES as f64)
    );
}

#[test]
fn wraparound_at_exact_capacity_boundary() {
    // Log exactly N, then one more: the very first frame is the one
    // left out of the window — no off-by-one at the boundary.
    const N: usize = 4;
    let mut log = TraceLog::new();
    for seq in 0..=N as u64 {
        log.push(frame(seq));
    }
    let mut rec = FlightRecorder::new();
    rec.trigger(
        Fault::NodeLoss,
        SimTime::from_micros(123),
        log.tail(N),
        || Registry::new().snapshot(),
    );
    let seqs: Vec<u64> = rec.dumps()[0].frames.iter().map(|f| f.seq).collect();
    assert_eq!(seqs, vec![1, 2, 3, 4]);
}

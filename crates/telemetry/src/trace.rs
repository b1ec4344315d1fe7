//! Sim-time span trees and the per-frame trace log.
//!
//! A [`SpanNode`] is a named `[start, end]` interval of
//! [`SimTime`] with child spans; the session engine builds one tree per
//! displayed frame recording the frame's journey through the offload
//! pipeline. [`TraceLog`] accumulates them and exports JSON Lines (one
//! frame object per line) for offline analysis.

use gbooster_sim::time::{SimDuration, SimTime};

/// One timed interval in a frame's span tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// Stage name (see [`crate::names::stage`]).
    pub name: &'static str,
    /// Interval start.
    pub start: SimTime,
    /// Interval end (`>= start`; construction clamps).
    pub end: SimTime,
    /// Nested sub-spans.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Creates a leaf span. `end` is clamped to `start` so a stage whose
    /// model overlaps its neighbor can never produce a negative interval.
    pub fn new(name: &'static str, start: SimTime, end: SimTime) -> Self {
        SpanNode {
            name,
            start,
            end: end.max(start),
            children: Vec::new(),
        }
    }

    /// Appends a child stage and returns `self` for chaining.
    pub fn stage(&mut self, name: &'static str, start: SimTime, end: SimTime) -> &mut Self {
        self.children.push(SpanNode::new(name, start, end));
        self
    }

    /// Appends an already-built subtree.
    pub fn push(&mut self, child: SpanNode) -> &mut Self {
        self.children.push(child);
        self
    }

    /// The interval length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Finds a direct child by name.
    pub fn child(&self, name: &str) -> Option<&SpanNode> {
        self.children.iter().find(|c| c.name == name)
    }

    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str(NAME);
        crate::json::escape_into(self.name, out);
        out.push_str(START);
        crate::json::push_u64(out, self.start.as_micros());
        out.push_str(END);
        crate::json::push_u64(out, self.end.as_micros());
        if !self.children.is_empty() {
            out.push_str(CHILDREN);
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                c.write_json(out);
            }
            out.push(']');
        }
        out.push('}');
    }
}

/// The fixed parts of a span's JSON, written by [`SpanNode::write_json`]
/// and counted by [`SpanLen`].
const NAME: &str = "{\"name\":\"";
const START: &str = "\",\"start_us\":";
const END: &str = ",\"end_us\":";
const CHILDREN: &str = ",\"children\":[";

/// The calls that assemble a span tree, so one function can state a
/// tree's shape once and either build it ([`SpanNode`]) or only measure
/// its JSON ([`SpanLen`]).
pub trait SpanTree: Sized {
    /// A leaf span; `end` is clamped to `start`.
    fn new(name: &'static str, start: SimTime, end: SimTime) -> Self;

    /// Appends an already-assembled subtree.
    fn push(&mut self, child: Self) -> &mut Self;

    /// Appends a leaf child stage.
    fn stage(&mut self, name: &'static str, start: SimTime, end: SimTime) -> &mut Self {
        let child = Self::new(name, start, end);
        self.push(child)
    }
}

impl SpanTree for SpanNode {
    fn new(name: &'static str, start: SimTime, end: SimTime) -> Self {
        SpanNode::new(name, start, end)
    }

    fn push(&mut self, child: Self) -> &mut Self {
        SpanNode::push(self, child)
    }
}

/// The length in bytes of the JSON the exporters write for the span
/// tree the same [`SpanTree`] calls would build (the `"span"` of a
/// [`crate::sample::serialize_into`] line), without building the tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanLen {
    bytes: u64,
    has_children: bool,
}

impl SpanLen {
    /// The JSON length of the tree assembled so far.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl SpanTree for SpanLen {
    fn new(name: &'static str, start: SimTime, end: SimTime) -> Self {
        let fixed = NAME.len() + START.len() + END.len() + "}".len();
        SpanLen {
            bytes: fixed as u64
                + crate::json::escaped_len(name)
                + crate::json::u64_len(start.as_micros())
                + crate::json::u64_len(end.max(start).as_micros()),
            has_children: false,
        }
    }

    fn push(&mut self, child: Self) -> &mut Self {
        // The first child opens the list and its closing `]`; every
        // later one adds a separating comma.
        let framing = if self.has_children {
            ",".len()
        } else {
            CHILDREN.len() + "]".len()
        };
        self.bytes += framing as u64 + child.bytes;
        self.has_children = true;
        self
    }
}

/// One displayed frame's span tree plus its sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameTrace {
    /// Display order, 0-based.
    pub seq: u64,
    /// The root span (named [`crate::names::stage::FRAME`]).
    pub root: SpanNode,
}

impl FrameTrace {
    /// Appends this frame's JSON Lines record,
    /// `{"seq":N,"span":{...}}` and a newline: the one frame schema the
    /// trace log and the flight dump share.
    pub(crate) fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"seq\":");
        crate::json::push_u64(out, self.seq);
        out.push_str(",\"span\":");
        self.root.write_json(out);
        out.push_str("}\n");
    }
}

/// The per-session accumulation of frame traces.
///
/// Memory is bounded by `max_frames`; once full, further frames are
/// counted in [`TraceLog::dropped`] but not stored, so a pathological
/// run cannot exhaust memory while counters stay truthful. The log keeps
/// its head, not its tail: past the cap, [`TraceLog::tail`] (which the
/// flight recorder's dump is cut from) ends at the last frame the log
/// kept, not at the newest frame presented.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    frames: Vec<FrameTrace>,
    max_frames: usize,
    dropped: u64,
}

/// Default retention: enough for several minutes at 60 FPS.
const DEFAULT_MAX_FRAMES: usize = 65_536;

impl TraceLog {
    /// Creates a log with the default retention cap.
    pub fn new() -> Self {
        Self::with_capacity_limit(DEFAULT_MAX_FRAMES)
    }

    /// Creates a log retaining at most `max_frames` traces.
    pub fn with_capacity_limit(max_frames: usize) -> Self {
        TraceLog {
            frames: Vec::new(),
            max_frames,
            dropped: 0,
        }
    }

    /// Appends one frame's trace (dropped once the cap is reached).
    pub fn push(&mut self, trace: FrameTrace) {
        if self.frames.len() < self.max_frames {
            self.frames.push(trace);
        } else {
            self.dropped += 1;
        }
    }

    /// The retained traces, in display order.
    pub fn frames(&self) -> &[FrameTrace] {
        &self.frames
    }

    /// The last `n` retained traces, oldest first (all of them when
    /// fewer are retained).
    pub fn tail(&self, n: usize) -> &[FrameTrace] {
        &self.frames[self.frames.len().saturating_sub(n)..]
    }

    /// Traces discarded after the retention cap filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained trace count.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Exports the log as JSON Lines: one object per frame, of the form
    /// `{"seq":N,"span":{"name":...,"start_us":...,"end_us":...,
    /// "children":[...]}}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for f in &self.frames {
            f.write_jsonl(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::stage;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn negative_intervals_clamp() {
        let s = SpanNode::new(stage::UPLINK, t(100), t(40));
        assert_eq!(s.start, s.end);
        assert_eq!(s.duration(), SimDuration::ZERO);
    }

    #[test]
    fn stage_chaining_builds_a_tree() {
        let mut root = SpanNode::new(stage::FRAME, t(0), t(1000));
        root.stage(stage::INTERCEPT, t(0), t(10))
            .stage(stage::UPLINK, t(10), t(200));
        assert_eq!(root.children.len(), 2);
        assert_eq!(
            root.child(stage::UPLINK).unwrap().duration().as_micros(),
            190
        );
        assert!(root.child("nope").is_none());
    }

    #[test]
    fn jsonl_is_one_line_per_frame() {
        let mut log = TraceLog::new();
        for seq in 0..3 {
            let mut root = SpanNode::new(stage::FRAME, t(seq * 100), t(seq * 100 + 50));
            root.stage(stage::DECODE, t(seq * 100), t(seq * 100 + 20));
            log.push(FrameTrace { seq, root });
        }
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        let first = jsonl.lines().next().unwrap();
        assert!(first.starts_with("{\"seq\":0,\"span\":{\"name\":\"frame\""));
        assert!(first.contains("\"children\":[{\"name\":\"stage.decode\""));
    }

    /// A tree with every part of the span JSON: one and several
    /// children, nesting, a clamped stage, a name that needs escaping,
    /// and numbers at digit boundaries.
    fn every_part<S: SpanTree>() -> S {
        let mut root = S::new(stage::FRAME, t(0), t(u64::MAX));
        let mut inner = S::new(stage::UPLINK, t(9), t(10));
        inner.stage(stage::DECODE, t(10), t(9));
        root.push(inner);
        root.stage("q\"uote", t(99), t(100))
            .stage(stage::DISPLAY_WAIT, t(999_999), t(1_000_000));
        root
    }

    #[test]
    fn span_len_counts_what_write_json_writes() {
        let mut out = String::new();
        every_part::<SpanNode>().write_json(&mut out);
        assert_eq!(every_part::<SpanLen>().bytes(), out.len() as u64, "{out}");
    }

    #[test]
    fn retention_cap_counts_drops() {
        let mut log = TraceLog::with_capacity_limit(2);
        for seq in 0..5 {
            log.push(FrameTrace {
                seq,
                root: SpanNode::new(stage::FRAME, t(0), t(1)),
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
    }
}

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
        out.push_str("{\"name\":\"");
        crate::json::escape_into(self.name, out);
        out.push_str("\",\"start_us\":");
        crate::json::push_u64(out, self.start.as_micros());
        out.push_str(",\"end_us\":");
        crate::json::push_u64(out, self.end.as_micros());
        if !self.children.is_empty() {
            out.push_str(",\"children\":[");
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

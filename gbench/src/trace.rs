//! Spans the traced run records around its own calls into each layer.
//!
//! A span is a name, a start, an end, the span that was open when it
//! began (its parent), the run it belongs to, and the heap bytes
//! allocated while it was the innermost open span. Spans stay in memory
//! and are written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::time::Instant;

use gbooster::telemetry::json;

use crate::alloc;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `core.forward`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Run the span belongs to.
    pub run: u32,
    /// Heap bytes allocated while this span was the innermost open one.
    pub alloc_bytes: u64,
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Sum of self-charged allocation bytes.
    pub alloc_bytes: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// same replay code measures tracing overhead against itself.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
    alloc_mark: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            alloc_mark: alloc::allocated(),
        }
    }

    /// Starts a new run: later spans carry its id.
    pub fn begin_run(&mut self) {
        self.run += 1;
    }

    /// Opens a span named `name` inside the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.charge_open();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
            alloc_bytes: 0,
        });
        self.open.push(idx);
        // The tracer's own growth above is charged to no span.
        self.alloc_mark = alloc::allocated();
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (an unbalanced enter/exit pair).
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        self.charge_open();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Charges the bytes allocated since the last span event to the
    /// innermost open span.
    fn charge_open(&mut self) {
        let now = alloc::allocated();
        if let Some(&top) = self.open.last() {
            self.spans[top].alloc_bytes += now - self.alloc_mark;
        }
        self.alloc_mark = now;
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Overlapping children count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Totals per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += own;
        t.alloc_bytes += s.alloc_bytes;
    }
    out
}

/// The spans as one JSON document.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"workload\":");
    out.push_str(&json::quote(workload));
    out.push_str(",\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"alloc_bytes\":{}}}",
            s.name, s.start_ns, s.end_ns, s.run, s.alloc_bytes
        ));
    }
    out.push_str("]}\n");
    out
}

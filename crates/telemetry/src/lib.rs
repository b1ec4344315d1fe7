//! Unified observability for the GBooster offload pipeline.
//!
//! Three layers, all driven by **sim time** ([`gbooster_sim::time`]),
//! never the wall clock:
//!
//! * [`Registry`] — a lock-cheap store of named counters, gauges, and
//!   fixed-bucket latency histograms (p50/p90/p99/max). Registration
//!   takes a mutex once; the returned handles are plain atomics, so
//!   per-frame instrumentation costs an atomic add. Every copy of a
//!   histogram is a [`HistogramSnapshot`], which keeps only its
//!   non-empty buckets.
//! * [`trace`] — per-frame span trees ([`SpanNode`]) recording a
//!   frame's journey through intercept → resolve → cache → LZ4 →
//!   uplink → dispatch → render → encode → downlink → decode → vsync,
//!   accumulated in a [`TraceLog`] and exportable as JSON Lines.
//! * [`report`] — [`TelemetrySnapshot`], a point-in-time copy of the
//!   registry with derived pipeline metrics (cache hit rate,
//!   compression ratio, retransmit and misprediction counts) and a
//!   human-readable end-of-session report.
//!
//! On top of those, the distributed-tracing layer spans the device
//! boundary:
//!
//! * [`context`] — the 20-byte [`TraceContext`] carried in every RUDP
//!   datagram so both devices agree which frame a packet serves.
//! * [`remote`] — service-clock span capture ([`RemoteSpanLog`]) and
//!   NTP-style offset recovery from ack timestamps
//!   ([`ClockOffsetEstimator`]).
//! * [`stitch`] — rebases remote spans onto the user clock and grafts
//!   them under the frame root as a monotone `remote` subtree.
//! * [`export`] — Chrome trace-event JSON ([`chrome_trace`]) and
//!   Prometheus text exposition ([`prometheus_text`]).
//! * [`flight`] — a one-shot latch that dumps a structured postmortem,
//!   the trace log's last stitched frames plus a registry snapshot,
//!   when a fault fires ([`FlightRecorder`]).
//! * [`attr`] — resource attribution ([`AttributionLog`]): uplink
//!   bytes by GL category × cache outcome, downlink bytes by frame
//!   kind, sim time and joules by stage × node × interface.
//! * [`diff`] — row-level movement between two attribution snapshots,
//!   printed by the bench regression gate next to failing metrics.
//!
//! The **live-ops layer** evaluates the session while it runs instead
//! of after it ends:
//!
//! * [`hist::WindowedHistogramCore`] / [`registry::WindowedHistogram`]
//!   — time-slotted histograms answering "the distribution over the
//!   last N ms".
//! * [`slo`] — SLO objectives with Google-SRE multi-window burn-rate
//!   evaluation ([`SloObjective`]) and EWMA z-score anomaly detection
//!   ([`AnomalyDetector`]) for streams without hard objectives.
//! * [`alert`] — the Pending → Firing → Resolved machine with dwell,
//!   hysteresis, and dedup ([`AlertMachine`]).
//! * [`incident`] — the shared structured-event journal ([`OpsLog`])
//!   and the correlator folding concurrent faults, alerts, health
//!   transitions, and flight dumps into causally-ordered incident
//!   records with postmortem rendering ([`IncidentManager`],
//!   [`OpsReport`]).
//!
//! The multi-tenant fabric's observer keeps history across tenants:
//!
//! * [`sample`] — tail-sampled trace retention under per-tenant byte
//!   budgets ([`TailSampler`]).
//! * [`tsdb`] — a ring-buffer store of scraped registry points
//!   ([`Tsdb`]), with one write path for scalars and histograms.
//! * [`query`] — PromQL-lite queries over the [`Tsdb`].
//!
//! One layer deliberately breaks the sim-time rule: [`prof`] /
//! [`flame`] profile the **simulator's own wall-clock cost** — scoped
//! host-time accounting with per-scope allocation counts (under the
//! `host-prof` feature) and flamegraph-compatible collapsed-stack
//! export — so hot-path optimizations are judged against measured
//! numbers.
//!
//! Metric and stage names live in [`names`]; the full schema is
//! documented in `docs/OBSERVABILITY.md`.
//!
//! ```
//! use gbooster_sim::time::SimTime;
//! use gbooster_telemetry::{names, FrameTrace, Registry, SpanNode, TraceLog};
//!
//! let reg = Registry::new();
//! reg.histogram(names::stage::UPLINK).record(1_500); // µs
//! reg.counter(names::forward::CACHE_HITS).add(40);
//! reg.counter(names::forward::CACHE_MISSES).add(10);
//!
//! let mut trace = TraceLog::new();
//! let mut root = SpanNode::new(
//!     names::stage::FRAME,
//!     SimTime::ZERO,
//!     SimTime::from_micros(2_000),
//! );
//! root.stage(
//!     names::stage::UPLINK,
//!     SimTime::from_micros(100),
//!     SimTime::from_micros(1_600),
//! );
//! trace.push(FrameTrace { seq: 0, root });
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.cache_hit_rate(), 0.8);
//! assert!(snap.render_report().contains("stage.uplink"));
//! assert_eq!(trace.to_jsonl().lines().count(), 1);
//! ```

pub mod alert;
pub mod attr;
pub mod context;
pub mod diff;
pub mod export;
pub mod flame;
pub mod flight;
pub mod hist;
pub mod incident;
pub mod json;
pub mod names;
pub mod prof;
pub mod query;
pub mod registry;
pub mod remote;
pub mod report;
pub mod sample;
pub mod slo;
pub mod stitch;
pub mod trace;
pub mod tsdb;

pub use alert::{AlertConfig, AlertMachine, AlertState, AlertTransition};
pub use attr::{AttributionLog, AttributionSnapshot, UplinkFrameEntry};
pub use context::TraceContext;
pub use diff::{diff as attribution_diff, AttributionDiff};
pub use export::{
    chrome_trace, prometheus_text, prometheus_text_with_labels, prometheus_text_with_labels_dedup,
};
pub use flame::{collapsed_stack, parse_collapsed, CollapsedLine};
pub use flight::{Fault, FlightDump, FlightRecorder};
pub use hist::{Exemplar, HistogramSnapshot};
pub use incident::{
    AlertSummary, Incident, IncidentConfig, IncidentManager, OpsEvent, OpsEventKind, OpsLog,
    OpsReport, SloWindowState,
};
pub use prof::{HostProfileSnapshot, HostProfiler};
pub use query::{eval as query_eval, QueryError};
pub use registry::{Counter, Gauge, Histogram, Registry, WindowedHistogram};
pub use remote::{ClockOffsetEstimator, RemoteSpan, RemoteSpanLog};
pub use report::TelemetrySnapshot;
pub use sample::{FrameVerdict, KeepReason, KeptTrace, TailSampler};
pub use slo::{Anomaly, AnomalyDetector, BurnState, SloObjective};
pub use stitch::{stitch_remote, StitchOutcome};
pub use trace::{FrameTrace, SpanNode, TraceLog};
pub use tsdb::{Series, SeriesData, Tsdb};

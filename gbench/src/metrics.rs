//! The metric catalogue and how results are printed and stored.
//!
//! Every metric gbench prints is listed here with its unit and
//! direction; end-to-end metrics also carry the bound by which they may
//! worsen before a change counts as a regression. The `contract` ones are
//! the metrics `BENCHMARK.json` lists: every workload reports all of them
//! and they form the one-line JSON summary a run ends with.

use gbooster::telemetry::json;

use crate::stats::Summary;
use crate::workloads::Workload;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogue entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Name, unique across the catalogue.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the base value by which the
    /// metric may worsen. Per-layer metrics have none.
    pub bound: Option<f64>,
    /// Listed in `BENCHMARK.json` and reported by every workload.
    pub contract: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    contract: bool,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        contract,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, contract: bool) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        contract,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, from the untraced run. The `sim_*` values are
/// deterministic per seed, so their bound is zero: a simulator-speed
/// change must leave them identical.
pub const END_TO_END: &[Metric] = &[
    e2e("frames_per_s", "frames/s", Higher, 0.25, true),
    e2e("setup_s", "s", Lower, 0.25, true),
    e2e("alloc_bytes_per_frame", "B/frame", Lower, 0.05, true),
    e2e("peak_heap_mb", "MB", Lower, 0.1, true),
    e2e("failed_frac", "ratio", Lower, 0.0, false),
    e2e("sim_fps", "fps", Higher, 0.0, false),
    e2e("sim_response_ms", "ms", Lower, 0.0, false),
    e2e("sim_p99_ms", "ms", Lower, 0.0, false),
    e2e("sim_uplink_bytes_per_frame", "B/frame", Lower, 0.0, false),
    e2e("sim_downlink_bytes_per_frame", "B/frame", Lower, 0.0, false),
    e2e("sim_energy_j", "J", Lower, 0.0, false),
    e2e(
        "sim_sessions_per_node_at_slo",
        "sessions",
        Higher,
        0.0,
        false,
    ), // The machine-speed probe behind the host timings: not a property of
    // the program, so it has no bound.
    Metric {
        name: "machine.probe_ms",
        unit: "ms",
        better: Lower,
        bound: None,
        contract: false,
    },
];

/// Per-layer metrics, from the traced run. For a fabric the replayed
/// layers are those of its per-title calibration, so their per-frame
/// figures are per calibration frame.
pub const PER_LAYER: &[Metric] = &[
    layer("workload.tracegen.ns_per_frame", "ns/frame", Lower, true),
    layer("gles.serialize.ns_per_frame", "ns/frame", Lower, true),
    layer("codec.lru.ns_per_frame", "ns/frame", Lower, true),
    layer("codec.lz4.ns_per_frame", "ns/frame", Lower, true),
    layer("core.forward.ns_per_frame", "ns/frame", Lower, true),
    layer("core.forward.alloc_bytes_per_frame", "B/frame", Lower, true),
    layer("codec.lru.hit_rate", "ratio", Higher, true),
    layer("codec.lz4.ratio", "ratio", Lower, true),
    layer("core.forward.wire_ratio", "ratio", Lower, true),
    layer("core.service.decode_ns_per_frame", "ns/frame", Lower, true),
    layer("core.service.apply_ns_per_frame", "ns/frame", Lower, true),
    layer("core.service.alloc_bytes_per_frame", "B/frame", Lower, true),
    layer("core.service.replicas_per_frame", "count", Lower, true),
    layer("core.engine.loop_ns_per_frame", "ns/frame", Lower, true),
    layer("core.scheduler.redispatches", "count", Lower, true),
    layer("core.fabric.migrations", "count", Lower, true),
    layer("trace.coverage", "ratio", Higher, true),
    layer("trace.overhead_pct", "%", Lower, true),
    layer(
        "core.wrapper.intercept_ns_per_frame",
        "ns/frame",
        Lower,
        false,
    ),
    layer("core.transport.ns_per_frame", "ns/frame", Lower, false),
    layer("net.rudp.retx_per_frame", "count/frame", Lower, false),
    layer("core.scheduler.dispatch_ns", "ns/call", Lower, false),
    layer("core.reference.ns_per_frame", "ns/frame", Lower, false),
    layer("core.fabric.calibrate_s", "s", Lower, false),
    layer("telemetry.observer_ns_per_frame", "ns/frame", Lower, false),
    layer("telemetry.export_ms", "ms", Lower, false),
    layer("telemetry.sampler.keep_ratio", "ratio", Lower, false),
    layer("sim.stage.uplink_ms", "ms", Lower, false),
    layer("sim.stage.dispatch_wait_ms", "ms", Lower, false),
    layer("sim.stage.render_ms", "ms", Lower, false),
    layer("sim.stage.encode_ms", "ms", Lower, false),
    layer("sim.stage.downlink_ms", "ms", Lower, false),
    layer("sim.stage.display_wait_ms", "ms", Lower, false),
];

/// The catalogue entry for `name`.
///
/// # Panics
///
/// Panics on a name the catalogue does not list (a bug in gbench).
pub fn lookup(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// The contract metrics of one mode: end-to-end untraced, per-layer
/// traced.
pub fn contract(traced: bool) -> impl Iterator<Item = &'static Metric> {
    let list = if traced { PER_LAYER } else { END_TO_END };
    list.iter().filter(|m| m.contract)
}

/// Everything one workload's run measured.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Program runs and replays attempted.
    pub attempted: u64,
    /// Of those, how many failed: an error, a panic, or a wrong output.
    pub failed: u64,
    /// Why each failure failed.
    pub errors: Vec<String>,
    /// Metric name and samples, in the order measured.
    pub metrics: Vec<(&'static str, Summary)>,
}

impl WorkloadResult {
    /// An empty result for `workload`.
    pub fn new(workload: Workload) -> Self {
        WorkloadResult {
            workload,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Counts one attempt; a failure is recorded and becomes `None`.
    pub fn attempt<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Records a failure of an already-counted attempt.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Adds a metric (which must be in the catalogue).
    pub fn push(&mut self, name: &'static str, summary: Summary) {
        lookup(name);
        self.metrics.push((name, summary));
    }

    /// The samples of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    /// One human-readable line per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, s) in &self.metrics {
            out.push_str(&format!(
                "{:<20} {:<38} {:>18} {:<11} median q1 {} q3 {} n {}\n",
                self.workload.name(),
                name,
                s.median,
                lookup(name).unit,
                s.q1,
                s.q3,
                s.values.len()
            ));
        }
        for e in &self.errors {
            out.push_str(&format!("{:<20} FAILED: {e}\n", self.workload.name()));
        }
        out
    }

    /// The one-line summary: correctness, attempts, failures, and the
    /// median of every contract metric of this mode.
    pub fn summary_line(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in contract(traced).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = self.get(m.name).map_or(f64::NAN, |s| s.median);
            out.push_str(&format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(m.name),
                json::number(value),
                json::quote(m.unit)
            ));
        }
        out.push_str("}}");
        out
    }

    /// This result as a `results.json` workload entry.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted, self.failed
        );
        for (i, (name, s)) in self.metrics.iter().enumerate() {
            let m = lookup(name);
            if i > 0 {
                out.push(',');
            }
            let values: Vec<String> = s.values.iter().map(|&v| json::number(v)).collect();
            out.push_str(&format!(
                "\n  {}:{{\"unit\":{},\"better\":\"{}\",\"bound\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"values\":[{}]}}",
                json::quote(name),
                json::quote(m.unit),
                m.better.as_str(),
                m.bound.map_or("null".into(), json::number),
                json::number(s.median),
                json::number(s.q1),
                json::number(s.q3),
                s.values.len(),
                values.join(",")
            ));
        }
        out.push_str("}}");
        out
    }
}

/// The `results.json` document for a set of workload results.
pub fn results_json(seed: u64, seconds: f64, results: &[WorkloadResult]) -> String {
    let mut out = format!(
        "{{\"seed\":{seed},\"seconds\":{},\"workloads\":{{",
        json::number(seconds)
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{}:{}",
            json::quote(r.workload.name()),
            r.to_json()
        ));
    }
    out.push_str("}}\n");
    out
}

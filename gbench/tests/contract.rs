//! `BENCHMARK.json` against the metric catalogue, and `--quick` runs of
//! the binary against `BENCHMARK.json`: every workload, both modes.

use std::collections::BTreeSet;
use std::process::Command;

use gbooster::telemetry::json::{self, JsonValue};
use gbooster_perf::measure::DEFAULT_SECONDS;
use gbooster_perf::metrics::{contract, END_TO_END, PER_LAYER};
use gbooster_perf::workloads::Workload;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &JsonValue, key: &str) -> Vec<JsonValue> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .expect(key)
        .to_vec()
}

fn field<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    entry.get(key).and_then(JsonValue::as_str).expect(key)
}

fn listed_names(doc: &JsonValue, key: &str) -> Vec<String> {
    listed(doc, key)
        .iter()
        .map(|m| field(m, "name").to_string())
        .collect()
}

fn well_formed(s: &str, max: usize, extra: &str) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(well_formed(m.name, 64, "_.-"), "bad metric name {}", m.name);
        assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            well_formed(m.unit, 16, "_/%.-"),
            "bad unit {} of {}",
            m.unit,
            m.name
        );
        assert!(seen.insert(m.name), "metric {} listed twice", m.name);
    }
}

#[test]
fn benchmark_json_lists_the_catalogue_contract() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let run_seconds = doc.get("run_seconds").and_then(JsonValue::as_f64);
    assert_eq!(run_seconds, Some(DEFAULT_SECONDS));
    let workloads = listed_names(&doc, "workloads");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
        let entries = listed(&doc, key);
        let want: Vec<_> = contract(traced).collect();
        assert_eq!(
            entries.len(),
            want.len(),
            "{key} lists {} metrics",
            entries.len()
        );
        for (entry, m) in entries.iter().zip(want) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit, "unit of {}", m.name);
            assert_eq!(
                field(entry, "better"),
                m.better.as_str(),
                "direction of {}",
                m.name
            );
            let bound = entry.get("bound").and_then(JsonValue::as_f64);
            assert_eq!(bound, m.bound, "bound of {}", m.name);
        }
    }
    // Set-up time carries the largest bound, so work moved into set-up
    // cannot hide behind a tighter one.
    let bounds: Vec<f64> = contract(false).filter_map(|m| m.bound).collect();
    let setup = contract(false)
        .find(|m| m.name == "setup_s")
        .and_then(|m| m.bound);
    assert_eq!(setup, bounds.iter().copied().reduce(f64::max));
    assert!(bounds.iter().all(|&b| (0.0..=0.25).contains(&b)));
}

/// Runs `gbench --quick` on one workload, with the flags BENCHMARK.json's
/// command is run with, and returns its last line.
fn quick_run(w: Workload, traced: bool) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_gbench"))
        .args([
            "--workload",
            w.name(),
            "--seed",
            "7",
            "--seconds",
            "1",
            "--quick",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("gbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{} failed:\n{stdout}", w.name());
    let last = stdout.lines().last().expect("some output");
    json::parse(last)
        .unwrap_or_else(|e| panic!("last line of {} is not JSON: {e}\n{last}", w.name()))
}

#[test]
fn quick_runs_emit_exactly_the_listed_metrics_per_workload() {
    let doc = benchmark_json();
    for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
        let want: BTreeSet<String> = listed_names(&doc, key).into_iter().collect();
        for w in Workload::ALL {
            let line = quick_run(w, traced);
            let keys: Vec<&str> = line
                .as_obj()
                .expect("an object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                line.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{}",
                w.name()
            );
            assert_eq!(line.get("failed").and_then(JsonValue::as_f64), Some(0.0));
            assert!(line.get("attempted").and_then(JsonValue::as_f64) >= Some(1.0));
            let metrics = line
                .get("metrics")
                .and_then(JsonValue::as_obj)
                .expect("metrics");
            let got: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(
                got,
                want,
                "{} ({key}) emits other names than BENCHMARK.json lists",
                w.name()
            );
            for (name, m) in metrics {
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{name} has no value"
                );
            }
        }
    }
    let results = std::fs::read_to_string(concat!(
        env!("CARGO_TARGET_TMPDIR"),
        "/target/gbench/results.json"
    ))
    .expect("untraced runs write results.json");
    let results = json::parse(&results).expect("results.json parses");
    assert!(results
        .get("workloads")
        .and_then(JsonValue::as_obj)
        .is_some());
}

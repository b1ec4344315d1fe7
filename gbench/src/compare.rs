//! `gbench compare A.json B.json`: every (workload, metric) pair of two
//! `results.json` files, with a verdict against the metric's bound.

use gbooster::telemetry::json::JsonValue;

use crate::metrics::Better;
use crate::stats::Summary;

/// The verdict on B against A for one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B beats A by more than the bound.
    Better,
    /// B loses to A by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    WithinBound,
    /// A run-to-run spread wider than the bound hides the difference,
    /// and the runs of the two sides interleave.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against the base `a` on their medians; `bound` is a share
/// of A's median. A spread wider than the bound leaves the pair
/// unresolved unless every run of one side beats every run of the other.
pub fn verdict(a: &Summary, b: &Summary, bound: f64, better: Better) -> Verdict {
    let sign = match better {
        Better::Higher => -1.0,
        Better::Lower => 1.0,
    };
    let worsening = sign * relative_change(a.median, b.median);
    let separated = {
        let (a_lo, a_hi) = min_max(&a.values);
        let (b_lo, b_hi) = min_max(&b.values);
        b_hi < a_lo || b_lo > a_hi
    };
    if a.spread().max(b.spread()) > bound && !separated {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if -worsening > bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// `(b − a) / |a|`; an infinite change when `a` is zero and `b` is not.
pub fn relative_change(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY.copysign(b)
    } else {
        (b - a) / a.abs()
    }
}

fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

fn summary(entry: &JsonValue) -> Option<Summary> {
    let values = entry
        .get("values")?
        .as_arr()?
        .iter()
        .map(JsonValue::as_f64)
        .collect::<Option<Vec<f64>>>()?;
    Some(Summary::of(values))
}

/// One compared pair, ready to print.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// A's samples.
    pub a: Summary,
    /// B's samples.
    pub b: Summary,
    /// The metric's bound (share of A's value).
    pub bound: f64,
    /// Direction of improvement.
    pub better: Better,
    /// The verdict.
    pub verdict: Verdict,
}

impl Row {
    /// One printed line: each side's median with its quartiles, and the
    /// change as a share of A's median.
    pub fn render(&self) -> String {
        let (va, vb) = (self.a.median, self.b.median);
        format!(
            "{:<20} {:<30} median | A {} [{}, {}] n {} | B {} [{}, {}] n {} | change {:+.2}% of A={} {} | bound {:.1}% | {}",
            self.workload,
            self.metric,
            va,
            self.a.q1,
            self.a.q3,
            self.a.values.len(),
            vb,
            self.b.q1,
            self.b.q3,
            self.b.values.len(),
            100.0 * relative_change(va, vb),
            va,
            self.unit,
            100.0 * self.bound,
            self.verdict.as_str()
        )
    }
}

/// Compares two parsed `results.json` documents over the end-to-end
/// metrics (those with a bound) that both measured.
///
/// # Errors
///
/// A document without the `workloads` table.
pub fn compare(a: &JsonValue, b: &JsonValue) -> Result<Vec<Row>, String> {
    let workloads = |doc: &JsonValue| {
        doc.get("workloads")
            .and_then(JsonValue::as_obj)
            .cloned()
            .ok_or_else(|| "not a gbench results.json: no workloads table".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (workload, ea) in &wa {
        let (Some(ma), Some(mb)) = (
            ea.get("metrics").and_then(JsonValue::as_obj),
            wb.get(workload)
                .and_then(|e| e.get("metrics"))
                .and_then(JsonValue::as_obj),
        ) else {
            continue;
        };
        for (metric, xa) in ma {
            let Some(xb) = mb.get(metric) else { continue };
            let Some(bound) = xa.get("bound").and_then(JsonValue::as_f64) else {
                continue;
            };
            let (Some(sa), Some(sb)) = (summary(xa), summary(xb)) else {
                continue;
            };
            let better = match xa.get("better").and_then(JsonValue::as_str) {
                Some("lower") => Better::Lower,
                _ => Better::Higher,
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                unit: xa
                    .get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
                verdict: verdict(&sa, &sb, bound, better),
                a: sa,
                b: sb,
                bound,
                better,
            });
        }
    }
    Ok(rows)
}

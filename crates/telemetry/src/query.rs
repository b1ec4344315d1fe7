//! PromQL-lite query engine over the embedded [`Tsdb`].
//!
//! Grammar (whitespace-insensitive around punctuation):
//!
//! ```text
//! query    := topk | func | instant
//! topk     := "topk(" K "," (func | instant) ")"
//! func     := NAME1 "(" range ")"                 NAME1 ∈ {rate, avg_over_time,
//!                                                          max_over_time, sum_over_time}
//!           | "quantile(" Q "," range ")"
//! range    := selector "[" DURATION "]"           DURATION like 500ms | 5s
//! instant  := selector
//! selector := METRIC | METRIC "{" k="v" ("," k="v")* "}"
//! ```
//!
//! Semantics, chosen for determinism over cumulative scrapes:
//!
//! * **instant** — the last sample at-or-before the evaluation time
//!   (histogram series answer with their cumulative count).
//! * **`rate(sel[d])`** — per-second increase of a cumulative scalar:
//!   `(last − first) / Δt` over samples in `(at−d, at]`; needs ≥ 2.
//! * **`quantile(q, sel[d])`** — takes the window's newest minus
//!   oldest cumulative histogram ([`HistogramSnapshot::delta`]) and
//!   reads its `q` quantile; needs ≥ 2 snapshots.
//! * **`avg/max/sum_over_time(sel[d])`** — over scalar samples in the
//!   window; needs ≥ 1.
//! * **`topk(k, expr)`** — the k largest results of `expr`, descending
//!   by value, ties broken by series name ascending.
//!
//! A selector may match many series (e.g. every `tenant="tNNN"`
//! label); each evaluates independently and the result is a
//! `(series display name, value)` list in deterministic order.

use crate::hist::HistogramSnapshot;
use crate::tsdb::{Series, SeriesData, Tsdb};
use gbooster_sim::time::SimTime;

/// Why a query failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The expression did not parse; the message says where.
    Parse(String),
    /// A function was applied to the wrong series kind (e.g.
    /// `quantile` over a scalar series).
    Kind(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(m) => write!(f, "query parse error: {m}"),
            QueryError::Kind(m) => write!(f, "query kind error: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Evaluates `expr` against `db` at sim time `at`. Returns one row per
/// matching series that had enough samples; an unmatched selector
/// yields an empty vec, not an error.
pub fn eval(db: &Tsdb, expr: &str, at: SimTime) -> Result<Vec<(String, f64)>, QueryError> {
    let expr = expr.trim();
    if let Some(inner) = call_args(expr, "topk") {
        let (k_str, rest) = split_arg(inner)
            .ok_or_else(|| QueryError::Parse(format!("topk needs two arguments: {inner}")))?;
        let k: usize = k_str
            .trim()
            .parse()
            .map_err(|_| QueryError::Parse(format!("topk k must be an integer: {k_str}")))?;
        let mut rows = eval(db, rest, at)?;
        rows.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        rows.truncate(k);
        return Ok(rows);
    }
    if let Some(inner) = call_args(expr, "rate") {
        return range_eval(db, inner, at, RangeFn::Rate);
    }
    if let Some(inner) = call_args(expr, "quantile") {
        let (q_str, rest) = split_arg(inner)
            .ok_or_else(|| QueryError::Parse(format!("quantile needs two arguments: {inner}")))?;
        let q: f64 = q_str
            .trim()
            .parse()
            .map_err(|_| QueryError::Parse(format!("quantile q must be a float: {q_str}")))?;
        if !(0.0..=1.0).contains(&q) {
            return Err(QueryError::Parse(format!("quantile q out of [0,1]: {q}")));
        }
        return range_eval(db, rest, at, RangeFn::Quantile(q));
    }
    for (name, f) in [
        ("avg_over_time", RangeFn::Avg),
        ("max_over_time", RangeFn::Max),
        ("sum_over_time", RangeFn::Sum),
    ] {
        if let Some(inner) = call_args(expr, name) {
            return range_eval(db, inner, at, f);
        }
    }
    // Instant selector.
    let (name, labels) = parse_selector(expr)?;
    let mut rows = Vec::new();
    for series in db.select(&name, &labels) {
        let t = at.as_micros();
        let v = match series.data() {
            SeriesData::Scalar(ring) => ring.iter().rev().find(|(ts, _)| *ts <= t).map(|(_, v)| *v),
            #[allow(clippy::cast_precision_loss)]
            SeriesData::Hist(ring) => ring
                .iter()
                .rev()
                .find(|(ts, _)| *ts <= t)
                .map(|(_, h)| h.count() as f64),
        };
        if let Some(v) = v {
            rows.push((display(series), v));
        }
    }
    Ok(rows)
}

#[derive(Clone, Copy)]
enum RangeFn {
    Rate,
    Quantile(f64),
    Avg,
    Max,
    Sum,
}

fn range_eval(
    db: &Tsdb,
    range: &str,
    at: SimTime,
    f: RangeFn,
) -> Result<Vec<(String, f64)>, QueryError> {
    let range = range.trim();
    let open = range
        .find('[')
        .ok_or_else(|| QueryError::Parse(format!("expected selector[duration]: {range}")))?;
    let close = range
        .strip_suffix(']')
        .ok_or_else(|| QueryError::Parse(format!("unclosed duration bracket: {range}")))?;
    let (sel, dur_str) = (&range[..open], &close[open + 1..]);
    let dur_us = parse_duration_us(dur_str.trim())?;
    let (name, labels) = parse_selector(sel)?;
    let t_hi = at.as_micros();
    let t_lo = t_hi.saturating_sub(dur_us);
    let mut rows = Vec::new();
    for series in db.select(&name, &labels) {
        let row = match (series.data(), f) {
            (SeriesData::Scalar(ring), f) => {
                let win: Vec<(u64, f64)> = ring
                    .iter()
                    .filter(|(ts, _)| *ts > t_lo && *ts <= t_hi)
                    .copied()
                    .collect();
                match f {
                    RangeFn::Rate => rate_of(&win),
                    RangeFn::Avg if !win.is_empty() =>
                    {
                        #[allow(clippy::cast_precision_loss)]
                        Some(win.iter().map(|(_, v)| v).sum::<f64>() / win.len() as f64)
                    }
                    RangeFn::Max => win
                        .iter()
                        .map(|(_, v)| *v)
                        .fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.max(v)))),
                    RangeFn::Sum if !win.is_empty() => {
                        Some(win.iter().map(|(_, v)| v).sum::<f64>())
                    }
                    RangeFn::Quantile(_) => {
                        return Err(QueryError::Kind(format!(
                            "quantile over scalar series {}",
                            display(series)
                        )))
                    }
                    _ => None,
                }
            }
            (SeriesData::Hist(ring), RangeFn::Quantile(q)) => {
                let win: Vec<&(u64, HistogramSnapshot)> = ring
                    .iter()
                    .filter(|(ts, _)| *ts > t_lo && *ts <= t_hi)
                    .collect();
                if win.len() >= 2 {
                    let d = win[win.len() - 1].1.delta(&win[0].1);
                    #[allow(clippy::cast_precision_loss)]
                    if d.count() > 0 {
                        Some(d.quantile(q) as f64)
                    } else {
                        None
                    }
                } else {
                    None
                }
            }
            (SeriesData::Hist(_), _) => {
                return Err(QueryError::Kind(format!(
                    "only quantile() ranges over histogram series {}",
                    display(series)
                )))
            }
        };
        if let Some(v) = row {
            rows.push((display(series), v));
        }
    }
    Ok(rows)
}

/// Per-second increase over the window's first→last cumulative sample.
fn rate_of(win: &[(u64, f64)]) -> Option<f64> {
    if win.len() < 2 {
        return None;
    }
    let (t0, v0) = win[0];
    let (t1, v1) = win[win.len() - 1];
    if t1 <= t0 {
        return None;
    }
    #[allow(clippy::cast_precision_loss)]
    Some((v1 - v0) / ((t1 - t0) as f64 / 1_000_000.0))
}

/// Strips `fn_name( ... )` and returns the inside, or `None` if `expr`
/// is not a call to `fn_name`.
fn call_args<'a>(expr: &'a str, fn_name: &str) -> Option<&'a str> {
    let rest = expr.strip_prefix(fn_name)?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('(')?;
    rest.strip_suffix(')')
}

/// Splits `k, rest` at the first top-level comma (commas inside `{}`
/// or `[]` don't count).
fn split_arg(s: &str) -> Option<(&str, &str)> {
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '{' | '[' | '(' => depth += 1,
            '}' | ']' | ')' => depth -= 1,
            ',' if depth == 0 => return Some((&s[..i], &s[i + 1..])),
            _ => {}
        }
    }
    None
}

/// Metric names are `[A-Za-z0-9._:-]+` — anything else in name
/// position is a typo (most often an unclosed `[` or `(` higher up)
/// and must error rather than evaluate as an unmatched selector.
fn check_metric_name(name: &str) -> Result<(), QueryError> {
    if name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | ':' | '-'))
    {
        Ok(())
    } else {
        Err(QueryError::Parse(format!("invalid metric name: {name}")))
    }
}

/// Parses `name` or `name{k="v",...}` into `(name, sorted labels)`.
fn parse_selector(sel: &str) -> Result<(String, Vec<(String, String)>), QueryError> {
    let sel = sel.trim();
    let Some(open) = sel.find('{') else {
        if sel.is_empty() {
            return Err(QueryError::Parse("empty selector".to_string()));
        }
        check_metric_name(sel)?;
        return Ok((sel.to_string(), Vec::new()));
    };
    let name = sel[..open].trim();
    if name.is_empty() {
        return Err(QueryError::Parse(format!(
            "selector without metric name: {sel}"
        )));
    }
    check_metric_name(name)?;
    let body = sel[open + 1..]
        .strip_suffix('}')
        .ok_or_else(|| QueryError::Parse(format!("unclosed label braces: {sel}")))?;
    let mut labels = Vec::new();
    for pair in body.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| QueryError::Parse(format!("label without '=': {pair}")))?;
        let v = v.trim();
        let v = v
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| QueryError::Parse(format!("label value must be quoted: {pair}")))?;
        labels.push((k.trim().to_string(), v.to_string()));
    }
    labels.sort();
    Ok((name.to_string(), labels))
}

/// Parses `500ms` or `5s` into µs.
fn parse_duration_us(s: &str) -> Result<u64, QueryError> {
    let (num, mult) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000u64)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000u64)
    } else {
        return Err(QueryError::Parse(format!(
            "duration needs ms/s suffix: {s}"
        )));
    };
    let n: u64 = num
        .trim()
        .parse()
        .map_err(|_| QueryError::Parse(format!("bad duration number: {s}")))?;
    n.checked_mul(mult)
        .ok_or_else(|| QueryError::Parse(format!("duration out of range: {s}")))
}

/// Canonical display name: `name{k="v",...}` with sorted labels, bare
/// `name` when unlabelled.
fn display(series: &Series) -> String {
    let (name, labels) = (series.name(), series.labels());
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = format!("{name}{{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{k}=\"{v}\""));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn db() -> Tsdb {
        let mut db = Tsdb::new(16);
        // Cumulative counter, 10/s.
        for i in 0..8u64 {
            #[allow(clippy::cast_precision_loss)]
            db.record(t(i * 100), "frames.total", &[], i as f64);
        }
        // Two tenant gauges.
        db.record(t(500), "queue.depth", &[("tenant", "t000")], 3.0);
        db.record(t(500), "queue.depth", &[("tenant", "t001")], 7.0);
        // Histogram: 1 ms then 5 ms recorded between the scrapes.
        let reg = crate::Registry::new();
        let h = reg.histogram("lat");
        h.record(1_000);
        db.record_hist(t(100), "lat", &[], h.snapshot());
        h.record(5_000);
        h.record(5_000);
        db.record_hist(t(600), "lat", &[], h.snapshot());
        db
    }

    #[test]
    fn instant_and_rate() {
        let db = db();
        assert_eq!(
            eval(&db, "frames.total", t(700)).unwrap(),
            vec![("frames.total".to_string(), 7.0)]
        );
        let rows = eval(&db, "rate(frames.total[1s])", t(700)).unwrap();
        assert_eq!(rows.len(), 1);
        assert!((rows[0].1 - 10.0).abs() < 1e-9, "got {}", rows[0].1);
        // Window with < 2 samples yields no row.
        assert!(eval(&db, "rate(frames.total[50ms])", t(700))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn over_time_and_topk() {
        let db = db();
        let rows = eval(&db, "topk(1, queue.depth{tenant=\"t001\"})", t(600)).unwrap();
        assert_eq!(
            rows,
            vec![("queue.depth{tenant=\"t001\"}".to_string(), 7.0)]
        );
        let rows = eval(&db, "topk(2, queue.depth)", t(600)).unwrap();
        assert_eq!(rows[0].1, 7.0);
        assert_eq!(rows[1].1, 3.0);
        let rows = eval(&db, "sum_over_time(frames.total[1s])", t(700)).unwrap();
        assert!((rows[0].1 - 28.0).abs() < 1e-9);
        let rows = eval(&db, "max_over_time(frames.total[1s])", t(700)).unwrap();
        assert!((rows[0].1 - 7.0).abs() < 1e-9);
        let rows = eval(&db, "avg_over_time(frames.total[1s])", t(700)).unwrap();
        // The half-open window (t−1s, t] excludes the t=0 sample:
        // seven samples 1..=7 remain.
        assert!((rows[0].1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_over_window_delta() {
        let db = db();
        // Delta between the scrapes holds only the two 5 ms samples.
        let rows = eval(&db, "quantile(0.5, lat[1s])", t(700)).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].1 >= 4_000.0, "got {}", rows[0].1);
    }

    #[test]
    fn parse_errors_are_reported() {
        let db = db();
        assert!(matches!(
            eval(&db, "rate(frames.total)", t(0)),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            eval(&db, "quantile(2.0, lat[1s])", t(0)),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            eval(&db, "topk(x, lat)", t(0)),
            Err(QueryError::Parse(_))
        ));
        // A truncated range query must not degrade into an unmatched
        // instant selector that silently returns zero rows.
        assert!(matches!(
            eval(&db, "rate(frames.total[1s", t(0)),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            eval(&db, "frames total", t(0)),
            Err(QueryError::Parse(_))
        ));
        // Durations whose microsecond count overflows u64.
        for expr in [
            "rate(m[99999999999999s])",
            "rate(m[18446744073709551615ms])",
        ] {
            assert!(
                matches!(eval(&db, expr, t(0)), Err(QueryError::Parse(_))),
                "{expr}"
            );
        }
        assert!(matches!(
            eval(&db, "quantile(0.5, frames.total[1s])", t(700)),
            Err(QueryError::Kind(_))
        ));
        assert!(matches!(
            eval(&db, "rate(lat[1s])", t(700)),
            Err(QueryError::Kind(_))
        ));
    }
}

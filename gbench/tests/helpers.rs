//! The order statistics, span self time, and compare verdicts.

use gbooster_perf::compare::{relative_change, verdict, Verdict};
use gbooster_perf::metrics::Better;
use gbooster_perf::stats::{median, quartiles, Summary};
use gbooster_perf::trace::{layer_totals, self_times, Span};

#[test]
fn median_and_quartiles_match_python_statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
    // Reference values from `statistics.quantiles(xs, n=4)`.
    let cases: [(&[f64], (f64, f64)); 4] = [
        (&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.], (2.75, 8.25)),
        (&[1., 2.], (0.75, 2.25)),
        (&[5., 1., 4., 2., 3.], (1.5, 4.5)),
        (&[1., 2., 3., 4., 5., 6., 7.], (2.0, 6.0)),
    ];
    for (xs, want) in cases {
        assert_eq!(quartiles(xs), want, "quartiles of {xs:?}");
    }
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    let s = Summary::of(vec![1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]);
    assert_eq!(s.spread(), (8.25 - 2.75) / 5.5);
    assert_eq!(Summary::one(0.0).spread(), 0.0);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        run: 1,
        alloc_bytes: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("b", 30, 60, Some(0)),
        // Runs past its parent's end: only [90, 100] is inside it.
        span("c", 90, 120, Some(0)),
        span("d", 15, 20, Some(1)),
    ];
    // root: children cover [10, 60] and [90, 100] = 60 ns.
    assert_eq!(self_times(&spans), vec![40, 25, 30, 30, 5]);
    let totals = layer_totals(&spans);
    assert_eq!(totals["a"].self_ns, 25);
    assert_eq!(totals["root"].calls, 1);
}

fn summary(values: &[f64]) -> Summary {
    Summary::of(values.to_vec())
}

#[test]
fn verdicts_respect_bound_spread_and_direction() {
    let a = summary(&[100.0, 101.0, 99.0, 100.0]);
    let slower = summary(&[80.0, 81.0, 79.0, 80.0]);
    let same = summary(&[101.0, 100.0, 100.0, 99.5]);
    let (hi, lo) = (Better::Higher, Better::Lower);
    // frames/s: higher is better, so worse is lower.
    assert_eq!(verdict(&a, &slower, 0.10, hi), Verdict::Worse);
    assert_eq!(verdict(&slower, &a, 0.10, hi), Verdict::Better);
    assert_eq!(verdict(&a, &same, 0.10, hi), Verdict::WithinBound);
    // A time: lower is better.
    assert_eq!(verdict(&a, &slower, 0.10, lo), Verdict::Better);
    // A spread wider than the bound leaves overlapping runs unresolved...
    let noisy = summary(&[60.0, 140.0, 70.0, 130.0]);
    assert_eq!(verdict(&a, &noisy, 0.10, hi), Verdict::Unresolved);
    // ...but not runs that all beat every run of the other side.
    let noisy_low = summary(&[50.0, 70.0, 60.0, 90.0]);
    assert_eq!(verdict(&a, &noisy_low, 0.10, hi), Verdict::Worse);
    // A deterministic output with a zero bound: any change counts.
    let (three, more) = (summary(&[3.0]), summary(&[3.5]));
    assert_eq!(verdict(&three, &three, 0.0, lo), Verdict::WithinBound);
    assert_eq!(verdict(&three, &more, 0.0, lo), Verdict::Worse);
    assert_eq!(relative_change(0.0, 0.0), 0.0);
    assert_eq!(relative_change(0.0, 1.0), f64::INFINITY);
    assert_eq!(relative_change(200.0, 150.0), -0.25);
}

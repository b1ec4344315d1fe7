//! Property tests for the telemetry histograms (quantile ordering, the
//! merge-equals-union law, interval deltas, and in-place snapshots).

use gbooster_telemetry::hist::HistogramCore;
use gbooster_telemetry::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

/// Samples spanning the linear region, the log region, and the clamp.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            0u64..128,
            128u64..100_000,
            100_000u64..10_000_000_000,
            Just(u64::MAX),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quantiles_are_ordered(values in samples()) {
        let h = Histogram::detached();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.50);
        let p90 = s.quantile(0.90);
        let p99 = s.quantile(0.99);
        prop_assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
        prop_assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
        prop_assert!(p99 <= s.max(), "p99 {p99} > max {}", s.max());
        prop_assert!(s.min() <= p50, "min {} > p50 {p50}", s.min());
    }

    #[test]
    fn quantiles_bracket_true_order_statistics(values in samples()) {
        // The estimate may round up within its bucket (≤ 1/16 relative
        // error in the log region) but must never cross the neighboring
        // order statistics' buckets.
        let h = Histogram::detached();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let s = h.snapshot();
        for &(q, pct) in &[(0.50f64, 50u64), (0.90, 90), (0.99, 99)] {
            let rank = ((pct as f64 / 100.0 * sorted.len() as f64).ceil() as usize)
                .clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = s.quantile(q);
            prop_assert!(
                est >= exact,
                "q{pct} estimate {est} below exact {exact}"
            );
            // Upper bound: bucket width is at most max(1, exact/16) above
            // the exact value, and never beyond the observed max.
            let slack = (exact / 8).max(1);
            prop_assert!(
                est <= exact.saturating_add(slack).min(s.max().max(exact)),
                "q{pct} estimate {est} too far above exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_the_union(a in samples(), b in samples()) {
        let ha = Histogram::detached();
        let hb = Histogram::detached();
        let hu = Histogram::detached();
        for &v in &a {
            ha.record(v);
            hu.record(v);
        }
        for &v in &b {
            hb.record(v);
            hu.record(v);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        let union = hu.snapshot();
        prop_assert_eq!(&merged, &union);
        // Spot-check the derived views agree too.
        prop_assert_eq!(merged.quantile(0.5), union.quantile(0.5));
        prop_assert_eq!(merged.max(), union.max());
        prop_assert_eq!(merged.count(), union.count());
    }

    #[test]
    fn count_and_sum_are_exact(values in samples()) {
        let h = Histogram::detached();
        let mut sum = 0u128;
        for &v in &values {
            h.record(v);
            sum += v as u128;
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count(), values.len() as u64);
        // Sum wraps at u64 in the store; compare modulo 2^64.
        prop_assert_eq!(s.sum(), sum as u64);
    }

    #[test]
    fn snapshot_into_a_reused_snapshot_equals_snapshot(
        dirt in samples(),
        values in proptest::collection::vec(any::<u64>(), 0..50),
        tags in proptest::collection::vec(any::<u64>(), 0..3),
    ) {
        // The reused snapshot holds another histogram's buckets, count,
        // extremes and exemplar; none of them may leak through.
        let old = HistogramCore::new();
        for (i, &v) in dirt.iter().enumerate() {
            old.record_tagged(v, i as u64);
        }
        let mut reused = old.snapshot();
        let h = HistogramCore::new();
        for &v in &values {
            h.record(v);
        }
        for (&v, &tag) in values.iter().zip(&tags) {
            h.record_tagged(v, tag);
        }
        h.snapshot_into(&mut reused);
        prop_assert_eq!(reused, h.snapshot());
    }

    #[test]
    fn delta_and_record_one_match_a_histogram_of_the_later_samples(
        a in samples(),
        b in samples(),
    ) {
        // `h` sees `a` then `b`; `only_b` and `folded` see just `b`.
        let h = Histogram::detached();
        for &v in &a {
            h.record(v);
        }
        let earlier = h.snapshot();
        let only_b = Histogram::detached();
        let mut folded = HistogramSnapshot::default();
        for &v in &b {
            h.record(v);
            only_b.record(v);
            folded.record_one(v);
        }
        let delta = h.snapshot().delta(&earlier);
        let reference = only_b.snapshot();
        prop_assert_eq!(delta.count(), reference.count());
        prop_assert_eq!(folded.count(), reference.count());
        prop_assert_eq!(folded.min(), reference.min());
        prop_assert_eq!(folded.max(), reference.max());
        // Sums are left out: the atomic core's sum wraps, while `delta`
        // and `record_one` saturate.
        let thresholds = a
            .iter()
            .chain(&b)
            .flat_map(|&v| [v.saturating_sub(1), v, v.saturating_add(1)])
            .chain([0, u64::MAX]);
        for x in thresholds {
            let want = reference.count_over(x);
            prop_assert_eq!(delta.count_over(x), want, "delta, threshold {}", x);
            prop_assert_eq!(folded.count_over(x), want, "record_one, threshold {}", x);
        }
        // The delta's extremes are bucket bounds, so its quantiles may
        // sit higher than the exact histogram's, but never past the
        // bucket the exact quantile is in.
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let (dq, rq) = (delta.quantile(q), reference.quantile(q));
            prop_assert!(dq >= rq, "q{} delta {} below exact {}", q, dq, rq);
            prop_assert_eq!(
                reference.count_over(dq),
                reference.count_over(rq),
                "q{} delta {} leaves the bucket of {}", q, dq, rq
            );
        }
    }
}

//! Fixed-bucket latency histograms.
//!
//! Values (microseconds by convention, but any `u64` works) land in
//! log-linear buckets: exact below 128, then 16 linear sub-buckets per
//! power of two. Bucketing is a pure function of the value, so merging
//! two histograms bucket-wise is *exactly* equivalent to recording the
//! union of their samples — the property the test suite checks.
//!
//! Recording is a single atomic increment plus two atomic min/max
//! updates; no locks anywhere on the hot path. Every copy of a
//! histogram — a snapshot, a window slot, a stored TSDB point — is a
//! [`HistogramSnapshot`], which keeps only the non-empty buckets: a
//! latency stream touches a few dozen of the [`BUCKETS`] slots.
//! [`HistogramCore::snapshot_into`] refills an existing snapshot in
//! place, so a TSDB ring that wraps reuses its points' storage.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use gbooster_sim::time::{SimDuration, SimTime};

/// Values below this land in 1-unit-wide exact buckets.
const LINEAR_CUTOFF: u64 = 128;

/// Sub-buckets per power of two above the linear region.
const SUB_BUCKETS: u64 = 16;

/// log2 of [`LINEAR_CUTOFF`].
const CUTOFF_BITS: u32 = 7;

/// Highest representable power of two (values above clamp to the last
/// bucket). 2^40 µs ≈ 12.7 days of sim time — far beyond any session.
const MAX_BITS: u32 = 40;

/// Total bucket count.
pub const BUCKETS: usize =
    LINEAR_CUTOFF as usize + ((MAX_BITS - CUTOFF_BITS) as usize) * SUB_BUCKETS as usize;

/// Maps a value to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    if msb >= MAX_BITS {
        return BUCKETS - 1;
    }
    let sub = (v >> (msb - 4)) & (SUB_BUCKETS - 1);
    LINEAR_CUTOFF as usize + ((msb - CUTOFF_BITS) as usize) * SUB_BUCKETS as usize + sub as usize
}

/// Inclusive upper bound of a bucket (used as the quantile estimate).
fn bucket_upper(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        return idx as u64;
    }
    if idx == BUCKETS - 1 {
        // The overflow bucket absorbs everything above 2^40.
        return u64::MAX;
    }
    let rel = idx - LINEAR_CUTOFF as usize;
    let msb = CUTOFF_BITS + (rel / SUB_BUCKETS as usize) as u32;
    let sub = (rel % SUB_BUCKETS as usize) as u64;
    let width = 1u64 << (msb - 4);
    (1u64 << msb) + (sub + 1) * width - 1
}

/// The lock-free histogram core. Shared behind an `Arc` by
/// [`crate::registry::Histogram`] handles.
pub struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
    /// Worst tagged sample so far (exemplar value / tag / present flag).
    ex_value: AtomicU64,
    ex_tag: AtomicU64,
    ex_has: AtomicU64,
    /// Lowest / highest bucket index touched so far (`u64::MAX` / `0`
    /// while empty) — snapshots walk only `[lo, hi]` instead of all
    /// [`BUCKETS`] slots, which is what keeps per-interval scrapes of
    /// hundreds of registries cheap.
    lo_bucket: AtomicU64,
    hi_bucket: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramCore {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            ex_value: AtomicU64::new(0),
            ex_tag: AtomicU64::new(0),
            ex_has: AtomicU64::new(0),
            lo_bucket: AtomicU64::new(u64::MAX),
            hi_bucket: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let idx = bucket_index(v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.lo_bucket.fetch_min(idx as u64, Ordering::Relaxed);
        self.hi_bucket.fetch_max(idx as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
    }

    /// Records one sample carrying a trace exemplar tag (a frame seq).
    /// The histogram remembers the tag of the worst tagged sample seen
    /// over its lifetime — cumulative, *not* reset by snapshots, so a
    /// mid-run flight-recorder snapshot cannot erase the exemplar the
    /// end-of-session report will point at. Untagged [`Self::record`]
    /// calls never produce or displace an exemplar.
    pub fn record_tagged(&self, v: u64, tag: u64) {
        self.record(v);
        // Last-writer-wins races are acceptable: streams feeding tags
        // are recorded from the single engine thread.
        if self.ex_has.load(Ordering::Relaxed) == 0 || v >= self.ex_value.load(Ordering::Relaxed) {
            self.ex_value.store(v, Ordering::Relaxed);
            self.ex_tag.store(tag, Ordering::Relaxed);
            self.ex_has.store(1, Ordering::Relaxed);
        }
    }

    /// Takes a point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        self.snapshot_into(&mut out);
        out
    }

    /// Overwrites every field of `out` with a point-in-time copy,
    /// reusing its bucket storage: the TSDB refills an evicted ring
    /// point this way instead of freeing it and allocating a new one.
    pub fn snapshot_into(&self, out: &mut HistogramSnapshot) {
        out.entries.clear();
        let lo = self.lo_bucket.load(Ordering::Relaxed);
        if lo != u64::MAX {
            let hi = (self.hi_bucket.load(Ordering::Relaxed) as usize).min(BUCKETS - 1);
            for (i, b) in self
                .buckets
                .iter()
                .enumerate()
                .take(hi + 1)
                .skip(lo as usize)
            {
                let c = b.load(Ordering::Relaxed);
                if c > 0 {
                    out.entries
                        .push((u32::try_from(i).expect("bucket index fits u32"), c));
                }
            }
        }
        out.count = self.count.load(Ordering::Relaxed);
        out.sum = self.sum.load(Ordering::Relaxed);
        out.max = self.max.load(Ordering::Relaxed);
        out.min = self.min.load(Ordering::Relaxed);
        out.exemplar = if self.ex_has.load(Ordering::Relaxed) != 0 {
            Some(Exemplar {
                value: self.ex_value.load(Ordering::Relaxed),
                tag: self.ex_tag.load(Ordering::Relaxed),
            })
        } else {
            None
        };
    }
}

impl std::fmt::Debug for HistogramCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("HistogramCore")
            .field("count", &s.count)
            .field("p50", &s.quantile(0.50))
            .field("p99", &s.quantile(0.99))
            .field("max", &s.max())
            .finish()
    }
}

/// A trace exemplar: the worst tagged sample a histogram has seen and
/// the frame sequence number that produced it, so a regressed quantile
/// points at a concrete frame trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exemplar {
    /// The sample value (µs by convention).
    pub value: u64,
    /// The tag recorded with it (a frame seq by convention).
    pub tag: u64,
}

/// A copy of a histogram's state, with quantile queries.
///
/// Only the non-empty buckets are kept, as `(bucket index, count)`
/// pairs in ascending index order; an empty bucket adds nothing to any
/// result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    entries: Vec<(u32, u64)>,
    count: u64,
    sum: u64,
    max: u64,
    min: u64,
    exemplar: Option<Exemplar>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            entries: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
            exemplar: None,
        }
    }
}

impl HistogramSnapshot {
    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The worst tagged sample and its frame tag, if any sample was
    /// recorded through [`HistogramCore::record_tagged`].
    pub fn exemplar(&self) -> Option<Exemplar> {
        self.exemplar
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile estimate, `q` in `[0, 1]`.
    ///
    /// Returns the upper bound of the bucket holding the `ceil(q·count)`-th
    /// sample, clamped to the exact observed extremes so that
    /// `min() ≤ quantile(q) ≤ max()` and quantiles are monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(idx, c) in &self.entries {
            seen += c;
            if seen >= rank {
                return bucket_upper(idx as usize).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// p50 in milliseconds, treating samples as microseconds.
    pub fn p50_ms(&self) -> f64 {
        self.quantile(0.50) as f64 / 1000.0
    }

    /// p90 in milliseconds, treating samples as microseconds.
    pub fn p90_ms(&self) -> f64 {
        self.quantile(0.90) as f64 / 1000.0
    }

    /// p99 in milliseconds, treating samples as microseconds.
    pub fn p99_ms(&self) -> f64 {
        self.quantile(0.99) as f64 / 1000.0
    }

    /// Records one sample into this snapshot directly (the non-atomic
    /// twin of [`HistogramCore::record`], for single-owner state such as
    /// the slots of a [`WindowedHistogramCore`]).
    pub fn record_one(&mut self, v: u64) {
        let idx = u32::try_from(bucket_index(v)).expect("bucket index fits u32");
        *self.bucket_mut(idx) += 1;
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Samples strictly above `threshold`, at bucket resolution: counts
    /// every bucket past the one holding `threshold`. Samples sharing
    /// the threshold's bucket count as *not* over — the estimate is
    /// conservative by at most one bucket width (≤ 1/16 relative), and,
    /// being a pure function of the buckets, it is deterministic and
    /// merge-consistent like the quantiles.
    pub fn count_over(&self, threshold: u64) -> u64 {
        let cut = bucket_index(threshold);
        let past = self.entries.partition_point(|&(i, _)| i as usize <= cut);
        self.entries[past..].iter().map(|&(_, c)| c).sum()
    }

    /// Merges `other` into `self`, bucket-wise. Because bucketing is a
    /// pure function of the value, the merge is exactly equivalent to
    /// having recorded the union of both sample sets — p50/p90/p99 of
    /// the merged snapshot equal the quantiles of a single combined
    /// recording, not just "within bucket resolution".
    ///
    /// Bucket counts, `count` and `sum` add saturating, so merging a
    /// corrupted snapshot can never panic.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for &(i, c) in &other.entries {
            let slot = self.bucket_mut(i);
            *slot = slot.saturating_add(c);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
        // The merged exemplar is the worse of the two sides' (an
        // untagged side contributes none), keeping "worst tagged
        // sample of the union" exact under any merge order.
        self.exemplar = match (self.exemplar, other.exemplar) {
            (Some(a), Some(b)) => Some(if b.value > a.value { b } else { a }),
            (a, b) => a.or(b),
        };
    }

    /// The distribution of the samples recorded between `earlier` and
    /// `self`, where both are cumulative snapshots of the *same*
    /// histogram: bucket-wise subtraction, the inverse of
    /// [`HistogramSnapshot::merge`]. Because bucketing is a pure
    /// function of the value, `earlier.merge(&delta)` reproduces `self`
    /// bucket-for-bucket.
    ///
    /// The exact `min`/`max` of just the delta interval are not
    /// recoverable from cumulative state, so they are approximated by
    /// the bounds of the delta's outermost non-empty buckets (clamped
    /// to the cumulative `max`). Quantiles of the delta are still exact
    /// at bucket resolution — the property the TSDB's windowed
    /// `quantile()` queries rely on. The delta carries no exemplar.
    ///
    /// Subtraction saturates, so a mismatched pair (not actually
    /// snapshots of one histogram) degrades to a partial distribution
    /// rather than panicking.
    #[must_use]
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let entries: Vec<(u32, u64)> = self
            .entries
            .iter()
            .map(|&(i, c)| (i, c.saturating_sub(earlier.bucket(i))))
            .filter(|&(_, c)| c > 0)
            .collect();
        let count = self.count.saturating_sub(earlier.count);
        let (min, max) = match (entries.first(), entries.last()) {
            (Some(&(f, _)), Some(&(l, _))) if count > 0 => (
                if u64::from(f) < LINEAR_CUTOFF {
                    u64::from(f)
                } else {
                    bucket_upper(f as usize - 1).saturating_add(1)
                },
                bucket_upper(l as usize).min(self.max),
            ),
            _ => (u64::MAX, 0),
        };
        HistogramSnapshot {
            entries,
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            max,
            min,
            exemplar: None,
        }
    }

    /// The count of bucket `idx` (0 when it has no entry).
    fn bucket(&self, idx: u32) -> u64 {
        self.entries
            .binary_search_by_key(&idx, |&(i, _)| i)
            .map_or(0, |pos| self.entries[pos].1)
    }

    /// The count of bucket `idx`, inserted at zero in index order when
    /// it has no entry yet. Callers add at least one to it.
    fn bucket_mut(&mut self, idx: u32) -> &mut u64 {
        let pos = match self.entries.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => pos,
            Err(pos) => {
                self.entries.insert(pos, (idx, 0));
                pos
            }
        };
        &mut self.entries[pos].1
    }
}

/// A histogram sliced into fixed-width sim-time slots, supporting
/// rolling-window snapshots: "the latency distribution over the last
/// 800 ms" rather than since the session began. The SLO burn-rate
/// evaluator ([`crate::slo`]) consumes these windows.
///
/// Slots rotate as time advances; the ring retains the last `retain`
/// non-empty slots, so a window query can reach back up to
/// `retain × slot_width`. An all-time merged view is kept alongside —
/// because bucket merging is exact (see [`HistogramSnapshot::merge`]),
/// merging every slot reproduces the merged view bit-for-bit, which the
/// consistency tests assert.
#[derive(Clone, Debug)]
pub struct WindowedHistogramCore {
    slot_width_us: u64,
    retain: usize,
    /// `(slot index, samples landed in that slot)`, oldest first.
    slots: VecDeque<(u64, HistogramSnapshot)>,
    merged: HistogramSnapshot,
}

impl WindowedHistogramCore {
    /// Creates an empty windowed histogram with `retain` slots of
    /// `slot_width` each (both forced to at least 1).
    pub fn new(slot_width: SimDuration, retain: usize) -> Self {
        WindowedHistogramCore {
            slot_width_us: slot_width.as_micros().max(1),
            retain: retain.max(1),
            slots: VecDeque::new(),
            merged: HistogramSnapshot::default(),
        }
    }

    /// Widest window a query can cover, `retain × slot_width`.
    pub fn span(&self) -> SimDuration {
        SimDuration::from_micros(self.slot_width_us * self.retain as u64)
    }

    /// Records one sample observed at sim time `at`. Timestamps are
    /// expected to be monotone (presentation order); a late sample folds
    /// into the newest slot rather than resurrecting an evicted one.
    pub fn record(&mut self, at: SimTime, v: u64) {
        let idx = at.as_micros() / self.slot_width_us;
        match self.slots.back() {
            Some(&(back, _)) if back >= idx => {}
            _ => {
                self.slots.push_back((idx, HistogramSnapshot::default()));
                while self.slots.len() > self.retain {
                    self.slots.pop_front();
                }
            }
        }
        self.slots
            .back_mut()
            .expect("slot pushed above")
            .1
            .record_one(v);
        self.merged.record_one(v);
    }

    /// The retained slots that intersect `(now − window, now]`. Slot
    /// granularity applies: a slot is included as soon as any part of
    /// it falls inside the window.
    fn slots_in(
        &self,
        now: SimTime,
        window: SimDuration,
    ) -> impl Iterator<Item = &HistogramSnapshot> + '_ {
        let now_us = now.as_micros();
        let start_us = now_us.saturating_sub(window.as_micros());
        let width = self.slot_width_us;
        self.slots
            .iter()
            .filter(move |&&(idx, _)| {
                let slot_start = idx * width;
                slot_start + width > start_us && slot_start <= now_us
            })
            .map(|(_, slot)| slot)
    }

    /// Merged distribution of the samples whose slot intersects
    /// `(now − window, now]` (see [`Self::window_count_over`] for the
    /// two counts a burn rate needs, without the merge).
    pub fn window(&self, now: SimTime, window: SimDuration) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for slot in self.slots_in(now, window) {
            out.merge(slot);
        }
        out
    }

    /// `(count, count_over(threshold))` of [`Self::window`]`(now,
    /// window)`, read straight off the slots instead of merging them
    /// into one snapshot. A slot whose largest sample is at or
    /// below `threshold` has nothing past the threshold's bucket, so its
    /// buckets are walked only when its `max` exceeds the threshold
    /// (slots are filled only through
    /// [`HistogramSnapshot::record_one`], so their `max` is exact).
    pub fn window_count_over(
        &self,
        now: SimTime,
        window: SimDuration,
        threshold: u64,
    ) -> (u64, u64) {
        let (mut count, mut over) = (0u64, 0u64);
        for slot in self.slots_in(now, window) {
            count = count.saturating_add(slot.count);
            if slot.max > threshold {
                over = over.saturating_add(slot.count_over(threshold));
            }
        }
        (count, over)
    }

    /// The all-time merged view (every sample ever recorded, including
    /// ones whose slots have been evicted from the ring).
    pub fn merged(&self) -> &HistogramSnapshot {
        &self.merged
    }

    /// Merge of the retained slots only (what the widest window query
    /// can still see). Equals [`WindowedHistogramCore::merged`] while no
    /// slot has been evicted — the consistency property under test.
    pub fn retained(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for (_, slot) in &self.slots {
            out.merge(slot);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_total() {
        let mut last = 0usize;
        for v in 0..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= last, "bucket index regressed at {v}");
            assert!(v <= bucket_upper(idx), "value {v} above bucket bound");
            last = idx;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn linear_region_is_exact() {
        let h = HistogramCore::new();
        for v in [0u64, 1, 17, 127] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.max(), 127);
        assert_eq!(s.min(), 0);
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 145);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = HistogramCore::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn quantiles_bound_large_values() {
        let h = HistogramCore::new();
        h.record(1_000_000); // 1 s in µs
        let s = h.snapshot();
        // Bucket bound relative error is at most 1/16.
        assert!(s.quantile(0.5) >= 1_000_000);
        assert!(s.quantile(0.5) <= 1_000_000 + 1_000_000 / 16 + 1);
    }

    #[test]
    fn merge_matches_union() {
        let a = HistogramCore::new();
        let b = HistogramCore::new();
        let union = HistogramCore::new();
        for v in [3u64, 900, 44_000, 7] {
            a.record(v);
            union.record(v);
        }
        for v in [88u64, 1_000_000, 2] {
            b.record(v);
            union.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, union.snapshot());
    }

    #[test]
    fn merged_quantiles_match_a_single_combined_recording() {
        // Two disjoint latency populations — a fast mode and a heavy
        // tail — recorded separately, then merged. The merged snapshot's
        // p50/p90/p99 must equal those of one histogram that saw every
        // sample, exactly (same buckets ⇒ same quantile estimates).
        let a = HistogramCore::new();
        let b = HistogramCore::new();
        let combined = HistogramCore::new();
        for i in 0..900u64 {
            let v = 500 + i; // ~0.5–1.4 ms
            a.record(v);
            combined.record(v);
        }
        for i in 0..100u64 {
            let v = 40_000 + i * 700; // 40–110 ms tail
            b.record(v);
            combined.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let reference = combined.snapshot();
        for q in [0.50, 0.90, 0.99] {
            assert_eq!(merged.quantile(q), reference.quantile(q), "q={q}");
        }
        assert_eq!(merged.count(), reference.count());
        assert_eq!(merged.sum(), reference.sum());
        assert_eq!(merged.min(), reference.min());
        assert_eq!(merged.max(), reference.max());
        // Merge order doesn't matter.
        let mut flipped = b.snapshot();
        flipped.merge(&a.snapshot());
        assert_eq!(flipped, merged);
    }

    #[test]
    fn count_over_is_conservative_and_merge_consistent() {
        let h = HistogramCore::new();
        for v in [10u64, 50, 100, 5_000, 9_000, 40_000] {
            h.record(v);
        }
        let s = h.snapshot();
        // Linear region: exact.
        assert_eq!(s.count_over(100), 3);
        assert_eq!(s.count_over(99), 4);
        // Log region: conservative by at most the threshold's bucket.
        assert_eq!(s.count_over(9_500), 1);
        assert_eq!(s.count_over(u64::MAX), 0);
        // Splitting the samples across two histograms and merging gives
        // the same answer: count_over is a pure function of the buckets.
        let a = HistogramCore::new();
        let b = HistogramCore::new();
        for v in [10u64, 5_000, 40_000] {
            a.record(v);
        }
        for v in [50u64, 100, 9_000] {
            b.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count_over(100), s.count_over(100));
    }

    #[test]
    fn windowed_slots_rotate_and_queries_respect_the_window() {
        // 100 ms slots, plenty retained. Three bursts a slot apart.
        let mut w = WindowedHistogramCore::new(SimDuration::from_millis(100), 64);
        for i in 0..3u64 {
            let at = SimTime::from_micros(i * 100_000 + 50_000);
            for k in 0..10u64 {
                w.record(at, 1_000 * (i + 1) + k);
            }
        }
        let now = SimTime::from_micros(250_000);
        // A window reaching back only into the newest slot sees only
        // the newest burst.
        let last = w.window(now, SimDuration::from_millis(50));
        assert_eq!(last.count(), 10);
        assert!(last.min() >= 3_000);
        // A full-span window sees everything.
        let all = w.window(now, SimDuration::from_millis(300));
        assert_eq!(all.count(), 30);
        // Far in the future, every slot has aged out of the window.
        let later = w.window(SimTime::from_secs(10), SimDuration::from_millis(100));
        assert_eq!(later.count(), 0);
    }

    #[test]
    fn windowed_merge_matches_a_plain_histogram_of_the_same_samples() {
        // The merged-vs-windowed consistency contract: recording one
        // deterministic sample stream through the windowed core and
        // through a plain histogram must agree exactly — for the
        // all-time merged view, the retained-slot merge (no eviction
        // here), and a window query covering the whole stream.
        let mut w = WindowedHistogramCore::new(SimDuration::from_millis(50), 256);
        let plain = HistogramCore::new();
        let mut t_us = 0u64;
        for i in 0..2_000u64 {
            t_us += 3_000 + (i * 7) % 1_100;
            let v = 200 + (i * i) % 90_000;
            w.record(SimTime::from_micros(t_us), v);
            plain.record(v);
        }
        let reference = plain.snapshot();
        assert_eq!(w.merged(), &reference, "all-time merge must be exact");
        assert_eq!(w.retained(), reference, "slot merge must be exact");
        let windowed = w.window(
            SimTime::from_micros(t_us),
            SimDuration::from_micros(t_us + 1),
        );
        assert_eq!(windowed, reference, "full-span window must be exact");
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(windowed.quantile(q), reference.quantile(q), "q={q}");
        }
    }

    #[test]
    fn windowed_eviction_drops_old_slots_but_keeps_the_merged_view() {
        let mut w = WindowedHistogramCore::new(SimDuration::from_millis(10), 2);
        for i in 0..5u64 {
            w.record(SimTime::from_millis(i * 10), 100 + i);
        }
        // Only the last two slots are retained...
        assert_eq!(w.retained().count(), 2);
        // ...but the merged view still has all five samples.
        assert_eq!(w.merged().count(), 5);
        assert_eq!(w.merged().min(), 100);
    }

    #[test]
    fn merge_saturates_count_and_sum() {
        let mut a = HistogramSnapshot {
            entries: vec![(0, 1), (1, 2)],
            count: 3,
            sum: u64::MAX - 1,
            max: 1,
            min: 0,
            exemplar: None,
        };
        let b = HistogramSnapshot {
            entries: vec![(3, 5)],
            count: 5,
            sum: 10,
            max: 9,
            min: 2,
            exemplar: None,
        };
        a.merge(&b);
        assert_eq!(a.count, 8);
        assert_eq!(a.sum, u64::MAX, "sum must saturate, not wrap");
        assert_eq!(a.max(), 9);
        assert_eq!(a.min(), 0);
    }

    #[test]
    fn exemplar_tracks_the_worst_tagged_sample() {
        let h = HistogramCore::new();
        // Untagged samples never mint an exemplar.
        h.record(99_999);
        assert_eq!(h.snapshot().exemplar(), None);
        h.record_tagged(1_000, 7);
        h.record_tagged(5_000, 42);
        h.record_tagged(2_000, 8);
        let s = h.snapshot();
        let ex = s.exemplar().expect("exemplar set");
        assert_eq!((ex.value, ex.tag), (5_000, 42));
        // Snapshots do not reset it: the worst frame survives mid-run
        // flight-recorder snapshots.
        let again = h.snapshot().exemplar().expect("still set");
        assert_eq!(again.tag, 42);
    }

    #[test]
    fn exemplar_merge_keeps_the_worse_side() {
        let a = HistogramCore::new();
        let b = HistogramCore::new();
        a.record_tagged(10_000, 3);
        b.record_tagged(90_000, 11);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.exemplar().map(|e| e.tag), Some(11));
        // Order independence.
        let mut flipped = b.snapshot();
        flipped.merge(&a.snapshot());
        assert_eq!(flipped.exemplar(), m.exemplar());
        // Merging an untagged side preserves the exemplar.
        let untagged = HistogramCore::new();
        untagged.record(500_000);
        m.merge(&untagged.snapshot());
        assert_eq!(m.exemplar().map(|e| e.tag), Some(11));
    }
}

//! Embedded ring-buffer time-series database.
//!
//! A live registry holds only running totals, so at the end of a run
//! it cannot answer "what was t042's p99 during the drain at t=8 s?".
//! The [`Tsdb`] keeps that history: a fixed number of slots per series,
//! filled by
//! [`Registry::scrape_into`](crate::registry::Registry::scrape_into)
//! (the fabric observer scrapes the pool and every admitted tenant,
//! the latter with a `tenant="tNNN"` label, periodically and once at
//! the end of the run).
//!
//! Storage is deliberately simple and deterministic: series are
//! identified by a canonical `name\x1fk\x1ev…` key (labels sorted),
//! and every iteration — [`Tsdb::series`] and so every query answer —
//! runs in key order. Scalars (counters, gauges) keep `(sim µs, f64)`
//! points and histograms keep cumulative [`HistogramSnapshot`]s, which
//! hold only the non-empty buckets, so range queries take exact deltas
//! without a point costing a slot per bucket. Both kinds share one
//! write path: a point at an instant the series already holds
//! overwrites it, and when a ring is full the oldest point is evicted,
//! counted, and its storage refilled with the new point. The query
//! layer on top lives in [`crate::query`].
//!
//! The write path runs on the fabric's scrape cadence (every registry,
//! every interval), and most of what it writes is evicted unread, so a
//! point must cost little: a scrape resolves each instrument to its
//! series through a per-label-set memo of the series each instrument
//! position wrote last time, checked against the series' name, and
//! formats a key only on a miss. Owned strings are built only the
//! first time a series appears.
//!
//! A store that knows which points will be evicted unread need not
//! write them: [`Tsdb::storing_from`] counts the points before an
//! instant without storing them (a histogram is not even copied). The
//! series and counters come out as if every point had been stored, and
//! so do the rings, provided nothing reads the store before its last
//! point and every series, once it has a point, gets one at every later
//! instant (the full conditions are on [`Tsdb::storing_from`]).

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use gbooster_sim::time::SimTime;

use crate::hist::HistogramSnapshot;

/// `(sim µs, point)` pairs, oldest first.
type Ring<T> = VecDeque<(u64, T)>;

/// The points of one series: scalar samples or cumulative histogram
/// snapshots, oldest first, timestamps strictly increasing.
#[derive(Clone, Debug, PartialEq)]
pub enum SeriesData {
    /// `(sim µs, value)` samples.
    Scalar(VecDeque<(u64, f64)>),
    /// `(sim µs, cumulative snapshot)` samples.
    Hist(VecDeque<(u64, HistogramSnapshot)>),
}

impl SeriesData {
    /// Number of stored points.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            SeriesData::Scalar(v) => v.len(),
            SeriesData::Hist(v) => v.len(),
        }
    }

    /// Whether the ring holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn scalars(&mut self) -> Option<&mut Ring<f64>> {
        match self {
            SeriesData::Scalar(ring) => Some(ring),
            SeriesData::Hist(_) => None,
        }
    }

    fn hists(&mut self) -> Option<&mut Ring<HistogramSnapshot>> {
        match self {
            SeriesData::Hist(ring) => Some(ring),
            SeriesData::Scalar(_) => None,
        }
    }
}

/// One stored series: its identity plus the ring of points.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    name: String,
    labels: Vec<(String, String)>,
    data: SeriesData,
    /// Points taken at distinct instants, stored or only counted: once
    /// this reaches the slot count, each new point evicts one.
    taken: u64,
}

impl Series {
    /// Metric name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sorted label pairs.
    #[must_use]
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// The stored points.
    #[must_use]
    pub fn data(&self) -> &SeriesData {
        &self.data
    }
}

/// Fixed-slot ring-buffer TSDB. See the module docs.
#[derive(Clone, Debug)]
pub struct Tsdb {
    slots: usize,
    /// Points at earlier instants (µs) are counted, never stored.
    stored_from: u64,
    /// Every series, in first-seen order.
    series: Vec<Series>,
    /// Canonical key (see [`write_key`]) → position in `series`. The
    /// map is ordered, so iteration — and therefore every query answer
    /// — is deterministic.
    index: BTreeMap<String, usize>,
    /// Scrape memo: canonical label key → position in `memos`.
    memo_of: BTreeMap<String, usize>,
    /// Per label set, the series each instrument position of the last
    /// scrape under it resolved to.
    memos: Vec<Vec<usize>>,
    /// Reused key-formatting buffer, left empty between calls.
    scratch: String,
    ingested: u64,
    evicted: u64,
}

/// Equality is over the stored series, their points and the counters;
/// the scrape memo and the key buffer are caches, not state, and the
/// instant stored points start from is a policy, not state.
impl PartialEq for Tsdb {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
            && self.ingested == other.ingested
            && self.evicted == other.evicted
            && self.series().eq(other.series())
    }
}

/// Separators for the canonical key encoding: units 0x1f/0x1e never
/// appear in metric names or label text.
const KEY_SEP: char = '\u{1f}';
const KV_SEP: char = '\u{1e}';

/// Formats the canonical series key into `out` (cleared first). Labels
/// are almost always pre-sorted (`[]` or a single `tenant` pair on the
/// scrape path); the rare unsorted multi-label call pays one small
/// sort of borrowed pairs, never string allocations.
fn write_key(out: &mut String, name: &str, labels: &[(&str, &str)]) {
    out.clear();
    out.push_str(name);
    let sorted = labels.windows(2).all(|w| w[0] <= w[1]);
    if sorted {
        for (k, v) in labels {
            let _ = write!(out, "{KEY_SEP}{k}{KV_SEP}{v}");
        }
    } else {
        let mut pairs: Vec<&(&str, &str)> = labels.iter().collect();
        pairs.sort();
        for (k, v) in pairs {
            let _ = write!(out, "{KEY_SEP}{k}{KV_SEP}{v}");
        }
    }
}

/// Owned, sorted label pairs for a series' first appearance.
fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect();
    l.sort();
    l
}

impl Tsdb {
    /// Creates a TSDB retaining at most `slots` points per series.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        Self::storing_from(slots, SimTime::ZERO)
    }

    /// Creates a TSDB like [`Tsdb::new`] that only counts the points it
    /// is handed at instants before `from`. Such a point creates its
    /// series and counts in [`Tsdb::ingested`] and [`Tsdb::evicted`]
    /// exactly as a stored point would, and a series evicts by the
    /// number of points it has taken, not by its ring's length; the
    /// point itself is never written (a histogram is never copied).
    ///
    /// The store then equals one that stored every point as long as
    /// each point before `from` is one a ring would have evicted by the
    /// end: nothing reads the store before its last point, a series
    /// with a point gets one at every later instant any series gets
    /// one, and points arrive at [`Tsdb::slots`] or more distinct
    /// instants from `from` on. A series must also take at most one
    /// point per instant before `from`: a repeat there, which a stored
    /// ring would overwrite, counts twice. The fabric observer meets
    /// all of these by construction.
    #[must_use]
    pub fn storing_from(slots: usize, from: SimTime) -> Self {
        Tsdb {
            slots: slots.max(1),
            stored_from: from.as_micros(),
            series: Vec::new(),
            index: BTreeMap::new(),
            memo_of: BTreeMap::new(),
            memos: Vec::new(),
            scratch: String::new(),
            ingested: 0,
            evicted: 0,
        }
    }

    /// Ring capacity per series.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of distinct series.
    #[must_use]
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total points accepted over the TSDB's lifetime.
    #[must_use]
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Points evicted because a ring was full.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The position of the series for `(name, labels)`, created empty
    /// via `make` on first sight. Allocation-free for existing series.
    fn resolve(&mut self, name: &str, labels: &[(&str, &str)], make: fn() -> SeriesData) -> usize {
        let mut key = std::mem::take(&mut self.scratch);
        write_key(&mut key, name, labels);
        let idx = match self.index.get(key.as_str()) {
            Some(&idx) => idx,
            None => {
                self.series.push(Series {
                    name: name.to_string(),
                    labels: owned_labels(labels),
                    data: make(),
                    taken: 0,
                });
                self.index.insert(key.clone(), self.series.len() - 1);
                self.series.len() - 1
            }
        };
        key.clear();
        self.scratch = key;
        idx
    }

    /// Records one scalar point.
    pub fn record(&mut self, at: SimTime, name: &str, labels: &[(&str, &str)], value: f64) {
        let idx = self.resolve(name, labels, new_scalar);
        self.push(idx, at, SeriesData::scalars, |v| *v = value);
    }

    /// Records one cumulative histogram snapshot.
    pub fn record_hist(
        &mut self,
        at: SimTime,
        name: &str,
        labels: &[(&str, &str)],
        snap: HistogramSnapshot,
    ) {
        let idx = self.resolve(name, labels, new_hist);
        self.push(idx, at, SeriesData::hists, |s| *s = snap);
    }

    /// Writes one point into the `ring_of` ring of series `idx`: `fill`
    /// overwrites the point at `at` when the series already holds that
    /// instant (re-scrape of the same instant), keeping timestamps
    /// strictly increasing; once the series has taken [`Tsdb::slots`]
    /// points, each new one evicts the oldest, which is counted and,
    /// when the ring is full, refilled with the new point; otherwise it
    /// fills a fresh default point. A point before the first stored
    /// instant is only counted, and `fill` never runs.
    fn push<T: Default>(
        &mut self,
        idx: usize,
        at: SimTime,
        ring_of: fn(&mut SeriesData) -> Option<&mut Ring<T>>,
        fill: impl FnOnce(&mut T),
    ) {
        let series = &mut self.series[idx];
        let Some(ring) = ring_of(&mut series.data) else {
            debug_assert!(false, "point of the wrong kind for series {}", series.name);
            return;
        };
        let t = at.as_micros();
        if t < self.stored_from {
            debug_assert!(
                ring.is_empty(),
                "out-of-order count-only point for {}",
                series.name
            );
        } else {
            if let Some(last) = ring.back_mut() {
                if last.0 == t {
                    fill(&mut last.1);
                    return;
                }
                debug_assert!(last.0 < t, "out-of-order point for {}", series.name);
            }
            let mut point = if ring.len() >= self.slots {
                ring.pop_front().expect("a full ring holds a point")
            } else {
                (t, T::default())
            };
            point.0 = t;
            fill(&mut point.1);
            ring.push_back(point);
        }
        self.ingested += 1;
        self.evicted += u64::from(series.taken >= self.slots as u64);
        series.taken += 1;
    }

    /// Runs one registry scrape at `at` under `labels`: `walk` hands
    /// every instrument to the [`Scrape`] in the registry's fixed order.
    pub(crate) fn scrape(
        &mut self,
        at: SimTime,
        labels: &[(&str, &str)],
        walk: impl FnOnce(&mut Scrape<'_>),
    ) {
        let mut key = std::mem::take(&mut self.scratch);
        write_key(&mut key, "", labels);
        let memo = match self.memo_of.get(key.as_str()) {
            Some(&memo) => memo,
            None => {
                self.memos.push(Vec::new());
                self.memo_of.insert(key.clone(), self.memos.len() - 1);
                self.memos.len() - 1
            }
        };
        key.clear();
        self.scratch = key;
        walk(&mut Scrape {
            db: self,
            at,
            labels,
            memo,
            pos: 0,
        });
    }

    /// All series whose name is exactly `name` and whose labels are a
    /// superset of `labels`, in key order.
    pub(crate) fn select<'a>(
        &'a self,
        name: &'a str,
        labels: &'a [(String, String)],
    ) -> impl Iterator<Item = &'a Series> {
        self.series().filter(move |s| {
            s.name == name
                && labels
                    .iter()
                    .all(|want| s.labels.iter().any(|kv| kv == want))
        })
    }

    /// Iterates every series, in key order.
    pub fn series(&self) -> impl Iterator<Item = &Series> {
        self.index.values().map(|&idx| &self.series[idx])
    }
}

fn new_scalar() -> SeriesData {
    SeriesData::Scalar(VecDeque::new())
}

fn new_hist() -> SeriesData {
    SeriesData::Hist(VecDeque::new())
}

/// One registry's scrape in progress (see [`Tsdb::scrape`]).
pub(crate) struct Scrape<'a> {
    db: &'a mut Tsdb,
    at: SimTime,
    labels: &'a [(&'a str, &'a str)],
    /// Index of this label set's memo in [`Tsdb::memos`].
    memo: usize,
    /// Position of the next instrument in the registry's order.
    pos: usize,
}

impl Scrape<'_> {
    /// Writes a counter's or gauge's value.
    pub(crate) fn scalar(&mut self, name: &str, value: f64) {
        let idx = self.resolve(name, new_scalar);
        self.db
            .push(idx, self.at, SeriesData::scalars, |v| *v = value);
    }

    /// Writes a histogram point; `fill` overwrites every field of the
    /// snapshot it is handed.
    pub(crate) fn hist(&mut self, name: &str, fill: impl FnOnce(&mut HistogramSnapshot)) {
        let idx = self.resolve(name, new_hist);
        self.db.push(idx, self.at, SeriesData::hists, fill);
    }

    /// The series of the instrument at the next position: the one this
    /// position resolved to last time under these labels when its name
    /// still matches, else the one its key names. A miss happens when
    /// an instrument was registered since the last scrape, or when
    /// another registry was scraped under the same labels.
    fn resolve(&mut self, name: &str, make: fn() -> SeriesData) -> usize {
        let pos = self.pos;
        self.pos += 1;
        if let Some(&idx) = self.db.memos[self.memo].get(pos) {
            if self.db.series[idx].name == name {
                return idx;
            }
        }
        let idx = self.db.resolve(name, self.labels, make);
        let memo = &mut self.db.memos[self.memo];
        if pos < memo.len() {
            memo[pos] = idx;
        } else {
            memo.push(idx);
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn scalar_ring_evicts_oldest() {
        let mut db = Tsdb::new(3);
        for i in 0..5u64 {
            #[allow(clippy::cast_precision_loss)]
            db.record(t(i * 100), "m", &[], i as f64);
        }
        assert_eq!(db.ingested(), 5);
        assert_eq!(db.evicted(), 2);
        let series = db.series().next().expect("series exists");
        let SeriesData::Scalar(ring) = series.data() else {
            panic!("scalar series expected");
        };
        let times: Vec<u64> = ring.iter().map(|(ts, _)| *ts).collect();
        assert_eq!(times, vec![200_000, 300_000, 400_000]);
    }

    #[test]
    fn same_timestamp_overwrites_in_place() {
        let mut db = Tsdb::new(4);
        db.record(t(100), "m", &[], 1.0);
        db.record(t(100), "m", &[], 2.0);
        assert_eq!(db.ingested(), 1);
        let series = db.series().next().expect("series exists");
        let SeriesData::Scalar(ring) = series.data() else {
            panic!("scalar series expected");
        };
        assert_eq!(ring.back(), Some(&(100_000, 2.0)));
    }

    #[test]
    fn labels_are_sorted_and_select_matches_supersets() {
        let mut db = Tsdb::new(4);
        db.record(t(0), "m", &[("tenant", "t001"), ("pool", "a")], 1.0);
        db.record(t(0), "m", &[("pool", "a"), ("tenant", "t001")], 2.0);
        assert_eq!(db.series_count(), 1, "label order must not split series");
        let series = db.series().next().expect("series exists");
        assert_eq!(
            series.labels(),
            &[
                ("pool".to_string(), "a".to_string()),
                ("tenant".to_string(), "t001".to_string())
            ]
        );
        let want = vec![("tenant".to_string(), "t001".to_string())];
        assert_eq!(db.select("m", &want).count(), 1);
        let none = vec![("tenant".to_string(), "t999".to_string())];
        assert_eq!(db.select("m", &none).count(), 0);
    }

    #[test]
    fn ingest_fans_out_snapshot_kinds() {
        let reg = crate::Registry::new();
        reg.counter("c.total").add(7);
        reg.gauge("g.now").set(1.5);
        reg.histogram("h.lat").record(1_000);
        let mut db = Tsdb::new(4);
        reg.scrape_into(&mut db, t(100), &[("tenant", "t000")]);
        assert!(db.series_count() >= 3);
        let want = vec![("tenant".to_string(), "t000".to_string())];
        let series = db.select("h.lat", &want).next().expect("hist series");
        assert!(matches!(series.data(), SeriesData::Hist(r) if r.len() == 1));
    }

    #[test]
    fn scrapes_match_one_point_records_while_instruments_appear() {
        use crate::Registry;
        use gbooster_sim::time::SimDuration;
        // One group of instruments, one of each kind, is registered per
        // step into one registry. A registry's groups land in the middle
        // of name order, then at the end, the front and the middle again.
        const GROUPS: [[&str; 4]; 4] = [
            ["m.count", "m.gauge", "m.hist", "m.win"],
            ["z.count", "z.gauge", "z.hist", "z.win"],
            ["a.count", "a.gauge", "a.hist", "a.win"],
            ["p.count", "p.gauge", "p.hist", "p.win"],
        ];
        let regs = [Registry::new(), Registry::new(), Registry::new()];
        // The last two registries share labels, so their series collide.
        let labels: [&[(&str, &str)]; 3] = [&[], &[("tenant", "t001")], &[("tenant", "t001")]];
        let mut scraped = Tsdb::new(4);
        let mut recorded = Tsdb::new(4);
        for step in 0..14u64 {
            for (r, reg) in regs.iter().enumerate() {
                let groups = (0..GROUPS.len()).filter(|&g| 3 * g + r <= step as usize);
                for (g, [c, ga, h, w]) in groups.map(|g| (g as u64, GROUPS[g])) {
                    let v = step * 31 + g * 7 + r as u64;
                    reg.counter(c).add(v);
                    #[allow(clippy::cast_precision_loss)]
                    reg.gauge(ga).set(v as f64 / 4.0);
                    reg.histogram(h).record_tagged(v * v % 9_973, v);
                    reg.windowed(w, SimDuration::from_millis(100), 4)
                        .record(t(step * 250), v * 13);
                }
            }
            let at = t(step * 250);
            for (reg, labels) in regs.iter().zip(labels) {
                reg.scrape_into(&mut scraped, at, labels);
                let snap = reg.snapshot();
                for (name, &v) in &snap.counters {
                    #[allow(clippy::cast_precision_loss)]
                    recorded.record(at, name, labels, v as f64);
                }
                for (name, &v) in &snap.gauges {
                    recorded.record(at, name, labels, v);
                }
                for (name, h) in &snap.histograms {
                    recorded.record_hist(at, name, labels, h.clone());
                }
            }
        }
        assert!(scraped.evicted() > 0, "no ring wrapped");
        assert_eq!(scraped.series_count(), 4 * 4 * 2);
        let points = |db: &Tsdb| db.series().cloned().collect::<Vec<_>>();
        assert_eq!(points(&scraped), points(&recorded));
        assert_eq!(
            (scraped.ingested(), scraped.evicted()),
            (recorded.ingested(), recorded.evicted())
        );
        assert_eq!(scraped, recorded);
    }

    /// Scrapes two registries (pool-style and tenant-labelled) at
    /// `PERIODIC` instants 250 ms apart, then once more at `closing_ms`,
    /// into a store that stores points from periodic scrape
    /// `first_stored` on. One group of instruments appears before the
    /// boundary, one at the last count-only scrape, one at the first
    /// stored scrape and one at the closing scrape.
    fn scrape_run(slots: usize, first_stored: u64, closing_ms: u64) -> Tsdb {
        use crate::Registry;
        use gbooster_sim::time::SimDuration;
        const PERIODIC: u64 = 20;
        let groups: [(u64, [&'static str; 4]); 4] = [
            (1, ["a.count", "a.gauge", "a.hist", "a.win"]),
            (12, ["m.count", "m.gauge", "m.hist", "m.win"]),
            (13, ["p.count", "p.gauge", "p.hist", "p.win"]),
            (PERIODIC + 1, ["z.count", "z.gauge", "z.hist", "z.win"]),
        ];
        let regs = [Registry::new(), Registry::new()];
        let labels: [&[(&str, &str)]; 2] = [&[], &[("tenant", "t001")]];
        let mut db = Tsdb::storing_from(slots, t(first_stored * 250));
        for step in 1..=PERIODIC + 1 {
            let at_ms = if step > PERIODIC {
                closing_ms
            } else {
                step * 250
            };
            for (r, reg) in regs.iter().enumerate() {
                for (g, &(from, [c, ga, h, w])) in groups.iter().enumerate() {
                    if from > step {
                        continue;
                    }
                    let v = step * 31 + g as u64 * 7 + r as u64;
                    reg.counter(c).add(v);
                    #[allow(clippy::cast_precision_loss)]
                    reg.gauge(ga).set(v as f64 / 4.0);
                    reg.histogram(h).record_tagged(v * v % 9_973, v);
                    reg.windowed(w, SimDuration::from_millis(100), 4)
                        .record(t(at_ms), v * 13);
                }
            }
            for (reg, labels) in regs.iter().zip(labels) {
                reg.scrape_into(&mut db, t(at_ms), labels);
            }
        }
        db
    }

    #[test]
    fn count_only_scrapes_build_the_store_a_full_one_does() {
        // 20 periodic scrapes into 8-slot rings: scrapes 1..=12 are
        // evicted by the end, whether the closing scrape lands at a new
        // instant or overwrites the last periodic one.
        let slots = 8;
        let first_stored = 20 - slots as u64 + 1;
        for closing_ms in [5_100, 5_000] {
            let full = scrape_run(slots, 0, closing_ms);
            let counted = scrape_run(slots, first_stored, closing_ms);
            assert!(full.evicted() > 0, "no ring wrapped");
            assert_eq!(full.series_count(), 4 * 4 * 2);
            assert_eq!(counted, full, "closing scrape at {closing_ms} ms");
        }
        // One count-only scrape more is still exact when the closing
        // scrape adds a point, but not when it overwrites: the rings of
        // the series older than the boundary then hold one point fewer.
        assert_eq!(
            scrape_run(slots, first_stored + 1, 5_100),
            scrape_run(slots, 0, 5_100)
        );
        let short = scrape_run(slots, first_stored + 1, 5_000);
        assert_ne!(short, scrape_run(slots, 0, 5_000));
        let a_count = short
            .series()
            .find(|s| s.name() == "a.count")
            .expect("series exists");
        assert_eq!(a_count.data().len(), slots - 1);
    }

    #[test]
    fn repeat_records_do_not_grow_the_scratch_or_split_series() {
        let mut db = Tsdb::new(8);
        for i in 0..20u64 {
            #[allow(clippy::cast_precision_loss)]
            db.record(t(i * 10), "m.one", &[("tenant", "t007")], i as f64);
        }
        assert_eq!(db.series_count(), 1);
        assert_eq!(db.ingested(), 20);
        // Equality is value-based: a fresh DB fed the same points
        // compares equal regardless of internal buffer history.
        let mut other = Tsdb::new(8);
        for i in 0..20u64 {
            #[allow(clippy::cast_precision_loss)]
            other.record(t(i * 10), "m.one", &[("tenant", "t007")], i as f64);
        }
        assert_eq!(db, other);
    }
}

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
//! Storage is deliberately simple and deterministic: series keyed by
//! a canonical `name\x1fk\x1ev…` string (labels sorted), where
//! scalars (counters, gauges) keep `(sim µs, f64)` points and
//! histograms keep cumulative [`HistogramSnapshot`]s, which hold only
//! the non-empty buckets, so range queries take exact deltas without
//! a point costing a slot per bucket. Both kinds share one write path:
//! a point at an instant the series already holds overwrites it, and
//! when a ring is full the oldest point is evicted and counted. The
//! query layer on top lives in [`crate::query`].
//!
//! The write path is on the fabric's scrape cadence (every registry,
//! every interval), so it must not allocate per sample: the canonical
//! key is formatted into a scratch buffer reused across records, and
//! owned strings are built only the first time a series appears.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use gbooster_sim::time::SimTime;

use crate::hist::HistogramSnapshot;

/// Default per-series ring capacity.
pub const DEFAULT_SLOTS: usize = 64;

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
}

/// One stored series: its identity plus the ring of points.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    name: String,
    labels: Vec<(String, String)>,
    data: SeriesData,
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
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tsdb {
    slots: usize,
    /// Canonical key (see [`write_key`]) → series. The map is ordered,
    /// so iteration — and therefore every query answer — is
    /// deterministic.
    series: BTreeMap<String, Series>,
    /// Reused key-formatting buffer; always left empty between calls
    /// so derived equality and clones stay value-based.
    scratch: String,
    ingested: u64,
    evicted: u64,
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
        Tsdb {
            slots: slots.max(1),
            series: BTreeMap::new(),
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

    /// The series for `(name, labels)`, created empty via `make` on
    /// first sight. Allocation-free for existing series.
    fn series_mut(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        make: fn() -> SeriesData,
    ) -> &mut SeriesData {
        let mut scratch = std::mem::take(&mut self.scratch);
        write_key(&mut scratch, name, labels);
        if !self.series.contains_key(scratch.as_str()) {
            self.series.insert(
                scratch.clone(),
                Series {
                    name: name.to_string(),
                    labels: owned_labels(labels),
                    data: make(),
                },
            );
        }
        let entry = self
            .series
            .get_mut(scratch.as_str())
            .expect("series just ensured");
        scratch.clear();
        self.scratch = scratch;
        &mut entry.data
    }

    /// Records one scalar point.
    pub fn record(&mut self, at: SimTime, name: &str, labels: &[(&str, &str)], value: f64) {
        let make = || SeriesData::Scalar(VecDeque::new());
        self.push(at, name, labels, value, make, |data| match data {
            SeriesData::Scalar(ring) => Some(ring),
            SeriesData::Hist(_) => None,
        });
    }

    /// Records one cumulative histogram snapshot.
    pub fn record_hist(
        &mut self,
        at: SimTime,
        name: &str,
        labels: &[(&str, &str)],
        snap: HistogramSnapshot,
    ) {
        let make = || SeriesData::Hist(VecDeque::new());
        self.push(at, name, labels, snap, make, |data| match data {
            SeriesData::Hist(ring) => Some(ring),
            SeriesData::Scalar(_) => None,
        });
    }

    /// Appends one point to the `ring_of` ring of the series for
    /// `(name, labels)`, created via `make` on first sight. A point at
    /// a timestamp the series already holds overwrites in place
    /// (re-scrape of the same instant), keeping timestamps strictly
    /// increasing; past [`Tsdb::slots`] points the oldest is evicted.
    fn push<T>(
        &mut self,
        at: SimTime,
        name: &str,
        labels: &[(&str, &str)],
        value: T,
        make: fn() -> SeriesData,
        ring_of: fn(&mut SeriesData) -> Option<&mut Ring<T>>,
    ) {
        let slots = self.slots;
        let Some(ring) = ring_of(self.series_mut(name, labels, make)) else {
            debug_assert!(false, "point of the wrong kind for series {name}");
            return;
        };
        let t = at.as_micros();
        if let Some(last) = ring.back_mut() {
            if last.0 == t {
                last.1 = value;
                return;
            }
            debug_assert!(last.0 < t, "out-of-order point for {name}");
        }
        ring.push_back((t, value));
        let over = ring.len() > slots;
        if over {
            ring.pop_front();
        }
        self.ingested += 1;
        self.evicted += u64::from(over);
    }

    /// All series whose name is exactly `name` and whose labels are a
    /// superset of `labels`, in key order.
    pub(crate) fn select<'a>(
        &'a self,
        name: &'a str,
        labels: &'a [(String, String)],
    ) -> impl Iterator<Item = &'a Series> {
        self.series.values().filter(move |s| {
            s.name == name
                && labels
                    .iter()
                    .all(|want| s.labels.iter().any(|kv| kv == want))
        })
    }

    /// Iterates every series, in key order.
    pub fn series(&self) -> impl Iterator<Item = &Series> {
        self.series.values()
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

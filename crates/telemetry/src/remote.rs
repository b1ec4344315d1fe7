//! Service-device span capture and NTP-style clock-offset estimation.
//!
//! The service device timestamps its spans on its **own** clock, which
//! is skewed from the user device's sim clock by an unknown offset.
//! [`RemoteSpanLog`] collects those raw spans; [`ClockOffsetEstimator`]
//! recovers the offset from RUDP ack timestamp quadruples so the
//! stitcher ([`crate::stitch`]) can rebase remote spans onto the user
//! timeline.
//!
//! Timestamps here are `i64` microseconds: the service clock may run
//! *behind* the user clock, and `SimTime`'s saturating arithmetic
//! cannot represent that, so the service-clock domain stays signed
//! until stitching rebases it.

use std::sync::{Arc, Mutex};

use crate::context::TraceContext;

/// One span measured on the service device, in service-clock µs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteSpan {
    /// The trace context the datagrams carried.
    pub ctx: TraceContext,
    /// Stage name (see [`crate::names::remote`]).
    pub name: &'static str,
    /// Interval start on the service clock.
    pub start_us: i64,
    /// Interval end on the service clock (`>= start_us` by convention).
    pub end_us: i64,
}

/// A shared, cheaply clonable sink for [`RemoteSpan`]s.
///
/// The service runtime holds one clone and records into it as frames
/// replay; the session engine holds another and drains per-frame
/// batches at stitch time. Spans still present when the session ends
/// are orphans (their frame never displayed, or the context was lost
/// in transit) and are counted, not silently dropped.
#[derive(Clone, Debug, Default)]
pub struct RemoteSpanLog {
    inner: Arc<Mutex<Vec<RemoteSpan>>>,
}

impl RemoteSpanLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one span.
    pub fn record(&self, span: RemoteSpan) {
        self.inner.lock().unwrap().push(span);
    }

    /// Removes and returns every span tagged with `session_id` /
    /// `frame_id`, preserving recording order.
    pub fn take_frame(&self, session_id: u64, frame_id: u64) -> Vec<RemoteSpan> {
        let mut inner = self.inner.lock().unwrap();
        let mut taken = Vec::new();
        inner.retain(|s| {
            if s.ctx.session_id == session_id && s.ctx.frame_id == frame_id {
                taken.push(*s);
                false
            } else {
                true
            }
        });
        taken
    }

    /// Spans not yet claimed by any frame.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// True when no spans are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// NTP-style offset estimation from RUDP ack timestamps.
///
/// Each traced datagram yields the classic quadruple: `t1` send time
/// (user clock), `t2` receive time (service clock), `t3` ack send time
/// (service clock; equal to `t2` here — acks are immediate), `t4` ack
/// arrival (user clock). Then
///
/// ```text
/// offset = ((t2 − t1) + (t3 − t4)) / 2      (service − user)
/// rtt    = (t4 − t1) − (t3 − t2)
/// ```
///
/// Queueing and asymmetric serialization bias individual samples, so
/// the estimator keeps the offset from the **minimum-RTT** sample seen
/// — the sample least polluted by queueing — rather than averaging.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClockOffsetEstimator {
    best: Option<(i64, i64)>, // (rtt_us, offset_us)
    samples: u64,
}

impl ClockOffsetEstimator {
    /// Creates an estimator with no samples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one ack quadruple (all µs; `t1`/`t4` user clock,
    /// `t2`/`t3` service clock). Samples with non-positive RTT are
    /// discarded as clock nonsense.
    pub fn observe(&mut self, t1: i64, t2: i64, t3: i64, t4: i64) {
        let rtt = (t4 - t1) - (t3 - t2);
        if rtt <= 0 {
            return;
        }
        let offset = ((t2 - t1) + (t3 - t4)) / 2;
        self.samples += 1;
        if self.best.is_none_or(|(best_rtt, _)| rtt < best_rtt) {
            self.best = Some((rtt, offset));
        }
    }

    /// The current estimate of (service clock − user clock) in µs, or
    /// `None` before any valid sample.
    pub fn offset_us(&self) -> Option<i64> {
        self.best.map(|(_, offset)| offset)
    }

    /// Valid samples folded in.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn symmetric_path_recovers_exact_offset() {
        let mut est = ClockOffsetEstimator::new();
        // True offset +5000 µs, symmetric 2 ms one-way delay.
        let (t1, one_way, off) = (10_000i64, 2_000i64, 5_000i64);
        let t2 = t1 + one_way + off;
        let t4 = t1 + 2 * one_way;
        est.observe(t1, t2, t2, t4);
        assert_eq!(est.offset_us(), Some(off));
    }

    #[test]
    fn negative_offset_is_representable() {
        let mut est = ClockOffsetEstimator::new();
        let (t1, one_way, off) = (50_000i64, 1_000i64, -30_000i64);
        let t2 = t1 + one_way + off;
        let t4 = t1 + 2 * one_way;
        est.observe(t1, t2, t2, t4);
        assert_eq!(est.offset_us(), Some(off));
    }

    #[test]
    fn min_rtt_sample_wins() {
        let mut est = ClockOffsetEstimator::new();
        // A queued sample (big forward delay) gives a biased offset...
        est.observe(0, 9_000 + 100, 9_000 + 100, 10_000);
        // ...then a clean low-RTT sample corrects it.
        est.observe(20_000, 21_000 + 100, 21_000 + 100, 22_000);
        assert_eq!(est.offset_us(), Some(100));
        assert_eq!(est.samples(), 2);
    }

    #[test]
    fn garbage_samples_are_discarded() {
        let mut est = ClockOffsetEstimator::new();
        est.observe(100, 50, 50, 90); // t4 < t1: rtt <= 0
        assert_eq!(est.offset_us(), None);
        assert_eq!(est.samples(), 0);
    }

    #[test]
    fn span_log_takes_per_frame_batches() {
        let log = RemoteSpanLog::new();
        let writer = log.clone();
        for frame in 0..3u64 {
            writer.record(RemoteSpan {
                ctx: TraceContext::new(9, frame, 0),
                name: names::remote::REPLAY,
                start_us: frame as i64 * 100,
                end_us: frame as i64 * 100 + 50,
            });
        }
        writer.record(RemoteSpan {
            ctx: TraceContext::new(8, 1, 0), // other session: orphan here
            name: names::remote::ENCODE,
            start_us: 0,
            end_us: 1,
        });
        let taken = log.take_frame(9, 1);
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].start_us, 100);
        assert_eq!(log.len(), 3);
        assert!(log.take_frame(9, 5).is_empty());
    }
}

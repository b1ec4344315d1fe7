//! Evaluation metrics (Section VII-B).
//!
//! * **Median FPS** and **FPS stability** come from
//!   [`gbooster_sim::display::FpsRecorder`].
//! * **Average response time** follows Eq. 5 ([`response_time_ms`]):
//!   `t_r = 1000/FPS + t_p`,
//!   where `t_p` is the per-frame offloading overhead (network transfers
//!   and image decoding; encoding overlaps transmission tile-by-tile and
//!   service rendering overlaps the next frame's CPU work). For local
//!   execution `t_p = 0` and `t_r = 1000/FPS` exactly as the paper
//!   defines.

use gbooster_sim::time::SimDuration;

/// Eq. 5: the average response time in milliseconds at `median_fps`
/// with a mean per-frame offloading overhead of `mean_tp_ms` (0 for
/// local execution); infinite when no frame was shown.
pub fn response_time_ms(median_fps: f64, mean_tp_ms: f64) -> f64 {
    if median_fps <= 0.0 {
        return f64::INFINITY;
    }
    1000.0 / median_fps + mean_tp_ms
}

/// Accumulates the per-frame offloading overhead `t_p` of Eq. 5.
#[derive(Clone, Debug, Default)]
pub struct ResponseTracker {
    total_tp: SimDuration,
    frames: u64,
}

impl ResponseTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one frame's overhead components.
    pub fn record(&mut self, uplink: SimDuration, downlink: SimDuration, decode: SimDuration) {
        self.total_tp += uplink + downlink + decode;
        self.frames += 1;
    }

    /// Mean `t_p` in milliseconds (0 when no frames were offloaded).
    pub fn mean_tp_ms(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.total_tp.as_millis_f64() / self.frames as f64
        }
    }
}

/// CPU-utilization bookkeeping for the overhead analysis (Section VII-G).
#[derive(Clone, Debug, Default)]
pub struct CpuLedger {
    busy_core_secs: f64,
    cores: u32,
}

impl CpuLedger {
    /// Creates a ledger for a `cores`-core CPU.
    pub fn new(cores: u32) -> Self {
        CpuLedger {
            busy_core_secs: 0.0,
            cores,
        }
    }

    /// Adds `secs` of single-core busy time.
    ///
    /// Busy time cannot be negative; a negative argument indicates a
    /// caller bug (e.g. a reversed time subtraction), so it trips a debug
    /// assertion and is clamped to zero in release builds rather than
    /// silently draining the ledger.
    pub fn add_busy(&mut self, secs: f64) {
        debug_assert!(
            secs >= 0.0,
            "negative busy time {secs} — reversed duration subtraction?"
        );
        self.busy_core_secs += secs.max(0.0);
    }

    /// Whole-chip utilization over `elapsed_secs` of wall time, in [0, 1].
    pub fn utilization(&self, elapsed_secs: f64) -> f64 {
        if elapsed_secs <= 0.0 || self.cores == 0 {
            0.0
        } else {
            (self.busy_core_secs / (elapsed_secs * self.cores as f64)).clamp(0.0, 1.0)
        }
    }

    /// Total busy core-seconds.
    pub fn busy_core_secs(&self) -> f64 {
        self.busy_core_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_response_is_reciprocal_fps() {
        let t = ResponseTracker::new();
        assert!((response_time_ms(25.0, t.mean_tp_ms()) - 40.0).abs() < 1e-9);
        assert_eq!(t.mean_tp_ms(), 0.0);
    }

    #[test]
    fn tp_adds_on_top_of_frame_interval() {
        let mut t = ResponseTracker::new();
        t.record(
            SimDuration::from_millis(2),
            SimDuration::from_millis(5),
            SimDuration::from_millis(3),
        );
        assert!((t.mean_tp_ms() - 10.0).abs() < 1e-9);
        assert!((response_time_ms(40.0, t.mean_tp_ms()) - 35.0).abs() < 1e-9);
    }

    #[test]
    fn zero_fps_yields_infinite_response() {
        assert!(response_time_ms(0.0, 0.0).is_infinite());
    }

    #[test]
    fn cpu_ledger_utilization() {
        let mut c = CpuLedger::new(4);
        c.add_busy(10.0);
        assert!((c.utilization(10.0) - 0.25).abs() < 1e-9);
        assert_eq!(c.utilization(0.0), 0.0);
        assert!((c.busy_core_secs() - 10.0).abs() < 1e-12);
        // Saturates at 1.
        c.add_busy(1000.0);
        assert_eq!(c.utilization(1.0), 1.0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "negative busy time"))]
    fn negative_busy_time_is_rejected() {
        let mut c = CpuLedger::new(4);
        c.add_busy(-1.0);
        // Release builds clamp instead of panicking: the ledger never
        // goes negative and utilization stays in [0, 1].
        assert_eq!(c.busy_core_secs(), 0.0);
        assert_eq!(c.utilization(10.0), 0.0);
    }
}

//! Double-buffered display with vsync, plus FPS sampling.
//!
//! Android's display system is double-buffered (Section IV-C of the paper,
//! ref \[21\]): the application renders into a back buffer and
//! `eglSwapBuffers` flips it at the next vsync. The default refresh rate is
//! 60 Hz, which is also why Fig. 7's multi-device speedup saturates — the
//! graphics engine caps request generation at the display rate.
//!
//! [`Display`] models buffer flips against a vsync grid; [`FpsRecorder`]
//! converts presentation timestamps into the paper's two FPS metrics
//! (median FPS and FPS stability — Section VII-B).

use crate::time::{SimDuration, SimTime};

/// A fixed-refresh, double-buffered display.
///
/// # Examples
///
/// ```
/// use gbooster_sim::display::Display;
/// use gbooster_sim::time::SimTime;
///
/// let mut d = Display::new(60);
/// // A frame finishing at 3 ms is presented at the next vsync (16.67 ms).
/// let shown = d.present(SimTime::from_millis(3));
/// assert_eq!(shown.as_micros(), 16_666);
/// ```
#[derive(Clone, Debug)]
pub struct Display {
    refresh_hz: u32,
    last_vsync_presented: Option<u64>,
}

impl Display {
    /// Creates a display with the given refresh rate.
    ///
    /// # Panics
    ///
    /// Panics if `refresh_hz` is zero.
    pub fn new(refresh_hz: u32) -> Self {
        assert!(refresh_hz > 0, "refresh rate must be nonzero");
        Display {
            refresh_hz,
            last_vsync_presented: None,
        }
    }

    /// The vsync period.
    pub fn vsync_period(&self) -> SimDuration {
        SimDuration::from_micros(1_000_000 / self.refresh_hz as u64)
    }

    /// Presents a frame that became ready at `ready`: returns the instant
    /// it actually appears on screen (the next free vsync edge).
    ///
    /// With double buffering, at most one new frame appears per vsync; a
    /// frame racing an already-claimed vsync slips to the following one.
    pub fn present(&mut self, ready: SimTime) -> SimTime {
        let period = self.vsync_period().as_micros();
        // Next vsync edge strictly after `ready`.
        let mut slot = ready.as_micros() / period + 1;
        if let Some(last) = self.last_vsync_presented {
            if slot <= last {
                slot = last + 1;
            }
        }
        self.last_vsync_presented = Some(slot);
        SimTime::from_micros(slot * period)
    }
}

/// Accumulates frame presentation times and derives the paper's FPS
/// metrics.
///
/// * **Median FPS** — the median of per-second frame-rate samples;
///   "naturally omits fringe results, for instance 0 FPS or 60 FPS which
///   commonly occur during a game's loading screens" (Section VII-B).
/// * **FPS stability** — the fraction of samples within ±20 % of the
///   median.
#[derive(Clone, Debug, Default)]
pub struct FpsRecorder {
    present_times: Vec<SimTime>,
}

impl FpsRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one frame presented at `at`. Times must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previously recorded frame.
    pub fn record(&mut self, at: SimTime) {
        if let Some(&last) = self.present_times.last() {
            assert!(at >= last, "frame times must be non-decreasing");
        }
        self.present_times.push(at);
    }

    /// Number of frames recorded.
    pub fn frame_count(&self) -> usize {
        self.present_times.len()
    }

    /// Every recorded presentation time, in recording order.
    pub fn present_times(&self) -> &[SimTime] {
        &self.present_times
    }

    /// Frame rate sampled over each whole second of the session.
    ///
    /// Seconds with zero frames yield a 0 sample (loading screens in the
    /// paper's terminology).
    pub fn per_second_samples(&self) -> Vec<u32> {
        let Some(&last) = self.present_times.last() else {
            return Vec::new();
        };
        let secs = last.as_secs_f64().ceil() as usize;
        let mut samples = vec![0u32; secs.max(1)];
        for &t in &self.present_times {
            let idx = (t.as_secs_f64().floor() as usize).min(samples.len() - 1);
            samples[idx] += 1;
        }
        samples
    }

    /// Median of the per-second FPS samples.
    pub fn median_fps(&self) -> f64 {
        let mut samples = self.per_second_samples();
        if samples.is_empty() {
            return 0.0;
        }
        samples.sort_unstable();
        let n = samples.len();
        if n % 2 == 1 {
            samples[n / 2] as f64
        } else {
            (samples[n / 2 - 1] as f64 + samples[n / 2] as f64) / 2.0
        }
    }

    /// Fraction of per-second samples within ±20 % of the median
    /// (the paper's *FPS stability*, Section VII-B), in `[0, 1]`.
    pub fn stability(&self) -> f64 {
        let samples = self.per_second_samples();
        if samples.is_empty() {
            return 0.0;
        }
        let median = self.median_fps();
        if median == 0.0 {
            return 0.0;
        }
        let lo = median * 0.8;
        let hi = median * 1.2;
        let within = samples
            .iter()
            .filter(|&&s| (s as f64) >= lo && (s as f64) <= hi)
            .count();
        within as f64 / samples.len() as f64
    }

    /// Standard deviation of the inter-frame interval, in milliseconds —
    /// the "FPS jitter" the paper says leads to poor gaming experience
    /// (Section VII-B). 0 for fewer than three frames.
    pub fn interval_jitter_ms(&self) -> f64 {
        if self.present_times.len() < 3 {
            return 0.0;
        }
        let intervals: Vec<f64> = self
            .present_times
            .windows(2)
            .map(|w| (w[1] - w[0]).as_millis_f64())
            .collect();
        let mean = intervals.iter().sum::<f64>() / intervals.len() as f64;
        let var = intervals
            .iter()
            .map(|i| (i - mean) * (i - mean))
            .sum::<f64>()
            / intervals.len() as f64;
        var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn present_aligns_to_next_vsync() {
        let mut d = Display::new(60);
        assert_eq!(d.present(SimTime::ZERO).as_micros(), 16_666);
        assert_eq!(d.vsync_period().as_micros(), 16_666);
    }

    #[test]
    fn double_buffering_skips_claimed_vsync() {
        let mut d = Display::new(60);
        let a = d.present(SimTime::from_millis(1));
        let b = d.present(SimTime::from_millis(2));
        assert!(b > a);
        assert_eq!(b.as_micros() - a.as_micros(), 16_666);
    }

    #[test]
    fn steady_30fps_measures_30() {
        let mut rec = FpsRecorder::new();
        // 30 FPS for 10 seconds.
        for i in 0..300 {
            rec.record(SimTime::from_micros(i * 33_333));
        }
        let m = rec.median_fps();
        assert!((m - 30.0).abs() <= 1.0, "median {m}");
        assert!(rec.stability() > 0.9);
    }

    #[test]
    fn median_ignores_loading_screen_fringe() {
        let mut rec = FpsRecorder::new();
        let mut t = 0u64;
        // 2 s of loading at 1 FPS.
        for _ in 0..2 {
            rec.record(SimTime::from_micros(t));
            t += 1_000_000;
        }
        // 20 s of gameplay at 40 FPS.
        for _ in 0..800 {
            rec.record(SimTime::from_micros(t));
            t += 25_000;
        }
        let m = rec.median_fps();
        assert!((m - 40.0).abs() <= 1.0, "median {m}");
    }

    #[test]
    fn jittery_session_has_low_stability() {
        let mut rec = FpsRecorder::new();
        let mut t = 0u64;
        for sec in 0..30 {
            // Alternate 60 FPS and 15 FPS seconds: jitter.
            let fps = if sec % 2 == 0 { 60 } else { 15 };
            for _ in 0..fps {
                rec.record(SimTime::from_micros(t));
                t += 1_000_000 / fps;
            }
            t = (sec + 1) * 1_000_000;
        }
        assert!(rec.stability() < 0.7, "stability {}", rec.stability());
    }

    #[test]
    fn empty_recorder_reports_zero() {
        let rec = FpsRecorder::new();
        assert_eq!(rec.median_fps(), 0.0);
        assert_eq!(rec.stability(), 0.0);
        assert_eq!(rec.interval_jitter_ms(), 0.0);
    }

    #[test]
    fn steady_cadence_has_zero_jitter() {
        let mut rec = FpsRecorder::new();
        for i in 0..100u64 {
            rec.record(SimTime::from_micros(i * 16_666));
        }
        assert!(rec.interval_jitter_ms() < 0.01);
    }

    #[test]
    fn irregular_cadence_has_positive_jitter() {
        let mut rec = FpsRecorder::new();
        let mut t = 0u64;
        for i in 0..100u64 {
            t += if i % 2 == 0 { 10_000 } else { 40_000 };
            rec.record(SimTime::from_micros(t));
        }
        assert!(rec.interval_jitter_ms() > 10.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_frames_panic() {
        let mut rec = FpsRecorder::new();
        rec.record(SimTime::from_millis(10));
        rec.record(SimTime::from_millis(5));
    }
}

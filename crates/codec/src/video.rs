//! x264 video-encoder *cost model* — the comparator the paper rejects.
//!
//! Section V-A: "One straightforward solution is to encode the images into
//! a video stream using the video encoder x264, which is considered the
//! most efficient one. However, because the majority of multimedia devices
//! other than PCs are equipped with ARM-based CPUs that the encoder is not
//! optimized for, the encoding process is unacceptably slow. The normal
//! speed is only around 1 MegaPixels/sec, far less than the speed of
//! 7 MegaPixel/sec in which the application generates raw frames."
//!
//! We do not need a real H.264 encoder to reproduce that *comparison* —
//! only its speed envelope, which the paper itself supplies. This
//! module is explicitly a model (see DESIGN.md substitution table); the
//! Turbo path next door is a real codec.

use std::time::Duration;

/// Host CPU class the encoder runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EncoderHost {
    /// ARM SoC without x264 SIMD optimization (smart TVs, consoles):
    /// ≈1 MP/s per the paper.
    Arm,
    /// x86 desktop with full SIMD: fast enough for real-time.
    X86,
}

/// Throughput envelope of an x264-class encoder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VideoEncoderModel {
    /// Encoding throughput, megapixels per second.
    pub speed_mpixels_per_sec: f64,
    /// Per-frame codec latency floor (lookahead/B-frame pipeline).
    pub latency_floor: Duration,
}

impl VideoEncoderModel {
    /// Model constants for `host`, taken from the paper (§V-A) for ARM
    /// and from x264 benchmarks for x86.
    pub fn for_host(host: EncoderHost) -> Self {
        match host {
            EncoderHost::Arm => VideoEncoderModel {
                speed_mpixels_per_sec: 1.0,
                latency_floor: Duration::from_millis(30),
            },
            EncoderHost::X86 => VideoEncoderModel {
                speed_mpixels_per_sec: 60.0,
                latency_floor: Duration::from_millis(12),
            },
        }
    }

    /// Time to encode one `pixels`-sized frame.
    pub fn encode_time(&self, pixels: u64) -> Duration {
        let secs = pixels as f64 / (self.speed_mpixels_per_sec * 1e6);
        self.latency_floor + Duration::from_secs_f64(secs)
    }

    /// True if the encoder keeps up with an application generating
    /// `mpixels_per_sec` of raw frames (the paper's 7 MP/s bar).
    pub fn is_realtime_for(&self, mpixels_per_sec: f64) -> bool {
        self.speed_mpixels_per_sec >= mpixels_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_encoder_misses_realtime_bar() {
        // The paper's exact argument: 1 MP/s < 7 MP/s required.
        let arm = VideoEncoderModel::for_host(EncoderHost::Arm);
        assert!(!arm.is_realtime_for(7.0));
        assert!((arm.speed_mpixels_per_sec - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x86_encoder_meets_realtime_bar() {
        let x86 = VideoEncoderModel::for_host(EncoderHost::X86);
        assert!(x86.is_realtime_for(7.0));
    }

    #[test]
    fn arm_cannot_sustain_25fps_at_600x480() {
        // The paper's low-quality setting: 600x480 @ 25 FPS = 7.2 MP/s.
        let arm = VideoEncoderModel::for_host(EncoderHost::Arm);
        let frame = arm.encode_time(600 * 480).as_secs_f64();
        assert!(frame > 1.0 / 25.0, "frame time {frame} s");
    }

    #[test]
    fn encode_time_scales_with_pixels() {
        let arm = VideoEncoderModel::for_host(EncoderHost::Arm);
        let small = arm.encode_time(100_000);
        let large = arm.encode_time(1_000_000);
        assert!(large > small);
        // 1 MP at 1 MP/s = 1 s + floor.
        assert!((large.as_secs_f64() - 1.03).abs() < 0.01);
    }
}

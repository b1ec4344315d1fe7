//! The Turbo frame encoder (Section V-A, ref \[25\]).
//!
//! "Rather than using a video encoder, we adopt a lightweight image
//! encoding algorithm named Turbo. The image encoder eliminates the
//! redundant data by only transmitting incremental updates between
//! consecutive frames and utilizing the JPEG image compression algorithm."
//!
//! [`TurboEncoder`] splits each frame into 16×16 tiles, detects the tiles
//! whose *raw* content changed since the previous frame, and JPEG-encodes
//! only those. Because every transmitted tile is freshly encoded from the
//! raw source, reconstruction loss never accumulates across frames, and
//! unchanged tiles are never re-sent — verified by the drift tests.
//!
//! Wire format:
//!
//! ```text
//! u16 width | u16 height | u8 kind(0=key,1=delta) | u16 tile_count |
//!   { u16 tx | u16 ty | u32 len | jpeg bytes } * tile_count
//! ```

use gbooster_telemetry::{names, AttributionLog, Counter, Registry};

use crate::jpeg;

/// Tile side in pixels (TurboVNC-style blocks).
pub const TILE: u32 = 16;

/// Mean-absolute-difference threshold below which a tile counts as
/// unchanged (raw-vs-raw comparison; 0.5 tolerates sub-quantum noise).
const CHANGE_THRESHOLD: f64 = 0.5;

/// Turbo encoder scan throughput on service-class ARM/x86 hardware:
/// the full frame is compared against the previous one at this rate
/// (the paper's ref \[25\] reports up to 90 MP/s for the whole pipeline).
pub const ENCODE_SCAN_PIXELS_PER_SEC: f64 = 90e6;

/// JPEG stage throughput applied to *changed* pixels only.
pub const ENCODE_JPEG_PIXELS_PER_SEC: f64 = 40e6;

/// Turbo JPEG compression ratio on game content ("up to 25:1").
pub const ENCODE_COMPRESSION: f64 = 25.0;

/// Fixed per-frame container overhead, bytes.
pub const ENCODE_HEADER_BYTES: usize = 64;

/// Modeled wall time (seconds) to Turbo-encode a frame of
/// `frame_pixels` total pixels of which `changed_pixels` changed: a
/// full-frame scan plus JPEG work on the changed pixels only. This is
/// the cost model the service runtime charges per frame; the actual
/// [`TurboEncoder`] produces the bytes, this predicts the time.
pub fn model_encode_secs(frame_pixels: u64, changed_pixels: u64) -> f64 {
    frame_pixels as f64 / ENCODE_SCAN_PIXELS_PER_SEC
        + changed_pixels as f64 / ENCODE_JPEG_PIXELS_PER_SEC
}

/// Modeled encoded size for `changed_pixels` of RGBA content under the
/// 25:1 Turbo ratio, plus the fixed container header.
pub fn model_encoded_bytes(changed_pixels: u64) -> usize {
    (changed_pixels as f64 * 4.0 / ENCODE_COMPRESSION) as usize + ENCODE_HEADER_BYTES
}

/// Errors from the Turbo codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TurboError {
    /// Input ended unexpectedly.
    Truncated,
    /// Frame dimensions disagree with the decoder state.
    DimensionMismatch,
    /// An embedded tile lies outside the frame or failed to decode.
    BadTile,
    /// A delta frame arrived before any keyframe.
    NoKeyframe,
}

impl std::fmt::Display for TurboError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TurboError::Truncated => write!(f, "turbo frame truncated"),
            TurboError::DimensionMismatch => write!(f, "frame dimensions changed mid-stream"),
            TurboError::BadTile => write!(f, "embedded tile is out of frame or failed to decode"),
            TurboError::NoKeyframe => write!(f, "delta frame received before keyframe"),
        }
    }
}

impl std::error::Error for TurboError {}

/// Per-frame encoder statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodeStats {
    /// Tiles transmitted this frame.
    pub tiles_sent: u32,
    /// Tiles in the full grid.
    pub tiles_total: u32,
    /// Encoded size in bytes.
    pub encoded_bytes: usize,
    /// Raw RGBA size in bytes.
    pub raw_bytes: usize,
}

impl EncodeStats {
    /// Compressed ÷ raw (the paper reports ratios up to 25:1, i.e. 0.04).
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            1.0
        } else {
            self.encoded_bytes as f64 / self.raw_bytes as f64
        }
    }
}

fn tile_rect(width: u32, height: u32, tx: u32, ty: u32) -> (u32, u32, u32, u32) {
    let x0 = tx * TILE;
    let y0 = ty * TILE;
    let w = (x0 + TILE).min(width) - x0;
    let h = (y0 + TILE).min(height) - y0;
    (x0, y0, w, h)
}

fn extract_tile(rgba: &[u8], width: u32, rect: (u32, u32, u32, u32)) -> Vec<u8> {
    let (x0, y0, w, h) = rect;
    let mut out = Vec::with_capacity((w * h * 4) as usize);
    for y in y0..y0 + h {
        let start = ((y * width + x0) * 4) as usize;
        out.extend_from_slice(&rgba[start..start + (w * 4) as usize]);
    }
    out
}

fn write_tile(rgba: &mut [u8], width: u32, rect: (u32, u32, u32, u32), tile: &[u8]) {
    let (x0, y0, w, h) = rect;
    for row in 0..h {
        let dst = (((y0 + row) * width + x0) * 4) as usize;
        let src = (row * w * 4) as usize;
        rgba[dst..dst + (w * 4) as usize].copy_from_slice(&tile[src..src + (w * 4) as usize]);
    }
}

fn mean_abs_diff(a: &[u8], b: &[u8]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 0.0;
    }
    let sum: u64 = a
        .iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x as i64 - y as i64).unsigned_abs())
        .sum();
    sum as f64 / a.len() as f64
}

/// The sender-side Turbo codec.
///
/// # Examples
///
/// ```
/// use gbooster_codec::turbo::{TurboDecoder, TurboEncoder};
///
/// let mut enc = TurboEncoder::new(32, 32, 90);
/// let mut dec = TurboDecoder::new(32, 32);
/// let frame = vec![200u8; 32 * 32 * 4];
/// let (bytes, stats) = enc.encode(&frame);
/// assert_eq!(stats.tiles_sent, 4); // keyframe: whole 2x2 tile grid
/// let shown = dec.decode(&bytes)?;
/// assert_eq!(shown.len(), frame.len());
/// // A static second frame transmits nothing but the header.
/// let (bytes2, stats2) = enc.encode(&frame);
/// assert_eq!(stats2.tiles_sent, 0);
/// dec.decode(&bytes2)?;
/// # Ok::<(), gbooster_codec::turbo::TurboError>(())
/// ```
#[derive(Clone, Debug)]
pub struct TurboEncoder {
    width: u32,
    height: u32,
    quality: u8,
    /// Raw previous frame, for change detection.
    prev_raw: Option<Vec<u8>>,
    counters: Option<TurboCounters>,
    attr: Option<AttributionLog>,
}

/// Pre-resolved registry handles for the encoder counters.
#[derive(Clone, Debug)]
struct TurboCounters {
    tiles_sent: Counter,
    tiles_total: Counter,
    encoded_bytes: Counter,
    raw_bytes: Counter,
}

impl TurboEncoder {
    /// Creates an encoder for `width`×`height` RGBA frames at JPEG
    /// `quality` (1–100).
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    pub fn new(width: u32, height: u32, quality: u8) -> Self {
        assert!(width > 0 && height > 0, "frame must be non-empty");
        TurboEncoder {
            width,
            height,
            quality: quality.clamp(1, 100),
            prev_raw: None,
            counters: None,
            attr: None,
        }
    }

    /// Mirrors per-frame [`EncodeStats`] into `registry` (tile and byte
    /// counters under `turbo.*`; the changed-tile fraction derives from
    /// them in the telemetry report).
    pub fn attach_registry(&mut self, registry: &Registry) {
        self.counters = Some(TurboCounters {
            tiles_sent: registry.counter(names::service::TURBO_TILES_SENT),
            tiles_total: registry.counter(names::service::TURBO_TILES_TOTAL),
            encoded_bytes: registry.counter(names::service::TURBO_ENCODED_BYTES),
            raw_bytes: registry.counter(names::service::TURBO_RAW_BYTES),
        });
    }

    /// Mirrors every encode into `log`'s downlink table: keyframes
    /// under `jpeg.keyframe`, delta frames under `turbo.tile_delta`.
    /// Purely observational — encoded output is unchanged.
    pub fn attach_attribution(&mut self, log: AttributionLog) {
        self.attr = Some(log);
    }

    /// Grid dimensions in tiles.
    pub fn tile_grid(&self) -> (u32, u32) {
        (self.width.div_ceil(TILE), self.height.div_ceil(TILE))
    }

    /// Encodes one frame; returns the wire bytes and statistics.
    ///
    /// The first frame is a keyframe carrying every tile.
    ///
    /// # Panics
    ///
    /// Panics if `rgba` is not exactly `width * height * 4` bytes.
    pub fn encode(&mut self, rgba: &[u8]) -> (Vec<u8>, EncodeStats) {
        gbooster_telemetry::prof_scope!(names::host::TURBO_ENCODE);
        assert_eq!(
            rgba.len(),
            (self.width * self.height * 4) as usize,
            "frame size mismatch"
        );
        let (cols, rows) = self.tile_grid();
        let is_key = self.prev_raw.is_none();
        let prev_raw = self.prev_raw.take();

        let mut tiles: Vec<(u32, u32, Vec<u8>)> = Vec::new();
        for ty in 0..rows {
            for tx in 0..cols {
                let rect = tile_rect(self.width, self.height, tx, ty);
                let current = extract_tile(rgba, self.width, rect);
                let send = match &prev_raw {
                    None => true,
                    Some(prev) => {
                        let prev_tile = extract_tile(prev, self.width, rect);
                        mean_abs_diff(&current, &prev_tile) > CHANGE_THRESHOLD
                    }
                };
                if send {
                    let encoded = jpeg::compress(rect.2, rect.3, &current, self.quality);
                    tiles.push((tx, ty, encoded));
                }
            }
        }

        let mut out = Vec::new();
        out.extend_from_slice(&(self.width as u16).to_le_bytes());
        out.extend_from_slice(&(self.height as u16).to_le_bytes());
        out.push(if is_key { 0 } else { 1 });
        out.extend_from_slice(&(tiles.len() as u16).to_le_bytes());
        for (tx, ty, data) in &tiles {
            out.extend_from_slice(&(*tx as u16).to_le_bytes());
            out.extend_from_slice(&(*ty as u16).to_le_bytes());
            out.extend_from_slice(&(data.len() as u32).to_le_bytes());
            out.extend_from_slice(data);
        }
        let stats = EncodeStats {
            tiles_sent: tiles.len() as u32,
            tiles_total: cols * rows,
            encoded_bytes: out.len(),
            raw_bytes: rgba.len(),
        };
        if let Some(c) = &self.counters {
            c.tiles_sent.add(stats.tiles_sent as u64);
            c.tiles_total.add(stats.tiles_total as u64);
            c.encoded_bytes.add(stats.encoded_bytes as u64);
            c.raw_bytes.add(stats.raw_bytes as u64);
        }
        if let Some(attr) = &self.attr {
            let kind = if is_key {
                names::attr::KIND_KEYFRAME
            } else {
                names::attr::KIND_TILE_DELTA
            };
            attr.record_downlink(kind, stats.encoded_bytes as u64);
        }
        self.prev_raw = Some(rgba.to_vec());
        (out, stats)
    }
}

/// The receiver-side Turbo codec.
#[derive(Clone, Debug)]
pub struct TurboDecoder {
    width: u32,
    height: u32,
    frame: Option<Vec<u8>>,
}

impl TurboDecoder {
    /// Creates a decoder for `width`×`height` RGBA frames.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "frame must be non-empty");
        TurboDecoder {
            width,
            height,
            frame: None,
        }
    }

    /// Decodes one wire frame and returns the full RGBA image to display.
    ///
    /// # Errors
    ///
    /// Returns [`TurboError`] on malformed input, dimension changes, or a
    /// delta frame arriving before any keyframe.
    pub fn decode(&mut self, data: &[u8]) -> Result<Vec<u8>, TurboError> {
        gbooster_telemetry::prof_scope!(names::host::TURBO_DECODE);
        if data.len() < 7 {
            return Err(TurboError::Truncated);
        }
        let width = u16::from_le_bytes([data[0], data[1]]) as u32;
        let height = u16::from_le_bytes([data[2], data[3]]) as u32;
        if width != self.width || height != self.height {
            return Err(TurboError::DimensionMismatch);
        }
        let is_key = data[4] == 0;
        let count = u16::from_le_bytes([data[5], data[6]]) as usize;
        let mut frame = match (&self.frame, is_key) {
            (_, true) => vec![0u8; (width * height * 4) as usize],
            (Some(prev), false) => prev.clone(),
            (None, false) => return Err(TurboError::NoKeyframe),
        };
        let mut i = 7usize;
        for _ in 0..count {
            if i + 8 > data.len() {
                return Err(TurboError::Truncated);
            }
            let tx = u16::from_le_bytes([data[i], data[i + 1]]) as u32;
            let ty = u16::from_le_bytes([data[i + 2], data[i + 3]]) as u32;
            let len =
                u32::from_le_bytes([data[i + 4], data[i + 5], data[i + 6], data[i + 7]]) as usize;
            i += 8;
            let body = data.get(i..i + len).ok_or(TurboError::Truncated)?;
            i += len;
            if tx >= width.div_ceil(TILE) || ty >= height.div_ceil(TILE) {
                return Err(TurboError::BadTile);
            }
            let (tw, th, tile) = jpeg::decompress(body).map_err(|_| TurboError::BadTile)?;
            let rect = tile_rect(width, height, tx, ty);
            if (tw, th) != (rect.2, rect.3) {
                return Err(TurboError::BadTile);
            }
            write_tile(&mut frame, width, rect, &tile);
        }
        self.frame = Some(frame.clone());
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::psnr;

    fn moving_box_frame(width: u32, height: u32, offset: u32) -> Vec<u8> {
        let mut rgba = vec![30u8; (width * height * 4) as usize];
        for px in rgba.chunks_exact_mut(4) {
            px[3] = 255;
        }
        for y in offset..(offset + 8).min(height) {
            for x in offset..(offset + 8).min(width) {
                let i = ((y * width + x) * 4) as usize;
                rgba[i] = 250;
                rgba[i + 1] = 40;
                rgba[i + 2] = 40;
            }
        }
        rgba
    }

    #[test]
    fn keyframe_then_static_sends_nothing() {
        let mut enc = TurboEncoder::new(64, 64, 85);
        let frame = moving_box_frame(64, 64, 0);
        let (_, s1) = enc.encode(&frame);
        assert_eq!(s1.tiles_sent, 16);
        let (_, s2) = enc.encode(&frame);
        assert_eq!(s2.tiles_sent, 0, "static content must send no tiles");
        assert!(s2.encoded_bytes < 10);
    }

    #[test]
    fn moving_object_touches_few_tiles() {
        let mut enc = TurboEncoder::new(64, 64, 85);
        enc.encode(&moving_box_frame(64, 64, 0));
        let (_, stats) = enc.encode(&moving_box_frame(64, 64, 20));
        assert!(
            stats.tiles_sent >= 2 && stats.tiles_sent <= 8,
            "only tiles covering old+new box positions: {}",
            stats.tiles_sent
        );
    }

    #[test]
    fn decoder_reconstructs_faithfully_over_many_frames() {
        let mut enc = TurboEncoder::new(48, 48, 90);
        let mut dec = TurboDecoder::new(48, 48);
        for step in 0..20u32 {
            let frame = moving_box_frame(48, 48, step * 2);
            let (bytes, _) = enc.encode(&frame);
            let shown = dec.decode(&bytes).unwrap();
            let p = psnr(&frame, &shown);
            assert!(p > 28.0, "frame {step}: psnr {p}");
        }
    }

    #[test]
    fn no_drift_on_long_static_runs() {
        let mut enc = TurboEncoder::new(32, 32, 75);
        let mut dec = TurboDecoder::new(32, 32);
        let frame = moving_box_frame(32, 32, 5);
        let (k, _) = enc.encode(&frame);
        let first = dec.decode(&k).unwrap();
        let mut total_bytes = 0usize;
        for _ in 0..100 {
            let (b, stats) = enc.encode(&frame);
            total_bytes += stats.encoded_bytes;
            let shown = dec.decode(&b).unwrap();
            assert_eq!(shown, first, "decoder state drifted");
        }
        assert!(total_bytes < 100 * 10, "static frames must stay tiny");
    }

    #[test]
    fn delta_before_keyframe_is_rejected() {
        let mut enc = TurboEncoder::new(32, 32, 80);
        let mut dec = TurboDecoder::new(32, 32);
        let f0 = moving_box_frame(32, 32, 0);
        enc.encode(&f0); // keyframe consumed, never delivered
        let (delta, _) = enc.encode(&moving_box_frame(32, 32, 9));
        assert_eq!(dec.decode(&delta), Err(TurboError::NoKeyframe));
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut enc = TurboEncoder::new(32, 32, 80);
        let mut dec = TurboDecoder::new(64, 64);
        let (bytes, _) = enc.encode(&moving_box_frame(32, 32, 0));
        assert_eq!(dec.decode(&bytes), Err(TurboError::DimensionMismatch));
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut enc = TurboEncoder::new(32, 32, 80);
        let (bytes, _) = enc.encode(&moving_box_frame(32, 32, 0));
        assert!(TurboDecoder::new(32, 32).decode(&bytes[..5]).is_err());
        assert!(TurboDecoder::new(32, 32)
            .decode(&bytes[..bytes.len() - 3])
            .is_err());
    }

    #[test]
    fn attribution_splits_keyframes_from_deltas() {
        let log = AttributionLog::new();
        let mut enc = TurboEncoder::new(64, 64, 85);
        enc.attach_attribution(log.clone());
        let (key, key_stats) = enc.encode(&moving_box_frame(64, 64, 0));
        let (delta, delta_stats) = enc.encode(&moving_box_frame(64, 64, 10));
        let snap = log.snapshot();
        let keyframe = snap.downlink[names::attr::KIND_KEYFRAME];
        let tile_delta = snap.downlink[names::attr::KIND_TILE_DELTA];
        assert_eq!(keyframe.frames, 1);
        assert_eq!(keyframe.bytes, key.len() as u64);
        assert_eq!(tile_delta.frames, 1);
        assert_eq!(tile_delta.bytes, delta.len() as u64);
        assert_eq!(
            snap.downlink_total(),
            (key_stats.encoded_bytes + delta_stats.encoded_bytes) as u64
        );
    }

    #[test]
    fn registry_counters_accumulate_across_frames() {
        let registry = Registry::new();
        let mut enc = TurboEncoder::new(64, 64, 85);
        enc.attach_registry(&registry);
        enc.encode(&moving_box_frame(64, 64, 0));
        enc.encode(&moving_box_frame(64, 64, 10));
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::service::TURBO_TILES_TOTAL), 32);
        let sent = snap.counter(names::service::TURBO_TILES_SENT);
        assert!(sent >= 16, "keyframe alone sends 16 tiles, got {sent}");
        let frac = snap.turbo_changed_tile_fraction();
        assert!(frac > 0.0 && frac <= 1.0, "fraction {frac}");
        assert!(snap.counter(names::service::TURBO_RAW_BYTES) == 2 * 64 * 64 * 4);
    }

    #[test]
    fn mostly_static_scene_hits_high_compression() {
        // The paper cites ratios up to 25:1 (0.04). A mostly-static scene
        // with a small moving box should beat that easily after keyframe.
        let mut enc = TurboEncoder::new(96, 96, 80);
        enc.encode(&moving_box_frame(96, 96, 0));
        let mut total_raw = 0usize;
        let mut total_enc = 0usize;
        for step in 1..30u32 {
            let (_, stats) = enc.encode(&moving_box_frame(96, 96, step));
            total_raw += stats.raw_bytes;
            total_enc += stats.encoded_bytes;
        }
        let ratio = total_enc as f64 / total_raw as f64;
        assert!(ratio < 0.04, "delta ratio {ratio}");
    }

    #[test]
    fn non_tile_aligned_dimensions_round_trip() {
        let mut enc = TurboEncoder::new(50, 34, 85);
        let mut dec = TurboDecoder::new(50, 34);
        let frame = moving_box_frame(50, 34, 3);
        let (bytes, stats) = enc.encode(&frame);
        assert_eq!(stats.tiles_total, 4 * 3);
        let shown = dec.decode(&bytes).unwrap();
        assert!(psnr(&frame, &shown) > 26.0);
    }
}

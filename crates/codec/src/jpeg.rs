//! A JPEG-style lossy image coder: 8×8 DCT, quantization, zigzag + RLE.
//!
//! This is the lossy stage of the Turbo encoder (Section V-A, ref \[25\]):
//! the paper offloads frame compression to "the JPEG image compression
//! algorithm". We implement the classic pipeline from scratch on RGBA
//! input (alpha is assumed opaque, as GL default framebuffers are):
//!
//! 1. split each channel into 8×8 blocks (edge blocks padded by
//!    replication);
//! 2. forward DCT-II per block;
//! 3. quantize with the standard JPEG luminance table scaled by a
//!    quality factor;
//! 4. zigzag scan + zero run-length coding with varint coefficients.
//!
//! Decoding inverts each step. The coder is deliberately simple (no
//! chroma subsampling or Huffman stage) but produces genuine lossy-DCT
//! behaviour: smooth content compresses dramatically, hard edges ring.

/// Errors from [`decompress`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JpegError {
    /// Input ended unexpectedly.
    Truncated,
    /// Header fields are inconsistent.
    BadHeader,
}

impl std::fmt::Display for JpegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JpegError::Truncated => write!(f, "jpeg data truncated"),
            JpegError::BadHeader => write!(f, "jpeg header invalid"),
        }
    }
}

impl std::error::Error for JpegError {}

/// Standard JPEG luminance quantization table (Annex K).
const QUANT_BASE: [i32; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// Zigzag scan order for an 8×8 block.
const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

fn quant_table(quality: u8) -> [i32; 64] {
    // libjpeg-style quality scaling.
    let q = quality.clamp(1, 100) as i32;
    let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
    let mut t = [0i32; 64];
    for (dst, &base) in t.iter_mut().zip(QUANT_BASE.iter()) {
        *dst = ((base * scale + 50) / 100).clamp(1, 255);
    }
    t
}

fn fdct(block: &mut [f32; 64]) {
    let mut tmp = [0f32; 64];
    for u in 0..8 {
        for v in 0..8 {
            let cu = if u == 0 { 1.0 / (2f32).sqrt() } else { 1.0 };
            let cv = if v == 0 { 1.0 / (2f32).sqrt() } else { 1.0 };
            let mut sum = 0f32;
            for x in 0..8 {
                for y in 0..8 {
                    sum += block[x * 8 + y]
                        * (((2 * x + 1) as f32 * u as f32 * std::f32::consts::PI) / 16.0).cos()
                        * (((2 * y + 1) as f32 * v as f32 * std::f32::consts::PI) / 16.0).cos();
                }
            }
            tmp[u * 8 + v] = 0.25 * cu * cv * sum;
        }
    }
    *block = tmp;
}

fn idct(block: &mut [f32; 64]) {
    let mut tmp = [0f32; 64];
    for x in 0..8 {
        for y in 0..8 {
            let mut sum = 0f32;
            for u in 0..8 {
                for v in 0..8 {
                    let cu = if u == 0 { 1.0 / (2f32).sqrt() } else { 1.0 };
                    let cv = if v == 0 { 1.0 / (2f32).sqrt() } else { 1.0 };
                    sum += cu
                        * cv
                        * block[u * 8 + v]
                        * (((2 * x + 1) as f32 * u as f32 * std::f32::consts::PI) / 16.0).cos()
                        * (((2 * y + 1) as f32 * v as f32 * std::f32::consts::PI) / 16.0).cos();
                }
            }
            tmp[x * 8 + y] = 0.25 * sum;
        }
    }
    *block = tmp;
}

fn zigzag_encode_i32(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}
fn zigzag_decode_u32(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}
fn put_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}
fn get_varint(data: &[u8], i: &mut usize) -> Result<u32, JpegError> {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let b = *data.get(*i).ok_or(JpegError::Truncated)?;
        *i += 1;
        v |= ((b & 0x7f) as u32) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 32 {
            return Err(JpegError::Truncated);
        }
    }
}

/// End-of-block sentinel in the run stream.
const EOB: u8 = 0xff;

/// Compresses an RGBA image at the given `quality` (1–100).
///
/// # Panics
///
/// Panics if `rgba.len() != width * height * 4` or a dimension is zero.
pub fn compress(width: u32, height: u32, rgba: &[u8], quality: u8) -> Vec<u8> {
    gbooster_telemetry::prof_scope!(gbooster_telemetry::names::host::JPEG);
    assert!(width > 0 && height > 0, "image must be non-empty");
    assert_eq!(
        rgba.len(),
        (width * height * 4) as usize,
        "rgba length mismatch"
    );
    let quality = quality.clamp(1, 100);
    let table = quant_table(quality);
    let mut out = Vec::new();
    out.extend_from_slice(&(width as u16).to_le_bytes());
    out.extend_from_slice(&(height as u16).to_le_bytes());
    out.push(quality);

    let bw = width.div_ceil(8);
    let bh = height.div_ceil(8);
    for channel in 0..3usize {
        for by in 0..bh {
            for bx in 0..bw {
                let mut block = [0f32; 64];
                for y in 0..8u32 {
                    for x in 0..8u32 {
                        // Replicate edge pixels for padding.
                        let px = (bx * 8 + x).min(width - 1);
                        let py = (by * 8 + y).min(height - 1);
                        let idx = ((py * width + px) * 4) as usize + channel;
                        block[(y * 8 + x) as usize] = rgba[idx] as f32 - 128.0;
                    }
                }
                fdct(&mut block);
                // Quantize + zigzag + RLE.
                let mut run = 0u8;
                let mut body = Vec::new();
                let mut last_nonzero = false;
                for &zz in ZIGZAG.iter() {
                    let q = (block[zz] / table[zz] as f32).round() as i32;
                    if q == 0 {
                        run += 1;
                        if run == EOB - 1 {
                            // Avoid colliding with the sentinel.
                            body.push(run);
                            put_varint(&mut body, zigzag_encode_i32(0));
                            run = 0;
                        }
                        last_nonzero = false;
                    } else {
                        body.push(run);
                        put_varint(&mut body, zigzag_encode_i32(q));
                        run = 0;
                        last_nonzero = true;
                    }
                }
                let _ = last_nonzero;
                body.push(EOB);
                out.extend_from_slice(&body);
            }
        }
    }
    out
}

/// Decompresses an image produced by [`compress`]; returns
/// `(width, height, rgba)`.
///
/// # Errors
///
/// Returns [`JpegError`] on truncated or malformed input.
pub fn decompress(data: &[u8]) -> Result<(u32, u32, Vec<u8>), JpegError> {
    gbooster_telemetry::prof_scope!(gbooster_telemetry::names::host::JPEG_DECODE);
    if data.len() < 5 {
        return Err(JpegError::Truncated);
    }
    let width = u16::from_le_bytes([data[0], data[1]]) as u32;
    let height = u16::from_le_bytes([data[2], data[3]]) as u32;
    let quality = data[4];
    if width == 0 || height == 0 || quality == 0 || quality > 100 {
        return Err(JpegError::BadHeader);
    }
    let bw = width.div_ceil(8);
    let bh = height.div_ceil(8);
    // Every block of every channel ends in an EOB byte: refuse a header
    // whose blocks cannot fit the payload before allocating the image.
    if 3 * bw as usize * bh as usize > data.len() - 5 {
        return Err(JpegError::Truncated);
    }
    let table = quant_table(quality);
    let mut rgba = vec![255u8; width as usize * height as usize * 4];
    let mut i = 5usize;
    for channel in 0..3usize {
        for by in 0..bh {
            for bx in 0..bw {
                // Decode one block's coefficients.
                let mut coeffs = [0i32; 64];
                let mut pos = 0usize;
                loop {
                    let run = *data.get(i).ok_or(JpegError::Truncated)?;
                    i += 1;
                    if run == EOB {
                        break;
                    }
                    pos += run as usize;
                    let v = zigzag_decode_u32(get_varint(data, &mut i)?);
                    if pos >= 64 {
                        return Err(JpegError::BadHeader);
                    }
                    coeffs[pos] = v;
                    pos += 1;
                }
                let mut block = [0f32; 64];
                for (k, &zz) in ZIGZAG.iter().enumerate() {
                    // Saturating: a garbage varint must not overflow; no
                    // coefficient the encoder writes comes near it.
                    block[zz] = coeffs[k].saturating_mul(table[zz]) as f32;
                }
                idct(&mut block);
                for y in 0..8u32 {
                    for x in 0..8u32 {
                        let px = bx * 8 + x;
                        let py = by * 8 + y;
                        if px >= width || py >= height {
                            continue;
                        }
                        let idx = (py as usize * width as usize + px as usize) * 4 + channel;
                        rgba[idx] = (block[(y * 8 + x) as usize] + 128.0).clamp(0.0, 255.0) as u8;
                    }
                }
            }
        }
    }
    Ok((width, height, rgba))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::psnr;

    fn gradient(width: u32, height: u32) -> Vec<u8> {
        let mut rgba = Vec::with_capacity((width * height * 4) as usize);
        for y in 0..height {
            for x in 0..width {
                rgba.push((x * 255 / width.max(1)) as u8);
                rgba.push((y * 255 / height.max(1)) as u8);
                rgba.push(128);
                rgba.push(255);
            }
        }
        rgba
    }

    #[test]
    fn flat_image_compresses_massively_and_exactly() {
        let rgba = vec![100u8; 64 * 64 * 4]
            .iter()
            .enumerate()
            .map(|(i, _)| if i % 4 == 3 { 255 } else { 100 })
            .collect::<Vec<u8>>();
        let data = compress(64, 64, &rgba, 90);
        assert!(
            data.len() < rgba.len() / 20,
            "flat tile: {} -> {}",
            rgba.len(),
            data.len()
        );
        let (w, h, back) = decompress(&data).unwrap();
        assert_eq!((w, h), (64, 64));
        let p = psnr(&rgba, &back);
        assert!(p > 40.0, "psnr {p}");
    }

    #[test]
    fn gradient_survives_at_high_quality() {
        let rgba = gradient(48, 32);
        let data = compress(48, 32, &rgba, 95);
        let (_, _, back) = decompress(&data).unwrap();
        let p = psnr(&rgba, &back);
        assert!(p > 30.0, "psnr {p}");
        assert!(data.len() < rgba.len());
    }

    #[test]
    fn lower_quality_is_smaller() {
        let rgba = gradient(64, 64);
        let hi = compress(64, 64, &rgba, 95);
        let lo = compress(64, 64, &rgba, 20);
        assert!(lo.len() < hi.len());
    }

    #[test]
    fn non_multiple_of_eight_dimensions() {
        let rgba = gradient(13, 9);
        let data = compress(13, 9, &rgba, 85);
        let (w, h, back) = decompress(&data).unwrap();
        assert_eq!((w, h), (13, 9));
        assert_eq!(back.len(), rgba.len());
        assert!(psnr(&rgba, &back) > 25.0);
    }

    #[test]
    fn one_pixel_image() {
        let rgba = vec![7, 77, 177, 255];
        let data = compress(1, 1, &rgba, 90);
        let (w, h, back) = decompress(&data).unwrap();
        assert_eq!((w, h), (1, 1));
        for c in 0..3 {
            assert!((back[c] as i32 - rgba[c] as i32).abs() < 12);
        }
    }

    #[test]
    fn truncated_data_is_an_error() {
        let rgba = gradient(16, 16);
        let data = compress(16, 16, &rgba, 80);
        assert_eq!(decompress(&data[..4]), Err(JpegError::Truncated));
        assert!(decompress(&data[..data.len() / 2]).is_err());
    }

    #[test]
    fn bad_header_is_rejected() {
        assert_eq!(
            decompress(&[0, 0, 0, 0, 50, EOB]),
            Err(JpegError::BadHeader)
        );
    }

    #[test]
    #[should_panic(expected = "rgba length mismatch")]
    fn wrong_buffer_length_panics() {
        let _ = compress(8, 8, &[0u8; 10], 80);
    }

    #[test]
    fn alpha_is_preserved_opaque() {
        let rgba = gradient(16, 16);
        let data = compress(16, 16, &rgba, 50);
        let (_, _, back) = decompress(&data).unwrap();
        assert!(back.iter().skip(3).step_by(4).all(|&a| a == 255));
    }
}

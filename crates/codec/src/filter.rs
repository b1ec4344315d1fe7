//! Byte-delta prefilters that make structured binary data (vertex
//! arrays, interleaved floats, index buffers) more compressible before
//! LZ4 — a standard trick in graphics streaming stacks (ablation
//! extension; the paper applies LZ4 directly).
//!
//! The filters are exact inverses of each other: `delta` then `undelta`
//! is the identity for any stride.

/// Applies an in-place forward byte delta with the given `stride`:
/// `out[i] = in[i] − in[i − stride]` (wrapping). Stride 1 is a plain
/// byte delta; stride 4 aligns with `f32`/`u32` lanes.
///
/// # Panics
///
/// Panics if `stride` is zero.
pub fn delta(data: &mut [u8], stride: usize) {
    assert!(stride > 0, "stride must be nonzero");
    if data.len() <= stride {
        return;
    }
    // Process back-to-front so earlier bytes retain their original value
    // until they are used as the predictor.
    for i in (stride..data.len()).rev() {
        data[i] = data[i].wrapping_sub(data[i - stride]);
    }
}

/// Inverts [`delta`].
///
/// # Panics
///
/// Panics if `stride` is zero.
pub fn undelta(data: &mut [u8], stride: usize) {
    assert!(stride > 0, "stride must be nonzero");
    if data.len() <= stride {
        return;
    }
    for i in stride..data.len() {
        data[i] = data[i].wrapping_add(data[i - stride]);
    }
}

/// Compresses with a stride-`stride` delta prefilter + LZ4; LZ4
/// decompression then [`undelta`] inverts it.
pub fn compress_filtered(data: &[u8], stride: usize) -> Vec<u8> {
    let mut filtered = data.to_vec();
    delta(&mut filtered, stride);
    crate::lz4::compress(&filtered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_f32(n: usize) -> Vec<u8> {
        (0..n)
            .flat_map(|i| ((i as f32) * 0.125).to_le_bytes())
            .collect()
    }

    #[test]
    fn delta_roundtrips_any_stride() {
        let original: Vec<u8> = (0..999u32).map(|i| (i * 7 % 251) as u8).collect();
        for stride in [1usize, 2, 3, 4, 8, 16, 1000] {
            let mut data = original.clone();
            delta(&mut data, stride);
            undelta(&mut data, stride);
            assert_eq!(data, original, "stride {stride}");
        }
    }

    #[test]
    fn filtered_compression_roundtrips() {
        let data = ramp_f32(500);
        for stride in [1usize, 4] {
            let compressed = compress_filtered(&data, stride);
            let mut back = crate::lz4::decompress(&compressed, data.len()).unwrap();
            undelta(&mut back, stride);
            assert_eq!(back, data);
        }
    }

    #[test]
    fn stride4_beats_plain_lz4_on_float_ramps() {
        // Slowly-varying f32 sequences are near-incompressible raw but
        // collapse after a lane-aligned delta.
        let data = ramp_f32(2000);
        let plain = crate::lz4::compress(&data).len();
        let filtered = compress_filtered(&data, 4).len();
        assert!(filtered * 2 < plain, "filtered {filtered} vs plain {plain}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let mut empty: Vec<u8> = Vec::new();
        delta(&mut empty, 4);
        undelta(&mut empty, 4);
        let mut tiny = vec![1u8, 2];
        delta(&mut tiny, 4);
        assert_eq!(tiny, vec![1, 2], "shorter than stride: unchanged");
    }

    #[test]
    fn delta_of_constant_run_is_zeros() {
        let mut data = vec![42u8; 64];
        delta(&mut data, 1);
        assert_eq!(data[0], 42);
        assert!(data[1..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_panics() {
        delta(&mut [1, 2, 3], 0);
    }
}

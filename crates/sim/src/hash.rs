//! 64-bit FNV-1a: the one content hash behind the LRU cache keys, GL
//! state digests, derived RNG seeds and backoff jitter.

/// The FNV-1a offset basis: the digest of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends the FNV-1a digest `h` over `bytes`. Start from
/// [`FNV1A_OFFSET`]; feeding bytes in pieces gives the digest of their
/// concatenation.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(FNV1A_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }
}

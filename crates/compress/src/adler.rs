//! Adler-32 checksum (RFC 1950), the integrity check zlib streams carry.

const MOD: u32 = 65_521;
/// Largest n such that 255·n·(n+1)/2 + (n+1)·(MOD−1) stays below 2³² — the
/// standard deferred-modulo block size from the zlib reference code.
const NMAX: usize = 5552;

/// Compute the Adler-32 checksum of `data`.
pub fn adler32(data: &[u8]) -> u32 {
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for chunk in data.chunks(NMAX) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// The Adler-32 of `a ‖ b` from `adler32(a)`, `adler32(b)` and `b.len()`:
/// `b`'s sum of sums gains `a`'s sum, less its 1, once a byte of `b`.
pub(crate) fn adler32_combine(sum_a: u32, sum_b: u32, len_b: usize) -> u32 {
    let (m, rem) = (MOD as u64, (len_b % MOD as usize) as u64);
    let (a1, a2) = ((sum_a & 0xFFFF) as u64, (sum_b & 0xFFFF) as u64);
    let b = ((sum_a >> 16) as u64 + (sum_b >> 16) as u64 + rem * a1 + m - rem) % m;
    ((b << 16) | ((a1 + a2 + m - 1) % m)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 1950 reference values.
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"a"), 0x0062_0062);
        assert_eq!(adler32(b"abc"), 0x024d_0127);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn deferred_modulo_matches_naive() {
        // Exercise the NMAX chunking path against a bytewise-mod reference.
        let data: Vec<u8> = (0..20_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut a: u32 = 1;
        let mut b: u32 = 0;
        for &byte in &data {
            a = (a + byte as u32) % MOD;
            b = (b + a) % MOD;
        }
        assert_eq!(adler32(&data), (b << 16) | a);
    }

    #[test]
    fn sensitive_to_any_byte_flip() {
        let mut data = vec![7u8; 1000];
        let base = adler32(&data);
        data[500] ^= 1;
        assert_ne!(adler32(&data), base);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn checksums_of_two_pieces_combine(
            a in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3000),
            b in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3000),
            // Past 65 521 bytes the second piece's length wraps the modulus.
            repeats in proptest::sample::select(vec![1usize, 30, 80]),
        ) {
            let b = b.repeat(repeats);
            let whole = [&a[..], &b[..]].concat();
            proptest::prop_assert_eq!(adler32_combine(adler32(&a), adler32(&b), b.len()), adler32(&whole));
        }
    }
}

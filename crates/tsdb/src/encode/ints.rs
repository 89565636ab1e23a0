//! Integer column codec: zig-zag varint of successive deltas.
//!
//! Integer fields in MonSTer are epoch times (monotone, small deltas) and
//! binary state codes (mostly constant) — both delta-encode to a byte or
//! less per value.

use monster_util::Result;

use super::timestamps::{unzigzag, zigzag};
use super::{push_varint, read_varint};

/// Encode an integer column.
pub fn encode(vals: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() + 8);
    let mut prev = 0i64;
    for &v in vals {
        push_varint(&mut out, zigzag(v.wrapping_sub(prev)));
        prev = v;
    }
    out
}

/// Decode `count` integers into a fresh vector.
pub fn decode(data: &[u8], count: usize) -> Result<Vec<i64>> {
    let mut out = Vec::with_capacity(count);
    decode_into(data, count, &mut out)?;
    Ok(out)
}

/// Decode `count` integers into `out`, clearing it first (the array fast
/// path; scans reuse the buffer so warm decodes never allocate).
pub fn decode_into(data: &[u8], count: usize, out: &mut Vec<i64>) -> Result<()> {
    out.clear();
    out.reserve(count);
    let mut pos = 0usize;
    let mut prev = 0i64;
    for _ in 0..count {
        prev = prev.wrapping_add(unzigzag(read_varint(data, &mut pos)?));
        out.push(prev);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Point-at-a-time streaming decoder — the reference implementation the
    /// array path is proptested against.
    struct Iter<'a> {
        data: &'a [u8],
        pos: usize,
        remaining: usize,
        prev: i64,
    }

    /// Stream `count` integers out of an encoded block one at a time.
    fn iter(data: &[u8], count: usize) -> Iter<'_> {
        Iter { data, pos: 0, remaining: count, prev: 0 }
    }

    impl Iterator for Iter<'_> {
        type Item = Result<i64>;

        fn next(&mut self) -> Option<Result<i64>> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            Some(read_varint(self.data, &mut self.pos).map(|z| {
                self.prev = self.prev.wrapping_add(unzigzag(z));
                self.prev
            }))
        }
    }

    fn rt(vals: &[i64]) {
        let enc = encode(vals);
        assert_eq!(decode(&enc, vals.len()).unwrap(), vals);
        let streamed: Vec<i64> = iter(&enc, vals.len()).map(|r| r.unwrap()).collect();
        assert_eq!(streamed, vals);
        let mut buf = vec![7i64; 5];
        decode_into(&enc, vals.len(), &mut buf).unwrap();
        assert_eq!(buf, vals);
    }

    #[test]
    fn round_trips() {
        rt(&[]);
        rt(&[0]);
        rt(&[i64::MAX, i64::MIN, 0, -1, 1]);
        rt(&(0..1000).map(|i| 1_583_792_296 + i * 60).collect::<Vec<_>>());
    }

    #[test]
    fn state_codes_pack_to_one_byte_each() {
        // Health codes: long runs of 0 with occasional 1/2.
        let vals: Vec<i64> = (0..1000).map(|i| if i % 97 == 0 { 2 } else { 0 }).collect();
        let enc = encode(&vals);
        assert!(enc.len() <= 1000);
        rt(&vals);
    }

    #[test]
    fn monotone_epochs_pack_small() {
        let vals: Vec<i64> = (0..1440).map(|i| 1_583_792_296 + i * 60).collect();
        let enc = encode(&vals);
        // First value ~5 bytes, rest 1-2 bytes.
        assert!(enc.len() < 1440 * 2 + 8, "got {}", enc.len());
    }

    #[test]
    fn truncation_detected() {
        let enc = encode(&[1, 2, 3]);
        assert!(decode(&enc[..1], 3).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whole-block array decoding (`decode_into`, reused dirty buffer)
        /// is identical to the point-at-a-time streaming reference.
        #[test]
        fn batch_decode_matches_streaming(vals in prop::collection::vec(any::<i64>(), 0..300)) {
            let enc = encode(&vals);
            let mut arr = vec![i64::MAX; 7];
            decode_into(&enc, vals.len(), &mut arr).unwrap();
            let streamed: Vec<i64> = iter(&enc, vals.len()).collect::<Result<_>>().unwrap();
            prop_assert_eq!(&arr, &streamed);
            prop_assert_eq!(arr, vals);
        }

        /// Truncated blocks fail identically (both error, or both succeed
        /// with the same values) on the array and streaming paths.
        #[test]
        fn corrupt_blocks_agree_between_paths(
            vals in prop::collection::vec(any::<i64>(), 1..50),
            cut in 0usize..64,
        ) {
            let enc = encode(&vals);
            let data = &enc[..cut.min(enc.len())];
            let mut arr = Vec::new();
            let array = decode_into(data, vals.len(), &mut arr);
            let streamed: Result<Vec<i64>> = iter(data, vals.len()).collect();
            match (array, streamed) {
                (Ok(()), Ok(s)) => prop_assert_eq!(arr, s),
                (Err(_), Err(_)) => {}
                (a, s) => prop_assert!(false, "array={:?} streamed-ok={:?}", a.is_ok(), s.is_ok()),
            }
        }
    }
}

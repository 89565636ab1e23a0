//! Boolean column codec: one bit per value.

use monster_util::{Error, Result};

/// Encode a boolean column.
pub fn encode(vals: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; vals.len().div_ceil(8)];
    for (i, &v) in vals.iter().enumerate() {
        if v {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Decode `count` booleans into a fresh vector.
pub fn decode(data: &[u8], count: usize) -> Result<Vec<bool>> {
    let mut out = Vec::with_capacity(count);
    decode_into(data, count, &mut out)?;
    Ok(out)
}

/// Decode `count` booleans into `out`, clearing it first (the array fast
/// path; scans reuse the buffer so warm decodes never allocate).
pub fn decode_into(data: &[u8], count: usize, out: &mut Vec<bool>) -> Result<()> {
    if data.len() < count.div_ceil(8) {
        return Err(Error::Corrupt("bool column truncated".into()));
    }
    out.clear();
    out.reserve(count);
    out.extend((0..count).map(|i| data[i / 8] & (1 << (i % 8)) != 0));
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
        i: usize,
        count: usize,
    }

    /// Stream `count` booleans out of an encoded block one at a time.
    fn iter(data: &[u8], count: usize) -> Iter<'_> {
        Iter { data, i: 0, count }
    }

    impl Iterator for Iter<'_> {
        type Item = Result<bool>;

        fn next(&mut self) -> Option<Result<bool>> {
            if self.i >= self.count {
                return None;
            }
            let i = self.i;
            self.i += 1;
            Some(match self.data.get(i / 8) {
                Some(byte) => Ok(byte & (1 << (i % 8)) != 0),
                None => Err(Error::Corrupt("bool column truncated".into())),
            })
        }
    }

    #[test]
    fn round_trips() {
        for n in [0usize, 1, 7, 8, 9, 100] {
            let vals: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let enc = encode(&vals);
            assert_eq!(decode(&enc, n).unwrap(), vals);
            let streamed: Vec<bool> = iter(&enc, n).map(|r| r.unwrap()).collect();
            assert_eq!(streamed, vals);
            let mut buf = vec![true; 3];
            decode_into(&enc, n, &mut buf).unwrap();
            assert_eq!(buf, vals);
        }
    }

    #[test]
    fn density_is_one_bit() {
        assert_eq!(encode(&[true; 64]).len(), 8);
        assert_eq!(encode(&[false; 65]).len(), 9);
    }

    #[test]
    fn truncation_detected() {
        assert!(decode(&[0xFF], 9).is_err());
        assert!(decode(&[], 1).is_err());
        assert!(decode(&[], 0).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whole-block array decoding (`decode_into`, reused dirty buffer)
        /// is identical to the point-at-a-time streaming reference.
        #[test]
        fn batch_decode_matches_streaming(vals in prop::collection::vec(any::<bool>(), 0..300)) {
            let enc = encode(&vals);
            let mut arr = vec![true; 7];
            decode_into(&enc, vals.len(), &mut arr).unwrap();
            let streamed: Vec<bool> = iter(&enc, vals.len()).collect::<Result<_>>().unwrap();
            prop_assert_eq!(&arr, &streamed);
            prop_assert_eq!(arr, vals);
        }
    }
}

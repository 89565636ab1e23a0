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

/// Point-at-a-time streaming decoder — the reference implementation the
/// array path is proptested against.
pub struct Iter<'a> {
    data: &'a [u8],
    pos: usize,
    remaining: usize,
    prev: i64,
}

/// Stream `count` integers out of an encoded block one at a time.
pub fn iter(data: &[u8], count: usize) -> Iter<'_> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}

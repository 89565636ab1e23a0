//! Gorilla delta-of-delta timestamp compression.
//!
//! Collection timestamps are nearly periodic (the 60 s interval of
//! §III-B4), so the delta of consecutive deltas is almost always zero and
//! encodes to a single bit. Encoding per value:
//!
//! ```text
//! dod == 0            → '0'
//! dod in [-63, 64]    → '10'   + 7 bits
//! dod in [-255, 256]  → '110'  + 9 bits
//! dod in [-2047,2048] → '1110' + 12 bits
//! otherwise           → '1111' + 64 bits
//! ```

use monster_compress::bitio::{BitReader, BitWriter};
use monster_util::Result;

const MASK57: u64 = (1u64 << 57) - 1;
const MASK40: u64 = (1u64 << 40) - 1;

/// Encode a timestamp column (epoch seconds).
pub fn encode(ts: &[i64]) -> Vec<u8> {
    let mut w = BitWriter::new();
    if ts.is_empty() {
        return w.finish();
    }
    w.write(ts[0] as u64 & MASK57, 57);
    if ts.len() == 1 {
        return w.finish();
    }
    let first_delta = ts[1] - ts[0];
    w.write(zigzag(first_delta) & MASK40, 40);
    let mut prev = ts[1];
    let mut prev_delta = first_delta;
    for &t in &ts[2..] {
        let delta = t - prev;
        let dod = delta - prev_delta;
        if dod == 0 {
            w.write(0, 1);
        } else if (-63..=64).contains(&dod) {
            w.write(0b01, 2); // LSB-first: reads as '10'
            w.write((dod + 63) as u64, 7);
        } else if (-255..=256).contains(&dod) {
            w.write(0b011, 3);
            w.write((dod + 255) as u64, 9);
        } else if (-2047..=2048).contains(&dod) {
            w.write(0b0111, 4);
            w.write((dod + 2047) as u64, 12);
        } else {
            w.write(0b1111, 4);
            w.write(zigzag(dod) & MASK57, 57);
        }
        prev = t;
        prev_delta = delta;
    }
    w.finish()
}

/// Decode `count` timestamps into a fresh vector.
pub fn decode(data: &[u8], count: usize) -> Result<Vec<i64>> {
    let mut out = Vec::with_capacity(count);
    decode_into(data, count, &mut out)?;
    Ok(out)
}

/// Decode `count` timestamps into `out`, clearing it first. The whole
/// block is materialized in one pass over the bit stream — this is the
/// array fast path scans reuse a scratch buffer with, so steady-state
/// block decodes never allocate once the buffer has grown to block size.
pub fn decode_into(data: &[u8], count: usize, out: &mut Vec<i64>) -> Result<()> {
    out.clear();
    out.reserve(count);
    if count == 0 {
        return Ok(());
    }
    let mut r = BitReader::new(data);
    let first = sign_extend(r.read(57)?, 57);
    out.push(first);
    if count == 1 {
        return Ok(());
    }
    let first_delta = unzigzag(r.read(40)?);
    let mut prev = first + first_delta;
    out.push(prev);
    let mut prev_delta = first_delta;
    while out.len() < count {
        let dod = read_dod(&mut r)?;
        let delta = prev_delta + dod;
        prev += delta;
        out.push(prev);
        prev_delta = delta;
    }
    Ok(())
}

fn read_dod(r: &mut BitReader<'_>) -> Result<i64> {
    Ok(if r.read_bit()? == 0 {
        0
    } else if r.read_bit()? == 0 {
        r.read(7)? as i64 - 63
    } else if r.read_bit()? == 0 {
        r.read(9)? as i64 - 255
    } else if r.read_bit()? == 0 {
        r.read(12)? as i64 - 2047
    } else {
        unzigzag(r.read(57)?)
    })
}

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn sign_extend(v: u64, bits: u32) -> i64 {
    let shift = 64 - bits;
    ((v << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Point-at-a-time streaming decoder: yields one timestamp per `next`
    /// call without materializing the block. The reference implementation the
    /// batch path is proptested against.
    struct Iter<'a> {
        r: BitReader<'a>,
        remaining: usize,
        emitted: usize,
        prev: i64,
        prev_delta: i64,
    }

    /// Stream `count` timestamps out of an encoded block one at a time.
    fn iter(data: &[u8], count: usize) -> Iter<'_> {
        Iter { r: BitReader::new(data), remaining: count, emitted: 0, prev: 0, prev_delta: 0 }
    }

    impl Iter<'_> {
        fn step(&mut self) -> Result<i64> {
            match self.emitted {
                0 => self.prev = sign_extend(self.r.read(57)?, 57),
                1 => {
                    self.prev_delta = unzigzag(self.r.read(40)?);
                    self.prev += self.prev_delta;
                }
                _ => {
                    self.prev_delta += read_dod(&mut self.r)?;
                    self.prev += self.prev_delta;
                }
            }
            self.emitted += 1;
            Ok(self.prev)
        }
    }

    impl Iterator for Iter<'_> {
        type Item = Result<i64>;

        fn next(&mut self) -> Option<Result<i64>> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            Some(self.step())
        }
    }

    fn rt(ts: &[i64]) {
        let enc = encode(ts);
        let dec = decode(&enc, ts.len()).unwrap();
        assert_eq!(dec, ts);
        // The streaming reference decoder agrees with the array path.
        let streamed: Vec<i64> = iter(&enc, ts.len()).map(|r| r.unwrap()).collect();
        assert_eq!(streamed, ts);
        // decode_into reuses a dirty buffer without residue.
        let mut buf = vec![i64::MIN; 3];
        decode_into(&enc, ts.len(), &mut buf).unwrap();
        assert_eq!(buf, ts);
    }

    #[test]
    fn round_trips_edge_shapes() {
        rt(&[]);
        rt(&[1_583_792_296]);
        rt(&[0, 0]);
        rt(&[100, 160, 220, 280]);
        rt(&[-86_400, 0, 86_400]);
        rt(&[5, 4, 3, 2, 1]); // decreasing (out-of-order writes)
    }

    #[test]
    fn regular_cadence_encodes_to_about_one_bit() {
        // 1 day of 60 s samples: after the header, each sample is 1 bit.
        let ts: Vec<i64> = (0..1440).map(|i| 1_583_792_296 + i * 60).collect();
        let enc = encode(&ts);
        assert!(enc.len() < 200, "got {} bytes for 1440 stamps", enc.len());
        rt(&ts);
    }

    #[test]
    fn jittered_cadence_still_compresses() {
        let ts: Vec<i64> = (0..1000).map(|i| 1_583_792_296 + i * 60 + (i % 7) - 3).collect();
        let enc = encode(&ts);
        assert!(enc.len() < 1500, "got {} bytes", enc.len());
        rt(&ts);
    }

    #[test]
    fn large_jumps_round_trip() {
        rt(&[0, 1, 1_000_000_000, 1_000_000_060, -500]);
    }

    #[test]
    fn dod_bucket_boundaries() {
        // Hit every bucket edge exactly.
        for dod in [-64i64, -63, 0, 64, 65, -255, 256, 257, -2047, 2048, 2049, 100_000] {
            let ts = vec![0, 60, 120 + dod];
            rt(&ts);
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -63, i32::MAX as i64, i32::MIN as i64] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let ts: Vec<i64> = (0..100).map(|i| i * 60).collect();
        let enc = encode(&ts);
        assert!(decode(&enc[..4], 100).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whole-block array decoding (`decode_into`, reused dirty buffer)
        /// is identical to the point-at-a-time streaming reference.
        #[test]
        fn batch_decode_matches_streaming(
            ts in prop::collection::vec(-4_000_000_000i64..4_000_000_000, 0..300),
        ) {
            let enc = encode(&ts);
            let mut arr = vec![i64::MIN; 7];
            decode_into(&enc, ts.len(), &mut arr).unwrap();
            let streamed: Vec<i64> = iter(&enc, ts.len()).collect::<Result<_>>().unwrap();
            prop_assert_eq!(&arr, &streamed);
            prop_assert_eq!(arr, ts);
        }
    }
}

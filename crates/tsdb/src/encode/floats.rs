//! Gorilla XOR float compression.
//!
//! Consecutive sensor readings XOR to values with long runs of leading and
//! trailing zero bits. Per value:
//!
//! ```text
//! xor == 0                                  → '0'
//! fits in previous leading/trailing window  → '10' + meaningful bits
//! otherwise                                 → '11' + 6b leading + 6b length
//!                                                  + meaningful bits
//! ```

use monster_compress::bitio::{BitReader, BitWriter};
use monster_util::{Error, Result};

/// Encode a float column.
pub fn encode(vals: &[f64]) -> Vec<u8> {
    let mut w = BitWriter::new();
    if vals.is_empty() {
        return w.finish();
    }
    let first = vals[0].to_bits();
    w.write(first & 0xFFFF_FFFF, 32);
    w.write(first >> 32, 32);
    let mut prev = first;
    let mut prev_lead: u32 = u32::MAX; // "no previous window"
    let mut prev_trail: u32 = 0;
    for &v in &vals[1..] {
        let bits = v.to_bits();
        let xor = bits ^ prev;
        if xor == 0 {
            w.write(0, 1);
        } else {
            let lead = xor.leading_zeros().min(31);
            let trail = xor.trailing_zeros();
            if prev_lead != u32::MAX && lead >= prev_lead && trail >= prev_trail {
                // Reuse the previous window.
                w.write(0b01, 2);
                let sig = 64 - prev_lead - prev_trail;
                write_wide(&mut w, xor >> prev_trail, sig);
            } else {
                w.write(0b11, 2);
                let sig = 64 - lead - trail;
                w.write(lead as u64, 6);
                // sig in 1..=64; store sig-1 in 6 bits.
                w.write((sig - 1) as u64, 6);
                write_wide(&mut w, xor >> trail, sig);
                prev_lead = lead;
                prev_trail = trail;
            }
        }
        prev = bits;
    }
    w.finish()
}

/// Decode `count` floats into a fresh vector.
pub fn decode(data: &[u8], count: usize) -> Result<Vec<f64>> {
    let mut out = Vec::with_capacity(count);
    decode_into(data, count, &mut out)?;
    Ok(out)
}

/// Decode `count` floats into `out`, clearing it first. The array fast
/// path: scans pass a reused scratch buffer so warm block decodes do not
/// allocate.
pub fn decode_into(data: &[u8], count: usize, out: &mut Vec<f64>) -> Result<()> {
    out.clear();
    out.reserve(count);
    if count == 0 {
        return Ok(());
    }
    let mut r = BitReader::new(data);
    let lo = r.read(32)?;
    let hi = r.read(32)?;
    let mut prev = lo | (hi << 32);
    out.push(f64::from_bits(prev));
    let mut lead: u32 = 0;
    let mut trail: u32 = 0;
    let mut have_window = false;
    while out.len() < count {
        if r.read_bit()? == 0 {
            out.push(f64::from_bits(prev));
            continue;
        }
        if r.read_bit()? == 0 {
            if !have_window {
                return Err(Error::Corrupt("float window reuse before definition".into()));
            }
        } else {
            lead = r.read(6)? as u32;
            let sig = r.read(6)? as u32 + 1;
            trail = 64 - lead - sig;
            have_window = true;
        }
        let sig = 64 - lead - trail;
        let xor = read_wide(&mut r, sig)? << trail;
        prev ^= xor;
        out.push(f64::from_bits(prev));
    }
    Ok(())
}

/// BitWriter caps single writes at 57 bits; split wider values.
fn write_wide(w: &mut BitWriter, v: u64, bits: u32) {
    if bits <= 57 {
        w.write(v & mask(bits), bits);
    } else {
        w.write(v & mask(32), 32);
        w.write((v >> 32) & mask(bits - 32), bits - 32);
    }
}

fn read_wide(r: &mut BitReader<'_>, bits: u32) -> Result<u64> {
    if bits <= 57 {
        r.read(bits)
    } else {
        let lo = r.read(32)?;
        let hi = r.read(bits - 32)?;
        Ok(lo | (hi << 32))
    }
}

fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Point-at-a-time streaming decoder — the reference the array path is
    /// proptested against and benchmarked over.
    struct Iter<'a> {
        r: BitReader<'a>,
        remaining: usize,
        started: bool,
        prev: u64,
        lead: u32,
        trail: u32,
        have_window: bool,
    }

    /// Stream `count` floats out of an encoded block one at a time.
    fn iter(data: &[u8], count: usize) -> Iter<'_> {
        Iter {
            r: BitReader::new(data),
            remaining: count,
            started: false,
            prev: 0,
            lead: 0,
            trail: 0,
            have_window: false,
        }
    }

    impl Iter<'_> {
        fn step(&mut self) -> Result<f64> {
            if !self.started {
                self.started = true;
                let lo = self.r.read(32)?;
                let hi = self.r.read(32)?;
                self.prev = lo | (hi << 32);
                return Ok(f64::from_bits(self.prev));
            }
            if self.r.read_bit()? == 0 {
                return Ok(f64::from_bits(self.prev));
            }
            if self.r.read_bit()? == 0 {
                if !self.have_window {
                    return Err(Error::Corrupt("float window reuse before definition".into()));
                }
            } else {
                self.lead = self.r.read(6)? as u32;
                let sig = self.r.read(6)? as u32 + 1;
                self.trail = 64 - self.lead - sig;
                self.have_window = true;
            }
            let sig = 64 - self.lead - self.trail;
            let xor = read_wide(&mut self.r, sig)? << self.trail;
            self.prev ^= xor;
            Ok(f64::from_bits(self.prev))
        }
    }

    impl Iterator for Iter<'_> {
        type Item = Result<f64>;

        fn next(&mut self) -> Option<Result<f64>> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            Some(self.step())
        }
    }

    fn rt(vals: &[f64]) {
        let enc = encode(vals);
        let dec = decode(&enc, vals.len()).unwrap();
        assert_eq!(dec.len(), vals.len());
        for (a, b) in dec.iter().zip(vals) {
            assert!(a.to_bits() == b.to_bits(), "{a} != {b}");
        }
        // Streaming reference decoder is bit-identical to the array path.
        let streamed: Vec<f64> = iter(&enc, vals.len()).map(|r| r.unwrap()).collect();
        assert_eq!(streamed.len(), dec.len());
        for (a, b) in streamed.iter().zip(&dec) {
            assert!(a.to_bits() == b.to_bits(), "stream {a} != array {b}");
        }
        // decode_into reuses a dirty buffer without residue.
        let mut buf = vec![f64::NAN; 2];
        decode_into(&enc, vals.len(), &mut buf).unwrap();
        assert_eq!(buf.len(), vals.len());
    }

    #[test]
    fn round_trips_edge_shapes() {
        rt(&[]);
        rt(&[273.8]);
        rt(&[0.0, -0.0]);
        rt(&[1.0, 1.0, 1.0, 1.0]);
        rt(&[f64::MAX, f64::MIN, f64::MIN_POSITIVE]);
        rt(&[f64::NAN]); // NaN payload preserved bitwise
        rt(&[f64::INFINITY, f64::NEG_INFINITY]);
    }

    #[test]
    fn slow_moving_sensor_data_compresses() {
        // Power readings drifting slowly around 273 W.
        let vals: Vec<f64> = (0..1440).map(|i| 273.8 + ((i % 60) as f64) * 0.1).collect();
        let enc = encode(&vals);
        assert!(enc.len() < vals.len() * 8, "got {} bytes for {} floats", enc.len(), vals.len());
        rt(&vals);
    }

    #[test]
    fn constant_column_is_about_one_bit_per_value() {
        let vals = vec![36.0; 1440];
        let enc = encode(&vals);
        assert!(enc.len() < 200, "got {} bytes", enc.len());
        rt(&vals);
    }

    #[test]
    fn adversarial_alternation_round_trips() {
        let vals: Vec<f64> = (0..500).map(|i| if i % 2 == 0 { 1e300 } else { -1e-300 }).collect();
        rt(&vals);
    }

    #[test]
    fn pseudo_random_round_trips() {
        let mut x: u64 = 0xDEADBEEF;
        let vals: Vec<f64> = (0..2000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f64::from_bits((x >> 12) | 0x3FF0_0000_0000_0000)
            })
            .collect();
        rt(&vals);
    }

    #[test]
    fn truncation_is_an_error() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64 * 0.7).collect();
        let enc = encode(&vals);
        assert!(decode(&enc[..6], 100).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whole-block array decoding (`decode_into`, reused dirty buffer)
        /// is bit-identical to the point-at-a-time streaming reference,
        /// NaN payloads and signed zeros included.
        #[test]
        fn batch_decode_matches_streaming(vals in prop::collection::vec(any::<f64>(), 0..300)) {
            let enc = encode(&vals);
            let mut arr = vec![f64::NAN; 7];
            decode_into(&enc, vals.len(), &mut arr).unwrap();
            let streamed: Vec<f64> = iter(&enc, vals.len()).collect::<Result<_>>().unwrap();
            prop_assert_eq!(arr.len(), vals.len());
            for i in 0..vals.len() {
                prop_assert_eq!(arr[i].to_bits(), streamed[i].to_bits());
                prop_assert_eq!(arr[i].to_bits(), vals[i].to_bits());
            }
        }
    }
}

//! LSB-first bit-level I/O, as used by the DEFLATE family.
//!
//! Both ends move whole words: the writer holds up to 64 pending bits and
//! appends eight bytes at a time, the reader refills its accumulator with
//! one unaligned 64-bit load while eight input bytes remain. The byte
//! streams are exactly those of a bit-at-a-time implementation (the test
//! module keeps one as the reference); the TSDB's Gorilla codecs share
//! this module and their block bytes depend on that.

use monster_util::{Error, Result};

/// Accumulates bits least-significant-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Pending bits, lowest first; only the low `nbits` are meaningful.
    acc: u64,
    /// Always < 64 between calls.
    nbits: u32,
}

impl BitWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// A writer that appends to `out`, which must end on a byte boundary
    /// of whatever stream it holds.
    pub fn appending_to(out: Vec<u8>) -> Self {
        BitWriter { out, acc: 0, nbits: 0 }
    }

    /// Append the low `n` bits of `bits` (n ≤ 57).
    #[inline]
    pub fn write(&mut self, bits: u64, n: u32) {
        debug_assert!(n <= 57, "write chunk too wide");
        debug_assert!(bits < (1u64 << n), "value wider than bit count");
        self.acc |= bits << self.nbits;
        self.nbits += n;
        if self.nbits >= 64 {
            self.out.extend_from_slice(&self.acc.to_le_bytes());
            self.nbits -= 64;
            // The part of `bits` that did not fit; `n - nbits` is 1..=57
            // here, so the shift is defined.
            self.acc = bits >> (n - self.nbits);
        }
    }

    /// Pad to a byte boundary with zero bits and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let tail = self.nbits.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.out
    }
}

/// Reads bits least-significant-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    byte_pos: usize,
    /// Bits above `nbits` are a copy of input bits a later refill will
    /// count (so OR-ing them in again is harmless), or zero once the input
    /// is used up.
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Read from `data` starting at its first byte.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, byte_pos: 0, acc: 0, nbits: 0 }
    }

    /// Top the accumulator up to at least 57 bits, or to all that is left.
    #[inline]
    fn refill(&mut self) {
        if self.nbits > 56 {
            return;
        }
        if let Some(word) = self.data.get(self.byte_pos..self.byte_pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte slice"));
            self.acc |= word << self.nbits;
            let taken = (64 - self.nbits) >> 3;
            self.byte_pos += taken as usize;
            self.nbits += taken * 8;
        } else {
            while self.nbits <= 56 && self.byte_pos < self.data.len() {
                self.acc |= (self.data[self.byte_pos] as u64) << self.nbits;
                self.byte_pos += 1;
                self.nbits += 8;
            }
        }
    }

    /// Read `n` bits (n ≤ 57); errors at end of stream.
    #[inline]
    pub fn read(&mut self, n: u32) -> Result<u64> {
        let v = self.peek(n);
        self.consume(n)?;
        Ok(v)
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<u32> {
        Ok(self.read(1)? as u32)
    }

    /// The next `n` bits (n ≤ 57) without consuming them, zero-padded past
    /// the end of the stream. Pair with [`consume`](Self::consume), which
    /// is where running off the end is reported.
    #[inline]
    pub fn peek(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 57);
        self.refill();
        // After a refill either `nbits >= n` or the input is used up, and
        // then nothing sits above `nbits`.
        self.acc & ((1u64 << n) - 1)
    }

    /// Drop `n` bits, all of which a preceding [`peek`](Self::peek) of at
    /// least `n` must have covered; errors if the stream has fewer left.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<()> {
        if self.nbits < n {
            return Err(Error::Corrupt("bit stream exhausted".into()));
        }
        self.acc >>= n;
        self.nbits -= n;
        Ok(())
    }

    /// The bits from here to the next byte boundary.
    pub fn padding(&self) -> u64 {
        self.acc & ((1u64 << (self.nbits % 8)) - 1)
    }

    /// Skip to the next byte boundary and return the bytes not yet read.
    pub fn into_remaining_bytes(self) -> &'a [u8] {
        // Whole unread bytes sit in the accumulator; hand them back.
        let unread = (self.nbits / 8) as usize;
        &self.data[self.byte_pos - unread..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time writer this module replaced, kept as the
    /// reference the word-flushing one must match byte for byte.
    #[derive(Default)]
    struct RefWriter {
        out: Vec<u8>,
        cur: u8,
        used: u32,
    }

    impl RefWriter {
        fn write(&mut self, bits: u64, n: u32) {
            for i in 0..n {
                self.cur |= (((bits >> i) & 1) as u8) << self.used;
                self.used += 1;
                if self.used == 8 {
                    self.out.push(self.cur);
                    self.cur = 0;
                    self.used = 0;
                }
            }
        }

        fn finish(mut self) -> Vec<u8> {
            if self.used > 0 {
                self.out.push(self.cur);
            }
            self.out
        }
    }

    /// Bit `i` of `data`, LSB-first.
    fn ref_bit(data: &[u8], i: usize) -> Option<u64> {
        data.get(i / 8).map(|b| ((b >> (i % 8)) & 1) as u64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_bit_at_a_time_reference(
            fields in prop::collection::vec((any::<u64>(), 0u32..=57), 0..200),
        ) {
            let mut w = BitWriter::new();
            let mut reference = RefWriter::default();
            for &(value, width) in &fields {
                let value = if width == 0 { 0 } else { value & (u64::MAX >> (64 - width)) };
                w.write(value, width);
                reference.write(value, width);
            }
            let buf = w.finish();
            prop_assert_eq!(&buf, &reference.finish());

            let mut r = BitReader::new(&buf);
            let mut at = 0usize;
            for &(_, width) in &fields {
                let expect = (0..width as usize)
                    .map(|i| ref_bit(&buf, at + i).expect("written bit") << i)
                    .sum::<u64>();
                prop_assert_eq!(r.peek(width), expect);
                prop_assert_eq!(r.read(width).unwrap(), expect);
                at += width as usize;
            }
            // Only the padding of the last byte is left.
            let left = buf.len() * 8 - at;
            prop_assert!(left < 8);
            prop_assert!(r.read(left as u32 + 1).is_err());
        }

        #[test]
        fn remaining_bytes_start_at_the_next_boundary(
            data in prop::collection::vec(any::<u8>(), 0..40),
            widths in prop::collection::vec(1u32..=57, 0..6),
        ) {
            let mut r = BitReader::new(&data);
            let mut at = 0usize;
            for w in widths {
                if r.read(w).is_err() {
                    break;
                }
                at += w as usize;
            }
            prop_assert_eq!(r.into_remaining_bytes(), &data[at.div_ceil(8)..]);
        }
    }

    #[test]
    fn round_trips_mixed_widths() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(0xABCD, 16);
        w.write(1, 1);
        w.write(0x3FFFF, 18);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read(3).unwrap(), 0b101);
        assert_eq!(r.read(16).unwrap(), 0xABCD);
        assert_eq!(r.read(1).unwrap(), 1);
        assert_eq!(r.read(18).unwrap(), 0x3FFFF);
    }

    #[test]
    fn lsb_first_layout() {
        let mut w = BitWriter::new();
        w.write(1, 1); // bit 0 of byte 0
        w.write(0, 1);
        w.write(1, 1); // bit 2
        let buf = w.finish();
        assert_eq!(buf, vec![0b0000_0101]);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read(8).unwrap(), 0xFF);
        assert!(r.read(1).is_err());
    }

    #[test]
    fn zero_width_reads_ok() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read(0).unwrap(), 0);
        assert!(r.read(1).is_err());
    }

    #[test]
    fn peek_pads_with_zeros_past_the_end() {
        let mut r = BitReader::new(&[0b1010_0101]);
        assert_eq!(r.peek(12), 0b1010_0101);
        assert!(r.consume(9).is_err());
        r.consume(8).unwrap();
        assert_eq!(r.peek(4), 0);
    }

    #[test]
    fn appending_continues_a_byte_aligned_stream() {
        let mut w = BitWriter::appending_to(vec![0xAA, 0xBB]);
        w.write(0b11, 2);
        assert_eq!(w.finish(), vec![0xAA, 0xBB, 0b11]);
    }
}

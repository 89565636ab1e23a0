//! Canonical Huffman coding: length assignment, encode codes, decode table.
//!
//! Codes are canonical (assigned by length, then symbol), so only the
//! per-symbol code *lengths* travel in a block's header. The writer caps
//! lengths at [`MAX_BITS`]; when the optimal tree is deeper, the deepest
//! leaves are lifted to the cap and the Kraft sum repaired by pushing the
//! cheapest shorter codes down one level (the miniz rule). The decoder
//! reads any DEFLATE code, up to [`MAX_CODE_BITS`], with one lookup in a
//! table sized to the code's longest length. Every buffer lives in a
//! [`CodeBuilder`] or [`DecodeTable`] the caller keeps across blocks.

use monster_util::{Error, Result};

/// Longest code the writer makes, in bits. Twelve bits cost well under
/// 0.1 % on 128 KiB blocks against DEFLATE's fifteen and keep the decode
/// table of our own streams to 4 096 entries — 8 KB, resident in L1 beside
/// the window.
pub(crate) const MAX_BITS: u32 = 12;

/// Longest code DEFLATE allows, hence the longest the decoder reads.
pub(crate) const MAX_CODE_BITS: u32 = 15;

/// The largest alphabet: literal/length, with the fixed code's two unused.
const MAX_SYMBOLS: usize = 288;

/// Scratch for [`CodeBuilder::lengths`]: the used symbols sorted by
/// frequency, then the tree over them as parent links.
#[derive(Debug, Default)]
pub(crate) struct CodeBuilder {
    /// `(freq, symbol)` of every used symbol, ascending.
    leaves: Vec<(u32, u16)>,
    /// Weight of internal node `i` (created in non-decreasing order).
    inner: Vec<u32>,
    /// Parent, as an internal-node index, of leaf `i` / internal node `i`.
    leaf_parent: Vec<u16>,
    inner_parent: Vec<u16>,
    inner_depth: Vec<u16>,
}

impl CodeBuilder {
    pub(crate) fn new() -> Self {
        CodeBuilder {
            leaves: Vec::with_capacity(MAX_SYMBOLS),
            inner: Vec::with_capacity(MAX_SYMBOLS),
            leaf_parent: Vec::with_capacity(MAX_SYMBOLS),
            inner_parent: Vec::with_capacity(MAX_SYMBOLS),
            inner_depth: Vec::with_capacity(MAX_SYMBOLS),
        }
    }

    /// Code lengths of at most `cap` bits for `freqs`, into `lens` (same length).
    ///
    /// Symbols with zero frequency get length 0 (no code). If only one
    /// symbol occurs it still gets a 1-bit code so the decoder can make
    /// progress. Ties break on the symbol number, so the result is a
    /// function of `freqs` alone.
    pub(crate) fn lengths(&mut self, freqs: &[u32], lens: &mut [u8], cap: u32) {
        debug_assert_eq!(freqs.len(), lens.len());
        debug_assert!(freqs.len() <= MAX_SYMBOLS && cap <= MAX_BITS);
        lens.fill(0);
        self.leaves.clear();
        self.leaves
            .extend(freqs.iter().enumerate().filter(|(_, &f)| f > 0).map(|(s, &f)| (f, s as u16)));
        let n = self.leaves.len();
        match n {
            0 => return,
            1 => {
                lens[self.leaves[0].1 as usize] = 1;
                return;
            }
            _ => {}
        }
        self.leaves.sort_unstable();

        // Two-queue construction: leaves ascending in one queue, internal
        // nodes (whose weights are created in non-decreasing order) in the
        // other; each step joins the two lightest heads. A leaf wins a tie,
        // which keeps the tree shallow.
        self.inner.clear();
        self.leaf_parent.clear();
        self.leaf_parent.resize(n, 0);
        self.inner_parent.clear();
        self.inner_parent.resize(n - 1, 0);
        let (mut next_leaf, mut next_inner) = (0usize, 0usize);
        for node in 0..n - 1 {
            let mut weight = 0u32;
            for _ in 0..2 {
                let take_leaf = next_leaf < n
                    && (next_inner >= self.inner.len()
                        || self.leaves[next_leaf].0 <= self.inner[next_inner]);
                if take_leaf {
                    weight += self.leaves[next_leaf].0;
                    self.leaf_parent[next_leaf] = node as u16;
                    next_leaf += 1;
                } else {
                    weight += self.inner[next_inner];
                    self.inner_parent[next_inner] = node as u16;
                    next_inner += 1;
                }
            }
            self.inner.push(weight);
        }

        // Depths top-down (the root is the last internal node), then how
        // many leaves sit at each depth, everything past the cap at the cap.
        self.inner_depth.clear();
        self.inner_depth.resize(n - 1, 0);
        for node in (0..n - 2).rev() {
            self.inner_depth[node] = self.inner_depth[self.inner_parent[node] as usize] + 1;
        }
        let cap = cap as usize;
        let mut count = [0u32; MAX_BITS as usize + 1];
        for leaf in 0..n {
            let depth = self.inner_depth[self.leaf_parent[leaf] as usize] as usize + 1;
            count[depth.min(cap)] += 1;
        }

        // Lifting leaves to the cap over-subscribes the code; pay it back
        // one unit at a time: turn a deepest-but-one code into two children
        // one level down, one of which a capped leaf takes.
        let mut kraft: u64 = (1..=cap).map(|l| (count[l] as u64) << (cap - l)).sum();
        while kraft > 1u64 << cap {
            count[cap] -= 1;
            let l = (1..cap).rev().find(|&l| count[l] > 0).expect("a shorter code exists");
            count[l] -= 1;
            count[l + 1] += 2;
            kraft -= 1;
        }

        // Longest codes to the rarest symbols.
        let mut leaf = 0;
        for l in (1..=cap).rev() {
            for _ in 0..count[l] {
                lens[self.leaves[leaf].1 as usize] = l as u8;
                leaf += 1;
            }
        }
    }
}

/// Canonical codes from lengths, bit-reversed so that writing them onto an
/// LSB-first stream puts the first code bit first (the DEFLATE
/// convention). `codes[s]` is meaningless where `lens[s] == 0`.
pub(crate) fn assign_codes(lens: &[u8], codes: &mut [u16]) {
    let mut count = [0u16; MAX_CODE_BITS as usize + 1];
    for &l in lens {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut next = [0u16; MAX_CODE_BITS as usize + 2];
    for l in 1..=MAX_CODE_BITS as usize {
        next[l + 1] = (next[l] + count[l]) << 1;
    }
    for (&l, code) in lens.iter().zip(codes.iter_mut()) {
        if l > 0 {
            *code = next[l as usize].reverse_bits() >> (16 - l);
            next[l as usize] += 1;
        }
    }
}

/// One-lookup decoder: indexed by the next `bits` stream bits (the longest
/// code), an entry holds `symbol << 4 | length`; zero marks bit patterns no
/// code begins (the table of an incomplete code has holes).
#[derive(Debug, Default)]
pub(crate) struct DecodeTable {
    entries: Vec<u16>,
    /// The longest code's length: how many stream bits a lookup reads.
    pub(crate) bits: u32,
}

impl DecodeTable {
    /// Rebuild for `lens`; errors on a length past DEFLATE's fifteen bits
    /// or an over-subscribed (Kraft sum above one) set. A set with no codes
    /// at all is legal and decodes nothing.
    pub(crate) fn rebuild(&mut self, lens: &[u8]) -> Result<()> {
        debug_assert!(lens.len() <= MAX_SYMBOLS);
        let bits = lens.iter().copied().max().unwrap_or(0) as u32;
        if bits > MAX_CODE_BITS {
            return Err(Error::Corrupt("huffman code length exceeds 15 bits".into()));
        }
        let kraft: u64 = lens.iter().filter(|&&l| l > 0).map(|&l| 1u64 << (bits - l as u32)).sum();
        if kraft > 1u64 << bits {
            return Err(Error::Corrupt("over-subscribed huffman lengths".into()));
        }
        let mut codes = [0u16; MAX_SYMBOLS];
        let codes = &mut codes[..lens.len()];
        assign_codes(lens, codes);
        self.bits = bits;
        self.entries.clear();
        self.entries.resize(1 << bits, 0);
        for (sym, (&l, &code)) in lens.iter().zip(codes.iter()).enumerate() {
            if l == 0 {
                continue;
            }
            let entry = (sym as u16) << 4 | l as u16;
            for slot in self.entries[code as usize..].iter_mut().step_by(1 << l) {
                *slot = entry;
            }
        }
        Ok(())
    }

    /// Decode the symbol whose code starts `bits` (at least
    /// [`bits`](Self::bits) stream bits, LSB first): `(symbol, code length)`, or `None` where no
    /// code matches.
    #[inline]
    pub(crate) fn lookup(&self, bits: u64) -> Option<(usize, u32)> {
        let entry = self.entries[(bits & ((1 << self.bits) - 1)) as usize];
        (entry != 0).then_some(((entry >> 4) as usize, (entry & 15) as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::{BitReader, BitWriter};

    fn lengths(freqs: &[u32]) -> Vec<u8> {
        let mut lens = vec![0u8; freqs.len()];
        CodeBuilder::new().lengths(freqs, &mut lens, MAX_BITS);
        lens
    }

    fn round_trip(freqs: &[u32], stream: &[usize]) {
        let lens = lengths(freqs);
        let mut codes = vec![0u16; lens.len()];
        assign_codes(&lens, &mut codes);
        let mut table = DecodeTable::default();
        table.rebuild(&lens).unwrap();
        let mut w = BitWriter::new();
        for &s in stream {
            assert!(lens[s] > 0, "symbol {s} has no code");
            w.write(codes[s] as u64, lens[s] as u32);
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        for &s in stream {
            let (sym, len) = table.lookup(r.peek(MAX_BITS)).expect("a code");
            r.consume(len).unwrap();
            assert_eq!(sym, s);
        }
    }

    fn kraft(lens: &[u8]) -> f64 {
        lens.iter().filter(|&&l| l > 0).map(|&l| 2f64.powi(-(l as i32))).sum()
    }

    #[test]
    fn skewed_alphabet_round_trips() {
        let freqs = [1000, 500, 100, 10, 1, 0, 3];
        let stream = [0, 1, 0, 2, 4, 6, 0, 1, 1, 3];
        round_trip(&freqs, &stream);
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        assert_eq!(lengths(&[0, 42, 0]), vec![0, 1, 0]);
        round_trip(&[0, 42, 0], &[1, 1, 1]);
        assert_eq!(lengths(&[0, 0]), vec![0, 0]);
    }

    #[test]
    fn lengths_are_optimal_on_a_known_tree() {
        // The textbook example: weights 5 9 12 13 16 45 → depths 4 4 3 3 3 1.
        assert_eq!(lengths(&[5, 9, 12, 13, 16, 45]), vec![4, 4, 3, 3, 3, 1]);
    }

    #[test]
    fn lengths_fill_the_code_space_and_follow_frequency() {
        let freqs: Vec<u32> = (1..=64).map(|i| i * i).collect();
        let lens = lengths(&freqs);
        assert!((kraft(&lens) - 1.0).abs() < 1e-9, "a Huffman code is complete");
        for i in 1..lens.len() {
            assert!(lens[i] <= lens[i - 1], "more frequent symbols never get longer codes");
        }
    }

    #[test]
    fn length_cap_enforced_on_pathological_freqs() {
        // Fibonacci frequencies force maximal skew: the unlimited tree is
        // 39 deep.
        let mut freqs = vec![1u32, 1];
        for i in 2..40 {
            let next = freqs[i - 1] + freqs[i - 2];
            freqs.push(next);
        }
        let lens = lengths(&freqs);
        assert!(lens.iter().all(|&l| (1..=MAX_BITS as u8).contains(&l)));
        assert!((kraft(&lens) - 1.0).abs() < 1e-9, "the repair keeps the code complete");
        for i in 1..lens.len() {
            assert!(lens[i] <= lens[i - 1]);
        }
        let stream: Vec<usize> = (0..40).collect();
        round_trip(&freqs, &stream);
    }

    #[test]
    fn full_alphabet_of_equal_weights_round_trips() {
        let freqs = [7u32; MAX_SYMBOLS];
        let lens = lengths(&freqs);
        assert!(lens.iter().all(|&l| l == 8 || l == 9));
        let stream: Vec<usize> = (0..MAX_SYMBOLS).collect();
        round_trip(&freqs, &stream);
    }

    #[test]
    fn scratch_reuse_does_not_leak_state() {
        let mut builder = CodeBuilder::new();
        let mut first = [0u8; 7];
        builder.lengths(&[1000, 500, 100, 10, 1, 0, 3], &mut first, MAX_BITS);
        let mut other = [0u8; 3];
        builder.lengths(&[1, 1, 1], &mut other, 2);
        let mut again = [0u8; 7];
        builder.lengths(&[1000, 500, 100, 10, 1, 0, 3], &mut again, MAX_BITS);
        assert_eq!(first, again);
    }

    #[test]
    fn decoder_rejects_oversubscribed_and_overlong() {
        let mut t = DecodeTable::default();
        // Three 1-bit codes cannot coexist.
        assert!(t.rebuild(&[1, 1, 1]).is_err());
        assert!(t.rebuild(&[16]).is_err());
        // No codes at all: legal, decodes nothing.
        t.rebuild(&[0, 0]).unwrap();
        assert!(t.lookup(0).is_none());
    }

    #[test]
    fn decoder_detects_dangling_code() {
        // Three 2-bit codes leave the pattern "11" unused.
        let mut t = DecodeTable::default();
        t.rebuild(&[2, 2, 2]).unwrap();
        assert_eq!(t.lookup(0b00), Some((0, 2)));
        assert_eq!(t.lookup(0b01), Some((2, 2)), "code 10 arrives low bit first");
        assert!(t.lookup(0b11).is_none());
    }

    #[test]
    fn fifteen_bit_codes_decode_from_a_table_of_their_size() {
        // Lengths 1, 2, …, 15, 15: a complete code as deep as DEFLATE goes.
        let lens: Vec<u8> = (1..=15).chain([15]).collect();
        let mut codes = vec![0u16; lens.len()];
        assign_codes(&lens, &mut codes);
        let mut t = DecodeTable::default();
        t.rebuild(&lens).unwrap();
        assert_eq!((t.bits, t.entries.len()), (15, 1 << 15));
        let mut w = BitWriter::new();
        for s in (0..lens.len()).rev() {
            w.write(codes[s] as u64, lens[s] as u32);
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        for s in (0..lens.len()).rev() {
            let (sym, len) = t.lookup(r.peek(15)).expect("a code");
            r.consume(len).unwrap();
            assert_eq!((sym, len), (s, lens[s] as u32));
        }
        // A writer's code (at most 12 bits) keeps the table at 4 096 entries.
        t.rebuild(&lengths(&(1..=40).map(|i| i * i * i).collect::<Vec<u32>>())).unwrap();
        assert!(t.entries.len() <= 1 << MAX_BITS);
    }

    #[test]
    fn canonical_codes_are_lexicographic() {
        let mut codes = [0u16; 4];
        assign_codes(&[2, 1, 3, 3], &mut codes);
        // len-1 symbol gets 0; len-2 gets 10; len-3 get 110, 111 — stored
        // bit-reversed.
        assert_eq!(codes[1], 0b0);
        assert_eq!(codes[0], 0b01);
        assert_eq!(codes[2], 0b011);
        assert_eq!(codes[3], 0b111);
    }
}

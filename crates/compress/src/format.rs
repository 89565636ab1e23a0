//! The zlib stream (RFC 1950 around RFC 1951 blocks), the one container
//! the workspace writes and reads, on the wire and on disk:
//!
//! ```text
//! 0x78 | FLG (FLEVEL from the level, FCHECK)
//! a block per 128 KiB of input, the last one shorter:
//!   stored (BTYPE 00, pieces of at most 65 535 bytes), or
//!   dynamic (BTYPE 10): header, tokens, end-of-block, then, unless it is
//!   the last, an empty stored block (a sync flush)
//! adler32 of the input, 4 bytes big-endian
//! ```
//!
//! So every block starts on a byte, and a match may reach back into the
//! blocks before — each is searched with the 32 KiB before it as its
//! dictionary (carried from the block before, or primed) — but no other
//! coder state crosses a cut: the stream is a function of `(data, level)`
//! however many threads produced it. The decoder reads any zlib stream.

use crate::adler::{adler32, adler32_combine};
use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{assign_codes, CodeBuilder, DecodeTable, MAX_BITS};
use crate::lz77::{
    dist_code, len_code, Level, MatchFinder, Params, Token, Tokens, DIST_BASE, DIST_EXTRA, EOB,
    LEN_BASE, LEN_EXTRA, LEN_SYM0, NUM_DIST, NUM_LITLEN, WINDOW,
};
use monster_util::{pool, Error, Result};
use std::ops::Range;

/// Input bytes per block: large enough that a block's two code tables
/// (≈ 50 B) and its 32 KiB of priming cost under 1 % of bytes and ≈ 4 % of
/// time, small enough that the smallest compressed dashboard body (350 KB)
/// still splits across two cores.
pub(crate) const BLOCK: usize = 128 * 1024;
/// Inputs shorter than this are compressed on the calling thread (see
/// DESIGN.md "Response compression" for the measurement).
const INLINE_BYTES: usize = BLOCK + BLOCK / 2;
/// The decoder's first output allocation is this many times the input
/// (capped by the caller's limit): a dashboard body (≈ 5×) in one piece.
const PRESIZE_EXPANSION: usize = 8;
/// Most bytes one stored block holds (its LEN field has 16 bits).
const STORED_MAX: usize = 65_535;
/// The order in which a header sends the code-length code's lengths.
const CL_ORDER: [usize; 19] = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

/// Run-length code `lens` into the code-length alphabet (RFC 1951
/// §3.2.7), handing `emit` each symbol, its extra bits' value and width:
/// 16 repeats the last length 3–6 times, 17 and 18 write 3–10 and 11–138
/// zeros.
fn each_run(lens: impl Iterator<Item = u8>, mut emit: impl FnMut(usize, usize, u32)) {
    let mut lens = lens.peekable();
    while let Some(len) = lens.next() {
        let mut n = 1 + std::iter::from_fn(|| lens.next_if_eq(&len)).count();
        if len > 0 {
            emit(len as usize, 0, 0);
            n -= 1;
        }
        while n >= 3 {
            let (sym, min, max, bits) = match len {
                0 if n >= 11 => (18, 11, 138, 7),
                0 => (17, 3, 10, 3),
                _ => (16, 3, 6, 2),
            };
            let run = n.min(max);
            emit(sym, run - min, bits);
            n -= run;
        }
        (0..n).for_each(|_| emit(len as usize, 0, 0));
    }
}

/// Write a dynamic block's header for these code lengths: cut of trailing
/// zeros, run-length coded, led by the code-length code's own lengths.
fn write_header(w: &mut BitWriter, litlen: &[u8], dist: &[u8], builder: &mut CodeBuilder) {
    let used =
        |lens: &[u8], min: usize| lens.iter().rposition(|&l| l > 0).map_or(min, |i| min.max(i + 1));
    let (hlit, hdist) = (used(litlen, LEN_SYM0), used(dist, 1));
    let lens = || litlen[..hlit].iter().chain(&dist[..hdist]).copied();
    let mut freq = [0; 19];
    each_run(lens(), |sym, _, _| freq[sym] += 1);
    // End-of-block has a code, so at least two symbols are used and the
    // code is complete, as inflaters require of this one.
    let (mut cl, mut codes) = ([0; 19], [0; 19]);
    builder.lengths(&freq, &mut cl, 7);
    assign_codes(&cl, &mut codes);
    let hclen = used(&CL_ORDER.map(|s| cl[s]), 4);
    w.write(((hlit - 257) | (hdist - 1) << 5 | (hclen - 4) << 10) as u64, 14);
    for &s in &CL_ORDER[..hclen] {
        w.write(cl[s] as u64, 3);
    }
    each_run(lens(), |s, extra, bits| {
        w.write(codes[s] as u64 | (extra as u64) << cl[s], cl[s] as u32 + bits)
    });
}

/// Everything one thread needs to turn blocks into bytes, allocated once
/// per `compress` call and thread and reused from block to block, dictionary included.
struct BlockCoder {
    finder: MatchFinder,
    tokens: Tokens,
    builder: CodeBuilder,
    litlen_lens: [u8; NUM_LITLEN],
    dist_lens: [u8; NUM_DIST],
    litlen_codes: [u16; NUM_LITLEN],
    dist_codes: [u16; NUM_DIST],
}

impl BlockCoder {
    fn new() -> Self {
        BlockCoder {
            finder: MatchFinder::new(),
            tokens: Tokens::new(BLOCK),
            builder: CodeBuilder::new(),
            litlen_lens: [0; NUM_LITLEN],
            dist_lens: [0; NUM_DIST],
            litlen_codes: [0; NUM_LITLEN],
            dist_codes: [0; NUM_DIST],
        }
    }

    /// Append `data[block]` to `out` as one block that starts and ends on a
    /// byte; `last` marks it final. Dynamic unless that is no shorter than
    /// the bytes themselves.
    fn encode(
        &mut self,
        data: &[u8],
        block: Range<usize>,
        prm: &Params,
        last: bool,
        out: Vec<u8>,
    ) -> Vec<u8> {
        // Past 2 GiB (`u32` positions) each block's slice is its own: primed afresh.
        let base = if block.end <= 1 << 31 { 0 } else { block.start - WINDOW };
        self.finder.tokenize(&data[base..block.end], block.start - base, prm, &mut self.tokens);

        let t = &mut self.tokens;
        t.litlen_freq[EOB] = 1;
        self.builder.lengths(&t.litlen_freq, &mut self.litlen_lens, MAX_BITS);
        self.builder.lengths(&t.dist_freq, &mut self.dist_lens, MAX_BITS);
        assign_codes(&self.litlen_lens, &mut self.litlen_codes);
        assign_codes(&self.dist_lens, &mut self.dist_codes);
        let start = out.len();
        let mut w = BitWriter::appending_to(out);
        w.write(last as u64 | 0b10 << 1, 3);
        write_header(&mut w, &self.litlen_lens, &self.dist_lens, &mut self.builder);
        for token in t.iter() {
            match token {
                Token::Literal(b) => w.write(
                    self.litlen_codes[b as usize] as u64,
                    self.litlen_lens[b as usize] as u32,
                ),
                Token::Match { len, dist } => {
                    // At most 12 + 5 + 12 + 13 bits: one write.
                    let (lc, dc) = (len_code(len), dist_code(dist));
                    let mut v = self.litlen_codes[LEN_SYM0 + lc] as u64;
                    let mut n = self.litlen_lens[LEN_SYM0 + lc] as u32;
                    v |= ((len - LEN_BASE[lc] as usize) as u64) << n;
                    n += LEN_EXTRA[lc] as u32;
                    v |= (self.dist_codes[dc] as u64) << n;
                    n += self.dist_lens[dc] as u32;
                    v |= ((dist - DIST_BASE[dc] as usize) as u64) << n;
                    n += DIST_EXTRA[dc] as u32;
                    w.write(v, n);
                }
            }
        }
        w.write(self.litlen_codes[EOB] as u64, self.litlen_lens[EOB] as u32);
        w.write(0, if last { 0 } else { 3 }); // unless last, a sync flush: an empty stored block
        let mut out = w.finish();
        if !last {
            out.extend_from_slice(&[0, 0, 0xFF, 0xFF]);
        }
        if out.len() - start < block.len() {
            return out;
        }
        // Coding did not help (tiny or incompressible block): stored
        // pieces (one, empty, for no bytes).
        out.truncate(start);
        let pieces = block.len().div_ceil(STORED_MAX).max(1);
        for i in 0..pieces {
            let at = block.start + i * STORED_MAX;
            let piece = &data[at..block.end.min(at + STORED_MAX)];
            let len = piece.len() as u16;
            out.push((last && i + 1 == pieces) as u8);
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&(!len).to_le_bytes());
            out.extend_from_slice(piece);
        }
        out
    }
}

/// Compress `data` into a zlib stream.
///
/// Inputs of [`INLINE_BYTES`] and more are compressed block-parallel on up
/// to `pool::cores()` threads, the caller among them; the bytes returned
/// do not depend on how many.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    compress_on(data, level, pool::cores())
}

/// [`compress`] on at most `threads` threads.
pub(crate) fn compress_on(data: &[u8], level: Level, threads: usize) -> Vec<u8> {
    let blocks = data.len().div_ceil(BLOCK).max(1); // no input is one empty block
    let parts = if data.len() < INLINE_BYTES { 1 } else { threads.clamp(1, blocks) };
    let prm = level.params();
    // Each part takes a contiguous run of blocks and returns their bytes and
    // checksum; a stored block is the worst case, 15 bytes longer than its input.
    let runs = pool::scope_parts(parts, |part| {
        let run = blocks * part / parts..blocks * (part + 1) / parts;
        let bytes = run.start * BLOCK..data.len().min(run.end * BLOCK);
        let mut out = Vec::with_capacity(bytes.len() + 15 * run.len());
        let mut coder = BlockCoder::new();
        for start in run.map(|b| b * BLOCK) {
            let end = data.len().min(start + BLOCK);
            out = coder.encode(data, start..end, &prm, end == data.len(), out);
        }
        (out, adler32(&data[bytes.clone()]), bytes.len())
    });

    // CMF: deflate with a 32 KiB window; FLEVEL as zlib sets it, and FCHECK.
    let flg = [0, 1, 1, 1, 1, 2, 3, 3, 3][level.get() as usize - 1] << 6;
    let body: usize = runs.iter().map(|(run, ..)| run.len()).sum();
    let mut out = Vec::with_capacity(2 + body + 4);
    let fcheck = (31 - (0x7800 | flg as u16) % 31) % 31;
    out.extend_from_slice(&[0x78, flg | fcheck as u8]);
    let mut sum = adler32(&[]);
    for (run, run_sum, len) in &runs {
        out.extend_from_slice(run);
        sum = adler32_combine(sum, *run_sum, *len);
    }
    out.extend_from_slice(&sum.to_be_bytes());
    out
}

/// The decoder's code tables, reused from block to block.
#[derive(Default)]
struct Tables {
    litlen: DecodeTable,
    dist: DecodeTable,
    lengths: DecodeTable,
}

impl Tables {
    /// Read a dynamic block's header into the literal/length and distance tables.
    fn read_dynamic(&mut self, r: &mut BitReader<'_>) -> Result<()> {
        let counts = r.read(14)? as usize;
        let (hlit, hdist) = ((counts & 31) + 257, (counts >> 5 & 31) + 1);
        if hlit > NUM_LITLEN || hdist > NUM_DIST {
            return Err(Error::Corrupt("too many length or distance codes".into()));
        }
        let mut cl = [0u8; 19];
        for &s in &CL_ORDER[..(counts >> 10) + 4] {
            cl[s] = r.read(3)? as u8;
        }
        self.lengths.rebuild(&cl)?;
        let mut all = [0u8; NUM_LITLEN + NUM_DIST];
        let lens = &mut all[..hlit + hdist];
        let mut i = 0;
        while i < lens.len() {
            let bits = r.peek(14);
            let (sym, n) = self.lengths.lookup(bits).ok_or_else(bad_code)?;
            let (len, min, extra) = match sym {
                0..=15 => (sym as u8, 1, 0),
                16 => (*lens[..i].last().ok_or_else(bad_code)?, 3, 2),
                17 => (0, 3, 3),
                _ => (0, 11, 7),
            };
            r.consume(n + extra)?;
            let run = min + (bits >> n & ((1 << extra) - 1)) as usize;
            lens.get_mut(i..i + run).ok_or_else(bad_code)?.fill(len);
            i += run;
        }
        self.litlen.rebuild(&lens[..hlit])?;
        self.dist.rebuild(&lens[hlit..])
    }

    /// Decode a Huffman-coded block's tokens onto `out`, through its end-of-block.
    fn inflate(&self, r: &mut BitReader<'_>, out: &mut Vec<u8>, limit: usize) -> Result<()> {
        loop {
            // One refill covers a whole token: 15 + 5 + 15 + 13 bits.
            let bits = r.peek(56);
            let (sym, n) = self.litlen.lookup(bits).ok_or_else(bad_code)?;
            if sym < EOB {
                r.consume(n)?;
                room(out, 1, limit)?;
                out.push(sym as u8);
                continue;
            } else if sym == EOB {
                return r.consume(n);
            } else if sym >= NUM_LITLEN {
                return Err(bad_code()); // 286 and 287: in the fixed code, never sent
            }
            let lc = sym - LEN_SYM0;
            let mut used = n;
            let len = LEN_BASE[lc] as usize + (bits >> used & ((1 << LEN_EXTRA[lc]) - 1)) as usize;
            used += LEN_EXTRA[lc] as u32;
            let (dc, n) = self.dist.lookup(bits >> used).ok_or_else(bad_code)?;
            used += n;
            let back =
                DIST_BASE[dc] as usize + (bits >> used & ((1 << DIST_EXTRA[dc]) - 1)) as usize;
            r.consume(used + DIST_EXTRA[dc] as u32)?;
            let from = out.len().checked_sub(back).ok_or_else(|| {
                Error::Corrupt(format!("match distance {back} exceeds output {}", out.len()))
            })?;
            room(out, len, limit)?;
            if back >= len {
                out.extend_from_within(from..from + len);
            } else {
                // Overlapping copies are the point (a run via dist < len).
                for k in from..from + len {
                    out.push(out[k]);
                }
            }
        }
    }
}

fn bad_code() -> Error {
    Error::Corrupt("invalid huffman data: no such code, or a length run out of place".into())
}

/// Make room on `out` for `n` more bytes, refusing to pass `limit`: the
/// buffer doubles, but not past `limit`.
fn room(out: &mut Vec<u8>, n: usize, limit: usize) -> Result<()> {
    if n > limit - out.len() {
        return Err(Error::Corrupt(format!("stream inflates past {limit} bytes")));
    }
    if out.capacity() - out.len() < n {
        out.reserve_exact(out.capacity().max(n).min(limit - out.len()));
    }
    Ok(())
}

/// Decompress a zlib stream, verifying its checksum. Unbounded: a peer's
/// or a file's bytes go through [`decompress_within`].
// kept: the unbounded decode the codec's doc example and round-trip tests read back with
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    decompress_within(data, usize::MAX)
}

/// [`decompress`], refusing a stream as it inflates past `limit` bytes.
/// The output never takes more than `max(8 × data.len(), 2 × decoded)`
/// bytes of allocation, nor more than `limit`.
pub fn decompress_within(data: &[u8], limit: usize) -> Result<Vec<u8>> {
    let corrupt = |what: &str| Err(Error::Corrupt(what.into()));
    let [cmf, flg, ref body @ ..] = *data else { return corrupt("zlib header cut short") };
    if cmf & 0x0F != 8 || cmf >> 4 > 7 {
        return corrupt("not deflate with a window of at most 32 KiB (CMF)");
    } else if u16::from_be_bytes([cmf, flg]) % 31 != 0 {
        return corrupt("zlib header check (FCHECK) fails");
    } else if flg & 0x20 != 0 {
        return corrupt("zlib stream needs a preset dictionary (FDICT)");
    }
    let mut out = Vec::with_capacity(limit.min(data.len().saturating_mul(PRESIZE_EXPANSION)));
    let mut tables = Tables::default();
    let mut r = BitReader::new(body);
    loop {
        let head = r.read(3)?;
        match head >> 1 {
            0 => {
                let rest = r.into_remaining_bytes();
                let Some(&[l0, l1, n0, n1]) = rest.first_chunk() else {
                    return corrupt("stored block cut short");
                };
                let len = u16::from_le_bytes([l0, l1]) as usize;
                let Some(piece) = rest.get(4..4 + len).filter(|_| l0 == !n0 && l1 == !n1) else {
                    return corrupt("stored block cut short, or its NLEN is not !LEN");
                };
                room(&mut out, len, limit)?;
                out.extend_from_slice(piece);
                r = BitReader::new(&rest[4 + len..]);
            }
            1 => {
                let mut fixed = [8; 288]; // RFC 1951 §3.2.6
                fixed[144..256].fill(9);
                fixed[256..280].fill(7);
                tables.litlen.rebuild(&fixed)?;
                tables.dist.rebuild(&[5; NUM_DIST])?;
                tables.inflate(&mut r, &mut out, limit)?;
            }
            2 => {
                tables.read_dynamic(&mut r)?;
                tables.inflate(&mut r, &mut out, limit)?;
            }
            _ => return corrupt("reserved block type"),
        }
        if head & 1 == 1 {
            break;
        }
    }
    let Ok(sum) = <[u8; 4]>::try_from(r.into_remaining_bytes()) else {
        return corrupt("the stream does not end in its 4-byte adler32");
    };
    if adler32(&out) != u32::from_be_bytes(sum) {
        return corrupt("adler32 mismatch");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trip `data`; the stream's length.
    fn rt(data: &[u8], level: Level) -> usize {
        let packed = compress(data, level);
        let back = decompress(&packed).expect("decompress");
        assert_eq!(back, data);
        packed.len()
    }

    #[test]
    fn round_trips_representative_payloads() {
        for l in [Level::new(1), Level::default(), Level::new(9)] {
            rt(b"", l);
            rt(b"x", l);
            rt(b"hello hello hello hello", l);
            rt(&vec![0u8; 4096], l);
            rt(&(0u16..=255).map(|b| b as u8).collect::<Vec<_>>(), l);
        }
    }

    #[test]
    fn headers_carry_zlibs_level_flags_and_empty_input_is_one_stored_block() {
        let heads: Vec<[u8; 2]> = [1, 3, 6, 9]
            .iter()
            .map(|&l| compress(b"", Level::new(l))[..2].try_into().unwrap())
            .collect();
        assert_eq!(heads, [[0x78, 0x01], [0x78, 0x5E], [0x78, 0x9C], [0x78, 0xDA]]);
        let empty = compress(b"", Level::default());
        assert_eq!(empty, [0x78, 0x9C, 1, 0, 0, 0xFF, 0xFF, 0, 0, 0, 1]);
    }

    #[test]
    fn json_payload_reaches_paper_like_ratio() {
        // Metrics Builder responses are highly repetitive JSON; the paper
        // observed ~5% compressed size (Fig. 18).
        let mut doc = String::from("[");
        for i in 0..2000 {
            doc.push_str(&format!(
                r#"{{"time":{},"NodeId":"10.101.{}.{}","Label":"NodePower","Reading":{}.{}}},"#,
                1_583_792_296 + i * 60,
                i % 118 + 1,
                i % 4 + 1,
                250 + i % 60,
                i % 10,
            ));
        }
        doc.push(']');
        let ratio = rt(doc.as_bytes(), Level::default()) as f64 / doc.len() as f64;
        assert!(ratio < 0.10, "expected <10% ratio on repetitive JSON, got {ratio:.3}");
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut x: u64 = 42;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn stored_mode_for_incompressible_input() {
        let data = noise(256);
        let packed = compress(&data, Level::new(9));
        // Stream overhead only: header(2)+stored block head(5)+adler(4).
        assert_eq!(packed.len(), data.len() + 11);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn stored_and_coded_blocks_mix() {
        // One incompressible block (three stored pieces) between two
        // compressible ones.
        let mut data = vec![b'a'; BLOCK];
        data.extend(noise(BLOCK));
        data.extend(std::iter::repeat(b"0123456789".iter().copied()).flatten().take(BLOCK / 2));
        let bytes = rt(&data, Level::default());
        assert!(bytes > BLOCK && bytes < BLOCK + BLOCK / 16);
    }

    #[test]
    fn container_does_not_depend_on_thread_count() {
        // 3½ blocks of text whose matches reach back across block cuts.
        let line = b"{\"time\":1587343500,\"value\":262.03810177397855},";
        let data: Vec<u8> = (0..3 * BLOCK + BLOCK / 2)
            .map(|i| line[i % line.len()] ^ ((i / 7919) as u8 & 1))
            .collect();
        for level in [Level::new(1), Level::default(), Level::new(9)] {
            let one = compress_on(&data, level, 1);
            for threads in [2, 5, 64] {
                assert_eq!(compress_on(&data, level, threads), one, "{threads} threads");
            }
            assert_eq!(compress(&data, level), one);
            assert_eq!(decompress(&one).unwrap(), data);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// One thread carries its dictionary through every block; one thread
        /// a block primes each afresh from the window. The same bytes.
        #[test]
        fn a_carried_dictionary_is_the_primed_one(
            seed in proptest::prelude::any::<u64>(),
            blocks in 1usize..=6,
            short in 0..BLOCK,
            level in proptest::sample::select(vec![1u8, 6, 9]),
        ) {
            // Records from a small vocabulary, a random digit after each:
            // matches of many lengths and distances, many across a block cut.
            let mut x = seed | 1;
            let records: Vec<&[u8]> = vec![b"{\"time\":1587344100,", b"\"value\":262.0381", b"},{", b"7}]"];
            let mut data = Vec::with_capacity(blocks * BLOCK);
            while data.len() < blocks * BLOCK - short {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                data.extend_from_slice(records[x as usize % records.len()]);
                data.push(b'0' + (x >> 32) as u8 % 10);
            }
            data.truncate(blocks * BLOCK - short);
            let level = Level::new(level);
            let one = compress_on(&data, level, 1);
            proptest::prop_assert!(one == compress_on(&data, level, blocks), "{} blocks", blocks);
            proptest::prop_assert_eq!(decompress(&one).unwrap(), data);
        }
    }

    #[test]
    fn threads_follow_size_and_cores() {
        let spawned = |len: usize, threads: usize| {
            let data = vec![b'z'; len];
            let before = pool::spawned_by_this_thread();
            compress_on(&data, Level::new(1), threads);
            pool::spawned_by_this_thread() - before
        };
        assert_eq!(spawned(INLINE_BYTES - 1, 8), 0, "a sub-threshold body runs inline");
        assert_eq!(spawned(INLINE_BYTES, 8), 1, "two blocks, two parts");
        assert_eq!(spawned(6 << 20, 2), 1, "never more than the caller's cores");
        assert_eq!(spawned(6 << 20, 1), 0);
    }

    #[test]
    fn corruption_detected() {
        let data = b"some payload worth protecting".repeat(20);
        let packed = compress(&data, Level::default());
        // Flip a byte somewhere in the body.
        for idx in [6, packed.len() / 2, packed.len() - 1] {
            let mut bad = packed.clone();
            bad[idx] ^= 0x40;
            assert!(decompress(&bad).is_err(), "corruption at {idx} not caught");
        }
    }

    #[test]
    fn truncation_detected() {
        let packed = compress(b"abcabcabcabc", Level::default());
        for cut in [0, 3, 5, packed.len() - 1] {
            assert!(decompress(&packed[..cut]).is_err());
        }
    }

    #[test]
    fn rejects_wrong_magic() {
        assert!(decompress(b"NOPE\x06\x00\x00\x00\x00\x00\x00").is_err());
    }

    #[test]
    fn higher_levels_do_not_regress_much() {
        let unit = br#"{"a":1,"b":"xyz","c":[1,2,3]}"#;
        let data = unit.repeat(500);
        let fast = rt(&data, Level::new(1));
        let best = rt(&data, Level::new(9));
        assert!(best as f64 <= fast as f64 * 1.02, "best {best} fast {fast}");
    }

    #[test]
    fn block_headers_round_trip() {
        // Isolated zeros, short runs, runs longer than one run symbol,
        // repeats, and trailing zeros the header cuts.
        let freqs: Vec<u32> = (0..NUM_LITLEN)
            .map(|i| match i {
                40..200 | 271.. => 0,
                _ if i % 7 == 0 => 0,
                _ => (i / 9 * 13 % 97 + 1) as u32,
            })
            .collect();
        let mut litlen = [0u8; NUM_LITLEN];
        CodeBuilder::new().lengths(&freqs, &mut litlen, MAX_BITS);
        let mut dist = [0u8; NUM_DIST];
        dist[1..9].fill(3);
        let mut w = BitWriter::new();
        write_header(&mut w, &litlen, &dist, &mut CodeBuilder::new());
        let buf = w.finish();
        assert_eq!(buf[0] & 31, (271 - 257) as u8, "HLIT: trailing zeros cut");
        let mut t = Tables::default();
        t.read_dynamic(&mut BitReader::new(&buf)).unwrap();
        let mut codes = [0u16; NUM_LITLEN];
        assign_codes(&litlen, &mut codes);
        for (s, &l) in litlen.iter().enumerate().filter(|(_, &l)| l > 0) {
            assert_eq!(t.litlen.lookup(codes[s] as u64), Some((s, l as u32)));
        }
        assert_eq!(t.dist.bits, 3);

        // A zero run that overshoots the tables is corrupt, not a panic:
        // HLIT 257, HDIST 1, and 258 lengths, the last a run of 138 zeros
        // after 121 of them.
        let mut w = BitWriter::new();
        w.write(0, 14);
        for &s in &CL_ORDER[..4] {
            w.write((s == 18 || s == 16) as u64, 3); // 18 → code 1, 16 → code 0
        }
        w.write(1 | 110 << 1, 8); // 18: 121 zeros
        w.write(1 | 127 << 1, 8); // 18: 138 zeros
        assert!(Tables::default().read_dynamic(&mut BitReader::new(&w.finish())).is_err());
    }

    /// The interop fixture written by Python's `zlib` with a code as long
    /// as DEFLATE allows (`tests/zlib/make.py`): its first block's
    /// literal/length code is longer than any this writer makes.
    #[test]
    fn the_long_code_fixture_has_codes_past_the_writers_cap() {
        let stream = include_bytes!("../tests/zlib/long_codes.zz");
        let mut r = BitReader::new(&stream[2..]);
        assert_eq!(r.read(3).unwrap() >> 1, 2, "a dynamic block");
        let mut t = Tables::default();
        t.read_dynamic(&mut r).unwrap();
        assert!((13..=15).contains(&t.litlen.bits), "longest code {} bits", t.litlen.bits);
    }
}

//! The "MZ2" container: header, independent byte-aligned blocks, checksum.
//!
//! ```text
//! magic "MZ2\0" | level u8 | orig_len varint
//! one block per BLOCK (128 KiB) of input, the last one shorter:
//!   mode u8
//!   mode 0 (stored): the block's bytes
//!   mode 1 (coded):  litlen code lengths (286 syms) | dist code lengths (30 syms)
//!                    | Huffman-coded tokens | end-of-block | zero bits to a byte boundary
//! adler32 of the original data (4 bytes LE)
//! ```
//!
//! Code lengths are 4 bits each, a zero followed by 7 bits of run length
//! (1..=128 zeros). Length/distance symbols use DEFLATE's alphabets (29
//! length codes with extra bits, 30 distance codes), so ratios are
//! comparable to zlib's. A match may reach back into the previous blocks'
//! bytes — blocks are cut at fixed input offsets and each is searched with
//! the 32 KiB before it as its dictionary (carried from the block before,
//! or primed) — but no other coder state crosses a block boundary, so the
//! container is a function of `(data, level)` however many threads produced it.

use crate::adler::{adler32, adler32_combine};
use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{assign_codes, CodeBuilder, DecodeTable};
use crate::lz77::{
    dist_code, len_code, Level, MatchFinder, Params, Token, Tokens, DIST_BASE, DIST_EXTRA, EOB,
    LEN_BASE, LEN_EXTRA, LEN_SYM0, NUM_DIST, NUM_LITLEN, WINDOW,
};
use monster_util::{pool, Error, Result};
use std::ops::Range;

const MAGIC: &[u8; 4] = b"MZ2\0";
/// The container this one replaced; recognised only to say so.
const OLD_MAGIC: &[u8; 4] = b"MZ1\0";
/// Input bytes per block: large enough that a block's two code tables
/// (≈ 60 B) and its 32 KiB of priming cost under 1 % of bytes and ≈ 4 % of
/// time, small enough that the smallest compressed dashboard body (350 KB)
/// still splits across two cores.
pub(crate) const BLOCK: usize = 128 * 1024;
/// Inputs shorter than this are compressed on the calling thread (see
/// DESIGN.md "Response compression" for the measurement).
const INLINE_BYTES: usize = BLOCK + BLOCK / 2;
/// No coded block expands by more than this: a 258-byte match costs at
/// least one length bit and one distance bit.
const MAX_EXPANSION: usize = 1032;
/// The decoder's first output allocation is this many times the input
/// (capped by the header's length): enough for a dashboard body (≈ 5×) in
/// one piece, small enough that a lying header buys nothing.
const PRESIZE_EXPANSION: usize = 8;

const STORED: u8 = 0;
const CODED: u8 = 1;
/// Bits of a zero-run length in a code-length table.
const RUN_BITS: u32 = 7;

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let b = *data.get(*pos).ok_or_else(|| Error::Corrupt("truncated varint".into()))?;
        *pos += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::Corrupt("varint too long".into()));
        }
    }
}

/// Statistics from a compression run (ratio reporting for Fig. 18).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressStats {
    /// Input size in bytes.
    pub input_bytes: usize,
    /// Output (container) size in bytes.
    pub output_bytes: usize,
}

impl CompressStats {
    /// `output / input`, i.e. ≈0.05 for the paper's JSON payloads.
    pub fn ratio(&self) -> f64 {
        if self.input_bytes == 0 {
            1.0
        } else {
            self.output_bytes as f64 / self.input_bytes as f64
        }
    }
}

/// Emit `lens` as the container stores a code-length table.
fn put_lengths(lens: &[u8], mut put: impl FnMut(u64, u32)) {
    let mut i = 0;
    while i < lens.len() {
        put(lens[i] as u64, 4);
        if lens[i] != 0 {
            i += 1;
            continue;
        }
        let run = lens[i..].iter().take(1 << RUN_BITS).take_while(|&&l| l == 0).count();
        put(run as u64 - 1, RUN_BITS);
        i += run;
    }
}

/// Read a code-length table of `lens.len()` symbols.
fn read_lengths(r: &mut BitReader<'_>, lens: &mut [u8]) -> Result<()> {
    let mut i = 0;
    while i < lens.len() {
        let l = r.read(4)? as u8;
        if l != 0 {
            lens[i] = l;
            i += 1;
            continue;
        }
        let run = r.read(RUN_BITS)? as usize + 1;
        let zeros = lens
            .get_mut(i..i + run)
            .ok_or_else(|| Error::Corrupt("code-length run past the alphabet".into()))?;
        zeros.fill(0);
        i += run;
    }
    Ok(())
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

    /// Append `data[block]` to `out` as one block.
    fn encode(
        &mut self,
        data: &[u8],
        block: Range<usize>,
        prm: &Params,
        mut out: Vec<u8>,
    ) -> Vec<u8> {
        // Past 2 GiB (`u32` positions) each block's slice is its own: primed afresh.
        let base = if block.end <= 1 << 31 { 0 } else { block.start - WINDOW };
        self.finder.tokenize(&data[base..block.end], block.start - base, prm, &mut self.tokens);

        let t = &mut self.tokens;
        t.litlen_freq[EOB] = 1;
        self.builder.lengths(&t.litlen_freq, &mut self.litlen_lens);
        self.builder.lengths(&t.dist_freq, &mut self.dist_lens);

        let mut bits = 0u64;
        put_lengths(&self.litlen_lens, |_, n| bits += n as u64);
        put_lengths(&self.dist_lens, |_, n| bits += n as u64);
        for (sym, (&f, &l)) in t.litlen_freq.iter().zip(&self.litlen_lens).enumerate() {
            let extra = if sym >= LEN_SYM0 { LEN_EXTRA[sym - LEN_SYM0] } else { 0 };
            bits += f as u64 * (l + extra) as u64;
        }
        for ((&f, &l), &extra) in t.dist_freq.iter().zip(&self.dist_lens).zip(&DIST_EXTRA) {
            bits += f as u64 * (l + extra) as u64;
        }
        if bits.div_ceil(8) >= block.len() as u64 {
            // Coding did not help (tiny or incompressible block).
            out.push(STORED);
            out.extend_from_slice(&data[block]);
            return out;
        }

        assign_codes(&self.litlen_lens, &mut self.litlen_codes);
        assign_codes(&self.dist_lens, &mut self.dist_codes);
        out.push(CODED);
        let mut w = BitWriter::appending_to(out);
        put_lengths(&self.litlen_lens, |v, n| w.write(v, n));
        put_lengths(&self.dist_lens, |v, n| w.write(v, n));
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
        w.finish()
    }
}

/// Compress `data` into an MZ2 container.
///
/// Inputs of [`INLINE_BYTES`] and more are compressed block-parallel on up
/// to `pool::cores()` threads, the caller among them; the bytes returned
/// do not depend on how many.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    compress_on(data, level, pool::cores())
}

/// [`compress`] on at most `threads` threads.
pub(crate) fn compress_on(data: &[u8], level: Level, threads: usize) -> Vec<u8> {
    let blocks = data.len().div_ceil(BLOCK);
    let parts = if data.len() < INLINE_BYTES { 1 } else { threads.clamp(1, blocks) };
    let prm = level.params();
    // Each part takes a contiguous run of blocks and returns their bytes and
    // checksum; a stored block is the worst case, one byte longer than its input.
    let runs = pool::scope_parts(parts, |part| {
        let run = blocks * part / parts..blocks * (part + 1) / parts;
        let bytes = run.start * BLOCK..data.len().min(run.end * BLOCK);
        let mut out = Vec::with_capacity(bytes.len() + run.len());
        let mut coder = BlockCoder::new();
        for start in bytes.clone().step_by(BLOCK) {
            out = coder.encode(data, start..bytes.end.min(start + BLOCK), &prm, out);
        }
        (out, adler32(&data[bytes.clone()]), bytes.len())
    });

    let body: usize = runs.iter().map(|(run, ..)| run.len()).sum();
    let mut out = Vec::with_capacity(MAGIC.len() + 1 + 10 + body + 4);
    out.extend_from_slice(MAGIC);
    out.push(level.get());
    write_varint(&mut out, data.len() as u64);
    let mut sum = adler32(&[]);
    for (run, run_sum, len) in &runs {
        out.extend_from_slice(run);
        sum = adler32_combine(sum, *run_sum, *len);
    }
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decode one coded block from the start of `body` into `out[at..]`,
/// which it must fill exactly; `out[..at]` is what earlier blocks decoded
/// to. Returns the bytes of `body` after the block.
fn inflate_block<'a>(
    body: &'a [u8],
    out: &mut [u8],
    at: usize,
    litlen: &mut DecodeTable,
    dist: &mut DecodeTable,
) -> Result<&'a [u8]> {
    let mut r = BitReader::new(body);
    let mut lens = [0u8; NUM_LITLEN];
    read_lengths(&mut r, &mut lens)?;
    litlen.rebuild(&lens)?;
    read_lengths(&mut r, &mut lens[..NUM_DIST])?;
    dist.rebuild(&lens[..NUM_DIST])?;

    let bad_code = || Error::Corrupt("invalid huffman code".into());
    let overrun = || Error::Corrupt("block decodes past its length".into());
    let mut pos = at;
    loop {
        // One refill covers a whole token: 12 + 5 + 12 + 13 bits.
        let bits = r.peek(56);
        let (sym, n) = litlen.lookup(bits).ok_or_else(bad_code)?;
        if sym < EOB {
            r.consume(n)?;
            *out.get_mut(pos).ok_or_else(overrun)? = sym as u8;
            pos += 1;
            continue;
        }
        if sym == EOB {
            r.consume(n)?;
            break;
        }
        let lc = sym - LEN_SYM0;
        let mut used = n;
        let len = LEN_BASE[lc] as usize + (bits >> used & ((1 << LEN_EXTRA[lc]) - 1)) as usize;
        used += LEN_EXTRA[lc] as u32;
        let (dc, n) = dist.lookup(bits >> used).ok_or_else(bad_code)?;
        used += n;
        let back = DIST_BASE[dc] as usize + (bits >> used & ((1 << DIST_EXTRA[dc]) - 1)) as usize;
        used += DIST_EXTRA[dc] as u32;
        r.consume(used)?;
        if back > pos {
            return Err(Error::Corrupt(format!("match distance {back} exceeds output {pos}")));
        }
        if len > out.len() - pos {
            return Err(overrun());
        }
        if back >= len {
            out.copy_within(pos - back..pos - back + len, pos);
        } else {
            // Overlapping copies are the point (a run via dist < len).
            for k in pos..pos + len {
                out[k] = out[k - back];
            }
        }
        pos += len;
    }
    if pos != out.len() {
        return Err(Error::Corrupt("block decodes short of its length".into()));
    }
    if r.padding() != 0 {
        return Err(Error::Corrupt("nonzero bits after end-of-block".into()));
    }
    Ok(r.into_remaining_bytes())
}

/// Decompress an MZ2 container, verifying the checksum.
///
/// Never allocates more for the output than
/// `max(8 × data.len(), 2 × (decoded + 128 KiB))` bytes whatever the
/// header claims, and rejects a claim past what `data` could expand to.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    decompress_within(data, usize::MAX)
}

/// [`decompress`], refusing — before it decodes a block — a container whose
/// header claims more than `limit` bytes.
pub fn decompress_within(data: &[u8], limit: usize) -> Result<Vec<u8>> {
    if data.len() >= 4 && &data[..4] == OLD_MAGIC {
        return Err(Error::Corrupt("unsupported container (MZ1; this build reads MZ2)".into()));
    }
    if data.len() < MAGIC.len() + 2 + 4 || &data[..4] != MAGIC {
        return Err(Error::Corrupt("bad MZ2 magic".into()));
    }
    let mut pos = 5; // magic + level byte
    let orig_len = read_varint(data, &mut pos)?;
    let Some(body_len) = data.len().checked_sub(pos + 4) else {
        return Err(Error::Corrupt("missing checksum".into()));
    };
    let (mut body, sum_bytes) = data[pos..].split_at(body_len);
    let expect_sum = u32::from_le_bytes(sum_bytes.try_into().expect("4 bytes"));
    let orig_len = usize::try_from(orig_len)
        .ok()
        .filter(|&n| n <= limit.min(body.len().saturating_mul(MAX_EXPANSION)))
        .ok_or_else(|| Error::Corrupt("length header past what body or caller allows".into()))?;

    let mut out = vec![0u8; orig_len.min(body.len().saturating_mul(PRESIZE_EXPANSION))];
    let mut tables: Option<(DecodeTable, DecodeTable)> = None;
    let mut at = 0;
    while at < orig_len {
        let end = orig_len.min(at + BLOCK);
        if out.len() < end {
            out.resize(orig_len.min(end.max(out.len() * 2)), 0);
        }
        let (&mode, rest) =
            body.split_first().ok_or_else(|| Error::Corrupt("missing block".into()))?;
        body = match mode {
            STORED => {
                if rest.len() < end - at {
                    return Err(Error::Corrupt("stored block cut short".into()));
                }
                let (raw, rest) = rest.split_at(end - at);
                out[at..end].copy_from_slice(raw);
                rest
            }
            CODED => {
                let (litlen, dist) =
                    tables.get_or_insert_with(|| (DecodeTable::new(), DecodeTable::new()));
                inflate_block(rest, &mut out[..end], at, litlen, dist)?
            }
            m => return Err(Error::Corrupt(format!("unknown block mode {m}"))),
        };
        at = end;
    }
    if !body.is_empty() {
        return Err(Error::Corrupt("bytes after the last block".into()));
    }
    debug_assert_eq!(out.len(), orig_len);
    if adler32(&out) != expect_sum {
        return Err(Error::Corrupt("adler32 mismatch".into()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(data: &[u8], level: Level) -> CompressStats {
        let packed = compress(data, level);
        let back = decompress(&packed).expect("decompress");
        assert_eq!(back, data);
        CompressStats { input_bytes: data.len(), output_bytes: packed.len() }
    }

    #[test]
    fn round_trips_representative_payloads() {
        for l in [Level::FAST, Level::default(), Level::BEST] {
            rt(b"", l);
            rt(b"x", l);
            rt(b"hello hello hello hello", l);
            rt(&vec![0u8; 4096], l);
            rt(&(0u16..=255).map(|b| b as u8).collect::<Vec<_>>(), l);
        }
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
        let stats = rt(doc.as_bytes(), Level::default());
        assert!(
            stats.ratio() < 0.10,
            "expected <10% ratio on repetitive JSON, got {:.3}",
            stats.ratio()
        );
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
        let packed = compress(&data, Level::BEST);
        // Container overhead only: magic(4)+level(1)+varint(2)+mode(1)+sum(4).
        assert_eq!(packed.len(), data.len() + 12);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn stored_and_coded_blocks_mix() {
        // One incompressible block between two compressible ones.
        let mut data = vec![b'a'; BLOCK];
        data.extend(noise(BLOCK));
        data.extend(std::iter::repeat(b"0123456789".iter().copied()).flatten().take(BLOCK / 2));
        let stats = rt(&data, Level::default());
        assert!(stats.output_bytes > BLOCK && stats.output_bytes < BLOCK + BLOCK / 16);
    }

    #[test]
    fn container_does_not_depend_on_thread_count() {
        // 3½ blocks of text whose matches reach back across block cuts.
        let line = b"{\"time\":1587343500,\"value\":262.03810177397855},";
        let data: Vec<u8> = (0..3 * BLOCK + BLOCK / 2)
            .map(|i| line[i % line.len()] ^ ((i / 7919) as u8 & 1))
            .collect();
        for level in [Level::FAST, Level::default(), Level::BEST] {
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
            compress_on(&data, Level::FAST, threads);
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
    fn old_container_is_named_in_the_error() {
        let err = decompress(b"MZ1\0\x06\x03\x00abc\x00\x00\x00\x00").unwrap_err();
        assert!(err.to_string().contains("unsupported container"), "{err}");
    }

    #[test]
    fn higher_levels_do_not_regress_much() {
        let unit = br#"{"a":1,"b":"xyz","c":[1,2,3]}"#;
        let data = unit.repeat(500);
        let fast = rt(&data, Level::FAST).output_bytes;
        let best = rt(&data, Level::BEST).output_bytes;
        assert!(best as f64 <= fast as f64 * 1.02, "best {best} fast {fast}");
    }

    #[test]
    fn code_length_tables_round_trip() {
        let mut lens = [0u8; NUM_LITLEN];
        for (i, l) in lens.iter_mut().enumerate() {
            // Isolated zeros, short runs, one run longer than a run field.
            *l = if (40..200).contains(&i) || i % 7 == 0 { 0 } else { (i % 12 + 1) as u8 };
        }
        let mut w = BitWriter::new();
        put_lengths(&lens, |v, n| w.write(v, n));
        let buf = w.finish();
        let mut back = [0xFFu8; NUM_LITLEN];
        read_lengths(&mut BitReader::new(&buf), &mut back).unwrap();
        assert_eq!(back, lens);
        // A run that overshoots the alphabet is corrupt, not a panic.
        let mut w = BitWriter::new();
        w.write(0, 4);
        w.write(127, RUN_BITS);
        let buf = w.finish();
        assert!(read_lengths(&mut BitReader::new(&buf), &mut back[..100]).is_err());
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn stats_ratio() {
        let s = CompressStats { input_bytes: 1000, output_bytes: 50 };
        assert!((s.ratio() - 0.05).abs() < 1e-12);
        assert_eq!(CompressStats { input_bytes: 0, output_bytes: 0 }.ratio(), 1.0);
    }
}

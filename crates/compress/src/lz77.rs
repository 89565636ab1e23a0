//! LZ77 match search over one block: hash chains on five-byte prefixes,
//! lazy evaluation, and a cost-aware acceptance rule for short matches.
//!
//! A block matches only into the up-to-32 KiB of input before it: a finder
//! fresh to the block enters that window unsearched (priming), one that
//! tokenized the block before keeps its dictionary. Cut to the window the
//! two are the same, so a block's tokens are a function of those bytes and
//! the level — which is what lets blocks be compressed in any order, on
//! any thread.

/// Compression effort level, 1 (fastest) to 9 (best ratio).
///
/// Level tunes how many candidates a search examines, how soon a match in
/// hand cuts that budget, and which length ends the search outright — the
/// dials zlib's levels turn. Every level defers a match when a longer one
/// starts a few bytes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Level(u8);

impl Level {
    /// Construct a level, clamped into 1..=9.
    pub fn new(level: u8) -> Self {
        Level(level.clamp(1, 9))
    }

    /// Fastest (level 1).
    pub const FAST: Level = Level(1);
    /// Best ratio (level 9).
    pub const BEST: Level = Level(9);

    /// The numeric level.
    pub fn get(self) -> u8 {
        self.0
    }

    /// The search parameters this level stands for.
    pub(crate) fn params(self) -> Params {
        let (chain, good, nice) = match self.0 {
            1 => (2, 8, 16),
            2 => (4, 8, 32),
            3 => (6, 8, 64),
            4 => (8, 8, 64),
            5 => (12, 8, 128),
            6 => (16, 8, 128),
            7 => (64, 16, MAX_MATCH),
            8 => (128, 32, MAX_MATCH),
            _ => (512, 64, MAX_MATCH),
        };
        Params { chain, good, nice }
    }
}

impl Default for Level {
    /// Level 6, zlib's default trade-off.
    fn default() -> Self {
        Level(6)
    }
}

/// What a [`Level`] turns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Params {
    /// Most candidates examined per search.
    pub(crate) chain: u32,
    /// With a match this long in hand, the rest of the budget is quartered
    /// (and the search for a deferred match starts with a quarter).
    pub(crate) good: usize,
    /// A match this long ends the search, and is not deferred.
    pub(crate) nice: usize,
}

/// Window size: matches may reach back this far.
pub(crate) const WINDOW: usize = 32 * 1024;
/// Shortest match the finder emits (the chains hash five bytes).
pub(crate) const MIN_MATCH: usize = 5;
/// Shortest match the format can carry.
pub(crate) const FORMAT_MIN_MATCH: usize = 3;
/// Longest match (DEFLATE's cap).
pub(crate) const MAX_MATCH: usize = 258;
/// 256 literals + end-of-block + 29 length codes.
pub(crate) const NUM_LITLEN: usize = 286;
/// End-of-block symbol.
pub(crate) const EOB: usize = 256;
/// First length symbol.
pub(crate) const LEN_SYM0: usize = 257;
/// Distance codes.
pub(crate) const NUM_DIST: usize = 30;

/// Base length per length code 257..=285 (DEFLATE's alphabet).
pub(crate) const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// Extra bits per length code.
pub(crate) const LEN_EXTRA: [u8; 29] =
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0];
/// Base distance per distance code.
pub(crate) const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits per distance code.
pub(crate) const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Length code index (0..29) of match length `len`, by `len - 3`.
const LEN_CODE: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut code = 0;
    let mut i = 0;
    while i < 256 {
        while code + 1 < LEN_BASE.len() && LEN_BASE[code + 1] as usize <= i + 3 {
            code += 1;
        }
        t[i] = code as u8;
        i += 1;
    }
    t
};

/// Distance code of `dist - 1`: the first 256 entries directly, the rest
/// by `(dist - 1) >> 7` (every code past 256 spans a multiple of 128).
const DIST_CODE: [u8; 512] = {
    let mut t = [0u8; 512];
    let mut i = 0;
    while i < 512 {
        let d = if i < 256 { i + 1 } else { ((i - 256) << 7) + 1 };
        let mut code = 0;
        while code + 1 < DIST_BASE.len() && DIST_BASE[code + 1] as usize <= d {
            code += 1;
        }
        t[i] = code as u8;
        i += 1;
    }
    t
};

/// Length code index (0..29) of a match of `len` bytes.
#[inline]
pub(crate) fn len_code(len: usize) -> usize {
    LEN_CODE[len - FORMAT_MIN_MATCH] as usize
}

/// Distance code (0..30) of a match `dist` bytes back.
#[inline]
pub(crate) fn dist_code(dist: usize) -> usize {
    let d = dist - 1;
    (if d < 256 { DIST_CODE[d] } else { DIST_CODE[256 + (d >> 7)] }) as usize
}

/// One block's LZ77 output — packed tokens plus the symbol counts the
/// entropy coder needs — and the running price list the acceptance rule
/// reads. Reused from block to block.
#[derive(Debug)]
pub(crate) struct Tokens {
    /// A literal is its byte value; a match is
    /// `1 << 31 | (len - 3) << 16 | (dist - 1)`.
    packed: Vec<u32>,
    /// Occurrences per literal/length symbol (end-of-block not counted).
    pub(crate) litlen_freq: [u32; NUM_LITLEN],
    /// Occurrences per distance symbol.
    pub(crate) dist_freq: [u32; NUM_DIST],
    /// Estimated cost, in sixteenths of a bit, of each literal/length
    /// symbol (a length symbol's includes its extra bits) …
    litlen_cost: [u16; NUM_LITLEN],
    /// … and of each distance symbol with its extra bits.
    dist_cost: [u16; NUM_DIST],
    /// Token count at which the prices are next re-estimated.
    reprice_at: usize,
}

const MATCH_FLAG: u32 = 1 << 31;

/// The prices are first re-estimated from the block's own counts after
/// this many tokens, then each time the count has doubled, up to
/// [`REPRICE_MAX`] apart.
const REPRICE_FIRST: usize = 256;
const REPRICE_MAX: usize = 4096;
/// Matches at least this long are taken without pricing them: even at the
/// cheapest literals seen in practice (≈ 3.3 bits, decimal digits) they
/// beat the dearest length + distance pair (≈ 12 + 25 bits).
const ALWAYS_WORTH: usize = 12;
/// A priced match has to be this much cheaper than its literals (two
/// bits, in sixteenths): the estimates feed on the decisions they drive —
/// accepted short matches make their symbols look cheap and literals dear —
/// and without a margin a block can settle in the wrong equilibrium.
const MARGIN: u32 = 32;

/// A decoded token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Token {
    Literal(u8),
    Match { len: usize, dist: usize },
}

impl Tokens {
    pub(crate) fn new(capacity: usize) -> Self {
        Tokens {
            packed: Vec::with_capacity(capacity),
            litlen_freq: [0; NUM_LITLEN],
            dist_freq: [0; NUM_DIST],
            litlen_cost: [0; NUM_LITLEN],
            dist_cost: [0; NUM_DIST],
            reprice_at: 0,
        }
    }

    /// Empty the buffer and fall back to the opening prices: a literal at
    /// six bits, length and distance symbols at five plus their extra bits
    /// — roughly what a block of mixed text settles at, and replaced by
    /// the block's own statistics after [`REPRICE_FIRST`] tokens.
    fn reset(&mut self) {
        self.packed.clear();
        self.litlen_freq.fill(0);
        self.dist_freq.fill(0);
        self.litlen_cost[..EOB + 1].fill(6 * 16);
        for (code, cost) in self.litlen_cost[LEN_SYM0..].iter_mut().enumerate() {
            *cost = (5 + LEN_EXTRA[code] as u16) * 16;
        }
        for (code, cost) in self.dist_cost.iter_mut().enumerate() {
            *cost = (5 + DIST_EXTRA[code] as u16) * 16;
        }
        self.reprice_at = REPRICE_FIRST;
    }

    #[inline]
    fn literal(&mut self, byte: u8) {
        self.packed.push(byte as u32);
        self.litlen_freq[byte as usize] += 1;
    }

    #[inline]
    fn matched(&mut self, len: usize, dist: usize) {
        debug_assert!((FORMAT_MIN_MATCH..=MAX_MATCH).contains(&len));
        debug_assert!((1..=WINDOW).contains(&dist));
        self.packed.push(MATCH_FLAG | ((len - FORMAT_MIN_MATCH) as u32) << 16 | (dist - 1) as u32);
        self.litlen_freq[LEN_SYM0 + len_code(len)] += 1;
        self.dist_freq[dist_code(dist)] += 1;
        if self.packed.len() >= self.reprice_at {
            self.reprice();
        }
    }

    /// Re-estimate every symbol's cost from the counts so far.
    fn reprice(&mut self) {
        let n = self.packed.len();
        self.reprice_at = n + n.min(REPRICE_MAX);
        let total: u32 = self.litlen_freq.iter().sum();
        let log_total = log2_x16(total.max(1));
        for (sym, cost) in self.litlen_cost.iter_mut().enumerate() {
            let extra = if sym >= LEN_SYM0 { LEN_EXTRA[sym - LEN_SYM0] as u32 * 16 } else { 0 };
            *cost = (symbol_cost_x16(self.litlen_freq[sym], log_total) + extra) as u16;
        }
        let total: u32 = self.dist_freq.iter().sum();
        let log_total = log2_x16(total.max(1));
        for (code, cost) in self.dist_cost.iter_mut().enumerate() {
            let extra = DIST_EXTRA[code] as u32 * 16;
            *cost = (symbol_cost_x16(self.dist_freq[code], log_total) + extra) as u16;
        }
    }

    /// The acceptance rule: is coding `bytes` (the start of a match) as a
    /// match `dist` back estimated cheaper than coding them as literals?
    #[inline]
    fn worth(&self, bytes: &[u8], dist: usize) -> bool {
        let len = bytes.len();
        if len >= ALWAYS_WORTH {
            return true;
        }
        let as_match = self.litlen_cost[LEN_SYM0 + len_code(len)] as u32
            + self.dist_cost[dist_code(dist)] as u32;
        let as_literals: u32 = bytes.iter().map(|&b| self.litlen_cost[b as usize] as u32).sum();
        as_match + MARGIN < as_literals
    }

    /// The tokens in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Token> + '_ {
        self.packed.iter().map(|&t| {
            if t & MATCH_FLAG == 0 {
                Token::Literal(t as u8)
            } else {
                Token::Match {
                    len: ((t >> 16) & 0xFF) as usize + FORMAT_MIN_MATCH,
                    dist: (t & 0xFFFF) as usize + 1,
                }
            }
        })
    }
}

/// `16 · log2(x)` for `x ≥ 1`, from the exponent and a linear reading of
/// the top four mantissa bits: never above the true value and at most 2.4
/// sixteenths (0.15 bit) below it. Integer arithmetic only, so the same on
/// every platform.
fn log2_x16(x: u32) -> u32 {
    let exp = 31 - x.leading_zeros();
    let mantissa = (x << (31 - exp)) >> 27 & 15;
    exp * 16 + mantissa
}

/// Cost of a symbol seen `freq` times out of `2^(log_total/16)`, in
/// sixteenths of a bit, kept within what a code of 1..=12 bits can cost.
/// An unseen symbol is priced as if seen half a time.
fn symbol_cost_x16(freq: u32, log_total: u32) -> u32 {
    let log_freq = if freq == 0 { 0 } else { log2_x16(freq) + 16 };
    (log_total + 16).saturating_sub(log_freq).clamp(16, 13 * 16)
}

const HASH_BITS: u32 = 16;
const HASH_SIZE: usize = 1 << HASH_BITS;
const WMASK: usize = WINDOW - 1;
/// Stored positions are offset by this much so that the distance from any
/// real position to an empty (zero) head slot is out of the window.
const BIAS: u32 = WINDOW as u32 + 1;
/// How many bytes later than the match in hand a better one may start
/// (see [`MatchFinder::deferred`]).
const MAX_DEFER: usize = 3;

#[inline]
fn hash5(buf: &[u8], p: usize) -> usize {
    let v = u32::from_le_bytes(buf[p..p + 4].try_into().expect("4-byte slice")) as u64;
    let v = v | (buf[p + 4] as u64) << 32;
    (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - HASH_BITS)) as usize
}

/// Length of the common prefix of `a` and `b`, up to `max` (which both
/// slices cover), eight bytes per step.
#[inline]
fn common_prefix(a: &[u8], b: &[u8], max: usize) -> usize {
    let (a, b) = (&a[..max], &b[..max]);
    let mut n = 0;
    while n + 8 <= max {
        let x = u64::from_le_bytes(a[n..n + 8].try_into().expect("8-byte slice"));
        let y = u64::from_le_bytes(b[n..n + 8].try_into().expect("8-byte slice"));
        if x != y {
            return n + ((x ^ y).trailing_zeros() >> 3) as usize;
        }
        n += 8;
    }
    while n < max && a[n] == b[n] {
        n += 1;
    }
    n
}

/// The dictionary: for each five-byte hash the latest position that had
/// it, and for each of the last 32 Ki positions the distance back to the
/// previous position with the same hash (0 = none in the window).
#[derive(Debug)]
pub(crate) struct MatchFinder {
    head: Box<[u32; HASH_SIZE]>,
    prev: Box<[u16; WINDOW]>,
    /// Positions below this one are entered.
    next: usize,
}

impl MatchFinder {
    pub(crate) fn new() -> Self {
        MatchFinder {
            head: vec![0u32; HASH_SIZE].into_boxed_slice().try_into().expect("HASH_SIZE long"),
            prev: vec![0u16; WINDOW].into_boxed_slice().try_into().expect("WINDOW long"),
            next: 0,
        }
    }

    /// Enter position `p` (which has five bytes after it; each position
    /// once, in increasing order) and return the distance to the previous
    /// position with its hash, 0 if that is out of the window.
    #[inline]
    fn insert(&mut self, buf: &[u8], p: usize) -> usize {
        let h = hash5(buf, p);
        let at = p as u32 + BIAS;
        let back = at - self.head[h];
        self.head[h] = at;
        let link = if back <= WINDOW as u32 { back as u16 } else { 0 };
        self.prev[p & WMASK] = link;
        link as usize
    }

    /// Distance from `pos` (not yet entered) back to the latest position
    /// with its hash, 0 if that is out of the window.
    #[inline]
    fn latest(&self, buf: &[u8], pos: usize) -> usize {
        let back = pos as u32 + BIAS - self.head[hash5(buf, pos)];
        if back <= WINDOW as u32 {
            back as usize
        } else {
            0
        }
    }

    /// The longest match for `buf[p..]` strictly longer than `beat`:
    /// `(len, dist)`, or `(beat, 0)`. `p` has been entered and `first` is
    /// what [`insert`](Self::insert) returned for it.
    ///
    /// A match longer than the `n` bytes in hand has the same five bytes
    /// as `buf[p..]` at offset `n - 4` — the four that end the match in
    /// hand and the one after — so it is on *their* hash chain. The search
    /// follows that chain and moves to a new one every time the match in
    /// hand grows: on repetitive input (every record of a JSON array
    /// starts alike) the chain of the first five bytes holds every
    /// record, the chain of the bytes where the best candidate so far
    /// stops matching only the records that go on matching there.
    #[inline]
    fn longest(
        &self,
        buf: &[u8],
        p: usize,
        first: usize,
        beat: usize,
        prm: &Params,
    ) -> (usize, usize) {
        let cur = &buf[p..];
        let max_len = cur.len().min(MAX_MATCH);
        if beat >= max_len {
            return (beat, 0);
        }
        let nice = prm.nice.min(max_len);
        let reach = p.min(WINDOW);
        let (mut best_len, mut best_dist) = (beat, 0);
        let mut good_in_hand = beat >= prm.good;
        let mut chain = if good_in_hand { prm.chain >> 2 } else { prm.chain }.max(1);
        // Offset into the match of the five bytes whose chain is followed.
        let mut anchor = beat - (MIN_MATCH - 1);
        let mut dist = if anchor == 0 { first } else { self.latest(buf, p + anchor) };
        // A link of 0 ends a chain; so does walking out of the window,
        // which is also where a ring slot reused by a newer position
        // (possible only at exactly `WINDOW` back) leads.
        while dist != 0 && dist <= reach {
            let start = p - dist;
            let cand = &buf[start..];
            if cand[best_len] == cur[best_len] {
                let len = common_prefix(cand, cur, max_len);
                if len > best_len {
                    (best_len, best_dist) = (len, dist);
                    if len >= nice {
                        break;
                    }
                    if !good_in_hand && len >= prm.good {
                        good_in_hand = true;
                        chain = (chain >> 2).max(1);
                    }
                    chain -= 1;
                    if chain == 0 {
                        break;
                    }
                    anchor = len - (MIN_MATCH - 1);
                    dist = self.latest(buf, p + anchor);
                    continue;
                }
            }
            chain -= 1;
            let link = self.prev[(start + anchor) & WMASK] as usize;
            if chain == 0 || link == 0 {
                break;
            }
            dist += link;
        }
        (best_len, best_dist)
    }

    /// Lazy evaluation, generalised: a match that starts 1..=[`MAX_DEFER`]
    /// bytes after `p` and is longer than the `len`-byte match in hand at
    /// `p` — `(start, len, dist)`.
    ///
    /// Such a match covers the five bytes that straddle the end of the one
    /// in hand, so it is on their chain; each candidate there is extended
    /// backwards to see where it would start and forwards to see how far
    /// it would go. (zlib's lazy step, one byte later and searched from
    /// that byte's own chain, is the `start == p + 1` case.)
    #[inline]
    fn deferred(
        &self,
        buf: &[u8],
        p: usize,
        len: usize,
        prm: &Params,
    ) -> Option<(usize, usize, usize)> {
        let mut best = None;
        let mut best_len = len;
        let mut chain = if len >= prm.good { prm.chain >> 2 } else { prm.chain }.max(1);
        let mut anchor = p + len + 2 - MIN_MATCH;
        if anchor + MIN_MATCH > buf.len() {
            return None;
        }
        let mut dist = self.latest(buf, anchor);
        while dist != 0 && dist <= anchor.min(WINDOW) {
            let at = anchor - dist;
            let mut back = 0;
            let max_back = (anchor - (p + 1)).min(at);
            while back < max_back && buf[at - 1 - back] == buf[anchor - 1 - back] {
                back += 1;
            }
            let start = anchor - back;
            if start - p <= MAX_DEFER {
                let max_ahead = (buf.len() - anchor).min(MAX_MATCH - back);
                let total = back + common_prefix(&buf[at..], &buf[anchor..], max_ahead);
                if total > best_len {
                    best_len = total;
                    best = Some((start, total, dist));
                    chain -= 1;
                    anchor = start + total + 2 - MIN_MATCH;
                    if total >= prm.nice || chain == 0 || anchor + MIN_MATCH > buf.len() {
                        break;
                    }
                    dist = self.latest(buf, anchor);
                    continue;
                }
            }
            chain -= 1;
            let link = self.prev[at & WMASK] as usize;
            if chain == 0 || link == 0 {
                break;
            }
            dist += link;
        }
        best
    }

    /// Tokenize `buf[start..]` into `out`, matching into at most [`WINDOW`]
    /// bytes before each position. A finder that last tokenized a prefix of
    /// `buf` enters only the positions that call could not hash, a fresh
    /// one the window before `start`: every match reach is in both.
    pub(crate) fn tokenize(&mut self, buf: &[u8], start: usize, prm: &Params, out: &mut Tokens) {
        debug_assert!(buf.len() <= 1 << 31, "positions are u32s");
        out.reset();
        if self.next > start {
            self.head.fill(0);
            self.next = 0;
        }
        // Positions from here on have fewer than five bytes after them:
        // they are neither hashed nor searched.
        let hashable = buf.len().saturating_sub(MIN_MATCH - 1);
        for p in self.next.max(start.saturating_sub(WINDOW))..start.min(hashable) {
            self.insert(buf, p);
        }
        self.next = hashable;

        let mut p = start;
        while p < hashable {
            let first = self.insert(buf, p);
            let (mut len, mut dist) = self.longest(buf, p, first, MIN_MATCH - 1, prm);
            if dist == 0 || !out.worth(&buf[p..p + len], dist) {
                out.literal(buf[p]);
                p += 1;
                continue;
            }
            // While a longer match starts a few bytes on, the bytes up to
            // it go out as literals and that match takes over.
            let searched = p;
            while len < prm.nice {
                let Some((later, later_len, later_dist)) = self.deferred(buf, p, len, prm) else {
                    break;
                };
                if !out.worth(&buf[later..later + later_len], later_dist) {
                    break;
                }
                for &byte in &buf[p..later] {
                    out.literal(byte);
                }
                (p, len, dist) = (later, later_len, later_dist);
            }
            out.matched(len, dist);
            let end = p + len;
            for q in searched + 1..end.min(hashable) {
                self.insert(buf, q);
            }
            p = end;
        }
        for &byte in &buf[p..] {
            out.literal(byte);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tokenize all of `data` as one block and expand the tokens again.
    fn round_trip(data: &[u8], level: Level) -> Vec<Token> {
        let mut tokens = Tokens::new(data.len());
        MatchFinder::new().tokenize(data, 0, &level.params(), &mut tokens);
        let mut out: Vec<u8> = Vec::with_capacity(data.len());
        for t in tokens.iter() {
            match t {
                Token::Literal(b) => out.push(b),
                Token::Match { len, dist } => {
                    assert!((MIN_MATCH..=MAX_MATCH).contains(&len), "length {len}");
                    assert!((1..=WINDOW.min(out.len())).contains(&dist), "distance {dist}");
                    for _ in 0..len {
                        out.push(out[out.len() - dist]);
                    }
                }
            }
        }
        assert_eq!(out, data, "round trip failed at {level:?}");
        tokens.iter().collect()
    }

    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn round_trips_all_levels() {
        let data = b"the quick brown fox jumps over the lazy dog; the quick brown fox again";
        for l in 1..=9 {
            round_trip(data, Level::new(l));
            round_trip(&noise(l as u64, 5000), Level::new(l));
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for data in [&b""[..], b"a", b"ab", b"abc", b"abcd", b"aaaaa"] {
            round_trip(data, Level::default());
        }
    }

    #[test]
    fn long_runs_compress_to_few_tokens() {
        let toks = round_trip(&vec![b'x'; 10_000], Level::default());
        // One literal, then matches of up to MAX_MATCH one byte back.
        assert!(toks.len() < 60, "got {} tokens", toks.len());
    }

    #[test]
    fn repeated_json_finds_long_matches() {
        let unit = br#"{"NodeId":"10.101.1.1","Reading":273.8},"#;
        let data = unit.repeat(200);
        let toks = round_trip(&data, Level::default());
        assert!(toks.len() < data.len() / 100, "{} tokens", toks.len());
    }

    #[test]
    fn a_longer_match_a_few_bytes_on_takes_over() {
        // "12}," + a record start appears early; later the full record
        // appears. At "12}" the finder has a short match in hand, and the
        // long one starts three bytes on.
        let record = b"{\"time\":1587344100,\"value\":4";
        let mut data = noise(5, 300);
        data.extend_from_slice(b"712},{\"time\":15");
        data.extend(noise(6, 300));
        data.extend_from_slice(b"},");
        data.extend_from_slice(record);
        data.extend(noise(7, 300));
        data.extend_from_slice(b"712},");
        data.extend_from_slice(record);
        data.extend(noise(8, 50));
        let toks = round_trip(&data, Level::default());
        assert!(
            toks.iter().any(|t| matches!(t, Token::Match { len, .. } if *len >= 2 + record.len())),
            "the whole record goes out as one match"
        );
    }

    #[test]
    fn far_short_digit_matches_are_left_as_literals() {
        // Decimal noise: four- and five-digit repeats abound, tens of
        // kilobytes apart; a match for them costs more than the digits.
        let data: Vec<u8> = noise(9, 100_000).iter().map(|b| b'0' + b % 10).collect();
        let toks = round_trip(&data, Level::default());
        let short_far = toks
            .iter()
            .filter(|t| matches!(t, Token::Match { len, dist } if *len <= 5 && *dist > 4096))
            .count();
        assert!(short_far * 100 < toks.len(), "{short_far} of {} tokens", toks.len());
    }

    #[test]
    fn matches_reach_the_window_and_no_further() {
        for (gap, reachable) in [(WINDOW - 1, true), (WINDOW, true), (WINDOW + 1, false)] {
            let copy = noise(11, 64);
            let mut data = copy.clone();
            data.extend(noise(12, gap - copy.len()));
            data.extend_from_slice(&copy);
            let toks = round_trip(&data, Level::BEST);
            let found = toks.iter().any(|t| matches!(t, Token::Match { dist, .. } if *dist == gap));
            assert_eq!(found, reachable, "a copy {gap} bytes back");
        }
    }

    #[test]
    fn priming_is_dictionary_not_output() {
        let window = noise(13, 1000);
        let mut buf = window.clone();
        buf.extend_from_slice(&window[100..400]);
        let mut tokens = Tokens::new(buf.len());
        MatchFinder::new().tokenize(&buf, window.len(), &Level::default().params(), &mut tokens);
        let covered: usize = tokens
            .iter()
            .map(|t| match t {
                Token::Literal(_) => 1,
                Token::Match { len, .. } => len,
            })
            .sum();
        assert_eq!(covered, 300, "only the block is tokenized");
        assert!(tokens.iter().count() <= 3, "and it is found in the window");
    }

    #[test]
    fn symbol_tables_agree_with_a_linear_scan() {
        for len in FORMAT_MIN_MATCH..=MAX_MATCH {
            let code = LEN_BASE.iter().rposition(|&base| base as usize <= len).unwrap();
            assert_eq!(len_code(len), code, "length {len}");
            assert!(len - (LEN_BASE[code] as usize) < 1 << LEN_EXTRA[code]);
        }
        for dist in 1..=WINDOW {
            let code = DIST_BASE.iter().rposition(|&base| base as usize <= dist).unwrap();
            assert_eq!(dist_code(dist), code, "distance {dist}");
            assert!(dist - (DIST_BASE[code] as usize) < 1 << DIST_EXTRA[code]);
        }
    }

    #[test]
    fn integer_log2_tracks_the_real_one() {
        for x in (1..5000u32).chain([1 << 16, (1 << 20) + 12345, u32::MAX]) {
            let exact = 16.0 * (x as f64).log2();
            let under = exact - log2_x16(x) as f64;
            assert!((0.0..2.4).contains(&under), "log2({x}) is {under} under");
        }
        // A symbol seen once in 1024 costs ten bits; an unseen one a bit more.
        assert_eq!(symbol_cost_x16(1, log2_x16(1024)), 10 * 16);
        assert_eq!(symbol_cost_x16(0, log2_x16(1024)), 11 * 16);
        assert_eq!(symbol_cost_x16(1024, log2_x16(1024)), 16, "never under one bit");
    }

    #[test]
    fn level_clamps() {
        assert_eq!(Level::new(0).get(), 1);
        assert_eq!(Level::new(99).get(), 9);
        assert_eq!(Level::default().get(), 6);
    }
}

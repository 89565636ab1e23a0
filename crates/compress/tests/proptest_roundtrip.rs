//! Property tests: compress → decompress is the identity for arbitrary
//! byte strings at every level and around every block cut, and corrupted
//! containers never decode to a wrong answer silently.

use monster_compress::{compress, decompress, Level};
use proptest::prelude::*;

/// Input bytes per container block (`format::BLOCK`).
const BLOCK: usize = 128 * 1024;
/// How far back a match may reach (`lz77::WINDOW`).
const WINDOW: usize = 32 * 1024;

/// `len` bytes of seeded text-like data: words from a small vocabulary, so
/// that matches of every length and distance occur.
fn wordy(seed: u64, len: usize) -> Vec<u8> {
    const WORDS: [&[u8]; 8] = [
        b"{\"time\":15873",
        b",\"value\":",
        b"},",
        b"NodePower",
        b"10.101.",
        b"thermal",
        b"0.0",
        b"\"CPU1 Temp\":[",
    ];
    let mut x = seed | 1;
    let mut out = Vec::with_capacity(len + 16);
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        match x % 3 {
            0 => out.extend_from_slice(WORDS[(x >> 8) as usize % WORDS.len()]),
            1 => out.extend_from_slice(((x >> 8) % 100_000).to_string().as_bytes()),
            _ => out.push((x >> 8) as u8),
        }
    }
    out.truncate(len);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn round_trip_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..4096), lvl in 1u8..=9) {
        let packed = compress(&data, Level::new(lvl));
        prop_assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn round_trip_repetitive(data in prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'{', b'}']), 0..8192)) {
        let packed = compress(&data, Level::default());
        prop_assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decompress(&data);
    }

    #[test]
    fn decompress_never_panics_on_garbage_behind_a_valid_header(
        orig_len in 0usize..4096,
        body in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        // Past the magic, garbage reaches the block decoder.
        let mut data = b"MZ2\0\x06".to_vec();
        data.extend_from_slice(&[(orig_len & 0x7F) as u8 | 0x80, (orig_len >> 7) as u8]);
        data.extend_from_slice(&body);
        let _ = decompress(&data);
    }

    #[test]
    fn bit_flip_never_silently_corrupts(
        data in prop::collection::vec(any::<u8>(), 32..512),
        byte_idx in any::<usize>(),
        bit in 0u8..8,
    ) {
        let packed = compress(&data, Level::default());
        let mut bad = packed.clone();
        let idx = byte_idx % bad.len();
        bad[idx] ^= 1 << bit;
        // Either detected as corrupt, or (if the flip hit e.g. the level
        // byte, which doesn't affect decoding) decodes to the original.
        if let Ok(out) = decompress(&bad) {
            prop_assert_eq!(out, data);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sizes on both sides of every block cut, at every level.
    #[test]
    fn round_trip_around_the_block_size(
        seed in any::<u64>(),
        size in prop::sample::select(vec![0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]),
        lvl in 1u8..=9,
    ) {
        let data = wordy(seed, size);
        let packed = compress(&data, Level::new(lvl));
        prop_assert_eq!(decompress(&packed).unwrap(), data);
    }

    /// A 600-byte stretch repeated `gap` bytes later inside hexadecimal
    /// noise: the only long match for the second copy reaches back exactly
    /// `gap`, which is put just inside and just outside the window, with
    /// the copy straddling the first block cut.
    #[test]
    fn matches_reach_across_block_cuts_and_stop_at_the_window(
        seed in any::<u64>(),
        gap in prop::sample::select(vec![WINDOW - 300, WINDOW - 1, WINDOW, WINDOW + 1, WINDOW + 300]),
        cut_offset in 0usize..600,
        lvl in 1u8..=9,
    ) {
        let mut x = seed | 1;
        let mut noise = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    b"0123456789abcdef"[(x >> 24) as usize & 15]
                })
                .collect()
        };
        let copy = noise(600);
        let second_at = BLOCK - cut_offset;
        let first_at = second_at - gap;
        let mut data = noise(first_at);
        data.extend_from_slice(&copy);
        data.extend(noise(gap - copy.len()));
        let mut control = data.clone();
        data.extend_from_slice(&copy);
        control.extend(noise(copy.len()));
        let tail = noise(1000);
        data.extend_from_slice(&tail);
        control.extend_from_slice(&tail);
        prop_assert_eq!(&data[first_at..first_at + 600], &data[second_at..second_at + 600]);

        let level = Level::new(lvl);
        let packed = compress(&data, level);
        prop_assert_eq!(decompress(&packed).unwrap(), &data[..]);
        // Against the same input with fresh noise where the second copy
        // was: 600 hex digits cost 300 bytes as literals, a few as matches.
        let saved = compress(&control, level).len() as i64 - packed.len() as i64;
        if gap <= WINDOW {
            prop_assert!(saved > 200, "a copy {} back is in reach (saved {})", gap, saved);
        } else {
            prop_assert!(saved.abs() < 40, "a copy {} back is out of reach (saved {})", gap, saved);
        }
    }
}

//! What `compress` and `decompress` ask of the allocator and of the
//! thread pool, counted: scratch is per call and thread (not per block),
//! threads follow size and cores, and no header, flip or truncation makes
//! the decoder allocate past a small multiple of what it really decodes.
//!
//! `compress` fans out, so the counts are `counting_alloc::all_threads`'s,
//! the process-wide window: every test here holds it from its first line —
//! the one that counts nothing too, or its threads would allocate inside a
//! sibling's window.

mod common;

use counting_alloc::all_threads;
use monster_compress::{compress, decompress, Level};
use monster_util::pool;

/// Input bytes per container block (`format::BLOCK`).
const BLOCK: usize = 128 * 1024;

#[test]
fn compress_allocates_per_call_and_thread_not_per_block() {
    let window = all_threads();
    // The first fan-out of a process pays for thread-locals and the core
    // count; that is not what is being counted.
    compress(&vec![b'7'; 4 * BLOCK], Level::new(1));
    // 12, 24 and 49 blocks: tables, token buffer and Huffman scratch are
    // reused from block to block and the output is sized up front.
    let counts: Vec<usize> = [75, 150, 300]
        .iter()
        .map(|&nodes| {
            let doc = common::dashboard_document(3, nodes * 3, 15);
            assert!(doc.len() > nodes * 20_000);
            let (packed, seen) = window.counted(|| compress(&doc, Level::default()));
            assert!(packed.len() < doc.len() / 3);
            seen.blocks
        })
        .collect();
    assert_eq!(counts[0], counts[1], "1.5 MB against 3 MB");
    assert_eq!(counts[1], counts[2], "3 MB against 6 MB");
    assert!(counts[0] <= 24 * pool::cores(), "{} allocations", counts[0]);
}

#[test]
fn threads_follow_size_and_cores() {
    let _window = all_threads();
    let spawned = |len: usize| {
        let doc = vec![b'7'; len];
        let before = pool::spawned_by_this_thread();
        compress(&doc, Level::new(1));
        pool::spawned_by_this_thread() - before
    };
    assert_eq!(spawned(BLOCK), 0, "one block has nothing to share out");
    assert_eq!(spawned(BLOCK + BLOCK / 2 - 1), 0, "a sub-threshold body runs inline");
    let six_mb = spawned(6 << 20) as usize;
    assert_eq!(six_mb, pool::cores() - 1, "48 blocks: every core, the caller among them");
}

/// A two-block container small enough to try every flip and truncation:
/// 135 KB of forty records cycling with the odd jump, under 2 KB packed.
fn small_two_block_container() -> (Vec<u8>, Vec<u8>) {
    let records: Vec<String> = (0..40)
        .map(|i| {
            format!(
                "{{\"time\":{},\"value\":{}.{:03}}},",
                1_587_340_800 + 60 * i,
                250 + i % 7,
                i * 37
            )
        })
        .collect();
    let mut doc = Vec::new();
    let mut rng = common::Rng::new(11);
    let mut i = 0;
    while doc.len() < BLOCK + 4096 {
        i = if rng.next().is_multiple_of(64) { rng.next() as usize } else { i + 1 };
        doc.extend_from_slice(records[i % 40].as_bytes());
    }
    let packed = compress(&doc, Level::default());
    assert!(packed.len() < 2_000, "{} bytes", packed.len());
    (doc, packed)
}

/// Position and length of the length varint in a container.
fn header_varint(packed: &[u8]) -> std::ops::Range<usize> {
    let end = 5 + packed[5..].iter().position(|b| b & 0x80 == 0).unwrap() + 1;
    5..end
}

fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return out;
        }
        out.push(b | 0x80);
    }
}

#[test]
fn lying_headers_flips_and_truncations_fail_within_the_allocation_bound() {
    let window = all_threads();
    let (doc, packed) = small_two_block_container();
    // Decode tables (2 × 8 KB) plus at most twice the output and a block.
    let cap = 2 * (doc.len() + BLOCK) + 64 * 1024;

    let (back, seen) = window.counted(|| decompress(&packed));
    assert_eq!(back.unwrap(), doc);
    assert!(seen.bytes <= cap, "honest input asked for {} B", seen.bytes);

    let check = |what: &str, bad: &[u8], must_fail: bool| {
        let (result, seen) = window
            .counted(|| std::panic::catch_unwind(|| decompress(bad)).expect("decompress panicked"));
        match result {
            Err(_) => {}
            Ok(out) if !must_fail => assert_eq!(out, doc, "{what}: wrong bytes accepted"),
            Ok(_) => panic!("{what}: accepted"),
        }
        assert!(seen.largest <= cap, "{what}: one request of {} B", seen.largest);
        assert!(seen.bytes <= 2 * cap, "{what}: {} B requested", seen.bytes);
    };

    let at = header_varint(&packed);
    for claim in [doc.len() as u64 + 1, 1 << 20, 1 << 32, 1 << 40, 1 << 62, u64::MAX] {
        let mut bad = packed[..at.start].to_vec();
        bad.extend(varint(claim));
        bad.extend_from_slice(&packed[at.end..]);
        check(&format!("claimed length {claim}"), &bad, true);
    }
    // A 176-byte input that claims a terabyte (the abort this replaces).
    let tiny = compress(&doc[..1500], Level::default());
    let at = header_varint(&tiny);
    let mut bad = tiny[..at.start].to_vec();
    bad.extend(varint(1 << 40));
    bad.extend_from_slice(&tiny[at.end..]);
    check("small input claiming 2^40", &bad, true);

    for i in 0..packed.len() {
        let mut bad = packed.clone();
        // One bit in odd bytes, all eight in even ones.
        bad[i] ^= if i % 2 == 1 { 1 << (i / 2 % 8) } else { 0xFF };
        // Only the level byte is free to change.
        check(&format!("byte {i} flipped"), &bad, i != 4);
    }
    for cut in 0..packed.len() {
        check(&format!("cut to {cut} bytes"), &packed[..cut], true);
    }
}

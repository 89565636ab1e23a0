//! What `compress` and `decompress` ask of the allocator and of the
//! thread pool, counted: scratch is per call and thread (not per block),
//! threads follow size and cores, and no flip, truncation or stream that
//! inflates past its limit makes the decoder allocate past a small
//! multiple of what it really decodes or may decode.
//!
//! `compress` fans out, so the counts are `counting_alloc::all_threads`'s,
//! the process-wide window: every test here holds it from its first line —
//! the one that counts nothing too, or its threads would allocate inside a
//! sibling's window.

mod common;

use counting_alloc::all_threads;
use monster_compress::{compress, decompress, decompress_within, Level};
use monster_util::pool;

/// Input bytes per stream block (`format::BLOCK`).
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

/// A two-block stream small enough to try every flip and truncation:
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

#[test]
fn flips_truncations_and_overlong_streams_fail_within_the_allocation_bound() {
    let window = all_threads();
    let (doc, packed) = small_two_block_container();
    // Decode tables (2 × 8 KB) plus at most twice the output and a block.
    let cap = 2 * (doc.len() + BLOCK) + 64 * 1024;

    let (back, seen) = window.counted(|| decompress(&packed));
    assert_eq!(back.unwrap(), doc);
    assert!(seen.bytes <= cap, "honest input asked for {} B", seen.bytes);

    let check = |what: &str, bad: &[u8], limit: usize, must_fail: bool| {
        let (result, seen) = window.counted(|| {
            std::panic::catch_unwind(|| decompress_within(bad, limit)).expect("decompress panicked")
        });
        match result {
            Err(_) => {}
            Ok(out) if !must_fail => assert_eq!(out, doc, "{what}: wrong bytes accepted"),
            Ok(_) => panic!("{what}: accepted"),
        }
        assert!(seen.largest <= cap, "{what}: one request of {} B", seen.largest);
        assert!(seen.bytes <= 2 * cap, "{what}: {} B requested", seen.bytes);
    };

    // The format has no length field to lie with: what inflates past the
    // caller's limit is refused as it passes it.
    check("one byte past the limit", &packed, doc.len() - 1, true);
    let zeros = compress(&vec![0; 4 << 20], Level::new(1));
    assert!(zeros.len() < 8 * 1024, "{} bytes", zeros.len());
    check("4 MiB of zeros under a 135 KB limit", &zeros, doc.len(), true);

    let n = packed.len();
    for i in 0..n {
        let mut bad = packed.clone();
        // One bit in odd bytes, all eight in even ones.
        bad[i] ^= if i % 2 == 1 { 1 << (i / 2 % 8) } else { 0xFF };
        // Padding bits are free to change; the header and the checksum
        // are not.
        check(&format!("byte {i} flipped"), &bad, usize::MAX, i < 2 || i >= n - 4);
    }
    for cut in 0..n {
        check(&format!("cut to {cut} bytes"), &packed[..cut], usize::MAX, true);
    }
}

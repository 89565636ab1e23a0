//! A committed size floor: the bytes the codec produces on a
//! dashboard-shaped document may shrink but not quietly grow back — and,
//! a stream being a function of `(data, level)` alone, they are pinned.

mod common;

use monster_compress::{adler32, compress, decompress, Level};

/// What the codec this one replaced (the whole-document "MZ1" coder at
/// commit e9d4a42) produced at level 6 on `dashboard_document(7, 150, 15)`.
const PARENT_LEVEL6_BYTES: usize = 250_974;
/// What this codec produces, and the Adler-32 of those bytes: the same on
/// any number of cores, beside any sibling tests, on any platform. A
/// retune of the match finder moves both; re-record them together, and
/// only downwards. (The zlib framing took 31 bytes off the private
/// container's 218 099: its code-length tables are smaller by more than the
/// sync flushes add.)
const LEVEL6_BYTES: usize = 218_068;
const LEVEL6_ADLER: u32 = 0x4d5c_de3d;

#[test]
fn level6_is_pinned_under_the_parent_and_levels_are_ordered() {
    let doc = common::dashboard_document(7, 150, 15);
    assert!((1_000_000..1_100_000).contains(&doc.len()), "{} bytes", doc.len());

    let packed: Vec<Vec<u8>> = (1..=9).map(|l| compress(&doc, Level::new(l))).collect();
    for (l, p) in packed.iter().enumerate() {
        assert_eq!(decompress(p).unwrap(), doc, "level {}", l + 1);
    }
    let sizes: Vec<usize> = packed.iter().map(Vec::len).collect();
    let (l1, l6, l9) = (sizes[0], sizes[5], sizes[8]);
    assert!(l6 <= PARENT_LEVEL6_BYTES, "level 6 is {l6} B; the parent's was {PARENT_LEVEL6_BYTES}");
    assert!(l9 <= l6 && l6 <= l1, "levels out of order: {sizes:?}");
    assert_eq!(
        (l6, adler32(&packed[5])),
        (LEVEL6_BYTES, LEVEL6_ADLER),
        "level 6 stream changed (size, adler32)"
    );
}

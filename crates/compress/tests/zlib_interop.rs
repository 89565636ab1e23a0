//! Streams another zlib wrote decode here byte for byte, and streams that
//! break RFC 1950's rules are refused with an `Err`, never a panic.
//!
//! The fixtures in `tests/zlib/` were written by Python's `zlib` 1.2.13
//! (`tests/zlib/make.py`, which says how to run it); the inputs are built
//! again below with the script's generators.

use monster_compress::{decompress, decompress_within};

/// `make.py`'s `records(n)`.
fn records(n: usize) -> Vec<u8> {
    let (mut out, mut x, mut i) = (Vec::new(), 1u64, 0u64);
    while out.len() < n {
        x = (x * 1_103_515_245 + 12_345) % (1 << 31);
        let time = 1_587_340_800 + 60 * i;
        out.extend_from_slice(format!("{{\"time\":{time},\"value\":{}}},", x % 1000).as_bytes());
        i += 1;
    }
    out.truncate(n);
    out
}

/// `make.py`'s `fibonacci_letters()`.
fn fibonacci_letters() -> Vec<u8> {
    let (mut a, mut b, mut out) = (2usize, 3usize, Vec::new());
    for k in 0..19u8 {
        out.extend(std::iter::repeat_n(b'a' + k, a));
        (a, b) = (b, a + b);
    }
    out
}

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/zlib/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn streams_python_zlib_wrote_decode_byte_identically() {
    let cases: [(&str, Vec<u8>); 5] = [
        ("stored.zz", records(70_000)),
        ("fixed.zz", records(5_000)),
        ("dynamic.zz", records(100_000)),
        ("empty.zz", Vec::new()),
        ("long_codes.zz", fibonacci_letters()),
    ];
    for (name, data) in &cases {
        let stream = fixture(name);
        assert_eq!(&decompress(&stream).unwrap(), data, "{name}");
    }
    // The block types are the ones each fixture is named for.
    let stored = fixture("stored.zz");
    assert_eq!(stored[2] & 0b111, 0b000, "a stored, not final, first block");
    assert!(u16::from_le_bytes([stored[3], stored[4]]) > 65_000);
    assert_eq!(fixture("fixed.zz")[2] & 0b111, 0b011, "one final fixed block");
    assert_eq!(fixture("dynamic.zz")[2] & 0b110, 0b100, "a dynamic block");
}

#[test]
fn broken_headers_trailers_and_tails_are_refused() {
    let good = fixture("dynamic.zz");
    let refused = |what: &str, bad: &[u8]| {
        let got = std::panic::catch_unwind(|| decompress(bad)).expect("decompress panicked");
        assert!(got.is_err(), "{what}: accepted");
    };
    // A valid header, its check recomputed, with one field changed.
    let header = |cmf: u8, flg: u8| {
        let flg = flg & !31;
        let flg = flg | ((31 - u16::from_be_bytes([cmf, flg]) % 31) % 31) as u8;
        [&[cmf, flg][..], &good[2..]].concat()
    };
    assert_eq!(decompress(&header(good[0], good[1])).unwrap(), records(100_000));
    refused("FDICT set", &header(good[0], good[1] | 0x20));
    refused("CM 7", &header(0x77, good[1]));
    refused("CM 15", &header(0x7F, good[1]));
    refused("CINFO 8 (a 64 KiB window)", &header(0x88, good[1]));
    let mut bad = good.clone();
    bad[1] ^= 1;
    refused("a bad FCHECK", &bad);
    let n = good.len();
    refused("no Adler-32", &good[..n - 4]);
    refused("half an Adler-32", &good[..n - 2]);
    let mut bad = good.clone();
    bad[n - 1] ^= 1;
    refused("a wrong Adler-32", &bad);
    refused("a byte after the stream", &[&good[..], &[0]].concat());
    refused("a second stream after the first", &[&good[..], &good[..]].concat());
    refused("an empty input", &[]);
    refused("a reserved block type", &[0x78, 0x9C, 0b111, 0, 0, 0, 0]);
    refused("a stored block whose NLEN lies", &[0x78, 0x9C, 1, 1, 0, 0, 0, b'x', 0, 0x79, 0, 0x79]);
    // The limit: the exact size passes, a byte less is refused.
    let data = records(100_000);
    assert_eq!(decompress_within(&good, data.len()).unwrap(), data);
    assert!(decompress_within(&good, data.len() - 1).is_err());
}

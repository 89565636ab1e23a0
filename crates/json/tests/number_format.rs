//! The number kernel against `core::fmt`: `write_f64` prints what the
//! serializer printed when it went through `Display` (the oracle below is
//! that code), `f64_display_len` is `format!("{f}").len()`, `write_i64` is
//! `to_string`. `NUMBER_FORMAT_CASES` sets the cases per property (4 096
//! by default; CI runs 2 000 000 in release).

use monster_json::{f64_display_len, parse, write_f64, write_i64, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn cases() -> u32 {
    std::env::var("NUMBER_FORMAT_CASES").map_or(4096, |n| n.parse().expect("a case count"))
}

/// The serializer before it had a kernel: `Display`, `.0` after a text with
/// no fraction or exponent in it, `null` for what JSON cannot say.
fn oracle(f: f64) -> String {
    if !f.is_finite() {
        return "null".into();
    }
    let mut text = format!("{f}");
    if !text.contains(['.', 'e', 'E']) {
        text.push_str(".0");
    }
    text
}

/// `f` and `-f` through everything that prints a float.
fn check(f: f64) -> Result<(), TestCaseError> {
    for f in [f, -f] {
        let mut text = String::from("x");
        write_f64(&mut text, f).unwrap();
        let (text, want) = (&text[1..], oracle(f));
        prop_assert!(text == want, "{f:e} ({:#x}) printed {text}, not {want}", f.to_bits());
        let (len, want) = (f64_display_len(f), format!("{f}").len());
        prop_assert!(len == want, "{f:e} measured {len}, not {want}");
        // A number the serializer prints reads back as itself.
        if f.is_finite() {
            prop_assert_eq!(parse(text).unwrap(), Value::Float(f));
        }
    }
    Ok(())
}

fn check_i64(i: i64) -> Result<(), TestCaseError> {
    let mut text = String::from("x");
    write_i64(&mut text, i);
    prop_assert_eq!(&text[1..], i.to_string());
    Ok(())
}

/// The doubles one step below and above `f`, and `f`.
fn neighbours(f: f64) -> [f64; 3] {
    [f64::from_bits(f.to_bits() - 1), f, f64::from_bits(f.to_bits() + 1)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn any_bit_pattern(bits in any::<u64>()) {
        check(f64::from_bits(bits))?;
    }

    /// Where the kernel works and on both sides of it: 2^-20 … 2^61.
    #[test]
    fn any_mantissa_at_each_binary_exponent(lg in -20i64..=60, mantissa in any::<u64>()) {
        check(f64::from_bits(((lg + 1023) as u64) << 52 | mantissa >> 12))?;
    }

    /// Every reading `wire_reading` or a rail's two decimals can produce, and one decimal more.
    #[test]
    fn decimal_ladders(bits in any::<u64>(), shift in 20u32..64) {
        let n = (bits >> shift) as f64; // up to 2^44, small ones as likely as large
        for step in [1.0, 10.0, 100.0, 1000.0] {
            check(n / step)?;
        }
    }

    /// Unrounded readings, as a sensor model holds them: 17 digits, 0–5 000.
    #[test]
    fn full_precision_readings(bits in any::<u64>()) {
        check((bits >> 11) as f64 / (1u64 << 53) as f64 * 5000.0)?;
    }

    #[test]
    fn any_integer(i in any::<i64>(), shift in 0u32..64) {
        check_i64(i)?;
        check_i64(i >> shift)?;
    }
}

#[test]
fn edges() {
    let mut table = vec![0.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, f64::MAX, f64::EPSILON];
    // Subnormals: the least, the next, the greatest.
    table.extend([5e-324, 1e-323, f64::from_bits((1 << 52) - 1)]);
    // Each side of each boundary between the kernel and the fallback.
    for boundary in [2f64.powi(-13), 2f64.powi(53), 4e12, 4e15, 1e-3, 1.0] {
        table.extend(neighbours(boundary));
    }
    for k in -1074..=1023 {
        let pow2 = if k < -1022 { f64::from_bits(1 << (k + 1074)) } else { 2f64.powi(k) };
        table.extend(neighbours(pow2));
    }
    for k in -323..=308 {
        table.extend(neighbours(format!("1e{k}").parse().unwrap()));
    }
    // Exact ties: `Display` rounds them up, not to even.
    for base in [1u64 << 49, (1 << 50) - 500, (1 << 51) - 1000, 898_661_923_916_111] {
        for x in base..base + 1000 {
            table.extend([x as f64 + 0.25, x as f64 + 0.5, x as f64 + 0.75]);
        }
    }
    for x in (1u64 << 52) - 1000..1 << 52 {
        table.push(x as f64 + 0.5);
    }
    let mut tie = String::new();
    write_f64(&mut tie, 898_661_923_916_111.0 + 0.25).unwrap();
    assert_eq!(tie, "898661923916111.3");
    for f in table {
        check(f).unwrap();
    }
    for i in [0, 9, 10, 99, 100, 101, -1, i64::MAX, i64::MIN, i64::MIN + 1] {
        check_i64(i).unwrap();
    }
    for pow10 in (0..19).map(|k| 10i64.pow(k)) {
        for i in [pow10 - 1, pow10, pow10 + 1, -pow10] {
            check_i64(i).unwrap();
        }
    }
}

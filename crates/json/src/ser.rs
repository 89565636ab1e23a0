//! JSON serialization: compact and pretty writers over [`write_i64`],
//! [`write_f64`] and [`write_str`], the only code that formats a scalar.
//! Callers that stream a document without building a [`Value`] (the
//! Metrics Builder's renderer) use the same three and get the same bytes.

use crate::Value;
use std::fmt;

/// Serialize `v`; `pretty` selects two-space indentation.
pub fn to_string(v: &Value, pretty: bool) -> String {
    let mut out = String::with_capacity(128);
    write_value(&mut out, v, pretty, 0);
    out
}

fn write_value(out: &mut String, v: &Value, pretty: bool, indent: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => write_i64(out, *i),
        Value::Float(f) => write_f64(out, *f).expect("writing to a String cannot fail"),
        Value::Str(s) => write_str(out, s),
        Value::Array(a) => {
            if a.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if pretty {
                    newline_indent(out, indent + 1);
                }
                write_value(out, item, pretty, indent + 1);
            }
            if pretty {
                newline_indent(out, indent);
            }
            out.push(']');
        }
        Value::Object(o) => {
            if o.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in o.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if pretty {
                    newline_indent(out, indent + 1);
                }
                write_str(out, k);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(out, val, pretty, indent + 1);
            }
            if pretty {
                newline_indent(out, indent);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// `"00"` … `"99"`: two digits a lookup.
const DIGIT_PAIRS: &[u8; 200] = b"00010203040506070809101112131415161718192021222324\
25262728293031323334353637383940414243444546474849\
50515253545556575859606162636465666768697071727374\
75767778798081828384858687888990919293949596979899";

/// 10^0 … 10^21: every power [`shortest`] scales by.
const POW10: [u128; 22] = {
    let mut table = [1; 22];
    let mut k = 1;
    while k < table.len() {
        table[k] = table[k - 1] * 10;
        k += 1;
    }
    table
};

/// Write `v` in decimal, two digits at a time, so that its last digit is
/// `buf[end - 1]`; returns where its first digit went.
fn put_u64(buf: &mut [u8], end: usize, mut v: u64) -> usize {
    let mut at = end;
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[v as usize * 2..v as usize * 2 + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    at
}

/// Append `i` in decimal. The digits are laid out in a stack buffer and
/// copied once: nothing is allocated.
pub fn write_i64(out: &mut String, i: i64) {
    let mut buf = [0u8; 20]; // "-9223372036854775808"
    let mut at = put_u64(&mut buf, 20, i.unsigned_abs());
    if i < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// The digits `core::fmt` prints for a positive, finite `f`, as
/// `digits × 10^exp10`: the shortest decimal that reads back as `f`, the
/// closest to `f` among the shortest, a tie rounded up. `None` outside
/// 2^-13 ≤ `f` < 2^53, where [`display_slow`] takes over.
fn shortest(f: f64) -> Option<(u64, i32)> {
    // A reading with at most three decimals, which is most of what a BMC
    // reports. `r` < 2^52 is exact and so is the division's rounding, so
    // `r / 1000` reads back as `f`; doubles below 4e12 are less than 0.001
    // apart, so no other multiple of 0.001 (hence no shorter decimal) does.
    if f < 4e12 {
        let t = f * 1000.0;
        let r = t as u64;
        if r != 0 && r as f64 == t && r as f64 / 1000.0 == f {
            let (mut digits, mut exp10) = (r, -3);
            while digits % 10 == 0 {
                digits /= 10;
                exp10 += 1;
            }
            return Some((digits, exp10));
        }
    }
    // Ryu's interval in exact integers. `f` = m2 · 2^(lg − 52) and the
    // doubles that round to it lie between mm and mp quarter-units of
    // m2's last bit. Scaled by 10^p, chosen so that `f` · 10^p has 18 or 19
    // digits, every product fits a `u128`: no power-of-5 tables.
    let bits = f.to_bits();
    let (mantissa, lg) = (bits & ((1 << 52) - 1), (bits >> 52) as i32 - 1023);
    if !(-13..=52).contains(&lg) {
        return None; // subnormals (lg = −1023) included
    }
    let mv = 4 * ((1 << 52) | mantissa);
    let p = 17 - ((lg * 1233) >> 12); // 17 − ⌊lg · log10 2⌋, in 2..=21
    let scaled = |m: u64| ((u128::from(m) * POW10[p as usize]) >> (54 - lg)) as u64;
    // The lower gap halves at a power of two. Whether a bound itself reads
    // back as `f` (it does when m2 is even) never matters here: a scaled
    // bound is an integer only when lg ≥ 51, and then it ends in 5 within
    // the two digits that are always dropped.
    let (mut vr, mut vp) = (scaled(mv), scaled(mv + 2));
    let mut vm = scaled(mv - 1 - u64::from(mantissa != 0));
    // Drop digits while some shorter decimal is still inside the interval,
    // then round to the nearer neighbour, half up.
    let (mut removed, mut last) = (0, 0);
    while vp / 10 > vm / 10 {
        last = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    let up = last >= 5 || vr == vm;
    Some((vr + u64::from(up), removed - p))
}

/// `{f}` through `core::fmt`, for the finite values [`shortest`] declines:
/// |`f`| < 2^-13 (subnormals included), all fraction, or |`f`| ≥ 2^53, all
/// integer — so `1.0 <= f.abs()` says which without looking at the text.
fn display_slow<W: fmt::Write>(out: &mut W, f: f64) -> fmt::Result {
    write!(out, "{f}")
}

/// Lay a finite `f` out in `buf` the way `Display` does — never an
/// exponent, `-0` — with the serializer's `.0` after an integral value.
/// Returns where the text is and whether the `.0` is there; `None` when
/// [`shortest`] declines. What it takes has at most 17 digits, 16 before
/// the point, three zeros between `0.` and the first or 15 after the last;
/// so every copy below has a constant length, which compiles to a pair
/// of moves where a `fill` or a copy of the exact run is a call.
fn layout(buf: &mut [u8; 64], f: f64) -> Option<(std::ops::Range<usize>, bool)> {
    const END: usize = 40; // digits end here, whatever follows them
    let (digits, exp10) = if f == 0.0 { (0, 0) } else { shortest(f.abs())? };
    let first = put_u64(buf, END, digits);
    let point = END as i32 + exp10;
    let (mut start, end) = if exp10 >= 0 {
        buf[END..END + 16].copy_from_slice(b"0000000000000000");
        buf[point as usize..point as usize + 2].copy_from_slice(b".0");
        (first, point as usize + 2)
    } else if point > first as i32 {
        // The integer part moves one to the left and leaves room for the point.
        let point = point as usize;
        buf.copy_within(point - 16..point, point - 17);
        buf[point - 1] = b'.';
        (first - 1, END)
    } else {
        buf[first - 5..first].copy_from_slice(b"00000");
        buf[point as usize - 1] = b'.';
        (point as usize - 2, END)
    };
    if f.is_sign_negative() {
        start -= 1;
        buf[start] = b'-';
    }
    Some((start..end, exp10 >= 0))
}

/// Write `f` the way the serializer does, into any [`fmt::Write`] sink.
/// Nothing is allocated on the way.
///
/// Floats serialize as `Display` prints them (shortest round-trip digits,
/// no exponent), with `.0` after an integral value so the type survives a
/// re-parse; non-finite values (not representable in JSON) degrade to
/// `null`, matching what InfluxDB's HTTP layer does.
pub fn write_f64<W: fmt::Write>(out: &mut W, f: f64) -> fmt::Result {
    if !f.is_finite() {
        return out.write_str("null");
    }
    let mut buf = [0; 64];
    match layout(&mut buf, f) {
        Some((text, _)) => out.write_str(std::str::from_utf8(&buf[text]).expect("ASCII")),
        None => {
            display_slow(out, f)?;
            if f.abs() >= 1.0 {
                out.write_str(".0")?;
            }
            Ok(())
        }
    }
}

/// `format!("{f}").len()` without the text: what a float field weighs in
/// line protocol.
pub fn f64_display_len(f: f64) -> usize {
    struct Count(usize);
    impl fmt::Write for Count {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    if !f.is_finite() {
        return 3 + usize::from(f == f64::NEG_INFINITY); // "NaN", "inf", "-inf"
    }
    match layout(&mut [0; 64], f) {
        Some((text, dot_zero)) => text.len() - 2 * usize::from(dot_zero),
        None => {
            let mut count = Count(0);
            display_slow(&mut count, f).expect("counting cannot fail");
            count.0
        }
    }
}

/// Append `s` as a quoted JSON string: runs that need no escaping are
/// copied as slices, only `"`, `\` and controls one at a time.
pub fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "\\u00", // and two hex digits
            _ => continue,
        };
        // Every escaped byte is ASCII, so `run..i` ends on a boundary.
        out.push_str(&s[run..i]);
        out.push_str(escape);
        if escape == "\\u00" {
            out.push(HEX[(b >> 4) as usize] as char);
            out.push(HEX[(b & 0xF) as usize] as char);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use crate::{jobj, parse, Value};

    #[test]
    fn scalars_allocate_nothing_of_their_own() {
        let ints = Value::Array((0..10_000).map(|i| Value::Int(i * 7_919 - 40_000)).collect());
        // This thread's blocks: sibling tests do not show up in the window.
        let (text, counts) = counting_alloc::counted(|| ints.to_string_compact());
        let grown = counts.blocks;
        assert!(text.len() > 50_000);
        assert!(grown <= 32, "{grown} allocations for a 10 000-integer array");
    }

    #[test]
    fn write_i64_prints_what_display_prints() {
        for i in [0, 7, -7, 10, -10, 1_583_792_296, i64::MAX, i64::MIN, i64::MIN + 1] {
            let mut out = String::from("x");
            super::write_i64(&mut out, i);
            assert_eq!(out, format!("x{i}"));
        }
    }

    /// `tests/number_format.rs` holds the kernel to `core::fmt`'s text;
    /// this holds the values a dashboard is made of to the kernel.
    #[test]
    fn what_a_monitor_stores_takes_the_kernel_not_core_fmt() {
        let mut bits = 0x9E37_79B9_7F4A_7C15u64;
        for n in 1..50_000u64 {
            bits ^= bits << 13;
            bits ^= bits >> 7;
            bits ^= bits << 17;
            let sensor = (bits >> 11) as f64 / (1u64 << 53) as f64 * 5000.0; // bulk-loaded: 17 digits
            let (tenths, hundredths) = (n as f64 / 10.0, n as f64 / 100.0); // round1, round2
            let epoch = (1_587_340_800 + n * 60) as f64;
            for f in [sensor, tenths, hundredths, n as f64, epoch] {
                assert!(super::shortest(f).is_some(), "{f} fell back to core::fmt");
            }
        }
        for f in [1e-4, 5e-324, 9_007_199_254_740_992.0, 1e21, f64::MAX] {
            assert!(super::shortest(f).is_none(), "{f} is outside 2^-13 ≤ f < 2^53");
        }
    }

    #[test]
    fn write_str_escapes_every_class_and_copies_the_rest() {
        let all_controls: String = (0u8..0x20).map(char::from).collect();
        for s in [
            "",
            "plain",
            "\"",
            "\\",
            "ends with a quote\"",
            "\"starts with one",
            "tab\there, é and 温度 and 🚀 pass through, DEL \u{7f} too",
            all_controls.as_str(),
        ] {
            let mut out = String::new();
            super::write_str(&mut out, s);
            assert_eq!(parse(&out).unwrap(), Value::Str(s.into()), "{out}");
        }
        let mut out = String::new();
        super::write_str(&mut out, "\u{0}\u{8}\u{b}\u{c}\u{1f}/");
        assert_eq!(out, r#""\u0000\b\u000b\f\u001f/""#);
    }

    #[test]
    fn compact_matches_expected_layout() {
        let v = jobj! {
            "time" => 1_583_792_296i64,
            "fields" => jobj! { "Reading" => 273.8 },
        };
        assert_eq!(v.to_string_compact(), r#"{"time":1583792296,"fields":{"Reading":273.8}}"#);
    }

    #[test]
    fn pretty_indents() {
        let v = jobj! { "a" => Value::Array(vec![Value::Int(1)]) };
        assert_eq!(v.to_string_pretty(), "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn integral_float_keeps_type_on_round_trip() {
        let v = Value::Float(3.0);
        let s = v.to_string_compact();
        assert_eq!(s, "3.0");
        assert_eq!(parse(&s).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn write_f64_feeds_any_sink_what_the_serializer_prints() {
        struct Count(usize);
        impl std::fmt::Write for Count {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        for f in [0.0, -0.0, 3.0, 273.8, 1e21, 1e-7, f64::MIN_POSITIVE, f64::NAN, f64::INFINITY] {
            let mut count = Count(0);
            super::write_f64(&mut count, f).unwrap();
            assert_eq!(count.0, Value::Float(f).to_string_compact().len(), "{f}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::Float(f64::NAN).to_string_compact(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn escapes_control_characters() {
        let v = Value::Str("a\"b\\c\nd\u{0001}".into());
        assert_eq!(v.to_string_compact(), r#""a\"b\\c\nd\u0001""#);
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(jobj! {}.to_string_compact(), "{}");
        assert_eq!(Value::Array(vec![]).to_string_compact(), "[]");
        assert_eq!(jobj! {}.to_string_pretty(), "{}");
    }

    #[test]
    fn round_trips_nested_document() {
        let v = jobj! {
            "nodes" => Value::Array(vec![
                jobj! { "id" => "10.101.1.1", "power" => 273.8, "ok" => true },
                jobj! { "id" => "10.101.1.2", "power" => Value::Null },
            ]),
            "count" => 2i64,
        };
        for s in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(parse(&s).unwrap(), v);
        }
    }
}

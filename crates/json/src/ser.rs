//! JSON serialization: compact and pretty writers over [`write_i64`],
//! [`write_f64`] and [`write_str`], the only code that formats a scalar.
//! Callers that stream a document without building a [`Value`] (the
//! Metrics Builder's renderer) use the same three and get the same bytes.

use crate::Value;
use std::fmt::{self, Write as _};

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

/// Append `i` in decimal. The digits are laid out in a stack buffer and
/// copied once: nothing is allocated.
pub fn write_i64(out: &mut String, i: i64) {
    let mut buf = [0u8; 20]; // "-9223372036854775808"
    let mut at = buf.len();
    let mut left = i.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (left % 10) as u8;
        left /= 10;
        if left == 0 {
            break;
        }
    }
    if i < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Write `f` the way the serializer does, into any [`fmt::Write`] sink —
/// a `String`, or a byte counter that wants the length without the text.
/// Nothing is allocated on the way.
///
/// Floats serialize via Rust's shortest round-trip formatting; non-finite
/// values (not representable in JSON) degrade to `null`, matching what
/// InfluxDB's HTTP layer does.
pub fn write_f64<W: fmt::Write>(out: &mut W, f: f64) -> fmt::Result {
    /// Forwards to `out`, remembering whether a fraction or exponent went by.
    struct Probe<'a, W> {
        out: &'a mut W,
        fractional: bool,
    }
    impl<W: fmt::Write> fmt::Write for Probe<'_, W> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.fractional |= s.contains(['.', 'e', 'E']);
            self.out.write_str(s)
        }
    }
    if !f.is_finite() {
        return out.write_str("null");
    }
    let mut probe = Probe { out, fractional: false };
    write!(probe, "{f}")?;
    // `{}` prints integral floats without a dot ("3"); keep the float type
    // distinguishable on re-parse.
    if !probe.fractional {
        out.write_str(".0")?;
    }
    Ok(())
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

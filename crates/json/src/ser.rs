//! JSON serialization: compact and pretty writers.

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
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_f64(out, *f).expect("writing to a String cannot fail"),
        Value::Str(s) => write_string(out, s),
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
                write_string(out, k);
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

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use crate::{jobj, parse, Value};

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

//! Field values: the typed payload of a data point.

use std::fmt;

/// A field value. InfluxDB's four field types, which MonSTer uses as:
/// floats for sensor readings, integers for epoch times and binary state
/// codes (the §III-B3 optimization), booleans for flags, and strings for
/// stringified job lists (Fig. 5 notes InfluxDB has no array type).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// 64-bit float.
    Float(f64),
    /// 64-bit signed integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string.
    Str(String),
}

impl FieldValue {
    /// Numeric view (floats and ints); `None` for bool/string.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::Float(f) => Some(*f),
            FieldValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            FieldValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            FieldValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A short type name for error messages and schema reports.
    pub fn type_name(&self) -> &'static str {
        match self {
            FieldValue::Float(_) => "float",
            FieldValue::Int(_) => "integer",
            FieldValue::Bool(_) => "boolean",
            FieldValue::Str(_) => "string",
        }
    }

    /// Size of this value in the line-protocol text representation — the
    /// raw-volume unit the Fig. 13 schema comparison counts.
    pub fn wire_size(&self) -> usize {
        match self {
            // Runs once per field on the ingest path: the lengths come from
            // the serializer's number kernel, no text is built.
            FieldValue::Float(f) => monster_json::f64_display_len(*f),
            // a sign, the digits, and the trailing 'i' type marker
            FieldValue::Int(i) => {
                let digits = i.unsigned_abs().checked_ilog10().map_or(1, |d| d as usize + 1);
                usize::from(*i < 0) + digits + 1
            }
            FieldValue::Bool(_) => 5,
            FieldValue::Str(s) => s.len() + 2,
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Float(v) => write!(f, "{v}"),
            FieldValue::Int(v) => write!(f, "{v}i"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "\"{v}\""),
        }
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Float(v)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views() {
        assert_eq!(FieldValue::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(FieldValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(FieldValue::Int(3).as_i64(), Some(3));
        assert_eq!(FieldValue::Float(3.0).as_i64(), None);
        assert_eq!(FieldValue::Str("x".into()).as_str(), Some("x"));
        assert_eq!(FieldValue::Bool(true).as_bool(), Some(true));
    }

    #[test]
    fn display_matches_line_protocol() {
        assert_eq!(FieldValue::Float(273.8).to_string(), "273.8");
        assert_eq!(FieldValue::Int(1_583_792_296).to_string(), "1583792296i");
        assert_eq!(FieldValue::Bool(false).to_string(), "false");
        assert_eq!(FieldValue::Str("a b".into()).to_string(), "\"a b\"");
    }

    #[test]
    fn wire_size_tracks_text_length() {
        assert_eq!(FieldValue::Int(0).wire_size(), 2); // "0i"
        assert_eq!(FieldValue::Int(-12).wire_size(), 4); // "-12i"
        assert_eq!(FieldValue::Int(1_583_792_296).wire_size(), 11);
        assert_eq!(FieldValue::Str("Warning".into()).wire_size(), 9);
        assert_eq!(FieldValue::Bool(true).wire_size(), 5);
        assert_eq!(FieldValue::Float(273.8).wire_size(), 5);
    }

    #[test]
    fn epoch_int_is_smaller_than_date_string() {
        // The core §III-B3 claim: integer epoch beats a date string.
        let as_int = FieldValue::Int(1_583_792_296).wire_size();
        let as_str = FieldValue::Str("2020-03-09T22:18:16Z".into()).wire_size();
        assert!(as_int < as_str);
    }
}

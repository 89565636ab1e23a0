//! Data points: one timestamped observation with tags and fields.

use crate::field::FieldValue;
use monster_util::EpochSecs;

/// A single data point, built fluently:
///
/// ```
/// use monster_tsdb::DataPoint;
/// use monster_util::EpochSecs;
/// let p = DataPoint::new("Power", EpochSecs::new(1_583_792_296))
///     .tag("NodeId", "10.101.1.1")
///     .tag("Label", "NodePower")
///     .field_f64("Reading", 273.8);
/// assert_eq!(p.measurement, "Power");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DataPoint {
    /// Target measurement (≈ SQL table).
    pub measurement: String,
    /// Indexed key/value tags, in insertion order.
    pub tags: Vec<(String, String)>,
    /// Field name/value pairs.
    pub fields: Vec<(String, FieldValue)>,
    /// Observation time.
    pub time: EpochSecs,
}

impl DataPoint {
    /// Start a point for `measurement` at `time`.
    pub fn new(measurement: impl Into<String>, time: EpochSecs) -> Self {
        DataPoint { measurement: measurement.into(), tags: Vec::new(), fields: Vec::new(), time }
    }

    /// Add a tag.
    pub fn tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tags.push((key.into(), value.into()));
        self
    }

    /// Add a float field.
    pub fn field_f64(self, key: impl Into<String>, value: f64) -> Self {
        self.field(key, FieldValue::Float(value))
    }

    /// Add an integer field.
    pub fn field_i64(self, key: impl Into<String>, value: i64) -> Self {
        self.field(key, FieldValue::Int(value))
    }

    /// Add a string field.
    pub fn field_str(self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.field(key, FieldValue::Str(value.into()))
    }

    /// Add a boolean field.
    pub fn field_bool(self, key: impl Into<String>, value: bool) -> Self {
        self.field(key, FieldValue::Bool(value))
    }

    /// Add any field value.
    pub fn field(mut self, key: impl Into<String>, value: FieldValue) -> Self {
        self.fields.push((key.into(), value));
        self
    }

    /// Tag lookup.
    pub fn get_tag(&self, key: &str) -> Option<&str> {
        self.tags.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Field lookup.
    pub fn get_field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether the point is ingestible (at least one field).
    pub fn is_valid(&self) -> bool {
        !self.fields.is_empty() && !self.measurement.is_empty()
    }

    /// Approximate raw size in line-protocol bytes — the unit the Fig. 13
    /// volume accounting uses for "data volume as collected".
    pub fn wire_size(&self) -> usize {
        wire_size_of(
            key_wire_size(&self.measurement, &self.tags),
            self.fields.iter().map(|(k, v)| (k.len(), v)),
        )
    }
}

/// The line-protocol size of a point's identity, `measurement,k=v,...`.
pub(crate) fn key_wire_size(measurement: &str, tags: &[(String, String)]) -> usize {
    measurement.len() + tags.iter().map(|(k, v)| 1 + k.len() + 1 + v.len()).sum::<usize>()
}

/// [`DataPoint::wire_size`] from the parts WAL replay has instead of a
/// `DataPoint`: the identity's size ([`key_wire_size`]) and each field's
/// name length and value.
pub(crate) fn wire_size_of<'a>(
    key: usize,
    fields: impl Iterator<Item = (usize, &'a FieldValue)>,
) -> usize {
    // key, space, fields joined by commas, space, epoch timestamp digits
    let mut n = key + 1 + 1 + 10;
    for (i, (name, value)) in fields.enumerate() {
        n += usize::from(i > 0) + name + 1 + value.wire_size();
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig4_point() -> DataPoint {
        DataPoint::new("Power", EpochSecs::new(1_583_792_296))
            .tag("NodeId", "10.101.1.1")
            .tag("Label", "NodePower")
            .field_f64("Reading", 273.8)
    }

    #[test]
    fn builder_accumulates() {
        let p = fig4_point();
        assert_eq!(p.get_tag("NodeId"), Some("10.101.1.1"));
        assert_eq!(p.get_tag("Label"), Some("NodePower"));
        assert_eq!(p.get_field("Reading"), Some(&FieldValue::Float(273.8)));
        assert_eq!(p.get_tag("nope"), None);
        assert!(p.is_valid());
    }

    #[test]
    fn fieldless_points_invalid() {
        let p = DataPoint::new("Power", EpochSecs::new(0)).tag("a", "b");
        assert!(!p.is_valid());
        let p = DataPoint::new("", EpochSecs::new(0)).field_f64("x", 1.0);
        assert!(!p.is_valid());
    }

    #[test]
    fn wire_size_matches_encoded_length() {
        // Fig. 4's point as line protocol.
        let line = "Power,NodeId=10.101.1.1,Label=NodePower Reading=273.8 1583792296";
        // wire_size is an estimate; must be within a couple bytes of the
        // actual encoding for unescaped content.
        let p = fig4_point();
        let diff = (p.wire_size() as i64 - line.len() as i64).abs();
        assert!(diff <= 2, "estimate {} actual {}", p.wire_size(), line.len());
    }

    #[test]
    fn mixed_field_types() {
        let p = DataPoint::new("JobsInfo", EpochSecs::new(100))
            .tag("JobId", "1291784")
            .field_str("User", "jieyao")
            .field_i64("StartTime", 1_583_792_000)
            .field_i64("TotalNodes", 58)
            .field_bool("Array", false);
        assert_eq!(p.fields.len(), 4);
        assert_eq!(p.get_field("StartTime").unwrap().as_i64(), Some(1_583_792_000));
    }
}

//! The JSON value model.

use crate::Object;

/// Any JSON value.
///
/// Numbers keep their source distinction between integers and floats:
/// MonSTer's schema optimization (§III-B3 of the paper) stores state codes
/// and epoch times as integers, and the volume accounting in Fig. 13 depends
/// on integers serializing without a fractional part.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without decimal point).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with preserved member order.
    Object(Object),
}

impl Value {
    /// `Some(bool)` if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `Some(i64)` if this is an integer, or a float with an exact integer
    /// value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Some(*f as i64),
            _ => None,
        }
    }

    /// `Some(f64)` for any numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// `Some(&str)` if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// `Some(&[Value])` if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// `Some(&Object)` if this is an object.
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Mutable object access.
    pub fn as_object_mut(&mut self) -> Option<&mut Object> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object member lookup; `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }

    /// Array element lookup; `None` for non-arrays or out of range.
    pub fn at(&self, idx: usize) -> Option<&Value> {
        self.as_array()?.get(idx)
    }

    /// Follow a `/`-separated path of object keys and array indices,
    /// mirroring how Redfish clients address nested resources.
    ///
    /// ```
    /// use monster_json::parse;
    /// let v = parse(r#"{"Fans": [{"Reading": 4440}]}"#).unwrap();
    /// assert_eq!(v.pointer("Fans/0/Reading").unwrap().as_i64(), Some(4440));
    /// ```
    pub fn pointer(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            cur = match cur {
                Value::Object(o) => o.get(seg)?,
                Value::Array(a) => a.get(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Serialize compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        crate::ser::to_string(self, false)
    }

    /// Serialize with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        crate::ser::to_string(self, true)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<u64> for Value {
    fn from(i: u64) -> Self {
        Value::Int(i as i64)
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Object> for Value {
    fn from(o: Object) -> Self {
        Value::Object(o)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobj;

    #[test]
    fn accessors_discriminate_types() {
        assert_eq!(Value::Int(5).as_i64(), Some(5));
        assert_eq!(Value::Int(5).as_f64(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Float(2.5).as_i64(), None);
        assert_eq!(Value::Float(3.0).as_i64(), Some(3));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn pointer_walks_nested_structure() {
        let v = jobj! {
            "a" => jobj! { "b" => Value::Array(vec![Value::Int(1), Value::Int(2)]) },
        };
        assert_eq!(v.pointer("a/b/1").unwrap().as_i64(), Some(2));
        assert_eq!(v.pointer("a/b/7"), None);
        assert_eq!(v.pointer("a/z"), None);
        assert_eq!(v.pointer(""), Some(&v));
    }

    #[test]
    fn from_impls_cover_common_types() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3u64), Value::Int(3));
        assert_eq!(Value::from(vec![1i64, 2]), jarr());
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(7i64)), Value::Int(7));
        fn jarr() -> Value {
            Value::Array(vec![Value::Int(1), Value::Int(2)])
        }
    }
}

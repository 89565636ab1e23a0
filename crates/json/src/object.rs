//! Insertion-ordered JSON object.

use crate::Value;
use std::fmt;

/// Longest key stored inline.
const INLINE_KEY: usize = 22;

/// A member key. Nearly every key MonSTer writes is a short literal
/// (`"time"`, `"value"`, a BMC address), and a dashboard document holds
/// 10⁵ two-member point objects: keys up to [`INLINE_KEY`] bytes are kept
/// inline so that such an object is one allocation to build and one to
/// free, not three. The size equals `String`'s.
#[derive(Clone)]
enum Key {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Heap(Box<str>),
}

impl Key {
    fn new(key: impl AsRef<str> + Into<String>) -> Key {
        let s = key.as_ref();
        if s.len() <= INLINE_KEY {
            let mut bytes = [0; INLINE_KEY];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Key::Inline { len: s.len() as u8, bytes }
        } else {
            Key::Heap(key.into().into_boxed_str())
        }
    }

    /// The key's bytes, for comparisons (no validation).
    fn as_bytes(&self) -> &[u8] {
        match self {
            Key::Inline { len, bytes } => &bytes[..*len as usize],
            Key::Heap(s) => s.as_bytes(),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            // Re-validated on every read: ≈ 7 ns a key, which the encoder
            // feels (+6 % on a point-heavy document) and `unsafe` would
            // save; the two frees saved per object are worth four times it.
            Key::Inline { .. } => std::str::from_utf8(self.as_bytes()).expect("copied from a str"),
            Key::Heap(s) => s,
        }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A JSON object that preserves member insertion order.
///
/// Backed by a `Vec` of pairs plus linear search: MonSTer's documents are
/// small (a Redfish Thermal payload has a few dozen members), so a vector
/// beats a hash map on both memory and iteration determinism.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Object {
    members: Vec<(Key, Value)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object { members: Vec::new() }
    }

    /// An empty object with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Object { members: Vec::with_capacity(cap) }
    }

    /// Insert or replace a member. Replacement keeps the member's original
    /// position (JSON objects are keyed, not multisets).
    pub fn insert(&mut self, key: impl AsRef<str> + Into<String>, value: impl Into<Value>) {
        let value = value.into();
        if let Some(slot) =
            self.members.iter_mut().find(|(k, _)| k.as_bytes() == key.as_ref().as_bytes())
        {
            slot.1 = value;
        } else {
            self.members.push((Key::new(key), value));
        }
    }

    /// Look a member up by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.members.iter().find(|(k, _)| k.as_bytes() == key.as_bytes()).map(|(_, v)| v)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.members.iter_mut().find(|(k, _)| k.as_bytes() == key.as_bytes()).map(|(_, v)| v)
    }

    /// Remove a member, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.members.iter().position(|(k, _)| k.as_bytes() == key.as_bytes())?;
        Some(self.members.remove(idx).1)
    }

    /// Whether a member with this key exists.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the object has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterate members in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.members.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.members.iter().map(|(k, _)| k.as_str())
    }
}

impl FromIterator<(String, Value)> for Object {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut obj = Object::new();
        for (k, v) in iter {
            obj.insert(k, v);
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_insertion_order() {
        let mut o = Object::new();
        o.insert("z", 1i64);
        o.insert("a", 2i64);
        o.insert("m", 3i64);
        let keys: Vec<_> = o.keys().collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn insert_replaces_in_place() {
        let mut o = Object::new();
        o.insert("a", 1i64);
        o.insert("b", 2i64);
        o.insert("a", 10i64);
        assert_eq!(o.len(), 2);
        assert_eq!(o.get("a").unwrap().as_i64(), Some(10));
        assert_eq!(o.keys().next(), Some("a"));
    }

    #[test]
    fn remove_and_contains() {
        let mut o = Object::new();
        o.insert("a", 1i64);
        assert!(o.contains_key("a"));
        assert_eq!(o.remove("a").unwrap().as_i64(), Some(1));
        assert!(!o.contains_key("a"));
        assert!(o.remove("a").is_none());
        assert!(o.is_empty());
    }

    #[test]
    fn keys_behave_alike_inline_and_on_the_heap() {
        // 22 bytes is the longest inline key; multi-byte characters count
        // by their bytes (11 two-byte letters fill it exactly).
        let keys = [
            String::new(),
            "time".to_string(),
            "k".repeat(INLINE_KEY),
            "k".repeat(INLINE_KEY + 1),
            "é".repeat(INLINE_KEY / 2),
            "é".repeat(INLINE_KEY / 2 + 1),
            "a rather long key, well past what fits inline".to_string(),
        ];
        let mut o = Object::new();
        for (i, k) in keys.iter().enumerate() {
            o.insert(k, i as i64); // `&String`
        }
        assert_eq!(
            o.keys().collect::<Vec<_>>(),
            keys.iter().map(String::as_str).collect::<Vec<_>>()
        );
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(o.get(k).unwrap().as_i64(), Some(i as i64));
            o.insert(k.clone(), -(i as i64)); // owned `String`: replaces in place
        }
        assert_eq!(o.len(), keys.len());
        assert_eq!(o.get(&keys[3]).unwrap().as_i64(), Some(-3));
        let copy = o.clone();
        assert_eq!(copy, o);
        assert_eq!(format!("{:?}", Key::new("time")), format!("{:?}", "time"));
        assert_eq!(std::mem::size_of::<Key>(), std::mem::size_of::<String>());
        assert_eq!(o.remove(&keys[2]).unwrap().as_i64(), Some(-2));
        assert!(!o.contains_key(&keys[2]) && o.contains_key(&keys[3]));
    }
}

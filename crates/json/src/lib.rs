//! `monster-json` — a self-contained JSON implementation.
//!
//! MonSTer's public surfaces are JSON over HTTP: the Redfish resource tree,
//! the Metrics Builder API responses, and the stored job metadata all use
//! JSON documents. The workspace policy allows only a small set of external
//! crates (no `serde_json`), so this crate provides the JSON [`Value`]
//! model, a recursive-descent [`parse`](parse()), and compact/pretty
//! serializers.
//!
//! Design notes:
//! * Object member order is **preserved** (insertion order) — Redfish
//!   payloads and the paper's sample data points are reproduced verbatim in
//!   docs and goldens, so deterministic ordering matters.
//! * Numbers are stored as `f64` with an integer fast path on
//!   serialization; this matches what InfluxDB's JSON results carry.

#![warn(missing_docs)]

mod object;
mod parse;
mod ser;
mod value;

pub use object::Object;
pub use parse::parse;
pub use ser::{f64_display_len, write_f64, write_i64, write_str};
pub use value::Value;

/// Build an object [`Value`] literal concisely in tests and examples.
///
/// ```
/// use monster_json::{jobj, Value};
/// let v = jobj! {
///     "measurement" => "Power",
///     "reading" => 273.8,
/// };
/// assert_eq!(v.get("measurement").unwrap().as_str(), Some("Power"));
/// ```
#[macro_export]
macro_rules! jobj {
    { $($k:expr => $v:expr),* $(,)? } => {{
        #[allow(unused_mut)]
        let mut obj = $crate::Object::with_capacity(0 $( + { let _ = stringify!($k); 1 } )*);
        $( obj.insert($k, $crate::Value::from($v)); )*
        $crate::Value::Object(obj)
    }};
}

/// Build a JSON array [`Value`] from a list of convertible expressions.
#[macro_export]
macro_rules! jarr {
    [ $($v:expr),* $(,)? ] => {
        $crate::Value::Array(vec![ $( $crate::Value::from($v) ),* ])
    };
}

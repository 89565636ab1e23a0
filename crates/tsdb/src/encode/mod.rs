//! Block codecs for columnar storage.
//!
//! Each sealed block stores one column's worth of data for up to
//! [`crate::column::BLOCK_SIZE`] points:
//!
//! * [`timestamps`] — Gorilla delta-of-delta (regular 60 s collection
//!   cadence encodes to ~1 bit per sample);
//! * [`floats`] — Gorilla XOR float compression (slow-moving sensor
//!   readings share exponents/mantissa prefixes);
//! * [`ints`] — zig-zag varint delta (epoch times, binary state codes);
//! * [`bools`] — bit packing;
//! * [`strings`] — per-block dictionary or raw, whichever encodes
//!   smaller (job-list strings repeat heavily between adjacent
//!   intervals; all-distinct blocks skip the dictionary overhead).

pub mod bools;
pub mod floats;
pub mod ints;
pub mod strings;
pub mod timestamps;

use monster_util::{Error, Result};

/// Append `v` as an LEB128 varint (7 bits a byte, low group first).
pub(crate) fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Read one LEB128 varint at `*pos`, advancing it.
pub(crate) fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*pos).ok_or_else(|| Error::Corrupt("varint truncated".into()))?;
        *pos += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::Corrupt("varint overlong".into()));
        }
    }
}

/// Read one length-prefixed UTF-8 string at `*pos`, advancing it. The
/// length is checked against the bytes that are there before anything is
/// allocated for it.
pub(crate) fn read_string(data: &[u8], pos: &mut usize) -> Result<String> {
    let len = read_varint(data, pos)?;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .filter(|&e| e <= data.len())
        .ok_or_else(|| Error::Corrupt("string truncated".into()))?;
    let s = std::str::from_utf8(&data[*pos..end])
        .map_err(|_| Error::Corrupt("string not UTF-8".into()))?;
    *pos = end;
    Ok(s.to_string())
}

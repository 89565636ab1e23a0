//! The record: one batch after id resolution, in binary — the one way the
//! store writes a batch down. The WAL logs each write batch as one
//! ([`crate::wal`]); cold-tier segment files and snapshots hold a shard's or
//! the database's values cut into them ([`crate::snapshot`]).
//!
//! ```text
//! payload := point*                          (to the end of the frame)
//! point   := series ts:zz nfields:uv field{nfields}             nfields >= 1
//! series  := 0 str(measurement) ntags:uv (str(key) str(value)){ntags}
//!          | id+1:uv                         id < series defined so far
//! field   := name type:u8 value
//! name    := 0 str(name)
//!          | id+1:uv                         id < field names defined so far
//! value   := type 0: f64 bits, 8 bytes LE    type 1: i64 as zz
//!          | type 2: one byte, 0 or 1        type 3: str
//! uv      := LEB128 varint
//! zz      := zig-zag varint; `ts` is the wrapping difference to the
//!            previous point of the record (to 0 for the first)
//! str     := len:uv bytes[len]               (UTF-8)
//! ```
//!
//! # Segment-local ids
//!
//! A series key or field name is spelled out once per *file* (a WAL
//! segment, a `.seg` file, a snapshot), the first time a record of that
//! file refers to it (`0` + definition), and
//! takes the next id of its kind: definitions are numbered 0, 1, 2, … in
//! file order. Every later use is `id + 1`. The ids mean nothing outside
//! the file, so each `wal-<seq>.log` replays on its own after its
//! predecessors were reclaimed, and a definition and its first use share
//! one CRC frame. A reference is valid iff it is below the number of
//! definitions the reader has seen in that file — one comparison, and no
//! table an on-disk byte can size. The writer's half of the rule is
//! [`SegmentDict`]; the reader's is the two counts [`decode`] takes.

use crate::encode::timestamps::{unzigzag, zigzag};
use crate::encode::{push_varint, read_string, read_varint};
use crate::field::FieldValue;
use crate::point::DataPoint;
use crate::series::{FieldId, SeriesId, SeriesKey};
use crate::wal::MAX_RECORD_BYTES;
use monster_util::{Error, Result};

const TYPE_FLOAT: u8 = 0;
const TYPE_INT: u8 = 1;
const TYPE_BOOL: u8 = 2;
const TYPE_STR: u8 = 3;

/// What the active segment has defined so far — appender state, consulted
/// and extended under the appender's mutex (so two writers can neither both
/// define a series nor both assume the other did), cleared at every roll.
#[derive(Debug, Default)]
pub struct SegmentDict {
    /// By database-wide id: the reference to write (segment-local id + 1),
    /// or 0 while the segment has not defined it.
    series: Vec<u32>,
    fields: Vec<u32>,
    /// `(series, field names)` defined.
    defined: (u32, u32),
}

/// The reference to write for `id`; `None` the first time the segment meets
/// it — the caller writes the definition, which takes the next local id.
fn refer(refs: &mut Vec<u32>, defined: &mut u32, id: u32) -> Option<u32> {
    let at = id as usize;
    if at >= refs.len() {
        refs.resize(at + 1, 0);
    }
    if refs[at] != 0 {
        return Some(refs[at]);
    }
    *defined += 1;
    refs[at] = *defined;
    None
}

impl SegmentDict {
    /// Start a new segment: nothing is defined. Keeps its capacity.
    pub fn clear(&mut self) {
        self.series.clear();
        self.fields.clear();
        self.defined = (0, 0);
    }

    /// `(series, field names)` defined so far.
    pub fn defined(&self) -> (u32, u32) {
        self.defined
    }

    /// Back to `defined` definitions: the record that made the later ones —
    /// all of them for ids among `series` and `fields` — did not reach the
    /// file.
    pub fn rewind(&mut self, defined: (u32, u32), series: &[SeriesId], fields: &[FieldId]) {
        let forget = |refs: &mut Vec<u32>, keep: u32, id: u32| match refs.get_mut(id as usize) {
            Some(r) if *r > keep => *r = 0,
            _ => {}
        };
        series.iter().for_each(|s| forget(&mut self.series, defined.0, s.0));
        fields.iter().for_each(|f| forget(&mut self.fields, defined.1, f.0));
        self.defined = defined;
    }
}

fn too_large() -> Error {
    Error::invalid(format!("batch does not fit one WAL record of {MAX_RECORD_BYTES} bytes"))
}

/// Append `s`, length-prefixed — refusing before the copy when it would
/// take the record (which starts at `out[start]`) past its limit.
fn put_str(out: &mut Vec<u8>, start: usize, s: &str) -> Result<()> {
    if out.len() - start + s.len() > MAX_RECORD_BYTES {
        return Err(too_large());
    }
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// One point of a batch as the series index resolved it — what [`encode`]
/// writes. The spellings are read only for what the file has not met.
pub struct Point<'a, F> {
    /// The point's series.
    pub series: SeriesId,
    /// The series' measurement.
    pub measurement: &'a str,
    /// The series' tags, in any order (the reader sorts them).
    pub tags: &'a [(String, String)],
    /// Timestamp, epoch seconds.
    pub ts: i64,
    /// Its fields in point order: id, name, value.
    pub fields: F,
}

/// `batch` as [`Point`]s: `series[i]` is point `i`'s id and `fields` holds
/// every point's field ids back to back, as [`crate::Db::write_batch`]
/// resolved them.
pub fn batch_points<'a>(
    batch: &'a [DataPoint],
    series: &'a [SeriesId],
    fields: &'a [FieldId],
) -> impl Iterator<Item = Point<'a, impl ExactSizeIterator<Item = (FieldId, &'a str, &'a FieldValue)>>>
{
    assert_eq!(batch.len(), series.len(), "one series id per point");
    let mut next_field = 0usize;
    batch.iter().zip(series).map(move |(p, &series)| {
        let ids = &fields[next_field..next_field + p.fields.len()];
        next_field += p.fields.len();
        let fields =
            ids.iter().zip(&p.fields).map(|(&id, (name, value))| (id, name.as_str(), value));
        Point { series, measurement: &p.measurement, tags: &p.tags, ts: p.time.as_secs(), fields }
    })
}

/// Append `points` to `out` as one record payload; what `dict` has not
/// defined yet is defined inline from the point in hand.
///
/// A batch that does not fit [`MAX_RECORD_BYTES`] is refused part-way:
/// the caller drops what `out` gained and [rewinds](SegmentDict::rewind)
/// `dict`, as for a record that failed to reach the file.
pub fn encode<'a, F>(
    points: impl Iterator<Item = Point<'a, F>>,
    dict: &mut SegmentDict,
    out: &mut Vec<u8>,
) -> Result<()>
where
    F: ExactSizeIterator<Item = (FieldId, &'a str, &'a FieldValue)>,
{
    let start = out.len();
    let mut prev_ts = 0i64;
    for p in points {
        match refer(&mut dict.series, &mut dict.defined.0, p.series.0) {
            Some(r) => push_varint(out, r as u64),
            None => {
                out.push(0);
                put_str(out, start, p.measurement)?;
                push_varint(out, p.tags.len() as u64);
                for (k, v) in p.tags {
                    put_str(out, start, k)?;
                    put_str(out, start, v)?;
                }
            }
        }
        push_varint(out, zigzag(p.ts.wrapping_sub(prev_ts)));
        prev_ts = p.ts;
        push_varint(out, p.fields.len() as u64);
        for (fid, name, value) in p.fields {
            match refer(&mut dict.fields, &mut dict.defined.1, fid.0) {
                Some(r) => push_varint(out, r as u64),
                None => {
                    out.push(0);
                    put_str(out, start, name)?;
                }
            }
            match value {
                FieldValue::Float(x) => {
                    out.push(TYPE_FLOAT);
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
                FieldValue::Int(x) => {
                    out.push(TYPE_INT);
                    push_varint(out, zigzag(*x));
                }
                FieldValue::Bool(x) => out.extend_from_slice(&[TYPE_BOOL, *x as u8]),
                FieldValue::Str(s) => {
                    out.push(TYPE_STR);
                    put_str(out, start, s)?;
                }
            }
        }
        if out.len() - start > MAX_RECORD_BYTES {
            return Err(too_large());
        }
    }
    Ok(())
}

/// One point of a decoded record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordPoint {
    /// Segment-local series id.
    pub series: u32,
    /// Timestamp, epoch seconds.
    pub ts: i64,
    /// How many of [`Record::fields`] are this point's.
    pub fields: u32,
}

/// A decoded record. Ids are segment-local; the definitions the record
/// itself makes take the ids after those [`decode`] was told of, in order.
#[derive(Debug, Default)]
pub struct Record {
    /// Series the record defines (tags in canonical order).
    pub series_defs: Vec<SeriesKey>,
    /// Field names the record defines.
    pub field_defs: Vec<String>,
    /// Its points, in batch order.
    pub points: Vec<RecordPoint>,
    /// Every point's `(segment-local field id, value)`s, back to back.
    pub fields: Vec<(u32, FieldValue)>,
}

fn corrupt(what: &str) -> Error {
    Error::Corrupt(format!("WAL record: {what}"))
}

/// Resolve a reference read from the payload against the `known`
/// definitions of its kind: `(id, defines)`, where 0 defines id `known`
/// and `r` refers to id `r - 1`.
fn local_id(r: u64, known: u64) -> Result<(u32, bool)> {
    let (id, defines) = match r.checked_sub(1) {
        None => (known, true),
        Some(id) if id < known => (id, false),
        Some(_) => return Err(corrupt("reference past the segment's definitions")),
    };
    Ok((u32::try_from(id).map_err(|_| corrupt("too many definitions"))?, defines))
}

/// The next `n` bytes at `*pos`, advancing it.
fn take<'a>(payload: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    let bytes = payload.get(*pos..*pos + n).ok_or_else(|| corrupt("value truncated"))?;
    *pos += n;
    Ok(bytes)
}

/// Decode one record payload into `out` (cleared first; its buffers are
/// reused from record to record), given the definitions earlier records of
/// the same segment file made. Nothing is sized from a count or length in
/// the payload: strings are checked against the bytes that are there before
/// they are copied and every list grows by what was actually read.
pub fn decode(
    payload: &[u8],
    series_defined: u32,
    fields_defined: u32,
    out: &mut Record,
) -> Result<()> {
    out.series_defs.clear();
    out.field_defs.clear();
    out.points.clear();
    out.fields.clear();
    let mut pos = 0usize;
    let mut ts = 0i64;
    while pos < payload.len() {
        let known = series_defined as u64 + out.series_defs.len() as u64;
        let (series, defines) = local_id(read_varint(payload, &mut pos)?, known)?;
        if defines {
            let measurement = read_string(payload, &mut pos)?;
            if measurement.is_empty() {
                return Err(corrupt("empty measurement"));
            }
            let mut tags = Vec::new();
            for _ in 0..read_varint(payload, &mut pos)? {
                tags.push((read_string(payload, &mut pos)?, read_string(payload, &mut pos)?));
            }
            tags.sort();
            out.series_defs.push(SeriesKey { measurement, tags });
        }
        ts = ts.wrapping_add(unzigzag(read_varint(payload, &mut pos)?));
        let fields = u32::try_from(read_varint(payload, &mut pos)?)
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| corrupt("point without fields, or with too many"))?;
        for _ in 0..fields {
            let known = fields_defined as u64 + out.field_defs.len() as u64;
            let (field, defines) = local_id(read_varint(payload, &mut pos)?, known)?;
            if defines {
                out.field_defs.push(read_string(payload, &mut pos)?);
            }
            let value = match take(payload, &mut pos, 1)?[0] {
                TYPE_FLOAT => {
                    let bits = take(payload, &mut pos, 8)?.try_into().expect("eight bytes taken");
                    FieldValue::Float(f64::from_bits(u64::from_le_bytes(bits)))
                }
                TYPE_INT => FieldValue::Int(unzigzag(read_varint(payload, &mut pos)?)),
                TYPE_BOOL => match take(payload, &mut pos, 1)?[0] {
                    b @ 0..=1 => FieldValue::Bool(b == 1),
                    _ => return Err(corrupt("boolean is neither 0 nor 1")),
                },
                TYPE_STR => FieldValue::Str(read_string(payload, &mut pos)?),
                _ => return Err(corrupt("unknown value type")),
            };
            out.fields.push((field, value));
        }
        out.points.push(RecordPoint { series, ts, fields });
    }
    Ok(())
}

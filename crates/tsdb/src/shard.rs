//! Time-partitioned shards.
//!
//! The database splits the timeline into fixed-duration shards (default one
//! day, like InfluxDB's retention-policy shard groups). A query only opens
//! the shards overlapping its time range — the reason query time grows with
//! time range in Fig. 10.
//!
//! Since the sharded-lock engine rework, each shard lives behind its own
//! `RwLock` inside [`crate::db::Db`]: writers to different shards append in
//! parallel, and readers hold a shard's read lock for one scan at a time
//! (`Db::query_batch`). Columns are keyed by `(SeriesId, FieldId)` — both
//! dense `u32` ids resolved up front in the series index — so the append
//! hot path does no string hashing and no key allocation.

use crate::column::Column;
use crate::field::FieldValue;
use crate::series::{fold, FieldId, SeriesId, K};
use monster_util::Result;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The column map's hasher: one multiply-fold over `series << 32 | field`.
/// It needs no seed, unlike the series index's: both ids are dense numbers
/// the index hands out, so no client can choose a key's bucket, and the
/// map's order reaches nothing stored ([`Shard::export`] sorts its keys).
#[derive(Default)]
struct IdFold(u64);

impl Hasher for IdFold {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a column key is two u32 ids");
    }
    fn write_u32(&mut self, id: u32) {
        self.0 = self.0 << 32 | u64::from(id);
    }
    fn finish(&self) -> u64 {
        fold(self.0, K)
    }
}

/// One shard: `[start, end)` on the epoch-seconds timeline.
#[derive(Debug)]
pub struct Shard {
    /// Inclusive start (epoch seconds).
    pub start: i64,
    /// Exclusive end (epoch seconds).
    pub end: i64,
    /// Per-series, per-field columns.
    columns: HashMap<(SeriesId, FieldId), Column, BuildHasherDefault<IdFold>>,
    point_count: usize,
    /// Incrementally-maintained sum of the columns' encoded bytes, so the
    /// engine's size accounting is O(1) per operation.
    encoded: usize,
    /// Set once tiering has exported this shard to an immutable segment
    /// file: scans of a cold shard are priced by the cold-tier disk model
    /// and its WAL records are reclaimable. Data stays readable in place.
    cold: bool,
}

impl Shard {
    /// An empty shard covering `[start, end)`.
    pub fn new(start: i64, end: i64) -> Self {
        assert!(end > start);
        Shard { start, end, columns: HashMap::default(), point_count: 0, encoded: 0, cold: false }
    }

    /// True when `ts` belongs to this shard.
    pub fn covers(&self, ts: i64) -> bool {
        ts >= self.start && ts < self.end
    }

    /// Append one field value for a series. The `(series, field)` key is
    /// two `Copy` ids — zero allocations in the steady state (the column
    /// exists and its tail has capacity).
    pub fn append(
        &mut self,
        series: SeriesId,
        field: FieldId,
        ts: i64,
        value: &FieldValue,
    ) -> Result<()> {
        debug_assert!(self.covers(ts));
        let col = self.columns.entry((series, field)).or_insert_with(|| Column::new(value));
        let before = col.encoded_bytes();
        col.append(ts, value)?;
        self.encoded = self.encoded + col.encoded_bytes() - before;
        self.point_count += 1;
        Ok(())
    }

    /// Append a span of same-`(series, field)` points from the write path's
    /// sorted batch: one column lookup for the whole span, then per-point
    /// appends (values are heterogeneously typed `FieldValue`s, so the type
    /// check stays per point, preserving partial-apply error semantics).
    /// `applied` counts points that landed before any error.
    pub fn append_span(
        &mut self,
        series: SeriesId,
        field: FieldId,
        pts: &[(SeriesId, FieldId, i64, &FieldValue)],
        applied: &mut usize,
    ) -> Result<()> {
        let Some(first) = pts.first() else { return Ok(()) };
        debug_assert!(pts
            .iter()
            .all(|&(s, f, ts, _)| (s, f) == (series, field) && self.covers(ts)));
        let col = self.columns.entry((series, field)).or_insert_with(|| Column::new(first.3));
        let before = col.encoded_bytes();
        let mut res = Ok(());
        for &(_, _, ts, value) in pts {
            if let Err(e) = col.append(ts, value) {
                res = Err(e);
                break;
            }
            self.point_count += 1;
            *applied += 1;
        }
        self.encoded = self.encoded + col.encoded_bytes() - before;
        res
    }

    /// One series' field in this shard, if it has been written. Readers
    /// scan it ([`Column::scan_with`], [`Column::scan_agg_with`]) while
    /// holding the shard's read lock.
    pub fn column(&self, series: SeriesId, field: FieldId) -> Option<&Column> {
        self.columns.get(&(series, field))
    }

    /// Visit every stored (series, field, timestamp, value) in the shard,
    /// columns in `(SeriesId, FieldId)` order: a segment file or snapshot
    /// is then a function of the data, not of this process's hash seed.
    pub fn export(&self, mut f: impl FnMut(SeriesId, FieldId, i64, FieldValue)) -> Result<()> {
        let mut keys = self.column_keys();
        keys.sort_unstable();
        for (series, field) in keys {
            self.columns[&(series, field)]
                .scan(i64::MIN, i64::MAX, |ts, v| f(series, field, ts, v))?;
        }
        Ok(())
    }

    /// Field values appended in this shard (counts each field write once).
    pub fn point_count(&self) -> usize {
        self.point_count
    }

    /// Encoded at-rest bytes across all columns (O(1), maintained
    /// incrementally on append and seal).
    pub fn encoded_bytes(&self) -> usize {
        self.encoded
    }

    /// Compact: seal every column's raw tail into compressed blocks.
    /// Returns the number of columns sealed.
    pub fn compact(&mut self) -> usize {
        let mut sealed = 0usize;
        for col in self.columns.values_mut() {
            let before = col.encoded_bytes();
            if col.seal_now() {
                sealed += 1;
            }
            self.encoded = self.encoded + col.encoded_bytes() - before;
        }
        sealed
    }

    /// Raw (unsealed) points across all columns.
    pub fn tail_points(&self) -> usize {
        self.columns.values().map(Column::tail_len).sum()
    }

    /// Mark the shard as tiered to cold storage (see `cold`).
    pub fn mark_cold(&mut self) {
        self.cold = true;
    }

    /// True once tiering has exported this shard to an immutable segment
    /// file on the cold tier.
    pub fn is_cold(&self) -> bool {
        self.cold
    }

    /// The (series, field) keys of every column in this shard.
    pub fn column_keys(&self) -> Vec<(SeriesId, FieldId)> {
        self.columns.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_is_half_open() {
        let s = Shard::new(0, 86_400);
        assert!(s.covers(0));
        assert!(s.covers(86_399));
        assert!(!s.covers(86_400));
        assert!(!s.covers(-1));
    }

    #[test]
    fn append_routes_to_columns() {
        let mut s = Shard::new(0, 1000);
        let sid = SeriesId(0);
        let (reading, other) = (FieldId(0), FieldId(1));
        s.append(sid, reading, 10, &FieldValue::Float(1.0)).unwrap();
        s.append(sid, reading, 20, &FieldValue::Float(2.0)).unwrap();
        s.append(sid, other, 10, &FieldValue::Int(5)).unwrap();
        assert_eq!(s.point_count(), 3);
        assert_eq!(s.columns.len(), 2);
        let mut seen = Vec::new();
        s.column(sid, reading).unwrap().scan(0, 1000, |t, v| seen.push((t, v))).unwrap();
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn missing_column_is_none() {
        let s = Shard::new(0, 1000);
        assert!(s.column(SeriesId(9), FieldId(7)).is_none());
    }

    #[test]
    fn append_span_counts_partial_applies() {
        let mut s = Shard::new(0, 1000);
        let sid = SeriesId(0);
        let fid = FieldId(0);
        let good = FieldValue::Float(1.0);
        let bad = FieldValue::Int(2);
        let pts = vec![(sid, fid, 1i64, &good), (sid, fid, 2, &good), (sid, fid, 3, &bad)];
        let mut applied = 0usize;
        let err = s.append_span(sid, fid, &pts, &mut applied).unwrap_err();
        assert!(err.to_string().contains("type conflict"));
        assert_eq!(applied, 2);
        assert_eq!(s.point_count(), 2);
    }

    #[test]
    fn compact_keeps_encoded_counter_consistent() {
        let mut s = Shard::new(0, 100_000);
        for i in 0..500 {
            s.append(SeriesId(0), FieldId(0), i, &FieldValue::Float(250.0)).unwrap();
        }
        let raw = s.encoded_bytes();
        assert_eq!(s.compact(), 1);
        assert!(s.encoded_bytes() < raw, "sealing should shrink at-rest bytes");
        assert_eq!(s.tail_points(), 0);
    }
}

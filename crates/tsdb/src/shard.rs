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
//! (`Db::answer`). A column is found by its `(SeriesId, FieldId)` — both
//! dense `u32` ids resolved up front in the series index — through a table
//! indexed by the series id: one load gives the series' first column, and
//! its few fields are chained from there. The append hot path does no
//! hashing, no string work and no allocation.

use crate::column::{Column, DecodeScratch};
use crate::field::FieldValue;
use crate::series::{FieldId, SeriesId};
use monster_util::Result;
use std::sync::Arc;

/// The end of a series' column chain.
const END: u32 = u32::MAX;

/// A column and its place in its series' chain.
#[derive(Debug)]
struct Slot {
    series: SeriesId,
    field: FieldId,
    /// The series' next column in [`Shard::slots`], or [`END`].
    next: u32,
    column: Column,
}

/// One shard: `[start, end)` on the epoch-seconds timeline.
#[derive(Debug)]
pub struct Shard {
    /// Inclusive start (epoch seconds).
    pub start: i64,
    /// Exclusive end (epoch seconds).
    pub end: i64,
    /// `first[series]`: the series' first column in `slots`, or [`END`].
    first: Vec<u32>,
    /// Every column, in creation order.
    slots: Vec<Slot>,
    point_count: usize,
    /// Incrementally-maintained sum of the columns' encoded bytes, so the
    /// engine's size accounting is O(1) per operation.
    encoded: usize,
    /// Set once tiering has exported this shard to an immutable segment
    /// file: scans of a cold shard are priced by the cold-tier disk model
    /// and its WAL records are reclaimable. Data stays readable in place.
    cold: bool,
    /// `monster_tsdb_shard_points{shard=…}`, registered by the first write
    /// ([`Shard::points_gauge`]).
    points_gauge: Option<Arc<monster_obs::Gauge>>,
}

impl Shard {
    /// An empty shard covering `[start, end)`.
    pub fn new(start: i64, end: i64) -> Self {
        assert!(end > start);
        Shard {
            start,
            end,
            first: Vec::new(),
            slots: Vec::new(),
            point_count: 0,
            encoded: 0,
            cold: false,
            points_gauge: None,
        }
    }

    /// The gauge the write path sets to [`Shard::point_count`], looked up
    /// by name once for the shard's life, not once a batch.
    pub(crate) fn points_gauge(&mut self, obs: &monster_obs::Registry) -> Arc<monster_obs::Gauge> {
        let start = self.start;
        let gauge = self.points_gauge.get_or_insert_with(|| {
            obs.gauge(&format!("monster_tsdb_shard_points{{shard=\"{start}\"}}"))
        });
        Arc::clone(gauge)
    }

    /// True when `ts` belongs to this shard.
    pub fn covers(&self, ts: i64) -> bool {
        ts >= self.start && ts < self.end
    }

    /// Append a span of same-`(series, field)` points from the write path's
    /// sorted batch: one column lookup for the whole span, then per-point
    /// appends (values are heterogeneously typed `FieldValue`s, so the type
    /// check stays per point, preserving partial-apply error semantics).
    /// `applied` counts points that landed before any error. The key is two
    /// `Copy` ids: zero allocations in the steady state (the column exists
    /// and its tail has capacity).
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
        let at = match self.find(series, field) {
            Some(at) => at,
            None => self.insert(series, field, Column::new(first.3)),
        };
        let col = &mut self.slots[at].column;
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
    /// scan it ([`Column::scan_with`], [`Column::scan_agg`]) while
    /// holding the shard's read lock.
    pub fn column(&self, series: SeriesId, field: FieldId) -> Option<&Column> {
        self.find(series, field).map(|at| &self.slots[at].column)
    }

    /// The slot of `(series, field)`: the series' entry in `first`, then
    /// along its chain.
    fn find(&self, series: SeriesId, field: FieldId) -> Option<usize> {
        let mut at = *self.first.get(series.0 as usize)?;
        while at != END {
            let slot = &self.slots[at as usize];
            if slot.field == field {
                return Some(at as usize);
            }
            at = slot.next;
        }
        None
    }

    /// Put `column` at the head of `series`' chain; returns its slot.
    fn insert(&mut self, series: SeriesId, field: FieldId, column: Column) -> usize {
        let s = series.0 as usize;
        if s >= self.first.len() {
            self.first.resize(s + 1, END);
        }
        let at = self.slots.len();
        self.slots.push(Slot { series, field, next: self.first[s], column });
        self.first[s] = u32::try_from(at).expect("fewer than u32::MAX columns a shard");
        at
    }

    /// Visit every stored (series, field, timestamp, value) in the shard,
    /// columns in `(SeriesId, FieldId)` order: a segment file or snapshot
    /// is then a function of the data, not of the order its columns were
    /// first written in.
    /// Every column decodes into one scratch.
    pub fn export(&self, mut f: impl FnMut(SeriesId, FieldId, i64, FieldValue)) -> Result<()> {
        let mut order: Vec<&Slot> = self.slots.iter().collect();
        order.sort_unstable_by_key(|slot| (slot.series, slot.field));
        let mut scratch = DecodeScratch::new();
        for &Slot { series, field, ref column, .. } in order {
            column.scan_with(&mut scratch, i64::MIN, i64::MAX, |ts, v| f(series, field, ts, v))?;
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
        for Slot { column: col, .. } in &mut self.slots {
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
        self.slots.iter().map(|slot| slot.column.tail_len()).sum()
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
        self.slots.iter().map(|slot| (slot.series, slot.field)).collect()
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
        let (one, two, five) = (FieldValue::Float(1.0), FieldValue::Float(2.0), FieldValue::Int(5));
        let mut applied = 0;
        s.append_span(
            sid,
            reading,
            &[(sid, reading, 10, &one), (sid, reading, 20, &two)],
            &mut applied,
        )
        .unwrap();
        s.append_span(sid, other, &[(sid, other, 10, &five)], &mut applied).unwrap();
        assert_eq!((s.point_count(), applied), (3, 3));
        assert_eq!(s.slots.len(), 2);
        let mut seen = Vec::new();
        let col = s.column(sid, reading).unwrap();
        col.scan_with(&mut DecodeScratch::new(), 0, 1000, |t, v| seen.push((t, v))).unwrap();
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
        let (sid, fid, v) = (SeriesId(0), FieldId(0), FieldValue::Float(250.0));
        let span: Vec<_> = (0..500).map(|i| (sid, fid, i, &v)).collect();
        s.append_span(sid, fid, &span, &mut 0).unwrap();
        let raw = s.encoded_bytes();
        assert_eq!(s.compact(), 1);
        assert!(s.encoded_bytes() < raw, "sealing should shrink at-rest bytes");
        assert_eq!(s.tail_points(), 0);
    }
}

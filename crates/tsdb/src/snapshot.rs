//! Sealed files: cold-tier segment files.
//!
//! MonSTer's "out-of-the-box" story includes surviving a restart of the
//! storage host without losing the collected history. A segment file
//! (`shard-<start>.seg`, written by [`Db::tier_cold_shards`] and loaded by
//! [`Db::recover`]) is one shard of the database, held as what the WAL is —
//! CRC-framed binary records ([`crate::wal_record`]) with ids local to the
//! file — behind its own header:
//!
//! ```text
//! shard-<start>.seg := "MSEG3\n" frame* end
//! frame             := len:u32le crc32:u32le body[len]              len > 0
//! body              := zlib stream (RFC 1950, `monster_compress`) of one record payload
//! end               := len 0, crc32 0
//! ```
//!
//! The writer walks the stored values in `(shard, series, field, time)`
//! order and cuts a record every `RECORD_VALUES` of them, compressing and
//! writing each as it is finished, so it holds one record however large
//! the database; the reader is `Db::replay`, the WAL's, which applies one
//! record at a time. A file is written whole or not at all (`write_file`),
//! so unlike a WAL segment it has no torn tail: a frame that does not check
//! out, a missing end frame or a record that does not decode is an error.
//! `MSEG1` files held compressed line-protocol text, `MSEG2` files the same
//! records in a container private to this workspace; there is no reader for
//! either, and a file that opens with one is refused by name.

use crate::db::Db;
use crate::field::FieldValue;
use crate::recover::RecoveryReport;
use crate::series::{FieldId, SeriesId, SeriesIndex};
use crate::wal::{crc32, FRAME_HEADER};
use crate::wal_record::{self, Point, SegmentDict};
use monster_compress::Level;
use monster_util::{Error, Result};
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// The header of a cold-tier segment file, `shard-<start>.seg`.
pub(crate) const SEGMENT: &str = "MSEG3\n";

/// Values to a record: what a reload applies as one batch (a collection
/// interval's worth, ≈ 80 KB before compression at ≈ 8 B a reading).
const RECORD_VALUES: usize = 10_000;
/// A record is also cut once its string values pass this many bytes, so
/// that none outgrows [`crate::wal::MAX_RECORD_BYTES`].
const RECORD_STRING_BYTES: usize = 8 << 20;

/// What writing a sealed file wrote.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Points written (one per field value).
    pub points: usize,
    /// Bytes of the records before compression.
    pub raw_bytes: usize,
    /// Bytes of the file: header, frames of compressed records, end frame.
    pub stored_bytes: usize,
}

/// Write one sealed file of `kind` to `out`: `walk` is handed a visitor and
/// shows it every value to write, in order; series and fields are named from
/// `idx`. Each value becomes a one-field point, every [`RECORD_VALUES`] of
/// them a compressed, framed record, written before the next is gathered.
pub(crate) fn write_sealed(
    mut out: impl Write,
    kind: &str,
    idx: &SeriesIndex,
    walk: impl FnOnce(&mut dyn FnMut(SeriesId, FieldId, i64, FieldValue)) -> Result<()>,
) -> Result<SnapshotStats> {
    out.write_all(kind.as_bytes())?;
    let mut stats = SnapshotStats { stored_bytes: kind.len(), ..SnapshotStats::default() };
    let mut dict = SegmentDict::default();
    let mut record = Vec::new();
    let mut write_record = |chunk: &mut Vec<(SeriesId, FieldId, i64, FieldValue)>| -> Result<()> {
        let points = chunk.iter().map(|&(series, field, ts, ref value)| {
            let key = idx.key_of(series);
            let fields = std::iter::once((field, idx.field_name(field), value));
            Point { series, measurement: &key.measurement, tags: &key.tags, ts, fields }
        });
        record.clear();
        let encoded = wal_record::encode(points, &mut dict, &mut record);
        stats.points += chunk.len();
        chunk.clear();
        encoded?;
        let body = monster_compress::compress(&record, Level::default());
        out.write_all(&(body.len() as u32).to_le_bytes())?;
        out.write_all(&crc32(&body).to_le_bytes())?;
        out.write_all(&body)?;
        stats.raw_bytes += record.len();
        stats.stored_bytes += FRAME_HEADER + body.len();
        Ok(())
    };
    let mut chunk = Vec::with_capacity(RECORD_VALUES);
    let mut strings = 0usize;
    // The first failed write: the visitor returns nothing.
    let mut failed = None;
    walk(&mut |series, field, ts, value| {
        if let FieldValue::Str(s) = &value {
            strings += s.len();
        }
        chunk.push((series, field, ts, value));
        if chunk.len() >= RECORD_VALUES || strings >= RECORD_STRING_BYTES {
            strings = 0;
            if let Err(e) = write_record(&mut chunk) {
                failed.get_or_insert(e);
            }
        }
    })?;
    failed.map_or(Ok(()), Err)?;
    if !chunk.is_empty() {
        write_record(&mut chunk)?;
    }
    out.write_all(&[0u8; FRAME_HEADER])?; // the end frame
    stats.stored_bytes += FRAME_HEADER;
    Ok(stats)
}

/// Write the file at `path` so that it is there whole or not at all, and
/// durable when this returns: `write` fills `<path>.tmp`, which is fsynced
/// and renamed over `path`, and the directory is fsynced — only then may a
/// caller delete another copy of what the file holds.
pub(crate) fn write_file<T>(path: &Path, write: impl FnOnce(&mut File) -> Result<T>) -> Result<T> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = (|| {
        let mut file = File::create(&tmp)?;
        let value = write(&mut file)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(value)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Load a sealed file of `kind` — `src` holds its `len` bytes — into `db`:
/// the points it held. `what` names it in errors, as does the header found
/// where `kind` was expected (`MSEG1`, `MSEG2`: previous formats).
fn load(db: &Db, mut src: impl Read, len: u64, kind: &str, what: &str) -> Result<usize> {
    let mut magic = Vec::with_capacity(kind.len());
    src.by_ref().take(kind.len() as u64).read_to_end(&mut magic)?;
    if magic != kind.as_bytes() {
        return Err(Error::Corrupt(format!(
            "{what} opens with {:?}: unsupported, this release reads {kind:?} files only",
            String::from_utf8_lossy(&magic)
        )));
    }
    let mut tally = RecoveryReport::default();
    match db.replay(&mut src, len - kind.len() as u64, true, &[], &mut tally) {
        Ok(_) => Ok(tally.replayed_points),
        Err(Error::Corrupt(m)) => Err(Error::Corrupt(format!("{what}: {m}"))),
        Err(other) => Err(other),
    }
}

/// [`load`] the file at `path`.
pub(crate) fn load_file(db: &Db, path: &Path, kind: &str) -> Result<usize> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    load(db, file, len, kind, &path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use crate::query::Aggregation;
    use crate::{DataPoint, Query, SeriesKey};
    use monster_util::EpochSecs;

    fn batch() -> Vec<DataPoint> {
        let mut batch = Vec::new();
        for i in 0..500i64 {
            batch.push(
                DataPoint::new("Power", EpochSecs::new(i * 60))
                    .tag("NodeId", format!("10.101.1.{}", i % 4 + 1))
                    .tag("Label", "NodePower")
                    .field_f64("Reading", 250.0 + (i % 37) as f64),
            );
            if i % 10 == 0 {
                batch.push(
                    DataPoint::new("NodeJobs", EpochSecs::new(i * 60))
                        .tag("NodeId", format!("10.101.1.{}", i % 4 + 1))
                        .field_str("JobList", format!("['{}']", 1_290_000 + i)),
                );
            }
        }
        batch
    }

    fn seeded() -> Db {
        let db = Db::new(DbConfig::default());
        db.write_batch(&batch()).unwrap();
        db
    }

    /// `points` as a segment file, the way tiering seals a shard: every
    /// field value a one-field point, series and fields named from one index.
    fn seal(points: &[DataPoint], out: impl Write) -> Result<SnapshotStats> {
        let mut idx = SeriesIndex::new();
        let mut ids = Vec::new();
        for p in points {
            let series = idx.get_or_create(&SeriesKey::of(p));
            for (name, _) in &p.fields {
                ids.push((series, idx.intern_field(name)));
            }
        }
        let values = points.iter().flat_map(|p| p.fields.iter().map(|(_, v)| (p.time, v)));
        write_sealed(out, SEGMENT, &idx, |visit| {
            for (&(series, field), (ts, value)) in ids.iter().zip(values) {
                visit(series, field, ts.as_secs(), value.clone());
            }
            Ok(())
        })
    }

    /// Segment-file bytes loaded into a new database.
    fn unseal(bytes: &[u8]) -> Result<Db> {
        let db = Db::new(DbConfig::default());
        load(&db, bytes, bytes.len() as u64, SEGMENT, "segment")?;
        Ok(db)
    }

    fn query_all(db: &Db) -> crate::ResultSet {
        let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(500 * 60))
            .aggregate(Aggregation::Mean)
            .group_by_time(600);
        db.query(&q).unwrap().0
    }

    #[test]
    fn a_segment_round_trips_through_memory() {
        let db = seeded();
        let mut bytes = Vec::new();
        let stats = seal(&batch(), &mut bytes).unwrap();
        assert_eq!(stats.points, db.stats().points);
        assert_eq!(stats.stored_bytes, bytes.len());
        assert!(stats.stored_bytes < stats.raw_bytes / 3, "{stats:?}");
        let restored = unseal(&bytes).unwrap();
        assert_eq!(restored.stats().points, db.stats().points);
        assert_eq!(restored.stats().cardinality, db.stats().cardinality);
        assert_eq!(query_all(&restored), query_all(&db));
        // String fields survive too.
        let q = Query::select("NodeJobs", "JobList", EpochSecs::new(0), EpochSecs::new(500 * 60));
        let (a, _) = db.query(&q).unwrap();
        let (b, _) = restored.query(&q).unwrap();
        assert_eq!(a, b);
    }

    /// Zone-map summaries are rebuilt on reload: a reloaded-and-compacted
    /// engine answers windowed aggregations from summaries, identically.
    #[test]
    fn summaries_survive_a_segment_reload() {
        let db = seeded();
        db.compact();
        let mut bytes = Vec::new();
        seal(&batch(), &mut bytes).unwrap();
        let restored = unseal(&bytes).unwrap();
        restored.compact();
        let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(500 * 60))
            .aggregate(Aggregation::Mean)
            .group_by_time(500 * 60);
        let (rs_a, cost_a) = db.query(&q).unwrap();
        let (rs_b, cost_b) = restored.query(&q).unwrap();
        assert_eq!(rs_a, rs_b);
        assert!(cost_b.blocks_summarized > 0, "{cost_b:?}");
        assert_eq!(cost_a.blocks_summarized, cost_b.blocks_summarized);
    }

    #[test]
    fn a_segment_round_trips_through_file() {
        let db = seeded();
        let dir = std::env::temp_dir().join(format!("monster-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.seg");
        let stats = write_file(&path, |file| seal(&batch(), file)).unwrap();
        assert!(path.metadata().unwrap().len() as usize == stats.stored_bytes);
        let restored = Db::new(DbConfig::default());
        assert_eq!(load_file(&restored, &path, SEGMENT).unwrap(), db.stats().points);
        assert_eq!(restored.stats().points, db.stats().points);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_segments_are_rejected() {
        let mut bytes = Vec::new();
        seal(&batch(), &mut bytes).unwrap();
        assert!(unseal(b"garbage").is_err());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(unseal(&bytes).is_err());
    }

    #[test]
    fn an_empty_segment_loads_cleanly() {
        let mut bytes = Vec::new();
        let stats = seal(&[], &mut bytes).unwrap();
        assert_eq!(stats.points, 0);
        assert_eq!(unseal(&bytes).unwrap().stats().points, 0);
    }
}

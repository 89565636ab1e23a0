//! Sealed files: whole-database snapshots and cold-tier segment files.
//!
//! MonSTer's "out-of-the-box" story includes surviving a restart of the
//! storage host without losing the collected history. A snapshot is the
//! whole database, a segment file (`shard-<start>.seg`, written by
//! [`Db::tier_cold_shards`]) one shard of it, and both are what the WAL is —
//! CRC-framed binary records ([`crate::wal_record`]) with ids local to the
//! file — behind their own header:
//!
//! ```text
//! snapshot          := "MTSDB2\n" frame* end
//! shard-<start>.seg := "MSEG2\n"  frame* end
//! frame             := len:u32le crc32:u32le body[len]              len > 0
//! body              := MZ2 container (`monster_compress`) of one record payload
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
//! `MTSDB1` and `MSEG1` files held compressed line-protocol text; there is
//! no reader for them.

use crate::db::{Db, DbConfig};
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

/// The header of a whole-database snapshot.
const SNAPSHOT: &str = "MTSDB2\n";
/// The header of a cold-tier segment file, `shard-<start>.seg`.
pub(crate) const SEGMENT: &str = "MSEG2\n";

/// Values to a record: what a reload applies as one batch (a collection
/// interval's worth, ≈ 140 KB before compression).
const RECORD_VALUES: usize = 10_000;
/// A record is also cut once its string values pass this many bytes, so
/// that none outgrows [`crate::wal::MAX_RECORD_BYTES`].
const RECORD_STRING_BYTES: usize = 8 << 20;

/// Snapshot statistics.
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
/// where `kind` was expected (`MSEG1`: the previous format).
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

fn write_to(db: &Db, out: impl Write) -> Result<SnapshotStats> {
    // Index before shard: the sanctioned nesting, one shard lock at a time.
    let handles = db.shard_handles();
    write_sealed(out, SNAPSHOT, &db.index(), |visit| {
        handles.iter().try_for_each(|handle| handle.read().export(&mut *visit))
    })
}

/// Serialize the whole database into snapshot bytes.
pub fn write_snapshot(db: &Db) -> Result<(Vec<u8>, SnapshotStats)> {
    let mut bytes = Vec::new();
    let stats = write_to(db, &mut bytes)?;
    Ok((bytes, stats))
}

/// Save a snapshot to `path`: whole and durable, or not there.
pub fn save_to_file(db: &Db, path: impl AsRef<Path>) -> Result<SnapshotStats> {
    write_file(path.as_ref(), |file| write_to(db, file))
}

/// Restore a database from snapshot bytes, using `config` for the new
/// instance (disk/cost models are deployment properties, not data).
pub fn read_snapshot(bytes: &[u8], config: DbConfig) -> Result<Db> {
    let db = Db::new(config);
    load(&db, bytes, bytes.len() as u64, SNAPSHOT, "snapshot")?;
    Ok(db)
}

/// Load a snapshot from `path`.
pub fn load_from_file(path: impl AsRef<Path>, config: DbConfig) -> Result<Db> {
    let db = Db::new(config);
    load_file(&db, path.as_ref(), SNAPSHOT)?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Aggregation;
    use crate::{DataPoint, Query};
    use monster_util::EpochSecs;

    fn seeded() -> Db {
        let db = Db::new(DbConfig::default());
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
        db.write_batch(&batch).unwrap();
        db
    }

    fn query_all(db: &Db) -> crate::ResultSet {
        let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(500 * 60))
            .aggregate(Aggregation::Mean)
            .group_by_time(600);
        db.query(&q).unwrap().0
    }

    #[test]
    fn snapshot_round_trips_through_memory() {
        let db = seeded();
        let (bytes, stats) = write_snapshot(&db).unwrap();
        assert_eq!(stats.points, db.stats().points);
        assert!(stats.stored_bytes < stats.raw_bytes / 3, "{stats:?}");
        let restored = read_snapshot(&bytes, DbConfig::default()).unwrap();
        assert_eq!(restored.stats().points, db.stats().points);
        assert_eq!(restored.stats().cardinality, db.stats().cardinality);
        assert_eq!(query_all(&restored), query_all(&db));
        // String fields survive too.
        let q = Query::select("NodeJobs", "JobList", EpochSecs::new(0), EpochSecs::new(500 * 60));
        let (a, _) = db.query(&q).unwrap();
        let (b, _) = restored.query(&q).unwrap();
        assert_eq!(a, b);
    }

    /// Zone-map summaries are rebuilt on restore: a restored-and-compacted
    /// engine answers windowed aggregations from summaries, identically.
    #[test]
    fn summaries_survive_snapshot_restore() {
        let db = seeded();
        db.compact();
        let (bytes, _) = write_snapshot(&db).unwrap();
        let restored = read_snapshot(&bytes, DbConfig::default()).unwrap();
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
    fn snapshot_round_trips_through_file() {
        let db = seeded();
        let dir = std::env::temp_dir().join(format!("monster-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.mtsdb");
        let stats = save_to_file(&db, &path).unwrap();
        assert!(path.metadata().unwrap().len() as usize == stats.stored_bytes);
        let restored = load_from_file(&path, DbConfig::default()).unwrap();
        assert_eq!(restored.stats().points, db.stats().points);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let db = seeded();
        let (mut bytes, _) = write_snapshot(&db).unwrap();
        assert!(read_snapshot(b"garbage", DbConfig::default()).is_err());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(read_snapshot(&bytes, DbConfig::default()).is_err());
    }

    #[test]
    fn empty_database_snapshots_cleanly() {
        let db = Db::new(DbConfig::default());
        let (bytes, stats) = write_snapshot(&db).unwrap();
        assert_eq!(stats.points, 0);
        let restored = read_snapshot(&bytes, DbConfig::default()).unwrap();
        assert_eq!(restored.stats().points, 0);
    }
}

//! Crash recovery: rebuild a [`Db`] from a durability directory.
//!
//! [`Db::recover`] is the single entry point for durable databases. The
//! directory holds two kinds of files, both written by the engine, both made
//! of CRC-framed binary records ([`crate::wal_record`]) and both read back
//! by one function, `Db::replay`:
//!
//! * `shard-<start>.seg` — immutable cold-tier segment files
//!   ([`crate::snapshot`]'s `MSEG3` header), written by tiering tmp → fsync →
//!   rename → directory fsync. Loaded first; anything wrong with one is a
//!   hard error, not a torn tail, and nothing is deleted.
//! * `wal-<seq>.log` — write-ahead-log segments ([`crate::wal`]). Replayed
//!   in sequence order after the cold shards load. Points whose shard is
//!   already covered by a segment file are skipped (their WAL segment
//!   simply outlived its reclamation).
//!
//! # The torn tail
//!
//! Appends are strictly sequential, so on an unclean shutdown exactly one
//! suffix of the byte stream can be missing or torn. Replay stops at the
//! first frame that fails validation — short header, absurd length, short
//! payload, or CRC mismatch — truncates that file back to the last valid
//! frame boundary, and deletes any later WAL files (they can only hold
//! records appended *after* the torn one, which the ack boundary never
//! covered). Everything before the tear — in particular every acknowledged
//! batch — replays exactly; recovery never panics on torn bytes.
//!
//! A frame whose CRC validates but whose payload fails to decode is
//! different: the bytes were written intact, so this is a writer bug, not
//! a crash artifact. Such records are counted ([`RecoveryReport::records_failed`])
//! and skipped — nothing of them is registered or applied — and replay
//! continues.
//!
//! A file that opens with a previous format's magic (`MWALSEG1`, `MSEG1`:
//! line-protocol text; `MSEG2`: records in the workspace's former private
//! container — nothing here reads them any more) is neither:
//! recovery refuses the whole directory with an error before it touches a
//! byte of it, rather than mistake a log it cannot read for one torn at
//! creation and delete it.
//!
//! # Replay does not parse
//!
//! A record is a batch as [`Db::write_batch`] resolved it: `Db::replay`
//! decodes it, registers the series and field names it defines — file-local
//! ids, so every file stands alone — and hands `(SeriesId, FieldId, ts,
//! value)`s to the apply step `write_batch` ends with, one record at a
//! time: loading a file of any size holds one record, no text is lexed and
//! no `DataPoint` rebuilt. Recovered points are not re-logged (the appender
//! is attached afterwards), watermarks republish as live writes would, a
//! record whose apply failed live (a field-type conflict) applies the same
//! prefix again, and recovered statistics and query results are
//! byte-identical to an uninterrupted twin fed the same prefix.

use crate::db::{Db, DbConfig, Resolved};
use crate::point::{key_wire_size, wire_size_of};
use crate::series::{FieldId, SeriesId};
use crate::snapshot;
use crate::wal::{self, Wal, FRAME_HEADER, MAX_RECORD_BYTES, SEGMENT_MAGIC, SEGMENT_MAGIC_V1};
use crate::wal_record::{self, Record};
use monster_util::{Error, Result};
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What [`Db::recover`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Cold-tier segment files loaded.
    pub segment_files_loaded: usize,
    /// Points restored from segment files.
    pub segment_points: usize,
    /// WAL segment files scanned (surviving, including the truncated one).
    pub wal_segments_scanned: usize,
    /// WAL records replayed into the database.
    pub replayed_records: u64,
    /// Points applied from WAL records.
    pub replayed_points: usize,
    /// Points skipped because a segment file already covered their shard.
    pub skipped_points: usize,
    /// CRC-valid records that failed to decode or apply (writer bugs —
    /// counted, skipped, replay continues).
    pub records_failed: u64,
    /// Bytes discarded from the torn tail (truncated frame bytes plus any
    /// whole later files deleted).
    pub truncated_bytes: u64,
    /// Whether a torn tail was found (and truncated) at all.
    pub torn_tail: bool,
}

/// Parse `shard-<start>.seg` file names.
fn parse_seg_name(name: &str) -> Option<i64> {
    name.strip_prefix("shard-")?.strip_suffix(".seg")?.parse().ok()
}

/// What [`Db::replay`] keeps of the file in hand.
#[derive(Default)]
struct FileState {
    /// The series it has defined, by file-local id.
    series: Vec<LocalSeries>,
    /// The field names it has defined, by file-local id: id and length.
    fields: Vec<(FieldId, usize)>,
    /// The latest timestamp any of its records holds.
    max_ts: i64,
    /// The record being applied; its buffers are reused.
    record: Record,
}

struct LocalSeries {
    id: SeriesId,
    measurement: String,
    /// [`key_wire_size`] of its key.
    key_wire: usize,
}

impl Db {
    /// Open a durable database from `dir`, replaying its history, and
    /// attach a resumed WAL appender so subsequent writes keep logging.
    ///
    /// An empty (or absent) directory yields a fresh database and an
    /// all-zero report — this is also how a durable deployment starts.
    /// Reports to the process default registry ([`Db::recover_in`]).
    // Goes with ROADMAP item 8(ii): the benchmark harness calls it.
    pub fn recover(config: DbConfig, dir: impl AsRef<Path>) -> Result<(Db, RecoveryReport)> {
        Db::recover_in(config, dir, monster_obs::global())
    }

    /// [`Db::recover`], the store, its WAL and replay counters in `obs`.
    pub fn recover_in(
        config: DbConfig,
        dir: impl AsRef<Path>,
        obs: &Arc<monster_obs::Registry>,
    ) -> Result<(Db, RecoveryReport)> {
        let started = Instant::now();
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut db = Db::new_in(config, obs);
        let mut report = RecoveryReport::default();

        // --- inventory ---------------------------------------------------
        let mut seg_starts: Vec<i64> = Vec::new();
        let mut wal_seqs: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(start) = parse_seg_name(name) {
                seg_starts.push(start);
            } else if let Some(seq) = wal::parse_segment_name(name) {
                wal_seqs.push(seq);
            }
            // Anything else (tmp files from an interrupted tiering pass,
            // stray artifacts) is ignored: a `.seg.tmp` never renamed is a
            // migration that never happened, and its WAL bytes still exist.
        }
        seg_starts.sort_unstable();
        wal_seqs.sort_unstable();
        // A log of the previous format is not a torn one: refuse it before
        // anything below truncates or deletes a file.
        for &seq in &wal_seqs {
            let mut magic = Vec::with_capacity(SEGMENT_MAGIC_V1.len());
            let file = File::open(wal::segment_path(dir, seq))?;
            file.take(SEGMENT_MAGIC_V1.len() as u64).read_to_end(&mut magic)?;
            if magic == SEGMENT_MAGIC_V1 {
                return Err(Error::Corrupt(format!(
                    "unsupported WAL segment version MWALSEG1 in {} (written by an older \
                     release; this one reads MWALSEG2 only)",
                    wal::segment_path(dir, seq).display()
                )));
            }
        }

        // --- cold shards from immutable segment files --------------------
        // `seg_starts` doubles as the sorted list of shards WAL replay
        // skips: every start below gets a loaded (or empty) segment. An
        // error — a damaged file, one of the previous format — comes before
        // anything is truncated or deleted too.
        for &start in &seg_starts {
            let path = dir.join(format!("shard-{start}.seg"));
            let points = snapshot::load_file(&db, &path, snapshot::SEGMENT)?;
            if points > 0 {
                db.shard_for(start).write().mark_cold();
            }
            report.segment_files_loaded += 1;
            report.segment_points += points;
        }

        // --- WAL replay to the longest consistent prefix ------------------
        let mut sealed: Vec<(u64, i64)> = Vec::new();
        let mut torn_at: Option<usize> = None; // index into wal_seqs
        for (file_idx, &seq) in wal_seqs.iter().enumerate() {
            let path = wal::segment_path(dir, seq);
            let mut file = File::open(&path)?;
            let len = file.metadata()?.len();
            let mut magic = Vec::with_capacity(SEGMENT_MAGIC.len());
            (&mut file).take(SEGMENT_MAGIC.len() as u64).read_to_end(&mut magic)?;
            if magic != SEGMENT_MAGIC {
                // A segment whose very magic is short or wrong can only be
                // the tail file torn at creation; nothing in it was ever
                // acknowledged. Drop the whole file.
                report.truncated_bytes += len;
                report.torn_tail = true;
                std::fs::remove_file(&path)?;
                torn_at = Some(file_idx + 1);
                break;
            }
            report.wal_segments_scanned += 1;
            let body = len - magic.len() as u64;
            let (valid, max_ts) = db.replay(&mut file, body, false, &seg_starts, &mut report)?;
            sealed.push((seq, max_ts)); // a truncated file stays
            if valid < body {
                report.truncated_bytes += body - valid;
                report.torn_tail = true;
                let f = std::fs::OpenOptions::new().write(true).open(&path)?;
                f.set_len(magic.len() as u64 + valid)?;
                f.sync_all()?;
                torn_at = Some(file_idx + 1);
                break;
            }
        }
        if let Some(stop) = torn_at {
            // Files after the tear hold only records appended after it —
            // never acknowledged, unreachable by sequential replay.
            for &seq in &wal_seqs[stop..] {
                let path = wal::segment_path(dir, seq);
                if let Ok(meta) = std::fs::metadata(&path) {
                    report.truncated_bytes += meta.len();
                }
                std::fs::remove_file(&path)?;
            }
        }

        obs.counter_help(
            "monster_tsdb_wal_replayed_records_total",
            "WAL records replayed during crash recovery.",
        )
        .add(report.replayed_records);
        obs.counter_help(
            "monster_tsdb_wal_replayed_points_total",
            "Points applied from WAL records during crash recovery.",
        )
        .add(report.replayed_points as u64);
        obs.counter_help(
            "monster_tsdb_wal_truncated_bytes_total",
            "Torn-tail bytes discarded during crash recovery.",
        )
        .add(report.truncated_bytes);

        // --- resume the appender -----------------------------------------
        let next_seq = sealed.iter().map(|&(s, _)| s + 1).max().unwrap_or(0);
        let wal = Wal::resume(dir, config.wal, next_seq, &sealed, obs)?;
        db.set_wal(wal);
        // A histogram of one observation per recovery (registry gauges are
        // integers): `_sum` is the seconds a restart was blind.
        obs.histo_help(
            "monster_tsdb_recovery_seconds",
            "Wall time of Db::recover: segment files loaded, WAL replayed, appender resumed.",
        )
        .observe(started.elapsed().as_secs_f64());
        Ok((db, report))
    }

    /// Read back what was written down — the one way, for every kind of
    /// file. `src` holds `len` bytes of frames (a file after its magic);
    /// each is checked (length against what is left, CRC32), decoded, and
    /// applied through [`Db::apply`] before the next is read. Points of the
    /// `covered` shards are skipped. Tallies into `report`; returns the
    /// bytes of the frames that checked out and the latest timestamp they
    /// hold (`i64::MIN` for none).
    ///
    /// A WAL segment (`sealed` false) was being appended to when the
    /// process died: a frame that does not check out is the torn tail —
    /// replay stops there, short of `len` — and a record that checks out but
    /// does not decode or apply is counted and passed over. A sealed file
    /// (segment file or snapshot, renamed into place whole) holds compressed
    /// records behind an empty end frame; anything wrong with it is an `Err`.
    pub(crate) fn replay(
        &self,
        src: &mut impl Read,
        len: u64,
        sealed: bool,
        covered: &[i64],
        report: &mut RecoveryReport,
    ) -> Result<(u64, i64)> {
        let mut file = FileState { max_ts: i64::MIN, ..FileState::default() };
        let mut body = Vec::new();
        let (mut valid, mut ended) = (0u64, false);
        while valid < len && !ended {
            let Some(left) = (len - valid).checked_sub(FRAME_HEADER as u64) else {
                break; // a short header
            };
            let mut header = [0u8; FRAME_HEADER];
            src.read_exact(&mut header)?;
            let body_len = u32::from_le_bytes(header[..4].try_into().expect("four bytes")) as u64;
            let crc = u32::from_le_bytes(header[4..].try_into().expect("four bytes"));
            if body_len > left.min(MAX_RECORD_BYTES as u64) {
                break; // an absurd length or a short payload
            }
            body.resize(body_len as usize, 0);
            src.read_exact(&mut body)?;
            if wal::crc32(&body) != crc {
                break; // a torn payload (or header)
            }
            valid += FRAME_HEADER as u64 + body_len;
            // CRC says the frame is exactly what the writer framed: what
            // fails from here on is counted (or an error), not torn.
            if sealed && body.is_empty() {
                ended = true;
            } else if sealed {
                let payload = monster_compress::decompress_within(&body, MAX_RECORD_BYTES)?;
                self.apply_record(&payload, &mut file, covered, report)?;
            } else if self.apply_record(&body, &mut file, covered, report).is_err() {
                report.records_failed += 1;
            }
        }
        if sealed && !(ended && valid == len) {
            return Err(Error::Corrupt(match ended {
                true => format!("{} bytes after the end frame", len - valid),
                false => format!("no frame that checks out at byte {valid}: cut short or damaged"),
            }));
        }
        Ok((valid, file.max_ts))
    }

    /// Decode one record payload against the definitions `file` has made,
    /// register what it defines and apply its points. An `Err` is a record
    /// that does not decode (nothing of it registered or applied) or does
    /// not apply (its prefix applied, as live).
    fn apply_record(
        &self,
        payload: &[u8],
        file: &mut FileState,
        covered: &[i64],
        report: &mut RecoveryReport,
    ) -> Result<()> {
        let FileState { series, fields, max_ts, record } = file;
        wal_record::decode(payload, series.len() as u32, fields.len() as u32, record)?;
        // The writer refuses what `write_batch` refuses, so no such
        // timestamp is in a record it framed.
        if record.points.iter().any(|p| !self.in_range(p.ts)) {
            return Err(Error::Corrupt("record: timestamp outside the storable range".into()));
        }
        let (sids, fids) = self.define(&record.series_defs, &record.field_defs);
        series.extend(record.series_defs.drain(..).zip(sids).map(|(key, id)| {
            let key_wire = key_wire_size(&key.measurement, &key.tags);
            LocalSeries { id, measurement: key.measurement, key_wire }
        }));
        fields.extend(fids.into_iter().zip(&record.field_defs).map(|(f, n)| (f, n.len())));
        *max_ts = record.points.iter().map(|p| p.ts).fold(*max_ts, i64::max);
        let (series, fields) = (&*series, &*fields);
        let mut next_field = 0usize;
        let resolved = record.points.iter().map(|p| {
            let s = &series[p.series as usize];
            let mine = &record.fields[next_field..next_field + p.fields as usize];
            next_field += p.fields as usize;
            Resolved {
                series: s.id,
                measurement: &s.measurement,
                ts: p.ts,
                wire: wire_size_of(
                    s.key_wire,
                    mine.iter().map(|(f, value)| (fields[*f as usize].1, value)),
                ),
                fields: mine.iter().map(move |(f, value)| (fields[*f as usize].0, value)),
            }
        });
        let (result, applied) = self.apply(resolved, record.fields.len(), covered);
        report.skipped_points += applied.skipped;
        // Same contract as live ingest: a batch that partially applies
        // (e.g. a type conflict) errors but keeps its applied prefix.
        result.map(|()| {
            report.replayed_records += 1;
            report.replayed_points += applied.points;
        })
    }
}

/// Copy a durability directory as a simulated kill would leave it: segment
/// files intact (they are fsync-renamed, hence atomic), and the WAL byte
/// stream — segments concatenated in sequence order — cut at `wal_offset`
/// bytes. Crash-matrix tests and the `crash_recovery` bench sweep
/// `wal_offset` over `[0, wal_extent]`; every offset must recover to a
/// consistent prefix. Returns the number of WAL bytes actually copied.
pub fn copy_dir_killed_at(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
    wal_offset: u64,
) -> Result<u64> {
    let (src, dst) = (src.as_ref(), dst.as_ref());
    std::fs::create_dir_all(dst)?;
    let mut wal_seqs: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = wal::parse_segment_name(name) {
            wal_seqs.push(seq);
        } else if parse_seg_name(name).is_some() {
            std::fs::copy(entry.path(), dst.join(name))?;
        }
    }
    wal_seqs.sort_unstable();
    let mut budget = wal_offset;
    let mut copied = 0u64;
    for seq in wal_seqs {
        if budget == 0 {
            break; // later files never came to exist
        }
        let bytes = std::fs::read(wal::segment_path(src, seq))?;
        let take = (bytes.len() as u64).min(budget);
        std::fs::write(wal::segment_path(dst, seq), &bytes[..take as usize])?;
        budget -= take;
        copied += take;
    }
    Ok(copied)
}

/// Total bytes across the WAL segment files in `dir` (the kill-offset
/// domain for [`copy_dir_killed_at`]).
pub fn wal_extent(dir: impl AsRef<Path>) -> Result<u64> {
    let mut total = 0u64;
    for entry in std::fs::read_dir(dir.as_ref())? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if wal::parse_segment_name(name).is_some() {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::DataPoint;
    use crate::wal::WalTuning;
    use monster_util::EpochSecs;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("monster-recover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn point(i: i64) -> DataPoint {
        DataPoint::new("Power", EpochSecs::new(i * 60))
            .tag("NodeId", format!("10.101.1.{}", i % 4 + 1))
            .field_f64("Reading", 250.0 + i as f64)
    }

    #[test]
    fn empty_directory_recovers_to_fresh_db() {
        let dir = tmp_dir("empty");
        let (db, report) = Db::recover(DbConfig::default(), &dir).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert!(db.wal_status().is_some());
        assert_eq!(db.stats().points, 0);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_shutdown_replays_everything() {
        let dir = tmp_dir("clean");
        let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
        let batch: Vec<DataPoint> = (0..100).map(point).collect();
        db.write_batch(&batch).unwrap();
        db.wal_sync().unwrap();
        let stats = db.stats();
        drop(db);
        let (db2, report) = Db::recover(DbConfig::default(), &dir).unwrap();
        assert_eq!(db2.stats(), stats);
        assert_eq!(report.replayed_points, 100);
        assert!(!report.torn_tail);
        drop(db2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_payload_truncates_to_last_whole_record() {
        let dir = tmp_dir("torn-payload");
        let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
        db.write_batch(&[point(1)]).unwrap();
        db.write_batch(&[point(2)]).unwrap();
        db.wal_sync().unwrap();
        drop(db);
        // Tear 3 bytes off the end of the only WAL file.
        let path = wal::segment_path(&dir, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 3).unwrap();
        let (db2, report) = Db::recover(DbConfig::default(), &dir).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.replayed_records, 1);
        assert_eq!(db2.stats().points, 1);
        // Idempotent: the truncation was persisted, a third open is clean.
        drop(db2);
        let (_db3, report3) = Db::recover(DbConfig::default(), &dir).unwrap();
        assert!(!report3.torn_tail);
        assert_eq!(report3.replayed_records, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_header_and_flipped_crc_truncate() {
        for (tag, damage) in [
            ("torn-header", 0usize), // leave 4 of the 8 header bytes
            ("bad-crc", 1),
        ] {
            let dir = tmp_dir(tag);
            let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
            db.write_batch(&[point(1)]).unwrap();
            db.wal_sync().unwrap();
            let whole = std::fs::metadata(wal::segment_path(&dir, 0)).unwrap().len();
            db.write_batch(&[point(2)]).unwrap();
            db.wal_sync().unwrap();
            drop(db);
            let path = wal::segment_path(&dir, 0);
            if damage == 0 {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .unwrap()
                    .set_len(whole + 4)
                    .unwrap();
            } else {
                let mut bytes = std::fs::read(&path).unwrap();
                let crc_at = whole as usize + 4;
                bytes[crc_at] ^= 0xFF;
                std::fs::write(&path, &bytes).unwrap();
            }
            let (db2, report) = Db::recover(DbConfig::default(), &dir).unwrap();
            assert!(report.torn_tail, "{tag}");
            assert_eq!(db2.stats().points, 1, "{tag}");
            drop(db2);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn corruption_mid_log_discards_later_segments() {
        let dir = tmp_dir("later-segs");
        let config = DbConfig {
            wal: WalTuning { segment_bytes: 256, ..WalTuning::default() },
            ..DbConfig::default()
        };
        let (db, _) = Db::recover(config, &dir).unwrap();
        for i in 0..50 {
            db.write_batch(&[point(i)]).unwrap();
        }
        db.wal_sync().unwrap();
        let segs = db.wal_status().unwrap().segments;
        assert!(segs > 2, "need several segments, got {segs}");
        drop(db);
        // Flip a byte early in segment 1: segment 0 replays whole, the
        // rest of segment 1 and all later files are discarded.
        let path = wal::segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = SEGMENT_MAGIC.len() + FRAME_HEADER + 1;
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (db2, report) = Db::recover(config, &dir).unwrap();
        assert!(report.torn_tail);
        assert!(report.truncated_bytes > 0);
        // Segment 0 (whole) and 1 (truncated) survive; every later
        // pre-crash file is gone; resume opened a fresh active segment 2.
        let mut survivors: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| wal::parse_segment_name(e.unwrap().file_name().to_str().unwrap()))
            .collect();
        survivors.sort_unstable();
        assert_eq!(survivors, vec![0, 1, 2], "pre-crash segments past the tear must be deleted");
        assert!(db2.stats().points > 0);
        drop(db2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A batch too big for one record is refused whole by the appender —
    /// before the fix it was logged, acknowledged, and the next recovery
    /// called its length prefix corruption and cut the log there.
    #[test]
    fn oversized_record_is_refused_and_its_neighbours_replay() {
        let dir = tmp_dir("oversized");
        let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
        db.write_batch(&[point(1)]).unwrap();
        // One string value a byte past the limit (zeroed pages, untouched:
        // the encoder refuses before it copies).
        let huge = String::from_utf8(vec![0u8; MAX_RECORD_BYTES + 1]).unwrap();
        // Both points are of the series `point(1)` made: a refused batch's
        // new series would stay registered (empty) here and not in `db2`.
        let too_big = [point(5), point(9).field_str("Note", huge)];
        let err = db.write_batch(&too_big).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        assert_eq!(db.stats().points, 1, "nothing of a refused batch is visible");
        assert_eq!(db.wal_status().unwrap().appended_records, 1, "nor logged");
        db.write_batch(&[point(4)]).unwrap();
        let stats = db.stats();
        drop(db);
        let (db2, report) = Db::recover(DbConfig::default(), &dir).unwrap();
        assert!(!report.torn_tail);
        assert_eq!((report.replayed_records, report.records_failed), (2, 0));
        assert_eq!(db2.stats(), stats);
        drop(db2);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn dir_image(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap()))
            .collect();
        files.sort();
        files
    }

    /// A directory the previous release wrote is refused, not "repaired":
    /// every file is byte-for-byte what it was.
    #[test]
    fn previous_format_is_refused_untouched() {
        let dir = tmp_dir("seg1");
        let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
        db.write_batch(&[point(1)]).unwrap();
        drop(db);
        // A later segment as the parent binary framed one: its magic, then
        // a CRC-framed line-protocol record.
        let line = b"Power,NodeId=10.101.1.1 Reading=250 60\n";
        let mut old = SEGMENT_MAGIC_V1.to_vec();
        old.extend_from_slice(&(line.len() as u32).to_le_bytes());
        old.extend_from_slice(&wal::crc32(line).to_le_bytes());
        old.extend_from_slice(line);
        std::fs::write(wal::segment_path(&dir, 1), &old).unwrap();
        let before = dir_image(&dir);
        let err = Db::recover(DbConfig::default(), &dir).err().expect("refused");
        assert!(matches!(&err, Error::Corrupt(m) if m.contains("unsupported WAL segment version")));
        assert_eq!(dir_image(&dir), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Short or unrecognised magic is still a file torn at creation: it and
    /// everything after it go, everything before it replays.
    #[test]
    fn unrecognised_magic_is_torn_at_creation() {
        for (tag, magic) in
            [("short-magic", &b"MWAL"[..]), ("odd-magic", &b"MWALSEG9 and more"[..])]
        {
            let dir = tmp_dir(tag);
            let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
            db.write_batch(&[point(1)]).unwrap();
            drop(db);
            std::fs::write(wal::segment_path(&dir, 1), magic).unwrap();
            std::fs::write(wal::segment_path(&dir, 2), SEGMENT_MAGIC).unwrap();
            let (db2, report) = Db::recover(DbConfig::default(), &dir).unwrap();
            assert!(report.torn_tail, "{tag}");
            assert_eq!(report.truncated_bytes, (magic.len() + SEGMENT_MAGIC.len()) as u64);
            assert_eq!(db2.stats().points, 1, "{tag}");
            drop(db2);
            let names: Vec<String> = dir_image(&dir).into_iter().map(|(n, _)| n).collect();
            assert_eq!(names, ["wal-00000000.log", "wal-00000001.log"], "{tag}: torn files gone");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn killed_copy_recovers_prefix_at_any_cut() {
        let dir = tmp_dir("killcopy");
        let (db, _) = Db::recover(DbConfig::default(), &dir).unwrap();
        for i in 0..20 {
            db.write_batch(&[point(i)]).unwrap();
        }
        db.wal_sync().unwrap();
        drop(db);
        let extent = wal_extent(&dir).unwrap();
        for cut in [0, 1, extent / 3, extent - 1, extent] {
            let copy = tmp_dir(&format!("killcopy-at-{cut}"));
            let copied = copy_dir_killed_at(&dir, &copy, cut).unwrap();
            assert_eq!(copied, cut);
            let (db2, _) = Db::recover(DbConfig::default(), &copy).unwrap();
            assert!(db2.stats().points <= 20);
            drop(db2);
            std::fs::remove_dir_all(&copy).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Write-ahead log: CRC32-framed, length-prefixed segments with group
//! commit.
//!
//! Every accepted batch is appended to the active segment, ids resolved
//! and values typed, **before** it becomes visible to readers:
//!
//! ```text
//! wal-<seq>.log := "MWALSEG2" record*
//! record        := len:u32le crc32:u32le payload[len]
//! payload       := the batch in binary ([`crate::wal_record`])
//! ```
//!
//! The CRC (IEEE 802.3, the `cksum`/zlib polynomial) covers the payload
//! only; the length prefix is validated by bounds-checking against the
//! remaining file. A record torn anywhere — header, payload, or CRC —
//! makes that record and everything after it unrecoverable *by design*:
//! appends are strictly sequential, so a torn frame can only be the
//! unsynced tail (see [`crate::recover`]).
//!
//! A record names series and fields by ids local to its segment file; the
//! appender keeps the file's dictionary ([`SegmentDict`]: what the active
//! segment has defined so far), encodes each batch against it under its
//! mutex and forgets it at every roll, so no segment needs another to be
//! read. `MWALSEG1` segments held line-protocol text; there is no reader
//! for them ([`crate::recover`] refuses the directory untouched).
//!
//! # Group commit
//!
//! `write_all` lands every record in the OS page cache immediately;
//! `fdatasync` is deferred until either [`WalTuning::sync_bytes`] of
//! unsynced records accumulate or the oldest unsynced record is older than
//! [`WalTuning::sync_interval`]. One flush durably commits every record
//! written since the last — batches from all writers share the fsync, which
//! is what keeps per-batch durability overhead near zero at collector
//! cadence. A batch counts as **acknowledged** only once a sync covering it
//! completes ([`WalStatus::acked_records`]); [`Wal::sync`] forces the
//! boundary for tests and benches.
//!
//! The appender takes one private mutex, encodes each record straight
//! into one retained frame buffer, and performs zero heap allocations in
//! the steady state (`tests/alloc_steady_state.rs` counts them on
//! [`Wal::append_batch`]).
//!
//! # Segments and reclamation
//!
//! The active segment rolls at [`WalTuning::segment_bytes`] (synced, then
//! sealed). Sealed segments remember the maximum data timestamp they
//! contain; once tiering has compacted every shard that could hold those
//! timestamps into immutable segment files ([`crate::db::Db::tier_cold_shards`]),
//! [`Wal::reclaim_before`] deletes them. The active segment is never
//! reclaimed.

use crate::point::DataPoint;
use crate::series::{FieldId, SeriesId};
use crate::wal_record::{self, SegmentDict};
use monster_util::Result;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Magic bytes opening every WAL segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"MWALSEG2";

/// The magic of the previous format (line-protocol payloads), which
/// recovery recognises only to refuse it.
pub const SEGMENT_MAGIC_V1: &[u8; 8] = b"MWALSEG1";

/// Frame header size: `u32` length + `u32` CRC.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on one record's payload: the appender refuses a batch that
/// would exceed it, and recovery treats a length prefix above it as
/// corruption rather than an allocation request.
pub const MAX_RECORD_BYTES: usize = 64 << 20;

// --- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) ----------------------
// Hand-rolled: the workspace deliberately has no external dependencies.

/// Slice-by-8 tables: `[0]` is the byte-at-a-time table, and `[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight table reads
/// advance the CRC over eight bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        i = 0;
        while i < 256 {
            let c = tables[k - 1][i];
            tables[k][i] = (c >> 8) ^ tables[0][(c & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) of `bytes` — the checksum framing every WAL record and
/// segment file. Eight bytes a step, the same values as a byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes(word[..4].try_into().expect("four bytes"));
        let hi = u32::from_le_bytes(word[4..].try_into().expect("four bytes"));
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Group-commit and segment-rolling knobs ([`crate::DbConfig::wal`]). The
/// WAL itself is enabled by opening the database with a directory
/// ([`crate::db::Db::recover`]); these only tune it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalTuning {
    /// Roll the active segment once it exceeds this many bytes.
    pub segment_bytes: usize,
    /// Group-commit size threshold: fsync once this many unsynced record
    /// bytes accumulate.
    pub sync_bytes: usize,
    /// Group-commit age threshold: fsync when the oldest unsynced record
    /// is older than this (checked on append; callers with latency
    /// deadlines use [`Wal::sync`]).
    pub sync_interval: Duration,
}

impl Default for WalTuning {
    fn default() -> Self {
        WalTuning {
            segment_bytes: 8 << 20,
            sync_bytes: 512 << 10,
            sync_interval: Duration::from_millis(50),
        }
    }
}

/// Appender state snapshot (observability and test assertions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStatus {
    /// Sealed segments plus the active one.
    pub segments: usize,
    /// Records appended since open (durable or not).
    pub appended_records: u64,
    /// Records covered by a completed fsync — the acknowledgment
    /// boundary: these survive any crash.
    pub acked_records: u64,
    /// Bytes written to the active segment (including its magic).
    pub active_segment_bytes: usize,
    /// Bytes written since the last fsync.
    pub unsynced_bytes: usize,
}

/// One sealed (rolled, fully synced) segment.
#[derive(Debug, Clone, Copy)]
struct SealedSegment {
    seq: u64,
    /// Maximum data timestamp of any record in the segment (`i64::MIN`
    /// when it holds no points).
    max_ts: i64,
}

struct WalInner {
    file: File,
    seq: u64,
    seg_bytes: usize,
    seg_max_ts: i64,
    sealed: Vec<SealedSegment>,
    unsynced_bytes: usize,
    dirty_since: Option<Instant>,
    appended: u64,
    acked: u64,
    /// Reusable frame scratch (header + payload), cleared not shrunk.
    frame: Vec<u8>,
    /// What the active segment has defined; cleared at every roll.
    dict: SegmentDict,
}

/// The write-ahead log appender. One per database; interior mutex, shared
/// by every writer. See the [module docs](self) for format and semantics.
pub struct Wal {
    dir: PathBuf,
    tuning: WalTuning,
    inner: Mutex<WalInner>,
    appends: Arc<monster_obs::Counter>,
    bytes: Arc<monster_obs::Counter>,
    syncs: Arc<monster_obs::Counter>,
    series_defs: Arc<monster_obs::Counter>,
    field_defs: Arc<monster_obs::Counter>,
    segments_gauge: Arc<monster_obs::Gauge>,
    reclaimed: Arc<monster_obs::Counter>,
}

/// Path of segment `seq` inside `dir`.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

/// Parse a segment sequence number out of a file name (`wal-<seq>.log`).
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

impl Wal {
    /// Open a fresh WAL in `dir`, starting at segment 0. Fails if segment
    /// 0 already exists — recovery ([`crate::db::Db::recover`]) is the
    /// entry point for directories with history.
    pub fn create(dir: impl Into<PathBuf>, tuning: WalTuning) -> Result<Wal> {
        Wal::open_at(dir, tuning, 0, Vec::new())
    }

    /// Open the appender with an explicit next segment sequence and the
    /// sealed segments that survived recovery.
    fn open_at(
        dir: impl Into<PathBuf>,
        tuning: WalTuning,
        next_seq: u64,
        sealed: Vec<SealedSegment>,
    ) -> Result<Wal> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut file =
            OpenOptions::new().write(true).create_new(true).open(segment_path(&dir, next_seq))?;
        file.write_all(SEGMENT_MAGIC)?;
        let wal = Wal {
            dir,
            tuning,
            inner: Mutex::new(WalInner {
                file,
                seq: next_seq,
                seg_bytes: SEGMENT_MAGIC.len(),
                seg_max_ts: i64::MIN,
                sealed,
                unsynced_bytes: SEGMENT_MAGIC.len(),
                dirty_since: Some(Instant::now()),
                appended: 0,
                acked: 0,
                frame: Vec::new(),
                dict: SegmentDict::default(),
            }),
            appends: monster_obs::counter_help(
                "monster_tsdb_wal_appends_total",
                "Records appended to the write-ahead log.",
            ),
            bytes: monster_obs::counter_help(
                "monster_tsdb_wal_bytes_total",
                "Framed bytes written to the write-ahead log.",
            ),
            syncs: monster_obs::counter_help(
                "monster_tsdb_wal_syncs_total",
                "Group commits (fdatasync calls) on the write-ahead log.",
            ),
            series_defs: monster_obs::counter_help(
                "monster_tsdb_wal_definitions_total{kind=\"series\"}",
                "Series keys spelled out in the write-ahead log (once per series per segment).",
            ),
            field_defs: monster_obs::counter_help(
                "monster_tsdb_wal_definitions_total{kind=\"field\"}",
                "Field names spelled out in the write-ahead log (once per name per segment).",
            ),
            segments_gauge: monster_obs::gauge_help(
                "monster_tsdb_wal_segments",
                "Live write-ahead-log segment files (sealed + active).",
            ),
            reclaimed: monster_obs::counter_help(
                "monster_tsdb_wal_reclaimed_segments_total",
                "Sealed WAL segments deleted after their shards were tiered.",
            ),
        };
        wal.segments_gauge.set(wal.inner.lock().sealed.len() as i64 + 1);
        Ok(wal)
    }

    /// Re-open the appender after recovery: `sealed_segments` are the
    /// `(seq, max_ts)` pairs of surviving segment files; the active
    /// segment is created at `next_seq`.
    pub(crate) fn resume(
        dir: impl Into<PathBuf>,
        tuning: WalTuning,
        next_seq: u64,
        sealed_segments: &[(u64, i64)],
    ) -> Result<Wal> {
        let sealed =
            sealed_segments.iter().map(|&(seq, max_ts)| SealedSegment { seq, max_ts }).collect();
        Wal::open_at(dir, tuning, next_seq, sealed)
    }

    /// Append one batch as one record of the active segment. `series[i]`
    /// is point `i`'s id and `fields` holds every point's field ids back to
    /// back, as the series index resolved them. Returns whether this append
    /// triggered a group commit (the record — and every earlier one — is
    /// durable iff so).
    ///
    /// A batch that does not fit [`MAX_RECORD_BYTES`] is refused before a
    /// byte is written: recovery would call its length prefix corruption
    /// and cut the log there.
    pub fn append_batch(
        &self,
        points: &[DataPoint],
        series: &[SeriesId],
        fields: &[FieldId],
    ) -> Result<bool> {
        let Some(max_ts) = points.iter().map(|p| p.time.as_secs()).max() else {
            return Ok(false);
        };
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.frame.clear();
        inner.frame.resize(FRAME_HEADER, 0);
        let defined = inner.dict.defined();
        let batch = wal_record::batch_points(points, series, fields);
        let written = wal_record::encode(batch, &mut inner.dict, &mut inner.frame).and_then(|()| {
            let (header, payload) = inner.frame.split_at_mut(FRAME_HEADER);
            header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
            Ok(inner.file.write_all(&inner.frame)?)
        });
        if let Err(e) = written {
            // The file does not hold the record, so neither may the
            // dictionary; a refused record may have grown the buffer to
            // the limit.
            inner.dict.rewind(defined, series, fields);
            inner.frame = Vec::new();
            return Err(e);
        }
        let frame_len = inner.frame.len();
        inner.seg_bytes += frame_len;
        inner.unsynced_bytes += frame_len;
        inner.dirty_since.get_or_insert_with(Instant::now);
        inner.appended += 1;
        inner.seg_max_ts = inner.seg_max_ts.max(max_ts);
        self.appends.inc();
        self.bytes.add(frame_len as u64);
        let now_defined = inner.dict.defined();
        self.series_defs.add((now_defined.0 - defined.0) as u64);
        self.field_defs.add((now_defined.1 - defined.1) as u64);

        if inner.seg_bytes >= self.tuning.segment_bytes {
            self.roll(inner)?;
            return Ok(true);
        }
        let due = inner.unsynced_bytes >= self.tuning.sync_bytes
            || inner.dirty_since.map(|t| t.elapsed() >= self.tuning.sync_interval).unwrap_or(false);
        if due {
            self.sync_inner(inner)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Force a group commit: every appended record becomes durable (and
    /// acknowledged) before this returns.
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.sync_inner(&mut inner)
    }

    fn sync_inner(&self, inner: &mut WalInner) -> Result<()> {
        if inner.unsynced_bytes > 0 {
            inner.file.sync_data()?;
            self.syncs.inc();
        }
        inner.unsynced_bytes = 0;
        inner.dirty_since = None;
        inner.acked = inner.appended;
        Ok(())
    }

    /// Seal the active segment (sync first, so sealed ⇒ durable) and open
    /// the next one.
    fn roll(&self, inner: &mut WalInner) -> Result<()> {
        self.sync_inner(inner)?;
        inner.sealed.push(SealedSegment { seq: inner.seq, max_ts: inner.seg_max_ts });
        inner.seq += 1;
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(segment_path(&self.dir, inner.seq))?;
        file.write_all(SEGMENT_MAGIC)?;
        inner.file = file;
        inner.dict.clear();
        inner.seg_bytes = SEGMENT_MAGIC.len();
        inner.seg_max_ts = i64::MIN;
        inner.unsynced_bytes = SEGMENT_MAGIC.len();
        inner.dirty_since = Some(Instant::now());
        self.segments_gauge.set(inner.sealed.len() as i64 + 1);
        Ok(())
    }

    /// Delete every sealed segment whose maximum data timestamp is below
    /// `cut_ts` — safe once all shards that can contain those timestamps
    /// have been compacted into immutable segment files. The active
    /// segment is never touched. Returns the number of segments deleted.
    pub fn reclaim_before(&self, cut_ts: i64) -> Result<usize> {
        let mut inner = self.inner.lock();
        let mut removed = 0usize;
        let mut kept = Vec::with_capacity(inner.sealed.len());
        for seg in inner.sealed.drain(..) {
            if seg.max_ts < cut_ts {
                match std::fs::remove_file(segment_path(&self.dir, seg.seq)) {
                    Ok(()) | Err(_) => {} // already gone is as good as gone
                }
                removed += 1;
            } else {
                kept.push(seg);
            }
        }
        inner.sealed = kept;
        self.segments_gauge.set(inner.sealed.len() as i64 + 1);
        self.reclaimed.add(removed as u64);
        Ok(removed)
    }

    /// Current appender state.
    pub fn status(&self) -> WalStatus {
        let inner = self.inner.lock();
        WalStatus {
            segments: inner.sealed.len() + 1,
            appended_records: inner.appended,
            acked_records: inner.acked,
            active_segment_bytes: inner.seg_bytes,
            unsynced_bytes: inner.unsynced_bytes,
        }
    }

    /// The directory holding the segments.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Wal {
    /// Best-effort final group commit so an orderly shutdown acknowledges
    /// everything it accepted.
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("monster-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Append a one-point batch of the one series `m`, field `v`: 20 framed
    /// bytes when the segment has to define them, 14 afterwards.
    fn append(wal: &Wal, v: i64, ts: i64) -> bool {
        let p = DataPoint::new("m", monster_util::EpochSecs::new(ts)).field_i64("v", v);
        wal.append_batch(&[p], &[SeriesId(0)], &[FieldId(0)]).unwrap()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The byte-at-a-time loop [`crc32`] replaced: the oracle its eight
    /// bytes a step must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_is_the_bytewise_crc_at_every_length_mod_8() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(600).collect();
        for len in 0..=64 {
            for start in [0, 1, 3, 7, 255] {
                let slice = &bytes[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "len {len} at {start}");
            }
        }
    }

    proptest! {
        #[test]
        fn crc32_is_the_bytewise_crc_on_any_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..300),
            cut in 0usize..8,
        ) {
            // The same bytes at every length mod 8, the short tail included.
            let cut = cut.min(bytes.len());
            for slice in [&bytes[..], &bytes[cut..], &bytes[..bytes.len() - cut]] {
                prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
            }
        }
    }

    #[test]
    fn append_frames_and_rolls_segments() {
        let dir = tmp_dir("roll");
        let tuning = WalTuning { segment_bytes: 64, ..WalTuning::default() };
        let wal = Wal::create(&dir, tuning).unwrap();
        for i in 0..10i64 {
            append(&wal, i, i);
        }
        let status = wal.status();
        assert_eq!(status.appended_records, 10);
        assert!(status.segments > 1, "64-byte segments must roll: {status:?}");
        // Every segment file on disk starts with the magic.
        let mut files = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let bytes = std::fs::read(entry.unwrap().path()).unwrap();
            assert_eq!(&bytes[..8], SEGMENT_MAGIC);
            files += 1;
        }
        assert_eq!(files, status.segments);
        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_advances_ack_boundary() {
        let dir = tmp_dir("ack");
        // Huge thresholds: nothing syncs implicitly.
        let tuning = WalTuning {
            segment_bytes: usize::MAX,
            sync_bytes: usize::MAX,
            sync_interval: Duration::from_secs(3600),
        };
        let wal = Wal::create(&dir, tuning).unwrap();
        assert!(!append(&wal, 1, 1));
        assert!(!append(&wal, 2, 2));
        assert_eq!(wal.status().acked_records, 0);
        wal.sync().unwrap();
        assert_eq!(wal.status().acked_records, 2);
        assert_eq!(wal.status().unsynced_bytes, 0);
        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn size_threshold_triggers_group_commit() {
        let dir = tmp_dir("group");
        let tuning = WalTuning {
            segment_bytes: usize::MAX,
            sync_bytes: 64,
            sync_interval: Duration::from_secs(3600),
        };
        let wal = Wal::create(&dir, tuning).unwrap();
        let mut synced = false;
        for i in 0..20i64 {
            synced |= append(&wal, i, i);
        }
        assert!(synced, "64 sync_bytes must trip within 20 records");
        assert!(wal.status().acked_records > 0);
        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reclaim_deletes_only_old_sealed_segments() {
        let dir = tmp_dir("reclaim");
        let tuning = WalTuning { segment_bytes: 32, ..WalTuning::default() };
        let wal = Wal::create(&dir, tuning).unwrap();
        for i in 0..8i64 {
            append(&wal, i, i * 100);
        }
        let before = wal.status().segments;
        assert!(before > 2);
        // Cut below everything: nothing reclaimable.
        assert_eq!(wal.reclaim_before(0).unwrap(), 0);
        // Cut above everything: all sealed segments go, active survives.
        let removed = wal.reclaim_before(i64::MAX).unwrap();
        assert_eq!(removed, before - 1);
        assert_eq!(wal.status().segments, 1);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        // Appends continue on the active segment.
        append(&wal, 9, 900);
        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_names_round_trip() {
        let p = segment_path(Path::new("/x"), 42);
        assert_eq!(p.file_name().unwrap().to_str().unwrap(), "wal-00000042.log");
        assert_eq!(parse_segment_name("wal-00000042.log"), Some(42));
        assert_eq!(parse_segment_name("wal-7.log"), Some(7));
        assert_eq!(parse_segment_name("shard-100.seg"), None);
        assert_eq!(parse_segment_name("wal-x.log"), None);
    }
}

//! Crash-matrix tests: kill the WAL byte stream at *any* offset and the
//! database must recover to a consistent prefix — never panic, never lose
//! an acknowledged batch, never resurrect half a batch.
//!
//! The kill model is `recover::copy_dir_killed_at`: cold-tier segment
//! files survive intact (fsync-then-rename is atomic), the WAL byte
//! stream — segments concatenated in sequence order — is cut at an
//! arbitrary offset. Offsets below the last group-commit boundary model
//! data the OS never flushed; the contract is that everything **acked**
//! (covered by a completed fsync) is at or below any legal kill offset.

use monster_tsdb::recover::{copy_dir_killed_at, wal_extent};
use monster_tsdb::{DataPoint, Db, DbConfig, Query, TierConfig, WalTuning};
use monster_util::EpochSecs;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("monster-wal-crash-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mk_batch(pts: &[(i64, f64)]) -> Vec<DataPoint> {
    pts.iter()
        .enumerate()
        .map(|(i, &(t, v))| {
            DataPoint::new("m", EpochSecs::new(t))
                .tag("n", if i % 3 == 0 { "a" } else { "b" })
                .field_f64("v", v)
        })
        .collect()
}

fn query_all(db: &Db) -> monster_tsdb::ResultSet {
    let q = Query::select("m", "v", EpochSecs::new(0), EpochSecs::new(10_000));
    db.query(&q).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property. For an arbitrary batch sequence, explicit
    /// sync cadence, and kill offset anywhere in the WAL byte stream:
    ///
    /// * recovery succeeds and replays a *record-aligned* prefix — exactly
    ///   the first `k` batches for some `k`, no partial batch;
    /// * point accounting is exact: the recovered database is
    ///   indistinguishable (stats, watermarks, query results) from a fresh
    ///   twin fed the same `k` batches;
    /// * if the kill offset is at or past the durable boundary (the bytes
    ///   covered by the last group commit), `k` covers every acknowledged
    ///   batch — fsynced data is never lost.
    #[test]
    fn kill_at_any_byte_offset_recovers_a_consistent_prefix(
        batches in prop::collection::vec(
            prop::collection::vec((0i64..10_000, -1e6f64..1e6), 1..20),
            1..12,
        ),
        sync_every in 1usize..5,
        cut_per_mille in 0u64..=1000,
    ) {
        let dir = fresh_dir("prop");
        let config = DbConfig {
            shard_duration: 1000,
            // Tiny segments exercise rolling (a batch is a 40–300 byte
            // record); explicit-sync-only tuning makes the ack boundary
            // deterministic per case.
            wal: WalTuning {
                segment_bytes: 512,
                sync_bytes: usize::MAX,
                sync_interval: Duration::from_secs(3600),
            },
            ..DbConfig::default()
        };
        let (db, _) = Db::recover(config, &dir).unwrap();
        for (i, b) in batches.iter().enumerate() {
            db.write_batch(&mk_batch(b)).unwrap();
            if (i + 1) % sync_every == 0 {
                db.wal_sync().unwrap();
            }
        }
        let status = db.wal_status().unwrap();
        let acked = status.acked_records;
        let unsynced = status.unsynced_bytes as u64;
        drop(db);

        let extent = wal_extent(&dir).unwrap();
        let durable = extent - unsynced;
        let cut = extent * cut_per_mille / 1000;
        let copy = fresh_dir("prop-copy");
        copy_dir_killed_at(&dir, &copy, cut).unwrap();

        let (recovered, report) = Db::recover(config, &copy).unwrap();
        prop_assert_eq!(report.records_failed, 0);
        let k = report.replayed_records as usize;
        prop_assert!(k <= batches.len());
        if cut >= durable {
            prop_assert!(
                k as u64 >= acked,
                "kill at {} >= durable boundary {} lost acked batches: {} < {}",
                cut, durable, k, acked
            );
        }

        // Record-aligned prefix, bit-for-bit: stats, watermarks, results.
        let twin = Db::new(config);
        for b in &batches[..k] {
            twin.write_batch(&mk_batch(b)).unwrap();
        }
        prop_assert_eq!(recovered.stats(), twin.stats());
        prop_assert_eq!(recovered.measurement_marks(), twin.measurement_marks());
        prop_assert_eq!(query_all(&recovered), query_all(&twin));

        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&copy).ok();
    }
}

/// Mixed-type, multi-measurement, multi-shard ingest replays bit-for-bit:
/// a WAL record is the resolved batch in batch order, which is exactly what
/// `write_batch` applied — so a recovered database has the statistics of,
/// and answers queries byte-identically to, an uninterrupted twin fed the
/// same batches.
#[test]
fn mixed_ingest_survives_restart_bit_for_bit() {
    let dir = fresh_dir("mixed");
    let config = DbConfig { shard_duration: 1000, ..DbConfig::default() };
    let (db, _) = Db::recover(config, &dir).unwrap();
    let twin = Db::new(config);
    for i in 0..300i64 {
        let batch = vec![
            DataPoint::new("Power", EpochSecs::new(i * 13 % 5000))
                .tag("NodeId", format!("10.101.1.{}", i % 4 + 1))
                .field_f64("Reading", 250.0 + i as f64)
                .field_i64("Health", i % 3),
            DataPoint::new("NodeJobs", EpochSecs::new(i * 13 % 5000))
                .tag("NodeId", format!("10.101.1.{}", i % 4 + 1))
                .field_str("JobList", format!("['{}']", 1_290_000 + i)),
        ];
        db.write_batch(&batch).unwrap();
        twin.write_batch(&batch).unwrap();
    }
    // An orderly drop forces the final group commit.
    drop(db);

    let (recovered, report) = Db::recover(config, &dir).unwrap();
    assert!(!report.torn_tail);
    assert_eq!(recovered.stats(), twin.stats());
    assert_eq!(recovered.measurement_marks(), twin.measurement_marks());
    for (m, f) in [("Power", "Reading"), ("Power", "Health"), ("NodeJobs", "JobList")] {
        let q = Query::select(m, f, EpochSecs::new(0), EpochSecs::new(10_000));
        let (a, _) = recovered.query(&q).unwrap();
        let (b, _) = twin.query(&q).unwrap();
        assert_eq!(a, b, "recovered {m}.{f} diverged from the uninterrupted twin");
    }
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// Tiering + WAL reclamation + crash: cold shards come back from their
/// immutable segment files, hot shards from WAL replay, and the reclaimed
/// WAL bytes are genuinely not needed.
#[test]
fn tiering_then_crash_recovers_both_tiers() {
    let dir = fresh_dir("tiering");
    let config = DbConfig {
        shard_duration: 86_400,
        disk: monster_sim::DiskModel::SSD,
        tiering: Some(TierConfig::days(2)),
        // Small segments so daily history spans several sealed WAL files
        // and reclamation has something to delete.
        wal: WalTuning { segment_bytes: 16 << 10, ..WalTuning::default() },
        ..DbConfig::default()
    };
    let (db, _) = Db::recover(config, &dir).unwrap();
    for day in 0..5i64 {
        let batch: Vec<DataPoint> = (0..1440)
            .map(|i| {
                DataPoint::new("Power", EpochSecs::new(day * 86_400 + i * 60))
                    .tag("NodeId", "10.101.1.1")
                    .field_f64("Reading", 200.0 + (i % 100) as f64)
            })
            .collect();
        db.write_batch(&batch).unwrap();
    }
    db.wal_sync().unwrap();

    let report = db.tier_cold_shards(EpochSecs::new(5 * 86_400)).unwrap();
    assert_eq!(report.shards_tiered, 3);
    assert!(report.segment_bytes_written > 0);
    assert!(report.wal_segments_reclaimed >= 1, "{report:?}");
    for day in 0..3i64 {
        assert!(
            dir.join(format!("shard-{}.seg", day * 86_400)).exists(),
            "missing segment file for day {day}"
        );
    }
    let whole = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(5 * 86_400))
        .aggregate(monster_tsdb::Aggregation::Mean)
        .group_by_time(3600);
    let (before, _) = db.query(&whole).unwrap();
    drop(db);

    let (recovered, rec) = Db::recover(config, &dir).unwrap();
    assert_eq!(rec.segment_files_loaded, 3);
    assert_eq!(rec.segment_points, 3 * 1440);
    assert_eq!(recovered.stats().points, 5 * 1440);
    let (after, cost) = recovered.query(&whole).unwrap();
    assert_eq!(before, after, "tiered + recovered answers diverged");
    // Cold shards come back cold: history is still priced by the archive
    // device after a restart.
    assert!(cost.bytes_cold > 0 && cost.bytes_cold < cost.bytes, "{cost:?}");
    // And the recovered database keeps logging.
    recovered
        .write(
            DataPoint::new("Power", EpochSecs::new(5 * 86_400))
                .tag("NodeId", "10.101.1.1")
                .field_f64("Reading", 199.0),
        )
        .unwrap();
    recovered.wal_sync().unwrap();
    assert!(recovered.wal_status().unwrap().acked_records >= 1);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// A segment file is a function of the data: two databases fed the same
/// batches tier to byte-identical `.seg` files (each `Shard` hashes its
/// columns under its own `RandomState`, so walking the map would not) and
/// recover to the same series order, the one the batches registered.
#[test]
fn tiered_segments_and_recovered_series_order_are_reproducible() {
    let config = DbConfig {
        shard_duration: 86_400,
        tiering: Some(TierConfig::days(1)),
        ..DbConfig::default()
    };
    let run = |tag: &str| {
        let dir = fresh_dir(tag);
        let (db, _) = Db::recover(config, &dir).unwrap();
        for day in 0..3i64 {
            let batch: Vec<DataPoint> = (0..24 * 40)
                .map(|i| {
                    DataPoint::new("UGE", EpochSecs::new(day * 86_400 + (i / 24) * 60))
                        .tag("NodeId", format!("10.101.1.{}", i % 24 + 1))
                        .field_f64("CPUUsage", (i % 36) as f64)
                        .field_f64("MemUsed", (i % 128) as f64)
                })
                .collect();
            db.write_batch(&batch).unwrap();
        }
        db.wal_sync().unwrap();
        let report = db.tier_cold_shards(EpochSecs::new(3 * 86_400)).unwrap();
        assert_eq!(report.shards_tiered, 2);
        let written = db.series_keys(None);
        drop(db);
        let segs: Vec<Vec<u8>> = (0..2i64)
            .map(|day| std::fs::read(dir.join(format!("shard-{}.seg", day * 86_400))).unwrap())
            .collect();
        let (recovered, _) = Db::recover(config, &dir).unwrap();
        let keys = recovered.series_keys(None);
        assert_eq!(keys, written, "recovery re-registered the series in another order");
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
        (report.segment_bytes_written, segs, keys)
    };
    assert_eq!(run("seg-a"), run("seg-b"));
}

/// A batch that hits a field-type conflict stops there and keeps exactly
/// the prefix that landed before it, one shard at a time in time order:
/// the later day's shard is never created. The WAL logged the whole batch
/// before applying it, so replay meets the same conflict at the same point
/// and rebuilds the same prefix.
#[test]
fn a_conflicting_batch_keeps_its_prefix_across_a_restart() {
    let dir = fresh_dir("conflict");
    let config = DbConfig { shard_duration: 86_400, ..DbConfig::default() };
    let point = |t: i64| DataPoint::new("m", EpochSecs::new(t)).tag("n", "a");
    let (db, _) = Db::recover(config, &dir).unwrap();
    db.write(point(0).field_f64("v", 1.0)).unwrap();
    let batch = [
        point(60).field_f64("w", 2.0),
        point(120).field_str("v", "x"),
        point(86_460).field_f64("v", 3.0),
    ];
    let err = db.write_batch(&batch).unwrap_err();
    assert!(err.to_string().contains("type conflict"), "{err}");
    assert_eq!(db.stats().points, 2, "v@0 and the prefix w@60");
    assert_eq!(db.stats().shards, 1, "the day-1 shard is never created");
    assert_eq!(db.stats(), db.recompute_stats());
    let answer = |db: &Db, field: &str| {
        let q = Query::select("m", field, EpochSecs::new(0), EpochSecs::new(2 * 86_400));
        db.query(&q).unwrap().0
    };
    let (v, w) = (answer(&db, "v"), answer(&db, "w"));
    assert_eq!(v.point_count(), 1);
    assert_eq!(w.point_count(), 1);
    db.wal_sync().unwrap();
    let live = db.stats();
    drop(db);

    let (recovered, report) = Db::recover(config, &dir).unwrap();
    assert_eq!(report.records_failed, 1);
    assert_eq!(recovered.stats(), live);
    assert_eq!(answer(&recovered, "v"), v);
    assert_eq!(answer(&recovered, "w"), w);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

//! Stress test for the sharded-lock engine: concurrent writers, queriers
//! and cold-tier passes (compaction and segment-file export) all running
//! against one database, with point-count conservation checked at the end.
//!
//! The conservation invariant: every point a writer successfully wrote is
//! still queryable — `written == stats().points` — and the O(1)
//! incremental statistics agree exactly with a full walk of the shards
//! ([`Db::recompute_stats`]).

use monster_tsdb::query::Aggregation;
use monster_tsdb::{DataPoint, Db, DbConfig, Query, TierConfig};
use monster_util::EpochSecs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// One test at a time: the second reads deltas of the process-wide lock
/// histogram.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const SHARD: i64 = 300; // 5-minute shards → many shards for each tiering pass
const WRITERS: usize = 4;
const POINTS_PER_WRITER: usize = 1500;

fn point(writer: usize, i: usize) -> DataPoint {
    let ts = (i as i64) * 20; // writers cover the same timeline in lockstep
    DataPoint::new("Power", EpochSecs::new(ts))
        .tag("NodeId", format!("10.101.1.{writer}"))
        .field_f64("Reading", 200.0 + (i % 97) as f64)
}

#[test]
fn writers_queriers_and_tiering_conserve_points() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("monster-stress-tier-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DbConfig {
        shard_duration: SHARD,
        scan_workers: 4,
        tiering: Some(TierConfig { hot_secs: 2 * SHARD, ..TierConfig::days(1) }),
        ..DbConfig::default()
    };
    let db = Arc::new(Db::recover(config, &dir).unwrap().0);

    std::thread::scope(|s| {
        // Writers: mixed batch sizes, all to the same measurement.
        for w in 0..WRITERS {
            let db = Arc::clone(&db);
            s.spawn(move || {
                let mut i = 0usize;
                while i < POINTS_PER_WRITER {
                    let batch_len = (1 + i % 37).min(POINTS_PER_WRITER - i);
                    let batch: Vec<DataPoint> = (i..i + batch_len).map(|j| point(w, j)).collect();
                    db.write_batch(&batch).unwrap();
                    i += batch_len;
                }
            });
        }
        // Queriers: windowed aggregations racing the writers.
        for _ in 0..2 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for _ in 0..60 {
                    let q = Query::select(
                        "Power",
                        "Reading",
                        EpochSecs::new(0),
                        EpochSecs::new(POINTS_PER_WRITER as i64 * 20),
                    )
                    .aggregate(Aggregation::Count)
                    .group_by_time(SHARD);
                    let (_rs, cost) = db.query(&q).unwrap();
                    // Bound by the whole timeline's shard count (the map
                    // grows underneath us, so only the static bound holds).
                    assert!(cost.shards_scanned <= (POINTS_PER_WRITER * 20) / SHARD as usize + 1);
                }
            });
        }
        // Tiering: passes at a rising `now`, each compacting shards and
        // exporting them to segment files while writers and queriers run.
        {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for step in 1..=5i64 {
                    // The pass must complete without deadlock or panic while
                    // writers fill shards; what it tiers is a moving target, so
                    // only the final (quiesced) pass is checked.
                    db.tier_cold_shards(EpochSecs::new(step * 20 * SHARD)).unwrap();
                    std::thread::yield_now();
                }
            });
        }
    });
    // Quiesced: a last pass tiers every shard still hot.
    db.tier_cold_shards(EpochSecs::new(POINTS_PER_WRITER as i64 * 20 + 3 * SHARD)).unwrap();

    // Conservation: every acknowledged point is live, none counted twice.
    let written = WRITERS * POINTS_PER_WRITER;
    let live = db.stats().points;
    assert_eq!(live, written, "live {live} != written {written}");

    // The O(1) counters must agree exactly with a full shard walk.
    assert_eq!(db.stats(), db.recompute_stats());

    // Quiesced: a count over the whole timeline sees exactly the live set.
    let q = Query::select(
        "Power",
        "Reading",
        EpochSecs::new(0),
        EpochSecs::new(POINTS_PER_WRITER as i64 * 20),
    )
    .aggregate(Aggregation::Count)
    .group_by_time(SHARD);
    let (rs, cost) = db.query(&q).unwrap();
    let counted: f64 =
        rs.series.iter().flat_map(|s| s.points.iter()).filter_map(|(_, v)| v.as_f64()).sum();
    assert_eq!(counted as usize, live);

    // ...and all of it from the cold tier.
    assert_eq!((cost.bytes_cold, cost.blocks_cold), (cost.bytes, cost.blocks), "{cost:?}");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// The whole timeline of one writer's series, counted per shard-wide window.
fn count_all(writer: usize) -> Query {
    Query::select(
        "Power",
        "Reading",
        EpochSecs::new(0),
        EpochSecs::new(POINTS_PER_WRITER as i64 * 20),
    )
    .aggregate(Aggregation::Count)
    .where_tag("NodeId", format!("10.101.1.{writer}"))
    .group_by_time(SHARD)
}

fn counted(rs: &monster_tsdb::ResultSet) -> usize {
    rs.series.iter().flat_map(|s| &s.points).filter_map(|(_, v)| v.as_f64()).sum::<f64>() as usize
}

#[test]
fn batches_scan_beside_a_writer_without_holding_a_shard_across_queries() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let db = Db::new(DbConfig { shard_duration: SHARD, scan_workers: 4, ..DbConfig::default() });
    let half = POINTS_PER_WRITER / 2;
    for w in 0..WRITERS {
        db.write_batch(&(0..half).map(|i| point(w, i)).collect::<Vec<_>>()).unwrap();
    }
    let batch: Vec<Query> = (0..WRITERS).map(count_all).collect();

    // The lock-granularity rule, counted on a quiet database: every
    // (query, shard) pair takes the shard's read lock for itself (here each
    // query has one series and many shards, so that is one acquisition an
    // item), on top of the batch's one shard-map and one index acquisition.
    // A batch that kept a shard locked from one query to the next would
    // come in under this.
    let holds = monster_obs::histo("monster_tsdb_lock_hold_seconds");
    let before = holds.count();
    let quiet = db.query_batch(&batch, 4);
    let acquisitions = holds.count() - before;
    let shard_scans: usize =
        quiet.iter().map(|r| r.as_ref().expect("valid query").1.shards_scanned).sum();
    assert_eq!(shard_scans, WRITERS * (half * 20).div_ceil(SHARD as usize));
    assert_eq!(acquisitions as usize, 2 + shard_scans);
    for r in &quiet {
        assert_eq!(counted(&r.as_ref().unwrap().0), half);
    }

    // Now beside a writer appending to those same shards and opening new
    // ones. Writer and reader leave the barrier together; the reader keeps
    // batching until the writer is done. Every batch must see at least the
    // points acknowledged before it started and at most those handed to
    // `write_batch` by the time it ended.
    let (handed, acked) = (AtomicUsize::new(half), AtomicUsize::new(half));
    let start = Barrier::new(2);
    let batches = std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            let mut i = half;
            while i < POINTS_PER_WRITER {
                let upto = (i + 1 + i % 13).min(POINTS_PER_WRITER);
                let points: Vec<DataPoint> =
                    (0..WRITERS).flat_map(|w| (i..upto).map(move |j| point(w, j))).collect();
                handed.store(upto, Ordering::SeqCst);
                db.write_batch(&points).unwrap();
                acked.store(upto, Ordering::SeqCst);
                i = upto;
            }
        });
        start.wait();
        let mut batches = 0usize;
        loop {
            let floor = acked.load(Ordering::SeqCst);
            let results = db.query_batch(&batch, 4);
            let ceiling = handed.load(Ordering::SeqCst);
            for r in results {
                let seen = counted(&r.expect("valid query").0);
                assert!(
                    (floor..=ceiling).contains(&seen),
                    "a batch saw {seen} points of a series holding {floor}..={ceiling}"
                );
            }
            batches += 1;
            if floor == POINTS_PER_WRITER {
                break batches;
            }
        }
    });
    assert!(batches >= 1);

    // Quiesced: conservation, by the counters and by a scan.
    assert_eq!(db.stats().points, WRITERS * POINTS_PER_WRITER);
    assert_eq!(db.stats(), db.recompute_stats());
    for r in db.query_batch(&batch, 4) {
        assert_eq!(counted(&r.unwrap().0), POINTS_PER_WRITER);
    }
}

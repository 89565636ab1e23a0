//! Compaction behaviour: sealing raw tails shrinks at-rest volume without
//! changing query answers.

use counting_alloc::counted;
use monster_tsdb::query::Aggregation;
use monster_tsdb::{DataPoint, Db, DbConfig, Query};
use monster_util::EpochSecs;

/// Many slow series: 64 nodes × 500 samples each stays below the 1024-point
/// self-seal threshold, so everything sits in raw tails.
fn seeded() -> Db {
    let db = Db::new(DbConfig::default());
    let mut batch = Vec::new();
    for i in 0..500i64 {
        for n in 0..64 {
            batch.push(
                DataPoint::new("Power", EpochSecs::new(i * 60))
                    .tag("NodeId", format!("10.101.1.{n}"))
                    .field_f64("Reading", 250.0 + (i % 11) as f64),
            );
        }
    }
    db.write_batch(&batch).unwrap();
    db
}

fn full_query(db: &Db) -> monster_tsdb::ResultSet {
    let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(500 * 60))
        .aggregate(Aggregation::Mean)
        .group_by_time(600);
    db.query(&q).unwrap().0
}

#[test]
fn compaction_shrinks_volume_and_preserves_answers() {
    let db = seeded();
    assert_eq!(db.tail_points(), 32_000, "fixture should be all-tail");
    let before_bytes = db.stats().encoded_bytes;
    let before_answers = full_query(&db);

    let (sealed, saved) = db.compact();
    assert_eq!(sealed, 64);
    assert!(saved > 0, "saved {saved}");
    assert_eq!(db.tail_points(), 0);
    // Regular 60 s cadence + small value vocabulary: sealed blocks are
    // far smaller than 16 B/point raw.
    let after_bytes = db.stats().encoded_bytes;
    assert!(after_bytes * 3 < before_bytes, "before {before_bytes} after {after_bytes}");
    assert_eq!(full_query(&db), before_answers);
}

#[test]
fn compaction_is_idempotent() {
    let db = seeded();
    db.compact();
    let (sealed, saved) = db.compact();
    assert_eq!(sealed, 0);
    assert_eq!(saved, 0);
}

#[test]
fn writes_after_compaction_keep_working() {
    let db = seeded();
    db.compact();
    db.write(
        DataPoint::new("Power", EpochSecs::new(500 * 60))
            .tag("NodeId", "10.101.1.0")
            .field_f64("Reading", 999.0),
    )
    .unwrap();
    assert_eq!(db.tail_points(), 1);
    let q = Query::select("Power", "Reading", EpochSecs::new(500 * 60), EpochSecs::new(501 * 60));
    let (rs, _) = db.query(&q).unwrap();
    assert_eq!(rs.point_count(), 1);
}

/// A day of 60 s readings is one sealed 1 024-point block and a 416-point
/// tail a column. The self-seal kept the tail's 1 024-slot buffer for the
/// points to come; compaction, which seals the rest, frees it: what the
/// writes and the compaction leave live is the sealed blocks and a small
/// constant a column (its key, index entries and block list), not the
/// 16 KiB of a float tail's buffer or the 32 KiB of a string tail's.
#[test]
fn compaction_frees_the_tail_buffers() {
    const SERIES: usize = 16;
    const PER_COLUMN: usize = 4 << 10;
    let db = Db::new(DbConfig::default());
    let batch: Vec<DataPoint> = (0..1440i64)
        .flat_map(|i| {
            (0..SERIES).map(move |n| {
                DataPoint::new("Node", EpochSecs::new(i * 60))
                    .tag("NodeId", format!("10.101.1.{n}"))
                    .field_f64("Reading", 250.0 + (i % 11) as f64)
                    .field_str("JobList", format!("['{}']", 1_290_000 + i / 120))
            })
        })
        .collect();
    let ((), live) = counted(|| {
        db.write_batch(&batch).unwrap();
        assert_eq!(db.tail_points(), 2 * SERIES * 416);
        assert_eq!(db.compact().0, 2 * SERIES);
    });
    assert_eq!(db.tail_points(), 0);
    let sealed = db.stats().encoded_bytes;
    let columns = 2 * SERIES;
    assert!(
        live.live as usize <= sealed + columns * PER_COLUMN,
        "{} B live for {sealed} B of blocks in {columns} columns",
        live.live
    );
}

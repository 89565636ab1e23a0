//! Steady-state ingest must not allocate per point.
//!
//! Before the sharded-lock rework, `Shard::append` built a
//! `(SeriesId, String)` column key per point — one heap allocation per
//! field value written, forever. With interned `FieldId`s the key is two
//! `Copy` u32s, so once series/fields/columns/tails are warm, a
//! `write_batch` allocates only its O(log n) grouping buffers.
//!
//! `counting_alloc::counted` proves it: the write path runs on the calling
//! thread and the window is that thread's, so sibling tests are not in it
//! and nothing serializes.

use counting_alloc::counted;
use monster_tsdb::wal::Wal;
use monster_tsdb::{DataPoint, Db, DbConfig, FieldId, SeriesId, WalTuning};
use monster_util::EpochSecs;

const NODES: usize = 50;

fn batch_at(ts: i64) -> Vec<DataPoint> {
    (0..NODES)
        .map(|n| {
            DataPoint::new("Power", EpochSecs::new(ts))
                .tag("NodeId", format!("10.101.1.{n}"))
                .tag("Label", "NodePower")
                .field_f64("Reading", 250.0 + n as f64)
                .field_i64("Health", ts % 3)
        })
        .collect()
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("monster-alloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Allocations of 20 warm `write_batch` calls into `db`.
fn steady_state_allocs(db: &Db) -> usize {
    // Warm-up: create series, intern fields, materialize the shard and
    // every column, and grow each column tail past the batch sizes below.
    for i in 0..40 {
        db.write_batch(&batch_at(i * 60)).unwrap();
    }

    // Steady state: same series, same shard, pre-built batches.
    let batches: Vec<Vec<DataPoint>> = (40..60).map(|i| batch_at(i * 60)).collect();
    counted(|| batches.iter().for_each(|b| db.write_batch(b).unwrap())).1.blocks
}

#[test]
fn steady_state_ingest_does_not_allocate_per_point() {
    let points_written = 20 * NODES * 2; // 20 batches, 2 fields a point
    let memory_only = steady_state_allocs(&Db::new(DbConfig::default()));

    // The old engine allocated a String key per field value — at least
    // one allocation per point (2000 here). The new hot path allocates
    // only per-batch bookkeeping (id vectors, the shard-group buffer, obs
    // lookups): a small constant per batch, far below one per point.
    assert!(
        memory_only < points_written / 10,
        "steady-state ingest allocated {memory_only} times for {points_written} points"
    );

    // Logging the batch adds nothing: the record is encoded from the
    // resolved ids straight into the appender's retained frame buffer.
    let dir = scratch_dir("ingest");
    let (durable, _) = Db::recover(DbConfig::default(), &dir).unwrap();
    let wal_on = steady_state_allocs(&durable);
    assert_eq!(durable.wal_status().unwrap().appended_records, 60);
    assert!(
        wal_on <= memory_only,
        "WAL-on ingest allocated {wal_on} times, memory-only {memory_only}"
    );
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The WAL appender is *strictly* allocation-free once warm (`wal.rs`
/// module docs): a record is encoded into one retained frame buffer against
/// the segment's retained dictionary and written with plain `write(2)`s.
/// Group-commit syncs are syscall-only; the default 8 MiB segment never
/// rolls on this volume.
#[test]
fn warm_wal_append_does_not_allocate() {
    let dir = scratch_dir("wal");
    let wal = Wal::create(&dir, WalTuning::default()).unwrap();
    // Ids as a fresh series index hands them out: a series a node, the
    // two field names.
    let series: Vec<SeriesId> = (0..NODES as u32).map(SeriesId).collect();
    let fields: Vec<FieldId> = (0..NODES).flat_map(|_| [FieldId(0), FieldId(1)]).collect();
    let batches: Vec<Vec<DataPoint>> = (0..23).map(|i| batch_at(i * 60)).collect();

    // Warm-up: the frame buffer grows to the record size (the first record,
    // which spells every series out, is the largest) and the dictionary to
    // the id space.
    for b in &batches[..3] {
        wal.append_batch(b, &series, &fields).unwrap();
    }

    let ((), warm) = counted(|| {
        for b in &batches[3..] {
            wal.append_batch(b, &series, &fields).unwrap();
        }
    });
    let allocs = warm.blocks;

    assert_eq!(allocs, 0, "20 warm WAL appends allocated {allocs} times");
    assert_eq!(wal.status().appended_records, 23);
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-stage proof: resolution, append, and wire accounting are each
/// individually allocation-free once warm (the batch-level test above
/// bounds what's left: grouping buffers and obs bookkeeping).
#[test]
fn warm_engine_stages_do_not_allocate() {
    // Stage bisect with public engine parts.
    use monster_tsdb::series::{SeriesIndex, SeriesKey};
    use monster_tsdb::shard::Shard;
    let mut idx = SeriesIndex::new();
    let warm = batch_at(0);
    for p in &warm {
        idx.get_or_create(&SeriesKey::of(p));
        for (name, _) in &p.fields {
            idx.intern_field(name);
        }
    }
    let b3 = batch_at(42 * 60);
    let (n, resolution) = counted(|| {
        let mut n = 0usize;
        for p in &b3 {
            if idx.id_of_point(p).is_some() {
                n += 1;
            }
            for (name, _) in &p.fields {
                let _ = idx.field_id(name);
            }
        }
        n
    });
    assert_eq!(n, b3.len());
    assert_eq!(resolution.blocks, 0, "warm id resolution allocated");

    let mut shard = Shard::new(0, i64::MAX);
    for i in 0..40 {
        for (j, p) in batch_at(i * 60).iter().enumerate() {
            for (fi, (_, v)) in p.fields.iter().enumerate() {
                shard
                    .append(
                        monster_tsdb::SeriesId(j as u32),
                        monster_tsdb::FieldId(fi as u32),
                        p.time.as_secs(),
                        v,
                    )
                    .unwrap();
            }
        }
    }
    let b4 = batch_at(43 * 60);
    let ((), append) = counted(|| {
        for (j, p) in b4.iter().enumerate() {
            for (fi, (_, v)) in p.fields.iter().enumerate() {
                shard
                    .append(
                        monster_tsdb::SeriesId(j as u32),
                        monster_tsdb::FieldId(fi as u32),
                        p.time.as_secs(),
                        v,
                    )
                    .unwrap();
            }
        }
    });
    assert_eq!(append.blocks, 0, "warm shard append allocated");

    let (wire, accounting) = counted(|| b4.iter().map(DataPoint::wire_size).sum::<usize>());
    assert!(wire > 0);
    assert_eq!(accounting.blocks, 0, "wire-size accounting allocated");
}

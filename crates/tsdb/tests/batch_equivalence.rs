//! Property test: `Db::query_batch` is `Db::query` mapped over the batch.
//!
//! A batch is planned under one index lock and one shard-map snapshot, cut
//! into weight-balanced chunks that ignore query boundaries, scanned on up
//! to `min(workers, scan_workers, cores)` threads, and stitched back
//! together. None of that may show: every query's result set, every field
//! of its `QueryCost`, and which slots hold an error must equal what the
//! same queries give one at a time — on this engine and on a
//! `scan_workers = 1` twin that never spawns.
//!
//! The data is sized so that batches cross the inline threshold (sealed
//! blocks weigh 16 a point): with two cores or more the threaded path, its
//! cuts and its stitching are what is being compared.

use monster_tsdb::concurrent::{run_concurrent, run_sequential};
use monster_tsdb::query::Aggregation;
use monster_tsdb::{DataPoint, Db, DbConfig, Fill, Query};
use monster_util::{pool, EpochSecs};
use proptest::prelude::*;

const SHARD: i64 = 3_000;
const NODES: [&str; 4] = ["n1", "n2", "n3", "n4"];

/// `shards` shards of one-second samples: each column self-seals two
/// 1 024-point blocks a shard and keeps a 952-point tail. Then `late`
/// out-of-order stragglers, so some tails are unsorted.
fn build(scan_workers: usize, shards: i64, late: &[(usize, i64, f64)]) -> Db {
    let db = Db::new(DbConfig { shard_duration: SHARD, scan_workers, ..DbConfig::default() });
    let mut batch = Vec::new();
    for ts in 0..shards * SHARD {
        for (n, node) in NODES.iter().enumerate() {
            batch.push(
                DataPoint::new("Power", EpochSecs::new(ts))
                    .tag("NodeId", *node)
                    .tag("Label", if n % 2 == 0 { "a" } else { "b" })
                    .field_f64("Reading", 200.0 + ((ts * 7 + n as i64 * 13) % 97) as f64 * 0.37)
                    .field_i64("Sequence", ts),
            );
        }
    }
    db.write_batch(&batch).unwrap();
    for &(n, ts, reading) in late {
        db.write(
            DataPoint::new("Power", EpochSecs::new(ts % (shards * SHARD)))
                .tag("NodeId", NODES[n % NODES.len()])
                .tag("Label", if n % 2 == 0 { "a" } else { "b" })
                .field_f64("Reading", reading),
        )
        .unwrap();
    }
    db
}

fn arb_query(horizon: i64) -> impl Strategy<Value = Query> {
    let what = (
        prop_oneof![Just("Power"), Just("Absent")],
        prop_oneof![Just("Reading"), Just("Sequence"), Just("Missing")],
        prop_oneof![Just(None), Just(Some("n1")), Just(Some("n3")), Just(Some("nX"))],
        // A fifth of the ranges are empty or inverted: invalid queries.
        (0..horizon, -horizon / 4..horizon),
    );
    let how = (
        prop_oneof![
            Just(None),
            Just(Some(Aggregation::Max)),
            Just(Some(Aggregation::Mean)),
            Just(Some(Aggregation::Sum)),
            Just(Some(Aggregation::Count)),
        ],
        prop_oneof![Just(120i64), Just(1_500), Just(6_000)],
        prop_oneof![Just(Fill::None), Just(Fill::Zero), Just(Fill::Previous)],
        prop_oneof![Just(None), (1usize..40).prop_map(Some)],
    );
    (what, how).prop_map(|((m, field, node, (start, len)), (agg, window, fill, limit))| {
        let mut q = Query::select(m, field, EpochSecs::new(start), EpochSecs::new(start + len));
        q.agg = agg;
        if agg.is_some() {
            q = q.group_by_time(window);
            q.fill = fill;
        }
        q.limit = limit;
        if let Some(n) = node {
            q = q.where_tag("NodeId", n);
        }
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_equals_queries_one_at_a_time(
        shards in 1i64..4,
        late in prop::collection::vec((0usize..4, 0i64..9_000, -50.0f64..50.0), 0..12),
        queries in prop::collection::vec(arb_query(9_000), 1..24),
        compact in any::<bool>(),
    ) {
        let reference = build(1, shards, &late);
        if compact {
            reference.compact();
        }
        let expected: Vec<_> = queries.iter().map(|q| reference.query(q)).collect();
        let first_error = expected.iter().position(|r| r.is_err());

        for scan_workers in [1usize, 2, 8] {
            let db = build(scan_workers, shards, &late);
            if compact {
                db.compact();
            }
            for workers in [1usize, 2, 8] {
                let got = db.query_batch(&queries, workers);
                prop_assert_eq!(got.len(), expected.len());
                for (i, (got, want)) in got.iter().zip(&expected).enumerate() {
                    match (got, want) {
                        (Ok((rs, cost)), Ok((want_rs, want_cost))) => {
                            prop_assert!(rs == want_rs, "query {} result differs", i);
                            prop_assert!(cost == want_cost, "query {i}: {cost:?} != {want_cost:?}");
                        }
                        (Err(e), Err(want)) => {
                            prop_assert_eq!(e.to_string(), want.to_string())
                        }
                        _ => prop_assert!(false, "query {} ok/err differs from the reference", i),
                    }
                }
                // The same engine, one query at a time.
                for (q, batched) in queries.iter().zip(&got) {
                    match (db.query(q), batched) {
                        (Ok(single), Ok(batched)) => prop_assert_eq!(&single, batched),
                        (Err(_), Err(_)) => {}
                        _ => prop_assert!(false, "single/batched ok/err differ"),
                    }
                }
            }
            // The wrappers surface the first error and agree on the rest.
            let refs: Vec<&Query> = queries.iter().collect();
            let seq = run_sequential(&db, &refs);
            let con = run_concurrent(&db, &refs, 8);
            prop_assert_eq!(seq.total_cost, con.total_cost);
            prop_assert_eq!(&seq.costs, &con.costs);
            prop_assert_eq!(seq.results.iter().position(|r| r.is_err()), first_error);
            prop_assert_eq!(con.results.iter().position(|r| r.is_err()), first_error);
            prop_assert_eq!(seq.into_results().is_err(), first_error.is_some());
        }
    }
}

/// The proptest above only exercises the cuts if batches really fan out.
#[test]
fn heavy_batches_fan_out_and_single_series_queries_do_not() {
    let db = build(8, 2, &[]);
    let whole = |node: &str| {
        Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(2 * SHARD))
            .aggregate(Aggregation::Mean)
            .where_tag("NodeId", node)
            .group_by_time(120)
    };
    let queries: Vec<Query> = NODES.iter().map(|n| whole(n)).collect();

    let before = pool::spawned_by_this_thread();
    let batched = db.query_batch(&queries, 8);
    let spawned = pool::spawned_by_this_thread() - before;
    let threads = 8.min(pool::cores());
    assert!((spawned as usize) < threads, "{spawned} spawns for {threads} threads");
    if pool::cores() >= 2 {
        assert!(spawned >= 1, "4 queries x 2 shards x 2 048 sealed points must not run inline");
    }

    // One thread allowed: none spawned, same answers.
    let before = pool::spawned_by_this_thread();
    let inline = db.query_batch(&queries, 1);
    assert_eq!(pool::spawned_by_this_thread(), before);
    for (a, b) in batched.iter().zip(&inline) {
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
    }

    // A single-series query over one shard's tail is far below the inline
    // threshold whatever `scan_workers` allows.
    let narrow = Query::select("Power", "Reading", EpochSecs::new(2_900), EpochSecs::new(3_000))
        .where_tag("NodeId", "n1");
    let before = pool::spawned_by_this_thread();
    let (rs, cost) = db.query(&narrow).unwrap();
    assert_eq!(pool::spawned_by_this_thread(), before, "a light query spawned a thread");
    assert_eq!(rs.point_count(), 100);
    assert_eq!(cost.shards_scanned, 1);
}

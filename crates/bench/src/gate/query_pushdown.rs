//! Aggregation-pushdown gate: zone-map summaries vs forced full decode for
//! windowed queries. Its golden is `BENCH_query.json`: the block, point and
//! modelled-time counts, which are a function of the code.
//!
//! The workload is the dashboard shape the Metrics Builder serves:
//! hour-windowed `mean` over 2 simulated days of 1 Hz samples. At that
//! cadence a sealed block spans ~17 minutes, so most blocks land fully
//! inside one hourly window and are answered from their zone maps; only
//! the window-edge blocks decode. Two engines run the identical queries:
//!
//! * **pushdown** — `DbConfig::pushdown = true` (the default);
//! * **full decode** — `pushdown = false`, the pre-zone-map read path.
//!
//! Both return bit-identical results (asserted on every iteration); the
//! difference is pure read-path work, reported two ways:
//!
//! * **modelled** — `Db::simulate_elapsed` over the returned `QueryCost`,
//!   the repo's deterministic simulated-time method (decoded blocks pay
//!   decode CPU + block I/O, summarized blocks pay a flat probe): ≥ 3×;
//! * **wall-clock** — the p50 of real query latency, which is what twelve
//!   samples a side support. A reading with a bar (pushdown may not be
//!   slower than the decode it skips), not committed: the paper-scale
//!   number for a query is `bench_pipeline`'s `tsdb.query_ms`.

use super::{Outcome, Wall};
use crate::power_samples;
use monster_json::jobj;
use monster_tsdb::query::Aggregation;
use monster_tsdb::{Db, DbConfig, Query, QueryCost};
use monster_util::stats::percentile;
use monster_util::EpochSecs;
use std::time::Instant;

const DAY: i64 = 86_400;

const SERIES: usize = 4;
const DAYS: i64 = 2;
const CADENCE_SECS: i64 = 1;
const ITERATIONS: usize = 12;

pub fn run() -> Outcome {
    // --- identical data in two engines, one per read path ---------------
    let push_db = Db::new(DbConfig { pushdown: true, ..DbConfig::default() });
    let full_db = Db::new(DbConfig { pushdown: false, ..DbConfig::default() });
    let mut total_points = 0usize;
    for s in 0..SERIES {
        for d in 0..DAYS {
            let batch = power_samples(s, d * DAY, (d + 1) * DAY, CADENCE_SECS);
            total_points += batch.len();
            push_db.write_batch(&batch).unwrap();
            full_db.write_batch(&batch).unwrap();
        }
    }
    // Seal every tail: the pushdown only applies to sealed blocks.
    push_db.compact();
    full_db.compact();

    // --- the dashboard query: hourly mean over the whole range ----------
    let q = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(DAYS * DAY))
        .aggregate(Aggregation::Mean)
        .group_by_time(3600);

    let mut push_lat_us: Vec<f64> = Vec::with_capacity(ITERATIONS);
    let mut full_lat_us: Vec<f64> = Vec::with_capacity(ITERATIONS);
    let mut push_cost = QueryCost::default();
    let mut full_cost = QueryCost::default();
    // Iteration 0 warms both sides (first-touch page faults, scratch
    // growth) and is not timed.
    for i in 0..=ITERATIONS {
        let t = Instant::now();
        let (rs_push, c_push) = push_db.query(&q).unwrap();
        let push_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let (rs_full, c_full) = full_db.query(&q).unwrap();
        let full_us = t.elapsed().as_secs_f64() * 1e6;
        // The whole point: identical answers, bit for bit.
        assert_eq!(rs_push, rs_full, "pushdown diverged from full decode");
        assert_eq!(rs_push.series.len(), SERIES);
        if i == 0 {
            (push_cost, full_cost) = (c_push, c_full);
        } else {
            push_lat_us.push(push_us);
            full_lat_us.push(full_us);
        }
    }

    // Every sealed block is either decoded or summarized, never both.
    assert_eq!(push_cost.blocks + push_cost.blocks_summarized, full_cost.blocks);
    assert_eq!(full_cost.blocks_summarized, 0);

    let modelled_push = push_db.simulate_elapsed(&push_cost).as_secs_f64();
    let modelled_full = full_db.simulate_elapsed(&full_cost).as_secs_f64();
    let modelled_speedup = modelled_full / modelled_push;
    let (push_p50, full_p50) = (percentile(&push_lat_us, 0.50), percentile(&full_lat_us, 0.50));
    let summarized_frac = push_cost.blocks_summarized as f64 / full_cost.blocks.max(1) as f64;

    let doc = jobj! {
        "bench" => "query_pushdown",
        "series" => SERIES as i64,
        "days" => DAYS,
        "cadence_secs" => CADENCE_SECS,
        "total_points" => total_points as i64,
        "window_secs" => 3600,
        "aggregation" => "mean",
        "blocks" => jobj! {
            "summarized" => push_cost.blocks_summarized as i64,
            "decoded_pushdown" => push_cost.blocks as i64,
            "decoded_full" => full_cost.blocks as i64,
            "summary_hit_fraction" => summarized_frac,
        },
        "points_decoded" => jobj! {
            "pushdown" => push_cost.points as i64,
            "full" => full_cost.points as i64,
        },
        "modelled" => jobj! {
            "pushdown_secs" => modelled_push,
            "full_decode_secs" => modelled_full,
            "speedup" => modelled_speedup,
        },
    };
    // Acceptance bars: >= 3x modelled (window >> block span), and on the
    // wall the pushdown is not slower than the decode it skips.
    assert!(
        modelled_speedup >= 3.0,
        "modelled speedup {modelled_speedup:.2}x < 3x over forced full decode"
    );
    let reading = format!(
        "wall p50 of {ITERATIONS}: {push_p50:.0}us pushdown vs {full_p50:.0}us full decode \
         ({:.2}x; the pushdown may not be slower)",
        full_p50 / push_p50
    );
    Outcome { doc, walls: vec![Wall { reading, held: push_p50 <= full_p50 }] }
}

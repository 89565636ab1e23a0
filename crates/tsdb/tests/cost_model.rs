//! The cost model (`monster_tsdb::cost`), held from outside the crate:
//!
//! * every price is the one it was before the model had one home, bit for
//!   bit — per query against every hot/cold pair of the paper's devices,
//!   per batch in both execution modes on one device, and the builder's
//!   marshalling (`COST_CASES` sets the cases: 4 096 by default, CI runs
//!   200 000 in release);
//! * both execution modes price a tiered store's cold shards on the cold
//!   device: on an SSD-hot store, one worker costs exactly the sequential
//!   time plus one query's fan-out overhead.

use monster_sim::{DiskModel, VDuration};
use monster_tsdb::concurrent::{run_concurrent, run_sequential};
use monster_tsdb::cost::{batch_elapsed, processing_elapsed};
use monster_tsdb::{
    Aggregation, CostParams, DataPoint, Db, DbConfig, Query, QueryCost, TierConfig,
};
use monster_util::EpochSecs;
use proptest::prelude::*;
use std::sync::Arc;

/// The formulas as they stood before pricing moved into one function: the
/// oracle the model is held to.
mod before {
    use super::*;

    pub const FANOUT_OVERHEAD_SECS: f64 = 0.7e-3;
    const PER_OUTPUT_POINT_SECS: f64 = 1.0e-6;
    const PER_QUERY_MARSHAL_SECS: f64 = 0.1e-3;

    /// `CostParams::split_tiered`.
    pub fn split_tiered(
        p: &CostParams,
        cost: &QueryCost,
        hot: &DiskModel,
        cold: &DiskModel,
    ) -> (VDuration, VDuration) {
        let a = p.amplification;
        let hot_bytes = cost.bytes.saturating_sub(cost.bytes_cold) as f64;
        let hot_blocks = cost.blocks.saturating_sub(cost.blocks_cold) as f64;
        let transfer = hot_bytes * a / hot.read_bw + cost.bytes_cold as f64 * a / cold.read_bw;
        let accesses = (hot_blocks * hot.access_latency
            + cost.blocks_cold as f64 * cold.access_latency)
            * a
            * p.block_access_factor;
        let io = VDuration::from_secs_f64(transfer + accesses);
        let fanout = p.scan_workers.min(cost.shards_scanned.max(1)).max(1) as f64;
        let scan_cpu = (cost.points as f64 * a * p.per_point_cpu
            + cost.blocks_summarized as f64 * a * p.per_summary_probe
            + cost.series as f64 * a * p.per_series)
            / fanout;
        let serial_cpu = cost.index_entries as f64 * a * p.per_index_entry
            + cost.queries as f64 * a * p.per_query;
        (VDuration::from_secs_f64(scan_cpu + serial_cpu), io)
    }

    /// `run_sequential`: the sum of each query's `CostParams::elapsed`.
    pub fn sequential(p: &CostParams, ran: &[QueryCost], disk: &DiskModel) -> VDuration {
        ran.iter()
            .map(|c| {
                let (cpu, io) = split_tiered(p, c, disk, disk);
                cpu + io
            })
            .sum()
    }

    /// `run_concurrent`: longest-first bins, serial I/O, fan-out overhead.
    pub fn concurrent(
        p: &CostParams,
        ran: &[QueryCost],
        submitted: usize,
        workers: usize,
        disk: &DiskModel,
    ) -> VDuration {
        let (mut cpu_each, io_each): (Vec<VDuration>, Vec<VDuration>) =
            ran.iter().map(|c| split_tiered(p, c, disk, disk)).unzip();
        cpu_each.sort_unstable_by(|a, b| b.cmp(a));
        let mut bins = vec![VDuration::ZERO; workers];
        for d in cpu_each {
            let min = bins.iter_mut().min().expect("at least one worker");
            *min += d;
        }
        let slowest_cpu = bins.into_iter().max().unwrap_or(VDuration::ZERO);
        let io_total: VDuration = io_each.into_iter().sum();
        let overhead =
            VDuration::from_secs_f64(FANOUT_OVERHEAD_SECS * submitted as f64 * p.amplification);
        slowest_cpu + io_total + overhead
    }

    /// `Batch::render_into`'s processing time.
    pub fn processing(p: &CostParams, points_out: usize, queries: usize) -> VDuration {
        VDuration::from_secs_f64(
            (points_out as f64 * PER_OUTPUT_POINT_SECS + queries as f64 * PER_QUERY_MARSHAL_SECS)
                * p.amplification,
        )
    }
}

fn cases() -> u32 {
    std::env::var("COST_CASES").map_or(4096, |n| n.parse().expect("a case count"))
}

const DEVICES: [DiskModel; 2] = [DiskModel::HDD, DiskModel::SSD];

fn arb_params() -> impl Strategy<Value = CostParams> {
    (0.01f64..500.0, 1usize..9).prop_map(|(amp, scan_workers)| CostParams {
        scan_workers,
        ..CostParams::default().with_amplification(amp)
    })
}

/// A cost whose cold subsets are at most its totals (a random share of
/// them, in thousandths, all of them included).
fn arb_cost() -> impl Strategy<Value = QueryCost> {
    let counts = (0usize..2_000_000, 0usize..20_000, 0usize..100_000, 0usize..100_000);
    let sizes = (0usize..50_000_000, 0usize..200_000, 0usize..40, 0usize..3_000);
    (counts, sizes, 0usize..1001, 0usize..1001).prop_map(
        |((points, series, blocks, blocks_summarized), sizes, cold_blocks, cold_bytes)| {
            let (bytes, index_entries, shards_scanned, queries) = sizes;
            QueryCost {
                index_entries,
                series,
                blocks,
                blocks_summarized,
                points,
                bytes,
                blocks_cold: blocks * cold_blocks / 1000,
                bytes_cold: bytes * cold_bytes / 1000,
                shards_scanned,
                queries,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// One query's price is the old tiered split on every device pair, and
    /// a batch's, in either mode, the old batch model on one device.
    #[test]
    fn every_price_is_the_one_before_it_had_one_home(
        p in arb_params(),
        ran in proptest::collection::vec(arb_cost(), 0..24),
        failed in 0usize..4,
        workers in 1usize..=16,
        pair in (0usize..2, 0usize..2),
    ) {
        let (hot, cold) = (&DEVICES[pair.0], &DEVICES[pair.1]);
        for cost in &ran {
            prop_assert_eq!(p.price(cost, hot, cold), before::split_tiered(&p, cost, hot, cold));
        }
        let submitted = ran.len() + failed;
        prop_assert_eq!(
            batch_elapsed(&p, &ran, submitted, Some(workers), hot, hot),
            before::concurrent(&p, &ran, submitted, workers, hot)
        );
        prop_assert_eq!(
            batch_elapsed(&p, &ran, submitted, None, hot, hot),
            before::sequential(&p, &ran, hot)
        );
    }

    /// The builder's marshalling price is the old constants'.
    #[test]
    fn processing_is_the_marshal_model_before_it(
        p in arb_params(),
        points_out in 0usize..50_000_000,
        queries in 0usize..10_000,
    ) {
        prop_assert_eq!(
            processing_elapsed(&p, points_out, queries),
            before::processing(&p, points_out, queries)
        );
    }
}

/// An SSD-hot store with its oldest day tiered to the archive device: the
/// concurrent mode prices the cold share as the sequential mode does, so
/// one worker costs the sequential time plus one query's fan-out.
#[test]
fn one_worker_costs_the_sequential_time_plus_one_fanout_on_a_tiered_store() {
    let config = DbConfig {
        shard_duration: 86_400,
        disk: DiskModel::SSD,
        tiering: Some(TierConfig { hot_secs: 2 * 86_400 }),
        ..DbConfig::default()
    };
    let db = Db::new_in(config, &Arc::default());
    let batch: Vec<DataPoint> = (0..3 * 1440)
        .map(|i| {
            DataPoint::new("Power", EpochSecs::new(i * 60))
                .tag("NodeId", "10.101.1.1")
                .field_f64("Reading", 200.0 + (i % 100) as f64)
        })
        .collect();
    db.write_batch(&batch).unwrap();
    assert_eq!(db.tier_cold_shards(EpochSecs::new(3 * 86_400)).unwrap().shards_tiered, 1);
    let query = [Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(3 * 86_400))
        .aggregate(Aggregation::Max)
        .group_by_time(300)];

    let seq = run_sequential(&db, db.prepare(&query));
    let con = run_concurrent(&db, db.prepare(&query), 1);
    assert_eq!(seq.total_cost, con.total_cost);
    let cost = con.total_cost;
    assert!(cost.bytes_cold > 0 && cost.bytes_cold < cost.bytes, "{cost:?}");
    assert!(cost.blocks_cold > 0 && cost.blocks_cold < cost.blocks, "{cost:?}");
    let fanout =
        VDuration::from_secs_f64(before::FANOUT_OVERHEAD_SECS * db.config().cost.amplification);
    assert_eq!(con.simulated, seq.simulated + fanout);
    assert_eq!(seq.simulated, db.simulate_elapsed(&cost));
}

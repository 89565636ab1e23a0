//! Query batches: sequential and concurrent execution, and what each
//! costs in simulated time.
//!
//! §IV-B3 of the paper: issuing the per-measurement queries concurrently
//! instead of sequentially made Metrics Builder 5.5–6.5× faster. Both
//! modes here run the batch through [`Db::query_batch`] — the engine's one
//! scan-and-merge implementation and its one level of real parallelism —
//! and differ in how many threads it may use and in the *simulated*
//! elapsed time they report. Sequentially that is the sum of the queries'
//! times. Concurrently each of `workers` logical workers accumulates the
//! simulated CPU cost of the queries packed onto it and the batch completes
//! when the slowest does (`max` over workers), plus serialized I/O and a
//! fan-out/merge overhead per query.
//!
//! `workers` therefore means two things, deliberately: the number of bins
//! in the simulated-time model (exactly), and an upper bound on the
//! physical threads (`min(workers, DbConfig::scan_workers, cores)`, and one
//! for a batch too light to hand off). The model additionally divides each
//! query's scan CPU by [`crate::CostParams::scan_workers`] before packing
//! ([`crate::CostParams::split`]); that is a property of the modelled
//! machine, not of how this one scans. I/O stays serialized on the shared
//! storage backend, so the modelled speedup saturates the way Fig. 15 does.

use crate::cost::QueryCost;
use crate::db::Db;
use crate::query::{Query, ResultSet};
use monster_sim::VDuration;
use monster_util::Result;
use std::borrow::Borrow;

/// Outcome of a query batch.
pub struct BatchOutcome {
    /// Per-query results, in submission order.
    pub results: Vec<Result<ResultSet>>,
    /// Per-query physical costs, aligned with `results` (zero cost for
    /// queries that errored).
    pub costs: Vec<QueryCost>,
    /// Aggregate physical cost across all queries.
    pub total_cost: QueryCost,
    /// Simulated elapsed time for the batch under the execution mode used.
    pub simulated: VDuration,
}

impl BatchOutcome {
    /// Unwrap all results, propagating the first error.
    pub fn into_results(self) -> Result<Vec<ResultSet>> {
        self.results.into_iter().collect()
    }

    /// Run `queries` on up to `threads` threads; `simulated` is left zero
    /// for the mode to fill in.
    fn run<Q: Borrow<Query> + Sync>(db: &Db, queries: &[Q], threads: usize) -> BatchOutcome {
        let mut out = BatchOutcome {
            results: Vec::with_capacity(queries.len()),
            costs: Vec::with_capacity(queries.len()),
            total_cost: QueryCost::default(),
            simulated: VDuration::ZERO,
        };
        for r in db.query_batch(queries, threads) {
            let (rs, cost) = match r {
                Ok((rs, cost)) => (Ok(rs), cost),
                Err(e) => (Err(e), QueryCost::default()),
            };
            out.total_cost.absorb(&cost);
            out.costs.push(cost);
            out.results.push(rs);
        }
        out
    }

    /// The costs of the queries that ran.
    fn ran(&self) -> impl Iterator<Item = &QueryCost> {
        self.results.iter().zip(&self.costs).filter(|(r, _)| r.is_ok()).map(|(_, c)| c)
    }
}

/// Per-query coordination overhead when fanning out (connection setup,
/// result merge) — concurrent execution is not perfectly free. Scaled by
/// the cost model's amplification, like all per-query costs.
const FANOUT_OVERHEAD_SECS: f64 = 0.7e-3;

/// Execute queries one after another on the calling thread (the paper's
/// original Metrics Builder). Simulated time is the sum of per-query times.
pub fn run_sequential<Q: Borrow<Query> + Sync>(db: &Db, queries: &[Q]) -> BatchOutcome {
    let mut out = BatchOutcome::run(db, queries, 1);
    out.simulated = out.ran().map(|cost| db.simulate_elapsed(cost)).sum();
    out
}

/// Execute queries as `workers` concurrent workers would (the §IV-B3
/// optimization), on at most that many threads.
///
/// Simulated time model: CPU work parallelizes across the workers
/// (longest-processing-time-first bin packing, the steady state of a
/// work-pulling pool), but I/O serializes on the shared storage backend —
/// which is why the paper's measured speedup saturates at 5.5–6.5× rather
/// than the worker count.
pub fn run_concurrent<Q: Borrow<Query> + Sync>(
    db: &Db,
    queries: &[Q],
    workers: usize,
) -> BatchOutcome {
    let workers = workers.max(1);
    let mut out = BatchOutcome::run(db, queries, workers);
    let config = db.config();
    let (mut cpu_each, io_each): (Vec<VDuration>, Vec<VDuration>) =
        out.ran().map(|cost| config.cost.split(cost, &config.disk)).unzip();
    cpu_each.sort_unstable_by(|a, b| b.cmp(a));
    let mut bins = vec![VDuration::ZERO; workers];
    for d in cpu_each {
        let min = bins.iter_mut().min().expect("at least one worker");
        *min += d;
    }
    let slowest_cpu = bins.into_iter().max().unwrap_or(VDuration::ZERO);
    let io_total: VDuration = io_each.into_iter().sum();
    let overhead = VDuration::from_secs_f64(
        FANOUT_OVERHEAD_SECS * queries.len() as f64 * config.cost.amplification,
    );
    out.simulated = slowest_cpu + io_total + overhead;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Aggregation;
    use crate::{CostParams, DataPoint, DbConfig};
    use monster_util::EpochSecs;
    use std::sync::Arc;

    fn seeded() -> Arc<Db> {
        seeded_with(DbConfig::default())
    }

    fn seeded_with(config: DbConfig) -> Arc<Db> {
        let db = Db::new(config);
        let mut batch = Vec::new();
        for n in 0..24 {
            for i in 0..360 {
                batch.push(
                    DataPoint::new("Power", EpochSecs::new(i * 60))
                        .tag("NodeId", format!("10.101.1.{n}"))
                        .field_f64("Reading", 250.0 + (i % 30) as f64),
                );
            }
        }
        db.write_batch(&batch).unwrap();
        Arc::new(db)
    }

    fn queries() -> Vec<Query> {
        (0..24)
            .map(|n| {
                Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(360 * 60))
                    .aggregate(Aggregation::Max)
                    .where_tag("NodeId", format!("10.101.1.{n}"))
                    .group_by_time(300)
            })
            .collect()
    }

    #[test]
    fn sequential_and_concurrent_agree_on_results() {
        let db = seeded();
        let seq = run_sequential(&db, &queries());
        let con = run_concurrent(&db, &queries(), 8);
        let seq_rs = seq.into_results().unwrap();
        let con_rs = con.into_results().unwrap();
        assert_eq!(seq_rs, con_rs);
    }

    #[test]
    fn concurrency_shrinks_simulated_time() {
        let db = seeded();
        let seq = run_sequential(&db, &queries());
        let con = run_concurrent(&db, &queries(), 8);
        // Same physical work...
        assert_eq!(seq.total_cost.points, con.total_cost.points);
        // ...but meaningfully less simulated wall time. (The full Fig. 15
        // band is validated at realistic scale by the fig15 harness; this
        // small fixture is I/O-skewed, so the bar is lower.)
        let speedup = seq.simulated.as_secs_f64() / con.simulated.as_secs_f64();
        assert!(speedup > 1.5, "speedup {speedup}");
    }

    #[test]
    fn one_worker_concurrent_approximates_sequential() {
        let db = seeded();
        let seq = run_sequential(&db, &queries());
        let con = run_concurrent(&db, &queries(), 1);
        let ratio = con.simulated.as_secs_f64() / seq.simulated.as_secs_f64();
        assert!((0.95..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn intra_query_scan_parallelism_composes() {
        // Hourly shards make each query overlap 6 shards, giving the
        // intra-query fan-out room to bite.
        let base = DbConfig { shard_duration: 3600, ..DbConfig::default() };
        let serial = seeded_with(base);
        let fanned =
            seeded_with(DbConfig { cost: CostParams { scan_workers: 4, ..base.cost }, ..base });
        let s = run_concurrent(&serial, &queries(), 8);
        let f = run_concurrent(&fanned, &queries(), 8);
        // Identical physical work and results; the fan-out only reshapes
        // simulated time.
        assert_eq!(s.total_cost, f.total_cost);
        assert!(s.total_cost.shards_scanned >= queries().len() * 6);
        assert!(
            f.simulated < s.simulated,
            "intra-query fan-out should shrink simulated time: {:?} vs {:?}",
            f.simulated,
            s.simulated
        );
        assert_eq!(s.into_results().unwrap(), f.into_results().unwrap());
    }

    #[test]
    fn errors_stay_in_position() {
        let db = seeded();
        let mut qs = queries();
        qs[3].end = qs[3].start; // make invalid
        let out = run_concurrent(&db, &qs, 4);
        assert!(out.results[3].is_err());
        assert!(out.results[2].is_ok());
        assert!(out.into_results().is_err());
    }

    #[test]
    fn empty_batch() {
        let db = seeded();
        let out = run_concurrent(&db, &[] as &[Query], 4);
        assert!(out.results.is_empty());
        assert_eq!(out.simulated, VDuration::ZERO);
    }
}

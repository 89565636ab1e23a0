//! Query batches: sequential and concurrent execution, and what each
//! costs in simulated time.
//!
//! §IV-B3 of the paper: issuing the per-measurement queries concurrently
//! instead of sequentially made Metrics Builder 5.5–6.5× faster. Both
//! modes here run the batch through [`Db::answer`] — the engine's one scan
//! implementation and its one level of real parallelism — taking it as a
//! [`Prepared`] batch, which [`Db::prepare`] resolves once (a caller that
//! admits on the estimate prices the same batch, so a request reads the
//! index once).
//! They differ in how many threads the scan may use and in the *simulated*
//! elapsed time they report, which this module does not compute: both
//! price what ran through [`crate::cost::batch_elapsed`], against the same
//! hot and cold devices, so the two modes agree on the cold tier.
//!
//! `workers` means two things, deliberately: the number of CPU bins in
//! that model (exactly), and an upper bound on the physical threads
//! (`min(workers, DbConfig::scan_workers, cores, queries)`: a query is
//! scanned by one thread).

use crate::cost::{batch_elapsed, QueryCost};
use crate::db::{Db, Prepared};
use crate::query::ResultSet;
use monster_sim::VDuration;
use monster_util::Result;

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
    /// Threads the storage scan ran on.
    pub threads: usize,
}

impl BatchOutcome {
    /// Unwrap all results, propagating the first error.
    pub fn into_results(self) -> Result<Vec<ResultSet>> {
        self.results.into_iter().collect()
    }

    /// Run `prepared` on up to `workers` threads (one for `None`) and price
    /// what ran under that mode, against the database's hot and cold
    /// devices.
    fn run(db: &Db, prepared: Prepared<'_>, workers: Option<usize>) -> BatchOutcome {
        let threads = db.scan_threads(&prepared, workers.unwrap_or(1));
        let answered = db.answer(prepared, threads);
        let mut out = BatchOutcome {
            results: Vec::with_capacity(answered.len()),
            costs: Vec::with_capacity(answered.len()),
            total_cost: QueryCost::default(),
            simulated: VDuration::ZERO,
            threads,
        };
        for r in answered {
            let (rs, cost) = match r {
                Ok((rs, cost)) => (Ok(rs), cost),
                Err(e) => (Err(e), QueryCost::default()),
            };
            out.total_cost.absorb(&cost);
            out.costs.push(cost);
            out.results.push(rs);
        }
        let (hot, cold) = db.devices();
        let ran = out.results.iter().zip(&out.costs).filter(|(r, _)| r.is_ok()).map(|(_, c)| c);
        out.simulated =
            batch_elapsed(&db.config().cost, ran, out.results.len(), workers, hot, cold);
        out
    }
}

/// Execute queries one after another on the calling thread (the paper's
/// original Metrics Builder). Simulated time is the sum of per-query times.
pub fn run_sequential(db: &Db, batch: Prepared<'_>) -> BatchOutcome {
    BatchOutcome::run(db, batch, None)
}

/// Execute queries as `workers` concurrent workers would (the §IV-B3
/// optimization), on at most that many threads. Simulated time is
/// [`crate::cost::batch_elapsed`]'s concurrent model: CPU packed onto the
/// workers, I/O serialized, a fan-out overhead per query.
pub fn run_concurrent(db: &Db, batch: Prepared<'_>, workers: usize) -> BatchOutcome {
    BatchOutcome::run(db, batch, Some(workers.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Aggregation, Query};
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
        let seq = run_sequential(&db, db.prepare(&queries()));
        let con = run_concurrent(&db, db.prepare(&queries()), 8);
        let seq_rs = seq.into_results().unwrap();
        let con_rs = con.into_results().unwrap();
        assert_eq!(seq_rs, con_rs);
    }

    #[test]
    fn concurrency_shrinks_simulated_time() {
        let db = seeded();
        let seq = run_sequential(&db, db.prepare(&queries()));
        let con = run_concurrent(&db, db.prepare(&queries()), 8);
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
        let seq = run_sequential(&db, db.prepare(&queries()));
        let con = run_concurrent(&db, db.prepare(&queries()), 1);
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
        let s = run_concurrent(&serial, serial.prepare(&queries()), 8);
        let f = run_concurrent(&fanned, fanned.prepare(&queries()), 8);
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
        let out = run_concurrent(&db, db.prepare(&qs), 4);
        assert!(out.results[3].is_err());
        assert!(out.results[2].is_ok());
        assert!(out.into_results().is_err());
    }

    #[test]
    fn empty_batch() {
        let db = seeded();
        let out = run_concurrent(&db, db.prepare(&[] as &[Query]), 4);
        assert!(out.results.is_empty());
        assert_eq!(out.simulated, VDuration::ZERO);
    }
}

//! Continuous roll-up materializer: the background pass that keeps the
//! roll-up measurements fresh.
//!
//! [`crate::rollup::reroute`] can only reroute coarse queries if someone
//! actually maintains the roll-up measurements. In production MonSTer
//! that someone is InfluxDB's continuous queries; here it is a
//! [`Materializer`] the deployment drives from its housekeeping loop
//! (alongside retention and compaction): each [`Materializer::run_once`]
//! rolls every complete window since the last pass into the target
//! measurements, and [`Materializer::routes`] hands the service the
//! matching [`RollupRoute`]s so `/v1/metrics` requests with coarse
//! windows never touch the raw columns at all.

use crate::rollup::RollupRoute;
use monster_tsdb::{Aggregation, ContinuousQuery, Db};
use monster_util::{EpochSecs, Result};

/// Drives a set of continuous queries and exposes the reroute table that
/// matches what they maintain.
#[derive(Debug, Clone)]
pub struct Materializer {
    queries: Vec<ContinuousQuery>,
    routes: Vec<RollupRoute>,
}

impl Materializer {
    /// Build a materializer that maintains `routes`, starting from `start`
    /// (nothing before it is rolled up).
    pub fn new(routes: &[RollupRoute], start: EpochSecs) -> Result<Materializer> {
        let queries = routes
            .iter()
            .map(|r| {
                ContinuousQuery::new(&r.source, &r.field, &r.target, r.agg, r.window_secs, start)
            })
            .collect::<Result<_>>()?;
        Ok(Materializer { queries, routes: routes.to_vec() })
    }

    /// The deployment's default set: 10-minute `max` roll-ups of every
    /// windowed section the optimized builder plan queries (power,
    /// thermal, CPU, memory). `max` is the builder's default aggregation
    /// and composes exactly, so dashboard requests at 10-minute-multiple
    /// intervals are fully served from roll-ups.
    pub fn standard(start: EpochSecs) -> Materializer {
        let routes = [
            RollupRoute::new("Power", "Reading", "Power_10m", Aggregation::Max, 600),
            RollupRoute::new("Thermal", "Reading", "Thermal_10m", Aggregation::Max, 600),
            RollupRoute::new("UGE", "CPUUsage", "UGECpu_10m", Aggregation::Max, 600),
            RollupRoute::new("UGE", "MemUsed", "UGEMem_10m", Aggregation::Max, 600),
        ];
        Materializer::new(&routes, start).expect("standard roll-ups are valid")
    }

    /// The reroute table matching the maintained roll-ups (hand this to
    /// [`crate::service::ServiceConfig::rollup_routes`]).
    pub fn routes(&self) -> &[RollupRoute] {
        &self.routes
    }

    /// Roll every complete window between each query's watermark and
    /// `now` into its target measurement. Returns the number of
    /// downsampled points written across all roll-ups.
    pub fn run_once(&mut self, db: &Db, now: EpochSecs) -> Result<usize> {
        let mut written = 0usize;
        for cq in &mut self.queries {
            written += cq.run(db, now)?;
        }
        monster_obs::counter("monster_builder_rollup_runs_total").inc();
        monster_obs::counter("monster_builder_rollup_points_total").add(written as u64);
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_plan, BuilderRequest};
    use crate::rollup::reroute;
    use monster_collector::SchemaVersion;
    use monster_tsdb::{DataPoint, DbConfig, Query};
    use monster_util::NodeId;

    /// One node, one day of 60 s samples for every planned section.
    fn seeded() -> Db {
        let db = Db::new(DbConfig::default());
        let node = NodeId::enumerate(1, 4)[0];
        let mut batch = Vec::new();
        for i in 0..1440i64 {
            let t = EpochSecs::new(i * 60);
            batch.push(
                DataPoint::new("Power", t)
                    .tag("NodeId", node.bmc_addr())
                    .tag("Label", "NodePower")
                    .field_f64("Reading", 250.0 + (i % 37) as f64),
            );
            batch.push(
                DataPoint::new("Thermal", t)
                    .tag("NodeId", node.bmc_addr())
                    .tag("Label", "CPU1Temp")
                    .field_f64("Reading", 40.0 + (i % 11) as f64),
            );
            batch.push(
                DataPoint::new("UGE", t)
                    .tag("NodeId", node.bmc_addr())
                    .field_f64("CPUUsage", (i % 100) as f64)
                    .field_f64("MemUsed", 1024.0 + i as f64),
            );
        }
        db.write_batch(&batch).unwrap();
        db
    }

    #[test]
    fn run_once_is_incremental_and_counts_points() {
        let db = seeded();
        let mut m = Materializer::standard(EpochSecs::new(0));
        // 1440 minutes = 144 complete 10-minute windows × 5 columns
        // (power, thermal, cpu, mem — UGE carries two fields on one
        // series, each its own roll-up).
        let w1 = m.run_once(&db, EpochSecs::new(86_400)).unwrap();
        assert_eq!(w1, 144 * 4);
        // Nothing new: no work.
        assert_eq!(m.run_once(&db, EpochSecs::new(86_400)).unwrap(), 0);
    }

    #[test]
    fn rerouted_plan_never_touches_raw_columns_and_answers_identically() {
        let db = seeded();
        let mut m = Materializer::standard(EpochSecs::new(0));
        m.run_once(&db, EpochSecs::new(86_400)).unwrap();

        let nodes = NodeId::enumerate(1, 4);
        let req =
            BuilderRequest::new(EpochSecs::new(0), EpochSecs::new(86_400), 3600, Aggregation::Max)
                .unwrap();
        let raw_plan = build_plan(SchemaVersion::Optimized, &nodes, &req);
        let mut routed_plan = raw_plan.clone();
        reroute(&mut routed_plan, m.routes());

        for (raw, routed) in raw_plan.iter().zip(&routed_plan) {
            if raw.query.agg.is_none() {
                continue; // the job-list query has no roll-up
            }
            // Every windowed section moved off its raw measurement...
            assert_ne!(
                routed.query.measurement, raw.query.measurement,
                "section {} still reads raw",
                raw.section
            );
            // ...and answers identically from far fewer points.
            let (rs_raw, c_raw) = db.query(&raw.query).unwrap();
            let (rs_routed, c_routed) = db.query(&routed.query).unwrap();
            assert_eq!(rs_raw.series.len(), rs_routed.series.len());
            for (a, b) in rs_raw.series.iter().zip(&rs_routed.series) {
                assert_eq!(a.points, b.points, "section {}", raw.section);
            }
            assert!(
                c_routed.points * 5 < c_raw.points,
                "section {}: {} vs {}",
                raw.section,
                c_routed.points,
                c_raw.points
            );
        }
    }

    #[test]
    fn watermark_only_advances_over_complete_windows() {
        let db = seeded();
        let routes = [RollupRoute::new("Power", "Reading", "Power_10m", Aggregation::Max, 600)];
        let mut m = Materializer::new(&routes, EpochSecs::new(0)).unwrap();
        // 25 minutes in: two complete windows.
        assert_eq!(m.run_once(&db, EpochSecs::new(1500)).unwrap(), 2);
        let q = Query::select("Power_10m", "Reading", EpochSecs::new(0), EpochSecs::new(86_400));
        let (rs, _) = db.query(&q).unwrap();
        assert_eq!(rs.point_count(), 2);
    }
}

//! Continuous roll-up materializer: the background pass that keeps the
//! roll-up measurements fresh.
//!
//! [`crate::rollup::reroute`] can only reroute coarse queries if someone
//! actually maintains the roll-up measurements. In production MonSTer
//! that someone is InfluxDB's continuous queries; here it is a
//! [`Materializer`] the deployment drives from its housekeeping loop
//! (alongside tiering): each [`Materializer::run_once`]
//! rolls every complete window since the last pass into the target
//! measurements, and [`Materializer::routes`] hands the service the
//! matching [`RollupRoute`]s so `/v1/metrics` requests with coarse
//! windows never touch the raw columns at all.

use crate::rollup::RollupRoute;
use monster_tsdb::{DataPoint, Db, Query};
use monster_util::{EpochSecs, Error, Result};

/// Maintains roll-ups, each a [`RollupRoute`] and the watermark before which
/// it is rolled up, and exposes the reroute table that matches them.
#[derive(Debug, Clone)]
pub struct Materializer {
    routes: Vec<RollupRoute>,
    watermarks: Vec<EpochSecs>,
}

impl Materializer {
    /// Maintain `routes` from `start` on (nothing before its window is rolled
    /// up). Each needs a positive window and a target other than its source.
    pub fn new(routes: &[RollupRoute], start: EpochSecs) -> Result<Materializer> {
        let watermarks = routes
            .iter()
            .map(|r| match r {
                _ if r.window_secs <= 0 => Err(Error::invalid("roll-up window must be positive")),
                _ if r.source == r.target => Err(Error::invalid("roll-up writes to its source")),
                _ => Ok(EpochSecs::new(start.as_secs().div_euclid(r.window_secs) * r.window_secs)),
            })
            .collect::<Result<_>>()?;
        Ok(Materializer { routes: routes.to_vec(), watermarks })
    }

    /// The reroute table matching the maintained roll-ups (hand this to
    /// [`crate::service::ServiceConfig::rollup_routes`]).
    pub fn routes(&self) -> &[RollupRoute] {
        &self.routes
    }

    /// Roll every complete window between each roll-up's watermark and `now`
    /// into its target measurement (source tags, field `Reading`). Returns
    /// the number of downsampled points written across all roll-ups.
    pub fn run_once(&mut self, db: &Db, now: EpochSecs) -> Result<usize> {
        let mut written = 0usize;
        for (route, watermark) in self.routes.iter().zip(&mut self.watermarks) {
            let window = route.window_secs;
            let horizon = EpochSecs::new(now.as_secs().div_euclid(window) * window);
            if horizon <= *watermark {
                continue;
            }
            let q = Query::select(&route.source, &route.field, *watermark, horizon)
                .aggregate(route.agg)
                .group_by_time(window);
            let (rs, _) = db.query(&q)?;
            let mut batch = Vec::new();
            for series in &rs.series {
                for (t, v) in &series.points {
                    let p = DataPoint {
                        tags: series.key.tags.clone(),
                        ..DataPoint::new(&route.target, *t)
                    };
                    batch.push(p.field("Reading", v.clone()));
                }
            }
            db.write_batch(&batch)?;
            written += batch.len();
            *watermark = horizon;
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
    use monster_tsdb::{Aggregation, DbConfig};
    use monster_util::NodeId;

    /// 10-minute `max` roll-ups of every windowed section the optimized
    /// builder plan queries (power, thermal, CPU, memory).
    fn ten_minute_max() -> Materializer {
        let routes = [
            RollupRoute::new("Power", "Reading", "Power_10m", Aggregation::Max, 600),
            RollupRoute::new("Thermal", "Reading", "Thermal_10m", Aggregation::Max, 600),
            RollupRoute::new("UGE", "CPUUsage", "UGECpu_10m", Aggregation::Max, 600),
            RollupRoute::new("UGE", "MemUsed", "UGEMem_10m", Aggregation::Max, 600),
        ];
        Materializer::new(&routes, EpochSecs::new(0)).unwrap()
    }

    /// One hourly roll-up of node power.
    fn hourly_power(agg: Aggregation) -> Materializer {
        let routes = [RollupRoute::new("Power", "Reading", "Power_1h", agg, 3600)];
        Materializer::new(&routes, EpochSecs::new(0)).unwrap()
    }

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
        let mut m = ten_minute_max();
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
        let mut m = ten_minute_max();
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

    #[test]
    fn rolls_up_complete_windows_keeping_tags() {
        let db = seeded();
        let mut m = hourly_power(Aggregation::Max);
        // 6.5 hours in: only 6 complete hourly windows roll up...
        assert_eq!(m.run_once(&db, EpochSecs::new(6 * 3600 + 1800)).unwrap(), 6);
        // ...so the watermark stands at 6 h: the next hour adds one.
        assert_eq!(m.run_once(&db, EpochSecs::new(7 * 3600)).unwrap(), 1);
        // Rolled-up values queryable under the target measurement, with
        // tags preserved.
        let node = NodeId::enumerate(1, 4)[0].bmc_addr();
        let q = Query::select("Power_1h", "Reading", EpochSecs::new(0), EpochSecs::new(86_400))
            .where_tag("NodeId", &node)
            .where_tag("Label", "NodePower");
        let (rs, _) = db.query(&q).unwrap();
        assert_eq!(rs.point_count(), 7);
        // Hourly max of the sawtooth 250..286 is 286 once the ramp completes.
        let max_val =
            rs.series[0].points.iter().filter_map(|(_, v)| v.as_f64()).fold(f64::MIN, f64::max);
        assert_eq!(max_val, 286.0);
    }

    #[test]
    fn a_mean_rollup_is_incremental() {
        let db = seeded();
        let mut m = hourly_power(Aggregation::Mean);
        assert_eq!(m.run_once(&db, EpochSecs::new(2 * 3600)).unwrap(), 2);
        // No new complete window: no work.
        assert_eq!(m.run_once(&db, EpochSecs::new(2 * 3600 + 600)).unwrap(), 0);
        assert_eq!(m.run_once(&db, EpochSecs::new(4 * 3600)).unwrap(), 2);
        let q = Query::select("Power_1h", "Reading", EpochSecs::new(0), EpochSecs::new(86_400));
        let (rs, _) = db.query(&q).unwrap();
        assert_eq!(rs.point_count(), 4);
    }

    #[test]
    fn rolled_up_queries_answer_identically_from_fewer_points() {
        let db = seeded();
        let mut m = hourly_power(Aggregation::Max);
        m.run_once(&db, EpochSecs::new(86_400)).unwrap();
        let raw = Query::select("Power", "Reading", EpochSecs::new(0), EpochSecs::new(86_400))
            .aggregate(Aggregation::Max)
            .group_by_time(3600);
        let rolled =
            Query::select("Power_1h", "Reading", EpochSecs::new(0), EpochSecs::new(86_400))
                .aggregate(Aggregation::Max)
                .group_by_time(3600);
        let (rs_raw, cost_raw) = db.query(&raw).unwrap();
        let (rs_rolled, cost_rolled) = db.query(&rolled).unwrap();
        // Same answers...
        assert_eq!(rs_raw.series[0].points, rs_rolled.series[0].points);
        // ...from far fewer points.
        assert!(cost_rolled.points * 10 < cost_raw.points);
    }

    #[test]
    fn invalid_routes_rejected() {
        let new = |source, target, window| {
            let routes = [RollupRoute::new(source, "f", target, Aggregation::Max, window)];
            Materializer::new(&routes, EpochSecs::new(0))
        };
        assert!(new("A", "A", 60).is_err());
        assert!(new("A", "B", 0).is_err());
    }
}

//! Roll-up rerouting: answering coarse queries from maintained roll-ups
//! instead of raw data.
//!
//! A [`crate::materializer::Materializer`] maintains roll-ups (e.g. hourly
//! max power in `Power_1h`). A planned raw query can be served from a roll-up
//! **exactly** when its window is a multiple of the roll-up window and the
//! aggregation composes: TSDB `GROUP BY time` buckets are epoch-aligned,
//! so every coarse window is a union of complete roll-up windows
//! regardless of the query's start offset.
//!
//! # Which aggregations compose
//!
//! * `max`/`min` — max-of-max / min-of-min, exact.
//! * `first`/`last` — roll-up points carry their window-start timestamp,
//!   so the earliest (latest) stored point in a coarse window is the
//!   first (last) raw value in it, exact.
//! * `sum` — sum-of-sums; exact in value (bit-exact for integer-valued
//!   metrics, which all of MonSTer's counters are; for general floats the
//!   re-association can differ in the last ulp).
//! * `count` — the roll-up stores per-window counts, so the coarse count
//!   is the **sum** of the stored values: the reroute rewrites the
//!   aggregation to `sum`.
//! * `mean` — does **not** compose (mean of means weights windows
//!   equally regardless of how many raw points each held); never rerouted.

use crate::plan::PlannedQuery;
use monster_tsdb::Aggregation;

/// A maintained roll-up that requests may be rerouted to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupRoute {
    /// Source measurement of the roll-up.
    pub source: String,
    /// Source field.
    pub field: String,
    /// Target measurement holding the rolled points (field `Reading`).
    pub target: String,
    /// Aggregation the roll-up was materialized with.
    pub agg: Aggregation,
    /// Roll-up window in seconds.
    pub window_secs: i64,
}

impl RollupRoute {
    /// A roll-up of `source.field` into `target`, `agg` per `window_secs`.
    pub fn new(
        source: impl Into<String>,
        field: impl Into<String>,
        target: impl Into<String>,
        agg: Aggregation,
        window_secs: i64,
    ) -> RollupRoute {
        RollupRoute {
            source: source.into(),
            field: field.into(),
            target: target.into(),
            agg,
            window_secs,
        }
    }

    /// Whether `agg` queries compose exactly over roll-ups of itself (see
    /// the module docs for the per-aggregation argument).
    fn composes(agg: Aggregation) -> bool {
        matches!(
            agg,
            Aggregation::Max
                | Aggregation::Min
                | Aggregation::Sum
                | Aggregation::Count
                | Aggregation::First
                | Aggregation::Last
        )
    }

    fn applies(&self, q: &monster_tsdb::Query) -> bool {
        if q.measurement != self.source || q.field != self.field {
            return false;
        }
        if q.agg != Some(self.agg) || !Self::composes(self.agg) {
            return false;
        }
        match q.group_by {
            Some(g) => g >= self.window_secs && g % self.window_secs == 0,
            None => false,
        }
    }
}

/// Rewrite every plan query that a route can serve exactly. Queries no
/// route covers are left untouched.
pub fn reroute(plan: &mut [PlannedQuery], routes: &[RollupRoute]) {
    for planned in plan {
        for route in routes {
            if route.applies(&planned.query) {
                planned.query.measurement = route.target.clone();
                // Roll-up outputs always store their value as `Reading`.
                planned.query.field = "Reading".to_string();
                if route.agg == Aggregation::Count {
                    // The roll-up stored per-window counts; the coarse
                    // count is the sum of those stored values.
                    planned.query.agg = Some(Aggregation::Sum);
                }
                monster_obs::counter("monster_builder_rollup_reroutes_total").inc();
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_plan, BuilderRequest};
    use monster_collector::SchemaVersion;
    use monster_util::{EpochSecs, NodeId};

    fn routes() -> Vec<RollupRoute> {
        vec![
            RollupRoute {
                source: "Power".into(),
                field: "Reading".into(),
                target: "Power_1h".into(),
                agg: Aggregation::Max,
                window_secs: 3600,
            },
            RollupRoute {
                source: "UGE".into(),
                field: "CPUUsage".into(),
                target: "UGECpu_1h".into(),
                agg: Aggregation::Max,
                window_secs: 3600,
            },
        ]
    }

    fn plan_with_window(window: i64, agg: Aggregation) -> Vec<PlannedQuery> {
        let nodes = NodeId::enumerate(1, 4);
        let req =
            BuilderRequest::new(EpochSecs::new(0), EpochSecs::new(86_400), window, agg).unwrap();
        build_plan(SchemaVersion::Optimized, &nodes, &req)
    }

    #[test]
    fn reroutes_multiples_of_the_rollup_window() {
        let mut plan = plan_with_window(7200, Aggregation::Max);
        reroute(&mut plan, &routes());
        let power = plan.iter().find(|p| p.section == "power").unwrap();
        assert_eq!(power.query.measurement, "Power_1h");
        assert_eq!(power.query.field, "Reading");
        let cpu = plan.iter().find(|p| p.section == "cpu_usage").unwrap();
        assert_eq!(cpu.query.measurement, "UGECpu_1h");
        assert_eq!(cpu.query.field, "Reading");
        // Memory has no route; the raw job-list query has no aggregation.
        let mem = plan.iter().find(|p| p.section == "memory").unwrap();
        assert_eq!(mem.query.measurement, "UGE");
        let jobs = plan.iter().find(|p| p.section == "jobs").unwrap();
        assert_eq!(jobs.query.measurement, "NodeJobs");
    }

    #[test]
    fn finer_windows_and_other_aggregations_stay_raw() {
        for (window, agg) in
            [(1800, Aggregation::Max), (3600, Aggregation::Mean), (5400, Aggregation::Max)]
        {
            let mut plan = plan_with_window(window, agg);
            reroute(&mut plan, &routes());
            let power = plan.iter().find(|p| p.section == "power").unwrap();
            assert_eq!(power.query.measurement, "Power", "window {window} agg {agg:?}");
        }
    }

    #[test]
    fn composing_aggregations_reroute_to_matching_rollups() {
        for agg in [Aggregation::Min, Aggregation::Sum, Aggregation::First, Aggregation::Last] {
            let routes = vec![RollupRoute {
                source: "Power".into(),
                field: "Reading".into(),
                target: "Power_1h".into(),
                agg,
                window_secs: 3600,
            }];
            let mut plan = plan_with_window(7200, agg);
            reroute(&mut plan, &routes);
            let power = plan.iter().find(|p| p.section == "power").unwrap();
            assert_eq!(power.query.measurement, "Power_1h", "agg {agg:?}");
            assert_eq!(power.query.agg, Some(agg), "agg {agg:?}");
        }
    }

    #[test]
    fn count_reroutes_as_sum_of_stored_counts() {
        let routes = vec![RollupRoute {
            source: "Power".into(),
            field: "Reading".into(),
            target: "PowerCount_1h".into(),
            agg: Aggregation::Count,
            window_secs: 3600,
        }];
        let mut plan = plan_with_window(7200, Aggregation::Count);
        reroute(&mut plan, &routes);
        let power = plan.iter().find(|p| p.section == "power").unwrap();
        assert_eq!(power.query.measurement, "PowerCount_1h");
        assert_eq!(power.query.agg, Some(Aggregation::Sum));
    }

    #[test]
    fn mean_never_reroutes_even_with_a_mean_rollup() {
        let routes = vec![RollupRoute {
            source: "Power".into(),
            field: "Reading".into(),
            target: "PowerMean_1h".into(),
            agg: Aggregation::Mean,
            window_secs: 3600,
        }];
        let mut plan = plan_with_window(7200, Aggregation::Mean);
        reroute(&mut plan, &routes);
        let power = plan.iter().find(|p| p.section == "power").unwrap();
        assert_eq!(power.query.measurement, "Power");
    }
}

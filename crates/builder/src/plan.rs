//! Request validation and query planning.
//!
//! A [`BuilderRequest`] describes what an API consumer wants (a time
//! range, a window size, an aggregation); [`build_plan`] expands it into
//! the per-node, per-section [`PlannedQuery`] list that §II-C's Metrics
//! Builder issues against the TSDB. The sections are the storage schema's
//! ([`SchemaVersion::sections`], declared beside the point writer): the
//! previous generation needs one query per individual sensor measurement
//! (17 per node), the optimized schema consolidates them into 5.

use monster_collector::{QueryGroup, SchemaVersion, Section, NODE_TAG};
use monster_tsdb::{Aggregation, Query, QueryCost};
use monster_util::EpochSecs;
use monster_util::{Error, NodeId, Result};

/// A validated Metrics Builder API request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuilderRequest {
    /// Range start (inclusive).
    pub start: EpochSecs,
    /// Range end (exclusive).
    pub end: EpochSecs,
    /// Aggregation window in seconds (`GROUP BY time`).
    pub interval_secs: i64,
    /// Aggregation applied per window.
    pub aggregation: Aggregation,
    /// Whether the encoded response should be compressed (§IV-B4).
    pub compress: bool,
}

impl BuilderRequest {
    /// Validate and build a request. Fails on an empty range or a
    /// non-positive interval.
    pub fn new(
        start: EpochSecs,
        end: EpochSecs,
        interval_secs: i64,
        aggregation: Aggregation,
    ) -> Result<BuilderRequest> {
        if end <= start {
            return Err(Error::invalid(format!(
                "empty time range: start {} >= end {}",
                start.as_secs(),
                end.as_secs()
            )));
        }
        if interval_secs <= 0 {
            return Err(Error::invalid(format!("non-positive interval {interval_secs}")));
        }
        Ok(BuilderRequest { start, end, interval_secs, aggregation, compress: false })
    }

    /// Request compressed response encoding.
    pub fn compressed(mut self) -> BuilderRequest {
        self.compress = true;
        self
    }
}

/// One query of a builder plan, plus where its results land in the
/// response document.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// Source group (for the Fig. 11 time breakdown).
    pub group: QueryGroup,
    /// The node this query serves.
    pub node: NodeId,
    /// Key under the node's document object where results are placed.
    pub section: &'static str,
    /// `None` → the section is a flat array of points; `Some(tag)` → an
    /// object keyed by that tag's values (e.g. thermal sensors by
    /// `Label`).
    pub label_tag: Option<&'static str>,
    /// The TSDB query to run.
    pub query: Query,
}

/// Price a whole plan in modelled cost *without executing it*: what
/// [`monster_tsdb::Prepared::estimate`] gives for the plan's queries. Feed
/// the result through [`monster_tsdb::Db::simulate_elapsed`] to get the
/// modelled seconds that cost-based admission classifies on.
pub fn estimate_plan_cost(db: &monster_tsdb::Db, plan: &[PlannedQuery]) -> QueryCost {
    let queries: Vec<&Query> = plan.iter().map(|pq| &pq.query).collect();
    db.prepare(&queries).estimate()
}

/// Expand a request into the full per-node query plan for `schema`: one
/// query per node and [`Section`] of [`SchemaVersion::sections`], each
/// filtered to its node and the section's tag. A `Jobs` section reads raw
/// strings (no numeric aggregation) from the range's most recent window
/// only; the rest aggregate every window of the range.
pub fn build_plan(
    schema: SchemaVersion,
    nodes: &[NodeId],
    req: &BuilderRequest,
) -> Vec<PlannedQuery> {
    let mut plan = Vec::new();
    for &node in nodes {
        for &Section { name, group, measurement, field, tag, label_tag, .. } in schema.sections() {
            let query = match group {
                QueryGroup::Jobs => {
                    let start = (req.end - req.interval_secs).max(req.start);
                    Query::select(measurement, field, start, req.end)
                }
                _ => Query::select(measurement, field, req.start, req.end)
                    .aggregate(req.aggregation)
                    .group_by_time(req.interval_secs),
            };
            let mut query = query.where_tag(NODE_TAG, node.bmc_addr());
            if let Some((key, value)) = tag {
                query = query.where_tag(key, value);
            }
            plan.push(PlannedQuery { group, node, section: name, label_tag, query });
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> BuilderRequest {
        BuilderRequest::new(EpochSecs::new(0), EpochSecs::new(3600), 300, Aggregation::Max).unwrap()
    }

    #[test]
    fn request_validation() {
        let t = EpochSecs::new(100);
        assert!(BuilderRequest::new(t, t, 300, Aggregation::Max).is_err());
        assert!(BuilderRequest::new(t, t - 1, 300, Aggregation::Max).is_err());
        assert!(BuilderRequest::new(t, t + 1, 0, Aggregation::Max).is_err());
        let r = BuilderRequest::new(t, t + 1, 60, Aggregation::Mean).unwrap();
        assert!(!r.compress);
        assert!(r.compressed().compress);
    }

    #[test]
    fn optimized_plan_is_five_queries_per_node() {
        let nodes = NodeId::enumerate(3, 4);
        let plan = build_plan(SchemaVersion::Optimized, &nodes, &req());
        assert_eq!(plan.len(), 15);
        let bmc = plan.iter().filter(|p| p.group == QueryGroup::Bmc).count();
        assert_eq!(bmc, 6);
        // Every query is node-scoped.
        assert!(plan.iter().all(|p| p.query.predicates.iter().any(|(k, _)| k == "NodeId")));
    }

    #[test]
    fn previous_plan_fans_out_per_sensor() {
        let nodes = NodeId::enumerate(2, 4);
        let plan = build_plan(SchemaVersion::Previous, &nodes, &req());
        assert_eq!(plan.len(), 34);
        let bmc = plan.iter().filter(|p| p.group == QueryGroup::Bmc).count();
        assert_eq!(bmc, 22);
        // Far more queries than the optimized schema — the Fig. 10 cost.
        let opt = build_plan(SchemaVersion::Optimized, &nodes, &req());
        assert!(plan.len() > 3 * opt.len());
    }

    #[test]
    fn job_list_query_reads_only_last_window() {
        let nodes = NodeId::enumerate(1, 4);
        let plan = build_plan(SchemaVersion::Optimized, &nodes, &req());
        let jobs = plan.iter().find(|p| p.group == QueryGroup::Jobs).unwrap();
        assert_eq!(jobs.query.start.as_secs(), 3300);
        assert_eq!(jobs.query.end.as_secs(), 3600);
        assert!(jobs.query.agg.is_none());
    }
}

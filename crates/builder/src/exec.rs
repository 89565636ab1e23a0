//! Plan execution and response-document assembly.
//!
//! Runs a plan's queries against the TSDB as one batch (modelled as
//! sequential, or as concurrent per §IV-B3) and marshals the results into
//! the per-node JSON document the Metrics Builder API returns. Execution
//! is instrumented: request counters, a simulated query-latency span, and
//! output-point counters land in the `monster_obs` global registry.

use crate::plan::PlannedQuery;
use monster_json::{jobj, Object, Value};
use monster_sim::VDuration;
use monster_tsdb::{concurrent, Db, FieldValue, Query, QueryCost, ResultSet};
use monster_util::{NodeId, Result};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// How to run the plan's queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One query after another (the paper's original builder).
    Sequential,
    /// Fan the queries out over a worker pool (§IV-B3).
    Concurrent {
        /// Number of workers.
        workers: usize,
    },
}

/// CPU cost to marshal one output point into the response document
/// (aggregation cursor output + middleware JSON assembly), seconds. This
/// is the builder-side "processing" share of Fig. 11.
const PER_OUTPUT_POINT_SECS: f64 = 1.0e-6;

/// Fixed marshalling cost per executed query (result decode, section
/// routing), seconds.
const PER_QUERY_MARSHAL_SECS: f64 = 0.1e-3;

/// Everything a Metrics Builder run produces.
#[derive(Debug, Clone)]
pub struct BuilderOutcome {
    /// The assembled response document: an object keyed by node BMC
    /// address, each holding per-section point arrays.
    pub document: Value,
    /// Total points marshalled into the document.
    pub points_out: usize,
    /// Aggregate physical query cost.
    pub cost: QueryCost,
    /// Simulated time spent querying the TSDB under the chosen mode.
    pub query_time: VDuration,
    /// Simulated time spent marshalling results into the document.
    pub processing_time: VDuration,
}

impl BuilderOutcome {
    /// Total simulated querying + processing time — the quantity the
    /// paper's Figs. 10–15 measure.
    pub fn query_processing_time(&self) -> VDuration {
        self.query_time + self.processing_time
    }
}

fn point_value(v: &FieldValue) -> Value {
    match v {
        FieldValue::Float(f) => Value::from(*f),
        FieldValue::Int(i) => Value::from(*i),
        FieldValue::Str(s) => Value::from(s.as_str()),
        FieldValue::Bool(b) => Value::from(*b),
    }
}

fn points_array(rs: &ResultSet) -> (Value, usize) {
    let mut arr = Vec::new();
    for series in &rs.series {
        for (t, v) in &series.points {
            arr.push(jobj! { "time" => t.as_secs(), "value" => point_value(v) });
        }
    }
    let n = arr.len();
    (Value::Array(arr), n)
}

fn points_by_tag(rs: &ResultSet, tag: &str) -> (Value, usize) {
    let mut obj = Object::new();
    let mut n = 0usize;
    for series in &rs.series {
        let label = series.key.tag(tag).unwrap_or("unlabeled").to_string();
        let mut arr = Vec::new();
        for (t, v) in &series.points {
            arr.push(jobj! { "time" => t.as_secs(), "value" => point_value(v) });
        }
        n += arr.len();
        obj.insert(label, Value::Array(arr));
    }
    (Value::Object(obj), n)
}

/// Put `node`'s finished sections into the document. The plan is
/// node-major, so a node normally arrives once and is appended; `seen`
/// catches one that reappears later, whose sections join its earlier ones.
fn place_node(
    document: &mut Object,
    seen: &mut HashSet<NodeId>,
    (node, sections): (NodeId, Object),
) {
    let addr = node.bmc_addr();
    if seen.insert(node) {
        document.insert(addr, Value::Object(sections));
    } else if let Some(earlier) = document.get_mut(&addr).and_then(Value::as_object_mut) {
        for (section, value) in sections.iter() {
            earlier.insert(section, value.clone());
        }
    }
}

/// Execute `plan` against `db` and assemble the response document.
///
/// Fails on the first query error (invalid ranges surface here); missing
/// data is not an error — sections whose queries match nothing are simply
/// omitted from the node document.
///
/// The whole plan goes to the storage engine as one batch
/// (`monster_tsdb::Db::query_batch`), which is where the only real
/// parallelism of the read path lives. `mode` bounds its threads
/// (`Sequential`: the calling thread; `Concurrent { workers }`: at most
/// `workers`, `DbConfig::scan_workers` and the core count) and selects the
/// simulated-time model, as described in `monster_tsdb::concurrent`.
pub fn execute(db: &Arc<Db>, plan: &[PlannedQuery], mode: ExecMode) -> Result<BuilderOutcome> {
    let started = Instant::now();
    let span = monster_obs::Span::enter("builder.execute");
    // Make the execute span the parent of the scan spans the storage
    // engine records for this batch.
    let _trace_guard = monster_obs::trace::set_current(span.context());
    let queries: Vec<&Query> = plan.iter().map(|p| &p.query).collect();
    let batch = match mode {
        ExecMode::Sequential => concurrent::run_sequential(db, &queries),
        ExecMode::Concurrent { workers } => concurrent::run_concurrent(db, &queries, workers),
    };
    let cost = batch.total_cost;
    let query_time = batch.simulated;
    let results = batch.into_results()?;

    let mut document = Object::new();
    let mut seen = HashSet::new();
    let mut current: Option<(NodeId, Object)> = None;
    let mut points_out = 0usize;
    for (planned, rs) in plan.iter().zip(&results) {
        if rs.series.is_empty() {
            continue;
        }
        let (section_value, n) = match &planned.label_tag {
            Some(tag) => points_by_tag(rs, tag),
            None => points_array(rs),
        };
        points_out += n;
        if let Some(done) = current.take_if(|(node, _)| *node != planned.node) {
            place_node(&mut document, &mut seen, done);
        }
        let (_, sections) = current.get_or_insert_with(|| (planned.node, Object::new()));
        sections.insert(planned.section.as_str(), section_value);
    }
    if let Some(last) = current {
        place_node(&mut document, &mut seen, last);
    }

    let amp = db.config().cost.amplification;
    let processing_time = VDuration::from_secs_f64(
        (points_out as f64 * PER_OUTPUT_POINT_SECS + plan.len() as f64 * PER_QUERY_MARSHAL_SECS)
            * amp,
    );

    monster_obs::counter("monster_builder_requests_total").inc();
    monster_obs::counter("monster_builder_queries_total").add(plan.len() as u64);
    monster_obs::counter("monster_builder_points_out_total").add(points_out as u64);
    monster_obs::histo("monster_builder_query_seconds").observe_vdur(query_time + processing_time);
    monster_obs::histo_help(
        "monster_builder_execute_wall_seconds",
        "Wall-clock seconds one plan execution took (queries + document assembly), \
         beside the modelled monster_builder_query_seconds",
    )
    .observe(started.elapsed().as_secs_f64());
    span.finish_after(query_time + processing_time);

    Ok(BuilderOutcome {
        document: Value::Object(document),
        points_out,
        cost,
        query_time,
        processing_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_plan, BuilderRequest};
    use monster_collector::SchemaVersion;
    use monster_tsdb::{Aggregation, DataPoint, DbConfig};
    use monster_util::{EpochSecs, NodeId};

    fn seeded(nodes: usize) -> (Arc<Db>, Vec<NodeId>) {
        let db = Db::new(DbConfig::default());
        let ids = NodeId::enumerate(nodes, 4);
        let mut batch = Vec::new();
        for i in 0..120i64 {
            let t = EpochSecs::new(i * 60);
            for &n in &ids {
                batch.push(
                    DataPoint::new("Power", t)
                        .tag("NodeId", n.bmc_addr())
                        .tag("Label", "NodePower")
                        .field_f64("Reading", 250.0 + (i % 31) as f64),
                );
                batch.push(
                    DataPoint::new("Thermal", t)
                        .tag("NodeId", n.bmc_addr())
                        .tag("Label", "CPU1 Temp")
                        .field_f64("Reading", 40.0 + (i % 7) as f64),
                );
                batch.push(
                    DataPoint::new("UGE", t)
                        .tag("NodeId", n.bmc_addr())
                        .field_f64("CPUUsage", (i % 10) as f64 / 10.0)
                        .field_f64("MemUsed", 90.0),
                );
                batch.push(
                    DataPoint::new("NodeJobs", t)
                        .tag("NodeId", n.bmc_addr())
                        .field_str("JobList", "['1001']"),
                );
            }
        }
        db.write_batch(&batch).unwrap();
        (Arc::new(db), ids)
    }

    fn request() -> BuilderRequest {
        BuilderRequest::new(EpochSecs::new(0), EpochSecs::new(7200), 300, Aggregation::Max).unwrap()
    }

    #[test]
    fn document_is_keyed_by_node_and_section() {
        let (db, ids) = seeded(2);
        let plan = build_plan(SchemaVersion::Optimized, &ids, &request());
        let out = execute(&db, &plan, ExecMode::Sequential).unwrap();
        assert!(out.points_out > 0);
        let node = out.document.get("10.101.1.1").expect("node doc");
        let power = node.get("power").unwrap().as_array().unwrap();
        assert_eq!(power.len(), 24); // 7200 s / 300 s windows
        assert_eq!(power[0].get("time").unwrap().as_i64(), Some(0));
        // Thermal is keyed by sensor label.
        let thermal = node.get("thermal").unwrap();
        assert!(thermal.get("CPU1 Temp").unwrap().as_array().is_some());
        // Raw string job lists survive marshalling.
        let jobs = node.get("jobs").unwrap().as_array().unwrap();
        assert_eq!(jobs[0].get("value").unwrap().as_str(), Some("['1001']"));
    }

    #[test]
    fn sequential_and_concurrent_build_identical_documents() {
        let (db, ids) = seeded(3);
        let plan = build_plan(SchemaVersion::Optimized, &ids, &request());
        let a = execute(&db, &plan, ExecMode::Sequential).unwrap();
        let b = execute(&db, &plan, ExecMode::Concurrent { workers: 8 }).unwrap();
        assert_eq!(a.document, b.document);
        assert_eq!(a.points_out, b.points_out);
        assert_eq!(a.cost.points, b.cost.points);
        // Concurrency shrinks simulated time for the same answer.
        assert!(b.query_time < a.query_time);
    }

    #[test]
    fn a_node_that_reappears_later_in_the_plan_keeps_one_document() {
        let (db, ids) = seeded(2);
        let mut plan = build_plan(SchemaVersion::Optimized, &ids, &request());
        let node_major = execute(&db, &plan, ExecMode::Sequential).unwrap();
        // The first node again, after the second: one new section, and
        // `thermal` once more (a replacement, which keeps its place).
        let again: Vec<_> = plan[..2].to_vec();
        plan.extend(again);
        plan[10].section = "power_again".into();
        let out = execute(&db, &plan, ExecMode::Concurrent { workers: 8 }).unwrap();
        let doc = out.document.as_object().unwrap();
        assert_eq!(doc.keys().collect::<Vec<_>>(), vec!["10.101.1.1", "10.101.1.2"]);
        let first = doc.get("10.101.1.1").unwrap().as_object().unwrap();
        assert_eq!(
            first.keys().collect::<Vec<_>>(),
            vec!["power", "thermal", "cpu_usage", "memory", "jobs", "power_again"]
        );
        assert_eq!(first.get("power_again"), first.get("power"));
        assert_eq!(doc.get("10.101.1.2"), node_major.document.get("10.101.1.2"));
    }

    #[test]
    fn empty_sections_are_omitted_not_errors() {
        let db = Arc::new(Db::new(DbConfig::default()));
        let ids = NodeId::enumerate(1, 4);
        let plan = build_plan(SchemaVersion::Optimized, &ids, &request());
        let out = execute(&db, &plan, ExecMode::Sequential).unwrap();
        assert_eq!(out.points_out, 0);
        assert!(out.document.as_object().unwrap().is_empty());
    }

    #[test]
    fn execution_reports_to_the_metrics_registry() {
        let (db, ids) = seeded(1);
        let plan = build_plan(SchemaVersion::Optimized, &ids, &request());
        let before = monster_obs::global().counter_value("monster_builder_requests_total");
        let q_before = monster_obs::global().counter_value("monster_builder_queries_total");
        execute(&db, &plan, ExecMode::Sequential).unwrap();
        let after = monster_obs::global().counter_value("monster_builder_requests_total");
        let q_after = monster_obs::global().counter_value("monster_builder_queries_total");
        assert_eq!(after, before + 1);
        assert_eq!(q_after, q_before + plan.len() as u64);
    }
}

//! Plan execution and response rendering.
//!
//! [`run`] sends a plan's queries to the TSDB as one batch (modelled as
//! sequential, or as concurrent per §IV-B3). [`render`] walks the results
//! once, in document order, into a [`Sink`]: [`JsonSink`] writes the
//! reply's bytes (what the HTTP service sends), [`ValueSink`] builds the
//! `Value` tree [`execute`] hands to in-process callers. One walk and one
//! set of scalar writers (`monster_json`), so the tree, marshalled, and
//! the streamed bytes are one text. Request counters, a simulated
//! query-latency span and output-point counters land in `monster_obs`.

use crate::plan::PlannedQuery;
use monster_json::{jobj, write_f64, write_i64, write_str, Object, Value};
use monster_sim::VDuration;
use monster_tsdb::query::SeriesResult;
use monster_tsdb::{concurrent, Db, FieldValue, Query, QueryCost, ResultSet};
use monster_util::{NodeId, Result};
use std::collections::HashMap;
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

/// Everything a Metrics Builder run produces. `D` is the document as its
/// [`Sink`] finished it: a [`Value`] tree from [`execute`], JSON bytes in
/// the HTTP service.
#[derive(Debug, Clone)]
pub struct BuilderOutcome<D = Value> {
    /// The assembled response document: an object keyed by node BMC
    /// address, each holding per-section point arrays.
    pub document: D,
    /// Total points marshalled into the document.
    pub points_out: usize,
    /// Aggregate physical query cost.
    pub cost: QueryCost,
    /// Simulated time spent querying the TSDB under the chosen mode.
    pub query_time: VDuration,
    /// Simulated time spent marshalling results into the document.
    pub processing_time: VDuration,
}

impl<D> BuilderOutcome<D> {
    /// Total simulated querying + processing time — the quantity the
    /// paper's Figs. 10–15 measure.
    pub fn query_processing_time(&self) -> VDuration {
        self.query_time + self.processing_time
    }
}

/// Where [`render`] writes the document, in document order; the open
/// container is always an object (the document, a node, a labelled section).
pub trait Sink {
    /// What the sink has built when the walk is over.
    type Document;
    /// A member that is itself an object; `fill` writes its members.
    fn object(&mut self, key: &str, fill: impl FnOnce(&mut Self));
    /// A member that is the array of `series`' points, series after
    /// series, each `{"time": .., "value": ..}`.
    fn points(&mut self, key: &str, series: &[SeriesResult]);
    /// Close the document.
    fn finish(self) -> Self::Document;
}

/// Builds the [`Value`] tree; the field is the object being filled.
#[derive(Debug, Default)]
pub struct ValueSink(Object);

impl Sink for ValueSink {
    type Document = Value;

    fn object(&mut self, key: &str, fill: impl FnOnce(&mut Self)) {
        let outer = std::mem::take(&mut self.0);
        fill(self);
        let inner = std::mem::replace(&mut self.0, outer);
        self.0.insert(key, inner);
    }

    fn points(&mut self, key: &str, series: &[SeriesResult]) {
        let value = |v: &FieldValue| match v {
            FieldValue::Float(f) => Value::from(*f),
            FieldValue::Int(i) => Value::from(*i),
            FieldValue::Str(s) => Value::from(s.as_str()),
            FieldValue::Bool(b) => Value::from(*b),
        };
        let points = series.iter().flat_map(|s| &s.points);
        let array: Vec<Value> =
            points.map(|(t, v)| jobj! { "time" => t.as_secs(), "value" => value(v) }).collect();
        self.0.insert(key, array);
    }

    fn finish(self) -> Value {
        Value::Object(self.0)
    }
}

/// Writes the document as compact JSON text — what `to_string_compact`
/// gives for [`ValueSink`]'s tree — allocating nothing per member or point.
#[derive(Debug)]
pub struct JsonSink(String);

impl JsonSink {
    /// An empty, open document with room for `bytes` of text: a caller that
    /// can size the answer spares the buffer its doublings (each may copy).
    pub fn with_capacity(bytes: usize) -> JsonSink {
        let mut text = String::with_capacity(bytes);
        text.push('{');
        JsonSink(text)
    }

    /// Start a member of the open object. No scalar or closed container
    /// ends in `{`, so that byte says whether this member is the first.
    fn member(&mut self, key: &str) {
        if !self.0.ends_with('{') {
            self.0.push(',');
        }
        write_str(&mut self.0, key);
        self.0.push(':');
    }
}

impl Sink for JsonSink {
    type Document = Vec<u8>;

    fn object(&mut self, key: &str, fill: impl FnOnce(&mut Self)) {
        self.member(key);
        self.0.push('{');
        fill(self);
        self.0.push('}');
    }

    fn points(&mut self, key: &str, series: &[SeriesResult]) {
        self.member(key);
        self.0.push('[');
        for (at, (t, v)) in series.iter().flat_map(|s| &s.points).enumerate() {
            self.0.push_str(if at == 0 { "{\"time\":" } else { ",{\"time\":" });
            write_i64(&mut self.0, t.as_secs());
            self.0.push_str(",\"value\":");
            match v {
                FieldValue::Float(f) => {
                    write_f64(&mut self.0, *f).expect("writing to a String cannot fail")
                }
                FieldValue::Int(i) => write_i64(&mut self.0, *i),
                FieldValue::Str(s) => write_str(&mut self.0, s),
                FieldValue::Bool(b) => self.0.push_str(if *b { "true" } else { "false" }),
            }
            self.0.push('}');
        }
        self.0.push(']');
    }

    fn finish(mut self) -> Vec<u8> {
        self.0.push('}');
        self.0.into_bytes()
    }
}

/// Walk `results` (one per planned query, in plan order) into `sink` as
/// the response document — node → section → points, or node → section →
/// label → points where the query names a `label_tag` — and return the
/// number of points written.
///
/// A document is keyed, so what the plan repeats is decided here, once,
/// for every sink: a node takes the position of its first query and
/// gathers the sections of all its queries, wherever in the plan they are;
/// a section named twice under a node, or a label two series of one query
/// share (or both lack: `"unlabeled"`), keeps its first position and its
/// last value. Only what is written is counted; a query that matched
/// nothing writes and replaces nothing.
pub fn render<S: Sink>(plan: &[PlannedQuery], results: &[ResultSet], sink: &mut S) -> usize {
    // The layout first — which queries each node's document holds, in
    // order — because a sink that streams cannot go back to a node.
    let mut nodes: Vec<(NodeId, Vec<usize>)> = Vec::new();
    let mut slot_of: HashMap<NodeId, usize> = HashMap::new();
    for (at, (planned, rs)) in plan.iter().zip(results).enumerate() {
        if rs.series.is_empty() {
            continue;
        }
        let slot = *slot_of.entry(planned.node).or_insert_with(|| {
            nodes.push((planned.node, Vec::new()));
            nodes.len() - 1
        });
        let sections = &mut nodes[slot].1;
        match sections.iter_mut().find(|earlier| plan[**earlier].section == planned.section) {
            Some(earlier) => *earlier = at,
            None => sections.push(at),
        }
    }

    let mut points_out = 0;
    let mut labelled: Vec<(&str, &SeriesResult)> = Vec::new();
    for (node, sections) in &nodes {
        sink.object(&node.bmc_addr(), |sink| {
            for &at in sections {
                let (planned, series) = (&plan[at], &results[at].series);
                let Some(tag) = &planned.label_tag else {
                    points_out += results[at].point_count();
                    sink.points(&planned.section, series);
                    continue;
                };
                labelled.clear();
                for s in series {
                    let label = s.key.tag(tag).unwrap_or("unlabeled");
                    match labelled.iter_mut().find(|(earlier, _)| *earlier == label) {
                        Some(earlier) => earlier.1 = s,
                        None => labelled.push((label, s)),
                    }
                }
                sink.object(&planned.section, |sink| {
                    for (label, s) in &labelled {
                        points_out += s.points.len();
                        sink.points(label, std::slice::from_ref(s));
                    }
                });
            }
        });
    }
    points_out
}

/// A plan's query results, before rendering: what [`run`] returns.
#[derive(Debug)]
pub struct Batch {
    /// One result set per planned query, in plan order.
    pub results: Vec<ResultSet>,
    /// Aggregate physical query cost.
    pub cost: QueryCost,
    /// Simulated time spent querying the TSDB under the chosen mode.
    pub query_time: VDuration,
}

/// Run `plan`'s queries against `db`.
///
/// Fails on the first query error (invalid ranges surface here); a query
/// that matches nothing is an empty result set, not an error.
///
/// The whole plan goes to the storage engine as one batch
/// (`monster_tsdb::Db::query_batch`), which is where the only real
/// parallelism of the read path lives. `mode` bounds its threads
/// (`Sequential`: the calling thread; `Concurrent { workers }`: at most
/// `workers`, `DbConfig::scan_workers` and the core count) and selects the
/// simulated-time model, as described in `monster_tsdb::concurrent`.
pub fn run(db: &Arc<Db>, plan: &[PlannedQuery], mode: ExecMode) -> Result<Batch> {
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
    let (cost, query_time) = (batch.total_cost, batch.simulated);
    let results = batch.into_results()?;
    monster_obs::counter("monster_builder_requests_total").inc();
    monster_obs::counter("monster_builder_queries_total").add(plan.len() as u64);
    monster_obs::histo_help(
        "monster_builder_execute_wall_seconds",
        "Wall-clock seconds one plan's query batch took, beside the modelled \
         monster_builder_query_seconds",
    )
    .observe(started.elapsed().as_secs_f64());
    span.finish_after(query_time);
    Ok(Batch { results, cost, query_time })
}

impl Batch {
    /// [`render`] the results into `sink` and account for it: the modelled
    /// processing time, the output-point counter, the wall histogram.
    pub fn render_into<S: Sink>(
        self,
        db: &Db,
        plan: &[PlannedQuery],
        mut sink: S,
    ) -> BuilderOutcome<S::Document> {
        let started = Instant::now();
        let points_out = render(plan, &self.results, &mut sink);
        let document = sink.finish();
        let processing_time = VDuration::from_secs_f64(
            (points_out as f64 * PER_OUTPUT_POINT_SECS
                + plan.len() as f64 * PER_QUERY_MARSHAL_SECS)
                * db.config().cost.amplification,
        );
        let Batch { cost, query_time, .. } = self;
        monster_obs::counter("monster_builder_points_out_total").add(points_out as u64);
        monster_obs::histo("monster_builder_query_seconds")
            .observe_vdur(query_time + processing_time);
        monster_obs::histo_help(
            "monster_builder_encode_wall_seconds",
            "Wall-clock seconds rendering one plan's results into the response document took.",
        )
        .observe(started.elapsed().as_secs_f64());
        BuilderOutcome { document, points_out, cost, query_time, processing_time }
    }
}

/// [`run`] `plan` against `db` and [`render`] the results as a [`Value`]
/// tree: the in-process form of a Metrics Builder request.
pub fn execute(db: &Arc<Db>, plan: &[PlannedQuery], mode: ExecMode) -> Result<BuilderOutcome> {
    Ok(run(db, plan, mode)?.render_into(db, plan, ValueSink::default()))
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
    fn series_sharing_a_label_leave_one_member_and_are_counted_once() {
        use crate::plan::QueryGroup;
        use monster_tsdb::SeriesKey;
        let series = |tags: &[(&str, &str)], value: f64, points: i64| SeriesResult {
            key: Arc::new(SeriesKey {
                measurement: "Thermal".into(),
                tags: tags.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            }),
            points: (0..points)
                .map(|i| (EpochSecs::new(i * 60), FieldValue::Float(value)))
                .collect(),
        };
        // Two sensors report under one label, two carry no label at all.
        let results = [ResultSet {
            series: vec![
                series(&[("Label", "CPU1 Temp"), ("Slot", "a")], 1.0, 2),
                series(&[("Slot", "b")], 2.0, 3),
                series(&[("Label", "Inlet")], 3.0, 1),
                series(&[("Label", "CPU1 Temp"), ("Slot", "c")], 4.0, 5),
                series(&[("Slot", "d")], 5.0, 7),
            ],
        }];
        let plan = [PlannedQuery {
            group: QueryGroup::Bmc,
            node: NodeId::enumerate(1, 4)[0],
            section: "thermal".into(),
            label_tag: Some("Label".into()),
            query: Query::select("Thermal", "Reading", EpochSecs::new(0), EpochSecs::new(600)),
        }];

        let mut tree = ValueSink::default();
        let counted = render(&plan, &results, &mut tree);
        let tree = tree.finish();
        let thermal = tree.pointer("10.101.1.1/thermal").unwrap().as_object().unwrap();
        // First position, last value — and only what is there is counted.
        assert_eq!(thermal.keys().collect::<Vec<_>>(), vec!["CPU1 Temp", "unlabeled", "Inlet"]);
        let member = |label: &str| thermal.get(label).unwrap().as_array().unwrap();
        assert_eq!(member("CPU1 Temp").len(), 5);
        assert_eq!(member("CPU1 Temp")[0].get("value").unwrap().as_f64(), Some(4.0));
        assert_eq!(member("unlabeled").len(), 7);
        assert_eq!(counted, 5 + 7 + 1);

        let mut bytes = JsonSink::with_capacity(0);
        assert_eq!(render(&plan, &results, &mut bytes), counted);
        assert_eq!(bytes.finish(), tree.to_string_compact().into_bytes());
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

    // That one `execute` is counted once by `run` and once by
    // `render_into` is `tests/exec_metrics.rs`: the counters are global,
    // so the exact check has a process to itself.
}

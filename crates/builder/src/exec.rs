//! Plan execution and response rendering.
//!
//! [`run`] sends a plan's queries to the TSDB as one batch (modelled as
//! sequential, or as concurrent per §IV-B3); the service, which prices a
//! plan before it runs it, prepares the batch itself and answers it
//! through [`run_prepared`]. [`render`] walks the results once, in
//! document order, into a [`JsonSink`]: the text the HTTP service sends,
//! and the only rendering; [`execute`] returns that text parsed. Request
//! counters, a simulated query-latency span and output-point counters
//! land in the database's registry.

use crate::plan::PlannedQuery;
use monster_json::{write_f64, write_i64, write_str, Value};
use monster_obs::{Counter, Histo, Registry};
use monster_sim::VDuration;
use monster_tsdb::query::SeriesResult;
use monster_tsdb::{concurrent, Db, FieldValue, Prepared, Query, QueryCost, ResultSet};
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

/// Everything a Metrics Builder run produces. `D` is the document: the
/// served text's bytes as [`render`] wrote them, or the [`Value`] tree
/// [`execute`] parses from them.
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

/// Writes the document as compact JSON text, in document order,
/// allocating nothing per member or point. The open container is always an
/// object (the document, a node, a labelled section).
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

    /// A member that is itself an object; `fill` writes its members.
    fn object(&mut self, key: &str, fill: impl FnOnce(&mut Self)) {
        self.member(key);
        self.0.push('{');
        fill(self);
        self.0.push('}');
    }

    /// A section member, `{"time":[…],"values":…}`, or `{"values":…}` on the
    /// document's grid (no `times`); `fill` writes the values.
    fn section(
        &mut self,
        key: &str,
        times: Option<impl Iterator<Item = i64>>,
        fill: impl FnOnce(&mut Self),
    ) {
        self.member(key);
        self.0.push('{');
        if let Some(times) = times {
            self.0.push_str("\"time\":");
            self.array(times, write_i64);
            self.0.push(',');
        }
        self.0.push_str("\"values\":");
        fill(self);
        self.0.push('}');
    }

    /// `items` as an array, each written by `write`.
    fn array<T>(&mut self, items: impl Iterator<Item = T>, write: fn(&mut String, T)) {
        self.0.push('[');
        for (at, item) in items.enumerate() {
            if at > 0 {
                self.0.push(',');
            }
            write(&mut self.0, item);
        }
        self.0.push(']');
    }

    /// Close the document.
    pub fn finish(mut self) -> Vec<u8> {
        self.0.push('}');
        self.0.into_bytes()
    }
}

/// A value, `null` for none (and for a non-finite float: JSON has no
/// other word for it).
fn write_value(out: &mut String, value: Option<&FieldValue>) {
    match value {
        Some(FieldValue::Float(f)) => write_f64(out, *f).expect("writing to a String cannot fail"),
        Some(FieldValue::Int(i)) => write_i64(out, *i),
        Some(FieldValue::Str(s)) => write_str(out, s),
        Some(FieldValue::Bool(b)) => out.push_str(if *b { "true" } else { "false" }),
        None => out.push_str("null"),
    }
}

/// Walk `results` (one per planned query, in plan order) into `sink` as
/// the response document, node → section, and return the number of points
/// written. A section writes its times once: a flat one
/// `{"time":[t…],"values":[v…]}`, its series' points as they come; one
/// whose query names a `label_tag` `{"time":[t…],"values":{label:[v|null…]}}`,
/// the ascending union of its labels' times and each label's values on
/// it, `null` where the label has none (of two at one time, the later).
/// The document writes its window grid once, first, as `"time"` (no node
/// address is that key): the first windowed section's first series' times,
/// when they ascend. A section whose one series, or each label, is on it
/// writes no times of its own.
///
/// A document is keyed, so what the plan repeats is decided here, once: a
/// node takes the position of its first query and gathers the sections of
/// all its queries, wherever in the plan they are; a section named twice
/// under a node, or a label two series of one query share (or both lack:
/// `"unlabeled"`), keeps its first position and its last value. Only what
/// is written is counted; a query that matched nothing writes and replaces
/// nothing.
pub fn render(plan: &[PlannedQuery], results: &[ResultSet], sink: &mut JsonSink) -> usize {
    // The layout first — which queries each node's document holds, in
    // order — because text that streams cannot go back to a node.
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

    // The grid, chosen before any text is written.
    let windowed = |at: &&usize| plan[**at].query.group_by.is_some();
    let grid = nodes.iter().flat_map(|(_, sections)| sections).find(windowed);
    let grid = grid.map(|&at| &results[at].series[0].points[..]);
    let grid = grid.filter(|g| !g.is_empty() && g.windows(2).all(|w| w[0].0 < w[1].0));
    if let Some(grid) = grid {
        sink.member("time");
        sink.array(grid.iter().map(|p| p.0.as_secs()), write_i64);
    }
    let on_grid = |s: &SeriesResult| {
        grid.is_some_and(|grid| s.points.iter().map(|p| p.0).eq(grid.iter().map(|p| p.0)))
    };

    // Scratch every labelled section reuses: its labels, its time column
    // when they are not on the grid, and a label's values laid on that column.
    let mut points_out = 0;
    let mut labelled: Vec<(&str, &SeriesResult)> = Vec::new();
    let mut times: Vec<i64> = Vec::new();
    let mut slots: Vec<Option<&FieldValue>> = Vec::new();
    for (node, sections) in &nodes {
        sink.object(&node.bmc_addr(), |sink| {
            for &at in sections {
                let (planned, series) = (&plan[at], &results[at].series);
                let points = || series.iter().flat_map(|s| &s.points);
                let Some(tag) = planned.label_tag else {
                    points_out += results[at].point_count();
                    let own = !(series.len() == 1 && on_grid(&series[0]));
                    let times = points().map(|(t, _)| t.as_secs());
                    sink.section(planned.section, own.then_some(times), |sink| {
                        sink.array(points().map(|(_, v)| Some(v)), write_value)
                    });
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
                // Labels on the grid (a windowed section's, but for a node
                // missing a window) are each their column as they stand; any
                // other section's labels are laid on the union of their times.
                let shared = labelled.iter().all(|(_, s)| on_grid(s));
                times.clear();
                if !shared {
                    let all = labelled.iter().flat_map(|(_, s)| &s.points);
                    times.extend(all.map(|(t, _)| t.as_secs()));
                    times.sort_unstable();
                    times.dedup();
                }
                let column = (!shared).then_some(times.iter().copied());
                sink.section(planned.section, column, |sink| {
                    sink.0.push('{');
                    for (label, s) in &labelled {
                        sink.member(label);
                        if shared {
                            points_out += s.points.len();
                            sink.array(s.points.iter().map(|(_, v)| Some(v)), write_value);
                            continue;
                        }
                        slots.clear();
                        slots.resize(times.len(), None);
                        for (t, v) in &s.points {
                            slots[times.binary_search(&t.as_secs()).expect("in the union")] =
                                Some(v);
                        }
                        points_out += slots.iter().flatten().count();
                        sink.array(slots.iter().copied(), write_value);
                    }
                    sink.0.push('}');
                });
            }
        });
    }
    points_out
}

/// A plan's query results, before rendering: what [`run`] returns.
#[derive(Debug)]
pub struct Batch {
    /// The handles the batch and its rendering report to.
    metrics: Arc<ExecMetrics>,
    /// One result set per planned query, in plan order.
    pub results: Vec<ResultSet>,
    /// Aggregate physical query cost.
    pub cost: QueryCost,
    /// Simulated time spent querying the TSDB under the chosen mode.
    pub query_time: VDuration,
    /// Threads the storage scan ran on.
    pub scan_threads: usize,
}

/// The registry handles one execution updates, resolved once: the service
/// keeps a set beside its other handles and lends it to each batch; [`run`]
/// resolves one from the database's registry.
#[derive(Debug)]
pub(crate) struct ExecMetrics {
    requests: Arc<Counter>,
    queries: Arc<Counter>,
    execute_wall: Arc<Histo>,
    points_out: Arc<Counter>,
    query_seconds: Arc<Histo>,
    encode_wall: Arc<Histo>,
}

impl ExecMetrics {
    pub(crate) fn new(obs: &Registry) -> ExecMetrics {
        ExecMetrics {
            requests: obs.counter("monster_builder_requests_total"),
            queries: obs.counter("monster_builder_queries_total"),
            execute_wall: obs.histo_help(
                "monster_builder_execute_wall_seconds",
                "Wall-clock seconds one plan's query batch took, beside the modelled \
                 monster_builder_query_seconds",
            ),
            points_out: obs.counter("monster_builder_points_out_total"),
            query_seconds: obs.histo("monster_builder_query_seconds"),
            encode_wall: obs.histo_help(
                "monster_builder_encode_wall_seconds",
                "Wall-clock seconds rendering one plan's results into the response document took.",
            ),
        }
    }
}

/// Run `plan`'s queries against `db`: [`monster_tsdb::Db::prepare`] them,
/// then [`run_prepared`].
pub fn run(db: &Db, plan: &[PlannedQuery], mode: ExecMode) -> Result<Batch> {
    let queries: Vec<&Query> = plan.iter().map(|p| &p.query).collect();
    run_prepared(db, db.prepare(&queries), mode, Arc::new(ExecMetrics::new(db.registry())))
}

/// Answer a plan's prepared queries — the service prices them first.
///
/// Fails on the first query error (invalid ranges surface here); a query
/// that matches nothing is an empty result set, not an error.
///
/// The whole plan goes to the storage engine as one batch
/// (`monster_tsdb::Db::answer`), which is where the only real parallelism
/// of the read path lives. `mode` bounds its threads (`Sequential`: the
/// calling thread; `Concurrent { workers }`: at most `workers`,
/// `DbConfig::scan_workers` and the core count) and selects the
/// simulated-time model, as described in `monster_tsdb::concurrent`.
pub(crate) fn run_prepared(
    db: &Db,
    prepared: Prepared<'_>,
    mode: ExecMode,
    metrics: Arc<ExecMetrics>,
) -> Result<Batch> {
    let started = Instant::now();
    let batch = match mode {
        ExecMode::Sequential => concurrent::run_sequential(db, prepared),
        ExecMode::Concurrent { workers } => concurrent::run_concurrent(db, prepared, workers),
    };
    let (cost, query_time, scan_threads) = (batch.total_cost, batch.simulated, batch.threads);
    let results = batch.into_results()?;
    metrics.requests.inc();
    metrics.queries.add(results.len() as u64);
    metrics.execute_wall.observe(started.elapsed().as_secs_f64());
    Ok(Batch { metrics, results, cost, query_time, scan_threads })
}

impl Batch {
    /// [`render`] the results as the reply's text and account for it: the
    /// modelled processing time, the output-point counter, the wall
    /// histogram. The text is reserved from the shape — 11 B a time of the
    /// window grid (ten digits and a comma, the longest series' count, once),
    /// 10 B a value, 40 B a series for its key and brackets, and in a section
    /// that is not windowed (`jobs`) 11 B a time and its text: 1.1–1.8× what
    /// the catalog's panels write, 1.5–1.6× Fig. 18's bodies — so it is
    /// written into one block that does not grow. A section off the grid (a
    /// node missing a window) writes times this leaves to the values' slack.
    pub(crate) fn render_into(self, db: &Db, plan: &[PlannedQuery]) -> BuilderOutcome<Vec<u8>> {
        let started = Instant::now();
        let room = plan.iter().zip(&self.results).map(|(planned, rs)| {
            let raw = rs.series.iter().flat_map(|s| &s.points);
            let raw = raw.filter(|_| planned.query.group_by.is_none()).map(|(_, v)| match v {
                FieldValue::Str(text) => 11 + text.len(),
                _ => 11,
            });
            raw.sum::<usize>() + 10 * rs.point_count() + 40 * rs.series.len()
        });
        let grid = self.results.iter().flat_map(|rs| &rs.series).map(|s| s.points.len()).max();
        let room = 11 * grid.unwrap_or(0) + room.sum::<usize>();
        let mut sink = JsonSink::with_capacity(room);
        let points_out = render(plan, &self.results, &mut sink);
        let document = sink.finish();
        let processing_time = VDuration::from_secs_f64(
            (points_out as f64 * PER_OUTPUT_POINT_SECS
                + plan.len() as f64 * PER_QUERY_MARSHAL_SECS)
                * db.config().cost.amplification,
        );
        let Batch { metrics, cost, query_time, .. } = self;
        metrics.points_out.add(points_out as u64);
        metrics.query_seconds.observe_vdur(query_time + processing_time);
        metrics.encode_wall.observe(started.elapsed().as_secs_f64());
        BuilderOutcome { document, points_out, cost, query_time, processing_time }
    }
}

/// [`run`] `plan` against `db` and [`render`] the text a `/v1/metrics`
/// miss sends, parsed: the in-process form of a Metrics Builder request.
/// The tree is a decoding of the served text, so a reading the text writes
/// as `null` (a non-finite float) is `null` here too.
pub fn execute(db: &Arc<Db>, plan: &[PlannedQuery], mode: ExecMode) -> Result<BuilderOutcome> {
    let BuilderOutcome { document, points_out, cost, query_time, processing_time } =
        run(db, plan, mode)?.render_into(db, plan);
    let text = std::str::from_utf8(&document).expect("the served text is UTF-8");
    let document = monster_json::parse(text).expect("the served text is JSON");
    Ok(BuilderOutcome { document, points_out, cost, query_time, processing_time })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_plan, BuilderRequest};
    use monster_analysis::served;
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
        let read = |section| served::section(&out.document, "10.101.1.1", section).unwrap();
        let power = read("power");
        assert_eq!(power.len(), 24); // 7200 s / 300 s windows
        assert_eq!(power[0].1, 0);
        // Thermal is keyed by sensor label.
        assert!(read("thermal").iter().all(|&(label, ..)| label == Some("CPU1 Temp")));
        assert_eq!(read("thermal").len(), 24);
        // Raw string job lists survive marshalling.
        assert_eq!(read("jobs")[0].2.as_str(), Some("['1001']"));
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
        plan[10].section = "power_again";
        let out = execute(&db, &plan, ExecMode::Concurrent { workers: 8 }).unwrap();
        let doc = out.document.as_object().unwrap();
        assert_eq!(doc.keys().collect::<Vec<_>>(), vec!["time", "10.101.1.1", "10.101.1.2"]);
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
        use crate::QueryGroup;
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
            section: "thermal",
            label_tag: Some("Label"),
            query: Query::select("Thermal", "Reading", EpochSecs::new(0), EpochSecs::new(600)),
        }];

        let mut sink = JsonSink::with_capacity(0);
        let counted = render(&plan, &results, &mut sink);
        let tree = monster_json::parse(std::str::from_utf8(&sink.finish()).unwrap()).unwrap();
        let thermal = served::section(&tree, "10.101.1.1", "thermal").unwrap();
        // First position, last value — and only what is there is counted.
        let mut labels: Vec<&str> = thermal.iter().filter_map(|&(label, ..)| label).collect();
        labels.dedup();
        assert_eq!(labels, vec!["CPU1 Temp", "unlabeled", "Inlet"]);
        let member = |label| thermal.iter().filter(|r| r.0 == Some(label)).collect::<Vec<_>>();
        assert_eq!(member("CPU1 Temp").len(), 5);
        assert_eq!(member("CPU1 Temp")[0].2.as_f64(), Some(4.0));
        assert_eq!(member("unlabeled").len(), 7);
        assert_eq!(counted, 5 + 7 + 1);
    }

    /// A result set of one series per `(label, times)`, each reading its time.
    fn results(series: &[(&str, &[i64])]) -> ResultSet {
        let series = series.iter().map(|&(label, times)| SeriesResult {
            key: Arc::new(monster_tsdb::SeriesKey {
                measurement: "M".into(),
                tags: vec![("Label".into(), label.into())],
            }),
            points: times.iter().map(|&t| (EpochSecs::new(t), FieldValue::Int(t))).collect(),
        });
        ResultSet { series: series.collect() }
    }

    /// Render `entries` (node, section, label tag, windowed, results) and
    /// parse the text.
    fn rendered(entries: Vec<(usize, &'static str, bool, bool, ResultSet)>) -> (Value, usize) {
        let (plan, results): (Vec<_>, Vec<_>) = entries
            .into_iter()
            .map(|(node, section, labelled, windowed, rs)| {
                let query = Query::select("M", "F", EpochSecs::new(0), EpochSecs::new(900));
                let planned = PlannedQuery {
                    group: crate::QueryGroup::Bmc,
                    node: NodeId::enumerate(2, 4)[node],
                    section,
                    label_tag: labelled.then_some("Label"),
                    query: if windowed { query.group_by_time(300) } else { query },
                };
                (planned, rs)
            })
            .unzip();
        let mut sink = JsonSink::with_capacity(0);
        let points = render(&plan, &results, &mut sink);
        (monster_json::parse(std::str::from_utf8(&sink.finish()).unwrap()).unwrap(), points)
    }

    #[test]
    fn the_window_grid_is_written_once_and_only_other_columns_again() {
        let grid: &[i64] = &[0, 300, 600];
        let (doc, points) = rendered(vec![
            (0, "power", false, true, results(&[("NodePower", grid)])),
            (0, "thermal", true, true, results(&[("CPU1", grid), ("CPU2", grid)])),
            (0, "jobs", false, false, results(&[("", &[600])])),
            // The second node misses a window; a label union is not the grid.
            (1, "power", false, true, results(&[("NodePower", &[0, 600])])),
            (1, "thermal", true, true, results(&[("CPU1", &[0, 300]), ("CPU2", &[300])])),
        ]);
        let text = doc.to_string_compact();
        assert!(text.starts_with(r#"{"time":[0,300,600],"10.101.1.1":{"power":{"values":"#));
        let own = |node: &str, section| doc.get(node).unwrap().get(section).unwrap().get("time");
        assert_eq!(own("10.101.1.1", "power"), None);
        assert_eq!(own("10.101.1.1", "thermal"), None);
        assert_eq!(own("10.101.1.1", "jobs"), Some(&Value::Array(vec![600.into()])));
        assert_eq!(own("10.101.1.2", "power"), Some(&Value::Array(vec![0.into(), 600.into()])));
        assert_eq!(own("10.101.1.2", "thermal").unwrap().as_array().unwrap().len(), 2);
        // Every reading reads back at its own time, whichever column holds it.
        let read = served::readings(&doc).unwrap();
        assert_eq!(read.len(), points);
        assert_eq!(points, 3 + 6 + 1 + 2 + 3);
        assert!(read.iter().all(|(_, _, (_, t, v))| v.as_i64() == Some(*t)), "{read:?}");
        let second: Vec<i64> =
            read.iter().filter(|r| r.0 == "10.101.1.2").map(|r| r.2 .1).collect();
        assert_eq!(second, [0, 600, 0, 300, 300]);
    }

    #[test]
    fn a_plan_with_no_windowed_section_writes_no_grid() {
        let (doc, points) = rendered(vec![(0, "jobs", false, false, results(&[("", &[600])]))]);
        assert_eq!(
            doc.to_string_compact(),
            r#"{"10.101.1.1":{"jobs":{"time":[600],"values":[600]}}}"#
        );
        assert_eq!(points, 1);
        // No node address is the grid's key.
        assert_eq!(NodeId::parse("time"), None);
    }

    #[test]
    fn a_compressed_body_reads_as_the_plain_one() {
        let (db, ids) = seeded(3);
        let plan = build_plan(SchemaVersion::Optimized, &ids, &request());
        let net = &monster_sim::NetModel::GIGABIT_LAN;
        let body = |compress| {
            let level = monster_compress::Level::default();
            crate::encode_response(&db, &plan, ExecMode::Sequential, compress, level, net)
                .unwrap()
                .body
        };
        let (plain, packed) = (body(false), body(true));
        assert!(packed.len() < plain.len());
        let parse = |b: &[u8]| monster_json::parse(std::str::from_utf8(b).unwrap()).unwrap();
        let (plain, packed) =
            (parse(&plain), parse(&monster_compress::decompress(&packed).unwrap()));
        let readings = served::readings(&plain).unwrap();
        assert_eq!(readings.len(), 3 * (4 * 24 + 5), "four windowed sections, five jobs");
        assert_eq!(served::readings(&packed).unwrap(), readings);
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

    // That one `execute` is counted once by `run_prepared` and once by
    // `render_into` is `tests/exec_metrics.rs`, over a store with a
    // registry of its own.
}

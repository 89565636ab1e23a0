//! What a cache miss may allocate, counted.
//!
//! A miss used to build a `Value` tree (one block a point), marshal it
//! (one `String` an integer) and label every series with a copy of its
//! key (two blocks a tag). Three gates keep that from coming back:
//! rendering allocates nothing per point, `Db::query_batch` allocates a
//! bounded number of blocks per selected series whatever the key holds,
//! and a whole `Router::dispatch` miss allocates no more blocks than it was
//! measured to when the document wrote a record a point.
//!
//! `counting_alloc::counted` counts the calling thread's blocks, so sibling
//! tests allocate beside a window without showing up in it; every counted
//! call is made to run on the calling thread alone.

use counting_alloc::{counted, Counts};
use monster_analysis::served;
use monster_builder::exec::{render, run, JsonSink};
use monster_builder::service::{router, ServiceConfig};
use monster_builder::{build_plan, execute, AdmissionConfig, BuilderRequest, ExecMode};
use monster_collector::SchemaVersion;
use monster_http::Request;
use monster_tsdb::{Aggregation, DataPoint, Db, DbConfig, Query};
use monster_util::{EpochSecs, NodeId};
use std::sync::Arc;

const NODES: usize = 64;

/// An hour of what the optimized plan reads, for [`NODES`] nodes; every
/// series also carries `extra_tags` more tags with long values.
fn deployment(extra_tags: usize) -> (Arc<Db>, Vec<NodeId>) {
    let db = Db::new(DbConfig::default());
    let nodes = NodeId::enumerate(NODES, 4);
    let mut batch = Vec::new();
    for i in 0..60i64 {
        let t = EpochSecs::new(i * 60);
        for node in &nodes {
            let addr = node.bmc_addr();
            let point = |measurement: &str| {
                let mut p = DataPoint::new(measurement, t).tag("NodeId", addr.as_str());
                for k in 0..extra_tags {
                    p = p
                        .tag(format!("Rack{k}"), format!("row-{k}-of-a-rather-long-location-name"));
                }
                p
            };
            batch.push(point("Power").tag("Label", "NodePower").field_f64("Reading", 250.5));
            for label in ["CPU1 Temp", "CPU2 Temp", "Inlet Temp"] {
                batch.push(point("Thermal").tag("Label", label).field_f64("Reading", 41.25));
            }
            batch.push(point("UGE").field_f64("CPUUsage", 0.5).field_f64("MemUsed", 90.5));
            batch.push(point("NodeJobs").field_str("JobList", "['1001']"));
        }
    }
    db.write_batch(&batch).unwrap();
    (Arc::new(db), nodes)
}

/// The optimized plan for the last `minutes` of the hour at `1m`.
fn request(minutes: i64) -> BuilderRequest {
    BuilderRequest::new(
        EpochSecs::new(3600 - minutes * 60),
        EpochSecs::new(3600),
        60,
        Aggregation::Max,
    )
    .unwrap()
}

/// How many readings a rendered body carries, read as the analyses read it.
fn values_in(body: &[u8]) -> usize {
    let document = monster_json::parse(std::str::from_utf8(body).unwrap()).unwrap();
    served::readings(&document).unwrap().len()
}

#[test]
fn rendering_allocates_nothing_per_point() {
    let (db, nodes) = deployment(0);
    let mut blocks = Vec::new();
    for minutes in [5, 30] {
        let plan = build_plan(SchemaVersion::Optimized, &nodes, &request(minutes));
        let batch = run(&db, &plan, ExecMode::Sequential).unwrap();
        let ((points, bytes), Counts { blocks: allocated, .. }) = counted(|| {
            let mut sink = JsonSink::with_capacity(0);
            let points = render(&plan, &batch.results, &mut sink);
            (points, sink.finish())
        });
        assert!(points >= NODES * 6 * minutes as usize, "{points} points in {minutes} min");
        assert_eq!(values_in(&bytes), points, "{minutes} min: the body carries every point");
        blocks.push(allocated);

        // Told the size (as the service tells it), the buffer is one block
        // for the whole walk: every doubling above is gone.
        let (text, Counts { blocks: reserved, .. }) = counted(|| {
            let mut sink = JsonSink::with_capacity(bytes.len());
            render(&plan, &batch.results, &mut sink);
            sink.finish()
        });
        assert_eq!(text, bytes);
        assert!(reserved + 10 <= allocated, "{reserved} blocks reserved, {allocated} grown");
    }
    // Six times the points; the difference is the text buffer doubling a
    // few more times.
    assert!(blocks[1].abs_diff(blocks[0]) <= 8, "5 and 30 points a series: {blocks:?} blocks");
    // The layout: a node's address, its section list, its slot in the map.
    assert!(blocks[0] <= 6 * NODES, "{} blocks for {NODES} nodes", blocks[0]);
}

#[test]
fn a_query_batch_allocates_per_series_not_per_key_byte() {
    let mut blocks = Vec::new();
    for extra_tags in [0, 6] {
        let (db, nodes) = deployment(extra_tags);
        let plan = build_plan(SchemaVersion::Optimized, &nodes, &request(30));
        let queries: Vec<&Query> = plan.iter().map(|p| &p.query).collect();
        // One worker: the whole batch on this thread, in this window.
        let (results, Counts { blocks: allocated, .. }) = counted(|| db.query_batch(&queries, 1));
        let series: usize =
            results.iter().map(|r| r.as_ref().expect("planned query").0.series.len()).sum();
        assert_eq!(series, NODES * 7, "power, three sensors, two UGE fields, the job list");
        assert!(
            allocated <= 3 * series,
            "{allocated} blocks for {series} series carrying {extra_tags} extra tags"
        );
        blocks.push(allocated);
    }
    // Labelling a result with its key is a reference count, not a copy: six
    // more tags a series used to be 12 more blocks a series.
    assert!(blocks[1] <= blocks[0] + 8, "0 and 6 extra tags a series: {blocks:?} blocks");
}

/// What a miss on this request allocated when each point was a
/// `{"time":…,"value":…}` record, measured: the bound that replaced "40 %
/// of the tree path" (`execute` + `to_string_compact`, whose tree holds an
/// object a point), a reference that got cheaper when the window times
/// went into one column a section.
const MISS_BLOCKS: usize = 2_841;

#[test]
fn a_dispatched_miss_allocates_no_more_than_it_did_a_point_a_record() {
    let (db, nodes) = deployment(0);
    let service = router(
        Arc::clone(&db),
        nodes.clone(),
        ServiceConfig {
            // On this thread, like the tree path below.
            exec: ExecMode::Sequential,
            admission: AdmissionConfig { enabled: false, ..AdmissionConfig::default() },
            ..ServiceConfig::default()
        },
    );
    let plan = build_plan(SchemaVersion::Optimized, &nodes, &request(30));
    let text = execute(&db, &plan, ExecMode::Sequential).unwrap().document.to_string_compact();

    let url = "/v1/metrics?start=1970-01-01T00:30:00Z&end=1970-01-01T01:00:00Z&interval=1m";
    let (reply, Counts { blocks: miss, .. }) = counted(|| service.dispatch(&Request::get(url)));
    assert_eq!(reply.headers.get("X-Cache"), Some("miss"));
    assert_eq!(reply.body, text.into_bytes());
    // The dispatch also parses, plans, prices, records and caches.
    assert!(miss <= MISS_BLOCKS, "a miss allocated {miss} blocks");
}

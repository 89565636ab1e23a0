//! Integration: a paper-scale dashboard request (467 nodes × 5 queries =
//! 2 335) runs as one storage batch — a bounded number of threads, a
//! handful of spans — and not as 2 335 little fan-outs.

use monster::builder::admission::AdmissionConfig;
use monster::builder::service::{router, ServiceConfig};
use monster::builder::{build_plan, execute, BuilderRequest, ExecMode};
use monster::collector::SchemaVersion;
use monster::http::{Request, Status};
use monster::obs;
use monster::tsdb::{Aggregation, Query};
use monster::util::pool;
use monster::{Monster, MonsterConfig};
use std::sync::{Mutex, OnceLock};

const NODES: usize = 467;

/// One deployment for the file, with ten intervals of history; the tests
/// take turns on it because both read process-wide telemetry.
fn deployment() -> std::sync::MutexGuard<'static, Monster> {
    static DEPLOYMENT: OnceLock<Mutex<Monster>> = OnceLock::new();
    let built = DEPLOYMENT.get_or_init(|| {
        let mut m = Monster::new(MonsterConfig {
            nodes: NODES,
            seed: 14,
            workload: None,
            horizon_secs: 0,
            ..MonsterConfig::default()
        });
        m.run_intervals_bulk(10);
        Mutex::new(m)
    });
    built.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn one_execute_spawns_at_most_one_thread_per_core_and_a_light_query_none() {
    let m = deployment();
    let req = BuilderRequest::new(m.now() - 600, m.now(), 60, Aggregation::Max).unwrap();
    let plan = build_plan(SchemaVersion::Optimized, &m.node_ids(), &req);
    assert_eq!(plan.len(), 2_335);

    let workers = 8;
    let threads = workers.min(m.db().config().scan_workers).min(pool::cores());
    let before = pool::spawned_by_this_thread();
    let concurrent = execute(m.db(), &plan, ExecMode::Concurrent { workers }).unwrap();
    let spawned = (pool::spawned_by_this_thread() - before) as usize;
    assert!(spawned < threads, "{spawned} threads spawned beside the caller, {threads} allowed");
    if threads > 1 {
        assert!(spawned >= 1, "a 2 335-query plan over ten intervals should not run inline");
    }

    let before = pool::spawned_by_this_thread();
    let sequential = execute(m.db(), &plan, ExecMode::Sequential).unwrap();
    assert_eq!(pool::spawned_by_this_thread(), before, "sequential execution spawned");
    assert_eq!(sequential.document, concurrent.document);
    assert_eq!(sequential.cost, concurrent.cost);
    assert!(concurrent.points_out > NODES * 10);

    // One node's power series: one (series, shard) item, never handed off.
    let node = m.node_ids()[0];
    let single = Query::select("Power", "Reading", m.now() - 600, m.now())
        .where_tag("NodeId", node.bmc_addr())
        .where_tag("Label", "NodePower");
    let before = pool::spawned_by_this_thread();
    let (rs, cost) = m.db().query(&single).unwrap();
    assert_eq!(pool::spawned_by_this_thread(), before, "a single-series query spawned");
    assert_eq!((rs.series.len(), cost.series), (1, 1));
}

#[test]
fn one_request_leaves_the_trace_ring_and_the_wall_clock_readable() {
    let m = deployment();
    let service = router(
        std::sync::Arc::clone(m.db()),
        m.node_ids(),
        ServiceConfig {
            // Every paper-scale panel prices above the default thresholds.
            admission: AdmissionConfig { enabled: false, ..AdmissionConfig::default() },
            ..ServiceConfig::default()
        },
    );
    let url = format!(
        "/v1/metrics?start={}&end={}&interval=1m&aggregation=max",
        (m.now() - 600).to_rfc3339(),
        m.now().to_rfc3339()
    );
    let inbound = obs::TraceContext::root();
    let wall = obs::histo("monster_builder_execute_wall_seconds");
    let (dropped, executions) = (obs::global().spans_dropped(), wall.count());

    let resp =
        service.dispatch(&Request::get(&url).with_header("traceparent", inbound.to_traceparent()));
    assert_eq!(resp.status, Status::OK);
    assert_eq!(resp.headers.get("X-Cache"), Some("miss"));

    // The ring (512 slots by default) kept everything: the parent recorded
    // one span per query and evicted its history four times over.
    assert_eq!(obs::global().spans_dropped() - dropped, 0, "one request overflowed the ring");
    let spans = obs::global().recent_spans();
    let ours: Vec<_> = spans.iter().filter(|s| s.trace == inbound.trace).collect();
    let exec = ours.iter().find(|s| s.name == "builder.execute").expect("execute span");
    let scans: Vec<_> = ours.iter().filter(|s| s.name == "tsdb.query_scan").collect();
    assert!((1..=pool::cores().min(8)).contains(&scans.len()), "{} scan spans", scans.len());
    let attr = |s: &obs::SpanRecord, k: &str| s.attr(k).and_then(|v| v.parse::<usize>().ok());
    for scan in &scans {
        assert_eq!(scan.parent, Some(exec.span));
        assert_eq!(attr(scan, "threads"), Some(scans.len()));
        assert!(attr(scan, "points").is_some() && attr(scan, "blocks").is_some());
    }
    assert_eq!(scans.iter().filter_map(|s| attr(s, "queries")).sum::<usize>(), 2_335);

    // Wall time of the execution, beside the modelled figure.
    assert_eq!(wall.count() - executions, 1);
    let exposition = obs::global().text_exposition();
    assert!(exposition.contains("# HELP monster_builder_execute_wall_seconds "));
    assert!(obs::sample(&exposition, "monster_builder_query_seconds_count").is_some());
}

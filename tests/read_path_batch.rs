//! Integration: a paper-scale dashboard request (467 nodes × 5 queries =
//! 2 335) runs as one storage batch — a bounded number of threads, one
//! record — and not as 2 335 little fan-outs.

use monster::builder::admission::AdmissionConfig;
use monster::builder::service::{router, ServiceConfig};
use monster::builder::{build_plan, execute, BuilderRequest, ExecMode};
use monster::collector::SchemaVersion;
use monster::http::{Request, Status};
use monster::json::Value;
use monster::obs;
use monster::tsdb::{Aggregation, Query};
use monster::util::pool;
use monster::{Monster, MonsterConfig};
use std::sync::{Mutex, OnceLock};

const NODES: usize = 467;

/// One deployment for the file, with ten intervals of history; the tests
/// take turns on it because both read its registry.
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
        assert!(
            spawned >= 1,
            "a 2 335-query plan over ten intervals should not run on the calling thread alone"
        );
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
    // A caller's context, from outside this deployment.
    let inbound = obs::TraceContext::parse_traceparent(
        "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
    )
    .unwrap();
    let registry = m.registry();
    let wall = registry.histo("monster_builder_execute_wall_seconds");
    let executions = wall.count();

    let resp =
        service.dispatch(&Request::get(&url).with_header("traceparent", inbound.to_traceparent()));
    assert_eq!(resp.status, Status::OK);
    assert_eq!(resp.headers.get("X-Cache"), Some("miss"));

    // The request left one whole record, nothing dropped, and its trace
    // renders the execution with one scan under it that ran the plan's
    // 2 335 queries on at most one thread a core.
    let get = |path: &str| service.dispatch(&Request::get(path)).json_body().unwrap();
    let recorder = get("/debug/requests");
    assert_eq!(recorder.get("dropped_total").and_then(Value::as_i64), Some(0));
    let ours = get(&format!("/debug/requests/{}", inbound.trace));
    assert_eq!(ours.get("requests").and_then(Value::as_array).map(|r| r.len()), Some(1));
    let trace = get(&format!("/debug/trace?trace_id={}", inbound.trace));
    let events = trace.get("traceEvents").and_then(Value::as_array).unwrap();
    let named = |name: &str| -> Vec<&Value> {
        events.iter().filter(|e| e.get("name").and_then(Value::as_str) == Some(name)).collect()
    };
    let arg = |e: &Value, k: &str| e.pointer(&format!("/args/{k}")).cloned();
    let exec = *named("builder.execute").first().expect("execute event");
    let scans = named("tsdb.query_scan");
    assert_eq!(scans.len(), 1, "one scan record a request");
    let scan = scans[0];
    assert_eq!(arg(scan, "parent_span_id"), arg(exec, "span_id"));
    let count = |k: &str| arg(scan, k).and_then(|v| v.as_i64()).map(|v| v as usize);
    let threads = count("threads").unwrap();
    assert!((1..=pool::cores().min(8)).contains(&threads), "{threads} scan threads");
    assert!(count("points").is_some() && count("blocks").is_some());
    assert_eq!(count("queries"), Some(2_335));

    // Wall time of the execution, beside the modelled figure.
    assert_eq!(wall.count() - executions, 1);
    let exposition = registry.text_exposition();
    assert!(exposition.contains("# HELP monster_builder_execute_wall_seconds "));
    assert!(obs::sample(&exposition, "monster_builder_query_seconds_count").is_some());
}

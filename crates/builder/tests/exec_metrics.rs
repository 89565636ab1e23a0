//! One request is counted once.
//!
//! A request is two halves — `run` (the batch) and `Batch::render_into`
//! (the document), called by `execute` and by the HTTP service — and each
//! reports its own share to the global registry. The counters are
//! process-wide, so this file holds one test: nothing else executes a plan
//! beside it and the deltas are exact.

use monster_builder::service::{router, ServiceConfig};
use monster_builder::{build_plan, execute, BuilderRequest, ExecMode};
use monster_collector::SchemaVersion;
use monster_http::Request;
use monster_tsdb::{Aggregation, DataPoint, Db, DbConfig};
use monster_util::{EpochSecs, NodeId};
use std::sync::Arc;

#[test]
fn execution_reports_to_the_metrics_registry() {
    let db = Db::new(DbConfig::default());
    let ids = NodeId::enumerate(2, 4);
    let mut batch = Vec::new();
    for i in 0..120i64 {
        let t = EpochSecs::new(i * 60);
        for n in &ids {
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
        }
    }
    db.write_batch(&batch).unwrap();
    let db = Arc::new(db);
    let request =
        BuilderRequest::new(EpochSecs::new(0), EpochSecs::new(7200), 300, Aggregation::Max)
            .unwrap();
    let plan = build_plan(SchemaVersion::Optimized, &ids, &request);

    // Requests, queries, points out; observations of the two wall clocks.
    let registry = monster_obs::global();
    let counted = || {
        [
            registry.counter_value("monster_builder_requests_total"),
            registry.counter_value("monster_builder_queries_total"),
            registry.counter_value("monster_builder_points_out_total"),
            registry.histo("monster_builder_execute_wall_seconds").count(),
            registry.histo("monster_builder_encode_wall_seconds").count(),
        ]
    };
    let after = |before: [u64; 5], requests: u64, points: u64| {
        let [r, q, p, run, render] = before;
        [
            r + requests,
            q + requests * plan.len() as u64,
            p + points,
            run + requests,
            render + requests,
        ]
    };

    let before = counted();
    let mut points_out = 0;
    for mode in [ExecMode::Sequential, ExecMode::Concurrent { workers: 4 }] {
        let outcome = execute(&db, &plan, mode).unwrap();
        assert!(outcome.points_out > 0);
        points_out += outcome.points_out as u64;
    }
    let executed = after(before, 2, points_out);
    assert_eq!(counted(), executed, "`run` and `render_into` each count their half once");

    // The service makes the same two calls on a miss and neither on a hit.
    let service = router(Arc::clone(&db), ids, ServiceConfig::default());
    let url = "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T02:00:00Z\
               &interval=5m&aggregation=max";
    for cache in ["miss", "hit"] {
        let reply = service.dispatch(&Request::get(url));
        assert_eq!(reply.headers.get("X-Cache"), Some(cache));
        assert_eq!(counted(), after(executed, 1, points_out / 2), "after a {cache}");
    }
}

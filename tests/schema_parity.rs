//! Schema parity: both storage schemas answer the same questions, and a
//! deployment is a function of its seed.

use monster::builder::{build_plan, exec::execute, BuilderRequest, ExecMode};
use monster::collector::SchemaVersion;
use monster::redfish::bmc::BmcConfig;
use monster::tsdb::Aggregation;
use monster::{Monster, MonsterConfig};

fn deployment(schema: SchemaVersion, nodes: usize) -> Monster {
    let mut m = Monster::new(MonsterConfig {
        nodes,
        schema,
        seed: 99,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        ..MonsterConfig::default()
    });
    m.run_intervals_bulk(30);
    m
}

#[test]
fn both_schemas_answer_power_queries_identically() {
    let old = deployment(SchemaVersion::Previous, 4);
    let new = deployment(SchemaVersion::Optimized, 4);
    let req = BuilderRequest::new(old.now() - 1800, old.now() + 60, 300, Aggregation::Max).unwrap();
    let out_old = execute(
        old.db(),
        &build_plan(SchemaVersion::Previous, &old.node_ids(), &req),
        ExecMode::Sequential,
    )
    .unwrap();
    let out_new = execute(
        new.db(),
        &build_plan(SchemaVersion::Optimized, &new.node_ids(), &req),
        ExecMode::Sequential,
    )
    .unwrap();

    // Same seed → same sensors → the max node power per window must agree
    // across schemas (old stores it in PowerUsage, new in Power).
    for node in old.node_ids() {
        let series = |doc: &monster::json::Value| -> Vec<f64> {
            doc.get(&node.bmc_addr())
                .and_then(|n| n.get("power"))
                .and_then(|p| p.as_array())
                .map(|a| a.iter().filter_map(|p| p.get("value").and_then(|v| v.as_f64())).collect())
                .unwrap_or_default()
        };
        let a = series(&out_old.document);
        let b = series(&out_new.document);
        assert_eq!(a.len(), b.len(), "window counts differ for {node}");
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "{node}: {x} vs {y}");
        }
    }
    // And the optimized schema did it with less physical work.
    assert!(out_new.cost.bytes < out_old.cost.bytes);
    assert!(out_new.cost.queries < out_old.cost.queries);
}

#[test]
fn deterministic_deployments_are_bit_identical() {
    let a = deployment(SchemaVersion::Optimized, 3);
    let b = deployment(SchemaVersion::Optimized, 3);
    let sa = a.db().stats();
    let sb = b.db().stats();
    assert_eq!(sa, sb);
    let req = BuilderRequest::new(a.now() - 900, a.now() + 60, 300, Aggregation::Mean).unwrap();
    let qa = a.builder_query(&req, ExecMode::Sequential).unwrap();
    let qb = b.builder_query(&req, ExecMode::Sequential).unwrap();
    assert_eq!(qa.document, qb.document);
    assert_eq!(qa.query_time, qb.query_time);
}

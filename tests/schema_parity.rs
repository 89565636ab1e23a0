//! Schema parity: both storage schemas answer the same questions, every
//! section a schema declares finds what its writer stored, and a
//! deployment is a function of its seed.

use monster::analysis::served;
use monster::builder::{build_plan, exec::execute, BuilderRequest, ExecMode};
use monster::collector::{SchemaVersion, Source};
use monster::redfish::bmc::BmcConfig;
use monster::redfish::sensors::{CPU_TEMP_LABELS, FAN_LABELS};
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
            let power = served::section(doc, &node.bmc_addr(), "power").unwrap();
            power.iter().filter_map(|(_, _, v)| v.as_f64()).collect()
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

/// The contract between a schema's section table and its point writer:
/// after one failure-free sweep interval and one sensors interval, every
/// section of every node reads at least one series, and thermal reads one
/// per CPU, the inlet and each fan.
#[test]
fn every_section_finds_its_stored_series_on_every_node() {
    for schema in [SchemaVersion::Optimized, SchemaVersion::Previous] {
        let mut m = Monster::new(MonsterConfig {
            nodes: 4,
            schema,
            seed: 99,
            bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
            ..MonsterConfig::default()
        });
        let start = m.now();
        let sweep = m.run_interval_from(Source::Sweep).unwrap();
        assert_eq!(sweep.bmc_failures, 0);
        m.run_interval_from(Source::Sensors).unwrap();
        let req = BuilderRequest::new(start, m.now() + 60, 60, Aggregation::Max).unwrap();
        let (nodes, sections) = (m.node_ids(), schema.sections());
        let plan = build_plan(schema, &nodes, &req);
        assert_eq!(plan.len(), nodes.len() * sections.len());
        for (i, (planned, section)) in plan.iter().zip(sections.iter().cycle()).enumerate() {
            assert_eq!((planned.node, planned.section), (nodes[i / sections.len()], section.name));
            let (rs, _) = m.db().query(&planned.query).unwrap();
            let (node, name) = (planned.node, section.name);
            assert!(!rs.series.is_empty(), "{schema:?}: {node} {name} found no series");
            if name == "thermal" {
                assert_eq!(rs.series.len(), CPU_TEMP_LABELS.len() + 1 + FAN_LABELS.len());
            }
        }
    }
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

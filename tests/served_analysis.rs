//! The analyses' reader of a served document (`monster_analysis::served`)
//! against what it decodes: the fleet's sensors and job placement on a
//! fault-free run, the
//! same rows from the HTTP service's body (plain and compressed) as from
//! the in-process builder, and a dead BMC's node as its document shows it.

use monster::analysis::served::{self, ServedNode};
use monster::builder::service::{router, ServiceConfig};
use monster::builder::{BuilderRequest, ExecMode};
use monster::http::{Request, Status};
use monster::json::Value;
use monster::redfish::bmc::BmcConfig;
use monster::redfish::sensors::wire_reading;
use monster::tsdb::Aggregation;
use monster::util::EpochSecs;
use monster::{Monster, MonsterConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

fn fault_free() -> BmcConfig {
    BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() }
}

fn deployment() -> Monster {
    Monster::new(MonsterConfig {
        nodes: 8,
        bmc: fault_free(),
        horizon_secs: 3600,
        ..MonsterConfig::default()
    })
}

/// The builder's document over `[start, end)` at one-minute windows, each
/// window's last reading.
fn document(m: &Monster, start: EpochSecs, end: EpochSecs) -> Value {
    let req = BuilderRequest::new(start, end, 60, Aggregation::Last).unwrap();
    m.builder_query(&req, ExecMode::Sequential).unwrap().document
}

#[test]
fn a_fault_free_run_decodes_to_the_fleets_sensors() {
    let mut m = deployment();
    let start = m.now();
    m.run_intervals_bulk(40);
    let nodes = served::decode(&document(&m, start, m.now() + 60)).unwrap();
    assert_eq!(nodes.iter().map(|n| n.node).collect::<Vec<_>>(), m.node_ids());
    let mut busy = 0;
    for n in &nodes {
        assert_eq!(n.rows.len(), 40, "{}", n.node);
        let &(time, row) = n.rows.last().unwrap();
        assert_eq!(time, m.now());
        // Stored, and so served, at the precision the BMC reports.
        let s = m.cluster().sensors(n.node).unwrap();
        let [c1, c2] = s.cpu_temps.map(wire_reading);
        let [f1, f2, f3, f4] = s.fans.map(wire_reading);
        let (inlet, power) = (wire_reading(s.inlet), wire_reading(s.power));
        assert_eq!(row, [c1, c2, inlet, f1, f2, f3, f4, power, s.load], "{}", n.node);
        assert_eq!(n.jobs, m.qmaster().jobs_on(n.node), "{}", n.node);
        busy += usize::from(!n.jobs.is_empty());
    }
    assert!(busy > 1, "{busy} busy nodes: the CPU usage and jobs went unchecked");
}

#[test]
fn the_service_body_decodes_as_the_builders_document() {
    let mut m = deployment();
    let start = m.now();
    m.run_intervals_bulk(20);
    let end = m.now() + 60;
    let expected = served::decode(&document(&m, start, end)).unwrap();
    assert!(expected.iter().all(|n| n.rows.len() == 20));

    // The shipped admission settings: eight nodes price as cheap.
    let service = router(Arc::clone(m.db()), m.node_ids(), ServiceConfig::default());
    let url = format!(
        "/v1/metrics?start={}&end={}&interval=1m&aggregation=last",
        start.to_rfc3339(),
        end.to_rfc3339()
    );
    for compress in [false, true] {
        let url = if compress { format!("{url}&compress=true") } else { url.clone() };
        let resp = service.dispatch(&Request::get(&url));
        assert_eq!(resp.status, Status::OK, "compress={compress}");
        let text = if compress {
            monster::mzlib::decompress_within(&resp.body, 64 << 20).unwrap()
        } else {
            resp.body.to_vec()
        };
        let body = monster::json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(served::decode(&body).unwrap(), expected, "compress={compress}");
    }
}

#[test]
fn a_dead_bmcs_node_has_the_rows_its_document_shows() {
    let mut m = deployment();
    m.cluster().set_bmc_alive(m.node_ids()[3], false).unwrap();
    let start = m.now();
    m.run_intervals(5);
    let doc = document(&m, start, m.now() + 60);
    let nodes: Vec<ServedNode> = served::decode(&doc).unwrap();
    assert_eq!(nodes.len(), 8, "the dead BMC's node still serves its scheduler sections");
    let times = |n: &ServedNode, section: &str| -> BTreeSet<i64> {
        let readings = served::section(&doc, &n.node.bmc_addr(), section).unwrap();
        readings.iter().map(|&(_, t, _)| t).collect()
    };
    for n in &nodes {
        let rows: BTreeSet<i64> = n.rows.iter().map(|(t, _)| t.as_secs()).collect();
        assert_eq!(rows, times(n, "power"), "{}", n.node);
        assert_eq!(times(n, "cpu_usage").len(), 5, "{}", n.node);
        let expected_rows = if n.node == m.node_ids()[3] { 0 } else { 5 };
        assert_eq!(n.rows.len(), expected_rows, "{}", n.node);
    }
}

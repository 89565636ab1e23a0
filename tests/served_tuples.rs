//! What a served document says, whatever its shape: every catalog panel's
//! `/v1/metrics` body, plain and compressed, decodes to a sorted list of
//! `(node, section, label, time, value)` readings, and each panel's list
//! is pinned by a digest. A change to how the document is written may
//! change [`tuples`], the decoder half, and nothing else here: the
//! deployment, the panels and the digests stay as they are, so a shape that
//! lost, added or moved a reading fails.
//!
//! A `null` value is not a reading — a label with nothing at that time, or
//! a non-finite reading the wire cannot carry — so `null`s are dropped on
//! every side.

use monster::analysis::served;
use monster::builder::service::{router, ServiceConfig};
use monster::http::{Request, Status};
use monster::json::Value;
use monster::redfish::bmc::BmcConfig;
use monster::{Monster, MonsterConfig};
use monster_bench::storm::catalog;
use std::sync::Arc;

/// One reading: node, section, label (empty in a flat section), window
/// time, and the value as the document writes it.
type Tuple = (String, String, String, i64, String);

/// The decoder half: a served body's readings, sorted.
fn tuples(body: &Value) -> Vec<Tuple> {
    let readings = served::readings(body).expect("a document").into_iter();
    let mut out: Vec<Tuple> = readings
        .map(|(node, section, (label, time, value))| {
            let row = (node.to_string(), section.to_string(), label.unwrap_or("").to_string());
            (row.0, row.1, row.2, time, value.to_string_compact())
        })
        .collect();
    out.sort();
    out
}

/// FNV-1a over the tuples, one tab-separated line each.
fn digest(tuples: &[Tuple]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (node, section, label, time, value) in tuples {
        for byte in format!("{node}\t{section}\t{label}\t{time}\t{value}\n").bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Each catalog panel's digest, in catalog order: four nodes, three
/// bulk-loaded hours, the catalog's windows counted from the deployment's
/// first interval. A one-minute window holds one 60 s reading, so `max`
/// and `mean` at `1m` read alike (panels 0–1, 4–5, 8–9).
const PINNED: [u64; 16] = [
    0x5edc96a6ed4ade19,
    0x5edc96a6ed4ade19,
    0x6ddcd075404a35cd,
    0x889661fda48e1497,
    0xb50b249153e71363,
    0xb50b249153e71363,
    0x8d5c5db9e6632dff,
    0xc3ef3ac56d0db16c,
    0x0424e62c45ea6ce9,
    0x0424e62c45ea6ce9,
    0x5d09ff9c4a47b387,
    0x82e7c5c30810d494,
    0x95fffb40e6b37c52,
    0x31462f3e566f9380,
    0xfe0b7c66938aa271,
    0xcc500b8c5c58b770,
];

#[test]
fn every_catalog_panel_decodes_to_its_pinned_readings() {
    let mut m = Monster::new(MonsterConfig {
        nodes: 4,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        ..MonsterConfig::default()
    });
    let t0 = m.now();
    m.run_intervals_bulk(180);
    let now = m.now() - t0 + 60;
    let service = router(Arc::clone(m.db()), m.node_ids(), ServiceConfig::default());

    let mut got = Vec::new();
    for (at, panel) in catalog().iter().enumerate() {
        let (start, end) = panel.range(now);
        let url = format!(
            "/v1/metrics?start={}&end={}&interval={}&aggregation={}",
            (t0 + start).to_rfc3339(),
            (t0 + end).to_rfc3339(),
            panel.interval,
            panel.aggregation
        );
        let mut bodies = Vec::new();
        for url in [url.clone(), format!("{url}&compress=true")] {
            let reply = service.dispatch(&Request::get(&url));
            assert_eq!(reply.status, Status::OK, "{url}");
            let text = reply.decoded_body().expect("a body the service wrote");
            let body = monster::json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
            bodies.push(tuples(&body));
        }
        assert_eq!(bodies[0], bodies[1], "panel {at}: plain and compressed");
        assert!(bodies[0].len() >= 4 * 10, "panel {at}: {} readings", bodies[0].len());
        got.push(digest(&bodies[0]));
    }
    assert_eq!(got, PINNED, "digests, panel by panel: {got:#x?}");
}

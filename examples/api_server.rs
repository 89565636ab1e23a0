//! End-to-end deployment over a real socket: a deployment collects an hour
//! of history, serves its Metrics Builder API on localhost, and an HTTP
//! consumer queries it — the full Fig. 1 data flow.
//!
//! ```text
//! cargo run --release --example api_server
//! ```

use monster::analysis::served;
use monster::http::{Client, Request};
use monster::redfish::bmc::BmcConfig;
use monster::{Monster, MonsterConfig};

fn main() {
    let mut m = Monster::new(MonsterConfig {
        nodes: 12,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        ..MonsterConfig::default()
    });
    println!("== end-to-end HTTP deployment (12 nodes) ==\n");
    m.run_intervals_bulk(60); // one hour of history

    // The Metrics Builder API over TCP.
    let api = m.serve_api(0).expect("bind builder API");
    println!("Metrics Builder API listening on {}", api.base_url());

    let start = (m.now() - 3600).to_rfc3339();
    let end = m.now().to_rfc3339();
    let url =
        format!("/v1/metrics?start={start}&end={end}&interval=5m&aggregation=max&compress=true");
    let client = Client::new();
    let resp = client.send_ok(api.addr(), &Request::get(&url)).expect("metrics fetch");
    let compressed_len = resp.body.len();
    let doc = resp.json_body().expect("inflate + parse");
    let raw_len = doc.to_string_compact().len();
    println!(
        "GET /v1/metrics (1 h, 5 m, max, compressed) → {} compressed / {} raw ({:.1}%)",
        compressed_len,
        raw_len,
        compressed_len as f64 / raw_len as f64 * 100.0,
    );
    println!(
        "server-side query+processing: {} ms",
        resp.headers.get("X-Query-Processing-Ms").unwrap_or("?")
    );

    let nodes = served::decode(&doc).expect("a served document").len();
    let power_points = served::section(&doc, "10.101.1.1", "power").expect("served").len();
    println!("document: {nodes} nodes, {power_points} power windows for 10.101.1.1");
    assert_eq!(nodes, 12, "the served document names every node");
    assert!(power_points > 0, "10.101.1.1 has power windows");
    println!("\nend-to-end data flow verified: BMC → collector → TSDB → builder → consumer");
}

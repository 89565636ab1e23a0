//! Integration over real sockets: the Metrics Builder API, exercised
//! exactly as external consumers would.

use monster::http::{Client, Request, Status};
use monster::redfish::bmc::BmcConfig;
use monster::{Monster, MonsterConfig};

fn reliable_bmc() -> BmcConfig {
    BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() }
}

#[test]
fn builder_api_full_consumer_flow() {
    let mut m =
        Monster::new(MonsterConfig { nodes: 5, bmc: reliable_bmc(), ..MonsterConfig::default() });
    m.run_intervals_bulk(30);
    let server = m.serve_api(0).unwrap();
    let client = Client::new();

    // Discover nodes.
    let nodes =
        client.send_ok(server.addr(), &Request::get("/v1/nodes")).unwrap().json_body().unwrap();
    let node_list = nodes.get("nodes").unwrap().as_array().unwrap().len();
    assert_eq!(node_list, 5);

    // Pull metrics, compressed and not; both must decode identically.
    let start = (m.now() - 1500).to_rfc3339();
    let end = m.now().to_rfc3339();
    let base = format!("/v1/metrics?start={start}&end={end}&interval=5m&aggregation=max");
    let plain = client.send_ok(server.addr(), &Request::get(&base)).unwrap();
    let packed =
        client.send_ok(server.addr(), &Request::get(&format!("{base}&compress=true"))).unwrap();
    assert!(packed.body.len() < plain.body.len());
    assert_eq!(plain.json_body().unwrap(), packed.json_body().unwrap());

    // Timing headers present (the observability contract).
    assert!(plain.headers.get("X-Query-Processing-Ms").is_some());

    // Distributed-tracing contract: every /v1/metrics response carries a
    // well-formed W3C traceparent and the freshness-lag header.
    let tp = plain.headers.get("traceparent").expect("traceparent header");
    assert!(monster::obs::TraceContext::parse_traceparent(tp).is_some(), "bad traceparent: {tp}");
    let lag: f64 = plain
        .headers
        .get("X-Freshness-Lag-Seconds")
        .expect("freshness header")
        .parse()
        .expect("freshness header must be numeric");
    assert!(lag >= 0.0);
}

#[test]
fn builder_api_rejects_bad_requests_cleanly() {
    let mut m =
        Monster::new(MonsterConfig { nodes: 2, bmc: reliable_bmc(), ..MonsterConfig::default() });
    m.run_intervals_bulk(5);
    let server = m.serve_api(0).unwrap();
    let client = Client::new();
    let resp = client.send(server.addr(), &Request::get("/v1/metrics?start=bogus")).unwrap();
    assert_eq!(resp.status, Status::BAD_REQUEST);
    let resp = client.send(server.addr(), &Request::get("/v1/nope")).unwrap();
    assert_eq!(resp.status, Status::NOT_FOUND);
}

#[test]
fn repeated_requests_hit_the_response_cache() {
    let mut m =
        Monster::new(MonsterConfig { nodes: 3, bmc: reliable_bmc(), ..MonsterConfig::default() });
    m.run_intervals_bulk(10);
    let server = m.serve_api(0).unwrap();
    let client = Client::new();
    let url = format!(
        "/v1/metrics?start={}&end={}&interval=5m&aggregation=max",
        (m.now() - 600).to_rfc3339(),
        m.now().to_rfc3339()
    );
    let first = client.send_ok(server.addr(), &Request::get(&url)).unwrap();
    assert_eq!(first.headers.get("X-Cache"), Some("miss"));
    let second = client.send_ok(server.addr(), &Request::get(&url)).unwrap();
    assert_eq!(second.headers.get("X-Cache"), Some("hit"));
    assert_eq!(first.json_body().unwrap(), second.json_body().unwrap());
    // A new collection interval does NOT invalidate this entry: its
    // window closed at the ingest watermark, and in-order appends land
    // strictly above it (watermark validity), so the bytes cannot change.
    m.run_intervals_bulk(1);
    let third = client.send_ok(server.addr(), &Request::get(&url)).unwrap();
    assert_eq!(third.headers.get("X-Cache"), Some("hit"));
    assert_eq!(first.json_body().unwrap(), third.json_body().unwrap());

    // An OPEN window — end beyond the watermark — is invalidated by the
    // next interval's writes, which land inside it.
    let open_url = format!(
        "/v1/metrics?start={}&end={}&interval=5m&aggregation=max",
        (m.now() - 600).to_rfc3339(),
        (m.now() + 3600).to_rfc3339()
    );
    let a = client.send_ok(server.addr(), &Request::get(&open_url)).unwrap();
    assert_eq!(a.headers.get("X-Cache"), Some("miss"));
    let b = client.send_ok(server.addr(), &Request::get(&open_url)).unwrap();
    assert_eq!(b.headers.get("X-Cache"), Some("hit"));
    m.run_intervals_bulk(1);
    let c = client.send_ok(server.addr(), &Request::get(&open_url)).unwrap();
    assert_eq!(c.headers.get("X-Cache"), Some("miss"));
}

#[test]
fn concurrent_consumers_get_consistent_answers() {
    let mut m =
        Monster::new(MonsterConfig { nodes: 3, bmc: reliable_bmc(), ..MonsterConfig::default() });
    m.run_intervals_bulk(20);
    let server = m.serve_api(0).unwrap();
    let addr = server.addr();
    let start = (m.now() - 1200).to_rfc3339();
    let end = m.now().to_rfc3339();
    let url = format!("/v1/metrics?start={start}&end={end}&interval=5m&aggregation=mean");

    let answers: Vec<_> = std::thread::scope(|s| {
        (0..6)
            .map(|_| {
                let url = url.clone();
                s.spawn(move || {
                    Client::new().send_ok(addr, &Request::get(&url)).unwrap().json_body().unwrap()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for a in &answers[1..] {
        assert_eq!(a, &answers[0]);
    }
}

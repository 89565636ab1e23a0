//! Property test: `?explain=true` never changes the bytes a caller gets.
//!
//! The explain envelope carries the response payload base64-coded next to
//! the flight-recorder record. For any interleaving of writes (appends
//! and backfills) and queries, the decoded payload must be **byte
//! identical** to the same request without `explain`, and the status must
//! match — whatever the disposition (hit, miss, negative 400, rejected
//! 429, or a coalesced follower). The mechanism under test is cache-key
//! normalization: `explain` is stripped before the cache/flight lookup,
//! so both forms share one entry and the payload cannot diverge even in
//! principle — this test would catch a regression where the explain form
//! re-executes (a racing write could then produce different bytes) or
//! pollutes the cache with envelopes.

use monster_builder::qlog::base64_decode;
use monster_builder::service::{router, ServiceConfig};
use monster_builder::AdmissionConfig;
use monster_http::{Request, Response, Router};
use monster_tsdb::{DataPoint, Db, DbConfig};
use monster_util::{EpochSecs, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

const HORIZON: i64 = 7_200; // two hours of writable timestamps

/// `1970-01-01T..Z` for a small epoch-seconds value (< 86 400).
fn rfc3339(ts: i64) -> String {
    format!("1970-01-01T{:02}:{:02}:{:02}Z", ts / 3600, (ts % 3600) / 60, ts % 60)
}

#[derive(Debug, Clone)]
enum Op {
    Write(Vec<PointSpec>),
    Query(QuerySpec),
}

#[derive(Debug, Clone)]
struct PointSpec {
    measurement: &'static str,
    node: usize,
    ts: i64,
    value: f64,
}

#[derive(Debug, Clone)]
struct QuerySpec {
    start: i64,
    len: i64,
    interval: &'static str,
    aggregation: &'static str, // "median" is invalid → deterministic 400
    compress: bool,
    explain_first: bool,
}

impl QuerySpec {
    fn url(&self) -> String {
        let mut url = format!(
            "/v1/metrics?start={}&end={}&interval={}&aggregation={}",
            rfc3339(self.start),
            rfc3339(self.start + self.len),
            self.interval,
            self.aggregation
        );
        if self.compress {
            url.push_str("&compress=true");
        }
        url
    }
}

fn arb_point() -> impl Strategy<Value = PointSpec> {
    (
        prop_oneof![Just("Power"), Just("Thermal"), Just("UGE")],
        0..3usize,
        0..HORIZON,
        -1000.0..1000.0f64,
    )
        .prop_map(|(measurement, node, ts, value)| PointSpec { measurement, node, ts, value })
}

fn arb_query() -> impl Strategy<Value = QuerySpec> {
    (
        0..HORIZON,
        60..HORIZON,
        prop_oneof![Just("1m"), Just("5m"), Just("10m")],
        prop_oneof![Just("max"), Just("max"), Just("mean"), Just("median")],
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(start, len, interval, aggregation, compress, explain_first)| QuerySpec {
            start,
            len,
            interval,
            aggregation,
            compress,
            explain_first,
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(arb_point(), 1..12).prop_map(Op::Write),
        arb_query().prop_map(Op::Query),
    ]
}

fn build(spec: &PointSpec, nodes: &[NodeId]) -> DataPoint {
    let node = nodes[spec.node];
    let p =
        DataPoint::new(spec.measurement, EpochSecs::new(spec.ts)).tag("NodeId", node.bmc_addr());
    match spec.measurement {
        "Power" => p.tag("Label", "NodePower").field_f64("Reading", spec.value),
        "Thermal" => p.tag("Label", "CPU1 Temp").field_f64("Reading", spec.value),
        _ => p.field_f64("CPUUsage", spec.value).field_f64("MemUsed", spec.value.abs()),
    }
}

/// Decode an explain envelope: (payload bytes, disposition, encoding).
fn open_envelope(resp: &Response) -> (Vec<u8>, String, String) {
    let doc = resp.json_body().expect("explain response is JSON");
    let payload = base64_decode(doc.get("payload_base64").unwrap().as_str().unwrap())
        .expect("payload_base64 decodes");
    let disposition =
        doc.get("explain").unwrap().get("disposition").unwrap().as_str().unwrap().to_string();
    let encoding = doc.get("payload_encoding").unwrap().as_str().unwrap().to_string();
    (payload, disposition, encoding)
}

/// Dispatch `url` explain-on and explain-off (in the given order) and
/// assert byte identity. Returns the explain disposition.
fn assert_equivalent(
    router: &Router,
    url: &str,
    explain_first: bool,
) -> Result<String, prop::test_runner::TestCaseError> {
    let explain_url = format!("{url}&explain=true");
    let (plain, wrapped) = if explain_first {
        let w = router.dispatch(&Request::get(&explain_url));
        (router.dispatch(&Request::get(url)), w)
    } else {
        let p = router.dispatch(&Request::get(url));
        (p, router.dispatch(&Request::get(&explain_url)))
    };
    prop_assert!(wrapped.status == plain.status, "status under explain, url {}", url);
    let (payload, disposition, encoding) = open_envelope(&wrapped);
    prop_assert!(payload == plain.body.to_vec(), "payload bytes, url {}", url);
    let plain_encoding = plain.headers.get("Content-Encoding").unwrap_or("identity");
    prop_assert!(encoding == plain_encoding, "payload encoding, url {}", url);
    Ok(disposition)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn explain_payload_is_byte_identical_across_interleavings(
        ops in prop::collection::vec(arb_op(), 1..20),
    ) {
        let db = Arc::new(Db::new(DbConfig::default()));
        let nodes = NodeId::enumerate(3, 4);
        let service = router(
            Arc::clone(&db),
            nodes.to_vec(),
            ServiceConfig {
                admission: AdmissionConfig { enabled: false, ..AdmissionConfig::default() },
                ..ServiceConfig::default()
            },
        );
        for op in &ops {
            match op {
                Op::Write(points) => {
                    let batch: Vec<DataPoint> =
                        points.iter().map(|s| build(s, &nodes)).collect();
                    db.write_batch(&batch).unwrap();
                }
                Op::Query(spec) => {
                    let url = spec.url();
                    let disposition = assert_equivalent(&service, &url, spec.explain_first)?;
                    if spec.aggregation == "median" {
                        prop_assert!(disposition == "negative", "url {}", &url);
                    }
                    // Run the pair again: now both sides are warm and the
                    // explain form must report (and share) the hit.
                    let disposition = assert_equivalent(&service, &url, spec.explain_first)?;
                    let expected = if spec.aggregation == "median" { "negative" } else { "hit" };
                    prop_assert!(disposition == expected, "url {} expected {} got {}", &url, expected, disposition);
                }
            }
        }
    }
}

fn seeded_service(admission: AdmissionConfig) -> Router {
    let db = Arc::new(Db::new(DbConfig::default()));
    let nodes = NodeId::enumerate(2, 4);
    let mut batch = Vec::new();
    for i in 0..60i64 {
        for &n in &nodes {
            batch.push(
                DataPoint::new("Power", EpochSecs::new(i * 60))
                    .tag("NodeId", n.bmc_addr())
                    .tag("Label", "NodePower")
                    .field_f64("Reading", 250.0 + i as f64),
            );
        }
    }
    db.write_batch(&batch).unwrap();
    router(db, nodes, ServiceConfig { admission, ..ServiceConfig::default() })
}

const URL: &str = "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z&interval=5m";

/// The 429 disposition: the envelope preserves status, `Retry-After`,
/// and the rejection body bytes.
#[test]
fn explain_is_byte_identical_for_rejected_requests() {
    let service = seeded_service(AdmissionConfig {
        enabled: true,
        cheap_secs: 0.0,
        reject_secs: 0.0,
        ..AdmissionConfig::default()
    });
    let plain = service.dispatch(&Request::get(URL));
    assert_eq!(plain.status.0, 429);
    let wrapped = service.dispatch(&Request::get(&format!("{URL}&explain=true")));
    assert_eq!(wrapped.status.0, 429);
    assert_eq!(
        wrapped.headers.get("Retry-After"),
        plain.headers.get("Retry-After"),
        "Retry-After must survive the envelope"
    );
    let (payload, disposition, _) = open_envelope(&wrapped);
    assert_eq!(payload, plain.body.to_vec());
    assert_eq!(disposition, "rejected");
}

/// The coalesced disposition: under a concurrent burst mixing explain-on
/// and explain-off requests, every payload is byte-identical regardless
/// of which thread led, followed, or hit.
#[test]
fn explain_is_byte_identical_under_coalescing() {
    let service =
        Arc::new(seeded_service(AdmissionConfig { enabled: false, ..AdmissionConfig::default() }));
    let mut handles = Vec::new();
    for i in 0..8 {
        let service = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            let explain = i % 2 == 0;
            let url = if explain { format!("{URL}&explain=true") } else { URL.to_string() };
            let resp = service.dispatch(&Request::get(&url));
            assert_eq!(resp.status.0, 200);
            if explain {
                let (payload, disposition, _) = open_envelope(&resp);
                assert!(
                    ["hit", "miss", "coalesced"].contains(&disposition.as_str()),
                    "unexpected disposition {disposition}"
                );
                payload
            } else {
                resp.body.to_vec()
            }
        }));
    }
    let bodies: Vec<Vec<u8>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for b in &bodies[1..] {
        assert_eq!(b, &bodies[0]);
    }
}

//! Integration: one distributed trace stitches a whole pipeline pass —
//! the collection interval's root span, the Redfish sweep, per-BMC
//! retry/skip children, and the TSDB write batches — and W3C
//! `traceparent` propagation round-trips through the Metrics Builder
//! HTTP API (well-formed headers join the caller's trace; malformed ones
//! start a fresh root instead of erroring).

use monster::collector::Source;
use monster::http::{Client, Request, Status};
use monster::obs;
use monster::redfish::bmc::BmcConfig;
use monster::redfish::resilience::ResilienceConfig;
use monster::redfish::telemetry::{TelemetryConfig, TelemetryService};
use monster::{Monster, MonsterConfig};

fn resilient_deployment(nodes: usize, seed: u64) -> Monster {
    // Room for every span these tests generate: the global ring is shared
    // across the whole test binary.
    obs::global().set_span_capacity(20_000);
    Monster::new(MonsterConfig {
        nodes,
        seed,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        resilience: Some(ResilienceConfig::default()),
        workload: None,
        horizon_secs: 0,
        ..MonsterConfig::default()
    })
}

#[test]
fn one_trace_links_interval_sweep_skips_and_storage_writes() {
    let mut m = resilient_deployment(6, 31);
    let victim = m.node_ids()[0];

    // Interval 1: healthy, caches last-known-good. Then the BMC dies:
    // interval 2 burns the retry budget and trips the breaker; interval 3
    // skips the victim wholesale (breaker open).
    m.run_interval().unwrap();
    m.cluster().set_bmc_alive(victim, false).unwrap();
    let s2 = m.run_interval().unwrap();
    let s3 = m.run_interval().unwrap();
    assert!(!s3.skipped_nodes.is_empty(), "breaker-open interval skipped nobody");

    let spans = obs::global().recent_spans();

    // Every interval runs under its own distinct trace.
    assert_ne!(s2.trace.trace, s3.trace.trace);

    // Interval 3's lineage: collector.interval (root) -> redfish.sweep ->
    // redfish.skip children carrying the node and SkipReason attributes.
    let in_trace: Vec<_> = spans.iter().filter(|s| s.trace == s3.trace.trace).collect();
    let root = in_trace
        .iter()
        .find(|s| s.name == "collector.interval" && s.parent.is_none())
        .expect("interval root span");
    let sweep = in_trace.iter().find(|s| s.name == "redfish.sweep").expect("sweep span");
    assert_eq!(sweep.parent, Some(root.span));
    for (node, reason) in &s3.skipped_nodes {
        let skip = in_trace
            .iter()
            .find(|s| s.name == "redfish.skip" && s.attr("node") == Some(&node.to_string()))
            .unwrap_or_else(|| panic!("no skip span for {node}"));
        assert_eq!(skip.parent, Some(sweep.span), "skip not a child of the sweep");
        assert_eq!(skip.attr("SkipReason"), Some(format!("{reason:?}").as_str()));
    }

    // The storage writes happened under the same trace, as children of
    // the interval root.
    let write = in_trace.iter().find(|s| s.name == "tsdb.write_batch").expect("write span");
    assert_eq!(write.parent, Some(root.span));

    // Interval 2 recorded the victim's exhausted request under *its*
    // trace, child of that interval's sweep.
    let t2: Vec<_> = spans.iter().filter(|s| s.trace == s2.trace.trace).collect();
    let sweep2 = t2.iter().find(|s| s.name == "redfish.sweep").expect("interval-2 sweep");
    let req = t2
        .iter()
        .find(|s| s.name == "redfish.request" && s.attr("node") == Some(&victim.to_string()))
        .expect("failed-request span");
    assert_eq!(req.parent, Some(sweep2.span));
    assert!(req.attr("attempts").is_some());
}

/// Every source's interval is one trace: a `collector.interval` root, and
/// the store's write batches of that interval under it, holding all of its
/// points.
#[test]
fn every_source_writes_under_its_own_interval_root() {
    let mut m = resilient_deployment(3, 37);
    let mut service = TelemetryService::new(TelemetryConfig::default());
    let summaries = [
        m.run_interval_from(Source::Sweep).unwrap(),
        m.run_interval_from(Source::Sensors).unwrap(),
        m.run_interval_from(Source::Telemetry(&mut service)).unwrap(),
    ];
    let spans = obs::global().recent_spans();
    for (source, s) in ["sweep", "sensors", "telemetry"].iter().zip(&summaries) {
        let in_trace: Vec<_> = spans.iter().filter(|r| r.trace == s.trace.trace).collect();
        let root = in_trace
            .iter()
            .find(|r| r.name == "collector.interval")
            .unwrap_or_else(|| panic!("{source}: no interval root"));
        assert_eq!(root.parent, None, "{source}: the interval span is not a root");
        assert_eq!(root.span, s.trace.span, "{source}: the summary names another span");
        let writes: Vec<_> = in_trace.iter().filter(|r| r.name == "tsdb.write_batch").collect();
        assert!(!writes.is_empty(), "{source}: no write batch in the interval's trace");
        let mut written = 0;
        for write in writes {
            assert_eq!(write.parent, Some(root.span), "{source}: a write outside the root");
            written += write.attr("points").unwrap().parse::<usize>().unwrap();
        }
        assert_eq!(written, s.points, "{source}: the traced writes miss points");
    }
}

#[test]
fn traceparent_round_trips_through_the_http_api() {
    let mut m = resilient_deployment(4, 7);
    m.run_intervals(3);
    let server = m.serve_api(0).unwrap();
    let client = Client::new();
    let url = format!(
        "/v1/metrics?start={}&end={}&interval=5m&aggregation=max",
        (m.now() - 180).to_rfc3339(),
        m.now().to_rfc3339()
    );

    let inbound = obs::TraceContext::root();
    let resp = client
        .send_ok(
            server.addr(),
            &Request::get(&url).with_header("traceparent", inbound.to_traceparent()),
        )
        .unwrap();

    // The response echoes our trace with the server's own span id, plus
    // the freshness header.
    let echoed =
        obs::TraceContext::parse_traceparent(resp.headers.get("traceparent").expect("traceparent"))
            .expect("well-formed traceparent");
    assert_eq!(echoed.trace, inbound.trace);
    assert_ne!(echoed.span, inbound.span);
    let lag: f64 =
        resp.headers.get("X-Freshness-Lag-Seconds").expect("freshness header").parse().unwrap();
    assert!(lag >= 0.0);

    // Server-side spans joined the caller's trace: the API request span
    // hangs off our context, execution and the storage scans below it.
    let spans = obs::global().recent_spans();
    let ours: Vec<_> = spans.iter().filter(|s| s.trace == inbound.trace).collect();
    let api = ours.iter().find(|s| s.name == "builder.api_request").expect("api span");
    assert_eq!(api.parent, Some(inbound.span));
    let exec = ours.iter().find(|s| s.name == "builder.execute").expect("execute span");
    assert_eq!(exec.parent, Some(api.span));
    let scan = ours.iter().find(|s| s.name == "tsdb.query_scan").expect("query-scan span");
    assert_eq!(scan.parent, Some(exec.span));
}

#[test]
fn malformed_traceparent_starts_a_new_root_not_a_500() {
    let mut m = resilient_deployment(3, 11);
    m.run_intervals(2);
    let server = m.serve_api(0).unwrap();
    let client = Client::new();
    let url = format!(
        "/v1/metrics?start={}&end={}&interval=5m&aggregation=max",
        (m.now() - 120).to_rfc3339(),
        m.now().to_rfc3339()
    );

    let mut minted = Vec::new();
    for bad in [
        "garbage",
        "00-00000000000000000000000000000000-0000000000000000-01",
        "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
        "00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
    ] {
        let resp = client
            .send(server.addr(), &Request::get(&url).with_header("traceparent", bad))
            .unwrap();
        assert_eq!(resp.status, Status::OK, "malformed traceparent {bad:?} broke the request");
        let fresh = obs::TraceContext::parse_traceparent(
            resp.headers.get("traceparent").expect("traceparent"),
        )
        .expect("response header must still be well-formed");
        minted.push(fresh.trace);
    }
    // Each rejected header minted a distinct fresh root trace.
    minted.sort_unstable_by_key(|t| t.0);
    let before = minted.len();
    minted.dedup();
    assert_eq!(minted.len(), before, "fresh roots were not distinct");
}

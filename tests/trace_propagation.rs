//! Integration: one distributed trace stitches a whole pipeline pass —
//! the collection interval's root span, the Redfish sweep, per-BMC
//! retry/skip children, and the TSDB write batches, rendered from the
//! interval's record as `/debug/trace` renders it — and W3C `traceparent`
//! propagation round-trips through the Metrics Builder HTTP API
//! (well-formed headers join the caller's trace; malformed ones start a
//! fresh root instead of erroring).

use monster::collector::Source;
use monster::http::{Client, Request, Status};
use monster::json::Value;
use monster::obs;
use monster::redfish::bmc::BmcConfig;
use monster::redfish::resilience::ResilienceConfig;
use monster::redfish::telemetry::TelemetryService;
use monster::{Monster, MonsterConfig};

/// A deployment whose registry, interval ring included, is its own.
fn resilient_deployment(nodes: usize, seed: u64) -> Monster {
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

/// The chrome-trace events `/debug/trace` renders from `m`'s interval
/// records of `trace`.
fn interval_events(m: &Monster, trace: obs::TraceId) -> Vec<Value> {
    let mut events = Vec::new();
    for record in m.registry().intervals().live(|r| r.trace == trace) {
        record.trace_events(&mut events);
    }
    events
}

/// An event's name, and one of its `args` as a string.
fn name(e: &Value) -> &str {
    e.get("name").and_then(Value::as_str).unwrap()
}
fn arg(e: &Value, key: &str) -> Option<String> {
    let v = e.pointer(&format!("/args/{key}"))?;
    v.as_str().map(str::to_string).or_else(|| v.as_i64().map(|i| i.to_string()))
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

    // Every interval runs under its own distinct trace.
    assert_ne!(s2.trace.trace, s3.trace.trace);

    // Interval 3's lineage: collector.interval (root) -> redfish.sweep ->
    // redfish.skip children carrying the node and SkipReason attributes.
    let in_trace = interval_events(&m, s3.trace.trace);
    let find = |name_is: &str| in_trace.iter().find(|e| name(e) == name_is);
    let root = in_trace
        .iter()
        .find(|e| name(e) == "collector.interval" && arg(e, "parent_span_id").is_none())
        .expect("interval root span");
    let sweep = find("redfish.sweep").expect("sweep span");
    assert_eq!(arg(sweep, "parent_span_id"), arg(root, "span_id"));
    for (node, reason) in &s3.skipped_nodes {
        let skip = in_trace
            .iter()
            .find(|e| name(e) == "redfish.skip" && arg(e, "node") == Some(node.to_string()))
            .unwrap_or_else(|| panic!("no skip span for {node}"));
        assert_eq!(
            arg(skip, "parent_span_id"),
            arg(sweep, "span_id"),
            "skip not a child of the sweep"
        );
        assert_eq!(arg(skip, "SkipReason"), Some(format!("{reason:?}")));
    }

    // The storage writes happened under the same trace, as children of
    // the interval root.
    let write = find("tsdb.write_batch").expect("write span");
    assert_eq!(arg(write, "parent_span_id"), arg(root, "span_id"));

    // Interval 2 recorded the victim's exhausted request under *its*
    // trace, child of that interval's sweep.
    let t2 = interval_events(&m, s2.trace.trace);
    let sweep2 = t2.iter().find(|e| name(e) == "redfish.sweep").expect("interval-2 sweep");
    let req = t2
        .iter()
        .find(|e| name(e) == "redfish.request" && arg(e, "node") == Some(victim.to_string()))
        .expect("failed-request span");
    assert_eq!(arg(req, "parent_span_id"), arg(sweep2, "span_id"));
    assert!(arg(req, "attempts").is_some());
}

/// Every source's interval is one trace: a `collector.interval` root, and
/// the store's write batches of that interval under it, holding all of its
/// points.
#[test]
fn every_source_writes_under_its_own_interval_root() {
    let mut m = resilient_deployment(3, 37);
    let mut service = TelemetryService::new();
    let summaries = [
        m.run_interval_from(Source::Sweep).unwrap(),
        m.run_interval_from(Source::Sensors).unwrap(),
        m.run_interval_from(Source::Telemetry(&mut service)).unwrap(),
    ];
    for (source, s) in ["sweep", "sensors", "telemetry"].iter().zip(&summaries) {
        let in_trace = interval_events(&m, s.trace.trace);
        let root = in_trace
            .iter()
            .find(|e| name(e) == "collector.interval")
            .unwrap_or_else(|| panic!("{source}: no interval root"));
        assert_eq!(arg(root, "parent_span_id"), None, "{source}: the interval span is not a root");
        assert_eq!(
            arg(root, "span_id"),
            Some(s.trace.span.to_string()),
            "{source}: the summary names another span"
        );
        let writes: Vec<_> = in_trace.iter().filter(|e| name(e) == "tsdb.write_batch").collect();
        assert!(!writes.is_empty(), "{source}: no write batch in the interval's trace");
        let mut written = 0;
        for write in writes {
            assert_eq!(
                arg(write, "parent_span_id"),
                arg(root, "span_id"),
                "{source}: a write outside the root"
            );
            written += arg(write, "points").unwrap().parse::<usize>().unwrap();
        }
        assert_eq!(written, s.points, "{source}: the traced writes miss points");
    }
}

/// Every source's interval leaves one record whose wall stages (advance,
/// collect, store, alerts, tiering) sum to its total, as every request
/// record's do.
#[test]
fn every_interval_records_stages_sum_to_its_total() {
    let mut m = resilient_deployment(3, 41);
    let mut service = TelemetryService::new();
    let summaries = [
        m.run_interval_from(Source::Sweep).unwrap(),
        m.run_interval_from(Source::Sensors).unwrap(),
        m.run_interval_from(Source::Telemetry(&mut service)).unwrap(),
    ];
    assert_eq!(m.registry().intervals().recorded(), 3, "one record an interval");
    for (source, s) in ["sweep", "sensors", "telemetry"].iter().zip(&summaries) {
        let records: Vec<_> = m.registry().intervals().live(|r| r.trace == s.trace.trace).collect();
        let [record] = records.as_slice() else { panic!("{source}: {} records", records.len()) };
        assert_eq!(record.source, *source);
        assert_eq!(record.span, s.trace.span, "{source}: the record names another span");
        assert_eq!(record.points, s.points as u64, "{source}: points");
        assert!(record.total_ns > 0, "{source}: an interval takes wall time");
        assert_eq!(
            record.stages_ns.iter().sum::<u64>(),
            record.total_ns,
            "{source}: stages {:?} do not sum to the total",
            record.stages_ns
        );
        assert_eq!(record.sweep_span.is_some(), *source == "sweep", "{source}: sweep span");
        assert_eq!(record.makespan_ns, s.collection_time.as_nanos(), "{source}: makespan");
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

    // A caller's context, from outside this deployment.
    let inbound = obs::TraceContext::parse_traceparent(
        "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
    )
    .unwrap();
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
    let trace = client
        .send_ok(server.addr(), &Request::get(&format!("/debug/trace?trace_id={}", inbound.trace)))
        .unwrap()
        .json_body()
        .unwrap();
    let ours = trace.get("traceEvents").and_then(Value::as_array).unwrap();
    let find = |name_is: &str| ours.iter().find(|e| name(e) == name_is);
    let api = find("builder.api_request").expect("api span");
    assert_eq!(arg(api, "parent_span_id"), Some(inbound.span.to_string()));
    let exec = find("builder.execute").expect("execute span");
    assert_eq!(arg(exec, "parent_span_id"), arg(api, "span_id"));
    let scan = find("tsdb.query_scan").expect("query-scan span");
    assert_eq!(arg(scan, "parent_span_id"), arg(exec, "span_id"));
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

//! Integration: telemetry-rate collection (the §VI-era upgrade) stored at its
//! sub-interval cadence, plus the self-monitoring layer observed end-to-end
//! (in-process counters and a live `/metrics` scrape over a real socket).
//! Each deployment reports to a registry of its own, so the counts below
//! are exact whatever else the test harness runs beside them.

use monster::collector::Source;
use monster::http::{Client, Request};
use monster::redfish::bmc::BmcConfig;
use monster::redfish::telemetry::TelemetryService;
use monster::util::JobId;
use monster::{obs, Monster, MonsterConfig};
use std::collections::BTreeSet;

fn deployment(nodes: usize) -> Monster {
    Monster::new(MonsterConfig {
        nodes,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        ..MonsterConfig::default()
    })
}

/// The jobs on the nodes' job lists, as the collector's pull sees them.
fn on_nodes(m: &Monster) -> BTreeSet<JobId> {
    m.qmaster().all_load_reports().iter().flat_map(|r| r.job_list.iter().copied()).collect()
}

#[test]
fn telemetry_collection_yields_sub_interval_samples() {
    let mut m = deployment(4);
    let mut service = TelemetryService::new();
    let written: usize =
        (0..10).map(|_| m.run_interval_from(Source::Telemetry(&mut service)).unwrap().points).sum();
    assert!(written > 0);

    // Ten 60 s intervals at a 10 s cadence: 60 thermal samples per node.
    let (rs, _) = m
        .db()
        .query_str(
            "SELECT count(Reading) FROM Power WHERE NodeId='10.101.1.1' AND \
             Label='NodePower' AND time >= 0 AND time < 4000000000",
        )
        .unwrap();
    let count = rs.series[0].points[0].1.as_f64().unwrap();
    assert_eq!(count, 60.0, "expected 6 samples per interval x 10 intervals");
}

/// One interval from each source: only the sweep touches the Redfish
/// series, and every source counts its interval, its points and its
/// finish estimates in the collector's.
#[test]
fn interval_metrics_match_sweep_outcome() {
    let mut m = deployment(4);
    let mut service = TelemetryService::new();
    let obs = m.registry();
    let sweeps = obs.counter("monster_redfish_sweeps_total");
    let requests = obs.counter("monster_redfish_requests_total");
    let failures = obs.counter("monster_redfish_failures_total");
    let intervals = obs.counter("monster_collector_intervals_total");
    let points = obs.counter("monster_collector_points_total");
    let estimates = obs.counter("monster_collector_finish_estimates_total");
    let batches = obs.counter("monster_tsdb_write_batches_total");
    let written = obs.counter("monster_tsdb_points_written_total");
    let request_histo = obs.histo("monster_redfish_request_seconds");

    let summary = m.run_interval().unwrap();
    // Exactly one sweep of nodes x 4 categories, every request timed.
    assert_eq!(sweeps.get(), 1);
    assert_eq!(requests.get(), 16);
    assert_eq!(failures.get(), summary.bmc_failures as u64);
    assert_eq!(intervals.get(), 1);
    assert_eq!(points.get(), summary.points as u64);
    assert_eq!(request_histo.count(), 16);

    // The sensors and the telemetry reports: no sweep, no request, and
    // the same collector series. A finish is estimated for each job that
    // left the nodes' job lists since the interval before.
    let mut lists = vec![on_nodes(&m)];
    let sensors = m.run_interval_from(Source::Sensors).unwrap();
    lists.push(on_nodes(&m));
    let telemetry = m.run_interval_from(Source::Telemetry(&mut service)).unwrap();
    lists.push(on_nodes(&m));
    assert_eq!(sweeps.get(), 1);
    assert_eq!(requests.get(), 16);
    assert_eq!(request_histo.count(), 16);
    assert_eq!(intervals.get(), 3);
    let all_points = summary.points + sensors.points + telemetry.points;
    assert_eq!(points.get(), all_points as u64);
    let left: usize = lists.windows(2).map(|w| w[0].difference(&w[1]).count()).sum();
    assert_eq!(estimates.get(), left as u64);

    // One write batch an interval; the store counts field values, not
    // points, so its count is a lower bound.
    assert_eq!(batches.get(), 3);
    assert!(written.get() >= all_points as u64);
}

#[test]
fn metrics_endpoint_serves_live_pipeline_counters() {
    let mut m = deployment(3);
    m.run_interval().unwrap();

    let server = m.serve_api(0).unwrap();
    let client = Client::new();

    // Drive the query path so `monster_tsdb_queries_total` is non-zero.
    let url = format!(
        "/v1/metrics?start={}&end={}&interval=1m&aggregation=max",
        (m.now() - 300).to_rfc3339(),
        m.now().to_rfc3339()
    );
    client.send_ok(server.addr(), &Request::get(&url)).unwrap();

    // Scrape the exposition exactly as a Prometheus agent would.
    let resp = client.send_ok(server.addr(), &Request::get("/metrics")).unwrap();
    let text = String::from_utf8(resp.body.to_vec()).unwrap();
    let scrape = |name: &str| {
        obs::sample(&text, name).unwrap_or_else(|| panic!("{name} missing from exposition"))
    };
    // One interval over three nodes and one executed request, exactly.
    assert_eq!(scrape("monster_redfish_sweeps_total"), 1.0);
    assert_eq!(scrape("monster_redfish_requests_total"), 12.0);
    assert_eq!(scrape("monster_collector_intervals_total"), 1.0);
    assert_eq!(scrape("monster_tsdb_write_batches_total"), 1.0);
    assert!(scrape("monster_tsdb_points_written_total") >= 1.0);
    assert!(scrape("monster_tsdb_queries_total") >= 1.0);
    assert_eq!(scrape("monster_builder_requests_total"), 1.0);
    assert_eq!(scrape("monster_redfish_request_seconds_count"), 12.0);
    // Every stored value is on one time shard's gauge, every shard-lock
    // acquisition is timed, and the sweep's makespan bucket links to the
    // sweep's trace.
    let in_shards: f64 = text
        .lines()
        .filter(|l| l.starts_with("monster_tsdb_shard_points{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum();
    assert_eq!(in_shards, scrape("monster_tsdb_points_written_total"));
    assert!(scrape("monster_tsdb_lock_wait_seconds_count") >= 1.0);
    assert!(
        text.lines().any(|l| l.starts_with("monster_sweep_duration_seconds_bucket")
            && l.contains(" # {trace_id=\"")),
        "no exemplar on the sweep histogram"
    );

    // The trace endpoint replays the sweep's vtime-stamped span.
    let trace =
        client.send_ok(server.addr(), &Request::get("/debug/trace")).unwrap().json_body().unwrap();
    let events = trace.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents");
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(|n| n.as_str()).is_some_and(|n| n == "redfish.sweep")
        }),
        "no redfish.sweep span in /debug/trace"
    );
}

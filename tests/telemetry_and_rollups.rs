//! Integration: the two §VI-era upgrades working together — telemetry-rate
//! collection feeding maintained roll-ups — plus the self-monitoring layer
//! observed end-to-end (in-process counter deltas and a live `/metrics`
//! scrape over a real socket).

use monster::builder::{BuilderRequest, ExecMode};
use monster::collector::Source;
use monster::http::{Client, Request};
use monster::redfish::bmc::BmcConfig;
use monster::redfish::telemetry::{TelemetryConfig, TelemetryService};
use monster::tsdb::Aggregation;
use monster::util::JobId;
use monster::{obs, Monster, MonsterConfig};
use std::collections::BTreeSet;
use std::sync::Mutex;

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

/// The global registry is process-wide and the harness runs tests
/// concurrently, so tests asserting *exact* counter deltas serialise their
/// snapshot → interval → snapshot windows behind this lock. Every source's
/// interval counts itself in the `monster_collector_*` series, so every
/// test here that runs intervals holds it while they run.
static INTERVAL_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn telemetry_collection_yields_sub_interval_samples() {
    let mut m = deployment(4);
    let mut service = TelemetryService::new(TelemetryConfig::default());
    let written: usize = {
        let _guard = INTERVAL_LOCK.lock().unwrap();
        (0..10).map(|_| m.run_interval_from(Source::Telemetry(&mut service)).unwrap().points).sum()
    };
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

#[test]
fn telemetry_plus_rollups_compose() {
    let mut m = deployment(3);
    m.enable_rollups(600).unwrap(); // 10-minute roll-ups
    let mut service = TelemetryService::new(TelemetryConfig::default());
    {
        // 30 minutes.
        let _guard = INTERVAL_LOCK.lock().unwrap();
        for _ in 0..30 {
            m.run_interval_from(Source::Telemetry(&mut service)).unwrap();
        }
    }

    // A 10-minute-window max query routes to the rollup...
    let req = BuilderRequest::new(m.now() - 1800, m.now(), 600, Aggregation::Max).unwrap();
    let out = m.builder_query(&req, ExecMode::Sequential).unwrap();
    // ...and the answers match a raw query bypassing the rollup.
    let (raw, _) = m
        .db()
        .query_str(&format!(
            "SELECT max(Reading) FROM Power WHERE NodeId='10.101.1.1' AND \
             Label='NodePower' AND time >= {} AND time < {} GROUP BY time(10m)",
            (m.now() - 1800).as_secs(),
            m.now().as_secs()
        ))
        .unwrap();
    let doc_power = out
        .document
        .get("10.101.1.1")
        .and_then(|n| n.get("power"))
        .and_then(|p| p.as_array())
        .expect("power series");
    let raw_points = &raw.series[0].points;
    assert_eq!(doc_power.len(), raw_points.len());
    for (a, (_, b)) in doc_power.iter().zip(raw_points) {
        assert_eq!(a.get("value").unwrap().as_f64(), b.as_f64());
    }
}

/// One interval from each source: only the sweep touches the Redfish
/// series, and every source counts its interval, its points and its
/// finish estimates in the collector's.
#[test]
fn interval_metrics_match_sweep_outcome() {
    let mut m = deployment(4);
    let mut service = TelemetryService::new(TelemetryConfig::default());
    let sweeps = obs::counter("monster_redfish_sweeps_total");
    let requests = obs::counter("monster_redfish_requests_total");
    let failures = obs::counter("monster_redfish_failures_total");
    let intervals = obs::counter("monster_collector_intervals_total");
    let points = obs::counter("monster_collector_points_total");
    let estimates = obs::counter("monster_collector_finish_estimates_total");
    let batches = obs::counter("monster_tsdb_write_batches_total");
    let written = obs::counter("monster_tsdb_points_written_total");
    let request_histo = obs::histo("monster_redfish_request_seconds");

    let guard = INTERVAL_LOCK.lock().unwrap();
    let before = [
        sweeps.get(),
        requests.get(),
        failures.get(),
        intervals.get(),
        points.get(),
        request_histo.count(),
        estimates.get(),
    ];
    let written_before = written.get();
    let batches_before = batches.get();
    let summary = m.run_interval().unwrap();
    // Exactly one sweep of nodes x 4 categories, every request timed.
    assert_eq!(sweeps.get() - before[0], 1);
    assert_eq!(requests.get() - before[1], 16);
    assert_eq!(failures.get() - before[2], summary.bmc_failures as u64);
    assert_eq!(intervals.get() - before[3], 1);
    assert_eq!(points.get() - before[4], summary.points as u64);
    assert_eq!(request_histo.count() - before[5], 16);

    // The sensors and the telemetry reports: no sweep, no request, and
    // the same collector series. A finish is estimated for each job that
    // left the nodes' job lists since the interval before.
    let mut lists = vec![on_nodes(&m)];
    let sensors = m.run_interval_from(Source::Sensors).unwrap();
    lists.push(on_nodes(&m));
    let telemetry = m.run_interval_from(Source::Telemetry(&mut service)).unwrap();
    lists.push(on_nodes(&m));
    assert_eq!(sweeps.get() - before[0], 1);
    assert_eq!(requests.get() - before[1], 16);
    assert_eq!(request_histo.count() - before[5], 16);
    assert_eq!(intervals.get() - before[3], 3);
    let all_points = summary.points + sensors.points + telemetry.points;
    assert_eq!(points.get() - before[4], all_points as u64);
    let left: usize = lists.windows(2).map(|w| w[0].difference(&w[1]).count()).sum();
    assert_eq!(estimates.get() - before[6], left as u64);
    drop(guard);

    // The store counts field values, not points, so its deltas are lower
    // bounds.
    assert!(batches.get() > batches_before);
    assert!(written.get() - written_before >= summary.points as u64);
}

#[test]
fn metrics_endpoint_serves_live_pipeline_counters() {
    let mut m = deployment(3);
    {
        let _guard = INTERVAL_LOCK.lock().unwrap();
        m.run_interval().unwrap();
    }

    let server = m.serve_api(0).unwrap();
    let client = Client::new();

    // Drive the query path so `monster_tsdb_queries_total` is non-zero
    // even if this test runs first in the process.
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
    assert!(scrape("monster_redfish_sweeps_total") >= 1.0);
    assert!(scrape("monster_redfish_requests_total") >= 12.0);
    assert!(scrape("monster_collector_intervals_total") >= 1.0);
    assert!(scrape("monster_tsdb_write_batches_total") >= 1.0);
    assert!(scrape("monster_tsdb_points_written_total") >= 1.0);
    assert!(scrape("monster_tsdb_queries_total") >= 1.0);
    assert!(scrape("monster_builder_requests_total") >= 1.0);
    assert!(scrape("monster_redfish_request_seconds_count") >= 12.0);

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

//! The Telemetry Service upgrade (the paper's §VI future work): compare
//! 60-second polling against 10-second BMC-side telemetry sampling on a
//! workload with intra-interval load spikes.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```

use monster::builder::{BuilderRequest, ExecMode};
use monster::collector::Source;
use monster::redfish::bmc::BmcConfig;
use monster::redfish::telemetry::{TelemetryConfig, TelemetryService};
use monster::scheduler::{JobShape, JobSpec};
use monster::tsdb::Aggregation;
use monster::util::UserName;
use monster::{Monster, MonsterConfig};

/// Submit a bursty workload: short 20-second jobs every other minute, which
/// per-interval polling can never catch in the act.
fn bursty_jobs(m: &mut Monster, minutes: i64) {
    let t0 = m.now();
    for k in 0..(minutes / 2) {
        m.qmaster_mut().submit_at(
            t0 + k * 120 + 20,
            JobSpec {
                user: UserName::new("bursty"),
                name: format!("burst{k}.sh"),
                shape: JobShape::Serial { slots: 36 },
                runtime_secs: 20,
                priority: 0,
                mem_per_slot_gib: 1.0,
            },
        );
    }
}

fn config() -> MonsterConfig {
    MonsterConfig {
        nodes: 4,
        workload: None,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        ..MonsterConfig::default()
    }
}

fn deployment() -> Monster {
    Monster::new(config())
}

fn power_series(m: &Monster, minutes: i64) -> Vec<f64> {
    let req = BuilderRequest::new(m.now() - minutes * 60, m.now() + 60, 10, Aggregation::Max)
        .expect("request");
    let out = m.builder_query(&req, ExecMode::Sequential).expect("query");
    out.document
        .get("10.101.1.1")
        .and_then(|n| n.get("power"))
        .and_then(|p| p.as_array())
        .map(|a| a.iter().filter_map(|p| p.get("value").and_then(|v| v.as_f64())).collect())
        .unwrap_or_default()
}

fn sparkline(series: &[f64]) -> String {
    let lo = series.iter().cloned().fold(f64::MAX, f64::min);
    let hi = series.iter().cloned().fold(f64::MIN, f64::max);
    series
        .iter()
        .map(|v| {
            let level = if hi > lo { ((v - lo) / (hi - lo) * 7.0) as u32 } else { 0 };
            char::from_u32(0x2581 + level).unwrap()
        })
        .collect()
}

fn main() {
    const MINUTES: i64 = 20;
    println!("== Telemetry Service vs per-interval polling ==");
    println!("(bursty workload: 20 s full-load jobs every other minute)\n");

    // A: classic 60 s polling.
    let mut poll = deployment();
    bursty_jobs(&mut poll, MINUTES);
    poll.run_intervals(MINUTES as usize);

    // B: telemetry at 10 s.
    let mut tele = deployment();
    bursty_jobs(&mut tele, MINUTES);
    let mut service = TelemetryService::new(TelemetryConfig::default());
    for _ in 0..MINUTES {
        tele.run_interval_from(Source::Telemetry(&mut service)).expect("telemetry interval");
    }

    let p_poll = power_series(&poll, MINUTES);
    let p_tele = power_series(&tele, MINUTES);
    let spread = |s: &[f64]| {
        let lo = s.iter().cloned().fold(f64::MAX, f64::min);
        let hi = s.iter().cloned().fold(f64::MIN, f64::max);
        hi - lo
    };

    println!(
        "polling   (60 s): {:3} samples, power swing observed {:6.1} W",
        p_poll.len(),
        spread(&p_poll)
    );
    println!("  {}", sparkline(&p_poll));
    println!(
        "telemetry (10 s): {:3} samples, power swing observed {:6.1} W",
        p_tele.len(),
        spread(&p_tele)
    );
    println!("  {}", sparkline(&p_tele));

    println!(
        "\nresolution gain: {}x more samples per node for the same one-request-per-interval cost",
        if p_poll.is_empty() { 0 } else { p_tele.len() / p_poll.len().max(1) }
    );
    println!("the 20-second bursts are invisible at 60 s and obvious at 10 s.");

    // Streaming detectors watch every reading at ingest, and the alert
    // engine turns their transitions into paging decisions. Inject a
    // fault no workload explains — +450 W on one node's power rail, past
    // the slew bound — and let the pipeline catch it in the act.
    let victim = poll.node_ids()[1];
    poll.cluster().set_power_offset(victim, 450.0).expect("known node");
    for _ in 0..4 {
        poll.run_interval().expect("interval");
    }

    // Seal the polled history and replay the dashboard aggregation once:
    // sealed blocks fully inside the window are answered from their
    // zone-map summaries instead of being decompressed, which shows up in
    // the blocks_decoded / blocks_summarized counters below.
    poll.db().compact();
    let window = MINUTES * 60;
    let agg =
        monster::tsdb::Query::select("Power", "Reading", poll.now() - window, poll.now() + 60)
            .aggregate(Aggregation::Mean)
            .group_by_time(86_400);
    poll.db().query(&agg).expect("sealed aggregation");

    // The polling run went through the instrumented wire path, so the
    // self-monitoring registry saw every sweep. This is the same exposition
    // the Metrics Builder serves at `GET /metrics`.
    println!("\n== Self-monitoring (monster-obs) ==");
    let text = monster::obs::global().text_exposition();
    for name in [
        "monster_redfish_sweeps_total",
        "monster_redfish_requests_total",
        "monster_redfish_retries_total",
        "monster_collector_points_total",
        "monster_tsdb_points_written_total",
        "monster_tsdb_blocks_decoded_total",
        "monster_tsdb_blocks_summarized_total",
    ] {
        println!("{name:36} {}", monster::obs::sample(&text, name).unwrap_or(0.0));
    }
    let sweep_latency = monster::obs::histo("monster_redfish_request_seconds");
    if let Some(mean) = sweep_latency.mean_secs() {
        println!("mean simulated request latency          {mean:.2}s");
    }

    // The in-band half of the same intervals: how long each accounting
    // pull took on the wall, what it weighed on the wire, and how many of
    // its documents had to be sized anew (a host or job changed) against
    // how many were answered from ARCo's memo.
    println!("\n== In-band accounting pull ==");
    let pull = monster::obs::histo("monster_collector_accounting_pull_seconds");
    println!(
        "pulls                                   {} (wall mean {:.1} us)",
        pull.count(),
        pull.mean_secs().unwrap_or(0.0) * 1e6,
    );
    for name in [
        "monster_collector_accounting_bytes",
        "monster_scheduler_accounting_docs_rendered_total",
        "monster_scheduler_accounting_docs_reused_total",
    ] {
        println!("{name:48} {}", monster::obs::sample(&text, name).unwrap_or(0.0));
    }

    // The detectors flagged the shorted rail above; the engine graded and
    // deduplicated it. `GET /v1/alerts` serves the same list.
    println!("\n== Alerting (GET /v1/alerts) ==");
    for name in ["monster_anomaly_events_total", "monster_alert_transitions_total"] {
        println!("{name:36} {}", monster::obs::sample(&text, name).unwrap_or(0.0));
    }
    if let Some(engine) = poll.alerts() {
        for alert in engine.active() {
            println!("  [{:8}] {}", alert.severity.to_string(), alert.description);
        }
    }

    // The storage engine's shard locks report how contended they were:
    // wait = time spent queueing for a lock, hold = critical-section
    // length. Both are recorded *after* the guard drops, so the
    // instrumentation never lengthens the critical sections it measures.
    let wait = monster::obs::histo("monster_tsdb_lock_wait_seconds");
    let hold = monster::obs::histo("monster_tsdb_lock_hold_seconds");
    println!(
        "shard-lock acquisitions                 {} (wait mean {:.1} us, hold mean {:.1} us)",
        wait.count(),
        wait.mean_secs().unwrap_or(0.0) * 1e6,
        hold.mean_secs().unwrap_or(0.0) * 1e6,
    );
    // Per-shard occupancy gauges show where the written points landed.
    for line in text.lines().filter(|l| l.starts_with("monster_tsdb_shard_points{")) {
        println!("  {line}");
    }

    // Latency histograms carry OpenMetrics exemplars: the bucket line
    // remembers the trace id of the last observation that landed in it,
    // so a dashboard spike links straight to the sweep or request that
    // caused it (`GET /debug/trace` exports the spans).
    println!("\n== Exemplars (histogram bucket -> trace) ==");
    for line in text
        .lines()
        .filter(|l| l.starts_with("monster_sweep_duration_seconds_bucket") && l.contains(" # "))
        .take(2)
    {
        println!("  {line}");
    }

    // The freshness SLO engine watches per-(node, metric) ingest
    // watermarks; `GET /debug/pipeline` serves this same report.
    let report = monster::obs::freshness().report();
    let f = |path: &[&str]| {
        let mut v = Some(&report);
        for k in path {
            v = v.and_then(|v| v.get(k));
        }
        v.and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
    };
    println!("\n== Freshness SLO (/debug/pipeline) ==");
    println!("  tracked series     {}", f(&["tracked_series"]));
    println!("  attainment         {:.4} (target {})", f(&["attainment"]), f(&["slo", "target"]));
    println!("  error budget used  {:.4}", f(&["error_budget_used"]));
    println!(
        "  staleness p50/p99  {}s / {}s",
        f(&["staleness_secs", "p50"]),
        f(&["staleness_secs", "p99"])
    );
    // The serving layer in front of the Metrics Builder: a watermark-
    // validity response cache (closed historical windows never expire),
    // request coalescing, and cost-based admission. Drive one dashboard
    // URL through miss -> hit, a malformed URL through the negative
    // cache, and an expensive request into a 429 — every outcome lands
    // in the monster_builder_cache_* counters below.
    {
        use monster::builder::service::{router, ServiceConfig};
        use monster::builder::AdmissionConfig;
        use monster::http::Request;
        let serving = router(poll.db().clone(), poll.node_ids().to_vec(), ServiceConfig::default());
        let url = "/v1/metrics?start=1970-01-01T00:05:00Z&end=1970-01-01T00:20:00Z&interval=5m";
        println!("\n== Serving layer (cache / coalescing / admission) ==");
        for _ in 0..3 {
            let resp = serving.dispatch(&Request::get(url));
            println!(
                "  GET /v1/metrics -> {} (X-Cache: {})",
                resp.status.0,
                resp.headers.get("X-Cache").unwrap_or("-")
            );
        }
        // Deterministic 400s are cached too (negative cache).
        let bad =
            "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z&aggregation=median";
        for _ in 0..2 {
            serving.dispatch(&Request::get(bad));
        }
        // An admission controller with a zero budget rejects everything
        // non-trivial with 429 + Retry-After.
        let strict = router(
            poll.db().clone(),
            poll.node_ids().to_vec(),
            ServiceConfig {
                admission: AdmissionConfig {
                    cheap_secs: 0.0,
                    reject_secs: 0.0,
                    ..AdmissionConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let rejected = strict.dispatch(&Request::get(url));
        println!(
            "  rogue tenant    -> {} (Retry-After: {}s)",
            rejected.status.0,
            rejected.headers.get("Retry-After").unwrap_or("-")
        );
    }
    let text = monster::obs::global().text_exposition();
    for name in [
        "monster_builder_cache_hits_total",
        "monster_builder_cache_misses_total",
        "monster_builder_cache_coalesced_total",
        "monster_builder_cache_evictions_total",
        "monster_builder_cache_admission_rejected_total",
        "monster_builder_inflight_queries",
    ] {
        println!("{name:46} {}", monster::obs::sample(&text, name).unwrap_or(0.0));
    }
    // Every plan execution is timed twice: in the cost model's simulated
    // seconds (what the paper's figures plot) and on this host's wall
    // clock. The two histograms sit side by side so the gap is readable.
    let modelled = monster::obs::histo("monster_builder_query_seconds");
    let wall = monster::obs::histo("monster_builder_execute_wall_seconds");
    let render = monster::obs::histo("monster_builder_encode_wall_seconds");
    println!(
        "plan executions                                {} (modelled mean {:.3} s, wall mean {:.3} ms batch + {:.3} ms render)",
        wall.count(),
        modelled.mean_secs().unwrap_or(0.0),
        wall.mean_secs().unwrap_or(0.0) * 1e3,
        render.mean_secs().unwrap_or(0.0) * 1e3,
    );

    // The query flight recorder: every /v1/metrics request leaves one
    // wide event in a pre-allocated ring of locked records — disposition,
    // per-stage wall+vtime timings, estimated-vs-actual cost, admission
    // math. `?explain=true` returns the record inline with the payload
    // byte-identical (base64 in the envelope); `GET /debug/requests`
    // serves the recent ring plus the pinned slow-query log.
    {
        use monster::builder::service::{router, QlogConfig, ServiceConfig};
        use monster::http::Request;
        let observed = router(
            poll.db().clone(),
            poll.node_ids().to_vec(),
            ServiceConfig {
                qlog: QlogConfig { slow_ms: 5.0, ..QlogConfig::default() },
                ..ServiceConfig::default()
            },
        );
        let url = "/v1/metrics?start=1970-01-01T00:05:00Z&end=1970-01-01T00:20:00Z&interval=5m";
        println!("\n== Query flight recorder (?explain=true, /debug/requests) ==");
        let num = |v: &monster::json::Value, k: &str| {
            v.get(k).and_then(|x| x.as_f64()).unwrap_or(f64::NAN)
        };
        // First sighting executes: the explain envelope carries the
        // estimate the admission controller priced next to what the
        // scans actually cost.
        let miss = observed.dispatch(&Request::get(&format!("{url}&explain=true")));
        let envelope = miss.json_body().expect("explain envelope");
        let record = envelope.get("explain").expect("record in envelope");
        println!(
            "  explain(first): disposition={} modelled {:.2} ms, \
             actual/estimated seconds {:.3}x",
            record.get("disposition").unwrap().as_str().unwrap_or("-"),
            num(record.get("vtime_ms").unwrap(), "total"),
            record.get("cost").map_or(f64::NAN, |c| num(c.get("ratio").unwrap(), "seconds")),
        );
        // The repeat is a cache hit; both land in the ring.
        observed.dispatch(&Request::get(url));
        // A compressed reply is its own cache entry, and its record splits
        // the deflate out of the encode stage.
        let packed = observed.dispatch(&Request::get(&format!("{url}&compress=true&explain=true")));
        let envelope = packed.json_body().expect("explain envelope");
        let wall = envelope.get("explain").and_then(|r| r.get("wall_ms")).expect("stage timings");
        println!(
            "  explain(compress=true): encode {:.3} ms + compress {:.3} ms wall",
            num(wall, "encode"),
            num(wall, "compress"),
        );
        let debug = observed.dispatch(&Request::get("/debug/requests?limit=4"));
        let doc = debug.json_body().expect("debug requests");
        for r in doc.get("requests").unwrap().as_array().unwrap() {
            println!(
                "  [{:9}] {} wall {:.3} ms  {}",
                r.get("disposition").unwrap().as_str().unwrap_or("-"),
                r.get("status").unwrap().as_i64().unwrap_or(0),
                num(r.get("wall_ms").unwrap(), "total"),
                r.get("url").unwrap().as_str().unwrap_or("-"),
            );
        }
        // The executed miss crossed the 5 ms modelled threshold above, so
        // it is also pinned in the slow log, safe from ring recycling.
        let slow = doc.get("slow").unwrap().as_array().unwrap();
        println!("  slow log: {} record(s) pinned over the 5 ms modelled threshold", slow.len());
    }
    let text = monster::obs::global().text_exposition();
    for name in [
        "monster_builder_qlog_records_total",
        "monster_builder_slow_queries_total",
        "monster_builder_cost_estimate_ratio{stage=\"seconds\"}_count",
        "monster_builder_compress_seconds_count",
        "monster_builder_compress_bytes_total{kind=\"raw\"}",
        "monster_builder_compress_bytes_total{kind=\"wire\"}",
    ] {
        println!("{name:52} {}", monster::obs::sample(&text, name).unwrap_or(0.0));
    }

    // A durable deployment logs every batch before it applies it, ids
    // resolved and values typed; a series is spelled out once per WAL
    // segment (the definitions counters). Stop it and open the directory
    // again: how long the monitor was blind and how fast it replayed are
    // read from the same registry.
    {
        println!("\n== Durable storage (WAL, restart) ==");
        let dir = std::env::temp_dir().join(format!("monster-telemetry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = || MonsterConfig { data_dir: Some(dir.clone()), ..config() };
        let mut m = Monster::new(durable());
        m.run_intervals(MINUTES as usize);
        drop(m); // an orderly stop forces the final group commit
        let reopened = Monster::new(durable());
        let report = reopened.recovery().expect("durable deployment");
        let text = monster::obs::global().text_exposition();
        for name in [
            "monster_tsdb_wal_appends_total",
            "monster_tsdb_wal_bytes_total",
            "monster_tsdb_wal_definitions_total{kind=\"series\"}",
            "monster_tsdb_wal_definitions_total{kind=\"field\"}",
            "monster_tsdb_wal_replayed_records_total",
            "monster_tsdb_wal_replayed_points_total",
        ] {
            println!("{name:52} {}", monster::obs::sample(&text, name).unwrap_or(0.0));
        }
        // Both opens were recoveries; the first found an empty directory.
        let blind = monster::obs::histo("monster_tsdb_recovery_seconds");
        println!(
            "recoveries                                           {} ({:.2} ms in all; the restart \
             replayed {} points)",
            blind.count(),
            blind.sum_secs() * 1e3,
            report.replayed_points,
        );
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    println!("\n(serve these live: `deployment.serve_api(port)` then GET /metrics,");
    println!(" /debug/trace, /debug/requests, /debug/pipeline)");
}

//! Dashboard-storm benchmark: the serving layer (watermark-validity
//! result cache, request coalescing, cost-based admission) under an
//! open-loop fleet of dashboard subscribers. Writes machine-readable
//! `BENCH_serve.json` for cross-PR perf tracking.
//!
//! The workload is the paper's operational endgame: one Metrics Builder
//! serving the same handful of dashboard panels to an entire HPC
//! center. Every subscriber polls a panel on its own 30/45/60-second
//! refresh, so each 60-second tick delivers a storm of requests that
//! collapses onto ~22 unique URLs. Three things are measured:
//!
//! * **storage-scan reduction** — TSDB queries and points scanned by the
//!   cached + coalescing service vs a cache-off baseline serving the
//!   identical request stream. The baseline executes each unique URL
//!   once on a cache-off router and multiplies the per-URL counter
//!   deltas by that URL's request count (cache-off execution is
//!   deterministic per URL at fixed db state), so 100 000 subscribers
//!   are priced exactly without 100 000 executions.
//! * **byte identity** — every storm response is compared byte-for-byte
//!   against the cache-off execution of the same URL in the same tick.
//!   A validity bug (a cache entry surviving a write that changed its
//!   window) shows up as a mismatch, not a silent wrong dashboard.
//! * **admission** — a rogue tenant issues full-history queries whose
//!   modelled cost sits above the reject threshold; every one must come
//!   back `429` with a `Retry-After`, and none may poison the cache.
//!
//! Admission thresholds are derived from the seeded data at setup:
//! `cheap = 2x` the most expensive panel's modelled cost (panels always
//! admitted), `reject = 0.6x` the rogue query's modelled cost (rogue
//! always turned away) — the gap is asserted before the storm starts.
//!
//! Usage: `dashboard_storm [--quick]` — quick mode shrinks the fleet for
//! CI smoke runs; the committed `BENCH_serve.json` comes from a full run.

use monster_bench::storm::{
    catalog, modelled_secs, percentile, rfc3339, sample_batch, splitmix, subscriber, HISTORY_SECS,
    NODES, STORM_WORKERS, TICK_SECS,
};
use monster_builder::service::{router, ServiceConfig};
use monster_builder::{AdmissionConfig, BuilderRequest, ExecMode};
use monster_http::{Request, Status};
use monster_json::jobj;
use monster_tsdb::{Aggregation, Db, DbConfig};
use monster_util::pool::ThreadPool;
use monster_util::{EpochSecs, NodeId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

struct Workload {
    subscribers: usize,
    ticks: usize,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let wl = if quick {
        Workload { subscribers: 5_000, ticks: 2 }
    } else {
        Workload { subscribers: 100_000, ticks: 4 }
    };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let nodes = NodeId::enumerate(NODES, 4);
    let panels = catalog();

    // --- seed history -----------------------------------------------------
    // 15-minute shards: at a 10 s cadence that is the shard sizing a real
    // deployment would pick, and it lets the cost model see the
    // difference between a 30-minute panel and a full-history scan.
    let db = Arc::new(Db::new(DbConfig { shard_duration: 900, ..DbConfig::default() }));
    let ingest = Instant::now();
    let mut seeded = 0usize;
    for hour in 0..(HISTORY_SECS / 3600) {
        let batch = sample_batch(&nodes, hour * 3600, (hour + 1) * 3600);
        seeded += batch.len();
        db.write_batch(&batch).unwrap();
    }
    db.compact();
    let ingest_secs = ingest.elapsed().as_secs_f64();
    let mut now = HISTORY_SECS;

    // --- derive admission thresholds from the data ------------------------
    let panel_est =
        panels.iter().map(|p| modelled_secs(&db, &nodes, &p.request(now))).fold(0.0f64, f64::max);
    let rogue_req =
        BuilderRequest::new(EpochSecs::new(0), EpochSecs::new(now), 60, Aggregation::Mean).unwrap();
    let rogue_est = modelled_secs(&db, &nodes, &rogue_req);
    let cheap_secs = panel_est * 2.0;
    let reject_secs = rogue_est * 0.6;
    assert!(
        reject_secs > cheap_secs,
        "no admission headroom: panel max {panel_est:.4}s vs rogue {rogue_est:.4}s"
    );

    // --- the two services over ONE db -------------------------------------
    let storm_router = router(
        Arc::clone(&db),
        nodes.clone(),
        ServiceConfig {
            exec: ExecMode::Sequential,
            admission: AdmissionConfig { cheap_secs, reject_secs, ..AdmissionConfig::default() },
            ..ServiceConfig::default()
        },
    );
    let baseline_router = router(
        Arc::clone(&db),
        nodes.clone(),
        ServiceConfig {
            exec: ExecMode::Sequential,
            cache_entries: 0,
            coalesce: false,
            admission: AdmissionConfig { enabled: false, ..AdmissionConfig::default() },
            ..ServiceConfig::default()
        },
    );

    let q_counter = monster_obs::counter("monster_tsdb_queries_total");
    let p_counter = monster_obs::counter("monster_tsdb_query_points_total");
    let pool = ThreadPool::new(STORM_WORKERS);

    let mut baseline_queries = 0u64;
    let mut baseline_points = 0u64;
    let mut cached_queries = 0u64;
    let mut cached_points = 0u64;
    let mut total_requests = 0usize;
    let mut unique_urls = 0usize;
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut hits = 0usize;
    let mut misses = 0usize;
    let mut coalesced = 0usize;
    let mut mismatches = 0usize;
    let mut rogue_requests = 0usize;
    let mut rogue_rejected = 0usize;

    for tick in 0..wl.ticks {
        // New interval lands: writes that invalidate every open sliding
        // window but, under watermark validity, none of the closed ones.
        db.write_batch(&sample_batch(&nodes, now, now + TICK_SECS)).unwrap();
        now += TICK_SECS;

        // Who fires this tick, collapsed to URL -> request count.
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for id in 0..wl.subscribers as u64 {
            let sub = subscriber(id, panels.len());
            let n = sub.due((tick as i64) * TICK_SECS);
            if n > 0 {
                *counts.entry(sub.panel).or_insert(0) += n;
            }
        }
        let urls: Vec<(String, usize)> =
            counts.iter().map(|(&panel, &n)| (panels[panel].url(now), n)).collect();
        unique_urls += urls.len();

        // Cache-off baseline: execute each unique URL once, price the
        // whole storm by multiplying the per-URL scan deltas.
        let mut expected: Vec<monster_http::Body> = Vec::with_capacity(urls.len());
        for (url, n) in &urls {
            let (q0, p0) = (q_counter.get(), p_counter.get());
            let resp = baseline_router.dispatch(&Request::get(url));
            assert_eq!(resp.status, Status::OK, "baseline {url}");
            baseline_queries += (q_counter.get() - q0) * *n as u64;
            baseline_points += (p_counter.get() - p0) * *n as u64;
            expected.push(resp.body);
        }

        // The storm: every due request, dispatched concurrently against
        // the cached + coalescing router, interleaved across URLs.
        let mut jobs: Vec<usize> = Vec::new();
        for (i, (_, n)) in urls.iter().enumerate() {
            jobs.extend(std::iter::repeat_n(i, *n));
        }
        // Deterministic shuffle so requests for different URLs interleave
        // on the pool the way real subscribers would.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&k| splitmix(k as u64 ^ ((tick as u64) << 40)));
        let jobs: Vec<usize> = order.into_iter().map(|k| jobs[k]).collect();
        total_requests += jobs.len();

        let (q0, p0) = (q_counter.get(), p_counter.get());
        let outcomes = pool.scope_map(&jobs, |&i| {
            let (url, _) = &urls[i];
            let t = Instant::now();
            let resp = storm_router.dispatch(&Request::get(url));
            let us = t.elapsed().as_secs_f64() * 1e6;
            let cache = match resp.headers.get("X-Cache") {
                Some("hit") => 0u8,
                Some("miss") => 1,
                Some("coalesced") => 2,
                _ => 3,
            };
            let ok = resp.status == Status::OK && resp.body == expected[i];
            (us, cache, ok)
        });
        cached_queries += q_counter.get() - q0;
        cached_points += p_counter.get() - p0;
        for (us, cache, ok) in outcomes {
            latencies_us.push(us);
            match cache {
                0 => hits += 1,
                1 => misses += 1,
                2 => coalesced += 1,
                _ => {}
            }
            if !ok {
                mismatches += 1;
            }
        }

        // The rogue tenant asks for everything since the epoch; distinct
        // start offsets defeat the cache, so every request faces
        // admission — and every one is over the reject threshold.
        for i in 0..4i64 {
            let url = format!(
                "/v1/metrics?start={}&end={}&interval=1m&aggregation=mean",
                rfc3339(i),
                rfc3339(now)
            );
            let resp = storm_router.dispatch(&Request::get(&url).with_header("X-Tenant", "rogue"));
            rogue_requests += 1;
            if resp.status == Status::TOO_MANY_REQUESTS {
                assert!(resp.headers.get("Retry-After").is_some(), "429 without Retry-After");
                rogue_rejected += 1;
            }
        }
    }

    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = percentile(&latencies_us, 0.50);
    let p99 = percentile(&latencies_us, 0.99);
    let query_reduction = baseline_queries as f64 / cached_queries.max(1) as f64;
    let point_reduction = baseline_points as f64 / cached_points.max(1) as f64;

    println!(
        "== dashboard storm ({cores} core(s), {} subscribers, {} panels, {} tick(s), \
         {seeded} seeded points, {ingest_secs:.1}s ingest) ==",
        wl.subscribers,
        panels.len(),
        wl.ticks
    );
    println!(
        "requests: {total_requests} over {unique_urls} unique URLs \
         ({hits} hits / {misses} misses / {coalesced} coalesced)"
    );
    println!(
        "storage scans: {cached_queries} queries / {cached_points} points cached \
         vs {baseline_queries} / {baseline_points} cache-off \
         ({query_reduction:.0}x / {point_reduction:.0}x reduction)"
    );
    println!("latency: p50 {p50:.0}us, p99 {p99:.0}us; body mismatches: {mismatches}");
    println!(
        "admission: {rogue_rejected}/{rogue_requests} rogue requests rejected \
         (cheap {cheap_secs:.3}s, reject {reject_secs:.3}s, rogue est {rogue_est:.3}s)"
    );

    let doc = jobj! {
        "bench" => "dashboard_storm",
        "quick" => quick,
        "cores" => cores as i64,
        "subscribers" => wl.subscribers as i64,
        "ticks" => wl.ticks as i64,
        "panels" => panels.len() as i64,
        "seeded_points" => seeded as i64,
        "requests" => jobj! {
            "total" => total_requests as i64,
            "unique_urls" => unique_urls as i64,
            "hits" => hits as i64,
            "misses" => misses as i64,
            "coalesced" => coalesced as i64,
            "body_mismatches" => mismatches as i64,
        },
        "storage_scans" => jobj! {
            "cached_queries" => cached_queries as i64,
            "cached_points" => cached_points as i64,
            "baseline_queries" => baseline_queries as i64,
            "baseline_points" => baseline_points as i64,
            "query_reduction" => query_reduction,
            "point_reduction" => point_reduction,
        },
        "latency" => jobj! {
            "p50_us" => p50,
            "p99_us" => p99,
        },
        "admission" => jobj! {
            "rogue_requests" => rogue_requests as i64,
            "rogue_rejected" => rogue_rejected as i64,
            "cheap_secs" => cheap_secs,
            "reject_secs" => reject_secs,
            "rogue_estimate_secs" => rogue_est,
        },
    };
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    std::fs::write(&out, doc.to_string_pretty() + "\n").unwrap();
    println!("wrote {out}");

    // Acceptance bars, quick and full alike: the cache must absorb the
    // fan-out (>= 10x fewer storage scans than serving every request
    // cache-off), every body must match the cache-off execution exactly,
    // and the rogue tenant must be turned away with 429 + Retry-After.
    assert_eq!(mismatches, 0, "cached responses diverged from cache-off execution");
    assert!(query_reduction >= 10.0, "storage query reduction {query_reduction:.1}x < 10x");
    assert!(point_reduction >= 10.0, "storage point reduction {point_reduction:.1}x < 10x");
    assert_eq!(rogue_rejected, rogue_requests, "every over-budget rogue request must be rejected");
}

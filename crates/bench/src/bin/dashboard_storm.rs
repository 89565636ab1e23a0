//! Dashboard-storm gate: the serving layer (watermark-validity result
//! cache, request coalescing, cost-based admission) under an open-loop
//! fleet of dashboard subscribers. Writes `BENCH_serve.json`: request,
//! query and point counts, which are a function of the code — which
//! request of a burst leads and which follow is scheduling, so hits and
//! coalesced replies are committed as one number. What a hit costs on the
//! wall is `bench_pipeline`'s `dash_warm` (`op_ms_p50`,
//! `builder.dispatch_hit_us`).
//!
//! The workload is the paper's operational endgame: one Metrics Builder
//! serving the same handful of dashboard panels to an entire HPC
//! center. Every subscriber polls a panel on its own 30/45/60-second
//! refresh, so each 60-second tick delivers a storm of requests that
//! collapses onto 16 unique URLs. Three things are checked:
//!
//! * **storage-scan reduction** — TSDB queries and points scanned by the
//!   cached + coalescing service vs a cache-off baseline serving the
//!   identical request stream. The baseline executes each unique URL
//!   once on a cache-off router and multiplies the per-URL counter
//!   deltas by that URL's request count (cache-off execution is
//!   deterministic per URL at fixed db state), so 100 000 subscribers
//!   are priced exactly without 100 000 executions. The same deltas say
//!   what the cached service may scan: each distinct URL of the run
//!   executes **once** — single-flight within a tick, watermark validity
//!   across ticks — so its misses, queries and points are asserted
//!   exactly, not only ≥ 10× under the baseline.
//! * **byte identity** — every storm response is compared byte-for-byte
//!   against the cache-off execution of the same URL in the same tick.
//!   A validity bug (a cache entry surviving a write that changed its
//!   window) shows up as a mismatch, not a silent wrong dashboard.
//! * **admission** — a rogue tenant issues full-history queries whose
//!   modelled cost sits above the reject threshold; every one must come
//!   back `429` with a `Retry-After`, and none may poison the cache.
//!
//! Admission thresholds are derived from the seeded data at setup
//! (`storm::admission`).
//!
//! Usage: `dashboard_storm [--expect BENCH_serve.json]`.

use monster_bench::report;
use monster_bench::storm::{
    self, catalog, rfc3339, sample_batch, seeded_db, splitmix, subscriber, HISTORY_SECS, NODES,
    STORM_WORKERS, TICK_SECS,
};
use monster_builder::service::{router, ServiceConfig};
use monster_builder::{AdmissionConfig, ExecMode};
use monster_http::{Request, Status};
use monster_json::jobj;
use monster_util::pool::ThreadPool;
use monster_util::NodeId;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const SUBSCRIBERS: usize = 100_000;
const TICKS: usize = 4;

fn main() {
    let nodes = NodeId::enumerate(NODES, 4);
    let panels = catalog();

    let (db, seeded) = seeded_db(&nodes);
    let mut now = HISTORY_SECS;
    let (admission, rogue_est) = storm::admission(&db, &nodes, now);
    let (cheap_secs, reject_secs) = (admission.cheap_secs, admission.reject_secs);

    // --- the two services over ONE db -------------------------------------
    let storm_router = router(
        Arc::clone(&db),
        nodes.clone(),
        ServiceConfig { exec: ExecMode::Sequential, admission, ..ServiceConfig::default() },
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
    // What one execution of every distinct URL of the run scans.
    let mut distinct_urls: HashSet<String> = HashSet::new();
    let (mut once_queries, mut once_points) = (0u64, 0u64);
    let mut hits_or_coalesced = 0usize;
    let mut misses = 0usize;
    let mut mismatches = 0usize;
    let mut rogue_requests = 0usize;
    let mut rogue_rejected = 0usize;

    for tick in 0..TICKS {
        // New interval lands: writes that invalidate every open sliding
        // window but, under watermark validity, none of the closed ones.
        db.write_batch(&sample_batch(&nodes, now, now + TICK_SECS)).unwrap();
        now += TICK_SECS;

        // Who fires this tick, collapsed to URL -> request count.
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for id in 0..SUBSCRIBERS as u64 {
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
            let (queries, points) = (q_counter.get() - q0, p_counter.get() - p0);
            baseline_queries += queries * *n as u64;
            baseline_points += points * *n as u64;
            if distinct_urls.insert(url.clone()) {
                once_queries += queries;
                once_points += points;
            }
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
            let resp = storm_router.dispatch(&Request::get(url));
            let ok = resp.status == Status::OK && resp.body == expected[i];
            (resp.headers.get("X-Cache").map(str::to_string), ok)
        });
        cached_queries += q_counter.get() - q0;
        cached_points += p_counter.get() - p0;
        for (cache, ok) in outcomes {
            match cache.as_deref() {
                Some("miss") => misses += 1,
                Some("hit" | "coalesced") => hits_or_coalesced += 1,
                other => panic!("storm reply with X-Cache {other:?}"),
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

    let query_reduction = baseline_queries as f64 / cached_queries.max(1) as f64;
    let point_reduction = baseline_points as f64 / cached_points.max(1) as f64;

    println!(
        "== dashboard storm ({} subscribers, {} panels, {} tick(s), {seeded} seeded points) ==",
        SUBSCRIBERS,
        panels.len(),
        TICKS
    );
    println!(
        "requests: {total_requests} over {unique_urls} unique URLs, {} distinct \
         ({misses} misses / {hits_or_coalesced} hits or coalesced)",
        distinct_urls.len()
    );
    println!(
        "storage scans: {cached_queries} queries / {cached_points} points cached \
         vs {baseline_queries} / {baseline_points} cache-off \
         ({query_reduction:.0}x / {point_reduction:.0}x reduction)"
    );
    println!("body mismatches: {mismatches}");
    println!(
        "admission: {rogue_rejected}/{rogue_requests} rogue requests rejected \
         (cheap {cheap_secs:.3}s, reject {reject_secs:.3}s, rogue est {rogue_est:.3}s)"
    );

    let doc = jobj! {
        "bench" => "dashboard_storm",
        "subscribers" => SUBSCRIBERS as i64,
        "ticks" => TICKS as i64,
        "panels" => panels.len() as i64,
        "seeded_points" => seeded as i64,
        "requests" => jobj! {
            "total" => total_requests as i64,
            "unique_urls" => unique_urls as i64,
            "distinct_urls" => distinct_urls.len() as i64,
            "misses" => misses as i64,
            "hits_or_coalesced" => hits_or_coalesced as i64,
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
        "admission" => jobj! {
            "rogue_requests" => rogue_requests as i64,
            "rogue_rejected" => rogue_rejected as i64,
            "cheap_secs" => cheap_secs,
            "reject_secs" => reject_secs,
            "rogue_estimate_secs" => rogue_est,
        },
    };
    report::finish("BENCH_serve.json", &doc);

    // Acceptance bars: the cache must absorb the fan-out (>= 10x fewer
    // storage scans than serving every request cache-off) by executing
    // each distinct URL exactly once, every body must match the cache-off
    // execution exactly, and the rogue tenant must be turned away with
    // 429 + Retry-After.
    assert_eq!(mismatches, 0, "cached responses diverged from cache-off execution");
    assert_eq!(misses, distinct_urls.len(), "a URL executed twice, or never");
    assert_eq!(
        (cached_queries, cached_points),
        (once_queries, once_points),
        "the cached service scanned more than one execution of each distinct URL"
    );
    assert!(query_reduction >= 10.0, "storage query reduction {query_reduction:.1}x < 10x");
    assert!(point_reduction >= 10.0, "storage point reduction {point_reduction:.1}x < 10x");
    assert_eq!(rogue_rejected, rogue_requests, "every over-budget rogue request must be rejected");
}

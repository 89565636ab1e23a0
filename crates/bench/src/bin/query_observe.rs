//! Flight-recorder gate: what does per-request observability cost, and
//! does the cost model deserve to gate admission? Writes
//! `BENCH_observe.json`: the identity and estimator sections, which are a
//! function of the code. The overhead is a wall-clock invariant — printed
//! and asserted, not committed; what a request costs over the socket is
//! `bench_pipeline`'s `http.request_ms`.
//!
//! Three phases over the shared dashboard-storm mix (`storm` module):
//!
//! * **A — byte identity.** Two identically seeded dbs, one service with
//!   the recorder on and one with it off, replay the same panel URLs
//!   tick by tick. Every response must be byte-identical, and every
//!   `?explain=true` envelope must carry the exact off-response bytes in
//!   `payload_base64`. Observability must never change what callers see.
//! * **B — overhead.** The gate divides two measurements: the
//!   recorder's per-request cost (p50 delta of recorder-on vs -off,
//!   measured in-process where paired windows resolve it to ±10 ns)
//!   over the socket p50 round trip of the same warm mix
//!   (`Server::spawn` + `PersistentClient` — what a dashboard actually
//!   pays per request). The delta cannot be resolved *through* the
//!   socket: two server instances differ by ±1–3% run to run from
//!   code/heap layout alone, an order of magnitude above the ~0.1 µs
//!   effect under test. And a warm in-process hit is ~1 µs, so gating
//!   "<1%" against *that* would demand the recorder cost ~10 ns —
//!   below one rdtsc pair. Numerator and denominator are each measured
//!   where they are measurable.
//! * **C — estimator accuracy.** Every executed (miss) request records
//!   planned `QueryCost` next to measured actual; the ratios
//!   actual/estimated per component come back through the explain
//!   envelope and `/debug/requests`. The admission-relevant components
//!   (modelled seconds, points, bytes) must aggregate within
//!   [0.5, 2.0]x on the storm mix — outside that band, the admission
//!   controller is rejecting or admitting on fiction.
//!
//! Usage: `query_observe [--expect BENCH_observe.json]`.

use monster_bench::report;
use monster_bench::storm::{
    self, catalog, percentile, rfc3339, sample_batch, seeded_db, HISTORY_SECS, NODES, TICK_SECS,
};
use monster_builder::qlog::base64_decode;
use monster_builder::service::{router, QlogConfig, ServiceConfig};
use monster_builder::{AdmissionConfig, ExecMode};
use monster_http::{Client, PersistentClient, Request, Response, Router, Server, Status};
use monster_json::{jobj, Value};
use monster_tsdb::Db;
use monster_util::NodeId;
use std::sync::Arc;
use std::time::Instant;

/// The recorder's per-request cost as a share of a socket round trip.
const OVERHEAD_GATE: f64 = 0.01;

/// Accumulated estimator accuracy over every executed request.
#[derive(Default)]
struct Accuracy {
    requests: u64,
    est_ms: f64,
    act_ms: f64,
    est_points: f64,
    act_points: f64,
    est_bytes: f64,
    act_bytes: f64,
    est_blocks: f64,
    act_blocks: f64,
}

impl Accuracy {
    fn absorb(&mut self, cost: &Value) {
        let f = |v: &Value, k: &str| {
            v.get(k).and_then(|x| x.as_f64().or(x.as_i64().map(|i| i as f64))).unwrap_or(0.0)
        };
        let (est, act) = (cost.get("estimated").unwrap(), cost.get("actual").unwrap());
        self.requests += 1;
        self.est_ms += f(cost, "estimated_modelled_ms");
        self.act_ms += f(cost, "actual_modelled_ms");
        self.est_points += f(est, "points");
        self.act_points += f(act, "points");
        self.est_bytes += f(est, "bytes");
        self.act_bytes += f(act, "bytes");
        self.est_blocks += f(est, "blocks");
        self.act_blocks += f(act, "blocks");
    }

    /// (seconds, points, bytes, blocks) aggregate actual/estimated.
    fn ratios(&self) -> (f64, f64, f64, f64) {
        let r = |act: f64, est: f64| if est > 0.0 { act / est } else { f64::NAN };
        (
            r(self.act_ms, self.est_ms),
            r(self.act_points, self.est_points),
            r(self.act_bytes, self.est_bytes),
            r(self.act_blocks, self.est_blocks),
        )
    }
}

fn service(db: &Arc<Db>, nodes: &[NodeId], recorder: bool, admission: AdmissionConfig) -> Router {
    router(
        Arc::clone(db),
        nodes.to_vec(),
        ServiceConfig {
            exec: ExecMode::Sequential,
            admission,
            // Shipped-default ring capacity: the overhead gate must price
            // the configuration operators actually run.
            qlog: QlogConfig { enabled: recorder, ..QlogConfig::default() },
            ..ServiceConfig::default()
        },
    )
}

/// `rounds` passes over the whole warm panel mix through `send`; returns
/// the sorted per-request latencies in microseconds.
fn trial(reqs: &[Request], rounds: usize, mut send: impl FnMut(&Request) -> Response) -> Vec<f64> {
    let mut us = Vec::with_capacity(rounds * reqs.len());
    for _ in 0..rounds {
        for req in reqs {
            let t = Instant::now();
            let resp = send(req);
            us.push(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(resp.status, Status::OK);
        }
    }
    us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    us
}

fn main() {
    let nodes = NodeId::enumerate(NODES, 4);
    let panels = catalog();

    // Identically seeded twin dbs: recorder-on and recorder-off services
    // must not share cache or flight state, or identity proves nothing.
    let (db_on, _) = seeded_db(&nodes);
    let (db_off, _) = seeded_db(&nodes);

    // Same admission derivation as dashboard_storm, so the mix includes
    // charged (non-cheap) executions — the estimates admission acts on.
    let mut now = HISTORY_SECS;
    let (admission, _) = storm::admission(&db_on, &nodes, now);
    let svc_on = service(&db_on, &nodes, true, admission);
    let svc_off = service(&db_off, &nodes, false, admission);

    // --- phase A: byte identity + estimator harvest -----------------------
    let ticks = 4;
    let mut identical = 0usize;
    let mut mismatches = 0usize;
    let mut envelopes = 0usize;
    let mut acc = Accuracy::default();
    for tick in 0..ticks {
        db_on.write_batch(&sample_batch(&nodes, now, now + TICK_SECS)).unwrap();
        db_off.write_batch(&sample_batch(&nodes, now, now + TICK_SECS)).unwrap();
        now += TICK_SECS;
        for panel in &panels {
            let url = panel.url(now);
            // Recorder-off reference, then the recorder-on miss carried
            // inside an explain envelope, then the plain hit.
            let reference = svc_off.dispatch(&Request::get(&url));
            assert_eq!(reference.status, Status::OK, "reference {url}");
            let wrapped = svc_on.dispatch(&Request::get(&format!("{url}&explain=true")));
            assert_eq!(wrapped.status, Status::OK, "explain {url}");
            let doc = wrapped.json_body().expect("explain envelope");
            let payload =
                base64_decode(doc.get("payload_base64").unwrap().as_str().unwrap()).unwrap();
            envelopes += 1;
            if payload == reference.body.to_vec() {
                identical += 1;
            } else {
                mismatches += 1;
                eprintln!("explain payload diverged from recorder-off response: {url}");
            }
            let record = doc.get("explain").unwrap();
            if tick == 0 {
                // First sighting of this URL this run: a miss that
                // executed and therefore carries the cost pair.
                if let Some(cost) = record.get("cost") {
                    acc.absorb(cost);
                }
            }
            let hit = svc_on.dispatch(&Request::get(&url));
            if hit.body == reference.body {
                identical += 1;
            } else {
                mismatches += 1;
                eprintln!("recorder-on hit diverged from recorder-off response: {url}");
            }
        }
    }
    // The rogue tenant is part of the mix: both sides must reject it
    // identically, and its record must carry the admission snapshot but
    // no cost pair (nothing executed).
    let rogue_url = format!(
        "/v1/metrics?start={}&end={}&interval=1m&aggregation=mean&explain=true",
        rfc3339(0),
        rfc3339(now)
    );
    let rogue = svc_on.dispatch(&Request::get(&rogue_url).with_header("X-Tenant", "rogue"));
    assert_eq!(rogue.status, Status::TOO_MANY_REQUESTS, "rogue must be rejected");
    let rogue_doc = rogue.json_body().unwrap();
    let rogue_record = rogue_doc.get("explain").unwrap();
    assert_eq!(rogue_record.get("disposition").unwrap().as_str(), Some("rejected"));
    assert!(rogue_record.get("admission").is_some(), "429 record must carry admission snapshot");
    assert!(rogue_record.get("cost").is_none(), "429 must not pollute estimator accuracy");

    // The ring saw everything: drill the debug endpoint like an operator.
    let debug = svc_on.dispatch(&Request::get("/debug/requests?disposition=miss&limit=500"));
    assert_eq!(debug.status, Status::OK);
    let debug_doc = debug.json_body().unwrap();
    let recorded_total = debug_doc.get("recorded_total").unwrap().as_i64().unwrap();
    let listed_misses = debug_doc.get("requests").unwrap().as_array().unwrap().len();
    assert!(recorded_total as usize >= envelopes, "ring lost records");
    assert!(listed_misses >= panels.len(), "every first-tick panel was a miss");

    // --- phase B: recorder overhead per request --------------------------
    // Numerator over denominator, each measured where it is measurable
    // (module docs). Every request in the mix is a cache hit on both
    // sides, so the delta is exactly the recorder's hit-path work (two
    // clock reads + one locked ring-slot overwrite), never execution
    // noise; no writes land during this phase, so sliding windows stay
    // valid.
    let probe_reqs: Vec<Request> = panels.iter().map(|p| Request::get(&p.url(now))).collect();
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        percentile(v, 0.50)
    };

    // Denominator: socket round trips against the recorder-off server,
    // the median of the segments' p50s.
    let server_off = Server::spawn(0, service(&db_off, &nodes, false, admission)).unwrap();
    let mut client_off = PersistentClient::new(server_off.addr(), Client::new());
    let mut socket = |req: &Request| client_off.send(req).expect("socket request");
    let (warmup, per_segment, segments) = (24, 12, 12);
    trial(&probe_reqs, warmup, &mut socket);
    let mut p50s_off: Vec<f64> = (0..segments)
        .map(|_| percentile(&trial(&probe_reqs, per_segment, &mut socket), 0.50))
        .collect();
    let p50_off = median(&mut p50s_off);

    // Numerator: in-process dispatch over fresh service instances sharing
    // the same dbs. Order-swapped paired windows, median of per-pair p50
    // deltas, minimum over independent reps: interference (IRQs,
    // preemption, frequency transitions) only ever adds latency, so the
    // smallest measured delta is the closest to the intrinsic cost.
    let probe_on = service(&db_on, &nodes, true, admission);
    let probe_off = service(&db_off, &nodes, false, admission);
    let window = |svc: &Router, rounds| trial(&probe_reqs, rounds, |req| svc.dispatch(req));
    let (rounds, pairs, reps) = (100, 24, 6);
    window(&probe_on, warmup);
    window(&probe_off, warmup);
    let mut rep_deltas = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut deltas = Vec::with_capacity(pairs);
        for pair in 0..pairs {
            let (on, off) = if pair % 2 == 0 {
                let on = window(&probe_on, rounds);
                (on, window(&probe_off, rounds))
            } else {
                let off = window(&probe_off, rounds);
                (window(&probe_on, rounds), off)
            };
            deltas.push(percentile(&on, 0.50) - percentile(&off, 0.50));
        }
        rep_deltas.push(median(&mut deltas));
    }
    let delta_us = rep_deltas.iter().copied().fold(f64::INFINITY, f64::min);
    let overhead = delta_us / p50_off;

    // --- phase C: estimator-accuracy gate ---------------------------------
    let (r_secs, r_points, r_bytes, r_blocks) = acc.ratios();

    println!("== query observe ({} panels, {ticks} tick(s)) ==", panels.len());
    println!(
        "identity: {identical}/{} responses byte-identical recorder-on vs off \
         ({envelopes} explain envelopes opened, {mismatches} mismatches)",
        identical + mismatches
    );
    println!(
        "overhead: recorder adds {:.0}ns per request (in-process paired delta, \
         best of {reps} reps {:?}ns) = {:+.2}% of the {p50_off:.2}us socket p50 \
         ({:.0}% gate)",
        delta_us * 1000.0,
        rep_deltas.iter().map(|d| (d * 1000.0).round() as i64).collect::<Vec<_>>(),
        overhead * 100.0,
        OVERHEAD_GATE * 100.0
    );
    println!(
        "estimator: actual/estimated over {} executed requests — \
         seconds {r_secs:.3}x, points {r_points:.3}x, bytes {r_bytes:.3}x, \
         blocks {r_blocks:.3}x",
        acc.requests
    );

    let doc = jobj! {
        "bench" => "query_observe",
        "panels" => panels.len() as i64,
        "ticks" => ticks as i64,
        "identity" => jobj! {
            "responses_compared" => (identical + mismatches) as i64,
            "explain_envelopes" => envelopes as i64,
            "mismatches" => mismatches as i64,
        },
        "overhead" => jobj! {
            "gate_fraction" => OVERHEAD_GATE,
            "mix_urls" => probe_reqs.len() as i64,
        },
        "estimator" => jobj! {
            "executed_requests" => acc.requests as i64,
            "ratio" => jobj! {
                "seconds" => r_secs,
                "points" => r_points,
                "bytes" => r_bytes,
                "blocks" => r_blocks,
            },
            "gate" => jobj! { "lo" => 0.5, "hi" => 2.0 },
        },
        "recorder" => jobj! {
            "recorded_total" => recorded_total,
            "misses_listed" => listed_misses as i64,
        },
    };
    report::finish("BENCH_observe.json", &doc);

    // Acceptance bars.
    assert_eq!(mismatches, 0, "observability changed response bytes");
    assert!(
        overhead < OVERHEAD_GATE,
        "recorder p50 overhead {:.2}% over the {:.0}% gate \
         ({:.0}ns per request against a {p50_off:.2}us socket p50)",
        overhead * 100.0,
        OVERHEAD_GATE * 100.0,
        delta_us * 1000.0
    );
    for (stage, ratio) in [("seconds", r_secs), ("points", r_points), ("bytes", r_bytes)] {
        assert!(
            (0.5..=2.0).contains(&ratio),
            "estimator {stage} ratio {ratio:.3}x outside [0.5, 2.0] — \
             admission decisions are running on a broken model"
        );
    }
}

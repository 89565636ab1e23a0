//! Flight-recorder gate: what does per-request observability cost, and
//! does the cost model deserve to gate admission? Its golden is
//! `BENCH_observe.json`: the identity and estimator sections, which are a
//! function of the code. The overhead is a wall-clock reading with a bar
//! that only the `gate` binary holds, not committed; what a request costs
//! over the socket is `bench_pipeline`'s `http.request_ms`.
//!
//! Three phases over the shared dashboard-storm mix (`storm` module), one
//! database and one service:
//!
//! * **A — byte identity.** The panel URLs are replayed tick by tick, each
//!   first with `?explain=true` and then plain. Every envelope must carry
//!   in `payload_base64` exactly the bytes (and the status) the plain
//!   request is answered with. Observability must never change what
//!   callers see.
//! * **B — overhead.** The recorder's own work for one request — a
//!   `Draft`, a `LapClock` started, lapped and finished, one
//!   `QueryRecorder::record` — timed bare in a tight loop, over the socket
//!   p50 round trip of the same warm mix (`Server::spawn` +
//!   `PersistentClient` — what a dashboard actually pays per request).
//!   There is no service without the recorder to subtract, and two
//!   services differ by ±1–3% run to run from code/heap layout alone, an
//!   order of magnitude above the ~0.1 µs under test: the work is measured
//!   where it is done.
//! * **C — estimator accuracy.** Every executed (miss) request records
//!   planned `QueryCost` next to measured actual; the ratios
//!   actual/estimated per component come back through the explain
//!   envelope and `/debug/requests`. The admission-relevant components
//!   (modelled seconds, points, bytes) must aggregate within
//!   [0.5, 2.0]x on the storm mix — outside that band, the admission
//!   controller is rejecting or admitting on fiction.

use super::{Outcome, Wall};
use crate::storm::{
    self, catalog, rfc3339, sample_batch, seeded_db, HISTORY_SECS, NODES, TICK_SECS,
};
use monster_builder::qlog::{
    base64_decode, CacheVerdict, Disposition, Draft, LapClock, QueryRecorder, Stage, RATIO_STAGES,
    RING_CAPACITY, SLOW_MS,
};
use monster_builder::service::{router, ServiceConfig};
use monster_builder::ExecMode;
use monster_http::{Client, PersistentClient, Request, Response, Server, Status};
use monster_json::{jobj, Value};
use monster_obs::{SpanId, TraceId};
use monster_util::stats::percentile;
use monster_util::NodeId;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The recorder's per-request cost as a share of a socket round trip.
const OVERHEAD_GATE: f64 = 0.01;

/// Estimated and actual cost summed over the executed requests, one entry
/// a `RATIO_STAGES` dimension.
#[derive(Default)]
struct Accuracy {
    requests: u64,
    estimated: [f64; 4],
    actual: [f64; 4],
}

impl Accuracy {
    fn absorb(&mut self, cost: &Value) {
        let num = |v: &Value, k: &str| {
            v.get(k).and_then(|x| x.as_f64().or(x.as_i64().map(|i| i as f64))).unwrap_or(0.0)
        };
        self.requests += 1;
        for (side, sums) in [("estimated", &mut self.estimated), ("actual", &mut self.actual)] {
            let counts = cost.get(side).unwrap();
            sums[0] += num(cost, &format!("{side}_modelled_ms"));
            for (sum, dimension) in sums[1..].iter_mut().zip(&RATIO_STAGES[1..]) {
                *sum += num(counts, dimension);
            }
        }
    }

    /// Aggregate actual over estimated, per dimension.
    fn ratios(&self) -> [f64; 4] {
        let (act, est) = (self.actual, self.estimated);
        std::array::from_fn(|i| if est[i] > 0.0 { act[i] / est[i] } else { f64::NAN })
    }
}

/// What recording one hit costs, bare: the draft, the clock's two reads
/// and the ring write of the service's recorder (`RING_CAPACITY` slots,
/// `SLOW_MS`), nanoseconds a request — the fastest of `windows` timed loops
/// (interference only ever adds).
fn recorder_probe_ns(key: &str, windows: usize, per_window: u64) -> f64 {
    let recorder = QueryRecorder::new(RING_CAPACITY, SLOW_MS);
    let window = |n: u64| {
        let t = Instant::now();
        for i in 0..n {
            let mut clock = LapClock::start();
            let mut d = Draft::new(black_box(key), "anonymous", TraceId(i as u128 + 1), SpanId(7));
            d.record.disposition = Disposition::Hit;
            d.record.verdict = CacheVerdict::Valid;
            d.record.status = 200;
            clock.lap(Stage::Cache);
            (d.record.stages_ns, d.record.total_ns) = clock.finish();
            d.record.bytes_out = 40_000;
            black_box(recorder.record(&d));
        }
        t.elapsed().as_secs_f64() * 1e9 / n as f64
    };
    window(per_window); // warm
    (0..windows).map(|_| window(per_window)).fold(f64::INFINITY, f64::min)
}

/// `rounds` passes over the whole warm panel mix through `send`; returns
/// the per-request latencies in microseconds.
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
    us
}

pub fn run() -> Outcome {
    let nodes = NodeId::enumerate(NODES, 4);
    let panels = catalog();
    let (db, _) = seeded_db(&nodes);

    // Same admission derivation as dashboard_storm, so the mix includes
    // charged (non-cheap) executions — the estimates admission acts on.
    let mut now = HISTORY_SECS;
    let (admission, _) = storm::admission(&db, &nodes, now);
    let svc = router(
        Arc::clone(&db),
        nodes.to_vec(),
        ServiceConfig { exec: ExecMode::Sequential, admission, ..ServiceConfig::default() },
    );

    // --- phase A: byte identity + estimator harvest -----------------------
    let ticks = 4;
    let mut mismatches = 0usize;
    let mut envelopes = 0usize;
    let mut acc = Accuracy::default();
    for tick in 0..ticks {
        db.write_batch(&sample_batch(&nodes, now, now + TICK_SECS)).unwrap();
        now += TICK_SECS;
        for panel in &panels {
            let url = panel.url(now);
            // The request inside an explain envelope first — a miss on a
            // window this tick moved — then plain.
            let wrapped = svc.dispatch(&Request::get(&format!("{url}&explain=true")));
            assert_eq!(wrapped.status, Status::OK, "explain {url}");
            let plain = svc.dispatch(&Request::get(&url));
            let doc = wrapped.json_body().expect("explain envelope");
            let payload =
                base64_decode(doc.get("payload_base64").unwrap().as_str().unwrap()).unwrap();
            envelopes += 1;
            if plain.status != wrapped.status || payload != plain.body.to_vec() {
                mismatches += 1;
                eprintln!("explain payload diverged from the plain response: {url}");
            }
            if tick == 0 {
                // First sighting of this URL this run: a miss that
                // executed and therefore carries the cost pair.
                if let Some(cost) = doc.get("explain").unwrap().get("cost") {
                    acc.absorb(cost);
                }
            }
        }
    }
    // The rogue tenant is part of the mix: its record must carry the
    // admission snapshot but no cost pair (nothing executed).
    let rogue_url = format!(
        "/v1/metrics?start={}&end={}&interval=1m&aggregation=mean&explain=true",
        rfc3339(0),
        rfc3339(now)
    );
    let rogue = svc.dispatch(&Request::get(&rogue_url).with_header("X-Tenant", "rogue"));
    assert_eq!(rogue.status, Status::TOO_MANY_REQUESTS, "rogue must be rejected");
    let rogue_doc = rogue.json_body().unwrap();
    let rogue_record = rogue_doc.get("explain").unwrap();
    assert_eq!(rogue_record.get("disposition").unwrap().as_str(), Some("rejected"));
    assert!(rogue_record.get("admission").is_some(), "429 record must carry admission snapshot");
    assert!(rogue_record.get("cost").is_none(), "429 must not pollute estimator accuracy");

    // The ring saw everything: drill the debug endpoint like an operator.
    let debug = svc.dispatch(&Request::get("/debug/requests?disposition=miss&limit=500"));
    assert_eq!(debug.status, Status::OK);
    let debug_doc = debug.json_body().unwrap();
    let recorded_total = debug_doc.get("recorded_total").unwrap().as_i64().unwrap();
    let listed_misses = debug_doc.get("requests").unwrap().as_array().unwrap().len();
    assert_eq!(recorded_total as usize, 2 * envelopes + 1, "one record a request");
    assert!(listed_misses >= panels.len(), "every first-tick panel was a miss");

    // --- phase B: recorder overhead per request --------------------------
    // Numerator over denominator (module docs). Every request in the mix
    // is a cache hit — what the probe's record is shaped like — and no
    // writes land during this phase, so sliding windows stay valid.
    let probe_reqs: Vec<Request> = panels.iter().map(|p| Request::get(&p.url(now))).collect();
    let server = Server::spawn(0, svc).unwrap();
    let mut client = PersistentClient::new(server.addr(), Client::new());
    let mut socket = |req: &Request| client.send(req).expect("socket request");
    trial(&probe_reqs, 24, &mut socket); // warm
    let p50_us = percentile(&trial(&probe_reqs, 144, &mut socket), 0.50);
    let record_ns = recorder_probe_ns(&panels[0].url(now), 9, 200_000);
    let overhead = record_ns / (p50_us * 1000.0);

    // --- phase C: estimator-accuracy gate ---------------------------------
    let ratios = acc.ratios();
    assert_eq!(mismatches, 0, "observability changed response bytes");
    // The dimensions admission prices; block counts are not one.
    for (stage, ratio) in RATIO_STAGES.iter().zip(ratios).take(3) {
        assert!(
            (0.5..=2.0).contains(&ratio),
            "estimator {stage} ratio {ratio:.3}x outside [0.5, 2.0] — \
             admission decisions are running on a broken model"
        );
    }

    let doc = jobj! {
        "bench" => "query_observe",
        "panels" => panels.len() as i64,
        "ticks" => ticks as i64,
        "identity" => jobj! {
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
                "seconds" => ratios[0],
                "points" => ratios[1],
                "bytes" => ratios[2],
                "blocks" => ratios[3],
            },
            "gate" => jobj! { "lo" => 0.5, "hi" => 2.0 },
        },
        "recorder" => jobj! {
            "recorded_total" => recorded_total,
            "misses_listed" => listed_misses as i64,
        },
    };
    let reading = format!(
        "overhead: recording a request costs {record_ns:.0}ns (bare probe) = {:.2}% of the \
         {p50_us:.2}us socket p50 ({:.0}% bar)",
        overhead * 100.0,
        OVERHEAD_GATE * 100.0
    );
    Outcome { doc, walls: vec![Wall { reading, held: overhead < OVERHEAD_GATE }] }
}

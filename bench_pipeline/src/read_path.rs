//! `dash_cold` and `dash_warm`: the read path alone, over real sockets,
//! against six hours of 467-node history that nothing writes to.
//!
//! `dash_cold` never repeats a URL, so every request executes: `tsdb`
//! scans, `builder` plan and execution, `json` and `compress` do the
//! work; cache and socket cost are noise. `dash_warm` asks for 32 primed
//! URLs over and over, so every request is a cache hit on a 0.04–6 MB
//! body: `http` and `builder::cache` do the work and `tsdb`, `json` and
//! `compress` none. Each is the other's bypass workload.

use crate::catalog::{balanced, popular, sliding, storm, Ask, Panel};
use crate::deploy::{service_config, Spec, INTERVAL_SECS};
use crate::meters::{cpu_seconds, median, peak_rss_mb, repeat_setup, TimedPart, Yardstick};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::outcome::Outcome;
use crate::rng::Rng;
use crate::spans::{Recorder, SpanId, ROOT};
use monster_builder::service::ServiceConfig;
use monster_builder::{build_plan, estimate_plan_cost, execute, ExecMode};
use monster_core::Monster;
use monster_http::{Client, Method, PersistentClient, Request, Response, Router, Server, Status};
use monster_sim::{DiskModel, NetModel};
use monster_tsdb::{Db, QueryCost};
use monster_util::{EpochSecs, NodeId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

pub struct Plan {
    pub nodes: usize,
    /// Bulk-loaded intervals behind the panels (360 = six hours).
    pub history: usize,
    /// Timed requests, on one closed-loop connection.
    ///
    /// One, not `nproc`: the service already spreads each execution over
    /// both cores (`ExecMode::Concurrent { workers: 8 }`), and with two
    /// requests in flight a request's latency is set by which shape the
    /// seed happens to run beside it (`dash_cold` p50 spread over ten
    /// seeds 20 % against 10 %), or by how often two 6 MB bodies share the
    /// wire (`dash_warm` p99).
    pub requests: usize,
    /// `dash_warm` when set, `dash_cold` otherwise.
    pub warm: bool,
}

impl Plan {
    /// Cold requests take 0.1–0.7 s each, about 4 a second, in whole
    /// rounds of the 24 shapes so that the mix is the same for every seed.
    pub fn cold(seconds: u64) -> Plan {
        Plan {
            nodes: crate::deploy::PAPER_NODES,
            history: 360,
            requests: (5 * seconds as usize / 24).max(1) * 24,
            warm: false,
        }
    }

    /// Hits take 0.05–5 ms each with the body size: about 1 000 a second.
    pub fn warm(seconds: u64) -> Plan {
        Plan { requests: 1_000 * seconds as usize, warm: true, ..Plan::cold(seconds) }
    }

    /// The traced runs replay every request, so they send fewer.
    pub fn traced(self) -> Plan {
        let requests = if self.warm { self.requests / 10 } else { (self.requests / 4).max(12) };
        Plan { requests, ..self }
    }

    fn spec(&self, seed: u64) -> Spec {
        Spec {
            seed,
            nodes: self.nodes,
            disk: DiskModel::SSD,
            data_dir: None,
            horizon_intervals: self.history,
        }
    }

    fn panels(&self) -> Vec<Panel> {
        if self.warm {
            storm()
        } else {
            sliding()
        }
    }
}

/// A deployment with history, its service configuration, and the service
/// listening on a socket.
pub struct Serving {
    pub m: Monster,
    pub config: ServiceConfig,
    pub dearest_secs: f64,
    pub server: Server,
    /// The router behind `server` when the traced run shares it.
    pub shared: Option<Arc<Router>>,
    pub history_start: EpochSecs,
}

impl Serving {
    /// `yard` is marked every half hour of history loaded.
    pub fn new(
        spec: &Spec,
        history: usize,
        panels: &[Panel],
        share_router: bool,
        yard: &mut Yardstick,
    ) -> Serving {
        let mut m = spec.monster();
        let history_start = m.now();
        load_history(&mut m, history, yard);
        let nodes = m.node_ids();
        let (config, dearest_secs) = service_config(m.db(), &nodes, history_start, m.now(), panels);
        let router = service_router(m.db(), &nodes, &config);
        let (server, shared) = if share_router {
            let shared = Arc::new(router);
            (spawn_forwarding(Arc::clone(&shared)), Some(shared))
        } else {
            (Server::spawn(0, router).expect("bind 127.0.0.1:0"), None)
        };
        Serving { m, config, dearest_secs, server, shared, history_start }
    }
}

/// Bulk-load `intervals` of history, marking `yard` every half hour.
pub fn load_history(m: &mut Monster, intervals: usize, yard: &mut Yardstick) {
    let mut left = intervals;
    while left > 0 {
        yard.mark();
        m.run_intervals_bulk(left.min(30));
        left -= left.min(30);
    }
}

pub fn service_router(db: &Arc<Db>, nodes: &[NodeId], config: &ServiceConfig) -> Router {
    monster_builder::service::router(Arc::clone(db), nodes.to_vec(), config.clone())
}

/// A server that hands every request to `router`, which the caller can
/// then also dispatch on in-process: the traced run probes the very cache
/// the socket is served from. Only traced runs pay the extra hop.
pub fn spawn_forwarding(router: Arc<Router>) -> Server {
    let front = Router::new().route(Method::Get, "/*rest", move |req, _| router.dispatch(req));
    Server::spawn(0, front).expect("bind 127.0.0.1:0")
}

/// A kept-alive connection with its handshake behind it.
pub fn connect(addr: SocketAddr) -> PersistentClient {
    let mut client = PersistentClient::new(addr, Client::new());
    let hello = client.send(&Request::get("/v1/nodes")).expect("first exchange");
    assert_eq!(hello.status, Status::OK);
    client
}

/// How the service answered, from `X-Cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    Hit,
    Miss,
    Coalesced,
    /// No `200`: an error, a refusal (`429`/`503`) or a timeout.
    Failed,
}

/// One timed exchange.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub ms: f64,
    /// The sending thread's yardstick mark before the exchange (0 when
    /// the exchange is a check, outside any timed part).
    pub mark: usize,
    pub bytes: usize,
    pub served: Served,
}

/// Send `req` and time it from the first byte out to the parsed reply.
pub fn exchange(client: &mut PersistentClient, req: &Request) -> (Reply, Option<Response>) {
    let t = Instant::now();
    let resp = client.send(req);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let served = match &resp {
        Ok(r) if r.status == Status::OK => match r.headers.get("X-Cache") {
            Some("hit") => Served::Hit,
            Some("coalesced") => Served::Coalesced,
            _ => Served::Miss,
        },
        _ => Served::Failed,
    };
    let resp = resp.ok();
    (Reply { ms, mark: 0, bytes: resp.as_ref().map_or(0, |r| r.body.len()), served }, resp)
}

/// The closed loop: send `asks` one after the other, marking the
/// yardstick before every `mark_every`-th. Returns the replies and the
/// wall time from the first request to the last reply.
fn drive(
    client: &mut PersistentClient,
    yard: &mut Yardstick,
    asks: &[Ask],
    mark_every: usize,
) -> (Vec<Reply>, f64) {
    let requests: Vec<Request> = asks.iter().map(|a| Request::get(&a.url())).collect();
    let mut replies = Vec::with_capacity(requests.len());
    let mut mark = 0;
    let started = Instant::now();
    for (i, req) in requests.iter().enumerate() {
        if i % mark_every == 0 {
            mark = yard.mark();
        }
        replies.push(Reply { mark, ..exchange(client, req).0 });
    }
    (replies, started.elapsed().as_secs_f64())
}

/// The requests of the timed part, over history that starts at
/// `history_start` and ends `now`.
pub fn sequence(plan: &Plan, seed: u64, history_start: EpochSecs, now: EpochSecs) -> Vec<Ask> {
    if plan.warm {
        let panels = storm();
        let mut rng = Rng::new(seed, "warm-requests");
        (0..plan.requests)
            .map(|_| {
                let panel = panels[popular(&mut rng, panels.len())];
                Ask::new(panel, history_start, now, rng.below(2) == 1)
            })
            .collect()
    } else {
        // Every request ends at its own second, so no URL repeats.
        let mut offsets: Vec<i64> = (1..=plan.requests as i64).collect();
        Rng::new(seed, "cold-ends").shuffle(&mut offsets);
        balanced(&mut Rng::new(seed, "cold-requests"), &sliding(), plan.requests)
            .into_iter()
            .zip(offsets)
            .map(|((panel, compress), offset)| {
                Ask::new(panel, history_start, now - offset, compress)
            })
            .collect()
    }
}

/// The 32 URLs `dash_warm` serves: every storm panel, plain and compressed.
fn warm_urls(s: &Serving) -> Vec<Ask> {
    storm()
        .into_iter()
        .flat_map(|p| [false, true].map(|c| Ask::new(p, s.history_start, s.m.now(), c)))
        .collect()
}

/// Ask for every URL once so that the timed part only hits; the body
/// length each URL must keep returning.
fn prime(
    client: &mut PersistentClient,
    yard: &mut Yardstick,
    urls: &[Ask],
) -> BTreeMap<String, usize> {
    let (replies, _) = drive(client, yard, urls, 1);
    urls.iter()
        .zip(&replies)
        .map(|(ask, reply)| {
            assert_eq!(reply.served, Served::Miss, "priming {} must execute", ask.url());
            (ask.url(), reply.bytes)
        })
        .collect()
}

/// The reply to `ask` must decode to the bytes `Monster::builder_respond`
/// returns for the same request, and must come from the cache entry the
/// timed part was served from.
fn check_against_library(
    out: &mut Outcome,
    s: &Serving,
    client: &mut PersistentClient,
    ask: &Ask,
    expect_bytes: usize,
) {
    let (reply, resp) = exchange(client, &Request::get(&ask.url()));
    let body = resp.and_then(|r| r.decoded_body().ok()).unwrap_or_default();
    let mut plain = ask.request();
    plain.compress = false;
    let reference =
        s.m.builder_respond(&plain, ExecMode::Sequential, &NetModel::GIGABIT_LAN)
            .expect("reference execution")
            .body;
    out.check(
        reply.served == Served::Hit && reply.bytes == expect_bytes && body == reference,
        format!(
            "{} {} B decodes to the library's {} B ({:?}, timed reply {} B)",
            ask.url(),
            reply.bytes,
            reference.len(),
            reply.served,
            expect_bytes
        ),
    );
}

pub fn run(plan: &Plan, seed: u64) -> Outcome {
    let mut out = Outcome::new(END_TO_END);
    let panels = plan.panels();
    let mut yard = Yardstick::new();
    // One set-up per run: it is seconds of loading and priming, marked
    // throughout, and a second one would cost more than the timed part.
    let ((s, mut client, primed), setup_s) = repeat_setup(1, &mut yard, |_, yard| {
        let s = Serving::new(&plan.spec(seed), plan.history, &panels, false, yard);
        let mut client = connect(s.server.addr());
        let primed =
            if plan.warm { prime(&mut client, yard, &warm_urls(&s)) } else { BTreeMap::new() };
        (s, client, primed)
    });
    let asks = sequence(plan, seed, s.history_start, s.m.now());

    let from = yard.marks_ns.len();
    let cpu_before = cpu_seconds();
    // A hit takes about as long as a mark, so hits share one among 16.
    let (replies, wall_s) = drive(&mut client, &mut yard, &asks, if plan.warm { 16 } else { 1 });
    let cpu_s = cpu_seconds() - cpu_before;
    let peak_rss_mb = peak_rss_mb();

    let expected = if plan.warm { Served::Hit } else { Served::Miss };
    let bad = asks
        .iter()
        .zip(&replies)
        .filter(|(ask, reply)| {
            reply.served != expected
                || primed.get(&ask.url()).is_some_and(|&bytes| bytes != reply.bytes)
        })
        .count();
    out.ops(replies.len(), bad);
    let answered = || replies.iter().filter(|r| r.served != Served::Failed);
    let part = TimedPart {
        calibrated_ms: answered().map(|r| yard.calibrate(r.ms, r.mark)).collect(),
        wall_ms: answered().map(|r| r.ms).collect(),
        slowness: Yardstick::slowness_of(&yard.marks_ns[from..]),
        wall_s,
        cpu_s,
        sink_bytes: replies.iter().map(|r| r.bytes).sum::<usize>() as f64,
        peak_rss_mb,
    };

    // Byte-compare one reply per panel shape with the library, from the
    // cache entries the timed part filled or hit; plain and compressed
    // shapes alternate so that both encodings are covered.
    for (k, panel) in panels.iter().enumerate() {
        let of_shape = |compress: Option<bool>| {
            asks.iter()
                .zip(&replies)
                .rev()
                .find(|(a, _)| a.panel == *panel && compress.is_none_or(|c| a.compress == c))
        };
        if let Some((ask, reply)) = of_shape(Some(k % 2 == 1)).or_else(|| of_shape(None)) {
            check_against_library(&mut out, &s, &mut client, ask, reply.bytes);
        }
    }

    out.note(format!(
        "sizes: nodes={} history_intervals={} connections=1 requests={} urls={} cheap_secs={:.3} (2 x dearest panel {:.3} s modelled) exec={:?}",
        plan.nodes,
        plan.history,
        replies.len(),
        if plan.warm { primed.len() } else { replies.len() },
        s.config.admission.cheap_secs,
        s.dearest_secs,
        s.config.exec,
    ));
    out.end_to_end("GET /v1/metrics over the socket", setup_s, &part);
    out
}

/// What the stage-by-stage replay of one request counted.
#[derive(Default, Clone, Copy)]
pub struct StageCounts {
    pub plan_queries: usize,
    pub cost: QueryCost,
    pub modelled_s: f64,
    pub json_bytes: usize,
    pub deflated_bytes: Option<usize>,
}

/// What the replay needs to reach the layers below the router.
pub struct Layers<'a> {
    pub db: &'a Arc<Db>,
    pub nodes: &'a [NodeId],
    pub config: &'a ServiceConfig,
    /// A router that has never seen the replayed URLs.
    pub fresh: &'a Router,
}

/// What a socket request costs around the service, as probes of its span
/// `root`: the request parse, `Router::dispatch` in-process under the name
/// `dispatch`, and the reply's wire copy. Returns the dispatch span, for
/// its own probes to hang from, and the in-process reply.
fn replay_front(
    rec: &mut Recorder,
    root: SpanId,
    op: u32,
    req: &Request,
    router: &Router,
    dispatch: &'static str,
) -> (SpanId, Response) {
    let raw = req.clone().keep_alive().to_bytes();
    rec.probe("http.parse", root, op, || black_box(monster_http::parse_request(&raw)).is_ok());
    let id = rec.open_probe(dispatch, root, op);
    let reply = router.dispatch(req);
    rec.close(id);
    rec.probe("http.serialize", root, op, || black_box(reply.to_bytes_keep_alive()).len());
    (id, reply)
}

/// Replay `ask`, already answered over the socket inside `root`, one level
/// down at a time: the request parse, `Router::dispatch` in-process on a
/// router that has not seen the URL, the reply's wire copy; then inside
/// the dispatch its stages as the service calls them; then inside the
/// execution its TSDB queries. Returns the in-process reply too.
pub fn replay_miss(
    rec: &mut Recorder,
    root: SpanId,
    op: u32,
    ask: &Ask,
    l: &Layers<'_>,
) -> (StageCounts, Response) {
    let req = Request::get(&ask.url());
    let (dispatch, reply) = replay_front(rec, root, op, &req, l.fresh, "builder.dispatch_miss");

    let breq = ask.request();
    let plan =
        rec.probe("builder.plan", dispatch, op, || build_plan(l.config.schema, l.nodes, &breq));
    rec.probe("builder.estimate", dispatch, op, || {
        black_box(l.db.simulate_elapsed(&estimate_plan_cost(l.db, &plan)))
    });
    let exec = rec.open_probe("builder.execute", dispatch, op);
    let outcome = execute(l.db, &plan, l.config.exec).expect("plan over own schema");
    rec.close(exec);
    let json = rec.probe("json.encode", dispatch, op, || outcome.document.to_string_compact());
    let deflated_bytes = ask.compress.then(|| {
        rec.probe("compress.deflate", dispatch, op, || {
            monster_compress::compress(json.as_bytes(), l.config.level).len()
        })
    });
    rec.probe("tsdb.query", exec, op, || {
        for pq in &plan {
            black_box(l.db.query(&pq.query).expect("planned query"));
        }
    });
    rec.probe("builder.execute_seq", ROOT, op, || {
        black_box(execute(l.db, &plan, ExecMode::Sequential).expect("plan over own schema"));
    });
    let counts = StageCounts {
        plan_queries: plan.len(),
        cost: outcome.cost,
        modelled_s: l.db.simulate_elapsed(&outcome.cost).as_secs_f64(),
        json_bytes: json.len(),
        deflated_bytes,
    };
    (counts, reply)
}

/// Fill the read-path metrics from the spans and counts of the replays.
pub fn report_read_path(out: &mut Outcome, rec: &Recorder, counts: &[StageCounts]) {
    let med = |name: &str| median(&rec.durations_ms(name));
    let r = &mut out.report;
    r.set("http.request_ms", med("http.request"));
    r.set("http.parse_us", med("http.parse") * 1e3);
    r.set("http.serialize_us", med("http.serialize") * 1e3);
    r.set("http.socket_overhead_us", median(&rec.self_ms("http.request")) * 1e3);
    r.set("builder.dispatch_hit_us", med("builder.dispatch_hit") * 1e3);
    if counts.is_empty() {
        return;
    }
    let mean =
        |f: &dyn Fn(&StageCounts) -> f64| counts.iter().map(f).sum::<f64>() / counts.len() as f64;
    let queries = mean(&|c| c.plan_queries as f64);
    r.set("builder.dispatch_miss_ms", med("builder.dispatch_miss"));
    r.set("builder.dispatch_other_ms", median(&rec.self_ms("builder.dispatch_miss")));
    r.set("builder.plan_ms", med("builder.plan"));
    r.set("builder.plan_queries", queries);
    r.set("builder.estimate_ms", med("builder.estimate"));
    r.set("builder.execute_ms", med("builder.execute"));
    r.set("builder.execute_self_ms", median(&rec.self_ms("builder.execute")));
    r.set("builder.execute_seq_ms", med("builder.execute_seq"));
    r.set("tsdb.query_ms", med("tsdb.query"));
    r.set("tsdb.query_us_per_query", med("tsdb.query") * 1e3 / queries);
    r.set("tsdb.query_points", mean(&|c| c.cost.points as f64));
    r.set("tsdb.query_blocks_decoded", mean(&|c| c.cost.blocks as f64));
    r.set("tsdb.query_blocks_summarized", mean(&|c| c.cost.blocks_summarized as f64));
    r.set("tsdb.query_bytes", mean(&|c| c.cost.bytes as f64));
    r.set("tsdb.query_modelled_s", mean(&|c| c.modelled_s));
    let json_bytes: f64 = counts.iter().map(|c| c.json_bytes as f64).sum();
    let encode_s: f64 = rec.durations_ms("json.encode").iter().sum::<f64>() / 1e3;
    r.set("json.encode_ms", med("json.encode"));
    r.set("json.encode_mb_per_s", json_bytes / 1e6 / encode_s);
    r.set("json.bytes_mean", json_bytes / counts.len() as f64);
    let deflated: Vec<&StageCounts> =
        counts.iter().filter(|c| c.deflated_bytes.is_some()).collect();
    if !deflated.is_empty() {
        let raw: f64 = deflated.iter().map(|c| c.json_bytes as f64).sum();
        let packed: f64 = deflated.iter().map(|c| c.deflated_bytes.unwrap_or(0) as f64).sum();
        let deflate_s: f64 = rec.durations_ms("compress.deflate").iter().sum::<f64>() / 1e3;
        r.set("compress.deflate_ms", med("compress.deflate"));
        r.set("compress.deflate_mb_per_s", raw / 1e6 / deflate_s);
        r.set("compress.ratio", packed / raw);
    }
}

/// Cache dispositions of the traced run's socket replies.
pub fn report_dispositions(out: &mut Outcome, replies: &[Reply]) {
    let count = |s: Served| replies.iter().filter(|r| r.served == s).count() as f64;
    out.report.set("builder.cache_hit_ratio", count(Served::Hit) / replies.len().max(1) as f64);
    out.report.set("builder.cache_coalesced", count(Served::Coalesced));
    out.report.set("builder.admission_rejected", count(Served::Failed));
}

/// One `GET /metrics` over the socket: self-monitoring must stay cheap.
pub fn scrape(out: &mut Outcome, client: &mut PersistentClient) {
    let (reply, resp) = exchange(client, &Request::get("/metrics"));
    out.check(resp.is_some_and(|r| r.status == Status::OK), "GET /metrics answers".to_string());
    out.report.set("obs.scrape_ms", reply.ms);
    out.report.set("obs.scrape_bytes", reply.bytes as f64);
}

/// Median over paired samples of `traced ÷ untraced − 1`.
fn paired_overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    let ratios: Vec<f64> = untraced.iter().zip(traced).map(|(u, t)| t / u - 1.0).collect();
    median(&ratios)
}

/// The per-layer run: a reference sequence with no spans, then a twin
/// sequence of the same shapes in which every request is a root span and
/// is replayed level by level.
pub fn run_traced(plan: &Plan, seed: u64, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::new(PER_LAYER);
    // Per-layer metrics are wall time: the marks go nowhere.
    let mut yard = Yardstick::new();
    let s = Serving::new(&plan.spec(seed), plan.history, &plan.panels(), true, &mut yard);
    let shared = Arc::clone(s.shared.as_ref().expect("traced runs share the router"));
    let client = &mut connect(s.server.addr());
    let nodes = s.m.node_ids();
    let fresh = service_router(s.m.db(), &nodes, &s.config);
    let layers = Layers { db: s.m.db(), nodes: &nodes, config: &s.config, fresh: &fresh };

    // Two sequences of the same shapes: the reference and its traced twin.
    // Cold twins end over a minute earlier, so that neither URL has been seen.
    let reference = sequence(plan, seed, s.history_start, s.m.now());
    let twins: Vec<Ask> = if plan.warm {
        prime(client, &mut yard, &warm_urls(&s));
        reference.clone()
    } else {
        reference
            .iter()
            .map(|a| Ask { end: a.end - plan.requests as i64 - INTERVAL_SECS, ..*a })
            .collect()
    };

    // Reference and twins take turns, a block of each at a time (one cold
    // request, fifty hits), so that a slow minute on the host falls on
    // both and their paired difference is the cost of recording a span.
    // The replays come after, as detached children of the twins' spans:
    // done in between, they would evict the bodies the next hit reads.
    let block = if plan.warm { 50 } else { 1 };
    let mut replies = Vec::with_capacity(2 * twins.len());
    let mut untraced_ms = Vec::with_capacity(twins.len());
    let mut answered = Vec::with_capacity(twins.len());
    for from in (0..twins.len()).step_by(block) {
        let to = (from + block).min(twins.len());
        for ask in &reference[from..to] {
            let (reply, _) = exchange(client, &Request::get(&ask.url()));
            untraced_ms.push(reply.ms);
            replies.push(reply);
        }
        for (op, ask) in twins.iter().enumerate().take(to).skip(from) {
            let req = Request::get(&ask.url());
            let root = rec.open("http.request", ROOT, op as u32);
            let (reply, resp) = exchange(client, &req);
            rec.close(root);
            replies.push(reply);
            // A thousand warm bodies would hold gigabytes: there the length
            // stands in for the bytes, which the untraced run compares.
            let body = resp.map(|r| (r.body.len(), (!plan.warm).then_some(r.body)));
            answered.push((root, req, body));
        }
    }
    let mut counts = Vec::new();
    let mut mismatched = 0;
    for (op, (ask, (root, req, socket))) in twins.iter().zip(&answered).enumerate() {
        let (op, root) = (op as u32, *root);
        let in_process = if plan.warm {
            replay_front(rec, root, op, req, &shared, "builder.dispatch_hit").1
        } else {
            let (c, reply) = replay_miss(rec, root, op, ask, &layers);
            counts.push(c);
            reply
        };
        let same = socket.as_ref().is_some_and(|(len, body)| {
            *len == in_process.body.len() && body.as_ref().is_none_or(|b| *b == in_process.body)
        });
        mismatched += usize::from(!same);
    }
    let expected = if plan.warm { Served::Hit } else { Served::Miss };
    out.ops(replies.len(), replies.iter().filter(|r| r.served != expected).count());
    out.check(
        mismatched == 0,
        format!("{mismatched} socket replies differ from the in-process dispatch of the same URL"),
    );

    report_read_path(&mut out, rec, &counts);
    report_dispositions(&mut out, &replies);
    if plan.warm {
        connect_cost(&mut out, &s, client, &twins[0]);
    }
    scrape(&mut out, client);

    let traced_ms = rec.durations_ms("http.request");
    let overhead = paired_overhead(&untraced_ms, &traced_ms);
    // On a hit the time outside the children is the socket layer itself
    // (`http.socket_overhead_us`), so coverage is only a gate on misses,
    // where it asks whether the stages explain the dispatch.
    let coverage = rec.coverage(if plan.warm { "http.request" } else { "builder.dispatch_miss" });
    out.report.set("trace.overhead_share", overhead);
    out.report.set("trace.coverage_share", coverage);
    out.note(format!(
        "sizes: nodes={} history_intervals={} connections=1 requests={} (reference) + {} (traced twins) cheap_secs={:.3}",
        plan.nodes,
        plan.history,
        reference.len(),
        twins.len(),
        s.config.admission.cheap_secs
    ));
    out.check(
        overhead.abs() <= 0.10,
        format!(
            "traced requests within 10% of their untraced twins (median of pairs {:+.2}%)",
            overhead * 100.0
        ),
    );
    if !plan.warm {
        out.check(
            coverage >= 0.90,
            format!("stages cover {:.1}% of the dispatch span", coverage * 100.0),
        );
    }
    out
}

/// `http.connect_us`: what a one-shot `Client::send` (connect, accept,
/// thread spawn) costs over a kept-alive connection, on the same hit.
fn connect_cost(out: &mut Outcome, s: &Serving, client: &mut PersistentClient, ask: &Ask) {
    let req = Request::get(&ask.url());
    let one_shot = Client::new();
    let (mut fresh_ms, mut kept_ms) = (Vec::new(), Vec::new());
    for _ in 0..30 {
        let t = Instant::now();
        let ok = one_shot.send(s.server.addr(), &req).is_ok_and(|r| r.status == Status::OK);
        fresh_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.ops(1, usize::from(!ok));
        kept_ms.push(exchange(client, &req).0.ms);
    }
    out.report.set("http.connect_us", (median(&fresh_ms) - median(&kept_ms)) * 1e3);
}

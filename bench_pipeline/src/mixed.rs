//! `mixed467_collect` and `mixed467_serve`: writes beside reads on one
//! `Db`. A writer thread runs collection intervals into a WAL-on
//! deployment while one reader connection asks for the storm mix; a
//! barrier per tick keeps the ratio of intervals to requests fixed.
//! Sliding panels end at the tick-start `now`, so each misses once per
//! tick; closed windows must stay cached through the appends. Watermark
//! validity, shard-lock wait between `write_batch` and scans, WAL fsync
//! beside reads and two cores shared three ways show here and nowhere
//! else.
//!
//! The two names are one process behaviour seen from its two users: the
//! operator, whose op is the collection interval, and the dashboard,
//! whose op is the request. Every workload reports every end-to-end
//! metric, so each view is a workload.

use crate::catalog::{storm, tick_mix, Ask};
use crate::deploy::{service_config, Parts, Spec, INTERVAL_SECS};
use crate::meters::{
    cpu_seconds, dir_bytes, peak_rss_mb, repeat_setup, Scratch, Timed, TimedPart, Yardstick,
};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::outcome::Outcome;
use crate::read_path::{
    connect, exchange, load_history, replay_miss, report_dispositions, report_read_path, scrape,
    service_router, Layers, Reply, Served, StageCounts,
};
use crate::rng::Rng;
use crate::spans::{Recorder, ROOT};
use monster_builder::service::ServiceConfig;
use monster_builder::AdmissionConfig;
use monster_core::Monster;
use monster_http::{PersistentClient, Request, Server};
use monster_sim::DiskModel;
use monster_util::EpochSecs;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    Collect,
    Serve,
}

pub struct Plan {
    pub nodes: usize,
    /// Bulk-loaded intervals before the first tick; the fixed panels need
    /// three hours behind them.
    pub history: usize,
    pub ticks: usize,
    pub intervals_per_tick: usize,
    pub view: View,
}

impl Plan {
    /// A tick is 8 intervals beside the 56 requests of `tick_mix`, six of
    /// them misses: about 2 s on either side on the 2-core box.
    pub fn for_seconds(seconds: u64, view: View) -> Plan {
        Plan {
            nodes: crate::deploy::PAPER_NODES,
            history: (crate::catalog::FIXED_HISTORY_SECS / INTERVAL_SECS) as usize,
            ticks: (seconds as usize).div_ceil(2),
            intervals_per_tick: 8,
            view,
        }
    }

    pub fn traced(seconds: u64, view: View) -> Plan {
        let full = Plan::for_seconds(seconds, view);
        Plan { ticks: 2, ..full }
    }

    fn spec(&self, seed: u64, dir: &Scratch) -> Spec {
        Spec {
            seed,
            nodes: self.nodes,
            disk: DiskModel::SSD,
            data_dir: Some(dir.path().to_path_buf()),
            horizon_intervals: self.history + self.ticks * self.intervals_per_tick,
        }
    }
}

/// The 8 closed-window URLs (4 panels, plain and compressed).
fn fixed_urls(history_start: EpochSecs) -> Vec<Ask> {
    storm()
        .into_iter()
        .filter(|p| p.fixed_end.is_some())
        .flat_map(|p| [false, true].map(|c| Ask::new(p, history_start, history_start, c)))
        .collect()
}

/// Ask for each closed window once and keep its body: every later reply
/// for it must be these bytes.
fn prime_fixed(
    client: &mut PersistentClient,
    history_start: EpochSecs,
    yard: &mut Yardstick,
) -> BTreeMap<String, Vec<u8>> {
    fixed_urls(history_start)
        .iter()
        .map(|ask| {
            yard.mark();
            let (reply, resp) = exchange(client, &Request::get(&ask.url()));
            assert_eq!(reply.served, Served::Miss, "priming {} must execute", ask.url());
            (ask.url(), resp.expect("primed reply").body.to_vec())
        })
        .collect()
}

/// The tick barrier, carrying the `now` the tick's sliding panels end at.
struct TickClock {
    now: AtomicI64,
    start: Barrier,
}

impl TickClock {
    fn new() -> TickClock {
        TickClock { now: AtomicI64::new(0), start: Barrier::new(2) }
    }

    /// The writer publishes its `now` and waits for the reader.
    fn open(&self, now: EpochSecs) {
        self.now.store(now.as_secs(), Ordering::SeqCst);
        self.start.wait();
    }

    /// The reader waits for the writer and takes the tick's `now`.
    fn join(&self) -> EpochSecs {
        self.start.wait();
        EpochSecs::new(self.now.load(Ordering::SeqCst))
    }
}

/// One request of the reader, with the tick it was sent in.
struct Sent {
    tick: usize,
    ask: Ask,
    reply: Reply,
}

/// The reader's closed loop: at each tick, the tick's mix ending at the
/// `now` the writer published for it. With `trace`, every request is a
/// root span and every miss is replayed.
fn reader(
    client: &mut PersistentClient,
    yard: &mut Yardstick,
    plan: &Plan,
    seed: u64,
    history_start: EpochSecs,
    clock: &TickClock,
    mut trace: Option<(&mut Recorder, &Layers<'_>, &mut Vec<StageCounts>)>,
) -> Vec<Sent> {
    let mut rng = Rng::new(seed, "mixed-reader");
    let mut sent = Vec::new();
    for tick in 0..plan.ticks {
        let end = clock.join();
        for ask in tick_mix(&mut rng, tick, history_start, end) {
            let req = Request::get(&ask.url());
            let op = sent.len() as u32;
            let reply = match &mut trace {
                None => Reply { mark: yard.mark(), ..exchange(client, &req).0 },
                Some((rec, layers, counts)) => {
                    let root = rec.open("http.request", ROOT, op);
                    let (reply, _) = exchange(client, &req);
                    rec.close(root);
                    if reply.served == Served::Miss {
                        counts.push(replay_miss(rec, root, op, &ask, layers).0);
                    }
                    reply
                }
            };
            sent.push(Sent { tick, ask, reply });
        }
    }
    sent
}

/// Closed windows answered the same bytes in every tick; the last tick's
/// sliding replies equal a cache-off execution.
fn check_replies(
    out: &mut Outcome,
    client: &mut PersistentClient,
    sent: &[Sent],
    fixed: &BTreeMap<String, Vec<u8>>,
    cache_off: &monster_http::Router,
    last_tick: usize,
) {
    let stale = sent
        .iter()
        .filter(|s| s.ask.panel.fixed_end.is_some())
        .filter(|s| fixed.get(&s.ask.url()).is_none_or(|b| b.len() != s.reply.bytes))
        .count();
    out.check(stale == 0, format!("{stale} closed-window replies changed length across ticks"));
    for (url, body) in fixed {
        let (_, resp) = exchange(client, &Request::get(url));
        out.check(
            resp.is_some_and(|r| r.body == *body),
            format!("{url} still answers the {} bytes it was primed with", body.len()),
        );
    }
    // Eight distinct sliding URLs bound the time the check takes.
    let mut seen = std::collections::BTreeSet::new();
    let sliding = sent
        .iter()
        .filter(|s| s.tick == last_tick && s.ask.panel.fixed_end.is_none())
        .filter(|s| seen.insert(s.ask.url()))
        .take(8);
    for s in sliding {
        let req = Request::get(&s.ask.url());
        let (_, resp) = exchange(client, &req);
        let reference = cache_off.dispatch(&req);
        out.check(
            resp.is_some_and(|r| r.body == reference.body && r.body.len() == s.reply.bytes),
            format!("{} equals a cache-off dispatch ({} B)", s.ask.url(), reference.body.len()),
        );
    }
}

fn cache_off(config: &ServiceConfig) -> ServiceConfig {
    ServiceConfig {
        cache_entries: 0,
        coalesce: false,
        admission: AdmissionConfig { enabled: false, ..config.admission },
        ..config.clone()
    }
}

struct Rig {
    dir: Scratch,
    m: Monster,
    config: ServiceConfig,
    dearest_secs: f64,
    /// Kept listening until the rig is dropped.
    _server: Server,
    client: PersistentClient,
    fixed: BTreeMap<String, Vec<u8>>,
    history_start: EpochSecs,
}

fn setup(plan: &Plan, seed: u64, label: &str, yard: &mut Yardstick) -> Rig {
    let dir = Scratch::new(label);
    let mut m = plan.spec(seed, &dir).monster();
    let history_start = m.now();
    load_history(&mut m, plan.history, yard);
    let nodes = m.node_ids();
    let (config, dearest_secs) = service_config(m.db(), &nodes, history_start, m.now(), &storm());
    let server =
        Server::spawn(0, service_router(m.db(), &nodes, &config)).expect("bind 127.0.0.1:0");
    let mut client = connect(server.addr());
    let fixed = prime_fixed(&mut client, history_start, yard);
    Rig { dir, m, config, dearest_secs, _server: server, client, fixed, history_start }
}

pub fn run(plan: &Plan, seed: u64) -> Outcome {
    let mut out = Outcome::new(END_TO_END);
    let mut yard = Yardstick::new();
    // One set-up per run: it is seconds of WAL-on loading, marked
    // throughout, and a second one would cost half the timed part.
    let (mut rig, setup_s) = repeat_setup(1, &mut yard, |_, yard| setup(plan, seed, "mixed", yard));

    // The writer keeps `yard`; the reader thread gets one of its own.
    // Each marks before every op, as on the other workloads. With three
    // busy threads on two cores a mark is also slowed by the sibling
    // thread, so on this workload calibration takes out that slowdown
    // along with the host's; what stays in an op's latency is the time it
    // spent descheduled or waiting for a lock. Calibrating from quiet
    // moments only keeps the sibling slowdown in, and the spread over ten
    // seeds goes from 8 % to 17 %: which ops overlap which is chance.
    let mut reader_yard = Yardstick::new();
    let writer_from = yard.marks_ns.len();
    let disk_before = dir_bytes(rig.dir.path());
    let cpu_before = cpu_seconds();
    let clock = TickClock::new();
    let started = Instant::now();
    let (intervals, errors, sent) = std::thread::scope(|scope| {
        let (m, yard, clock) = (&mut rig.m, &mut yard, &clock);
        let writer = scope.spawn(move || {
            let mut ops = Vec::with_capacity(plan.ticks * plan.intervals_per_tick);
            let mut errors = 0;
            for _ in 0..plan.ticks {
                clock.open(m.now());
                for _ in 0..plan.intervals_per_tick {
                    let mark = yard.mark();
                    let t = Instant::now();
                    errors += usize::from(m.run_interval().is_err());
                    ops.push(Timed { ms: t.elapsed().as_secs_f64() * 1e3, mark });
                }
            }
            (ops, errors)
        });
        let (client, history_start) = (&mut rig.client, rig.history_start);
        let reader_yard = &mut reader_yard;
        let reader = scope
            .spawn(move || reader(client, reader_yard, plan, seed, history_start, clock, None));
        let (ops, errors) = writer.join().expect("writer thread");
        (ops, errors, reader.join().expect("reader thread"))
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    let peak_rss_mb = peak_rss_mb();

    rig.m.db().wal_sync().expect("final WAL sync");
    let disk_after = dir_bytes(rig.dir.path());
    let refused = sent.iter().filter(|s| s.reply.served == Served::Failed).count();
    out.ops(intervals.len() + sent.len(), errors + refused);
    let nodes = rig.m.node_ids();
    let reference = service_router(rig.m.db(), &nodes, &cache_off(&rig.config));
    check_replies(&mut out, &mut rig.client, &sent, &rig.fixed, &reference, plan.ticks - 1);

    let misses = sent.iter().filter(|s| s.reply.served == Served::Miss).count();
    out.note(format!(
        "sizes: nodes={} history_intervals={} ticks={} intervals={} requests={} (misses {misses}) cheap_secs={:.3} (2 x dearest panel {:.3} s modelled)",
        plan.nodes,
        plan.history,
        plan.ticks,
        intervals.len(),
        sent.len(),
        rig.config.admission.cheap_secs,
        rig.dearest_secs,
    ));
    let both: Vec<f64> =
        yard.marks_ns[writer_from..].iter().chain(&reader_yard.marks_ns).copied().collect();
    let part = |calibrated_ms, wall_ms, sink_bytes| TimedPart {
        calibrated_ms,
        wall_ms,
        sink_bytes,
        slowness: Yardstick::slowness_of(&both),
        wall_s,
        cpu_s,
        peak_rss_mb,
    };
    let (name, part) = match plan.view {
        View::Collect => (
            "Monster::run_interval beside the reader",
            part(
                intervals.iter().map(|op| yard.calibrate(op.ms, op.mark)).collect(),
                intervals.iter().map(|op| op.ms).collect(),
                (disk_after - disk_before) as f64,
            ),
        ),
        View::Serve => {
            let answered = || sent.iter().map(|s| &s.reply).filter(|r| r.served != Served::Failed);
            (
                "GET /v1/metrics over the socket beside the writer",
                part(
                    answered().map(|r| reader_yard.calibrate(r.ms, r.mark)).collect(),
                    answered().map(|r| r.ms).collect(),
                    sent.iter().map(|s| s.reply.bytes).sum::<usize>() as f64,
                ),
            )
        }
    };
    out.end_to_end(name, setup_s, &part);
    out
}

/// The per-layer run: the writer replays each interval from public parts
/// and the reader replays each miss, both while the other side runs, so
/// the layer times carry the contention.
pub fn run_traced(plan: &Plan, seed: u64, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::new(PER_LAYER);
    let dir = Scratch::new("mixed-parts");
    let mut parts = Parts::new(&plan.spec(seed, &dir));
    let history_start = parts.now;
    parts.bulk(plan.history);
    let nodes = parts.cluster.node_ids().to_vec();
    let db = std::sync::Arc::clone(&parts.db);
    let (config, _) = service_config(&db, &nodes, history_start, parts.now, &storm());
    let server = Server::spawn(0, service_router(&db, &nodes, &config)).expect("bind 127.0.0.1:0");
    // Per-layer metrics are wall time: the marks go nowhere.
    let mut yard = Yardstick::new();
    let mut client = connect(server.addr());
    let fixed = prime_fixed(&mut client, history_start, &mut yard);
    let fresh = service_router(&db, &nodes, &config);
    let layers = Layers { db: &db, nodes: &nodes, config: &config, fresh: &fresh };

    let epoch = Instant::now();
    let mut writer_rec = Recorder::new(epoch, 1, 16 * plan.ticks * plan.intervals_per_tick);
    let mut reader_rec = Recorder::new(epoch, 2, 16 * plan.ticks * 56);
    let mut stage_counts = Vec::new();
    let clock = TickClock::new();
    let (interval_counts, sent) = std::thread::scope(|scope| {
        let (clock, parts) = (&clock, &mut parts);
        let writer_rec = &mut writer_rec;
        let writer = scope.spawn(move || {
            let mut counts = Vec::new();
            for _ in 0..plan.ticks {
                clock.open(parts.now);
                for _ in 0..plan.intervals_per_tick {
                    counts.push(parts.interval(writer_rec, counts.len() as u32));
                }
            }
            counts
        });
        let trace = Some((&mut reader_rec, &layers, &mut stage_counts));
        let (client, yard) = (&mut client, &mut yard);
        let reader =
            scope.spawn(move || reader(client, yard, plan, seed, history_start, clock, trace));
        (writer.join().expect("writer thread"), reader.join().expect("reader thread"))
    });
    rec.absorb(writer_rec);
    rec.absorb(reader_rec);

    let refused = sent.iter().filter(|s| s.reply.served == Served::Failed).count();
    out.ops(interval_counts.len() + sent.len(), refused);
    let reference = service_router(&db, &nodes, &cache_off(&config));
    check_replies(&mut out, &mut client, &sent, &fixed, &reference, plan.ticks - 1);

    crate::write_path::report_write_path(&mut out, rec, &interval_counts);
    report_read_path(&mut out, rec, &stage_counts);
    let replies: Vec<Reply> = sent.iter().map(|s| s.reply).collect();
    report_dispositions(&mut out, &replies);
    scrape(&mut out, &mut client);
    let coverage = rec.coverage("core.interval");
    out.report.set("trace.coverage_share", coverage);
    out.note(format!(
        "sizes: nodes={} history_intervals={} ticks={} intervals={} requests={} replayed_misses={}",
        plan.nodes,
        plan.history,
        plan.ticks,
        interval_counts.len(),
        sent.len(),
        stage_counts.len()
    ));
    out.note(
        "trace.overhead_share is 0 here: two threads share the cores, so a traced op has no untraced twin to pair with"
            .to_string(),
    );
    out.check(
        coverage >= 0.90,
        format!("children cover {:.1}% of the interval span", coverage * 100.0),
    );
    drop(server);
    out
}

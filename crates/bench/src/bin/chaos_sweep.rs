//! Chaos harness: replay a seeded fault profile against the collection
//! path and assert the resilience invariants. Writes `BENCH_chaos.json`
//! (simulated time only: the same bytes for the same code and seed).
//!
//! Each run drives one `(profile, seed)` cell twice over the same fault
//! schedule:
//!
//! * **resilient** — breakers + jittered backoff + the deadline-aware
//!   degraded sweep scheduler (stale substitution downstream);
//! * **baseline** — the legacy sweep: immediate retries, no breakers, no
//!   deadline. What the paper's collector would do.
//!
//! and asserts, on the resilient run:
//!
//! 1. **Deadline**: no sweep's makespan exceeds the configured deadline
//!    (which sits under the 60 s collection cadence);
//! 2. **Fresh healthy reads**: nodes the profile never perturbs are never
//!    served stale — degradation is confined to the faulty set;
//! 3. **Recovery**: within `RECOVERY_SWEEPS` of the fault schedule
//!    clearing, every breaker is closed and no sweep is degraded;
//! 4. **Trace lineage**: every degraded sweep's skipped nodes appear in
//!    the `/debug/trace` export as child spans of that sweep's span (which
//!    itself hangs off the interval's root span) carrying `SkipReason`
//!    attributes — the distributed trace explains every gap in the data;
//! 5. **Freshness accounting**: after every sweep, the freshness SLO
//!    engine's worst lag equals the collector's sweeps-since-fresh stale
//!    ages times the cadence, and attainment is consistent with the
//!    number of stale nodes — `/debug/pipeline` and `BENCH_chaos.json`
//!    tell one story.
//!
//! The baseline run records how often the legacy sweep blows through the
//! 60 s cadence on the same schedule (under `flaky-tail` it must, at least
//! once — that contrast is the point of the resilience layer).
//!
//! Usage: `chaos_sweep [--profile NAME] [--seed N] [--expect FILE]`
//! Profile `all` (the default) runs every profile sequentially; the CI
//! matrix runs one cell per job.

use monster_bench::chaos::{self, Shape};
use monster_bench::report;
use monster_json::{jobj, Value};
use monster_redfish::resilience::sweep_deadline;
use monster_sim::{FaultProfile, VDuration};

/// Sweeps the resilient run gets to fully recover (close every breaker,
/// drain staleness) once the fault schedule clears: breaker cooldown plus
/// a probe sweep plus slack.
const RECOVERY_SWEEPS: u64 = 5;

/// The collection cadence the baseline is judged against (§III-B4: 60 s).
const CADENCE: VDuration = VDuration::from_secs(60);

const SHAPE: Shape = Shape { nodes: 96, channels: 48, sweeps: 30, active: 18 };

struct SweepRecord {
    makespan: VDuration,
    degraded: bool,
    breakers_open: usize,
    /// (node index, sweeps-since-fresh age) per stale-substituted node.
    stale_nodes: Vec<(usize, u64)>,
    skipped: usize,
    stale_points: usize,
    /// The interval's distributed-trace context.
    trace: monster_obs::TraceContext,
    /// (bmc addr, SkipReason debug string) per skipped node.
    skipped_nodes: Vec<(String, String)>,
    /// Freshness SLO engine readings right after this sweep.
    fresh_max_lag: f64,
    fresh_attainment: f64,
    fresh_tracked: usize,
    fresh_p99: f64,
}

/// Replay `profile` for `(seed, shape)` and record every sweep.
fn run_cell(profile: FaultProfile, seed: u64, shape: &Shape, resilient: bool) -> Vec<SweepRecord> {
    let mut m = chaos::fleet(seed, shape, resilient);
    let ids = m.node_ids();
    let mut records = Vec::with_capacity(shape.sweeps as usize);
    for tick in 0..shape.sweeps {
        chaos::inject(&m, profile, seed, tick, shape);
        let s = m.run_interval().expect("schema-consistent interval");
        let fresh = monster_obs::freshness();
        let mut lags = fresh.lags();
        lags.sort_by(|a, b| a.partial_cmp(b).unwrap());
        records.push(SweepRecord {
            makespan: s.collection_time,
            degraded: s.degraded,
            breakers_open: s.breakers_open,
            stale_nodes: s
                .stale_nodes
                .iter()
                .map(|&(n, age)| (ids.iter().position(|&id| id == n).expect("known node"), age))
                .collect(),
            skipped: s.bmc_skipped,
            stale_points: s.stale_points,
            trace: s.trace,
            skipped_nodes: s
                .skipped_nodes
                .iter()
                .map(|&(n, reason)| (n.to_string(), format!("{reason:?}")))
                .collect(),
            fresh_max_lag: fresh.max_lag_secs().unwrap_or(0.0),
            fresh_attainment: fresh.attainment(),
            fresh_tracked: fresh.tracked_series(),
            fresh_p99: monster_obs::percentile(&lags, 0.99),
        });
    }
    records
}

fn p99(xs: &[f64]) -> f64 {
    monster_util::stats::try_percentile(xs, 0.99).unwrap_or(0.0)
}

fn makespans(records: &[SweepRecord]) -> Vec<f64> {
    records.iter().map(|r| r.makespan.as_secs_f64()).collect()
}

/// Run one `(profile, seed)` cell, assert the invariants, and return its
/// JSON report.
fn chaos_cell(profile: FaultProfile, seed: u64, shape: &Shape) -> Value {
    let deadline = sweep_deadline(monster_core::MonsterConfig::default().interval_secs);
    let healthy: Vec<usize> = {
        let perturbed = profile.perturbed(seed, shape.nodes, shape.active);
        (0..shape.nodes).filter(|i| !perturbed.contains(i)).collect()
    };

    // The resilient run's trace/freshness invariants read global obs
    // state: give the span ring room for every sweep's children and clear
    // watermarks left by previous cells (or the baseline run below).
    monster_obs::global().set_span_capacity(50_000);
    monster_obs::freshness().reset();
    let resilient = run_cell(profile, seed, shape, true);
    let pipeline = monster_obs::freshness().report();
    let spans = monster_obs::global().recent_spans();
    monster_obs::freshness().reset();
    let baseline = run_cell(profile, seed, shape, false);

    // Invariant 1: no resilient sweep exceeds the deadline.
    for (t, r) in resilient.iter().enumerate() {
        assert!(
            r.makespan <= deadline,
            "[{}/seed {seed}] sweep {t} makespan {} exceeds deadline {deadline}",
            profile.name(),
            r.makespan
        );
    }

    // Invariant 2: healthy nodes are never served stale.
    for (t, r) in resilient.iter().enumerate() {
        for &(n, _) in &r.stale_nodes {
            assert!(
                !healthy.contains(&n),
                "[{}/seed {seed}] sweep {t} served healthy node {n} stale",
                profile.name()
            );
        }
    }

    // Invariant 3: full recovery within RECOVERY_SWEEPS of the schedule
    // clearing.
    assert!(
        shape.sweeps > shape.active + RECOVERY_SWEEPS,
        "shape leaves no room to observe recovery"
    );
    for (t, r) in resilient.iter().enumerate().skip((shape.active + RECOVERY_SWEEPS) as usize) {
        assert!(
            !r.degraded && r.breakers_open == 0 && r.stale_nodes.is_empty(),
            "[{}/seed {seed}] sweep {t} not recovered: degraded={} open={} stale={:?}",
            profile.name(),
            r.degraded,
            r.breakers_open,
            r.stale_nodes
        );
    }

    // Invariant 4: every skipped node of every degraded sweep shows up in
    // the trace export as a `redfish.skip` child of that sweep's span,
    // which in turn hangs off the interval's root span, with a
    // `SkipReason` attribute.
    for (t, r) in resilient.iter().enumerate() {
        if r.skipped_nodes.is_empty() {
            continue;
        }
        let root = spans
            .iter()
            .find(|s| {
                s.name == "collector.interval" && s.trace == r.trace.trace && s.parent.is_none()
            })
            .unwrap_or_else(|| {
                panic!("[{}/seed {seed}] sweep {t}: no root interval span", profile.name())
            });
        let sweep_span = spans
            .iter()
            .find(|s| {
                s.name == "redfish.sweep" && s.trace == r.trace.trace && s.parent == Some(root.span)
            })
            .unwrap_or_else(|| {
                panic!("[{}/seed {seed}] sweep {t}: no sweep span under root", profile.name())
            });
        for (addr, reason) in &r.skipped_nodes {
            let found = spans.iter().any(|s| {
                s.name == "redfish.skip"
                    && s.trace == r.trace.trace
                    && s.parent == Some(sweep_span.span)
                    && s.attr("node") == Some(addr)
                    && s.attr("SkipReason") == Some(reason)
            });
            assert!(
                found,
                "[{}/seed {seed}] sweep {t}: skipped node {addr} ({reason}) has no \
                 redfish.skip child span",
                profile.name()
            );
        }
    }

    // Invariant 5: the freshness SLO engine agrees with the collector's
    // stale-age accounting, sweep by sweep: worst watermark lag equals the
    // worst sweeps-since-fresh age times the 60 s cadence, p99 never
    // exceeds the max, and a sweep with no stale nodes shows full
    // freshness.
    for (t, r) in resilient.iter().enumerate() {
        let expect_max = r.stale_nodes.iter().map(|&(_, age)| age).max().unwrap_or(0) as f64 * 60.0;
        assert!(
            (r.fresh_max_lag - expect_max).abs() < 1e-6,
            "[{}/seed {seed}] sweep {t}: freshness max lag {} != stale-age max {expect_max}",
            profile.name(),
            r.fresh_max_lag
        );
        assert!(
            r.fresh_p99 <= r.fresh_max_lag + 1e-6,
            "[{}/seed {seed}] sweep {t}: p99 {} above max {}",
            profile.name(),
            r.fresh_p99,
            r.fresh_max_lag
        );
        if r.stale_nodes.is_empty() {
            assert!(
                (r.fresh_attainment - 1.0).abs() < 1e-9 && r.fresh_p99 == 0.0,
                "[{}/seed {seed}] sweep {t}: no stale nodes but attainment {} p99 {}",
                profile.name(),
                r.fresh_attainment,
                r.fresh_p99
            );
        } else if r.fresh_tracked > 0 {
            // Each stale node contributes at most 4 (node, category) series.
            let floor = 1.0 - (4.0 * r.stale_nodes.len() as f64) / r.fresh_tracked as f64;
            assert!(
                r.fresh_attainment >= floor - 1e-9,
                "[{}/seed {seed}] sweep {t}: attainment {} below floor {floor}",
                profile.name(),
                r.fresh_attainment
            );
        }
    }

    let res_ms = makespans(&resilient);
    let base_ms = makespans(&baseline);
    let base_over = base_ms.iter().filter(|&&m| m > CADENCE.as_secs_f64()).count();

    // The headline contrast: under flaky-tail the legacy sweep must blow
    // the cadence at least once while (per invariant 1) the resilient
    // sweep never does.
    if profile == FaultProfile::FlakyTail {
        assert!(
            base_over >= 1,
            "[flaky-tail/seed {seed}] baseline never exceeded the {CADENCE} cadence"
        );
    }

    let max = |xs: &[f64]| xs.iter().cloned().fold(0.0, f64::max);
    println!(
        "[{}/seed {seed}] resilient p99 {:.1}s max {:.1}s | baseline p99 {:.1}s max {:.1}s ({base_over} over cadence)",
        profile.name(),
        p99(&res_ms),
        max(&res_ms),
        p99(&base_ms),
        max(&base_ms),
    );

    jobj! {
        "profile" => profile.name(),
        "seed" => seed,
        "deadline_secs" => deadline.as_secs_f64(),
        "healthy_nodes" => healthy.len(),
        "resilient" => jobj! {
            "makespan_p99_secs" => p99(&res_ms),
            "makespan_max_secs" => max(&res_ms),
            "makespans_secs" => res_ms,
            "deadline_violations" => 0usize,
            "degraded_sweeps" => resilient.iter().filter(|r| r.degraded).count(),
            "stale_points_total" => resilient.iter().map(|r| r.stale_points).sum::<usize>(),
            "skipped_total" => resilient.iter().map(|r| r.skipped).sum::<usize>(),
            "max_breakers_open" => resilient.iter().map(|r| r.breakers_open).max().unwrap_or(0),
            "staleness_p99_secs" => resilient.iter().map(|r| r.fresh_p99).fold(0.0, f64::max),
            "staleness_max_secs" => resilient.iter().map(|r| r.fresh_max_lag).fold(0.0, f64::max),
            "attainment_min" => resilient.iter().map(|r| r.fresh_attainment).fold(1.0, f64::min),
        },
        "pipeline" => pipeline,
        "baseline" => jobj! {
            "makespan_p99_secs" => p99(&base_ms),
            "makespan_max_secs" => max(&base_ms),
            "makespans_secs" => base_ms,
            "cadence_violations" => base_over,
        },
    }
}

fn main() {
    let (seed, shape) = (chaos::seed(), &SHAPE);
    println!(
        "== chaos sweep: {} node(s), {} channel(s), {} sweep(s) ({} active), seed {seed} ==",
        shape.nodes, shape.channels, shape.sweeps, shape.active
    );

    let cells: Vec<Value> =
        chaos::profiles().into_iter().map(|p| chaos_cell(p, seed, shape)).collect();

    let doc = jobj! {
        "bench" => "chaos_sweep",
        "seed" => seed,
        "nodes" => shape.nodes,
        "channels" => shape.channels,
        "sweeps" => shape.sweeps,
        "active_sweeps" => shape.active,
        "recovery_sweeps" => RECOVERY_SWEEPS,
        "cadence_secs" => CADENCE.as_secs_f64(),
        "cells" => cells,
    };
    report::finish("BENCH_chaos.json", &doc);
    println!("all invariants held");
}

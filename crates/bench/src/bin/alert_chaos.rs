//! Alert chaos harness: replay the seeded fault profiles with streaming
//! detectors and the alert engine enabled, and assert the **exact** alert
//! sets each schedule must produce. Writes `BENCH_alerts.json` (simulated
//! time only: the same bytes for the same code and seed).
//!
//! Every `(profile, seed)` cell runs **twice** over the same schedule and
//! the two canonical transcripts must be byte-identical — alerting is a
//! paging decision, so it gets the same determinism bar as the collection
//! path. (Trace ids are excluded from the canonical form: they come from a
//! process-global counter, so the second run mints different ones by
//! design; everything else — ids, timestamps, severities, flap counts —
//! must match to the byte.)
//!
//! Per-profile assertions:
//!
//! * **dead-rack** — at the fault peak, exactly one `collection/unreachable`
//!   critical per dead node and nothing else node-scoped; zero flaps
//!   anywhere; after the schedule clears, every one of them resolves
//!   exactly once and the active set drains to empty. The weaker
//!   `collection/degraded` rule must never fire on a fully dead node.
//! * **rolling-brownout** — alerts raise while the window sits on a rack
//!   and resolve once it moves on: at least one raise, and by the end of
//!   the run every node-scoped alert has resolved.
//! * **calm** — nothing. No raises, no resolves, no anomaly events, an
//!   empty history.
//! * **all profiles** — zero detector (anomaly) events: collection faults
//!   must never masquerade as physical anomalies, because detectors only
//!   ever see live readings.
//!
//! Usage: `alert_chaos [--profile NAME] [--seed N] [--expect FILE]`. With
//! `--expect`, the emitted JSON must match FILE — in CI the committed
//! `BENCH_alerts.json` itself — byte for byte.

use monster_alert::IntervalOutcome;
use monster_bench::chaos::{self, Shape};
use monster_bench::report;
use monster_json::{jobj, Value};
use monster_sim::FaultProfile;

/// Like the collection chaos shape, but with extra post-fault sweeps:
/// resolution trails recovery by the 180 s hold-down, and the drain must
/// be observable inside the run.
const SHAPE: Shape = Shape { nodes: 96, channels: 48, sweeps: 36, active: 18 };

/// An alert's JSON with the `trace_id` member removed (process-global
/// counter — not comparable across runs).
fn canonical_alert(alert: &monster_alert::Alert) -> Value {
    let mut v = alert.to_json();
    v.as_object_mut().expect("alert JSON is an object").remove("trace_id");
    v
}

/// Replay `profile` for `(seed, shape)` with alerting on and return the
/// canonical transcript: per-sweep engine outcomes, the active set at the
/// fault peak, and the final active set + resolved history.
fn run_cell(profile: FaultProfile, seed: u64, shape: &Shape) -> Value {
    // The freshness tracker feeding the burn-rate rule is process-global:
    // start each run from a clean slate or the second run (and every later
    // cell) inherits the previous schedule's attainment.
    monster_obs::freshness().reset();
    let mut m = chaos::fleet(seed, shape, true);
    let mut sweeps = Vec::with_capacity(shape.sweeps as usize);
    let mut anomaly_events = 0usize;
    let mut totals = IntervalOutcome::default();
    let mut at_peak = Vec::new();
    for tick in 0..shape.sweeps {
        chaos::inject(&m, profile, seed, tick, shape);
        let s = m.run_interval().expect("schema-consistent interval");
        anomaly_events += s.anomaly_events;
        let o = s.alerts;
        totals.raised += o.raised;
        totals.resolved += o.resolved;
        totals.flaps_suppressed += o.flaps_suppressed;
        // A sweep in which nothing was raised, resolved, suppressed or
        // active is not a row: most of a run is such sweeps.
        if o.raised + o.resolved + o.flaps_suppressed + o.active > 0 {
            sweeps.push(jobj! {
                "t" => tick,
                "raised" => o.raised,
                "resolved" => o.resolved,
                "flaps_suppressed" => o.flaps_suppressed,
                "active" => o.active,
            });
        }
        if tick + 1 == shape.active {
            let engine = m.alerts().expect("alerting on");
            at_peak = engine.active().iter().map(canonical_alert).collect();
        }
    }
    let engine = m.alerts().expect("alerting on");
    jobj! {
        "profile" => profile.name(),
        "seed" => seed,
        "anomaly_events" => anomaly_events,
        "raised_total" => totals.raised,
        "resolved_total" => totals.resolved,
        "flaps_total" => totals.flaps_suppressed,
        "sweeps" => Value::Array(sweeps),
        "active_at_peak" => Value::Array(at_peak),
        "active_final" => engine.active().iter().map(canonical_alert).collect::<Vec<_>>(),
        "history" => engine.history().iter().map(canonical_alert).collect::<Vec<_>>(),
    }
}

fn usize_at(cell: &Value, key: &str) -> usize {
    cell.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("missing {key}")) as usize
}

fn alerts_in<'a>(cell: &'a Value, key: &str) -> &'a [Value] {
    cell.get(key).and_then(Value::as_array).unwrap_or_else(|| panic!("missing {key}"))
}

fn rule_of(alert: &Value) -> &str {
    alert.get("rule").and_then(Value::as_str).expect("alert rule")
}

fn is_node_scoped(alert: &Value) -> bool {
    alert.get("node").and_then(Value::as_str).is_some()
}

/// Run one cell twice, assert determinism plus the profile's exact alert
/// set, and return its report.
fn alert_cell(profile: FaultProfile, seed: u64, shape: &Shape) -> Value {
    let cell = run_cell(profile, seed, shape);
    let replay = run_cell(profile, seed, shape);
    assert_eq!(
        cell.to_string_compact(),
        replay.to_string_compact(),
        "[{}/seed {seed}] alert stream not deterministic across identical replays",
        profile.name()
    );

    // Collection faults never fake physics: detectors see live readings
    // only, so every profile — including the chaotic ones — is
    // anomaly-silent.
    assert_eq!(
        usize_at(&cell, "anomaly_events"),
        0,
        "[{}/seed {seed}] collection faults tripped the physical-anomaly detectors",
        profile.name()
    );
    // Flap-free is asserted per-profile below: the hard-cut schedules
    // (calm, dead-rack) must never flap, while flaky-tail's and the
    // brownout's intermittent successes are precisely what the hold-down
    // absorbs — their flap counts are reported, not bounded.
    let flaps = usize_at(&cell, "flaps_total");
    let raised = usize_at(&cell, "raised_total");
    let final_node_scoped =
        alerts_in(&cell, "active_final").iter().filter(|a| is_node_scoped(a)).count();
    match profile {
        FaultProfile::Calm => {
            assert_eq!(raised, 0, "[calm/seed {seed}] raised alerts on a healthy fleet");
            assert_eq!(flaps, 0);
            assert!(alerts_in(&cell, "active_final").is_empty());
            assert!(alerts_in(&cell, "history").is_empty());
        }
        FaultProfile::DeadRack => {
            let dead = profile.dead_entities(seed, shape.nodes, shape.active);
            assert!(!dead.is_empty(), "dead-rack schedule killed nobody");
            assert_eq!(flaps, 0, "[dead-rack/seed {seed}] a dead rack must not flap");
            // At the fault peak: exactly one unreachable critical per dead
            // node, nothing else node-scoped, no flaps.
            let peak: Vec<&Value> =
                alerts_in(&cell, "active_at_peak").iter().filter(|a| is_node_scoped(a)).collect();
            assert_eq!(
                peak.len(),
                dead.len(),
                "[dead-rack/seed {seed}] expected exactly one alert per dead node: {peak:?}"
            );
            for a in &peak {
                assert_eq!(rule_of(a), "collection/unreachable", "{a:?}");
                assert_eq!(a.get("severity").and_then(Value::as_str), Some("critical"), "{a:?}");
                assert_eq!(a.get("flaps").and_then(Value::as_f64), Some(0.0), "{a:?}");
            }
            // After the schedule clears: each resolves exactly once and
            // the node-scoped active set drains to empty.
            assert_eq!(
                final_node_scoped, 0,
                "[dead-rack/seed {seed}] node alerts still active after recovery"
            );
            let resolved: Vec<&Value> = alerts_in(&cell, "history")
                .iter()
                .filter(|a| rule_of(a) == "collection/unreachable")
                .collect();
            assert_eq!(resolved.len(), dead.len(), "[dead-rack/seed {seed}] resolve count");
            for a in alerts_in(&cell, "history") {
                assert_ne!(
                    rule_of(a),
                    "collection/degraded",
                    "[dead-rack/seed {seed}] degraded fired on a dead node: {a:?}"
                );
            }
        }
        FaultProfile::RollingBrownout => {
            assert!(raised >= 1, "[rolling-brownout/seed {seed}] window raised nothing");
            assert_eq!(
                final_node_scoped, 0,
                "[rolling-brownout/seed {seed}] alerts failed to resolve after the window passed"
            );
        }
        // Flaky-tail holds the generic invariants only (determinism, no
        // anomaly events, no flaps) plus full drain.
        FaultProfile::FlakyTail => {
            assert_eq!(
                final_node_scoped, 0,
                "[flaky-tail/seed {seed}] alerts failed to drain after the schedule cleared"
            );
        }
    }

    println!(
        "[{}/seed {seed}] raised {raised} resolved {} flaps {flaps} | final active {} | deterministic",
        profile.name(),
        usize_at(&cell, "resolved_total"),
        alerts_in(&cell, "active_final").len(),
    );
    cell
}

fn main() {
    let (seed, shape) = (chaos::seed(), &SHAPE);
    println!(
        "== alert chaos: {} node(s), {} channel(s), {} sweep(s) ({} active), seed {seed} ==",
        shape.nodes, shape.channels, shape.sweeps, shape.active
    );

    let cells: Vec<Value> =
        chaos::profiles().into_iter().map(|p| alert_cell(p, seed, shape)).collect();

    let doc = jobj! {
        "bench" => "alert_chaos",
        "seed" => seed,
        "nodes" => shape.nodes,
        "channels" => shape.channels,
        "sweeps" => shape.sweeps,
        "active_sweeps" => shape.active,
        "cells" => cells,
    };
    report::finish("BENCH_alerts.json", &doc);
    println!("all alert invariants held");
}

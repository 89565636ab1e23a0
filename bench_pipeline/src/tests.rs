//! Harness tests: the workloads end to end at 8 nodes, seed discipline,
//! and the metric lists against `BENCHMARK.json`.

use crate::deploy::Spec;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::mixed::View;
use crate::outcome::Outcome;
use crate::spans::Recorder;
use crate::{mixed, read_path, write_path, WORKLOADS};
use monster_builder::{BuilderRequest, ExecMode};
use monster_json::Value;
use monster_sim::{DiskModel, NetModel};
use monster_tsdb::Aggregation;
use std::time::Instant;

const NODES: usize = 8;

/// Failed checks other than the two timing gates of the traced runs: an
/// 8-node op takes a millisecond or two, and the test threads share the
/// cores, so "within 10 %" means nothing here.
fn failed_checks(out: &Outcome) -> Vec<&String> {
    out.lines
        .iter()
        .filter(|l| l.starts_with("check FAILED") && !l.contains("within 10%"))
        .collect()
}

fn assert_end_to_end(out: &Outcome) {
    assert!(out.correct(), "{:#?}", out.lines);
    for (name, _, value) in out.report.rows() {
        assert!(value.is_finite() && value > 0.0, "{name} = {value}");
    }
}

fn assert_per_layer(out: &Outcome, nonzero: &[&str], zero: &[&str]) {
    assert!(failed_checks(out).is_empty(), "{:#?}", out.lines);
    let value = |name: &str| out.report.rows().find(|r| r.0 == name).map(|r| r.2).unwrap();
    assert!(out.report.rows().all(|r| r.2.is_finite()));
    for name in nonzero {
        assert!(value(name) > 0.0, "{name} = {}", value(name));
    }
    for name in zero {
        assert_eq!(value(name), 0.0, "{name}");
    }
}

fn recorder() -> Recorder {
    Recorder::new(Instant::now(), 0, 1 << 12)
}

fn collect_plan() -> write_path::Plan {
    write_path::Plan { nodes: NODES, warmup: 2, intervals: 12, setup_reps: 2 }
}

fn dash_plan(warm: bool) -> read_path::Plan {
    read_path::Plan { nodes: NODES, history: 200, requests: if warm { 400 } else { 48 }, warm }
}

fn mixed_plan(view: View) -> mixed::Plan {
    mixed::Plan { nodes: NODES, history: 180, ticks: 2, intervals_per_tick: 3, view }
}

#[test]
fn collect467_runs_and_recovers() {
    assert_end_to_end(&write_path::run(&collect_plan(), 5));
}

#[test]
fn collect467_traced_attributes_the_interval() {
    let mut rec = recorder();
    let out = write_path::run_traced(&collect_plan(), 5, &mut rec);
    assert_per_layer(
        &out,
        &[
            "core.interval_ms",
            "redfish.sweep_ms",
            "scheduler.accounting_pull_ms",
            "tsdb.recover_ms",
            "trace.coverage_share",
        ],
        &["http.request_ms", "tsdb.query_ms", "compress.deflate_ms"],
    );
    // The self times of an interval's tree, probes included, sum to its
    // root span: the arithmetic the README documents.
    let tree = [
        "core.interval",
        "scheduler.advance",
        "redfish.step",
        "collector.collect",
        "redfish.sweep",
        "scheduler.accounting_pull",
        "tsdb.write_batch",
        "alert.observe",
    ];
    let root: f64 = rec.durations_ms("core.interval").iter().sum();
    let own: f64 = tree.iter().flat_map(|n| rec.self_ms(n)).sum();
    assert!((root - own).abs() < 1e-6 * root, "root {root} ms, self times {own} ms");
}

#[test]
fn dash_cold_executes_every_request() {
    assert_end_to_end(&read_path::run(&dash_plan(false), 5));
}

#[test]
fn dash_warm_hits_every_request() {
    assert_end_to_end(&read_path::run(&dash_plan(true), 5));
}

#[test]
fn dash_traced_runs_attribute_the_request() {
    let cold = read_path::run_traced(&dash_plan(false).traced(), 5, &mut recorder());
    assert_per_layer(
        &cold,
        &[
            "http.request_ms",
            "builder.plan_queries",
            "tsdb.query_ms",
            "json.encode_ms",
            "compress.ratio",
        ],
        &["core.interval_ms", "builder.dispatch_hit_us", "builder.cache_hit_ratio"],
    );
    let warm = read_path::run_traced(&dash_plan(true).traced(), 5, &mut recorder());
    assert_per_layer(
        &warm,
        &[
            "http.request_ms",
            "builder.dispatch_hit_us",
            "http.serialize_us",
            "builder.cache_hit_ratio",
        ],
        &["core.interval_ms", "tsdb.query_ms", "json.encode_ms", "compress.deflate_ms"],
    );
}

#[test]
fn mixed467_views_share_one_behaviour() {
    let collect = mixed::run(&mixed_plan(View::Collect), 5);
    assert_end_to_end(&collect);
    let serve = mixed::run(&mixed_plan(View::Serve), 5);
    assert_end_to_end(&serve);
    let sizes = |o: &Outcome| o.lines.iter().find(|l| l.starts_with("sizes:")).cloned();
    let strip = |s: Option<String>| s.map(|s| s.split(" cheap_secs").next().unwrap().to_string());
    assert_eq!(strip(sizes(&collect)), strip(sizes(&serve)));
}

#[test]
fn mixed467_traced_reports_both_paths() {
    let out = mixed::run_traced(&mixed_plan(View::Serve), 5, &mut recorder());
    assert_per_layer(
        &out,
        &[
            "core.interval_ms",
            "tsdb.write_batch_ms",
            "http.request_ms",
            "tsdb.query_ms",
            "builder.cache_hit_ratio",
        ],
        &["tsdb.recover_ms", "builder.dispatch_hit_us"],
    );
}

/// What a deployment of `seed` holds after five intervals: its point
/// count and the bytes one dashboard query returns.
fn deployment_print(seed: u64) -> (usize, Vec<u8>) {
    let spec =
        Spec { seed, nodes: NODES, disk: DiskModel::SSD, data_dir: None, horizon_intervals: 5 };
    let mut m = spec.monster();
    m.run_intervals_bulk(5);
    let req = BuilderRequest::new(spec.start(), m.now(), 60, Aggregation::Mean).unwrap();
    let body = m.builder_respond(&req, ExecMode::Sequential, &NetModel::GIGABIT_LAN).unwrap().body;
    (m.db().stats().points, body)
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    assert_eq!(deployment_print(1), deployment_print(1));
    // The long-running population has the same size for every seed by
    // design; the short jobs' arrivals, what runs where and what the
    // sensors read differ.
    let ((points_a, body_a), (points_b, body_b)) = (deployment_print(1), deployment_print(2));
    assert_ne!(points_a, points_b);
    assert_ne!(body_a, body_b);

    let t0 =
        Spec { seed: 0, nodes: NODES, disk: DiskModel::SSD, data_dir: None, horizon_intervals: 0 }
            .start();
    for plan in [dash_plan(false), dash_plan(true)] {
        let urls = |seed| -> Vec<String> {
            read_path::sequence(&plan, seed, t0, t0 + 12_000)
                .iter()
                .map(crate::catalog::Ask::url)
                .collect()
        };
        assert_eq!(urls(1), urls(1));
        assert_ne!(urls(1), urls(2));
        if !plan.warm {
            let all = urls(1);
            let distinct: std::collections::BTreeSet<&String> = all.iter().collect();
            assert_eq!(distinct.len(), all.len(), "a cold URL repeats");
        }
    }
}

fn manifest() -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    monster_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn printed_names_are_the_manifest_names() {
    let manifest = manifest();
    let listed = |key: &str| -> Vec<(String, String)> {
        manifest
            .get(key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                (text("name"), text("unit"))
            })
            .collect()
    };
    let printed = |defs: &[Def]| -> Vec<(String, String)> {
        defs.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), printed(END_TO_END));
    assert_eq!(listed("per_layer"), printed(PER_LAYER));
    assert!(END_TO_END.iter().chain(PER_LAYER).all(|d| well_formed(d.name)));
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(WORKLOADS.iter().all(|w| well_formed(w)));
    // Every bound is a share the contract allows.
    for b in crate::compare::bounds(&manifest) {
        assert!(b.bound > 0.0 && b.bound <= 0.25, "{b:?}");
    }
}

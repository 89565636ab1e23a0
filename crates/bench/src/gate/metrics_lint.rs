//! Metrics-name lint: exercise the full pipeline, scrape `GET /metrics`
//! over a real socket, and fail on naming-convention violations so a new
//! metric can't drift away from the Prometheus conventions the dashboards
//! assume:
//!
//! * counters end in `_total`; nothing else may use that suffix;
//! * histograms end in a unit suffix (`_seconds`, `_points`, `_bytes`,
//!   or `_ratio` for dimensionless distributions);
//! * no name is registered as two different kinds (duplicate
//!   registration), checked both in the registry and in the scraped
//!   `# TYPE` lines;
//! * every OpenMetrics exemplar suffix carries a well-formed
//!   `trace_id`/`span_id` pair;
//! * a `/metrics` + `/debug/trace` scrape storm must not stall concurrent
//!   interval writers (the snapshot clones one locked record at a time).

use super::{Outcome, Wall};
use monster_core::{Monster, MonsterConfig};
use monster_http::{Client, Request};
use monster_json::jobj;
use monster_obs::{Registry, TraceContext};
use monster_tsdb::{Aggregation, Query};
use std::time::Instant;

/// Unit suffixes histograms (and unit-carrying gauges) may end with.
/// `_ratio` is the OpenMetrics convention for dimensionless quantities
/// (the estimator-accuracy histograms are actual/estimated ratios).
const UNIT_SUFFIXES: [&str; 4] = ["_seconds", "_points", "_bytes", "_ratio"];

/// Distinct series a metric family may have (see [`lint_cardinality`]).
const SERIES_BUDGET: usize = 32;

/// Strip a `{labels}` clause: `m_shard_points{shard="0"}` → `m_shard_points`.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

fn has_unit_suffix(name: &str) -> bool {
    UNIT_SUFFIXES.iter().any(|s| name.ends_with(s))
}

/// Where the exercised deployment keeps its write-ahead log.
fn data_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("monster-metrics-lint-{}", std::process::id()))
}

/// Drive every metric-producing stage once: resilient collection over a
/// mildly faulty fleet (sweeps, retries, breakers, freshness watermarks)
/// into a durable store that has been restarted once (the WAL and recovery
/// families), a compaction plus a sealed-window query (decode/summarize
/// counters), and a real HTTP consumer against the builder API (request
/// histogram, cache counters).
fn exercise_pipeline() -> Monster {
    let _ = std::fs::remove_dir_all(data_dir());
    let config = MonsterConfig { nodes: 6, data_dir: Some(data_dir()), ..MonsterConfig::default() };
    // A first life, so that the second has a log to replay.
    Monster::new(config.clone()).run_intervals(2);
    let mut m = Monster::new(config);
    assert!(m.recovery().is_some_and(|r| r.replayed_points > 0), "the restart replayed the log");
    m.run_intervals(8);
    m.db().compact();
    let q = Query::select("Power", "Reading", m.now() - 480, m.now() + 60)
        .aggregate(Aggregation::Mean)
        .group_by_time(86_400);
    m.db().query(&q).expect("sealed query");

    let server = m.serve_api(0).expect("api server");
    let client = Client::new();
    let url = format!(
        "/v1/metrics?start={}&end={}&interval=5m&aggregation=max",
        (m.now() - 480).to_rfc3339(),
        m.now().to_rfc3339()
    );
    client.send_ok(server.addr(), &Request::get(&url)).expect("metrics query");
    m
}

/// Lint the registry's kind table: suffix conventions plus cross-kind
/// duplicate registrations. Returns human-readable violations.
fn lint_kinds(kinds: &[(String, &'static str)]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut seen: Vec<(&str, &str)> = Vec::new();
    for (name, kind) in kinds {
        let base = base_name(name);
        match *kind {
            "counter" if !base.ends_with("_total") => {
                violations.push(format!("counter `{name}` must end in _total"));
            }
            "gauge" if base.ends_with("_total") => {
                violations.push(format!("gauge `{name}` must not use the counter suffix _total"));
            }
            "histogram" if !has_unit_suffix(base) => {
                violations.push(format!(
                    "histogram `{name}` must end in a unit suffix ({})",
                    UNIT_SUFFIXES.join(", ")
                ));
            }
            _ => {}
        }
        if let Some((_, other)) = seen.iter().find(|(n, k)| *n == base && *k != *kind) {
            violations.push(format!("`{base}` registered as both {other} and {kind} (duplicate)"));
        }
        seen.push((base, kind));
    }
    violations
}

/// Label-cardinality budget: labels live in the metric name
/// (`monster_alert_active{severity="critical"}`), so one runaway label —
/// a node address, a job id — quietly multiplies a family into thousands
/// of series. Cap every family at [`SERIES_BUDGET`] distinct series; the
/// limit is generous for legitimate enums (severity, shard, reason) and
/// fatal for unbounded ones.
fn lint_cardinality(kinds: &[(String, &'static str)]) -> Vec<String> {
    let mut families: Vec<(&str, usize)> = Vec::new();
    for (name, _) in kinds {
        let base = base_name(name);
        match families.iter_mut().find(|(f, _)| *f == base) {
            Some((_, n)) => *n += 1,
            None => families.push((base, 1)),
        }
    }
    families
        .iter()
        .filter(|&&(_, n)| n > SERIES_BUDGET)
        .map(|&(family, n)| {
            format!("family `{family}` has {n} series, over the {SERIES_BUDGET}-series budget")
        })
        .collect()
}

/// Lint the scraped text: `# TYPE` lines must agree with the registry
/// rules too (this is what an external Prometheus actually sees), and
/// exemplar suffixes must be well-formed.
fn lint_exposition(text: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let mut typed: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                violations.push(format!("malformed TYPE line: `{line}`"));
                continue;
            };
            if let Some((_, other)) = typed.iter().find(|(n, _)| n == name) {
                if other != kind {
                    violations.push(format!("`{name}` declared as both {other} and {kind}"));
                } else {
                    violations.push(format!("`{name}` has duplicate TYPE declarations"));
                }
            }
            typed.push((name.to_string(), kind.to_string()));
        } else if let Some((sample, exemplar)) = line.split_once(" # ") {
            // OpenMetrics exemplar: `{trace_id="32hex",span_id="16hex"} value`.
            let ok = exemplar
                .strip_prefix("{trace_id=\"")
                .and_then(|r| r.split_once("\",span_id=\""))
                .and_then(|(trace, r)| {
                    let (span, value) = r.split_once("\"} ")?;
                    let hex = |s: &str| s.bytes().all(|b| b.is_ascii_hexdigit());
                    (trace.len() == 32 && hex(trace) && span.len() == 16 && hex(span))
                        .then(|| value.parse::<f64>().ok())
                        .flatten()
                })
                .is_some();
            if !ok {
                violations.push(format!("malformed exemplar on `{sample}`: `{exemplar}`"));
            }
        }
    }
    violations
}

/// Scrape storm vs. writer threads: 4 writers land 2 000 interval records
/// each in one registry's ring while a scraper takes 100 full
/// `/debug/trace`-style snapshots and renders them. A snapshot clones one
/// locked record at a time, so every record must be counted, no snapshot
/// may exceed the ring, and the storm must finish promptly, the wall-clock
/// reading returned.
fn scrape_storm() -> Wall {
    const WRITERS: u64 = 4;
    const RECORDS_EACH: u64 = 2_000;
    let r = Registry::new();
    let cap = r.intervals().capacity();
    let t0 = Instant::now();
    let mut worst_scrape = std::time::Duration::ZERO;
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let r = &r;
            s.spawn(move || {
                for i in 0..RECORDS_EACH {
                    let ctx = TraceContext::root(r);
                    r.intervals().push(|_, rec| {
                        (rec.trace, rec.span) = (ctx.trace, ctx.span);
                        rec.points = t * RECORDS_EACH + i;
                    });
                }
            });
        }
        for _ in 0..100 {
            let s0 = Instant::now();
            let snap: Vec<_> = r.intervals().live(|_| true).collect();
            let mut events = Vec::new();
            snap.iter().for_each(|rec| rec.trace_events(&mut events));
            worst_scrape = worst_scrape.max(s0.elapsed());
            assert!(snap.len() <= cap, "ring over capacity");
        }
    });
    let elapsed = t0.elapsed();
    let landed = r.intervals().recorded();
    assert_eq!(landed, WRITERS * RECORDS_EACH, "records lost during scrape storm");
    assert_eq!(r.intervals().live(|_| true).count(), cap, "a full ring after the storm");
    let reading = format!(
        "scrape storm: {} interval records + 100 snapshots in {elapsed:?} (worst snapshot \
         {worst_scrape:?}; bar 30s)",
        WRITERS * RECORDS_EACH
    );
    Wall { reading, held: elapsed < std::time::Duration::from_secs(30) }
}

pub fn run() -> Outcome {
    let m = exercise_pipeline();

    // Scrape over the wire, exactly as Prometheus would.
    let server = m.serve_api(0).expect("api server");
    let resp =
        Client::new().send_ok(server.addr(), &Request::get("/metrics")).expect("GET /metrics");
    let text = String::from_utf8(resp.body.to_vec()).expect("utf-8 exposition");

    let kinds = m.registry().metric_kinds();
    let mut violations = lint_kinds(&kinds);
    violations.extend(lint_cardinality(&kinds));
    violations.extend(lint_exposition(&text));

    // The alert gauges register (with HELP and an explicit 0) at engine
    // construction, so a dashboard can tell "no alerts" from "alerting
    // not wired" on the very first scrape.
    for family in [
        "monster_tsdb_wal_definitions_total{kind=\"series\"}",
        "monster_tsdb_wal_definitions_total{kind=\"field\"}",
        "monster_tsdb_wal_replayed_points_total",
        "monster_tsdb_recovery_seconds_count",
    ] {
        assert!(text.lines().any(|l| l.starts_with(family)), "`{family}` missing from the scrape");
    }
    for severity in ["info", "warning", "critical"] {
        let series = format!("monster_alert_active{{severity=\"{severity}\"}}");
        assert!(
            text.lines().any(|l| l.starts_with(&series)),
            "`{series}` missing from the first scrape"
        );
    }

    assert!(
        violations.is_empty(),
        "{} violation(s):\n  - {}",
        violations.len(),
        violations.join("\n  - ")
    );
    let storm = scrape_storm();
    let last = m.registry().intervals().live(|_| true).next().expect("the pipeline recorded");
    assert!(last.makespan_ns > 0, "the pipeline's sweeps charged modelled time");
    drop((server, m));
    let _ = std::fs::remove_dir_all(data_dir());
    let doc = jobj! {
        "bench" => "metrics_lint",
        "metrics" => kinds.len(),
        "series_budget" => SERIES_BUDGET,
    };
    Outcome { doc, walls: vec![storm] }
}

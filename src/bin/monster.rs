//! `monster` — the command-line entry point.
//!
//! The paper's pitch is a monitoring tool that works "out of the box";
//! this binary is that box:
//!
//! ```text
//! monster demo  [--nodes N] [--intervals N]    collect + query a deployment
//! monster serve [--nodes N] [--port P]         run the Metrics Builder API
//! monster query [--nodes N] <influxql>         run one query over demo data
//! monster watch [--nodes N] [--intervals N]    collect, print alert transitions
//! monster top   [--nodes N] [--intervals N]    fleet dashboard snapshots
//! monster report [--nodes N] [--hours H]       per-user utilization report
//! ```

use monster::analysis::served;
use monster::builder::{BuilderRequest, ExecMode};
use monster::redfish::bmc::BmcConfig;
use monster::tsdb::Aggregation;
use monster::util::bytesize::ByteSize;
use monster::{Monster, MonsterConfig};
use std::collections::HashMap;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  monster demo  [--nodes N] [--intervals N]\n  monster serve [--nodes N] [--port P]\n  monster query [--nodes N] <influxql>\n  monster watch [--nodes N] [--intervals N]\n  monster top   [--nodes N] [--intervals N]\n  monster report [--nodes N] [--hours H]"
    );
    ExitCode::from(2)
}

/// Parse `--key value` flags; returns (flags, positional args), or `None`
/// when a flag has no value.
fn parse_flags(args: &[String]) -> Option<(HashMap<String, String>, Vec<String>)> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            flags.insert(key.to_string(), it.next()?.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Some((flags, positional))
}

/// A count flag (`N`, `H`): `default` when absent, `None` unless a whole
/// number of at least 1.
fn flag_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> Option<usize> {
    flags.get(key).map_or(Some(default), |v| v.parse().ok().filter(|&n| n > 0))
}

fn deployment(nodes: usize) -> Monster {
    Monster::new(MonsterConfig { nodes, bmc: BmcConfig::default(), ..MonsterConfig::default() })
}

fn cmd_demo(flags: &HashMap<String, String>) -> Option<ExitCode> {
    let nodes = flag_usize(flags, "nodes", 16)?;
    let intervals = flag_usize(flags, "intervals", 5)?;
    println!("monster demo: {nodes} nodes, {intervals} x 60 s intervals\n");
    let mut m = deployment(nodes);
    for s in m.run_intervals(intervals) {
        println!(
            "  {}  {:5} points  sweep {}  failures {}",
            s.time, s.points, s.collection_time, s.bmc_failures
        );
    }
    let stats = m.db().stats();
    println!(
        "\nstored {} points / {} series / {} at rest",
        stats.points,
        stats.cardinality,
        ByteSize(stats.encoded_bytes as u64)
    );
    let req =
        BuilderRequest::new(m.now() - intervals as i64 * 60, m.now() + 60, 60, Aggregation::Mean)
            .expect("window");
    let out = m.builder_query(&req, ExecMode::Concurrent { workers: 8 }).expect("query");
    println!("builder query: {} points, simulated {}", out.points_out, out.query_processing_time());
    Some(ExitCode::SUCCESS)
}

fn cmd_serve(flags: &HashMap<String, String>) -> Option<ExitCode> {
    let nodes = flag_usize(flags, "nodes", 16)?;
    let port: u16 = flags.get("port").map_or(Some(8080), |v| v.parse().ok())?;
    let mut m = deployment(nodes);
    println!("collecting one hour of history on {nodes} nodes...");
    m.run_intervals_bulk(60);
    let server = match m.serve_api(port) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return Some(ExitCode::FAILURE);
        }
    };
    println!("Metrics Builder API on {}", server.base_url());
    println!(
        "try: curl '{}/v1/metrics?start={}&end={}&interval=5m&aggregation=max'",
        server.base_url(),
        (m.now() - 3600).to_rfc3339(),
        m.now().to_rfc3339()
    );
    // One simulated interval a cadence of wall, so the deployment's clock
    // stays on the wall's and the printed window stays the latest hour.
    let interval_secs = m.config().interval_secs;
    println!("collection continues every {interval_secs} s; ctrl-c to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(interval_secs.unsigned_abs()));
        if let Err(e) = m.run_interval() {
            eprintln!("collection error: {e}");
            return Some(ExitCode::FAILURE);
        }
    }
}

fn cmd_query(flags: &HashMap<String, String>, positional: &[String]) -> Option<ExitCode> {
    let Some(text) = positional.first() else {
        eprintln!("query: missing InfluxQL string");
        return None;
    };
    let nodes = flag_usize(flags, "nodes", 8)?;
    let mut m = deployment(nodes);
    m.run_intervals_bulk(30);
    // SHOW meta-queries discover the schema.
    if text.trim().to_ascii_uppercase().starts_with("SHOW") {
        return Some(match monster::tsdb::query::MetaQuery::parse(text) {
            Ok(q) => {
                for row in q.run(m.db()) {
                    println!("{row}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("query error: {e}");
                ExitCode::FAILURE
            }
        });
    }
    Some(match m.db().query_str(text) {
        Ok((rs, cost)) => {
            for series in &rs.series {
                println!("{}", series.key);
                for (t, v) in &series.points {
                    println!("  {t}  {v}");
                }
            }
            println!(
                "\n{} series, {} points; simulated {}",
                rs.series.len(),
                rs.point_count(),
                m.db().simulate_elapsed(&cost)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("query error: {e}");
            ExitCode::FAILURE
        }
    })
}

fn cmd_watch(flags: &HashMap<String, String>) -> Option<ExitCode> {
    let nodes = flag_usize(flags, "nodes", 16)?;
    let intervals = flag_usize(flags, "intervals", 30)?;
    println!("monster watch: {nodes} nodes, {intervals} intervals, alert transitions\n");
    let mut m = deployment(nodes);
    let (mut events, mut transitions) = (0, 0);
    for _ in 0..intervals {
        // The interval already ran the detector bank and the alert engine;
        // this only prints what they did.
        let s = m.run_interval().expect("interval");
        events += s.anomaly_events;
        transitions += s.alerts.raised + s.alerts.resolved;
        let Some(engine) = m.alerts() else { continue };
        for a in engine.active().iter().filter(|a| a.raised_at == s.time) {
            println!("  [{}] ALERT {} {}", s.time, a.severity, a.description);
        }
        for a in engine.history().iter().filter(|a| a.resolved_at == Some(s.time)) {
            println!("  [{}] clear {} {}", s.time, a.severity, a.description);
        }
    }
    println!(
        "\n{transitions} alert transitions, {events} detector events over {intervals} intervals"
    );
    Some(ExitCode::SUCCESS)
}

fn cmd_top(flags: &HashMap<String, String>) -> Option<ExitCode> {
    let nodes = flag_usize(flags, "nodes", 24)?;
    let intervals = flag_usize(flags, "intervals", 10)?;
    let mut m = deployment(nodes);
    let step = m.config().interval_secs;
    println!("monster top: {nodes} nodes, one frame per collection interval\n");
    for frame in 0..intervals {
        let s = m.run_interval().expect("interval");
        // What the Metrics Builder serves for this interval: a node whose
        // nine dimensions it does not all show is not shown.
        let req =
            BuilderRequest::new(s.time, s.time + step, step, Aggregation::Last).expect("window");
        let doc = m.builder_query(&req, ExecMode::Sequential).expect("query").document;
        let mut rows: Vec<(String, [f64; 9])> = served::decode(&doc)
            .expect("a served document")
            .into_iter()
            .filter_map(|n| Some((n.node.label(), n.rows.last()?.1)))
            .collect();
        rows.sort_by(|a, b| b.1[7].total_cmp(&a.1[7]));
        let total = |d: usize| rows.iter().fold(0.0, |sum, (_, row)| sum + row[d]);
        println!(
            "[{}] frame {}/{intervals}: shown {}/{nodes}  util {:5.1}%  power {:6.2} kW  running {}  pending {}  sweep {}",
            s.time,
            frame + 1,
            rows.len(),
            total(8) / rows.len().max(1) as f64 * 100.0,
            total(7) / 1000.0,
            m.qmaster().running_jobs().len(),
            m.qmaster().pending_jobs().len(),
            s.collection_time,
        );
        println!("  {:<8} {:>6} {:>9} {:>8}", "hottest", "util", "power", "cpu max");
        for (label, row) in rows.iter().take(5) {
            let (util, power, temp) = (row[8] * 100.0, row[7], row[0].max(row[1]));
            println!("  {label:<8} {util:>5.0}% {power:>7.1} W {temp:>6.1} C");
        }
    }
    Some(ExitCode::SUCCESS)
}

fn cmd_report(flags: &HashMap<String, String>) -> Option<ExitCode> {
    let nodes = flag_usize(flags, "nodes", 32)?;
    let hours = flag_usize(flags, "hours", 6)? as i64;
    let mut m = deployment(nodes);
    println!("simulating {hours} h of cluster activity on {nodes} nodes...\n");
    let start = m.now();
    m.run_intervals_bulk((hours * 60) as usize);
    let report = monster::analysis::ClusterReport::build(m.qmaster(), start, m.now());
    print!("{}", report.to_text());
    Some(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    let Some((flags, positional)) = parse_flags(&args[1..]) else { return usage() };
    let code = match cmd.as_str() {
        "demo" => cmd_demo(&flags),
        "serve" => cmd_serve(&flags),
        "query" => cmd_query(&flags, &positional),
        "watch" => cmd_watch(&flags),
        "top" => cmd_top(&flags),
        "report" => cmd_report(&flags),
        _ => None,
    };
    code.unwrap_or_else(usage)
}

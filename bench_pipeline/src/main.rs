//! `pipeline`: the repository's benchmark. One process runs one workload
//! on the paper's 467-node deployment, prints every metric by name with
//! its unit, checks the outputs, and ends with one JSON line. See the
//! README beside `Cargo.toml`.

mod catalog;
mod compare;
mod deploy;
mod meters;
mod metrics;
mod mixed;
mod outcome;
mod read_path;
mod rng;
mod spans;
mod write_path;

use mixed::View;
use monster_json::{jobj, Object, Value};
use outcome::Outcome;
use spans::Recorder;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] =
    &["collect467", "dash_cold", "dash_warm", "mixed467_collect", "mixed467_serve"];

const USAGE: &str = "usage:
  pipeline --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--out <file.jsonl>]
  pipeline --compare <a.jsonl> <b.jsonl>
workloads: collect467 dash_cold dash_warm mixed467_collect mixed467_serve";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10, trace: false, out: None };
    let mut seed = None;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                seed = Some(value("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?)
            }
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be 1..=60".to_string());
    }
    Ok(args)
}

/// The commit of the checkout, when it is a git repository.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| r.to_string(), |h| h.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn run(args: &Args, rec: &mut Recorder) -> Outcome {
    let (seed, secs) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("collect467", false) => write_path::run(&write_path::Plan::for_seconds(secs), seed),
        ("collect467", true) => write_path::run_traced(&write_path::Plan::traced(secs), seed, rec),
        ("dash_cold", false) => read_path::run(&read_path::Plan::cold(secs), seed),
        ("dash_cold", true) => {
            read_path::run_traced(&read_path::Plan::cold(secs).traced(), seed, rec)
        }
        ("dash_warm", false) => read_path::run(&read_path::Plan::warm(secs), seed),
        ("dash_warm", true) => {
            read_path::run_traced(&read_path::Plan::warm(secs).traced(), seed, rec)
        }
        (name, trace) => {
            let view = if name == "mixed467_collect" { View::Collect } else { View::Serve };
            if trace {
                mixed::run_traced(&mixed::Plan::traced(secs, view), seed, rec)
            } else {
                mixed::run(&mixed::Plan::for_seconds(secs, view), seed)
            }
        }
    }
}

fn metrics_json(out: &Outcome) -> Value {
    let mut metrics = Object::new();
    for (name, unit, value) in out.report.rows() {
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.insert(name, jobj! { "value" => value, "unit" => unit });
    }
    Value::Object(metrics)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| {
            std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        })
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let manifest = monster_json::parse(&manifest).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (a, b) = (compare::parse_runs(&read(a)?)?, compare::parse_runs(&read(b)?)?);
    Ok(compare::compare(&compare::bounds(&manifest), &a, &b))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        let verdict = match argv.as_slice() {
            [_, a, b] => compare_files(a, b),
            _ => Err(USAGE.to_string()),
        };
        match verdict {
            Ok(all_ok) => std::process::exit(i32::from(!all_ok)),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "bench=pipeline workload={} seed={} seconds={} trace={} cores={cores} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    );

    // Sized for the traced run's spans up front; untraced runs record none.
    let mut rec = Recorder::new(Instant::now(), 0, if args.trace { 1 << 16 } else { 0 });
    let mut out = run(&args, &mut rec);
    if args.trace {
        out.report.set("trace.spans", rec.spans().len() as f64);
        let trace = meters::Scratch::base()
            .join("pipeline-trace")
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        rec.write_chrome_trace(&trace).expect("trace file inside the checkout");
        println!("trace: {} spans written to {}", rec.spans().len(), trace.display());
    }

    for line in &out.lines {
        println!("{line}");
    }
    for (name, unit, value) in out.report.rows() {
        println!("{name} = {value} {unit}");
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!("failed_share = {failed_share} ({} of {} ops and checks)", out.failed, out.attempted);

    let metrics = metrics_json(&out);
    if let Some(path) = &args.out {
        let record = jobj! {
            "bench" => "pipeline",
            "workload" => args.workload.as_str(),
            "seed" => args.seed as i64,
            "seconds" => args.seconds as i64,
            "trace" => i64::from(args.trace),
            "cores" => cores as i64,
            "commit" => commit(),
            "correct" => out.correct(),
            "attempted" => out.attempted as i64,
            "failed" => out.failed as i64,
            "notes" => Value::Array(out.lines.iter().map(|l| Value::from(l.as_str())).collect()),
            "metrics" => metrics.clone(),
        };
        let mut file =
            std::fs::OpenOptions::new().create(true).append(true).open(path).expect("--out file");
        writeln!(file, "{}", record.to_string_compact()).expect("--out file");
    }
    let result = jobj! {
        "correct" => out.correct(),
        "attempted" => out.attempted as i64,
        "failed" => out.failed as i64,
        "metrics" => metrics,
    };
    println!("{}", result.to_string_compact());
    std::process::exit(i32::from(!out.correct()));
}

#[cfg(test)]
mod tests;

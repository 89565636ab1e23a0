//! The invariant gates as one table, the way [`crate::paper`] holds the
//! paper: a [`GATES`] row per gate, then the chaos matrix beyond seed 1 as
//! golden-less [`MATRIX`] rows. A gate asserts its counted invariants and
//! returns its canonical document — counts and simulated time only, so a
//! committed `BENCH_*.json` is compared to the byte — beside its
//! wall-clock readings, which are printed as measured text and held to
//! their bars by the `gate` binary alone: `tests/gates.rs` walks the table
//! unoptimized, where a wall-clock bar reads the build, not the code.

mod alert_chaos;
mod chaos_sweep;
mod crash_recovery;
mod dashboard_storm;
mod metrics_lint;
mod query_observe;
mod query_pushdown;

use crate::report::Cli;
use monster_json::Value;
use monster_sim::FaultProfile;

/// One invariant gate.
pub struct Gate {
    pub name: &'static str,
    /// Its committed document at the repository root, if it has one.
    pub golden: Option<&'static str>,
    pub run: fn() -> Outcome,
}

/// What a gate produced once every counted invariant held.
pub struct Outcome {
    doc: Value,
    walls: Vec<Wall>,
}

impl Outcome {
    /// The document as its golden holds it.
    pub fn text(&self) -> String {
        self.doc.to_string_pretty() + "\n"
    }
}

/// A wall-clock reading and whether it met its bar.
struct Wall {
    reading: String,
    held: bool,
}

/// Every gate, in the order one process runs them. Until item 5(a) gives
/// each deployment its own registry, they all share the global one, but
/// nothing known ties their order any more. Every `/v1/metrics` reply
/// stamps the worst freshness lag, which the tracker now keeps as a
/// minimum instead of walking every series it holds, so the storm costs
/// the same after the chaos replays as before them (unoptimized,
/// `gate chaos_sweep dashboard_storm` 11 s against 56 s when it walked;
/// `dashboard_storm` alone 7 s). `metrics_lint`'s 32-series budget a
/// family counts the `monster_tsdb_shard_points{shard=…}` gauges of every
/// store before it as well, and held in this order and reversed. The rest
/// read the registry as deltas, after a reset of their own, or by their
/// own trace ids.
#[rustfmt::skip]
pub const GATES: &[Gate] = &[
    Gate { name: "query_pushdown", golden: Some("BENCH_query.json"), run: query_pushdown::run },
    Gate { name: "crash_recovery", golden: Some("BENCH_recovery.json"), run: crash_recovery::run },
    Gate { name: "dashboard_storm", golden: Some("BENCH_serve.json"), run: dashboard_storm::run },
    Gate { name: "query_observe", golden: Some("BENCH_observe.json"), run: query_observe::run },
    Gate { name: "metrics_lint", golden: None, run: metrics_lint::run },
    Gate { name: "chaos_sweep", golden: Some("BENCH_chaos.json"), run: || chaos_sweep::run(1, &FaultProfile::ALL) },
    Gate { name: "alert_chaos", golden: Some("BENCH_alerts.json"), run: || alert_chaos::run(1, &FaultProfile::ALL) },
];

/// The three faulty profiles at seeds 2–4, which `gate all` runs after
/// [`GATES`] (whose chaos rows are seed 1).
const FAULTY: [FaultProfile; 3] =
    [FaultProfile::FlakyTail, FaultProfile::RollingBrownout, FaultProfile::DeadRack];

#[rustfmt::skip]
pub const MATRIX: &[Gate] = &[
    Gate { name: "chaos_sweep/seed2", golden: None, run: || chaos_sweep::run(2, &FAULTY) },
    Gate { name: "chaos_sweep/seed3", golden: None, run: || chaos_sweep::run(3, &FAULTY) },
    Gate { name: "chaos_sweep/seed4", golden: None, run: || chaos_sweep::run(4, &FAULTY) },
    Gate { name: "alert_chaos/seed2", golden: None, run: || alert_chaos::run(2, &FAULTY) },
    Gate { name: "alert_chaos/seed3", golden: None, run: || alert_chaos::run(3, &FAULTY) },
    Gate { name: "alert_chaos/seed4", golden: None, run: || alert_chaos::run(4, &FAULTY) },
];

/// `gate <name>… | all | list [--check DIR | --write DIR]`: run each named
/// row and print its document, then its wall-clock readings; with
/// `--check` also compare the document with `DIR/<golden>`, with `--write`
/// (re)write that file. The error lists every golden that differed and
/// every wall-clock bar missed.
pub fn run(args: &[String], stdout: &mut dyn std::io::Write) -> Result<(), String> {
    let cli = Cli::parse("gate", args)?;
    let table: Vec<&Gate> = GATES.iter().chain(MATRIX).collect();
    let Some(plan) = cli.plan(&table, |g| g.name, "gate", stdout)? else {
        return Ok(());
    };
    let mut failures = Vec::new();
    for gate in plan {
        eprintln!("gate: {}", gate.name);
        let outcome = (gate.run)();
        let text = outcome.text();
        stdout.write_all(text.as_bytes()).expect("stdout");
        for wall in &outcome.walls {
            writeln!(stdout, "{}", wall.reading).expect("stdout");
            if !wall.held {
                failures.push(format!("{} missed its wall-clock bar: {}", gate.name, wall.reading));
            }
        }
        if let Some(file) = gate.golden {
            failures.extend(cli.settle(gate.name, file, &text).err());
        }
    }
    failures.is_empty().then_some(()).ok_or_else(|| failures.join("\n"))
}

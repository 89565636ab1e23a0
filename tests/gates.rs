//! The invariant gates in tier-1: every row of `monster_bench::gate::GATES`
//! in one process, in table order, each document against its committed
//! `BENCH_*.json`. Wall-clock bars are the `gate` binary's (release); every
//! counted invariant a gate asserts holds here too.

use monster_bench::gate::{GATES, MATRIX};
use monster_bench::report::Cli;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

#[test]
fn every_gate_holds_its_invariants_and_reproduces_its_golden() {
    let args = ["--check".to_string(), ROOT.to_string()];
    let cli = Cli::parse("gate", &args).unwrap();
    let mut failures = Vec::new();
    for gate in GATES {
        let outcome = (gate.run)();
        if let Some(file) = gate.golden {
            failures.extend(cli.settle(gate.name, file, &outcome.text()).err());
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The repository's `BENCH_*.json` files are what the gate table checks:
/// a golden without a gate, or a gate whose golden is missing, fails here.
#[test]
fn the_root_bench_files_are_the_goldens_the_table_names() {
    let mut files: Vec<String> = std::fs::read_dir(ROOT)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    files.sort_unstable();
    let mut goldens: Vec<&str> = GATES.iter().filter_map(|g| g.golden).collect();
    goldens.sort_unstable();
    assert_eq!(files, goldens);
    assert!(MATRIX.iter().all(|row| row.golden.is_none()));
    let mut names: Vec<&str> = GATES.iter().chain(MATRIX).map(|g| g.name).collect();
    names.sort_unstable();
    assert!(names.windows(2).all(|w| w[0] != w[1]), "duplicate name in {names:?}");
}

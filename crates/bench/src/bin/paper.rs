//! `paper <name>… | all | list [--check DIR | --write DIR]` — the paper's
//! tables and figures (DESIGN.md §3), one registry row each.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    monster_bench::report::exit_on(monster_bench::paper::run(&args, &mut std::io::stdout()));
}

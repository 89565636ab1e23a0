//! `gate <name>… | all | list [--check DIR | --write DIR]` — the invariant
//! gates, one table row each, then the chaos matrix beyond seed 1.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    monster_bench::report::exit_on(monster_bench::gate::run(&args, &mut std::io::stdout()));
}

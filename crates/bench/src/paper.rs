//! The paper's tables and figures as one table-driven program: a
//! [`REGISTRY`] row per DESIGN.md §3 entry, [`Fixtures`] that populate each
//! distinct deployment once per process, and a comparison of every
//! experiment's *stable* text with a committed golden
//! (`crates/bench/expectations/paper/<name>.txt`).

use crate::{populated, report};
use monster_collector::SchemaVersion;
use monster_core::Monster;
use monster_sim::DiskModel;
use std::cell::RefCell;
use std::fmt;
use std::path::Path;
use std::rc::Rc;

/// What one experiment prints. Text that is a function of the code goes to
/// both streams; text that depends on the host's speed is *measured*: it is
/// printed in place but left out of what a golden is compared with.
#[derive(Default)]
pub struct Out {
    printed: String,
    stable: String,
}

impl Out {
    pub fn stable(&mut self, text: fmt::Arguments<'_>) {
        let text = text.to_string();
        self.printed.push_str(&text);
        self.stable.push_str(&text);
    }

    pub fn measured(&mut self, text: fmt::Arguments<'_>) {
        self.printed.push_str(&text.to_string());
    }
}

/// `print!` into an experiment's stable text.
macro_rules! put {
    ($out:expr, $($arg:tt)*) => { $out.stable(format_args!($($arg)*)) };
}

/// `println!` into an experiment's stable text.
macro_rules! say {
    ($out:expr) => { $out.stable(format_args!("\n")) };
    ($out:expr, $($arg:tt)*) => {{
        $out.stable(format_args!($($arg)*));
        $out.stable(format_args!("\n"))
    }};
}

mod ablation;
mod analysis;
mod inventory;
mod queries;

/// A populated deployment's identity: schema, disk, days of 60 s history.
pub type Deployment = (SchemaVersion, DiskModel, i64);

const PH7: Deployment = (SchemaVersion::Previous, DiskModel::HDD, 7);
const PS7: Deployment = (SchemaVersion::Previous, DiskModel::SSD, 7);
const OH7: Deployment = (SchemaVersion::Optimized, DiskModel::HDD, 7);
const OS7: Deployment = (SchemaVersion::Optimized, DiskModel::SSD, 7);
const PH3: Deployment = (SchemaVersion::Previous, DiskModel::HDD, 3);

/// The populated deployments of one run, each built when an experiment
/// first asks for it and dropped when the last experiment that declared it
/// has run.
pub struct Fixtures {
    build: fn(Deployment) -> Monster,
    slots: RefCell<Vec<Slot>>,
}

struct Slot {
    key: Deployment,
    /// Experiments still to finish that declared `key`.
    users: usize,
    held: Option<Rc<Monster>>,
}

impl Fixtures {
    pub fn new(plan: &[&Experiment], build: fn(Deployment) -> Monster) -> Fixtures {
        let mut slots: Vec<Slot> = Vec::new();
        for &key in plan.iter().flat_map(|e| e.needs) {
            match slots.iter_mut().find(|slot| slot.key == key) {
                Some(slot) => slot.users += 1,
                None => slots.push(Slot { key, users: 1, held: None }),
            }
        }
        Fixtures { build, slots: RefCell::new(slots) }
    }

    /// The deployment `key`, which the running experiment must declare in
    /// its `needs`: nothing else tells when it can be dropped.
    pub fn get(&self, key: Deployment) -> Rc<Monster> {
        let mut slots = self.slots.borrow_mut();
        let slot = slots
            .iter_mut()
            .find(|slot| slot.key == key && slot.users > 0)
            .unwrap_or_else(|| panic!("no experiment still to run declares {key:?}"));
        Rc::clone(slot.held.get_or_insert_with(|| Rc::new((self.build)(key))))
    }

    /// An experiment with these `needs` has finished.
    pub fn retire(&self, needs: &[Deployment]) {
        for slot in self.slots.borrow_mut().iter_mut().filter(|slot| needs.contains(&slot.key)) {
            slot.users -= 1;
            if slot.users == 0 {
                slot.held = None;
            }
        }
    }

    /// The deployments held right now.
    pub fn held(&self) -> Vec<Deployment> {
        self.slots.borrow().iter().filter(|s| s.held.is_some()).map(|s| s.key).collect()
    }
}

/// One reproducible table, figure or statistic of the paper.
pub struct Experiment {
    pub name: &'static str,
    pub needs: &'static [Deployment],
    pub run: fn(&Fixtures, &mut Out),
}

/// Every experiment, in DESIGN.md §3 order (which `all` runs them in).
#[rustfmt::skip]
pub const REGISTRY: &[Experiment] = &[
    Experiment { name: "table1", needs: &[], run: inventory::table1 },
    Experiment { name: "table2", needs: &[], run: inventory::table2 },
    Experiment { name: "table3", needs: &[], run: inventory::table3 },
    Experiment { name: "table4", needs: &[], run: inventory::table4 },
    Experiment { name: "fig06", needs: &[], run: analysis::fig06 },
    Experiment { name: "fig07", needs: &[], run: analysis::fig07 },
    Experiment { name: "fig08", needs: &[], run: analysis::fig08 },
    Experiment { name: "fig09", needs: &[], run: analysis::fig09 },
    Experiment { name: "fig10", needs: &[PH7], run: queries::fig10 },
    Experiment { name: "fig11", needs: &[PH3], run: queries::fig11 },
    Experiment { name: "fig12", needs: &[PH7, PS7], run: queries::fig12 },
    Experiment { name: "fig13", needs: &[PH7, OH7], run: queries::fig13 },
    Experiment { name: "fig14", needs: &[PS7, OS7], run: queries::fig14 },
    Experiment { name: "fig15", needs: &[OS7], run: queries::fig15 },
    Experiment { name: "fig16", needs: &[PH7, PS7, OS7], run: queries::fig16 },
    Experiment { name: "fig17", needs: &[OS7], run: queries::fig17 },
    Experiment { name: "fig18", needs: &[OS7], run: queries::fig18 },
    Experiment { name: "fig19", needs: &[OS7], run: queries::fig19 },
    Experiment { name: "collect_sweep", needs: &[], run: inventory::collect_sweep },
    Experiment { name: "volume", needs: &[], run: inventory::volume },
    Experiment { name: "ablation", needs: &[], run: ablation::ablation },
];

/// `paper <name>… | all | list [--check DIR | --write DIR]`: print each
/// named experiment's text to `stdout`, exactly and only that; with
/// `--check` also compare its stable text with `DIR/<name>.txt`, with
/// `--write` (re)write that file. The error lists every golden that
/// differed.
pub fn run(args: &[String], stdout: &mut dyn std::io::Write) -> Result<(), String> {
    let mut names: Vec<&str> = Vec::new();
    let mut golden: Option<(&str, &Path)> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" | "--write" => {
                let dir = args.next().ok_or_else(|| format!("{arg} needs a directory"))?;
                golden = Some((arg, Path::new(dir)));
            }
            name => names.push(name),
        }
    }
    if names == ["list"] {
        REGISTRY.iter().for_each(|e| writeln!(stdout, "{}", e.name).expect("stdout"));
        return Ok(());
    }
    let plan: Vec<&Experiment> = if names == ["all"] {
        REGISTRY.iter().collect()
    } else {
        let find = |name: &&str| {
            REGISTRY.iter().find(|e| e.name == *name).ok_or_else(|| {
                format!("unknown experiment {name:?}; `paper list` names them, `all` runs them")
            })
        };
        names.iter().map(find).collect::<Result<_, _>>()?
    };
    if plan.is_empty() {
        return Err("usage: paper <name>… | all | list [--check DIR | --write DIR]".into());
    }
    let fixtures = Fixtures::new(&plan, |(schema, disk, days)| {
        eprintln!("  populating {days} days ({schema:?} schema, {})...", disk.name);
        populated(schema, disk, days, 60)
    });
    let mut failures = Vec::new();
    for experiment in plan {
        eprintln!("paper: {}", experiment.name);
        let mut out = Out::default();
        (experiment.run)(&fixtures, &mut out);
        fixtures.retire(experiment.needs);
        stdout.write_all(out.printed.as_bytes()).expect("stdout");
        if let Some((mode, dir)) = golden {
            let file = dir.join(format!("{}.txt", experiment.name));
            if mode == "--write" {
                std::fs::write(&file, &out.stable)
                    .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
            } else {
                let regenerate = format!(
                    "cargo run --release -p monster-bench --bin paper -- {} --write {}",
                    experiment.name,
                    dir.display()
                );
                failures.extend(report::expect(&out.stable, &file, &regenerate).err());
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_core::MonsterConfig;

    fn run_str(args: &[&str]) -> (Result<(), String>, String) {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let mut stdout = Vec::new();
        let result = run(&args, &mut stdout);
        (result, String::from_utf8(stdout).unwrap())
    }

    /// DESIGN.md §3 is the index of what the paper shows; its "Regenerated
    /// by" column and the registry must name the same experiments.
    #[test]
    fn registry_names_are_unique_and_are_the_design_index() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        names.sort_unstable();
        assert!(names.windows(2).all(|w| w[0] != w[1]), "duplicate name in {names:?}");

        let design = include_str!("../../../DESIGN.md");
        let section = design.split("\n## 3. ").nth(1).and_then(|s| s.split("\n## 4. ").next());
        let mut indexed: Vec<&str> = section
            .expect("DESIGN.md §3")
            .lines()
            .filter(|line| line.starts_with("| "))
            .filter_map(|row| row.trim_end_matches(" |").rsplit(" | ").next())
            .flat_map(|cell| cell.split("`paper ").skip(1))
            .filter_map(|rest| rest.split('`').next())
            .collect();
        indexed.sort_unstable();
        assert_eq!(names, indexed);
        let (listed, text) = run_str(&["list"]);
        assert_eq!(listed, Ok(()));
        assert_eq!(text.lines().count(), REGISTRY.len());
    }

    #[test]
    fn cheap_experiments_match_their_goldens_and_a_changed_byte_fails() {
        let goldens = concat!(env!("CARGO_MANIFEST_DIR"), "/expectations/paper");
        let cheap = ["table1", "table3", "fig06", "fig07"];
        let (checked, printed) = run_str(&[&cheap[..], &["--check", goldens]].concat());
        assert_eq!(checked, Ok(()));
        // Nothing in these four is measured: what is printed is the goldens.
        let expected: String = cheap
            .iter()
            .map(|name| std::fs::read_to_string(format!("{goldens}/{name}.txt")).unwrap())
            .collect();
        assert_eq!(printed, expected);

        let dir = std::env::temp_dir().join(format!("monster-paper-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let golden = std::fs::read_to_string(format!("{goldens}/table3.txt")).unwrap();
        std::fs::write(dir.join("table3.txt"), golden.replacen("103 MB/s", "104 MB/s", 1)).unwrap();
        let (checked, _) = run_str(&["table3", "--check", dir.to_str().unwrap()]);
        let err = checked.unwrap_err();
        assert!(err.contains("table3.txt diverges at line"), "{err}");
        assert!(err.contains("104 MB/s") && err.contains("103 MB/s"), "{err}");
        assert!(err.contains("--bin paper -- table3 --write"), "{err}");
        // `--write` puts back what `--check` then accepts.
        assert_eq!(run_str(&["table3", "--write", dir.to_str().unwrap()]).0, Ok(()));
        assert_eq!(run_str(&["table3", "--check", dir.to_str().unwrap()]).0, Ok(()));
        std::fs::remove_dir_all(&dir).unwrap();

        assert!(run_str(&["fig99"]).0.unwrap_err().contains("unknown experiment"));
    }

    /// `paper all` with a stand-in builder: two experiments that declare
    /// one deployment share it, and after every experiment only
    /// deployments a remaining experiment declares are held.
    #[test]
    fn fixtures_are_shared_and_dropped_with_their_last_user() {
        let plan: Vec<&Experiment> = REGISTRY.iter().collect();
        let fixtures = Fixtures::new(&plan, |(schema, disk, _)| {
            Monster::new(MonsterConfig { nodes: 1, schema, disk, ..MonsterConfig::default() })
        });
        let mut most = 0;
        for (i, experiment) in plan.iter().enumerate() {
            for &need in experiment.needs {
                assert!(Rc::ptr_eq(&fixtures.get(need), &fixtures.get(need)));
            }
            most = most.max(fixtures.held().len());
            fixtures.retire(experiment.needs);
            for held in fixtures.held() {
                assert!(
                    plan[i + 1..].iter().any(|e| e.needs.contains(&held)),
                    "{held:?} outlives {}, its last user",
                    experiment.name
                );
            }
        }
        assert!(fixtures.held().is_empty());
        assert!(most < 5, "{most} of the 5 deployments held at once");
        // fig12 and fig16 both declare PH7: one deployment, not two.
        let fig = |name| REGISTRY.iter().find(|e| e.name == name).unwrap();
        let fixtures = Fixtures::new(&[fig("fig12"), fig("fig16")], fixtures.build);
        let first = fixtures.get(PH7);
        fixtures.retire(fig("fig12").needs);
        assert!(Rc::ptr_eq(&first, &fixtures.get(PH7)));
    }
}

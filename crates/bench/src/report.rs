//! What the two table runners, `paper` and `gate`, share: their command
//! line, `<bin> <name>… | all | list [--check DIR | --write DIR]`, and the
//! comparison of a row's stable text with its committed golden. A golden
//! holds only what is a function of the code (and its seed), so the
//! comparison is to the byte.

use std::io::Write;
use std::path::Path;

/// One parsed command line of a table runner.
pub struct Cli<'a> {
    bin: &'static str,
    names: Vec<&'a str>,
    golden: Option<(&'a str, &'a Path)>,
}

impl<'a> Cli<'a> {
    pub fn parse(bin: &'static str, args: &'a [String]) -> Result<Cli<'a>, String> {
        let mut names = Vec::new();
        let mut golden = None;
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--check" | "--write" => {
                    let dir = args.next().ok_or_else(|| format!("{arg} needs a directory"))?;
                    golden = Some((arg.as_str(), Path::new(dir)));
                }
                name => names.push(name),
            }
        }
        Ok(Cli { bin, names, golden })
    }

    /// The rows of `table` the command line names (`all`: every row, in
    /// table order), or `None` once `list` has printed every row's name.
    pub fn plan<'t, R>(
        &self,
        table: &[&'t R],
        name: fn(&R) -> &str,
        noun: &str,
        stdout: &mut dyn Write,
    ) -> Result<Option<Vec<&'t R>>, String> {
        if self.names == ["list"] {
            table.iter().for_each(|row| writeln!(stdout, "{}", name(row)).expect("stdout"));
            return Ok(None);
        }
        let plan: Vec<&R> = if self.names == ["all"] {
            table.to_vec()
        } else {
            let find = |wanted: &&str| {
                table.iter().copied().find(|row| name(row) == *wanted).ok_or_else(|| {
                    format!(
                        "unknown {noun} {wanted:?}; `{} list` names them, `all` runs them",
                        self.bin
                    )
                })
            };
            self.names.iter().map(find).collect::<Result<_, _>>()?
        };
        if plan.is_empty() {
            return Err(format!(
                "usage: {} <name>… | all | list [--check DIR | --write DIR]",
                self.bin
            ));
        }
        Ok(Some(plan))
    }

    /// With `--check`, compare `stable`, what row `row` produced, with
    /// `DIR/file`; with `--write`, (re)write that file; without either,
    /// nothing.
    pub fn settle(&self, row: &str, file: &str, stable: &str) -> Result<(), String> {
        let Some((mode, dir)) = self.golden else { return Ok(()) };
        let path = dir.join(file);
        if mode == "--write" {
            return std::fs::write(&path, stable)
                .map_err(|e| format!("cannot write {}: {e}", path.display()));
        }
        let regenerate = format!(
            "cargo run --release -p monster-bench --bin {} -- {row} --write {}",
            self.bin,
            dir.display()
        );
        expect(stable, &path, &regenerate)
    }
}

/// Compare `got` with the file `golden`. The error shows the first line
/// that differs and `regenerate`, the command that rewrites the file.
fn expect(got: &str, golden: &Path, regenerate: &str) -> Result<(), String> {
    let want = std::fs::read_to_string(golden)
        .map_err(|e| format!("cannot read expectation {}: {e}", golden.display()))?;
    if want == got {
        return Ok(());
    }
    let line = want
        .lines()
        .zip(got.lines())
        .position(|(w, g)| w != g)
        .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
    Err(format!(
        "{} diverges at line {}:\n  expected: {}\n  got:      {}\n\
         if the change is intentional, regenerate with:\n  {regenerate}",
        golden.display(),
        line + 1,
        want.lines().nth(line).unwrap_or("<eof>"),
        got.lines().nth(line).unwrap_or("<eof>"),
    ))
}

/// Print `failure`, if any, and exit 1: how a checking binary fails.
pub fn exit_on(failure: Result<(), String>) {
    if let Err(message) = failure {
        eprintln!("{message}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mismatch_names_the_first_diverging_line_and_the_regenerate_command() {
        let golden =
            std::env::temp_dir().join(format!("monster-bench-expect-{}", std::process::id()));
        std::fs::write(&golden, "{\n  \"misses\": 52\n}\n").unwrap();
        assert_eq!(expect("{\n  \"misses\": 52\n}\n", &golden, "regen"), Ok(()));
        let err = expect("{\n  \"misses\": 53\n}\n", &golden, "cargo run --bin gate").unwrap_err();
        assert!(err.contains("diverges at line 2"), "{err}");
        assert!(err.contains("expected:   \"misses\": 52"), "{err}");
        assert!(err.contains("got:        \"misses\": 53"), "{err}");
        assert!(err.ends_with("regenerate with:\n  cargo run --bin gate"), "{err}");
        // One text a prefix of the other: the first line past the shorter.
        let err = expect("{\n", &golden, "regen").unwrap_err();
        assert!(err.contains("diverges at line 2") && err.contains("got:      <eof>"), "{err}");
        std::fs::remove_file(&golden).unwrap();
        assert!(expect("", &golden, "regen").unwrap_err().starts_with("cannot read expectation"));
    }
}

//! What the gate binaries share: how they read a flag, where a report
//! goes, and its comparison with the committed one. A `BENCH_*.json` holds only
//! members that are a function of (code, seed), so `--expect FILE` is a
//! byte comparison.

use monster_json::Value;
use std::path::Path;

/// The value after `flag` on this process's command line.
pub fn arg(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    args.find(|a| a == flag).and_then(|_| args.next())
}

/// Compare `got` with the file `golden`. The error shows the first line
/// that differs and `regenerate`, the command that rewrites the file.
pub fn expect(got: &str, golden: &Path, regenerate: &str) -> Result<(), String> {
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

/// Finish a gate run. Without `--expect` the report is written to
/// `$BENCH_OUT`, by default `file` in the working directory. With
/// `--expect FILE` it is compared with FILE instead (exit 1 on any
/// difference) and written only where `$BENCH_OUT` says.
pub fn finish(file: &str, doc: &Value) {
    let text = doc.to_string_pretty() + "\n";
    let golden = arg("--expect");
    // Compare before writing: `$BENCH_OUT` may name the golden itself.
    let verdict = golden.as_ref().map_or(Ok(()), |golden| {
        let mut argv: Vec<String> = std::env::args().collect();
        let at = argv.iter().position(|a| a == "--expect").expect("found above");
        argv.drain(at..at + 2);
        // The same invocation, writing where it compared.
        expect(&text, Path::new(golden), &format!("BENCH_OUT={golden} {}", argv.join(" ")))
    });
    let out = std::env::var("BENCH_OUT").ok().or_else(|| golden.is_none().then(|| file.into()));
    if let Some(out) = out {
        std::fs::write(&out, &text).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!("wrote {out}");
    }
    exit_on(verdict);
    if let Some(golden) = golden {
        println!("matches {golden}");
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

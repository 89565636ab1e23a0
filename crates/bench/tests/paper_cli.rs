//! The `paper` binary's exit status and streams — what the CI `gates`
//! job's `paper all --check` step relies on. (The comparison itself is
//! unit-tested in `monster_bench::paper` and `monster_bench::report`.)

use std::process::Command;

#[test]
fn check_exits_zero_on_a_match_and_one_with_the_diverging_line_on_a_mismatch() {
    let goldens = concat!(env!("CARGO_MANIFEST_DIR"), "/expectations/paper");
    let paper = |dir: &str| {
        Command::new(env!("CARGO_BIN_EXE_paper")).args(["table3", "--check", dir]).output().unwrap()
    };
    let golden = std::fs::read_to_string(format!("{goldens}/table3.txt")).unwrap();

    let matching = paper(goldens);
    assert!(matching.status.success(), "{}", String::from_utf8_lossy(&matching.stderr));
    assert_eq!(String::from_utf8(matching.stdout).unwrap(), golden);

    let dir = std::env::temp_dir().join(format!("monster-paper-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("table3.txt"), golden.replacen("391 MB/s", "392 MB/s", 1)).unwrap();
    let differing = paper(dir.to_str().unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(differing.status.code(), Some(1));
    // What the experiment prints is still printed; the verdict is on stderr.
    assert_eq!(String::from_utf8(differing.stdout).unwrap(), golden);
    let stderr = String::from_utf8(differing.stderr).unwrap();
    assert!(stderr.contains("table3.txt diverges at line"), "{stderr}");
    assert!(stderr.contains("expected:") && stderr.contains("392 MB/s"), "{stderr}");
    assert!(stderr.contains("regenerate with:") && stderr.contains("--write"), "{stderr}");
}

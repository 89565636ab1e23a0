//! The `monster` binary's command line: a flag it cannot use is a usage
//! error (exit 2 and the usage text), never a panic, a silent default or a
//! wrapped number.

use std::process::Command;

fn monster(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_monster")).args(args).output().unwrap();
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn unusable_flags_exit_2_with_the_usage_text() {
    for args in [
        &["report", "--hours", "0"][..],
        &["top", "--nodes", "0"],
        &["top", "--nodes", "abc"],
        &["serve", "--port", "70000"],
        &["demo", "--intervals", "-3"],
        &["watch", "--nodes"],
    ] {
        let (code, stdout, stderr) = monster(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage:\n"), "{args:?}: {stderr}");
        assert_eq!(stdout, "", "{args:?} ran");
    }
}

#[test]
fn top_shows_what_the_builder_served() {
    let (code, stdout, stderr) = monster(&["top", "--nodes", "2", "--intervals", "1"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("frame 1/1: shown 2/2  util"), "{stdout}");
    assert!(!stdout.contains("NaN"), "{stdout}");
}

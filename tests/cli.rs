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

/// `serve` runs one collection interval a cadence of wall (60 s), not one
/// every few hundred milliseconds: two `/metrics` scrapes 2 s apart see the
/// interval counter move by at most one.
#[test]
fn serve_collects_once_a_cadence_of_wall() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::process::{Child, Stdio};
    use std::time::Duration;

    struct Killed(Child);
    impl Drop for Killed {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let mut child = Killed(
        Command::new(env!("CARGO_BIN_EXE_monster"))
            .args(["serve", "--nodes", "4", "--port", "0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let stdout = child.0.stdout.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let base = loop {
        let line = rx.recv_timeout(Duration::from_secs(120)).expect("a `try: curl` line");
        if let Some(url) = line.strip_prefix("try: curl 'http://") {
            break url.split('/').next().unwrap().to_string();
        }
    };
    let intervals = || {
        let mut stream = std::net::TcpStream::connect(&base).unwrap();
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: {base}\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        monster::obs::sample(&reply, "monster_collector_intervals_total").expect("the counter")
    };
    let first = intervals();
    std::thread::sleep(Duration::from_secs(2));
    let second = intervals();
    assert!(second - first <= 1.0, "{first} -> {second} intervals in 2 s of wall");
}

//! Command-line behaviour of the `sword` binary: help requests and flag
//! validation, checked on the built executable's exit status and output.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn sword(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sword")).args(args).output().expect("sword binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_requests_print_usage_and_succeed() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["help"],
        &["run", "--help"],
        &["run", "-h"],
        &["analyze", "-h"],
        &["fuzz", "--help"],
    ] {
        let out = sword(args);
        assert!(out.status.success(), "{args:?} exits 0; stderr: {}", stderr(&out));
        assert!(stdout(&out).starts_with("usage:"), "{args:?} prints usage: {}", stdout(&out));
        assert!(stderr(&out).is_empty(), "{args:?} writes no error: {}", stderr(&out));
    }
}

#[test]
fn closed_stdout_ends_quietly() {
    // The reader goes away after the first line (`sword list | head -1`),
    // and, deterministically, before the first write.
    for lines_read in [1, 0] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sword"))
            .arg("list")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sword binary runs");
        let pipe = child.stdout.take().expect("piped stdout");
        if lines_read == 1 {
            let mut reader = BufReader::new(pipe);
            let mut line = String::new();
            reader.read_line(&mut line).expect("first line");
            assert!(!line.is_empty(), "sword list prints at least one line");
        } else {
            drop(pipe);
        }
        let out = child.wait_with_output().expect("sword exits");
        assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
        assert!(out.status.success(), "exit {:?}; stderr: {}", out.status, stderr(&out));
    }
}

#[test]
fn missing_command_is_still_an_error() {
    let out = sword(&[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("error: missing command"), "{}", stderr(&out));
}

#[test]
fn fixed_size_workload_rejects_size() {
    let session = std::env::temp_dir().join(format!("sword-cli-size-{}", std::process::id()));
    for cmd in ["run", "check"] {
        let out =
            sword(&[cmd, "AMG2013_10", "--size", "30", "--session", session.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{cmd}: stdout {}", stdout(&out));
        assert!(
            stderr(&out).contains("error: workload `AMG2013_10` has a fixed size"),
            "{cmd}: {}",
            stderr(&out)
        );
        assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    }
    assert!(!session.exists(), "a rejected run writes no session");
}

#[test]
fn sized_workload_still_takes_size() {
    let session = std::env::temp_dir().join(format!("sword-cli-sized-{}", std::process::id()));
    let out = sword(
        &["run", "c_pi", "--threads", "2", "--size", "64", "--session"]
            .into_iter()
            .chain([session.to_str().unwrap()])
            .collect::<Vec<_>>(),
    );
    std::fs::remove_dir_all(&session).ok();
    assert!(out.status.success(), "{}", stderr(&out));
}

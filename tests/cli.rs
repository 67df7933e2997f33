//! Regression tests for the `spsim` command-line front end: exit codes
//! and output of its error paths and of `spsim trace`.

use std::process::{Command, Output};

fn spsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spsim")).args(args).output().expect("spsim runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_trace_name_fails() {
    let out = spsim(&["trace", "nosuchtrace"]);
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(stderr(&out).contains("unknown trace"), "stderr: {}", stderr(&out));
}

#[test]
fn missing_trace_file_fails() {
    let missing = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("spsim-cli-no-such-dir")
        .join("trace.jsonl");
    assert!(!missing.exists());
    let out = spsim(&["trace", "poisson", "--file", missing.to_str().expect("utf-8 path")]);
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(stderr(&out).contains("cannot load"), "stderr: {}", stderr(&out));
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_1() {
    let out = spsim(&["bogus"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("usage: spsim"), "stderr: {}", stderr(&out));
}

#[test]
fn batch_trace_emits_one_jsonl_line_per_request() {
    let out = spsim(&["trace", "batch", "--requests", "3"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 3, "stdout: {stdout}");
    for (id, line) in lines.iter().enumerate() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
        assert!(line.contains(&format!("\"id\":{id},")), "line {id}: {line}");
    }
}

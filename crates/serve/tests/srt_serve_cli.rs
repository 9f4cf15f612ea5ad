//! The `srt_serve` binary's flag parsing, run as a child process.
//!
//! `parse_args` runs before the fixture world is trained, so neither
//! invocation starts a server or leaves a process behind.

use std::process::{Command, Output};

fn srt_serve(flag: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_srt_serve"))
        .arg(flag)
        .output()
        .expect("srt_serve starts")
}

#[test]
fn unknown_flag_is_refused_and_help_prints_the_usage() {
    let bogus = srt_serve("--bogus");
    let stderr = String::from_utf8_lossy(&bogus.stderr);
    assert_eq!(bogus.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown flag"), "stderr: {stderr}");
    assert!(
        !stderr.contains("training"),
        "refused before training: {stderr}"
    );

    let help = srt_serve("--help");
    let stdout = String::from_utf8_lossy(&help.stdout);
    assert_eq!(help.status.code(), Some(0), "stdout: {stdout}");
    let usage = stdout
        .lines()
        .find(|l| l.starts_with("usage: srt_serve"))
        .unwrap_or_else(|| panic!("no usage line in: {stdout}"));
    for flag in [
        "--addr",
        "--workers",
        "--queue",
        "--model",
        "--max-batch",
        "--batch-window",
    ] {
        assert!(usage.contains(flag), "usage line lacks {flag}: {usage}");
    }
    assert!(
        !usage.contains("--smoke"),
        "usage line still lists --smoke: {usage}"
    );
    assert!(
        !String::from_utf8_lossy(&help.stderr).contains("training"),
        "--help must exit before the fixture trains"
    );
}

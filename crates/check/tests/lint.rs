//! The lint self-test: plants one violation of each rule class in
//! `tests/fixtures/lint/`, asserts the library finds exactly them, the
//! allowlist suppresses them, the CLI exits nonzero on them — and that
//! the real workspace is clean under its checked-in allowlist (the
//! standing invariant CI enforces).
//!
//! Runs in both normal and `--cfg srt_check` builds.

use srt_check::lint::{parse_allowlist, run_lint};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/check sits two levels below the workspace root")
        .to_path_buf()
}

fn count(violations: &[srt_check::lint::Violation], rule: &str) -> usize {
    violations.iter().filter(|v| v.rule == rule).count()
}

#[test]
fn fixtures_trip_every_rule_class() {
    let violations = run_lint(&fixture_root(), &[]).expect("fixture walk succeeds");
    assert_eq!(count(&violations, "lock-unwrap"), 1, "{violations:?}");
    assert_eq!(count(&violations, "kernels-libm"), 1, "{violations:?}");
    assert_eq!(count(&violations, "dist-clock"), 1, "{violations:?}");
    // Registry version dep + git dep + repo-escaping path dep; the
    // in-repo path dep and the workspace dep are clean.
    assert_eq!(count(&violations, "path-deps"), 3, "{violations:?}");
    // `planted_orphan` is named elsewhere only in a comment;
    // `called_from_tests` is called from the fixture's `tests/uses.rs`,
    // `private_helper` is not `pub`, and the commented-out definition is
    // a comment.
    let orphans: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "orphan-pub")
        .collect();
    assert_eq!(orphans.len(), 1, "{violations:?}");
    assert_eq!(orphans[0].file, "crates/orphan/src/lib.rs");
    assert!(orphans[0].text.contains("planted_orphan"), "{orphans:?}");
    assert_eq!(
        violations.len(),
        7,
        "no unexpected findings: {violations:?}"
    );
}

#[test]
fn comment_lines_do_not_count() {
    // Every fixture file mentions its own pattern in a comment; if
    // comment-skipping broke, the counts above would double. Spot-check
    // the reported lines are the code lines, not the comments.
    let violations = run_lint(&fixture_root(), &[]).expect("fixture walk succeeds");
    for v in &violations {
        assert!(
            !v.text.starts_with("//") && !v.text.starts_with('#'),
            "reported a comment line: {v}"
        );
    }
}

#[test]
fn allowlist_suppresses_each_class() {
    let allow = parse_allowlist(
        "lock-unwrap locky.rs\n\
         kernels-libm kernels.rs .floor()\n\
         dist-clock hot.rs Instant::now\n\
         path-deps Cargo.toml\n\
         orphan-pub crates/orphan/ planted_orphan\n",
    );
    let violations = run_lint(&fixture_root(), &allow).expect("fixture walk succeeds");
    assert!(violations.is_empty(), "not suppressed: {violations:?}");
}

#[test]
fn cli_exits_nonzero_on_fixture_violations() {
    let out = Command::new(env!("CARGO_BIN_EXE_srt-check"))
        .args(["lint", "--root"])
        .arg(fixture_root())
        .output()
        .expect("srt-check binary runs");
    assert!(
        !out.status.success(),
        "lint must fail on planted violations; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "lock-unwrap",
        "kernels-libm",
        "dist-clock",
        "path-deps",
        "orphan-pub",
    ] {
        assert!(stdout.contains(rule), "missing [{rule}] in:\n{stdout}");
    }
}

#[test]
fn real_workspace_is_clean_under_checked_in_allowlist() {
    let root = workspace_root();
    let out = Command::new(env!("CARGO_BIN_EXE_srt-check"))
        .args(["lint", "--root"])
        .arg(&root)
        .output()
        .expect("srt-check binary runs");
    assert!(
        out.status.success(),
        "workspace lint must be clean (allowlist: {}/lint-allow.txt):\n{}{}",
        root.display(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

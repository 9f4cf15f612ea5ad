//! `srt-check` — the project's correctness-tooling CLI.
//!
//! Subcommands:
//!
//! * `lint [--root DIR] [--allow FILE]` — run the project lint pass
//!   (see [`srt_check::lint`]) over the workspace. Exits nonzero when
//!   any violation survives the allowlist. `--allow` defaults to
//!   `<root>/lint-allow.txt` when that file exists.
//!
//! The model suites are not a subcommand: they are `cargo test -p
//! srt-check` under `RUSTFLAGS="--cfg srt_check"` (see the crate docs).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint_cmd(args),
        Some("--help") | Some("-h") | None => {
            eprintln!("usage: srt-check lint [--root DIR] [--allow FILE]");
            ExitCode::from(2)
        }
        Some(other) => {
            eprintln!("srt-check: unknown subcommand `{other}`");
            eprintln!("usage: srt-check lint [--root DIR] [--allow FILE]");
            ExitCode::from(2)
        }
    }
}

fn lint_cmd(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut allow_path: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_err("--root needs a directory"),
            },
            "--allow" => match args.next() {
                Some(v) => allow_path = Some(PathBuf::from(v)),
                None => return usage_err("--allow needs a file"),
            },
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }

    let allow = match &allow_path {
        Some(p) => match srt_check::lint::load_allowlist(p) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("srt-check lint: cannot read allowlist {}: {e}", p.display());
                return ExitCode::from(2);
            }
        },
        None => {
            let default = root.join("lint-allow.txt");
            if default.is_file() {
                match srt_check::lint::load_allowlist(&default) {
                    Ok(a) => a,
                    Err(e) => {
                        eprintln!(
                            "srt-check lint: cannot read allowlist {}: {e}",
                            default.display()
                        );
                        return ExitCode::from(2);
                    }
                }
            } else {
                Vec::new()
            }
        }
    };

    match srt_check::lint::run_lint(&root, &allow) {
        Ok(violations) if violations.is_empty() => {
            println!(
                "srt-check lint: clean ({} suppression(s) loaded)",
                allow.len()
            );
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            eprintln!("srt-check lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("srt-check lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("srt-check lint: {msg}");
    eprintln!("usage: srt-check lint [--root DIR] [--allow FILE]");
    ExitCode::from(2)
}

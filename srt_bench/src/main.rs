//! `srt_bench` — see `README.md` beside this crate.
//!
//! ```text
//! srt_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]
//! srt_bench run   [--seed N] [--seconds S] [--sets K] [--out FILE] [--smoke]
//! srt_bench trace [--seed N] [--seconds S] [--out FILE] [--smoke]
//! srt_bench compare A.json B.json
//! ```
//!
//! The first form is what the driver calls: one workload in this
//! process, a table for people, then one JSON line. `run` and `trace`
//! are the one-command forms: every workload, each in a fresh child
//! process so set-up time, CPU and peak memory are the workload's own.

use srt_perfbench::workloads::{self, Kind, SPECS};
use srt_perfbench::{compare, layers};
use srt_serve::json::{self, Json};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The default seed; check a claim on `SECOND_SEED` as well, which was
/// not used while any change was written.
const DEFAULT_SEED: u64 = 20200420;
const SECOND_SEED: u64 = 20200421;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;
const SMOKE_SECONDS: f64 = 1.0;

/// Per-layer counts that must be identical between two sets.
const EXACT_COUNTERS: [&str; 2] = [
    "core.routing.labels_created_per_query",
    "core.routing.labels_expanded_per_query",
];

const USAGE: &str = "usage:
  srt_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]
  srt_bench run   [--seed N] [--seconds S] [--sets K] [--out FILE] [--smoke]
  srt_bench trace [--seed N] [--seconds S] [--out FILE] [--smoke]
  srt_bench compare A.json B.json
workloads: wire_short wire_anytime engine_long engine_cold_swap";

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
    sets: usize,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        trace_out: None,
        sets: 1,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => o.trace_out = Some(PathBuf::from(value)),
            "--sets" => o.sets = value.parse().ok().filter(|&k| k >= 1).ok_or_else(bad)?,
            "--out" => o.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

impl Options {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

/// One workload in this process. Exit code 0 only for a valid run with
/// every answer correct.
fn run_one(o: &Options) -> Result<ExitCode, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let spec = workloads::spec(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let result = if o.trace {
        let trace_out = o.trace_out.clone().unwrap_or_else(|| {
            // Beside the executable: inside the build directory, which
            // is inside the checkout and ignored by git.
            let exe = std::env::current_exe().expect("the running executable has a path");
            exe.with_file_name(format!("srt_bench_trace_{name}.jsonl"))
        });
        layers::run_traced(spec, o.seed, o.seconds(), o.smoke, &trace_out)
    } else {
        workloads::run_end_to_end(spec, o.seed, o.seconds(), o.smoke)
    };
    print!("{}", result.human());
    if result.invalid.is_some() {
        // An invalid run is not reported: no result line.
        return Ok(ExitCode::from(3));
    }
    println!("{}", result.result_line());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Every workload, each in a fresh child process; `sets` times over.
fn run_sets(o: &Options, traced: bool) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut sets: Vec<String> = Vec::new();
    let mut all_correct = true;
    for set in 0..o.sets {
        let mut members: Vec<String> = Vec::new();
        for spec in &SPECS {
            println!("== set {} of {}: {} ==", set + 1, o.sets, spec.name);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name, "--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds().to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stdout(Stdio::piped());
            if o.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (table, line) = stdout
                .trim_end()
                .rsplit_once('\n')
                .unwrap_or(("", stdout.trim_end()));
            println!("{table}");
            let parsed = json::parse(line).ok().filter(|_| output.status.success());
            let Some(doc) = parsed else {
                println!("{line}");
                return Err(format!("{} failed ({})", spec.name, output.status));
            };
            all_correct &= doc.get("correct").and_then(Json::as_bool) == Some(true);
            members.push(format!("\"{}\":{line}", spec.name));
        }
        sets.push(format!("{{{}}}", members.join(",")));
    }
    let doc = format!(
        "{{\"bench\":\"srt_bench\",\"mode\":\"{}\",\"claim\":null,\"seed\":{},\"second_seed\":{SECOND_SEED},\"seconds\":{:?},\"nproc\":{},\"sets\":[{}]}}",
        if traced { "trace" } else { "run" },
        o.seed,
        o.seconds(),
        srt_perfbench::sys::nproc(),
        sets.join(",")
    );
    if let Some(path) = &o.out {
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("results written to {}", path.display());
    }
    let mut noisy = 0;
    if o.sets >= 2 {
        let parsed = json::parse(&doc).expect("the document just built parses");
        let Some(Json::Arr(all)) = parsed.get("sets") else {
            unreachable!("sets is an array")
        };
        let (first, last) = (&all[0], &all[all.len() - 1]);
        if traced {
            // Counts made by the program must repeat exactly where no
            // deadline cuts a search short.
            println!("== counter self-check: set 1 against set {} ==", all.len());
            for spec in SPECS.iter().filter(|s| s.kind != Kind::WireAnytime) {
                for name in EXACT_COUNTERS {
                    let value = |set: &Json| {
                        set.get(spec.name)?
                            .get("metrics")?
                            .get(name)?
                            .get("value")?
                            .as_f64()
                    };
                    let (a, b) = (value(first), value(last));
                    let same = a.is_some() && a == b;
                    println!(
                        "{:<18} {name:<42} {a:?} {b:?}  {}",
                        spec.name,
                        if same { "identical" } else { "DIFFERS" }
                    );
                    noisy += usize::from(!same);
                }
            }
        } else {
            // The noise self-check: two sets of the same code must agree
            // within every metric's own bound.
            let one =
                |set: &Json| Json::Obj(vec![("sets".to_owned(), Json::Arr(vec![set.clone()]))]);
            println!("== noise self-check: set 1 against set {} ==", all.len());
            let (regressed, unresolved) = compare::compare_docs(&one(first), &one(last));
            noisy = regressed + unresolved;
        }
    }
    Ok(if all_correct && noisy == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_options(&args[1..]).and_then(|o| run_sets(&o, false)),
        Some("trace") => parse_options(&args[1..]).and_then(|o| run_sets(&o, true)),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b).map(|(regressed, _)| {
                if regressed == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }),
            _ => Err("compare takes exactly two files".to_owned()),
        },
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_options(&args).and_then(|o| run_one(&o)),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("srt_bench: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}

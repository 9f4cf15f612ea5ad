//! Drives the real binary in `--smoke` mode: tiny world, one-second
//! phases, no bounds asserted — the harness end to end, in seconds.

use srt_perfbench::schema::{END_TO_END, PER_LAYER};
use srt_perfbench::workloads::SPECS;
use srt_serve::json::{self, Json};
use std::process::Command;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_srt_bench"))
}

#[test]
fn smoke_sets_run_clean_and_compare() {
    let dir = std::env::temp_dir().join(format!("srt_bench_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("run.json");

    let run = bench()
        .args(["run", "--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("srt_bench starts");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "run --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    for m in &END_TO_END {
        assert!(stdout.contains(m.name), "{} is not printed by name", m.name);
    }

    let doc =
        json::parse(&std::fs::read_to_string(&out).unwrap()).expect("the result file is JSON");
    assert_eq!(doc.get("claim"), Some(&Json::Null));
    assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(7));
    let sets = doc.get("sets").and_then(Json::as_arr).unwrap();
    assert_eq!(sets.len(), 1);
    for spec in &SPECS {
        let w = sets[0]
            .get(spec.name)
            .unwrap_or_else(|| panic!("{} missing", spec.name));
        assert_eq!(
            w.get("correct").and_then(Json::as_bool),
            Some(true),
            "{}",
            spec.name
        );
        assert_eq!(
            w.get("failed").and_then(Json::as_u64),
            Some(0),
            "{}",
            spec.name
        );
        assert!(w.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let Some(Json::Obj(metrics)) = w.get("metrics") else {
            panic!("metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{}", spec.name);
    }

    // A file compared with itself has nothing to report.
    let cmp = bench().arg("compare").arg(&out).arg(&out).output().unwrap();
    assert!(cmp.status.success());
    assert!(String::from_utf8_lossy(&cmp.stdout).contains("0 regressed, 0 unresolved"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn smoke_trace_reports_every_layer_and_writes_spans() {
    let dir = std::env::temp_dir().join(format!("srt_bench_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spans = dir.join("spans.jsonl");
    let run = bench()
        .args([
            "--workload",
            "wire_anytime",
            "--seed",
            "7",
            "--trace",
            "1",
            "--smoke",
            "--trace-out",
        ])
        .arg(&spans)
        .output()
        .expect("srt_bench starts");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "traced smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("latency budget") && stdout.contains("unexplained residual"));

    let line = stdout.trim_end().lines().last().unwrap();
    let doc = json::parse(line).expect("the last line is the result");
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, want);

    let text = std::fs::read_to_string(&spans).unwrap();
    let first = json::parse(text.lines().next().unwrap()).expect("a span is a JSON object");
    assert_eq!(first.get("name").and_then(Json::as_str), Some("request"));
    for name in [
        "serve.http.parse",
        "core.routing.route",
        "core.cost.combine",
        "client.wait",
    ] {
        assert!(text.contains(name), "no {name} span");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"],
        &["--trace", "2"],
        &["compare", "a"],
    ] {
        let out = bench().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

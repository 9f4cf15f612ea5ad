//! `srt_bench compare A.json B.json`: per (metric, workload) both
//! values, the difference, the bound, and a verdict.
//!
//! The files are what `srt_bench run --out FILE` writes: one or more
//! sets of runs of every workload. `A` is the parent, `B` the change.
//! A metric has **regressed** when B's median is worse than A's by more
//! than the metric's bound and — where each side has several runs —
//! every run of B is worse than every run of A; worse by more than the
//! bound with overlapping runs is **unresolved**, never "unchanged".

use crate::schema::{Better, END_TO_END};
use crate::stats::median;
use crate::workloads::SPECS;
use srt_serve::json::{self, Json};

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one (metric, workload) pair from every run of each side.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let b_worse_than_a = |x: f64, y: f64| match better {
        Better::Lower => y > x,
        Better::Higher => y < x,
    };
    let separated = a.iter().all(|&x| b.iter().all(|&y| b_worse_than_a(x, y)));
    let verdict = if worse_by <= bound {
        Verdict::Ok
    } else if separated {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    };
    (worse_by, verdict)
}

/// Every value of `metric` on `workload` across a file's sets.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("sets")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|set| {
            set.get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Prints the comparison and returns how many pairs regressed or could
/// not be resolved.
pub fn compare_docs(a: &Json, b: &Json) -> (usize, usize) {
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "worse by", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for spec in &SPECS {
        for m in &END_TO_END {
            let (va, vb) = (values(a, spec.name, m.name), values(b, spec.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (worse_by, verdict) = judge(&va, &vb, m.better, bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            println!(
                "{:<18} {:<22} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {}",
                spec.name,
                m.name,
                median(&va),
                median(&vb),
                100.0 * worse_by,
                100.0 * bound,
                verdict.as_str()
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    (regressed, unresolved)
}

/// Reads and compares two result files.
pub fn compare_files(a: &str, b: &str) -> Result<(usize, usize), String> {
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: not JSON at byte {}: {}", e.at, e.msg))
    };
    Ok(compare_docs(&read(a)?, &read(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_bound_is_ok_in_both_directions() {
        assert_eq!(
            judge(&[100.0], &[107.0], Better::Lower, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(judge(&[100.0], &[50.0], Better::Lower, 0.10).1, Verdict::Ok);
        assert_eq!(
            judge(&[100.0], &[93.0], Better::Higher, 0.08).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&[100.0], &[300.0], Better::Higher, 0.08).1,
            Verdict::Ok
        );
    }

    #[test]
    fn beyond_bound_needs_separation_to_be_a_regression() {
        let (by, v) = judge(&[100.0], &[115.0], Better::Lower, 0.10);
        assert!((by - 0.15).abs() < 1e-12);
        assert_eq!(v, Verdict::Regressed);
        assert_eq!(
            judge(&[100.0], &[80.0], Better::Higher, 0.08).1,
            Verdict::Regressed
        );
        // Medians differ by 15% but the runs overlap: unresolved.
        assert_eq!(
            judge(
                &[90.0, 100.0, 125.0],
                &[110.0, 115.0, 120.0],
                Better::Lower,
                0.10
            )
            .1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(
                &[90.0, 100.0, 105.0],
                &[110.0, 115.0, 120.0],
                Better::Lower,
                0.10
            )
            .1,
            Verdict::Regressed
        );
    }

    #[test]
    fn files_are_read_per_set_and_workload() {
        let a = json::parse(
            r#"{"sets":[{"wire_short":{"metrics":{"lat_p50_ms":{"value":1.0,"unit":"ms"}}}},
                        {"wire_short":{"metrics":{"lat_p50_ms":{"value":1.2,"unit":"ms"}}}}]}"#,
        )
        .unwrap();
        assert_eq!(values(&a, "wire_short", "lat_p50_ms"), vec![1.0, 1.2]);
        assert!(values(&a, "engine_long", "lat_p50_ms").is_empty());
        assert_eq!(compare_docs(&a, &a), (0, 0));
    }
}

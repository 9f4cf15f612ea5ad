//! Result rows: what one run of one workload prints, for people and
//! for the driver.

use crate::schema::MetricDef;

/// Requests sent, succeeded and failed in one phase.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    pub name: &'static str,
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    pub elapsed_s: f64,
    /// What the failures were, when there were any.
    pub failures: String,
}

impl PhaseRow {
    /// An empty row; count into `sent` and `ok`, then [`PhaseRow::close`].
    pub fn new(name: &'static str) -> Self {
        PhaseRow {
            name,
            sent: 0,
            ok: 0,
            failed: 0,
            elapsed_s: 0.0,
            failures: String::new(),
        }
    }

    /// Closes the books of a row counted by hand.
    pub fn close(&mut self, elapsed_s: f64) {
        self.elapsed_s = elapsed_s;
        self.failed = self.sent - self.ok;
    }
}

/// The outcome of one workload run (traced or not).
#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One value per metric of the table that applies, in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    pub phases: Vec<PhaseRow>,
    /// Latency samples behind the percentiles.
    pub latency_samples: usize,
    /// Why the numbers must not be used, if so (the generator ran late).
    pub invalid: Option<String>,
}

impl RunResult {
    pub fn attempted(&self) -> usize {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> usize {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Every answer was checked and none was wrong or missing.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.attempted() > 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|&(_, v)| v)
    }

    /// The table people read: every metric by name with its unit, the
    /// sample count, the per-phase request counts and the seed.
    pub fn human(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  seconds {}  nproc {}  mode {}\n",
            self.workload,
            self.seed,
            self.seconds,
            crate::sys::nproc(),
            if self.traced { "traced" } else { "end-to-end" },
        );
        for p in &self.phases {
            out.push_str(&format!(
                "  phase {:<12} sent {:>7}  ok {:>7}  failed {:>4}  elapsed {:>8.3} s\n",
                p.name, p.sent, p.ok, p.failed, p.elapsed_s
            ));
            if !p.failures.is_empty() {
                out.push_str(&format!("    failures: {}\n", p.failures));
            }
        }
        out.push_str(&format!("  latency samples {}\n", self.latency_samples));
        for (m, v) in &self.metrics {
            out.push_str(&format!("  {:<44} {:>14.4} {}\n", m.name, v, m.unit));
        }
        if let Some(why) = &self.invalid {
            out.push_str(&format!("  INVALID: {why}\n"));
        }
        out
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every value with all its digits.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                assert!(v.is_finite(), "metric {} is not a finite number", m.name);
                format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            metrics.join(",")
        )
    }
}

/// Pairs a metric table with values computed by name; every metric of
/// the table must be given exactly once.
pub fn fill(table: &'static [MetricDef], values: &[(&str, f64)]) -> Vec<(&'static MetricDef, f64)> {
    assert_eq!(
        values.len(),
        table.len(),
        "one value per metric of the table"
    );
    table
        .iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("no value computed for {}", m.name))
                .1;
            (m, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::END_TO_END;
    use srt_serve::json::{self, Json};

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.25)).collect();
        let r = RunResult {
            workload: "wire_short",
            seed: 1,
            seconds: 2.0,
            traced: false,
            metrics: fill(&END_TO_END, &values),
            phases: vec![PhaseRow {
                name: "paced",
                sent: 10,
                ok: 9,
                failed: 1,
                elapsed_s: 1.0,
                failures: "1 unanswered".to_owned(),
            }],
            latency_samples: 9,
            invalid: None,
        };
        let doc = json::parse(&r.result_line()).expect("the result line is JSON");
        let Json::Obj(members) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, v), def) in metrics.iter().zip(&END_TO_END) {
            assert_eq!(name, def.name);
            assert_eq!(v.get("value").and_then(Json::as_f64), Some(1.25));
            assert_eq!(v.get("unit").and_then(Json::as_str), Some(def.unit));
        }
        assert!(r.human().contains("lat_p99_ms"));
    }
}

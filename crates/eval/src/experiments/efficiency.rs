//! E6 — the Efficiency table.
//!
//! Paper layout (Danish network, authors' testbed):
//!
//! ```text
//! Dist (km)   Mean (sec)
//! [0, 1)      0.06
//! [1, 5)      3.37
//! [5, 10)     9.73
//! ```
//!
//! Absolute numbers depend on the machine and the network size; the
//! reproduction target is the *super-linear growth of mean run time with
//! query distance* (0.06 → 3.37 → 9.73 in the paper).

use crate::experiments::route_queries;
use crate::report::{secs, Table};
use crate::setup::EvalContext;
use srt_core::routing::RouterConfig;
use srt_core::{CombinePolicy, HybridCost};
use srt_synth::{DistanceCategory, QueryGenerator};

/// Timing summary for one distance category.
#[derive(Clone, Debug)]
pub struct EfficiencyRow {
    /// The distance band.
    pub category: DistanceCategory,
    /// Queries measured.
    pub n_queries: usize,
    /// Mean search time in seconds.
    pub mean_s: f64,
    /// Median search time in seconds.
    pub median_s: f64,
    /// Mean labels created per query (machine-independent effort proxy).
    pub mean_labels: f64,
}

/// Runs E6: unbounded (P∞) searches per category, reporting wall-clock
/// means plus the label count as a machine-independent effort measure.
pub fn run(ctx: &EvalContext, queries_per_category: usize) -> (Table, Vec<EfficiencyRow>) {
    let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
    let cfg = RouterConfig::default();
    let mut qg = QueryGenerator::new(0xE6);

    let mut rows = Vec::new();
    let mut table = Table::new(
        "E6 — Efficiency: probabilistic budget routing run time",
        &["Dist (km)", "Mean", "Median", "Mean labels"],
    );

    for cat in DistanceCategory::ALL {
        let queries = qg.generate(
            &ctx.world.graph,
            &ctx.world.model,
            cat,
            queries_per_category,
        );
        if queries.is_empty() {
            continue;
        }
        let results = route_queries(&cost, cfg, &queries, None);
        let mut times: Vec<f64> = results
            .iter()
            .map(|r| r.stats.elapsed.as_secs_f64())
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
        let mean_s = times.iter().sum::<f64>() / times.len() as f64;
        let median_s = times[times.len() / 2];
        let mean_labels = results
            .iter()
            .map(|r| r.stats.labels_created as f64)
            .sum::<f64>()
            / results.len() as f64;

        table.push_row(vec![
            cat.label().into(),
            secs(mean_s),
            secs(median_s),
            format!("{mean_labels:.0}"),
        ]);
        rows.push(EfficiencyRow {
            category: cat,
            n_queries: queries.len(),
            mean_s,
            median_s,
            mean_labels,
        });
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_context, Scale};

    #[test]
    fn effort_grows_with_distance() {
        let ctx = build_context(Scale::Tiny);
        let (_, rows) = run(&ctx, 8);
        assert!(rows.len() >= 2, "need at least two categories");
        // Labels created (machine-independent) must grow with distance.
        for w in rows.windows(2) {
            assert!(
                w[1].mean_labels >= w[0].mean_labels * 0.8,
                "effort shrank: {} -> {}",
                w[0].mean_labels,
                w[1].mean_labels
            );
        }
        // And the longest measured category clearly outweighs the shortest.
        let first = rows.first().expect("non-empty");
        let last = rows.last().expect("non-empty");
        assert!(last.mean_labels > first.mean_labels);
    }

    #[test]
    fn timings_are_positive_and_ordered_fields() {
        let ctx = build_context(Scale::Tiny);
        let (t, rows) = run(&ctx, 5);
        assert_eq!(t.num_rows(), rows.len());
        for r in rows {
            assert!(r.mean_s >= 0.0);
            assert!(r.median_s >= 0.0);
            assert!(r.n_queries > 0);
        }
    }
}

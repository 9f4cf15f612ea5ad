//! E4 — the dependence statistic.
//!
//! "Approximately 75 % of all edge pairs with data are dependent."
//! Measured two ways: (i) the KL-based labelling over well-observed pairs
//! (what the paper could measure), and (ii) the generator's junction-flag
//! rate (the synthetic world's ground truth, unavailable to the paper).

use crate::report::Table;
use crate::setup::EvalContext;

/// Computed dependence rates.
#[derive(Copy, Clone, Debug)]
pub struct DependenceResult {
    /// Pairs examined.
    pub pairs_examined: usize,
    /// KL-labelled dependent fraction (the paper's statistic).
    pub labelled_fraction: f64,
    /// The generator's true junction-flag fraction.
    pub generator_fraction: f64,
}

/// Runs E4 over at most `max_pairs` well-observed pairs.
pub fn run(ctx: &EvalContext, max_pairs: usize) -> (Table, DependenceResult) {
    let pairs = ctx
        .world
        .observations
        .pairs_with_at_least(ctx.training.min_obs);
    let sample: Vec<_> = pairs.into_iter().take(max_pairs).collect();
    let labelled_fraction =
        ctx.world
            .ground_truth
            .dependent_fraction(&ctx.world.graph, &ctx.world.model, &sample);
    let generator_fraction = ctx.world.model.dependent_fraction();

    let result = DependenceResult {
        pairs_examined: sample.len(),
        labelled_fraction,
        generator_fraction,
    };
    let mut table = Table::new(
        "E4 — Dependent edge pairs (paper: ~75 %)",
        &[
            "Pairs examined",
            "KL-labelled dependent",
            "Generator junction flags",
        ],
    );
    table.push_row(vec![
        format!("{}", result.pairs_examined),
        format!("{:.0}%", result.labelled_fraction * 100.0),
        format!("{:.0}%", result.generator_fraction * 100.0),
    ]);
    (table, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_context, Scale};

    #[test]
    fn dependence_rate_is_near_three_quarters() {
        let ctx = build_context(Scale::Tiny);
        let (_, r) = run(&ctx, 200);
        assert!(r.pairs_examined > 20);
        assert!(
            (0.5..=0.95).contains(&r.labelled_fraction),
            "labelled {}",
            r.labelled_fraction
        );
        assert!(
            (0.65..=0.85).contains(&r.generator_fraction),
            "generator {}",
            r.generator_fraction
        );
    }

    #[test]
    fn table_renders_one_row() {
        let ctx = build_context(Scale::Tiny);
        let (t, _) = run(&ctx, 50);
        assert_eq!(t.num_rows(), 1);
    }
}

//! E5 — the Quality table.
//!
//! Paper layout:
//!
//! ```text
//! Dist (km)   P∞    P1    P5    P10
//! [0, 1)      13%   13%   13%   13%
//! [1, 5)      53%   51%   53%   53%
//! [5, 10)     60%   54%   59%   60%
//! ```
//!
//! **Metric.** The paper does not spell out its quality definition; we use
//! the fraction of queries where probabilistic budget routing returns a
//! path with *strictly higher* on-time probability than the deterministic
//! expected-time route (the intro's motivating comparison). Longer queries
//! have more alternative routes, so the win rate grows with distance; the
//! anytime columns (P1/P5/P10 = increasing run-time limits) can only lose
//! quality, most visibly in the longest category — both shapes match the
//! paper's table.
//!
//! **Time limits.** The paper's x ∈ {1, 5, 10} seconds target a
//! 667,950-vertex network; limits here are scaled to the synthetic
//! network so they bite the same way.

use crate::experiments::route_queries;
use crate::report::{pct, Table};
use crate::setup::{EvalContext, Scale};
use srt_core::routing::baseline::ExpectedTimeBaseline;
use srt_core::routing::RouterConfig;
use srt_core::{CombinePolicy, HybridCost};
use srt_synth::{DistanceCategory, QueryGenerator};
use std::time::Duration;

/// Win rates for one distance category.
#[derive(Clone, Debug)]
pub struct QualityRow {
    /// The distance band.
    pub category: DistanceCategory,
    /// Queries evaluated.
    pub n_queries: usize,
    /// Win rate without a deadline (P∞) then per anytime limit.
    pub win_rates: Vec<f64>,
}

/// Anytime limits standing in for the paper's 1/5/10 seconds, scaled to
/// the synthetic network size.
fn anytime_limits(scale: Scale) -> [Duration; 3] {
    match scale {
        Scale::Tiny => [
            Duration::from_micros(100),
            Duration::from_micros(500),
            Duration::from_millis(2),
        ],
        Scale::Small => [
            Duration::from_micros(300),
            Duration::from_millis(2),
            Duration::from_millis(8),
        ],
        Scale::Paper => [
            Duration::from_millis(12),
            Duration::from_millis(40),
            Duration::from_millis(120),
        ],
    }
}

/// Runs E5: routes every query per category at P∞ and each anytime limit,
/// counting strict wins over the expected-time baseline.
pub fn run(ctx: &EvalContext, queries_per_category: usize) -> (Table, Vec<QualityRow>) {
    let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
    let limits = anytime_limits(ctx.scale);
    let cfg = RouterConfig::default();
    let mut qg = QueryGenerator::new(0xE5);

    let mut rows = Vec::new();
    let mut table = Table::new(
        "E5 — Quality: % of queries where PBR strictly beats the expected-time route",
        &["Dist (km)", "P∞", "P1", "P5", "P10"],
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
        let baselines: Vec<f64> = queries
            .iter()
            .map(|q| {
                ExpectedTimeBaseline::solve(&cost, q.source, q.target, q.budget_s)
                    .map(|b| b.probability)
                    .unwrap_or(0.0)
            })
            .collect();

        let mut win_rates = Vec::with_capacity(4);
        let mut variants: Vec<Option<Duration>> = vec![None];
        variants.extend(limits.iter().map(|&l| Some(l)));
        for deadline in variants {
            let results = route_queries(&cost, cfg, &queries, deadline);
            // Wins must clear the histogram-quantization noise floor
            // (~1e-3 probability), so ties never count as improvements.
            let wins = results
                .iter()
                .zip(&baselines)
                .filter(|(r, &b)| r.probability > b + 2e-3)
                .count();
            win_rates.push(wins as f64 / queries.len() as f64);
        }

        table.push_row(vec![
            cat.label().into(),
            pct(win_rates[0]),
            pct(win_rates[1]),
            pct(win_rates[2]),
            pct(win_rates[3]),
        ]);
        rows.push(QualityRow {
            category: cat,
            n_queries: queries.len(),
            win_rates,
        });
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_context, Scale};

    #[test]
    fn quality_rows_have_paper_shape() {
        let ctx = build_context(Scale::Tiny);
        let (_, rows) = run(&ctx, 10);
        assert!(!rows.is_empty());
        for row in &rows {
            assert_eq!(row.win_rates.len(), 4);
            for &w in &row.win_rates {
                assert!((0.0..=1.0).contains(&w));
            }
            // Anytime can never win more than the exhaustive search.
            let p_inf = row.win_rates[0];
            for &w in &row.win_rates[1..] {
                assert!(w <= p_inf + 1e-9, "anytime beat P∞");
            }
        }
    }

    #[test]
    fn longer_limits_do_not_hurt() {
        let ctx = build_context(Scale::Tiny);
        let (_, rows) = run(&ctx, 8);
        for row in rows {
            // P10 >= P1 (monotone in the limit), modulo exact ties.
            assert!(
                row.win_rates[3] + 1e-9 >= row.win_rates[1],
                "P10 {} < P1 {}",
                row.win_rates[3],
                row.win_rates[1]
            );
        }
    }
}

//! A4 — end-to-end cost-model comparison.
//!
//! E3 measures KL on two-edge pairs; this experiment asks the question the
//! paper's introduction actually poses: *does the better cost model pick
//! better routes?* Each policy (hybrid / convolution-only /
//! estimation-only) routes the same queries; the **chosen path** is then
//! replayed through the Monte-Carlo oracle, yielding its *true* on-time
//! probability independent of any cost model's own beliefs.

use crate::experiments::route_queries;
use crate::report::Table;
use crate::setup::EvalContext;
use rand::rngs::StdRng;
use rand::SeedableRng;
use srt_core::routing::RouterConfig;
use srt_core::{CombinePolicy, HybridCost};
use srt_graph::EdgeId;
use srt_synth::{DistanceCategory, QueryGenerator};

/// End-to-end result for one policy.
#[derive(Clone, Debug)]
pub struct PolicyRow {
    /// Policy name.
    pub name: &'static str,
    /// Mean *true* (oracle-replayed) on-time probability of chosen paths.
    pub true_on_time: f64,
    /// Mean probability the policy *believed* its paths had.
    pub believed_on_time: f64,
    /// Mean absolute calibration gap |believed - true|.
    pub calibration_gap: f64,
}

/// Replays `edges` through the oracle `n` times; returns the empirical
/// on-time probability for `budget`.
fn replay_true_probability(
    ctx: &EvalContext,
    edges: &[EdgeId],
    budget: f64,
    n: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = 0usize;
    for _ in 0..n {
        let times = ctx
            .world
            .model
            .simulate_path(&ctx.world.graph, edges, &mut rng);
        if times.iter().sum::<f64>() <= budget {
            hits += 1;
        }
    }
    hits as f64 / n as f64
}

/// Runs A4 on `[1, 5)` km queries with `replays` oracle simulations per
/// chosen path.
pub fn run(ctx: &EvalContext, n_queries: usize, replays: usize) -> (Table, Vec<PolicyRow>) {
    let mut qg = QueryGenerator::new(0xA4);
    let queries = qg.generate(
        &ctx.world.graph,
        &ctx.world.model,
        DistanceCategory::OneToFive,
        n_queries,
    );

    let policies: [(&'static str, CombinePolicy); 3] = [
        ("hybrid (paper)", CombinePolicy::Hybrid),
        ("convolution only", CombinePolicy::AlwaysConvolve),
        ("estimation only", CombinePolicy::AlwaysEstimate),
    ];

    let mut rows = Vec::new();
    let mut table = Table::new(
        "A4 — End-to-end route quality by cost model ([1, 5) km)",
        &["Cost model", "True P(on time)", "Believed", "|gap|"],
    );

    for (name, policy) in policies {
        let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, policy);
        let results = route_queries(&cost, RouterConfig::default(), &queries, None);

        let mut true_sum = 0.0;
        let mut believed_sum = 0.0;
        let mut gap_sum = 0.0;
        let mut n = 0usize;
        for (q, r) in queries.iter().zip(&results) {
            let Some(path) = &r.path else { continue };
            if path.is_empty() {
                continue;
            }
            let truth = replay_true_probability(ctx, &path.edges, q.budget_s, replays, 0xA4_0000);
            true_sum += truth;
            believed_sum += r.probability;
            gap_sum += (r.probability - truth).abs();
            n += 1;
        }
        let n = n.max(1) as f64;
        let row = PolicyRow {
            name,
            true_on_time: true_sum / n,
            believed_on_time: believed_sum / n,
            calibration_gap: gap_sum / n,
        };
        table.push_row(vec![
            row.name.into(),
            format!("{:.3}", row.true_on_time),
            format!("{:.3}", row.believed_on_time),
            format!("{:.3}", row.calibration_gap),
        ]);
        rows.push(row);
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_context, Scale};

    #[test]
    fn all_policies_produce_calibrated_ish_routes() {
        let ctx = build_context(Scale::Tiny);
        let (t, rows) = run(&ctx, 6, 300);
        assert_eq!(t.num_rows(), 3);
        for row in &rows {
            assert!((0.0..=1.0).contains(&row.true_on_time), "{row:?}");
            assert!((0.0..=1.0).contains(&row.believed_on_time));
            assert!(row.calibration_gap <= 0.6, "wildly miscalibrated: {row:?}");
        }
    }

    #[test]
    fn hybrid_is_no_worse_calibrated_than_convolution() {
        let ctx = build_context(Scale::Tiny);
        let (_, rows) = run(&ctx, 8, 300);
        let hybrid = rows.iter().find(|r| r.name.contains("hybrid")).unwrap();
        let conv = rows
            .iter()
            .find(|r| r.name.contains("convolution"))
            .unwrap();
        // The hybrid believes distributions closer to reality (E3), so its
        // belief about its own route should be at least as well calibrated.
        assert!(
            hybrid.calibration_gap <= conv.calibration_gap + 0.05,
            "hybrid gap {} vs convolution gap {}",
            hybrid.calibration_gap,
            conv.calibration_gap
        );
    }
}

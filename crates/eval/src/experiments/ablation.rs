//! A1 — pruning ablation.
//!
//! The paper names four prunings — (a) optimistic bound, (b) pivot path,
//! (c) cost shifting, (d) stochastic dominance — but publishes no
//! per-pruning numbers. This experiment disables each one on the middle
//! distance category and reports the extra work plus the probability
//! drift each toggle introduces.
//!
//! A second table drills into the dominance *modes* (the soundness knob
//! restored by the pruning-policy refactor): against a dominance-free
//! reference it reports the drift of the legacy first-order heuristic,
//! of convolution-gated dominance (provably zero), and of
//! margin-calibrated dominance (bounded by the model's persisted `eps`).
//!
//! A third table does the same for the *bound* modes: against a
//! bound-free reference it reports the drift and pruning power of the
//! legacy optimistic CDF bound (unsound under the estimator arm), the
//! certificate-only bound (sound but weak where the certificate is
//! sparse), and the support-aware certified-envelope bound (sound *and*
//! nearly as sharp as optimistic — the sharpness ratio the routing
//! acceptance gate enforces).

use crate::experiments::route_queries;
use crate::report::{secs, Table};
use crate::setup::EvalContext;
use srt_core::routing::{BoundMode, DominanceMode, RouterConfig};
use srt_core::{CombinePolicy, HybridCost};
use srt_synth::{DistanceCategory, QueryGenerator};

/// Result of one ablation configuration.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Human-readable configuration name.
    pub name: &'static str,
    /// Mean labels created per query.
    pub mean_labels: f64,
    /// Mean run time in seconds.
    pub mean_s: f64,
    /// Mean absolute probability difference vs. the full configuration.
    /// Soundness check: ~0 for cost shifting (a pure re-parametrization)
    /// and for the default margin-calibrated dominance; bound/pivot may
    /// only *miss* wins when disabled mid-run via label caps.
    pub mean_prob_delta: f64,
}

/// Result of one dominance-mode configuration (vs. dominance off).
#[derive(Clone, Debug)]
pub struct DominanceRow {
    /// Human-readable mode name.
    pub name: &'static str,
    /// Mean labels created per query.
    pub mean_labels: f64,
    /// Labels discarded or retired by dominance, per query.
    pub mean_pruned: f64,
    /// Mean absolute probability difference vs. dominance off.
    pub mean_prob_delta: f64,
    /// Worst single-query probability difference vs. dominance off.
    pub max_prob_delta: f64,
    /// Whether every query ran to exhaustion (drift numbers are only
    /// meaningful for complete searches).
    pub all_completed: bool,
}

/// Result of one bound-mode configuration (vs. the bound off).
#[derive(Clone, Debug)]
pub struct BoundRow {
    /// Human-readable mode name.
    pub name: &'static str,
    /// Mean labels created per query.
    pub mean_labels: f64,
    /// Labels discarded by the bound, per query.
    pub mean_pruned: f64,
    /// Mean absolute probability difference vs. the bound off.
    pub mean_prob_delta: f64,
    /// Worst single-query probability difference vs. the bound off.
    pub max_prob_delta: f64,
    /// Whether every query ran to exhaustion.
    pub all_completed: bool,
}

impl BoundRow {
    /// Label expansions this mode saved against the reference row.
    pub fn saved_vs(&self, reference: &BoundRow) -> f64 {
        (reference.mean_labels - self.mean_labels).max(0.0)
    }
}

fn variants() -> Vec<(&'static str, RouterConfig)> {
    let full = RouterConfig::default();
    vec![
        ("all prunings (paper)", full),
        (
            "no optimistic bound (a)",
            RouterConfig {
                bound: BoundMode::Off,
                max_labels: 60_000,
                ..full
            },
        ),
        (
            "no pivot init (b)",
            RouterConfig {
                use_pivot_init: false,
                ..full
            },
        ),
        (
            "no cost shifting (c)",
            RouterConfig {
                use_cost_shifting: false,
                ..full
            },
        ),
        (
            "no dominance (d)",
            RouterConfig {
                dominance: DominanceMode::Off,
                max_labels: 60_000,
                ..full
            },
        ),
    ]
}

/// Runs A1 on `[1, 5)` km queries.
pub fn run(ctx: &EvalContext, n_queries: usize) -> (Table, Vec<AblationRow>) {
    let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
    let mut qg = QueryGenerator::new(0xA1);
    let queries = qg.generate(
        &ctx.world.graph,
        &ctx.world.model,
        DistanceCategory::OneToFive,
        n_queries,
    );

    let reference = route_queries(&cost, RouterConfig::default(), &queries, None);
    let mut rows = Vec::new();
    let mut table = Table::new(
        "A1 — Pruning ablation on [1, 5) km queries",
        &["Configuration", "Mean labels", "Mean time", "Δ probability"],
    );

    for (name, cfg) in variants() {
        let results = route_queries(&cost, cfg, &queries, None);
        let n = results.len().max(1) as f64;
        let mean_labels = results
            .iter()
            .map(|r| r.stats.labels_created as f64)
            .sum::<f64>()
            / n;
        let mean_s = results
            .iter()
            .map(|r| r.stats.elapsed.as_secs_f64())
            .sum::<f64>()
            / n;
        let mean_prob_delta = results
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a.probability - b.probability).abs())
            .sum::<f64>()
            / n;
        table.push_row(vec![
            name.into(),
            format!("{mean_labels:.0}"),
            secs(mean_s),
            format!("{mean_prob_delta:.4}"),
        ]);
        rows.push(AblationRow {
            name,
            mean_labels,
            mean_s,
            mean_prob_delta,
        });
    }
    (table, rows)
}

/// Dominance-mode soundness study: each mode against the dominance-free
/// baseline. All configurations run the **certified** bound (the
/// optimistic bound is itself a heuristic under the hybrid's estimator
/// arm, and would contaminate the drift attribution), so the gated row's
/// zero drift and the margin row's `eps` bound are guaranteed by design,
/// not by the seed. Returns the table, the per-mode rows, and the
/// model's calibrated margin `eps` (the bound the margin row's drift
/// must respect).
pub fn run_dominance_soundness(
    ctx: &EvalContext,
    n_queries: usize,
) -> (Table, Vec<DominanceRow>, f64) {
    let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
    let mut qg = QueryGenerator::new(0xD0);
    let queries = qg.generate(
        &ctx.world.graph,
        &ctx.world.model,
        DistanceCategory::OneToFive,
        n_queries,
    );
    let eps = ctx
        .model
        .calibration
        .map(|c| c.margin_eps)
        .unwrap_or(f64::INFINITY);

    let base_cfg = RouterConfig {
        bound: BoundMode::Certified,
        dominance: DominanceMode::Off,
        max_labels: 120_000,
        ..RouterConfig::default()
    };
    let reference = route_queries(&cost, base_cfg, &queries, None);

    let modes: [(&'static str, DominanceMode); 3] = [
        ("first-order (legacy heuristic)", DominanceMode::FirstOrder),
        ("convolution-gated (exact)", DominanceMode::ConvGated),
        ("margin-calibrated", DominanceMode::Margin { eps: None }),
    ];

    let mut rows = Vec::new();
    let mut table = Table::new(
        "A1b — Dominance-mode soundness vs. dominance off",
        &[
            "Mode",
            "Mean labels",
            "Pruned/query",
            "Δ prob (mean)",
            "Δ prob (max)",
        ],
    );
    for (name, mode) in modes {
        let cfg = RouterConfig {
            dominance: mode,
            ..base_cfg
        };
        let results = route_queries(&cost, cfg, &queries, None);
        let n = results.len().max(1) as f64;
        let mean_labels = results
            .iter()
            .map(|r| r.stats.labels_created as f64)
            .sum::<f64>()
            / n;
        let mean_pruned = results
            .iter()
            .map(|r| r.stats.pruned_dominance as f64)
            .sum::<f64>()
            / n;
        let mut mean_prob_delta = 0.0;
        let mut max_prob_delta: f64 = 0.0;
        let mut all_completed = true;
        for (a, b) in results.iter().zip(&reference) {
            let d = (a.probability - b.probability).abs();
            mean_prob_delta += d;
            max_prob_delta = max_prob_delta.max(d);
            all_completed &= a.stats.completed && b.stats.completed;
        }
        mean_prob_delta /= n;
        table.push_row(vec![
            name.into(),
            format!("{mean_labels:.0}"),
            format!("{mean_pruned:.1}"),
            format!("{mean_prob_delta:.6}"),
            format!("{max_prob_delta:.6}"),
        ]);
        rows.push(DominanceRow {
            name,
            mean_labels,
            mean_pruned,
            mean_prob_delta,
            max_prob_delta,
            all_completed,
        });
    }
    (table, rows, eps)
}

/// Bound-mode soundness and sharpness study: each mode against the
/// bound-free baseline (dominance off so the attribution is pure —
/// dominance would re-prune what a weak bound misses). The first row is
/// the reference itself, so sharpness ratios can be read off the table.
pub fn run_bound_soundness(ctx: &EvalContext, n_queries: usize) -> (Table, Vec<BoundRow>) {
    let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
    let mut qg = QueryGenerator::new(0xB0);
    let queries = qg.generate(
        &ctx.world.graph,
        &ctx.world.model,
        DistanceCategory::OneToFive,
        n_queries,
    );

    let base_cfg = RouterConfig {
        bound: BoundMode::Off,
        dominance: DominanceMode::Off,
        max_labels: 120_000,
        ..RouterConfig::default()
    };
    let reference = route_queries(&cost, base_cfg, &queries, None);

    let modes: [(&'static str, BoundMode); 4] = [
        ("bound off (reference)", BoundMode::Off),
        ("optimistic (legacy, unsound)", BoundMode::Optimistic),
        ("certified (certificate only)", BoundMode::Certified),
        ("certified envelope (default)", BoundMode::CertifiedEnvelope),
    ];

    let mut rows = Vec::new();
    let mut table = Table::new(
        "A1c — Bound-mode soundness and sharpness vs. bound off",
        &[
            "Mode",
            "Mean labels",
            "Pruned/query",
            "Δ prob (mean)",
            "Δ prob (max)",
        ],
    );
    for (name, bound) in modes {
        // The reference row reuses the reference pass — the unpruned
        // search is the most expensive configuration in the study.
        let results = if bound == BoundMode::Off {
            reference.clone()
        } else {
            route_queries(&cost, RouterConfig { bound, ..base_cfg }, &queries, None)
        };
        let n = results.len().max(1) as f64;
        let mean_labels = results
            .iter()
            .map(|r| r.stats.labels_created as f64)
            .sum::<f64>()
            / n;
        let mean_pruned = results
            .iter()
            .map(|r| r.stats.pruned_bound as f64)
            .sum::<f64>()
            / n;
        let mut mean_prob_delta = 0.0;
        let mut max_prob_delta: f64 = 0.0;
        let mut all_completed = true;
        for (a, b) in results.iter().zip(&reference) {
            let d = (a.probability - b.probability).abs();
            mean_prob_delta += d;
            max_prob_delta = max_prob_delta.max(d);
            all_completed &= a.stats.completed && b.stats.completed;
        }
        mean_prob_delta /= n;
        table.push_row(vec![
            name.into(),
            format!("{mean_labels:.0}"),
            format!("{mean_pruned:.1}"),
            format!("{mean_prob_delta:.6}"),
            format!("{max_prob_delta:.6}"),
        ]);
        rows.push(BoundRow {
            name,
            mean_labels,
            mean_pruned,
            mean_prob_delta,
            max_prob_delta,
            all_completed,
        });
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_context, Scale};

    #[test]
    fn every_pruning_reduces_or_equals_work() {
        let ctx = build_context(Scale::Tiny);
        let (_, rows) = run(&ctx, 6);
        let full = &rows[0];
        // Disabling the bound or dominance must not *reduce* label counts.
        for row in &rows[1..] {
            assert!(
                row.mean_labels + 1e-9 >= full.mean_labels * 0.9,
                "{} created fewer labels ({}) than the full config ({})",
                row.name,
                row.mean_labels,
                full.mean_labels
            );
        }
    }

    #[test]
    fn sound_prunings_do_not_change_answers() {
        let ctx = build_context(Scale::Tiny);
        let (_, rows) = run(&ctx, 6);
        for row in &rows {
            // Cost shifting is a pure re-parametrization: exact.
            if row.name.contains("(c)") {
                assert!(
                    row.mean_prob_delta < 1e-6,
                    "{} changed probabilities by {}",
                    row.name,
                    row.mean_prob_delta
                );
            }
            // The default dominance is margin-calibrated: its drift vs.
            // dominance off is bounded by the persisted eps (checked
            // per-query in `dominance_modes_respect_their_bounds`; here
            // the coarse sanity band).
            if row.name.contains("(d)") {
                assert!(
                    row.mean_prob_delta < 5e-3,
                    "{} changed probabilities by {}",
                    row.name,
                    row.mean_prob_delta
                );
            }
        }
    }

    #[test]
    fn dominance_modes_respect_their_bounds() {
        let ctx = build_context(Scale::Tiny);
        let (_, rows, eps) = run_dominance_soundness(&ctx, 8);
        assert!(eps.is_finite(), "trained models carry a calibration");
        let by_name = |needle: &str| {
            rows.iter()
                .find(|r| r.name.contains(needle))
                .expect("mode row present")
        };
        // Drift attribution requires exhaustive searches.
        for row in &rows {
            assert!(row.all_completed, "{} hit a label cap", row.name);
        }
        // Convolution-gated dominance returns the identical policy (up
        // to the 1e-9 CDF tie tolerance its dominance predicate absorbs).
        let gated = by_name("gated");
        assert!(
            gated.max_prob_delta <= 1e-9,
            "convolution-gated dominance must be exact, drifted {}",
            gated.max_prob_delta
        );
        // Margin dominance drifts at most the calibrated eps.
        let margin = by_name("margin");
        assert!(
            margin.max_prob_delta <= eps + 1e-9,
            "margin drift {} exceeds calibrated eps {}",
            margin.max_prob_delta,
            eps
        );
        // The legacy heuristic sits inside its documented band.
        let legacy = by_name("legacy");
        assert!(
            legacy.max_prob_delta < 5e-3,
            "legacy dominance drifted {}",
            legacy.max_prob_delta
        );
        // Dominance actually pruned something in at least one mode,
        // otherwise this table certifies nothing.
        assert!(
            rows.iter().any(|r| r.mean_pruned > 0.0),
            "no dominance mode pruned any label"
        );
    }

    #[test]
    fn bound_modes_respect_their_contracts() {
        let ctx = build_context(Scale::Tiny);
        let (_, rows) = run_bound_soundness(&ctx, 8);
        let by_name = |needle: &str| {
            rows.iter()
                .find(|r| r.name.contains(needle))
                .expect("mode row present")
        };
        for row in &rows {
            assert!(row.all_completed, "{} hit a label cap", row.name);
        }
        let reference = by_name("reference");
        assert_eq!(reference.max_prob_delta, 0.0);

        // Sound bounds return the identical policy.
        for sound in ["certificate only", "envelope"] {
            let row = by_name(sound);
            assert!(
                row.max_prob_delta <= 1e-9,
                "{} must be exact, drifted {}",
                row.name,
                row.max_prob_delta
            );
        }
        // The sharpness acceptance gate: the certified envelope saves at
        // least 80% of the expansions the unsound optimistic bound
        // saves (and never more than it — optimistic over-prunes by
        // construction).
        let optimistic = by_name("optimistic");
        let envelope = by_name("envelope");
        let opt_saved = optimistic.saved_vs(reference);
        let env_saved = envelope.saved_vs(reference);
        assert!(
            opt_saved > 0.0,
            "optimistic pruned nothing; the sharpness ratio is vacuous"
        );
        assert!(
            env_saved >= 0.8 * opt_saved,
            "envelope sharpness {env_saved:.0} below 80% of optimistic {opt_saved:.0}"
        );
        // And strictly sharper than the certificate-only fallback.
        let certified = by_name("certificate only");
        assert!(
            env_saved + 1e-9 >= certified.saved_vs(reference),
            "envelope must dominate the certificate-only bound"
        );
    }

    #[test]
    fn table_lists_all_variants() {
        let ctx = build_context(Scale::Tiny);
        let (t, rows) = run(&ctx, 4);
        assert_eq!(t.num_rows(), 5);
        assert_eq!(rows.len(), 5);
        let (t2, rows2, _) = run_dominance_soundness(&ctx, 4);
        assert_eq!(t2.num_rows(), 3);
        assert_eq!(rows2.len(), 3);
        let (t3, rows3) = run_bound_soundness(&ctx, 4);
        assert_eq!(t3.num_rows(), 4);
        assert_eq!(rows3.len(), 4);
    }
}

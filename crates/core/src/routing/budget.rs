//! The probabilistic budget-routing search: configuration and per-query
//! result types.
//!
//! The search itself is a label-correcting best-first search over
//! partial-path labels `(vertex, travel-time distribution)`, with the
//! paper's four prunings:
//!
//! * **(a) optimistic remaining cost** — one backward Dijkstra over
//!   minimal edge times gives `tmin(v)`; a label at `v` can reach the
//!   destination within budget `t` with probability at most
//!   `P(D <= t - tmin(v))`, which both orders the search (best-first on
//!   the bound) and prunes against the incumbent,
//! * **(b) pivot path** — the best complete candidate so far, initialized
//!   with the expected-time path so pruning bites immediately and the
//!   *anytime* variant always has an answer to return,
//! * **(c) distribution cost shifting** — labels store
//!   `(scalar offset, zero-anchored histogram)`, keeping supports small
//!   and aligned,
//! * **(d) stochastic-dominance pruning** — per-vertex Pareto sets;
//!   dominated labels are dropped.
//!
//! Prunings (a) and (d) plus the always-sound *budget gate* (drop labels
//! whose best case already misses the budget) are expressed as composable
//! [`PrunePolicy`](crate::routing::policy::PrunePolicy) values — see
//! [`crate::routing::policy`] for the soundness story of each mode. The
//! anytime extension takes a wall-clock deadline `x` and returns the
//! pivot if the search has not terminated in time.
//!
//! The implementation lives in [`crate::routing::engine`]: the
//! [`RoutingEngine`](crate::routing::RoutingEngine) resolves policies,
//! certificates and per-target bounds once and serves queries from
//! reusable [`SearchContext`](crate::routing::SearchContext) scratch.

use crate::routing::policy::{BoundMode, DominanceMode};
use srt_dist::Histogram;
use srt_graph::algo::Path;
use std::time::Duration;

/// Search configuration: a bucket/label budget plus one entry per
/// composable pruning policy. Each policy is independently switchable so
/// the ablation experiments can quantify its contribution.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct RouterConfig {
    /// Cap on label-histogram buckets during search.
    pub max_bins: usize,
    /// Pruning (a): how the optimistic bound prunes against the incumbent.
    pub bound: BoundMode,
    /// Pruning (b): initialize the pivot with the expected-time path.
    pub use_pivot_init: bool,
    /// Pruning (c): anchor label histograms at zero, carry scalar offsets.
    pub use_cost_shifting: bool,
    /// Pruning (d): the dominance mode for per-vertex Pareto sets.
    pub dominance: DominanceMode,
    /// The always-sound feasibility cut (see
    /// [`crate::routing::policy::BudgetGate`]). Also what guarantees
    /// termination on cyclic graphs when the bound is off.
    pub budget_gate: bool,
    /// Hard cap on created labels (safety valve for ablation runs).
    pub max_labels: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_bins: 20,
            // The support-aware certified bound: sound under the learned
            // estimator arm (the optimistic CDF bound is not — the
            // scenario-matrix oracle suite holds the drift witness) and
            // nearly as sharp, via the model's persisted envelope.
            bound: BoundMode::CertifiedEnvelope,
            use_pivot_init: true,
            use_cost_shifting: true,
            // Margin dominance with the model's calibrated eps: sound up
            // to the measured estimator modulus, still prunes aggressively
            // wherever labels differ clearly.
            dominance: DominanceMode::Margin { eps: None },
            budget_gate: true,
            max_labels: 300_000,
        }
    }
}

/// Search counters and outcome flags.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct SearchStats {
    /// Labels created (including the implicit source expansions).
    pub labels_created: usize,
    /// Labels expanded from the queue.
    pub labels_expanded: usize,
    /// Labels discarded by the optimistic-bound / pivot pruning.
    pub pruned_bound: usize,
    /// Labels discarded by the budget gate (best case misses the budget).
    pub pruned_infeasible: usize,
    /// Labels discarded or retired by dominance
    /// (`= newcomers discarded + dominance_retired`).
    pub pruned_dominance: usize,
    /// Incumbent Pareto entries retired by a dominating newcomer (a
    /// subset of `pruned_dominance`).
    pub dominance_retired: usize,
    /// Live label pairs handed to the dominance policy (both Pareto
    /// passes): what pruning (d) dereferenced a label and built a
    /// histogram view for.
    pub dominance_comparisons: usize,
    /// Pareto entries passed over on the entry alone because the pair is
    /// not exchange-safe — no label, out-edge walk or histogram touched.
    /// Always zero in the modes without the exchange-safety rule.
    pub dominance_skipped: usize,
    /// Amortized Pareto-set compaction sweeps performed.
    pub pareto_compactions: usize,
    /// `true` iff the search ran to exhaustion (result is exact within the
    /// cost model); `false` when the deadline or label cap intervened.
    pub completed: bool,
    /// Wall-clock duration of the search.
    pub elapsed: Duration,
}

/// The answer to a budget query.
#[derive(Clone, Debug)]
pub struct RouteResult {
    /// Best path found (`None` only when the target is unreachable).
    pub path: Option<Path>,
    /// Its full travel-time distribution under the cost model.
    pub distribution: Option<Histogram>,
    /// `P(travel time <= budget)` of the returned path.
    pub probability: f64,
    /// Search counters.
    pub stats: SearchStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CombinePolicy, HybridCost};
    use crate::model::training::{train_hybrid, TrainingConfig};
    use crate::routing::baseline::ExpectedTimeBaseline;
    use crate::routing::engine::{EngineBuilder, EngineError, Query, RoutingEngine};
    use crate::HybridModel;
    use srt_graph::NodeId;
    use srt_ml::forest::ForestConfig;
    use srt_synth::{DistanceCategory, QueryGenerator, SyntheticWorld, WorldConfig};

    fn setup() -> (SyntheticWorld, HybridModel) {
        let world = SyntheticWorld::build(WorldConfig::tiny());
        let cfg = TrainingConfig {
            train_pairs: 120,
            test_pairs: 40,
            min_obs: 5,
            bins: 10,
            forest: ForestConfig {
                n_trees: 6,
                ..ForestConfig::default()
            },
            ..TrainingConfig::default()
        };
        let (model, _) = train_hybrid(&world, &cfg).unwrap();
        (world, model)
    }

    fn queries(world: &SyntheticWorld, n: usize) -> Vec<srt_synth::Query> {
        let mut qg = QueryGenerator::new(77);
        qg.generate(&world.graph, &world.model, DistanceCategory::ZeroToOne, n)
    }

    fn engine(cost: &HybridCost, cfg: RouterConfig) -> RoutingEngine {
        EngineBuilder::new(cost.clone()).config(cfg).build()
    }

    /// Routes a generated query (exhaustive, no deadline).
    fn route(engine: &RoutingEngine, q: &srt_synth::Query) -> RouteResult {
        engine
            .route(&Query::from(q))
            .expect("generated queries are valid")
    }

    #[test]
    fn router_finds_a_valid_path() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let router = engine(&cost, RouterConfig::default());
        for q in queries(&world, 5) {
            let r = route(&router, &q);
            let path = r.path.expect("path exists");
            path.validate(&world.graph).unwrap();
            assert_eq!(path.source(), q.source);
            assert_eq!(path.target(), q.target);
            assert!((0.0..=1.0).contains(&r.probability));
            assert!(r.stats.completed);
        }
    }

    #[test]
    fn router_beats_or_matches_the_baseline() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let router = engine(&cost, RouterConfig::default());
        for q in queries(&world, 8) {
            let r = route(&router, &q);
            let base = ExpectedTimeBaseline::solve(&cost, q.source, q.target, q.budget_s)
                .expect("baseline exists");
            assert!(
                r.probability >= base.probability - 1e-9,
                "PBR {} < baseline {}",
                r.probability,
                base.probability
            );
        }
    }

    #[test]
    fn returned_probability_matches_its_path() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let router = engine(&cost, RouterConfig::default());
        for q in queries(&world, 5) {
            let r = route(&router, &q);
            let path = r.path.unwrap();
            if path.is_empty() {
                continue;
            }
            // Recompute the path's probability with the same bin cap the
            // search used.
            let recomputed = recompute_capped(&cost, &path.edges, q.budget_s, 20);
            assert!(
                (recomputed - r.probability).abs() < 1e-6,
                "probability mismatch: {} vs {}",
                recomputed,
                r.probability
            );
        }
    }

    fn recompute_capped(
        cost: &HybridCost,
        edges: &[srt_graph::EdgeId],
        budget: f64,
        cap: usize,
    ) -> f64 {
        let mut dist = cost.marginal(edges[0]).clone();
        let mut prev = edges[0];
        for &e in &edges[1..] {
            dist = cost.combine(&dist, prev, e);
            if dist.num_bins() > cap {
                dist = dist.with_bins(cap).unwrap();
            }
            prev = e;
        }
        dist.prob_within(budget)
    }

    #[test]
    fn source_equals_target() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let router = engine(&cost, RouterConfig::default());
        let r = router
            .route(&Query::new(NodeId(4), NodeId(4), 10.0))
            .unwrap();
        assert_eq!(r.probability, 1.0);
        assert!(r.path.unwrap().is_empty());
        assert!(r.stats.completed);
    }

    #[test]
    fn anytime_deadline_still_returns_the_pivot() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let router = engine(&cost, RouterConfig::default());
        let q = Query::from(queries(&world, 1)[0]);
        // The shortest deadline the engine accepts: the search may stop at
        // its first deadline check, and must still answer with the pivot.
        let r = router
            .route(&q.with_deadline(Duration::from_nanos(1)))
            .unwrap();
        assert!(r.path.is_some(), "anytime must return the pivot");
        assert!(r.probability > 0.0);
    }

    #[test]
    fn anytime_never_beats_exhaustive() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let router = engine(&cost, RouterConfig::default());
        for q in queries(&world, 5) {
            let full = route(&router, &q);
            let quick = router
                .route(&Query::from(q).with_deadline(Duration::from_nanos(1)))
                .unwrap();
            assert!(quick.probability <= full.probability + 1e-9);
        }
    }

    #[test]
    fn disabling_prunings_does_not_change_the_answer() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let full = engine(&cost, RouterConfig::default());
        let no_dom = engine(
            &cost,
            RouterConfig {
                dominance: DominanceMode::Off,
                ..RouterConfig::default()
            },
        );
        let no_shift = engine(
            &cost,
            RouterConfig {
                use_cost_shifting: false,
                ..RouterConfig::default()
            },
        );
        for q in queries(&world, 3) {
            let a = route(&full, &q);
            let b = route(&no_dom, &q);
            let c = route(&no_shift, &q);
            // Margin dominance is calibrated-sound and cost shifting is a
            // pure re-parametrization: probabilities agree to numerical
            // tolerance.
            assert!((a.probability - b.probability).abs() < 1e-6);
            assert!((a.probability - c.probability).abs() < 1e-6);
        }
    }

    #[test]
    fn pruning_reduces_work() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let full = engine(&cost, RouterConfig::default());
        // Same dominance as the default so the comparison isolates the
        // bound + pivot prunings (the legacy first-order heuristic can
        // over-prune and would confound the label counts).
        let naive = engine(
            &cost,
            RouterConfig {
                bound: BoundMode::Off,
                use_pivot_init: false,
                max_labels: 50_000,
                ..RouterConfig::default()
            },
        );
        let q = queries(&world, 1)[0];
        let a = route(&full, &q);
        let b = route(&naive, &q);
        assert!(
            a.stats.labels_created <= b.stats.labels_created,
            "pruned {} vs naive {}",
            a.stats.labels_created,
            b.stats.labels_created
        );
    }

    #[test]
    fn dominance_stats_accounting_is_consistent() {
        // Regression for the amortized Pareto compaction: discarded +
        // retired counters must reconcile, every retirement is counted
        // exactly once, and compaction never changes the answer.
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::AlwaysConvolve);
        let pruned = engine(
            &cost,
            RouterConfig {
                dominance: DominanceMode::FirstOrder,
                ..RouterConfig::default()
            },
        );
        let unpruned = engine(
            &cost,
            RouterConfig {
                dominance: DominanceMode::Off,
                ..RouterConfig::default()
            },
        );
        let mut saw_discard = false;
        for q in queries(&world, 6) {
            let r = route(&pruned, &q);
            let s = r.stats;
            assert!(
                s.dominance_retired <= s.pruned_dominance,
                "retired {} exceeds total dominance prunes {}",
                s.dominance_retired,
                s.pruned_dominance
            );
            // Retired labels were created; discarded newcomers were not.
            assert!(s.dominance_retired <= s.labels_created);
            saw_discard |= s.pruned_dominance > s.dominance_retired;

            // Lazy marking + amortized compaction is answer-preserving
            // (first-order dominance is exact under pure convolution).
            let u = route(&unpruned, &q);
            assert!(
                (r.probability - u.probability).abs() < 1e-9,
                "dominance changed the answer: {} vs {}",
                r.probability,
                u.probability
            );
        }
        assert!(saw_discard, "no newcomer discard was ever exercised");

        // Best-first order makes retirements rare: exercise them (and the
        // amortized compaction sweep) with an unordered search, where weak
        // labels are inserted before the strong ones that retire them.
        let unordered = engine(
            &cost,
            RouterConfig {
                bound: BoundMode::Off,
                use_pivot_init: false,
                dominance: DominanceMode::FirstOrder,
                max_labels: 50_000,
                ..RouterConfig::default()
            },
        );
        let mut saw_retirement = false;
        let mut saw_compaction = false;
        for q in queries(&world, 4) {
            let s = route(&unordered, &q).stats;
            assert!(s.dominance_retired <= s.pruned_dominance);
            assert!(s.dominance_retired <= s.labels_created);
            // A compaction sweep requires at least one retirement since
            // the last sweep.
            assert!(s.pareto_compactions <= s.dominance_retired);
            saw_retirement |= s.dominance_retired > 0;
            saw_compaction |= s.pareto_compactions > 0;
        }
        assert!(saw_retirement, "no retirement was ever exercised");
        assert!(saw_compaction, "the amortized sweep was never exercised");
    }

    #[test]
    fn unreachable_target_reports_zero_probability() {
        // Build a 2-node graph with a single one-way edge.
        use srt_graph::{EdgeAttrs, GraphBuilder, Point, RoadCategory};
        let mut gb = GraphBuilder::new();
        let a = gb.add_node(Point::new(0.0, 0.0));
        let c = gb.add_node(Point::new(0.01, 0.0));
        gb.add_edge(a, c, EdgeAttrs::new(100.0, RoadCategory::Residential, 50.0));
        let g = gb.build();

        let (world, model) = setup();
        let _ = &world;
        let marginals: Vec<Histogram> = g
            .edge_ids()
            .map(|_| Histogram::new(10.0, 1.0, vec![1.0]).unwrap())
            .collect();
        let cost = HybridCost::new(&g, &model, marginals, CombinePolicy::AlwaysConvolve);
        let router = engine(&cost, RouterConfig::default());
        let r = router.route(&Query::new(c, a, 1000.0)).unwrap();
        assert_eq!(r.probability, 0.0);
        assert!(r.path.is_none());
        assert!(r.stats.completed);
    }

    #[test]
    fn degenerate_budgets_answer_with_zero_probability() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let router = engine(&cost, RouterConfig::default());
        let q = queries(&world, 1)[0];
        // Zero is the one degenerate budget with an answer: probability
        // zero, and a usable path is still reported when one exists.
        let r = router.route(&Query::new(q.source, q.target, 0.0)).unwrap();
        assert_eq!(r.probability, 0.0);
        assert!(r.stats.completed);
        assert!(r.path.is_some());
        // NaN, infinite and negative budgets name no answerable query.
        for bad in [f64::NAN, f64::INFINITY, -5.0] {
            assert!(
                matches!(
                    router.route(&Query::new(q.source, q.target, bad)),
                    Err(EngineError::InvalidBudget { .. })
                ),
                "budget {bad}"
            );
        }
    }

    #[test]
    fn certificate_is_computed_only_when_a_policy_needs_it() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        // The default bound is the certified envelope, which consumes
        // the certificate (exact CDF bound on covered labels).
        let default = engine(&cost, RouterConfig::default());
        assert!(default.certificate().is_some());
        // Margin dominance with the optimistic bound needs none.
        let optimistic = engine(
            &cost,
            RouterConfig {
                bound: BoundMode::Optimistic,
                ..RouterConfig::default()
            },
        );
        assert!(
            optimistic.certificate().is_none(),
            "margin mode needs no certificate"
        );
        let gated = engine(
            &cost,
            RouterConfig {
                bound: BoundMode::Optimistic,
                dominance: DominanceMode::ConvGated,
                ..RouterConfig::default()
            },
        );
        assert!(gated.certificate().is_some());
        let certified_bound = engine(
            &cost,
            RouterConfig {
                bound: BoundMode::Certified,
                dominance: DominanceMode::Off,
                ..RouterConfig::default()
            },
        );
        assert!(certified_bound.certificate().is_some());
        // The resolved margin comes from the trained calibration.
        let cal_eps = model
            .calibration
            .expect("trained model calibrates")
            .margin_eps;
        assert_eq!(default.dominance_policy().eps(), cal_eps);
    }

    #[test]
    fn envelope_bound_is_sound_and_sharper_than_certified() {
        let (world, model) = setup();
        assert!(model.envelope.is_some(), "training attaches an envelope");
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let mk = |bound| {
            engine(
                &cost,
                RouterConfig {
                    bound,
                    dominance: DominanceMode::Off,
                    max_labels: 120_000,
                    ..RouterConfig::default()
                },
            )
        };
        let reference = mk(BoundMode::Off);
        let envelope = mk(BoundMode::CertifiedEnvelope);
        let certified = mk(BoundMode::Certified);
        let mut env_saved = 0usize;
        let mut cert_saved = 0usize;
        for q in queries(&world, 6) {
            let r = route(&reference, &q);
            let e = route(&envelope, &q);
            let c = route(&certified, &q);
            assert!(r.stats.completed && e.stats.completed && c.stats.completed);
            // Soundness: the envelope bound never changes the answer.
            assert!(
                (e.probability - r.probability).abs() < 1e-9,
                "envelope bound drifted: {} vs {}",
                e.probability,
                r.probability
            );
            env_saved +=
                r.stats.labels_created - e.stats.labels_created.min(r.stats.labels_created);
            cert_saved +=
                r.stats.labels_created - c.stats.labels_created.min(r.stats.labels_created);
        }
        // Sharpness: the envelope prunes at least as much as the plain
        // certified fallback.
        assert!(
            env_saved >= cert_saved,
            "envelope saved {env_saved} labels vs certified {cert_saved}"
        );
    }
}

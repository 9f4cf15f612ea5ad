//! The probabilistic budget-routing search: configuration, per-query
//! result types, and the legacy one-shot [`BudgetRouter`] shim.
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
//! [`RoutingEngine`] resolves policies, certificates and per-target
//! bounds once and serves queries from reusable [`SearchContext`]
//! scratch. [`BudgetRouter`] survives as a thin compatibility shim over
//! it.

use crate::cost::HybridCost;
use crate::routing::engine::{EngineBuilder, RoutingEngine, SearchContext};
use crate::routing::policy::{BoundMode, ConvCertificate, DominanceMode, DominancePolicy};
use srt_dist::Histogram;
use srt_graph::algo::Path;
use srt_graph::NodeId;
use std::cell::RefCell;
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

/// **Deprecated shim** — the legacy one-shot router API, now a thin
/// wrapper over [`RoutingEngine`]. Prefer the engine: it is `Send +
/// Sync`, shares one resolved configuration across threads, caches the
/// per-target optimistic bounds, and serves batches from reusable
/// scratch.
///
/// Migration table:
///
/// | Legacy (`BudgetRouter`)                         | Engine ([`RoutingEngine`])                                  |
/// |-------------------------------------------------|-------------------------------------------------------------|
/// | `BudgetRouter::new(&cost, cfg)`                 | `EngineBuilder::new(cost.clone()).config(cfg).build()`      |
/// | `BudgetRouter::with_certificate(&cost, cfg, Some(c))` | `EngineBuilder::new(cost.clone()).config(cfg).certificate(c).build()` |
/// | `router.route(s, t, b, None)`                   | `engine.route(&Query::new(s, t, b))?`                       |
/// | `router.route(s, t, b, Some(x))`                | `engine.route(&Query::new(s, t, b).with_deadline(x))?`      |
/// | hand-rolled `thread::scope` over queries        | `BatchExecutor::new(engine, lanes).execute(queries)`        |
/// | (bounds recomputed per call)                    | cached per target; `engine.stats().bounds_cache_hits`       |
///
/// (`Query` is [`crate::routing::Query`].) Behavioural differences of
/// the shim (kept for compatibility, dropped by the typed engine API):
/// degenerate budgets (NaN/∞/negative) return a probability-zero result
/// instead of an [`EngineError`](crate::routing::EngineError), and a
/// zero deadline is accepted (returns the pivot immediately).
pub struct BudgetRouter {
    engine: RoutingEngine,
    /// Reused across this router's sequential `route` calls; a
    /// `RefCell` because the legacy API routes through `&self`.
    scratch: RefCell<SearchContext>,
}

impl BudgetRouter {
    /// Creates a router, resolving the configured pruning policies
    /// against the cost oracle: the margin mode reads the model's
    /// persisted calibration, and the certificate-consuming modes
    /// (convolution-gated dominance, the certified bounds) precompute the
    /// per-edge convolution certificate once for all queries.
    ///
    /// The cost oracle is cheap to clone (shared-ownership storage), so
    /// the shim clones it into an owning [`RoutingEngine`].
    pub fn new(cost: &HybridCost, cfg: RouterConfig) -> Self {
        BudgetRouter {
            engine: EngineBuilder::new(cost.clone()).config(cfg).build(),
            scratch: RefCell::new(SearchContext::new()),
        }
    }

    /// Like [`BudgetRouter::new`], but reusing a precomputed
    /// [`ConvCertificate`] — the certificate depends only on the cost
    /// oracle, so callers constructing many router configurations over
    /// one oracle (ablations, the differential suite) compute it once
    /// and clone it in. Pass `None` to let the engine decide (it computes
    /// one itself only when the configuration needs it).
    pub fn with_certificate(
        cost: &HybridCost,
        cfg: RouterConfig,
        certificate: Option<ConvCertificate>,
    ) -> Self {
        let mut builder = EngineBuilder::new(cost.clone()).config(cfg);
        if let Some(c) = certificate {
            builder = builder.certificate(c);
        }
        BudgetRouter {
            engine: builder.build(),
            scratch: RefCell::new(SearchContext::new()),
        }
    }

    /// Whether `cfg` contains a certificate-consuming policy.
    pub fn wants_certificate(cfg: &RouterConfig) -> bool {
        RoutingEngine::wants_certificate(cfg)
    }

    /// The engine this shim wraps (an escape hatch for incremental
    /// migration).
    pub fn engine(&self) -> &RoutingEngine {
        &self.engine
    }

    /// The configuration in use.
    pub fn config(&self) -> &RouterConfig {
        self.engine.config()
    }

    /// The resolved dominance policy (diagnostic: exposes the margin the
    /// router actually prunes with). Owned: the engine's policy lives in
    /// a swappable epoch, so references cannot be handed out.
    pub fn dominance_policy(&self) -> DominancePolicy {
        self.engine.dominance_policy()
    }

    /// The convolution certificate, when a configured policy required
    /// computing one. Owned, for the same epoch-lifetime reason as
    /// [`BudgetRouter::dominance_policy`].
    pub fn certificate(&self) -> Option<ConvCertificate> {
        self.engine.certificate()
    }

    /// Solves one budget query. `deadline` enables the anytime variant:
    /// when it expires the incumbent (pivot) is returned and
    /// `stats.completed` is `false`.
    ///
    /// Prefer [`RoutingEngine::route`] /
    /// [`BatchExecutor::execute`](crate::routing::BatchExecutor::execute)
    /// — see the migration table on [`BudgetRouter`].
    pub fn route(
        &self,
        source: NodeId,
        target: NodeId,
        budget_s: f64,
        deadline: Option<Duration>,
    ) -> RouteResult {
        self.engine.route_unchecked(
            source,
            target,
            budget_s,
            deadline,
            &mut self.scratch.borrow_mut(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CombinePolicy;
    use crate::model::training::{train_hybrid, TrainingConfig};
    use crate::routing::baseline::ExpectedTimeBaseline;
    use crate::HybridModel;
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

    #[test]
    fn router_finds_a_valid_path() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let router = BudgetRouter::new(&cost, RouterConfig::default());
        for q in queries(&world, 5) {
            let r = router.route(q.source, q.target, q.budget_s, None);
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
        let router = BudgetRouter::new(&cost, RouterConfig::default());
        for q in queries(&world, 8) {
            let r = router.route(q.source, q.target, q.budget_s, None);
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
        let router = BudgetRouter::new(&cost, RouterConfig::default());
        for q in queries(&world, 5) {
            let r = router.route(q.source, q.target, q.budget_s, None);
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
        let router = BudgetRouter::new(&cost, RouterConfig::default());
        let r = router.route(NodeId(4), NodeId(4), 10.0, None);
        assert_eq!(r.probability, 1.0);
        assert!(r.path.unwrap().is_empty());
        assert!(r.stats.completed);
    }

    #[test]
    fn anytime_deadline_still_returns_the_pivot() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let router = BudgetRouter::new(&cost, RouterConfig::default());
        let q = queries(&world, 1)[0];
        // Zero deadline: must bail out immediately with the pivot (the
        // shim keeps the legacy acceptance of zero deadlines).
        let r = router.route(q.source, q.target, q.budget_s, Some(Duration::ZERO));
        assert!(r.path.is_some(), "anytime must return the pivot");
        assert!(r.probability > 0.0);
    }

    #[test]
    fn anytime_never_beats_exhaustive() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let router = BudgetRouter::new(&cost, RouterConfig::default());
        for q in queries(&world, 5) {
            let full = router.route(q.source, q.target, q.budget_s, None);
            let quick = router.route(q.source, q.target, q.budget_s, Some(Duration::ZERO));
            assert!(quick.probability <= full.probability + 1e-9);
        }
    }

    #[test]
    fn disabling_prunings_does_not_change_the_answer() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let full = BudgetRouter::new(&cost, RouterConfig::default());
        let no_dom = BudgetRouter::new(
            &cost,
            RouterConfig {
                dominance: DominanceMode::Off,
                ..RouterConfig::default()
            },
        );
        let no_shift = BudgetRouter::new(
            &cost,
            RouterConfig {
                use_cost_shifting: false,
                ..RouterConfig::default()
            },
        );
        for q in queries(&world, 3) {
            let a = full.route(q.source, q.target, q.budget_s, None);
            let b = no_dom.route(q.source, q.target, q.budget_s, None);
            let c = no_shift.route(q.source, q.target, q.budget_s, None);
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
        let full = BudgetRouter::new(&cost, RouterConfig::default());
        // Same dominance as the default so the comparison isolates the
        // bound + pivot prunings (the legacy first-order heuristic can
        // over-prune and would confound the label counts).
        let naive = BudgetRouter::new(
            &cost,
            RouterConfig {
                bound: BoundMode::Off,
                use_pivot_init: false,
                max_labels: 50_000,
                ..RouterConfig::default()
            },
        );
        let q = queries(&world, 1)[0];
        let a = full.route(q.source, q.target, q.budget_s, None);
        let b = naive.route(q.source, q.target, q.budget_s, None);
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
        let pruned = BudgetRouter::new(
            &cost,
            RouterConfig {
                dominance: DominanceMode::FirstOrder,
                ..RouterConfig::default()
            },
        );
        let unpruned = BudgetRouter::new(
            &cost,
            RouterConfig {
                dominance: DominanceMode::Off,
                ..RouterConfig::default()
            },
        );
        let mut saw_discard = false;
        for q in queries(&world, 6) {
            let r = pruned.route(q.source, q.target, q.budget_s, None);
            let s = r.stats;
            assert!(s.dominance_retired <= s.pruned_dominance,
                "retired {} exceeds total dominance prunes {}",
                s.dominance_retired, s.pruned_dominance);
            // Retired labels were created; discarded newcomers were not.
            assert!(s.dominance_retired <= s.labels_created);
            saw_discard |= s.pruned_dominance > s.dominance_retired;

            // Lazy marking + amortized compaction is answer-preserving
            // (first-order dominance is exact under pure convolution).
            let u = unpruned.route(q.source, q.target, q.budget_s, None);
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
        let unordered = BudgetRouter::new(
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
            let s = unordered.route(q.source, q.target, q.budget_s, None).stats;
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
        let router = BudgetRouter::new(&cost, RouterConfig::default());
        let r = router.route(c, a, 1000.0, None);
        assert_eq!(r.probability, 0.0);
        assert!(r.path.is_none());
        assert!(r.stats.completed);
    }

    #[test]
    fn degenerate_budgets_answer_with_zero_probability() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let router = BudgetRouter::new(&cost, RouterConfig::default());
        let q = queries(&world, 1)[0];
        for bad in [f64::NAN, f64::INFINITY, -5.0] {
            let r = router.route(q.source, q.target, bad, None);
            assert_eq!(r.probability, 0.0, "budget {bad}");
            assert!(r.stats.completed);
            // A usable path is still reported when one exists.
            assert!(r.path.is_some());
        }
    }

    #[test]
    fn certificate_is_computed_only_when_a_policy_needs_it() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        // The default bound is the certified envelope, which consumes
        // the certificate (exact CDF bound on covered labels).
        let default = BudgetRouter::new(&cost, RouterConfig::default());
        assert!(default.certificate().is_some());
        // Margin dominance with the optimistic bound needs none.
        let optimistic = BudgetRouter::new(
            &cost,
            RouterConfig {
                bound: BoundMode::Optimistic,
                ..RouterConfig::default()
            },
        );
        assert!(optimistic.certificate().is_none(), "margin mode needs no certificate");
        let gated = BudgetRouter::new(
            &cost,
            RouterConfig {
                bound: BoundMode::Optimistic,
                dominance: DominanceMode::ConvGated,
                ..RouterConfig::default()
            },
        );
        assert!(gated.certificate().is_some());
        let certified_bound = BudgetRouter::new(
            &cost,
            RouterConfig {
                bound: BoundMode::Certified,
                dominance: DominanceMode::Off,
                ..RouterConfig::default()
            },
        );
        assert!(certified_bound.certificate().is_some());
        // The resolved margin comes from the trained calibration.
        let cal_eps = model.calibration.expect("trained model calibrates").margin_eps;
        assert_eq!(default.dominance_policy().eps(), cal_eps);
    }

    #[test]
    fn envelope_bound_is_sound_and_sharper_than_certified() {
        let (world, model) = setup();
        assert!(model.envelope.is_some(), "training attaches an envelope");
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let mk = |bound| {
            BudgetRouter::new(
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
            let r = reference.route(q.source, q.target, q.budget_s, None);
            let e = envelope.route(q.source, q.target, q.budget_s, None);
            let c = certified.route(q.source, q.target, q.budget_s, None);
            assert!(r.stats.completed && e.stats.completed && c.stats.completed);
            // Soundness: the envelope bound never changes the answer.
            assert!(
                (e.probability - r.probability).abs() < 1e-9,
                "envelope bound drifted: {} vs {}",
                e.probability,
                r.probability
            );
            env_saved += r.stats.labels_created - e.stats.labels_created.min(r.stats.labels_created);
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

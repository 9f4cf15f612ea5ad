//! Property-based tests of the routing invariants, on a shared tiny world
//! with randomized queries and budgets.

use proptest::prelude::*;
use srt_core::model::training::{train_hybrid, TrainingConfig};
use srt_core::routing::baseline::ExpectedTimeBaseline;
use srt_core::routing::{
    BoundMode, DominanceMode, EngineBuilder, EngineError, Query, RouteResult, RouterConfig,
    RoutingEngine,
};
use srt_core::{CombinePolicy, HybridCost, HybridModel};
use srt_graph::NodeId;
use srt_ml::forest::ForestConfig;
use srt_synth::{SyntheticWorld, WorldConfig};
use std::sync::OnceLock;
use std::time::Duration;

fn fixture() -> &'static (SyntheticWorld, HybridModel) {
    static FIX: OnceLock<(SyntheticWorld, HybridModel)> = OnceLock::new();
    FIX.get_or_init(|| {
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
        let (model, _) = train_hybrid(&world, &cfg).expect("fixture trains");
        (world, model)
    })
}

fn engine(cost: &HybridCost, cfg: RouterConfig) -> RoutingEngine {
    EngineBuilder::new(cost.clone()).config(cfg).build()
}

fn route(engine: &RoutingEngine, src: NodeId, dst: NodeId, budget: f64) -> RouteResult {
    engine.route(&Query::new(src, dst, budget)).expect("valid query")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PBR's returned probability is a probability, its path is valid and
    /// connects the queried endpoints, and it never loses to the
    /// expected-time baseline.
    #[test]
    fn route_invariants(src in 0u32..60, dst in 0u32..60, mult in 0.7f64..1.4) {
        let (world, model) = fixture();
        let n = world.graph.num_nodes() as u32;
        let (src, dst) = (NodeId(src % n), NodeId(dst % n));
        let cost = HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid);

        // Budget proportional to the expected fastest time.
        let exp = srt_graph::algo::dijkstra(&world.graph, src, Some(dst), |e| cost.marginal(e).mean())
            .distance(dst);
        prop_assume!(exp.is_finite());
        let budget = (exp * mult).max(1.0);

        let router = engine(&cost, RouterConfig::default());
        let r = route(&router, src, dst, budget);
        prop_assert!((0.0..=1.0).contains(&r.probability));
        prop_assert!(r.stats.completed);

        if let Some(p) = &r.path {
            p.validate(&world.graph).unwrap();
            prop_assert_eq!(p.source(), src);
            prop_assert_eq!(p.target(), dst);
        }

        if let Some(base) = ExpectedTimeBaseline::solve(&cost, src, dst, budget) {
            prop_assert!(r.probability >= base.probability - 1e-9,
                "PBR {} < baseline {}", r.probability, base.probability);
        }
    }

    /// Probability is monotone in the budget.
    #[test]
    fn probability_monotone_in_budget(src in 0u32..60, dst in 0u32..60, m1 in 0.6f64..1.0, extra in 0.05f64..0.6) {
        let (world, model) = fixture();
        let n = world.graph.num_nodes() as u32;
        let (src, dst) = (NodeId(src % n), NodeId(dst % n));
        prop_assume!(src != dst);
        let cost = HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid);
        let exp = srt_graph::algo::dijkstra(&world.graph, src, Some(dst), |e| cost.marginal(e).mean())
            .distance(dst);
        prop_assume!(exp.is_finite());

        let router = engine(&cost, RouterConfig::default());
        let tight = route(&router, src, dst, exp * m1).probability;
        let loose = route(&router, src, dst, exp * (m1 + extra)).probability;
        // Quantization tolerance: re-binning can wobble by ~1e-3.
        prop_assert!(loose >= tight - 2e-3, "loose {loose} < tight {tight}");
    }

    /// Anytime never beats the exhaustive search.
    #[test]
    fn anytime_bounded_by_exhaustive(src in 0u32..60, dst in 0u32..60, micros in 0u64..400) {
        let (world, model) = fixture();
        let n = world.graph.num_nodes() as u32;
        let (src, dst) = (NodeId(src % n), NodeId(dst % n));
        let cost = HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid);
        let exp = srt_graph::algo::dijkstra(&world.graph, src, Some(dst), |e| cost.marginal(e).mean())
            .distance(dst);
        prop_assume!(exp.is_finite());
        let budget = exp * 1.05;

        let router = engine(&cost, RouterConfig::default());
        let full = route(&router, src, dst, budget).probability;
        let any = router
            .route(&Query::new(src, dst, budget).with_deadline(Duration::from_micros(micros)));
        if micros == 0 {
            // A zero deadline could never take a step: typed rejection.
            prop_assert_eq!(any.unwrap_err(), EngineError::ZeroDeadline);
        } else {
            prop_assert!(any.unwrap().probability <= full + 1e-9);
        }
    }

    /// The pruning policies honour their contracts. Cost shifting is a
    /// pure re-parametrization under any stack. The dominance modes are
    /// compared under the *certified* bound (the optimistic bound is
    /// itself a heuristic under the hybrid, and would contaminate the
    /// attribution): gated is exact, margin drifts at most the
    /// calibrated eps.
    #[test]
    fn sound_prunings_preserve_answers(src in 0u32..40, dst in 0u32..40) {
        let (world, model) = fixture();
        let n = world.graph.num_nodes() as u32;
        let (src, dst) = (NodeId(src % n), NodeId(dst % n));
        let cost = HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid);
        let exp = srt_graph::algo::dijkstra(&world.graph, src, Some(dst), |e| cost.marginal(e).mean())
            .distance(dst);
        prop_assume!(exp.is_finite());
        let budget = exp * 1.05;

        // Cost shifting: exact against the default stack.
        let default_p =
            route(&engine(&cost, RouterConfig::default()), src, dst, budget).probability;
        let unshifted = RouterConfig { use_cost_shifting: false, ..RouterConfig::default() };
        let p = route(&engine(&cost, unshifted), src, dst, budget).probability;
        prop_assert!((p - default_p).abs() < 1e-6, "{p} vs {default_p}");

        // Dominance modes: certified bound, dominance-off reference. The
        // convolution certificate depends only on the (cached) fixture's
        // cost oracle: compute it once for all cases.
        static CERT: OnceLock<srt_core::routing::ConvCertificate> = OnceLock::new();
        let cert = CERT.get_or_init(|| srt_core::routing::ConvCertificate::compute(&cost));
        let base = RouterConfig {
            bound: BoundMode::Certified,
            dominance: DominanceMode::Off,
            max_labels: 120_000,
            ..RouterConfig::default()
        };
        let certified =
            |cfg| EngineBuilder::new(cost.clone()).config(cfg).certificate(cert.clone()).build();
        let reference = route(&certified(base), src, dst, budget);
        prop_assume!(reference.stats.completed);
        let eps = model.calibration.expect("trained model calibrates").margin_eps;
        for (cfg, tol) in [
            (RouterConfig { dominance: DominanceMode::ConvGated, ..base }, 1e-9),
            (RouterConfig { dominance: DominanceMode::Margin { eps: None }, ..base }, eps + 1e-9),
        ] {
            let r = route(&certified(cfg), src, dst, budget);
            prop_assert!(r.stats.completed);
            prop_assert!((r.probability - reference.probability).abs() <= tol,
                "{:?}: {} vs {} (tol {tol})", cfg.dominance, r.probability, reference.probability);
        }
    }
}

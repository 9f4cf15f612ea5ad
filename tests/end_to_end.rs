//! End-to-end integration: synthetic world -> hybrid training -> routing,
//! across all crates through the facade.

use stochastic_routing::core::model::training::{train_hybrid, TrainingConfig};
use stochastic_routing::core::routing::baseline::ExpectedTimeBaseline;
use stochastic_routing::core::routing::{
    BatchExecutor, BoundMode, EngineBuilder, Query, RouterConfig,
};
use stochastic_routing::core::{CombinePolicy, HybridCost};
use stochastic_routing::ml::forest::ForestConfig;
use stochastic_routing::synth::{DistanceCategory, QueryGenerator, SyntheticWorld, WorldConfig};
use std::sync::Arc;
use std::time::Duration;

fn tiny_training() -> TrainingConfig {
    TrainingConfig {
        train_pairs: 150,
        test_pairs: 50,
        min_obs: 5,
        bins: 10,
        forest: ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        },
        ..TrainingConfig::default()
    }
}

#[test]
fn world_to_route_pipeline() {
    let world = SyntheticWorld::build(WorldConfig::tiny());
    let (model, report) = train_hybrid(&world, &tiny_training()).expect("training succeeds");

    // The paper's model-quality claim holds end to end.
    assert!(
        report.kl_hybrid_mean <= report.kl_convolution_mean * 1.1,
        "hybrid {} vs convolution {}",
        report.kl_hybrid_mean,
        report.kl_convolution_mean
    );

    let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
    let executor = BatchExecutor::new(
        Arc::new(
            EngineBuilder::new(cost.clone())
                .config(RouterConfig::default())
                .build(),
        ),
        0,
    );
    let mut qg = QueryGenerator::new(123);
    let queries = qg.generate(&world.graph, &world.model, DistanceCategory::ZeroToOne, 6);
    assert!(!queries.is_empty());

    let batch: Vec<Query> = queries.iter().map(Query::from).collect();
    let results = executor.execute(batch);
    for (q, r) in queries.iter().zip(results) {
        let r = r.expect("generated queries are valid");
        let path = r.path.expect("target reachable in an SCC world");
        path.validate(&world.graph).expect("valid path");
        assert_eq!(path.source(), q.source);
        assert_eq!(path.target(), q.target);

        // PBR never does worse than the deterministic baseline.
        let base = ExpectedTimeBaseline::solve(&cost, q.source, q.target, q.budget_s)
            .expect("baseline exists");
        assert!(r.probability >= base.probability - 1e-9);
    }
    let stats = executor.engine().stats();
    assert_eq!(stats.queries, queries.len() as u64);
    assert_eq!(
        stats.bounds_cache_hits + stats.bounds_cache_misses,
        queries.len() as u64
    );
}

#[test]
fn anytime_is_monotone_in_the_limit() {
    let world = SyntheticWorld::build(WorldConfig::tiny());
    let (model, _) = train_hybrid(&world, &tiny_training()).expect("training succeeds");
    let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
    let engine = EngineBuilder::new(cost).config(RouterConfig::default()).build();
    let mut qg = QueryGenerator::new(5);
    let queries = qg.generate(&world.graph, &world.model, DistanceCategory::OneToFive, 3);

    for q in &queries {
        // The shortest deadline the engine accepts (zero is rejected).
        let p0 = engine
            .route(&Query::from(q).with_deadline(Duration::from_nanos(1)))
            .unwrap()
            .probability;
        let p_inf = engine.route(&Query::from(q)).unwrap().probability;
        assert!(p0 <= p_inf + 1e-9, "a 1 ns deadline beat unbounded");
        assert!(p0 > 0.0, "pivot must provide a usable answer");
    }
}

#[test]
fn policies_rank_as_the_paper_predicts() {
    // Measured as mean KL to ground truth over held-out pairs, the hybrid
    // must sit at or below pure convolution; this is E3's claim exercised
    // through the public facade.
    let world = SyntheticWorld::build(WorldConfig::tiny());
    let (_, report) = train_hybrid(&world, &tiny_training()).expect("training succeeds");
    assert!(report.kl_hybrid_mean <= report.kl_convolution_mean * 1.1);
    assert!(report.classifier_accuracy > 0.5);
    assert!((0.4..=0.95).contains(&report.dependent_fraction));
}

#[test]
fn graph_snapshot_round_trips_through_the_facade() {
    let world = SyntheticWorld::build(WorldConfig::tiny());
    let bytes = stochastic_routing::graph::io::to_bytes(&world.graph);
    let g2 = stochastic_routing::graph::io::from_bytes(&bytes).expect("round trip");
    assert_eq!(g2.num_nodes(), world.graph.num_nodes());
    assert_eq!(g2.num_edges(), world.graph.num_edges());
}

#[test]
fn router_stats_reflect_pruning_work() {
    let world = SyntheticWorld::build(WorldConfig::tiny());
    let (model, _) = train_hybrid(&world, &tiny_training()).expect("training succeeds");
    let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
    let mut qg = QueryGenerator::new(9);
    let q = qg.generate(&world.graph, &world.model, DistanceCategory::OneToFive, 1)[0];

    let route = |cfg| {
        EngineBuilder::new(cost.clone())
            .config(cfg)
            .build()
            .route(&Query::from(q))
            .unwrap()
    };
    let full = route(RouterConfig::default());
    assert!(full.stats.completed);
    assert!(full.stats.labels_created > 0);

    let unpruned_cfg = RouterConfig {
        bound: BoundMode::Off,
        max_labels: 30_000,
        ..RouterConfig::default()
    };
    let unpruned = route(unpruned_cfg);
    assert!(
        unpruned.stats.labels_created >= full.stats.labels_created,
        "bound pruning must save work"
    );
}

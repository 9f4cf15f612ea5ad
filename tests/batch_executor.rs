//! Certification for the persistent-lane `BatchExecutor` behind the
//! serving dispatch plane:
//!
//! * **determinism** — `execute` returns results bitwise-identical to
//!   sequential `engine.route` at every lane count, in input order,
//! * **inline fast path** — a batch of length 1 (and every batch on a
//!   single-lane executor) routes inline on the caller: no helper
//!   thread is spawned for lanes == 1 and no lane is woken for len == 1,
//!   both pinned through `ExecutorStats`,
//! * **panic containment** — a rigged query surfaces as
//!   `EngineError::Internal` without taking down a lane or skewing the
//!   rest of the batch,
//! * **reuse** — one executor serves many batches back to back (the
//!   serving batcher dispatches thousands of times per second against
//!   long-lived lanes).

use std::sync::{Arc, OnceLock};
use stochastic_routing::core::model::training::{train_hybrid, TrainingConfig};
use stochastic_routing::core::routing::{
    BatchExecutor, EngineBuilder, EngineError, Query, RouteResult, RouterConfig,
};
use stochastic_routing::core::{CombinePolicy, HybridCost, HybridModel};
use stochastic_routing::ml::forest::ForestConfig;
use stochastic_routing::synth::{DistanceCategory, QueryGenerator, SyntheticWorld, WorldConfig};

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

fn cost() -> HybridCost {
    let (world, model) = fixture();
    HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid)
}

fn workload(n: usize) -> Vec<Query> {
    let (world, _) = fixture();
    let mut qg = QueryGenerator::new(0xBA7C4);
    qg.generate(&world.graph, &world.model, DistanceCategory::ZeroToOne, n)
        .iter()
        .map(Query::from)
        .collect()
}

fn assert_identical(a: &RouteResult, b: &RouteResult, what: &str) {
    assert_eq!(
        a.probability.to_bits(),
        b.probability.to_bits(),
        "{what}: probability differs"
    );
    let path_a = a.path.as_ref().map(|p| (&p.nodes, &p.edges));
    let path_b = b.path.as_ref().map(|p| (&p.nodes, &p.edges));
    assert_eq!(path_a, path_b, "{what}: path differs");
    assert_eq!(
        a.distribution, b.distribution,
        "{what}: distribution differs"
    );
}

#[test]
fn executor_matches_sequential_routing_at_every_lane_count() {
    let cost = cost();
    let queries = workload(10);

    let reference_engine = EngineBuilder::new(cost.clone())
        .config(RouterConfig::default())
        .build();
    let reference: Vec<RouteResult> = queries
        .iter()
        .map(|q| reference_engine.route(q).expect("workload queries route"))
        .collect();

    for lanes in [1usize, 2, 4] {
        let engine = Arc::new(
            EngineBuilder::new(cost.clone())
                .config(RouterConfig::default())
                .build(),
        );
        let exec = BatchExecutor::new(Arc::clone(&engine), lanes);
        assert_eq!(exec.lanes(), lanes);
        let results = exec.execute(queries.clone());
        assert_eq!(results.len(), queries.len());
        for (i, (r, expected)) in results.iter().zip(&reference).enumerate() {
            let r = r.as_ref().expect("workload queries route");
            assert_identical(r, expected, &format!("query {i} at {lanes} lane(s)"));
        }
        let stats = exec.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.queries, queries.len() as u64);
        if lanes == 1 {
            assert_eq!(stats.inline_batches, 1, "single lane always routes inline");
            assert_eq!(stats.dispatched_batches, 0);
        } else {
            assert_eq!(stats.dispatched_batches, 1);
        }
    }
}

#[test]
fn single_query_batches_route_inline_without_waking_a_lane() {
    let cost = cost();
    let queries = workload(3);
    let engine = Arc::new(
        EngineBuilder::new(cost.clone())
            .config(RouterConfig::default())
            .build(),
    );
    let reference: Vec<RouteResult> = queries
        .iter()
        .map(|q| {
            EngineBuilder::new(cost.clone())
                .config(RouterConfig::default())
                .build()
                .route(q)
                .expect("workload queries route")
        })
        .collect();

    // Helper lanes exist (4 lanes -> 3 parked threads), but a length-1
    // batch must never touch them.
    let exec = BatchExecutor::new(Arc::clone(&engine), 4);
    assert_eq!(exec.stats().worker_threads, 3);
    for (i, q) in queries.iter().enumerate() {
        let results = exec.execute(vec![*q]);
        assert_identical(
            results[0].as_ref().expect("workload queries route"),
            &reference[i],
            &format!("inline single-query batch {i}"),
        );
    }
    let stats = exec.stats();
    assert_eq!(stats.batches, 3);
    assert_eq!(stats.inline_batches, 3, "len-1 batches are inline");
    assert_eq!(stats.dispatched_batches, 0, "no lane handoff happened");

    // And `parallelism == 1` spawns nothing at all: a single-lane
    // executor has zero helper threads by construction.
    let solo = BatchExecutor::new(engine, 1);
    assert_eq!(solo.stats().worker_threads, 0, "lanes=1 spawns no threads");
    let results = solo.execute(queries.clone());
    for (i, (r, expected)) in results.iter().zip(&reference).enumerate() {
        assert_identical(
            r.as_ref().expect("workload queries route"),
            expected,
            &format!("single-lane batch query {i}"),
        );
    }
    assert_eq!(solo.stats().inline_batches, 1);
}

#[test]
fn executor_reuse_across_many_batches_is_answer_preserving() {
    let cost = cost();
    let queries = workload(6);
    let engine = Arc::new(
        EngineBuilder::new(cost.clone())
            .config(RouterConfig::default())
            .build(),
    );
    let reference: Vec<RouteResult> = queries
        .iter()
        .map(|q| engine.route(q).expect("workload queries route"))
        .collect();

    let exec = BatchExecutor::new(Arc::clone(&engine), 3);
    for round in 0..20 {
        let results = exec.execute(queries.clone());
        for (i, (r, expected)) in results.iter().zip(&reference).enumerate() {
            assert_identical(
                r.as_ref().expect("workload queries route"),
                expected,
                &format!("round {round} query {i}"),
            );
        }
    }
    let stats = exec.stats();
    assert_eq!(stats.batches, 20);
    assert_eq!(stats.queries, 120);
    assert_eq!(stats.dispatched_batches, 20);
}

#[test]
fn panicking_query_is_contained_within_the_lanes() {
    let cost = cost();
    let queries = workload(6);
    let victim = queries[2];

    let healthy = EngineBuilder::new(cost.clone())
        .config(RouterConfig::default())
        .build();
    let reference: Vec<_> = queries.iter().map(|q| healthy.route(q)).collect();

    let rigged = Arc::new(
        EngineBuilder::new(cost.clone())
            .config(RouterConfig::default())
            .panic_on_query(victim.source, victim.target)
            .build(),
    );
    for lanes in [1usize, 3] {
        let exec = BatchExecutor::new(Arc::clone(&rigged), lanes);
        let results = exec.execute(queries.clone());
        for (i, (r, expected)) in results.iter().zip(&reference).enumerate() {
            let q = &queries[i];
            if q.source == victim.source && q.target == victim.target {
                assert_eq!(r.as_ref().unwrap_err(), &EngineError::Internal);
            } else {
                assert_identical(
                    r.as_ref().expect("non-victim queries route"),
                    expected.as_ref().unwrap(),
                    &format!("query {i} after a contained panic ({lanes} lanes)"),
                );
            }
        }
        // The lanes survive: the same executor answers the next batch.
        let again = exec.execute(vec![queries[0]]);
        assert_identical(
            again[0].as_ref().expect("engine stays serviceable"),
            reference[0].as_ref().unwrap(),
            "first query after a contained panic",
        );
    }
    assert!(rigged.stats().panics >= 2, "contained panics are counted");
}

//! Allocation-accounting certification of the pooled distribution
//! algebra: a warm [`RoutingEngine`] re-routing a workload mints **zero**
//! new histogram buffers — every label payload cycles between the arena
//! and the worker pool — while answers stay bitwise identical. This is
//! the regression gate for "steady-state serving is allocation-free for
//! label histograms"; it runs in the `routing-soundness` CI job.

use std::sync::{Arc, OnceLock};
use stochastic_routing::core::model::training::{train_hybrid, TrainingConfig};
use stochastic_routing::core::routing::{
    BatchExecutor, EngineBuilder, Query, RouteResult, RouterConfig,
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

fn workload(n: usize) -> Vec<Query> {
    let (world, _) = fixture();
    let mut qg = QueryGenerator::new(0xA110C);
    qg.generate(&world.graph, &world.model, DistanceCategory::ZeroToOne, n)
        .iter()
        .map(Query::from)
        .collect()
}

fn assert_bitwise_identical(a: &RouteResult, b: &RouteResult, what: &str) {
    assert_eq!(
        a.probability.to_bits(),
        b.probability.to_bits(),
        "{what}: probability differs"
    );
    let path_a = a.path.as_ref().map(|p| (&p.nodes, &p.edges));
    let path_b = b.path.as_ref().map(|p| (&p.nodes, &p.edges));
    assert_eq!(path_a, path_b, "{what}: path differs");
    match (&a.distribution, &b.distribution) {
        (Some(da), Some(db)) => {
            assert_eq!(da.start().to_bits(), db.start().to_bits(), "{what}: start");
            assert_eq!(da.width().to_bits(), db.width().to_bits(), "{what}: width");
            assert_eq!(da.num_bins(), db.num_bins(), "{what}: bins");
            for (x, y) in da.probs().iter().zip(db.probs()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: mass differs");
            }
        }
        (None, None) => {}
        _ => panic!("{what}: one result has a distribution, the other not"),
    }
}

/// The acceptance gate: route the same batch twice through one engine on
/// one lane; the second pass must mint no new histogram buffers (all
/// payload traffic served by pool reuse) and reproduce every answer bit
/// for bit.
#[test]
fn warm_engine_rerouting_a_batch_mints_no_buffers() {
    let (world, model) = fixture();
    let cost = HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid);
    let executor = BatchExecutor::new(
        Arc::new(
            EngineBuilder::new(cost)
                .config(RouterConfig::default())
                .build(),
        ),
        1,
    );
    let engine = executor.engine();
    let queries = workload(8);

    // Pass 1 (cold): establishes the pool's high-water mark.
    let first: Vec<RouteResult> = executor
        .execute(queries.clone())
        .into_iter()
        .map(|r| r.expect("workload queries are valid"))
        .collect();
    let cold = engine.stats();
    assert!(cold.pool_misses > 0, "a cold pool must mint buffers");

    // Pass 2 (warm): same batch, same single worker — the context (and
    // its histogram pool) comes back from the engine's context pool.
    let second: Vec<RouteResult> = executor
        .execute(queries.clone())
        .into_iter()
        .map(|r| r.expect("workload queries are valid"))
        .collect();
    let warm = engine.stats();

    assert_eq!(
        warm.pool_misses, cold.pool_misses,
        "a warm engine minted new histogram buffers on the second pass"
    );
    assert!(
        warm.pool_reuse > cold.pool_reuse,
        "the second pass should be served from the pool's free list"
    );
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_bitwise_identical(a, b, &format!("query {i} cold vs warm"));
    }

    // And the context really was recycled, not rebuilt.
    assert_eq!(engine.pooled_contexts(), 1, "batch context was not pooled");
}

/// The same guarantee through the caller-held-context API: replaying a
/// workload through a warm `SearchContext` keeps its pool's mint counter
/// flat.
#[test]
fn warm_search_context_replays_without_minting() {
    let (world, model) = fixture();
    let cost = HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid);
    let engine = EngineBuilder::new(cost)
        .config(RouterConfig::default())
        .build();
    let queries = workload(6);

    let mut ctx = engine.new_context();
    let first: Vec<RouteResult> = queries
        .iter()
        .map(|q| engine.route_with(q, &mut ctx).expect("valid"))
        .collect();
    let cold_mints = ctx.pool_stats().mints;
    assert!(cold_mints > 0);

    for round in 0..3 {
        for (i, q) in queries.iter().enumerate() {
            let r = engine.route_with(q, &mut ctx).expect("valid");
            assert_bitwise_identical(&r, &first[i], &format!("round {round} query {i}"));
        }
        assert_eq!(
            ctx.pool_stats().mints,
            cold_mints,
            "warm context minted a buffer in replay round {round}"
        );
    }
    assert!(ctx.pool_stats().reuses > 0);
}

/// A warm context parks payload-sized buffers only. Pool buffers are
/// interchangeable, so while the mixed-width convolution still drew its
/// fine-lattice projection and product grid (hundreds of slots) from the
/// pool the label payloads live in, every recycled `max_bins`-slot payload
/// buffer ratcheted up to grid capacity — the memory behind the
/// benchmark's `engine_long` peak RSS. No search-time operator checks out
/// a temporary any more; this pins that it stays so.
#[test]
fn warm_context_retains_payload_sized_buffers_only() {
    let (world, model) = fixture();
    let cost = HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid);
    let engine = EngineBuilder::new(cost)
        .config(RouterConfig::default())
        .build();
    let queries: Vec<Query> = QueryGenerator::new(0xA110C)
        .generate(&world.graph, &world.model, DistanceCategory::OneToFive, 16)
        .iter()
        .map(Query::from)
        .collect();

    let mut ctx = engine.new_context();
    let pass = |ctx: &mut _| {
        for q in &queries {
            engine.route_with(q, ctx).expect("valid");
        }
    };
    pass(&mut ctx); // cold
    pass(&mut ctx); // first warm pass
    let warm_mints = ctx.pool_stats().mints;
    pass(&mut ctx); // second warm pass
    assert_eq!(
        ctx.pool_stats().mints,
        warm_mints,
        "second warm pass minted"
    );

    let (free, slots) = (ctx.pool().free_buffers(), ctx.pool().retained_slots());
    assert!(free > 0, "a warm context parks its payload buffers");
    assert!(
        slots <= free * 4 * model.bins,
        "{free} parked buffers retain {slots} slots (max_bins = {})",
        model.bins
    );
}

/// Pool counters surface through `EngineStats` snapshots and reset with
/// them; per-query `SearchStats` are unaffected by pooling.
#[test]
fn pool_counters_snapshot_and_reset() {
    let (world, model) = fixture();
    let cost = HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid);
    let engine = EngineBuilder::new(cost)
        .config(RouterConfig::default())
        .build();
    let queries = workload(3);
    for q in &queries {
        engine.route(q).expect("valid");
    }

    let handle = engine.stats_handle();
    let snap = handle.snapshot();
    assert_eq!(snap, engine.stats(), "handle and engine snapshots differ");
    assert_eq!(snap.queries, queries.len() as u64);
    assert!(snap.pool_misses > 0 || snap.pool_reuse > 0);

    handle.reset();
    assert_eq!(engine.stats(), Default::default());
}

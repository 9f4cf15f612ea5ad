//! Engine parity + concurrency certification for the query-serving
//! redesign:
//!
//! * **determinism** — `BatchExecutor` batches across 1/2/8 lanes return
//!   bitwise-identical `RouteResult`s (probabilities compared by bit
//!   pattern, paths, distributions and every counter except wall-clock
//!   `elapsed`) to sequential `route_with` over one reused
//!   `SearchContext` on a separately built engine,
//! * **validation** — the typed `Query` API rejects NaN/infinite
//!   budgets, out-of-range node ids and zero anytime deadlines with the
//!   matching `EngineError`, without poisoning the rest of a batch,
//! * **caching** — the target-keyed `OptimisticBounds` cache reports
//!   hits/misses through `EngineStats` and never changes an answer,
//! * **scratch reuse** — a `SearchContext` reused across queries returns
//!   the same answers as fresh contexts and stops growing its arena once
//!   warm (steady-state serving reuses search state instead of
//!   reallocating it),
//! * **stats coherence** — `stats()` racing `reset_stats()` (or any bulk
//!   rewrite) never observes a torn half-zeroed snapshot,
//! * **cache bounds under contention** — many workers hammering a
//!   capacity-clamped bounds cache never overshoot the bound at rest and
//!   never change an answer.

use std::sync::{Arc, OnceLock};
use std::time::Duration;
use stochastic_routing::core::model::training::{train_hybrid, TrainingConfig};
use stochastic_routing::core::routing::{
    BatchExecutor, EngineBuilder, EngineError, OracleRouter, Query, RouteResult, RouterConfig,
    RoutingEngine, SearchContext,
};
use stochastic_routing::core::{CombinePolicy, HybridCost, HybridModel};
use stochastic_routing::graph::NodeId;
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

/// A workload with deliberately repeated targets so the bounds cache has
/// something to hit.
fn workload(n: usize) -> Vec<Query> {
    let (world, _) = fixture();
    let mut qg = QueryGenerator::new(0xEB);
    let mut queries: Vec<Query> = qg
        .generate(&world.graph, &world.model, DistanceCategory::ZeroToOne, n)
        .iter()
        .map(Query::from)
        .collect();
    // Duplicate every query with a perturbed budget: same target, new
    // budget — a cache hit that must not change any answer.
    let dup: Vec<Query> = queries
        .iter()
        .map(|q| Query::new(q.source, q.target, q.budget_s * 1.01))
        .collect();
    queries.extend(dup);
    queries
}

/// Full bitwise comparison, ignoring only the wall-clock field.
fn assert_identical(a: &RouteResult, b: &RouteResult, what: &str) {
    assert_eq!(
        a.probability.to_bits(),
        b.probability.to_bits(),
        "{what}: probability differs: {} vs {}",
        a.probability,
        b.probability
    );
    let path_a = a.path.as_ref().map(|p| (&p.nodes, &p.edges));
    let path_b = b.path.as_ref().map(|p| (&p.nodes, &p.edges));
    assert_eq!(path_a, path_b, "{what}: path differs");
    assert_eq!(
        a.distribution, b.distribution,
        "{what}: distribution differs"
    );
    let (sa, sb) = (a.stats, b.stats);
    assert_eq!(
        (
            sa.labels_created,
            sa.labels_expanded,
            sa.pruned_bound,
            sa.pruned_infeasible
        ),
        (
            sb.labels_created,
            sb.labels_expanded,
            sb.pruned_bound,
            sb.pruned_infeasible
        ),
        "{what}: work counters differ"
    );
    assert_eq!(
        (
            sa.pruned_dominance,
            sa.dominance_retired,
            sa.pareto_compactions,
            sa.completed
        ),
        (
            sb.pruned_dominance,
            sb.dominance_retired,
            sb.pareto_compactions,
            sb.completed
        ),
        "{what}: dominance counters differ"
    );
}

/// The sequential reference: `queries` routed one after another through
/// `route_with` over one reused `SearchContext`, on an engine built for
/// this alone.
fn sequential(cost: &HybridCost, queries: &[Query]) -> Vec<RouteResult> {
    let engine = EngineBuilder::new(cost.clone())
        .config(RouterConfig::default())
        .build();
    let mut ctx = SearchContext::new();
    queries
        .iter()
        .map(|q| {
            engine
                .route_with(q, &mut ctx)
                .expect("reference queries are valid")
        })
        .collect()
}

/// One batch on a fresh `lanes`-lane executor over `engine`.
fn execute(
    engine: &Arc<RoutingEngine>,
    queries: &[Query],
    lanes: usize,
) -> Vec<Result<RouteResult, EngineError>> {
    BatchExecutor::new(Arc::clone(engine), lanes).execute(queries.to_vec())
}

#[test]
fn engine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RoutingEngine>();
    assert_send_sync::<Query>();
    assert_send_sync::<EngineError>();
}

#[test]
fn route_batch_is_deterministic_across_worker_counts() {
    let cost = cost();
    let queries = workload(8);

    let reference = sequential(&cost, &queries);

    for workers in [1usize, 2, 8] {
        let engine = Arc::new(
            EngineBuilder::new(cost.clone())
                .config(RouterConfig::default())
                .build(),
        );
        let results = execute(&engine, &queries, workers);
        assert_eq!(results.len(), queries.len());
        for (i, (r, expected)) in results.iter().zip(&reference).enumerate() {
            let r = r.as_ref().expect("workload queries are valid");
            assert_identical(r, expected, &format!("query {i} with {workers} worker(s)"));
        }
        let stats = engine.stats();
        assert_eq!(stats.queries, queries.len() as u64);
        assert_eq!(stats.batches, 1);
    }
}

#[test]
fn invalid_queries_are_rejected_with_typed_errors() {
    let engine = Arc::new(EngineBuilder::new(cost()).build());
    let n = engine.cost().graph().num_nodes();
    let valid = workload(1)[0];

    let nan = Query::new(valid.source, valid.target, f64::NAN);
    match engine.route(&nan) {
        // NaN != NaN, so match the variant and check the payload's bits.
        Err(EngineError::InvalidBudget { budget }) => assert!(budget.is_nan()),
        other => panic!("NaN budget produced {other:?}"),
    }

    let inf = Query::new(valid.source, valid.target, f64::INFINITY);
    assert!(matches!(
        engine.route(&inf),
        Err(EngineError::InvalidBudget { .. })
    ));

    let bogus = Query::new(valid.source, NodeId(n as u32 + 7), 100.0);
    assert_eq!(
        engine.route(&bogus).unwrap_err(),
        EngineError::NodeOutOfRange {
            node: NodeId(n as u32 + 7),
            num_nodes: n
        }
    );

    let zero = valid.with_deadline(Duration::ZERO);
    assert_eq!(engine.route(&zero).unwrap_err(), EngineError::ZeroDeadline);

    // Negative budgets used to slip past validation (only NaN/∞ were
    // checked) and silently return the degenerate probability-0 result.
    // The typed API now rejects them like any other meaningless budget.
    let late = Query::new(valid.source, valid.target, -5.0);
    assert_eq!(
        engine.route(&late).unwrap_err(),
        EngineError::InvalidBudget { budget: -5.0 }
    );

    // A bad query inside a batch rejects alone; its neighbours route.
    let batch = [valid, bogus, late];
    let results = execute(&engine, &batch, 2);
    assert!(results[0].is_ok());
    assert!(matches!(
        results[1],
        Err(EngineError::NodeOutOfRange { .. })
    ));
    assert!(matches!(results[2], Err(EngineError::InvalidBudget { .. })));

    // Error values render for operators.
    let msg = engine.route(&zero).unwrap_err().to_string();
    assert!(msg.contains("deadline"), "unhelpful error display: {msg}");
}

#[test]
fn warm_bounds_cache_counts_hits_and_preserves_answers() {
    let cost = cost();
    let engine = Arc::new(
        EngineBuilder::new(cost.clone())
            .config(RouterConfig::default())
            .build(),
    );
    let queries = workload(6);
    let distinct_targets = {
        let mut t: Vec<NodeId> = queries.iter().map(|q| q.target).collect();
        t.sort_unstable();
        t.dedup();
        t.len()
    };

    // Cold pass: every distinct target misses exactly once.
    let cold = execute(&engine, &queries, 1);
    let s1 = engine.stats();
    assert_eq!(s1.bounds_cache_misses, distinct_targets as u64);
    assert_eq!(
        s1.bounds_cache_hits,
        queries.len() as u64 - distinct_targets as u64
    );
    assert_eq!(engine.bounds_cached(), distinct_targets);

    // Warm pass: all hits, bitwise-identical answers.
    let warm = execute(&engine, &queries, 1);
    let s2 = engine.stats();
    assert_eq!(
        s2.bounds_cache_misses, s1.bounds_cache_misses,
        "warm pass recomputed bounds"
    );
    assert_eq!(
        s2.bounds_cache_hits,
        s1.bounds_cache_hits + queries.len() as u64
    );
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert_identical(
            c.as_ref().unwrap(),
            w.as_ref().unwrap(),
            &format!("query {i} cold vs warm"),
        );
    }

    // Clearing the cache restores cold behaviour (and still the same
    // answers).
    engine.clear_bounds_cache();
    assert_eq!(engine.bounds_cached(), 0);
    let recold = execute(&engine, &queries, 1);
    let s3 = engine.stats();
    assert_eq!(
        s3.bounds_cache_misses,
        s2.bounds_cache_misses + distinct_targets as u64
    );
    for (i, (c, r)) in cold.iter().zip(&recold).enumerate() {
        assert_identical(
            c.as_ref().unwrap(),
            r.as_ref().unwrap(),
            &format!("query {i} cold vs re-cold"),
        );
    }

    // reset_stats zeroes counters without dropping the cache.
    engine.reset_stats();
    assert_eq!(engine.stats(), Default::default());
    assert_eq!(engine.bounds_cached(), distinct_targets);
}

#[test]
fn search_context_reuse_is_answer_preserving_and_stops_allocating() {
    let engine = EngineBuilder::new(cost())
        .config(RouterConfig::default())
        .build();
    let queries = workload(6);

    let mut shared = engine.new_context();
    let mut capacities = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let reused = engine.route_with(q, &mut shared).unwrap();
        let fresh = engine.route(q).unwrap();
        assert_identical(&reused, &fresh, &format!("query {i} shared vs fresh ctx"));
        capacities.push(shared.arena_capacity());
    }
    // Steady state: replaying the workload through the warm context must
    // not grow the label arena again — the scratch is reused, not
    // reallocated per query.
    let warm_capacity = shared.arena_capacity();
    for q in &queries {
        engine.route_with(q, &mut shared).unwrap();
        assert_eq!(
            shared.arena_capacity(),
            warm_capacity,
            "warm context reallocated its arena"
        );
    }
}

#[test]
fn lru_bounded_cache_evicts_but_never_changes_answers() {
    let cost = cost();
    let queries = workload(8);
    let distinct_targets = {
        let mut t: Vec<NodeId> = queries.iter().map(|q| q.target).collect();
        t.sort_unstable();
        t.dedup();
        t.len()
    };
    assert!(distinct_targets > 2, "workload needs target diversity");

    // Reference: an engine whose cache comfortably holds every target.
    let unbounded = Arc::new(
        EngineBuilder::new(cost.clone())
            .config(RouterConfig::default())
            .build(),
    );
    let reference = execute(&unbounded, &queries, 1);
    assert_eq!(unbounded.stats().bounds_evictions, 0);

    // A capacity of 2 forces evictions on the same workload.
    let bounded = Arc::new(
        EngineBuilder::new(cost.clone())
            .config(RouterConfig::default())
            .bounds_cache_capacity(2)
            .build(),
    );
    let results = execute(&bounded, &queries, 1);
    let stats = bounded.stats();
    assert!(bounded.bounds_cached() <= 2, "capacity not enforced");
    assert!(
        stats.bounds_evictions >= (distinct_targets - 2) as u64,
        "expected evictions past capacity, saw {}",
        stats.bounds_evictions
    );
    // Eviction costs recomputation, never correctness.
    for (i, (r, expected)) in results.iter().zip(&reference).enumerate() {
        assert_identical(
            r.as_ref().unwrap(),
            expected.as_ref().unwrap(),
            &format!("query {i} bounded vs unbounded cache"),
        );
    }

    // An LRU round trip: re-routing the workload in order re-misses
    // evicted targets (the cache is a capacity bound, not a correctness
    // device).
    let miss_before = stats.bounds_cache_misses;
    execute(&bounded, &queries, 1);
    assert!(bounded.stats().bounds_cache_misses > miss_before);

    // Capacity zero clamps to one instead of disabling the engine.
    let tiny = Arc::new(
        EngineBuilder::new(cost)
            .config(RouterConfig::default())
            .bounds_cache_capacity(0)
            .build(),
    );
    let clamped = execute(&tiny, &queries, 1);
    assert!(tiny.bounds_cached() <= 1);
    for (i, (r, expected)) in clamped.iter().zip(&reference).enumerate() {
        assert_identical(
            r.as_ref().unwrap(),
            expected.as_ref().unwrap(),
            &format!("query {i} capacity-1 cache"),
        );
    }
}

#[test]
fn shared_lattice_fast_path_fires_and_preserves_routes() {
    use stochastic_routing::dist::Histogram;

    let (world, model) = fixture();
    // Snap every edge marginal onto one canonical lattice: width 2.0,
    // start an integer multiple of it. Pre-cap combines (path-so-far ⊛
    // next marginal at matching widths) then share a lattice, which the
    // engine must detect and count — without changing a single route.
    let marginals: Vec<Histogram> = world
        .graph
        .edge_ids()
        .map(|e| {
            let m = world.ground_truth.marginal(e);
            Histogram::new((m.start() / 2.0).round() * 2.0, 2.0, m.probs().to_vec())
                .expect("snapped marginal is valid")
        })
        .collect();
    let cost = HybridCost::new(
        &world.graph,
        model,
        marginals,
        CombinePolicy::AlwaysConvolve,
    );

    let engine = EngineBuilder::new(cost.clone())
        .config(RouterConfig::default())
        .build();
    let queries = workload(6);
    for (i, (q, expected)) in queries.iter().zip(sequential(&cost, &queries)).enumerate() {
        let got = engine.route(q).expect("workload queries are valid");
        assert_identical(
            &got,
            &expected,
            &format!("query {i} on the snapped lattice"),
        );
    }
    assert!(
        engine.stats().lattice_fast_path > 0,
        "no combine hit the shared-lattice route on a single-lattice world"
    );
}

/// An edge whose observed travel time never varies fits as a marginal of
/// `1e-9`-wide buckets. Convolving a label with it used to project the
/// label onto that lattice — ~10¹¹ slots, a failed allocation, and a
/// process abort that `route_with`'s `catch_unwind` cannot contain. The
/// closed-form capped convolution never builds that lattice.
#[test]
fn constant_time_edge_is_routed_across() {
    use stochastic_routing::dist::{empirical, Histogram};

    let (world, model) = fixture();
    let free = EngineBuilder::new(cost())
        .config(RouterConfig::default())
        .build();
    // Freeze the middle edge of the workload's longest route, so labels
    // are convolved both into and out of the constant marginal.
    let (q, edges) = workload(8)
        .into_iter()
        .filter_map(|q| Some((q, free.route(&q).ok()?.path?.edges)))
        .max_by_key(|(_, edges)| edges.len())
        .expect("the workload is routable");
    assert!(
        edges.len() >= 3,
        "fixture routes are too short to cross an edge"
    );
    let frozen = edges[edges.len() / 2];

    let marginals: Vec<Histogram> = world
        .graph
        .edge_ids()
        .map(|e| {
            let m = world.ground_truth.marginal(e);
            if e == frozen {
                empirical::from_samples(&[m.mean(); 50], m.num_bins())
                    .expect("constant samples fit")
            } else {
                m.clone()
            }
        })
        .collect();
    for policy in [CombinePolicy::AlwaysConvolve, CombinePolicy::Hybrid] {
        let cost = HybridCost::new(&world.graph, model, marginals.clone(), policy);
        let engine = EngineBuilder::new(cost.clone())
            .config(RouterConfig::default())
            .build();
        let got = engine.route(&q).expect("workload queries are valid");
        let expected = sequential(&cost, &[q]).remove(0);
        assert_identical(&got, &expected, &format!("{policy:?} across a frozen edge"));
        assert!(got.stats.completed);
        let path = got.path.expect("still routable");
        assert!(
            path.edges.contains(&frozen),
            "{policy:?}: route avoids the frozen edge"
        );
    }
}

#[test]
fn zero_budget_is_valid_and_takes_the_degenerate_path() {
    // A budget of exactly 0.0 is finite and answerable (probability 0),
    // so validation admits it — but the search must not burn a full
    // exploration to conclude that: `route_inner` answers it directly.
    let engine = EngineBuilder::new(cost())
        .config(RouterConfig::default())
        .build();
    let q = workload(1)[0];

    let r = engine
        .route(&Query::new(q.source, q.target, 0.0))
        .expect("zero budgets are answerable");
    assert_eq!(r.probability, 0.0);
    assert!(r.stats.completed);
    // The degenerate path answers without searching: the expected-time
    // path is attached, but no label was ever created or expanded.
    assert!(r.path.is_some(), "expected-time path attached");
    assert_eq!(r.stats.labels_created, 0, "zero budget ran the full search");
    assert_eq!(r.stats.labels_expanded, 0);
}

#[test]
fn source_equals_target_answers_one_at_every_budget() {
    // Already at the target, the empty path arrives within any budget —
    // zero included. The engine answers that before it looks at the
    // budget, and agrees with the exhaustive oracle bit for bit.
    let cost = cost();
    let engine = EngineBuilder::new(cost.clone())
        .config(RouterConfig::default())
        .build();
    let oracle = OracleRouter::new(&cost);
    let s = workload(1)[0].source;
    for budget in [0.0, 1e-9, 10.0] {
        let r = engine
            .route(&Query::new(s, s, budget))
            .expect("finite non-negative budgets are valid");
        let o = oracle
            .route(s, s, budget, 1000)
            .expect("trivial query fits the cap");
        assert_eq!(
            r.probability.to_bits(),
            o.probability.to_bits(),
            "budget {budget}"
        );
        assert_eq!(r.probability, 1.0, "budget {budget}");
        assert!(r.stats.completed);
        assert!(r.path.expect("empty path").is_empty(), "budget {budget}");
    }
}

#[test]
fn non_finite_and_negative_budgets_are_rejected() {
    let engine = EngineBuilder::new(cost())
        .config(RouterConfig::default())
        .build();
    let q = workload(1)[0];
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5.0] {
        assert!(
            matches!(
                engine.route(&Query::new(q.source, q.target, bad)),
                Err(EngineError::InvalidBudget { .. })
            ),
            "engine must reject budget {bad}"
        );
    }
}

#[test]
fn panicking_query_is_contained_and_engine_stays_serviceable() {
    let cost = cost();
    let queries = workload(6);
    let victim = queries[2];

    // Reference answers from a healthy engine.
    let healthy = Arc::new(
        EngineBuilder::new(cost.clone())
            .config(RouterConfig::default())
            .build(),
    );
    let reference = execute(&healthy, &queries, 1);

    // A rigged engine panics mid-search on the victim query (fault
    // injection fires after seeding, with pooled payloads live in the
    // arena — realistic wreckage, not a tidy early return).
    let rigged = Arc::new(
        EngineBuilder::new(cost.clone())
            .config(RouterConfig::default())
            .panic_on_query(victim.source, victim.target)
            .build(),
    );

    for workers in [1usize, 4] {
        let results = execute(&rigged, &queries, workers);
        for (i, (r, expected)) in results.iter().zip(&reference).enumerate() {
            let q = &queries[i];
            if q.source == victim.source && q.target == victim.target {
                assert_eq!(
                    r.as_ref().unwrap_err(),
                    &EngineError::Internal,
                    "victim query must surface the contained panic"
                );
            } else {
                assert_identical(
                    r.as_ref().expect("non-victim queries route"),
                    expected.as_ref().unwrap(),
                    &format!("query {i} after a contained panic ({workers} workers)"),
                );
            }
        }
    }
    assert!(rigged.stats().panics >= 2, "contained panics are counted");

    // Sequential single-query serving recovers the same way: the panic
    // is one Err, and the very next route call answers bit-for-bit.
    assert_eq!(rigged.route(&victim).unwrap_err(), EngineError::Internal);
    let after = rigged.route(&queries[0]).expect("engine stays serviceable");
    assert_identical(
        &after,
        reference[0].as_ref().unwrap(),
        "first query after a contained panic",
    );
    // The error renders for operators.
    let msg = EngineError::Internal.to_string();
    assert!(
        msg.contains("panicked"),
        "unhelpful Internal display: {msg}"
    );
}

#[test]
fn poisoned_locks_do_not_take_down_serving() {
    // A panic while holding the context-pool Mutex or the bounds-cache
    // RwLock used to poison it forever — every later route() call would
    // then panic in checkout_context. The accessors are now
    // poison-tolerant: serving proceeds as if nothing happened.
    let engine = Arc::new(
        EngineBuilder::new(cost())
            .config(RouterConfig::default())
            .build(),
    );
    let queries = workload(4);
    let before = execute(&engine, &queries, 1);

    engine.poison_locks_for_tests();

    // Every lock-touching surface still works...
    let _ = engine.pooled_contexts();
    let _ = engine.bounds_cached();
    engine.clear_bounds_cache();
    // ...and answers are unchanged.
    let after = execute(&engine, &queries, 2);
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        assert_identical(
            b.as_ref().unwrap(),
            a.as_ref().unwrap(),
            &format!("query {i} across lock poisoning"),
        );
    }
}

#[test]
fn stats_snapshot_is_never_torn_by_a_concurrent_rewrite() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // The engine's own scrape path (`/metrics` calls `stats()`) races a
    // bulk rewrite. Before the seqlock, a scrape could catch `reset`
    // half-done: some counters zeroed, others not — a torn snapshot
    // with nonsense hit rates. Pin the contract: every observed
    // snapshot has all twelve traffic counters from one side of the
    // rewrite, never a mix.
    let engine = Arc::new(EngineBuilder::new(cost()).build());
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut v = 1u64;
            while !stop.load(Ordering::Relaxed) {
                engine.stats_handle().fill_for_tests(v);
                v += 1;
            }
            v
        })
    };

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let s = engine.stats();
                    let fields = [
                        s.queries,
                        s.batches,
                        s.bounds_cache_hits,
                        s.bounds_cache_misses,
                        s.bounds_evictions,
                        s.labels_created,
                        s.labels_expanded,
                        s.incomplete,
                        s.pool_reuse,
                        s.pool_misses,
                        s.lattice_fast_path,
                        s.panics,
                    ];
                    assert!(
                        fields.iter().all(|&f| f == fields[0]),
                        "torn snapshot: {fields:?}"
                    );
                    scrapes += 1;
                }
                scrapes
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let rewrites = writer.join().unwrap();
    let scrapes: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(rewrites > 10, "writer barely ran ({rewrites} rewrites)");
    assert!(scrapes > 10, "readers barely ran ({scrapes} scrapes)");

    // And `reset` itself participates in the same protocol: post-reset
    // snapshots are all-zero traffic (epoch preserved separately).
    engine.reset_stats();
    assert_eq!(engine.stats(), Default::default());
}

#[test]
fn contended_bounds_cache_never_overshoots_capacity_or_changes_answers() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // Many workers, a cache clamped to 2 targets, a workload with far
    // more distinct targets: the old contains_key-then-insert path let
    // N workers all miss the same full cache and push it N-1 entries
    // past its bound. The insert-then-trim rewrite makes overshoot
    // impossible to observe at rest; an observer thread hammers the
    // accessor the whole time.
    let queries = workload(10);
    let reference = execute(
        &Arc::new(
            EngineBuilder::new(cost())
                .config(RouterConfig::default())
                .build(),
        ),
        &queries,
        1,
    );

    let engine = Arc::new(
        EngineBuilder::new(cost())
            .config(RouterConfig::default())
            .bounds_cache_capacity(2)
            .build(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let observer = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak = 0usize;
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(engine.bounds_cached());
            }
            peak
        })
    };

    for round in 0..6 {
        let results = execute(&engine, &queries, 8);
        for (i, (r, expected)) in results.iter().zip(&reference).enumerate() {
            assert_identical(
                r.as_ref().unwrap(),
                expected.as_ref().unwrap(),
                &format!("round {round} query {i} under contention"),
            );
        }
        assert!(
            engine.bounds_cached() <= 2,
            "cache overshot its capacity at rest after round {round}"
        );
    }
    stop.store(true, Ordering::Relaxed);
    // Insert and trim happen under one write-lock hold, so not even a
    // mid-flight read can catch the cache past its bound.
    let peak = observer.join().unwrap();
    assert!(
        peak <= 2,
        "observer saw {peak} cached targets in a capacity-2 cache"
    );
    assert!(
        engine.stats().bounds_evictions > 0,
        "workload never exercised eviction"
    );
}

#[test]
fn generous_deadline_answers_identically_to_no_deadline() {
    let engine = EngineBuilder::new(cost())
        .config(RouterConfig::default())
        .build();
    let q = workload(1)[0];
    // A 60 s deadline never fires on a tiny world: the search completes
    // and the answer is the unbounded one, bit for bit.
    let unbounded = engine.route(&q).unwrap();
    let deadlined = engine
        .route(&q.with_deadline(Duration::from_secs(60)))
        .unwrap();
    assert!(unbounded.stats.completed && deadlined.stats.completed);
    assert_identical(&deadlined, &unbounded, "60 s deadline vs none");
}

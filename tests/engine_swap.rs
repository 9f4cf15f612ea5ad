//! Certification of the zero-downtime model hot swap:
//!
//! * **parity** — after `swap_model(B)` every answer is bitwise-identical
//!   to a fresh engine built over model B (same graph, same marginals);
//!   swapping back restores model A's answers exactly,
//! * **linearizability** — batches racing a storm of swaps never
//!   straddle one: the epoch is pinned once per batch, so *all* results
//!   of a batch are bitwise-identical to the old epoch's answers or all
//!   to the new one's — never a mix, let alone a hybrid answer,
//! * **isolation** — everything model-derived is rebuilt per epoch; the
//!   one thing a swap keeps, the engine's per-target bounds cache,
//!   depends only on the graph and the marginals every epoch shares, so
//!   a swap neither empties it nor misses on a target already cached,
//!   and the answers it serves stay bitwise-identical to a fresh engine
//!   over the new model,
//! * **rejection** — corrupt snapshots, bins mismatches and non-finite
//!   calibration are refused with a typed [`SwapError`] while the old
//!   epoch keeps serving bitwise-unchanged,
//! * **bookkeeping** — the epoch counter increments per successful swap,
//!   shows up in `StatsSnapshot`, and survives `reset_stats` (it names
//!   which model is serving, not how much traffic it saw).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use stochastic_routing::core::model::io as model_io;
use stochastic_routing::core::model::training::{train_hybrid, TrainingConfig};
use stochastic_routing::core::routing::{
    BatchExecutor, EngineBuilder, Query, RouteResult, RouterConfig, RoutingEngine, SwapError,
};
use stochastic_routing::core::{CombinePolicy, HybridCost, HybridModel};
use stochastic_routing::ml::forest::ForestConfig;
use stochastic_routing::synth::{DistanceCategory, QueryGenerator, SyntheticWorld, WorldConfig};

/// One world, two independently trained models over it — the swap
/// candidates. Different seeds and forest sizes make their predictions
/// (and therefore routed answers) genuinely diverge.
fn fixture() -> &'static (SyntheticWorld, HybridModel, HybridModel) {
    static FIX: OnceLock<(SyntheticWorld, HybridModel, HybridModel)> = OnceLock::new();
    FIX.get_or_init(|| {
        let world = SyntheticWorld::build(WorldConfig::tiny());
        let base = TrainingConfig {
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
        let (model_a, _) = train_hybrid(&world, &base).expect("model A trains");
        let spiced = TrainingConfig {
            train_pairs: 140,
            seed: 0xBEEF,
            forest: ForestConfig {
                n_trees: 7,
                ..ForestConfig::default()
            },
            ..base
        };
        let (model_b, _) = train_hybrid(&world, &spiced).expect("model B trains");
        (world, model_a, model_b)
    })
}

fn cost_over(model: &HybridModel) -> HybridCost {
    let (world, _, _) = fixture();
    HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid)
}

fn engine_over(model: &HybridModel) -> RoutingEngine {
    EngineBuilder::new(cost_over(model))
        .config(RouterConfig::default())
        .build()
}

fn workload(n: usize) -> Vec<Query> {
    let (world, _, _) = fixture();
    QueryGenerator::new(0x54A9)
        .generate(&world.graph, &world.model, DistanceCategory::ZeroToOne, n)
        .iter()
        .map(Query::from)
        .collect()
}

/// Bitwise equality, ignoring only wall-clock time.
fn identical(a: &RouteResult, b: &RouteResult) -> bool {
    a.probability.to_bits() == b.probability.to_bits()
        && a.path.as_ref().map(|p| (&p.nodes, &p.edges))
            == b.path.as_ref().map(|p| (&p.nodes, &p.edges))
        && a.distribution == b.distribution
        && (
            a.stats.labels_created,
            a.stats.labels_expanded,
            a.stats.completed,
        ) == (
            b.stats.labels_created,
            b.stats.labels_expanded,
            b.stats.completed,
        )
}

fn assert_identical(a: &RouteResult, b: &RouteResult, what: &str) {
    assert!(
        identical(a, b),
        "{what}: answers differ ({} vs {})",
        a.probability,
        b.probability
    );
}

#[test]
fn swapped_engine_is_bitwise_identical_to_a_fresh_one() {
    let (_, model_a, model_b) = fixture();
    let queries = workload(8);
    let fresh_a = engine_over(model_a);
    let fresh_b = engine_over(model_b);
    let ref_a: Vec<RouteResult> = queries.iter().map(|q| fresh_a.route(q).unwrap()).collect();
    let ref_b: Vec<RouteResult> = queries.iter().map(|q| fresh_b.route(q).unwrap()).collect();
    assert!(
        queries
            .iter()
            .enumerate()
            .any(|(i, _)| !identical(&ref_a[i], &ref_b[i])),
        "fixture models route identically — the swap tests would prove nothing"
    );

    let engine = engine_over(model_a);
    assert_eq!(engine.epoch(), 0);
    // Warm the bounds cache under model A.
    for (i, q) in queries.iter().enumerate() {
        assert_identical(
            &engine.route(q).unwrap(),
            &ref_a[i],
            &format!("pre-swap {i}"),
        );
    }
    let cached = engine.bounds_cached();
    assert!(cached > 0);

    let epoch = engine
        .swap_model(model_b.clone())
        .expect("valid model swaps");
    assert_eq!(epoch, 1);
    assert_eq!(engine.epoch(), 1);
    // The bounds are a function of the graph and the marginals, which
    // model B's epoch shares: the swap keeps every cached target, and
    // serving the same targets again computes no bound at all.
    assert_eq!(engine.bounds_cached(), cached, "the swap emptied the cache");
    let misses = engine.stats().bounds_cache_misses;
    for (i, q) in queries.iter().enumerate() {
        assert_identical(
            &engine.route(q).unwrap(),
            &ref_b[i],
            &format!("post-swap {i}"),
        );
    }
    assert_eq!(
        engine.stats().bounds_cache_misses,
        misses,
        "a target cached before the swap missed after it"
    );

    // Swapping back restores model A bit-for-bit.
    assert_eq!(engine.swap_model(model_a.clone()), Ok(2));
    for (i, q) in queries.iter().enumerate() {
        assert_identical(
            &engine.route(q).unwrap(),
            &ref_a[i],
            &format!("swap-back {i}"),
        );
    }
}

#[test]
fn swap_from_snapshot_bytes_matches_swap_from_memory() {
    let (_, model_a, model_b) = fixture();
    let queries = workload(6);
    let fresh_b = engine_over(model_b);

    let engine = engine_over(model_a);
    let bytes = model_io::to_bytes(model_b);
    let epoch = engine
        .swap_model_bytes(&bytes)
        .expect("round-tripped snapshot swaps");
    assert_eq!(epoch, 1);
    for (i, q) in queries.iter().enumerate() {
        assert_identical(
            &engine.route(q).unwrap(),
            &fresh_b.route(q).unwrap(),
            &format!("bytes-swap {i}"),
        );
    }
}

#[test]
fn swap_across_snapshot_versions_degrades_and_recovers() {
    // An engine built from a full model hot-swaps onto a snapshot whose
    // calibration and envelope flags are 0 (margin dominance and the
    // certified-envelope bound degrade to their conservative forms) and
    // back, with each epoch bitwise-matching a fresh engine built from
    // the same decoded model.
    let (_, model_a, model_b) = fixture();
    let queries = workload(6);
    let engine = engine_over(model_a);

    let mut bare = model_b.clone();
    bare.calibration = None;
    bare.envelope = None;
    let bare_bytes = model_io::to_bytes(&bare);

    assert_eq!(engine.swap_model_bytes(&bare_bytes), Ok(1));
    let decoded_bare = model_io::from_bytes(&bare_bytes).unwrap();
    assert!(decoded_bare.calibration.is_none() && decoded_bare.envelope.is_none());
    let fresh_bare = engine_over(&decoded_bare);
    for (i, q) in queries.iter().enumerate() {
        assert_identical(
            &engine.route(q).unwrap(),
            &fresh_bare.route(q).unwrap(),
            &format!("bare-epoch {i}"),
        );
    }

    // Swapping forward onto the full model restores every pruning
    // mechanism in one publish.
    assert_eq!(engine.swap_model_bytes(&model_io::to_bytes(model_b)), Ok(2));
    let fresh_full = engine_over(model_b);
    for (i, q) in queries.iter().enumerate() {
        assert_identical(
            &engine.route(q).unwrap(),
            &fresh_full.route(q).unwrap(),
            &format!("full-epoch {i}"),
        );
    }
}

#[test]
fn rejected_swaps_leave_the_old_epoch_serving_unchanged() {
    let (_, model_a, model_b) = fixture();
    let queries = workload(6);
    let engine = engine_over(model_a);
    let before: Vec<RouteResult> = queries.iter().map(|q| engine.route(q).unwrap()).collect();

    // Corrupt snapshot bytes: typed Snapshot rejection.
    let bytes = model_io::to_bytes(model_b);
    let truncated = &bytes[..bytes.len() / 2];
    assert!(matches!(
        engine.swap_model_bytes(truncated),
        Err(SwapError::Snapshot(_))
    ));
    let mut flipped = bytes.to_vec();
    flipped[4] = 99; // version byte
    assert!(matches!(
        engine.swap_model_bytes(&flipped),
        Err(SwapError::Snapshot(_))
    ));

    // In-memory candidates that bypass the decoder: revalidation
    // catches what the decoder would have.
    let mut bad_bins = model_b.clone();
    bad_bins.bins += 1;
    assert_eq!(
        engine.swap_model(bad_bins),
        Err(SwapError::BinsMismatch {
            model: model_b.bins + 1,
            estimator: model_b.bins,
        })
    );
    for bad_eps in [f64::NAN, f64::INFINITY, -0.5] {
        let mut bad_cal = model_b.clone();
        bad_cal
            .calibration
            .as_mut()
            .expect("fixture has calibration")
            .margin_eps = bad_eps;
        assert!(
            matches!(engine.swap_model(bad_cal), Err(SwapError::Calibration(_))),
            "margin_eps {bad_eps} must be rejected"
        );
    }
    let mut bad_lip = model_b.clone();
    bad_lip.calibration.as_mut().unwrap().lipschitz = f64::NEG_INFINITY;
    assert!(matches!(
        engine.swap_model(bad_lip),
        Err(SwapError::Calibration(_))
    ));

    // Every rejection left epoch 0 serving, bitwise-unchanged.
    assert_eq!(engine.epoch(), 0);
    assert_eq!(engine.stats().epoch, 0);
    for (i, q) in queries.iter().enumerate() {
        assert_identical(
            &engine.route(q).unwrap(),
            &before[i],
            &format!("post-rejection {i}"),
        );
    }

    // The errors render for operators.
    let msg = engine.swap_model_bytes(truncated).unwrap_err().to_string();
    assert!(
        msg.contains("snapshot"),
        "unhelpful SwapError display: {msg}"
    );
}

#[test]
fn routes_racing_swaps_are_linearizable_and_drift_free() {
    let (_, model_a, model_b) = fixture();
    let queries = Arc::new(workload(6));
    let fresh_a = engine_over(model_a);
    let fresh_b = engine_over(model_b);
    let ref_a: Arc<Vec<RouteResult>> =
        Arc::new(queries.iter().map(|q| fresh_a.route(q).unwrap()).collect());
    let ref_b: Arc<Vec<RouteResult>> =
        Arc::new(queries.iter().map(|q| fresh_b.route(q).unwrap()).collect());

    let engine = Arc::new(engine_over(model_a));
    let stop = Arc::new(AtomicBool::new(false));
    let routers: Vec<_> = (0..4)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let queries = Arc::clone(&queries);
            let (ref_a, ref_b) = (Arc::clone(&ref_a), Arc::clone(&ref_b));
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let executor = BatchExecutor::new(engine, 1);
                let mut rounds = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let results: Vec<RouteResult> = executor
                        .execute(queries.to_vec())
                        .into_iter()
                        .map(|r| r.expect("workload queries stay valid"))
                        .collect();
                    // Linearizability, batch-wide: the whole batch is
                    // answered by one epoch — never a hybrid of two
                    // models, and never some queries on each.
                    let all_from = |reference: &[RouteResult]| {
                        results.iter().zip(reference).all(|(r, e)| identical(r, e))
                    };
                    assert!(
                        all_from(&ref_a) || all_from(&ref_b),
                        "thread {t} round {rounds}: batch {:?} is wholly from neither model",
                        results.iter().map(|r| r.probability).collect::<Vec<_>>()
                    );
                    rounds += 1;
                }
                rounds
            })
        })
        .collect();

    // A storm of swaps under live traffic: A -> B -> A -> ...
    const SWAPS: u64 = 24;
    for s in 0..SWAPS {
        let next = if s % 2 == 0 { model_b } else { model_a };
        let epoch = engine.swap_model(next.clone()).expect("valid swaps");
        assert_eq!(epoch, s + 1, "every successful swap bumps the epoch by one");
        std::thread::sleep(std::time::Duration::from_millis(3));
    }
    stop.store(true, Ordering::Relaxed);
    let total_rounds: usize = routers.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(total_rounds > 0, "routers never completed a round");
    assert_eq!(engine.epoch(), SWAPS);
}

#[test]
fn epoch_counter_is_identity_not_traffic() {
    let (_, model_a, model_b) = fixture();
    let engine = engine_over(model_a);
    let q = workload(1)[0];
    engine.route(&q).unwrap();
    engine.swap_model(model_b.clone()).unwrap();
    engine.route(&q).unwrap();

    let stats = engine.stats();
    assert_eq!(stats.epoch, 1);
    assert_eq!(stats.queries, 2, "traffic counters span epochs");

    // reset_stats zeroes traffic but keeps the epoch: it says *which*
    // model is serving, not how much it has served.
    engine.reset_stats();
    let stats = engine.stats();
    assert_eq!(stats.queries, 0);
    assert_eq!(
        stats.epoch, 1,
        "reset_stats must not lie about the serving epoch"
    );
    assert_eq!(engine.epoch(), 1);
}

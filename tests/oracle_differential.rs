//! Differential certification of the pruning policies against the
//! exhaustive [`OracleRouter`]: on a **scenario matrix** of small
//! synthetic worlds — dense/wide grids, a hub-and-spoke wheel, and a
//! heavy-tailed-congestion grid — a *sound* pruning configuration must
//! reproduce the oracle's probability exactly, and margin dominance must
//! stay within its calibrated `eps`. Every routed probe goes through the
//! production [`RoutingEngine`] API (one engine per configuration), so
//! the suite certifies the serving surface end to end — typed queries,
//! per-target bound caching and all.
//!
//! Per topology the matrix covers every termination-safe combination of
//! the three composable pruning policies — bound {off, certified,
//! certified-envelope} × budget-gate {on, off} × dominance {off,
//! convolution-gated, margin} — additionally crossed with the pivot and
//! cost-shifting toggles, under both the hybrid cost model and the
//! pure-convolution model (where the optimistic bound is exact too). The
//! one excluded corner is bound-off × gate-off: with neither policy the
//! search has no feasibility cut and diverges on cyclic graphs by
//! construction. A mismatch is reported *minimized*: the failing
//! configuration is greedily shrunk to the smallest set of enabled
//! policies that still disagrees with the oracle.
//!
//! The suite also regression-pins the *known* unsoundness it once found:
//! the legacy optimistic CDF bound drifts (~3.5e-3) under the hybrid's
//! learned estimator arm, while [`BoundMode::CertifiedEnvelope`] — the
//! support-aware replacement and current default — stays exact on the
//! same seeded queries.

use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::OnceLock;
use stochastic_routing::core::model::training::{train_hybrid, TrainingConfig};
use stochastic_routing::core::routing::{
    BoundMode, ConvCertificate, DominanceMode, EngineBuilder, OracleRouter, Query, RouteResult,
    RouterConfig, RoutingEngine,
};
use stochastic_routing::core::{CombinePolicy, HybridCost, HybridModel};
use stochastic_routing::graph::NodeId;
use stochastic_routing::ml::forest::ForestConfig;
use stochastic_routing::synth::{
    CongestionConfig, GroundTruthConfig, NetworkConfig, SyntheticWorld, Topology,
    TrajectoryConfig, WorldConfig,
};

/// Oracle enumeration budget per query; queries whose walk space exceeds
/// it are skipped (counted, so a pathological fixture would fail loudly).
const ORACLE_CAP: usize = 25_000;

/// One synthetic topology of the scenario matrix, with its trained model.
struct Scenario {
    /// Topology label, for failure reports.
    name: &'static str,
    world: SyntheticWorld,
    model: HybridModel,
}

/// Trains the standard small-world model on `world`.
fn train_scenario(name: &'static str, world: SyntheticWorld, seed: u64) -> Scenario {
    let cfg = TrainingConfig {
        train_pairs: 60,
        test_pairs: 20,
        min_obs: 3,
        bins: 8,
        forest: ForestConfig {
            n_trees: 4,
            ..ForestConfig::default()
        },
        seed: seed ^ 0xD1FF,
    };
    let (model, _) = train_hybrid(&world, &cfg).expect("scenario world trains");
    Scenario { name, world, model }
}

/// Shared observation/sampling knobs: enough data to train, cheap to
/// simulate.
fn scenario_world(network: NetworkConfig, congestion: CongestionConfig) -> SyntheticWorld {
    SyntheticWorld::build(WorldConfig {
        network,
        congestion,
        trajectories: TrajectoryConfig {
            num_trips: 150,
            num_sources: 8,
            ..TrajectoryConfig::default()
        },
        ground_truth: GroundTruthConfig {
            samples_per_edge: 150,
            samples_per_pair: 150,
            ..GroundTruthConfig::default()
        },
    })
}

/// Small grids: a handful of intersections so exhaustive enumeration
/// stays cheap, but with cycles, parallel routes and ties so the pruning
/// corner cases (U-turn exchanges, Pareto ties) actually occur.
fn grid_scenario(name: &'static str, seed: u64, width: usize, height: usize) -> Scenario {
    let world = scenario_world(
        NetworkConfig {
            width,
            height,
            thinning: 0.0,
            seed,
            ..NetworkConfig::default()
        },
        CongestionConfig::default(),
    );
    train_scenario(name, world, seed)
}

/// Hub-and-spoke wheel: few route choices near the centre, orbital
/// detours outside — the opposite routing pressure of a grid.
fn hub_and_spoke_scenario() -> Scenario {
    let world = scenario_world(
        NetworkConfig {
            topology: Topology::HubAndSpoke {
                hubs: 3,
                spokes: 2,
                spoke_len: 2,
            },
            thinning: 0.0,
            seed: 31,
            ..NetworkConfig::default()
        },
        CongestionConfig::default(),
    );
    train_scenario("hub-and-spoke", world, 31)
}

/// Heavy-tailed congestion on a small grid: the widest label supports
/// and the most front-loadable estimator shapes — the regime that
/// stresses the certified-envelope bound hardest.
fn heavy_tail_scenario() -> Scenario {
    let world = scenario_world(
        NetworkConfig {
            width: 3,
            height: 4,
            thinning: 0.0,
            seed: 47,
            ..NetworkConfig::default()
        },
        CongestionConfig::heavy_tailed(),
    );
    train_scenario("heavy-tail-grid", world, 47)
}

/// Number of scenarios in the matrix (the proptest index range).
const NUM_SCENARIOS: usize = 4;

fn fixtures() -> &'static [Scenario] {
    static FIX: OnceLock<Vec<Scenario>> = OnceLock::new();
    FIX.get_or_init(|| {
        let all = vec![
            grid_scenario("grid-dense", 11, 4, 3),
            grid_scenario("grid-wide", 23, 3, 4),
            hub_and_spoke_scenario(),
            heavy_tail_scenario(),
        ];
        assert_eq!(all.len(), NUM_SCENARIOS);
        all
    })
}

/// Convolution certificates, one per (fixture, combine policy): they
/// depend only on the cost oracle, so compute each exactly once for the
/// whole suite.
fn certificate_for(w: usize, combine: CombinePolicy) -> &'static ConvCertificate {
    static CERTS: OnceLock<Vec<[ConvCertificate; 2]>> = OnceLock::new();
    let all = CERTS.get_or_init(|| {
        fixtures()
            .iter()
            .map(|sc| {
                [CombinePolicy::Hybrid, CombinePolicy::AlwaysConvolve].map(|p| {
                    ConvCertificate::compute(&HybridCost::from_ground_truth(&sc.world, &sc.model, p))
                })
            })
            .collect()
    });
    match combine {
        CombinePolicy::Hybrid => &all[w][0],
        CombinePolicy::AlwaysConvolve => &all[w][1],
        CombinePolicy::AlwaysEstimate => unreachable!("suite never runs the estimator-only model"),
    }
}

/// Routes one query through the production query-serving surface — a
/// [`RoutingEngine`] built for `cfg` — so the whole scenario matrix
/// certifies the engine itself. A precomputed certificate is cloned in
/// when the configuration consumes one.
fn engine_route(
    cost: &stochastic_routing::core::HybridCost,
    cfg: RouterConfig,
    certificate: Option<&ConvCertificate>,
    src: NodeId,
    dst: NodeId,
    budget: f64,
) -> RouteResult {
    let mut builder = EngineBuilder::new(cost.clone()).config(cfg);
    if RoutingEngine::wants_certificate(&cfg) {
        if let Some(c) = certificate {
            builder = builder.certificate(c.clone());
        }
    }
    builder
        .build()
        .route(&Query::new(src, dst, budget))
        .expect("matrix queries are valid")
}

/// Every termination-safe combination of the bound and budget-gate
/// policies (the bound uses its sound modes when on — `Certified` and
/// the support-aware `CertifiedEnvelope` default; gate-off requires the
/// bound on, since without either the search has no feasibility cut),
/// crossed with the pivot and cost-shifting toggles. Dominance is
/// crossed in by the caller.
fn policy_combinations() -> Vec<RouterConfig> {
    let mut out = Vec::new();
    for (bound, gate) in [
        (BoundMode::Off, true),
        (BoundMode::Certified, true),
        (BoundMode::Certified, false),
        (BoundMode::CertifiedEnvelope, true),
        (BoundMode::CertifiedEnvelope, false),
    ] {
        for pivot in [false, true] {
            for shifting in [false, true] {
                out.push(RouterConfig {
                    bound,
                    budget_gate: gate,
                    use_pivot_init: pivot,
                    use_cost_shifting: shifting,
                    ..RouterConfig::default()
                });
            }
        }
    }
    out
}

/// The drift each dominance mode is allowed against the oracle:
/// `(below, above)` — sound modes are exact, margin may trail by its
/// calibrated `eps`.
fn tolerances(dominance: DominanceMode, eps: f64) -> (f64, f64) {
    match dominance {
        DominanceMode::Margin { .. } => (eps + 1e-9, 1e-9),
        _ => (1e-9, 1e-9),
    }
}

/// Greedily shrinks a failing configuration to a minimal one that still
/// mismatches the oracle (each candidate judged under *its own* mode's
/// tolerance), and renders the repro report.
#[allow(clippy::too_many_arguments)]
fn minimized_failure(
    cost: &HybridCost,
    cfg: RouterConfig,
    src: NodeId,
    dst: NodeId,
    budget: f64,
    oracle_prob: f64,
    eps: f64,
    context: &str,
) -> String {
    let mismatches = |c: &RouterConfig| {
        let (tol_lo, tol_hi) = tolerances(c.dominance, eps);
        let r = engine_route(cost, *c, None, src, dst, budget);
        let o = OracleRouter::from_config(cost, c)
            .route(src, dst, budget, ORACLE_CAP)
            .map(|o| o.probability)
            .unwrap_or(oracle_prob);
        r.probability - o > tol_hi || o - r.probability > tol_lo
    };
    let mut min_cfg = cfg;
    loop {
        let mut shrunk = false;
        let candidates = [
            RouterConfig {
                bound: BoundMode::Off,
                // Never shrink into the divergent bound-off × gate-off
                // corner: restore the feasibility cut with the bound gone.
                budget_gate: true,
                ..min_cfg
            },
            RouterConfig {
                use_pivot_init: false,
                ..min_cfg
            },
            RouterConfig {
                dominance: DominanceMode::Off,
                ..min_cfg
            },
            RouterConfig {
                use_cost_shifting: true, // the default representation
                ..min_cfg
            },
        ];
        for cand in candidates {
            if cand != min_cfg && mismatches(&cand) {
                min_cfg = cand;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            break;
        }
    }
    let r = engine_route(cost, min_cfg, None, src, dst, budget);
    format!(
        "{context}: {src:?}->{dst:?} budget {budget:.3}\n\
         full config: {cfg:?}\n\
         minimized config still failing: {min_cfg:?}\n\
         router prob {:.12} (path {:?})\n\
         oracle prob {oracle_prob:.12}",
        r.probability,
        r.path.map(|p| p.edges.len()),
    )
}

/// Runs one query through the full policy matrix, asserting each
/// dominance mode's contract against the oracle. `w` indexes the
/// fixture (for the shared certificate cache).
fn certify_query(
    w: usize,
    combine: CombinePolicy,
    src: NodeId,
    dst: NodeId,
    budget: f64,
) -> Result<usize, TestCaseError> {
    let sc = &fixtures()[w];
    let cost = HybridCost::from_ground_truth(&sc.world, &sc.model, combine);
    let eps = sc
        .model
        .calibration
        .map(|c| c.margin_eps)
        .unwrap_or(f64::INFINITY);
    let mut certified = 0usize;

    // The oracle depends only on the pivot semantics (and the shared
    // bucket cap), not on the pruning toggles: enumerate once per pivot
    // setting and reuse across the whole matrix.
    let mut oracles = [0.0f64; 2];
    for (i, pivot) in [false, true].into_iter().enumerate() {
        let cfg = RouterConfig {
            use_pivot_init: pivot,
            ..RouterConfig::default()
        };
        match OracleRouter::from_config(&cost, &cfg).route(src, dst, budget, ORACLE_CAP) {
            Some(o) => oracles[i] = o.probability,
            None => return Ok(0), // walk space too large; skip the query
        }
    }

    // The convolution certificate depends only on the cost oracle:
    // computed once per (fixture, policy) and shared across the suite.
    let certificate = certificate_for(w, combine);

    for base in policy_combinations() {
        let oracle_prob = oracles[usize::from(base.use_pivot_init)];

        for dominance in [
            DominanceMode::Off,
            DominanceMode::ConvGated,
            DominanceMode::Margin { eps: None },
        ] {
            let cfg = RouterConfig { dominance, ..base };
            let r = engine_route(&cost, cfg, Some(certificate), src, dst, budget);
            prop_assert!(
                r.stats.completed,
                "search did not finish: {cfg:?} on {src:?}->{dst:?}"
            );
            // Sound modes: exact. Margin: never above the oracle, below
            // by at most the calibrated eps.
            let (tol_lo, tol_hi) = tolerances(dominance, eps);
            let diff = r.probability - oracle_prob;
            if diff > tol_hi || -diff > tol_lo {
                let context = format!(
                    "{} under the {}",
                    sc.name,
                    match combine {
                        CombinePolicy::Hybrid => "hybrid cost model",
                        CombinePolicy::AlwaysConvolve => "convolution cost model",
                        CombinePolicy::AlwaysEstimate => "estimator cost model",
                    }
                );
                let report =
                    minimized_failure(&cost, cfg, src, dst, budget, oracle_prob, eps, &context);
                prop_assert!(false, "pruning changed the policy\n{report}");
            }
            certified += 1;
        }
    }
    Ok(certified)
}

/// Draws a routable query on fixture `w`: budget `mult ×` the expected
/// shortest time.
fn make_query(
    world: &SyntheticWorld,
    model: &HybridModel,
    s: u32,
    d: u32,
    mult: f64,
) -> Option<(NodeId, NodeId, f64)> {
    let n = world.graph.num_nodes() as u32;
    let (src, dst) = (NodeId(s % n), NodeId(d % n));
    if src == dst {
        return None;
    }
    let cost = HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid);
    let exp = stochastic_routing::graph::algo::dijkstra(&world.graph, src, Some(dst), |e| {
        cost.marginal(e).mean()
    })
    .distance(dst);
    if !exp.is_finite() {
        return None;
    }
    Some((src, dst, exp * mult))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hybrid cost model: every sound pruning combination matches the
    /// oracle exactly on every topology; margin dominance stays within
    /// its calibrated eps.
    #[test]
    fn pruning_matches_the_oracle_under_hybrid(
        w in 0usize..NUM_SCENARIOS, s in 0u32..64, d in 0u32..64, mult in 0.95f64..1.15
    ) {
        let sc = &fixtures()[w];
        let Some((src, dst, budget)) = make_query(&sc.world, &sc.model, s, d, mult) else {
            return Ok(());
        };
        certify_query(w, CombinePolicy::Hybrid, src, dst, budget)?;
    }

    /// Pure convolution: the cost model is monotone, so the legacy
    /// optimistic bound is exact as well — certify the matrix with it in
    /// place of the certified bound, plus the gated/margin modes (which
    /// both reduce to exchange-safe first-order dominance here).
    #[test]
    fn pruning_matches_the_oracle_under_convolution(
        w in 0usize..NUM_SCENARIOS, s in 0u32..64, d in 0u32..64, mult in 0.95f64..1.15
    ) {
        let sc = &fixtures()[w];
        let Some((src, dst, budget)) = make_query(&sc.world, &sc.model, s, d, mult) else {
            return Ok(());
        };
        certify_query(w, CombinePolicy::AlwaysConvolve, src, dst, budget)?;

        // The optimistic bound, exact under convolution.
        let cost =
            HybridCost::from_ground_truth(&sc.world, &sc.model, CombinePolicy::AlwaysConvolve);
        let cfg = RouterConfig {
            bound: BoundMode::Optimistic,
            dominance: DominanceMode::ConvGated,
            ..RouterConfig::default()
        };
        if let Some(o) = OracleRouter::from_config(&cost, &cfg).route(src, dst, budget, ORACLE_CAP) {
            let r = engine_route(&cost, cfg, Some(certificate_for(w, CombinePolicy::AlwaysConvolve)), src, dst, budget);
            prop_assert!(
                (r.probability - o.probability).abs() < 1e-9,
                "optimistic bound drifted under convolution: {} vs {}",
                r.probability, o.probability
            );
        }
    }

    /// The budget gate alone never changes an answer (it only drops
    /// zero-probability labels), with or without the certified bound.
    #[test]
    fn budget_gate_is_invisible_in_answers(
        w in 0usize..NUM_SCENARIOS, s in 0u32..64, d in 0u32..64, mult in 0.95f64..1.1
    ) {
        let sc = &fixtures()[w];
        let Some((src, dst, budget)) = make_query(&sc.world, &sc.model, s, d, mult) else {
            return Ok(());
        };
        let cost = HybridCost::from_ground_truth(&sc.world, &sc.model, CombinePolicy::Hybrid);
        // Gate off requires the bound on for termination (the bound
        // subsumes the feasibility cut at incumbent probability zero).
        for bound in [BoundMode::CertifiedEnvelope, BoundMode::Certified, BoundMode::Optimistic] {
            let with_gate = RouterConfig {
                bound,
                dominance: DominanceMode::Off,
                budget_gate: true,
                ..RouterConfig::default()
            };
            let without_gate = RouterConfig { budget_gate: false, ..with_gate };
            let a = engine_route(&cost, with_gate, Some(certificate_for(w, CombinePolicy::Hybrid)), src, dst, budget);
            let b = engine_route(&cost, without_gate, Some(certificate_for(w, CombinePolicy::Hybrid)), src, dst, budget);
            prop_assert!(a.stats.completed && b.stats.completed);
            prop_assert!(
                (a.probability - b.probability).abs() < 1e-12,
                "budget gate changed the answer under {bound:?}: {} vs {}",
                a.probability, b.probability
            );
        }
    }
}

/// Regression pin for the unsoundness the oracle harness originally
/// found (ROADMAP, PR 2): under the hybrid's learned estimator arm, the
/// legacy optimistic CDF bound prunes labels whose completions later
/// overtake the incumbent, changing the returned policy. Each seeded
/// witness below reproduces measurable drift (the full-matrix harness
/// averaged ~3.5e-3; isolated to the bound alone it exceeds 1e-3, up to
/// ~8e-2) against the exhaustive bound-off reference — and the
/// support-aware `CertifiedEnvelope` bound, today's default, returns the
/// *exact* reference answer on the very same queries at full pruning
/// sharpness.
#[test]
fn optimistic_drift_witnesses_are_fixed_by_the_envelope_bound() {
    // (scenario index, source, destination, budget multiplier) — found
    // by scanning all node pairs; see the git history of this file.
    let witnesses = [
        (0usize, 5u32, 0u32, 1.05f64), // grid-dense: drift ~7.3e-2
        (1, 10, 1, 1.05),              // grid-wide: drift ~2.5e-2
        (3, 7, 0, 1.0),                // heavy-tail-grid: drift ~5.8e-2
    ];
    for (w, s, d, mult) in witnesses {
        let sc = &fixtures()[w];
        let cost = HybridCost::from_ground_truth(&sc.world, &sc.model, CombinePolicy::Hybrid);
        let (src, dst, budget) =
            make_query(&sc.world, &sc.model, s, d, mult).expect("witness query is routable");
        let mk = |bound| RouterConfig {
            bound,
            dominance: DominanceMode::Off,
            max_labels: 200_000,
            ..RouterConfig::default()
        };
        let route = |bound| {
            let cfg = mk(bound);
            let r = engine_route(
                &cost,
                cfg,
                Some(certificate_for(w, CombinePolicy::Hybrid)),
                src,
                dst,
                budget,
            );
            assert!(r.stats.completed, "{}: {bound:?} hit the label cap", sc.name);
            r
        };

        let reference = route(BoundMode::Off);
        let optimistic = route(BoundMode::Optimistic);
        let envelope = route(BoundMode::CertifiedEnvelope);

        let opt_drift = (reference.probability - optimistic.probability).abs();
        assert!(
            opt_drift > 1e-3,
            "{} ({s}->{d} x{mult}): the pinned Optimistic witness no longer drifts \
             ({opt_drift:.3e}) — if the bound became sound, move it to the sound matrix",
            sc.name
        );
        let env_drift = (reference.probability - envelope.probability).abs();
        assert!(
            env_drift < 1e-9,
            "{} ({s}->{d} x{mult}): CertifiedEnvelope drifted {env_drift:.3e} \
             on the Optimistic witness",
            sc.name
        );
        // And the envelope is doing real work on the witness, not
        // degrading to the exhaustive reference.
        assert!(
            envelope.stats.labels_created < reference.stats.labels_created,
            "{}: envelope bound pruned nothing on the witness",
            sc.name
        );
    }
}

/// Deterministic smoke: on **every** topology of the scenario matrix,
/// the policy matrix must certify a healthy number of queries (guards
/// against the proptest cases silently skipping a scenario via the
/// oracle cap — a skipped topology certifies nothing).
#[test]
fn differential_coverage_spans_every_topology() {
    for (w, sc) in fixtures().iter().enumerate() {
        let mut certified = 0usize;
        let mut skipped = 0usize;
        let n = sc.world.graph.num_nodes() as u32;
        for k in 0..8u32 {
            // Alternate between cross-world and nearer pairs: the
            // heavy-tailed scenario's wide budgets push long queries
            // past the oracle cap, short ones stay enumerable.
            let hop = if k % 2 == 0 { n / 2 } else { 2 + k };
            let Some((src, dst, budget)) =
                make_query(&sc.world, &sc.model, k * 3 + 1, (k * 3 + 1) + hop, 1.05)
            else {
                continue;
            };
            match certify_query(w, CombinePolicy::Hybrid, src, dst, budget) {
                Ok(0) => skipped += 1,
                Ok(c) => certified += c,
                Err(e) => panic!("differential failure on {}: {e:?}", sc.name),
            }
        }
        // 60 configurations per certified query; at least two queries
        // must survive the oracle cap on each topology.
        assert!(
            certified >= 120,
            "{}: only {certified} configuration-queries certified ({skipped} skipped)",
            sc.name
        );
    }
}

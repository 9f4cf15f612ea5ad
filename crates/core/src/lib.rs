//! # srt-core — hybrid learning + convolution stochastic routing
//!
//! The paper's contribution, end to end:
//!
//! * [`model`] — the **Hybrid Model**: a multi-output forest
//!   *distribution estimator* that predicts the dependent joint cost of
//!   traversing two consecutive edges, and a binary *dependence
//!   classifier* that decides per intersection whether plain convolution
//!   suffices; plus the training pipeline (4,000 train / 1,000 test edge
//!   pairs, KL-divergence evaluation) mirroring the paper's protocol,
//! * [`cost`] — iterative path-cost computation that treats the
//!   path-so-far as a *virtual edge*, so the two-edge estimator scales to
//!   arbitrary path lengths,
//! * [`routing`] — **Probabilistic Budget Routing**: given `(source,
//!   destination, budget)`, find the path maximizing on-time arrival
//!   probability, with the paper's four prunings — (a) optimistic
//!   remaining cost, (b) pivot path, (c) distribution cost shifting,
//!   (d) stochastic-dominance label pruning — and the **anytime**
//!   extension that returns the pivot when a wall-clock limit expires.
//!   Prunings are composable [`routing::policy::PrunePolicy`] values
//!   with provably sound modes (convolution-gated and margin-calibrated
//!   dominance, the certified bound), certified differentially against
//!   the exhaustive [`routing::OracleRouter`]. Queries are served by the
//!   owning, `Send + Sync` [`routing::RoutingEngine`] — policies and
//!   certificates resolved once, per-target bounds cached, batches
//!   dispatched to a worker pool from reusable
//!   [`routing::SearchContext`] scratch,
//! * [`sync`] — the engine's concurrency-protocol cores ([`sync::SeqLock`],
//!   [`sync::BoundedLru`], [`sync::EpochCell`]), written against
//!   `srt-check`'s primitive switch so the model checker can prove them
//!   under exhaustive interleaving (`RUSTFLAGS="--cfg srt_check" cargo
//!   test -p srt-check`); plain `std::sync` in normal builds.
//!
//! # Unsafe policy
//!
//! This crate (like every first-party crate in the workspace) is
//! `#![forbid(unsafe_code)]`: the system is pure safe Rust, enforced at
//! the crate root and by the `srt-check lint` / clippy CI gates.
//!
//! # Quickstart
//!
//! ```no_run
//! use srt_synth::{SyntheticWorld, WorldConfig, DistanceCategory, QueryGenerator};
//! use srt_core::model::training::{train_hybrid, TrainingConfig};
//! use srt_core::cost::{CombinePolicy, HybridCost};
//! use srt_core::routing::{EngineBuilder, Query, RouterConfig};
//!
//! let world = SyntheticWorld::build(WorldConfig::small());
//! let (model, report) = train_hybrid(&world, &TrainingConfig::default()).unwrap();
//! println!("hybrid KL = {:.4}", report.kl_hybrid_mean);
//!
//! let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
//! let engine = EngineBuilder::new(cost).config(RouterConfig::default()).build();
//! let mut qg = QueryGenerator::new(1);
//! let q = qg.generate(&world.graph, &world.model, DistanceCategory::OneToFive, 1)[0];
//! let result = engine.route(&Query::from(&q)).unwrap();
//! println!("P(on time) = {:.3}", result.probability);
//! println!("bounds cache: {:?}", engine.stats());
//! ```

#![forbid(unsafe_code)]

pub mod cost;
pub mod error;
pub mod model;
pub mod routing;
pub mod sync;

pub use cost::{CombinePolicy, HybridCost, StagedPre};
pub use error::CoreError;
pub use model::hybrid::HybridModel;
pub use model::training::{train_hybrid, TrainReport, TrainingConfig};
pub use routing::{
    BatchExecutor, BoundMode, DominanceMode, EngineBuilder, EngineError, EngineStats,
    ExecutorStats, ModelEpoch, OracleRouter, Query, RouteResult, RouterConfig, RoutingEngine,
    SearchContext, SearchStats, StatsSnapshot, SwapError,
};

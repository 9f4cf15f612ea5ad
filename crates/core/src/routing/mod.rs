//! Probabilistic Budget Routing.
//!
//! Given `(source, destination, budget t)`, find the path that maximizes
//! `P(travel time <= t)`, using the hybrid cost model for path
//! distributions. [`engine`] is the query-serving surface: an owning,
//! `Send + Sync` [`RoutingEngine`] (built by [`EngineBuilder`]) that
//! resolves pruning policies and certificates once, caches the
//! per-target optimistic bounds, and serves typed [`Query`] values —
//! singly or in [`BatchExecutor`] batches — from reusable [`SearchContext`]
//! scratch, and is the only query entry point; [`budget`] holds the
//! search's configuration and result types; [`policy`] factors the
//! prunings into composable, individually-certifiable
//! [`policy::PrunePolicy`] values; [`oracle`] provides the exhaustive
//! enumeration router the differential tests certify pruning against;
//! [`baseline`] provides the deterministic expected-time comparison
//! route.

pub mod baseline;
pub mod budget;
pub mod engine;
pub mod oracle;
pub mod policy;

pub use baseline::{expected_time_path, ExpectedTimeBaseline, KPathsBaseline};
pub use budget::{RouteResult, RouterConfig, SearchStats};
pub use engine::{
    BatchExecutor, EngineBuilder, EngineError, EngineStats, ExecutorStats, ModelEpoch, Query,
    RoutingEngine, SearchContext, StatsSnapshot, SwapError, DEFAULT_BOUNDS_CACHE_CAPACITY,
};
pub use oracle::{OracleRoute, OracleRouter};
pub use policy::{
    BoundMode, BoundPolicy, BudgetGate, ConvCertificate, DominanceMode, DominancePolicy,
    PrunePolicy,
};

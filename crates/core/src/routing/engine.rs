//! The query-serving engine: an owning, `Send + Sync` routing service
//! over one shared cost oracle.
//!
//! The paper defines its search per query: resolve the prunings, run the
//! reverse optimistic-bound Dijkstra, allocate Pareto sets and solve the
//! pivot baseline, every time. A production service answers *many
//! simultaneous queries against one model*, so this module factors that
//! work by lifetime instead:
//!
//! * **per epoch** ([`ModelEpoch`], resolved by [`EngineBuilder::build`]
//!   and again by every [`RoutingEngine::swap_model`]): policy
//!   resolution (margin calibration, the [`ConvCertificate`], the
//!   support envelope, per-node minimum out-edge spans) — everything
//!   that depends only on the cost oracle and the configuration. The
//!   engine holds the live epoch behind a swappable `Arc`; see *Hot
//!   swap* below,
//! * **per target** (the engine's bounds cache): the reverse Dijkstra
//!   behind [`OptimisticBounds`] depends only on `(graph, per-edge
//!   marginals, target)` — never on the model, and every epoch of one
//!   engine shares the graph and the marginals — so it is computed once
//!   per distinct target and shared across epochs, LRU-bounded at
//!   [`EngineBuilder::bounds_cache_capacity`] —
//!   [`StatsSnapshot::bounds_cache_hits`] /
//!   [`StatsSnapshot::bounds_cache_misses`] /
//!   [`StatsSnapshot::bounds_evictions`] count its effectiveness,
//! * **per worker** ([`SearchContext`]): the label arena, best-first
//!   heap, Pareto sets and the pivot baseline's Dijkstra scratch — reused
//!   across queries so steady-state serving allocates no per-query
//!   search state,
//! * **per query** ([`Query`]): just the typed parameters, validated
//!   up front into [`EngineError`] so a caller holding `Ok` knows the
//!   probability is meaningful.
//!
//! [`BatchExecutor`] serves a batch of queries on persistent lanes (work
//! stealing, deterministic output order, one epoch pin per batch);
//! results are bitwise-identical to sequential routing regardless of the
//! lane count.
//!
//! # Memory model
//!
//! Steady-state serving performs **zero per-label heap allocation**; the
//! ownership rules that make that true:
//!
//! * **Label payloads are pooled.** Every label's histogram is built by
//!   [`HybridCost::combine_pooled`] on a mass vector checked out of the
//!   worker's [`srt_dist::HistogramPool`] (inside its
//!   [`SearchContext`]). The label owns the payload while it lives in
//!   the arena.
//! * **Buffers return to the pool at retirement.** A label retired by
//!   dominance pruning hands its payload back immediately (the Pareto
//!   compaction sweep only drops the already-empty entries); every
//!   payload still in the arena when the next query begins is recycled
//!   in bulk before the search seeds. Expansion reads a label through a
//!   staging buffer ([`srt_dist::HistogramBuf`]) owned by the context —
//!   a bounded memcpy, never a clone.
//! * **Results are plain owned values.** Whatever escapes into a
//!   [`RouteResult`] (the winning distribution, the pivot's
//!   distribution, the reconstructed path) is an ordinary exact-size
//!   allocation made once per query — pool buffers never leave the
//!   context, so [`StatsSnapshot::pool_misses`] stays flat once the pool
//!   is warm (the allocation-accounting regression test in
//!   `tests/pool_accounting.rs` asserts exactly this).
//! * **Contexts themselves are pooled.** [`RoutingEngine::route`] and
//!   [`BatchExecutor::execute`] draw their [`SearchContext`]s from
//!   an engine-level free list, so repeated batches reuse warm label
//!   arenas and histogram pools. Callers holding their own context
//!   ([`RoutingEngine::route_with`]) get the same behaviour with full
//!   control over worker affinity.
//!
//! The per-worker pool bounds its retention (buffer count and per-buffer
//! capacity), so a one-off giant query cannot pin its high-water mark
//! forever — the same fix applied to the old hidden thread-local
//! convolution scratch in `srt-dist`.
//!
//! # Search loop: what each candidate pays for
//!
//! One pop of the best-first queue fans out into one *candidate* per
//! out-edge, and most candidates are pruned, so each stage of the
//! per-candidate pipeline reads only what its own decision needs:
//!
//! * **Once per popped label:** the payload is staged (a bounded
//!   memcpy, see above) and [`HybridCost::stage_pre`] computes the ten
//!   `pre_*` features — entropy, three quantiles, the moments — which
//!   depend on the label alone. Each out-edge then only *assembles* its
//!   feature vector (next-edge and junction features, two ratios) before
//!   the gate and the combine run.
//! * **Per candidate, scalar cuts first:** the budget gate and bound (a)
//!   read the new histogram's support and one CDF value.
//! * **Pruning (d) reads inline entries before labels.** A vertex's
//!   Pareto set is a vector of 12-byte `ParetoEntry` records — `(label
//!   id, predecessor vertex, unbanned)` — where `unbanned` ("no out-edge
//!   of this vertex returns to the predecessor", i.e. the U-turn rule
//!   bans this label from nothing) is computed **once, when the label is
//!   created**. The sound dominance modes may only prune exchange-safe
//!   pairs, and safety is a function of those two fields: a keeper is
//!   safe against a candidate iff they share a predecessor or the keeper
//!   is unbanned. So both passes — "does an incumbent dominate the
//!   newcomer?" and "which incumbents does the newcomer retire?" — skip
//!   an unsafe pair from the entry alone, without dereferencing the
//!   arena label, walking the vertex's out-edges or building a histogram
//!   view. On a two-way road network that is almost every pair with
//!   different predecessors. The per-comparison predicate this replaces
//!   is kept in [`policy`] as the reference: a
//!   unit test there pins flag and predicate equal on every `(vertex,
//!   predecessor)` of the scenario-matrix topologies, and a debug
//!   assertion re-checks every pair the search visits.
//! * **Pairs that survive compare distributions, and stop early.**
//!   `srt_dist`'s breakpoint merge is stoppable, so the margin predicate
//!   returns at its first violated breakpoint instead of merging the
//!   rest of both lattices.
//!
//! None of this changes an answer or an existing counter; it adds two,
//! [`SearchStats::dominance_comparisons`] (pairs handed to the dominance
//! policy) and [`SearchStats::dominance_skipped`] (pairs passed over on
//! the entry alone).
//!
//! # Hot swap
//!
//! All model-derived read-mostly state lives in one immutable
//! [`ModelEpoch`] behind a `RwLock<Arc<ModelEpoch>>`. Every query pins
//! the current epoch exactly once at entry (one read-lock acquisition
//! plus one `Arc` clone) and runs start to finish against that pin, so
//! [`RoutingEngine::swap_model`] can publish a freshly trained model
//! under a momentary write lock while in-flight queries drain on the old
//! epoch: no query ever observes a mix of two models, and the old epoch
//! is freed when the last in-flight pin drops. A swap revalidates the
//! incoming model (estimator/container bin agreement, calibration
//! finiteness, envelope monotonicity) and recomputes the certificate
//! *before* publishing; a rejected snapshot ([`SwapError`]) leaves the
//! serving epoch untouched, bit for bit. The live epoch id is surfaced
//! through [`StatsSnapshot::epoch`].
//!
//! The bounds cache is the one piece of derived state a swap keeps. An
//! [`OptimisticBounds`] is a reverse Dijkstra over the graph weighted by
//! each edge marginal's support start; no model input enters it, and
//! [`RoutingEngine::swap_model`] builds the new epoch's cost oracle from
//! the old epoch's graph and marginals (the same `Arc`s), so every cached
//! bound is exactly what the new epoch would compute. Keeping the cache
//! saves a swap-heavy workload one reverse Dijkstra per target per swap.
//!
//! ```no_run
//! use srt_core::routing::{BatchExecutor, EngineBuilder, Query, RouterConfig};
//! use srt_core::{CombinePolicy, HybridCost};
//! # let world = srt_synth::SyntheticWorld::build(srt_synth::WorldConfig::tiny());
//! # let (model, _) = srt_core::model::training::train_hybrid(
//! #     &world, &srt_core::model::training::TrainingConfig::default()).unwrap();
//!
//! let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
//! let engine = EngineBuilder::new(cost).config(RouterConfig::default()).build();
//! let queries = vec![Query::new(srt_graph::NodeId(0), srt_graph::NodeId(9), 120.0)];
//! let executor = BatchExecutor::new(std::sync::Arc::new(engine), 0);
//! for result in executor.execute(queries) {
//!     println!("P(on time) = {:.3}", result.unwrap().probability);
//! }
//! ```

use crate::cost::HybridCost;
use crate::model::SupportEnvelope;
use crate::routing::baseline::ExpectedTimeBaseline;
use crate::routing::budget::{RouteResult, RouterConfig, SearchStats};
use crate::routing::policy::{
    self, BoundMode, BoundPolicy, BudgetGate, ConvCertificate, DominanceMode, DominancePolicy,
    LabelView, PruneCtx, PrunePolicy,
};
use crate::sync::{BoundedLru, EpochCell, SeqLock};
use serde::{Deserialize, Serialize};
use srt_dist::{Histogram, HistogramBuf, HistogramPool, PoolStats};
use srt_graph::algo::{DijkstraScratch, Path};
use srt_graph::bounds::OptimisticBounds;
use srt_graph::{EdgeId, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One typed budget query: "what is the most reliable way from `source`
/// to `target` within `budget_s` seconds?" — replacing the positional
/// `route(source, target, budget, deadline)` argument list.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Query {
    /// Origin vertex.
    pub source: NodeId,
    /// Destination vertex.
    pub target: NodeId,
    /// Arrival budget in seconds.
    pub budget_s: f64,
    /// Anytime knob: wall-clock limit after which the search returns its
    /// incumbent (pivot) instead of running to exhaustion. `None` runs
    /// unbounded.
    pub deadline: Option<Duration>,
}

impl Query {
    /// An exhaustive (non-anytime) query.
    pub fn new(source: NodeId, target: NodeId, budget_s: f64) -> Self {
        Query {
            source,
            target,
            budget_s,
            deadline: None,
        }
    }

    /// The anytime variant: return the incumbent once `deadline` of
    /// wall-clock time has elapsed. Must be non-zero (a zero deadline is
    /// rejected by validation — use the expected-time baseline directly
    /// if no search time at all is acceptable).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

impl From<&srt_synth::Query> for Query {
    fn from(q: &srt_synth::Query) -> Self {
        Query::new(q.source, q.target, q.budget_s)
    }
}

impl From<srt_synth::Query> for Query {
    fn from(q: srt_synth::Query) -> Self {
        Query::from(&q)
    }
}

/// Typed rejection of an invalid [`Query`] or configuration.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum EngineError {
    /// The budget is NaN, infinite, or negative; no meaningful on-time
    /// probability exists for it. (A budget of exactly `0.0` *is*
    /// answerable — the probability is zero, with the expected-time path
    /// attached, or one when source and target coincide — so validation
    /// admits it and the search short-circuits.)
    InvalidBudget {
        /// The offending budget.
        budget: f64,
    },
    /// A query endpoint does not name a vertex of the engine's graph.
    NodeOutOfRange {
        /// The offending vertex id.
        node: NodeId,
        /// Vertices in the graph (valid ids are `0..num_nodes`).
        num_nodes: usize,
    },
    /// An anytime deadline of zero: the search could never take a single
    /// step, so the caller almost certainly meant something else.
    ZeroDeadline,
    /// The search panicked. The panic was caught at the query boundary:
    /// the worker's scratch context was discarded, the engine's shared
    /// state (context pool, bounds cache) is untouched or recovered, and
    /// every other query — in the same batch or after — remains fully
    /// serviceable. Counted in [`StatsSnapshot::panics`].
    Internal,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidBudget { budget } => {
                write!(
                    f,
                    "budget {budget} is not a finite, non-negative number of seconds"
                )
            }
            EngineError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "{node} is out of range for a graph of {num_nodes} vertices"
                )
            }
            EngineError::ZeroDeadline => {
                write!(f, "anytime deadline of zero admits no search at all")
            }
            EngineError::Internal => {
                write!(
                    f,
                    "internal error: the search panicked; the query was isolated and the \
                     engine remains serviceable"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A plain-value snapshot of the engine's aggregated serving counters —
/// `Copy`, comparable, and (via the vendored serde derives) serializable,
/// so a metrics sink can spill it on a schedule instead of reading raw
/// atomics. Obtained from [`EngineStats::snapshot`] (or the
/// [`RoutingEngine::stats`] convenience). Per-query counters stay on each
/// [`RouteResult`]'s [`SearchStats`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Queries routed (valid ones; rejected queries are not counted).
    pub queries: u64,
    /// [`BatchExecutor::execute`] invocations.
    pub batches: u64,
    /// Bounds-cache hits: queries whose target's reverse Dijkstra was
    /// already cached.
    pub bounds_cache_hits: u64,
    /// Bounds-cache misses: targets whose bounds had to be computed.
    pub bounds_cache_misses: u64,
    /// Cached per-target bounds evicted by the LRU capacity policy.
    pub bounds_evictions: u64,
    /// Labels created, summed over all queries.
    pub labels_created: u64,
    /// Labels expanded, summed over all queries.
    pub labels_expanded: u64,
    /// Searches cut short by a deadline or the label cap.
    pub incomplete: u64,
    /// Histogram-buffer checkouts served from a worker pool's free list.
    /// In steady state all payload traffic lands here.
    pub pool_reuse: u64,
    /// Histogram-buffer checkouts that had to mint a fresh allocation.
    /// Flat `pool_misses` across a warm workload is the engine's
    /// allocation-free-serving guarantee, pinned by the
    /// allocation-accounting regression test.
    pub pool_misses: u64,
    /// Combine steps whose convolution ran on the shared-lattice fast
    /// route (equal widths, phase-aligned starts — no projection, see
    /// `srt_dist::ConvRoute`). High values on a warm workload mean label
    /// grids stayed on the marginals' canonical lattice. Defaults to
    /// zero when deserializing snapshots from before the counter existed.
    #[serde(default)]
    pub lattice_fast_path: u64,
    /// Queries whose search panicked and was contained into
    /// [`EngineError::Internal`]. Any non-zero value on a production
    /// engine is a bug worth a report — but a *served* engine keeps
    /// answering either way. Defaults to zero when deserializing
    /// snapshots from before the counter existed.
    #[serde(default)]
    pub panics: u64,
    /// The id of the model epoch the engine is currently serving: `0` at
    /// build, bumped by every successful [`RoutingEngine::swap_model`].
    /// Not a traffic counter — [`EngineStats::reset`] preserves it.
    /// Defaults to zero when deserializing snapshots from before hot
    /// swap existed.
    #[serde(default)]
    pub epoch: u64,
}

/// Aggregated, engine-wide, monotone serving counters — the live atomic
/// handle. Read it as plain values via [`EngineStats::snapshot`]; zero it
/// with [`EngineStats::reset`]. Shared by reference from
/// [`RoutingEngine::stats_handle`] so metrics sinks can poll without
/// going through the engine.
///
/// # Coherence contract
///
/// Individual counter updates on the serving path are relaxed and
/// independent — cheapness there is the point. The *bulk* operations are
/// coherent with each other via a sequence lock ([`crate::sync::SeqLock`],
/// model-checked by the `srt-check` seqlock suite): [`EngineStats::reset`]
/// (and any other whole-struct rewrite) bumps a generation counter to an
/// odd value for the duration of its stores, and [`EngineStats::snapshot`]
/// retries until it reads a stable even generation. A snapshot therefore
/// never interleaves with a reset — the torn half-zeroed read (hits reset,
/// misses not, nonsense hit rates on a metrics scrape) cannot happen. A
/// snapshot racing ordinary serving increments may still split one
/// logical query across two scrapes; that is inherent to relaxed
/// monotone counters and harmless to rate math.
#[derive(Default)]
pub struct EngineStats {
    /// Seqlock bracketing bulk rewrites against coherent snapshots.
    seq: SeqLock,
    queries: AtomicU64,
    batches: AtomicU64,
    bounds_cache_hits: AtomicU64,
    bounds_cache_misses: AtomicU64,
    bounds_evictions: AtomicU64,
    labels_created: AtomicU64,
    labels_expanded: AtomicU64,
    incomplete: AtomicU64,
    pool_reuse: AtomicU64,
    pool_misses: AtomicU64,
    lattice_fast_path: AtomicU64,
    panics: AtomicU64,
    /// Live model-epoch id (engine identity, not traffic — preserved by
    /// [`EngineStats::reset`]).
    epoch: AtomicU64,
}

impl EngineStats {
    /// Materializes the counters into a plain [`StatsSnapshot`]. Single
    /// coherent pass: retries while a concurrent [`EngineStats::reset`]
    /// is mid-rewrite, so the snapshot reflects either entirely-before or
    /// entirely-after state (see the coherence contract above).
    pub fn snapshot(&self) -> StatsSnapshot {
        // The seqlock retries the pass while a reset is mid-rewrite and
        // confirms a stable even generation bracketed the reads.
        self.seq.read(|| StatsSnapshot {
            queries: self.queries.load(AtomicOrdering::Relaxed),
            batches: self.batches.load(AtomicOrdering::Relaxed),
            bounds_cache_hits: self.bounds_cache_hits.load(AtomicOrdering::Relaxed),
            bounds_cache_misses: self.bounds_cache_misses.load(AtomicOrdering::Relaxed),
            bounds_evictions: self.bounds_evictions.load(AtomicOrdering::Relaxed),
            labels_created: self.labels_created.load(AtomicOrdering::Relaxed),
            labels_expanded: self.labels_expanded.load(AtomicOrdering::Relaxed),
            incomplete: self.incomplete.load(AtomicOrdering::Relaxed),
            pool_reuse: self.pool_reuse.load(AtomicOrdering::Relaxed),
            pool_misses: self.pool_misses.load(AtomicOrdering::Relaxed),
            lattice_fast_path: self.lattice_fast_path.load(AtomicOrdering::Relaxed),
            panics: self.panics.load(AtomicOrdering::Relaxed),
            epoch: self.epoch.load(AtomicOrdering::Relaxed),
        })
    }

    /// Zeroes every *traffic* counter (e.g. after a sink has spilled a
    /// snapshot). The epoch id is engine identity, not traffic, and is
    /// preserved. Atomic with respect to [`EngineStats::snapshot`]: a
    /// concurrent scrape sees all counters from before the reset or all
    /// from after, never a torn mix.
    pub fn reset(&self) {
        self.seq.write(|| {
            self.queries.store(0, AtomicOrdering::Relaxed);
            self.batches.store(0, AtomicOrdering::Relaxed);
            self.bounds_cache_hits.store(0, AtomicOrdering::Relaxed);
            self.bounds_cache_misses.store(0, AtomicOrdering::Relaxed);
            self.bounds_evictions.store(0, AtomicOrdering::Relaxed);
            self.labels_created.store(0, AtomicOrdering::Relaxed);
            self.labels_expanded.store(0, AtomicOrdering::Relaxed);
            self.incomplete.store(0, AtomicOrdering::Relaxed);
            self.pool_reuse.store(0, AtomicOrdering::Relaxed);
            self.pool_misses.store(0, AtomicOrdering::Relaxed);
            self.lattice_fast_path.store(0, AtomicOrdering::Relaxed);
            self.panics.store(0, AtomicOrdering::Relaxed);
        });
    }

    /// Bulk-fills every traffic counter with `v` under the seqlock (test
    /// support for the snapshot/reset coherence suite — lets a test
    /// rewrite all counters mid-scrape the same way `reset` does and
    /// assert no torn mix is ever observed).
    #[doc(hidden)]
    pub fn fill_for_tests(&self, v: u64) {
        self.seq.write(|| {
            self.queries.store(v, AtomicOrdering::Relaxed);
            self.batches.store(v, AtomicOrdering::Relaxed);
            self.bounds_cache_hits.store(v, AtomicOrdering::Relaxed);
            self.bounds_cache_misses.store(v, AtomicOrdering::Relaxed);
            self.bounds_evictions.store(v, AtomicOrdering::Relaxed);
            self.labels_created.store(v, AtomicOrdering::Relaxed);
            self.labels_expanded.store(v, AtomicOrdering::Relaxed);
            self.incomplete.store(v, AtomicOrdering::Relaxed);
            self.pool_reuse.store(v, AtomicOrdering::Relaxed);
            self.pool_misses.store(v, AtomicOrdering::Relaxed);
            self.lattice_fast_path.store(v, AtomicOrdering::Relaxed);
            self.panics.store(v, AtomicOrdering::Relaxed);
        });
    }
}

struct Label {
    vertex: NodeId,
    parent: u32,
    edge: EdgeId,
    /// The vertex this label's last edge departed from (the U-turn ban).
    prev_vertex: NodeId,
    offset: f64,
    /// The pooled payload. `Some` while the label owns its distribution;
    /// taken (and checked back into the worker's pool) the moment the
    /// label is retired by dominance pruning. Target-completion labels
    /// keep theirs (`alive == false` but payload retained) because the
    /// incumbent's distribution is read at finish.
    hist: Option<Histogram>,
    /// Convolution certificate of `edge` (see [`ConvCertificate`]).
    certified: bool,
    alive: bool,
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Copy, Clone, PartialEq)]
struct QueueEntry {
    ub: f64,
    id: u32,
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on the probability upper bound.
        self.ub
            .partial_cmp(&other.ub)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

enum Incumbent {
    None,
    Pivot(ExpectedTimeBaseline),
    Label(u32),
}

/// One Pareto-set entry: the label's arena id plus the two facts pruning
/// (d) needs *before* it is worth touching the label — which vertex it
/// entered from, and whether the U-turn rule bans it from nothing there
/// ([`policy::uturn_free`], computed once when the label is created).
/// Together they decide exchange safety for any pairing of this label
/// with a candidate, so an unsafe pair is skipped from the entry alone:
/// no arena dereference, no out-edge walk, no histogram view.
#[derive(Copy, Clone)]
struct ParetoEntry {
    id: u32,
    prev: NodeId,
    unbanned: bool,
}

/// Per-vertex Pareto sets with amortized compaction: retiring marks a
/// label dead in the arena and counts it here; the entry list is only
/// swept once dead entries outnumber the live ones. Entry vectors are
/// sized to the graph once and reset through a touched list, so clearing
/// between queries costs time proportional to the vertices the previous
/// search actually visited.
struct ParetoScratch {
    entries: Vec<Vec<ParetoEntry>>,
    dead: Vec<u32>,
    touched: Vec<u32>,
}

impl ParetoScratch {
    fn new() -> Self {
        ParetoScratch {
            entries: Vec::new(),
            dead: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Sizes the per-node vectors (idempotent) and clears the previous
    /// query's entries.
    fn reset(&mut self, n: usize) {
        if self.entries.len() < n {
            self.entries.resize_with(n, Vec::new);
            self.dead.resize(n, 0);
        }
        for &i in &self.touched {
            self.entries[i as usize].clear();
            self.dead[i as usize] = 0;
        }
        self.touched.clear();
    }

    fn push(&mut self, node: usize, entry: ParetoEntry) {
        if self.entries[node].is_empty() {
            self.touched.push(node as u32);
        }
        self.entries[node].push(entry);
    }
}

/// Reusable per-worker search scratch: the label arena, the best-first
/// queue, the Pareto sets, the pivot baseline's Dijkstra state, the
/// expansion staging buffer, and the worker's [`HistogramPool`] of label
/// payloads. One context serves any number of sequential queries; in
/// steady state neither search containers *nor label payloads* are
/// allocated — payload buffers cycle between the arena and the pool (see
/// the module-level memory model).
///
/// Obtain one from [`RoutingEngine::new_context`] (or [`Default`]); a
/// context is engine-independent and may be moved between engines over
/// the same or different graphs.
pub struct SearchContext {
    arena: Vec<Label>,
    heap: BinaryHeap<QueueEntry>,
    pareto: ParetoScratch,
    baseline: DijkstraScratch,
    /// Staging buffer for the label under expansion (its payload,
    /// translated by its offset) — a memcpy per expansion instead of the
    /// historical clone-per-expansion.
    expand: HistogramBuf,
    /// The worker's recycled label-payload slab.
    pool: HistogramPool,
}

impl Default for SearchContext {
    fn default() -> Self {
        Self::new()
    }
}

impl SearchContext {
    /// An empty context; buffers are sized lazily by the first query.
    pub fn new() -> Self {
        SearchContext {
            arena: Vec::new(),
            heap: BinaryHeap::new(),
            pareto: ParetoScratch::new(),
            baseline: DijkstraScratch::new(),
            expand: HistogramBuf::new(),
            pool: HistogramPool::new(),
        }
    }

    /// Current capacity of the label arena (diagnostic; lets tests assert
    /// that steady-state serving reuses instead of reallocating).
    pub fn arena_capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Counters of this context's histogram pool (diagnostic; the engine
    /// aggregates the same numbers into [`StatsSnapshot::pool_reuse`] /
    /// [`StatsSnapshot::pool_misses`]).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// This context's histogram pool, read-only (diagnostic: what a warm
    /// context keeps parked — [`HistogramPool::free_buffers`],
    /// [`HistogramPool::retained_slots`]).
    pub fn pool(&self) -> &HistogramPool {
        &self.pool
    }
}

/// Builder for [`RoutingEngine`]: one cost oracle + one [`RouterConfig`],
/// with an optional precomputed [`ConvCertificate`] for callers that
/// construct many engines over the same oracle (the differential suite,
/// ablations).
pub struct EngineBuilder {
    cost: HybridCost,
    cfg: RouterConfig,
    certificate: Option<ConvCertificate>,
    bounds_cache_capacity: usize,
    panic_on: Option<(NodeId, NodeId)>,
}

/// Default cap on distinct targets the engine's bounds cache retains.
/// Generous — a reverse Dijkstra per target is cheap to keep and
/// expensive to recompute — but finite, so a workload with an unbounded
/// target set (every query a fresh destination) cannot grow the engine
/// without limit.
pub const DEFAULT_BOUNDS_CACHE_CAPACITY: usize = 4096;

impl EngineBuilder {
    /// Starts a builder over `cost` with the default [`RouterConfig`].
    pub fn new(cost: HybridCost) -> Self {
        EngineBuilder {
            cost,
            cfg: RouterConfig::default(),
            certificate: None,
            bounds_cache_capacity: DEFAULT_BOUNDS_CACHE_CAPACITY,
            panic_on: None,
        }
    }

    /// Fault injection for resilience tests: the built engine panics
    /// mid-search (after seeding, with pooled label payloads live in the
    /// arena) whenever it routes exactly `source -> target`. This is how
    /// the containment contract of [`EngineError::Internal`] is proven
    /// end to end — from batch-mate isolation down to the HTTP 500 a
    /// server renders — without waiting for a real engine bug.
    #[doc(hidden)]
    pub fn panic_on_query(mut self, source: NodeId, target: NodeId) -> Self {
        self.panic_on = Some((source, target));
        self
    }

    /// Sets the search configuration.
    pub fn config(mut self, cfg: RouterConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Caps the number of distinct targets whose [`OptimisticBounds`] the
    /// engine caches; beyond it the least-recently-used entry is evicted
    /// (counted in [`StatsSnapshot::bounds_evictions`]). Values below one
    /// are clamped to one. Default:
    /// [`DEFAULT_BOUNDS_CACHE_CAPACITY`].
    pub fn bounds_cache_capacity(mut self, capacity: usize) -> Self {
        self.bounds_cache_capacity = capacity.max(1);
        self
    }

    /// Supplies a precomputed convolution certificate (it depends only on
    /// the cost oracle, so it can be computed once and cloned into every
    /// engine over that oracle). Without this, [`EngineBuilder::build`]
    /// computes one itself whenever the configuration needs it.
    pub fn certificate(mut self, certificate: ConvCertificate) -> Self {
        self.certificate = Some(certificate);
        self
    }

    /// Resolves all query-independent state — pruning policies, the
    /// margin calibration, the convolution certificate, the support
    /// envelope and the per-node minimum out-edge spans — into epoch `0`
    /// and returns the shareable engine.
    pub fn build(self) -> RoutingEngine {
        let EngineBuilder {
            cost,
            cfg,
            certificate,
            bounds_cache_capacity,
            panic_on,
        } = self;
        let epoch = ModelEpoch::resolve(cost, &cfg, certificate, 0);
        RoutingEngine {
            epoch: EpochCell::new(epoch),
            cfg,
            gate: BudgetGate {
                enabled: cfg.budget_gate,
            },
            bound: BoundPolicy { mode: cfg.bound },
            bounds_cache: BoundedLru::new(),
            bounds_cache_capacity,
            contexts: Mutex::new(Vec::new()),
            counters: EngineStats::default(),
            panic_on,
        }
    }
}

/// One immutable generation of model-derived engine state: everything
/// [`EngineBuilder::build`] resolves from the cost oracle and the
/// configuration, packaged so [`RoutingEngine::swap_model`] can replace
/// it atomically. Queries pin an epoch at entry and never look back at
/// the engine's live pointer, which is what makes a swap invisible to
/// in-flight searches (see the module-level *Hot swap* section).
///
/// The per-target bounds cache is not part of the epoch: it depends only
/// on the graph and the marginals, which every epoch of one engine
/// shares, so it lives on the [`RoutingEngine`] and survives swaps.
pub struct ModelEpoch {
    /// Monotone epoch id: `0` at build, `+1` per successful swap.
    id: u64,
    cost: HybridCost,
    dominance: DominancePolicy,
    certificate: Option<ConvCertificate>,
    /// The model's support-mass envelope, when the bound mode consumes
    /// it ([`BoundMode::CertifiedEnvelope`]).
    envelope: Option<SupportEnvelope>,
    /// Per-node minimum marginal span over out-edges — the envelope
    /// bound's denominator floor. Computed once per epoch, only for the
    /// envelope mode.
    min_out_span: Option<Vec<f64>>,
}

impl ModelEpoch {
    /// Resolves every query-independent decision for `cost` under `cfg` —
    /// the body [`EngineBuilder::build`] historically ran once, now
    /// re-runnable per swap.
    fn resolve(
        cost: HybridCost,
        cfg: &RouterConfig,
        certificate: Option<ConvCertificate>,
        id: u64,
    ) -> Self {
        let dominance = DominancePolicy::resolve(cfg.dominance, cost.model().calibration.as_ref());
        let certificate = certificate.or_else(|| {
            RoutingEngine::wants_certificate(cfg).then(|| ConvCertificate::compute(&cost))
        });
        let envelope = (cfg.bound == BoundMode::CertifiedEnvelope)
            .then(|| cost.model().envelope.clone())
            .flatten();
        // Only worth building when an envelope will consume it (a snapshot
        // with its envelope flag at 0 degrades to the certificate-only
        // fallback).
        let min_out_span = envelope.is_some().then(|| {
            let g = cost.graph();
            (0..g.num_nodes())
                .map(|v| {
                    g.out_edges(NodeId(v as u32))
                        .map(|(e, _)| {
                            let m = cost.marginal(e);
                            m.end() - m.start()
                        })
                        .fold(f64::INFINITY, f64::min)
                })
                .collect()
        });
        ModelEpoch {
            id,
            cost,
            dominance,
            certificate,
            envelope,
            min_out_span,
        }
    }

    /// This epoch's id (`0` at build, `+1` per successful swap).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The cost oracle this epoch serves.
    pub fn cost(&self) -> &HybridCost {
        &self.cost
    }

    /// The resolved dominance policy.
    pub fn dominance_policy(&self) -> &DominancePolicy {
        &self.dominance
    }

    /// The convolution certificate, when a configured policy required
    /// computing one.
    pub fn certificate(&self) -> Option<&ConvCertificate> {
        self.certificate.as_ref()
    }

    /// The support envelope, when the bound mode consumes one.
    pub fn envelope(&self) -> Option<&SupportEnvelope> {
        self.envelope.as_ref()
    }
}

/// Typed rejection of a [`RoutingEngine::swap_model`] candidate. A
/// rejected swap is a no-op: the serving epoch, the bounds cache and the
/// epoch counter are untouched, and in-flight queries never notice.
#[derive(Clone, PartialEq, Debug)]
pub enum SwapError {
    /// The snapshot bytes failed to decode at all
    /// ([`RoutingEngine::swap_model_bytes`]).
    Snapshot(String),
    /// The model's declared container bin cap disagrees with its
    /// estimator's output width — combined distributions would be
    /// silently truncated or padded.
    BinsMismatch {
        /// Bins declared by the model container.
        model: usize,
        /// Bins the estimator actually produces.
        estimator: usize,
    },
    /// The dominance calibration carries a non-finite or negative field;
    /// a margin of NaN would disable pruning soundness silently.
    Calibration(String),
    /// The support envelope violates its CDF contract (non-monotone,
    /// out of `[0, 1]`, or missing its anchor knots).
    Envelope(String),
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::Snapshot(msg) => write!(f, "snapshot rejected: {msg}"),
            SwapError::BinsMismatch { model, estimator } => write!(
                f,
                "model declares {model} bins but its estimator produces {estimator}"
            ),
            SwapError::Calibration(msg) => write!(f, "calibration rejected: {msg}"),
            SwapError::Envelope(msg) => write!(f, "envelope rejected: {msg}"),
        }
    }
}

impl std::error::Error for SwapError {}

/// The owning, `Send + Sync` query-serving engine. Construction (via
/// [`EngineBuilder`]) resolves every query-independent decision once;
/// serving shares the engine immutably across worker threads, each with
/// its own [`SearchContext`].
///
/// The search itself is the paper's label-correcting best-first search
/// with prunings (a)–(d) — see [`crate::routing::budget`] for the
/// algorithmic story and [`crate::routing::policy`] for each pruning
/// mode's soundness contract. The engine adds the serving architecture:
/// target-keyed caching of [`OptimisticBounds`] (engine-wide, kept across
/// swaps),
/// scratch reuse, batch dispatch, aggregated [`EngineStats`], and
/// zero-downtime model replacement via [`RoutingEngine::swap_model`].
pub struct RoutingEngine {
    /// The live model epoch. Queries pin it once at entry (read lock +
    /// `Arc` clone); [`RoutingEngine::swap_model`] replaces it under a
    /// momentary write lock ([`crate::sync::EpochCell`], model-checked by
    /// the `srt-check` epoch suite). Everything model-derived lives
    /// inside.
    epoch: EpochCell<ModelEpoch>,
    cfg: RouterConfig,
    gate: BudgetGate,
    bound: BoundPolicy,
    /// Target-keyed cache of the reverse optimistic-bound Dijkstra, with
    /// LRU eviction at `bounds_cache_capacity`
    /// ([`crate::sync::BoundedLru`], model-checked by the `srt-check` LRU
    /// suite). Shared by every epoch: see the module-level *Hot swap*
    /// section for why no swap invalidates it.
    bounds_cache: BoundedLru<NodeId, Arc<OptimisticBounds>>,
    bounds_cache_capacity: usize,
    /// Free list of warm [`SearchContext`]s serving
    /// [`RoutingEngine::route`] / [`BatchExecutor::execute`].
    contexts: Mutex<Vec<SearchContext>>,
    counters: EngineStats,
    /// Fault injection (test support): panic while routing this exact
    /// `(source, target)` pair. See [`EngineBuilder::panic_on_query`].
    panic_on: Option<(NodeId, NodeId)>,
}

/// Cap on idle contexts the engine retains (a context is small — its
/// buffers are bounded by the largest query it served — but a runaway
/// `parallelism` argument should not pin memory forever).
const MAX_POOLED_CONTEXTS: usize = 64;

impl RoutingEngine {
    /// An engine over `cost` with the default configuration.
    pub fn new(cost: HybridCost) -> Self {
        EngineBuilder::new(cost).build()
    }

    /// Whether `cfg` contains a certificate-consuming policy.
    pub fn wants_certificate(cfg: &RouterConfig) -> bool {
        cfg.dominance == DominanceMode::ConvGated
            || cfg.bound == BoundMode::Certified
            || cfg.bound == BoundMode::CertifiedEnvelope
    }

    /// The cost oracle currently served by this engine (an owned handle —
    /// cloning a [`HybridCost`] clones three `Arc`s — pinned to the epoch
    /// at the moment of the call; a subsequent swap does not update it).
    pub fn cost(&self) -> HybridCost {
        self.current_epoch().cost.clone()
    }

    /// The configuration in use (fixed at build; swaps re-resolve the
    /// model under it but never change it).
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// The resolved dominance policy of the current epoch (diagnostic:
    /// exposes the margin the engine actually prunes with).
    pub fn dominance_policy(&self) -> DominancePolicy {
        *self.current_epoch().dominance_policy()
    }

    /// The current epoch's convolution certificate, when a configured
    /// policy required computing one.
    pub fn certificate(&self) -> Option<ConvCertificate> {
        self.current_epoch().certificate.clone()
    }

    /// Pins the live [`ModelEpoch`]: one read-lock acquisition plus one
    /// `Arc` clone. The pin is immutable and survives any number of
    /// subsequent swaps; the epoch's storage is freed when the last pin
    /// drops.
    fn current_epoch(&self) -> Arc<ModelEpoch> {
        self.epoch.pin()
    }

    /// The id of the epoch currently serving (`0` at build, `+1` per
    /// successful [`RoutingEngine::swap_model`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.with(|live| live.id)
    }

    /// Atomically replaces the serving model with `model`, keeping the
    /// graph, the per-edge marginals and the combine policy of the
    /// current epoch. Returns the new epoch id.
    ///
    /// The candidate is revalidated first — estimator/container bin
    /// agreement, calibration finiteness, envelope monotonicity — and all
    /// derived state (policy resolution, certificate recompute, envelope
    /// spans) is built *outside* the publication lock, so in-flight and
    /// concurrent queries keep serving the old epoch at full speed until
    /// the one-pointer swap. The engine's bounds cache is kept: it depends
    /// only on the graph and the marginals, which the new epoch shares.
    /// On any [`SwapError`] the engine is untouched: same epoch, same
    /// bounds cache, same answers.
    pub fn swap_model(&self, model: crate::model::HybridModel) -> Result<u64, SwapError> {
        Self::revalidate(&model)?;
        let old = self.current_epoch();
        let cost = HybridCost::from_parts(
            old.cost.graph_arc(),
            Arc::new(model),
            old.cost.marginals_arc(),
            old.cost.policy,
        );
        // Resolve with a provisional id: the real id is claimed under the
        // write lock, so concurrent swaps serialize without ever running
        // the (expensive) certificate recompute inside the lock.
        let prepared = ModelEpoch::resolve(cost, &self.cfg, None, 0);
        let id = self.epoch.publish_with(|live| {
            let id = live.id + 1;
            (Arc::new(ModelEpoch { id, ..prepared }), id)
        });
        self.counters.epoch.store(id, AtomicOrdering::SeqCst);
        Ok(id)
    }

    /// [`RoutingEngine::swap_model`] from serialized snapshot bytes (only
    /// version 3 decodes): decode failures come back as
    /// [`SwapError::Snapshot`], and the old epoch keeps serving.
    pub fn swap_model_bytes(&self, bytes: &[u8]) -> Result<u64, SwapError> {
        let model =
            crate::model::io::from_bytes(bytes).map_err(|e| SwapError::Snapshot(e.to_string()))?;
        self.swap_model(model)
    }

    /// The admission checks a swap candidate must pass before any derived
    /// state is built. `from_bytes` already rejects structurally corrupt
    /// snapshots; this guards the invariants a well-formed-but-wrong
    /// model could still violate (and covers [`RoutingEngine::swap_model`]
    /// callers that constructed the model in memory, bypassing the
    /// snapshot decoder entirely).
    fn revalidate(model: &crate::model::HybridModel) -> Result<(), SwapError> {
        let estimator_bins = model.estimator.bins();
        if estimator_bins != model.bins {
            return Err(SwapError::BinsMismatch {
                model: model.bins,
                estimator: estimator_bins,
            });
        }
        if let Some(cal) = model.calibration.as_ref() {
            if !cal.margin_eps.is_finite() || cal.margin_eps < 0.0 {
                return Err(SwapError::Calibration(format!(
                    "margin_eps {} is not a finite non-negative number",
                    cal.margin_eps
                )));
            }
            if !cal.lipschitz.is_finite() {
                return Err(SwapError::Calibration(format!(
                    "lipschitz modulus {} is not finite",
                    cal.lipschitz
                )));
            }
            if !cal.max_violation.is_finite() || cal.max_violation < 0.0 {
                return Err(SwapError::Calibration(format!(
                    "max_violation {} is not a finite non-negative number",
                    cal.max_violation
                )));
            }
        }
        if let Some(env) = model.envelope.as_ref() {
            env.validate().map_err(SwapError::Envelope)?;
        }
        Ok(())
    }

    /// A fresh per-worker scratch context.
    pub fn new_context(&self) -> SearchContext {
        SearchContext::new()
    }

    /// Snapshot of the aggregated serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.counters.snapshot()
    }

    /// The live atomic counters, for metrics sinks that poll on their own
    /// schedule ([`EngineStats::snapshot`] / [`EngineStats::reset`]).
    pub fn stats_handle(&self) -> &EngineStats {
        &self.counters
    }

    /// Zeroes the aggregated serving counters (the bounds cache itself is
    /// kept; see [`RoutingEngine::clear_bounds_cache`]).
    pub fn reset_stats(&self) {
        self.counters.reset();
    }

    /// The engine's context free list, poison-tolerantly.
    ///
    /// Every shared lock in the engine is acquired through one of these
    /// accessors: a panic that unwinds through a lock holder must not
    /// take the lock down with it — for a long-lived server, a poisoned
    /// `Mutex` turns one contained panic into a permanent outage. The
    /// guarded state is structurally valid after any interrupted
    /// operation here (`Vec` push/pop, `HashMap` insert/remove never
    /// leave their container broken; at worst an entry is missing), so
    /// recovering the guard is sound.
    fn lock_contexts(&self) -> std::sync::MutexGuard<'_, Vec<SearchContext>> {
        self.contexts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Draws a warm context from the engine's free list (or makes one).
    fn checkout_context(&self) -> SearchContext {
        self.lock_contexts().pop().unwrap_or_default()
    }

    /// Parks a context back on the free list (dropped when full).
    fn checkin_context(&self, ctx: SearchContext) {
        let mut pool = self.lock_contexts();
        if pool.len() < MAX_POOLED_CONTEXTS {
            pool.push(ctx);
        }
    }

    /// Idle contexts currently parked on the engine (diagnostic).
    pub fn pooled_contexts(&self) -> usize {
        self.lock_contexts().len()
    }

    /// Poisons the engine's internal locks (test support): panics while
    /// holding each guard, inside `catch_unwind`. Serving must proceed
    /// unharmed afterwards — the poison-tolerance contract of the lock
    /// accessors, provable only from inside the crate because no query
    /// panic can unwind while a lock is held.
    #[doc(hidden)]
    pub fn poison_locks_for_tests(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.lock_contexts();
            panic!("poisoning the context pool");
        }));
        self.epoch.poison_for_tests();
        self.bounds_cache.poison_for_tests();
    }

    /// Drops every cached per-target bound (useful for cold-start
    /// measurements, or to bound memory on workloads with unbounded
    /// target sets).
    pub fn clear_bounds_cache(&self) {
        self.bounds_cache.clear();
    }

    /// Number of distinct targets whose bounds the engine caches.
    pub fn bounds_cached(&self) -> usize {
        self.bounds_cache.len()
    }

    /// Validates a query against this engine's graph and configuration.
    pub fn validate(&self, query: &Query) -> Result<(), EngineError> {
        self.validate_on(&self.current_epoch(), query)
    }

    /// [`RoutingEngine::validate`] against an already-pinned epoch (the
    /// query entry points validate and route on one pin, so a swap
    /// between the two steps cannot change what was validated).
    fn validate_on(&self, epoch: &ModelEpoch, query: &Query) -> Result<(), EngineError> {
        let num_nodes = epoch.cost.graph().num_nodes();
        for node in [query.source, query.target] {
            if node.index() >= num_nodes {
                return Err(EngineError::NodeOutOfRange { node, num_nodes });
            }
        }
        // NaN and ±∞ name no budget at all; a *negative* budget names an
        // impossible one. Rejecting them means a caller holding `Ok` knows
        // the probability is meaningful. Exactly 0.0 stays valid: it has a
        // well-defined answer (probability zero on the expected-time path,
        // one when source and target coincide).
        if !query.budget_s.is_finite() || query.budget_s < 0.0 {
            return Err(EngineError::InvalidBudget {
                budget: query.budget_s,
            });
        }
        if query.deadline == Some(Duration::ZERO) {
            return Err(EngineError::ZeroDeadline);
        }
        Ok(())
    }

    /// Routes one query through a context drawn from the engine's warm
    /// context pool (returned afterwards). Callers that pin workers to
    /// contexts use [`RoutingEngine::route_with`] directly; the answers
    /// are identical either way.
    pub fn route(&self, query: &Query) -> Result<RouteResult, EngineError> {
        let mut ctx = self.checkout_context();
        let result = self.route_with(query, &mut ctx);
        // A panicking search leaves the context mid-state (labels holding
        // pooled payloads, a half-staged expansion buffer); a fresh one
        // is correct by construction and panics are rare, so the pool
        // only ever receives contexts that finished cleanly.
        if !matches!(result, Err(EngineError::Internal)) {
            self.checkin_context(ctx);
        }
        result
    }

    /// Routes one validated query, reusing `ctx`'s buffers for all search
    /// state.
    ///
    /// A panic inside the search is caught here and surfaced as
    /// [`EngineError::Internal`] instead of unwinding into the caller:
    /// one bad query must not take down a serving thread, poison a lock,
    /// or abort the rest of a batch. `ctx` remains safe to reuse — the
    /// next search resets every container before touching it — though
    /// the engine-pooled entry points conservatively discard it.
    pub fn route_with(
        &self,
        query: &Query,
        ctx: &mut SearchContext,
    ) -> Result<RouteResult, EngineError> {
        // Pin the epoch once: the whole query — validation included —
        // runs against this one model even if a swap publishes mid-search.
        let epoch = self.current_epoch();
        self.route_pinned(&epoch, query, ctx)
    }

    /// Routes one query against an explicitly pinned epoch. This is the
    /// body of [`RoutingEngine::route_with`] with the pin hoisted out:
    /// batch executors pin once and serve every query of the batch
    /// against the same model generation, so a swap that publishes
    /// mid-batch cannot split the batch across epochs.
    fn route_pinned(
        &self,
        epoch: &ModelEpoch,
        query: &Query,
        ctx: &mut SearchContext,
    ) -> Result<RouteResult, EngineError> {
        self.validate_on(epoch, query)?;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.route_on(epoch, query, ctx)
        }));
        match outcome {
            Ok(result) => Ok(result),
            Err(_) => {
                self.counters.panics.fetch_add(1, AtomicOrdering::Relaxed);
                Err(EngineError::Internal)
            }
        }
    }

    /// The per-target bounds, from the engine's cache when warm. A miss
    /// computes them over `epoch`'s graph and marginals, which are the
    /// same for every epoch of this engine. The cache is LRU-bounded at
    /// the builder's capacity: hits refresh a logical-use stamp under the
    /// read lock; an insert past capacity evicts the stalest entries (and
    /// counts them).
    fn bounds_for(&self, epoch: &ModelEpoch, target: NodeId) -> Arc<OptimisticBounds> {
        if let Some(bounds) = self.bounds_cache.get(&target) {
            self.counters
                .bounds_cache_hits
                .fetch_add(1, AtomicOrdering::Relaxed);
            return bounds;
        }
        // Compute outside the lock; a concurrent duplicate computation is
        // benign (the Dijkstra is deterministic) and the entry converges.
        let bounds = Arc::new(OptimisticBounds::compute(epoch.cost.graph(), target, |e| {
            epoch.cost.marginal(e).start().max(0.0)
        }));
        self.counters
            .bounds_cache_misses
            .fetch_add(1, AtomicOrdering::Relaxed);
        // Insert first, trim second ([`crate::sync::BoundedLru`]): the
        // historical check-then-insert shape let N concurrent misses each
        // skip eviction and transiently overshoot capacity by N-1 — now
        // structural in the LRU and proven dead by the `srt-check` model
        // suite rather than stress-tested dead.
        let (result, evicted) =
            self.bounds_cache
                .insert_and_trim(target, bounds, self.bounds_cache_capacity);
        if evicted > 0 {
            self.counters
                .bounds_evictions
                .fetch_add(evicted, AtomicOrdering::Relaxed);
        }
        result
    }

    /// One validated query against an already-pinned epoch, with the
    /// pool-stats diff folded into the aggregated counters.
    fn route_on(&self, epoch: &ModelEpoch, query: &Query, ctx: &mut SearchContext) -> RouteResult {
        let pool_before = ctx.pool.stats();
        let result = self.route_inner(epoch, query, ctx);
        let pool_after = ctx.pool.stats();
        self.counters.pool_reuse.fetch_add(
            pool_after.reuses - pool_before.reuses,
            AtomicOrdering::Relaxed,
        );
        self.counters.pool_misses.fetch_add(
            pool_after.mints - pool_before.mints,
            AtomicOrdering::Relaxed,
        );
        result
    }

    fn route_inner(
        &self,
        epoch: &ModelEpoch,
        query: &Query,
        ctx: &mut SearchContext,
    ) -> RouteResult {
        let &Query {
            source,
            target,
            budget_s,
            deadline,
        } = query;
        let start_time = Instant::now();
        let g = epoch.cost.graph();
        let mut stats = SearchStats::default();

        // Already there: the empty path arrives at time zero, which is
        // within every valid budget, zero included.
        if source == target {
            stats.completed = true;
            stats.elapsed = start_time.elapsed();
            return self.record(RouteResult {
                path: Some(Path {
                    nodes: vec![source],
                    edges: vec![],
                }),
                distribution: None,
                probability: 1.0,
                stats,
            });
        }

        // A zero budget, the one degenerate budget validation admits:
        // answered with probability 0 on the expected-time path when one
        // exists. Running the full search would burn a whole exploration
        // to conclude the same answer.
        if budget_s <= 0.0 {
            stats.completed = true;
            stats.elapsed = start_time.elapsed();
            let baseline = ExpectedTimeBaseline::solve_with(
                &epoch.cost,
                source,
                target,
                0.0,
                &mut ctx.baseline,
                &mut ctx.pool,
            );
            return self.record(RouteResult {
                probability: 0.0,
                path: baseline.as_ref().map(|b| b.path.clone()),
                distribution: baseline.and_then(|b| b.distribution),
                stats,
            });
        }

        // Pruning (a): optimistic remaining cost to the target, under the
        // smallest support value every marginal can realize — cached per
        // target within the epoch, since it depends only on (target, cost
        // oracle).
        let bounds = self.bounds_for(epoch, target);
        if !bounds.reachable(source) {
            stats.completed = true;
            stats.elapsed = start_time.elapsed();
            return self.record(RouteResult {
                path: None,
                distribution: None,
                probability: 0.0,
                stats,
            });
        }

        // Pruning (b): pivot initialization from the expected-time path.
        let mut best_prob = 0.0;
        let mut incumbent = Incumbent::None;
        if self.cfg.use_pivot_init {
            if let Some(baseline) = ExpectedTimeBaseline::solve_with(
                &epoch.cost,
                source,
                target,
                budget_s,
                &mut ctx.baseline,
                &mut ctx.pool,
            ) {
                best_prob = baseline.probability;
                incumbent = Incumbent::Pivot(baseline);
            }
        }

        let SearchContext {
            arena,
            heap,
            pareto,
            expand,
            pool,
            ..
        } = ctx;
        // Recycle the previous query's label payloads before clearing the
        // arena — this is where pool buffers come home, and what makes a
        // warm engine's second pass over a batch mint nothing.
        for label in arena.drain(..) {
            if let Some(h) = label.hist {
                pool.recycle(h);
            }
        }
        heap.clear();
        pareto.reset(g.num_nodes());

        // Seed with the out-edges of the source.
        for (e, head) in g.out_edges(source) {
            if !bounds.reachable(head) {
                continue;
            }
            let dist = epoch.cost.marginal(e).pooled_clone(pool);
            self.push_label(
                epoch,
                arena,
                pareto,
                heap,
                pool,
                &bounds,
                budget_s,
                &mut best_prob,
                &mut incumbent,
                &mut stats,
                NO_PARENT,
                e,
                source,
                head,
                dist,
                target,
            );
        }

        // Fault injection (test support, `EngineBuilder::panic_on_query`):
        // unwind from the worst spot — mid-search, pooled label payloads
        // live in the arena, the heap seeded — so containment tests prove
        // recovery from realistic wreckage, not from a tidy early return.
        if self.panic_on == Some((source, target)) {
            panic!("injected fault: routing {source:?} -> {target:?}");
        }

        // Shared-lattice convolutions, accumulated locally and flushed
        // with one atomic add at each exit from the expansion loop —
        // mirroring the pool-stats-diff pattern of `route_on`.
        let mut lattice_hits = 0u64;
        let flush_lattice = |c: &EngineStats, hits: u64| {
            if hits > 0 {
                c.lattice_fast_path.fetch_add(hits, AtomicOrdering::Relaxed);
            }
        };
        let mut pops = 0usize;
        while let Some(QueueEntry { ub, id }) = heap.pop() {
            pops += 1;
            if pops.is_multiple_of(64) {
                if let Some(limit) = deadline {
                    if start_time.elapsed() >= limit {
                        stats.completed = false;
                        stats.elapsed = start_time.elapsed();
                        flush_lattice(&self.counters, lattice_hits);
                        return self.record(
                            self.finish(epoch, incumbent, best_prob, arena, stats, budget_s),
                        );
                    }
                }
            }
            if self.bound.prunes() && ub <= best_prob {
                // Best-first order: every remaining bound is no better.
                break;
            }
            let label = &arena[id as usize];
            if !label.alive {
                continue;
            }
            if stats.labels_created >= self.cfg.max_labels {
                stats.completed = false;
                stats.elapsed = start_time.elapsed();
                flush_lattice(&self.counters, lattice_hits);
                return self
                    .record(self.finish(epoch, incumbent, best_prob, arena, stats, budget_s));
            }
            stats.labels_expanded += 1;

            let vertex = label.vertex;
            let offset = label.offset;
            // Stage the actual (unshifted) distribution for combining: a
            // bounded memcpy into the context's staging buffer, replacing
            // the historical clone-per-expansion.
            expand.stage(
                label.hist.as_ref().expect("live labels carry payloads"),
                offset,
            );
            let prev_edge = label.edge;
            let prev_vertex = label.prev_vertex;
            // Everything the combine step reads from the popped label
            // alone (the ten `pre_*` features) is computed here, once,
            // not once per out-edge.
            let pre = epoch.cost.stage_pre(expand.as_view());

            for (e, head) in g.out_edges(vertex) {
                if head == prev_vertex {
                    continue; // skip immediate U-turns
                }
                if !bounds.reachable(head) {
                    continue;
                }
                let (dist, outcome) = epoch.cost.combine_staged_traced(
                    &pre,
                    prev_edge,
                    e,
                    Some(self.cfg.max_bins),
                    pool,
                );
                if outcome.lattice_hit() {
                    lattice_hits += 1;
                }
                self.push_label(
                    epoch,
                    arena,
                    pareto,
                    heap,
                    pool,
                    &bounds,
                    budget_s,
                    &mut best_prob,
                    &mut incumbent,
                    &mut stats,
                    id,
                    e,
                    vertex,
                    head,
                    dist,
                    target,
                );
            }
        }

        stats.completed = true;
        stats.elapsed = start_time.elapsed();
        flush_lattice(&self.counters, lattice_hits);
        self.record(self.finish(epoch, incumbent, best_prob, arena, stats, budget_s))
    }

    /// Folds one finished query into the aggregated counters.
    fn record(&self, result: RouteResult) -> RouteResult {
        let c = &self.counters;
        c.queries.fetch_add(1, AtomicOrdering::Relaxed);
        c.labels_created
            .fetch_add(result.stats.labels_created as u64, AtomicOrdering::Relaxed);
        c.labels_expanded
            .fetch_add(result.stats.labels_expanded as u64, AtomicOrdering::Relaxed);
        if !result.stats.completed {
            c.incomplete.fetch_add(1, AtomicOrdering::Relaxed);
        }
        result
    }

    /// Creates, prunes and enqueues one candidate label.
    #[allow(clippy::too_many_arguments)]
    fn push_label(
        &self,
        epoch: &ModelEpoch,
        arena: &mut Vec<Label>,
        pareto: &mut ParetoScratch,
        heap: &mut BinaryHeap<QueueEntry>,
        pool: &mut HistogramPool,
        bounds: &OptimisticBounds,
        budget_s: f64,
        best_prob: &mut f64,
        incumbent: &mut Incumbent,
        stats: &mut SearchStats,
        parent: u32,
        edge: EdgeId,
        prev_vertex: NodeId,
        head: NodeId,
        dist_actual: Histogram,
        target: NodeId,
    ) {
        // Pruning (c): anchor at zero, carry the offset — in place, the
        // payload buffer is untouched.
        let (offset, hist) = if self.cfg.use_cost_shifting {
            let offset = dist_actual.start();
            let mut hist = dist_actual;
            hist.shift_in_place(-offset);
            (offset, hist)
        } else {
            (0.0, dist_actual)
        };
        let certified = epoch
            .certificate
            .as_ref()
            .is_some_and(|c| c.certified(edge));

        if head == target {
            // Complete path: candidate for the incumbent; never expanded
            // further (any extension returns later, hence dominated). The
            // payload is retained — the incumbent's distribution is read
            // at finish.
            let prob = hist.cdf(budget_s - offset);
            stats.labels_created += 1;
            arena.push(Label {
                vertex: head,
                parent,
                edge,
                prev_vertex,
                offset,
                hist: Some(hist),
                certified,
                alive: false,
            });
            if prob > *best_prob || matches!(incumbent, Incumbent::None) {
                *best_prob = prob.max(*best_prob);
                *incumbent = Incumbent::Label(arena.len() as u32 - 1);
            }
            return;
        }

        let ctx = PruneCtx {
            budget_s,
            remaining_s: bounds.remaining(head),
            offset,
            hist: hist.view(),
            incumbent_prob: *best_prob,
            certified,
            envelope: epoch.envelope.as_ref(),
            next_span_lb: epoch.min_out_span.as_ref().map_or(0.0, |s| s[head.index()]),
        };

        // The always-sound feasibility cut.
        if !self.gate.admits(&ctx) {
            stats.pruned_infeasible += 1;
            pool.recycle(hist);
            return;
        }

        // Pruning (a)+(b): probability upper bound via the optimistic
        // remaining cost, checked against the incumbent. The bound value
        // doubles as the best-first queue key.
        let ub = self.bound.upper_bound(&ctx);
        if !self.bound.admits(&ctx) {
            stats.pruned_bound += 1;
            pool.recycle(hist);
            return;
        }

        // Pruning (d): dominance against the Pareto set at `head`. Both
        // passes decide exchange safety from the `ParetoEntry` alone and
        // skip an unsafe pair before touching the arena, the graph or a
        // histogram — on a two-way road network that is most pairs.
        let unbanned = if epoch.dominance.enabled() {
            let g = epoch.cost.graph();
            let candidate = LabelView {
                offset,
                hist: hist.view(),
                certified,
            };
            let need_safety = epoch.dominance.needs_exchange_safety();
            // A dominated newcomer is discarded outright (dead entries are
            // skipped lazily; compaction is amortized below).
            for keeper_entry in &pareto.entries[head.index()] {
                let safe =
                    !need_safety || keeper_entry.prev == prev_vertex || keeper_entry.unbanned;
                debug_assert_eq!(
                    safe,
                    !need_safety || policy::exchange_safe(g, head, keeper_entry.prev, prev_vertex)
                );
                if !safe {
                    stats.dominance_skipped += 1;
                    continue;
                }
                let other = &arena[keeper_entry.id as usize];
                if !other.alive {
                    continue;
                }
                stats.dominance_comparisons += 1;
                let keeper = LabelView {
                    offset: other.offset,
                    hist: other
                        .hist
                        .as_ref()
                        .expect("live labels carry payloads")
                        .view(),
                    certified: other.certified,
                };
                if epoch.dominance.discards(&keeper, &candidate, safe) {
                    stats.pruned_dominance += 1;
                    pool.recycle(hist);
                    return;
                }
            }
            // Retire incumbents the newcomer dominates. The newcomer is
            // the keeper here, so its half of the exchange-safety check
            // is loop-invariant — and, stored in its own entry below, is
            // the half every later candidate reads back.
            let unbanned = policy::uturn_free(g, head, prev_vertex);
            for i in 0..pareto.entries[head.index()].len() {
                let incumbent_entry = pareto.entries[head.index()][i];
                let safe = !need_safety || unbanned || incumbent_entry.prev == prev_vertex;
                debug_assert_eq!(
                    safe,
                    !need_safety
                        || policy::exchange_safe(g, head, prev_vertex, incumbent_entry.prev)
                );
                if !safe {
                    stats.dominance_skipped += 1;
                    continue;
                }
                let oid = incumbent_entry.id as usize;
                let other = &arena[oid];
                if !other.alive {
                    continue;
                }
                stats.dominance_comparisons += 1;
                let dominated = {
                    let incumbent_view = LabelView {
                        offset: other.offset,
                        hist: other
                            .hist
                            .as_ref()
                            .expect("live labels carry payloads")
                            .view(),
                        certified: other.certified,
                    };
                    epoch.dominance.discards(&candidate, &incumbent_view, safe)
                };
                if dominated {
                    let retired = &mut arena[oid];
                    retired.alive = false;
                    // A dominance-retired label is never expanded or
                    // compared again: its payload goes home immediately.
                    if let Some(h) = retired.hist.take() {
                        pool.recycle(h);
                    }
                    pareto.dead[head.index()] += 1;
                    stats.pruned_dominance += 1;
                    stats.dominance_retired += 1;
                }
            }
            // Amortized compaction: sweep only once the dead outnumber
            // the living, so each retired entry is paid for at most twice.
            let dead = pareto.dead[head.index()] as usize;
            if dead * 2 > pareto.entries[head.index()].len() {
                let arena_ref = &arena;
                pareto.entries[head.index()].retain(|e| arena_ref[e.id as usize].alive);
                pareto.dead[head.index()] = 0;
                stats.pareto_compactions += 1;
            }
            Some(unbanned)
        } else {
            None
        };

        let id = arena.len() as u32;
        stats.labels_created += 1;
        arena.push(Label {
            vertex: head,
            parent,
            edge,
            prev_vertex,
            offset,
            hist: Some(hist),
            certified,
            alive: true,
        });
        if let Some(unbanned) = unbanned {
            let entry = ParetoEntry {
                id,
                prev: prev_vertex,
                unbanned,
            };
            pareto.push(head.index(), entry);
        }
        heap.push(QueueEntry { ub, id });
    }

    fn finish(
        &self,
        epoch: &ModelEpoch,
        incumbent: Incumbent,
        best_prob: f64,
        arena: &[Label],
        stats: SearchStats,
        budget_s: f64,
    ) -> RouteResult {
        match incumbent {
            Incumbent::None => RouteResult {
                path: None,
                distribution: None,
                probability: 0.0,
                stats,
            },
            Incumbent::Pivot(b) => RouteResult {
                probability: b.probability,
                path: Some(b.path),
                distribution: b.distribution,
                stats,
            },
            Incumbent::Label(id) => {
                // Walk parents to reconstruct the path.
                let mut edges = Vec::new();
                let mut cur = id;
                loop {
                    let l = &arena[cur as usize];
                    edges.push(l.edge);
                    if l.parent == NO_PARENT {
                        break;
                    }
                    cur = l.parent;
                }
                edges.reverse();
                let g = epoch.cost.graph();
                let mut nodes = Vec::with_capacity(edges.len() + 1);
                nodes.push(g.edge_source(edges[0]));
                for &e in &edges {
                    nodes.push(g.edge_target(e));
                }
                let label = &arena[id as usize];
                // The result escapes the context: one exact-size owned
                // allocation per query, never a pool buffer.
                let dist = label
                    .hist
                    .as_ref()
                    .expect("incumbent labels retain their payloads")
                    .shift(label.offset);
                debug_assert!((dist.prob_within(budget_s) - best_prob).abs() < 1e-6);
                RouteResult {
                    path: Some(Path { nodes, edges }),
                    distribution: Some(dist),
                    probability: best_prob,
                    stats,
                }
            }
        }
    }
}

/// A snapshot of a [`BatchExecutor`]'s dispatch counters.
///
/// `inline_batches` counts executions answered entirely on the calling
/// thread — no worker lane was woken, no thread spawned. A batch of
/// length 1, or any batch on a single-lane executor, always takes this
/// path; tests pin the fast-path contract through these counters.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ExecutorStats {
    /// `execute` calls served.
    pub batches: u64,
    /// Queries routed across all batches.
    pub queries: u64,
    /// Batches routed inline on the caller (no lane handoff).
    pub inline_batches: u64,
    /// Batches published to the persistent worker lanes.
    pub dispatched_batches: u64,
    /// Total lanes (helper threads plus the participating caller).
    pub lanes: usize,
    /// Helper threads actually spawned at construction.
    pub worker_threads: usize,
}

#[derive(Default)]
struct ExecCounters {
    batches: AtomicU64,
    queries: AtomicU64,
    inline_batches: AtomicU64,
    dispatched_batches: AtomicU64,
}

/// One published batch: the lanes steal indices off `next` and write
/// results (and the completion count) under `done`. The job owns its
/// queries — lanes outlive any one `execute` call, so nothing borrowed
/// may cross into them.
struct ExecJob {
    queries: Vec<Query>,
    epoch: Arc<ModelEpoch>,
    next: AtomicUsize,
    done: Mutex<ExecDone>,
    all_done: Condvar,
}

struct ExecDone {
    results: Vec<Option<Result<RouteResult, EngineError>>>,
    completed: usize,
}

struct ExecSlot {
    /// Bumped once per published job; lanes remember the last seq they
    /// served so a stale wakeup never re-runs a finished batch.
    seq: u64,
    job: Option<Arc<ExecJob>>,
    shutdown: bool,
}

struct ExecShared {
    engine: Arc<RoutingEngine>,
    slot: Mutex<ExecSlot>,
    work_ready: Condvar,
    counters: ExecCounters,
}

/// A persistent worker pool over one [`RoutingEngine`].
///
/// The engine's one batch path. A server dispatching micro-batches
/// thousands of times per second wants long-lived lanes, not threads
/// spawned per call: the executor keeps `lanes - 1` helper threads
/// parked on a condvar; `execute` publishes the batch, the caller
/// participates as the remaining lane, and work stealing off a shared
/// index balances skewed query costs. Results
/// come back in input order and are bitwise-identical to sequential
/// routing at any lane count. The epoch is pinned **once per batch**:
/// every query of a batch is answered by the same model generation even
/// if `swap_model` publishes mid-flight.
///
/// Batches of length 1 — and every batch on a single-lane executor —
/// are routed inline on the caller's context without touching the
/// lanes (see [`ExecutorStats::inline_batches`]).
pub struct BatchExecutor {
    shared: Arc<ExecShared>,
    /// Serializes `execute` calls: the slot holds one job at a time.
    submit: Mutex<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl BatchExecutor {
    /// Builds an executor with `lanes` total lanes (`0` = the machine's
    /// available parallelism). `lanes - 1` helper threads are spawned
    /// now and live until drop; the caller is always the final lane, so
    /// a single-lane executor spawns no threads at all.
    pub fn new(engine: Arc<RoutingEngine>, lanes: usize) -> Self {
        let lanes = if lanes == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            lanes
        };
        let shared = Arc::new(ExecShared {
            engine,
            slot: Mutex::new(ExecSlot {
                seq: 0,
                job: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            counters: ExecCounters::default(),
        });
        let workers = (1..lanes)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker_loop(&shared))
            })
            .collect();
        Self {
            shared,
            submit: Mutex::new(()),
            workers,
        }
    }

    /// Total lanes, counting the participating caller.
    pub fn lanes(&self) -> usize {
        self.workers.len() + 1
    }

    /// The engine this executor routes on.
    pub fn engine(&self) -> &Arc<RoutingEngine> {
        &self.shared.engine
    }

    pub fn stats(&self) -> ExecutorStats {
        let c = &self.shared.counters;
        ExecutorStats {
            batches: c.batches.load(AtomicOrdering::Relaxed),
            queries: c.queries.load(AtomicOrdering::Relaxed),
            inline_batches: c.inline_batches.load(AtomicOrdering::Relaxed),
            dispatched_batches: c.dispatched_batches.load(AtomicOrdering::Relaxed),
            lanes: self.lanes(),
            worker_threads: self.workers.len(),
        }
    }

    /// Routes `queries`, returning results in input order. Concurrent
    /// callers are serialized (one job occupies the lanes at a time);
    /// the dispatch-plane batcher is single-threaded, so in practice
    /// this mutex is uncontended.
    pub fn execute(&self, queries: Vec<Query>) -> Vec<Result<RouteResult, EngineError>> {
        let engine = &self.shared.engine;
        let c = &self.shared.counters;
        c.batches.fetch_add(1, AtomicOrdering::Relaxed);
        c.queries
            .fetch_add(queries.len() as u64, AtomicOrdering::Relaxed);
        engine
            .counters
            .batches
            .fetch_add(1, AtomicOrdering::Relaxed);
        // Pin once: the whole batch answers against one model generation.
        let epoch = engine.current_epoch();

        if queries.len() <= 1 || self.workers.is_empty() {
            // Inline fast path: no lane handoff, no condvar touch, no
            // thread spawned — just the caller and one pooled context.
            c.inline_batches.fetch_add(1, AtomicOrdering::Relaxed);
            let mut ctx = engine.checkout_context();
            let results = queries
                .iter()
                .map(|q| Self::route_one(engine, &epoch, q, &mut ctx))
                .collect();
            engine.checkin_context(ctx);
            return results;
        }

        c.dispatched_batches.fetch_add(1, AtomicOrdering::Relaxed);
        let len = queries.len();
        let job = Arc::new(ExecJob {
            queries,
            epoch,
            next: AtomicUsize::new(0),
            done: Mutex::new(ExecDone {
                results: (0..len).map(|_| None).collect(),
                completed: 0,
            }),
            all_done: Condvar::new(),
        });

        let _serial = lock_unpoisoned(&self.submit);
        {
            let mut slot = lock_unpoisoned(&self.shared.slot);
            slot.seq = slot.seq.wrapping_add(1);
            slot.job = Some(Arc::clone(&job));
        }
        self.shared.work_ready.notify_all();

        // The caller is a lane too: steal until the shared index runs
        // out, then wait for the stragglers the helpers still hold.
        Self::run_lane(engine, &job);
        {
            let mut done = lock_unpoisoned(&job.done);
            while done.completed < len {
                done = job
                    .all_done
                    .wait(done)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        // Clear the slot so the job (and its queries) drop promptly;
        // lanes that wake late see a stale seq and go back to sleep.
        lock_unpoisoned(&self.shared.slot).job = None;

        let mut done = lock_unpoisoned(&job.done);
        done.results
            .iter_mut()
            .map(|r| {
                r.take().unwrap_or_else(|| {
                    engine.counters.panics.fetch_add(1, AtomicOrdering::Relaxed);
                    Err(EngineError::Internal)
                })
            })
            .collect()
    }

    /// One query of a batch, against the batch's pinned epoch. A
    /// contained panic leaves `ctx` mid-state, so it is replaced: the
    /// failure stays with that one query and the lane keeps serving.
    fn route_one(
        engine: &RoutingEngine,
        epoch: &ModelEpoch,
        query: &Query,
        ctx: &mut SearchContext,
    ) -> Result<RouteResult, EngineError> {
        let r = engine.route_pinned(epoch, query, ctx);
        if matches!(r, Err(EngineError::Internal)) {
            *ctx = SearchContext::new();
        }
        r
    }

    fn run_lane(engine: &RoutingEngine, job: &ExecJob) {
        let mut ctx = engine.checkout_context();
        let len = job.queries.len();
        loop {
            let i = job.next.fetch_add(1, AtomicOrdering::Relaxed);
            if i >= len {
                break;
            }
            let r = Self::route_one(engine, &job.epoch, &job.queries[i], &mut ctx);
            let mut done = lock_unpoisoned(&job.done);
            done.results[i] = Some(r);
            done.completed += 1;
            if done.completed == len {
                job.all_done.notify_all();
            }
        }
        engine.checkin_context(ctx);
    }

    fn worker_loop(shared: &ExecShared) {
        let mut last_seq = 0u64;
        loop {
            let job = {
                let mut slot = lock_unpoisoned(&shared.slot);
                loop {
                    if slot.shutdown {
                        return;
                    }
                    if slot.seq != last_seq {
                        last_seq = slot.seq;
                        if let Some(job) = slot.job.clone() {
                            break job;
                        }
                        // seq advanced but the job is already cleared —
                        // the batch finished without us; keep waiting.
                    }
                    slot = shared
                        .work_ready
                        .wait(slot)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            Self::run_lane(&shared.engine, &job);
        }
    }
}

impl Drop for BatchExecutor {
    fn drop(&mut self) {
        lock_unpoisoned(&self.shared.slot).shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

//! Iterative path-cost computation with virtual edges.
//!
//! "Path cost computation is an iterative process, as the cost of a path
//! is computed by repeatedly combining the cost of the path so far with
//! the cost of the next edge until the last edge is reached. We can use
//! the distribution estimation model built for short paths to estimate the
//! costs of longer paths by treating the path so far (pre-path) as a
//! 'virtual' edge."

use crate::model::features::PreSummary;
use crate::model::hybrid::{CombineOutcome, HybridModel};
use srt_dist::{with_local_pool, Histogram, HistogramBuf, HistogramPool, HistogramView};
use srt_graph::{EdgeId, RoadGraph};
use srt_synth::SyntheticWorld;
use std::sync::Arc;

/// How the path-so-far is combined with the next edge.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CombinePolicy {
    /// The paper's hybrid: classifier-gated convolution/estimation.
    Hybrid,
    /// Independence baseline: always convolve.
    AlwaysConvolve,
    /// Ablation: always use the learned estimator.
    AlwaysEstimate,
}

/// Path-cost oracle: per-edge marginals + the hybrid model + a policy.
///
/// The oracle *owns* its data behind [`Arc`]s, so it is `Send + Sync`,
/// cheap to clone, and shareable across query-serving threads — the
/// storage shape [`crate::routing::RoutingEngine`] is built on. The
/// borrowing constructors ([`HybridCost::new`],
/// [`HybridCost::from_ground_truth`]) clone the graph and model once;
/// callers that already hold shared handles use
/// [`HybridCost::from_parts`] for zero-copy construction.
#[derive(Clone, Debug)]
pub struct HybridCost {
    graph: Arc<RoadGraph>,
    model: Arc<HybridModel>,
    marginals: Arc<[Histogram]>,
    /// Combination policy (swappable for baselines/ablations).
    pub policy: CombinePolicy,
}

/// A pre-distribution staged by [`HybridCost::stage_pre`]: the borrowed
/// view plus, when the staging policy reads features, its summary.
#[derive(Copy, Clone, Debug)]
pub struct StagedPre<'a> {
    view: HistogramView<'a>,
    summary: Option<PreSummary>,
}

impl StagedPre<'_> {
    /// The staged summary; computed on the spot when staging skipped it
    /// (`policy` is a public field, so it may have changed since).
    fn summary(&self) -> PreSummary {
        self.summary.unwrap_or_else(|| PreSummary::of(&self.view))
    }
}

impl HybridCost {
    /// Builds a cost oracle from explicit per-edge marginals, cloning
    /// `graph` and `model` into shared ownership.
    ///
    /// # Panics
    /// Panics if `marginals.len() != graph.num_edges()`.
    pub fn new(
        graph: &RoadGraph,
        model: &HybridModel,
        marginals: Vec<Histogram>,
        policy: CombinePolicy,
    ) -> Self {
        Self::from_parts(
            Arc::new(graph.clone()),
            Arc::new(model.clone()),
            marginals.into(),
            policy,
        )
    }

    /// Builds a cost oracle from shared handles without copying any of
    /// the underlying data.
    ///
    /// # Panics
    /// Panics if `marginals.len() != graph.num_edges()`.
    pub fn from_parts(
        graph: Arc<RoadGraph>,
        model: Arc<HybridModel>,
        marginals: Arc<[Histogram]>,
        policy: CombinePolicy,
    ) -> Self {
        assert_eq!(
            marginals.len(),
            graph.num_edges(),
            "one marginal per edge required"
        );
        HybridCost {
            graph,
            model,
            marginals,
            policy,
        }
    }

    /// Convenience: marginals straight from a synthetic world's
    /// ground-truth oracle.
    pub fn from_ground_truth(
        world: &SyntheticWorld,
        model: &HybridModel,
        policy: CombinePolicy,
    ) -> Self {
        let marginals = world
            .graph
            .edge_ids()
            .map(|e| world.ground_truth.marginal(e).clone())
            .collect();
        Self::new(&world.graph, model, marginals, policy)
    }

    /// The underlying road network.
    pub fn graph(&self) -> &RoadGraph {
        &self.graph
    }

    /// Shared handle to the underlying road network.
    pub fn graph_arc(&self) -> Arc<RoadGraph> {
        Arc::clone(&self.graph)
    }

    /// The hybrid model in use.
    pub fn model(&self) -> &HybridModel {
        &self.model
    }

    /// Shared handle to the per-edge marginals.
    pub fn marginals_arc(&self) -> Arc<[Histogram]> {
        Arc::clone(&self.marginals)
    }

    /// Travel-time marginal of edge `e`.
    pub fn marginal(&self, e: EdgeId) -> &Histogram {
        &self.marginals[e.index()]
    }

    /// Combines the path-so-far distribution `pre` (whose last edge is
    /// `prev_edge`) with `next_edge` under the configured policy.
    ///
    /// A thin wrapper over [`HybridCost::combine_pooled`] (temporaries
    /// from the thread-local pool) — bit-identical to the pooled form by
    /// construction.
    pub fn combine(&self, pre: &Histogram, prev_edge: EdgeId, next_edge: EdgeId) -> Histogram {
        with_local_pool(|pool| self.combine_pooled(&pre.view(), prev_edge, next_edge, None, pool))
    }

    /// Stages `pre` for combining with any number of next edges: under a
    /// policy that reads features, its [`PreSummary`] is computed here,
    /// once, instead of once per combine. The routing engine stages each
    /// popped label before walking its out-edges.
    pub fn stage_pre<'a>(&self, pre: HistogramView<'a>) -> StagedPre<'a> {
        let summary = (self.policy != CombinePolicy::AlwaysConvolve).then(|| PreSummary::of(&pre));
        StagedPre { view: pre, summary }
    }

    /// In-place core of the combine step: writes the combined masses into
    /// `out`, raw in the [`HistogramBuf`] sense (one normalization
    /// pending, applied by `out.into_histogram()`). Returns a
    /// [`CombineOutcome`] (which arm ran, and which convolution route).
    /// Neither arm takes a temporary from `pool` (a capped convolution,
    /// equal widths or not, checks nothing out); with a warm pool the
    /// step performs zero heap allocation.
    pub fn combine_into(
        &self,
        pre: &StagedPre<'_>,
        prev_edge: EdgeId,
        next_edge: EdgeId,
        out: &mut HistogramBuf,
        pool: &mut HistogramPool,
    ) -> CombineOutcome {
        let next_marginal = self.marginal(next_edge);
        match self.policy {
            CombinePolicy::Hybrid => self.model.combine_into(
                &self.graph,
                &pre.view,
                &pre.summary(),
                prev_edge,
                next_edge,
                next_marginal,
                out,
                pool,
            ),
            CombinePolicy::AlwaysConvolve => {
                let route = self
                    .model
                    .convolve_into(&pre.view, next_marginal, out, pool);
                CombineOutcome {
                    used_estimator: false,
                    route: Some(route),
                }
            }
            CombinePolicy::AlwaysEstimate => {
                let features =
                    pre.summary()
                        .assemble(&self.graph, prev_edge, next_edge, next_marginal);
                self.model
                    .estimate_into(&pre.view, next_marginal, &features, out);
                CombineOutcome {
                    used_estimator: true,
                    route: None,
                }
            }
        }
    }

    /// The search's combine-and-cap step on pooled storage: combines
    /// `pre` with `next_edge`, optionally re-bins the result down to
    /// `max_bins` buckets, and promotes it to a [`Histogram`] whose mass
    /// vector was drawn from `pool`. Equivalent — bit for bit — to
    /// `combine(..)` followed by `with_bins(max_bins)` when the result
    /// exceeds the cap; this is the one code path both the routing engine
    /// and the oracle router execute, which is what keeps their
    /// semantics identical.
    pub fn combine_pooled(
        &self,
        pre: &HistogramView<'_>,
        prev_edge: EdgeId,
        next_edge: EdgeId,
        max_bins: Option<usize>,
        pool: &mut HistogramPool,
    ) -> Histogram {
        self.combine_pooled_traced(pre, prev_edge, next_edge, max_bins, pool)
            .0
    }

    /// [`HybridCost::combine_pooled`] plus the step's [`CombineOutcome`].
    /// Stages `pre` and runs [`HybridCost::combine_staged_traced`], so a
    /// one-off combine and the engine's staged expansion are the same
    /// code.
    pub fn combine_pooled_traced(
        &self,
        pre: &HistogramView<'_>,
        prev_edge: EdgeId,
        next_edge: EdgeId,
        max_bins: Option<usize>,
        pool: &mut HistogramPool,
    ) -> (Histogram, CombineOutcome) {
        self.combine_staged_traced(&self.stage_pre(*pre), prev_edge, next_edge, max_bins, pool)
    }

    /// The combine-and-cap step over an already staged pre-distribution
    /// — the form the routing engine calls, once per out-edge of the
    /// label it staged, and whose [`CombineOutcome`] feeds its
    /// `lattice_fast_path` counter without a second dispatch.
    pub fn combine_staged_traced(
        &self,
        pre: &StagedPre<'_>,
        prev_edge: EdgeId,
        next_edge: EdgeId,
        max_bins: Option<usize>,
        pool: &mut HistogramPool,
    ) -> (Histogram, CombineOutcome) {
        let mut out = pool.checkout();
        let outcome = self.combine_into(pre, prev_edge, next_edge, &mut out, pool);
        if let Some(cap) = max_bins {
            out.cap_bins(cap, pool).expect("bin cap is positive");
        }
        let h = out
            .into_histogram()
            .expect("combining valid histograms yields a valid histogram");
        (h, outcome)
    }

    /// Full travel-time distribution of a path (edges in travel order).
    /// Returns `None` for an empty path.
    pub fn path_distribution(&self, edges: &[EdgeId]) -> Option<Histogram> {
        with_local_pool(|pool| self.path_distribution_pooled(edges, pool))
    }

    /// [`HybridCost::path_distribution`] folding through `pool`: every
    /// intermediate prefix distribution is recycled, and the returned
    /// histogram's mass vector is checked out of the pool (it does *not*
    /// return on drop — recycle it explicitly to keep a pool's
    /// steady-state accounting allocation-free).
    pub fn path_distribution_pooled(
        &self,
        edges: &[EdgeId],
        pool: &mut HistogramPool,
    ) -> Option<Histogram> {
        let (&first, rest) = edges.split_first()?;
        let mut dist = self.marginal(first).pooled_clone(pool);
        let mut prev = first;
        for &e in rest {
            let next = self.combine_pooled(&dist.view(), prev, e, None, pool);
            pool.recycle(std::mem::replace(&mut dist, next));
            prev = e;
        }
        Some(dist)
    }

    /// On-time probability of a path under budget `t` seconds.
    pub fn prob_within(&self, edges: &[EdgeId], t: f64) -> f64 {
        match self.path_distribution(edges) {
            Some(d) => d.prob_within(t),
            None => 1.0, // the empty path arrives instantly
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::training::{train_hybrid, TrainingConfig};
    use srt_ml::forest::ForestConfig;
    use srt_synth::WorldConfig;

    fn setup() -> (SyntheticWorld, HybridModel) {
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
        let (model, _) = train_hybrid(&world, &cfg).unwrap();
        (world, model)
    }

    #[test]
    fn path_distribution_mean_grows_with_length() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let traj = &world.trajectories[0];
        let mut last_mean = 0.0;
        for k in 1..=traj.edges.len().min(6) {
            let d = cost.path_distribution(&traj.edges[..k]).unwrap();
            assert!(d.mean() > last_mean, "mean must grow along the path");
            last_mean = d.mean();
        }
    }

    #[test]
    fn empty_path_has_no_distribution_but_prob_one() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        assert!(cost.path_distribution(&[]).is_none());
        assert_eq!(cost.prob_within(&[], 10.0), 1.0);
    }

    #[test]
    fn single_edge_distribution_is_the_marginal() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let e = EdgeId(0);
        assert_eq!(cost.path_distribution(&[e]).unwrap(), *cost.marginal(e));
    }

    #[test]
    fn policies_differ_on_some_path() {
        let (world, model) = setup();
        let hybrid = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let conv = HybridCost::from_ground_truth(&world, &model, CombinePolicy::AlwaysConvolve);
        let est = HybridCost::from_ground_truth(&world, &model, CombinePolicy::AlwaysEstimate);
        // Find a trajectory long enough that the policies diverge.
        let mut any_diff = false;
        for traj in world.trajectories.iter().take(20) {
            if traj.edges.len() < 4 {
                continue;
            }
            let edges = &traj.edges[..4];
            let dc = conv.path_distribution(edges).unwrap();
            let de = est.path_distribution(edges).unwrap();
            let dh = hybrid.path_distribution(edges).unwrap();
            if dc != de || dh != dc {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "policies never diverged");
    }

    #[test]
    fn prob_within_is_monotone_in_budget() {
        let (world, model) = setup();
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        let traj = &world.trajectories[0];
        let edges = &traj.edges[..traj.edges.len().min(5)];
        let d = cost.path_distribution(edges).unwrap();
        let budgets = [d.start(), d.mean(), d.end()];
        let probs: Vec<f64> = budgets
            .iter()
            .map(|&b| cost.prob_within(edges, b))
            .collect();
        assert!(probs[0] <= probs[1] && probs[1] <= probs[2]);
        assert!(probs[2] >= 0.99);
    }

    #[test]
    #[should_panic(expected = "one marginal per edge")]
    fn mismatched_marginals_panic() {
        let (world, model) = setup();
        let _ = HybridCost::new(&world.graph, &model, vec![], CombinePolicy::Hybrid);
    }
}

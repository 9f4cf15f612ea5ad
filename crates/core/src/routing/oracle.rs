//! The exhaustive oracle router: brute-force path enumeration with **no
//! pruning**, used to certify that pruning never changes the returned
//! policy (differential testing against exact enumeration).
//!
//! The oracle mirrors the budget router's cost semantics *exactly* —
//! same combine operator, same per-step bucket cap, same U-turn rule,
//! same pivot contribution — and differs only in strategy: it walks every
//! feasible extension instead of maintaining a pruned label queue. On the
//! small worlds the differential suite uses, a sound pruning
//! configuration must therefore reproduce the oracle's probability
//! bit-for-bit (up to an explicit float tolerance).
//!
//! Enumeration is kept finite by the same always-sound feasibility cut
//! the router's budget gate applies (a walk whose best case misses the
//! budget contributes zero probability, as does every extension of it),
//! plus an explicit expansion cap: a query whose walk space exceeds the
//! cap yields `None` rather than a partial answer.

use crate::cost::HybridCost;
use crate::routing::baseline::ExpectedTimeBaseline;
use crate::routing::budget::RouterConfig;
use srt_dist::{Histogram, HistogramPool};
use srt_graph::algo::Path;
use srt_graph::bounds::OptimisticBounds;
use srt_graph::{EdgeId, NodeId};

/// The oracle's answer to a budget query.
#[derive(Clone, Debug)]
pub struct OracleRoute {
    /// The maximum on-time probability over every enumerated path (and
    /// the pivot, when enabled).
    pub probability: f64,
    /// A path realizing it (`None` only when the target is unreachable).
    pub path: Option<Path>,
    /// Complete source→target paths enumerated.
    pub paths_enumerated: usize,
    /// Edge expansions performed (the enumeration's work measure).
    pub expansions: usize,
}

/// Exhaustive budget router over a fixed cost oracle.
pub struct OracleRouter<'a> {
    cost: &'a HybridCost,
    max_bins: usize,
    use_pivot: bool,
}

struct Enumeration<'b> {
    cost: &'b HybridCost,
    bounds: &'b OptimisticBounds,
    budget_s: f64,
    target: NodeId,
    max_bins: usize,
    cap: usize,
    expansions: usize,
    paths: usize,
    best: f64,
    best_edges: Option<Vec<EdgeId>>,
    edges: Vec<EdgeId>,
    overflow: bool,
    /// Walk-prefix distributions are pooled: each recursion level's
    /// combined histogram is recycled when the walk backtracks, so the
    /// enumeration allocates proportionally to walk *depth*, not to the
    /// (exponential) number of walks. Semantics are untouched — the
    /// combine runs through the same `combine_pooled` path the engine
    /// uses, which is the point: the oracle stays the soundness
    /// reference.
    pool: HistogramPool,
}

impl Enumeration<'_> {
    /// Records a complete path, mirroring the router's incumbent rule
    /// (the first complete path is kept even at probability zero).
    fn complete(&mut self, prob: f64) {
        self.paths += 1;
        if prob > self.best || self.best_edges.is_none() {
            self.best = self.best.max(prob);
            self.best_edges = Some(self.edges.clone());
        }
    }

    /// Extends the walk ending at `vertex` (last edge `prev_edge`, which
    /// departed `prev_vertex`) carrying distribution `dist`.
    fn extend(&mut self, vertex: NodeId, prev_edge: EdgeId, prev_vertex: NodeId, dist: &Histogram) {
        if self.overflow {
            return;
        }
        let g = self.cost.graph();
        for (e, head) in g.out_edges(vertex) {
            if head == prev_vertex {
                continue; // the router never takes immediate U-turns
            }
            if !self.bounds.reachable(head) {
                continue;
            }
            self.expansions += 1;
            if self.expansions > self.cap {
                self.overflow = true;
                return;
            }
            let next = self.cost.combine_pooled(
                &dist.view(),
                prev_edge,
                e,
                Some(self.max_bins),
                &mut self.pool,
            );
            self.edges.push(e);
            if head == self.target {
                let prob = next.prob_within(self.budget_s);
                self.complete(prob);
            } else if self.budget_s - self.bounds.remaining(head) > next.start() {
                // Feasible: some completion can still arrive on time.
                self.extend(head, e, vertex, &next);
            }
            self.edges.pop();
            self.pool.recycle(next);
            if self.overflow {
                return;
            }
        }
    }
}

impl<'a> OracleRouter<'a> {
    /// Creates an oracle mirroring `cfg`'s cost semantics (bucket cap and
    /// pivot participation; the pruning policies are irrelevant — that is
    /// the point).
    pub fn from_config(cost: &'a HybridCost, cfg: &RouterConfig) -> Self {
        OracleRouter {
            cost,
            max_bins: cfg.max_bins,
            use_pivot: cfg.use_pivot_init,
        }
    }

    /// Creates an oracle with the default router semantics.
    pub fn new(cost: &'a HybridCost) -> Self {
        Self::from_config(cost, &RouterConfig::default())
    }

    /// Exhaustively solves one budget query, enumerating at most
    /// `max_expansions` edge extensions. Returns `None` when the walk
    /// space exceeds the cap (the query is too large to certify).
    pub fn route(
        &self,
        source: NodeId,
        target: NodeId,
        budget_s: f64,
        max_expansions: usize,
    ) -> Option<OracleRoute> {
        let g = self.cost.graph();

        // Degenerate budgets: mirrored from the router.
        if !budget_s.is_finite() || budget_s < 0.0 {
            let baseline = ExpectedTimeBaseline::solve(self.cost, source, target, 0.0);
            return Some(OracleRoute {
                probability: 0.0,
                path: baseline.map(|b| b.path),
                paths_enumerated: 0,
                expansions: 0,
            });
        }
        if source == target {
            return Some(OracleRoute {
                probability: 1.0,
                path: Some(Path {
                    nodes: vec![source],
                    edges: vec![],
                }),
                paths_enumerated: 1,
                expansions: 0,
            });
        }

        let bounds =
            OptimisticBounds::compute(g, target, |e| self.cost.marginal(e).start().max(0.0));
        if !bounds.reachable(source) {
            return Some(OracleRoute {
                probability: 0.0,
                path: None,
                paths_enumerated: 0,
                expansions: 0,
            });
        }

        let mut en = Enumeration {
            cost: self.cost,
            bounds: &bounds,
            budget_s,
            target,
            max_bins: self.max_bins,
            cap: max_expansions,
            expansions: 0,
            paths: 0,
            best: 0.0,
            best_edges: None,
            edges: Vec::new(),
            overflow: false,
            pool: HistogramPool::new(),
        };

        // Seed walks with the source's out-edges; the seed marginal is
        // deliberately *not* bucket-capped, mirroring the router.
        for (e, head) in g.out_edges(source) {
            if !bounds.reachable(head) {
                continue;
            }
            en.expansions += 1;
            if en.expansions > en.cap {
                en.overflow = true;
                break;
            }
            let dist = self.cost.marginal(e).pooled_clone(&mut en.pool);
            en.edges.push(e);
            if head == target {
                let prob = dist.prob_within(budget_s);
                en.complete(prob);
            } else if budget_s - bounds.remaining(head) > dist.start() {
                en.extend(head, e, source, &dist);
            }
            en.edges.pop();
            en.pool.recycle(dist);
            if en.overflow {
                break;
            }
        }
        if en.overflow {
            return None;
        }

        let mut probability = en.best;
        let mut best_edges = en.best_edges;

        // Pruning (b)'s pivot also participates in the router's maximum —
        // with its *uncapped* full-path distribution, mirrored here.
        if self.use_pivot {
            if let Some(b) = ExpectedTimeBaseline::solve(self.cost, source, target, budget_s) {
                if b.probability > probability || best_edges.is_none() {
                    probability = probability.max(b.probability);
                    best_edges = Some(b.path.edges);
                }
            }
        }

        let path = best_edges.map(|edges| {
            let mut nodes = Vec::with_capacity(edges.len() + 1);
            nodes.push(source);
            for &e in &edges {
                nodes.push(g.edge_target(e));
            }
            Path { nodes, edges }
        });
        Some(OracleRoute {
            probability,
            path,
            paths_enumerated: en.paths,
            expansions: en.expansions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CombinePolicy;
    use crate::model::training::{train_hybrid, TrainingConfig};
    use crate::routing::engine::{EngineBuilder, Query};
    use crate::routing::policy::{BoundMode, DominanceMode};
    use crate::HybridModel;
    use srt_ml::forest::ForestConfig;
    use srt_synth::{SyntheticWorld, WorldConfig};
    use std::sync::OnceLock;

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

    /// Queries with a tight budget so the oracle's walk space stays
    /// small: (source, target, 1.02 × expected shortest time).
    fn tight_queries(
        world: &SyntheticWorld,
        cost: &HybridCost,
        n: usize,
    ) -> Vec<(NodeId, NodeId, f64)> {
        let g = &world.graph;
        let mut out = Vec::new();
        for s in 0..g.num_nodes() as u32 {
            if out.len() >= n {
                break;
            }
            let t = (s + g.num_nodes() as u32 / 3) % g.num_nodes() as u32;
            let (s, t) = (NodeId(s), NodeId(t));
            if s == t {
                continue;
            }
            let exp =
                srt_graph::algo::dijkstra(g, s, Some(t), |e| cost.marginal(e).mean()).distance(t);
            if exp.is_finite() {
                out.push((s, t, exp * 1.02));
            }
        }
        out
    }

    #[test]
    fn oracle_agrees_with_the_unpruned_router() {
        let (world, model) = fixture();
        let cost = HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid);
        let cfg = RouterConfig {
            bound: BoundMode::Off,
            dominance: DominanceMode::Off,
            use_pivot_init: false,
            ..RouterConfig::default()
        };
        let engine = EngineBuilder::new(cost.clone()).config(cfg).build();
        let oracle = OracleRouter::from_config(&cost, &cfg);
        let mut certified = 0;
        for (s, t, budget) in tight_queries(world, &cost, 12) {
            let Some(o) = oracle.route(s, t, budget, 400_000) else {
                continue; // walk space too large for this query
            };
            let r = engine.route(&Query::new(s, t, budget)).unwrap();
            assert!(r.stats.completed, "unpruned router must finish");
            assert!(
                (r.probability - o.probability).abs() < 1e-9,
                "{s:?}->{t:?} budget {budget}: router {} vs oracle {}",
                r.probability,
                o.probability
            );
            certified += 1;
        }
        assert!(certified >= 4, "too few queries fit the oracle cap");
    }

    #[test]
    fn oracle_handles_degenerate_queries_like_the_router() {
        let (world, model) = fixture();
        let cost = HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid);
        let oracle = OracleRouter::new(&cost);
        let same = oracle.route(NodeId(3), NodeId(3), 50.0, 1000).unwrap();
        assert_eq!(same.probability, 1.0);
        assert!(same.path.unwrap().is_empty());
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let r = oracle.route(NodeId(0), NodeId(5), bad, 1000).unwrap();
            assert_eq!(r.probability, 0.0, "budget {bad}");
        }
    }

    #[test]
    fn expansion_cap_reports_overflow() {
        let (world, model) = fixture();
        let cost = HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid);
        let oracle = OracleRouter::new(&cost);
        let (s, t, budget) = tight_queries(world, &cost, 1)[0];
        assert!(
            oracle.route(s, t, budget, 1).is_none(),
            "cap of 1 must overflow"
        );
    }
}

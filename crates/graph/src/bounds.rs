//! Optimistic remaining-cost bounds (pruning (a) of the paper).
//!
//! For a budget query towards destination `d`, the routing search needs a
//! lower bound on the travel time still ahead of every touched vertex. One
//! backward Dijkstra over *minimal* (free-flow) edge times yields the exact
//! optimistic cost `tmin(v)` for every vertex — the tightest bound
//! obtainable without distributional information, and the "A*-inspired
//! optimistic cost of reaching the destination for each vertex" the paper
//! describes.

use crate::algo::backward_dijkstra;
use crate::csr::RoadGraph;
use crate::ids::{EdgeId, NodeId};

/// Per-vertex lower bounds on the cost of reaching a fixed target.
#[derive(Clone, Debug)]
pub struct OptimisticBounds {
    target: NodeId,
    to_target: Vec<f64>,
}

impl OptimisticBounds {
    /// Computes bounds towards `target` under `min_weight`, which must be a
    /// lower bound on any realizable traversal cost of each edge.
    pub fn compute<W>(g: &RoadGraph, target: NodeId, min_weight: W) -> Self
    where
        W: Fn(EdgeId) -> f64,
    {
        OptimisticBounds {
            target,
            to_target: backward_dijkstra(g, target, min_weight),
        }
    }

    /// Convenience: bounds under free-flow (speed-limit) travel times.
    pub fn freeflow(g: &RoadGraph, target: NodeId) -> Self {
        Self::compute(g, target, |e| g.attrs(e).freeflow_time_s())
    }

    /// The target these bounds point at.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// Lower bound on the cost of any `v -> target` path
    /// (`INFINITY` if the target is unreachable from `v`).
    #[inline]
    pub fn remaining(&self, v: NodeId) -> f64 {
        self.to_target[v.index()]
    }

    /// `true` if the target is reachable from `v` at all.
    #[inline]
    pub fn reachable(&self, v: NodeId) -> bool {
        self.to_target[v.index()].is_finite()
    }

    /// Number of vertices that can reach the target.
    pub fn num_reachable(&self) -> usize {
        self.to_target.iter().filter(|d| d.is_finite()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::edge::{EdgeAttrs, RoadCategory};
    use crate::geometry::Point;

    fn grid3() -> RoadGraph {
        // 3x3 bidirectional grid, 100 m edges at 10 m/s.
        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                ids.push(b.add_node(Point::new(x as f64 * 0.001, y as f64 * 0.001)));
            }
        }
        let a = EdgeAttrs::new(100.0, RoadCategory::Residential, 36.0);
        for y in 0..3 {
            for x in 0..3 {
                let i = y * 3 + x;
                if x + 1 < 3 {
                    b.add_bidirectional(ids[i], ids[i + 1], a);
                }
                if y + 1 < 3 {
                    b.add_bidirectional(ids[i], ids[i + 3], a);
                }
            }
        }
        b.build()
    }

    #[test]
    fn bound_at_target_is_zero() {
        let g = grid3();
        let b = OptimisticBounds::freeflow(&g, NodeId(4));
        assert_eq!(b.remaining(NodeId(4)), 0.0);
        assert_eq!(b.target(), NodeId(4));
    }

    #[test]
    fn bounds_are_manhattan_times_on_grid() {
        let g = grid3();
        let b = OptimisticBounds::freeflow(&g, NodeId(8)); // corner (2,2)
                                                           // Node 0 at (0,0): 4 edges x 10 s.
        assert!((b.remaining(NodeId(0)) - 40.0).abs() < 1e-9);
        // Node 5 at (2,1): 1 edge.
        assert!((b.remaining(NodeId(5)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn bound_is_admissible_for_every_vertex() {
        let g = grid3();
        let w = |e: crate::ids::EdgeId| g.attrs(e).freeflow_time_s();
        let b = OptimisticBounds::freeflow(&g, NodeId(7));
        for v in g.node_ids() {
            let true_cost = crate::algo::dijkstra(&g, v, Some(NodeId(7)), w).distance(NodeId(7));
            assert!(b.remaining(v) <= true_cost + 1e-9);
        }
    }

    #[test]
    fn all_grid_vertices_reach_target() {
        let g = grid3();
        let b = OptimisticBounds::freeflow(&g, NodeId(0));
        assert_eq!(b.num_reachable(), 9);
        assert!(b.reachable(NodeId(8)));
    }

    #[test]
    fn unreachable_vertex_reports_infinite_bound() {
        let mut gb = GraphBuilder::new();
        let a = gb.add_node(Point::new(0.0, 0.0));
        let c = gb.add_node(Point::new(0.1, 0.0));
        gb.add_edge(a, c, EdgeAttrs::new(100.0, RoadCategory::Residential, 36.0));
        let g = gb.build();
        let b = OptimisticBounds::freeflow(&g, a);
        assert!(!b.reachable(c));
        assert_eq!(b.num_reachable(), 1);
    }
}

//! Compressed-sparse-row road-network graph.
//!
//! Both forward (out-edges) and reverse (in-edges) adjacency are stored so
//! that goal-directed searches (backward Dijkstra for optimistic bounds)
//! need no on-the-fly transposition. All arrays are index-aligned:
//! `edge_from[e] -> edge_to[e]` with attributes `attrs[e]`.

use crate::edge::EdgeAttrs;
use crate::geometry::{turn_angle_deg, Point};
use crate::ids::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};

/// An immutable directed road network in CSR form.
///
/// Construct via [`crate::GraphBuilder`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoadGraph {
    pub(crate) points: Vec<Point>,
    // Forward CSR: out-edges of node v live at out_{targets,edges}[out_offsets[v]..out_offsets[v+1]].
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_targets: Vec<NodeId>,
    pub(crate) out_edge_ids: Vec<EdgeId>,
    // Reverse CSR: in-edges of node v.
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_sources: Vec<NodeId>,
    pub(crate) in_edge_ids: Vec<EdgeId>,
    // Edge-indexed arrays.
    pub(crate) edge_from: Vec<NodeId>,
    pub(crate) edge_to: Vec<NodeId>,
    pub(crate) attrs: Vec<EdgeAttrs>,
}

impl RoadGraph {
    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.attrs.len()
    }

    /// Coordinates of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn point(&self, v: NodeId) -> Point {
        self.points[v.index()]
    }

    /// Attributes of edge `e`.
    ///
    /// # Panics
    /// Panics if `e` is out of bounds.
    #[inline]
    pub fn attrs(&self, e: EdgeId) -> &EdgeAttrs {
        &self.attrs[e.index()]
    }

    /// Source vertex of edge `e`.
    #[inline]
    pub fn edge_source(&self, e: EdgeId) -> NodeId {
        self.edge_from[e.index()]
    }

    /// Target vertex of edge `e`.
    #[inline]
    pub fn edge_target(&self, e: EdgeId) -> NodeId {
        self.edge_to[e.index()]
    }

    /// `(source, target)` endpoints of edge `e`.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        (self.edge_source(e), self.edge_target(e))
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.out_offsets[i + 1] - self.out_offsets[i]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.in_offsets[i + 1] - self.in_offsets[i]) as usize
    }

    /// Iterates `(edge, head)` over the out-edges of `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let i = v.index();
        let range = self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize;
        self.out_edge_ids[range.clone()]
            .iter()
            .copied()
            .zip(self.out_targets[range].iter().copied())
    }

    /// Iterates `(edge, tail)` over the in-edges of `v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let i = v.index();
        let range = self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize;
        self.in_edge_ids[range.clone()]
            .iter()
            .copied()
            .zip(self.in_sources[range].iter().copied())
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.num_edges() as u32).map(EdgeId)
    }

    /// Iterates over all *consecutive edge pairs* `(e1, e2)` where
    /// `e1` enters some vertex `v` and `e2` leaves `v`, excluding immediate
    /// U-turns back over the same segment pair of a bidirectional road
    /// (`target(e2) == source(e1)` with matching geometry is allowed —
    /// only exact reverse edge ids are not distinguishable here, so the
    /// filter is purely `source(e1) != target(e2)` when lengths match).
    ///
    /// These pairs are the training/inference unit of the hybrid model.
    pub fn edge_pairs(&self) -> impl Iterator<Item = (EdgeId, EdgeId)> + '_ {
        self.node_ids().flat_map(move |v| {
            self.in_edges(v).flat_map(move |(e1, tail)| {
                self.out_edges(v).filter_map(move |(e2, head)| {
                    // Skip trivial U-turns (returning to the tail vertex).
                    if head == tail {
                        None
                    } else {
                        Some((e1, e2))
                    }
                })
            })
        })
    }

    /// Turn angle in degrees `[0, 180]` between consecutive edges `e1 -> e2`.
    ///
    /// Returns `None` if the edges are not consecutive
    /// (`target(e1) != source(e2)`).
    pub fn turn_angle(&self, e1: EdgeId, e2: EdgeId) -> Option<f64> {
        let (a, b) = self.edge_endpoints(e1);
        let (b2, c) = self.edge_endpoints(e2);
        if b != b2 {
            return None;
        }
        Some(turn_angle_deg(
            &self.point(a),
            &self.point(b),
            &self.point(c),
        ))
    }

    /// Total length in metres over a slice of edges.
    pub fn path_length_m(&self, edges: &[EdgeId]) -> f64 {
        edges.iter().map(|&e| self.attrs(e).length_m).sum()
    }

    /// `true` if `e` is a valid edge id of this graph.
    #[inline]
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        e.index() < self.num_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::edge::RoadCategory;

    /// Small diamond: 0 -> 1 -> 3, 0 -> 2 -> 3, plus 1 -> 2.
    fn diamond() -> RoadGraph {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Point::new(10.00, 56.00));
        let n1 = b.add_node(Point::new(10.01, 56.01));
        let n2 = b.add_node(Point::new(10.01, 55.99));
        let n3 = b.add_node(Point::new(10.02, 56.00));
        b.add_edge(n0, n1, EdgeAttrs::with_default_speed(900.0, RoadCategory::Primary));
        b.add_edge(n0, n2, EdgeAttrs::with_default_speed(800.0, RoadCategory::Secondary));
        b.add_edge(n1, n3, EdgeAttrs::with_default_speed(700.0, RoadCategory::Primary));
        b.add_edge(n2, n3, EdgeAttrs::with_default_speed(600.0, RoadCategory::Secondary));
        b.add_edge(n1, n2, EdgeAttrs::with_default_speed(2200.0, RoadCategory::Residential));
        b.build()
    }

    #[test]
    fn counts_match_inserts() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn out_edges_enumerate_heads() {
        let g = diamond();
        let heads: Vec<u32> = g.out_edges(NodeId(0)).map(|(_, h)| h.0).collect();
        assert_eq!(heads, vec![1, 2]);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.out_degree(NodeId(3)), 0);
    }

    #[test]
    fn in_edges_enumerate_tails() {
        let g = diamond();
        let mut tails: Vec<u32> = g.in_edges(NodeId(3)).map(|(_, t)| t.0).collect();
        tails.sort_unstable();
        assert_eq!(tails, vec![1, 2]);
        assert_eq!(g.in_degree(NodeId(0)), 0);
    }

    #[test]
    fn endpoints_are_consistent_with_adjacency() {
        let g = diamond();
        for v in g.node_ids() {
            for (e, head) in g.out_edges(v) {
                assert_eq!(g.edge_source(e), v);
                assert_eq!(g.edge_target(e), head);
            }
            for (e, tail) in g.in_edges(v) {
                assert_eq!(g.edge_target(e), v);
                assert_eq!(g.edge_source(e), tail);
            }
        }
    }

    #[test]
    fn edge_pairs_are_consecutive_and_skip_u_turns() {
        let g = diamond();
        let pairs: Vec<(EdgeId, EdgeId)> = g.edge_pairs().collect();
        assert!(!pairs.is_empty());
        for (e1, e2) in &pairs {
            assert_eq!(g.edge_target(*e1), g.edge_source(*e2));
            assert_ne!(g.edge_source(*e1), g.edge_target(*e2), "U-turn pair leaked");
        }
        // 0->1 then 1->3 must be present; 0->1 then 1->... back to 0 impossible here.
        assert!(pairs.contains(&(EdgeId(0), EdgeId(2))));
    }

    #[test]
    fn turn_angle_requires_consecutive_edges() {
        let g = diamond();
        // e0 = 0->1, e2 = 1->3 are consecutive; e0, e3 (2->3) are not.
        assert!(g.turn_angle(EdgeId(0), EdgeId(2)).is_some());
        assert!(g.turn_angle(EdgeId(0), EdgeId(3)).is_none());
    }

    #[test]
    fn path_aggregates_sum_edges() {
        let g = diamond();
        let edges = [EdgeId(0), EdgeId(2)];
        assert!((g.path_length_m(&edges) - 1600.0).abs() < 1e-9);
    }

    #[test]
    fn contains_checks_bounds() {
        let g = diamond();
        assert!(g.contains_edge(EdgeId(4)));
        assert!(!g.contains_edge(EdgeId(5)));
    }
}

//! Incremental construction of [`RoadGraph`]s.

use crate::csr::RoadGraph;
use crate::edge::EdgeAttrs;
use crate::error::GraphError;
use crate::geometry::Point;
use crate::ids::{EdgeId, NodeId};

/// Mutable accumulator that freezes into an immutable CSR [`RoadGraph`].
///
/// Edges are kept in insertion order, so `EdgeId(k)` refers to the `k`-th
/// `add_edge` call — synthetic generators rely on that stability.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    points: Vec<Point>,
    edges: Vec<(NodeId, NodeId, EdgeAttrs)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with pre-reserved capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            points: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a vertex at `p` and returns its id.
    pub fn add_node(&mut self, p: Point) -> NodeId {
        let id = NodeId::from_index(self.points.len());
        self.points.push(p);
        id
    }

    /// Adds a directed edge `from -> to` and returns its id.
    ///
    /// Endpoints are validated at [`GraphBuilder::build`] time so bulk
    /// generators can interleave node and edge insertion freely.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, attrs: EdgeAttrs) -> EdgeId {
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push((from, to, attrs));
        id
    }

    /// Adds a pair of directed edges `a <-> b` with identical attributes,
    /// returning `(a->b, b->a)`. Convenience for bidirectional roads.
    pub fn add_bidirectional(
        &mut self,
        a: NodeId,
        b: NodeId,
        attrs: EdgeAttrs,
    ) -> (EdgeId, EdgeId) {
        (self.add_edge(a, b, attrs), self.add_edge(b, a, attrs))
    }

    /// Validates endpoints and freezes into a CSR graph.
    ///
    /// # Errors
    /// [`GraphError::DanglingEndpoint`] if any edge references a node id
    /// that was never added.
    pub fn try_build(self) -> Result<RoadGraph, GraphError> {
        let n = self.points.len();
        for (i, (from, to, _)) in self.edges.iter().enumerate() {
            if from.index() >= n {
                return Err(GraphError::DanglingEndpoint {
                    edge_index: i,
                    node: *from,
                });
            }
            if to.index() >= n {
                return Err(GraphError::DanglingEndpoint {
                    edge_index: i,
                    node: *to,
                });
            }
        }

        let m = self.edges.len();
        let mut edge_from = Vec::with_capacity(m);
        let mut edge_to = Vec::with_capacity(m);
        let mut attrs = Vec::with_capacity(m);
        for (from, to, a) in &self.edges {
            edge_from.push(*from);
            edge_to.push(*to);
            attrs.push(*a);
        }

        // Counting sort into forward CSR, preserving insertion order per node.
        let mut out_offsets = vec![0u32; n + 1];
        for from in &edge_from {
            out_offsets[from.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = vec![NodeId(0); m];
        let mut out_edge_ids = vec![EdgeId(0); m];
        let mut cursor = out_offsets.clone();
        for e in 0..m {
            let slot = cursor[edge_from[e].index()] as usize;
            out_targets[slot] = edge_to[e];
            out_edge_ids[slot] = EdgeId::from_index(e);
            cursor[edge_from[e].index()] += 1;
        }

        // Reverse CSR.
        let mut in_offsets = vec![0u32; n + 1];
        for to in &edge_to {
            in_offsets[to.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![NodeId(0); m];
        let mut in_edge_ids = vec![EdgeId(0); m];
        let mut cursor = in_offsets.clone();
        for e in 0..m {
            let slot = cursor[edge_to[e].index()] as usize;
            in_sources[slot] = edge_from[e];
            in_edge_ids[slot] = EdgeId::from_index(e);
            cursor[edge_to[e].index()] += 1;
        }

        Ok(RoadGraph {
            points: self.points,
            out_offsets,
            out_targets,
            out_edge_ids,
            in_offsets,
            in_sources,
            in_edge_ids,
            edge_from,
            edge_to,
            attrs,
        })
    }

    /// Like [`GraphBuilder::try_build`] but panics on dangling endpoints.
    ///
    /// # Panics
    /// Panics if any edge references an unknown node.
    pub fn build(self) -> RoadGraph {
        self.try_build().expect("graph builder validation failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::RoadCategory;

    fn attrs() -> EdgeAttrs {
        EdgeAttrs::with_default_speed(100.0, RoadCategory::Residential)
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn edge_ids_follow_insertion_order() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.0, 0.1));
        let e0 = b.add_edge(a, c, attrs());
        let e1 = b.add_edge(c, a, attrs());
        assert_eq!(e0, EdgeId(0));
        assert_eq!(e1, EdgeId(1));
        let g = b.build();
        assert_eq!(g.edge_endpoints(EdgeId(0)), (a, c));
        assert_eq!(g.edge_endpoints(EdgeId(1)), (c, a));
    }

    #[test]
    fn bidirectional_adds_both_directions() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.0, 0.1));
        let (fwd, bwd) = b.add_bidirectional(a, c, attrs());
        let g = b.build();
        assert_eq!(g.edge_endpoints(fwd), (a, c));
        assert_eq!(g.edge_endpoints(bwd), (c, a));
    }

    #[test]
    fn dangling_endpoint_is_rejected() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        b.add_edge(a, NodeId(7), attrs());
        match b.try_build() {
            Err(GraphError::DanglingEndpoint { edge_index, node }) => {
                assert_eq!(edge_index, 0);
                assert_eq!(node, NodeId(7));
            }
            other => panic!("expected DanglingEndpoint, got {other:?}"),
        }
    }

    #[test]
    fn self_loops_are_allowed() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        b.add_edge(a, a, attrs());
        let g = b.build();
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(a), 1);
    }

    #[test]
    fn parallel_edges_are_preserved() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.0, 0.1));
        b.add_edge(a, c, attrs());
        b.add_edge(a, c, attrs());
        let g = b.build();
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn with_capacity_does_not_change_semantics() {
        let mut b = GraphBuilder::with_capacity(10, 10);
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.0, 0.1));
        b.add_edge(a, c, attrs());
        assert_eq!(b.num_nodes(), 2);
        assert_eq!(b.num_edges(), 1);
        let g = b.build();
        assert_eq!(g.num_nodes(), 2);
    }
}

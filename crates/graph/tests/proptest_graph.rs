//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use srt_graph::algo::{backward_dijkstra, dijkstra, dijkstra_all, largest_scc};
use srt_graph::{EdgeAttrs, EdgeId, GraphBuilder, NodeId, OptimisticBounds, Point, RoadCategory};

/// A random strongly-ish connected digraph: a ring over all nodes (ensures
/// strong connectivity) plus arbitrary chords.
fn arb_graph() -> impl Strategy<Value = srt_graph::RoadGraph> {
    (
        3usize..20,
        proptest::collection::vec((0usize..20, 0usize..20, 50.0f64..2000.0), 0..40),
    )
        .prop_map(|(n, chords)| {
            let mut b = GraphBuilder::new();
            let ids: Vec<NodeId> = (0..n)
                .map(|i| b.add_node(Point::new(10.0 + 0.001 * i as f64, 56.0)))
                .collect();
            for i in 0..n {
                b.add_edge(
                    ids[i],
                    ids[(i + 1) % n],
                    EdgeAttrs::with_default_speed(100.0 + i as f64, RoadCategory::Secondary),
                );
            }
            for (u, v, len) in chords {
                let (u, v) = (u % n, v % n);
                if u != v {
                    b.add_edge(
                        ids[u],
                        ids[v],
                        EdgeAttrs::with_default_speed(len, RoadCategory::Residential),
                    );
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dijkstra distances obey the triangle inequality over any edge.
    #[test]
    fn dijkstra_relaxed_everywhere(g in arb_graph()) {
        let w = |e: EdgeId| g.attrs(e).freeflow_time_s();
        let sp = dijkstra_all(&g, NodeId(0), w);
        for e in g.edge_ids() {
            let (u, v) = g.edge_endpoints(e);
            let du = sp.distance(u);
            if du.is_finite() {
                prop_assert!(sp.distance(v) <= du + w(e) + 1e-9);
            }
        }
    }

    /// Extracted shortest paths validate and their cost equals the reported distance.
    #[test]
    fn extracted_path_cost_matches_distance(g in arb_graph()) {
        let w = |e: EdgeId| g.attrs(e).freeflow_time_s();
        let sp = dijkstra_all(&g, NodeId(0), w);
        for v in g.node_ids() {
            if let Some(p) = sp.extract_path(v) {
                p.validate(&g).unwrap();
                prop_assert!((p.cost(w) - sp.distance(v)).abs() < 1e-6);
            }
        }
    }

    /// Backward Dijkstra to t equals forward Dijkstra from every v.
    #[test]
    fn backward_equals_forward(g in arb_graph()) {
        let w = |e: EdgeId| g.attrs(e).freeflow_time_s();
        let t = NodeId((g.num_nodes() - 1) as u32);
        let back = backward_dijkstra(&g, t, w);
        for v in g.node_ids().take(5) {
            let fwd = dijkstra(&g, v, Some(t), w).distance(t);
            if fwd.is_finite() {
                prop_assert!((back[v.index()] - fwd).abs() < 1e-6);
            } else {
                prop_assert!(back[v.index()].is_infinite());
            }
        }
    }

    /// The optimistic bound is admissible: never exceeds a real path cost.
    #[test]
    fn optimistic_bound_is_admissible(g in arb_graph()) {
        let w = |e: EdgeId| g.attrs(e).freeflow_time_s();
        let t = NodeId(0);
        let bounds = OptimisticBounds::freeflow(&g, t);
        for v in g.node_ids() {
            let true_cost = dijkstra(&g, v, Some(t), w).distance(t);
            if true_cost.is_finite() {
                prop_assert!(bounds.remaining(v) <= true_cost + 1e-9);
            }
        }
    }

    /// The ring construction makes the graph strongly connected, so the
    /// largest SCC must cover every vertex.
    #[test]
    fn ring_graph_is_one_scc(g in arb_graph()) {
        prop_assert_eq!(largest_scc(&g).len(), g.num_nodes());
    }

    /// Binary snapshot round-trips losslessly.
    #[test]
    fn io_round_trip(g in arb_graph()) {
        let g2 = srt_graph::io::from_bytes(&srt_graph::io::to_bytes(&g)).unwrap();
        prop_assert_eq!(g2.num_nodes(), g.num_nodes());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for e in g.edge_ids() {
            prop_assert_eq!(g2.edge_endpoints(e), g.edge_endpoints(e));
        }
    }
}

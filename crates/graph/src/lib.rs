//! # srt-graph — road-network graph substrate
//!
//! Compact directed road-network graph used by the stochastic-routing stack.
//! The representation is a forward + reverse CSR (compressed sparse row)
//! adjacency over `u32` node/edge identifiers, with per-edge road attributes
//! (length, category, speed limit) and per-node planar coordinates.
//!
//! The crate also ships the classical graph algorithms the routing layer
//! builds on:
//!
//! * [`algo::dijkstra`] / [`algo::dijkstra_all`] — one-to-one / one-to-all
//!   shortest paths under an arbitrary edge-weight function,
//! * [`algo::backward_dijkstra`] — all-to-one shortest paths on the reverse
//!   graph, used for the A*-style *optimistic remaining cost* bound
//!   (pruning (a) in the paper),
//! * [`algo::largest_scc`] — Tarjan SCC, used to restrict synthetic
//!   networks to their largest strongly connected component,
//! * [`bounds::OptimisticBounds`] — cached per-vertex lower bounds.
//!
//! # Example
//!
//! ```
//! use srt_graph::{GraphBuilder, EdgeAttrs, RoadCategory, Point, algo};
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_node(Point::new(9.90, 57.00));
//! let c = b.add_node(Point::new(9.91, 57.00));
//! let d = b.add_node(Point::new(9.92, 57.00));
//! b.add_edge(a, c, EdgeAttrs::new(600.0, RoadCategory::Primary, 80.0));
//! b.add_edge(c, d, EdgeAttrs::new(700.0, RoadCategory::Primary, 80.0));
//! let g = b.build();
//!
//! let res = algo::dijkstra(&g, a, Some(d), |e| g.attrs(e).freeflow_time_s());
//! let path = res.extract_path(d).unwrap();
//! assert_eq!(path.edges.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod algo;
pub mod bounds;
pub mod builder;
pub mod csr;
pub mod edge;
pub mod error;
pub mod geometry;
pub mod ids;
pub mod io;

pub use algo::Path;
pub use bounds::OptimisticBounds;
pub use builder::GraphBuilder;
pub use csr::RoadGraph;
pub use edge::{EdgeAttrs, RoadCategory};
pub use error::GraphError;
pub use geometry::Point;
pub use ids::{EdgeId, NodeId};

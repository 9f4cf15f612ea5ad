//! Compact binary snapshot format for [`RoadGraph`].
//!
//! Hand-rolled little-endian codec on top of the `bytes` crate (no external
//! serde format crate is available in this dependency set). The layout is
//! versioned and length-prefixed so corrupt payloads fail loudly instead of
//! producing garbage graphs.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  u32   0x53524F47  ("SROG")
//! ver    u32   1
//! n      u64   node count
//! m      u64   edge count
//! nodes  n * (f64 lon, f64 lat)
//! edges  m * (u32 from, u32 to, f64 length_m, u8 category, f64 speed_kmh)
//! ```

use crate::builder::GraphBuilder;
use crate::csr::RoadGraph;
use crate::edge::{EdgeAttrs, RoadCategory};
use crate::error::GraphError;
use crate::geometry::Point;
use crate::ids::NodeId;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: u32 = 0x5352_4F47;
const VERSION: u32 = 1;

/// Serializes a graph into its binary snapshot.
pub fn to_bytes(g: &RoadGraph) -> Bytes {
    let n = g.num_nodes();
    let m = g.num_edges();
    let mut buf = BytesMut::with_capacity(24 + n * 16 + m * 25);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(n as u64);
    buf.put_u64_le(m as u64);
    for v in g.node_ids() {
        let p = g.point(v);
        buf.put_f64_le(p.lon);
        buf.put_f64_le(p.lat);
    }
    for e in g.edge_ids() {
        let (from, to) = g.edge_endpoints(e);
        let a = g.attrs(e);
        buf.put_u32_le(from.0);
        buf.put_u32_le(to.0);
        buf.put_f64_le(a.length_m);
        buf.put_u8(a.category.as_index() as u8);
        buf.put_f64_le(a.speed_limit_kmh);
    }
    buf.freeze()
}

/// Deserializes a graph from its binary snapshot.
///
/// # Errors
/// [`GraphError::Corrupt`] on truncated or malformed payloads.
pub fn from_bytes(mut data: &[u8]) -> Result<RoadGraph, GraphError> {
    fn need(data: &[u8], n: usize, what: &str) -> Result<(), GraphError> {
        if data.remaining() < n {
            Err(GraphError::Corrupt(format!(
                "truncated while reading {what}"
            )))
        } else {
            Ok(())
        }
    }

    need(data, 24, "header")?;
    let magic = data.get_u32_le();
    if magic != MAGIC {
        return Err(GraphError::Corrupt(format!("bad magic 0x{magic:08x}")));
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(GraphError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    let n = data.get_u64_le() as usize;
    let m = data.get_u64_le() as usize;

    need(
        data,
        n.checked_mul(16)
            .ok_or_else(|| GraphError::Corrupt("node count overflow".into()))?,
        "nodes",
    )?;
    let mut b = GraphBuilder::with_capacity(n, m);
    for _ in 0..n {
        let lon = data.get_f64_le();
        let lat = data.get_f64_le();
        b.add_node(Point::new(lon, lat));
    }

    let edge_bytes = m
        .checked_mul(25)
        .ok_or_else(|| GraphError::Corrupt("edge count overflow".into()))?;
    need(data, edge_bytes, "edges")?;
    for i in 0..m {
        let from = NodeId(data.get_u32_le());
        let to = NodeId(data.get_u32_le());
        let length_m = data.get_f64_le();
        let cat_idx = data.get_u8() as usize;
        let speed = data.get_f64_le();
        let category = RoadCategory::from_index(cat_idx)
            .ok_or_else(|| GraphError::Corrupt(format!("edge #{i}: bad category {cat_idx}")))?;
        if !length_m.is_finite() || length_m < 0.0 {
            return Err(GraphError::Corrupt(format!(
                "edge #{i}: bad length {length_m}"
            )));
        }
        b.add_edge(from, to, EdgeAttrs::new(length_m, category, speed));
    }

    b.try_build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RoadGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(9.9, 57.0));
        let c = b.add_node(Point::new(9.95, 57.02));
        let d = b.add_node(Point::new(10.0, 57.0));
        b.add_edge(a, c, EdgeAttrs::new(640.0, RoadCategory::Primary, 80.0));
        b.add_bidirectional(c, d, EdgeAttrs::new(320.0, RoadCategory::Residential, 50.0));
        b.build()
    }

    #[test]
    fn round_trip_preserves_topology_and_attrs() {
        let g = sample();
        let bytes = to_bytes(&g);
        let g2 = from_bytes(&bytes).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        for e in g.edge_ids() {
            assert_eq!(g2.edge_endpoints(e), g.edge_endpoints(e));
            assert_eq!(g2.attrs(e), g.attrs(e));
        }
        for v in g.node_ids() {
            assert_eq!(g2.point(v), g.point(v));
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new().build();
        let g2 = from_bytes(&to_bytes(&g)).unwrap();
        assert_eq!(g2.num_nodes(), 0);
        assert_eq!(g2.num_edges(), 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut data = to_bytes(&sample()).to_vec();
        data[0] ^= 0xFF;
        assert!(matches!(from_bytes(&data), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let data = to_bytes(&sample());
        for cut in [0, 10, 23, data.len() - 1] {
            assert!(
                from_bytes(&data[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn bad_category_is_rejected() {
        let g = sample();
        let mut data = to_bytes(&g).to_vec();
        // First edge's category byte sits after header + nodes + from/to/length.
        let off = 24 + g.num_nodes() * 16 + 16;
        data[off] = 99;
        assert!(matches!(from_bytes(&data), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut data = to_bytes(&sample()).to_vec();
        data[4] = 9;
        assert!(matches!(from_bytes(&data), Err(GraphError::Corrupt(_))));
    }
}

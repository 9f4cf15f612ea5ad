//! Parametric synthetic road-network generator.
//!
//! Two macro-topologies ([`Topology`]) share the generator knobs:
//!
//! * **Grid** (the default): a `width x height` grid of intersections
//!   with jittered coordinates (cells ~`cell_size_m` apart),
//!   bidirectional residential streets between neighbours, every
//!   `arterial_every`-th row/column upgraded to a primary arterial, the
//!   outer boundary upgraded to a motorway ring, and a fraction of
//!   residential segments removed to break the regular structure.
//! * **Hub-and-spoke**: `hubs` central interchanges on a motorway ring,
//!   each radiating `spokes` residential chains of `spoke_len`
//!   intersections, with a secondary orbital linking adjacent spoke tips
//!   — the radial/commuter shape that stresses routing differently than
//!   a grid (few route choices near the centre, long detours outside).
//!
//! Either way the result is restricted to its largest strongly connected
//! component so every query is routable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srt_graph::algo::largest_scc;
use srt_graph::{EdgeAttrs, GraphBuilder, NodeId, Point, RoadCategory, RoadGraph};

/// Macro-topology of the generated network.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Topology {
    /// Perturbed `width x height` grid with an arterial hierarchy and a
    /// motorway ring (the paper-like city-region default).
    #[default]
    Grid,
    /// `hubs` interchanges on a central motorway ring, each radiating
    /// `spokes` chains of `spoke_len` intersections, adjacent spoke tips
    /// linked by a secondary orbital (so the periphery has cycles and
    /// U-turn-like exchange opportunities).
    HubAndSpoke {
        /// Interchanges on the central ring (>= 2).
        hubs: usize,
        /// Radial chains per hub (>= 1).
        spokes: usize,
        /// Intersections per chain (>= 1).
        spoke_len: usize,
    },
}

/// Geometry/topology knobs of the generator.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct NetworkConfig {
    /// Macro-topology (grid or hub-and-spoke).
    pub topology: Topology,
    /// Grid columns (intersections per row). Grid topology only.
    pub width: usize,
    /// Grid rows. Grid topology only.
    pub height: usize,
    /// Nominal spacing between adjacent intersections, metres.
    pub cell_size_m: f64,
    /// Coordinate jitter as a fraction of the cell size.
    pub jitter: f64,
    /// Every n-th row/column becomes a primary arterial. Grid only.
    pub arterial_every: usize,
    /// Probability of *removing* each redundant street (both directions):
    /// grid residential segments, hub-and-spoke orbital segments. On the
    /// grid, removals can strand intersections (they are dropped by the
    /// SCC restriction); hub-and-spoke never thins its tree-plus-ring
    /// skeleton, so every node survives.
    pub thinning: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            topology: Topology::Grid,
            width: 24,
            height: 24,
            cell_size_m: 220.0,
            jitter: 0.25,
            arterial_every: 4,
            thinning: 0.12,
            seed: 0xDA_2020,
        }
    }
}

impl NetworkConfig {
    /// Rough diameter of the generated region in km (corner to corner).
    pub fn span_km(&self) -> f64 {
        let w = (self.width - 1) as f64 * self.cell_size_m;
        let h = (self.height - 1) as f64 * self.cell_size_m;
        (w * w + h * h).sqrt() / 1000.0
    }

    /// A config scaled so the region spans at least `km` kilometres
    /// corner-to-corner (keeps cell size, grows the grid).
    pub fn with_span_km(mut self, km: f64) -> Self {
        let side_m = km * 1000.0 / std::f64::consts::SQRT_2;
        let cells = (side_m / self.cell_size_m).ceil() as usize + 1;
        self.width = self.width.max(cells);
        self.height = self.height.max(cells);
        self
    }
}

/// Reference latitude for the metre->degree projection (Jutland, 57 N).
const REF_LAT: f64 = 57.0;

fn metres_to_lon(m: f64) -> f64 {
    m / (111_320.0 * REF_LAT.to_radians().cos())
}

fn metres_to_lat(m: f64) -> f64 {
    m / 110_574.0
}

/// Generates the network described by `cfg`.
///
/// # Panics
/// Panics on degenerate dimensions (a grid smaller than 2x2, fewer than
/// two hubs, zero spokes or zero-length chains).
pub fn generate_network(cfg: &NetworkConfig) -> RoadGraph {
    match cfg.topology {
        Topology::Grid => generate_grid(cfg),
        Topology::HubAndSpoke {
            hubs,
            spokes,
            spoke_len,
        } => generate_hub_and_spoke(cfg, hubs, spokes, spoke_len),
    }
}

fn generate_grid(cfg: &NetworkConfig) -> RoadGraph {
    assert!(cfg.width >= 2 && cfg.height >= 2, "grid must be at least 2x2");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_nodes = cfg.width * cfg.height;
    let mut b = GraphBuilder::with_capacity(n_nodes, n_nodes * 4);

    // Nodes with jittered positions; coordinates tracked locally for
    // length computation during construction.
    let mut points = Vec::with_capacity(n_nodes);
    let mut ids = Vec::with_capacity(n_nodes);
    for y in 0..cfg.height {
        for x in 0..cfg.width {
            let jx = (rng.gen::<f64>() - 0.5) * 2.0 * cfg.jitter * cfg.cell_size_m;
            let jy = (rng.gen::<f64>() - 0.5) * 2.0 * cfg.jitter * cfg.cell_size_m;
            let mx = x as f64 * cfg.cell_size_m + jx;
            let my = y as f64 * cfg.cell_size_m + jy;
            let p = Point::new(9.8 + metres_to_lon(mx), 56.8 + metres_to_lat(my));
            points.push(p);
            ids.push(b.add_node(p));
        }
    }
    let at = |x: usize, y: usize| y * cfg.width + x;

    let add_segment = |b: &mut GraphBuilder,
                           rng: &mut StdRng,
                           ai: usize,
                           ci: usize,
                           arterial: bool,
                           ring: bool| {
        if !ring && !arterial && rng.gen::<f64>() < cfg.thinning {
            return;
        }
        let category = if ring {
            RoadCategory::Motorway
        } else if arterial {
            RoadCategory::Primary
        } else if rng.gen::<f64>() < 0.25 {
            RoadCategory::Secondary
        } else {
            RoadCategory::Residential
        };
        // Geometric length with a mild curvature factor so free-flow times
        // vary even on the regular grid.
        let geo = points[ai].haversine_m(&points[ci]).max(30.0);
        let curviness = 1.0 + rng.gen::<f64>() * 0.15;
        b.add_bidirectional(
            ids[ai],
            ids[ci],
            EdgeAttrs::with_default_speed(geo * curviness, category),
        );
    };

    for y in 0..cfg.height {
        for x in 0..cfg.width {
            let on_ring_row = y == 0 || y == cfg.height - 1;
            let on_ring_col = x == 0 || x == cfg.width - 1;
            if x + 1 < cfg.width {
                let arterial = y % cfg.arterial_every == 0;
                add_segment(&mut b, &mut rng, at(x, y), at(x + 1, y), arterial, on_ring_row);
            }
            if y + 1 < cfg.height {
                let arterial = x % cfg.arterial_every == 0;
                add_segment(&mut b, &mut rng, at(x, y), at(x, y + 1), arterial, on_ring_col);
            }
        }
    }

    let full = b.build();
    restrict_to_largest_scc(&full)
}

/// The hub-and-spoke generator (see [`Topology::HubAndSpoke`]).
///
/// Hubs sit on a circle of radius `1.5 * cell_size_m`, connected into a
/// motorway ring. Each hub radiates `spokes` chains: a primary feeder
/// from the hub to the first chain node, then residential/secondary
/// segments outward, one node per `cell_size_m` of radius. The tips of
/// angularly adjacent spokes (across hub boundaries too) are linked by a
/// secondary orbital; orbital segments are the only ones subject to
/// `thinning`, so the network never loses its tree-plus-ring skeleton.
fn generate_hub_and_spoke(
    cfg: &NetworkConfig,
    hubs: usize,
    spokes: usize,
    spoke_len: usize,
) -> RoadGraph {
    assert!(hubs >= 2, "need at least two hubs");
    assert!(spokes >= 1, "need at least one spoke per hub");
    assert!(spoke_len >= 1, "spoke chains need at least one node");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_nodes = hubs * (1 + spokes * spoke_len);
    let mut b = GraphBuilder::with_capacity(n_nodes, n_nodes * 3);

    // Positions in metres, origin shifted so every coordinate is
    // positive: centre the wheel at (R, R) for the outermost radius R.
    let hub_radius = 1.5 * cfg.cell_size_m;
    let rim = hub_radius + (spoke_len as f64 + 1.0) * cfg.cell_size_m;
    let place = |b: &mut GraphBuilder,
                 rng: &mut StdRng,
                 angle: f64,
                 radius: f64,
                 points: &mut Vec<Point>| {
        let jx = (rng.gen::<f64>() - 0.5) * 2.0 * cfg.jitter * cfg.cell_size_m;
        let jy = (rng.gen::<f64>() - 0.5) * 2.0 * cfg.jitter * cfg.cell_size_m;
        let mx = rim + radius * angle.cos() + jx;
        let my = rim + radius * angle.sin() + jy;
        let p = Point::new(9.8 + metres_to_lon(mx), 56.8 + metres_to_lat(my));
        points.push(p);
        b.add_node(p)
    };
    let mut points: Vec<Point> = Vec::with_capacity(n_nodes);
    let connect = |b: &mut GraphBuilder,
                       rng: &mut StdRng,
                       points: &[Point],
                       a: NodeId,
                       c: NodeId,
                       category: RoadCategory| {
        let geo = points[a.index()].haversine_m(&points[c.index()]).max(30.0);
        let curviness = 1.0 + rng.gen::<f64>() * 0.15;
        b.add_bidirectional(a, c, EdgeAttrs::with_default_speed(geo * curviness, category));
    };

    // Hubs first, then the spoke chains; tips collected in angular order
    // for the orbital.
    let hub_ids: Vec<NodeId> = (0..hubs)
        .map(|i| {
            let angle = i as f64 / hubs as f64 * std::f64::consts::TAU;
            place(&mut b, &mut rng, angle, hub_radius, &mut points)
        })
        .collect();
    let mut tips: Vec<NodeId> = Vec::with_capacity(hubs * spokes);
    for (i, &hub) in hub_ids.iter().enumerate() {
        let hub_angle = i as f64 / hubs as f64 * std::f64::consts::TAU;
        let sector = std::f64::consts::TAU / hubs as f64;
        for s in 0..spokes {
            // Spread the hub's spokes across its angular sector.
            let offset = (s as f64 + 0.5) / spokes as f64 - 0.5;
            let angle = hub_angle + offset * sector;
            let mut prev = hub;
            for j in 1..=spoke_len {
                let radius = hub_radius + j as f64 * cfg.cell_size_m;
                let node = place(&mut b, &mut rng, angle, radius, &mut points);
                let category = if j == 1 {
                    RoadCategory::Primary
                } else if rng.gen::<f64>() < 0.25 {
                    RoadCategory::Secondary
                } else {
                    RoadCategory::Residential
                };
                connect(&mut b, &mut rng, &points, prev, node, category);
                prev = node;
            }
            tips.push(prev);
        }
    }

    // Central motorway ring (a 2-hub "ring" is a single segment).
    for i in 0..hubs {
        let j = (i + 1) % hubs;
        if j > i || hubs > 2 {
            connect(&mut b, &mut rng, &points, hub_ids[i], hub_ids[j], RoadCategory::Motorway);
        }
    }
    // Secondary orbital along the rim; thinnable (the skeleton survives).
    let n_tips = tips.len();
    if n_tips >= 2 {
        for i in 0..n_tips {
            let j = (i + 1) % n_tips;
            if (j > i || n_tips > 2) && rng.gen::<f64>() >= cfg.thinning {
                connect(&mut b, &mut rng, &points, tips[i], tips[j], RoadCategory::Secondary);
            }
        }
    }

    let full = b.build();
    restrict_to_largest_scc(&full)
}

/// Rebuilds `g` restricted to its largest strongly connected component,
/// remapping node ids densely.
fn restrict_to_largest_scc(g: &RoadGraph) -> RoadGraph {
    let keep = largest_scc(g);
    let mut remap = vec![u32::MAX; g.num_nodes()];
    let mut b = GraphBuilder::with_capacity(keep.len(), g.num_edges());
    for &v in &keep {
        remap[v.index()] = b.add_node(g.point(v)).0;
    }
    for e in g.edge_ids() {
        let (from, to) = g.edge_endpoints(e);
        let (rf, rt) = (remap[from.index()], remap[to.index()]);
        if rf != u32::MAX && rt != u32::MAX {
            b.add_edge(NodeId(rf), NodeId(rt), *g.attrs(e));
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use srt_graph::algo::dijkstra;

    #[test]
    fn default_network_is_strongly_connected_and_sized() {
        let g = generate_network(&NetworkConfig::default());
        // Thinning + SCC can drop a few nodes, but most of the 24x24 grid
        // must survive.
        assert!(g.num_nodes() > 500, "nodes: {}", g.num_nodes());
        assert!(g.num_edges() > 1500, "edges: {}", g.num_edges());
        assert_eq!(largest_scc(&g).len(), g.num_nodes());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_network(&NetworkConfig::default());
        let b = generate_network(&NetworkConfig::default());
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        for e in a.edge_ids().take(50) {
            assert_eq!(a.edge_endpoints(e), b.edge_endpoints(e));
            assert_eq!(a.attrs(e), b.attrs(e));
        }
    }

    #[test]
    fn different_seeds_give_different_networks() {
        let a = generate_network(&NetworkConfig::default());
        let b = generate_network(&NetworkConfig {
            seed: 7,
            ..NetworkConfig::default()
        });
        // Same construction recipe, different thinning -> different sizes
        // with overwhelming probability.
        assert!(a.num_edges() != b.num_edges() || a.num_nodes() != b.num_nodes());
    }

    #[test]
    fn network_has_the_full_road_hierarchy() {
        let g = generate_network(&NetworkConfig::default());
        let mut seen = [false; 5];
        for e in g.edge_ids() {
            seen[g.attrs(e).category.as_index()] = true;
        }
        assert!(seen[RoadCategory::Motorway.as_index()], "no motorway ring");
        assert!(seen[RoadCategory::Primary.as_index()], "no arterials");
        assert!(seen[RoadCategory::Residential.as_index()], "no local streets");
    }

    #[test]
    fn all_pairs_are_routable() {
        let g = generate_network(&NetworkConfig {
            width: 8,
            height: 8,
            ..NetworkConfig::default()
        });
        let w = |e: srt_graph::EdgeId| g.attrs(e).freeflow_time_s();
        let sp = dijkstra(&g, NodeId(0), None, w);
        for v in g.node_ids() {
            assert!(sp.distance(v).is_finite(), "{v} unreachable");
        }
    }

    #[test]
    fn span_grows_with_grid() {
        let small = NetworkConfig {
            width: 8,
            height: 8,
            ..NetworkConfig::default()
        };
        let big = NetworkConfig::default();
        assert!(big.span_km() > small.span_km());
    }

    #[test]
    fn with_span_km_reaches_requested_distance() {
        let cfg = NetworkConfig::default().with_span_km(12.0);
        assert!(cfg.span_km() >= 12.0);
    }

    #[test]
    fn edge_lengths_are_plausible() {
        let cfg = NetworkConfig::default();
        let g = generate_network(&cfg);
        for e in g.edge_ids() {
            let len = g.attrs(e).length_m;
            assert!(len > 25.0 && len < cfg.cell_size_m * 3.0, "length {len}");
        }
    }

    fn hub_cfg(hubs: usize, spokes: usize, spoke_len: usize) -> NetworkConfig {
        NetworkConfig {
            topology: Topology::HubAndSpoke {
                hubs,
                spokes,
                spoke_len,
            },
            thinning: 0.0,
            ..NetworkConfig::default()
        }
    }

    #[test]
    fn hub_and_spoke_is_strongly_connected_and_sized() {
        let cfg = hub_cfg(4, 3, 3);
        let g = generate_network(&cfg);
        // Unthinned, every generated node survives SCC restriction:
        // 4 hubs + 4 * 3 spokes * 3 nodes.
        assert_eq!(g.num_nodes(), 4 + 4 * 3 * 3);
        assert_eq!(largest_scc(&g).len(), g.num_nodes());
        // Ring (4) + feeders/chains (4*3*3) + orbital (12), both ways.
        assert_eq!(g.num_edges(), 2 * (4 + 36 + 12));
    }

    #[test]
    fn hub_and_spoke_has_the_radial_hierarchy() {
        let g = generate_network(&hub_cfg(3, 2, 2));
        let mut seen = [false; 5];
        for e in g.edge_ids() {
            seen[g.attrs(e).category.as_index()] = true;
        }
        assert!(seen[RoadCategory::Motorway.as_index()], "no central ring");
        assert!(seen[RoadCategory::Primary.as_index()], "no feeders");
        assert!(
            seen[RoadCategory::Secondary.as_index()],
            "no orbital/secondary chains"
        );
    }

    #[test]
    fn hub_and_spoke_is_deterministic_and_seed_sensitive() {
        let a = generate_network(&hub_cfg(3, 2, 2));
        let b = generate_network(&hub_cfg(3, 2, 2));
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        for e in a.edge_ids() {
            assert_eq!(a.edge_endpoints(e), b.edge_endpoints(e));
            assert_eq!(a.attrs(e), b.attrs(e));
        }
        let c = generate_network(&NetworkConfig {
            seed: 99,
            ..hub_cfg(3, 2, 2)
        });
        // Same skeleton, different jitter -> different edge lengths.
        let diff = a
            .edge_ids()
            .filter(|&e| (a.attrs(e).length_m - c.attrs(e).length_m).abs() > 1e-9)
            .count();
        assert!(diff > 0, "seed had no effect");
    }

    #[test]
    fn hub_and_spoke_tips_are_routable_without_backtracking_the_whole_wheel() {
        // The orbital gives the periphery cycles: a tip's neighbour tip
        // is reachable without traversing 2 * spoke_len chain edges.
        // Tips are exactly the out-degree-3 nodes (one chain edge + two
        // orbital edges); interior chain nodes have 2, hubs have 4.
        let g = generate_network(&hub_cfg(4, 2, 4));
        let w = |_e: srt_graph::EdgeId| 1.0f64; // hop count
        let tips: Vec<NodeId> = g
            .node_ids()
            .filter(|&v| g.out_edges(v).count() == 3)
            .collect();
        assert_eq!(tips.len(), 4 * 2, "orbital missing: tips lack their rim edges");
        let sp = dijkstra(&g, tips[0], None, w);
        let closest_other_tip = tips[1..]
            .iter()
            .map(|&v| sp.distance(v))
            .fold(f64::INFINITY, f64::min);
        // Through the wheel centre the nearest other tip is
        // 2 * spoke_len = 8 hops; the orbital shortcut makes it one.
        assert!(
            closest_other_tip <= 1.0,
            "orbital missing: nearest tip {closest_other_tip} hops away"
        );
    }

    #[test]
    fn thinning_only_trims_the_orbital() {
        let thick = generate_network(&hub_cfg(4, 3, 3));
        let thin = generate_network(&NetworkConfig {
            thinning: 1.0,
            ..hub_cfg(4, 3, 3)
        });
        // All chains/ring/feeders survive full thinning; only the 12
        // orbital segments (24 directed) go.
        assert_eq!(thin.num_nodes(), thick.num_nodes());
        assert_eq!(thin.num_edges() + 24, thick.num_edges());
        assert_eq!(largest_scc(&thin).len(), thin.num_nodes());
    }

    #[test]
    fn scc_restriction_is_idempotent() {
        let g = generate_network(&NetworkConfig::default());
        let g2 = restrict_to_largest_scc(&g);
        assert_eq!(g.num_nodes(), g2.num_nodes());
        assert_eq!(g.num_edges(), g2.num_edges());
    }
}

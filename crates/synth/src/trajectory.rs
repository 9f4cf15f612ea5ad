//! Trip simulation: the synthetic stand-in for GPS trajectory data.
//!
//! Trips follow free-flow shortest paths between random origin/destination
//! pairs (drivers mostly take fast routes, which concentrates observations
//! on arterials — the same "edges with sufficient data" skew the paper
//! handles). Travel times along each trip come from
//! [`crate::CongestionModel::simulate_path`], so consecutive-edge
//! dependence is baked into every observation.

use crate::congestion::CongestionModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srt_graph::algo::dijkstra_all;
use srt_graph::{EdgeId, NodeId, RoadGraph};
use std::collections::HashMap;

/// Trip-simulation knobs.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct TrajectoryConfig {
    /// Total trips to simulate.
    pub num_trips: usize,
    /// Trips shorter than this many edges are discarded.
    pub min_edges: usize,
    /// Trips are truncated to this many edges.
    pub max_edges: usize,
    /// Number of distinct origins (trips per origin =
    /// `num_trips / num_sources`); origins are reused so one Dijkstra
    /// serves many trips.
    pub num_sources: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig {
            num_trips: 4000,
            min_edges: 3,
            max_edges: 40,
            num_sources: 64,
            seed: 0x7121,
        }
    }
}

/// One simulated trip: the edges travelled and the time spent on each.
#[derive(Clone, PartialEq, Debug)]
pub struct Trajectory {
    /// Edges in travel order.
    pub edges: Vec<EdgeId>,
    /// Seconds spent on each edge (`times.len() == edges.len()`).
    pub times: Vec<f64>,
}

/// How often each consecutive edge pair was observed.
#[derive(Clone, Debug, Default)]
pub struct ObservationStore {
    pair_counts: HashMap<(EdgeId, EdgeId), usize>,
    num_trajectories: usize,
}

impl ObservationStore {
    /// Counts every consecutive-pair observation of `traj`.
    fn record(&mut self, traj: &Trajectory) {
        self.num_trajectories += 1;
        for w in traj.edges.windows(2) {
            *self.pair_counts.entry((w[0], w[1])).or_default() += 1;
        }
    }

    /// Pairs with at least `min_obs` observations ("edge pairs with
    /// sufficient data"), in deterministic order.
    pub fn pairs_with_at_least(&self, min_obs: usize) -> Vec<(EdgeId, EdgeId)> {
        let mut pairs: Vec<(EdgeId, EdgeId)> = self
            .pair_counts
            .iter()
            .filter(|&(_, &n)| n >= min_obs)
            .map(|(&k, _)| k)
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// Number of recorded trajectories.
    pub fn num_trajectories(&self) -> usize {
        self.num_trajectories
    }
}

/// Simulates `cfg.num_trips` trips and aggregates their observations.
///
/// Origins are sampled once; a single one-to-all Dijkstra per origin
/// serves all trips from it (cheap coverage of realistic routes).
pub fn simulate_trajectories(
    g: &RoadGraph,
    model: &CongestionModel,
    cfg: &TrajectoryConfig,
) -> (Vec<Trajectory>, ObservationStore) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = ObservationStore::default();
    let mut out = Vec::with_capacity(cfg.num_trips);
    if g.num_nodes() == 0 {
        return (out, store);
    }

    let num_sources = cfg.num_sources.clamp(1, g.num_nodes());
    let trips_per_source = cfg.num_trips.div_ceil(num_sources);
    let weight = |e: EdgeId| g.attrs(e).freeflow_time_s();

    'outer: for _ in 0..num_sources {
        let source = NodeId(rng.gen_range(0..g.num_nodes() as u32));
        let sp = dijkstra_all(g, source, weight);
        for _ in 0..trips_per_source {
            if out.len() >= cfg.num_trips {
                break 'outer;
            }
            let target = NodeId(rng.gen_range(0..g.num_nodes() as u32));
            let Some(path) = sp.extract_path(target) else {
                continue;
            };
            if path.edges.len() < cfg.min_edges {
                continue;
            }
            let mut edges = path.edges;
            edges.truncate(cfg.max_edges);
            let times = model.simulate_path(g, &edges, &mut rng);
            let traj = Trajectory { edges, times };
            store.record(&traj);
            out.push(traj);
        }
    }

    (out, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::CongestionConfig;
    use crate::network::{generate_network, NetworkConfig};

    fn world() -> (RoadGraph, CongestionModel) {
        let g = generate_network(&NetworkConfig {
            width: 10,
            height: 10,
            ..NetworkConfig::default()
        });
        let m = CongestionModel::new(&g, CongestionConfig::default());
        (g, m)
    }

    fn small_cfg() -> TrajectoryConfig {
        TrajectoryConfig {
            num_trips: 200,
            num_sources: 8,
            ..TrajectoryConfig::default()
        }
    }

    #[test]
    fn trips_have_aligned_edges_and_times() {
        let (g, m) = world();
        let (trips, _) = simulate_trajectories(&g, &m, &small_cfg());
        assert!(!trips.is_empty());
        for t in &trips {
            assert_eq!(t.edges.len(), t.times.len());
            assert!(t.edges.len() >= 3);
            assert!(t.times.iter().sum::<f64>() > 0.0);
            // Consecutive edges connect.
            for w in t.edges.windows(2) {
                assert_eq!(g.edge_target(w[0]), g.edge_source(w[1]));
            }
        }
    }

    #[test]
    fn store_counts_match_trips() {
        let (g, m) = world();
        let (trips, store) = simulate_trajectories(&g, &m, &small_cfg());
        assert_eq!(store.num_trajectories(), trips.len());
        let mut counts: HashMap<(EdgeId, EdgeId), usize> = HashMap::new();
        for t in &trips {
            for w in t.edges.windows(2) {
                *counts.entry((w[0], w[1])).or_default() += 1;
            }
        }
        for min_obs in [1, 5, 20] {
            let mut expected: Vec<_> = counts
                .iter()
                .filter(|&(_, &n)| n >= min_obs)
                .map(|(&k, _)| k)
                .collect();
            expected.sort_unstable();
            assert_eq!(store.pairs_with_at_least(min_obs), expected);
        }
    }

    #[test]
    fn pair_samples_are_recorded_for_consecutive_edges() {
        let (g, m) = world();
        let (trips, store) = simulate_trajectories(&g, &m, &small_cfg());
        let t = &trips[0];
        let (e1, e2) = (t.edges[0], t.edges[1]);
        let seen = store.pairs_with_at_least(1);
        assert!(seen.contains(&(e1, e2)));
        // A shortest path never travels one edge twice in a row.
        assert!(!seen.contains(&(EdgeId(0), EdgeId(0))));
    }

    #[test]
    fn pairs_with_sufficient_data_exist_and_are_sorted() {
        let (g, m) = world();
        let (_, store) = simulate_trajectories(&g, &m, &small_cfg());
        let pairs = store.pairs_with_at_least(5);
        assert!(!pairs.is_empty(), "no well-observed pairs");
        for w in pairs.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Higher threshold selects fewer pairs.
        assert!(store.pairs_with_at_least(20).len() <= pairs.len());
    }

    #[test]
    fn simulation_is_deterministic() {
        let (g, m) = world();
        let (a, _) = simulate_trajectories(&g, &m, &small_cfg());
        let (b, _) = simulate_trajectories(&g, &m, &small_cfg());
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn max_edges_truncates() {
        let (g, m) = world();
        let cfg = TrajectoryConfig {
            max_edges: 5,
            ..small_cfg()
        };
        let (trips, _) = simulate_trajectories(&g, &m, &cfg);
        assert!(trips.iter().all(|t| t.edges.len() <= 5));
    }

    #[test]
    fn well_observed_edges_accumulate_many_samples() {
        let (g, m) = world();
        let (_, store) = simulate_trajectories(&g, &m, &small_cfg());
        // A pair seen ten times means both of its edges were.
        assert!(!store.pairs_with_at_least(10).is_empty());
    }
}

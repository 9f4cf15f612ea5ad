//! One-call construction of a complete synthetic evaluation world.

use crate::congestion::{CongestionConfig, CongestionModel};
use crate::ground_truth::{GroundTruth, GroundTruthConfig};
use crate::network::{generate_network, NetworkConfig};
use crate::trajectory::{simulate_trajectories, ObservationStore, Trajectory, TrajectoryConfig};
use srt_graph::RoadGraph;

/// Configuration bundle for a [`SyntheticWorld`].
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct WorldConfig {
    /// Road-network generator knobs.
    pub network: NetworkConfig,
    /// Congestion-process knobs.
    pub congestion: CongestionConfig,
    /// Trip-simulation knobs.
    pub trajectories: TrajectoryConfig,
    /// Ground-truth oracle knobs.
    pub ground_truth: GroundTruthConfig,
}

impl WorldConfig {
    /// Tiny world for unit tests (sub-second build).
    pub fn tiny() -> Self {
        WorldConfig {
            network: NetworkConfig {
                width: 8,
                height: 8,
                ..NetworkConfig::default()
            },
            trajectories: TrajectoryConfig {
                num_trips: 300,
                num_sources: 12,
                ..TrajectoryConfig::default()
            },
            ground_truth: GroundTruthConfig {
                samples_per_edge: 300,
                samples_per_pair: 300,
                ..GroundTruthConfig::default()
            },
            ..WorldConfig::default()
        }
    }

    /// Small world for integration tests and examples.
    pub fn small() -> Self {
        WorldConfig {
            network: NetworkConfig {
                width: 14,
                height: 14,
                ..NetworkConfig::default()
            },
            trajectories: TrajectoryConfig {
                num_trips: 1500,
                num_sources: 32,
                ..TrajectoryConfig::default()
            },
            ground_truth: GroundTruthConfig {
                samples_per_edge: 600,
                samples_per_pair: 600,
                ..GroundTruthConfig::default()
            },
            ..WorldConfig::default()
        }
    }

    /// Evaluation world: spans >10 km so every paper distance category is
    /// populated. Used by the experiment harness and benches.
    pub fn evaluation() -> Self {
        WorldConfig {
            network: NetworkConfig::default().with_span_km(11.5),
            trajectories: TrajectoryConfig {
                num_trips: 8000,
                num_sources: 96,
                ..TrajectoryConfig::default()
            },
            ..WorldConfig::default()
        }
    }
}

/// A fully built synthetic world: network, congestion process, simulated
/// trajectories and the ground-truth oracle.
#[derive(Clone, Debug)]
pub struct SyntheticWorld {
    /// The road network (largest SCC of the generated grid).
    pub graph: RoadGraph,
    /// The dependent travel-time process.
    pub model: CongestionModel,
    /// Simulated trips.
    pub trajectories: Vec<Trajectory>,
    /// Per-pair observation counts of the simulated trips.
    pub observations: ObservationStore,
    /// Monte-Carlo ground-truth oracle.
    pub ground_truth: GroundTruth,
    /// The configuration the world was built from.
    pub config: WorldConfig,
}

impl SyntheticWorld {
    /// Builds every component of the world deterministically from `cfg`.
    pub fn build(cfg: WorldConfig) -> Self {
        let graph = generate_network(&cfg.network);
        let model = CongestionModel::new(&graph, cfg.congestion);
        let (trajectories, observations) = simulate_trajectories(&graph, &model, &cfg.trajectories);
        let ground_truth = GroundTruth::build(&graph, &model, cfg.ground_truth);
        SyntheticWorld {
            graph,
            model,
            trajectories,
            observations,
            ground_truth,
            config: cfg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_world_builds_consistently() {
        let w = SyntheticWorld::build(WorldConfig::tiny());
        assert!(w.graph.num_nodes() > 30);
        assert!(!w.trajectories.is_empty());
        assert_eq!(w.observations.num_trajectories(), w.trajectories.len());
        // Ground truth has a marginal for every edge.
        for e in w.graph.edge_ids().take(10) {
            assert!(w.ground_truth.marginal(e).mean() > 0.0);
        }
    }

    #[test]
    fn world_build_is_deterministic() {
        let a = SyntheticWorld::build(WorldConfig::tiny());
        let b = SyntheticWorld::build(WorldConfig::tiny());
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.trajectories.len(), b.trajectories.len());
        assert_eq!(a.trajectories[0], b.trajectories[0]);
    }

    #[test]
    fn evaluation_config_spans_all_categories() {
        let cfg = WorldConfig::evaluation();
        assert!(cfg.network.span_km() >= 10.0);
    }
}

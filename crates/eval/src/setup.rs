//! Shared experiment setup: world construction + model training.

use srt_core::model::training::{train_hybrid, TrainingConfig};
use srt_core::HybridModel;
use srt_core::TrainReport;
use srt_ml::forest::ForestConfig;
use srt_ml::tree::TreeConfig;
use srt_synth::{SyntheticWorld, WorldConfig};

/// Experiment scale. `Paper` follows the publication protocol (4,000
/// training pairs / 1,000 test pairs on a >10 km network); the smaller
/// scales keep CI and the benchmark fast.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Sub-second world, used in unit tests.
    Tiny,
    /// A few seconds; the `run_experiments` default.
    Small,
    /// The full protocol; minutes, used by `run_experiments --scale paper`.
    Paper,
}

impl Scale {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// World configuration for this scale.
    pub fn world_config(self) -> WorldConfig {
        match self {
            Scale::Tiny => WorldConfig::tiny(),
            Scale::Small => WorldConfig::small(),
            Scale::Paper => WorldConfig::evaluation(),
        }
    }

    /// Training configuration for this scale.
    pub fn training_config(self) -> TrainingConfig {
        match self {
            Scale::Tiny => TrainingConfig {
                train_pairs: 150,
                test_pairs: 50,
                min_obs: 5,
                bins: 10,
                forest: ForestConfig {
                    n_trees: 8,
                    ..ForestConfig::default()
                },
                ..TrainingConfig::default()
            },
            Scale::Small => TrainingConfig {
                train_pairs: 800,
                test_pairs: 200,
                min_obs: 8,
                bins: 16,
                forest: ForestConfig {
                    n_trees: 20,
                    tree: TreeConfig {
                        max_depth: 10,
                        ..TreeConfig::default()
                    },
                    ..ForestConfig::default()
                },
                ..TrainingConfig::default()
            },
            // The paper's protocol: 4000 train / 1000 test.
            Scale::Paper => TrainingConfig::default(),
        }
    }

    /// Queries per distance category for the routing tables.
    pub fn queries_per_category(self) -> usize {
        match self {
            Scale::Tiny => 8,
            Scale::Small => 25,
            Scale::Paper => 60,
        }
    }
}

/// Everything the routing experiments need, built once and shared.
pub struct EvalContext {
    /// The synthetic world (network, congestion, observations, oracle).
    pub world: SyntheticWorld,
    /// The trained hybrid model.
    pub model: HybridModel,
    /// Training/evaluation report (E3/E4 read from here).
    pub report: TrainReport,
    /// The training configuration used.
    pub training: TrainingConfig,
    /// The scale this context was built at.
    pub scale: Scale,
}

/// Builds the world and trains the hybrid model at the given scale.
///
/// # Panics
/// Panics if training fails (the bundled scales always provide enough
/// pairs).
pub fn build_context(scale: Scale) -> EvalContext {
    let world = SyntheticWorld::build(scale.world_config());
    let training = scale.training_config();
    let (model, report) =
        train_hybrid(&world, &training).expect("bundled scales always train successfully");
    EvalContext {
        world,
        model,
        report,
        training,
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("SMALL"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn tiny_context_builds_and_trains() {
        let ctx = build_context(Scale::Tiny);
        assert!(ctx.report.n_train > 0);
        assert_eq!(ctx.model.bins, ctx.training.bins);
        assert!(ctx.world.graph.num_nodes() > 0);
    }

    #[test]
    fn paper_scale_uses_the_protocol_counts() {
        let cfg = Scale::Paper.training_config();
        assert_eq!(cfg.train_pairs, 4000);
        assert_eq!(cfg.test_pairs, 1000);
    }
}

//! The paper's training/evaluation protocol.
//!
//! "The estimation model is trained on 4000 edge pairs with sufficient
//! data. An instance of the classifier is initialized for each estimation
//! model. Following training, we test the model with a set of 1000 edge
//! pairs, measuring the KL-divergence between the output and ground truth
//! trajectories."
//!
//! Pairs are drawn from the trajectory observations ("with sufficient
//! data"); when the requested counts exceed the observed pairs, the pool
//! is topped up with additional consecutive pairs from the graph — the
//! Monte-Carlo oracle can label any pair, which the paper's real-data
//! setting could not.

use crate::error::CoreError;
use crate::model::classifier::DependenceClassifier;
use crate::model::estimator::DistributionEstimator;
use crate::model::features::pair_features;
use crate::model::hybrid::HybridModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use srt_dist::{convolve, convolve_bounded, kl_divergence, Histogram};
use srt_graph::EdgeId;
use srt_ml::dataset::Matrix;
use srt_ml::forest::ForestConfig;
use srt_ml::metrics::Confusion;
use srt_synth::SyntheticWorld;

/// Training-pipeline configuration (paper defaults).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct TrainingConfig {
    /// Edge pairs used for fitting (paper: 4000).
    pub train_pairs: usize,
    /// Held-out pairs for KL evaluation (paper: 1000).
    pub test_pairs: usize,
    /// Minimum trajectory observations for a pair to count as
    /// "with sufficient data".
    pub min_obs: usize,
    /// Histogram bucket budget.
    pub bins: usize,
    /// Forest configuration shared by estimator and gate.
    pub forest: ForestConfig,
    /// Seed for pair shuffling and model fitting.
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            train_pairs: 4000,
            test_pairs: 1000,
            min_obs: 15,
            bins: 20,
            forest: ForestConfig::default(),
            seed: 0xC0DE,
        }
    }
}

/// Everything measured during training, mirroring the paper's
/// model-quality study plus the dependence statistic.
#[derive(Clone, PartialEq, Debug)]
pub struct TrainReport {
    /// Pairs actually used for fitting.
    pub n_train: usize,
    /// Pairs actually held out.
    pub n_test: usize,
    /// Fraction of pairs labelled dependent (paper: ~0.75).
    pub dependent_fraction: f64,
    /// Mean KL(truth ‖ hybrid output) on the test pairs.
    pub kl_hybrid_mean: f64,
    /// Median KL(truth ‖ hybrid output).
    pub kl_hybrid_median: f64,
    /// Mean KL(truth ‖ convolution) — the independence baseline.
    pub kl_convolution_mean: f64,
    /// Median KL(truth ‖ convolution).
    pub kl_convolution_median: f64,
    /// Mean KL(truth ‖ estimation-only).
    pub kl_estimation_mean: f64,
    /// Median KL(truth ‖ estimation-only).
    pub kl_estimation_median: f64,
    /// Gate accuracy on the test pairs.
    pub classifier_accuracy: f64,
    /// Gate F1 on the test pairs (positive class = dependent).
    pub classifier_f1: f64,
}

/// One prepared pair: features, estimator target, label, and the
/// distributions needed for evaluation.
struct PreparedPair {
    features: Vec<f64>,
    target: Vec<f64>,
    dependent: bool,
    truth: Histogram,
    marg1: Histogram,
    marg2: Histogram,
    support: (f64, f64),
}

fn median(sorted: &mut [f64]) -> f64 {
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite KL values"));
    if sorted.is_empty() {
        return 0.0;
    }
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        0.5 * (sorted[mid - 1] + sorted[mid])
    } else {
        sorted[mid]
    }
}

/// Selects the training/evaluation pair pool.
fn select_pairs(world: &SyntheticWorld, cfg: &TrainingConfig) -> Result<Vec<(EdgeId, EdgeId)>, CoreError> {
    let wanted = cfg.train_pairs + cfg.test_pairs;
    let mut pairs = world.observations.pairs_with_at_least(cfg.min_obs);
    if pairs.len() < wanted {
        // Top up from the graph's consecutive pairs (deterministic order).
        let have: std::collections::HashSet<(EdgeId, EdgeId)> = pairs.iter().copied().collect();
        for p in world.graph.edge_pairs() {
            if pairs.len() >= wanted {
                break;
            }
            if !have.contains(&p) {
                pairs.push(p);
            }
        }
    }
    if pairs.len() < 40 {
        return Err(CoreError::InsufficientPairs {
            requested: wanted,
            available: pairs.len(),
        });
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    pairs.shuffle(&mut rng);
    pairs.truncate(wanted.min(pairs.len()));
    Ok(pairs)
}

fn prepare_pair(world: &SyntheticWorld, cfg: &TrainingConfig, e1: EdgeId, e2: EdgeId) -> PreparedPair {
    let g = &world.graph;
    let gt = &world.ground_truth;
    let marg1 = gt.marginal(e1).clone();
    let marg2 = gt.marginal(e2).clone();
    let features = pair_features(g, &marg1, e1, e2, &marg2).to_vec();
    let truth = gt.pair_sum(g, &world.model, e1, e2);
    let conv = convolve(&marg1, &marg2);
    let kl = kl_divergence(&truth, &conv);
    let dependent = kl > gt.config().kl_threshold;

    let lo = marg1.start() + marg2.start();
    let hi = marg1.end() + marg2.end();
    let width = (hi - lo) / cfg.bins as f64;
    let target = truth
        .rebin_onto(lo, width, cfg.bins)
        .expect("valid target grid")
        .probs()
        .to_vec();

    PreparedPair {
        features,
        target,
        dependent,
        truth,
        marg1,
        marg2,
        support: (lo, hi),
    }
}

/// Runs the full paper protocol: select pairs, fit estimator + gate,
/// evaluate KL on held-out pairs.
pub fn train_hybrid(
    world: &SyntheticWorld,
    cfg: &TrainingConfig,
) -> Result<(HybridModel, TrainReport), CoreError> {
    let pairs = select_pairs(world, cfg)?;
    let prepared: Vec<PreparedPair> = pairs
        .iter()
        .map(|&(e1, e2)| prepare_pair(world, cfg, e1, e2))
        .collect();

    // Honour the requested test share even when fewer pairs are available.
    let n_total = prepared.len();
    let test_share = cfg.test_pairs as f64 / (cfg.train_pairs + cfg.test_pairs) as f64;
    let n_test = ((n_total as f64 * test_share).round() as usize).clamp(1, n_total - 1);
    let n_train = n_total - n_test;
    let (train, test) = prepared.split_at(n_train);

    let x_train = Matrix::from_rows(&train.iter().map(|p| p.features.clone()).collect::<Vec<_>>())?;
    let y_train = Matrix::from_rows(&train.iter().map(|p| p.target.clone()).collect::<Vec<_>>())?;
    let labels_train: Vec<usize> = train.iter().map(|p| usize::from(p.dependent)).collect();

    let estimator = DistributionEstimator::fit(&x_train, &y_train, cfg.bins, &cfg.forest, cfg.seed)?;
    let classifier =
        DependenceClassifier::fit(&x_train, &labels_train, &cfg.forest, cfg.seed ^ 0x5A5A)?;
    let mut model = HybridModel {
        estimator,
        classifier,
        bins: cfg.bins,
        calibration: None,
        envelope: None,
    };

    // Calibrate the dominance margin on held-out pairs: measure how far
    // the fitted combine operator can invert a dominance relation, so the
    // router's margin pruning knows its safety gap.
    let held_out = || {
        pairs[n_train..]
            .iter()
            .zip(&prepared[n_train..])
            .map(|(&(e1, e2), p)| (e1, e2, &p.marg1, &p.marg2))
    };
    let calibration = crate::model::calibration::calibrate(&model, &world.graph, held_out());
    model.calibration = Some(calibration);

    // Probe the estimator arm's support-mass envelope on the same
    // held-out pairs, so the router's certified-envelope bound knows how
    // much mass any estimator output can front-load.
    let envelope =
        crate::model::envelope::probe_support_envelope(&model, &world.graph, held_out());
    model.envelope = Some(envelope);

    // Held-out evaluation.
    let mut kl_h = Vec::with_capacity(test.len());
    let mut kl_c = Vec::with_capacity(test.len());
    let mut kl_e = Vec::with_capacity(test.len());
    let mut labels_true = Vec::with_capacity(test.len());
    let mut labels_pred = Vec::with_capacity(test.len());

    for p in test {
        let conv = convolve_bounded(&p.marg1, &p.marg2, cfg.bins)?;
        let est = model.estimator.predict(&p.features, p.support.0, p.support.1);
        let use_est = model.classifier.use_estimation(&p.features);
        let hybrid = if use_est { est.clone() } else { conv.clone() };

        kl_h.push(kl_divergence(&p.truth, &hybrid));
        kl_c.push(kl_divergence(&p.truth, &conv));
        kl_e.push(kl_divergence(&p.truth, &est));
        labels_true.push(usize::from(p.dependent));
        labels_pred.push(usize::from(use_est));
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let confusion = Confusion::from_labels(&labels_true, &labels_pred);
    let dependent_fraction =
        prepared.iter().filter(|p| p.dependent).count() as f64 / prepared.len() as f64;

    let report = TrainReport {
        n_train,
        n_test,
        dependent_fraction,
        kl_hybrid_mean: mean(&kl_h),
        kl_hybrid_median: median(&mut kl_h.clone()),
        kl_convolution_mean: mean(&kl_c),
        kl_convolution_median: median(&mut kl_c.clone()),
        kl_estimation_mean: mean(&kl_e),
        kl_estimation_median: median(&mut kl_e.clone()),
        classifier_accuracy: confusion.accuracy(),
        classifier_f1: confusion.f1(),
    };
    Ok((model, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use srt_synth::WorldConfig;

    fn small_training() -> TrainingConfig {
        TrainingConfig {
            train_pairs: 150,
            test_pairs: 50,
            min_obs: 5,
            bins: 10,
            forest: ForestConfig {
                n_trees: 8,
                ..ForestConfig::default()
            },
            ..TrainingConfig::default()
        }
    }

    #[test]
    fn pipeline_trains_and_reports() {
        let world = SyntheticWorld::build(WorldConfig::tiny());
        let (model, report) = train_hybrid(&world, &small_training()).unwrap();
        assert_eq!(model.bins, 10);
        assert!(report.n_train > 0 && report.n_test > 0);
        assert!(report.kl_hybrid_mean.is_finite());
        assert!(report.kl_convolution_mean > 0.0);
        assert!((0.0..=1.0).contains(&report.classifier_accuracy));
        assert!((0.0..=1.0).contains(&report.dependent_fraction));
    }

    #[test]
    fn hybrid_beats_or_matches_convolution_in_kl() {
        let world = SyntheticWorld::build(WorldConfig::tiny());
        let (_, report) = train_hybrid(&world, &small_training()).unwrap();
        // The paper's headline: hybrid <= convolution. Allow a small slack
        // band for the tiny test world.
        assert!(
            report.kl_hybrid_mean <= report.kl_convolution_mean * 1.1,
            "hybrid {} vs convolution {}",
            report.kl_hybrid_mean,
            report.kl_convolution_mean
        );
    }

    #[test]
    fn dependence_rate_is_in_band() {
        let world = SyntheticWorld::build(WorldConfig::tiny());
        let (_, report) = train_hybrid(&world, &small_training()).unwrap();
        assert!(
            (0.4..=0.95).contains(&report.dependent_fraction),
            "dependent fraction {}",
            report.dependent_fraction
        );
    }

    #[test]
    fn classifier_is_better_than_chance() {
        let world = SyntheticWorld::build(WorldConfig::tiny());
        let (_, report) = train_hybrid(&world, &small_training()).unwrap();
        assert!(
            report.classifier_accuracy > 0.55,
            "accuracy {}",
            report.classifier_accuracy
        );
    }

    #[test]
    fn training_is_deterministic() {
        let world = SyntheticWorld::build(WorldConfig::tiny());
        let (_, a) = train_hybrid(&world, &small_training()).unwrap();
        let (_, b) = train_hybrid(&world, &small_training()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn median_helper_works() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}

//! The paper's model-training protocol in isolation: train the
//! distribution estimator and the dependence gate, inspect the held-out
//! KL divergence against ground truth, and look inside one prediction.
//!
//! Prints the train/test KL table (hybrid vs. convolution vs.
//! estimation-only), the gate's accuracy/F1, the estimator's top feature
//! importances, and verifies the binary model snapshot round-trips.
//!
//! ```sh
//! cargo run --release --example model_training
//! ```

use stochastic_routing::core::model::features::{pair_features, FEATURE_NAMES};
use stochastic_routing::core::model::training::{train_hybrid, TrainingConfig};
use stochastic_routing::dist::{convolve, kl_divergence};
use stochastic_routing::synth::{SyntheticWorld, WorldConfig};

fn main() {
    let world = SyntheticWorld::build(WorldConfig::small());
    let training = TrainingConfig {
        train_pairs: 800,
        test_pairs: 200,
        min_obs: 8,
        bins: 16,
        ..TrainingConfig::default()
    };
    let (model, report) = train_hybrid(&world, &training).expect("training succeeds");

    println!("training protocol (paper: 4000 train / 1000 test pairs, here scaled down):");
    println!(
        "  trained on {} pairs, evaluated on {}",
        report.n_train, report.n_test
    );
    println!(
        "  dependent pairs: {:.0}%",
        report.dependent_fraction * 100.0
    );
    println!();
    println!("held-out KL divergence to ground truth (lower is better):");
    println!(
        "  hybrid      mean {:.4}  median {:.4}",
        report.kl_hybrid_mean, report.kl_hybrid_median
    );
    println!(
        "  convolution mean {:.4}  median {:.4}",
        report.kl_convolution_mean, report.kl_convolution_median
    );
    println!(
        "  estimation  mean {:.4}  median {:.4}",
        report.kl_estimation_mean, report.kl_estimation_median
    );
    println!(
        "gate classifier: accuracy {:.3}, F1 {:.3}",
        report.classifier_accuracy, report.classifier_f1
    );
    println!();

    // Dissect one dependent pair.
    let pairs = world.observations.pairs_with_at_least(8);
    let (e1, e2) = pairs[pairs.len() / 2];
    let m1 = world.ground_truth.marginal(e1);
    let m2 = world.ground_truth.marginal(e2);
    let truth = world
        .ground_truth
        .pair_sum(&world.graph, &world.model, e1, e2);
    let conv = convolve(m1, m2);
    let features = pair_features(&world.graph, m1, e1, e2, m2);
    let est = model.estimate(m1, m2, &features);
    let p_dep = model.classifier.prob_dependent(&features);

    println!("one pair dissected: {e1} -> {e2}");
    println!("  P(dependent) according to the gate: {p_dep:.3}");
    println!(
        "  KL(truth || convolution) = {:.4}",
        kl_divergence(&truth, &conv)
    );
    println!(
        "  KL(truth || estimation)  = {:.4}",
        kl_divergence(&truth, &est)
    );
    println!();
    println!("most informative features for this pair:");
    for (name, value) in FEATURE_NAMES.iter().zip(features.iter()).take(10) {
        println!("  {name:<22} {value:>10.3}");
    }
    println!();

    // What the estimator forest actually consults (split-count importance).
    let mut ranked: Vec<(&str, f64)> = FEATURE_NAMES
        .iter()
        .copied()
        .zip(model.estimator.feature_importances())
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite importances"));
    println!("top estimator features by forest split count:");
    for (name, imp) in ranked.iter().take(6) {
        println!("  {name:<22} {:>6.1}%", imp * 100.0);
    }
    println!();

    // Train once, ship the model: binary snapshot round trip.
    let snapshot = stochastic_routing::core::model::io::to_bytes(&model);
    let restored =
        stochastic_routing::core::model::io::from_bytes(&snapshot).expect("snapshot round-trips");
    assert_eq!(restored.bins, model.bins);
    println!(
        "model snapshot: {} KiB, round-trips losslessly (bins = {})",
        snapshot.len() / 1024,
        restored.bins
    );
}

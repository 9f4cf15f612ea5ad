//! Property-based tests for the learning substrate.

use proptest::prelude::*;
use srt_ml::dataset::Matrix;
use srt_ml::forest::{ForestConfig, RandomForestClassifier, RandomForestRegressor};
use srt_ml::split::{train_test_split, KFold};
use srt_ml::tree::{RegressionTree, TreeConfig};

/// Random small regression dataset: 8..40 rows, 2..5 features, 1..4 outputs.
fn arb_regression() -> impl Strategy<Value = (Matrix, Matrix)> {
    (8usize..40, 2usize..5, 1usize..4).prop_flat_map(|(n, p, k)| {
        (
            proptest::collection::vec(proptest::collection::vec(-10.0f64..10.0, p), n),
            proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, k), n),
        )
            .prop_map(|(x, y)| {
                (
                    Matrix::from_rows(&x).unwrap(),
                    Matrix::from_rows(&y).unwrap(),
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tree predictions always lie within the convex hull of training
    /// targets (leaf values are means of target subsets).
    #[test]
    fn tree_predicts_within_target_hull((x, y) in arb_regression()) {
        let mut rng = rand::rngs::mock::StepRng::new(1, 7);
        let t = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng).unwrap();
        for i in 0..x.rows() {
            let p = t.predict_row(x.row(i));
            for (j, &v) in p.iter().enumerate() {
                let col = y.column(j);
                let lo = col.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            }
        }
    }

    /// Forest predictions are averages of tree predictions, hence also in hull.
    #[test]
    fn forest_predicts_within_target_hull((x, y) in arb_regression()) {
        let cfg = ForestConfig { n_trees: 5, ..ForestConfig::default() };
        let f = RandomForestRegressor::fit(&x, &y, &cfg, 11).unwrap();
        for i in 0..x.rows().min(5) {
            let p = f.predict_row(x.row(i));
            for (j, &v) in p.iter().enumerate() {
                let col = y.column(j);
                let lo = col.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            }
        }
    }

    /// Classifier probabilities are a valid distribution.
    #[test]
    fn classifier_probs_sum_to_one(rows in proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, 3), 10..30)) {
        let labels: Vec<usize> = rows.iter().map(|r| usize::from(r[0] > 0.0)).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let cfg = ForestConfig { n_trees: 7, ..ForestConfig::default() };
        let f = RandomForestClassifier::fit(&x, &labels, 2, &cfg, 5).unwrap();
        for row in rows.iter().take(5) {
            let p = f.predict_proba_row(row);
            prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    /// train_test_split partitions indices exactly.
    #[test]
    fn split_partitions(n in 2usize..500, frac in 0.05f64..0.95, seed in 0u64..1000) {
        let (train, test) = train_test_split(n, frac, seed).unwrap();
        prop_assert_eq!(train.len() + test.len(), n);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    /// Every k-fold split covers each index exactly once as test.
    #[test]
    fn kfold_coverage(n in 4usize..100, seed in 0u64..100) {
        let k = 4.min(n);
        let kf = KFold::new(n, k, seed).unwrap();
        let mut seen = vec![0usize; n];
        for (_, test) in kf.splits() {
            for &t in test {
                seen[t] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }
}

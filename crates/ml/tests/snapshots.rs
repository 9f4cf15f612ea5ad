//! Binary-snapshot round trips for every serializable estimator.

use bytes::BytesMut;
use srt_ml::dataset::Matrix;
use srt_ml::forest::{ForestConfig, RandomForestClassifier, RandomForestRegressor};
use srt_ml::tree::{ClassificationTree, RegressionTree, TreeConfig};
use srt_ml::MlError;

fn regression_data() -> (Matrix, Matrix) {
    let rows: Vec<Vec<f64>> = (0..50)
        .map(|i| vec![i as f64, (i % 5) as f64, ((i * 3) % 7) as f64])
        .collect();
    let y: Vec<Vec<f64>> = (0..50)
        .map(|i| vec![if i < 25 { 1.0 } else { 4.0 }, i as f64 * 0.1])
        .collect();
    (
        Matrix::from_rows(&rows).unwrap(),
        Matrix::from_rows(&y).unwrap(),
    )
}

fn classification_data() -> (Matrix, Vec<usize>) {
    let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64, (i % 3) as f64]).collect();
    let labels: Vec<usize> = (0..60).map(|i| usize::from(i >= 30)).collect();
    (Matrix::from_rows(&rows).unwrap(), labels)
}

#[test]
fn regression_tree_round_trips() {
    let (x, y) = regression_data();
    let mut rng = rand::rngs::mock::StepRng::new(5, 11);
    let t = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng).unwrap();
    let mut buf = BytesMut::new();
    t.write_bytes(&mut buf);
    let bytes = buf.freeze();
    let mut data = &bytes[..];
    let t2 = RegressionTree::read_bytes(&mut data).unwrap();
    assert!(data.is_empty(), "payload fully consumed");
    for i in 0..x.rows() {
        assert_eq!(t.predict_row(x.row(i)), t2.predict_row(x.row(i)));
    }
}

#[test]
fn classification_tree_round_trips() {
    let (x, y) = classification_data();
    let mut rng = rand::rngs::mock::StepRng::new(5, 11);
    let t = ClassificationTree::fit(&x, &y, 2, &TreeConfig::default(), &mut rng).unwrap();
    let mut buf = BytesMut::new();
    t.write_bytes(&mut buf);
    let bytes = buf.freeze();
    let mut data = &bytes[..];
    let t2 = ClassificationTree::read_bytes(&mut data).unwrap();
    for i in 0..x.rows() {
        assert_eq!(
            t.predict_proba_row(x.row(i)),
            t2.predict_proba_row(x.row(i))
        );
    }
}

#[test]
fn regression_forest_round_trips() {
    let (x, y) = regression_data();
    let f = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 3).unwrap();
    let mut buf = BytesMut::new();
    f.write_bytes(&mut buf);
    let bytes = buf.freeze();
    let mut data = &bytes[..];
    let f2 = RandomForestRegressor::read_bytes(&mut data).unwrap();
    assert_eq!(f2.n_trees(), f.n_trees());
    for i in (0..x.rows()).step_by(7) {
        assert_eq!(f.predict_row(x.row(i)), f2.predict_row(x.row(i)));
    }
}

#[test]
fn classification_forest_round_trips() {
    let (x, y) = classification_data();
    let f = RandomForestClassifier::fit(&x, &y, 2, &ForestConfig::default(), 4).unwrap();
    let mut buf = BytesMut::new();
    f.write_bytes(&mut buf);
    let bytes = buf.freeze();
    let mut data = &bytes[..];
    let f2 = RandomForestClassifier::read_bytes(&mut data).unwrap();
    for i in (0..x.rows()).step_by(5) {
        assert_eq!(
            f.predict_proba_row(x.row(i)),
            f2.predict_proba_row(x.row(i))
        );
    }
}

#[test]
fn truncated_snapshots_are_rejected() {
    let (x, y) = regression_data();
    let f = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 3).unwrap();
    let mut buf = BytesMut::new();
    f.write_bytes(&mut buf);
    let bytes = buf.freeze();
    for cut in [0, 3, 10, bytes.len() / 2, bytes.len() - 1] {
        let mut data = &bytes[..cut];
        assert!(
            matches!(
                RandomForestRegressor::read_bytes(&mut data),
                Err(MlError::Corrupt(_))
            ),
            "cut at {cut} should fail"
        );
    }
}

#[test]
fn corrupted_child_pointers_are_rejected() {
    let (x, y) = regression_data();
    let mut rng = rand::rngs::mock::StepRng::new(5, 11);
    let t = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng).unwrap();
    assert!(t.num_nodes() > 1, "need an internal node to corrupt");
    let mut buf = BytesMut::new();
    t.write_bytes(&mut buf);
    let mut bytes = buf.freeze().to_vec();
    // The root's left-child field sits right after: n_features(4) +
    // n_outputs(4) + n_nodes(4) + feature(4) + threshold(8).
    let off = 4 + 4 + 4 + 4 + 8;
    bytes[off..off + 4].copy_from_slice(&u32::MAX.wrapping_sub(1).to_le_bytes());
    let mut data = &bytes[..];
    assert!(RegressionTree::read_bytes(&mut data).is_err());
}

#[test]
fn feature_importances_highlight_the_informative_feature() {
    let (x, y) = regression_data();
    let f = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 3).unwrap();
    let imp = f.feature_importances();
    assert_eq!(imp.len(), 3);
    assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    // Feature 0 (the step driver) must dominate.
    assert!(imp[0] > imp[1] && imp[0] > imp[2], "importances {imp:?}");

    let (xc, yc) = classification_data();
    let fc = RandomForestClassifier::fit(&xc, &yc, 2, &ForestConfig::default(), 4).unwrap();
    let impc = fc.feature_importances();
    assert!(impc[0] > impc[1]);
}

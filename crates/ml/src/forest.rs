//! Bagged random forests over CART trees.
//!
//! The multi-output regressor backs the paper's *distribution estimation
//! model* (each output is one histogram bucket mass); the classifier backs
//! the *convolution-vs-estimation* gate.

use crate::codec::get_count;
use crate::dataset::Matrix;
use crate::error::MlError;
use crate::tree::{argmax, ClassificationTree, RegressionTree, TreeConfig};
use bytes::{BufMut, BytesMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Sanity cap for snapshot decoding.
const MAX_TREES: usize = 1 << 16;

/// Normalizes raw split counts into importances summing to 1 (all-zero
/// counts — a forest of stumps — yield a uniform attribution).
fn normalize_importances(mut counts: Vec<f64>) -> Vec<f64> {
    let total: f64 = counts.iter().sum();
    if total <= 0.0 {
        let u = 1.0 / counts.len().max(1) as f64;
        counts.iter_mut().for_each(|c| *c = u);
    } else {
        counts.iter_mut().for_each(|c| *c /= total);
    }
    counts
}

/// Forest hyper-parameters.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration (feature subsampling defaults to sqrt for
    /// classification and p/3 for regression when `max_features` is None).
    pub tree: TreeConfig,
    /// Bootstrap sample size as a fraction of the training set.
    pub sample_fraction: f64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 30,
            tree: TreeConfig::default(),
            sample_fraction: 1.0,
        }
    }
}

fn bootstrap_indices<R: Rng>(n: usize, fraction: f64, rng: &mut R) -> Vec<usize> {
    let k = ((n as f64 * fraction).round() as usize).max(1);
    (0..k).map(|_| rng.gen_range(0..n)).collect()
}

/// Default `max_features` heuristics when the caller leaves it unset.
fn effective_tree_cfg(cfg: &ForestConfig, n_features: usize, regression: bool) -> TreeConfig {
    let mut t = cfg.tree;
    if t.max_features.is_none() {
        let k = if regression {
            (n_features / 3).max(1)
        } else {
            (n_features as f64).sqrt().round() as usize
        };
        t.max_features = Some(k.clamp(1, n_features));
    }
    t
}

/// A random forest for (multi-output) regression.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RandomForestRegressor {
    trees: Vec<RegressionTree>,
    n_features: usize,
    n_outputs: usize,
}

impl RandomForestRegressor {
    /// Fits `cfg.n_trees` trees on bootstrap samples of `(x, y)`.
    pub fn fit(x: &Matrix, y: &Matrix, cfg: &ForestConfig, seed: u64) -> Result<Self, MlError> {
        if cfg.n_trees == 0 {
            return Err(MlError::BadConfig("n_trees must be positive"));
        }
        if x.rows() != y.rows() {
            return Err(MlError::LengthMismatch {
                x_rows: x.rows(),
                y_rows: y.rows(),
            });
        }
        let tree_cfg = effective_tree_cfg(cfg, x.cols(), true);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trees = Vec::with_capacity(cfg.n_trees);
        for _ in 0..cfg.n_trees {
            let idx = bootstrap_indices(x.rows(), cfg.sample_fraction, &mut rng);
            trees.push(RegressionTree::fit_on(x, y, &idx, &tree_cfg, &mut rng)?);
        }
        Ok(RandomForestRegressor {
            trees,
            n_features: x.cols(),
            n_outputs: y.cols(),
        })
    }

    /// Mean prediction across trees for one feature row.
    pub fn predict_row(&self, features: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_row_into(features, &mut out);
        out
    }

    /// [`RandomForestRegressor::predict_row`] writing into a
    /// caller-provided buffer (cleared and zero-filled first) — the
    /// allocation-free form hot loops (the hybrid router's estimator arm,
    /// batch scoring over snapshot-decoded models) run on. Bit-identical
    /// to the value-returning form, which delegates here.
    pub fn predict_row_into(&self, features: &[f64], out: &mut Vec<f64>) {
        assert_eq!(
            features.len(),
            self.n_features,
            "feature count mismatch in RandomForestRegressor::predict_row"
        );
        out.clear();
        out.resize(self.n_outputs, 0.0);
        for t in &self.trees {
            for (o, v) in out.iter_mut().zip(t.predict_row(features)) {
                *o += v;
            }
        }
        let k = self.trees.len() as f64;
        for o in out.iter_mut() {
            *o /= k;
        }
    }

    /// Predicts every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.n_outputs);
        for i in 0..x.rows() {
            let p = self.predict_row(x.row(i));
            out.row_mut(i).copy_from_slice(&p);
        }
        out
    }

    /// Mean output *bounds* across trees for a partially-known feature
    /// row (`None` = the feature may take any value). Each tree
    /// contributes its tight per-tree interval
    /// ([`RegressionTree::predict_bounds_row`]); averaging per-tree
    /// minima / maxima bounds the forest mean, since the unknown
    /// features take one common value across trees.
    pub fn predict_bounds_row(&self, features: &[Option<f64>]) -> (Vec<f64>, Vec<f64>) {
        let mut lo = vec![0.0; self.n_outputs];
        let mut hi = vec![0.0; self.n_outputs];
        for t in &self.trees {
            let (tl, th) = t.predict_bounds_row(features);
            for (o, v) in lo.iter_mut().zip(&tl) {
                *o += v;
            }
            for (o, v) in hi.iter_mut().zip(&th) {
                *o += v;
            }
        }
        let k = self.trees.len() as f64;
        for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
            *l /= k;
            *h /= k;
        }
        (lo, hi)
    }

    /// Provable per-output `(min, max)` range of the forest over **all**
    /// inputs: the all-unknown interval walk. Whatever features arrive,
    /// output `j` stays within `output_ranges()[j]`. This is what lets a
    /// consumer certify global properties of a fitted forest (e.g. how
    /// much probability mass a distribution estimator can front-load)
    /// without enumerating inputs.
    pub fn output_ranges(&self) -> Vec<(f64, f64)> {
        let unknown = vec![None; self.n_features];
        let (lo, hi) = self.predict_bounds_row(&unknown);
        lo.into_iter().zip(hi).collect()
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of outputs per prediction.
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Split-count feature importances, normalized to sum to 1.
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut counts = vec![0.0; self.n_features];
        for t in &self.trees {
            t.add_split_counts(&mut counts);
        }
        normalize_importances(counts)
    }

    /// Appends the binary snapshot of the forest to `buf`.
    pub fn write_bytes(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.trees.len() as u32);
        buf.put_u32_le(self.n_features as u32);
        buf.put_u32_le(self.n_outputs as u32);
        for t in &self.trees {
            t.write_bytes(buf);
        }
    }

    /// Decodes a forest written by
    /// [`RandomForestRegressor::write_bytes`], advancing `data`.
    pub fn read_bytes(data: &mut &[u8]) -> Result<Self, MlError> {
        let n_trees = get_count(data, MAX_TREES, "forest trees")?;
        if n_trees == 0 {
            return Err(MlError::Corrupt("forest has no trees".into()));
        }
        let n_features = get_count(data, usize::MAX >> 1, "forest n_features")?;
        let n_outputs = get_count(data, usize::MAX >> 1, "forest n_outputs")?;
        let mut trees = Vec::with_capacity(n_trees);
        for i in 0..n_trees {
            let t = RegressionTree::read_bytes(data)?;
            if t.n_features() != n_features || t.n_outputs() != n_outputs {
                return Err(MlError::Corrupt(format!("tree {i} shape mismatch")));
            }
            trees.push(t);
        }
        Ok(RandomForestRegressor {
            trees,
            n_features,
            n_outputs,
        })
    }
}

/// A random forest classifier over dense labels `0..n_classes`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RandomForestClassifier {
    trees: Vec<ClassificationTree>,
    n_features: usize,
    n_classes: usize,
}

impl RandomForestClassifier {
    /// Fits `cfg.n_trees` trees on bootstrap samples of `(x, y)`.
    pub fn fit(
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        cfg: &ForestConfig,
        seed: u64,
    ) -> Result<Self, MlError> {
        if cfg.n_trees == 0 {
            return Err(MlError::BadConfig("n_trees must be positive"));
        }
        if x.rows() != y.len() {
            return Err(MlError::LengthMismatch {
                x_rows: x.rows(),
                y_rows: y.len(),
            });
        }
        let tree_cfg = effective_tree_cfg(cfg, x.cols(), false);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trees = Vec::with_capacity(cfg.n_trees);
        for _ in 0..cfg.n_trees {
            let idx = bootstrap_indices(x.rows(), cfg.sample_fraction, &mut rng);
            trees.push(ClassificationTree::fit_on(
                x, y, &idx, n_classes, &tree_cfg, &mut rng,
            )?);
        }
        Ok(RandomForestClassifier {
            trees,
            n_features: x.cols(),
            n_classes,
        })
    }

    /// Mean class-probability vector across trees.
    pub fn predict_proba_row(&self, features: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_proba_row_into(features, &mut out);
        out
    }

    /// [`RandomForestClassifier::predict_proba_row`] writing into a
    /// caller-provided buffer (cleared and zero-filled first) — the
    /// allocation-free form. Bit-identical to the value-returning form,
    /// which delegates here.
    fn predict_proba_row_into(&self, features: &[f64], out: &mut Vec<f64>) {
        assert_eq!(
            features.len(),
            self.n_features,
            "feature count mismatch in RandomForestClassifier::predict_proba_row"
        );
        out.clear();
        out.resize(self.n_classes, 0.0);
        for t in &self.trees {
            for (o, v) in out.iter_mut().zip(t.predict_proba_row(features)) {
                *o += v;
            }
        }
        let k = self.trees.len() as f64;
        for o in out.iter_mut() {
            *o /= k;
        }
    }

    /// Mean probability of a single class across trees, with no output
    /// allocation at all — the hybrid gate's hot-path query (one scalar
    /// per combine step). The accumulation order per tree matches
    /// [`RandomForestClassifier::predict_proba_row`] element-for-element,
    /// so the scalar is bit-identical to `predict_proba_row(..)[class]`.
    ///
    /// # Panics
    /// Panics on a feature-count mismatch or `class >= n_classes`
    /// (programming errors).
    pub fn predict_proba_class(&self, features: &[f64], class: usize) -> f64 {
        assert_eq!(
            features.len(),
            self.n_features,
            "feature count mismatch in RandomForestClassifier::predict_proba_class"
        );
        assert!(class < self.n_classes, "class out of range");
        let mut acc = 0.0;
        for t in &self.trees {
            acc += t.predict_proba_row(features)[class];
        }
        acc / self.trees.len() as f64
    }

    /// Mean class-probability *bounds* across trees for a partially-known
    /// feature row (`None` = the feature may take any value). Each tree
    /// contributes its tight per-tree bounds
    /// ([`ClassificationTree::predict_proba_bounds_row`]); the average of
    /// per-tree minima / maxima bounds the forest mean, since the unknown
    /// features take one common value across trees.
    pub fn predict_proba_bounds_row(&self, features: &[Option<f64>]) -> (Vec<f64>, Vec<f64>) {
        let mut lo = vec![0.0; self.n_classes];
        let mut hi = vec![0.0; self.n_classes];
        for t in &self.trees {
            let (tl, th) = t.predict_proba_bounds_row(features);
            for (o, v) in lo.iter_mut().zip(&tl) {
                *o += v;
            }
            for (o, v) in hi.iter_mut().zip(&th) {
                *o += v;
            }
        }
        let k = self.trees.len() as f64;
        for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
            *l /= k;
            *h /= k;
        }
        (lo, hi)
    }

    /// Most probable class.
    pub fn predict_row(&self, features: &[f64]) -> usize {
        argmax(&self.predict_proba_row(features))
    }

    /// Predicts every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        (0..x.rows()).map(|i| self.predict_row(x.row(i))).collect()
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Split-count feature importances, normalized to sum to 1.
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut counts = vec![0.0; self.n_features];
        for t in &self.trees {
            t.add_split_counts(&mut counts);
        }
        normalize_importances(counts)
    }

    /// Appends the binary snapshot of the forest to `buf`.
    pub fn write_bytes(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.trees.len() as u32);
        buf.put_u32_le(self.n_features as u32);
        buf.put_u32_le(self.n_classes as u32);
        for t in &self.trees {
            t.write_bytes(buf);
        }
    }

    /// Decodes a forest written by
    /// [`RandomForestClassifier::write_bytes`], advancing `data`.
    pub fn read_bytes(data: &mut &[u8]) -> Result<Self, MlError> {
        let n_trees = get_count(data, MAX_TREES, "forest trees")?;
        if n_trees == 0 {
            return Err(MlError::Corrupt("forest has no trees".into()));
        }
        let n_features = get_count(data, usize::MAX >> 1, "forest n_features")?;
        let n_classes = get_count(data, usize::MAX >> 1, "forest n_classes")?;
        let mut trees = Vec::with_capacity(n_trees);
        for i in 0..n_trees {
            let t = ClassificationTree::read_bytes(data)?;
            if t.n_features() != n_features || t.n_classes() != n_classes {
                return Err(MlError::Corrupt(format!("tree {i} shape mismatch")));
            }
            trees.push(t);
        }
        Ok(RandomForestClassifier {
            trees,
            n_features,
            n_classes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noisy step: y = 1 for x<20, 5 otherwise, plus deterministic jitter.
    fn step_data() -> (Matrix, Matrix) {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![i as f64, ((i * 7) % 13) as f64])
            .collect();
        let targets: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let base = if i < 30 { 1.0 } else { 5.0 };
                vec![base + ((i % 3) as f64 - 1.0) * 0.1]
            })
            .collect();
        (
            Matrix::from_rows(&rows).unwrap(),
            Matrix::from_rows(&targets).unwrap(),
        )
    }

    #[test]
    fn regressor_learns_step() {
        let (x, y) = step_data();
        let f = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 1).unwrap();
        assert!((f.predict_row(&[5.0, 0.0])[0] - 1.0).abs() < 0.5);
        assert!((f.predict_row(&[50.0, 0.0])[0] - 5.0).abs() < 0.5);
        assert_eq!(f.n_trees(), 30);
    }

    #[test]
    fn regressor_is_deterministic_per_seed() {
        let (x, y) = step_data();
        let a = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 9).unwrap();
        let b = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 9).unwrap();
        assert_eq!(a.predict_row(&[12.0, 3.0]), b.predict_row(&[12.0, 3.0]));
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let (x, y) = step_data();
        let a = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 1).unwrap();
        let b = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 2).unwrap();
        // Not a hard guarantee point-wise, but near the decision boundary
        // bootstrap variation shows up.
        let pa: f64 = (25..35).map(|i| a.predict_row(&[i as f64, 0.0])[0]).sum();
        let pb: f64 = (25..35).map(|i| b.predict_row(&[i as f64, 0.0])[0]).sum();
        assert!((pa - pb).abs() > 1e-12);
    }

    #[test]
    fn predict_matrix_shape() {
        let (x, y) = step_data();
        let f = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 1).unwrap();
        let p = f.predict(&x);
        assert_eq!(p.rows(), x.rows());
        assert_eq!(p.cols(), 1);
    }

    #[test]
    fn regressor_bounds_bracket_concrete_predictions() {
        let (x, y) = step_data();
        let f = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 11).unwrap();
        // Unknown second feature: bounds must bracket every completion.
        for a in [2.0, 25.0, 31.0, 58.0] {
            let (lo, hi) = f.predict_bounds_row(&[Some(a), None]);
            for b in [0.0, 5.0, 12.0] {
                let exact = f.predict_row(&[a, b]);
                assert!(
                    lo[0] <= exact[0] + 1e-12 && exact[0] <= hi[0] + 1e-12,
                    "a={a} b={b}: {} not in [{}, {}]",
                    exact[0],
                    lo[0],
                    hi[0]
                );
            }
        }
        // Global ranges bracket everything, and are non-trivial for the
        // step data (the leaves span roughly [1, 5]).
        let ranges = f.output_ranges();
        assert_eq!(ranges.len(), 1);
        let (lo, hi) = ranges[0];
        assert!(lo >= 0.5 && hi <= 5.5, "range [{lo}, {hi}]");
        assert!(lo < hi);
        for i in 0..60 {
            let p = f.predict_row(&[i as f64, ((i * 7) % 13) as f64])[0];
            assert!(lo <= p + 1e-12 && p <= hi + 1e-12);
        }
    }

    #[test]
    fn into_and_scalar_forms_match_value_forms_bitwise() {
        let (x, y) = step_data();
        let f = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 4).unwrap();
        let mut scratch = Vec::new();
        for i in 0..10 {
            let row = [i as f64 * 5.0, ((i * 3) % 7) as f64];
            f.predict_row_into(&row, &mut scratch);
            let value = f.predict_row(&row);
            assert_eq!(scratch.len(), value.len());
            for (a, b) in scratch.iter().zip(&value) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        let labels: Vec<usize> = (0..60).map(|i| usize::from(i >= 30)).collect();
        let c = RandomForestClassifier::fit(&x, &labels, 2, &ForestConfig::default(), 4).unwrap();
        let mut proba = Vec::new();
        for i in 0..10 {
            let row = [i as f64 * 5.0, ((i * 3) % 7) as f64];
            c.predict_proba_row_into(&row, &mut proba);
            let value = c.predict_proba_row(&row);
            for (a, b) in proba.iter().zip(&value) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (class, expected) in value.iter().enumerate() {
                assert_eq!(
                    c.predict_proba_class(&row, class).to_bits(),
                    expected.to_bits()
                );
            }
        }
    }

    #[test]
    fn zero_trees_is_rejected() {
        let (x, y) = step_data();
        let cfg = ForestConfig {
            n_trees: 0,
            ..ForestConfig::default()
        };
        assert!(matches!(
            RandomForestRegressor::fit(&x, &y, &cfg, 1),
            Err(MlError::BadConfig(_))
        ));
    }

    #[test]
    fn classifier_learns_two_blobs() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let (cx, cy, l) = if i % 2 == 0 { (0.0, 0.0, 0) } else { (10.0, 10.0, 1) };
            rows.push(vec![cx + (i % 5) as f64 * 0.2, cy + (i % 7) as f64 * 0.2]);
            labels.push(l);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let f = RandomForestClassifier::fit(&x, &labels, 2, &ForestConfig::default(), 3).unwrap();
        assert_eq!(f.predict_row(&[0.5, 0.5]), 0);
        assert_eq!(f.predict_row(&[10.5, 10.5]), 1);
        let p = f.predict_proba_row(&[0.5, 0.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[0] > 0.8);
    }

    #[test]
    fn classifier_bounds_bracket_concrete_predictions() {
        // Label depends on feature 0 only; feature 1 is noise.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            rows.push(vec![i as f64, ((i * 3) % 11) as f64]);
            labels.push(usize::from(i >= 30));
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let f = RandomForestClassifier::fit(&x, &labels, 2, &ForestConfig::default(), 7).unwrap();

        // Unknown noise feature: bounds must bracket every completion.
        for a in [3.0, 15.0, 29.0, 31.0, 55.0] {
            let (lo, hi) = f.predict_proba_bounds_row(&[Some(a), None]);
            for b in [0.0, 2.5, 10.0] {
                let exact = f.predict_proba_row(&[a, b]);
                for c in 0..2 {
                    assert!(
                        lo[c] <= exact[c] + 1e-12 && exact[c] <= hi[c] + 1e-12,
                        "a={a} b={b} class {c}"
                    );
                }
            }
        }
        // Far from the boundary the class is certified despite the
        // unknown feature.
        let (_, hi) = f.predict_proba_bounds_row(&[Some(2.0), None]);
        assert!(hi[1] < 0.5, "x=2 should certify class 0, got hi {}", hi[1]);
        let (lo, _) = f.predict_proba_bounds_row(&[Some(58.0), None]);
        assert!(lo[1] > 0.5, "x=58 should certify class 1, got lo {}", lo[1]);
    }

    #[test]
    fn classifier_predict_covers_all_rows() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![11.0]]).unwrap();
        let y = vec![0, 0, 1, 1];
        let f = RandomForestClassifier::fit(&x, &y, 2, &ForestConfig::default(), 5).unwrap();
        let preds = f.predict(&x);
        assert_eq!(preds.len(), 4);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        assert!(matches!(
            RandomForestClassifier::fit(&x, &[0], 2, &ForestConfig::default(), 1),
            Err(MlError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn sample_fraction_below_one_still_works() {
        let (x, y) = step_data();
        let cfg = ForestConfig {
            sample_fraction: 0.5,
            ..ForestConfig::default()
        };
        let f = RandomForestRegressor::fit(&x, &y, &cfg, 1).unwrap();
        assert!(f.predict_row(&[50.0, 0.0])[0] > 3.0);
    }
}

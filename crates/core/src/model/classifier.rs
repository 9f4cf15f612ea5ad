//! The convolution-vs-estimation gate.
//!
//! "A binary classifier that determines if we should use convolution or
//! estimation at a specific intersection." Labels come from the ground
//! truth: a pair is positive (use estimation) when its true sum diverges
//! from the convolution of its marginals. The gate is a random-forest
//! classifier over the raw pair features.

use crate::error::CoreError;
use crate::model::features::FEATURE_COUNT;
use serde::{Deserialize, Serialize};
use srt_ml::dataset::Matrix;
use srt_ml::forest::{ForestConfig, RandomForestClassifier};

/// Snapshot tag of the forest gate. Tag `1` was a logistic-regression
/// gate that no longer exists; snapshots carrying it fail to decode.
const FOREST_TAG: u8 = 0;

/// A fitted dependence classifier.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DependenceClassifier {
    forest: RandomForestClassifier,
    /// Decision threshold on `P(dependent)`.
    pub threshold: f64,
}

impl DependenceClassifier {
    /// Fits the gate on pair features and dependence labels
    /// (`1` = dependent = use estimation).
    pub fn fit(
        features: &Matrix,
        labels: &[usize],
        forest_cfg: &ForestConfig,
        seed: u64,
    ) -> Result<Self, CoreError> {
        if features.cols() != FEATURE_COUNT {
            return Err(CoreError::Ml(srt_ml::MlError::FeatureMismatch {
                expected: FEATURE_COUNT,
                found: features.cols(),
            }));
        }
        Ok(DependenceClassifier {
            forest: RandomForestClassifier::fit(features, labels, 2, forest_cfg, seed)?,
            threshold: 0.5,
        })
    }

    /// `P(dependent)` — probability that estimation should replace
    /// convolution at this intersection. The class-scalar query allocates
    /// nothing and is bit-identical to `predict_proba_row(features)[1]`.
    pub fn prob_dependent(&self, features: &[f64]) -> f64 {
        self.forest.predict_proba_class(features, 1)
    }

    /// The gate decision: `true` = use the estimation model.
    pub fn use_estimation(&self, features: &[f64]) -> bool {
        self.prob_dependent(features) >= self.threshold
    }

    /// [`DependenceClassifier::use_estimation`]; the scratch row is
    /// unused (the forest gate allocates nothing) and kept for callers
    /// written against the scratch-taking signature.
    pub fn use_estimation_scratch(&self, features: &[f64], _scratch: &mut Vec<f64>) -> bool {
        self.use_estimation(features)
    }

    /// `true` when the gate provably answers *convolution* no matter what
    /// values the unknown (`None`) features take — the per-pair
    /// certificate behind the router's convolution-gated dominance
    /// pruning. Decided by the forest's interval walk of each tree's
    /// upper bound on `P(dependent)`, which stops at the first tree that
    /// settles the answer
    /// ([`srt_ml::forest::RandomForestClassifier::proba_upper_below`]).
    pub fn certifies_convolution(&self, features: &[Option<f64>]) -> bool {
        self.forest.proba_upper_below(features, 1, self.threshold)
    }

    /// Appends the binary snapshot of the gate to `buf`.
    pub fn write_bytes(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        buf.put_f64_le(self.threshold);
        buf.put_u8(FOREST_TAG);
        self.forest.write_bytes(buf);
    }

    /// Decodes a gate written by [`DependenceClassifier::write_bytes`],
    /// advancing `data`.
    pub fn read_bytes(data: &mut &[u8]) -> Result<Self, CoreError> {
        use bytes::Buf;
        let corrupt = |msg: &str| CoreError::Ml(srt_ml::MlError::Corrupt(msg.into()));
        if data.remaining() < 9 {
            return Err(corrupt("truncated classifier header"));
        }
        let threshold = data.get_f64_le();
        if !threshold.is_finite() {
            return Err(corrupt("classifier threshold must be finite"));
        }
        match data.get_u8() {
            FOREST_TAG => Ok(DependenceClassifier {
                forest: RandomForestClassifier::read_bytes(data)?,
                threshold,
            }),
            other => Err(CoreError::Ml(srt_ml::MlError::Corrupt(format!(
                "unknown classifier backend tag {other}"
            )))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dependence driven by the turn-angle feature (index 19).
    fn toy_training(n: usize) -> (Matrix, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let mut f = vec![0.0; FEATURE_COUNT];
            let angle = (i % 18) as f64 * 10.0;
            f[19] = angle;
            f[0] = 50.0 + (i % 7) as f64;
            xs.push(f);
            ys.push(usize::from(angle > 80.0));
        }
        (Matrix::from_rows(&xs).unwrap(), ys)
    }

    fn forest_cfg() -> ForestConfig {
        ForestConfig {
            n_trees: 15,
            ..ForestConfig::default()
        }
    }

    #[test]
    fn forest_backend_learns_the_gate() {
        let (x, y) = toy_training(180);
        let c = DependenceClassifier::fit(&x, &y, &forest_cfg(), 1).unwrap();
        let mut f = vec![0.0; FEATURE_COUNT];
        f[19] = 170.0;
        assert!(c.use_estimation(&f));
        f[19] = 10.0;
        assert!(!c.use_estimation(&f));
    }

    #[test]
    fn probabilities_are_probabilities() {
        let (x, y) = toy_training(100);
        let c = DependenceClassifier::fit(&x, &y, &forest_cfg(), 2).unwrap();
        for i in 0..10 {
            let mut f = vec![0.0; FEATURE_COUNT];
            f[19] = i as f64 * 20.0;
            let p = c.prob_dependent(&f);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn threshold_shifts_the_decision() {
        let (x, y) = toy_training(100);
        let mut c = DependenceClassifier::fit(&x, &y, &forest_cfg(), 3).unwrap();
        let mut f = vec![0.0; FEATURE_COUNT];
        f[19] = 90.0;
        // Threshold 0 accepts any probability; a threshold above 1 can
        // never be met. Both exercise the gate semantics independent of
        // how confident the trained forest happens to be.
        c.threshold = 0.0;
        assert!(c.use_estimation(&f));
        c.threshold = 1.01;
        assert!(!c.use_estimation(&f));
    }

    #[test]
    fn wrong_width_is_rejected() {
        let x = Matrix::from_rows(&vec![vec![0.0; 5]; 10]).unwrap();
        let y = vec![0; 10];
        assert!(DependenceClassifier::fit(&x, &y, &forest_cfg(), 1).is_err());
    }
}

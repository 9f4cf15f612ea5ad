//! The distribution estimation model.
//!
//! A multi-output random-forest regressor mapping the 24 pair features to
//! `B` bucket masses. The output *support* is not learned — it is known at
//! inference time as `[pre.start + next.start, pre.end + next.end]` (travel
//! times add), so the model only has to learn the *shape*, which is what
//! makes a model trained on two-edge pairs transfer to virtual edges.

use crate::error::CoreError;
use crate::model::features::FEATURE_COUNT;
use serde::{Deserialize, Serialize};
use srt_dist::Histogram;
use srt_ml::dataset::Matrix;
use srt_ml::forest::{ForestConfig, RandomForestRegressor};

/// A fitted distribution estimator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DistributionEstimator {
    forest: RandomForestRegressor,
    bins: usize,
}

impl DistributionEstimator {
    /// Fits the estimator.
    ///
    /// `features` is `n x FEATURE_COUNT`; `targets` is `n x bins`, each row
    /// a ground-truth pair-sum histogram re-binned onto the pair's known
    /// support.
    pub fn fit(
        features: &Matrix,
        targets: &Matrix,
        bins: usize,
        cfg: &ForestConfig,
        seed: u64,
    ) -> Result<Self, CoreError> {
        if features.cols() != FEATURE_COUNT {
            return Err(CoreError::Ml(srt_ml::MlError::FeatureMismatch {
                expected: FEATURE_COUNT,
                found: features.cols(),
            }));
        }
        if targets.cols() != bins {
            return Err(CoreError::Ml(srt_ml::MlError::FeatureMismatch {
                expected: bins,
                found: targets.cols(),
            }));
        }
        let forest = RandomForestRegressor::fit(features, targets, cfg, seed)?;
        Ok(DistributionEstimator { forest, bins })
    }

    /// Number of output buckets.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Predicts the bucket-mass vector (clipped to non-negative and
    /// renormalized to unit mass).
    pub fn predict_masses(&self, features: &[f64]) -> Vec<f64> {
        let mut masses = Vec::new();
        self.predict_masses_into(features, &mut masses);
        masses
    }

    /// [`DistributionEstimator::predict_masses`] writing into a
    /// caller-provided buffer — the allocation-free form the routing
    /// engine's estimator arm runs on. Bit-identical to the
    /// value-returning form, which delegates here.
    pub fn predict_masses_into(&self, features: &[f64], masses: &mut Vec<f64>) {
        self.forest.predict_row_into(features, masses);
        let mut total = 0.0;
        for m in masses.iter_mut() {
            if !m.is_finite() || *m < 0.0 {
                *m = 0.0;
            }
            total += *m;
        }
        if total <= 0.0 {
            // Degenerate prediction: fall back to uniform.
            let u = 1.0 / masses.len() as f64;
            masses.iter_mut().for_each(|m| *m = u);
        } else {
            masses.iter_mut().for_each(|m| *m /= total);
        }
    }

    /// Appends the binary snapshot of the estimator to `buf`.
    pub fn write_bytes(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        buf.put_u32_le(self.bins as u32);
        self.forest.write_bytes(buf);
    }

    /// Decodes an estimator written by
    /// [`DistributionEstimator::write_bytes`], advancing `data`.
    pub fn read_bytes(data: &mut &[u8]) -> Result<Self, CoreError> {
        use bytes::Buf;
        if data.remaining() < 4 {
            return Err(CoreError::Ml(srt_ml::MlError::Corrupt(
                "truncated estimator header".into(),
            )));
        }
        let bins = data.get_u32_le() as usize;
        let forest = RandomForestRegressor::read_bytes(data)?;
        if forest.n_outputs() != bins {
            return Err(CoreError::Ml(srt_ml::MlError::Corrupt(format!(
                "estimator bins {bins} disagree with forest outputs {}",
                forest.n_outputs()
            ))));
        }
        Ok(DistributionEstimator { forest, bins })
    }

    /// Split-count feature importances of the underlying forest
    /// (aligned with [`crate::model::features::FEATURE_NAMES`]).
    pub fn feature_importances(&self) -> Vec<f64> {
        self.forest.feature_importances()
    }

    /// Provable upper bounds on the prefix mass of **any** prediction:
    /// `caps[k]` bounds the total mass [`DistributionEstimator::predict`]
    /// can place in its first `k` buckets, over *all* feature inputs.
    ///
    /// Derived from the forest's global per-output leaf ranges
    /// ([`srt_ml::forest::RandomForestRegressor::output_ranges`]): with
    /// `P` the largest achievable (clipped) prefix sum and `S` the
    /// smallest achievable (clipped) suffix sum, the normalized prefix
    /// mass is at most `P / (P + S)` — the ratio is monotone in both
    /// arguments. When every leaf range allows an all-zero raw output,
    /// the uniform fallback of
    /// [`DistributionEstimator::predict_masses`] is reachable and the
    /// cap is widened to cover it.
    pub fn prefix_mass_caps(&self) -> Vec<f64> {
        let ranges = self.forest.output_ranges();
        let hi_pos: Vec<f64> = ranges.iter().map(|&(_, h)| h.max(0.0)).collect();
        let lo_pos: Vec<f64> = ranges.iter().map(|&(l, _)| l.max(0.0)).collect();
        let uniform_reachable = lo_pos.iter().sum::<f64>() <= 0.0;
        let mut caps = Vec::with_capacity(self.bins + 1);
        caps.push(0.0);
        for k in 1..=self.bins {
            let p_max: f64 = hi_pos[..k].iter().sum();
            let s_min: f64 = lo_pos[k..].iter().sum();
            let mut cap = if p_max <= 0.0 {
                0.0
            } else if s_min <= 0.0 {
                1.0
            } else {
                p_max / (p_max + s_min)
            };
            if uniform_reachable {
                cap = cap.max(k as f64 / self.bins as f64);
            }
            caps.push(cap.min(1.0));
        }
        caps[self.bins] = 1.0;
        caps
    }

    /// Predicts the joint distribution over the known support
    /// `[support_lo, support_hi)`.
    ///
    /// # Panics
    /// Panics if `support_hi <= support_lo` (caller passes histogram
    /// bounds, which are always ordered).
    pub fn predict(&self, features: &[f64], support_lo: f64, support_hi: f64) -> Histogram {
        let mut out = srt_dist::HistogramBuf::new();
        self.predict_into(features, support_lo, support_hi, &mut out);
        out.into_histogram()
            .expect("clipped, normalized masses form a valid histogram")
    }

    /// [`DistributionEstimator::predict`] writing into a caller-provided
    /// buffer. The masses written are raw in the [`srt_dist::HistogramBuf`]
    /// sense (one normalization pending — the one
    /// [`srt_dist::HistogramBuf::into_histogram`] applies), so promoting
    /// the buffer is bit-identical to the value-returning form.
    ///
    /// # Panics
    /// Panics if `support_hi <= support_lo` (caller passes histogram
    /// bounds, which are always ordered).
    pub fn predict_into(
        &self,
        features: &[f64],
        support_lo: f64,
        support_hi: f64,
        out: &mut srt_dist::HistogramBuf,
    ) {
        assert!(
            support_hi > support_lo,
            "estimator support must be non-degenerate"
        );
        self.predict_masses_into(features, out.reset_masses());
        let width = (support_hi - support_lo) / self.bins as f64;
        out.set_grid(support_lo, width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srt_ml::tree::TreeConfig;

    /// Synthetic task: features [m, s] -> triangular masses centred by m.
    fn toy_training(n: usize) -> (Matrix, Matrix) {
        let bins = 4;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let m = (i % 10) as f64 / 10.0;
            let mut f = vec![0.0; FEATURE_COUNT];
            f[0] = m; // pre_mean drives the shape
            f[1] = 0.1;
            xs.push(f);
            let mut t = vec![0.0; bins];
            let peak = ((m * bins as f64) as usize).min(bins - 1);
            t[peak] = 0.7;
            t[(peak + 1).min(bins - 1)] += 0.3;
            ys.push(t);
        }
        (
            Matrix::from_rows(&xs).unwrap(),
            Matrix::from_rows(&ys).unwrap(),
        )
    }

    fn cfg() -> ForestConfig {
        ForestConfig {
            n_trees: 10,
            tree: TreeConfig {
                max_depth: 6,
                ..TreeConfig::default()
            },
            ..ForestConfig::default()
        }
    }

    #[test]
    fn fit_and_predict_round_trip() {
        let (x, y) = toy_training(100);
        let est = DistributionEstimator::fit(&x, &y, 4, &cfg(), 1).unwrap();
        assert_eq!(est.bins(), 4);
        let mut f = vec![0.0; FEATURE_COUNT];
        f[0] = 0.05;
        f[1] = 0.1;
        let h = est.predict(&f, 100.0, 200.0);
        assert_eq!(h.num_bins(), 4);
        assert_eq!(h.start(), 100.0);
        assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Low pre_mean -> early peak.
        assert!(h.probs()[0] > 0.4, "probs {:?}", h.probs());
    }

    #[test]
    fn prediction_mass_is_always_normalized() {
        let (x, y) = toy_training(60);
        let est = DistributionEstimator::fit(&x, &y, 4, &cfg(), 2).unwrap();
        for i in 0..10 {
            let mut f = vec![0.0; FEATURE_COUNT];
            f[0] = i as f64 / 10.0;
            let masses = est.predict_masses(&f);
            assert!((masses.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(masses.iter().all(|&m| m >= 0.0));
        }
    }

    #[test]
    fn prefix_caps_bound_every_prediction() {
        let (x, y) = toy_training(80);
        let est = DistributionEstimator::fit(&x, &y, 4, &cfg(), 3).unwrap();
        let caps = est.prefix_mass_caps();
        assert_eq!(caps.len(), 5);
        assert_eq!(caps[0], 0.0);
        assert_eq!(caps[4], 1.0);
        // Monotone: prefix grows, suffix shrinks.
        for w in caps.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // Every concrete prediction respects the caps.
        for i in 0..20 {
            let mut f = vec![0.0; FEATURE_COUNT];
            f[0] = (i % 10) as f64 / 10.0;
            f[1] = 0.1 + (i / 10) as f64;
            let m = est.predict_masses(&f);
            let mut acc = 0.0;
            for (k, &mass) in m.iter().enumerate() {
                acc += mass;
                assert!(acc <= caps[k + 1] + 1e-9, "prefix {k} of {m:?} vs {caps:?}");
            }
        }
        // The toy task concentrates late mass for late peaks, so the
        // first-bucket cap must be non-trivial only if the forest's
        // leaves allow it — either way it is a valid probability.
        assert!((0.0..=1.0).contains(&caps[1]));
    }

    #[test]
    fn wrong_feature_width_is_rejected() {
        let x = Matrix::from_rows(&vec![vec![0.0; 3]; 10]).unwrap();
        let y = Matrix::from_rows(&vec![vec![0.25; 4]; 10]).unwrap();
        assert!(matches!(
            DistributionEstimator::fit(&x, &y, 4, &cfg(), 1),
            Err(CoreError::Ml(srt_ml::MlError::FeatureMismatch { .. }))
        ));
    }

    #[test]
    fn wrong_target_width_is_rejected() {
        let (x, y) = toy_training(10);
        assert!(matches!(
            DistributionEstimator::fit(&x, &y, 9, &cfg(), 1),
            Err(CoreError::Ml(srt_ml::MlError::FeatureMismatch { .. }))
        ));
    }

    #[test]
    #[should_panic(expected = "non-degenerate")]
    fn degenerate_support_panics() {
        let (x, y) = toy_training(20);
        let est = DistributionEstimator::fit(&x, &y, 4, &cfg(), 1).unwrap();
        let f = vec![0.0; FEATURE_COUNT];
        let _ = est.predict(&f, 10.0, 10.0);
    }
}

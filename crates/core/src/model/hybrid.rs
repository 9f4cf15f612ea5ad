//! The Hybrid Model: classifier-gated combination of convolution and
//! learned estimation.

use crate::model::calibration::DominanceCalibration;
use crate::model::classifier::DependenceClassifier;
use crate::model::envelope::SupportEnvelope;
use crate::model::estimator::DistributionEstimator;
use crate::model::features::{pair_features, PreSummary};
use serde::{Deserialize, Serialize};
use srt_dist::{
    convolve_bounded, convolve_bounded_into, ConvRoute, Histogram, HistogramBuf, HistogramPool,
    HistogramView,
};
use srt_graph::{EdgeId, RoadGraph};

/// What one combine step did — telemetry returned by
/// [`HybridModel::combine_into`] (and threaded through
/// `HybridCost::combine_pooled_traced` up to the engine's counters).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CombineOutcome {
    /// `true` when the classifier routed the step to the estimator arm.
    pub used_estimator: bool,
    /// The convolution route taken (`None` on the estimator arm).
    pub route: Option<ConvRoute>,
}

impl CombineOutcome {
    /// `true` when the step convolved on the shared-lattice fast route —
    /// what `EngineStats::lattice_fast_path` tallies.
    pub fn lattice_hit(self) -> bool {
        self.route.is_some_and(ConvRoute::lattice_hit)
    }
}

/// A fitted hybrid model: one estimator plus its gate classifier
/// ("an instance of the classifier is initialized for each estimation
/// model").
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HybridModel {
    /// The distribution estimation model.
    pub estimator: DistributionEstimator,
    /// The convolution-vs-estimation gate.
    pub classifier: DependenceClassifier,
    /// Bucket budget for combined distributions.
    pub bins: usize,
    /// Measured dominance behaviour of the fitted combine operator
    /// (`None` for models trained before calibration existed, e.g. v1
    /// snapshots). Feeds the router's margin-dominance pruning.
    pub calibration: Option<DominanceCalibration>,
    /// Support-mass envelope of the estimator arm (`None` for models
    /// trained before envelopes existed, e.g. v1/v2 snapshots). Feeds
    /// the router's certified-envelope pruning bound.
    pub envelope: Option<SupportEnvelope>,
}

impl HybridModel {
    /// Combines the distribution of the path so far (`pre`, last edge
    /// `prev_edge`) with `next_edge`, letting the classifier pick the
    /// mechanism. Returns the combined distribution and whether the
    /// estimator was used.
    pub fn combine(
        &self,
        g: &RoadGraph,
        pre: &Histogram,
        prev_edge: EdgeId,
        next_edge: EdgeId,
        next_marginal: &Histogram,
    ) -> (Histogram, bool) {
        let features = pair_features(g, pre, prev_edge, next_edge, next_marginal);
        if self.classifier.use_estimation(&features) {
            (self.estimate(pre, next_marginal, &features), true)
        } else {
            (self.convolve(pre, next_marginal), false)
        }
    }

    /// The estimation arm: predicts over the known support
    /// `[pre.start + next.start, pre.end + next.end)`.
    pub fn estimate(
        &self,
        pre: &Histogram,
        next_marginal: &Histogram,
        features: &[f64],
    ) -> Histogram {
        let lo = pre.start() + next_marginal.start();
        let hi = pre.end() + next_marginal.end();
        self.estimator.predict(features, lo, hi)
    }

    /// The convolution arm (bucket-capped). `pre` and the marginal almost
    /// never share a bucket width, so this is `srt_dist`'s closed-form
    /// capped mixed-width step; the engine, the oracle router, the pivot
    /// baseline and the calibration probes all reach it through here or
    /// [`HybridModel::convolve_into`], so they cannot disagree on it.
    pub fn convolve(&self, pre: &Histogram, next_marginal: &Histogram) -> Histogram {
        convolve_bounded(pre, next_marginal, self.bins)
            .expect("bounded convolution of valid histograms succeeds")
    }

    /// In-place twin of [`HybridModel::combine`]: gates on the classifier
    /// (an allocation-free forest query) and writes the combined masses into `out`, raw in the
    /// [`HistogramBuf`] sense (one normalization pending). Promoting
    /// `out` is bit-identical to the value-returning form. `summary` must
    /// be [`PreSummary::of`]`(pre)` — passed in so a caller extending one
    /// `pre` along several edges summarizes it once. Returns a
    /// [`CombineOutcome`] describing which arm (and convolution route)
    /// ran.
    // The argument list mirrors `combine` plus the summary, the output
    // buffer and the scratch pool; collapsing it into a params struct
    // would churn every routing call site for no clarity gain.
    #[allow(clippy::too_many_arguments)]
    pub fn combine_into(
        &self,
        g: &RoadGraph,
        pre: &HistogramView<'_>,
        summary: &PreSummary,
        prev_edge: EdgeId,
        next_edge: EdgeId,
        next_marginal: &Histogram,
        out: &mut HistogramBuf,
        pool: &mut HistogramPool,
    ) -> CombineOutcome {
        let features = summary.assemble(g, prev_edge, next_edge, next_marginal);
        let use_est = self.classifier.use_estimation(&features);
        let route = if use_est {
            self.estimate_into(pre, next_marginal, &features, out);
            None
        } else {
            Some(self.convolve_into(pre, next_marginal, out, pool))
        };
        CombineOutcome {
            used_estimator: use_est,
            route,
        }
    }

    /// In-place twin of [`HybridModel::estimate`].
    pub fn estimate_into(
        &self,
        pre: &HistogramView<'_>,
        next_marginal: &Histogram,
        features: &[f64],
        out: &mut HistogramBuf,
    ) {
        let lo = pre.start() + next_marginal.start();
        let hi = pre.end() + next_marginal.end();
        self.estimator.predict_into(features, lo, hi, out);
    }

    /// In-place twin of [`HybridModel::convolve`]. Returns the
    /// [`ConvRoute`] the bounded convolution took.
    pub fn convolve_into(
        &self,
        pre: &HistogramView<'_>,
        next_marginal: &Histogram,
        out: &mut HistogramBuf,
        pool: &mut HistogramPool,
    ) -> ConvRoute {
        convolve_bounded_into(pre, &next_marginal.view(), self.bins, out, pool)
            .expect("bounded convolution of valid histograms succeeds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::features::FEATURE_COUNT;
    use srt_graph::{EdgeAttrs, GraphBuilder, Point, RoadCategory};
    use srt_ml::dataset::Matrix;
    use srt_ml::forest::ForestConfig;

    fn tiny_graph() -> (RoadGraph, EdgeId, EdgeId) {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(10.0, 56.0));
        let c = b.add_node(Point::new(10.01, 56.0));
        let d = b.add_node(Point::new(10.02, 56.0));
        let e1 = b.add_edge(a, c, EdgeAttrs::new(700.0, RoadCategory::Primary, 80.0));
        let e2 = b.add_edge(c, d, EdgeAttrs::new(400.0, RoadCategory::Primary, 80.0));
        (b.build(), e1, e2)
    }

    /// A hybrid model whose classifier always answers `label`.
    fn fixed_model(bins: usize, label: usize) -> HybridModel {
        let n = 60;
        let mut xs = Vec::new();
        let mut est_targets = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let mut f = vec![0.0; FEATURE_COUNT];
            f[0] = i as f64;
            xs.push(f);
            // Estimator target: all mass in the last bucket (distinctive).
            let mut t = vec![0.0; bins];
            t[bins - 1] = 1.0;
            est_targets.push(t);
            labels.push(label);
        }
        let x = Matrix::from_rows(&xs).unwrap();
        let y = Matrix::from_rows(&est_targets).unwrap();
        let cfg = ForestConfig {
            n_trees: 5,
            ..ForestConfig::default()
        };
        let estimator = DistributionEstimator::fit(&x, &y, bins, &cfg, 1).unwrap();
        // Constant labels: tree is a single leaf predicting `label`.
        let classifier = DependenceClassifier::fit(&x, &labels, &cfg, 1).unwrap();
        HybridModel {
            estimator,
            classifier,
            bins,
            calibration: None,
            envelope: None,
        }
    }

    #[test]
    fn convolution_arm_matches_direct_convolution() {
        let (g, e1, e2) = tiny_graph();
        let model = fixed_model(8, 0); // always convolve
        let pre = Histogram::new(30.0, 5.0, vec![0.5, 0.5]).unwrap();
        let nm = Histogram::new(18.0, 4.0, vec![0.25; 4]).unwrap();
        let (h, used_est) = model.combine(&g, &pre, e1, e2, &nm);
        assert!(!used_est);
        let direct = convolve_bounded(&pre, &nm, 8).unwrap();
        assert_eq!(h, direct);
    }

    #[test]
    fn estimation_arm_uses_the_known_support() {
        let (g, e1, e2) = tiny_graph();
        let model = fixed_model(8, 1); // always estimate
        let pre = Histogram::new(30.0, 5.0, vec![0.5, 0.5]).unwrap();
        let nm = Histogram::new(18.0, 4.0, vec![0.25; 4]).unwrap();
        let (h, used_est) = model.combine(&g, &pre, e1, e2, &nm);
        assert!(used_est);
        assert!((h.start() - 48.0).abs() < 1e-12); // 30 + 18
        assert!((h.end() - 74.0).abs() < 1e-12); // 40 + 34
        assert_eq!(h.num_bins(), 8);
        // The trained estimator puts its mass late.
        assert!(h.probs()[7] > 0.5);
    }

    #[test]
    fn combined_mass_is_one_either_way() {
        let (g, e1, e2) = tiny_graph();
        for label in [0, 1] {
            let model = fixed_model(6, label);
            let pre = Histogram::new(10.0, 2.0, vec![0.2, 0.3, 0.5]).unwrap();
            let nm = Histogram::new(5.0, 1.0, vec![0.5, 0.5]).unwrap();
            let (h, _) = model.combine(&g, &pre, e1, e2, &nm);
            assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(h.num_bins() <= 6);
        }
    }
}

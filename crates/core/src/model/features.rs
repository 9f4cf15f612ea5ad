//! Feature extraction for (virtual-edge, next-edge) pairs.
//!
//! The same 24-dimensional vector serves training (where the "virtual
//! edge" is a real edge's marginal) and inference (where it is the
//! distribution of the path so far). Everything is derivable from the
//! pre-distribution, the next edge's marginal and static road/junction
//! attributes — no quantity that only exists at training time leaks in.

use srt_dist::{Histogram, HistogramView};
use srt_graph::{EdgeId, RoadGraph};

/// Dimension of the pair feature vector.
pub const FEATURE_COUNT: usize = 24;

/// Human-readable feature names (aligned with [`pair_features`] output).
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "pre_mean",
    "pre_std",
    "pre_min",
    "pre_max",
    "pre_span",
    "pre_entropy",
    "pre_mode_mass",
    "pre_q25",
    "pre_q50",
    "pre_q75",
    "next_mean",
    "next_std",
    "next_min",
    "next_max",
    "next_span",
    "next_length_m",
    "next_speed_kmh",
    "next_freeflow_s",
    "next_category",
    "turn_angle_deg",
    "junction_out_degree",
    "junction_in_degree",
    "mean_ratio",
    "span_ratio",
];

/// Extracts the feature vector for combining `pre` (the distribution of
/// the path so far, whose last edge is `prev_edge`) with `next_edge`.
///
/// `next_marginal` is the travel-time marginal of `next_edge`.
pub fn pair_features(
    g: &RoadGraph,
    pre: &Histogram,
    prev_edge: EdgeId,
    next_edge: EdgeId,
    next_marginal: &Histogram,
) -> [f64; FEATURE_COUNT] {
    pair_features_view(g, &pre.view(), prev_edge, next_edge, next_marginal)
}

/// [`pair_features`] over a borrowed pre-distribution. Bit-identical to
/// the `Histogram` form (which delegates here); the composition of the
/// two steps the routing engine runs separately — [`PreSummary::of`] once
/// per expanded label, [`PreSummary::assemble`] once per out-edge — so
/// there is exactly one feature definition.
pub fn pair_features_view(
    g: &RoadGraph,
    pre: &HistogramView<'_>,
    prev_edge: EdgeId,
    next_edge: EdgeId,
    next_marginal: &Histogram,
) -> [f64; FEATURE_COUNT] {
    PreSummary::of(pre).assemble(g, prev_edge, next_edge, next_marginal)
}

/// Number of leading `pre_*` features a [`PreSummary`] holds.
const PRE_STATS: usize = 10;

/// The ten `pre_*` statistics of a pre-distribution (features `0..10`, in
/// [`FEATURE_NAMES`] order). They depend only on the path so far, so a
/// search that extends one label along several out-edges computes them
/// once — an `ln` per bucket for the entropy, three quantile scans and
/// the moment folds — instead of once per out-edge.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct PreSummary([f64; PRE_STATS]);

impl PreSummary {
    /// Summarizes `pre` (the distribution of the path so far).
    pub fn of(pre: &HistogramView<'_>) -> Self {
        PreSummary([
            pre.mean(),
            pre.std_dev(),
            pre.start(),
            pre.end(),
            pre.end() - pre.start(),
            pre.entropy(),
            pre.max_prob(),
            pre.quantile(0.25),
            pre.quantile(0.50),
            pre.quantile(0.75),
        ])
    }

    /// Completes the feature vector for extending the summarized path
    /// (last edge `prev_edge`) with `next_edge`: the next-edge and
    /// junction features plus the two ratios against the summary.
    pub fn assemble(
        &self,
        g: &RoadGraph,
        prev_edge: EdgeId,
        next_edge: EdgeId,
        next_marginal: &Histogram,
    ) -> [f64; FEATURE_COUNT] {
        let attrs = g.attrs(next_edge);
        let junction = g.edge_source(next_edge);
        let turn = g.turn_angle(prev_edge, next_edge).unwrap_or(0.0);

        let (pre_mean, pre_span) = (self.0[0], self.0[4]);
        let next_mean = next_marginal.mean();
        let next_span = next_marginal.end() - next_marginal.start();

        let mut f = [0.0; FEATURE_COUNT];
        f[..PRE_STATS].copy_from_slice(&self.0);
        f[PRE_STATS..].copy_from_slice(&[
            next_mean,
            next_marginal.std_dev(),
            next_marginal.start(),
            next_marginal.end(),
            next_span,
            attrs.length_m,
            attrs.speed_limit_kmh,
            attrs.freeflow_time_s(),
            attrs.category.as_index() as f64,
            turn,
            g.out_degree(junction) as f64,
            g.in_degree(junction) as f64,
            if next_mean > 0.0 {
                pre_mean / next_mean
            } else {
                0.0
            },
            if next_span > 0.0 {
                pre_span / next_span
            } else {
                0.0
            },
        ]);
        f
    }
}

/// Feature indices that depend on the pre-distribution (and therefore on
/// the particular path prefix a router label carries): the ten `pre_*`
/// statistics plus the two ratios against it.
pub const PRE_DEPENDENT_FEATURES: [usize; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 22, 23];

/// The pair feature vector with the pre-distribution treated as unknown:
/// static road/junction/next-edge features are concrete, every
/// pre-dependent entry is `None`. This is the input to the classifier's
/// interval bounds (`DependenceClassifier::certifies_convolution`),
/// which quantify the gate decision over *all* possible path prefixes
/// ending in `prev_edge`.
pub fn pair_features_partial(
    g: &RoadGraph,
    prev_edge: EdgeId,
    next_edge: EdgeId,
    next_marginal: &Histogram,
) -> [Option<f64>; FEATURE_COUNT] {
    // Any valid placeholder works for the pre slot: its contributions are
    // erased below.
    let probe = pair_features(g, next_marginal, prev_edge, next_edge, next_marginal);
    let mut out = probe.map(Some);
    for i in PRE_DEPENDENT_FEATURES {
        out[i] = None;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use srt_graph::{EdgeAttrs, GraphBuilder, Point, RoadCategory};

    fn tiny() -> (RoadGraph, EdgeId, EdgeId) {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(10.0, 56.0));
        let c = b.add_node(Point::new(10.01, 56.0));
        let d = b.add_node(Point::new(10.01, 56.01));
        let e1 = b.add_edge(a, c, EdgeAttrs::new(700.0, RoadCategory::Primary, 80.0));
        let e2 = b.add_edge(c, d, EdgeAttrs::new(400.0, RoadCategory::Residential, 50.0));
        (b.build(), e1, e2)
    }

    #[test]
    fn feature_vector_has_documented_shape() {
        let (g, e1, e2) = tiny();
        let pre = Histogram::new(30.0, 5.0, vec![0.25; 4]).unwrap();
        let nm = Histogram::new(25.0, 5.0, vec![0.5, 0.5]).unwrap();
        let f = pair_features(&g, &pre, e1, e2, &nm);
        assert_eq!(f.len(), FEATURE_COUNT);
        assert_eq!(FEATURE_NAMES.len(), FEATURE_COUNT);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn features_reflect_their_sources() {
        let (g, e1, e2) = tiny();
        let pre = Histogram::new(30.0, 5.0, vec![0.25; 4]).unwrap();
        let nm = Histogram::new(25.0, 5.0, vec![0.5, 0.5]).unwrap();
        let f = pair_features(&g, &pre, e1, e2, &nm);
        assert!((f[0] - pre.mean()).abs() < 1e-12);
        assert!((f[2] - 30.0).abs() < 1e-12);
        assert!((f[10] - nm.mean()).abs() < 1e-12);
        assert!((f[15] - 400.0).abs() < 1e-12);
        assert!((f[18] - RoadCategory::Residential.as_index() as f64).abs() < 1e-12);
        // Right-angle turn at the junction.
        assert!(f[19] > 45.0 && f[19] <= 180.0);
    }

    #[test]
    fn virtual_edge_changes_only_pre_features() {
        let (g, e1, e2) = tiny();
        let nm = Histogram::new(25.0, 5.0, vec![0.5, 0.5]).unwrap();
        let pre_a = Histogram::new(30.0, 5.0, vec![0.25; 4]).unwrap();
        let pre_b = Histogram::new(300.0, 10.0, vec![0.5, 0.5]).unwrap();
        let fa = pair_features(&g, &pre_a, e1, e2, &nm);
        let fb = pair_features(&g, &pre_b, e1, e2, &nm);
        // Next-edge/static features (10..22) identical.
        for i in 10..22 {
            assert!((fa[i] - fb[i]).abs() < 1e-12, "feature {i} changed");
        }
        // Pre features differ.
        assert!((fa[0] - fb[0]).abs() > 1.0);
    }

    #[test]
    fn partial_features_mask_exactly_the_pre_entries() {
        let (g, e1, e2) = tiny();
        let nm = Histogram::new(25.0, 5.0, vec![0.5, 0.5]).unwrap();
        let partial = pair_features_partial(&g, e1, e2, &nm);
        let concrete = pair_features(&g, &nm, e1, e2, &nm);
        for (i, slot) in partial.iter().enumerate() {
            if PRE_DEPENDENT_FEATURES.contains(&i) {
                assert!(slot.is_none(), "feature {i} should be masked");
            } else {
                assert_eq!(*slot, Some(concrete[i]), "feature {i} should be static");
            }
        }
        // Whatever the pre-distribution, the concrete vector agrees with
        // the partial one on every known entry.
        let other_pre = Histogram::new(300.0, 10.0, vec![0.5, 0.5]).unwrap();
        let f = pair_features(&g, &other_pre, e1, e2, &nm);
        for (i, slot) in partial.iter().enumerate() {
            if let Some(v) = slot {
                assert!((f[i] - v).abs() < 1e-12, "feature {i} drifted");
            }
        }
    }

    /// The feature definition as it stood before the summary/assembly
    /// split: one literal, every statistic read straight off the views.
    fn pair_features_unsplit(
        g: &RoadGraph,
        pre: &HistogramView<'_>,
        prev_edge: EdgeId,
        next_edge: EdgeId,
        next_marginal: &Histogram,
    ) -> [f64; FEATURE_COUNT] {
        let attrs = g.attrs(next_edge);
        let junction = g.edge_source(next_edge);
        let turn = g.turn_angle(prev_edge, next_edge).unwrap_or(0.0);
        let pre_span = pre.end() - pre.start();
        let next_span = next_marginal.end() - next_marginal.start();
        [
            pre.mean(),
            pre.std_dev(),
            pre.start(),
            pre.end(),
            pre_span,
            pre.entropy(),
            pre.max_prob(),
            pre.quantile(0.25),
            pre.quantile(0.50),
            pre.quantile(0.75),
            next_marginal.mean(),
            next_marginal.std_dev(),
            next_marginal.start(),
            next_marginal.end(),
            next_span,
            attrs.length_m,
            attrs.speed_limit_kmh,
            attrs.freeflow_time_s(),
            attrs.category.as_index() as f64,
            turn,
            g.out_degree(junction) as f64,
            g.in_degree(junction) as f64,
            if next_marginal.mean() > 0.0 {
                pre.mean() / next_marginal.mean()
            } else {
                0.0
            },
            if next_span > 0.0 {
                pre_span / next_span
            } else {
                0.0
            },
        ]
    }

    /// The engine's two-step form (summary once, assembly per out-edge)
    /// and the one-shot `pair_features_view` against the unsplit
    /// definition, bit for bit, on the view shapes the search stages: a
    /// point mass, a bucket-capped convolution result, and a
    /// zero-anchored payload translated by its offset.
    #[test]
    fn summary_plus_assembly_is_bitwise_the_unsplit_definition() {
        let (g, e1, e2) = tiny();
        let nm = Histogram::new(25.0, 5.0, vec![0.5, 0.5]).unwrap();
        let point = Histogram::point_mass(10.0, 1e-6).unwrap();
        let wide = Histogram::new(30.0, 0.75, (1..=40).map(f64::from).collect()).unwrap();
        let capped = srt_dist::convolve_bounded(&wide, &nm, 12).unwrap();
        let shape = Histogram::new(0.0, 2.5, vec![0.1, 0.0, 0.6, 0.3, 0.0]).unwrap();
        let translated = HistogramView::from_raw(417.25, shape.width(), shape.probs());
        for pre in [point.view(), capped.view(), shape.view(), translated] {
            // One summary serves every out-edge, as in the expansion loop.
            let summary = PreSummary::of(&pre);
            for (prev, next, marginal) in [(e1, e2, &nm), (e2, e1, &point)] {
                let want = pair_features_unsplit(&g, &pre, prev, next, marginal).map(f64::to_bits);
                let split = summary.assemble(&g, prev, next, marginal);
                assert_eq!(split.map(f64::to_bits), want);
                let whole = pair_features_view(&g, &pre, prev, next, marginal);
                assert_eq!(whole.map(f64::to_bits), want);
            }
        }
    }

    #[test]
    fn degenerate_distributions_do_not_produce_nan() {
        let (g, e1, e2) = tiny();
        let pre = Histogram::point_mass(10.0, 1e-6).unwrap();
        let nm = Histogram::point_mass(5.0, 1e-6).unwrap();
        let f = pair_features(&g, &pre, e1, e2, &nm);
        assert!(f.iter().all(|v| v.is_finite()));
    }
}

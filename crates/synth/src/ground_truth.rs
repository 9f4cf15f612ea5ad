//! Ground-truth distributions and dependence labelling.
//!
//! Because the generative model is ours, the "ground truth" joint cost of
//! any edge pair is obtainable to arbitrary precision by Monte-Carlo — the
//! paper had to rely on trajectory density instead. Sampling is
//! *context-aware*: an edge's marginal is the distribution of its travel
//! time when entered from a uniformly random in-edge (mid-trip traversal),
//! matching how trajectory observations arise.
//!
//! A pair is labelled **dependent** when the KL divergence between its true
//! sum distribution and the convolution of its marginals exceeds a
//! threshold — precisely the label the paper's binary classifier learns.

use crate::congestion::CongestionModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srt_dist::{convolve, empirical, kl_divergence, Histogram};
use srt_graph::{EdgeId, RoadGraph};

/// A consecutive edge pair `e1 -> e2`.
pub type PairKey = (EdgeId, EdgeId);

/// Configuration of the Monte-Carlo oracle.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct GroundTruthConfig {
    /// Samples per edge marginal.
    pub samples_per_edge: usize,
    /// Samples per pair joint.
    pub samples_per_pair: usize,
    /// Histogram buckets.
    pub bins: usize,
    /// KL threshold above which a pair counts as dependent.
    pub kl_threshold: f64,
    /// Base seed; per-edge/pair streams derive from it deterministically.
    pub seed: u64,
}

impl Default for GroundTruthConfig {
    fn default() -> Self {
        GroundTruthConfig {
            samples_per_edge: 1500,
            samples_per_pair: 1500,
            bins: 20,
            kl_threshold: 0.05,
            seed: 0x617,
        }
    }
}

/// Dependence verdict for one edge pair.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct DependenceLabel {
    /// KL(joint || convolution of marginals).
    pub kl: f64,
    /// `kl > threshold`.
    pub dependent: bool,
}

/// Deterministic per-entity RNG stream.
fn stream(seed: u64, a: u32, b: u32) -> StdRng {
    // SplitMix-style mixing of the ids into the seed.
    let mut s = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(a) << 1 | 1))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(u64::from(b) << 1 | 1));
    s ^= s >> 30;
    s = s.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    s ^= s >> 27;
    StdRng::seed_from_u64(s)
}

/// Samples one mid-trip traversal time of `e`: enters from a random
/// in-edge when one exists, so queue delays at dependent junctions are
/// represented in the marginal.
fn sample_edge_in_context<R: Rng>(
    g: &RoadGraph,
    model: &CongestionModel,
    e: EdgeId,
    rng: &mut R,
) -> f64 {
    let source = g.edge_source(e);
    let in_deg = g.in_degree(source);
    if in_deg == 0 {
        return model.simulate_path(g, &[e], rng)[0];
    }
    let pick = rng.gen_range(0..in_deg);
    let (prev, _) = g.in_edges(source).nth(pick).expect("in-degree checked");
    let times = model.simulate_path(g, &[prev, e], rng);
    times[1]
}

/// Samples one mid-trip traversal of the pair `e1 -> e2`, returning
/// `(t1, t2)`; `e1` is entered from a random in-edge when one exists.
fn sample_pair_in_context<R: Rng>(
    g: &RoadGraph,
    model: &CongestionModel,
    e1: EdgeId,
    e2: EdgeId,
    rng: &mut R,
) -> (f64, f64) {
    let source = g.edge_source(e1);
    let in_deg = g.in_degree(source);
    if in_deg == 0 {
        let t = model.simulate_path(g, &[e1, e2], rng);
        return (t[0], t[1]);
    }
    let pick = rng.gen_range(0..in_deg);
    let (prev, _) = g.in_edges(source).nth(pick).expect("in-degree checked");
    let t = model.simulate_path(g, &[prev, e1, e2], rng);
    (t[1], t[2])
}

/// The Monte-Carlo ground-truth oracle: cached per-edge marginals plus
/// on-demand pair distributions.
#[derive(Clone, Debug)]
pub struct GroundTruth {
    cfg: GroundTruthConfig,
    marginals: Vec<Histogram>,
}

impl GroundTruth {
    /// Builds marginals for every edge of `g`.
    pub fn build(g: &RoadGraph, model: &CongestionModel, cfg: GroundTruthConfig) -> Self {
        let marginals = g
            .edge_ids()
            .map(|e| {
                let mut rng = stream(cfg.seed, e.0, u32::MAX);
                let samples: Vec<f64> = (0..cfg.samples_per_edge)
                    .map(|_| sample_edge_in_context(g, model, e, &mut rng))
                    .collect();
                empirical::from_samples(&samples, cfg.bins)
                    .expect("positive sample count and finite times")
            })
            .collect();
        GroundTruth { marginals, cfg }
    }

    /// The oracle configuration.
    pub fn config(&self) -> &GroundTruthConfig {
        &self.cfg
    }

    /// Ground-truth marginal of edge `e`.
    pub fn marginal(&self, e: EdgeId) -> &Histogram {
        &self.marginals[e.index()]
    }

    /// Ground-truth distribution of `t1 + t2` over the pair `e1 -> e2`.
    pub fn pair_sum(
        &self,
        g: &RoadGraph,
        model: &CongestionModel,
        e1: EdgeId,
        e2: EdgeId,
    ) -> Histogram {
        let mut rng = stream(self.cfg.seed, e1.0, e2.0);
        let samples: Vec<f64> = (0..self.cfg.samples_per_pair)
            .map(|_| {
                let (t1, t2) = sample_pair_in_context(g, model, e1, e2, &mut rng);
                t1 + t2
            })
            .collect();
        empirical::from_samples(&samples, self.cfg.bins).expect("positive sample count")
    }

    /// The independence-assuming estimate: convolution of the marginals.
    pub fn convolved(&self, e1: EdgeId, e2: EdgeId) -> Histogram {
        convolve(self.marginal(e1), self.marginal(e2))
    }

    /// Labels a pair by comparing its true sum to the convolution.
    pub fn label(
        &self,
        g: &RoadGraph,
        model: &CongestionModel,
        e1: EdgeId,
        e2: EdgeId,
    ) -> DependenceLabel {
        let truth = self.pair_sum(g, model, e1, e2);
        let conv = self.convolved(e1, e2);
        let kl = kl_divergence(&truth, &conv);
        DependenceLabel {
            kl,
            dependent: kl > self.cfg.kl_threshold,
        }
    }

    /// Fraction of the given pairs labelled dependent — the paper's
    /// "approximately 75 % of all edge pairs with data are dependent".
    pub fn dependent_fraction(
        &self,
        g: &RoadGraph,
        model: &CongestionModel,
        pairs: &[PairKey],
    ) -> f64 {
        if pairs.is_empty() {
            return 0.0;
        }
        let dep = pairs
            .iter()
            .filter(|&&(e1, e2)| self.label(g, model, e1, e2).dependent)
            .count();
        dep as f64 / pairs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::CongestionConfig;
    use crate::network::{generate_network, NetworkConfig};

    fn world() -> (RoadGraph, CongestionModel) {
        let g = generate_network(&NetworkConfig {
            width: 8,
            height: 8,
            ..NetworkConfig::default()
        });
        let m = CongestionModel::new(&g, CongestionConfig::default());
        (g, m)
    }

    fn small_cfg() -> GroundTruthConfig {
        GroundTruthConfig {
            samples_per_edge: 400,
            samples_per_pair: 400,
            ..GroundTruthConfig::default()
        }
    }

    #[test]
    fn marginals_cover_every_edge() {
        let (g, m) = world();
        let gt = GroundTruth::build(&g, &m, small_cfg());
        for e in g.edge_ids() {
            let h = gt.marginal(e);
            assert!(h.mean() > 0.0);
            assert_eq!(h.num_bins(), small_cfg().bins);
        }
    }

    #[test]
    fn marginal_mean_is_at_least_freeflow() {
        let (g, m) = world();
        let gt = GroundTruth::build(&g, &m, small_cfg());
        for e in g.edge_ids().take(30) {
            assert!(
                gt.marginal(e).mean() >= g.attrs(e).freeflow_time_s() * 0.9,
                "marginal mean below freeflow for {e}"
            );
        }
    }

    #[test]
    fn pair_sum_mean_close_to_marginal_sums() {
        // Means add regardless of dependence; only the shape differs.
        let (g, m) = world();
        let gt = GroundTruth::build(&g, &m, small_cfg());
        let (e1, e2) = g.edge_pairs().next().expect("pairs exist");
        let joint = gt.pair_sum(&g, &m, e1, e2);
        let conv = gt.convolved(e1, e2);
        let rel = (joint.mean() - conv.mean()).abs() / conv.mean();
        assert!(rel < 0.15, "relative mean gap {rel}");
    }

    #[test]
    fn dependent_junction_pairs_get_higher_kl() {
        let (g, m) = world();
        let gt = GroundTruth::build(&g, &m, small_cfg());
        let mut dep_kl = Vec::new();
        let mut ind_kl = Vec::new();
        for (e1, e2) in g.edge_pairs().take(400) {
            let v = g.edge_target(e1);
            let label = gt.label(&g, &m, e1, e2);
            if m.is_dependent(v) {
                dep_kl.push(label.kl);
            } else {
                ind_kl.push(label.kl);
            }
        }
        assert!(!dep_kl.is_empty() && !ind_kl.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&dep_kl) > 2.0 * mean(&ind_kl),
            "dep {} vs ind {}",
            mean(&dep_kl),
            mean(&ind_kl)
        );
    }

    #[test]
    fn dependent_fraction_tracks_the_flag_rate() {
        let (g, m) = world();
        let gt = GroundTruth::build(&g, &m, small_cfg());
        let pairs: Vec<PairKey> = g.edge_pairs().take(300).collect();
        let frac = gt.dependent_fraction(&g, &m, &pairs);
        // Junction flags are 75%; KL labelling is noisy but must be in a
        // sane band around it.
        assert!((0.5..=0.95).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn oracle_is_deterministic() {
        let (g, m) = world();
        let gt = GroundTruth::build(&g, &m, small_cfg());
        let (e1, e2) = g.edge_pairs().next().unwrap();
        let a = gt.pair_sum(&g, &m, e1, e2);
        let b = gt.pair_sum(&g, &m, e1, e2);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_pairs_use_distinct_streams() {
        let (g, m) = world();
        let gt = GroundTruth::build(&g, &m, small_cfg());
        let mut pairs = g.edge_pairs();
        let (a1, a2) = pairs.next().unwrap();
        let (b1, b2) = pairs.next().unwrap();
        let ha = gt.pair_sum(&g, &m, a1, a2);
        let hb = gt.pair_sum(&g, &m, b1, b2);
        assert!(ha != hb, "independent streams should differ");
    }
}

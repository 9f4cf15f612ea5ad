//! The spatially *dependent* travel-time process.
//!
//! Each traversal of edge `e` costs
//!
//! ```text
//! t(e) = freeflow(e) * base(category) * exp(sigma(category) * z)
//! ```
//!
//! where `z ~ N(0,1)` is the latent congestion of the traversal. The key
//! design point is how `z` evolves *along a trip*: at a junction flagged
//! **dependent** (probability `p_dependent_junction`, the paper's ≈75 %)
//! the next edge keeps most of the current congestion via an AR(1) step
//! `z' = rho * z + sqrt(1-rho²) * fresh`; at an independent junction `z'`
//! is drawn fresh. Dependent junctions additionally impose a queueing
//! delay on the *outgoing* edge that grows with the congestion level and
//! the turn sharpness.
//!
//! Consequences, mirroring the paper's motivation:
//! * per-edge *marginals* are identical whether or not junctions are
//!   dependent — looking at one edge cannot reveal the dependence;
//! * the *sum* over a dependent pair has heavier tails than the
//!   convolution of the marginals predicts, which is exactly the error the
//!   learned estimator corrects.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srt_graph::{EdgeId, NodeId, RoadGraph};

/// Parameters of the congestion process.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CongestionConfig {
    /// Probability that a junction couples consecutive edges
    /// (paper: "approximately 75% of all edge pairs with data are
    /// dependent").
    pub p_dependent_junction: f64,
    /// AR(1) coefficient at dependent junctions.
    pub rho: f64,
    /// Lognormal sigma per road category (motorway .. residential).
    pub sigma_by_category: [f64; 5],
    /// Mean congestion multiplier per road category.
    pub base_by_category: [f64; 5],
    /// Scale (seconds) of the queueing delay at dependent junctions.
    pub queue_delay_s: f64,
    /// Seed for the junction flags (not for trip noise).
    pub seed: u64,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig {
            p_dependent_junction: 0.75,
            rho: 0.85,
            //                 motorway, primary, secondary, tertiary, residential
            sigma_by_category: [0.12, 0.22, 0.28, 0.32, 0.38],
            base_by_category: [1.05, 1.15, 1.22, 1.28, 1.35],
            queue_delay_s: 20.0,
            seed: 0x5EED,
        }
    }
}

impl CongestionConfig {
    /// Heavy-tailed congestion: rush-hour-like volatility. Lognormal
    /// sigmas roughly doubled (the ±3σ clamp then spans a ~30× ratio of
    /// best to worst traversal on residential streets), stronger AR(1)
    /// coupling, nearly every junction dependent, and triple the queue
    /// delay — the regime where the convolution arm is most wrong and
    /// label supports are widest, stressing the pruning bounds hardest.
    pub fn heavy_tailed() -> Self {
        CongestionConfig {
            p_dependent_junction: 0.9,
            rho: 0.92,
            sigma_by_category: [0.25, 0.42, 0.5, 0.56, 0.62],
            base_by_category: [1.1, 1.25, 1.35, 1.45, 1.55],
            queue_delay_s: 60.0,
            ..CongestionConfig::default()
        }
    }
}

/// Standard-normal draw via Box–Muller (rand 0.8 ships no normal sampler).
fn randn<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The fitted congestion process over one road network.
#[derive(Clone, Debug)]
pub struct CongestionModel {
    cfg: CongestionConfig,
    dependent_junction: Vec<bool>,
}

impl CongestionModel {
    /// Draws the per-junction dependence flags for `g`.
    pub fn new(g: &RoadGraph, cfg: CongestionConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let dependent_junction = (0..g.num_nodes())
            .map(|_| rng.gen::<f64>() < cfg.p_dependent_junction)
            .collect();
        CongestionModel {
            cfg,
            dependent_junction,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &CongestionConfig {
        &self.cfg
    }

    /// `true` if consecutive edges through `v` share congestion.
    #[inline]
    pub fn is_dependent(&self, v: NodeId) -> bool {
        self.dependent_junction[v.index()]
    }

    /// Fraction of junctions flagged dependent (diagnostic).
    pub fn dependent_fraction(&self) -> f64 {
        self.dependent_junction.iter().filter(|&&d| d).count() as f64
            / self.dependent_junction.len().max(1) as f64
    }

    /// Travel time of edge `e` at latent congestion `z`.
    fn edge_time(&self, g: &RoadGraph, e: EdgeId, z: f64) -> f64 {
        let attrs = g.attrs(e);
        let cat = attrs.category.as_index();
        attrs.freeflow_time_s()
            * self.cfg.base_by_category[cat]
            * (self.cfg.sigma_by_category[cat] * z).exp()
    }

    /// Analytic mean travel time of edge `e`
    /// (lognormal mean: `freeflow * base * exp(sigma²/2)`).
    pub fn expected_edge_time(&self, g: &RoadGraph, e: EdgeId) -> f64 {
        let attrs = g.attrs(e);
        let cat = attrs.category.as_index();
        attrs.freeflow_time_s()
            * self.cfg.base_by_category[cat]
            * (self.cfg.sigma_by_category[cat].powi(2) / 2.0).exp()
    }

    /// Queueing delay imposed on the edge *leaving* a dependent junction,
    /// given the prevailing congestion `z` and the turn angle in degrees.
    fn queue_delay(&self, z: f64, turn_deg: f64) -> f64 {
        let pressure = (z.max(0.0)) * (0.4 + turn_deg / 180.0 * 0.6);
        self.cfg.queue_delay_s * pressure
    }

    /// Simulates one traversal of `edges` (a connected path), returning the
    /// per-edge travel times. `z` values are clamped to ±3σ, so no time
    /// falls below the edge's time at `z = -3`.
    pub fn simulate_path<R: Rng>(&self, g: &RoadGraph, edges: &[EdgeId], rng: &mut R) -> Vec<f64> {
        let mut times = Vec::with_capacity(edges.len());
        let mut z = randn(rng).clamp(-3.0, 3.0);
        for (i, &e) in edges.iter().enumerate() {
            if i > 0 {
                let junction = g.edge_source(e);
                if self.is_dependent(junction) {
                    let fresh = randn(rng);
                    z = (self.cfg.rho * z + (1.0 - self.cfg.rho * self.cfg.rho).sqrt() * fresh)
                        .clamp(-3.0, 3.0);
                } else {
                    z = randn(rng).clamp(-3.0, 3.0);
                }
            }
            let mut t = self.edge_time(g, e, z);
            if i > 0 {
                let junction = g.edge_source(e);
                if self.is_dependent(junction) {
                    let turn = g.turn_angle(edges[i - 1], e).unwrap_or(0.0);
                    t += self.queue_delay(z, turn).min(2.0 * self.cfg.queue_delay_s);
                }
            }
            times.push(t);
        }
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{generate_network, NetworkConfig};

    fn world() -> (RoadGraph, CongestionModel) {
        let g = generate_network(&NetworkConfig {
            width: 10,
            height: 10,
            ..NetworkConfig::default()
        });
        let m = CongestionModel::new(&g, CongestionConfig::default());
        (g, m)
    }

    #[test]
    fn dependent_fraction_is_near_config() {
        let (_, m) = world();
        let f = m.dependent_fraction();
        assert!((0.6..=0.9).contains(&f), "fraction {f}");
    }

    #[test]
    fn edge_time_is_monotone_in_z() {
        let (g, m) = world();
        let e = EdgeId(0);
        assert!(m.edge_time(&g, e, -1.0) < m.edge_time(&g, e, 0.0));
        assert!(m.edge_time(&g, e, 0.0) < m.edge_time(&g, e, 2.0));
    }

    #[test]
    fn min_time_bounds_simulation() {
        let (g, m) = world();
        let mut rng = StdRng::seed_from_u64(1);
        // One-edge paths never get queue delays, so the ±3σ times bound them.
        for e in g.edge_ids().take(20) {
            for _ in 0..50 {
                let t = m.simulate_path(&g, &[e], &mut rng)[0];
                assert!(t >= m.edge_time(&g, e, -3.0) - 1e-9);
                assert!(t <= m.edge_time(&g, e, 3.0) + 2.0 * m.cfg.queue_delay_s + 1e-9);
            }
        }
    }

    #[test]
    fn expected_time_matches_sample_mean() {
        let (g, m) = world();
        let e = EdgeId(3);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| m.simulate_path(&g, &[e], &mut rng)[0])
            .sum::<f64>()
            / n as f64;
        let analytic = m.expected_edge_time(&g, e);
        // Clamping at ±3σ shaves a little off the lognormal mean.
        assert!(
            (mean - analytic).abs() / analytic < 0.05,
            "sample {mean} vs analytic {analytic}"
        );
    }

    #[test]
    fn dependent_pairs_are_correlated_independent_are_not() {
        let (g, m) = world();
        let mut rng = StdRng::seed_from_u64(3);

        // Find one dependent and one independent junction pair.
        let mut dep_pair = None;
        let mut indep_pair = None;
        for (e1, e2) in g.edge_pairs() {
            let v = g.edge_target(e1);
            if m.is_dependent(v) && dep_pair.is_none() {
                dep_pair = Some((e1, e2));
            }
            if !m.is_dependent(v) && indep_pair.is_none() {
                indep_pair = Some((e1, e2));
            }
            if dep_pair.is_some() && indep_pair.is_some() {
                break;
            }
        }
        let corr = |samples: &[(f64, f64)]| {
            let n = samples.len() as f64;
            let m1 = samples.iter().map(|s| s.0).sum::<f64>() / n;
            let m2 = samples.iter().map(|s| s.1).sum::<f64>() / n;
            let cov = samples.iter().map(|s| (s.0 - m1) * (s.1 - m2)).sum::<f64>() / n;
            let v1 = samples.iter().map(|s| (s.0 - m1).powi(2)).sum::<f64>() / n;
            let v2 = samples.iter().map(|s| (s.1 - m2).powi(2)).sum::<f64>() / n;
            cov / (v1 * v2).sqrt()
        };

        let mut traverse_pairs = |e1, e2| -> Vec<(f64, f64)> {
            (0..4000)
                .map(|_| {
                    let t = m.simulate_path(&g, &[e1, e2], &mut rng);
                    (t[0], t[1])
                })
                .collect()
        };
        let (d1, d2) = dep_pair.expect("a dependent junction exists");
        let dep_corr = corr(&traverse_pairs(d1, d2));
        assert!(dep_corr > 0.4, "dependent correlation {dep_corr}");

        let (i1, i2) = indep_pair.expect("an independent junction exists");
        let ind_corr = corr(&traverse_pairs(i1, i2));
        assert!(ind_corr.abs() < 0.15, "independent correlation {ind_corr}");
    }

    #[test]
    fn randn_is_roughly_standard_normal() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| randn(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let (g, m) = world();
        let edges: Vec<EdgeId> = g.edge_ids().take(3).collect();
        let a = m.simulate_path(&g, &edges, &mut StdRng::seed_from_u64(9));
        let b = m.simulate_path(&g, &edges, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_tailed_preset_is_heavier_everywhere() {
        let base = CongestionConfig::default();
        let heavy = CongestionConfig::heavy_tailed();
        for cat in 0..5 {
            assert!(heavy.sigma_by_category[cat] > base.sigma_by_category[cat]);
            assert!(heavy.base_by_category[cat] > base.base_by_category[cat]);
        }
        assert!(heavy.rho > base.rho);
        assert!(heavy.p_dependent_junction > base.p_dependent_junction);
        assert!(heavy.queue_delay_s > base.queue_delay_s);

        // The simulated spread actually widens: compare the support
        // ratio (max/min plausible time) on one edge.
        let (g, _) = world();
        let e = EdgeId(0);
        let spread = |cfg: CongestionConfig| {
            let m = CongestionModel::new(&g, cfg);
            (m.edge_time(&g, e, 3.0) + 2.0 * m.cfg.queue_delay_s) / m.edge_time(&g, e, -3.0)
        };
        assert!(spread(heavy) > 1.5 * spread(base));
    }

    #[test]
    fn motorways_are_less_volatile_than_residential() {
        let cfg = CongestionConfig::default();
        assert!(cfg.sigma_by_category[0] < cfg.sigma_by_category[4]);
        assert!(cfg.base_by_category[0] < cfg.base_by_category[4]);
    }
}

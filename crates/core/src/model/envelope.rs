//! Support-mass envelopes for the learned estimator arm.
//!
//! The paper's optimistic pruning bound evaluates a label's CDF at the
//! budget minus the optimistic remaining time. Under pure convolution
//! that is exact: a future edge can only *shift* mass later. The
//! estimator arm breaks it — the forest predicts a fresh *shape* over
//! the (known, additive) output support, and that shape may front-load
//! mass relative to what convolution would produce, so a pruned label's
//! completion can overtake the incumbent (the oracle suite measured
//! ~3.5e-3 of drift under `BoundMode::Optimistic`).
//!
//! What the estimator cannot do is place *arbitrary* mass early: its
//! outputs are normalized forest predictions, and both the fitted leaves
//! and the training distribution constrain how much probability any
//! prediction can put in the first `k` of its `bins` output buckets.
//! This module measures that constraint at training time and persists it
//! as a [`SupportEnvelope`] — a monotone, fraction-space CDF upper bound
//! `bounds[k] >= sup_features prefix_mass_k(predict(features))` — in the
//! model snapshot (io format v3).
//!
//! The envelope is built from two ingredients:
//!
//! 1. a **provable cap** from the forest's global leaf ranges
//!    ([`crate::model::DistributionEstimator::prefix_mass_caps`]) —
//!    sound for every
//!    input by construction, but loose when early-bucket leaves vary;
//! 2. an **empirical maximum** from probing the fitted estimator on
//!    held-out edge pairs (raw marginals, accumulated two-edge prefixes
//!    and shifted variants — the label shapes the router actually
//!    carries), inflated by a safety factor.
//!
//! Each knot takes the smaller of the two, the curve is made monotone
//! and then *concave-majorized* (see
//! [`srt_dist::MassEnvelope::concave_majorant`]) so it also dominates
//! the lattice chords introduced by downstream bucket-capped
//! convolutions. Like the dominance-margin calibration, the empirical
//! component is a probe-set statement, not a proof over all feature
//! vectors — the scenario-matrix oracle suite is what certifies the
//! resulting bound end to end (zero drift on every topology), and a
//! failure there means the safety factor or probe set must widen.

use crate::model::features::pair_features;
use crate::model::hybrid::HybridModel;
use serde::{Deserialize, Serialize};
use srt_dist::{Histogram, MassEnvelope};
use srt_graph::{EdgeId, RoadGraph};

/// Multiplicative safety factor on the observed prefix maxima, absorbing
/// probe-set sampling error (the probes cannot cover every feature
/// vector the search will synthesize).
const SAFETY_FACTOR: f64 = 1.25;

/// Additive headroom on the observed prefix maxima, absorbing the
/// lattice-chord slop of downstream bucket-capped convolutions.
const HEADROOM: f64 = 0.01;

/// Shift fractions (of the prefix bucket width) applied to each probe
/// prefix, mirroring the dominance calibration's probe recipe.
const SHIFT_FRACTIONS: [f64; 2] = [0.25, 1.0];

/// Maximum number of probe pairs consumed.
pub const DEFAULT_PROBE_PAIRS: usize = 64;

/// The persisted support-mass envelope of one fitted estimator arm:
/// `bounds[k]` bounds the CDF mass any estimator output can place in the
/// first `k` buckets of its (known) support, `k = 0..=bins`.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SupportEnvelope {
    /// Monotone knot values in `[0, 1]`; `bounds[0] = 0`,
    /// `bounds[bins] = 1`.
    bounds: Vec<f64>,
    /// Number of estimator probes measured.
    pub n_probes: usize,
}

impl SupportEnvelope {
    /// Builds an envelope from raw knot values, normalizing them into a
    /// valid envelope: clamped to `[0, 1]`, forced monotone (running
    /// max), pinned to `0` at the first knot and `1` at the last.
    ///
    /// # Panics
    /// Panics if fewer than two knots are supplied or any is non-finite.
    pub fn from_bounds(mut bounds: Vec<f64>, n_probes: usize) -> Self {
        assert!(bounds.len() >= 2, "an envelope needs at least one bucket");
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "envelope knots must be finite"
        );
        bounds[0] = 0.0;
        let mut run = 0.0f64;
        for b in &mut bounds {
            run = run.max(b.clamp(0.0, 1.0));
            *b = run;
        }
        let last = bounds.len() - 1;
        bounds[last] = 1.0;
        SupportEnvelope { bounds, n_probes }
    }

    /// Number of support buckets the envelope is resolved to (the
    /// estimator's output bins).
    pub fn bins(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The knot values.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Upper bound on the mass any covered output places below support
    /// fraction `q` (linear interpolation; `q <= 0` gives `0`, `q >= 1`
    /// gives `1`).
    pub fn bound_at_fraction(&self, q: f64) -> f64 {
        if q.is_nan() || q <= 0.0 {
            return 0.0;
        }
        let n = self.bins() as f64;
        let t = q * n;
        if t >= n {
            return 1.0;
        }
        let k = t.floor() as usize;
        let frac = t - k as f64;
        (1.0 - frac) * self.bounds[k] + frac * self.bounds[k + 1]
    }

    /// Instantiates the envelope on a concrete support `[lo, hi)` as a
    /// [`srt_dist::MassEnvelope`]: the envelope every estimator output
    /// over that support lives within.
    ///
    /// # Panics
    /// Panics if `hi <= lo` (estimator supports are non-degenerate).
    fn instantiate(&self, lo: f64, hi: f64) -> MassEnvelope {
        assert!(hi > lo, "envelope support must be non-degenerate");
        let width = (hi - lo) / self.bins() as f64;
        MassEnvelope::new(lo, width, self.bounds.clone())
            .expect("validated knots form a valid envelope")
    }

    /// Checks the envelope's CDF contract: at least two knots, each
    /// finite, within `[0, 1]` and monotone, anchored at `0` and `1`.
    ///
    /// [`SupportEnvelope::from_bounds`] establishes this by
    /// construction and [`SupportEnvelope::read_bytes`] enforces it on
    /// decode; this standalone form exists for admission checks on
    /// models built in memory (a hot-swap candidate bypasses the
    /// snapshot decoder entirely).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.bounds.len();
        if !(2..=1 << 16).contains(&n) {
            return Err(format!("implausible envelope knot count {n}"));
        }
        let mut prev = 0.0f64;
        for (i, &b) in self.bounds.iter().enumerate() {
            if !b.is_finite() || !(0.0..=1.0).contains(&b) || b < prev {
                return Err(format!("envelope knot {i} = {b} is invalid"));
            }
            prev = b;
        }
        if self.bounds[0] != 0.0 || *self.bounds.last().expect("non-empty") != 1.0 {
            return Err("envelope must span [0, 1]".into());
        }
        Ok(())
    }

    /// Appends the binary snapshot of the envelope to `buf`.
    pub fn write_bytes(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        buf.put_u32_le(self.bounds.len() as u32);
        for &b in &self.bounds {
            buf.put_f64_le(b);
        }
        buf.put_u32_le(self.n_probes as u32);
    }

    /// Decodes an envelope written by [`SupportEnvelope::write_bytes`],
    /// advancing `data`. The decoded knots must pass
    /// [`SupportEnvelope::validate`] — corrupt bytes never become a
    /// served envelope.
    pub fn read_bytes(data: &mut &[u8]) -> Result<Self, crate::error::CoreError> {
        use bytes::Buf;
        let corrupt = |msg: String| crate::error::CoreError::Ml(srt_ml::MlError::Corrupt(msg));
        if data.remaining() < 4 {
            return Err(corrupt("truncated envelope header".into()));
        }
        let n = data.get_u32_le() as usize;
        if !(2..=1 << 16).contains(&n) {
            return Err(corrupt(format!("implausible envelope knot count {n}")));
        }
        if data.remaining() < n * 8 + 4 {
            return Err(corrupt("truncated envelope payload".into()));
        }
        let mut bounds = Vec::with_capacity(n);
        for _ in 0..n {
            bounds.push(data.get_f64_le());
        }
        let n_probes = data.get_u32_le() as usize;
        let env = SupportEnvelope { bounds, n_probes };
        env.validate().map_err(corrupt)?;
        Ok(env)
    }
}

/// Probes the fitted estimator arm of `model` on held-out pairs and
/// builds its support-mass envelope.
///
/// For each pair the estimator is queried with the same prefix shapes
/// the dominance calibration uses — the raw first marginal, the
/// accumulated two-edge combine (the wider support mid-search labels
/// carry) and shifted variants of both — and the per-knot maximum of the
/// observed prefix masses is recorded. The persisted knot is
/// `min(provable cap, observed max × safety + headroom)`, monotone and
/// concave-majorized (see the module docs for why).
pub fn probe_support_envelope<'a>(
    model: &HybridModel,
    g: &RoadGraph,
    pairs: impl IntoIterator<Item = (EdgeId, EdgeId, &'a Histogram, &'a Histogram)>,
) -> SupportEnvelope {
    let bins = model.bins;
    let mut max_observed = vec![0.0f64; bins + 1];
    let mut n_probes = 0usize;

    let mut record = |masses: &[f64]| {
        let mut acc = 0.0;
        for (k, &m) in masses.iter().enumerate() {
            acc += m;
            max_observed[k + 1] = max_observed[k + 1].max(acc);
        }
        n_probes += 1;
    };

    for (e1, e2, marg1, marg2) in pairs.into_iter().take(DEFAULT_PROBE_PAIRS) {
        let accumulated = model.combine(g, marg1, e1, e2, marg2).0;
        let prefixes = [marg1, &accumulated];
        for pre in prefixes {
            let f = pair_features(g, pre, e1, e2, marg2);
            record(&model.estimator.predict_masses(&f));
            for frac in SHIFT_FRACTIONS {
                let shifted = pre.shift(pre.width() * frac);
                let f = pair_features(g, &shifted, e1, e2, marg2);
                record(&model.estimator.predict_masses(&f));
            }
        }
    }

    let caps = model.estimator.prefix_mass_caps();
    let raw: Vec<f64> = max_observed
        .iter()
        .zip(&caps)
        .map(|(&obs, &cap)| (obs * SAFETY_FACTOR + HEADROOM).min(cap).min(1.0))
        .collect();
    let normalized = SupportEnvelope::from_bounds(raw, n_probes);

    // Concave-majorize on the unit lattice so the persisted knots also
    // dominate the lattice chords of downstream capped convolutions.
    let unit = normalized.instantiate(0.0, 1.0).concave_majorant();
    SupportEnvelope::from_bounds(unit.bounds().to_vec(), n_probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::training::{train_hybrid, TrainingConfig};
    use srt_ml::forest::ForestConfig;
    use srt_synth::{SyntheticWorld, WorldConfig};
    use std::sync::OnceLock;

    fn fixture() -> &'static (SyntheticWorld, HybridModel) {
        static FIX: OnceLock<(SyntheticWorld, HybridModel)> = OnceLock::new();
        FIX.get_or_init(|| {
            let world = SyntheticWorld::build(WorldConfig::tiny());
            let cfg = TrainingConfig {
                train_pairs: 120,
                test_pairs: 40,
                min_obs: 5,
                bins: 10,
                forest: ForestConfig {
                    n_trees: 6,
                    ..ForestConfig::default()
                },
                ..TrainingConfig::default()
            };
            let (model, _) = train_hybrid(&world, &cfg).expect("fixture trains");
            (world, model)
        })
    }

    #[test]
    fn training_attaches_an_envelope() {
        let (_, model) = fixture();
        let env = model
            .envelope
            .as_ref()
            .expect("training probes an envelope");
        assert_eq!(env.bins(), model.bins);
        assert!(env.n_probes > 0);
        assert_eq!(env.bounds()[0], 0.0);
        assert_eq!(*env.bounds().last().unwrap(), 1.0);
        for w in env.bounds().windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "knots must be monotone");
        }
        // Concave: increments never grow.
        let b = env.bounds();
        for k in 2..b.len() {
            assert!(b[k] - b[k - 1] <= b[k - 1] - b[k - 2] + 1e-9);
        }
    }

    #[test]
    fn envelope_covers_estimator_outputs_on_fresh_pairs() {
        // The envelope was probed on held-out pairs; it must cover
        // estimator outputs on *training-region* pairs too (same world,
        // different draw) — the empirical generalization the oracle
        // suite later certifies end to end.
        let (world, model) = fixture();
        let env = model.envelope.as_ref().unwrap();
        let g = &world.graph;
        let mut checked = 0;
        for (e1, e2) in g.edge_pairs().take(40) {
            let m1 = world.ground_truth.marginal(e1);
            let m2 = world.ground_truth.marginal(e2);
            let f = pair_features(g, m1, e1, e2, m2);
            let out = model
                .estimator
                .predict(&f, m1.start() + m2.start(), m1.end() + m2.end());
            let inst = env.instantiate(out.start(), out.end());
            assert!(inst.contains(&out), "pair {e1:?}->{e2:?}");
            checked += 1;
        }
        assert!(checked >= 20);
    }

    #[test]
    fn fraction_bound_interpolates() {
        let env = SupportEnvelope::from_bounds(vec![0.0, 0.4, 0.8, 1.0], 5);
        assert_eq!(env.bound_at_fraction(-1.0), 0.0);
        assert_eq!(env.bound_at_fraction(0.0), 0.0);
        assert_eq!(env.bound_at_fraction(f64::NAN), 0.0);
        assert!((env.bound_at_fraction(1.0 / 3.0) - 0.4).abs() < 1e-12);
        assert!((env.bound_at_fraction(0.5) - 0.6).abs() < 1e-12);
        assert_eq!(env.bound_at_fraction(1.0), 1.0);
        assert_eq!(env.bound_at_fraction(2.0), 1.0);
    }

    #[test]
    fn from_bounds_normalizes() {
        let env = SupportEnvelope::from_bounds(vec![0.3, 0.2, 1.4, 0.9], 1);
        assert_eq!(env.bounds(), &[0.0, 0.2, 1.0, 1.0]);
        assert_eq!(env.bins(), 3);
    }

    #[test]
    fn envelope_round_trips_through_bytes() {
        let env = SupportEnvelope::from_bounds(vec![0.0, 0.25, 0.5, 0.75, 1.0], 42);
        let mut buf = bytes::BytesMut::new();
        env.write_bytes(&mut buf);
        let mut slice = &buf[..];
        let back = SupportEnvelope::read_bytes(&mut slice).unwrap();
        assert_eq!(back, env);
        assert!(slice.is_empty());

        // Truncations and invalid knots are rejected.
        assert!(SupportEnvelope::read_bytes(&mut &buf[..6]).is_err());
        let mut bad = buf.to_vec();
        bad[4..12].copy_from_slice(&0.5f64.to_le_bytes()); // first knot != 0
        assert!(SupportEnvelope::read_bytes(&mut &bad[..]).is_err());
        let mut bad = buf.to_vec();
        bad[12..20].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(SupportEnvelope::read_bytes(&mut &bad[..]).is_err());
    }

    #[test]
    fn instantiation_matches_fraction_bound() {
        let env = SupportEnvelope::from_bounds(vec![0.0, 0.1, 0.6, 1.0], 3);
        let inst = env.instantiate(30.0, 60.0);
        for q in [0.0, 0.2, 0.5, 0.9, 1.0] {
            let x = 30.0 + q * 30.0;
            assert!(
                (inst.bound_at(x) - env.bound_at_fraction(q)).abs() < 1e-12,
                "q = {q}"
            );
        }
    }
}

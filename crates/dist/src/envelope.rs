//! Mass envelopes — certified upper bounds on histogram CDFs.
//!
//! A [`MassEnvelope`] is a monotone, piecewise-linear function `E` on a
//! bucket lattice with `E(x) ∈ [0, 1]`, read as a *pointwise upper bound
//! on a family of CDFs*: histogram `h` is **within** the envelope when
//! `h.cdf(x) <= E(x)` for every `x` (checked exactly at the union of both
//! lattices — both sides are piecewise linear). The hybrid router's
//! certified-envelope pruning bound persists one such envelope per
//! learned estimator arm: no output the estimator can produce places more
//! mass in its early support than the envelope admits.
//!
//! What makes envelopes usable inside a label-setting search is that they
//! **compose** with the operators the search applies to label
//! distributions:
//!
//! * [`MassEnvelope::shift`] — translation: `h` within `E` implies
//!   `h.shift(dt)` within `E.shift(dt)` (both graphs translate).
//! * [`MassEnvelope::rebin_onto`] — re-bucketing onto a known target
//!   lattice: the rebinned CDF agrees with the original at every target
//!   lattice point and is linear between them, so sampling `E` at the
//!   target lattice (linear interpolation between the sampled knots)
//!   bounds every rebinned member.
//! * [`MassEnvelope::after_convolve_bounded`] — convolution with a fixed
//!   second histogram `g`, optionally bucket-capped: the exact
//!   convolution satisfies `cdf(x) <= h.cdf(x - g.start()) <= E(x -
//!   g.start())`, and the cap's re-bin replaces the CDF by chords between
//!   *its* lattice points — points the composed envelope cannot know
//!   (they depend on `h`'s support width). The composition therefore
//!   takes the **least concave majorant** of the shifted envelope, which
//!   dominates every chord of it between arbitrary abscissae.
//!
//! The majorant step is what the router's support-aware bound leans on:
//! after the last estimator combine, a label only ever undergoes shifts
//! and (capped) convolutions, so evaluating the majorized model envelope
//! at the budget — translated by the optimistic remaining cost — upper
//! bounds the final on-time probability.

use crate::error::DistError;
use crate::histogram::{Histogram, HistogramView};
use crate::kernels::CdfScanner;

/// Float tolerance for envelope containment checks: absorbs the
/// convolve/re-bin rounding noise of the routing pipeline.
const CONTAIN_TOL: f64 = 1e-9;

/// A monotone piecewise-linear CDF upper bound on a bucket lattice.
///
/// Knot `k` sits at `start + k * width` and carries bound `bounds[k]`;
/// between knots the bound interpolates linearly, below the first knot it
/// is `bounds[0]`, and above the last knot it is `1` (every CDF
/// eventually reaches one, so an envelope must too).
#[derive(Clone, Debug, PartialEq)]
pub struct MassEnvelope {
    start: f64,
    width: f64,
    bounds: Vec<f64>,
}

impl MassEnvelope {
    /// Builds an envelope from its knot values. Values are validated to
    /// be finite, within `[0, 1]` and monotone non-decreasing; at least
    /// two knots (one bucket) are required.
    ///
    /// # Errors
    /// * [`DistError::EmptyHistogram`] for fewer than two knots,
    /// * [`DistError::InvalidWidth`] for a non-finite or non-positive width,
    /// * [`DistError::NonFinite`] for non-finite anchor or knot values,
    /// * [`DistError::NegativeMass`] for a knot outside `[0, 1]` or a
    ///   monotonicity violation.
    pub fn new(start: f64, width: f64, bounds: Vec<f64>) -> Result<Self, DistError> {
        if bounds.len() < 2 {
            return Err(DistError::EmptyHistogram);
        }
        if !width.is_finite() || width <= 0.0 {
            return Err(DistError::InvalidWidth(width));
        }
        if !start.is_finite() {
            return Err(DistError::NonFinite);
        }
        let mut prev = 0.0;
        for &b in &bounds {
            if !b.is_finite() {
                return Err(DistError::NonFinite);
            }
            if !(0.0..=1.0).contains(&b) || b < prev {
                return Err(DistError::NegativeMass(b));
            }
            prev = b;
        }
        Ok(MassEnvelope {
            start,
            width,
            bounds,
        })
    }

    /// The exact envelope of one histogram: its own CDF sampled at its
    /// lattice. `h` is always within `envelope_of(h)`.
    pub fn envelope_of(h: &Histogram) -> MassEnvelope {
        let mut bounds = Vec::with_capacity(h.num_bins() + 1);
        let mut acc = 0.0;
        bounds.push(0.0);
        for &p in h.probs() {
            acc += p;
            bounds.push(acc.min(1.0));
        }
        *bounds.last_mut().expect("non-empty") = 1.0;
        MassEnvelope {
            start: h.start(),
            width: h.width(),
            bounds,
        }
    }

    /// Left end of the knot lattice.
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Right end of the knot lattice (the bound is `1` beyond it).
    pub fn end(&self) -> f64 {
        self.start + self.width * (self.bounds.len() - 1) as f64
    }

    /// Knot spacing.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// The knot values (`num_bins() + 1` of them).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Number of buckets between the knots.
    pub fn num_bins(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The envelope value at `x`: `bounds[0]` below the lattice, `1`
    /// above it, linear interpolation between knots.
    pub fn bound_at(&self, x: f64) -> f64 {
        if !x.is_finite() {
            return if x == f64::NEG_INFINITY {
                self.bounds[0]
            } else {
                1.0
            };
        }
        let t = (x - self.start) / self.width;
        if t <= 0.0 {
            return self.bounds[0];
        }
        let n = self.bounds.len() - 1;
        if t >= n as f64 {
            return 1.0;
        }
        let k = t.floor() as usize;
        let frac = t - k as f64;
        (1.0 - frac) * self.bounds[k] + frac * self.bounds[k + 1]
    }

    /// `true` when `h.cdf(x) <= bound_at(x)` everywhere (up to a `1e-9`
    /// tolerance). Both sides are piecewise linear, so checking the union
    /// of the two knot lattices decides the relation exactly.
    pub fn contains(&self, h: &Histogram) -> bool {
        self.contains_view(&h.view())
    }

    /// [`MassEnvelope::contains`] over a borrowed [`HistogramView`], so
    /// pooled buffers and offset-translated labels are checked without
    /// materializing a histogram.
    ///
    /// Each knot run ascends, so the histogram's CDF is evaluated
    /// through an incremental [`CdfScanner`] per run — `O(n + m)` per
    /// check instead of a fresh prefix sum per knot, bit-identical to
    /// calling [`HistogramView::cdf`] at every point.
    fn contains_view(&self, h: &HistogramView<'_>) -> bool {
        let mut ok = true;
        let mut scan = CdfScanner::new(*h);
        for k in 0..self.bounds.len() {
            let x = self.start + k as f64 * self.width;
            ok &= scan.cdf(x) <= self.bound_at(x) + CONTAIN_TOL;
        }
        let mut scan = CdfScanner::new(*h);
        for i in 0..=h.num_bins() {
            let x = h.start() + i as f64 * h.width();
            ok &= scan.cdf(x) <= self.bound_at(x) + CONTAIN_TOL;
        }
        ok
    }

    /// The envelope translated by `dt`: covers `h.shift(dt)` for every
    /// `h` this envelope covers.
    pub fn shift(&self, dt: f64) -> MassEnvelope {
        MassEnvelope {
            start: self.start + dt,
            width: self.width,
            bounds: self.bounds.clone(),
        }
    }

    /// The composed envelope for re-bucketing onto the target lattice
    /// `[lo, lo + width * nbins)`: covers `h.rebin_onto(lo, width,
    /// nbins)` (and `h.with_bins` when the lattice is the support) for
    /// every `h` within this envelope.
    ///
    /// Soundness: re-bucketing preserves the CDF at every target lattice
    /// point (out-of-grid mass clamps into the edge buckets, which folds
    /// it to the same side of each interior point) and interpolates
    /// linearly between them, so sampling this envelope at the target
    /// knots bounds every member. The final knot is `1`: the rebinned
    /// support is contained in the target grid.
    ///
    /// # Errors
    /// [`DistError::ZeroBins`], [`DistError::InvalidWidth`] or
    /// [`DistError::NonFinite`] for a degenerate target lattice.
    pub fn rebin_onto(&self, lo: f64, width: f64, nbins: usize) -> Result<MassEnvelope, DistError> {
        if nbins == 0 {
            return Err(DistError::ZeroBins);
        }
        if !width.is_finite() || width <= 0.0 {
            return Err(DistError::InvalidWidth(width));
        }
        if !lo.is_finite() {
            return Err(DistError::NonFinite);
        }
        let mut bounds: Vec<f64> = (0..=nbins)
            .map(|k| self.bound_at(lo + k as f64 * width))
            .collect();
        bounds[nbins] = 1.0;
        // bound_at is monotone, so the sampled knots already are.
        Ok(MassEnvelope {
            start: lo,
            width,
            bounds,
        })
    }

    /// The least concave majorant: the smallest concave function that
    /// dominates the envelope. Concavity is what survives *unknown*
    /// re-bin lattices — a chord of the envelope between any two
    /// abscissae stays below its majorant, so the majorant covers every
    /// bucket-capped descendant of every member no matter which grid the
    /// cap chose.
    pub fn concave_majorant(&self) -> MassEnvelope {
        // Upper convex hull of the knot points (monotone input keeps the
        // hull monotone). Classic Andrew scan over (k, bound[k]).
        let n = self.bounds.len();
        let mut hull: Vec<usize> = Vec::with_capacity(n);
        for i in 0..n {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // Keep b only if it lies strictly above chord a->i.
                let t = (b - a) as f64 / (i - a) as f64;
                let chord = self.bounds[a] * (1.0 - t) + self.bounds[i] * t;
                if self.bounds[b] > chord + 1e-15 {
                    break;
                }
                hull.pop();
            }
            hull.push(i);
        }
        // Re-sample the hull back onto the original lattice. The scan
        // never pops index 0 and always pushes n-1, so the hull spans
        // the whole lattice.
        debug_assert!(hull.len() >= 2);
        let mut bounds = vec![0.0; n];
        for w in hull.windows(2) {
            let (a, b) = (w[0], w[1]);
            for (k, slot) in bounds.iter_mut().enumerate().take(b + 1).skip(a) {
                let t = if b == a {
                    0.0
                } else {
                    (k - a) as f64 / (b - a) as f64
                };
                *slot = (self.bounds[a] * (1.0 - t) + self.bounds[b] * t).min(1.0);
            }
        }
        MassEnvelope {
            start: self.start,
            width: self.width,
            bounds,
        }
    }

    /// The composed envelope for `convolve_bounded(h, g, max_bins)` (any
    /// cap, including none): covers the capped convolution of every `h`
    /// within this envelope with the fixed histogram `g`.
    ///
    /// Soundness: the exact convolution obeys `cdf(x) <= h.cdf(x -
    /// g.start()) <= E(x - g.start())` (conditioning on `g`'s earliest
    /// arrival), and the cap replaces the CDF by chords between lattice
    /// points of a grid that depends on `h`'s support — hence the
    /// concave majorant, which dominates every such chord.
    pub fn after_convolve_bounded(&self, g: &Histogram) -> MassEnvelope {
        self.shift(g.start()).concave_majorant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(start: f64, width: f64, probs: &[f64]) -> Histogram {
        Histogram::new(start, width, probs.to_vec()).unwrap()
    }

    #[test]
    fn construction_validates_knots() {
        assert!(MassEnvelope::new(0.0, 1.0, vec![0.0, 0.5, 1.0]).is_ok());
        assert_eq!(
            MassEnvelope::new(0.0, 1.0, vec![1.0]),
            Err(DistError::EmptyHistogram)
        );
        assert_eq!(
            MassEnvelope::new(0.0, 0.0, vec![0.0, 1.0]),
            Err(DistError::InvalidWidth(0.0))
        );
        assert_eq!(
            MassEnvelope::new(f64::NAN, 1.0, vec![0.0, 1.0]),
            Err(DistError::NonFinite)
        );
        // Non-monotone and out-of-range knots are rejected.
        assert!(MassEnvelope::new(0.0, 1.0, vec![0.5, 0.25, 1.0]).is_err());
        assert!(MassEnvelope::new(0.0, 1.0, vec![0.0, 1.5]).is_err());
    }

    #[test]
    fn bound_interpolates_and_saturates() {
        let e = MassEnvelope::new(10.0, 2.0, vec![0.0, 0.4, 1.0]).unwrap();
        assert_eq!(e.bound_at(9.0), 0.0);
        assert!((e.bound_at(11.0) - 0.2).abs() < 1e-12);
        assert!((e.bound_at(12.0) - 0.4).abs() < 1e-12);
        assert_eq!(e.bound_at(14.0), 1.0);
        assert_eq!(e.bound_at(100.0), 1.0);
        assert_eq!(e.bound_at(f64::INFINITY), 1.0);
        assert_eq!(e.bound_at(f64::NEG_INFINITY), 0.0);
        assert_eq!(e.end(), 14.0);
        assert_eq!(e.num_bins(), 2);
    }

    #[test]
    fn own_envelope_contains_the_histogram() {
        let a = h(5.0, 1.5, &[0.2, 0.3, 0.5]);
        let e = MassEnvelope::envelope_of(&a);
        assert!(e.contains(&a));
        // A later histogram is also inside (its CDF is lower).
        assert!(e.contains(&a.shift(1.0)));
        // An earlier one is not.
        assert!(!e.contains(&a.shift(-1.0)));
    }

    #[test]
    fn shift_composes() {
        let a = h(0.0, 1.0, &[0.5, 0.5]);
        let e = MassEnvelope::envelope_of(&a);
        assert!(e.shift(3.0).contains(&a.shift(3.0)));
        assert_eq!(e.shift(3.0).start(), 3.0);
    }

    #[test]
    fn rebin_composes_onto_known_lattices() {
        let a = h(0.0, 1.0, &[0.1, 0.4, 0.3, 0.2]);
        let e = MassEnvelope::envelope_of(&a);
        for n in [1usize, 2, 3, 5, 8] {
            let r = a.with_bins(n).unwrap();
            let er = e.rebin_onto(r.start(), r.width(), n).unwrap();
            assert!(er.contains(&r), "cap {n}");
        }
        assert_eq!(e.rebin_onto(0.0, 1.0, 0), Err(DistError::ZeroBins));
    }

    #[test]
    fn concave_majorant_dominates_and_is_concave() {
        let e = MassEnvelope::new(0.0, 1.0, vec![0.0, 0.05, 0.1, 0.8, 1.0]).unwrap();
        let m = e.concave_majorant();
        for k in 0..=4 {
            assert!(m.bounds()[k] + 1e-12 >= e.bounds()[k]);
        }
        // Concavity: increments are non-increasing.
        let b = m.bounds();
        for k in 2..b.len() {
            assert!(b[k] - b[k - 1] <= b[k - 1] - b[k - 2] + 1e-12);
        }
        // Already-concave input is a fixed point.
        let c = MassEnvelope::new(0.0, 1.0, vec![0.0, 0.6, 0.9, 1.0]).unwrap();
        assert_eq!(c.concave_majorant().bounds(), c.bounds());
    }

    #[test]
    fn convolve_composition_covers_capped_results() {
        use crate::convolve::convolve_bounded;
        let a = h(2.0, 1.0, &[0.3, 0.3, 0.2, 0.2]);
        let g = h(4.0, 1.0, &[0.25, 0.5, 0.25]);
        let e = MassEnvelope::envelope_of(&a);
        let composed = e.after_convolve_bounded(&g);
        for cap in [2usize, 3, 4, 16] {
            let c = convolve_bounded(&a, &g, cap).unwrap();
            assert!(composed.contains(&c), "cap {cap}");
        }
    }
}

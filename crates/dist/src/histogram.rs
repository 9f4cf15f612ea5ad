//! The equi-width travel-time histogram.
//!
//! "We use histograms to represent travel time distributions. A histogram
//! covers a time interval that is partitioned into buckets of equal width,
//! and each bucket is associated with the probability mass that falls into
//! it." Within a bucket the mass is treated as uniformly distributed, so
//! the CDF is piecewise linear and the mean sits at the bucket centre.
//!
//! Two representations share one set of query semantics: the owning
//! [`Histogram`] and the borrowed [`HistogramView`] (grid scalars + a
//! borrowed mass slice). Every read-only query is implemented once, on
//! the view; `Histogram` methods delegate through [`Histogram::view`], so
//! pooled buffers and offset-translated labels evaluate `cdf`, `quantile`
//! and the moments without materializing a fresh allocation.

use crate::error::DistError;
use crate::pool::HistogramPool;
use serde::{Deserialize, Serialize};

/// A borrowed histogram: the bucket grid plus a borrowed slice of
/// normalized masses. The allocation-free counterpart of [`Histogram`]
/// for read-only queries — routing labels, pooled scratch buffers and
/// offset-translated distributions evaluate their CDFs, quantiles and
/// moments through a view without cloning the mass vector.
///
/// Obtain one from [`Histogram::view`], [`Histogram::view_shifted`], or
/// [`HistogramView::from_raw`] for masses living in caller-owned storage.
/// All queries assume the masses are normalized (non-negative, summing to
/// one), exactly as [`Histogram`] guarantees after construction.
#[derive(Copy, Clone, Debug)]
pub struct HistogramView<'a> {
    start: f64,
    width: f64,
    probs: &'a [f64],
}

impl<'a> HistogramView<'a> {
    /// A view over caller-owned masses. The caller guarantees a valid
    /// grid (finite `start`, positive finite `width`, non-empty
    /// normalized `probs`); queries on a degenerate view return
    /// unspecified (but non-UB) values, mirroring what the equivalent
    /// `Histogram` could never represent.
    pub fn from_raw(start: f64, width: f64, probs: &'a [f64]) -> Self {
        debug_assert!(!probs.is_empty(), "view over an empty mass slice");
        debug_assert!(width.is_finite() && width > 0.0, "invalid view width");
        HistogramView { start, width, probs }
    }

    /// Left edge of the support.
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Right edge of the support (exclusive).
    pub fn end(&self) -> f64 {
        self.start + self.width * self.probs.len() as f64
    }

    /// Bucket width in the same unit as the support.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Number of buckets.
    pub fn num_bins(&self) -> usize {
        self.probs.len()
    }

    /// The borrowed bucket masses.
    pub fn probs(&self) -> &'a [f64] {
        self.probs
    }

    /// Mass of bucket `i`.
    ///
    /// # Panics
    /// Panics if `i >= num_bins()`.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// Expected value: masses sit at bucket centres. (Kernel-backed
    /// in-order fold — bit-identical to the historical iterator sum,
    /// proven by the differential suite against
    /// [`crate::reference::mean_ref`].)
    pub fn mean(&self) -> f64 {
        self.start + self.width * crate::kernels::first_moment_cells(self.probs)
    }

    /// Variance under the uniform-within-bucket reading (includes the
    /// `width^2 / 12` within-bucket term).
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        let spread = crate::kernels::spread_about(self.start, self.width, self.probs, mean);
        spread + self.width * self.width / 12.0
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().max(0.0).sqrt()
    }

    /// Shannon entropy of the bucket masses (nats). Zero buckets
    /// contribute nothing.
    pub fn entropy(&self) -> f64 {
        -self
            .probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f64>()
    }

    /// Largest single-bucket mass (the mode's mass).
    pub fn max_prob(&self) -> f64 {
        self.probs.iter().fold(0.0, |m, &p| m.max(p))
    }

    /// `P(X <= x)` under the piecewise-linear (uniform within bucket) CDF.
    /// Zero below the support, one above it; `NaN` maps to zero.
    ///
    /// The prefix mass runs through the shared in-order summation kernel
    /// (`crate::kernels`), bit-identical to the historical `iter().sum()`
    /// and proven against [`crate::reference::cdf_ref`]. For ascending
    /// query sweeps prefer
    /// [`crate::CdfScanner`], which amortizes the prefix to `O(n + m)`.
    pub fn cdf(&self, x: f64) -> f64 {
        if !x.is_finite() {
            return if x == f64::INFINITY { 1.0 } else { 0.0 };
        }
        let t = (x - self.start) / self.width;
        if t <= 0.0 {
            return 0.0;
        }
        if t >= self.probs.len() as f64 {
            return 1.0;
        }
        let full = t.floor() as usize;
        let head = crate::kernels::prefix_mass(&self.probs[..full]);
        (head + (t - full as f64) * self.probs[full]).clamp(0.0, 1.0)
    }

    /// On-time probability for budget `t`: an alias of
    /// [`HistogramView::cdf`] named for the routing use case.
    pub fn prob_within(&self, t: f64) -> f64 {
        self.cdf(t)
    }

    /// Inverse CDF. `q` is clamped to `[0, 1]`; returns `start()` for
    /// `q <= 0` and `end()` for `q >= 1`. (Branch-free select-based scan
    /// — bit-identical to the historical early-exit loop, proven against
    /// [`crate::reference::quantile_ref`].)
    pub fn quantile(&self, q: f64) -> f64 {
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        if q <= 0.0 {
            return self.start;
        }
        crate::kernels::quantile_scan(self.start, self.width, self.probs, q)
    }

    /// Projects the viewed distribution onto the target grid
    /// `[lo, lo + width * nbins)`, writing the redistributed masses into
    /// `out` (cleared first). The allocation-free core of
    /// [`Histogram::rebin_onto`]; the masses written are raw — promote
    /// them through [`Histogram::new`] (or
    /// [`crate::pool::HistogramBuf::into_histogram`]) to apply the final
    /// normalization the value-returning API performs.
    ///
    /// # Errors
    /// [`DistError::ZeroBins`], [`DistError::InvalidWidth`] or
    /// [`DistError::NonFinite`] for a degenerate target grid.
    pub fn rebin_into(
        &self,
        lo: f64,
        width: f64,
        nbins: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), DistError> {
        if nbins == 0 {
            return Err(DistError::ZeroBins);
        }
        if !width.is_finite() || width <= 0.0 {
            return Err(DistError::InvalidWidth(width));
        }
        if !lo.is_finite() {
            return Err(DistError::NonFinite);
        }
        redistribute_into(self.start, self.width, self.probs, lo, width, nbins, out);
        Ok(())
    }
}

/// An equi-width histogram over travel-time buckets.
///
/// Bucket `i` covers `[start + i*width, start + (i+1)*width)` and carries
/// probability mass `probs[i]`; masses are normalized to sum to one at
/// construction. All operations treat mass as uniform within its bucket.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    start: f64,
    width: f64,
    probs: Vec<f64>,
}

impl Histogram {
    /// Builds a histogram from a support anchor, bucket width and bucket
    /// masses. Masses may be unnormalized counts; they are scaled to sum
    /// to one.
    ///
    /// # Errors
    /// * [`DistError::EmptyHistogram`] for an empty mass vector,
    /// * [`DistError::InvalidWidth`] for a non-finite or non-positive width,
    /// * [`DistError::NonFinite`] for a non-finite anchor or mass,
    /// * [`DistError::NegativeMass`] for a negative mass,
    /// * [`DistError::ZeroMass`] when all masses are zero.
    pub fn new(start: f64, width: f64, mut probs: Vec<f64>) -> Result<Self, DistError> {
        if probs.is_empty() {
            return Err(DistError::EmptyHistogram);
        }
        if !width.is_finite() || width <= 0.0 {
            return Err(DistError::InvalidWidth(width));
        }
        if !start.is_finite() {
            return Err(DistError::NonFinite);
        }
        let mut total = 0.0;
        for &p in &probs {
            if !p.is_finite() {
                return Err(DistError::NonFinite);
            }
            if p < 0.0 {
                return Err(DistError::NegativeMass(p));
            }
            total += p;
        }
        if total <= 0.0 {
            return Err(DistError::ZeroMass);
        }
        if total != 1.0 {
            for p in &mut probs {
                *p /= total;
            }
        }
        Ok(Histogram { start, width, probs })
    }

    /// A single-bucket histogram: all mass in `[value, value + width)`.
    pub fn point_mass(value: f64, width: f64) -> Result<Self, DistError> {
        Histogram::new(value, width, vec![1.0])
    }

    /// Builds a histogram from `(value, mass)` pairs, snapping each value
    /// to the bucket lattice anchored at the smallest value. This is how
    /// the paper's worked tables (e.g. `{30: .25, 35: .50, 40: .25}`)
    /// become histograms.
    ///
    /// # Errors
    /// [`DistError::NoSamples`] for an empty slice, plus the
    /// [`Histogram::new`] conditions.
    pub fn from_point_masses(points: &[(f64, f64)], width: f64) -> Result<Self, DistError> {
        if points.is_empty() {
            return Err(DistError::NoSamples);
        }
        if !width.is_finite() || width <= 0.0 {
            return Err(DistError::InvalidWidth(width));
        }
        let mut start = f64::INFINITY;
        for &(x, m) in points {
            if !x.is_finite() || !m.is_finite() {
                return Err(DistError::NonFinite);
            }
            if m < 0.0 {
                return Err(DistError::NegativeMass(m));
            }
            start = start.min(x);
        }
        let index = |x: f64| ((x - start) / width + 0.5).floor() as usize;
        let nbins = points.iter().map(|&(x, _)| index(x)).max().unwrap_or(0) + 1;
        let mut probs = vec![0.0; nbins];
        for &(x, m) in points {
            probs[index(x)] += m;
        }
        Histogram::new(start, width, probs)
    }

    /// A borrowed view of this histogram (same grid, borrowed masses).
    pub fn view(&self) -> HistogramView<'_> {
        HistogramView {
            start: self.start,
            width: self.width,
            probs: &self.probs,
        }
    }

    /// A borrowed view of this histogram translated by `dt` seconds —
    /// exactly [`Histogram::shift`] without materializing the clone. The
    /// router's `(offset, zero-anchored shape)` labels reconstruct their
    /// actual distribution through this.
    pub fn view_shifted(&self, dt: f64) -> HistogramView<'_> {
        HistogramView {
            start: self.start + dt,
            width: self.width,
            probs: &self.probs,
        }
    }

    /// Left edge of the support.
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Right edge of the support (exclusive).
    pub fn end(&self) -> f64 {
        self.view().end()
    }

    /// Bucket width in the same unit as the support (seconds throughout
    /// the stack).
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Number of buckets.
    pub fn num_bins(&self) -> usize {
        self.probs.len()
    }

    /// The normalized bucket masses.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Mass of bucket `i`.
    ///
    /// # Panics
    /// Panics if `i >= num_bins()`.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// Expected value: masses sit at bucket centres.
    pub fn mean(&self) -> f64 {
        self.view().mean()
    }

    /// Variance under the uniform-within-bucket reading (includes the
    /// `width^2 / 12` within-bucket term).
    pub fn variance(&self) -> f64 {
        self.view().variance()
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.view().std_dev()
    }

    /// Shannon entropy of the bucket masses (nats). Zero buckets
    /// contribute nothing.
    pub fn entropy(&self) -> f64 {
        self.view().entropy()
    }

    /// Largest single-bucket mass (the mode's mass).
    pub fn max_prob(&self) -> f64 {
        self.view().max_prob()
    }

    /// `P(X <= x)` under the piecewise-linear (uniform within bucket) CDF.
    /// Zero below the support, one above it; `NaN` maps to zero.
    pub fn cdf(&self, x: f64) -> f64 {
        self.view().cdf(x)
    }

    /// On-time probability for budget `t`: an alias of [`Histogram::cdf`]
    /// named for the routing use case.
    pub fn prob_within(&self, t: f64) -> f64 {
        self.cdf(t)
    }

    /// Inverse CDF. `q` is clamped to `[0, 1]`; returns `start()` for
    /// `q <= 0` and `end()` for `q >= 1`.
    pub fn quantile(&self, q: f64) -> f64 {
        self.view().quantile(q)
    }

    /// The same distribution translated by `dt` seconds.
    pub fn shift(&self, dt: f64) -> Histogram {
        Histogram {
            start: self.start + dt,
            width: self.width,
            probs: self.probs.clone(),
        }
    }

    /// Translates the distribution by `dt` seconds without touching the
    /// mass vector — the in-place twin of [`Histogram::shift`].
    pub fn shift_in_place(&mut self, dt: f64) {
        self.start += dt;
    }

    /// Consumes the histogram, releasing its mass vector — the hand-off
    /// point into [`HistogramPool::checkin`], so a retired routing label
    /// returns its buffer capacity instead of dropping it.
    pub fn into_probs(self) -> Vec<f64> {
        self.probs
    }

    /// A clone whose mass vector is drawn from `pool` instead of a fresh
    /// allocation. Bit-identical to [`Clone::clone`] (the masses are
    /// copied verbatim, never re-normalized).
    pub fn pooled_clone(&self, pool: &mut HistogramPool) -> Histogram {
        let mut probs = pool.checkout_vec();
        probs.extend_from_slice(&self.probs);
        Histogram {
            start: self.start,
            width: self.width,
            probs,
        }
    }

    /// Re-buckets onto `nbins` buckets over the same support, splitting
    /// each bucket's mass by interval overlap.
    ///
    /// # Errors
    /// [`DistError::ZeroBins`] when `nbins == 0`.
    pub fn with_bins(&self, nbins: usize) -> Result<Histogram, DistError> {
        if nbins == 0 {
            return Err(DistError::ZeroBins);
        }
        if nbins == self.probs.len() {
            return Ok(self.clone());
        }
        let span = self.end() - self.start;
        self.rebin_onto(self.start, span / nbins as f64, nbins)
    }

    /// Projects the distribution onto an arbitrary target grid
    /// `[lo, lo + width * nbins)`, splitting mass by interval overlap.
    /// Mass outside the target support is clamped into the nearest edge
    /// bucket, so total mass is preserved.
    ///
    /// # Errors
    /// [`DistError::ZeroBins`], [`DistError::InvalidWidth`] or
    /// [`DistError::NonFinite`] for a degenerate target grid.
    pub fn rebin_onto(&self, lo: f64, width: f64, nbins: usize) -> Result<Histogram, DistError> {
        if nbins == 0 {
            return Err(DistError::ZeroBins);
        }
        if !width.is_finite() || width <= 0.0 {
            return Err(DistError::InvalidWidth(width));
        }
        if !lo.is_finite() {
            return Err(DistError::NonFinite);
        }
        let masses = redistribute(self.start, self.width, &self.probs, lo, width, nbins);
        Histogram::new(lo, width, masses)
    }
}

/// Overlap-splitting mass redistribution from one equi-width grid onto
/// another. Mass outside the target grid clamps into the edge buckets, so
/// the total is preserved exactly (up to rounding).
pub(crate) fn redistribute(
    src_start: f64,
    src_width: f64,
    src: &[f64],
    lo: f64,
    width: f64,
    nbins: usize,
) -> Vec<f64> {
    let mut out = Vec::new();
    redistribute_into(src_start, src_width, src, lo, width, nbins, &mut out);
    out
}

/// [`redistribute`] writing into a caller-provided buffer (cleared and
/// zero-filled to `nbins` first) — the allocation-free core every re-bin
/// in the stack funnels through. Delegates to the two-pass chunked
/// kernel (`crate::kernels::redistribute_chunked`) shared with the fused
/// accumulate-and-cap path. Sharing the kernel (rather than imitating
/// it) is what makes the fused path's boundary arithmetic bit-identical
/// to materialize-then-redistribute: same clamps, same overlap
/// expressions, same accumulation order into `out`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn redistribute_into(
    src_start: f64,
    src_width: f64,
    src: &[f64],
    lo: f64,
    width: f64,
    nbins: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(nbins, 0.0);
    let hi = lo + width * nbins as f64;
    let mut i0 = 0usize;
    while i0 < src.len() {
        let i1 = (i0 + crate::kernels::REDIST_CHUNK).min(src.len());
        crate::kernels::redistribute_chunked(
            i0,
            &src[i0..i1],
            src_start,
            src_width,
            lo,
            hi,
            width,
            nbins,
            out,
        );
        i0 = i1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes_counts() {
        let h = Histogram::new(0.0, 1.0, vec![2.0, 6.0]).unwrap();
        assert!((h.prob(0) - 0.25).abs() < 1e-12);
        assert!((h.prob(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn construction_rejects_degenerate_inputs() {
        assert_eq!(
            Histogram::new(0.0, 1.0, vec![]),
            Err(DistError::EmptyHistogram)
        );
        assert_eq!(
            Histogram::new(0.0, 0.0, vec![1.0]),
            Err(DistError::InvalidWidth(0.0))
        );
        assert_eq!(
            Histogram::new(f64::NAN, 1.0, vec![1.0]),
            Err(DistError::NonFinite)
        );
        assert_eq!(
            Histogram::new(0.0, 1.0, vec![1.0, -0.5]),
            Err(DistError::NegativeMass(-0.5))
        );
        assert_eq!(
            Histogram::new(0.0, 1.0, vec![0.0, 0.0]),
            Err(DistError::ZeroMass)
        );
    }

    #[test]
    fn paper_intro_table_moments() {
        // "Travel Time Distributions of Two Paths to the Airport".
        let p1 = Histogram::new(40.0, 10.0, vec![0.3, 0.6, 0.1]).unwrap();
        let p2 = Histogram::new(40.0, 10.0, vec![0.6, 0.2, 0.2]).unwrap();
        assert!((p1.mean() - 53.0).abs() < 1e-9);
        assert!((p2.mean() - 51.0).abs() < 1e-9);
        assert!((p1.prob_within(60.0) - 0.9).abs() < 1e-12);
        assert!((p2.prob_within(60.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_saturates() {
        let h = Histogram::new(10.0, 2.0, vec![0.25; 4]).unwrap();
        assert_eq!(h.cdf(9.0), 0.0);
        assert_eq!(h.cdf(18.0), 1.0);
        assert_eq!(h.cdf(f64::INFINITY), 1.0);
        assert_eq!(h.cdf(f64::NEG_INFINITY), 0.0);
        assert_eq!(h.cdf(f64::NAN), 0.0);
        let mut last = -1.0;
        for i in 0..=40 {
            let c = h.cdf(9.0 + 0.25 * i as f64);
            assert!(c >= last);
            last = c;
        }
        // Halfway through the second bucket.
        assert!((h.cdf(13.0) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_the_cdf() {
        let h = Histogram::new(0.0, 4.0, vec![0.1, 0.4, 0.3, 0.2]).unwrap();
        for q in [0.05, 0.25, 0.5, 0.75, 0.95] {
            let x = h.quantile(q);
            assert!((h.cdf(x) - q).abs() < 1e-9, "q={q} x={x}");
        }
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 16.0);
        assert_eq!(h.quantile(f64::NAN), 0.0);
    }

    #[test]
    fn point_masses_snap_to_the_lattice() {
        let h = Histogram::from_point_masses(&[(30.0, 0.5), (40.0, 0.5)], 5.0).unwrap();
        assert_eq!(h.num_bins(), 3);
        assert_eq!(h.prob(0), 0.5);
        assert_eq!(h.prob(1), 0.0);
        assert_eq!(h.prob(2), 0.5);
        assert_eq!(h.start(), 30.0);
    }

    #[test]
    fn shift_and_shifted_to_zero_round_trip() {
        let h = Histogram::new(30.0, 5.0, vec![0.5, 0.5]).unwrap();
        let (offset, shape) = (h.start(), h.shift(-h.start()));
        assert_eq!(offset, 30.0);
        assert_eq!(shape.start(), 0.0);
        assert_eq!(shape.shift(offset), h);
        assert!((shape.mean() + offset - h.mean()).abs() < 1e-12);
    }

    #[test]
    fn rebin_preserves_mass_and_roughly_the_mean() {
        let h = Histogram::new(5.0, 1.0, vec![0.1, 0.2, 0.3, 0.25, 0.1, 0.05]).unwrap();
        for n in [1usize, 2, 3, 4, 12] {
            let r = h.with_bins(n).unwrap();
            assert_eq!(r.num_bins(), n);
            assert!((r.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!((r.mean() - h.mean()).abs() <= r.width() / 2.0 + 1e-12);
            assert_eq!(r.start(), h.start());
        }
    }

    #[test]
    fn upsampling_splits_buckets_evenly() {
        let h = Histogram::new(0.0, 2.0, vec![0.5, 0.5]).unwrap();
        let r = h.with_bins(4).unwrap();
        for i in 0..4 {
            assert!((r.prob(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn rebin_onto_clamps_outside_mass_to_the_edges() {
        let h = Histogram::new(0.0, 1.0, vec![0.25; 4]).unwrap();
        // Target grid covers only the middle half of the support.
        let r = h.rebin_onto(1.0, 1.0, 2).unwrap();
        assert!((r.prob(0) - 0.5).abs() < 1e-12);
        assert!((r.prob(1) - 0.5).abs() < 1e-12);
        assert!((r.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_and_max_prob_behave() {
        let uniform = Histogram::new(0.0, 1.0, vec![0.25; 4]).unwrap();
        let spike = Histogram::new(0.0, 1.0, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(uniform.entropy() > spike.entropy());
        assert_eq!(spike.entropy(), 0.0);
        assert_eq!(spike.max_prob(), 1.0);
        assert_eq!(uniform.max_prob(), 0.25);
    }

    #[test]
    fn variance_includes_the_within_bucket_term() {
        let h = Histogram::point_mass(10.0, 6.0).unwrap();
        // A single bucket is uniform on [10, 16): variance = 36 / 12 = 3.
        assert!((h.variance() - 3.0).abs() < 1e-12);
        assert!((h.std_dev() - 3.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quantile_handles_extremes_and_zero_mass_plateaus() {
        // Interior zero-mass run: the CDF plateaus, the quantile at the
        // plateau's value resolves to the *left* edge of the plateau and
        // anything above it skips to the next positive bucket.
        let h = Histogram::new(0.0, 1.0, vec![0.5, 0.0, 0.0, 0.5]).unwrap();
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.5), 1.0);
        let above = h.quantile(0.5 + 1e-9);
        assert!(above > 3.0 && above < 4.0, "got {above}");
        assert_eq!(h.quantile(1.0), 4.0);
        assert_eq!(h.quantile(f64::NAN), 0.0);
        assert_eq!(h.quantile(-3.0), 0.0);
        assert_eq!(h.quantile(7.0), 4.0);
        // A zero-mass *suffix*: q = 1 must stop at the last positive
        // bucket's right edge, not the padded support's end.
        let padded = Histogram::new(0.0, 1.0, vec![1.0, 0.0, 0.0]).unwrap();
        assert_eq!(padded.quantile(1.0), 1.0);
        assert_eq!(padded.end(), 3.0);
        // A zero-mass *prefix*: tiny q lands in the first positive bucket.
        let shifted = Histogram::new(0.0, 1.0, vec![0.0, 0.0, 1.0]).unwrap();
        let q = shifted.quantile(1e-12);
        assert!((2.0..3.0).contains(&q), "got {q}");
    }

    #[test]
    fn cdf_saturates_across_zero_mass_suffixes() {
        let h = Histogram::new(0.0, 1.0, vec![0.5, 0.5, 0.0, 0.0]).unwrap();
        // All mass is behind x = 2: the CDF must already read 1 inside
        // the zero tail, not only past the support.
        assert_eq!(h.cdf(2.0), 1.0);
        assert_eq!(h.cdf(3.5), 1.0);
        assert_eq!(h.cdf(400.0), 1.0);
        assert_eq!(h.cdf(-1.0), 0.0);
        assert_eq!(h.cdf(0.0), 0.0);
    }

    #[test]
    fn view_scans_match_the_owning_histogram_bitwise() {
        // `HistogramView::from_raw` over the same grid must answer every
        // scan identically to the owning histogram — they share one
        // kernel-backed implementation.
        let h = Histogram::new(3.0, 0.7, vec![0.125, 0.0, 0.5, 0.25, 0.125]).unwrap();
        let v = HistogramView::from_raw(h.start(), h.width(), h.probs());
        for i in 0..=60 {
            let x = 2.5 + 0.1 * i as f64;
            assert_eq!(v.cdf(x).to_bits(), h.cdf(x).to_bits());
        }
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            assert_eq!(v.quantile(q).to_bits(), h.quantile(q).to_bits());
        }
        assert_eq!(v.mean().to_bits(), h.mean().to_bits());
        assert_eq!(v.variance().to_bits(), h.variance().to_bits());
    }

    #[test]
    fn quantile_inverts_the_cdf_across_plateaus_and_views() {
        // The inversion law, extended to the branch-free scans: wherever
        // the CDF is strictly increasing, quantile(cdf(x)) recovers x;
        // on plateaus it recovers the plateau's left edge.
        let cases = [
            Histogram::new(0.0, 4.0, vec![0.1, 0.4, 0.3, 0.2]).unwrap(),
            Histogram::new(-5.0, 0.5, vec![0.5, 0.0, 0.0, 0.25, 0.25]).unwrap(),
            Histogram::new(100.0, 2.0, vec![0.0, 1.0, 0.0]).unwrap(),
        ];
        for h in &cases {
            let v = h.view();
            for i in 1..100 {
                let q = i as f64 / 100.0;
                let x = h.quantile(q);
                assert!(
                    (h.cdf(x) - q).abs() < 1e-9,
                    "q={q} x={x} cdf={}",
                    h.cdf(x)
                );
                assert_eq!(v.quantile(q).to_bits(), x.to_bits());
            }
        }
    }
}

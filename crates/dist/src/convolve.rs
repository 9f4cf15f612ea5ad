//! Convolution of travel-time histograms — the independence-assuming
//! combination step and the hot inner loop of both path-cost computation
//! and routing-label expansion.
//!
//! "Assuming independence, the distribution of the travel time of a path
//! is computed by convolving the travel time distributions of the edges in
//! the path." The motivating example's table is reproduced verbatim by
//! [`convolve`]; [`convolve_bounded`] additionally caps the output bucket
//! count so search labels stay small (see `RouterConfig::max_bins` in
//! `srt-core`).
//!
//! **The capped mixed-width step is evaluated in closed form.** A search
//! label (`max_bins` wide buckets over the whole path so far) almost
//! never shares a bucket width with the edge marginal it absorbs, so the
//! mismatched-width capped branch of [`convolve_bounded_into`] is *every*
//! search convolution. Its meaning is [`convolve_into`] followed by a
//! bucket cap: project the coarser operand onto the finer one's lattice,
//! multiply the two out there, re-bucket the product down to `max_bins`.
//! In real arithmetic that product's CDF equals
//! `G(x) = Σ_j b_j · A(x − y_j)` at every fine-lattice knot (`A` the
//! coarse operand's piecewise-linear CDF, `b_j` / `y_j` the fine
//! operand's masses and left bucket edges) and is `G`'s chord between
//! knots, so it differs from `G` only by smoothing `A`'s kinks across one
//! fine bucket — by at most
//! `(w_fine / w_coarse) · max_i |p_i − p_{i−1}| / 4` (`p` the coarse
//! masses, `p_{−1} = p_n = 0`). The branch therefore reads the `max_bins`
//! output masses off `G` directly (`kernels::accumulate_direct_capped`:
//! no fine lattice, no product grid, no pooled temporary, cost independent
//! of the width ratio). The output *grid* is the projecting pipeline's to
//! the bit: it is a function of the operands' grids alone (`start`, the
//! projected bucket count, `span / max_bins`) and the same expressions
//! compute it, so nothing that keys on grids — lattice detection,
//! dominance breakpoints, envelopes — can tell the two apart. The
//! projecting pipeline is retained as
//! `reference::convolve_bounded_projected_ref`, against which
//! `tests/proptest_kernels.rs` pins both the grid identity and the bound.
//!
//! Every operator exists in two forms. The `_into` form
//! ([`convolve_into`], [`convolve_bounded_into`]) writes into a
//! caller-provided [`HistogramBuf`], drawing temporaries from a
//! caller-provided [`HistogramPool`] — zero heap allocation once the pool
//! is warm. The value-returning form is a thin wrapper: it runs the same
//! `_into` code with a thread-local pool for temporaries and promotes the
//! buffer once, so the two forms are bit-for-bit identical (proptested in
//! `tests/proptest_dist.rs`). The wrapper pool replaces the old hidden
//! high-water-mark `SCRATCH` buffer: retained capacity is bounded and
//! shrunk, instead of pinned forever on every thread that ever convolved.
//!
//! Output masses written by the `_into` operators are **raw** in the
//! [`HistogramBuf`] sense: exactly one normalization is pending, applied
//! by [`HistogramBuf::into_histogram`] — matching the single final
//! `Histogram::new` of the value pipeline.

use crate::error::DistError;
use crate::histogram::{redistribute_into, Histogram, HistogramView};
use crate::kernels::{
    accumulate_capped, accumulate_direct_capped, accumulate_mac, projection_bins, same_lattice,
};
use crate::pool::{normalize_masses, HistogramBuf, HistogramPool};
use std::cell::RefCell;

/// Which code path a convolution took — returned by [`convolve_into`] and
/// [`convolve_bounded_into`] so callers (the routing engine's
/// `lattice_fast_path` counter, benchmarks, tests) can observe the
/// kernel dispatch without re-deriving it. The route is a function of the
/// operands' grids and the cap alone; the enum is telemetry, not a
/// semantic switch.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ConvRoute {
    /// Equal widths *and* phase-aligned starts: both operands sit on one
    /// shared lattice, so the projection-free aligned kernel is exact on
    /// the operands' own grid — the warm-engine fast path.
    Lattice,
    /// Shared lattice, output re-bucketed through the fused
    /// accumulate-and-cap kernel (no materialized product grid).
    LatticeCapped,
    /// Equal widths but offset phases: still the aligned kernel (equal
    /// width is all it needs), but the operands don't share a lattice.
    Aligned,
    /// Equal widths, offset phases, fused cap.
    AlignedCapped,
    /// Mismatched widths: the coarser operand was projected onto the
    /// finer lattice first, output within the cap (if any).
    Projected,
    /// Mismatched widths, projected result wider than the cap: the capped
    /// masses were read off the coarser operand's CDF in closed form, on
    /// the grid projecting and re-bucketing would have produced — the
    /// route every search convolution takes.
    DirectCapped,
}

impl ConvRoute {
    /// `true` for the shared-lattice routes — what the engine's
    /// `lattice_fast_path` counter tallies.
    pub fn lattice_hit(self) -> bool {
        matches!(self, ConvRoute::Lattice | ConvRoute::LatticeCapped)
    }

    /// `true` when a `project_fine` re-binning ran.
    pub fn projected(self) -> bool {
        matches!(self, ConvRoute::Projected)
    }

    /// `true` when the exact result exceeded the cap, so the output sits
    /// on the capped grid.
    pub fn capped(self) -> bool {
        matches!(
            self,
            ConvRoute::LatticeCapped | ConvRoute::AlignedCapped | ConvRoute::DirectCapped
        )
    }
}

thread_local! {
    /// Temporaries for the value-returning wrappers (and any other
    /// cold-path caller via [`with_local_pool`]). Bounded retention: at
    /// most a handful of buffers, each shrunk to the pool's capacity
    /// bound on checkin — the fix for the old `SCRATCH` thread-local,
    /// which retained its largest-ever product grid forever.
    static LOCAL_POOL: RefCell<HistogramPool> = RefCell::new(HistogramPool::with_limits(8, 4096));
}

/// Runs `f` with this thread's shared scratch [`HistogramPool`] — the
/// pool the value-returning wrappers draw their temporaries from. Lets
/// cold paths (one-shot conversions, tests, CLI tools) reuse pooled
/// operators without owning a pool.
pub fn with_local_pool<R>(f: impl FnOnce(&mut HistogramPool) -> R) -> R {
    LOCAL_POOL.with(|p| f(&mut p.borrow_mut()))
}

/// Writes the aligned convolution's raw masses and grid into `out` via
/// the chunked multiply-accumulate kernel (bit-identical to the scalar
/// reference — see `crate::kernels`).
fn convolve_aligned_into(a: &HistogramView<'_>, b: &HistogramView<'_>, out: &mut HistogramBuf) {
    let n = a.num_bins() + b.num_bins() - 1;
    let masses = out.reset_masses();
    masses.resize(n, 0.0);
    accumulate_mac(a.probs(), b.probs(), masses);
    out.set_grid(a.start() + b.start(), a.width());
}

/// Projects `h` onto the finer lattice of width `w` (anchored at `h`'s
/// own start) into a pooled temporary, reproducing the value pipeline's
/// `rebin_onto` + `Histogram::new` normalization. The returned vector is
/// checked out of `pool`; the caller checks it back in when done. The
/// bin count comes from [`projection_bins`]'s magnitude-derived
/// tolerance (the former absolute `1e-9` snapped away genuine slivers).
fn project_fine(h: &HistogramView<'_>, w: f64, pool: &mut HistogramPool) -> Vec<f64> {
    let span = h.end() - h.start();
    let nbins = projection_bins(span, w);
    let mut tmp = pool.checkout_vec();
    redistribute_into(h.start(), h.width(), h.probs(), h.start(), w, nbins, &mut tmp);
    // The value pipeline materialized the projection through
    // `Histogram::new`, normalizing it before the aligned convolution.
    normalize_masses(&mut tmp);
    tmp
}

/// In-place twin of [`convolve`]: writes the (raw) convolution of `a` and
/// `b` into `out`. Mismatched widths are projected onto the finer lattice
/// using temporaries from `pool`; aligned inputs touch the pool not at
/// all. Returns the [`ConvRoute`] taken.
///
/// This *uncapped* projecting route sizes its grid by the width ratio
/// (`coarse span / finer width` slots), so a hair-width operand — the
/// `1e-9`-wide marginal [`crate::empirical::from_samples`] gives a
/// constant travel time — asks it for a grid no machine has. Callers that
/// cannot vouch for their operands' widths use [`convolve_bounded_into`],
/// whose capped route does `O(max_bins)` work per fine bucket whatever the
/// ratio.
pub fn convolve_into(
    a: &HistogramView<'_>,
    b: &HistogramView<'_>,
    out: &mut HistogramBuf,
    pool: &mut HistogramPool,
) -> ConvRoute {
    if a.width() == b.width() {
        let route = if same_lattice(a, b) {
            ConvRoute::Lattice
        } else {
            ConvRoute::Aligned
        };
        convolve_aligned_into(a, b, out);
        return route;
    }
    // `min` returns one of its arguments, so exactly one side is coarser
    // and needs projecting onto the finer lattice.
    let w = a.width().min(b.width());
    if a.width() == w {
        let fb = project_fine(b, w, pool);
        let vb = HistogramView::from_raw(b.start(), w, &fb);
        convolve_aligned_into(a, &vb, out);
        pool.checkin(fb);
    } else {
        let fa = project_fine(a, w, pool);
        let va = HistogramView::from_raw(a.start(), w, &fa);
        convolve_aligned_into(&va, b, out);
        pool.checkin(fa);
    }
    ConvRoute::Projected
}

/// Travel-time distribution of the sum of two independent histograms.
///
/// Histograms with equal bucket widths convolve exactly on the shared
/// lattice (`na + nb - 1` output buckets anchored at the sum of the
/// supports' left edges). Mismatched widths are first projected onto the
/// finer of the two widths, then convolved on that lattice.
///
/// A thin wrapper over [`convolve_into`] (temporaries from the
/// thread-local pool; one final promotion) — bit-identical to the
/// in-place form by construction.
///
/// ```
/// use srt_dist::{convolve, Histogram};
///
/// // The paper's motivating example: marginals H1 = {10: .5, 15: .5} and
/// // H2 = {20: .5, 25: .5} convolve to {30: .25, 35: .50, 40: .25}.
/// let h1 = Histogram::from_point_masses(&[(10.0, 0.5), (15.0, 0.5)], 5.0).unwrap();
/// let h2 = Histogram::from_point_masses(&[(20.0, 0.5), (25.0, 0.5)], 5.0).unwrap();
/// let sum = convolve(&h1, &h2);
/// assert_eq!(sum.num_bins(), 3);
/// assert!((sum.prob(1) - 0.50).abs() < 1e-12);
/// assert_eq!(sum.start(), 30.0);
/// ```
pub fn convolve(a: &Histogram, b: &Histogram) -> Histogram {
    with_local_pool(|pool| {
        let mut out = HistogramBuf::new();
        convolve_into(&a.view(), &b.view(), &mut out, pool);
        out.into_histogram()
            .expect("convolution of valid histograms is valid")
    })
}

/// In-place twin of [`convolve_bounded`]: writes the (raw) capped
/// convolution of `a` and `b` into `out`. Whenever the exact result
/// exceeds `max_bins` the step touches `pool` not at all: equal-width
/// operands run the fused accumulate-and-cap kernel (re-bucketing on the
/// fly, no materialized product grid), mismatched widths — the routing
/// label expansion's every convolution — the closed-form kernel (see the
/// module docs). Only a mismatched pair whose projected result already
/// fits the cap draws a projection temporary from `pool`, through
/// [`convolve_into`]. Returns the [`ConvRoute`] taken.
///
/// # Errors
/// [`DistError::ZeroBins`] when `max_bins == 0`.
pub fn convolve_bounded_into(
    a: &HistogramView<'_>,
    b: &HistogramView<'_>,
    max_bins: usize,
    out: &mut HistogramBuf,
    pool: &mut HistogramPool,
) -> Result<ConvRoute, DistError> {
    if max_bins == 0 {
        return Err(DistError::ZeroBins);
    }
    if a.width() != b.width() {
        let (fine, coarse) = if a.width() < b.width() {
            (a, b)
        } else {
            (b, a)
        };
        // The grid projecting `coarse` onto `fine`'s lattice, convolving
        // there and capping would produce — same expressions, same bits.
        let w = fine.width();
        let n = projection_bins(coarse.end() - coarse.start(), w)
            .saturating_add(fine.num_bins() - 1);
        if n <= max_bins {
            convolve_into(a, b, out, pool);
            debug_assert_eq!(out.num_bins(), n);
            return Ok(ConvRoute::Projected);
        }
        let start = a.start() + b.start();
        let span = (start + w * n as f64) - start;
        let width = span / max_bins as f64;
        accumulate_direct_capped(
            coarse.probs(),
            coarse.width(),
            fine.probs(),
            w,
            width,
            max_bins,
            out.reset_masses(),
        );
        out.set_grid(start, width);
        return Ok(ConvRoute::DirectCapped);
    }
    let n = a.num_bins() + b.num_bins() - 1;
    let lattice = same_lattice(a, b);
    if n <= max_bins {
        convolve_aligned_into(a, b, out);
        return Ok(if lattice {
            ConvRoute::Lattice
        } else {
            ConvRoute::Aligned
        });
    }
    // Capped aligned path: the fused kernel accumulates product-grid
    // values in stack tiles and redistributes each tile straight into the
    // output — bit-identical to the historical materialize-then-
    // redistribute (the value pipeline's scratch -> redistribute -> one
    // `Histogram::new`), so the raw masses see no intermediate
    // normalization and no pooled grid is ever checked out.
    let start = a.start() + b.start();
    let span = a.width() * n as f64;
    let width = span / max_bins as f64;
    let masses = out.reset_masses();
    accumulate_capped(a.probs(), b.probs(), start, a.width(), width, max_bins, masses);
    out.set_grid(start, width);
    Ok(if lattice {
        ConvRoute::LatticeCapped
    } else {
        ConvRoute::AlignedCapped
    })
}

/// [`convolve`] with a cap on the number of output buckets — the pruning
/// (c) workhorse: zero-anchored label histograms stay at most `max_bins`
/// wide no matter how long the path grows.
///
/// When the exact result exceeds `max_bins` buckets it is re-bucketed onto
/// `max_bins` equal buckets over the same support (mass split by interval
/// overlap). A thin wrapper over [`convolve_bounded_into`] (temporaries
/// from the thread-local pool, whose retention is bounded and shrunk; one
/// final promotion) — bit-identical to the in-place form by construction.
///
/// # Errors
/// [`DistError::ZeroBins`] when `max_bins == 0`.
pub fn convolve_bounded(
    a: &Histogram,
    b: &Histogram,
    max_bins: usize,
) -> Result<Histogram, DistError> {
    with_local_pool(|pool| {
        let mut out = HistogramBuf::new();
        convolve_bounded_into(&a.view(), &b.view(), max_bins, &mut out, pool)?;
        out.into_histogram()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(start: f64, width: f64, probs: &[f64]) -> Histogram {
        Histogram::new(start, width, probs.to_vec()).unwrap()
    }

    #[test]
    fn paper_motivating_example_is_exact() {
        let h1 = Histogram::from_point_masses(&[(10.0, 0.5), (15.0, 0.5)], 5.0).unwrap();
        let h2 = Histogram::from_point_masses(&[(20.0, 0.5), (25.0, 0.5)], 5.0).unwrap();
        let c = convolve(&h1, &h2);
        assert_eq!(c.num_bins(), 3);
        assert_eq!(c.start(), 30.0);
        assert!((c.prob(0) - 0.25).abs() < 1e-15);
        assert!((c.prob(1) - 0.50).abs() < 1e-15);
        assert!((c.prob(2) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn convolution_is_commutative() {
        let a = h(0.0, 2.0, &[0.2, 0.5, 0.3]);
        let b = h(10.0, 2.0, &[0.7, 0.3]);
        assert_eq!(convolve(&a, &b), convolve(&b, &a));
    }

    #[test]
    fn support_is_the_sum_of_supports() {
        let a = h(5.0, 1.0, &[0.5, 0.5]);
        let b = h(7.0, 1.0, &[0.25, 0.25, 0.5]);
        let c = convolve(&a, &b);
        assert_eq!(c.start(), 12.0);
        assert_eq!(c.num_bins(), 4);
        assert_eq!(c.end(), 16.0);
    }

    #[test]
    fn mismatched_widths_are_projected_onto_the_finer_lattice() {
        let a = h(30.0, 5.0, &[0.5, 0.5]);
        let b = h(18.0, 4.0, &[0.25, 0.25, 0.25, 0.25]);
        let c = convolve(&a, &b);
        assert_eq!(c.width(), 4.0);
        assert_eq!(c.start(), 48.0);
        assert!((c.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Mean additivity holds to within half the coarser bucket.
        assert!((c.mean() - (a.mean() + b.mean())).abs() <= 2.5 + 1e-9);
    }

    #[test]
    fn bounded_convolution_matches_full_when_it_fits() {
        let a = h(0.0, 1.0, &[0.5, 0.5]);
        let b = h(0.0, 1.0, &[0.25, 0.75]);
        assert_eq!(convolve_bounded(&a, &b, 8).unwrap(), convolve(&a, &b));
    }

    #[test]
    fn bounded_convolution_caps_the_bucket_count() {
        let a = h(10.0, 2.0, &[0.1; 10]);
        let b = h(20.0, 2.0, &[0.05; 20]);
        let c = convolve_bounded(&a, &b, 12).unwrap();
        assert_eq!(c.num_bins(), 12);
        assert_eq!(c.start(), 30.0);
        // Same support as the exact result (10 + 20 - 1 buckets of 2s).
        assert!((c.end() - (30.0 + 29.0 * 2.0)).abs() < 1e-9);
        assert!((c.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The cap only re-buckets; the CDF stays close to the exact one.
        let full = convolve(&a, &b);
        for i in 0..=12 {
            let x = 30.0 + i as f64 * c.width();
            assert!((c.cdf(x) - full.cdf(x)).abs() < 0.08, "x={x}");
        }
    }

    #[test]
    fn bounded_convolution_rejects_a_zero_cap() {
        let a = h(0.0, 1.0, &[1.0]);
        assert_eq!(convolve_bounded(&a, &a, 0), Err(DistError::ZeroBins));
        let mut out = HistogramBuf::new();
        let mut pool = HistogramPool::new();
        assert_eq!(
            convolve_bounded_into(&a.view(), &a.view(), 0, &mut out, &mut pool),
            Err(DistError::ZeroBins)
        );
    }

    /// A constant travel time fits as a marginal of `1e-9`-wide buckets.
    /// Projecting a label onto that lattice asked for 2·10¹¹ slots and
    /// aborted the process on the failed allocation; the closed form's
    /// cost does not depend on the width ratio.
    #[test]
    fn hair_width_marginal_is_absorbed_without_a_grid() {
        let label = h(300.0, 10.0, &[0.05; 20]);
        let constant = crate::empirical::from_samples(&[42.0; 50], 20).unwrap();
        let before = with_local_pool(|pool| pool.stats());
        let c = convolve_bounded(&label, &constant, 20).unwrap();
        assert_eq!(c.start(), 342.0);
        assert_eq!(c.num_bins(), 20);
        assert!((c.mean() - 442.0).abs() < 1e-6, "mean {}", c.mean());
        assert_eq!(with_local_pool(|pool| pool.stats()), before);
    }

    #[test]
    fn repeated_bounded_convolution_keeps_labels_small() {
        // The routing loop's usage pattern: fold a path, cap at each step.
        let edge = h(10.0, 2.5, &[0.1, 0.3, 0.4, 0.2]);
        let mut acc = edge.clone();
        for _ in 0..30 {
            acc = convolve_bounded(&acc, &edge, 20).unwrap();
            assert!(acc.num_bins() <= 20);
            assert!((acc.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        // 31 edges, each at least 10s: the support floor must track it.
        assert!(acc.start() >= 309.0);
    }

    #[test]
    fn into_forms_are_bit_identical_to_value_forms() {
        let cases = [
            (h(0.0, 1.0, &[0.5, 0.5]), h(3.0, 1.0, &[0.25, 0.75])),
            (h(10.0, 2.0, &[0.1; 10]), h(20.0, 2.0, &[0.05; 20])),
            (h(30.0, 5.0, &[0.5, 0.5]), h(18.0, 4.0, &[0.25; 4])),
            (h(1.0, 0.75, &[0.2, 0.3, 0.5]), h(2.0, 3.0, &[0.6, 0.4])),
        ];
        let mut pool = HistogramPool::new();
        for (a, b) in &cases {
            let mut out = pool.checkout();
            convolve_into(&a.view(), &b.view(), &mut out, &mut pool);
            let pooled = out.into_histogram().unwrap();
            let direct = convolve(a, b);
            assert_eq!(pooled, direct);
            for (x, y) in pooled.probs().iter().zip(direct.probs()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            pool.recycle(pooled);
            for cap in [1usize, 3, 12, 64] {
                let mut out = pool.checkout();
                convolve_bounded_into(&a.view(), &b.view(), cap, &mut out, &mut pool).unwrap();
                let pooled = out.into_histogram().unwrap();
                let direct = convolve_bounded(a, b, cap).unwrap();
                assert_eq!(pooled, direct, "cap {cap}");
                for (x, y) in pooled.probs().iter().zip(direct.probs()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "cap {cap}");
                }
                pool.recycle(pooled);
            }
        }
    }

    #[test]
    fn warm_pool_convolution_mints_nothing() {
        let a = h(10.0, 2.0, &[0.1; 10]);
        let b = h(20.0, 2.0, &[0.05; 20]);
        let mut pool = HistogramPool::new();
        // Warm-up pass establishes the high-water mark.
        for cap in [8usize, 12, 30] {
            let mut out = pool.checkout();
            convolve_bounded_into(&a.view(), &b.view(), cap, &mut out, &mut pool).unwrap();
            pool.checkin_buf(out);
        }
        let warm = pool.stats();
        // Steady state: the same work mints no new buffers.
        for _ in 0..10 {
            for cap in [8usize, 12, 30] {
                let mut out = pool.checkout();
                convolve_bounded_into(&a.view(), &b.view(), cap, &mut out, &mut pool).unwrap();
                pool.checkin_buf(out);
            }
        }
        assert_eq!(pool.stats().mints, warm.mints, "warm pool minted a buffer");
        assert!(pool.stats().reuses > warm.reuses);
    }
}

//! Retained scalar reference implementations — the oracle half of the
//! kernel differential suite.
//!
//! Every chunked/branch-free kernel in `crate::kernels` claims bitwise
//! identity with the simple scalar loop it replaced. This module *keeps*
//! those loops, verbatim, so the claim stays checkable forever:
//! `tests/proptest_kernels.rs` runs each production kernel against its
//! reference twin over adversarial grids and asserts `to_bits()`
//! equality on every output. Nothing here is part of the supported API —
//! the module is `#[doc(hidden)]` and exists only for differential
//! testing and benchmarking.
//!
//! The closed-form capped mixed-width kernel has two entries here. Its
//! scalar twin `accumulate_direct_capped_ref` carries the bitwise
//! contract like every other pair. The projecting pipeline it replaced is
//! kept as [`convolve_bounded_projected_ref`]: the two are *not* bitwise
//! equal (the closed form skips the chord-smoothing of the fine lattice),
//! so the suite pins them to a bit-identical output grid and the derived
//! CDF bound instead.
//!
//! One deliberate exception to "verbatim": the projection bin-count
//! tolerance is shared with production via
//! `crate::kernels::projection_bins`. That replaced a magnitude-blind
//! `1e-9` epsilon — a *semantic* fix to what both pipelines should
//! compute, not a kernel variant, so the reference adopts it too.

use crate::error::DistError;
use crate::histogram::HistogramView;
use crate::kernels::{projection_bins, CdfScanner};
use crate::pool::{normalize_masses, HistogramBuf, HistogramPool};

/// The historical aligned-convolution loop: per-element zero-mass
/// branch-and-skip, no unrolling. `out` must hold
/// `a.len() + b.len() - 1` slots.
pub fn accumulate_aligned_ref(a: &[f64], b: &[f64], out: &mut [f64]) {
    for (i, &pa) in a.iter().enumerate() {
        if pa == 0.0 {
            continue;
        }
        for (j, &pb) in b.iter().enumerate() {
            out[i + j] += pa * pb;
        }
    }
}

/// The historical monolithic overlap-splitting redistribution loop
/// (clears and zero-fills `out` to `nbins` first).
#[allow(clippy::too_many_arguments)]
pub fn redistribute_into_ref(
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
    for (i, &p) in src.iter().enumerate() {
        if p <= 0.0 {
            continue;
        }
        let l = src_start + i as f64 * src_width;
        let r = l + src_width;
        let below = (lo - l).clamp(0.0, src_width);
        let above = (r - hi).clamp(0.0, src_width);
        if below > 0.0 {
            out[0] += p * below / src_width;
        }
        if above > 0.0 {
            out[nbins - 1] += p * above / src_width;
        }
        let ol = l.max(lo);
        let or_ = r.min(hi);
        if or_ <= ol {
            continue;
        }
        let j0 = ((ol - lo) / width).floor().max(0.0) as usize;
        let j1 = (((or_ - lo) / width).ceil() as usize).min(nbins);
        for (j, slot) in out.iter_mut().enumerate().take(j1).skip(j0.min(nbins - 1)) {
            let bl = lo + j as f64 * width;
            let overlap = or_.min(bl + width) - ol.max(bl);
            if overlap > 0.0 {
                *slot += p * overlap / src_width;
            }
        }
    }
}

/// Reference aligned convolution into a [`HistogramBuf`].
fn convolve_aligned_into_ref(a: &HistogramView<'_>, b: &HistogramView<'_>, out: &mut HistogramBuf) {
    let n = a.num_bins() + b.num_bins() - 1;
    let masses = out.reset_masses();
    masses.resize(n, 0.0);
    accumulate_aligned_ref(a.probs(), b.probs(), masses);
    out.set_grid(a.start() + b.start(), a.width());
}

/// Reference projection of `h` onto the finer lattice of width `w`
/// (pooled temporary; the caller checks it back in).
fn project_fine_ref(h: &HistogramView<'_>, w: f64, pool: &mut HistogramPool) -> Vec<f64> {
    let span = h.end() - h.start();
    let nbins = projection_bins(span, w);
    let mut tmp = pool.checkout_vec();
    redistribute_into_ref(
        h.start(),
        h.width(),
        h.probs(),
        h.start(),
        w,
        nbins,
        &mut tmp,
    );
    normalize_masses(&mut tmp);
    tmp
}

/// The historical [`crate::convolve_into`]: scalar MAC, projection for
/// mismatched widths.
pub fn convolve_into_ref(
    a: &HistogramView<'_>,
    b: &HistogramView<'_>,
    out: &mut HistogramBuf,
    pool: &mut HistogramPool,
) {
    if a.width() == b.width() {
        convolve_aligned_into_ref(a, b, out);
        return;
    }
    let w = a.width().min(b.width());
    if a.width() == w {
        let fb = project_fine_ref(b, w, pool);
        let vb = HistogramView::from_raw(b.start(), w, &fb);
        convolve_aligned_into_ref(a, &vb, out);
        pool.checkin(fb);
    } else {
        let fa = project_fine_ref(a, w, pool);
        let va = HistogramView::from_raw(a.start(), w, &fa);
        convolve_aligned_into_ref(&va, b, out);
        pool.checkin(fa);
    }
}

/// Scalar twin of `crate::kernels::accumulate_direct_capped`: the same
/// `u`, `t` and interpolation expressions, but every `A(u)` is a one-shot
/// [`cdf_ref`] that re-sums its prefix from `0.0` instead of carrying it
/// across ascending knots (clears and zero-fills `out` to `nbins` first).
fn accumulate_direct_capped_ref(
    coarse: &[f64],
    w_coarse: f64,
    fine: &[f64],
    w_fine: f64,
    width: f64,
    nbins: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(nbins, 0.0);
    let a = |u: f64| cdf_ref(0.0, w_coarse, coarse, u);
    for (m, slot) in out.iter_mut().enumerate() {
        for (j, &pb) in fine.iter().enumerate() {
            if pb <= 0.0 {
                continue;
            }
            let y = j as f64 * w_fine;
            let hi = a((m + 1) as f64 * width - y);
            let lo = a(m as f64 * width - y);
            *slot += pb * (hi - lo).max(0.0);
        }
    }
}

/// Reference twin of [`crate::convolve_bounded_into`]: scalar MAC and
/// projection, the capped aligned path materializing the full product
/// grid in a pooled temporary and redistributing it (what the fused
/// kernel reproduces bit-for-bit without the temporary), the capped
/// mismatched path through `accumulate_direct_capped_ref`.
///
/// # Errors
/// [`DistError::ZeroBins`] when `max_bins == 0`.
pub fn convolve_bounded_into_ref(
    a: &HistogramView<'_>,
    b: &HistogramView<'_>,
    max_bins: usize,
    out: &mut HistogramBuf,
    pool: &mut HistogramPool,
) -> Result<(), DistError> {
    if max_bins == 0 {
        return Err(DistError::ZeroBins);
    }
    if a.width() != b.width() {
        let (fine, coarse) = if a.width() < b.width() {
            (a, b)
        } else {
            (b, a)
        };
        let w = fine.width();
        let n =
            projection_bins(coarse.end() - coarse.start(), w).saturating_add(fine.num_bins() - 1);
        if n <= max_bins {
            convolve_into_ref(a, b, out, pool);
            return Ok(());
        }
        let start = a.start() + b.start();
        let span = (start + w * n as f64) - start;
        let width = span / max_bins as f64;
        accumulate_direct_capped_ref(
            coarse.probs(),
            coarse.width(),
            fine.probs(),
            w,
            width,
            max_bins,
            out.reset_masses(),
        );
        out.set_grid(start, width);
        return Ok(());
    }
    let n = a.num_bins() + b.num_bins() - 1;
    if n <= max_bins {
        convolve_aligned_into_ref(a, b, out);
        return Ok(());
    }
    let mut grid = pool.checkout_vec();
    grid.resize(n, 0.0);
    accumulate_aligned_ref(a.probs(), b.probs(), &mut grid);
    let start = a.start() + b.start();
    let span = a.width() * n as f64;
    let width = span / max_bins as f64;
    let masses = out.reset_masses();
    redistribute_into_ref(start, a.width(), &grid, start, width, max_bins, masses);
    pool.checkin(grid);
    out.set_grid(start, width);
    Ok(())
}

/// The pipeline the closed-form capped mixed-width kernel replaced:
/// project the coarser operand onto the finer lattice, convolve there,
/// normalize, re-bucket down to `max_bins`. Its grid sizes with the width
/// ratio, so keep the operands' widths within a few decades. Retained for
/// the tolerance differential (output grid bit-equal, CDF at output knots
/// within the chord bound — `tests/proptest_kernels.rs`) and the layer
/// bench; nothing in the library calls it.
///
/// # Errors
/// [`DistError::ZeroBins`] when `max_bins == 0`.
pub fn convolve_bounded_projected_ref(
    a: &HistogramView<'_>,
    b: &HistogramView<'_>,
    max_bins: usize,
    out: &mut HistogramBuf,
    pool: &mut HistogramPool,
) -> Result<(), DistError> {
    convolve_into_ref(a, b, out, pool);
    out.cap_bins(max_bins, pool)
}

/// Convolution that *forces* the `project_fine` route even for
/// equal-width operands (`b` is projected onto `a`'s width). The
/// shared-lattice equivalence tests use this to prove the lattice fast
/// path sound: on exact (dyadic) grids, skipping the projection must be
/// bit-identical to running it.
pub fn convolve_via_projection_ref(
    a: &HistogramView<'_>,
    b: &HistogramView<'_>,
    out: &mut HistogramBuf,
    pool: &mut HistogramPool,
) {
    let w = a.width().min(b.width());
    if a.width() == w {
        let fb = project_fine_ref(b, w, pool);
        let vb = HistogramView::from_raw(b.start(), w, &fb);
        convolve_aligned_into_ref(a, &vb, out);
        pool.checkin(fb);
    } else {
        let fa = project_fine_ref(a, w, pool);
        let va = HistogramView::from_raw(a.start(), w, &fa);
        convolve_aligned_into_ref(&va, b, out);
        pool.checkin(fa);
    }
}

/// The historical one-shot CDF scan: prefix sum via `iter().sum()`.
pub fn cdf_ref(start: f64, width: f64, probs: &[f64], x: f64) -> f64 {
    if !x.is_finite() {
        return if x == f64::INFINITY { 1.0 } else { 0.0 };
    }
    let t = (x - start) / width;
    if t <= 0.0 {
        return 0.0;
    }
    if t >= probs.len() as f64 {
        return 1.0;
    }
    let full = t.floor() as usize;
    let head: f64 = probs[..full].iter().sum();
    (head + (t - full as f64) * probs[full]).clamp(0.0, 1.0)
}

/// The historical early-exit quantile loop (the caller handles the
/// `q <= 0` / NaN clamp, as [`HistogramView::quantile`] does).
pub fn quantile_ref(start: f64, width: f64, probs: &[f64], q: f64) -> f64 {
    let mut cum = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        if p > 0.0 && cum + p >= q {
            return start + width * (i as f64 + (q - cum) / p);
        }
        cum += p;
    }
    start + width * probs.len() as f64
}

/// The historical mean scan (`Σ (i + 0.5) p` via iterator `sum`).
pub fn mean_ref(start: f64, width: f64, probs: &[f64]) -> f64 {
    let centers: f64 = probs
        .iter()
        .enumerate()
        .map(|(i, &p)| (i as f64 + 0.5) * p)
        .sum();
    start + width * centers
}

/// The historical variance scan (centred second moment plus the
/// `width²/12` within-bucket term).
pub fn variance_ref(start: f64, width: f64, probs: &[f64]) -> f64 {
    let mean = mean_ref(start, width, probs);
    let spread: f64 = probs
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let c = start + (i as f64 + 0.5) * width;
            p * (c - mean) * (c - mean)
        })
        .sum();
    spread + width * width / 12.0
}

/// The historical full-sweep margin-dominance predicate: the breakpoint
/// merge could not stop, so after the first violated breakpoint it kept
/// merging both lattices with the verdict already settled.
/// [`crate::dominance::dominates_with_margin_shifted_views`] now returns
/// at that breakpoint; the two must agree on every input.
pub fn dominates_with_margin_shifted_ref(
    a: &HistogramView<'_>,
    oa: f64,
    b: &HistogramView<'_>,
    ob: f64,
    eps: f64,
) -> bool {
    const MARGIN_TIE: f64 = 1e-9;
    let eps = if eps.is_nan() {
        f64::INFINITY
    } else {
        eps.max(0.0)
    };
    if oa + a.start() > ob + b.end() {
        return false;
    }
    let mut ok = true;
    let mut sa = CdfScanner::new(*a);
    let mut sb = CdfScanner::new(*b);
    let mut visit = |x: f64| {
        if !ok {
            return;
        }
        let ca = sa.cdf(x - oa);
        let cb = sb.cdf(x - ob);
        if ca + MARGIN_TIE < cb {
            ok = false;
            return;
        }
        if cb > MARGIN_TIE && ca < 1.0 - MARGIN_TIE && ca + MARGIN_TIE < (cb + eps).min(1.0) {
            ok = false;
        }
    };
    let (mut i, mut j) = (0usize, 0usize);
    let na = a.num_bins() + 1;
    let nb = b.num_bins() + 1;
    while i < na || j < nb {
        let xa = if i < na {
            oa + a.start() + i as f64 * a.width()
        } else {
            f64::INFINITY
        };
        let xb = if j < nb {
            ob + b.start() + j as f64 * b.width()
        } else {
            f64::INFINITY
        };
        if xa <= xb {
            visit(xa);
            i += 1;
            if xa == xb {
                j += 1;
            }
        } else {
            visit(xb);
            j += 1;
        }
    }
    ok
}

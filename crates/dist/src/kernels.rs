//! Chunked, branch-free inner-loop kernels of the distribution algebra.
//!
//! Every hot loop in the crate — the convolution multiply-accumulate, the
//! fused accumulate-and-cap, the closed-form capped mixed-width
//! convolution, the CDF/quantile/moment scans — lives here as
//! a small, autovectorizer-friendly kernel with a precisely stated
//! **accumulation-order contract**:
//!
//! > Every kernel performs *exactly the same
//! > floating-point operations in exactly the same order per output
//! > value* as the retained scalar reference implementation in
//! > [`crate::reference`]. Results are bit-for-bit identical, which is
//! > what lets the routing engine adopt them without re-certifying a
//! > single pruning rule.
//!
//! The transformations used are therefore limited to the ones that are
//! bitwise-neutral in IEEE-754 arithmetic:
//!
//! * **Unrolling across distinct output slots.** The MAC's inner loop
//!   writes `out[i + j] += pa * b[j]` for distinct `j`; unrolling over
//!   `j` (8-wide body + scalar tail) reorders writes to *different*
//!   accumulators, never the additions into one.
//! * **Skipping zero rows at chunk granularity.** All masses in the
//!   crate are non-negative and accumulators start at `+0.0`, so an
//!   accumulator never holds `-0.0` and `acc += 0.0 * pb` is a bitwise
//!   no-op. Processing a zero row (inside a mixed chunk) and skipping it
//!   (the reference's per-element branch) produce identical bits, so the
//!   sparse-row skip can move to chunk granularity where it no longer
//!   defeats vectorization.
//! * **Tiling the fused cap.** The capped convolution computes each
//!   product-grid value completely (contributions in ascending row
//!   order, the reference order) before redistributing it through the
//!   shared two-pass chunked kernel ([`redistribute_chunked`]), tile by
//!   tile in ascending grid order — the same operations the
//!   materialize-then-redistribute reference performs, minus the
//!   materialized grid.
//! * **Two-pass chunked redistribution.** Per-slot geometry (edge
//!   clamps, overlap window, bucket-range quotients) is lane-independent
//!   IEEE arithmetic, so a branch-free pass computes it for a whole
//!   chunk before a scalar pass replays the reference's additions in
//!   order. The historical `floor()`/`ceil()` libm calls become pure
//!   casts that provably produce the same loop-bound integers (see
//!   [`redistribute_chunked`]) — control flow, not payload.
//! * **Select-based scans.** The quantile scan replaces the reference's
//!   early-exit branch with a fixed-trip-count loop and conditional
//!   selects; it records the same hit index and the same prefix mass, so
//!   the interpolated result is identical.
//! * **Carrying a prefix across an ascending sweep.** [`CdfScanner`]
//!   evaluates a piecewise-linear CDF at ascending points by advancing
//!   one running prefix instead of re-summing it per point: the same
//!   left-to-right fold from `0.0`, so the same bits as the one-shot scan
//!   ([`crate::reference::cdf_ref`]). The closed-form capped mixed-width
//!   kernel ([`accumulate_direct_capped`]) walks its operand's CDF with
//!   one scanner per fine bucket, and is bit-identical to the twin that
//!   calls the one-shot scan per point
//!   (`reference::accumulate_direct_capped_ref`).
//!
//! The closed-form kernel is the one entry that is not a restructuring of
//! the loop it replaced: it computes the capped mixed-width convolution by
//! a different (cheaper, ratio-independent) route, so beside its bitwise
//! twin the replaced pipeline is retained too
//! ([`crate::reference::convolve_bounded_projected_ref`]) and the suite
//! pins the pair to a bit-identical output grid and a derived CDF bound —
//! see `crate::convolve`.
//!
//! What is **not** bitwise-neutral — multi-accumulator sum
//! reassociation, FMA contraction, reciprocal multiplication — is
//! avoided, so the summation folds keep one accumulator and their bits
//! never move.

use crate::histogram::HistogramView;

/// Row-chunk width of the multiply-accumulate outer loop: the sparse-row
/// skip only fires when this many consecutive rows are all zero.
const MAC_ROW_CHUNK: usize = 4;

/// Stack tile (in `f64` slots) of the fused accumulate-and-cap kernel —
/// the longest run of product-grid values materialized at once. 2 KiB:
/// far above any routing label's grid (`max_bins` defaults to 20 bins per
/// operand), comfortably inside L1 for the giant ones.
const CAP_TILE: usize = 256;

/// One multiply-accumulate row: `out[j] += pa * b[j]` for every `j`,
/// 8-wide unrolled body plus scalar tail. `out` must be exactly as long
/// as `b`. Each slot is a distinct accumulator, so the unroll is
/// bitwise-neutral (see the module contract).
#[inline]
fn mac_row(pa: f64, b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(b.len(), out.len());
    let mut oc = out.chunks_exact_mut(8);
    let mut bc = b.chunks_exact(8);
    for (o, v) in (&mut oc).zip(&mut bc) {
        o[0] += pa * v[0];
        o[1] += pa * v[1];
        o[2] += pa * v[2];
        o[3] += pa * v[3];
        o[4] += pa * v[4];
        o[5] += pa * v[5];
        o[6] += pa * v[6];
        o[7] += pa * v[7];
    }
    for (o, &pb) in oc.into_remainder().iter_mut().zip(bc.remainder()) {
        *o += pa * pb;
    }
}

/// The aligned-convolution multiply-accumulate: adds `a[i] * b[j]` into
/// `out[i + j]` for every pair. `out` must hold `a.len() + b.len() - 1`
/// slots, zero-filled (or mid-accumulation — the kernel only adds).
///
/// Rows run in chunks of [`MAC_ROW_CHUNK`]; a chunk whose masses are all
/// zero is skipped outright, a mixed chunk processes every row (zero rows
/// included — a bitwise no-op on non-negative accumulators, unlike the
/// reference's per-element branch which costs a compare per row and keeps
/// the autovectorizer out of the loop). Bit-identical to
/// [`crate::reference::accumulate_aligned_ref`].
pub(crate) fn accumulate_mac(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len() + 1, a.len() + b.len());
    let nb = b.len();
    let mut rows = a.chunks_exact(MAC_ROW_CHUNK);
    let mut i = 0usize;
    for chunk in &mut rows {
        if chunk.iter().all(|&pa| pa == 0.0) {
            i += MAC_ROW_CHUNK;
            continue;
        }
        for &pa in chunk {
            mac_row(pa, b, &mut out[i..i + nb]);
            i += 1;
        }
    }
    for &pa in rows.remainder() {
        if pa != 0.0 {
            mac_row(pa, b, &mut out[i..i + nb]);
        }
        i += 1;
    }
}

/// The fused accumulate-and-cap kernel: the capped aligned convolution
/// `redistribute(a ⊛ b)` without ever materializing the uncapped product
/// grid. `out` is cleared and zero-filled to `nbins` (the target grid
/// `[start, start + width * nbins)`); the product grid would sit on
/// `[start, start + src_width * (a.len() + b.len() - 1))`.
///
/// The grid is produced in stack tiles of [`CAP_TILE`] values. Every
/// contribution to a grid slot lands inside that slot's tile (a row `i`
/// touching slot `k = i + j` is visited while `k`'s tile is open), in
/// ascending row order — the reference order — so each tile holds
/// bit-exact grid values. Each tile is then redistributed in ascending
/// grid order through [`redistribute_chunked`], the same shared kernel
/// [`crate::histogram::redistribute_into`] runs, with the same
/// `p <= 0.0` skip. The output is bit-identical to materializing the full
/// grid and redistributing it (`crate::reference::convolve_bounded_into_ref`),
/// while touching no pooled temporary at all.
pub(crate) fn accumulate_capped(
    a: &[f64],
    b: &[f64],
    start: f64,
    src_width: f64,
    width: f64,
    nbins: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(nbins, 0.0);
    let hi = start + width * nbins as f64;
    let n = a.len() + b.len() - 1;
    let mut tile = [0.0f64; CAP_TILE];
    let mut k0 = 0usize;
    while k0 < n {
        let k1 = (k0 + CAP_TILE).min(n);
        let t = &mut tile[..k1 - k0];
        t.fill(0.0);
        // Rows intersecting the open tile: i + j ∈ [k0, k1) for some
        // valid j forces i ∈ [k0 - (nb - 1), k1).
        let i_lo = k0.saturating_sub(b.len() - 1);
        let i_hi = k1.min(a.len());
        for (d, &pa) in a[i_lo..i_hi].iter().enumerate() {
            let i = i_lo + d;
            let j_lo = k0.saturating_sub(i);
            let j_hi = (k1 - i).min(b.len());
            if j_lo >= j_hi {
                continue;
            }
            mac_row(pa, &b[j_lo..j_hi], &mut t[i + j_lo - k0..i + j_hi - k0]);
        }
        let mut d0 = 0usize;
        while d0 < t.len() {
            let d1 = (d0 + REDIST_CHUNK).min(t.len());
            redistribute_chunked(
                k0 + d0,
                &t[d0..d1],
                start,
                src_width,
                start,
                hi,
                width,
                nbins,
                out,
            );
            d0 = d1;
        }
        k0 = k1;
    }
}

/// The closed-form capped mixed-width convolution: the `nbins` output
/// masses of `coarse ⊛ fine` on a grid of `width`-wide buckets anchored at
/// the sum of the operands' left edges, read straight off the coarse
/// operand's piecewise-linear CDF `A` (measured from its own left edge):
///
/// `out[m] = Σ_j fine[j] · max(0, A(u_{m+1,j}) − A(u_{m,j}))`,
/// `u_{m,j} = m·width − j·w_fine`.
///
/// `u` is the distance from the coarse operand's left edge to output knot
/// `m` seen from fine bucket `j`'s left edge, so both anchors cancel
/// exactly and never enter the arithmetic. For each fine bucket the knots
/// ascend, so `A` is walked by one [`CdfScanner`] — casts, no libm — and
/// the whole step costs `O(fine.len() · (nbins + coarse.len()))` whatever
/// the ratio of the two widths: no fine-lattice projection, no product
/// grid, no pooled temporary. Zero fine masses are skipped (as every
/// redistribution in the crate skips `p <= 0.0`), and the `max(0, ·)`
/// keeps a one-ULP non-monotone pair of `A` evaluations from writing a
/// negative mass that `Histogram::new` would reject.
///
/// `out` is cleared and zero-filled to `nbins`; the masses written are
/// raw (they sum to one up to rounding, pending the caller's single
/// normalization). Per output slot the additions run in ascending `j` —
/// bit-identical to the prefix-re-summing scalar twin
/// `reference::accumulate_direct_capped_ref`.
pub(crate) fn accumulate_direct_capped(
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
    let cdf = HistogramView::from_raw(0.0, w_coarse, coarse);
    for (j, &pb) in fine.iter().enumerate() {
        if pb <= 0.0 {
            continue;
        }
        let y = j as f64 * w_fine;
        let mut scan = CdfScanner::new(cdf);
        // `u_{0,j} = -y <= 0`: every sweep starts at `A = 0`.
        let mut lo = 0.0;
        for (m, slot) in out.iter_mut().enumerate() {
            let hi = scan.cdf((m + 1) as f64 * width - y);
            *slot += pb * (hi - lo).max(0.0);
            lo = hi;
        }
    }
}

/// Slot-chunk length of the two-pass redistribution kernel: bounds the
/// stack geometry arrays while keeping pass A's loops long enough to
/// vectorize.
pub(crate) const REDIST_CHUNK: usize = 64;

/// Two-pass chunked redistribution of up to [`REDIST_CHUNK`] consecutive
/// source buckets (global indices `i0..i0 + src.len()`, masses `src`)
/// onto the target grid `[lo, hi)` of `nbins` × `width` buckets — the
/// shared kernel behind [`crate::histogram::redistribute_into`] and the
/// fused [`accumulate_capped`].
///
/// **Pass A** computes every slot's geometry — edge clamps, overlap
/// window, and the bucket-range quotients `(ol - lo) / width`,
/// `(or - lo) / width` — in branch-free lane-independent IEEE
/// arithmetic, so the compiler may vectorize it: each lane's result is
/// the bitwise value the historical per-slot loop computed. **Pass B**
/// replays the reference's additions slot by slot, in the same
/// ascending order, with the same `p <= 0.0` skip and the same mass
/// expressions (`p * overlap / src_width` et al.) — so `out` is
/// bit-identical to [`crate::reference::redistribute_into_ref`].
///
/// The historical loop derived its bucket range via `q.floor()` /
/// `q.ceil()` — libm calls on baseline x86-64. Pass B reproduces those
/// *integers* (never the floats) through casts alone:
/// `q.floor().max(0.0) as usize == q as usize` for every `q` (positive
/// truncation is floor; negatives and NaN saturate to 0 either way;
/// huge values saturate identically), and for the strictly positive
/// `q`s reaching the upper bound, `ceil(q) as usize ==
/// t + (t as f64 != q) as usize` with `t = q as usize` (integers are
/// their own ceiling; non-integers truncate one short; values at or
/// beyond `2^53` — all integers, or saturating — agree, and the
/// `.min(nbins)` clamp absorbs anything past the grid). Loop bounds are
/// control flow, not payload: producing the same integers cheaper
/// changes no output bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn redistribute_chunked(
    i0: usize,
    src: &[f64],
    src_start: f64,
    src_width: f64,
    lo: f64,
    hi: f64,
    width: f64,
    nbins: usize,
    out: &mut [f64],
) {
    debug_assert!(src.len() <= REDIST_CHUNK);
    let n = src.len();
    let mut below = [0.0f64; REDIST_CHUNK];
    let mut above = [0.0f64; REDIST_CHUNK];
    let mut ol = [0.0f64; REDIST_CHUNK];
    let mut orr = [0.0f64; REDIST_CHUNK];
    let mut q0 = [0.0f64; REDIST_CHUNK];
    let mut q1 = [0.0f64; REDIST_CHUNK];
    for d in 0..n {
        let l = src_start + (i0 + d) as f64 * src_width;
        let r = l + src_width;
        // Tails falling off the target grid clamp to the edge buckets.
        below[d] = (lo - l).clamp(0.0, src_width);
        above[d] = (r - hi).clamp(0.0, src_width);
        let s = l.max(lo);
        let e = r.min(hi);
        ol[d] = s;
        orr[d] = e;
        q0[d] = (s - lo) / width;
        q1[d] = (e - lo) / width;
    }
    for (d, &p) in src.iter().enumerate() {
        if p <= 0.0 {
            continue;
        }
        if below[d] > 0.0 {
            out[0] += p * below[d] / src_width;
        }
        if above[d] > 0.0 {
            out[nbins - 1] += p * above[d] / src_width;
        }
        if orr[d] <= ol[d] {
            continue;
        }
        let j0 = q0[d] as usize;
        let t = q1[d] as usize;
        let j1 = (t + (t as f64 != q1[d]) as usize).min(nbins);
        for (j, slot) in out.iter_mut().enumerate().take(j1).skip(j0.min(nbins - 1)) {
            let bl = lo + j as f64 * width;
            let overlap = orr[d].min(bl + width) - ol[d].max(bl);
            if overlap > 0.0 {
                *slot += p * overlap / src_width;
            }
        }
    }
}

/// Number of target bins when projecting a span onto a finer lattice of
/// width `w`: `ceil(span / w)`, with a tolerance that snaps ratios a few
/// ULPs above an integer back down (the FP noise of `end - start` on the
/// coarser grid must not conjure a sliver bucket).
///
/// The tolerance is derived from the ratio's own magnitude
/// (`4 ε · max(|ratio|, 1)`), replacing the historic absolute `1e-9`: a
/// magnitude-blind epsilon silently swallowed *genuine* sub-`1e-9`
/// slivers on small ratios while being no safer than ε-scaling on large
/// ones. Shared verbatim by the reference pipeline — it is a semantic
/// fix, not a kernel variant.
pub(crate) fn projection_bins(span: f64, w: f64) -> usize {
    let ratio = span / w;
    let tol = 4.0 * f64::EPSILON * ratio.abs().max(1.0);
    (ratio - tol).ceil().max(1.0) as usize
}

/// `true` when two views sit on one shared lattice: bit-equal bucket
/// widths *and* supports offset by an exact integer number of buckets.
/// The detector is conservative — it only claims alignment that holds
/// exactly in floating point (`a.start + k*w == b.start` for an integral
/// `k`), so a fast path gated on it never mistakes near-alignment for
/// the real thing.
pub(crate) fn same_lattice(a: &HistogramView<'_>, b: &HistogramView<'_>) -> bool {
    let w = a.width();
    if w.to_bits() != b.width().to_bits() {
        return false;
    }
    let k = ((b.start() - a.start()) / w).round();
    k.is_finite() && a.start() + k * w == b.start()
}

/// In-order prefix-mass fold: `0.0 + xs[0] + xs[1] + …`, the exact fold
/// `xs.iter().sum::<f64>()` performs. The single shared summation kernel
/// behind the CDF head and the pending-normalization total, kept
/// single-accumulator so its bits never move.
#[inline]
pub(crate) fn prefix_mass(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &x in xs {
        acc += x;
    }
    acc
}

/// In-order first-moment fold over bucket *cells*:
/// `Σ (i + 0.5) · p_i`, the mean in lattice units. Identical fold order
/// to the historical `iter().enumerate().map(..).sum()`.
#[inline]
pub(crate) fn first_moment_cells(probs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += (i as f64 + 0.5) * p;
    }
    acc
}

/// In-order centred second-moment fold: `Σ p_i (c_i - mean)²` with
/// `c_i = start + (i + 0.5) width`. Identical fold order to the
/// historical variance scan.
#[inline]
pub(crate) fn spread_about(start: f64, width: f64, probs: &[f64], mean: f64) -> f64 {
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        let c = start + (i as f64 + 0.5) * width;
        acc += p * (c - mean) * (c - mean);
    }
    acc
}

/// Branch-free quantile scan: finds the first bucket with positive mass
/// whose cumulative reach covers `q` and interpolates within it. The
/// reference loop early-exits at the hit; this scan runs the full fixed
/// trip count and records the hit through conditional selects — the same
/// hit index, the same pre-hit prefix mass, the same interpolation, so
/// the result (including the fall-through to the support's end) is
/// bit-identical to [`crate::reference::quantile_ref`]. The caller
/// handles `q <= 0` / NaN.
pub(crate) fn quantile_scan(start: f64, width: f64, probs: &[f64], q: f64) -> f64 {
    let mut cum = 0.0;
    let mut hit = usize::MAX;
    let mut hit_cum = 0.0;
    let mut hit_p = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        let hits = (hit == usize::MAX) & (p > 0.0) & (cum + p >= q);
        hit = if hits { i } else { hit };
        hit_cum = if hits { cum } else { hit_cum };
        hit_p = if hits { p } else { hit_p };
        cum += p;
    }
    if hit == usize::MAX {
        start + width * probs.len() as f64
    } else {
        start + width * (hit as f64 + (q - hit_cum) / hit_p)
    }
}

/// Incremental CDF evaluator for **monotone non-decreasing** query
/// sequences over one histogram view.
///
/// [`HistogramView::cdf`] re-sums its prefix masses on every call —
/// `O(n)` per evaluation, which made every CDF-sweeping consumer (the
/// dominance breakpoint merge, envelope containment) quadratic. A
/// scanner carries the running prefix `(index, cumulative mass)` across
/// calls and only advances it, so a full ascending sweep costs `O(n + m)`
/// for `m` queries.
///
/// Every evaluation is **bit-identical** to
/// `view.cdf(x)`: the carried cumulative mass is the same left-to-right
/// fold from `0.0` the one-shot scan performs (it never rewinds, and
/// additions happen in the same ascending bucket order), and the
/// saturation/interpolation arithmetic is shared. Feeding a scanner
/// *descending* queries is a contract
/// violation — checked by `debug_assert`, unspecified (but non-UB, and
/// never above the true CDF's final value) in release builds.
///
/// ```
/// use srt_dist::{CdfScanner, Histogram};
///
/// let h = Histogram::new(0.0, 1.0, vec![0.25; 4]).unwrap();
/// let mut scan = CdfScanner::new(h.view());
/// for x in [0.5, 1.5, 1.5, 3.9] {
///     assert_eq!(scan.cdf(x).to_bits(), h.cdf(x).to_bits());
/// }
/// ```
#[derive(Debug)]
pub struct CdfScanner<'a> {
    start: f64,
    width: f64,
    probs: &'a [f64],
    idx: usize,
    cum: f64,
    #[cfg(debug_assertions)]
    last: f64,
}

impl<'a> CdfScanner<'a> {
    /// A scanner positioned before the view's support.
    pub fn new(view: HistogramView<'a>) -> Self {
        CdfScanner {
            start: view.start(),
            width: view.width(),
            probs: view.probs(),
            idx: 0,
            cum: 0.0,
            #[cfg(debug_assertions)]
            last: f64::NEG_INFINITY,
        }
    }

    /// `P(X <= x)`, bit-identical to [`HistogramView::cdf`] provided the
    /// queries arrive in non-decreasing order.
    pub fn cdf(&mut self, x: f64) -> f64 {
        if !x.is_finite() {
            return if x == f64::INFINITY { 1.0 } else { 0.0 };
        }
        #[cfg(debug_assertions)]
        {
            debug_assert!(x >= self.last, "CdfScanner queries must be non-decreasing");
            self.last = x;
        }
        let t = (x - self.start) / self.width;
        if t <= 0.0 {
            return 0.0;
        }
        if t >= self.probs.len() as f64 {
            return 1.0;
        }
        // `t > 0` here, so the `as usize` cast truncates toward zero —
        // exactly the floor, without the libm call.
        let full = t as usize;
        while self.idx < full {
            self.cum += self.probs[self.idx];
            self.idx += 1;
        }
        (self.cum + (t - full as f64) * self.probs[full]).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_matches_nested_loops_bitwise() {
        let a = [0.0, 0.25, 0.0, 0.0, 0.0, 0.5, 0.25, 0.0, 0.0];
        let b = [0.1, 0.0, 0.4, 0.3, 0.05, 0.15, 0.0, 0.0, 0.0, 0.0];
        let n = a.len() + b.len() - 1;
        let mut fast = vec![0.0; n];
        accumulate_mac(&a, &b, &mut fast);
        let mut slow = vec![0.0; n];
        for (i, &pa) in a.iter().enumerate() {
            if pa == 0.0 {
                continue;
            }
            for (j, &pb) in b.iter().enumerate() {
                slow[i + j] += pa * pb;
            }
        }
        for (x, y) in fast.iter().zip(&slow) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fused_cap_spans_multiple_tiles() {
        // Grids longer than one tile must still see every contribution
        // land in its own tile.
        let a = vec![1.0; 300];
        let b = vec![1.0; 300];
        let n = a.len() + b.len() - 1;
        assert!(n > CAP_TILE);
        let mut fused = Vec::new();
        accumulate_capped(&a, &b, 0.0, 1.0, n as f64 / 16.0, 16, &mut fused);
        let mut grid = vec![0.0; n];
        accumulate_mac(&a, &b, &mut grid);
        let mut direct = Vec::new();
        crate::histogram::redistribute_into(0.0, 1.0, &grid, 0.0, n as f64 / 16.0, 16, &mut direct);
        for (x, y) in fused.iter().zip(&direct) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn lattice_detector_requires_integral_phase() {
        let a = [0.5, 0.5];
        let va = HistogramView::from_raw(10.0, 2.5, &a);
        assert!(same_lattice(&va, &HistogramView::from_raw(10.0, 2.5, &a)));
        assert!(same_lattice(&va, &HistogramView::from_raw(25.0, 2.5, &a)));
        assert!(same_lattice(&va, &HistogramView::from_raw(-5.0, 2.5, &a)));
        // Same width, half-bucket phase: aligned but not one lattice.
        assert!(!same_lattice(&va, &HistogramView::from_raw(11.25, 2.5, &a)));
        // Different widths never share a lattice.
        assert!(!same_lattice(&va, &HistogramView::from_raw(10.0, 2.0, &a)));
    }

    #[test]
    fn projection_bins_snaps_ulp_noise_but_keeps_real_slivers() {
        // One-ULP noise above an integer ratio (0.2 * 3 / 0.1): snap.
        let span = 0.2f64 * 3.0;
        assert_eq!(projection_bins(span, 0.1), 6);
        // A genuine 1e-10 sliver is 5 orders above the ULP tolerance at
        // this magnitude: it earns its bucket.
        assert_eq!(projection_bins(3.000_000_000_1, 1.0), 4);
        // Tiny spans round up to one bucket.
        assert_eq!(projection_bins(1e-12, 1.0), 1);
    }
}

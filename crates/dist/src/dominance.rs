//! First-order stochastic dominance — pruning (d)'s order on labels.
//!
//! Distribution `A` *dominates* `B` when `A`'s CDF is everywhere at least
//! `B`'s: for every deadline, `A` arrives on time at least as probably as
//! `B`. Dominated partial paths can never become part of an optimal
//! answer, so the budget router keeps only a Pareto set per vertex.
//!
//! Both CDFs are piecewise linear, so comparing them at every bucket
//! boundary of *either* histogram decides the relation exactly.
//!
//! The breakpoint merge visits boundaries in ascending order, so each
//! CDF is evaluated through an incremental [`CdfScanner`] rather than a
//! fresh `O(n)` prefix sum per boundary: a full comparison costs
//! `O(na + nb)` instead of `O((na + nb) · n)`, with bit-identical
//! results (the scanner performs the same left-to-right fold). The merge
//! is stoppable: a predicate whose verdict is settled — the margin test
//! at its first violated breakpoint, [`compare`] once the CDFs have
//! crossed — ends the sweep there.

use crate::histogram::{Histogram, HistogramView};
use crate::kernels::CdfScanner;
use std::ops::ControlFlow;

/// Outcome of a first-order dominance comparison.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Dominance {
    /// The left distribution dominates (arrives earlier in the CDF order).
    Dominates,
    /// The right distribution dominates.
    DominatedBy,
    /// The CDFs coincide everywhere.
    Equivalent,
    /// The CDFs cross: neither dominates.
    Incomparable,
}

/// Tolerance below which CDF differences count as ties, absorbing
/// floating-point noise from evaluating two lattices against each other.
const EPS: f64 = 1e-12;

/// Visits the union of both histograms' bucket boundaries in ascending
/// order (a two-pointer merge; no allocation) — the never-stopping
/// convenience over [`try_for_each_breakpoint_shifted_views`] for
/// visitors that integrate over the whole support.
pub(crate) fn for_each_breakpoint(a: &Histogram, b: &Histogram, mut f: impl FnMut(f64)) {
    let _ = try_for_each_breakpoint_shifted_views(&a.view(), 0.0, &b.view(), 0.0, |x| {
        f(x);
        ControlFlow::Continue(())
    });
}

/// The one breakpoint merge: visits the union of both views' bucket
/// boundaries in ascending order, each view translated by its own scalar
/// offset — the router's pruning-(c) label representation `(offset,
/// zero-anchored shape)` compares without re-materializing the shifted
/// histograms. The visitor may stop the sweep by returning
/// [`ControlFlow::Break`], which is what lets a dominance predicate
/// return at its first violated breakpoint instead of merging the rest
/// of both lattices to no effect.
pub(crate) fn try_for_each_breakpoint_shifted_views(
    a: &HistogramView<'_>,
    oa: f64,
    b: &HistogramView<'_>,
    ob: f64,
    mut f: impl FnMut(f64) -> ControlFlow<()>,
) -> ControlFlow<()> {
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
            f(xa)?;
            i += 1;
            if xa == xb {
                j += 1;
            }
        } else {
            f(xb)?;
            j += 1;
        }
    }
    ControlFlow::Continue(())
}

/// Compares `a` and `b` under first-order stochastic dominance.
pub fn compare(a: &Histogram, b: &Histogram) -> Dominance {
    let mut a_better = false;
    let mut b_better = false;
    let mut sa = CdfScanner::new(a.view());
    let mut sb = CdfScanner::new(b.view());
    let _ = try_for_each_breakpoint_shifted_views(&a.view(), 0.0, &b.view(), 0.0, |x| {
        let d = sa.cdf(x) - sb.cdf(x);
        if d > EPS {
            a_better = true;
        } else if d < -EPS {
            b_better = true;
        }
        // Once the CDFs have crossed no later breakpoint can uncross them.
        if a_better && b_better {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    match (a_better, b_better) {
        (true, true) => Dominance::Incomparable,
        (true, false) => Dominance::Dominates,
        (false, true) => Dominance::DominatedBy,
        (false, false) => Dominance::Equivalent,
    }
}

/// `true` when `a` weakly dominates `b` (dominates or is equivalent) —
/// the predicate the router's Pareto sets prune with.
pub fn dominates(a: &Histogram, b: &Histogram) -> bool {
    matches!(compare(a, b), Dominance::Dominates | Dominance::Equivalent)
}

/// Tie tolerance for the margin predicates: CDF gaps smaller than this
/// count as equal. Chosen to absorb the float noise of convolving and
/// re-binning label histograms (matches the router's historic tolerance).
const MARGIN_TIE: f64 = 1e-9;

/// First-order dominance *with a safety margin*: `a` must not only
/// weakly dominate `b`, its CDF must stay at least `eps` ahead wherever
/// the race is still open (`b` has started arriving and `a` has not yet
/// certainly arrived).
///
/// Formally, at every bucket boundary `x` of either lattice, with
/// `ca = a.cdf(x)` and `cb = b.cdf(x)`:
///
/// * `ca >= cb` (plain weak dominance), and
/// * `ca >= min(cb + eps, 1)` whenever `cb > 0` and `ca < 1`.
///
/// Both conditions are evaluated with a `1e-9` tie tolerance. Like
/// [`compare`], the predicate is *defined* on the union of the two bucket
/// lattices: the weak-dominance clause is thereby exact (CDFs are
/// piecewise linear between lattice points), while the margin clause is a
/// lattice-sampled strengthening — between boundaries the gap may dip
/// below `eps` where one CDF saturates, which only ever makes the
/// predicate prune *more* than a pointwise-everywhere margin would, never
/// less than plain dominance allows. The margin
/// requirement is what makes pruning safe under a *non-monotone* cost
/// model: if one combination step can invert a CDF ordering by at most
/// `eps` (the estimator's calibrated dominance-violation modulus, see
/// `srt-core::model::calibration`), a label that is behind by at least
/// `eps` everywhere cannot overtake in a single step.
///
/// Properties (proptested):
///
/// * `eps == 0` reduces to [`dominates`] (hence reflexive),
/// * monotone: shrinking `eps` preserves the relation,
/// * `eps == f64::INFINITY` degenerates to interval-style dominance —
///   at every lattice point either `a` is already certain or `b` has not
///   started,
/// * negative or NaN `eps` are clamped to `0` / `INFINITY` respectively
///   (NaN is treated as "unknown modulus", the conservative extreme).
pub fn dominates_with_margin(a: &Histogram, b: &Histogram, eps: f64) -> bool {
    dominates_with_margin_shifted(a, 0.0, b, 0.0, eps)
}

/// Offset-aware form of [`dominates_with_margin`]: does `a` translated by
/// `oa` margin-dominate `b` translated by `ob`? Avoids materializing the
/// shifted histograms, so the router's `(offset, shape)` labels compare
/// allocation-free.
pub fn dominates_with_margin_shifted(
    a: &Histogram,
    oa: f64,
    b: &Histogram,
    ob: f64,
    eps: f64,
) -> bool {
    dominates_with_margin_shifted_views(&a.view(), oa, &b.view(), ob, eps)
}

/// [`dominates_with_margin_shifted`] over borrowed [`HistogramView`]s —
/// the form the router's Pareto sets call so pooled label payloads
/// compare without cloning. Bit-identical to the `Histogram` form (which
/// delegates here).
pub fn dominates_with_margin_shifted_views(
    a: &HistogramView<'_>,
    oa: f64,
    b: &HistogramView<'_>,
    ob: f64,
    eps: f64,
) -> bool {
    let eps = if eps.is_nan() {
        f64::INFINITY
    } else {
        eps.max(0.0)
    };
    // Cheap reject: a's support begins after b's ends, so b is certain
    // before a can start — a cannot dominate.
    if oa + a.start() > ob + b.end() {
        return false;
    }
    // Breakpoints ascend and the offsets are constant, so `x - oa` and
    // `x - ob` are non-decreasing sequences — exactly the scanner
    // contract. The sweep stops at the first violated breakpoint: the
    // verdict is already `false` and nothing after it can change that
    // (`reference::dominates_with_margin_shifted_ref` keeps the full
    // sweep; the kernel differential suite pins the two equal).
    let mut sa = CdfScanner::new(*a);
    let mut sb = CdfScanner::new(*b);
    try_for_each_breakpoint_shifted_views(a, oa, b, ob, |x| {
        let ca = sa.cdf(x - oa);
        let cb = sb.cdf(x - ob);
        if ca + MARGIN_TIE < cb {
            return ControlFlow::Break(());
        }
        if cb > MARGIN_TIE && ca < 1.0 - MARGIN_TIE && ca + MARGIN_TIE < (cb + eps).min(1.0) {
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    })
    .is_continue()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(start: f64, width: f64, probs: &[f64]) -> Histogram {
        Histogram::new(start, width, probs.to_vec()).unwrap()
    }

    #[test]
    fn earlier_mass_dominates() {
        let fast = h(0.0, 1.0, &[0.6, 0.4]);
        let slow = h(0.0, 1.0, &[0.4, 0.6]);
        assert_eq!(compare(&fast, &slow), Dominance::Dominates);
        assert_eq!(compare(&slow, &fast), Dominance::DominatedBy);
        assert!(dominates(&fast, &slow));
        assert!(!dominates(&slow, &fast));
    }

    #[test]
    fn a_shifted_copy_is_dominated() {
        let base = h(10.0, 2.0, &[0.25; 4]);
        let later = base.shift(5.0);
        assert_eq!(compare(&base, &later), Dominance::Dominates);
        assert_eq!(compare(&later, &base), Dominance::DominatedBy);
    }

    #[test]
    fn identical_distributions_are_equivalent() {
        let a = h(3.0, 1.5, &[0.2, 0.5, 0.3]);
        assert_eq!(compare(&a, &a.clone()), Dominance::Equivalent);
        assert!(dominates(&a, &a));
    }

    #[test]
    fn crossing_cdfs_are_incomparable() {
        // x concentrates early AND late; y concentrates in the middle:
        // the CDFs cross.
        let x = h(0.0, 1.0, &[0.5, 0.0, 0.5]);
        let y = h(0.0, 1.0, &[0.0, 1.0, 0.0]);
        assert_eq!(compare(&x, &y), Dominance::Incomparable);
        assert_eq!(compare(&y, &x), Dominance::Incomparable);
        assert!(!dominates(&x, &y));
        assert!(!dominates(&y, &x));
    }

    #[test]
    fn different_lattices_compare_correctly() {
        // Same shape on different grids: the finer one loses nothing.
        let coarse = h(0.0, 2.0, &[0.5, 0.5]);
        let fine = h(0.0, 1.0, &[0.25, 0.25, 0.25, 0.25]);
        assert_eq!(compare(&fine, &coarse), Dominance::Equivalent);
        // Shift the coarse one later: the fine one dominates.
        assert_eq!(compare(&fine, &coarse.shift(0.5)), Dominance::Dominates);
    }

    #[test]
    fn disjoint_supports_order_by_position() {
        let early = h(0.0, 1.0, &[1.0]);
        let late = h(100.0, 1.0, &[1.0]);
        assert_eq!(compare(&early, &late), Dominance::Dominates);
    }

    #[test]
    fn zero_margin_equals_weak_dominance() {
        let fast = h(0.0, 1.0, &[0.6, 0.4]);
        let slow = h(0.0, 1.0, &[0.4, 0.6]);
        assert!(dominates_with_margin(&fast, &slow, 0.0));
        assert!(!dominates_with_margin(&slow, &fast, 0.0));
        // Reflexive, like weak dominance.
        assert!(dominates_with_margin(&fast, &fast, 0.0));
    }

    #[test]
    fn positive_margin_rejects_narrow_wins() {
        let fast = h(0.0, 1.0, &[0.6, 0.4]);
        let slow = h(0.0, 1.0, &[0.4, 0.6]);
        // The CDF gap peaks at 0.2: margins up to there hold, beyond fail.
        assert!(dominates_with_margin(&fast, &slow, 0.1));
        assert!(dominates_with_margin(&fast, &slow, 0.2 - 1e-6));
        assert!(!dominates_with_margin(&fast, &slow, 0.21));
        // A distribution never margin-dominates itself for eps > 0.
        assert!(!dominates_with_margin(&fast, &fast, 0.05));
    }

    #[test]
    fn infinite_margin_is_interval_dominance() {
        let early = h(0.0, 1.0, &[0.5, 0.5]);
        let late = h(100.0, 1.0, &[0.5, 0.5]);
        // Overlapping supports on the same lattice phase: the race is
        // open at x = 1 (early's CDF is 0.5, overlap's 0.25).
        let overlap = h(0.5, 1.0, &[0.5, 0.5]);
        assert!(dominates_with_margin(&early, &late, f64::INFINITY));
        assert!(!dominates_with_margin(&early, &overlap, f64::INFINITY));
        // NaN is clamped to the conservative extreme (infinity).
        assert!(dominates_with_margin(&early, &late, f64::NAN));
        assert!(!dominates_with_margin(&early, &overlap, f64::NAN));
        // Negative margins clamp to zero (= weak dominance).
        assert!(dominates_with_margin(&early, &overlap, -1.0));
    }

    #[test]
    fn shifted_form_matches_materialized_shifts() {
        let a = h(0.0, 2.0, &[0.3, 0.4, 0.3]);
        let b = h(0.0, 1.5, &[0.2, 0.3, 0.5]);
        for (oa, ob) in [(0.0, 0.0), (10.0, 12.0), (5.5, 3.25)] {
            for eps in [0.0, 0.05, 0.5, f64::INFINITY] {
                assert_eq!(
                    dominates_with_margin_shifted(&a, oa, &b, ob, eps),
                    dominates_with_margin(&a.shift(oa), &b.shift(ob), eps),
                    "oa={oa} ob={ob} eps={eps}"
                );
            }
        }
    }
}

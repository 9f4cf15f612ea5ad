//! Property-based tests of the distribution algebra: conservation laws of
//! convolution, the partial-order laws of first-order dominance, and the
//! bit-for-bit equivalence of every in-place (`_into`) operator with its
//! value-returning twin — the contract the routing engine's pooled label
//! payloads rest on.

use proptest::prelude::*;
use proptest::TestCaseError;
use srt_dist::dominance::{self, Dominance};
use srt_dist::{
    convolve, convolve_bounded, convolve_bounded_into, convolve_into, Histogram, HistogramPool,
};

/// Asserts two histograms are bitwise identical (grid scalars and every
/// mass compared by bit pattern, not by float equality).
fn assert_bits_eq(a: &Histogram, b: &Histogram) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.start().to_bits(), b.start().to_bits(), "start differs");
    prop_assert_eq!(a.width().to_bits(), b.width().to_bits(), "width differs");
    prop_assert_eq!(a.num_bins(), b.num_bins(), "bin count differs");
    for (i, (x, y)) in a.probs().iter().zip(b.probs()).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "mass {} differs: {} vs {}",
            i,
            x,
            y
        );
    }
    Ok(())
}

/// Random bucket masses with at least one strictly positive entry.
fn arb_masses(max_bins: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 1..max_bins)
        .prop_filter("needs positive total mass", |v| {
            v.iter().sum::<f64>() > 1e-6
        })
}

/// A random histogram with its own support anchor and width.
fn arb_histogram() -> impl Strategy<Value = Histogram> {
    (0.0f64..500.0, 0.5f64..20.0, arb_masses(12))
        .prop_map(|(start, width, masses)| Histogram::new(start, width, masses).expect("valid"))
}

/// A histogram on a fixed shared lattice (so CDF comparisons are exact).
fn arb_on_lattice() -> impl Strategy<Value = Histogram> {
    arb_masses(10).prop_map(|masses| Histogram::new(50.0, 4.0, masses).expect("valid"))
}

/// Moves a fraction of every bucket's mass one bucket later (appending a
/// bucket), producing a histogram that is first-order dominated by the
/// input — the generator for non-vacuous dominance chains.
fn worsen(h: &Histogram, fraction: f64) -> Histogram {
    let mut masses = h.probs().to_vec();
    masses.push(0.0);
    for i in (0..masses.len() - 1).rev() {
        let moved = masses[i] * fraction;
        masses[i] -= moved;
        masses[i + 1] += moved;
    }
    Histogram::new(h.start(), h.width(), masses).expect("worsened histogram is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Convolution conserves probability mass.
    #[test]
    fn convolve_preserves_total_mass(a in arb_histogram(), b in arb_histogram()) {
        let c = convolve(&a, &b);
        prop_assert!((c.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// Means add under convolution. On the bucket lattice the sum of two
    /// bucket indices lands on the result's lattice exactly, so the
    /// centre-of-bucket means add up to exactly half the (finer) bucket
    /// width; for equal widths the offset is exactly `width / 2`.
    #[test]
    fn convolve_adds_means(start_a in 0.0f64..200.0, start_b in 0.0f64..200.0,
                           width in 0.5f64..10.0,
                           ma in arb_masses(12), mb in arb_masses(12)) {
        let a = Histogram::new(start_a, width, ma).expect("valid");
        let b = Histogram::new(start_b, width, mb).expect("valid");
        let c = convolve(&a, &b);
        let expected = a.mean() + b.mean() - width / 2.0;
        prop_assert!((c.mean() - expected).abs() < 1e-9,
            "mean {} != {} + {} - {}/2", c.mean(), a.mean(), b.mean(), width);
    }

    /// The bounded convolution conserves mass, keeps the cap, and its
    /// re-bucketing moves the mean by at most half an output bucket.
    #[test]
    fn convolve_bounded_preserves_mass_and_mean(a in arb_histogram(),
                                                b in arb_histogram(),
                                                cap in 1usize..24) {
        let c = convolve_bounded(&a, &b, cap).expect("cap is positive");
        prop_assert!(c.num_bins() <= cap.max(a.num_bins() + b.num_bins() - 1));
        prop_assert!(c.num_bins() <= cap || a.width() != b.width());
        prop_assert!((c.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let full = convolve(&a, &b);
        prop_assert!((c.mean() - full.mean()).abs() <= c.width() / 2.0 + 1e-9,
            "bounded mean {} drifted from {}", c.mean(), full.mean());
    }

    /// Convolution support is the sum of supports (equal widths).
    #[test]
    fn convolve_support_adds(ma in arb_masses(10), mb in arb_masses(10)) {
        let a = Histogram::new(10.0, 2.0, ma).expect("valid");
        let b = Histogram::new(30.0, 2.0, mb).expect("valid");
        let c = convolve(&a, &b);
        prop_assert!((c.start() - 40.0).abs() < 1e-12);
        prop_assert_eq!(c.num_bins(), a.num_bins() + b.num_bins() - 1);
    }

    /// Dominance is reflexive (as equivalence) and antisymmetric: the
    /// comparison of (b, a) is always the dual of (a, b).
    #[test]
    fn dominance_is_reflexive_and_antisymmetric(a in arb_on_lattice(), b in arb_on_lattice()) {
        prop_assert_eq!(dominance::compare(&a, &a.clone()), Dominance::Equivalent);
        let ab = dominance::compare(&a, &b);
        let ba = dominance::compare(&b, &a);
        let expected = match ab {
            Dominance::Dominates => Dominance::DominatedBy,
            Dominance::DominatedBy => Dominance::Dominates,
            Dominance::Equivalent => Dominance::Equivalent,
            Dominance::Incomparable => Dominance::Incomparable,
        };
        prop_assert_eq!(ba, expected);
        // Strict antisymmetry: both directions dominating implies equality
        // of the CDFs, which `compare` reports as Equivalent instead.
        prop_assert!(!(ab == Dominance::Dominates && ba == Dominance::Dominates));
    }

    /// Dominance is transitive along non-vacuous chains a ≥ b ≥ c.
    #[test]
    fn dominance_is_transitive(a in arb_on_lattice(),
                               f1 in 0.05f64..0.95, f2 in 0.05f64..0.95) {
        let b = worsen(&a, f1);
        let c = worsen(&b, f2);
        prop_assert!(dominance::dominates(&a, &b), "a must dominate its worsening");
        prop_assert!(dominance::dominates(&b, &c), "b must dominate its worsening");
        prop_assert!(dominance::dominates(&a, &c), "transitivity violated");
        // And the order is consistent with on-time probabilities.
        for x in [52.0, 60.0, 75.0, 90.0] {
            prop_assert!(a.cdf(x) + 1e-9 >= c.cdf(x));
        }
    }

    /// Transitivity also holds on arbitrary triples whenever the premises
    /// happen to hold (vacuous for most draws, decisive when not).
    #[test]
    fn dominance_is_transitive_on_arbitrary_triples(a in arb_on_lattice(),
                                                    b in arb_on_lattice(),
                                                    c in arb_on_lattice()) {
        if dominance::dominates(&a, &b) && dominance::dominates(&b, &c) {
            prop_assert!(dominance::dominates(&a, &c));
        }
    }

    /// A shifted copy is always strictly dominated, on or off lattice.
    #[test]
    fn later_shift_is_dominated(h in arb_histogram(), dt in 0.01f64..50.0) {
        prop_assert_eq!(dominance::compare(&h, &h.shift(dt)), Dominance::Dominates);
    }

    /// Re-bucketing conserves mass and keeps the mean within half a new
    /// bucket.
    #[test]
    fn with_bins_preserves_mass_and_mean(h in arb_histogram(), n in 1usize..32) {
        let r = h.with_bins(n).expect("positive bucket count");
        prop_assert_eq!(r.num_bins(), n);
        prop_assert!((r.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!((r.mean() - h.mean()).abs() <= r.width() / 2.0 + h.width() / 2.0 + 1e-9);
    }

    /// At eps = 0 the margin predicate IS weak dominance — in particular
    /// it is reflexive.
    #[test]
    fn margin_zero_is_weak_dominance(a in arb_on_lattice(), b in arb_on_lattice()) {
        prop_assert_eq!(dominance::dominates_with_margin(&a, &b, 0.0),
                        dominance::dominates(&a, &b));
        prop_assert!(dominance::dominates_with_margin(&a, &a.clone(), 0.0));
    }

    /// Margin dominance is antitone in eps: whatever holds at a larger
    /// margin holds at every smaller one, and it always implies plain
    /// weak dominance.
    #[test]
    fn margin_is_monotone_in_eps(a in arb_on_lattice(), b in arb_on_lattice(),
                                 e1 in 0.0f64..0.5, e2 in 0.0f64..0.5) {
        let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        if dominance::dominates_with_margin(&a, &b, hi) {
            prop_assert!(dominance::dominates_with_margin(&a, &b, lo),
                "margin {hi} held but {lo} failed");
            prop_assert!(dominance::dominates(&a, &b));
        }
        // The infinite margin is the strongest of all.
        if dominance::dominates_with_margin(&a, &b, f64::INFINITY) {
            prop_assert!(dominance::dominates_with_margin(&a, &b, hi));
        }
    }

    /// Translating both distributions by the same offset preserves the
    /// margin relation, and the shifted entry point agrees with
    /// materialized shifts.
    #[test]
    fn margin_is_shift_invariant(a in arb_on_lattice(), b in arb_on_lattice(),
                                 dt in -40.0f64..40.0, eps in 0.0f64..0.4) {
        let direct = dominance::dominates_with_margin(&a, &b, eps);
        prop_assert_eq!(
            dominance::dominates_with_margin(&a.shift(dt), &b.shift(dt), eps),
            direct);
        prop_assert_eq!(
            dominance::dominates_with_margin_shifted(&a, dt, &b, dt, eps),
            direct);
    }

    /// A sufficiently large backwards shift buys any finite margin: the
    /// shifted copy clears its own support before the original starts.
    #[test]
    fn early_shift_buys_margin(h in arb_on_lattice(), eps in 0.0f64..1.0) {
        let span = h.end() - h.start();
        let early = h.shift(-(span + 1.0));
        prop_assert!(dominance::dominates_with_margin(&early, &h, eps));
        prop_assert!(dominance::dominates_with_margin(&early, &h, f64::INFINITY));
        // And margin dominance stays consistent with the plain order.
        prop_assert_eq!(dominance::compare(&early, &h), Dominance::Dominates);
    }

    /// Degenerate single-bucket (point-mass-like) histograms order by
    /// position under every margin.
    #[test]
    fn margin_on_degenerate_histograms(x in 0.0f64..100.0, gap in 0.0f64..50.0,
                                       w in 0.001f64..1.0, eps in 0.0f64..1.0) {
        let a = Histogram::point_mass(x, w).expect("valid point mass");
        let b = Histogram::point_mass(x + gap, w).expect("valid point mass");
        if gap >= w {
            // Disjoint supports: a is certain before b begins, which
            // satisfies even the infinite margin.
            prop_assert!(dominance::dominates_with_margin(&a, &b, eps));
            prop_assert!(dominance::dominates_with_margin(&a, &b, f64::INFINITY));
        }
        // The later point never margin-dominates the earlier one unless
        // they coincide.
        if gap > 1e-9 {
            prop_assert!(!dominance::dominates_with_margin(&b, &a, eps));
        }
    }

    /// Every `_into` operator is bit-for-bit identical to its
    /// value-returning twin, through both a cold and a warm (recycled)
    /// pool — the identity the engine's allocation-free serving relies
    /// on.
    #[test]
    fn into_operators_match_value_twins_bitwise(a in arb_histogram(),
                                                b in arb_histogram(),
                                                cap in 1usize..24) {
        let mut pool = HistogramPool::new();
        // Two rounds: round 0 runs on a cold pool (every buffer minted),
        // round 1 on recycled capacity — results must not depend on it.
        for round in 0..2 {
            let mut out = pool.checkout();
            convolve_into(&a.view(), &b.view(), &mut out, &mut pool);
            let pooled = out.into_histogram().expect("valid");
            assert_bits_eq(&pooled, &convolve(&a, &b))?;
            pool.recycle(pooled);

            let mut out = pool.checkout();
            convolve_bounded_into(&a.view(), &b.view(), cap, &mut out, &mut pool)
                .expect("cap is positive");
            let pooled = out.into_histogram().expect("valid");
            assert_bits_eq(&pooled, &convolve_bounded(&a, &b, cap).expect("cap is positive"))?;
            pool.recycle(pooled);

            let _ = round;
        }
    }

    /// `rebin_into` (through a view) matches `rebin_onto` bit for bit on
    /// arbitrary target grids.
    #[test]
    fn rebin_into_matches_rebin_onto_bitwise(h in arb_histogram(),
                                             lo in 0.0f64..400.0,
                                             width in 0.5f64..10.0,
                                             nbins in 1usize..24) {
        let mut masses = Vec::new();
        h.view().rebin_into(lo, width, nbins, &mut masses).expect("valid grid");
        let pooled = Histogram::new(lo, width, masses).expect("valid");
        let direct = h.rebin_onto(lo, width, nbins).expect("valid grid");
        assert_bits_eq(&pooled, &direct)?;
    }

    /// A `HistogramView` answers every read-only query bit-identically
    /// to its owning histogram, and `view_shifted` matches a
    /// materialized `shift`.
    #[test]
    fn views_match_owned_queries_bitwise(h in arb_histogram(),
                                         x in -50.0f64..600.0,
                                         q in 0.0f64..1.0,
                                         dt in -50.0f64..50.0) {
        let v = h.view();
        prop_assert_eq!(v.cdf(x).to_bits(), h.cdf(x).to_bits());
        prop_assert_eq!(v.quantile(q).to_bits(), h.quantile(q).to_bits());
        prop_assert_eq!(v.mean().to_bits(), h.mean().to_bits());
        prop_assert_eq!(v.variance().to_bits(), h.variance().to_bits());
        prop_assert_eq!(v.entropy().to_bits(), h.entropy().to_bits());
        prop_assert_eq!(v.max_prob().to_bits(), h.max_prob().to_bits());
        prop_assert_eq!(v.end().to_bits(), h.end().to_bits());

        let shifted = h.shift(dt);
        let sv = h.view_shifted(dt);
        prop_assert_eq!(sv.start().to_bits(), shifted.start().to_bits());
        prop_assert_eq!(sv.cdf(x).to_bits(), shifted.cdf(x).to_bits());

        // In-place shift agrees with the materialized one.
        let mut inplace = h.clone();
        inplace.shift_in_place(dt);
        assert_bits_eq(&inplace, &shifted)?;

        // Pooled clones are bitwise clones.
        let mut pool = HistogramPool::new();
        assert_bits_eq(&h.pooled_clone(&mut pool), &h)?;
    }

    /// The view-based margin-dominance entry point agrees with the
    /// `Histogram` form on every input.
    #[test]
    fn view_margin_dominance_matches(a in arb_on_lattice(), b in arb_on_lattice(),
                                     oa in -20.0f64..20.0, ob in -20.0f64..20.0,
                                     eps in 0.0f64..0.5) {
        prop_assert_eq!(
            dominance::dominates_with_margin_shifted_views(&a.view(), oa, &b.view(), ob, eps),
            dominance::dominates_with_margin_shifted(&a, oa, &b, ob, eps));
    }

    /// The CDF is monotone and hits 0/1 at the support edges.
    #[test]
    fn cdf_is_a_cdf(h in arb_histogram()) {
        prop_assert_eq!(h.cdf(h.start()), 0.0);
        prop_assert!((h.cdf(h.end()) - 1.0).abs() < 1e-12);
        let span = h.end() - h.start();
        let mut last = -1.0;
        for i in 0..=50 {
            let x = h.start() - 0.1 * span + i as f64 * (1.2 * span / 50.0);
            let c = h.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(c + 1e-12 >= last, "CDF decreased at {x}");
            last = c;
        }
    }
}

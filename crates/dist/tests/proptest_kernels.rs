//! The kernel differential suite: every chunked/branch-free kernel in
//! `srt_dist::kernels` against the retained scalar reference in
//! `srt_dist::reference`, over adversarial grids — single-bin operands,
//! extreme width mismatches, zero-mass prefixes/suffixes, masses
//! spanning ~1e-300..1e3, and bucket caps pinned to the degenerate ends
//! (`1` and exactly `na + nb - 1`).
//!
//! Every kernel-vs-twin assertion is on `to_bits()`: the crate
//! promises the restructured kernels are *bitwise* transparent, not
//! merely close. The suite also audits `PoolStats` after each operation —
//! every checkout must be matched by a checkin, fused path or not.
//!
//! The closed-form capped mixed-width kernel is pinned three ways:
//! bitwise against its scalar twin, against the projecting pipeline it
//! replaced (`convolve_bounded_projected_ref`: output grid bit-equal, CDF
//! at every output knot within the derived chord bound), and by the
//! algebra the router leans on (non-negative unit mass, commutativity,
//! CDF-order monotonicity, no pool traffic).
//!
//! The shared-lattice fast path gets its own soundness argument here:
//! on exact (dyadic) grids, skipping the projection must be
//! bit-identical to running `project_fine` anyway, proven against
//! `convolve_via_projection_ref` which forces the projection route.

use proptest::prelude::*;
use proptest::TestCaseError;
use srt_dist::dominance::dominates_with_margin_shifted_views;
use srt_dist::reference::{
    accumulate_aligned_ref, cdf_ref, convolve_bounded_into_ref, convolve_bounded_projected_ref,
    convolve_into_ref, convolve_via_projection_ref, dominates_with_margin_shifted_ref,
    quantile_ref, redistribute_into_ref,
};
use srt_dist::{
    convolve_bounded, convolve_bounded_into, convolve_into, ConvRoute, Histogram, HistogramPool,
};

// ---------------------------------------------------------------------
// Adversarial generators
// ---------------------------------------------------------------------

/// One bucket mass drawn from the adversarial regimes: exact zero,
/// subnormal-adjacent tiny, ordinary, and huge (normalization in
/// `Histogram::new` scales them back to probabilities, dragging the
/// kernels through extreme dynamic ranges).
fn arb_mass() -> impl Strategy<Value = f64> {
    (0usize..9, 0.0f64..1.0).prop_map(|(regime, u)| match regime {
        0..=2 => 0.0,
        3 => 1e-300 * (1.0 + u * 999.0),
        4..=7 => 1e-6 + u,
        _ => 1.0 + u * 999.0,
    })
}

/// Adversarial mass rows: random zero-run prefix and suffix around a
/// core that may itself be mostly zeros, down to single-bucket rows.
fn adversarial_masses(max: usize) -> impl Strategy<Value = Vec<f64>> {
    (
        proptest::collection::vec(arb_mass(), 1..max),
        0usize..3,
        0usize..3,
    )
        .prop_map(|(core, pre, post)| {
            let mut v = vec![0.0; pre];
            v.extend(core);
            v.resize(v.len() + post, 0.0);
            v
        })
        .prop_filter("needs positive mass", |v| v.iter().any(|&p| p > 0.0))
}

/// Bucket widths spanning three decades in each direction, so mixed
/// pairs hit extreme width-mismatch projections.
fn arb_width() -> impl Strategy<Value = f64> {
    (0usize..6, 0.0f64..1.0).prop_map(|(regime, u)| match regime {
        0 => 0.001 + u * 0.009,
        1..=4 => 0.5 + u * 19.5,
        _ => 100.0 + u * 900.0,
    })
}

fn arb_adversarial() -> impl Strategy<Value = Histogram> {
    (0.0f64..500.0, arb_width(), adversarial_masses(12))
        .prop_map(|(s, w, m)| Histogram::new(s, w, m).expect("valid"))
}

/// An equal-width pair (anchors free), the precondition of the
/// aligned/fused kernels.
fn arb_aligned_pair() -> impl Strategy<Value = (Histogram, Histogram)> {
    (
        arb_width(),
        0.0f64..500.0,
        0.0f64..500.0,
        adversarial_masses(16),
        adversarial_masses(16),
    )
        .prop_map(|(w, sa, sb, ma, mb)| {
            (
                Histogram::new(sa, w, ma).expect("valid"),
                Histogram::new(sb, w, mb).expect("valid"),
            )
        })
}

/// A mixed-width pair whose widths stay within ~2.5 decades of each
/// other (the retained projecting pipeline sizes its grid by the ratio),
/// from nearly equal — where the chord bound is loosest — upward.
fn arb_mixed_pair() -> impl Strategy<Value = (Histogram, Histogram)> {
    (
        arb_adversarial(),
        0.0f64..500.0,
        0usize..3,
        0.0f64..1.0,
        adversarial_masses(24),
    )
        .prop_map(|(a, sb, regime, u, mb)| {
            let ratio = match regime {
                0 => 1.0001 + u * 0.5,
                1 => 1.5 + u * 20.0,
                _ => 20.0 + u * 300.0,
            };
            let b = Histogram::new(sb, a.width() / ratio, mb).expect("valid");
            (a, b)
        })
}

/// Two mass rows of one length whose CDFs are ordered at every knot —
/// and, both being piecewise linear on one grid, everywhere: the knotwise
/// max and min of two arbitrary CDFs, differenced back into masses.
fn arb_cdf_ordered_masses(max: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1..max)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(1e-6f64..1.0, n),
                proptest::collection::vec(0.0f64..1.0, n),
            )
        })
        .prop_filter("needs positive mass", |(_, y)| y.iter().any(|&p| p > 0.0))
        .prop_map(|(x, y)| {
            let (tx, ty): (f64, f64) = (x.iter().sum(), y.iter().sum());
            let (mut cx, mut cy, mut hi_prev, mut lo_prev) = (0.0, 0.0, 0.0f64, 0.0f64);
            let (mut upper, mut lower) = (Vec::new(), Vec::new());
            for (px, py) in x.iter().zip(&y) {
                cx += px / tx;
                cy += py / ty;
                upper.push(cx.max(cy) - hi_prev);
                lower.push(cx.min(cy) - lo_prev);
                hi_prev = cx.max(cy);
                lo_prev = cx.min(cy);
            }
            (upper, lower)
        })
}

/// Dyadic masses: multiples of 1/1024 summing to exactly 1.0, so
/// `Histogram::new` keeps them verbatim and every redistribution
/// arithmetic step on a power-of-two lattice is exact.
fn dyadic_masses(max: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0u32..65, 1..max)
        .prop_filter("needs positive mass", |w| w.iter().sum::<u32>() > 0)
        .prop_map(|w| {
            let total: u32 = w.iter().sum();
            let mut m: Vec<f64> = w.iter().map(|&x| x as f64 / 1024.0).collect();
            let last = m.len() - 1;
            m[last] += (1024 - total) as f64 / 1024.0;
            m
        })
}

// ---------------------------------------------------------------------
// Bitwise assertions and pool audits
// ---------------------------------------------------------------------

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

/// Every checkout matched by a checkin: the fused path must not leak
/// (or double-return) pooled buffers any more than the reference did.
fn assert_pool_balanced(pool: &HistogramPool) -> Result<(), TestCaseError> {
    let s = pool.stats();
    prop_assert_eq!(
        s.checkins,
        s.mints + s.reuses,
        "pool checkout/checkin imbalance: {:?}",
        s
    );
    Ok(())
}

/// Runs production `convolve_bounded_into` and the grid-materializing
/// reference on separate pools, asserting bitwise-equal outputs (raw
/// masses and grid, pre-normalization) and balanced accounting on both.
fn diff_bounded(a: &Histogram, b: &Histogram, cap: usize) -> Result<ConvRoute, TestCaseError> {
    let mut pool_p = HistogramPool::new();
    let mut out_p = pool_p.checkout();
    let route = convolve_bounded_into(&a.view(), &b.view(), cap, &mut out_p, &mut pool_p)
        .expect("positive cap");

    let mut pool_r = HistogramPool::new();
    let mut out_r = pool_r.checkout();
    convolve_bounded_into_ref(&a.view(), &b.view(), cap, &mut out_r, &mut pool_r)
        .expect("positive cap");

    prop_assert_eq!(
        out_p.start().to_bits(),
        out_r.start().to_bits(),
        "start differs"
    );
    prop_assert_eq!(
        out_p.width().to_bits(),
        out_r.width().to_bits(),
        "width differs"
    );
    prop_assert_eq!(out_p.num_bins(), out_r.num_bins(), "bin count differs");
    for (i, (x, y)) in out_p.masses().iter().zip(out_r.masses()).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "raw mass {} differs: {} vs {}",
            i,
            x,
            y
        );
    }

    pool_p.checkin_buf(out_p);
    pool_r.checkin_buf(out_r);
    assert_pool_balanced(&pool_p)?;
    assert_pool_balanced(&pool_r)?;
    Ok(route)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The chunked MAC kernel against the historical per-element
    /// branch-and-skip loop, directly on raw rows.
    #[test]
    fn mac_kernel_matches_scalar_reference(ma in adversarial_masses(24),
                                           mb in adversarial_masses(24)) {
        // Through the public aligned path (which routes to the MAC
        // kernel) vs the raw reference accumulation.
        let a = Histogram::new(0.0, 1.0, ma).expect("valid");
        let b = Histogram::new(0.0, 1.0, mb).expect("valid");
        let n = a.num_bins() + b.num_bins() - 1;
        let mut reference = vec![0.0; n];
        accumulate_aligned_ref(a.probs(), b.probs(), &mut reference);

        let mut pool = HistogramPool::new();
        let mut out = pool.checkout();
        convolve_into(&a.view(), &b.view(), &mut out, &mut pool);
        for (i, (x, y)) in out.masses().iter().zip(&reference).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "slot {} differs: {} vs {}", i, x, y);
        }
        pool.checkin_buf(out);
        assert_pool_balanced(&pool)?;
    }

    /// Full `convolve_into` (aligned MAC or projection route) against
    /// the retained reference, across extreme width mismatches.
    #[test]
    fn convolve_into_matches_reference_bitwise(a in arb_adversarial(),
                                               b in arb_adversarial()) {
        let mut pool_p = HistogramPool::new();
        let mut out_p = pool_p.checkout();
        let route = convolve_into(&a.view(), &b.view(), &mut out_p, &mut pool_p);
        let prod = out_p.into_histogram().expect("valid");

        let mut pool_r = HistogramPool::new();
        let mut out_r = pool_r.checkout();
        convolve_into_ref(&a.view(), &b.view(), &mut out_r, &mut pool_r);
        let refr = out_r.into_histogram().expect("valid");

        assert_bits_eq(&prod, &refr)?;
        prop_assert_eq!(route.projected(), a.width() != b.width(),
            "projection routing disagrees with the width mismatch");
    }

    /// The fused accumulate-and-cap kernel against
    /// materialize-then-redistribute, with the cap swept through the
    /// degenerate ends: 1, exactly `na + nb - 1`, one below it, and a
    /// free draw.
    #[test]
    fn fused_cap_matches_materialized_reference(pair in arb_aligned_pair(),
                                                which in 0usize..4,
                                                free in 2usize..32) {
        let (a, b) = pair;
        let n = a.num_bins() + b.num_bins() - 1;
        let cap = match which {
            0 => 1,
            1 => n,
            2 => n.saturating_sub(1).max(1),
            _ => free,
        };
        let route = diff_bounded(&a, &b, cap)?;
        prop_assert_eq!(route.capped(), n > cap,
            "cap routing disagrees: n = {}, cap = {}", n, cap);
    }

    /// Mixed-width bounded convolution against the reference, same cap
    /// sweep: the projecting route when the projected result fits the
    /// cap, otherwise the closed-form kernel against its scalar twin
    /// (prefix re-summed per evaluation) — bitwise either way.
    #[test]
    fn bounded_projection_matches_reference(a in arb_adversarial(),
                                            b in arb_adversarial(),
                                            cap in 1usize..24) {
        prop_assume!(a.width() != b.width());
        let route = diff_bounded(&a, &b, cap)?;
        prop_assert!(route == ConvRoute::Projected || route == ConvRoute::DirectCapped);
    }

    /// The closed-form kernel against the projecting pipeline it
    /// replaced: the output grid is `to_bits`-equal, and the cumulative
    /// mass at every output knot stays within the derived chord bound
    /// `(w_fine / w_coarse) · max_i |p_i − p_{i−1}| / 4` (`p` the coarse
    /// masses, `p_{−1} = p_n = 0`).
    #[test]
    fn direct_capped_stays_within_the_chord_bound_of_the_projected_pipeline(
        pair in arb_mixed_pair(),
        flip in 0usize..2,
        cap in 1usize..24) {
        let (coarse, fine) = pair;
        let (a, b) = if flip == 1 { (&fine, &coarse) } else { (&coarse, &fine) };

        let mut pool = HistogramPool::new();
        let mut out = pool.checkout();
        let route = convolve_bounded_into(&a.view(), &b.view(), cap, &mut out, &mut pool)
            .expect("positive cap");
        let direct = out.into_histogram().expect("valid");
        let mut out = pool.checkout();
        convolve_bounded_projected_ref(&a.view(), &b.view(), cap, &mut out, &mut pool)
            .expect("positive cap");
        let projected = out.into_histogram().expect("valid");

        prop_assert_eq!(direct.start().to_bits(), projected.start().to_bits(), "start differs");
        prop_assert_eq!(direct.width().to_bits(), projected.width().to_bits(), "width differs");
        prop_assert_eq!(direct.num_bins(), projected.num_bins(), "bin count differs");
        if route == ConvRoute::Projected {
            // Fits the cap: both ran the projecting route.
            assert_bits_eq(&direct, &projected)?;
        } else {
            prop_assert_eq!(route, ConvRoute::DirectCapped);
            let p = coarse.probs();
            let kink = (0..=p.len())
                .map(|i| {
                    let left = if i == 0 { 0.0 } else { p[i - 1] };
                    let right = if i == p.len() { 0.0 } else { p[i] };
                    (right - left).abs()
                })
                .fold(0.0, f64::max);
            let bound = fine.width() / coarse.width() * kink / 4.0 + 1e-12;
            let (mut cd, mut cp) = (0.0, 0.0);
            for (m, (x, y)) in direct.probs().iter().zip(projected.probs()).enumerate() {
                cd += x;
                cp += y;
                prop_assert!((cd - cp).abs() <= bound,
                    "knot {}: |{} - {}| exceeds the bound {}", m + 1, cd, cp, bound);
            }
        }
    }

    /// The algebra the router leans on, on the closed-form route:
    /// non-negative masses summing to one, bitwise commutativity, no pool
    /// traffic, and CDF-order monotonicity — two coarse operands on one
    /// grid with `A₁ ≥ A₂` everywhere give results on one grid with the
    /// order kept at every knot (what `ConvGated` and the plain CDF bound
    /// rely on).
    #[test]
    fn direct_capped_keeps_mass_commutes_and_preserves_cdf_order(
        fine in arb_adversarial(),
        start in 0.0f64..500.0,
        ratio in 1.01f64..400.0,
        ordered in arb_cdf_ordered_masses(16),
        cap in 1usize..24) {
        let (upper, lower) = ordered;
        prop_assume!(upper.len() + fine.num_bins() > cap);
        let w = fine.width() * ratio;
        let a1 = Histogram::new(start, w, upper).expect("valid");
        let a2 = Histogram::new(start, w, lower).expect("valid");

        let mut pool = HistogramPool::new();
        let mut run = |a: &Histogram, b: &Histogram| {
            let mut out = pool.checkout();
            let route = convolve_bounded_into(&a.view(), &b.view(), cap, &mut out, &mut pool)
                .expect("positive cap");
            assert_eq!(route, ConvRoute::DirectCapped);
            out.into_histogram().expect("valid")
        };
        let (r1, r2) = (run(&a1, &fine), run(&a2, &fine));
        let flipped = run(&fine, &a1);
        // The three output buffers are the pool's only checkouts.
        prop_assert_eq!(pool.stats().mints + pool.stats().reuses, 3);

        assert_bits_eq(&r1, &flipped)?;
        assert_bits_eq(&r1, &convolve_bounded(&a1, &fine, cap).expect("positive cap"))?;
        for r in [&r1, &r2] {
            prop_assert!(r.probs().iter().all(|&p| p >= 0.0));
            prop_assert!((r.probs().iter().sum::<f64>() - 1.0).abs() <= 1e-12);
        }
        prop_assert_eq!(r1.start().to_bits(), r2.start().to_bits());
        prop_assert_eq!(r1.width().to_bits(), r2.width().to_bits());
        let (mut c1, mut c2) = (0.0, 0.0);
        for (m, (x, y)) in r1.probs().iter().zip(r2.probs()).enumerate() {
            c1 += x;
            c2 += y;
            prop_assert!(c1 >= c2 - 1e-12, "order lost at knot {}: {} < {}", m + 1, c1, c2);
        }
    }

    /// The extracted per-bucket redistribution against the historical
    /// monolithic loop, on arbitrary target grids.
    #[test]
    fn rebin_matches_redistribute_reference(h in arb_adversarial(),
                                            lo in 0.0f64..400.0,
                                            width in arb_width(),
                                            nbins in 1usize..24) {
        let mut prod = Vec::new();
        h.view().rebin_into(lo, width, nbins, &mut prod).expect("valid grid");
        let mut reference = Vec::new();
        redistribute_into_ref(h.start(), h.width(), h.probs(), lo, width, nbins, &mut reference);
        prop_assert_eq!(prod.len(), reference.len());
        for (i, (x, y)) in prod.iter().zip(&reference).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "bucket {} differs: {} vs {}", i, x, y);
        }
    }

    /// Branch-free CDF/quantile/moment scans against the historical
    /// early-exit loops, on both the owning histogram and a raw view.
    #[test]
    fn scans_match_scalar_references(h in arb_adversarial(),
                                     x in -100.0f64..2000.0,
                                     q in 0.001f64..1.0) {
        let (s, w, p) = (h.start(), h.width(), h.probs());
        prop_assert_eq!(h.cdf(x).to_bits(), cdf_ref(s, w, p, x).to_bits());
        prop_assert!((h.cdf(x) - cdf_ref(s, w, p, x)).abs() < 1e-12);
        prop_assert_eq!(h.quantile(q).to_bits(), quantile_ref(s, w, p, q).to_bits());
        prop_assert_eq!(
            h.mean().to_bits(),
            srt_dist::reference::mean_ref(s, w, p).to_bits());
        prop_assert_eq!(
            h.variance().to_bits(),
            srt_dist::reference::variance_ref(s, w, p).to_bits());

        let v = srt_dist::HistogramView::from_raw(s, w, p);
        prop_assert_eq!(v.quantile(q).to_bits(), h.quantile(q).to_bits());
        prop_assert_eq!(v.mean().to_bits(), h.mean().to_bits());
    }

    /// The incremental `CdfScanner` answers ascending queries exactly
    /// like the one-shot scan — including repeats, off-support probes,
    /// and non-bucket-aligned positions.
    #[test]
    fn cdf_scanner_matches_one_shot(h in arb_adversarial(),
                                    mut xs in proptest::collection::vec(-0.3f64..1.3, 1..40)) {
        xs.sort_by(|p, q| p.partial_cmp(q).expect("finite"));
        let span = h.end() - h.start();
        let mut scan = srt_dist::CdfScanner::new(h.view());
        for &t in &xs {
            let x = h.start() + t * span;
            prop_assert_eq!(scan.cdf(x).to_bits(), h.cdf(x).to_bits(),
                "scanner diverged at x = {}", x);
        }
    }

    /// The early-exit margin-dominance sweep against the retained
    /// full-sweep predicate, in both directions. `placement` steers the
    /// second operand's offset so the pair lands in each structural
    /// regime — unrelated, support-disjoint either way, nested inside the
    /// first's support, and the same shape translated by a sub-bucket
    /// amount; `adversarial_masses` supplies the zero-mass head/tail
    /// buckets; `eps` covers no margin, a calibrated-sized one, the
    /// interval-dominance extreme, and the two clamped inputs.
    #[test]
    fn early_exit_dominance_matches_full_sweep(a in arb_adversarial(),
                                               b in arb_adversarial(),
                                               oa in -50.0f64..50.0,
                                               placement in 0usize..5,
                                               u in 0.0f64..1.0,
                                               eps_regime in 0usize..5,
                                               eps_cal in 1e-4f64..0.3) {
        let (b, ob) = match placement {
            0 => (b, -50.0 + 100.0 * u),
            // b begins where a ends (plus a gap), and the mirror image.
            1 => { let ob = oa + a.end() - b.start() + u * 10.0; (b, ob) }
            2 => { let ob = oa + a.start() - b.end() - u * 10.0; (b, ob) }
            // b squeezed strictly inside a's support.
            3 => {
                let span = a.end() - a.start();
                let nested = Histogram::new(
                    a.start() + 0.25 * span,
                    0.5 * span / b.num_bins() as f64,
                    b.probs().to_vec(),
                ).expect("valid");
                (nested, oa)
            }
            // a's own shape, translated by a fraction of one bucket.
            _ => (a.clone(), oa + (u - 0.5) * a.width()),
        };
        let eps = [0.0, eps_cal, f64::INFINITY, f64::NAN, -eps_cal][eps_regime];
        let (va, vb) = (a.view(), b.view());
        prop_assert_eq!(
            dominates_with_margin_shifted_views(&va, oa, &vb, ob, eps),
            dominates_with_margin_shifted_ref(&va, oa, &vb, ob, eps),
            "a over b, placement {}, eps {}", placement, eps);
        prop_assert_eq!(
            dominates_with_margin_shifted_views(&vb, ob, &va, oa, eps),
            dominates_with_margin_shifted_ref(&vb, ob, &va, oa, eps),
            "b over a, placement {}, eps {}", placement, eps);
    }

    /// Shared-lattice soundness: on exact dyadic grids the fast path
    /// (skip the projection) is bit-identical to *forcing* the
    /// projection route, and the router must classify the pair as a
    /// lattice hit.
    #[test]
    fn lattice_fast_path_is_bitwise_sound_on_dyadic_grids(
        wi in 0usize..4,
        a_seed in (0u32..2000, dyadic_masses(10)),
        b_seed in (0u32..2000, dyadic_masses(10))) {
        let width = [0.25, 0.5, 1.0, 2.0][wi];
        let a = Histogram::new(a_seed.0 as f64 * width, width, a_seed.1).expect("valid");
        let b = Histogram::new(b_seed.0 as f64 * width, width, b_seed.1).expect("valid");

        let mut pool_p = HistogramPool::new();
        let mut out_p = pool_p.checkout();
        let route = convolve_into(&a.view(), &b.view(), &mut out_p, &mut pool_p);
        prop_assert_eq!(route, ConvRoute::Lattice, "dyadic pair must hit the lattice route");
        let fast = out_p.into_histogram().expect("valid");

        let mut pool_r = HistogramPool::new();
        let mut out_r = pool_r.checkout();
        convolve_via_projection_ref(&a.view(), &b.view(), &mut out_r, &mut pool_r);
        let slow = out_r.into_histogram().expect("valid");

        assert_bits_eq(&fast, &slow)?;
        // Return the payloads so the checkout/checkin audit balances.
        pool_p.recycle(fast);
        pool_r.recycle(slow);
        assert_pool_balanced(&pool_p)?;
        assert_pool_balanced(&pool_r)?;
    }

    /// Misaligned anchors must NOT classify as a lattice hit, and the
    /// output still matches the reference bitwise (both run the plain
    /// aligned kernel — the fast path is telemetry, never a shortcut
    /// that changes results).
    #[test]
    fn misaligned_anchors_are_not_lattice_hits(pair in arb_aligned_pair(),
                                               frac in 0.05f64..0.95) {
        let (a, b) = pair;
        let shifted = Histogram::new(a.start() + frac * a.width(), b.width(), b.probs().to_vec())
            .expect("valid");
        prop_assume!((shifted.start() - a.start()) / a.width() % 1.0 != 0.0);

        let mut pool = HistogramPool::new();
        let mut out = pool.checkout();
        let route = convolve_into(&a.view(), &shifted.view(), &mut out, &mut pool);
        prop_assert_eq!(route, ConvRoute::Aligned, "phase mismatch must not claim the lattice");
        let prod = out.into_histogram().expect("valid");

        let mut pool_r = HistogramPool::new();
        let mut out_r = pool_r.checkout();
        convolve_into_ref(&a.view(), &shifted.view(), &mut out_r, &mut pool_r);
        assert_bits_eq(&prod, &out_r.into_histogram().expect("valid"))?;
    }
}

// ---------------------------------------------------------------------
// Deterministic route classification and regression pins
// ---------------------------------------------------------------------

#[test]
fn routes_classify_as_documented() {
    let mut pool = HistogramPool::new();
    let a = Histogram::new(4.0, 2.0, vec![0.5, 0.5]).unwrap();
    let on = Histogram::new(10.0, 2.0, vec![0.25, 0.75]).unwrap(); // same lattice
    let off = Histogram::new(10.7, 2.0, vec![0.25, 0.75]).unwrap(); // phase mismatch
    let fine = Histogram::new(10.0, 0.5, vec![0.25; 4]).unwrap(); // width mismatch

    let route = |a: &Histogram, b: &Histogram, cap: usize, pool: &mut HistogramPool| {
        let mut out = pool.checkout();
        let r = convolve_bounded_into(&a.view(), &b.view(), cap, &mut out, pool).unwrap();
        let h = out.into_histogram().unwrap();
        pool.recycle(h);
        r
    };

    assert_eq!(route(&a, &on, 16, &mut pool), ConvRoute::Lattice);
    assert_eq!(route(&a, &on, 2, &mut pool), ConvRoute::LatticeCapped);
    assert_eq!(route(&a, &off, 16, &mut pool), ConvRoute::Aligned);
    assert_eq!(route(&a, &off, 2, &mut pool), ConvRoute::AlignedCapped);
    assert_eq!(route(&a, &fine, 16, &mut pool), ConvRoute::Projected);
    assert_eq!(route(&a, &fine, 2, &mut pool), ConvRoute::DirectCapped);

    for (r, lattice, projected, capped) in [
        (ConvRoute::Lattice, true, false, false),
        (ConvRoute::LatticeCapped, true, false, true),
        (ConvRoute::Aligned, false, false, false),
        (ConvRoute::AlignedCapped, false, false, true),
        (ConvRoute::Projected, false, true, false),
        (ConvRoute::DirectCapped, false, false, true),
    ] {
        assert_eq!(r.lattice_hit(), lattice, "{r:?}");
        assert_eq!(r.projected(), projected, "{r:?}");
        assert_eq!(r.capped(), capped, "{r:?}");
    }
}

/// Regression for the magnitude-blind `1e-9` projection epsilon, both
/// directions:
///
/// - a ratio that is an integer up to 1-ulp float noise must NOT grow a
///   phantom sliver bucket, and
/// - a ratio that *genuinely* exceeds an integer (here by 3e-10, real
///   width geometry, not representation noise) must KEEP its sliver —
///   the old absolute `1e-9` swallowed it, truncating the projected
///   support.
#[test]
fn near_integer_width_ratios_project_without_fabricating_or_losing_bins() {
    // span / w = (3 * 0.2) / 0.1 = 6.000000000000001: ulp noise, snap.
    let a = Histogram::new(0.0, 0.2, vec![1.0 / 3.0; 3]).unwrap();
    let b = Histogram::new(0.0, 0.1, vec![0.5, 0.5]).unwrap();
    let mut pool = HistogramPool::new();
    let mut out = pool.checkout();
    convolve_into(&a.view(), &b.view(), &mut out, &mut pool);
    // a projects onto exactly 6 fine buckets: result = 6 + 2 - 1.
    assert_eq!(out.num_bins(), 7, "phantom sliver bucket fabricated");
    pool.checkin_buf(out);

    // span / w = 3.0 / 0.9999999999 ≈ 3 + 3e-10: a real sliver, below
    // the old 1e-9 threshold. It must survive as a 4th fine bucket.
    let a = Histogram::new(0.0, 1.0, vec![1.0 / 3.0; 3]).unwrap();
    let b = Histogram::new(0.0, 0.999_999_999_9, vec![1.0]).unwrap();
    let mut out = pool.checkout();
    convolve_into(&a.view(), &b.view(), &mut out, &mut pool);
    // a projects onto 4 fine buckets (3 full + sliver): 4 + 1 - 1.
    assert_eq!(out.num_bins(), 4, "genuine sliver bucket was swallowed");
}

//! Property-based soundness tests of the mass-envelope algebra: for
//! random histograms *within* an envelope, the outputs of `shift`,
//! re-binning and (capped) convolution stay within the correspondingly
//! composed envelope — the closure property the router's
//! certified-envelope pruning bound rests on.

use proptest::prelude::*;
use srt_dist::{convolve, convolve_bounded, Histogram, MassEnvelope};

/// Random bucket masses with at least one strictly positive entry.
fn arb_masses(max_bins: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 1..max_bins)
        .prop_filter("needs positive total mass", |v| {
            v.iter().sum::<f64>() > 1e-6
        })
}

/// A random histogram with its own support anchor and width.
fn arb_histogram() -> impl Strategy<Value = Histogram> {
    (0.0f64..200.0, 0.5f64..10.0, arb_masses(10))
        .prop_map(|(start, width, masses)| Histogram::new(start, width, masses).expect("valid"))
}

/// An envelope together with a random *member*: the envelope of a base
/// histogram contains the base itself, every later-shifted copy, and
/// every "worsening" that moves mass later — so derive members that way.
/// `pick` selects which member is returned.
fn arb_envelope_and_member() -> impl Strategy<Value = (MassEnvelope, Histogram)> {
    (arb_histogram(), 0.0f64..0.9, 0.0f64..5.0, 0u8..3).prop_map(|(base, frac, dt, pick)| {
        let env = MassEnvelope::envelope_of(&base);
        let member = match pick {
            0 => base,
            1 => base.shift(dt),
            _ => {
                // Move `frac` of every bucket's mass one bucket later
                // (appending a bucket): lowers the CDF pointwise.
                let mut masses = base.probs().to_vec();
                masses.push(0.0);
                for i in (0..masses.len() - 1).rev() {
                    let moved = masses[i] * frac;
                    masses[i] -= moved;
                    masses[i + 1] += moved;
                }
                Histogram::new(base.start(), base.width(), masses).expect("valid worsening")
            }
        };
        (env, member)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The member derivations above really are members.
    #[test]
    fn derived_members_are_contained((env, h) in arb_envelope_and_member()) {
        prop_assert!(env.contains(&h));
    }

    /// Containment survives translation: `E.shift(dt)` covers
    /// `h.shift(dt)` for every member `h`, any direction.
    #[test]
    fn shift_composes((env, h) in arb_envelope_and_member(), dt in -30.0f64..30.0) {
        prop_assert!(env.shift(dt).contains(&h.shift(dt)));
    }

    /// Containment survives re-binning onto a known target lattice, both
    /// the support-preserving `with_bins` cap and arbitrary grids.
    #[test]
    fn rebin_composes((env, h) in arb_envelope_and_member(),
                      n in 1usize..24,
                      lo_off in -5.0f64..5.0, width in 0.5f64..8.0) {
        let capped = h.with_bins(n).expect("positive bucket count");
        let env_capped = env
            .rebin_onto(capped.start(), capped.width(), capped.num_bins())
            .expect("valid lattice");
        prop_assert!(env_capped.contains(&capped), "with_bins({n}) escaped");

        // An arbitrary grid that still covers the member's support (the
        // clamping semantics of rebin_onto fold outside mass to the
        // edges, which rebin_onto's envelope sampling accounts for at
        // interior knots only when the grid covers the support).
        let lo = h.start() + lo_off.min(0.0);
        let nbins = (((h.end() - lo) / width).ceil() as usize).max(1);
        let regrid = h.rebin_onto(lo, width, nbins).expect("valid grid");
        let env_regrid = env.rebin_onto(lo, width, nbins).expect("valid grid");
        prop_assert!(env_regrid.contains(&regrid), "rebin_onto escaped");
    }

    /// Containment survives convolution with a fixed second histogram,
    /// exact or bucket-capped: `E.after_convolve_bounded(g)` covers
    /// `convolve_bounded(h, g, cap)` for every member `h` and every cap.
    #[test]
    fn convolve_composes((env, h) in arb_envelope_and_member(),
                         g in arb_histogram(), cap in 1usize..32) {
        let composed = env.after_convolve_bounded(&g);
        let capped = convolve_bounded(&h, &g, cap).expect("cap is positive");
        prop_assert!(composed.contains(&capped), "capped convolution escaped");
        prop_assert!(composed.contains(&convolve(&h, &g)), "exact convolution escaped");
    }

    /// Compositions chain: shift then capped convolution, the label
    /// lifecycle inside the router.
    #[test]
    fn shift_then_convolve_composes((env, h) in arb_envelope_and_member(),
                                    dt in 0.0f64..20.0,
                                    g in arb_histogram(), cap in 1usize..24) {
        let composed = env.shift(dt).after_convolve_bounded(&g);
        let out = convolve_bounded(&h.shift(dt), &g, cap).expect("cap is positive");
        prop_assert!(composed.contains(&out));
    }

    /// The concave majorant dominates the envelope, is idempotent, and
    /// preserves membership.
    #[test]
    fn majorant_laws((env, h) in arb_envelope_and_member()) {
        let m = env.concave_majorant();
        for (a, b) in env.bounds().iter().zip(m.bounds()) {
            prop_assert!(*b + 1e-12 >= *a, "majorant dipped below the envelope");
        }
        let mm = m.concave_majorant();
        prop_assert_eq!(mm.bounds(), m.bounds());
        prop_assert!(m.contains(&h));
        // Concavity: increments never grow.
        let b = m.bounds();
        for k in 2..b.len() {
            prop_assert!(b[k] - b[k - 1] <= b[k - 1] - b[k - 2] + 1e-9);
        }
    }

    /// The envelope value is monotone in `x` — the property the router
    /// relies on when it evaluates the bound at the budget slack.
    #[test]
    fn bound_at_is_monotone(h in arb_histogram(), x1 in -50.0f64..400.0, x2 in -50.0f64..400.0) {
        let env = MassEnvelope::envelope_of(&h);
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(env.bound_at(lo) <= env.bound_at(hi) + 1e-12);
    }
}

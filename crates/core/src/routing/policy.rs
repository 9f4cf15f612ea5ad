//! Composable pruning policies for the budget router.
//!
//! The paper's label-setting search originally hard-wired its prunings as
//! booleans. This module factors them into three first-class policies,
//! each implementing [`PrunePolicy`]:
//!
//! * [`BudgetGate`] — the *feasibility* cut: a label whose best-case
//!   completion already misses the budget can never contribute on-time
//!   probability. Sound under **any** cost model, because every combine
//!   operator in the stack (convolution *and* the estimator) preserves
//!   the additive support lower bound.
//! * [`BoundPolicy`] — pruning (a), the optimistic probability bound
//!   against the incumbent. [`BoundMode::Optimistic`] is the paper's CDF
//!   bound — exact under convolution, a (documented) heuristic under the
//!   hybrid's estimator arm, which may redistribute mass early within the
//!   support. [`BoundMode::Certified`] only trusts the CDF bound for
//!   labels whose remaining extensions provably convolve (see
//!   [`ConvCertificate`]) and falls back to the sound-but-weak
//!   feasibility bound otherwise.
//! * [`DominancePolicy`] — pruning (d), per-vertex Pareto sets. Four
//!   modes ([`DominanceMode`]): off; the legacy first-order heuristic;
//!   *convolution-gated* dominance, which only fires when both labels'
//!   downstream combines are certified convolutions *and* the pair
//!   shares a support lattice (or is support-disjoint) — the regime
//!   where the capped convolution is provably order-preserving;
//!   and *margin* dominance, which requires the winner to lead by the
//!   estimator's calibrated inversion modulus `eps`
//!   ([`crate::model::DominanceCalibration`]).
//!
//! The sound dominance modes additionally require **exchange safety**:
//! pruning `B` in favour of `A` presumes `A` can take every extension
//! `B` could, but the search's U-turn rule bans `A`'s immediate
//! back-edge. The check ([`exchange_safe`]) only admits the prune when
//! the survivor's ban set is contained in the pruned label's — a corner
//! the exhaustive oracle tests exposed even under pure convolution.

use crate::cost::{CombinePolicy, HybridCost};
use crate::model::calibration::DominanceCalibration;
use crate::model::envelope::SupportEnvelope;
use crate::model::features::pair_features_partial;
use srt_dist::dominance::dominates_with_margin_shifted_views;
use srt_dist::HistogramView;
use srt_graph::{EdgeId, NodeId, RoadGraph};

/// How pruning (a) bounds a label's achievable on-time probability.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BoundMode {
    /// No incumbent pruning (the bound is still computed to order the
    /// best-first queue).
    Off,
    /// The paper's optimistic CDF bound: exact under convolution, a
    /// documented heuristic under the hybrid's estimator arm.
    Optimistic,
    /// Provably sound everywhere: the CDF bound where the convolution
    /// certificate holds, the trivial feasibility bound (1.0) elsewhere.
    Certified,
    /// Sound like [`BoundMode::Certified`], sharp like
    /// [`BoundMode::Optimistic`] (the default): certificate-covered
    /// labels keep the exact CDF bound; for the rest the trivial
    /// fallback is replaced by the model's persisted support-mass
    /// envelope ([`crate::model::SupportEnvelope`]).
    ///
    /// The envelope case bounds every completion that routes through at
    /// least one estimator combine. Every combine operator in the stack
    /// is *support-additive* (output support start and span are the sums
    /// of the inputs'), so the last estimator output `E` on a completion
    /// from vertex `v` has `E.start >= label.start + remaining(v)` and
    /// `E.span >= label.span + min_out_span(v)` — and its shape, by the
    /// envelope, places at most `env(q)` mass below support fraction
    /// `q`. Subsequent (capped) convolutions only translate the
    /// evaluation point and take lattice chords — literally: the capped
    /// step's output CDF at an output knot `x` is `Σ_j b_j · A(x − y_j)`,
    /// a mass-weighted average of translated evaluations of the incoming
    /// CDF `A`, and its histogram the chord interpolation of that on the
    /// output lattice — which the persisted envelope's concave
    /// majorization dominates (see [`srt_dist::MassEnvelope`]). Completions with *no* estimator
    /// combine are covered by taking the max with the plain CDF bound,
    /// which is exact under convolution. Like the dominance margin, the
    /// envelope's empirical component is certified end to end by the
    /// scenario-matrix oracle suite rather than proven over all feature
    /// vectors.
    CertifiedEnvelope,
}

/// How pruning (d) orders labels inside a vertex's Pareto set.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum DominanceMode {
    /// Keep every non-duplicate label.
    Off,
    /// Legacy first-order dominance: exact under a monotone (pure
    /// convolution) cost model, approximately sound under the hybrid
    /// (historically ≤ 5e-3 probability drift in the A1 ablation).
    FirstOrder,
    /// First-order dominance restricted to exchange-safe label pairs
    /// whose remaining extensions are certified to convolve, **and**
    /// that either share an identical support lattice or have disjoint
    /// supports. The lattice condition is what makes the mode exact:
    /// certified extensions run `convolve_bounded` = convolution *onto a
    /// bucket-capped grid*, and re-bucketing two histograms onto different
    /// grids is not dominance-monotone — only same-lattice pairs (which
    /// land on one output grid, where the step's CDF at every knot is the
    /// average `Σ_j b_j · A(x − y_j)`, monotone in the label's CDF `A`)
    /// and support-disjoint pairs (whose order survives any
    /// mass-preserving operator) provably keep their order through it.
    /// Returns identical policies to the unpruned search.
    ConvGated,
    /// Exchange-safe dominance with a safety margin. `eps: None` reads
    /// the margin from the model's persisted calibration (falling back
    /// to the conservative `+inf` when the model carries none);
    /// `Some(e)` overrides it.
    Margin {
        /// Explicit margin override; `None` = use the model calibration.
        eps: Option<f64>,
    },
}

/// Scalar decision context for one candidate label.
pub struct PruneCtx<'a> {
    /// The query budget (seconds).
    pub budget_s: f64,
    /// Optimistic remaining time from the label's vertex to the target.
    pub remaining_s: f64,
    /// The label's scalar cost offset (pruning (c)).
    pub offset: f64,
    /// The label's zero-anchored (or absolute, when shifting is off)
    /// travel-time distribution — a borrowed view, so policies evaluate
    /// pooled label payloads without cloning.
    pub hist: HistogramView<'a>,
    /// Best complete on-time probability found so far.
    pub incumbent_prob: f64,
    /// Whether the label's remaining extensions are certified to
    /// convolve (see [`ConvCertificate`]).
    pub certified: bool,
    /// The model's support-mass envelope, for
    /// [`BoundMode::CertifiedEnvelope`] (`None` degrades that mode to
    /// the plain certified fallback).
    pub envelope: Option<&'a SupportEnvelope>,
    /// Lower bound on the support span the *first* remaining combine
    /// adds (the minimum marginal span over the vertex's out-edges) —
    /// the denominator floor of the envelope bound.
    pub next_span_lb: f64,
}

/// A label's cost view for pairwise dominance decisions.
#[derive(Copy, Clone)]
pub struct LabelView<'a> {
    /// Scalar cost offset.
    pub offset: f64,
    /// Zero-anchored (or absolute) distribution, as a borrowed view over
    /// the label's pooled payload.
    pub hist: HistogramView<'a>,
    /// Convolution certificate of the label's arrival edge.
    pub certified: bool,
}

/// A composable pruning decision. Implementations are plain `Copy`
/// structs the router dispatches statically; the trait exists so the
/// policies share one vocabulary (and so tests can exercise them
/// uniformly, including through `dyn PrunePolicy`).
pub trait PrunePolicy {
    /// Stable diagnostic name.
    fn name(&self) -> &'static str;

    /// Scalar admission test: `false` discards the candidate label.
    /// Policies without a scalar test admit everything.
    fn admits(&self, ctx: &PruneCtx<'_>) -> bool {
        let _ = ctx;
        true
    }

    /// Pairwise test: may `candidate` be discarded because `keeper`
    /// (which survives) covers all its completions? `exchange_safe`
    /// reports whether the keeper can legally take every first hop the
    /// candidate could (U-turn rule). Policies without a pairwise test
    /// never discard.
    fn discards(
        &self,
        keeper: &LabelView<'_>,
        candidate: &LabelView<'_>,
        exchange_safe: bool,
    ) -> bool {
        let _ = (keeper, candidate, exchange_safe);
        false
    }
}

/// The feasibility cut: drop labels whose best-case arrival already
/// misses the budget. Also what guarantees termination on cyclic graphs
/// when the optimistic bound is disabled.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BudgetGate {
    /// `false` disables the cut (legacy ablation behaviour).
    pub enabled: bool,
}

impl PrunePolicy for BudgetGate {
    fn name(&self) -> &'static str {
        "budget-gate"
    }

    fn admits(&self, ctx: &PruneCtx<'_>) -> bool {
        if !self.enabled {
            return true;
        }
        // Every combine operator starts its output support at the sum of
        // the input supports' starts, so `offset + hist.start()` plus the
        // optimistic remaining time lower-bounds every completion.
        ctx.budget_s - ctx.remaining_s - ctx.offset > ctx.hist.start()
    }
}

/// Pruning (a): the optimistic probability bound against the incumbent.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BoundPolicy {
    /// The bound flavour in use.
    pub mode: BoundMode,
}

impl BoundPolicy {
    /// Upper bound on the label's achievable on-time probability — also
    /// the best-first queue key. For [`BoundMode::Off`] the optimistic
    /// CDF value is still returned (ordering only, never pruned on).
    pub fn upper_bound(&self, ctx: &PruneCtx<'_>) -> f64 {
        let slack = ctx.budget_s - ctx.remaining_s - ctx.offset;
        match self.mode {
            BoundMode::Off | BoundMode::Optimistic => ctx.hist.cdf(slack),
            BoundMode::Certified => {
                if ctx.certified {
                    ctx.hist.cdf(slack)
                } else if slack > ctx.hist.start() {
                    1.0
                } else {
                    0.0
                }
            }
            BoundMode::CertifiedEnvelope => {
                if ctx.certified {
                    return ctx.hist.cdf(slack);
                }
                // All-convolution completions: the exact CDF bound.
                let conv_case = ctx.hist.cdf(slack);
                // Completions through at least one estimator combine:
                // the support-mass envelope, evaluated at the largest
                // support fraction the budget can reach on the last
                // estimator output (support start and span are additive
                // along every combine chain — see the mode docs).
                let est_case = match ctx.envelope {
                    Some(env) => {
                        let num = slack - ctx.hist.start();
                        if num <= 0.0 {
                            0.0
                        } else {
                            let span =
                                ctx.hist.end() - ctx.hist.start() + ctx.next_span_lb;
                            env.bound_at_fraction(num / span)
                        }
                    }
                    // No persisted envelope: the certified fallback.
                    None => {
                        if slack > ctx.hist.start() {
                            1.0
                        } else {
                            0.0
                        }
                    }
                };
                conv_case.max(est_case)
            }
        }
    }

    /// Whether the policy prunes against the incumbent (and allows the
    /// best-first early exit).
    pub fn prunes(&self) -> bool {
        self.mode != BoundMode::Off
    }
}

impl PrunePolicy for BoundPolicy {
    fn name(&self) -> &'static str {
        "bound"
    }

    fn admits(&self, ctx: &PruneCtx<'_>) -> bool {
        !self.prunes() || self.upper_bound(ctx) > ctx.incumbent_prob
    }
}

/// Pruning (d): pairwise dominance inside a vertex's Pareto set.
///
/// The pairwise check delegates to
/// [`dominates_with_margin_shifted_views`], whose CDF sweep runs on
/// `srt_dist`'s incremental [`CdfScanner`](srt_dist::CdfScanner):
/// breakpoints are visited in ascending order, so each histogram's
/// prefix sum advances once across the pair instead of restarting per
/// breakpoint — O(na + nb) per comparison, bit-identical to the
/// one-shot `cdf` fold.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct DominancePolicy {
    mode: DominanceMode,
    /// Resolved margin for [`DominanceMode::Margin`] (0 otherwise).
    eps: f64,
}

impl DominancePolicy {
    /// Resolves a configured mode against the model's calibration. A
    /// margin mode without an explicit `eps` takes the calibrated value,
    /// or `+inf` (prune only interval-certain wins) when the model was
    /// never calibrated.
    pub fn resolve(mode: DominanceMode, calibration: Option<&DominanceCalibration>) -> Self {
        let eps = match mode {
            DominanceMode::Margin { eps } => eps
                .or(calibration.map(|c| c.margin_eps))
                .unwrap_or(f64::INFINITY),
            _ => 0.0,
        };
        DominancePolicy { mode, eps }
    }

    /// The resolved margin (meaningful for [`DominanceMode::Margin`]).
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Whether the policy compares labels at all.
    pub fn enabled(&self) -> bool {
        self.mode != DominanceMode::Off
    }

    /// Whether this mode requires the exchange-safety (U-turn) check —
    /// the sound modes do, the legacy heuristic deliberately does not.
    pub fn needs_exchange_safety(&self) -> bool {
        matches!(
            self.mode,
            DominanceMode::ConvGated | DominanceMode::Margin { .. }
        )
    }
}

impl PrunePolicy for DominancePolicy {
    fn name(&self) -> &'static str {
        "dominance"
    }

    fn discards(
        &self,
        keeper: &LabelView<'_>,
        candidate: &LabelView<'_>,
        exchange_safe: bool,
    ) -> bool {
        match self.mode {
            DominanceMode::Off => false,
            // Legacy behaviour: weak first-order dominance, no exchange
            // check (its miss is part of the documented drift tolerance).
            DominanceMode::FirstOrder => dominates_with_margin_shifted_views(
                &keeper.hist,
                keeper.offset,
                &candidate.hist,
                candidate.offset,
                0.0,
            ),
            DominanceMode::ConvGated => {
                exchange_safe
                    && keeper.certified
                    && candidate.certified
                    && (same_lattice(keeper, candidate) || supports_disjoint(keeper, candidate))
                    && dominates_with_margin_shifted_views(
                        &keeper.hist,
                        keeper.offset,
                        &candidate.hist,
                        candidate.offset,
                        0.0,
                    )
            }
            DominanceMode::Margin { .. } => {
                exchange_safe
                    && dominates_with_margin_shifted_views(
                        &keeper.hist,
                        keeper.offset,
                        &candidate.hist,
                        candidate.offset,
                        self.eps,
                    )
            }
        }
    }
}

/// Float tolerance for the structural lattice comparisons below.
const LATTICE_TIE: f64 = 1e-9;

/// `true` when the two labels' (offset-translated) histograms live on the
/// identical bucket lattice: same support start, width and bucket count.
/// For such a pair, every certified extension applies one *common*
/// grid-alignment + convolution + cap-re-bin operator, which is
/// CDF-monotone — the precondition of the gated mode's exactness proof.
fn same_lattice(a: &LabelView<'_>, b: &LabelView<'_>) -> bool {
    (a.offset + a.hist.start() - (b.offset + b.hist.start())).abs() <= LATTICE_TIE
        && (a.hist.width() - b.hist.width()).abs() <= LATTICE_TIE
        && a.hist.num_bins() == b.hist.num_bins()
}

/// `true` when `a`'s support ends before `b`'s begins: `a`'s extensions
/// stay entirely ahead of `b`'s under any mass- and support-preserving
/// operator, so the order survives re-binning of either side.
fn supports_disjoint(a: &LabelView<'_>, b: &LabelView<'_>) -> bool {
    a.offset + a.hist.end() <= b.offset + b.hist.start() + LATTICE_TIE
}

/// `true` when `keeper` can legally take every first hop `candidate`
/// could from `vertex`: both labels entered from the same predecessor, or
/// no out-edge returns to the keeper's predecessor (so the U-turn rule
/// bans the keeper from nothing the candidate was allowed).
///
/// This is the *reference* form. The engine no longer calls it per
/// comparison: it stores [`uturn_free`] in each label's Pareto entry when
/// the label is created and decides safety as `same predecessor ||
/// keeper's flag`. A unit test below pins the two equal on every
/// `(vertex, predecessor)` pair of the scenario-matrix topologies, and a
/// debug assertion in the engine re-checks every pair the search meets.
pub fn exchange_safe(
    g: &RoadGraph,
    vertex: NodeId,
    keeper_prev: NodeId,
    candidate_prev: NodeId,
) -> bool {
    keeper_prev == candidate_prev || g.out_edges(vertex).all(|(_, head)| head != keeper_prev)
}

/// `true` when no out-edge of `vertex` returns to `prev`: a label that
/// entered `vertex` from `prev` is banned from nothing by the U-turn
/// rule (one-way approaches, dead ends), so it may stand in for a label
/// from any other predecessor. The per-label half of [`exchange_safe`].
pub fn uturn_free(g: &RoadGraph, vertex: NodeId, prev: NodeId) -> bool {
    g.out_edges(vertex).all(|(_, head)| head != prev)
}

/// Per-edge certificate that **every** search extension of a label whose
/// last edge is `e` combines by convolution, no matter what distribution
/// the label carries.
///
/// Built in two steps:
///
/// 1. *Pair certificates*: for each consecutive edge pair `(e, e')`, the
///    gate classifier's interval bounds
///    (`DependenceClassifier::prob_dependent_bounds`)
///    over all possible pre-distributions prove the gate picks
///    convolution, or fail to.
/// 2. *Greatest fixpoint*: `all_conv[e]` holds iff every U-turn-free
///    out-pair of `e` is pair-certified **and** its continuation is
///    certified too. Computed by iterating the conjunction to a fixed
///    point (initialising everything to `true`), which conservatively
///    quantifies over unbounded walks — target- and budget-independent,
///    so one certificate serves every query against the cost oracle.
#[derive(Clone, Debug)]
pub struct ConvCertificate {
    all_conv: Vec<bool>,
}

impl ConvCertificate {
    /// Computes the certificate for a cost oracle.
    pub fn compute(cost: &HybridCost) -> Self {
        let g = cost.graph();
        let ne = g.num_edges();
        match cost.policy {
            CombinePolicy::AlwaysConvolve => ConvCertificate {
                all_conv: vec![true; ne],
            },
            CombinePolicy::AlwaysEstimate => {
                Self::fixpoint(g, |_, _| false)
            }
            CombinePolicy::Hybrid => {
                let model = cost.model();
                Self::fixpoint(g, |e, e2| {
                    let partial = pair_features_partial(g, e, e2, cost.marginal(e2));
                    model.classifier.certifies_convolution(&partial)
                })
            }
        }
    }

    /// Greatest fixpoint of the per-pair certificate over the edge graph.
    fn fixpoint(g: &RoadGraph, pair_certified: impl Fn(EdgeId, EdgeId) -> bool) -> Self {
        let ne = g.num_edges();
        // Successor pairs with their (expensive) pair certificate, built
        // once; the fixpoint loop below only reads booleans.
        let mut succs: Vec<Vec<(usize, bool)>> = Vec::with_capacity(ne);
        for e in g.edge_ids() {
            let tail = g.edge_source(e);
            let head = g.edge_target(e);
            let mut out = Vec::new();
            for (e2, h2) in g.out_edges(head) {
                if h2 == tail {
                    continue; // the search never takes immediate U-turns
                }
                out.push((e2.index(), pair_certified(e, e2)));
            }
            succs.push(out);
        }

        let mut all_conv = vec![true; ne];
        loop {
            let mut changed = false;
            for (i, out) in succs.iter().enumerate() {
                if !all_conv[i] {
                    continue;
                }
                if !out.iter().all(|&(j, ok)| ok && all_conv[j]) {
                    all_conv[i] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        ConvCertificate { all_conv }
    }

    /// Whether every search extension from `e` is certified to convolve.
    pub fn certified(&self, e: EdgeId) -> bool {
        self.all_conv[e.index()]
    }

    /// Number of certified edges (diagnostic).
    pub fn num_certified(&self) -> usize {
        self.all_conv.iter().filter(|&&b| b).count()
    }

    /// Total number of edges covered.
    pub fn len(&self) -> usize {
        self.all_conv.len()
    }

    /// `true` when no edge is covered (empty graph).
    pub fn is_empty(&self) -> bool {
        self.all_conv.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CombinePolicy;
    use crate::model::training::{train_hybrid, TrainingConfig};
    use crate::HybridModel;
    use srt_dist::Histogram;
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

    fn hist(start: f64, probs: &[f64]) -> Histogram {
        Histogram::new(start, 1.0, probs.to_vec()).unwrap()
    }

    fn ctx<'a>(h: &'a Histogram, budget: f64, remaining: f64, best: f64) -> PruneCtx<'a> {
        PruneCtx {
            budget_s: budget,
            remaining_s: remaining,
            offset: 0.0,
            hist: h.view(),
            incumbent_prob: best,
            certified: false,
            envelope: None,
            next_span_lb: 0.0,
        }
    }

    #[test]
    fn budget_gate_drops_only_infeasible_labels() {
        let h = hist(10.0, &[0.5, 0.5]);
        let gate = BudgetGate { enabled: true };
        // Best case arrival 10 + remaining 5 = 15.
        assert!(gate.admits(&ctx(&h, 16.0, 5.0, 0.0)));
        assert!(!gate.admits(&ctx(&h, 15.0, 5.0, 0.0)), "equality has cdf 0");
        assert!(!gate.admits(&ctx(&h, 10.0, 5.0, 0.0)));
        let off = BudgetGate { enabled: false };
        assert!(off.admits(&ctx(&h, 0.0, 5.0, 0.0)));
        assert_eq!(gate.name(), "budget-gate");
    }

    #[test]
    fn bound_modes_order_and_prune_as_documented() {
        let h = hist(10.0, &[0.5, 0.5]);
        let c = ctx(&h, 11.0, 0.0, 0.4); // cdf(11) = 0.5
        let optimistic = BoundPolicy {
            mode: BoundMode::Optimistic,
        };
        assert!((optimistic.upper_bound(&c) - 0.5).abs() < 1e-12);
        assert!(optimistic.admits(&c));
        let beaten = ctx(&h, 11.0, 0.0, 0.5);
        assert!(!optimistic.admits(&beaten), "ties are pruned");

        // Certified mode without the certificate: the bound is trivial.
        let certified = BoundPolicy {
            mode: BoundMode::Certified,
        };
        assert_eq!(certified.upper_bound(&beaten), 1.0);
        assert!(certified.admits(&beaten));
        let mut with_cert = ctx(&h, 11.0, 0.0, 0.5);
        with_cert.certified = true;
        assert!((certified.upper_bound(&with_cert) - 0.5).abs() < 1e-12);
        assert!(!certified.admits(&with_cert));
        // Infeasible + uncertified: bound collapses to zero.
        let infeasible = ctx(&h, 9.0, 0.0, 0.0);
        assert_eq!(certified.upper_bound(&infeasible), 0.0);

        let off = BoundPolicy { mode: BoundMode::Off };
        assert!(off.admits(&beaten));
        assert!(!off.prunes());
        assert!((off.upper_bound(&c) - 0.5).abs() < 1e-12, "still orders");
    }

    #[test]
    fn certified_envelope_bound_is_sharp_where_the_envelope_is() {
        use crate::model::SupportEnvelope;
        let envelope = SupportEnvelope::from_bounds(vec![0.0, 0.2, 0.5, 1.0], 10);
        let policy = BoundPolicy {
            mode: BoundMode::CertifiedEnvelope,
        };

        // An uncertified label with an envelope: the bound is the max of
        // the CDF case and the envelope case. hist on [10, 12), budget
        // slack 11, next combine adds >= 1s of span: the last estimator
        // output spans >= 3s starting >= 10, so the budget reaches
        // fraction (11 - 10) / 3 of it — env(1/3) = 0.2; the CDF case is
        // cdf(11) = 0.5, which dominates here.
        let h = hist(10.0, &[0.5, 0.5]);
        let mut c = ctx(&h, 11.0, 0.0, 0.0);
        c.envelope = Some(&envelope);
        c.next_span_lb = 1.0;
        assert!((policy.upper_bound(&c) - 0.5).abs() < 1e-12);

        // A back-loaded label whose own CDF is still zero at the slack:
        // only the envelope case binds — strictly below the trivial 1.0
        // the plain certified mode would fall back to. hist on [10, 12)
        // with all mass in [11, 12); slack 10.8 gives cdf 0, while the
        // envelope admits an estimator front-loading mass at fraction
        // (10.8 - 10) / (2 + 1) = 0.2667 of the final support:
        // env(0.8 / 3) interpolates to 0.8 * 0.2 = 0.16.
        let late = hist(10.0, &[0.0, 1.0]);
        let mut c = ctx(&late, 10.8, 0.0, 0.0);
        c.envelope = Some(&envelope);
        c.next_span_lb = 1.0;
        assert_eq!(late.cdf(10.8), 0.0);
        let ub = policy.upper_bound(&c);
        assert!((ub - 0.16).abs() < 1e-12, "ub {ub}");
        assert!(ub < 1.0, "sharper than the certified fallback");

        // The certificate short-circuits to the exact CDF bound.
        let mut cert = ctx(&h, 11.0, 0.0, 0.0);
        cert.certified = true;
        cert.envelope = Some(&envelope);
        assert!((policy.upper_bound(&cert) - 0.5).abs() < 1e-12);

        // Infeasible slack: zero either way.
        let mut dead = ctx(&h, 9.0, 0.0, 0.0);
        dead.envelope = Some(&envelope);
        dead.next_span_lb = 1.0;
        assert_eq!(policy.upper_bound(&dead), 0.0);

        // Without a persisted envelope the mode degrades to Certified.
        let bare = ctx(&h, 11.0, 0.0, 0.0);
        assert_eq!(policy.upper_bound(&bare), 1.0);
    }

    #[test]
    fn dominance_modes_differ_exactly_where_designed() {
        let fast = hist(0.0, &[0.6, 0.4]);
        let slow = hist(0.0, &[0.4, 0.6]);
        let keeper = LabelView {
            offset: 0.0,
            hist: fast.view(),
            certified: true,
        };
        let candidate = LabelView {
            offset: 0.0,
            hist: slow.view(),
            certified: true,
        };
        let first = DominancePolicy::resolve(DominanceMode::FirstOrder, None);
        let gated = DominancePolicy::resolve(DominanceMode::ConvGated, None);
        let off = DominancePolicy::resolve(DominanceMode::Off, None);

        assert!(first.discards(&keeper, &candidate, false), "legacy ignores exchange safety");
        assert!(gated.discards(&keeper, &candidate, true));
        assert!(!gated.discards(&keeper, &candidate, false), "gated respects exchange safety");
        assert!(!off.discards(&keeper, &candidate, true));
        assert!(!first.discards(&candidate, &keeper, true), "order matters");

        // Gated requires the certificate on both sides.
        let uncertified = LabelView {
            certified: false,
            ..candidate
        };
        assert!(!gated.discards(&keeper, &uncertified, true));

        // Gated requires a shared lattice or disjoint supports: a
        // dominated label on a *different* grid is kept (re-binning two
        // grids is not dominance-monotone), unless it is entirely later.
        let slow_offgrid = hist(0.25, &[0.4, 0.6]);
        let offgrid = LabelView {
            offset: 0.0,
            hist: slow_offgrid.view(),
            certified: true,
        };
        assert!(!gated.discards(&keeper, &offgrid, true), "off-lattice pair must be kept");
        assert!(first.discards(&keeper, &offgrid, true), "legacy still prunes it");
        let far = hist(10.0, &[1.0]);
        let disjoint = LabelView {
            offset: 0.0,
            hist: far.view(),
            certified: true,
        };
        assert!(gated.discards(&keeper, &disjoint, true), "disjoint supports are safe");

        // Margin: resolved from an explicit eps; the 0.2 CDF gap decides.
        let narrow = DominancePolicy::resolve(DominanceMode::Margin { eps: Some(0.1) }, None);
        let wide = DominancePolicy::resolve(DominanceMode::Margin { eps: Some(0.3) }, None);
        assert!(narrow.discards(&keeper, &candidate, true));
        assert!(!narrow.discards(&keeper, &candidate, false));
        assert!(!wide.discards(&keeper, &candidate, true));
    }

    #[test]
    fn margin_eps_resolution_prefers_explicit_then_calibration() {
        let cal = DominanceCalibration {
            margin_eps: 0.25,
            lipschitz: 1.0,
            max_violation: 0.2,
            n_probes: 3,
        };
        let explicit =
            DominancePolicy::resolve(DominanceMode::Margin { eps: Some(0.05) }, Some(&cal));
        assert_eq!(explicit.eps(), 0.05);
        let calibrated = DominancePolicy::resolve(DominanceMode::Margin { eps: None }, Some(&cal));
        assert_eq!(calibrated.eps(), 0.25);
        let unknown = DominancePolicy::resolve(DominanceMode::Margin { eps: None }, None);
        assert_eq!(unknown.eps(), f64::INFINITY, "uncalibrated = conservative");
        // Non-margin modes carry no margin.
        assert_eq!(DominancePolicy::resolve(DominanceMode::FirstOrder, Some(&cal)).eps(), 0.0);
    }

    #[test]
    fn exchange_safety_matches_the_uturn_rule() {
        use srt_graph::{EdgeAttrs, GraphBuilder, Point, RoadCategory};
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(10.0, 56.0));
        let v = b.add_node(Point::new(10.01, 56.0));
        let c = b.add_node(Point::new(10.02, 56.0));
        let d = b.add_node(Point::new(10.01, 56.01));
        let attrs = EdgeAttrs::new(500.0, RoadCategory::Residential, 50.0);
        b.add_edge(a, v, attrs); // into v from a
        b.add_edge(v, a, attrs); // U-turn edge back to a
        b.add_edge(c, v, attrs); // into v from c (no edge back to c)
        b.add_edge(v, d, attrs);
        let g = b.build();

        // Same predecessor: always safe.
        assert!(exchange_safe(&g, v, a, a));
        // Keeper came from a, candidate from c: v→a exists and the
        // candidate may take it while the keeper may not — unsafe.
        assert!(!exchange_safe(&g, v, a, c));
        // Keeper came from c: no edge v→c, the keeper is banned from
        // nothing — safe.
        assert!(exchange_safe(&g, v, c, a));
    }

    /// The flag the engine stores per label against the reference it
    /// replaced per comparison: for every vertex `v` and every
    /// predecessor `p` a label can enter it from, `uturn_free(v, p)` must
    /// equal `exchange_safe(v, p, q)` for every *other* predecessor `q`
    /// (for `q == p` the engine's `same predecessor ||` clause answers,
    /// as the reference's does). Checked on the oracle suite's four
    /// scenario-matrix networks — all two-way, so the flag is `false`
    /// everywhere there — and on a hand-built junction with a one-way
    /// approach and a dead end, where it is `true`.
    #[test]
    fn stored_uturn_flag_matches_the_exchange_safety_reference() {
        use srt_graph::{EdgeAttrs, GraphBuilder, Point, RoadCategory};
        use srt_synth::{generate_network, NetworkConfig, Topology};

        fn check(g: &RoadGraph) -> (usize, usize) {
            let (mut free, mut banned) = (0, 0);
            for v in g.node_ids() {
                for (_, p) in g.in_edges(v) {
                    let flag = uturn_free(g, v, p);
                    if flag {
                        free += 1;
                    } else {
                        banned += 1;
                    }
                    for q in g.node_ids().filter(|&q| q != p) {
                        assert_eq!(flag, exchange_safe(g, v, p, q), "v={v:?} p={p:?} q={q:?}");
                    }
                    assert!(exchange_safe(g, v, p, p));
                }
            }
            (free, banned)
        }

        let grid = |seed, width, height| NetworkConfig {
            width,
            height,
            thinning: 0.0,
            seed,
            ..NetworkConfig::default()
        };
        let wheel = NetworkConfig {
            topology: Topology::HubAndSpoke {
                hubs: 3,
                spokes: 2,
                spoke_len: 2,
            },
            thinning: 0.0,
            seed: 31,
            ..NetworkConfig::default()
        };
        for cfg in [grid(11, 4, 3), grid(23, 3, 4), wheel, grid(47, 3, 4)] {
            let (free, banned) = check(&generate_network(&cfg));
            assert_eq!(free, 0, "the scenario networks are two-way throughout");
            assert!(banned > 0);
        }

        // a <-> v two-way, c -> v one-way, v -> d into a dead end.
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(10.0, 56.0));
        let v = b.add_node(Point::new(10.01, 56.0));
        let c = b.add_node(Point::new(10.02, 56.0));
        let d = b.add_node(Point::new(10.01, 56.01));
        let attrs = EdgeAttrs::new(500.0, RoadCategory::Residential, 50.0);
        b.add_edge(a, v, attrs);
        b.add_edge(v, a, attrs);
        b.add_edge(c, v, attrs);
        b.add_edge(v, d, attrs);
        let g = b.build();
        assert_eq!(check(&g), (2, 2));
        assert!(uturn_free(&g, v, c), "one-way approach: nothing to ban");
        assert!(uturn_free(&g, d, v), "dead end: no out-edge at all");
        assert!(!uturn_free(&g, v, a));
        assert!(!uturn_free(&g, a, v));
    }

    #[test]
    fn certificate_is_total_for_convolution_and_empty_for_estimation() {
        let (world, model) = fixture();
        let conv = HybridCost::from_ground_truth(world, model, CombinePolicy::AlwaysConvolve);
        let cert = ConvCertificate::compute(&conv);
        assert_eq!(cert.num_certified(), cert.len());
        assert_eq!(cert.len(), world.graph.num_edges());

        let est = HybridCost::from_ground_truth(world, model, CombinePolicy::AlwaysEstimate);
        let cert = ConvCertificate::compute(&est);
        // Only dead-end edges (no U-turn-free continuation) are vacuously
        // certified.
        for e in world.graph.edge_ids() {
            let head = world.graph.edge_target(e);
            let tail = world.graph.edge_source(e);
            let has_continuation = world.graph.out_edges(head).any(|(_, h)| h != tail);
            assert_eq!(cert.certified(e), !has_continuation, "edge {e:?}");
        }
    }

    #[test]
    fn hybrid_certificate_is_sound_against_sampled_gates() {
        let (world, model) = fixture();
        let cost = HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid);
        let cert = ConvCertificate::compute(&cost);
        let g = &world.graph;
        // Wherever the certificate claims an edge, the concrete gate must
        // pick convolution for arbitrary sampled pre-distributions on
        // every U-turn-free successor pair.
        let probes = [
            Histogram::new(5.0, 1.0, vec![1.0]).unwrap(),
            Histogram::new(40.0, 8.0, vec![0.1, 0.2, 0.3, 0.4]).unwrap(),
            Histogram::new(400.0, 30.0, vec![0.5, 0.0, 0.5]).unwrap(),
        ];
        let mut checked = 0;
        for e in g.edge_ids() {
            if !cert.certified(e) {
                continue;
            }
            let tail = g.edge_source(e);
            for (e2, h2) in g.out_edges(g.edge_target(e)) {
                if h2 == tail {
                    continue;
                }
                for pre in &probes {
                    let f = crate::model::pair_features(g, pre, e, e2, cost.marginal(e2));
                    assert!(
                        !model.classifier.use_estimation(&f),
                        "certified edge {e:?} gated to estimation on {e2:?}"
                    );
                    checked += 1;
                }
            }
        }
        // The fixture may or may not certify hybrid edges; the invariant
        // holds either way, but record coverage for the curious.
        let _ = checked;
    }
}

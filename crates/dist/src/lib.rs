//! # srt-dist — travel-time distribution algebra
//!
//! The probabilistic substrate of the hybrid stochastic-routing stack:
//! equi-width [`Histogram`]s over travel-time buckets and the operations
//! every layer above leans on.
//!
//! * [`convolve`] / [`convolve_bounded`] — the independence-assuming
//!   combination step; the bounded variant caps output buckets so
//!   routing labels stay small. Each has an in-place twin
//!   ([`convolve_into`] / [`convolve_bounded_into`]) writing into a
//!   caller-provided buffer — the allocation-free forms the routing
//!   engine's hot loop runs on,
//! * [`pool`] — [`HistogramPool`] / [`HistogramBuf`], the recycled
//!   payload slab behind the in-place operators: checked-out buffers
//!   reuse retired capacity (with mint/reuse accounting, bounded and
//!   shrunk retention), so steady-state serving mints no fresh mass
//!   vectors,
//! * [`HistogramView`] — borrowed histograms (grid + borrowed masses):
//!   every read-only query (`cdf`, `quantile`, moments, dominance,
//!   envelope containment) runs on borrowed bins without cloning,
//! * [`empirical`] — fitting histograms from observed travel times,
//! * [`dominance`] — first-order stochastic dominance, the order behind
//!   pruning (d)'s per-vertex Pareto sets, plus the margin-calibrated
//!   variant ([`dominance::dominates_with_margin`]) that keeps pruning
//!   sound when the cost model is only approximately monotone,
//! * [`envelope`] — certified CDF upper bounds ([`MassEnvelope`]) that
//!   compose under `shift`, re-binning and (capped) convolution; the
//!   substrate of the router's support-aware certified pruning bound,
//! * [`kl_divergence`] / [`total_variation`] / [`wasserstein1`] — the
//!   divergences used to label edge-pair dependence and score the
//!   estimation model against ground truth.
//!
//! Semantics: bucket `i` of a histogram covers
//! `[start + i*width, start + (i+1)*width)`; mass is uniform within a
//! bucket, so the CDF is piecewise linear and the mean sits at bucket
//! centres. Convolution follows the paper's discrete bucket-index
//! treatment, which keeps its worked example exact.
//!
//! # Kernels and the bit-identity contract
//!
//! The hot inner loops (convolution multiply-accumulate, the fused
//! accumulate-and-cap, the closed-form capped mixed-width convolution,
//! CDF/quantile/moment scans) run as chunked, branch-free kernels. Every kernel is
//! **bit-for-bit identical** to the retained scalar reference
//! implementation ([`mod@reference`], `#[doc(hidden)]`): the only
//! transformations used are accumulation-order-preserving (unrolling
//! across distinct output slots, chunk-granular zero skips, shared
//! redistribution bodies), and the differential suite in
//! `tests/proptest_kernels.rs` pins the claim over adversarial grids.
//! [`CdfScanner`] exposes the incremental CDF evaluation (for monotone
//! query sweeps) that the dominance and envelope checks run on, and
//! [`ConvRoute`] reports which convolution path ran — including the
//! shared-lattice fast route the engine counts as `lattice_fast_path`
//! and `DirectCapped`, the closed-form route every search convolution
//! takes (a capped mixed-width step reads its output masses straight off
//! the coarser operand's CDF instead of projecting onto the finer
//! lattice; same output grid to the bit, CDF within a derived bound of
//! the projecting pipeline — see the `convolve` module docs).
//!
//! # Examples
//!
//! The paper's introductory airport table — the on-time probability of a
//! path is one [`Histogram::cdf`] evaluation:
//!
//! ```
//! use srt_dist::Histogram;
//!
//! // P1 from the intro: buckets of 10 minutes from 40, masses .3/.6/.1.
//! let p1 = Histogram::new(40.0, 10.0, vec![0.3, 0.6, 0.1]).unwrap();
//! assert!((p1.cdf(60.0) - 0.9).abs() < 1e-12); // P(arrive within 60 min)
//! assert!((p1.mean() - 53.0).abs() < 1e-9);    // average travel time
//! ```
//!
//! The motivating example's convolution — combining two edges under the
//! independence assumption:
//!
//! ```
//! use srt_dist::{convolve, Histogram};
//!
//! let h1 = Histogram::from_point_masses(&[(10.0, 0.5), (15.0, 0.5)], 5.0).unwrap();
//! let h2 = Histogram::from_point_masses(&[(20.0, 0.5), (25.0, 0.5)], 5.0).unwrap();
//! let path = convolve(&h1, &h2);
//! assert_eq!(path.start(), 30.0);
//! assert!((path.prob(0) - 0.25).abs() < 1e-12);
//! assert!((path.prob(1) - 0.50).abs() < 1e-12);
//! assert!((path.prob(2) - 0.25).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dominance;
pub mod empirical;
pub mod envelope;
pub mod pool;

#[doc(hidden)]
pub mod reference;

mod convolve;
mod error;
mod histogram;
mod kernels;
mod metrics;

pub use convolve::{
    convolve, convolve_bounded, convolve_bounded_into, convolve_into, with_local_pool, ConvRoute,
};
pub use envelope::MassEnvelope;
pub use error::DistError;
pub use histogram::{Histogram, HistogramView};
pub use kernels::CdfScanner;
pub use metrics::{kl_divergence, total_variation, wasserstein1};
pub use pool::{HistogramBuf, HistogramPool, PoolStats};

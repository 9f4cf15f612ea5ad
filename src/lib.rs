//! # stochastic-routing — facade crate
//!
//! Re-exports the full hybrid stochastic-routing stack (reproduction of
//! Pedersen, Yang & Jensen, "A Hybrid Learning Approach to Stochastic
//! Routing", ICDE 2020) behind one dependency:
//!
//! * [`graph`] — road-network substrate,
//! * [`dist`] — travel-time distribution algebra,
//! * [`ml`] — learning substrate (CART trees, random forests),
//! * [`synth`] — synthetic networks, dependent trajectories, workloads,
//! * [`core`] — the hybrid model and probabilistic budget routing,
//! * [`eval`] — experiment harness reproducing the paper's tables.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

#![forbid(unsafe_code)]

pub use srt_core as core;
pub use srt_dist as dist;
pub use srt_eval as eval;
pub use srt_graph as graph;
pub use srt_ml as ml;
pub use srt_synth as synth;

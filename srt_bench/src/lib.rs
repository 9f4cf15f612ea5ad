//! `srt_bench` — the repository's benchmark.
//!
//! Four workloads, nine end-to-end metrics, a per-layer ledger taken
//! from outside through each layer's public functions and counters,
//! and a traced run. `BENCHMARK.json` at the repository root states
//! the contract; `README.md` beside this crate explains it.

#![forbid(unsafe_code)]

pub mod compare;
pub mod fixture;
pub mod layers;
pub mod report;
pub mod schema;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod wire;
pub mod workloads;

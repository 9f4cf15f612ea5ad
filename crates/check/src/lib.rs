//! `srt-check` — an exhaustive-interleaving model checker for the
//! workspace's concurrency protocols, plus the project lint pass.
//!
//! # The model checker
//!
//! The workspace's concurrent cores (the stats seqlock, the epoch
//! swap, the bounds-cache LRU, the dispatch queue) are written against
//! [`sync`], which re-exports `std::sync` types in normal builds and
//! the scheduled shims in [`shim`] under `--cfg srt_check`. Under the
//! shims, every atomic/lock operation yields to a cooperative
//! scheduler, and [`explore`] runs a closure under **every**
//! interleaving (at a preemption bound) via depth-first search —
//! turning "the stress test didn't fail" into "no schedule with ≤ N
//! preemptions fails".
//!
//! ## Writing a model
//!
//! A model is a closure that builds shared state from the shimmed
//! types, spawns threads with `sync::thread::spawn`, and asserts
//! invariants; [`check`] explores it and panics with a full report on
//! the first failing schedule:
//!
//! ```ignore
//! srt_check::check(|| {
//!     let lock = Arc::new(SeqLock::new());
//!     let t = srt_check::sync::thread::spawn({ /* writer */ });
//!     // reader asserts no torn snapshot ...
//!     t.join().unwrap();
//! });
//! ```
//!
//! Models must be deterministic apart from scheduling (same operations
//! for a given schedule) — no wall clocks, no real randomness.
//!
//! ## Replaying a failure
//!
//! A failure report carries a `replay schedule:` line — a dot-separated
//! choice seed. Feed it to [`replay`] with the same closure to re-run
//! exactly that interleaving under a debugger or with extra logging.
//!
//! ## Running the suites
//!
//! The model suites in `tests/` only compile under the cfg:
//!
//! ```text
//! RUSTFLAGS="--cfg srt_check" cargo test -p srt-check
//! ```
//!
//! The flag is a `RUSTFLAGS` cfg rather than a cargo feature on
//! purpose: feature unification would silently rebuild `srt-core` with
//! the shims for every crate in a workspace-wide `cargo test`, and the
//! default build must stay bitwise untouched.
//!
//! # The lint pass
//!
//! [`lint`] (CLI: `srt-check lint`) enforces project invariants the
//! compiler can't: poison-tolerant lock access, cast-not-libm kernels,
//! clock-free `srt-dist`, and vendored-only dependencies.
//!
//! # Unsafe policy
//!
//! Every first-party crate in this workspace carries
//! `#![forbid(unsafe_code)]`: the system is pure safe Rust, and the
//! lint/CI gates keep it that way. The checker itself needs no unsafe
//! either — model threads are real OS threads serialized by a baton
//! protocol, not user-space context switches.

#![forbid(unsafe_code)]

pub mod lint;
pub mod sched;
pub mod shim;

pub use sched::{check, explore, replay, CheckFailure, CheckOptions, ExploreReport};

/// The sync-primitive switch the instrumented crates build against.
///
/// * Default builds: re-exports of `std::sync` (and `std::thread`,
///   `std::hint::spin_loop`) — zero-cost, bitwise-identical codegen.
/// * `--cfg srt_check` builds: the scheduled shims from [`shim`], which
///   pass through to `std` outside a live exploration.
pub mod sync {
    #[cfg(not(srt_check))]
    pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

    #[cfg(not(srt_check))]
    pub mod atomic {
        pub use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
    }

    #[cfg(not(srt_check))]
    pub use std::hint::spin_loop;

    #[cfg(not(srt_check))]
    pub mod thread {
        pub use std::thread::{spawn, yield_now, JoinHandle};
    }

    #[cfg(srt_check)]
    pub use crate::shim::{
        atomic, spin_loop, thread, Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard,
        RwLockWriteGuard,
    };
}

//! Checker doubles of the `std::sync` primitives.
//!
//! Each type mirrors the `std` API shape the workspace's protocol code
//! actually uses, and routes every operation through a scheduler yield
//! point ([`crate::sched`]) **when the calling thread is a model thread
//! of a live exploration**. On any other thread the shims pass straight
//! through to `std` — so code compiled against them (via
//! [`crate::sync`] under `--cfg srt_check`) behaves identically outside
//! a model, and the non-model tests of the instrumented crates keep
//! passing under the flag.
//!
//! Two deliberate semantic liberties, both sound for checking:
//!
//! * **Memory orderings are honored but not explored.** Operations take
//!   effect atomically in scheduler order (sequential consistency);
//!   weak-memory reorderings are out of scope.
//! * **`Condvar::notify_one` wakes every waiter** under the scheduler.
//!   The condvar contract already permits spurious wakeups, so waking
//!   more threads only *adds* explored interleavings — a superset of
//!   real behaviors, never a miss.

use crate::sched::with_exec;
use std::sync::{LockResult, PoisonError, TryLockError};

/// Stable per-object key for blocking bookkeeping: the address of the
/// shim's own state (unique while the object lives, which outlives any
/// thread parked on it).
fn addr_of<T>(t: &T) -> usize {
    t as *const T as usize
}

/// A scheduler yield before a shared-memory effect; no-op outside a
/// model.
fn yield_op(op: &'static str) {
    with_exec(|exec, tid| exec.op_yield(tid, op));
}

pub use std::sync::Arc;

pub mod atomic {
    //! Atomic shims: real atomics as storage (model threads run one at
    //! a time, so any ordering is race-free), a yield point per
    //! operation.
    pub use std::sync::atomic::Ordering;

    use super::yield_op;

    /// Sequentially-consistent fence. Under the scheduler this is a
    /// no-op by construction (every shim op is already globally
    /// ordered); outside a model it is the real fence.
    pub fn fence(order: Ordering) {
        std::sync::atomic::fence(order);
    }

    macro_rules! atomic_shim {
        ($name:ident, $std:ty, $prim:ty) => {
            /// Checker double of the std atomic of the same name.
            #[derive(Default, Debug)]
            pub struct $name {
                v: $std,
            }

            impl $name {
                /// A new atomic with the given initial value.
                pub const fn new(v: $prim) -> Self {
                    Self { v: <$std>::new(v) }
                }

                /// Atomic load (one yield point).
                pub fn load(&self, order: Ordering) -> $prim {
                    yield_op(concat!(stringify!($name), "::load"));
                    self.v.load(order)
                }

                /// Atomic store (one yield point).
                pub fn store(&self, val: $prim, order: Ordering) {
                    yield_op(concat!(stringify!($name), "::store"));
                    self.v.store(val, order);
                }

                /// Atomic fetch-add (one yield point).
                pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                    yield_op(concat!(stringify!($name), "::fetch_add"));
                    self.v.fetch_add(val, order)
                }

                /// Atomic compare-exchange (one yield point).
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    yield_op(concat!(stringify!($name), "::compare_exchange"));
                    self.v.compare_exchange(current, new, success, failure)
                }

                /// Consumes the atomic, returning its value (no yield:
                /// exclusive access is already proven by the receiver).
                pub fn into_inner(self) -> $prim {
                    self.v.into_inner()
                }
            }
        };
    }

    atomic_shim!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    atomic_shim!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
}

/// Checker double of [`std::hint::spin_loop`]: under the scheduler the
/// spinning thread parks until any other thread takes a step (so
/// busy-wait retry loops stay fair and the DFS stays finite); outside a
/// model it is the real spin hint.
pub fn spin_loop() {
    let modeled = with_exec(|exec, tid| exec.block_on(tid, None, "spin_loop (yield)"));
    if modeled.is_none() {
        std::hint::spin_loop();
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Checker double of [`std::sync::Mutex`]: acquisition and release are
/// yield points; contention parks the thread with the scheduler.
pub struct Mutex<T> {
    /// Logical ownership flag. Plain storage (no yields): only the
    /// baton holder ever touches it, so check-then-act is atomic with
    /// respect to model threads.
    held: std::sync::atomic::AtomicBool,
    inner: std::sync::Mutex<T>,
}

/// Guard for the [`Mutex`] shim (wraps the real guard in both modes).
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    std: Option<std::sync::MutexGuard<'a, T>>,
    scheduled: bool,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(t: T) -> Self {
        Mutex {
            held: std::sync::atomic::AtomicBool::new(false),
            inner: std::sync::Mutex::new(t),
        }
    }

    /// Acquires the logical lock under the scheduler (parking on
    /// contention), then takes the inner guard — which never contends,
    /// because the logical layer already serialized.
    fn lock_scheduled(&self) -> std::sync::MutexGuard<'_, T> {
        use std::sync::atomic::Ordering::Relaxed;
        yield_op("Mutex::lock");
        loop {
            if !self.held.swap(true, Relaxed) {
                break;
            }
            with_exec(|exec, tid| {
                exec.block_on(tid, Some(addr_of(&self.held)), "Mutex::lock (parked)")
            });
        }
        match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                unreachable!("logical mutex held without a std holder")
            }
        }
    }

    /// Locks, parking the calling model thread on contention. Mirrors
    /// the std signature; under the scheduler the result is always
    /// `Ok` (poisoning is surfaced passthrough-only).
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if crate::sched::is_modeled() {
            Ok(MutexGuard {
                lock: self,
                std: Some(self.lock_scheduled()),
                scheduled: true,
            })
        } else {
            match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    lock: self,
                    std: Some(g),
                    scheduled: false,
                }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    std: Some(p.into_inner()),
                    scheduled: false,
                })),
            }
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_ref().expect("guard holds the inner lock")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std.as_mut().expect("guard holds the inner lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.scheduled {
            use std::sync::atomic::Ordering::Relaxed;
            if !std::thread::panicking() {
                yield_op("Mutex::unlock");
            }
            self.std = None; // release the inner lock first
            self.lock.held.store(false, Relaxed);
            with_exec(|exec, _tid| exec.wake_addr(addr_of(&self.lock.held)));
        }
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// Checker double of [`std::sync::RwLock`]: shared/exclusive admission
/// runs through the scheduler; the data still lives in a real
/// `std::sync::RwLock` so guards deref safely.
pub struct RwLock<T> {
    /// Logical reader count / writer flag (plain storage, baton-holder
    /// access only).
    readers: std::sync::atomic::AtomicUsize,
    writer: std::sync::atomic::AtomicBool,
    inner: std::sync::RwLock<T>,
}

/// Shared guard for the [`RwLock`] shim.
pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
    std: Option<std::sync::RwLockReadGuard<'a, T>>,
    scheduled: bool,
}

/// Exclusive guard for the [`RwLock`] shim.
pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
    std: Option<std::sync::RwLockWriteGuard<'a, T>>,
    scheduled: bool,
}

impl<T> RwLock<T> {
    /// A new unlocked lock.
    pub const fn new(t: T) -> Self {
        RwLock {
            readers: std::sync::atomic::AtomicUsize::new(0),
            writer: std::sync::atomic::AtomicBool::new(false),
            inner: std::sync::RwLock::new(t),
        }
    }

    /// Acquires shared access, parking while a writer holds the lock.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        use std::sync::atomic::Ordering::Relaxed;
        if crate::sched::is_modeled() {
            yield_op("RwLock::read");
            loop {
                if !self.writer.load(Relaxed) {
                    self.readers.fetch_add(1, Relaxed);
                    break;
                }
                with_exec(|exec, tid| {
                    exec.block_on(tid, Some(addr_of(&self.writer)), "RwLock::read (parked)")
                });
            }
            let std = match self.inner.try_read() {
                Ok(g) => g,
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    unreachable!("logical read admitted against a std writer")
                }
            };
            Ok(RwLockReadGuard {
                lock: self,
                std: Some(std),
                scheduled: true,
            })
        } else {
            match self.inner.read() {
                Ok(g) => Ok(RwLockReadGuard {
                    lock: self,
                    std: Some(g),
                    scheduled: false,
                }),
                Err(p) => Err(PoisonError::new(RwLockReadGuard {
                    lock: self,
                    std: Some(p.into_inner()),
                    scheduled: false,
                })),
            }
        }
    }

    /// Acquires exclusive access, parking while readers or another
    /// writer hold the lock.
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        use std::sync::atomic::Ordering::Relaxed;
        if crate::sched::is_modeled() {
            yield_op("RwLock::write");
            loop {
                if !self.writer.load(Relaxed) && self.readers.load(Relaxed) == 0 {
                    self.writer.store(true, Relaxed);
                    break;
                }
                with_exec(|exec, tid| {
                    exec.block_on(tid, Some(addr_of(&self.writer)), "RwLock::write (parked)")
                });
            }
            let std = match self.inner.try_write() {
                Ok(g) => g,
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    unreachable!("logical write admitted against std holders")
                }
            };
            Ok(RwLockWriteGuard {
                lock: self,
                std: Some(std),
                scheduled: true,
            })
        } else {
            match self.inner.write() {
                Ok(g) => Ok(RwLockWriteGuard {
                    lock: self,
                    std: Some(g),
                    scheduled: false,
                }),
                Err(p) => Err(PoisonError::new(RwLockWriteGuard {
                    lock: self,
                    std: Some(p.into_inner()),
                    scheduled: false,
                })),
            }
        }
    }
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_ref().expect("guard holds the inner lock")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.scheduled {
            use std::sync::atomic::Ordering::Relaxed;
            if !std::thread::panicking() {
                yield_op("RwLock::read_unlock");
            }
            self.std = None;
            if self.lock.readers.fetch_sub(1, Relaxed) == 1 {
                with_exec(|exec, _tid| exec.wake_addr(addr_of(&self.lock.writer)));
            }
        }
    }
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_ref().expect("guard holds the inner lock")
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std.as_mut().expect("guard holds the inner lock")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.scheduled {
            use std::sync::atomic::Ordering::Relaxed;
            if !std::thread::panicking() {
                yield_op("RwLock::write_unlock");
            }
            self.std = None;
            self.lock.writer.store(false, Relaxed);
            with_exec(|exec, _tid| exec.wake_addr(addr_of(&self.lock.writer)));
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Checker double of [`std::sync::Condvar`]. Under the scheduler,
/// release-and-park is atomic (the caller holds the baton between
/// releasing the mutex and parking), so the shim cannot itself lose a
/// wakeup; `notify_one` wakes every waiter (see the module docs).
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Park key under the scheduler.
    key: std::sync::atomic::AtomicBool,
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            key: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Releases `guard`'s mutex, parks until notified, re-acquires.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if guard.scheduled {
            let mutex = guard.lock;
            yield_op("Condvar::wait");
            // Atomic release-and-park: no yield between the two.
            use std::sync::atomic::Ordering::Relaxed;
            guard.std = None;
            guard.scheduled = false; // neutralize Drop
            mutex.held.store(false, Relaxed);
            with_exec(|exec, tid| {
                exec.wake_addr(addr_of(&mutex.held));
                exec.block_on(tid, Some(addr_of(&self.key)), "Condvar::wait (parked)");
            });
            drop(guard);
            // Notified: contend for the mutex again.
            Ok(MutexGuard {
                lock: mutex,
                std: Some(mutex.lock_scheduled()),
                scheduled: true,
            })
        } else {
            let lock = guard.lock;
            let std = guard.std.take().expect("guard holds the inner lock");
            guard.scheduled = false;
            drop(guard);
            match self.inner.wait(std) {
                Ok(g) => Ok(MutexGuard {
                    lock,
                    std: Some(g),
                    scheduled: false,
                }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    lock,
                    std: Some(p.into_inner()),
                    scheduled: false,
                })),
            }
        }
    }

    /// Wakes one waiter (every waiter under the scheduler — a sound
    /// superset, since condvars may wake spuriously anyway).
    pub fn notify_one(&self) {
        if crate::sched::is_modeled() {
            yield_op("Condvar::notify_one");
            with_exec(|exec, _tid| exec.wake_addr(addr_of(&self.key)));
        } else {
            self.inner.notify_one();
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if crate::sched::is_modeled() {
            yield_op("Condvar::notify_all");
            with_exec(|exec, _tid| exec.wake_addr(addr_of(&self.key)));
        } else {
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

pub mod thread {
    //! Thread shims: model threads register with the scheduler; spawn
    //! and join are scheduling events.

    use crate::sched::{self, with_exec};
    use std::sync::{Arc, Mutex};

    enum HandleKind<T> {
        Std(std::thread::JoinHandle<T>),
        Sched {
            tid: usize,
            slot: Arc<Mutex<Option<std::thread::Result<T>>>>,
        },
    }

    /// Join handle for a shim-spawned thread.
    pub struct JoinHandle<T> {
        kind: HandleKind<T>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish and returns its result
        /// (`Err` carries the panic payload, as in std).
        pub fn join(self) -> std::thread::Result<T> {
            match self.kind {
                HandleKind::Std(h) => h.join(),
                HandleKind::Sched { tid, slot } => {
                    with_exec(|exec, me| {
                        exec.op_yield(me, "thread::join");
                        exec.block_on_join(me, tid);
                    });
                    slot.lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .take()
                        .expect("joined thread left a result")
                }
            }
        }
    }

    /// Spawns a thread. Inside a model: registers a model thread with
    /// the scheduler (it runs only when scheduled). Outside: plain
    /// [`std::thread::spawn`].
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        if sched::is_modeled() {
            let (tid, slot) = with_exec(|exec, me| {
                let pair = sched::spawn_model_thread(exec, f);
                exec.op_yield(me, "thread::spawn");
                pair
            })
            .expect("is_modeled() implies a live execution context");
            JoinHandle {
                kind: HandleKind::Sched { tid, slot },
            }
        } else {
            JoinHandle {
                kind: HandleKind::Std(std::thread::spawn(f)),
            }
        }
    }

    /// Cooperative yield: under the scheduler, parks until any other
    /// thread takes a step; otherwise [`std::thread::yield_now`].
    pub fn yield_now() {
        let modeled = with_exec(|exec, tid| exec.block_on(tid, None, "thread::yield_now"));
        if modeled.is_none() {
            std::thread::yield_now();
        }
    }
}

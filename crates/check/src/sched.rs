//! The cooperative scheduler and DFS interleaving explorer.
//!
//! # How an execution runs
//!
//! A *model* is a closure that spawns threads through
//! [`crate::shim::thread::spawn`] and exercises shared state built from
//! the [`crate::shim`] primitives. Every shim operation (atomic
//! load/store/rmw, lock acquire/release, condvar wait/notify, spawn,
//! join) calls into this module at a **yield point** before it takes
//! effect. At a yield point exactly one model thread holds the *baton*;
//! it consults the schedule to decide which runnable thread executes
//! next, hands the baton over if needed, and parks until its own next
//! turn. Model threads are real OS threads, but at most one is ever
//! running model code — which is what makes the exploration
//! deterministic and data-race-free by construction.
//!
//! The interleaving semantics explored are **sequentially consistent**:
//! every shim operation takes effect atomically at its yield point, in
//! the order the scheduler chose. Weak-memory reorderings are out of
//! scope (the workspace's protocols are `SeqCst`/acquire-release
//! shaped; what kills them in practice is interleaving logic, which is
//! exactly what this explorer enumerates).
//!
//! # How the exploration runs
//!
//! [`explore`] runs the model under depth-first search over scheduling
//! decisions: each execution replays a prefix of recorded choices and
//! extends it greedily (the default at every new choice point is
//! "continue the current thread"), then backtracks to the deepest
//! choice point with an untried alternative. Switching away from a
//! thread that could have continued costs one unit of the *preemption
//! budget* ([`CheckOptions::max_preemptions`]); forced switches (the
//! current thread blocked or finished) are free. Bounding preemptions
//! is the classic state-space lever: almost all concurrency bugs
//! manifest within two or three preemptions, while the bound keeps the
//! schedule count polynomial instead of exponential.
//!
//! A failed execution (assertion panic, deadlock, or livelock via the
//! depth cap) aborts the search and returns a [`CheckFailure`] carrying
//! the event trace and a **schedule seed** — the dot-separated choice
//! string. [`replay`] re-runs exactly that schedule, turning any
//! explorer finding into a deterministic unit reproduction.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// Exploration limits. The defaults aim at protocol cores of a handful
/// of threads with a dozen shim operations each — every model suite in
/// `tests/` completes exhaustively well inside them.
#[derive(Copy, Clone, Debug)]
pub struct CheckOptions {
    /// Voluntary context switches allowed per execution (switches away
    /// from a thread that could have continued). Forced switches are
    /// always free. Default: 3.
    pub max_preemptions: usize,
    /// Cap on executions before the exploration gives up and reports
    /// `complete: false`. Default: 500 000.
    pub max_iterations: u64,
    /// Cap on yield points within one execution; exceeding it fails the
    /// execution as a livelock. Default: 20 000.
    pub max_depth: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_preemptions: 3,
            max_iterations: 500_000,
            max_depth: 20_000,
        }
    }
}

impl CheckOptions {
    /// Options with a specific preemption budget.
    pub fn with_preemptions(max_preemptions: usize) -> Self {
        CheckOptions {
            max_preemptions,
            ..Default::default()
        }
    }
}

/// Summary of a completed (non-failing) exploration.
#[derive(Copy, Clone, Debug)]
pub struct ExploreReport {
    /// Executions (distinct schedules) run.
    pub executions: u64,
    /// `true` when the schedule space at the preemption bound was
    /// exhausted; `false` when [`CheckOptions::max_iterations`] cut the
    /// search short.
    pub complete: bool,
}

/// A schedule under which the model failed, with everything needed to
/// reproduce it.
#[derive(Clone, Debug)]
pub struct CheckFailure {
    /// The panic payload, deadlock, or livelock description.
    pub message: String,
    /// Human-readable event trace of the failing execution: one line
    /// per yield point, `step: t<tid> <operation>`.
    pub trace: String,
    /// The schedule seed — feed to [`replay`] to reproduce.
    pub schedule: String,
    /// Executions run before the failure surfaced.
    pub executions: u64,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "model failed after {} execution(s): {}",
            self.executions, self.message
        )?;
        writeln!(f, "replay schedule: {}", self.schedule)?;
        write!(f, "failing interleaving:\n{}", self.trace)
    }
}

/// Why a thread is not currently runnable.
#[derive(Copy, Clone, PartialEq, Debug)]
enum Blocked {
    /// Runnable.
    No,
    /// Spun/yielded: runnable again once any *other* thread takes a
    /// step (prevents busy-wait loops from diverging the search).
    Yielded,
    /// Parked on a resource (mutex, rwlock, or condvar), keyed by the
    /// resource's address.
    Addr(usize),
    /// Waiting for the given thread id to finish.
    Join(usize),
    /// Finished.
    Done,
}

/// One recorded scheduling decision.
#[derive(Copy, Clone, Debug)]
struct ChoiceRec {
    /// Number of options that were on the table.
    options: usize,
    /// Index chosen (0 = the greedy default).
    chosen: usize,
}

struct TraceEv {
    tid: usize,
    op: &'static str,
}

struct ExecInner {
    /// The thread currently holding the baton.
    active: usize,
    blocked: Vec<Blocked>,
    /// Unfinished model threads.
    live: usize,
    /// OS threads still attached to this execution (controller gate).
    os_live: usize,
    /// Choice indices to replay, then extend greedily.
    prefix: Vec<usize>,
    pos: usize,
    choices: Vec<ChoiceRec>,
    preemptions: usize,
    steps: usize,
    trace: Vec<TraceEv>,
    failure: Option<String>,
    aborting: bool,
    opts: CheckOptions,
}

/// One execution's shared coordination state.
pub(crate) struct Exec {
    inner: Mutex<ExecInner>,
    cv: Condvar,
}

std::thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Exec>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The sentinel payload used to unwind model threads out of an aborted
/// execution (first failure wins; everyone else tears down silently).
struct AbortExecution;

fn abort_unwind() -> ! {
    std::panic::panic_any(AbortExecution)
}

/// Silences the default panic printer for [`AbortExecution`] unwinds
/// (they are bookkeeping, not failures) while leaving every other panic
/// untouched. Installed once per process.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<AbortExecution>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Runs `f` with the calling thread's execution context, if the thread
/// is a model thread of a live exploration. Returns `None` (and runs
/// nothing) on ordinary threads — the shims' passthrough signal.
pub(crate) fn with_exec<R>(f: impl FnOnce(&Arc<Exec>, usize) -> R) -> Option<R> {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        borrow.as_ref().map(|(exec, tid)| f(exec, *tid))
    })
}

/// True when the calling thread is a model thread under exploration.
pub fn is_modeled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

impl Exec {
    fn new(opts: CheckOptions, prefix: Vec<usize>) -> Arc<Self> {
        Arc::new(Exec {
            inner: Mutex::new(ExecInner {
                active: 0,
                blocked: vec![Blocked::No],
                live: 1,
                os_live: 1,
                prefix,
                pos: 0,
                choices: Vec::new(),
                preemptions: 0,
                steps: 0,
                trace: Vec::new(),
                failure: None,
                aborting: false,
                opts,
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ExecInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records a failure (first one wins) and begins teardown: every
    /// parked thread is woken into an [`AbortExecution`] unwind.
    fn fail_locked(&self, g: &mut ExecInner, message: String) {
        if g.failure.is_none() {
            g.failure = Some(message);
        }
        g.aborting = true;
        self.cv.notify_all();
    }

    /// The scheduling decision at a yield point: collect runnable
    /// threads, consult the schedule prefix (extending greedily), hand
    /// the baton over. `self_runnable` is false when the caller just
    /// blocked/finished (a forced, budget-free switch).
    ///
    /// Returns `true` if the caller keeps the baton, `false` if it must
    /// park (the caller then waits for `active == tid`).
    fn pick_next_locked(&self, g: &mut ExecInner, tid: usize, self_runnable: bool) -> bool {
        if g.live == 0 {
            // Execution complete; release the controller.
            self.cv.notify_all();
            return false;
        }
        let mut options: Vec<usize> = Vec::new();
        if self_runnable {
            options.push(tid); // index 0: continue, free
        }
        let budget_left = g.preemptions < g.opts.max_preemptions;
        if !self_runnable || budget_left {
            options.extend(
                g.blocked
                    .iter()
                    .enumerate()
                    .filter(|&(i, b)| i != tid && *b == Blocked::No)
                    .map(|(i, _)| i),
            );
        }
        if options.is_empty() {
            // Maybe the remaining threads merely yielded (spin loops):
            // promote them back to runnable and retry the pick. A lone
            // spinner promotes itself — its yield degrades to a no-op.
            let mut promoted_other = false;
            let mut promoted_self = false;
            for (i, b) in g.blocked.iter_mut().enumerate() {
                if *b == Blocked::Yielded {
                    *b = Blocked::No;
                    if i == tid {
                        promoted_self = true;
                    } else {
                        promoted_other = true;
                    }
                }
            }
            if promoted_other || promoted_self {
                return self.pick_next_locked(g, tid, self_runnable || promoted_self);
            }
            let states: Vec<String> = g
                .blocked
                .iter()
                .enumerate()
                .map(|(i, b)| format!("t{i}:{b:?}"))
                .collect();
            self.fail_locked(
                g,
                format!("deadlock: no runnable thread [{}]", states.join(" ")),
            );
            return false;
        }
        let idx = if g.pos < g.prefix.len() {
            g.prefix[g.pos].min(options.len() - 1)
        } else {
            0
        };
        g.pos += 1;
        g.choices.push(ChoiceRec {
            options: options.len(),
            chosen: idx,
        });
        let next = options[idx];
        if self_runnable && next != tid {
            g.preemptions += 1;
        }
        if next == tid {
            return true;
        }
        g.active = next;
        self.cv.notify_all();
        false
    }

    /// Parks the caller until it holds the baton again (or the
    /// execution aborts, in which case this unwinds).
    fn wait_for_baton(&self, mut g: std::sync::MutexGuard<'_, ExecInner>, tid: usize) {
        while g.active != tid && !g.aborting {
            g = self
                .cv
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if g.aborting {
            drop(g);
            abort_unwind();
        }
    }

    /// The yield point every shim operation passes through before its
    /// effect: trace the op, un-yield spinners, make a scheduling
    /// decision.
    pub(crate) fn op_yield(self: &Arc<Self>, tid: usize, op: &'static str) {
        if std::thread::panicking() {
            // Mid-unwind (a guard Drop): take no scheduling step — the
            // wrapper will record the failure; switching threads here
            // risks a double panic.
            return;
        }
        let mut g = self.lock();
        if g.aborting {
            drop(g);
            abort_unwind();
        }
        if g.active != tid {
            // A freshly spawned thread racing ahead of its first
            // scheduling turn: park until picked.
            self.wait_for_baton(g, tid);
            g = self.lock();
            if g.aborting {
                drop(g);
                abort_unwind();
            }
        }
        g.steps += 1;
        g.trace.push(TraceEv { tid, op });
        if g.steps > g.opts.max_depth {
            let message = format!(
                "livelock: schedule exceeded {} yield points without finishing",
                g.opts.max_depth
            );
            self.fail_locked(&mut g, message);
            drop(g);
            abort_unwind();
        }
        // This thread is taking a step: spinners get another turn.
        for (i, b) in g.blocked.iter_mut().enumerate() {
            if i != tid && *b == Blocked::Yielded {
                *b = Blocked::No;
            }
        }
        if !self.pick_next_locked(&mut g, tid, true) {
            self.wait_for_baton(g, tid);
        }
    }

    /// Parks the caller as blocked (`why`), hands the baton to someone
    /// runnable, and returns once a waker marked the caller runnable
    /// and the scheduler picked it again.
    pub(crate) fn block_on(
        self: &Arc<Self>,
        tid: usize,
        why_addr: Option<usize>,
        op: &'static str,
    ) {
        if std::thread::panicking() {
            return;
        }
        let mut g = self.lock();
        if g.aborting {
            drop(g);
            abort_unwind();
        }
        g.trace.push(TraceEv { tid, op });
        g.blocked[tid] = match why_addr {
            Some(a) => Blocked::Addr(a),
            None => Blocked::Yielded,
        };
        if self.pick_next_locked(&mut g, tid, false) {
            // Lone spinner promoted back to runnable: the yield is a
            // no-op and the caller keeps the baton.
            return;
        }
        self.wait_for_baton(g, tid);
    }

    /// Blocks the caller until thread `target` finishes.
    pub(crate) fn block_on_join(self: &Arc<Self>, tid: usize, target: usize) {
        loop {
            if std::thread::panicking() {
                return;
            }
            let mut g = self.lock();
            if g.aborting {
                drop(g);
                abort_unwind();
            }
            if g.blocked[target] == Blocked::Done {
                return;
            }
            g.trace.push(TraceEv {
                tid,
                op: "thread::join (parked)",
            });
            g.blocked[tid] = Blocked::Join(target);
            if !self.pick_next_locked(&mut g, tid, false) {
                self.wait_for_baton(g, tid);
            }
        }
    }

    /// Marks every thread parked on `addr` runnable (they contend again
    /// when scheduled). Called with the baton held; the caller's next
    /// yield point gives them their chance.
    pub(crate) fn wake_addr(self: &Arc<Self>, addr: usize) {
        let mut g = self.lock();
        for b in g.blocked.iter_mut() {
            if *b == Blocked::Addr(addr) {
                *b = Blocked::No;
            }
        }
    }

    /// Registers a new model thread; returns its tid.
    pub(crate) fn register_thread(self: &Arc<Self>) -> usize {
        let mut g = self.lock();
        let tid = g.blocked.len();
        g.blocked.push(Blocked::No);
        g.live += 1;
        g.os_live += 1;
        tid
    }

    /// The calling model thread is done (normally or by abort).
    /// `payload` carries a model panic to record as the failure.
    fn thread_exit(self: &Arc<Self>, tid: usize, payload: Option<String>) {
        let mut g = self.lock();
        g.blocked[tid] = Blocked::Done;
        g.live -= 1;
        // Wake joiners.
        for b in g.blocked.iter_mut() {
            if *b == Blocked::Join(tid) {
                *b = Blocked::No;
            }
        }
        if let Some(message) = payload {
            self.fail_locked(&mut g, message);
        } else if !g.aborting && g.active == tid {
            // Hand the baton on (forced, free) — unless the execution
            // is over, in which case pick_next releases the controller.
            self.pick_next_locked(&mut g, tid, false);
        }
        g.os_live -= 1;
        self.cv.notify_all();
    }

    /// Render the recorded trace.
    fn render_trace(g: &ExecInner) -> String {
        g.trace
            .iter()
            .enumerate()
            .map(|(i, ev)| format!("  {:>4}: t{} {}", i, ev.tid, ev.op))
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn schedule_string(g: &ExecInner) -> String {
        g.choices
            .iter()
            .map(|c| c.chosen.to_string())
            .collect::<Vec<_>>()
            .join(".")
    }
}

/// Spawns a model thread inside a live execution (the shim `thread`
/// module's scheduled arm). Returns the tid and a slot the join handle
/// reads the result from.
pub(crate) fn spawn_model_thread<T: Send + 'static>(
    exec: &Arc<Exec>,
    f: impl FnOnce() -> T + Send + 'static,
) -> (usize, Arc<Mutex<Option<std::thread::Result<T>>>>) {
    let tid = exec.register_thread();
    let slot: Arc<Mutex<Option<std::thread::Result<T>>>> = Arc::new(Mutex::new(None));
    let slot2 = Arc::clone(&slot);
    let exec2 = Arc::clone(exec);
    std::thread::spawn(move || run_model_thread(exec2, tid, f, slot2));
    (tid, slot)
}

fn run_model_thread<T: Send + 'static>(
    exec: Arc<Exec>,
    tid: usize,
    f: impl FnOnce() -> T,
    slot: Arc<Mutex<Option<std::thread::Result<T>>>>,
) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), tid)));
    // Wait to be scheduled for the first time: a spawned thread is
    // runnable immediately but runs only when picked. (tid 0 starts
    // with the baton.)
    let g = exec.lock();
    if g.active != tid {
        if g.aborting {
            // Execution already torn down before we started.
            drop(g);
            CURRENT.with(|c| *c.borrow_mut() = None);
            exec.thread_exit(tid, None);
            return;
        }
        // Park until first pick; an abort while parked unwinds (with
        // the guard already released), so catch it like any other.
        let parked = catch_unwind(AssertUnwindSafe(|| exec.wait_for_baton(g, tid)));
        if parked.is_err() {
            CURRENT.with(|c| *c.borrow_mut() = None);
            exec.thread_exit(tid, None);
            return;
        }
    } else {
        drop(g);
    }
    let outcome = catch_unwind(AssertUnwindSafe(f));
    CURRENT.with(|c| *c.borrow_mut() = None);
    match outcome {
        Ok(value) => {
            *slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Ok(value));
            exec.thread_exit(tid, None);
        }
        Err(payload) => {
            if payload.downcast_ref::<AbortExecution>().is_some() {
                exec.thread_exit(tid, None);
            } else {
                // `&*payload`, not `&payload`: the latter would unsize
                // the Box itself into the `dyn Any` and every downcast
                // would miss.
                let message = panic_message(&*payload);
                *slot
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Err(payload));
                exec.thread_exit(tid, Some(message));
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model panicked (non-string payload)".to_string()
    }
}

/// Runs one execution of `f` under `prefix`; returns (failure, choices,
/// trace, schedule).
fn run_one(
    opts: CheckOptions,
    prefix: Vec<usize>,
    f: Arc<dyn Fn() + Send + Sync>,
) -> (Option<String>, Vec<ChoiceRec>, String, String) {
    install_quiet_hook();
    let exec = Exec::new(opts, prefix);
    {
        let exec2 = Arc::clone(&exec);
        let f2 = Arc::clone(&f);
        let slot: Arc<Mutex<Option<std::thread::Result<()>>>> = Arc::new(Mutex::new(None));
        std::thread::spawn(move || run_model_thread(exec2, 0, move || f2(), slot));
    }
    // Controller: wait for every OS thread of the execution to detach.
    let mut g = exec.lock();
    while g.os_live > 0 {
        g = exec
            .cv
            .wait(g)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    let failure = g.failure.clone();
    let choices = g.choices.clone();
    let trace = Exec::render_trace(&g);
    let schedule = Exec::schedule_string(&g);
    (failure, choices, trace, schedule)
}

/// Explores every interleaving of `f` (at the preemption bound) and
/// returns the exploration summary, or the first failing schedule.
///
/// `f` is re-run once per schedule and must be deterministic apart from
/// scheduling: same shim operations, same spawns, for a given sequence
/// of scheduling decisions.
pub fn explore<F>(opts: CheckOptions, f: F) -> Result<ExploreReport, Box<CheckFailure>>
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut prefix: Vec<usize> = Vec::new();
    let mut executions = 0u64;
    loop {
        if executions >= opts.max_iterations {
            return Ok(ExploreReport {
                executions,
                complete: false,
            });
        }
        executions += 1;
        let (failure, mut choices, trace, schedule) = run_one(opts, prefix.clone(), Arc::clone(&f));
        if let Some(message) = failure {
            return Err(Box::new(CheckFailure {
                message,
                trace,
                schedule,
                executions,
            }));
        }
        // Backtrack: deepest choice with an untried alternative.
        let mut advanced = false;
        while let Some(last) = choices.pop() {
            if last.chosen + 1 < last.options {
                prefix = choices.iter().map(|c| c.chosen).collect();
                prefix.push(last.chosen + 1);
                advanced = true;
                break;
            }
        }
        if !advanced {
            return Ok(ExploreReport {
                executions,
                complete: true,
            });
        }
    }
}

/// [`explore`] with default options, panicking (with the full failure
/// report) on a failing schedule — the one-liner for test suites.
pub fn check<F>(f: F) -> ExploreReport
where
    F: Fn() + Send + Sync + 'static,
{
    match explore(CheckOptions::default(), f) {
        Ok(report) => report,
        Err(failure) => panic!("{failure}"),
    }
}

/// Re-runs `f` under exactly the schedule a [`CheckFailure`] reported
/// (its `schedule` field, e.g. `"0.0.2.1"`). Returns the failure if it
/// reproduces, `Ok(())` if the schedule now passes.
pub fn replay<F>(schedule: &str, f: F) -> Result<(), Box<CheckFailure>>
where
    F: Fn() + Send + Sync + 'static,
{
    let prefix: Vec<usize> = schedule
        .split('.')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap_or(0))
        .collect();
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let (failure, _choices, trace, schedule) = run_one(CheckOptions::default(), prefix, f);
    match failure {
        Some(message) => Err(Box::new(CheckFailure {
            message,
            trace,
            schedule,
            executions: 1,
        })),
        None => Ok(()),
    }
}

//! The continuous-batching server: three planes over one engine.
//!
//! 1. **Connection plane** — one readiness loop over nonblocking
//!    `std::net` sockets (`set_nonblocking` plus a short-deadline scan;
//!    no epoll FFI — the workspace is `#![forbid(unsafe_code)]` with
//!    vendored-stub deps). It owns accept, request framing (including
//!    HTTP/1.1 pipelining: every complete request in a read buffer is
//!    parsed, not one per read) and response writeback. A parked
//!    keep-alive connection costs a slot in the scan, not a thread —
//!    a thousand idle sockets are a `Vec` walk. A pass that finds
//!    nothing to do is paced in three steps: a 100 µs `yield_now` spin
//!    for peers that turn around faster than that, then 100 µs timed
//!    waits until 10 ms have passed without progress (a paced peer is
//!    noticed within ≈0.15 ms for a few µs of CPU per wakeup), then
//!    waits doubling to 2 ms. The fine waits also end once the empty
//!    passes have cost 1 ms, so a big parked fleet cannot turn them
//!    into a rescan loop; a completion ends any wait at once.
//! 2. **Dispatch plane** — parsed requests become `PendingRequest`s
//!    in the request-granular [`DispatchQueue`]; a micro-batcher thread
//!    drains up to `max_batch` of them per engine call (waiting at most
//!    `batch_window` to top up a partial batch) and submits one
//!    [`BatchExecutor`] execution — persistent lanes, work stealing,
//!    epoch pinned once per batch, bitwise-deterministic input-order
//!    results. Shedding is request-granular: a full queue costs that
//!    one request a `503` and the connection survives.
//! 3. **Response plane** — completions land in the owning connection's
//!    parked map keyed by per-connection sequence number, are assembled
//!    into the write buffer strictly in request order (the pipelining
//!    contract), and the readiness loop flushes them.
//!
//! Uncontended, the dispatch plane degenerates gracefully: when nothing
//! is queued or in flight anywhere and the request has no unanswered
//! predecessor on its own connection, the readiness loop routes it
//! inline on its own thread (still through the executor, so determinism
//! and stats hold) — a lone client pays no cross-thread handoff, which
//! is what keeps uncontended p50 at the cost of the search itself. Under
//! load the inline condition is never true and batching does its work.
//!
//! Graceful drain is lossless at request granularity: every
//! *admitted* request (one that entered the dispatch queue, or resolved
//! inline) is answered and flushed before the loop exits; only
//! connections owing nothing are closed summarily.

use crate::dispatch::{Completion, ConnToken, DispatchQueue, EngineWork, PendingRequest};
use crate::http::{parse_buffered, write_response, Response};
use crate::json::protocol_error_body;
use crate::metrics::ServeMetrics;
use crate::server::ServerConfig;
use srt_core::routing::BatchExecutor;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Per-pass cap on bytes read from one connection, so a single firehose
/// peer cannot starve the rest of the scan.
const READ_QUANTUM: usize = 64 * 1024;
/// Accepts per scan pass — same fairness argument.
const ACCEPT_QUANTUM: usize = 256;
/// How long the loop keeps yielding (instead of sleeping) after the
/// last observed progress. Only a peer that turns around faster than
/// this is served from the spin; on an idle core the spin is pure CPU.
const HOT_WINDOW: Duration = Duration::from_micros(100);
/// After the spin, how long the loop keeps waking every
/// [`IDLE_SLEEP_MIN`]: a peer that paces its requests a few
/// milliseconds apart is noticed within ≈0.15 ms at ≈6 µs of CPU per
/// wakeup.
const WARM_WINDOW: Duration = Duration::from_millis(10);
/// What the empty passes of one quiet spell may cost before the fine
/// waits give way to the ladder. One connection never reaches it inside
/// [`WARM_WINDOW`]; 256 parked ones reach it after a few passes, so a
/// big fleet pays about what a 1 ms spin would cost it.
const WARM_SCAN_BUDGET: Duration = Duration::from_millis(1);
/// Idle wait bounds; past the fine waits the wait doubles from MIN to
/// MAX while nothing happens, so a thousand parked connections cost a
/// few wakeups per couple of milliseconds, not a spinning core.
const IDLE_SLEEP_MIN: Duration = Duration::from_micros(100);
const IDLE_SLEEP_MAX: Duration = Duration::from_millis(2);
/// Write-stall fallback when the config carries no read timeout.
const DEFAULT_STALL: Duration = Duration::from_secs(5);

/// What the connection plane shares with the batcher and the
/// [`crate::server::Server`] handle.
pub(crate) struct Shared {
    pub(crate) queue: DispatchQueue<PendingRequest>,
    /// Finished work on its way back to connections; the readiness loop
    /// drains this every pass.
    completions: Mutex<Vec<Completion>>,
    /// Wakes the readiness loop out of its idle sleep when completions
    /// (or shutdown) arrive.
    pub(crate) io_wake: Condvar,
    pub(crate) draining: AtomicBool,
    pub(crate) metrics: ServeMetrics,
}

impl Shared {
    pub(crate) fn new(queue_capacity: usize) -> Shared {
        Shared {
            queue: DispatchQueue::new(queue_capacity),
            completions: Mutex::new(Vec::new()),
            io_wake: Condvar::new(),
            draining: AtomicBool::new(false),
            metrics: ServeMetrics::new(),
        }
    }

    fn push_completions(&self, mut batch: Vec<Completion>) {
        let mut parked = self
            .completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        parked.append(&mut batch);
        drop(parked);
        self.io_wake.notify_one();
    }
}

/// The micro-batcher: drains the dispatch queue, coalesces up to
/// `max_batch` requests per engine submission, and ships completions
/// back to the response plane. Exits once the queue is closed *and*
/// drained — and a batch already popped when shutdown lands (the
/// non-empty window) is still executed and answered, never dropped.
pub(crate) fn batcher_loop(
    shared: &Shared,
    executor: &BatchExecutor,
    model_path: Option<&std::path::Path>,
    max_batch: usize,
    window: Duration,
) {
    while let Some(mut batch) = shared.queue.pop_batch(max_batch) {
        if !window.is_zero() && batch.len() < max_batch {
            // One top-up nap: trade `window` of latency for a fuller
            // batch. The default window is zero — natural continuous
            // batching (serve what has queued, immediately) — so the
            // uncontended path never waits here.
            thread::sleep(window);
            shared.queue.try_drain_into(&mut batch, max_batch);
        }
        let completions = execute_batch(batch, executor, model_path, &shared.metrics);
        shared.push_completions(completions);
    }
}

/// Executes one micro-batch: `/route` requests are coalesced into a
/// single executor submission (epoch pinned once, work stolen across
/// the persistent lanes); `/route_batch` and `/reload` items run
/// individually — their responses still flow through the same
/// completion path, so per-connection ordering holds regardless.
fn execute_batch(
    batch: Vec<PendingRequest>,
    executor: &BatchExecutor,
    model_path: Option<&std::path::Path>,
    metrics: &ServeMetrics,
) -> Vec<Completion> {
    metrics.batch_size.observe(batch.len());
    let mut route_slots: Vec<usize> = Vec::with_capacity(batch.len());
    let mut queries = Vec::with_capacity(batch.len());
    for (i, item) in batch.iter().enumerate() {
        if let EngineWork::Route(q) = &item.work {
            route_slots.push(i);
            queries.push(*q);
        }
    }
    let mut responses: Vec<Option<Response>> = (0..batch.len()).map(|_| None).collect();
    if !queries.is_empty() {
        let results = executor.execute(queries);
        for (slot, result) in route_slots.into_iter().zip(&results) {
            responses[slot] = Some(crate::handlers::respond_route(result));
        }
    }
    batch
        .into_iter()
        .zip(responses)
        .map(|(item, prebuilt)| {
            let mut response =
                prebuilt.unwrap_or_else(|| execute_work(item.work, executor, model_path));
            response.close |= item.close_after;
            Completion {
                conn: item.conn,
                seq: item.seq,
                started: item.started,
                response,
            }
        })
        .collect()
}

/// Executes one work item on the server's one executor — the batcher's
/// arm for everything that is not a coalesced `/route`, and the
/// readiness loop's uncontended fast path (same executor, same render
/// helpers, same bytes). A `/route_batch` is one submission: its
/// queries share the persistent lanes and one epoch pin.
fn execute_work(
    work: EngineWork,
    executor: &BatchExecutor,
    model_path: Option<&std::path::Path>,
) -> Response {
    match work {
        EngineWork::Route(q) => {
            let results = executor.execute(vec![q]);
            crate::handlers::respond_route(&results[0])
        }
        EngineWork::Batch(queries) => crate::handlers::respond_batch(&executor.execute(queries)),
        EngineWork::Reload => crate::handlers::reload(executor.engine(), model_path),
    }
}

fn overload_response(detail: &str) -> Response {
    Response::json(503, protocol_error_body("overloaded", detail))
}

/// One registered connection in the readiness loop.
struct Conn {
    stream: TcpStream,
    generation: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Bytes at the front of `write_buf` already handed to the kernel.
    written: usize,
    /// Sequence assigned to the next parsed request.
    next_seq: u64,
    /// The response sequence the write buffer is waiting for.
    next_write_seq: u64,
    /// Out-of-order completions parked until their turn, with the
    /// request's parse timestamp for the latency histogram.
    parked: BTreeMap<u64, (Response, Instant)>,
    /// No more requests will be parsed (close requested, parse error,
    /// peer EOF, or drain).
    reads_done: bool,
    /// Close once the write buffer is flushed.
    close_after_flush: bool,
    served_any: bool,
    last_activity: Instant,
    last_write_progress: Instant,
}

impl Conn {
    /// Requests parsed but not yet assembled into the write buffer.
    fn unanswered(&self) -> u64 {
        self.next_seq - self.next_write_seq
    }
}

/// The connection slab plus the counter it reports at exit.
struct IoPlane {
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    /// Connections answered at least once that have since closed.
    connections_served: u64,
}

impl IoPlane {
    fn active(&self) -> usize {
        self.conns.len() - self.free.len()
    }

    fn register(&mut self, stream: TcpStream) -> usize {
        let now = Instant::now();
        self.next_generation += 1;
        let conn = Conn {
            stream,
            generation: self.next_generation,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            next_seq: 0,
            next_write_seq: 0,
            parked: BTreeMap::new(),
            reads_done: false,
            close_after_flush: false,
            served_any: false,
            last_activity: now,
            last_write_progress: now,
        };
        match self.free.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            if conn.served_any {
                self.connections_served += 1;
            }
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            self.free.push(slot);
        }
    }
}

/// The readiness loop: accept, read/parse/admit, assemble, flush —
/// then spin, wait finely or wait coarsely according to how recently
/// anything happened (see the module doc).
pub(crate) fn io_loop(
    listener: TcpListener,
    executor: Arc<BatchExecutor>,
    shared: Arc<Shared>,
    config: ServerConfig,
) -> u64 {
    let engine = executor.engine();
    let metrics = &shared.metrics;
    let stall = config.read_timeout.unwrap_or(DEFAULT_STALL);
    let mut plane = IoPlane {
        conns: Vec::new(),
        free: Vec::new(),
        next_generation: 0,
        connections_served: 0,
    };
    let mut arrived: Vec<Completion> = Vec::new();
    let mut queue_closed = false;
    let mut last_progress = Instant::now();
    let mut idle_sleep = IDLE_SLEEP_MIN;
    // Time spent in passes that found nothing since the last progress.
    let mut idle_scan = Duration::ZERO;

    loop {
        let pass_started = Instant::now();
        let mut progress = false;
        let draining = shared.draining.load(Ordering::SeqCst);
        if draining && !queue_closed {
            // Stop admitting; everything already admitted still drains
            // through the batcher and comes back as completions.
            shared.queue.close();
            queue_closed = true;
            for conn in plane.conns.iter_mut().flatten() {
                conn.reads_done = true;
            }
        }

        // ── Response plane: route completions to their connections. ──
        {
            let mut parked = shared
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::swap(&mut *parked, &mut arrived);
        }
        if !arrived.is_empty() {
            progress = true;
            for completion in arrived.drain(..) {
                metrics.inflight_requests.fetch_sub(1, Ordering::Relaxed);
                let alive = plane
                    .conns
                    .get_mut(completion.conn.slot)
                    .and_then(|c| c.as_mut())
                    .filter(|c| c.generation == completion.conn.generation);
                if let Some(conn) = alive {
                    conn.parked
                        .insert(completion.seq, (completion.response, completion.started));
                }
                // A dead connection's completion is dropped here — the
                // generation check is what stops it leaking into a
                // newcomer that reused the slot.
            }
        }

        // ── Connection plane: accept. ──
        for _ in 0..ACCEPT_QUANTUM {
            match listener.accept() {
                Ok((stream, _)) => {
                    if draining {
                        continue; // includes the shutdown self-connect
                    }
                    progress = true;
                    if plane.active() >= config.max_connections {
                        // Out of slots: connection-granular refusal is
                        // the last resort (best-effort 503, close).
                        metrics.shed_total.fetch_add(1, Ordering::Relaxed);
                        metrics.record_response(503);
                        let _ = stream.set_nonblocking(true);
                        let resp =
                            overload_response("connection limit reached; retry with backoff")
                                .closing();
                        let mut bytes = Vec::new();
                        let _ = write_response(&mut bytes, &resp);
                        let _ = (&stream).write(&bytes);
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        continue;
                    }
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    metrics.accepted_total.fetch_add(1, Ordering::Relaxed);
                    plane.register(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break, // scan again next pass; never spin here
            }
        }

        // ── Per connection: read, parse, admit, assemble, flush. ──
        for slot in 0..plane.conns.len() {
            let mut should_close = false;
            if let Some(conn) = plane.conns[slot].as_mut() {
                let token = ConnToken {
                    slot,
                    generation: conn.generation,
                };
                let mut dead = false;

                // Read whatever the socket has, up to the quantum.
                if !conn.reads_done {
                    let mut chunk = [0u8; 4096];
                    let mut got = 0usize;
                    loop {
                        match (&conn.stream).read(&mut chunk) {
                            Ok(0) => {
                                // Peer finished sending; whatever was
                                // admitted is still answered + flushed.
                                conn.reads_done = true;
                                break;
                            }
                            Ok(n) => {
                                conn.read_buf.extend_from_slice(&chunk[..n]);
                                conn.last_activity = Instant::now();
                                got += n;
                                progress = true;
                                if got >= READ_QUANTUM {
                                    break;
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(_) => {
                                dead = true;
                                break;
                            }
                        }
                    }
                }

                // Parse every complete request in the buffer — this
                // loop is HTTP/1.1 pipelining.
                while !dead && !conn.reads_done {
                    match parse_buffered(&conn.read_buf) {
                        Ok(None) => break,
                        Ok(Some((req, consumed))) => {
                            conn.read_buf.drain(..consumed);
                            let started = Instant::now();
                            let seq = conn.next_seq;
                            conn.next_seq += 1;
                            if seq > conn.next_write_seq {
                                metrics.pipelined_total.fetch_add(1, Ordering::Relaxed);
                            }
                            let close_after = req.wants_close();
                            if close_after {
                                // HTTP semantics: nothing after a
                                // `Connection: close` request is read.
                                conn.reads_done = true;
                            }
                            match crate::handlers::classify_request(
                                engine,
                                metrics,
                                shared.queue.len(),
                                &req,
                            ) {
                                Err(mut resp) => {
                                    // Cheap endpoints and protocol
                                    // errors are answered on this
                                    // thread, but in sequence order
                                    // like everything else.
                                    resp.close |= close_after;
                                    conn.parked.insert(seq, (resp, started));
                                }
                                Ok(work) => {
                                    let idle = shared.queue.is_empty()
                                        && metrics.inflight_requests.load(Ordering::Relaxed)
                                            == 0
                                        && seq == conn.next_write_seq;
                                    if idle {
                                        // Uncontended fast path:
                                        // nothing queued or in flight
                                        // anywhere, so dispatching
                                        // would only add two thread
                                        // handoffs to this request's
                                        // latency. Execute here — still
                                        // via the executor, so
                                        // determinism, stats and the
                                        // batch-size histogram hold.
                                        metrics.batch_size.observe(1);
                                        let mut resp = execute_work(
                                            work,
                                            &executor,
                                            config.model_path.as_deref(),
                                        );
                                        resp.close |= close_after;
                                        conn.parked.insert(seq, (resp, started));
                                    } else {
                                        let pending = PendingRequest {
                                            conn: token,
                                            seq,
                                            started,
                                            close_after,
                                            work,
                                        };
                                        match shared.queue.try_push(pending) {
                                            Ok(()) => {
                                                metrics
                                                    .inflight_requests
                                                    .fetch_add(1, Ordering::Relaxed);
                                            }
                                            Err(_) => {
                                                // Request-granular shed:
                                                // this request gets the
                                                // 503; the connection
                                                // (and its pipelined
                                                // neighbours) live on.
                                                metrics
                                                    .shed_total
                                                    .fetch_add(1, Ordering::Relaxed);
                                                let mut resp = overload_response(
                                                    "dispatch queue full; the request was shed — retry with backoff",
                                                );
                                                resp.close = close_after;
                                                conn.parked.insert(seq, (resp, started));
                                            }
                                        }
                                    }
                                }
                            }
                            progress = true;
                        }
                        Err(e) => {
                            // Framing is unrecoverable after a bad
                            // head: answer (in order) and stop reading.
                            conn.reads_done = true;
                            let seq = conn.next_seq;
                            conn.next_seq += 1;
                            let resp = Response::json(
                                e.status(),
                                protocol_error_body("bad_request", &e.detail()),
                            )
                            .closing();
                            conn.parked.insert(seq, (resp, Instant::now()));
                            progress = true;
                        }
                    }
                }

                // Assemble responses strictly in request order.
                while let Some((mut resp, started)) = conn.parked.remove(&conn.next_write_seq) {
                    conn.next_write_seq += 1;
                    if draining {
                        resp.close = true;
                    }
                    if resp.close {
                        conn.close_after_flush = true;
                        conn.reads_done = true;
                    }
                    metrics.record_request(resp.status, started.elapsed());
                    let _ = write_response(&mut conn.write_buf, &resp);
                    conn.served_any = true;
                    progress = true;
                }

                // Flush.
                if conn.write_buf.len() > conn.written {
                    loop {
                        match (&conn.stream).write(&conn.write_buf[conn.written..]) {
                            Ok(0) => {
                                dead = true;
                                break;
                            }
                            Ok(n) => {
                                conn.written += n;
                                conn.last_write_progress = Instant::now();
                                conn.last_activity = conn.last_write_progress;
                                progress = true;
                                if conn.written == conn.write_buf.len() {
                                    break;
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(_) => {
                                dead = true;
                                break;
                            }
                        }
                    }
                    if conn.written == conn.write_buf.len() {
                        conn.write_buf.clear();
                        conn.written = 0;
                    }
                }

                // Lifecycle.
                let flushed = conn.write_buf.is_empty();
                if dead {
                    should_close = true;
                } else if (conn.close_after_flush || conn.reads_done)
                    && conn.unanswered() == 0
                    && flushed
                {
                    // Nothing more will arrive and nothing is owed.
                    should_close = true;
                } else if !flushed && conn.last_write_progress.elapsed() > stall {
                    // A peer that stops reading while we owe it bytes
                    // cannot pin a slot (or the drain) forever.
                    should_close = true;
                } else if conn.unanswered() == 0 && flushed {
                    // Stalled mid-request (partial head or body) or
                    // parked idle between requests.
                    let deadline = if !conn.read_buf.is_empty() || !conn.served_any {
                        config.read_timeout
                    } else {
                        config.idle_timeout
                    };
                    if let Some(d) = deadline {
                        if conn.last_activity.elapsed() > d {
                            should_close = true;
                        }
                    }
                }
            } else {
                continue;
            }
            if should_close {
                plane.close(slot);
            }
        }

        // ── Drain exit: every admitted request answered and flushed. ──
        if draining {
            let owing = plane
                .conns
                .iter()
                .flatten()
                .any(|c| c.unanswered() > 0 || !c.write_buf.is_empty());
            let inflight = metrics.inflight_requests.load(Ordering::Relaxed);
            if !owing && inflight == 0 && shared.queue.is_empty() {
                for slot in 0..plane.conns.len() {
                    plane.close(slot);
                }
                return plane.connections_served;
            }
        }

        // ── Pacing: spin, then fine waits, then the doubling ladder. ──
        if progress {
            last_progress = Instant::now();
            idle_sleep = IDLE_SLEEP_MIN;
            idle_scan = Duration::ZERO;
            continue;
        }
        idle_scan += pass_started.elapsed();
        let quiet = last_progress.elapsed();
        if quiet < HOT_WINDOW {
            // Just busy: hand the core to the batcher and its lanes
            // instead of sleeping — a closed-loop peer stays tight.
            thread::yield_now();
            continue;
        }
        let wait = if quiet < WARM_WINDOW && idle_scan < WARM_SCAN_BUDGET {
            IDLE_SLEEP_MIN
        } else {
            let wait = idle_sleep;
            idle_sleep = (idle_sleep * 2).min(IDLE_SLEEP_MAX);
            wait
        };
        let guard = shared
            .completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if guard.is_empty() {
            // A completion pushed since this pass's swap has already
            // notified; it must not wait out the timeout.
            let (_guard, _timeout) = shared
                .io_wake
                .wait_timeout(guard, wait)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

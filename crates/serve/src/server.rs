//! The server handle: configuration, start-up and the graceful drain
//! around the three planes in [`crate::batched`].
//!
//! [`Server::start`] binds the listener and spawns the two serving
//! threads — the readiness loop (connection and response planes) and the
//! micro-batcher (dispatch plane), which owns the engine's persistent
//! [`BatchExecutor`] lanes. [`Server::shutdown`] drains: the flag flips,
//! the readiness loop stops admitting and closes the dispatch queue, the
//! batcher executes everything already admitted, every owed response is
//! flushed, and both threads join. Admitted work is never dropped.

use crate::batched::{batcher_loop, io_loop, Shared};
use crate::metrics::ServeMetrics;
use srt_core::routing::{BatchExecutor, RoutingEngine};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Serving knobs. The defaults suit the integration tests and the tiny
/// fixture worlds; a real deployment sizes `workers` to cores and
/// `queue_capacity` to its latency budget (each queued request waits
/// for the batches ahead of it — the cap **is** the tail-latency
/// contract).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Lanes of the engine's [`BatchExecutor`] (`0` = available
    /// parallelism, capped at 8). The batcher thread is one of them;
    /// `workers - 1` helper threads are spawned at start.
    pub workers: usize,
    /// Dispatch-queue capacity in *requests*. A request that finds the
    /// queue full is answered `503` on the spot; its connection — and
    /// any pipelined neighbours — lives on.
    pub queue_capacity: usize,
    /// How long a connection may sit silent before its *first* request
    /// completes, or stalled part-way through any request, before the
    /// readiness scan closes it. Also the write-stall deadline: a peer
    /// that stops reading while bytes are owed to it is dropped after
    /// this long. No thread waits on either — they are deadlines the
    /// scan checks.
    pub read_timeout: Option<Duration>,
    /// Scan deadline for *parked* keep-alive connections — ones that
    /// have been answered at least once, owe nothing and have sent
    /// nothing since. A parked connection costs a slot in the scan, not
    /// a thread, so this bounds file descriptors and
    /// [`ServerConfig::max_connections`] slots, not serving capacity.
    /// Kept separate from `read_timeout` because the right values
    /// differ: generous for a first request still in flight, tight for
    /// a connection that is merely idle. `None` disables reaping
    /// (trusted peers only).
    pub idle_timeout: Option<Duration>,
    /// Filesystem path `POST /reload` re-reads for a new model snapshot.
    /// Fixed at server start (never client-supplied — a reload endpoint
    /// accepting paths or bytes from the wire would be an
    /// arbitrary-model-injection hole). `None` disables `/reload` (409).
    pub model_path: Option<std::path::PathBuf>,
    /// Cap on `/route` requests the batcher coalesces into one executor
    /// submission (clamped to ≥ 1). `1` serves batches of one through
    /// the same planes.
    pub max_batch: usize,
    /// How long the batcher waits to top up a partial micro-batch. Zero
    /// — the default — is natural continuous batching: serve whatever
    /// has queued, immediately; uncontended latency never pays an
    /// artificial wait.
    pub batch_window: Duration,
    /// Cap on concurrently registered connections; beyond it a new
    /// connection is refused with a best-effort `503` and a close — the
    /// only connection-granular refusal the server makes.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            read_timeout: Some(Duration::from_secs(5)),
            idle_timeout: Some(Duration::from_secs(2)),
            model_path: None,
            max_batch: 8,
            batch_window: Duration::ZERO,
            max_connections: 4096,
        }
    }
}

impl ServerConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8)
        }
    }
}

/// What the graceful drain observed; returned by [`Server::shutdown`].
#[derive(Clone, Copy, Debug)]
pub struct DrainReport {
    /// Connections that were answered at least once and have since
    /// closed, across the server's lifetime.
    pub connections_served: u64,
    /// Refusals across the lifetime: request-granular `503`s (dispatch
    /// queue full or draining) plus connections turned away at
    /// [`ServerConfig::max_connections`].
    pub connections_shed: u64,
    /// Requests admitted to the dispatch queue and still unanswered when
    /// the drain finished — zero by construction (the readiness loop
    /// exits only once it reaches zero); reported so callers can assert
    /// it.
    pub in_flight_after_drain: u64,
}

/// A running HTTP front-end over one shared [`RoutingEngine`]: the
/// readiness loop, the batcher thread and the persistent engine lanes
/// (dropped with the executor when both threads have exited).
pub struct Server {
    engine: Arc<RoutingEngine>,
    shared: Arc<Shared>,
    addr: SocketAddr,
    /// Returns the lifetime count of served connections when joined.
    io_thread: Option<JoinHandle<u64>>,
    batcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// serving threads. Serving begins before this returns.
    pub fn start(
        engine: Arc<RoutingEngine>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared::new(config.queue_capacity));
        let executor = Arc::new(BatchExecutor::new(
            Arc::clone(&engine),
            config.resolved_workers(),
        ));

        let batcher = {
            let shared = Arc::clone(&shared);
            let executor = Arc::clone(&executor);
            let model_path = config.model_path.clone();
            let max_batch = config.max_batch.max(1);
            let window = config.batch_window;
            thread::Builder::new()
                .name("srt-serve-batcher".into())
                .spawn(move || {
                    batcher_loop(&shared, &executor, model_path.as_deref(), max_batch, window)
                })?
        };

        let io_thread = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("srt-serve-io".into())
                .spawn(move || io_loop(listener, executor, shared, config))?
        };

        Ok(Server {
            engine,
            shared,
            addr,
            io_thread: Some(io_thread),
            batcher: Some(batcher),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live server counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// The engine being served.
    pub fn engine(&self) -> &RoutingEngine {
        &self.engine
    }

    /// Graceful drain: stop admitting, answer and flush every admitted
    /// request, join both threads. Idempotent via `Drop` (dropping an
    /// un-shut-down server performs the same drain, minus the report).
    pub fn shutdown(mut self) -> DrainReport {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        // The loop may be in a timed wait on `io_wake` (100 µs to 2 ms);
        // the notify ends it at once. The self-connect also covers a
        // loop blocked in nothing at all (it shows up as an accept and
        // is dropped under drain).
        self.shared.io_wake.notify_one();
        let _ = TcpStream::connect(self.addr);
        let connections_served = self
            .io_thread
            .take()
            .and_then(|t| t.join().ok())
            .unwrap_or_default();
        // The readiness loop closed the queue when it observed the
        // drain; closing again is idempotent and covers the it-never-ran
        // case, so the batcher's exit is unconditional.
        self.shared.queue.close();
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
        }
        let metrics = &self.shared.metrics;
        DrainReport {
            connections_served,
            connections_shed: metrics.shed_total.load(Ordering::Relaxed),
            in_flight_after_drain: metrics.inflight_requests.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.io_thread.is_some() || self.batcher.is_some() {
            self.shutdown_inner();
        }
    }
}

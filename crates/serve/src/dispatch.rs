//! The request-granular dispatch queue behind continuous batching.
//!
//! The server's one admission queue, holding *parsed requests* rather
//! than connections. The connection plane pushes `PendingRequest`s
//! with [`DispatchQueue::try_push`] (full queue ⇒ the caller sheds that
//! one request with a `503` and the connection survives); the
//! micro-batcher blocks in
//! [`DispatchQueue::pop_batch`], which drains up to `max` ready
//! requests in one lock acquisition — the heart of dynamic
//! micro-batching: under load, batches grow to whatever has queued
//! while the engine was busy; uncontended, a lone request pops
//! immediately with no artificial wait.
//!
//! Shutdown is lossless at request granularity:
//! [`DispatchQueue::close`] stops admission but everything already
//! admitted remains poppable; `pop_batch` returns `None` only once the
//! queue is closed *and* empty, so the batcher drains every admitted
//! request before exiting — and a batch it has already popped (a
//! non-empty window) is always executed, never dropped.
//!
//! The whole machine is written against `srt_core::sync::sys` (plain
//! `std::sync` in normal builds) with no timed waits, so the `srt-check`
//! dispatch suite proves losslessness and the batch-size bound under
//! every interleaving at the preemption bound. Time — the optional
//! `--batch-window` top-up wait — lives in the batcher loop
//! (`crate::batched`), outside the modeled core.

use crate::http::Response;
use srt_core::routing::Query;
use srt_core::sync::sys::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::PoisonError;
use std::time::Instant;

/// A fixed-capacity request queue with non-blocking admission and
/// blocking, batch-at-a-time, drain-to-empty consumption.
pub struct DispatchQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> DispatchQueue<T> {
    /// A queue admitting at most `capacity` requests (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        DispatchQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Poison-tolerant lock: a batcher panicking mid-pop must not wedge
    /// admission for the rest of the server's life.
    fn state(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attempts to enqueue without blocking. Returns the request back
    /// when the queue is full (shed this one request) or closed
    /// (draining — shed it too).
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut s = self.state();
        if s.closed || s.items.len() >= self.capacity {
            return Err(item);
        }
        s.items.push_back(item);
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until at least one request is available (or the queue is
    /// closed *and* drained — `None` is the batcher's signal to exit),
    /// then drains up to `max` requests in FIFO order. Never returns an
    /// empty batch and never exceeds `max`.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<T>> {
        let max = max.max(1);
        let mut s = self.state();
        loop {
            if !s.items.is_empty() {
                let take = s.items.len().min(max);
                return Some(s.items.drain(..take).collect());
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking top-up for a partially filled window: moves ready
    /// requests into `batch` until it holds `max_total` or the queue is
    /// empty. Returns how many were appended.
    pub fn try_drain_into(&self, batch: &mut Vec<T>, max_total: usize) -> usize {
        let mut s = self.state();
        let want = max_total.saturating_sub(batch.len()).min(s.items.len());
        for item in s.items.drain(..want) {
            batch.push(item);
        }
        want
    }

    /// Stops admission and wakes the batcher. Already-admitted requests
    /// remain poppable — close starts the drain, it does not drop work.
    pub fn close(&self) {
        self.state().closed = true;
        self.ready.notify_all();
    }

    /// Requests currently waiting (the metrics `queue_depth` gauge).
    pub fn len(&self) -> usize {
        self.state().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission capacity this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Identifies one registered connection slot in the readiness loop. The
/// generation guards against slot reuse: a completion for a connection
/// that died and whose slot now hosts a newcomer must not leak a
/// response to the wrong client.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct ConnToken {
    pub slot: usize,
    pub generation: u64,
}

/// Engine-bound work parsed out of one HTTP request. Cheap endpoints
/// (`/healthz`, `/metrics`, protocol errors) never become work items —
/// the connection plane answers them inline.
pub(crate) enum EngineWork {
    Route(Query),
    Batch(Vec<Query>),
    Reload,
}

/// One admitted request travelling from the connection plane to the
/// batcher and back: `seq` restores per-connection response order under
/// pipelining, `started` feeds the latency histogram at completion.
pub(crate) struct PendingRequest {
    pub conn: ConnToken,
    pub seq: u64,
    pub started: Instant,
    pub close_after: bool,
    pub work: EngineWork,
}

/// One finished request on its way back to the owning connection's
/// write buffer.
pub(crate) struct Completion {
    pub conn: ConnToken,
    pub seq: u64,
    pub started: Instant,
    pub response: Response,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn pop_batch_drains_fifo_and_respects_max() {
        let q = DispatchQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let batch = q.pop_batch(3).unwrap();
        assert_eq!(batch, vec![0, 1, 2], "FIFO, capped at max");
        let batch = q.pop_batch(3).unwrap();
        assert_eq!(batch, vec![3, 4], "partial batch when fewer are ready");
    }

    #[test]
    fn full_queue_sheds_the_request_not_the_caller() {
        let q = DispatchQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(3), "admission past capacity");
        assert_eq!(q.pop_batch(16).unwrap(), vec![1, 2]);
        q.try_push(3).unwrap();

        // Capacity zero clamps to one slot, not a queue that sheds all.
        let q = DispatchQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(2));
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = DispatchQueue::new(8);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err("c"), "closed queue admits nothing");
        assert_eq!(q.pop_batch(1).unwrap(), vec!["a"], "admitted work drains");
        assert_eq!(q.pop_batch(1).unwrap(), vec!["b"]);
        assert_eq!(q.pop_batch(1), None, "closed and empty signals exit");
    }

    #[test]
    fn try_drain_into_tops_up_without_blocking() {
        let q = DispatchQueue::new(8);
        let mut batch = vec![10, 11];
        assert_eq!(q.try_drain_into(&mut batch, 4), 0, "empty queue adds none");
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.try_drain_into(&mut batch, 4), 2, "fills to max_total");
        assert_eq!(batch, vec![10, 11, 0, 1]);
        assert_eq!(q.len(), 2, "the rest stays queued");
    }

    #[test]
    fn blocked_batcher_wakes_on_push_and_close() {
        let q = Arc::new(DispatchQueue::new(16));
        let batcher = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut seen = Vec::new();
                let mut sizes = Vec::new();
                while let Some(batch) = q.pop_batch(4) {
                    sizes.push(batch.len());
                    seen.extend(batch);
                }
                (seen, sizes)
            })
        };
        for i in 0..32 {
            let mut item = i;
            loop {
                match q.try_push(item) {
                    Ok(()) => break,
                    Err(back) => {
                        item = back;
                        thread::yield_now();
                    }
                }
            }
        }
        q.close();
        let (seen, sizes) = batcher.join().unwrap();
        assert_eq!(seen, (0..32).collect::<Vec<_>>(), "lossless and in order");
        assert!(
            sizes.iter().all(|&s| (1..=4).contains(&s)),
            "1 ≤ batch ≤ max"
        );
    }
}

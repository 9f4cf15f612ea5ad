//! `srt-serve` — the HTTP front-end over a shared
//! [`RoutingEngine`](srt_core::routing::RoutingEngine).
//!
//! A hand-rolled HTTP/1.1 server on `std::net` nonblocking sockets, one
//! machinery of three planes ([`batched`]): a readiness loop that owns
//! accept, pipelined request framing and in-order writeback; a
//! **bounded**, request-granular [`DispatchQueue`] drained by one
//! micro-batcher thread; and the engine's persistent
//! [`BatchExecutor`](srt_core::routing::BatchExecutor) lanes, the only
//! batch path there is. No async runtime, no external dependencies —
//! consistent with the workspace's offline vendoring policy — and none
//! needed for a five-endpoint API whose work unit is a CPU-bound search.
//!
//! # Endpoints
//!
//! | Method | Path           | Purpose                                             |
//! |--------|----------------|-----------------------------------------------------|
//! | `POST` | `/route`       | Route one query; body `{"source","target","budget_s"[,"deadline_ms"]}` |
//! | `POST` | `/route_batch` | Route many on the executor lanes under one epoch pin; body `{"queries":[…]}` (a `"parallelism"` member is accepted and ignored) |
//! | `POST` | `/reload`      | Hot-swap: re-read [`ServerConfig::model_path`] and publish a new engine epoch (`409` without a path, `422` bad snapshot, body ignored) |
//! | `GET`  | `/metrics`     | Prometheus text: `srt_serve_*` + `srt_engine_*` (incl. `srt_engine_epoch`) |
//! | `GET`  | `/healthz`     | Liveness: `200 {"ok":true,"epoch":N}`                |
//!
//! # The admission contract
//!
//! Every parsed engine-bound request is offered to a queue of fixed
//! capacity ([`ServerConfig::queue_capacity`], in requests). If the
//! queue has room, the request **will** be answered — graceful shutdown
//! executes and flushes every admitted request before the threads exit,
//! dropping nothing. If the queue is full, that one request is refused
//! *immediately* with `503` (and `srt_serve_shed_total` increments)
//! while its connection, and any pipelined neighbours, live on: under
//! overload the server converts excess load into fast, explicit
//! refusals instead of an unbounded backlog that smears queueing delay
//! across every in-flight request. Capacity bounds worst-case wait to
//! roughly `queue_capacity / max_batch` batch service times — the knob
//! *is* the tail-latency contract. [`ServerConfig::max_batch`] only
//! caps how many `/route` requests share one executor submission; `1`
//! runs the same planes with batches of one.
//!
//! Responses from `POST /route` are bitwise-identical to calling
//! [`RoutingEngine::route`](srt_core::routing::RoutingEngine::route)
//! in-process: floats travel in shortest round-trip formatting, pinned
//! by the integration suite. Status mapping: `400` malformed
//! JSON/schema, `422` typed engine rejections
//! ([`EngineError`](srt_core::routing::EngineError) rendered as
//! `{"error":{"kind",…}}`), `500` contained search panics, `503` shed.

#![forbid(unsafe_code)]

pub mod batched;
pub mod dispatch;
pub mod handlers;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;

pub use dispatch::DispatchQueue;
pub use metrics::{
    BatchHistogram, LatencyHistogram, ServeMetrics, BATCH_SIZE_BUCKETS, LATENCY_BUCKETS_S,
};
pub use server::{DrainReport, Server, ServerConfig};

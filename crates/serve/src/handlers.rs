//! Dispatch from a parsed [`Request`] to the five endpoints.
//!
//! Status mapping, fixed across the API: `400` for protocol/schema
//! garbage (unparseable JSON, missing members), `422` for well-formed
//! queries the engine rejects with a typed [`EngineError`] (unknown
//! node, negative budget, zero deadline) and for snapshots
//! `POST /reload` rejects with a typed `SwapError`, `409` for a reload
//! on a server started without a model path, `500` for a contained
//! search panic (`EngineError::Internal`) or a reload I/O failure,
//! `404`/`405` for unknown paths and methods. Load shedding (`503`)
//! never reaches this module — it is decided at admission, by the
//! connection plane.

use crate::dispatch::EngineWork;
use crate::http::{Request, Response};
use crate::json::{
    self, engine_error_to_json, protocol_error_body, query_from_json, route_result_to_json,
};
use crate::metrics::ServeMetrics;
use srt_core::routing::{EngineError, Query, RouteResult, RoutingEngine};
use std::path::Path;

/// Hard cap on queries per `/route_batch` request.
pub const MAX_BATCH_QUERIES: usize = 10_000;

/// Answers one parsed request synchronously on the calling thread, with
/// no executor: classify, then run the work here, a batch being its
/// queries routed in order. The planes share every parse and render
/// step through `classify_request` and the `respond_*` helpers, so
/// these are the bytes the server puts on the wire.
pub fn handle_request(
    engine: &RoutingEngine,
    metrics: &ServeMetrics,
    queue_depth: usize,
    model_path: Option<&Path>,
    req: &Request,
) -> Response {
    match classify_request(engine, metrics, queue_depth, req) {
        Err(resp) => resp,
        Ok(EngineWork::Route(query)) => respond_route(&engine.route(&query)),
        Ok(EngineWork::Batch(queries)) => {
            let results: Vec<_> = queries.iter().map(|q| engine.route(q)).collect();
            respond_batch(&results)
        }
        Ok(EngineWork::Reload) => reload(engine, model_path),
    }
}

/// Splits a parsed request into an immediately-answerable response
/// (cheap endpoints, protocol errors — the connection plane serves
/// these inline) or validated engine-bound work for the dispatch
/// queue. All request-body parsing happens here, on the caller's
/// thread, so a malformed body costs a `400` and never a queue slot.
pub(crate) fn classify_request(
    engine: &RoutingEngine,
    metrics: &ServeMetrics,
    queue_depth: usize,
    req: &Request,
) -> Result<EngineWork, Response> {
    // Path first, then method: a known path with the wrong method (any
    // method — HEAD, DELETE, …) is a 405, never a misleading 404.
    match req.path.as_str() {
        "/healthz" if req.method == "GET" => Err(Response::json(
            200,
            format!("{{\"ok\":true,\"epoch\":{}}}", engine.epoch()),
        )),
        "/metrics" if req.method == "GET" => Err(Response::text(
            200,
            metrics.render_prometheus(&engine.stats(), queue_depth),
        )),
        "/route" if req.method == "POST" => parse_route(&req.body).map(EngineWork::Route),
        "/route_batch" if req.method == "POST" => parse_route_batch(&req.body),
        "/reload" if req.method == "POST" => Ok(EngineWork::Reload),
        "/healthz" | "/metrics" | "/route" | "/route_batch" | "/reload" => Err(Response::json(
            405,
            protocol_error_body(
                "method_not_allowed",
                &format!("{} does not accept {}", req.path, req.method),
            ),
        )),
        _ => Err(Response::json(
            404,
            protocol_error_body("not_found", &format!("no such endpoint: {}", req.path)),
        )),
    }
}

/// Renders one `/route` outcome — shared by [`handle_request`] and the
/// planes, so a response's bytes do not depend on how it was batched.
pub(crate) fn respond_route(result: &Result<RouteResult, EngineError>) -> Response {
    match result {
        Ok(result) => Response::json(200, route_result_to_json(result)),
        Err(e) => Response::json(engine_error_status(e), engine_error_to_json(e)),
    }
}

/// Renders a `/route_batch` outcome: `{"results":[...]}` in input
/// order — one bad or even panicking query never fails its
/// batch-mates (the engine's containment guarantee, on the wire).
pub(crate) fn respond_batch(results: &[Result<RouteResult, EngineError>]) -> Response {
    let mut out = String::with_capacity(64 * results.len().max(1));
    out.push_str("{\"results\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match r {
            Ok(result) => out.push_str(&route_result_to_json(result)),
            Err(e) => out.push_str(&engine_error_to_json(e)),
        }
    }
    out.push_str("]}");
    Response::json(200, out)
}

/// `POST /reload`: re-read the server's configured snapshot path and
/// hot-swap the engine onto it. The path is fixed at server start
/// (`--model` / [`crate::server::ServerConfig::model_path`]) and the
/// request body is ignored — accepting client-supplied paths or model
/// bytes on this endpoint would be an arbitrary-model-injection hole.
///
/// Every failure leaves the old epoch serving: `409` when the server
/// has no model source at all, `500` when the file cannot be read,
/// `422` when the engine's revalidation rejects the snapshot. Success
/// answers with the freshly published epoch id.
pub(crate) fn reload(engine: &RoutingEngine, model_path: Option<&Path>) -> Response {
    let path = match model_path {
        Some(p) => p,
        None => {
            return Response::json(
                409,
                protocol_error_body(
                    "no_model_source",
                    "server was started without a model path; /reload has nothing to re-read",
                ),
            )
        }
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            return Response::json(
                500,
                protocol_error_body("reload_io", &format!("reading {}: {e}", path.display())),
            )
        }
    };
    match engine.swap_model_bytes(&bytes) {
        Ok(epoch) => Response::json(200, format!("{{\"ok\":true,\"epoch\":{epoch}}}")),
        Err(e) => Response::json(422, protocol_error_body("bad_snapshot", &e.to_string())),
    }
}

/// Parses the body as JSON or produces the `400` response.
fn parse_body(body: &[u8]) -> Result<json::Json, Response> {
    let text = std::str::from_utf8(body).map_err(|_| {
        Response::json(
            400,
            protocol_error_body("bad_request", "body is not valid UTF-8"),
        )
    })?;
    json::parse(text).map_err(|e| {
        Response::json(
            400,
            protocol_error_body(
                "bad_request",
                &format!("invalid JSON at byte {}: {}", e.at, e.msg),
            ),
        )
    })
}

/// The status an engine rejection maps to: contained panics are the
/// server's fault (`500`), everything else is the query's (`422`).
fn engine_error_status(e: &EngineError) -> u16 {
    match e {
        EngineError::Internal => 500,
        _ => 422,
    }
}

fn parse_route(body: &[u8]) -> Result<Query, Response> {
    let doc = parse_body(body)?;
    query_from_json(&doc)
        .map_err(|msg| Response::json(400, protocol_error_body("bad_request", &msg)))
}

/// `POST /route_batch`: `{"queries":[...], "parallelism": n?}`. The
/// `"parallelism"` member is accepted and type-checked for clients that
/// still send it, but chooses nothing: every batch runs on the server's
/// executor lanes.
fn parse_route_batch(body: &[u8]) -> Result<EngineWork, Response> {
    let doc = parse_body(body)?;
    let raw_queries = match doc.get("queries").and_then(|q| q.as_arr()) {
        Some(items) => items,
        None => {
            return Err(Response::json(
                400,
                protocol_error_body("bad_request", "missing array member \"queries\""),
            ))
        }
    };
    if raw_queries.len() > MAX_BATCH_QUERIES {
        return Err(Response::json(
            400,
            protocol_error_body(
                "bad_request",
                &format!("batch exceeds {MAX_BATCH_QUERIES} queries"),
            ),
        ));
    }
    if doc
        .get("parallelism")
        .is_some_and(|raw| raw.as_u64().is_none())
    {
        return Err(Response::json(
            400,
            protocol_error_body("bad_request", "\"parallelism\" must be an unsigned integer"),
        ));
    }
    let mut queries: Vec<Query> = Vec::with_capacity(raw_queries.len());
    for (i, raw) in raw_queries.iter().enumerate() {
        match query_from_json(raw) {
            Ok(q) => queries.push(q),
            Err(msg) => {
                return Err(Response::json(
                    400,
                    protocol_error_body("bad_request", &format!("queries[{i}]: {msg}")),
                ))
            }
        }
    }
    Ok(EngineWork::Batch(queries))
}

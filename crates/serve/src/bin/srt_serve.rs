//! `srt-serve` — serve a routing engine over HTTP, or prove the serving
//! stack end-to-end with `--smoke`.
//!
//! ```text
//! srt_serve [--addr HOST:PORT] [--workers N] [--queue N] [--model PATH]
//!           [--max-batch N] [--batch-window MICROS] [--smoke]
//! ```
//!
//! Without `--smoke`, trains the tiny synthetic fixture world, starts
//! the server, and serves until the process is killed; `--model PATH`
//! names the snapshot file `POST /reload` re-reads for zero-downtime
//! hot swaps (without it `/reload` answers `409`). There is one serving
//! machinery — nonblocking connection loop, request-granular dispatch,
//! micro-batched engine calls on `--workers` executor lanes;
//! `--max-batch` (default 8) caps how many `/route` requests share one
//! engine call, `1` meaning batches of one through the same planes.
//! `--batch-window` (microseconds, default 0) lets the batcher wait to
//! top up a partial batch, trading a bounded slice of latency for
//! larger batches. With `--smoke`,
//! binds an ephemeral port and runs the CI smoke sequence: liveness
//! probe, bitwise `/route` parity against the in-process engine, a
//! closed-loop `/route_batch`, `/metrics` counter checks, a hot-swap
//! round (reload → epoch bump → parity, corrupt snapshot → `422` with
//! the old epoch still serving), and a graceful drain — exiting
//! non-zero on the first violation.

#![forbid(unsafe_code)]

use srt_core::model::io as model_io;
use srt_core::model::training::{train_hybrid, TrainingConfig};
use srt_core::routing::{EngineBuilder, Query, RoutingEngine};
use srt_core::{CombinePolicy, HybridCost, HybridModel};
use srt_ml::forest::ForestConfig;
use srt_serve::client::{request_once, Client};
use srt_serve::{json, Server, ServerConfig};
use srt_synth::{DistanceCategory, QueryGenerator, SyntheticWorld, WorldConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    addr: String,
    workers: usize,
    queue: usize,
    model: Option<PathBuf>,
    max_batch: usize,
    batch_window_us: u64,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        workers: 0,
        queue: 64,
        model: None,
        max_batch: 8,
        batch_window_us: 0,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                args.queue = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--model" => args.model = Some(PathBuf::from(value("--model")?)),
            "--max-batch" => {
                args.max_batch = value("--max-batch")?
                    .parse::<usize>()
                    .map_err(|e| format!("--max-batch: {e}"))?
                    .max(1)
            }
            "--batch-window" => {
                args.batch_window_us = value("--batch-window")?
                    .parse()
                    .map_err(|e| format!("--batch-window: {e}"))?
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!(
                    "usage: srt_serve [--addr HOST:PORT] [--workers N] [--queue N] \
                     [--model PATH] [--max-batch N] [--batch-window MICROS] [--smoke]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Trains the tiny fixture world and builds an engine over it — the
/// same fixture the parity tests use, so the smoke run exercises a real
/// trained model, not a mock.
fn fixture_engine() -> (RoutingEngine, SyntheticWorld, HybridModel) {
    let world = SyntheticWorld::build(WorldConfig::tiny());
    let cfg = TrainingConfig {
        train_pairs: 120,
        test_pairs: 40,
        min_obs: 5,
        bins: 10,
        forest: ForestConfig {
            n_trees: 6,
            ..ForestConfig::default()
        },
        ..TrainingConfig::default()
    };
    let (model, _) = train_hybrid(&world, &cfg).expect("fixture world trains");
    let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
    (EngineBuilder::new(cost).build(), world, model)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("srt_serve: {e}");
            return ExitCode::from(2);
        }
    };

    eprintln!("srt_serve: training fixture world (tiny)...");
    let (engine, world, model) = fixture_engine();
    let engine = Arc::new(engine);

    let config = ServerConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        model_path: args.model.clone(),
        max_batch: args.max_batch,
        batch_window: std::time::Duration::from_micros(args.batch_window_us),
        ..ServerConfig::default()
    };

    if args.smoke {
        eprintln!("srt_serve --smoke: max_batch {}", args.max_batch);
        return match smoke(engine, world, model, config) {
            Ok(()) => {
                println!("srt_serve --smoke: all checks passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("srt_serve --smoke FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let server = match Server::start(engine, args.addr.as_str(), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("srt_serve: bind {} failed: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("srt_serve: listening on http://{}", server.local_addr());
    loop {
        std::thread::park();
    }
}

/// Parses a healthz/reload body and returns its `epoch`, failing if
/// `ok` is not `true`.
fn epoch_from_body(text: &str) -> Result<u64, String> {
    let doc = json::parse(text).map_err(|e| format!("bad JSON: {}", e.msg))?;
    if doc.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        return Err(format!("body did not report ok:true: {text:?}"));
    }
    doc.get("epoch")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("no epoch in body: {text:?}"))
}

fn smoke(
    engine: Arc<RoutingEngine>,
    world: SyntheticWorld,
    model: HybridModel,
    mut config: ServerConfig,
) -> Result<(), String> {
    // The hot-swap round re-reads a real snapshot file; keep it inside
    // the workspace's build tree so the smoke run never writes outside
    // the repo.
    let tmp_dir = std::path::Path::new("target/tmp");
    std::fs::create_dir_all(tmp_dir).map_err(|e| format!("mkdir {}: {e}", tmp_dir.display()))?;
    let snapshot_path = tmp_dir.join(format!("srt_smoke_model_{}.bin", std::process::id()));
    model_io::write_file(&snapshot_path, &model).map_err(|e| format!("write snapshot: {e}"))?;
    config.model_path = Some(snapshot_path.clone());

    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", config)
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    eprintln!("srt_serve --smoke: serving on {addr}");

    // 1. Liveness, reporting the starting epoch.
    let health = request_once(addr, "GET", "/healthz", None).map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 {
        return Err(format!("healthz answered {}", health.status));
    }
    let epoch0 = epoch_from_body(&health.text()).map_err(|e| format!("healthz: {e}"))?;
    if epoch0 != 0 {
        return Err(format!("fresh engine reports epoch {epoch0}, expected 0"));
    }

    // 2. Bitwise /route parity against the in-process engine.
    let queries: Vec<Query> = QueryGenerator::new(0x5E)
        .generate(&world.graph, &world.model, DistanceCategory::ZeroToOne, 12)
        .iter()
        .map(Query::from)
        .collect();
    let mut conn = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for (i, q) in queries.iter().enumerate() {
        let reference = engine
            .route(q)
            .map_err(|e| format!("query {i} rejected in-process: {e}"))?;
        let body = format!(
            "{{\"source\":{},\"target\":{},\"budget_s\":{:?}}}",
            q.source.0, q.target.0, q.budget_s
        );
        let resp = conn
            .request("POST", "/route", Some(&body))
            .map_err(|e| format!("query {i}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("query {i} answered {}: {}", resp.status, resp.text()));
        }
        let doc = json::parse(&resp.text()).map_err(|e| format!("query {i}: bad JSON: {}", e.msg))?;
        let served = doc
            .get("probability")
            .and_then(|p| p.as_f64())
            .ok_or_else(|| format!("query {i}: no probability in response"))?;
        if served.to_bits() != reference.probability.to_bits() {
            return Err(format!(
                "query {i}: probability over HTTP {served} != in-process {}",
                reference.probability
            ));
        }
    }
    eprintln!(
        "srt_serve --smoke: {} /route answers bitwise-identical to the engine",
        queries.len()
    );

    // 3. Closed-loop batch.
    let mut batch_body = String::from("{\"queries\":[");
    for (i, q) in queries.iter().enumerate() {
        if i > 0 {
            batch_body.push(',');
        }
        batch_body.push_str(&format!(
            "{{\"source\":{},\"target\":{},\"budget_s\":{:?}}}",
            q.source.0, q.target.0, q.budget_s
        ));
    }
    batch_body.push_str("],\"parallelism\":2}");
    let resp = conn
        .request("POST", "/route_batch", Some(&batch_body))
        .map_err(|e| format!("route_batch: {e}"))?;
    if resp.status != 200 {
        return Err(format!("route_batch answered {}", resp.status));
    }
    let doc = json::parse(&resp.text()).map_err(|e| format!("route_batch: bad JSON: {}", e.msg))?;
    let n_results = doc
        .get("results")
        .and_then(|r| r.as_arr())
        .map(|r| r.len())
        .unwrap_or(0);
    if n_results != queries.len() {
        return Err(format!(
            "route_batch returned {n_results} results for {} queries",
            queries.len()
        ));
    }

    // 4. Metrics counters reflect the traffic.
    let metrics = conn
        .request("GET", "/metrics", None)
        .map_err(|e| format!("metrics: {e}"))?;
    let page = metrics.text();
    let sample = |name: &str| -> Result<f64, String> {
        page.lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("metric {name} missing from /metrics"))
    };
    // 12 routes + 1 batch + this scrape, at minimum.
    let requests = sample("srt_serve_requests_total")?;
    if requests < 14.0 {
        return Err(format!("srt_serve_requests_total {requests} < 14"));
    }
    if sample("srt_serve_responses_total_2xx")? < 14.0 {
        return Err("too few 2xx responses recorded".into());
    }
    sample("srt_serve_shed_total")?;
    if sample("srt_engine_queries_total")? < 24.0 {
        // 12 in-process references + 12 over HTTP + the batch.
        return Err("engine query counter did not see the traffic".into());
    }
    if sample("srt_engine_panics_total")? != 0.0 {
        return Err("smoke traffic tripped the panic counter".into());
    }
    eprintln!("srt_serve --smoke: /metrics counters consistent");

    // 5. Hot swap: /reload re-reads the snapshot and publishes epoch 1
    // while this very connection keeps getting served.
    let resp = conn
        .request("POST", "/reload", None)
        .map_err(|e| format!("reload: {e}"))?;
    if resp.status != 200 {
        return Err(format!("reload answered {}: {}", resp.status, resp.text()));
    }
    let epoch1 = epoch_from_body(&resp.text()).map_err(|e| format!("reload: {e}"))?;
    if epoch1 != 1 {
        return Err(format!("reload published epoch {epoch1}, expected 1"));
    }
    let health = conn
        .request("GET", "/healthz", None)
        .map_err(|e| format!("healthz after reload: {e}"))?;
    if epoch_from_body(&health.text()) != Ok(1) {
        return Err(format!(
            "healthz after reload: {:?}, expected epoch 1",
            health.text()
        ));
    }
    // The snapshot round-trips the same trained model, so every answer
    // must still be bitwise-identical to the (now also swapped)
    // in-process engine.
    for (i, q) in queries.iter().enumerate() {
        let reference = engine
            .route(q)
            .map_err(|e| format!("post-swap query {i} rejected in-process: {e}"))?;
        let body = format!(
            "{{\"source\":{},\"target\":{},\"budget_s\":{:?}}}",
            q.source.0, q.target.0, q.budget_s
        );
        let resp = conn
            .request("POST", "/route", Some(&body))
            .map_err(|e| format!("post-swap query {i}: {e}"))?;
        let doc =
            json::parse(&resp.text()).map_err(|e| format!("post-swap query {i}: {}", e.msg))?;
        let served = doc
            .get("probability")
            .and_then(|p| p.as_f64())
            .ok_or_else(|| format!("post-swap query {i}: no probability"))?;
        if served.to_bits() != reference.probability.to_bits() {
            return Err(format!(
                "post-swap query {i}: {served} != in-process {}",
                reference.probability
            ));
        }
    }
    eprintln!("srt_serve --smoke: reload published epoch 1, answers still bitwise-identical");

    // 6. A corrupt snapshot is rejected with 422 and the old epoch
    // keeps serving.
    let good_bytes =
        std::fs::read(&snapshot_path).map_err(|e| format!("re-read snapshot: {e}"))?;
    std::fs::write(&snapshot_path, &good_bytes[..good_bytes.len() / 2])
        .map_err(|e| format!("truncate snapshot: {e}"))?;
    let resp = conn
        .request("POST", "/reload", None)
        .map_err(|e| format!("reload (corrupt): {e}"))?;
    if resp.status != 422 {
        return Err(format!(
            "corrupt snapshot answered {} (expected 422): {}",
            resp.status,
            resp.text()
        ));
    }
    let health = conn
        .request("GET", "/healthz", None)
        .map_err(|e| format!("healthz after bad reload: {e}"))?;
    if epoch_from_body(&health.text()) != Ok(1) {
        return Err(format!(
            "bad reload moved the epoch: {:?}",
            health.text()
        ));
    }
    let probe = &queries[0];
    let body = format!(
        "{{\"source\":{},\"target\":{},\"budget_s\":{:?}}}",
        probe.source.0, probe.target.0, probe.budget_s
    );
    let resp = conn
        .request("POST", "/route", Some(&body))
        .map_err(|e| format!("probe after bad reload: {e}"))?;
    if resp.status != 200 {
        return Err(format!("probe after bad reload answered {}", resp.status));
    }
    let metrics = conn
        .request("GET", "/metrics", None)
        .map_err(|e| format!("metrics after reload: {e}"))?;
    let page = metrics.text();
    let epoch_line = page
        .lines()
        .find(|l| l.starts_with("srt_engine_epoch "))
        .ok_or("srt_engine_epoch missing from /metrics")?;
    if epoch_line != "srt_engine_epoch 1" {
        return Err(format!("unexpected {epoch_line:?} after swap round"));
    }
    eprintln!("srt_serve --smoke: corrupt snapshot rejected, epoch 1 kept serving");
    let _ = std::fs::remove_file(&snapshot_path);

    // 7. Graceful drain.
    drop(conn);
    let report = server.shutdown();
    if report.in_flight_after_drain != 0 {
        return Err(format!(
            "{} requests still in flight after drain",
            report.in_flight_after_drain
        ));
    }
    eprintln!(
        "srt_serve --smoke: drained cleanly ({} connections served, {} shed)",
        report.connections_served, report.connections_shed
    );
    Ok(())
}

//! `srt-serve` — serve a routing engine over HTTP.
//!
//! ```text
//! srt_serve [--addr HOST:PORT] [--workers N] [--queue N] [--model PATH]
//!           [--max-batch N] [--batch-window MICROS]
//! ```
//!
//! Trains the tiny synthetic fixture world, starts the server, and
//! serves until the process is killed; `--model PATH` names the
//! snapshot file `POST /reload` re-reads for zero-downtime hot swaps
//! (without it `/reload` answers `409`). There is one serving
//! machinery — nonblocking connection loop, request-granular dispatch,
//! micro-batched engine calls on `--workers` executor lanes;
//! `--max-batch` (default 8) caps how many `/route` requests share one
//! engine call, `1` meaning batches of one through the same planes.
//! `--batch-window` (microseconds, default 0) lets the batcher wait to
//! top up a partial batch, trading a bounded slice of latency for
//! larger batches. The socket-level behaviour is certified by
//! `crates/serve/tests/http_serve.rs`; flag parsing by
//! `crates/serve/tests/srt_serve_cli.rs`.

#![forbid(unsafe_code)]

use srt_core::model::training::{train_hybrid, TrainingConfig};
use srt_core::routing::{EngineBuilder, RoutingEngine};
use srt_core::{CombinePolicy, HybridCost};
use srt_ml::forest::ForestConfig;
use srt_serve::{Server, ServerConfig};
use srt_synth::{SyntheticWorld, WorldConfig};
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
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        workers: 0,
        queue: 64,
        model: None,
        max_batch: 8,
        batch_window_us: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
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
            "--help" | "-h" => {
                println!(
                    "usage: srt_serve [--addr HOST:PORT] [--workers N] [--queue N] \
                     [--model PATH] [--max-batch N] [--batch-window MICROS]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Trains the tiny fixture world and builds an engine over it — the
/// same fixture the socket tests use, so the server answers with a real
/// trained model, not a mock.
fn fixture_engine() -> RoutingEngine {
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
    EngineBuilder::new(cost).build()
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
    let engine = Arc::new(fixture_engine());

    let config = ServerConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        model_path: args.model,
        max_batch: args.max_batch,
        batch_window: std::time::Duration::from_micros(args.batch_window_us),
        ..ServerConfig::default()
    };

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

//! What the connection plane costs when it has little or nothing to do,
//! read as process CPU time from `/proc/self/stat`.
//!
//! The binary holds exactly one test, so the process's CPU is the
//! server's plus this test's own client — no neighbouring test runs on
//! another harness thread. Two phases:
//!
//! * **paced** — 100 `/healthz` requests on one keep-alive connection,
//!   3 ms apart, stay under a per-request CPU budget. A readiness loop
//!   that spins (`yield_now`) for a millisecond after every answer pays
//!   that millisecond on every request and fails here;
//! * **quiet** — behind 32 parked keep-alive connections, one second
//!   with no traffic at all costs under 10 % of a core. A loop that keeps
//!   waking at its finest interval, rescanning the fleet every few
//!   hundred µs, fails here.

#![cfg(target_os = "linux")]

#[allow(dead_code)] // The suites' shared client; this one sends only keep-alive requests.
mod client;

use client::Client;
use srt_core::model::training::{train_hybrid, TrainingConfig};
use srt_core::routing::EngineBuilder;
use srt_core::{CombinePolicy, HybridCost};
use srt_ml::forest::ForestConfig;
use srt_serve::{Server, ServerConfig};
use srt_synth::{SyntheticWorld, WorldConfig};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Process CPU time (user + system, every thread) in milliseconds, at
/// the 10 ms resolution of `USER_HZ` = 100.
fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Field 2 (the command name) may hold spaces; count from its `)`.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11) // utime and stime are fields 14 and 15
        .take(2)
        .map(|f| f.parse::<f64>().expect("utime/stime are numbers"))
        .sum();
    ticks * 10.0
}

/// Per-request CPU allowed while one peer paces requests 3 ms apart.
/// Measured in the unoptimised test build on 2 cores: 0.3–0.5 ms with a
/// 100 µs spin and 100 µs timed waits after it, 1.1–1.3 ms with a 1 ms
/// `yield_now` spin after every answer. That spin's cost is wall time,
/// so a slower machine only widens the gap.
const PACED_CPU_BUDGET_MS: f64 = 0.8;
/// Share of one core that one second of quiet may cost behind the
/// parked fleet. Measured as above: 3–4 % when the waits double to
/// 2 ms, 14–18 % when they stay at 100 µs.
const QUIET_CPU_BUDGET: f64 = 0.10;

#[test]
fn the_connection_plane_does_not_spin_when_idle_or_paced() {
    let world = SyntheticWorld::build(WorldConfig::tiny());
    let training = TrainingConfig {
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
    let (model, _) = train_hybrid(&world, &training).expect("fixture trains");
    let engine = EngineBuilder::new(HybridCost::from_ground_truth(
        &world,
        &model,
        CombinePolicy::Hybrid,
    ))
    .build();
    let server = Server::start(
        Arc::new(engine),
        "127.0.0.1:0",
        ServerConfig {
            // The parked fleet must outlive the quiet second.
            idle_timeout: None,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    // ── Paced: one request every 3 ms on one keep-alive connection. ──
    let mut paced = Client::connect(addr).unwrap();
    assert_eq!(paced.request("GET", "/healthz", None).unwrap().status, 200);
    const PACED: usize = 100;
    let before = process_cpu_ms();
    for i in 0..PACED {
        thread::sleep(Duration::from_millis(3));
        let resp = paced.request("GET", "/healthz", None).unwrap();
        assert_eq!(resp.status, 200, "paced request {i}");
    }
    let per_request = (process_cpu_ms() - before) / PACED as f64;
    assert!(
        per_request < PACED_CPU_BUDGET_MS,
        "a paced request cost {per_request:.2} ms of CPU (budget {PACED_CPU_BUDGET_MS} ms) — \
         the readiness loop spins between requests"
    );

    // ── Quiet: 32 parked connections, then one second of nothing. ──
    let mut fleet: Vec<Client> = (0..32)
        .map(|i| {
            let mut c = Client::connect(addr).unwrap();
            let resp = c.request("GET", "/healthz", None).unwrap();
            assert_eq!(resp.status, 200, "fleet member {i}");
            c
        })
        .collect();
    // Past the fine-wait window, so the second measures the settled loop.
    thread::sleep(Duration::from_millis(100));
    let before = process_cpu_ms();
    thread::sleep(Duration::from_secs(1));
    let share = (process_cpu_ms() - before) / 1000.0;
    assert!(
        share < QUIET_CPU_BUDGET,
        "one quiet second behind 32 parked connections cost {:.0} % of a core \
         (budget {:.0} %) — the readiness loop never backs off",
        share * 100.0,
        QUIET_CPU_BUDGET * 100.0
    );

    // The parked peers are still served after the quiet second.
    for (i, c) in fleet.iter_mut().enumerate() {
        let resp = c.request("GET", "/healthz", None).unwrap();
        assert_eq!(resp.status, 200, "parked connection {i}");
    }
    drop((paced, fleet));
    assert_eq!(server.shutdown().in_flight_after_drain, 0);
}

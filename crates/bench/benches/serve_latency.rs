//! Closed-loop serving-latency bench for `srt-serve` — the repo's perf
//! datapoint *behind a socket* rather than in-process.
//!
//! Not a criterion bench: the quantities under test are the
//! client-observed latency distribution (p50/p99/p999) and the accepted
//! throughput of a real server — nonblocking connection loop,
//! request-granular dispatch queue, micro-batched engine calls — in
//! three regimes:
//!
//! * **uncontended** — as many closed-loop clients as executor lanes
//!   (pure connect + service time); nothing may be shed,
//! * **2× overload** — twice the server's holding capacity in
//!   closed-loop clients; the bounded dispatch queue sheds the excess
//!   with immediate, clean `503`s (never resets),
//! * **parked keep-alive fleet** (1000 connections) — held **without
//!   thread-per-connection** while new traffic stays fast behind it.
//!
//! The run double-checks bitwise parity between HTTP answers and direct
//! `RoutingEngine::route` calls, and the final `/metrics` scrape is
//! reported alongside the client-observed numbers — including the
//! `srt_serve_batch_size` histogram, `srt_serve_pipelined_total` and
//! `srt_serve_inflight_requests` families, with the
//! requests-total/histogram coherence asserted on the scraped page
//! itself. Output is one JSON document on stdout; `--test` runs a fast
//! smoke at tiny sample sizes.
//!
//! The committed `BENCH_serve.json` predates the removal of the
//! thread-per-worker server: it is kept verbatim as the record of the
//! last run that had both machineries (its `legacy` block and the two
//! cross-machinery ratios cannot be measured any more), so this bench's
//! output no longer has those members.

use srt_bench::tiny_context;
use srt_core::routing::{EngineBuilder, Query, RoutingEngine};
use srt_core::{CombinePolicy, HybridCost};
use srt_serve::client::Client;
use srt_serve::{json, Server, ServerConfig};
use srt_synth::{DistanceCategory, QueryGenerator};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// Sized for the smallest CI box (1 core): the quantity under test is
// queueing/dispatch behavior, not scheduler contention between bench
// threads.
const WORKERS: usize = 1;
const QUEUE_CAPACITY: usize = 1;
const MAX_BATCH: usize = 8;
/// How long a shed client waits before retrying — the backoff the 503
/// body asks for. Without it the refusals themselves become a retry
/// storm that starves the lanes.
const SHED_BACKOFF: Duration = Duration::from_millis(1);

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct PhaseOutcome {
    latencies_s: Vec<f64>,
    shed: u64,
    errors: u64,
    elapsed_s: f64,
}

impl PhaseOutcome {
    /// Accepted (200-answered) requests per wall-clock second.
    fn accepted_per_s(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.latencies_s.len() as f64 / self.elapsed_s
        } else {
            0.0
        }
    }
}

/// Runs `clients` closed-loop connect-per-request drivers for
/// `per_client` attempts each. A `503` counts as shed (no latency
/// sample); a `200` contributes its client-observed latency.
fn drive(addr: SocketAddr, queries: &[Query], clients: usize, per_client: usize) -> PhaseOutcome {
    let shed = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let started_phase = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let shed = Arc::clone(&shed);
            let errors = Arc::clone(&errors);
            let queries = queries.to_vec();
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let q = &queries[(c + i * 7) % queries.len()];
                    let body = format!(
                        "{{\"source\":{},\"target\":{},\"budget_s\":{:?}}}",
                        q.source.0, q.target.0, q.budget_s
                    );
                    let started = Instant::now();
                    let outcome = Client::connect_with_timeout(addr, Duration::from_secs(10))
                        .and_then(|mut conn| conn.request_closing("POST", "/route", Some(&body)));
                    match outcome {
                        Ok(resp) if resp.status == 200 => {
                            latencies.push(started.elapsed().as_secs_f64());
                        }
                        Ok(resp) if resp.status == 503 => {
                            shed.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(SHED_BACKOFF);
                        }
                        _ => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies
            })
        })
        .collect();
    let mut latencies_s: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed_s = started_phase.elapsed().as_secs_f64();
    latencies_s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    PhaseOutcome {
        latencies_s,
        shed: shed.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed_s,
    }
}

fn phase_json(name: &str, p: &PhaseOutcome) -> String {
    format!(
        "    \"{name}\": {{\n      \"samples\": {},\n      \"shed\": {},\n      \"errors\": {},\n      \
         \"elapsed_s\": {:?},\n      \"accepted_per_s\": {:?},\n      \
         \"p50_s\": {:?},\n      \"p99_s\": {:?},\n      \"p999_s\": {:?}\n    }}",
        p.latencies_s.len(),
        p.shed,
        p.errors,
        p.elapsed_s,
        p.accepted_per_s(),
        percentile(&p.latencies_s, 0.50),
        percentile(&p.latencies_s, 0.99),
        percentile(&p.latencies_s, 0.999),
    )
}

/// Bitwise parity spot-check: HTTP answers equal direct engine answers.
fn check_parity(addr: SocketAddr, engine: &RoutingEngine, queries: &[Query]) {
    let mut conn = Client::connect(addr).expect("parity connect");
    for (i, q) in queries.iter().enumerate() {
        let reference = engine.route(q).expect("bench queries are valid");
        let body = format!(
            "{{\"source\":{},\"target\":{},\"budget_s\":{:?}}}",
            q.source.0, q.target.0, q.budget_s
        );
        let resp = conn
            .request("POST", "/route", Some(&body))
            .expect("parity request");
        assert_eq!(resp.status, 200, "parity query {i}");
        let doc = json::parse(&resp.text()).expect("parity JSON");
        let served = doc
            .get("probability")
            .and_then(|p| p.as_f64())
            .expect("probability member");
        assert_eq!(
            served.to_bits(),
            reference.probability.to_bits(),
            "query {i}: HTTP answer drifted from the in-process engine"
        );
    }
}

/// Runs the uncontended + 2× overload regimes against the server.
fn run_regimes(
    addr: SocketAddr,
    queries: &[Query],
    per_client: usize,
) -> (PhaseOutcome, PhaseOutcome) {
    // Warm the engine's pools and bounds cache out of the measurement.
    drive(addr, queries, WORKERS, 10);
    let uncontended = drive(addr, queries, WORKERS, per_client);
    assert_eq!(uncontended.shed, 0, "uncontended traffic must not shed");
    assert_eq!(uncontended.errors, 0, "uncontended traffic must not error");

    let overload_clients = 2 * (WORKERS + QUEUE_CAPACITY);
    let overload = drive(addr, queries, overload_clients, per_client);
    assert_eq!(overload.errors, 0, "shedding must be clean 503s, not resets");
    (uncontended, overload)
}

fn thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

struct FleetOutcome {
    connections: usize,
    threads_before: u64,
    threads_after: u64,
    p50_behind_fleet_s: f64,
}

/// The 1k-idle-keep-alive scenario: a parked fleet must cost scan
/// slots, not threads, and traffic behind it must stay fast.
fn idle_fleet(engine: &Arc<RoutingEngine>, queries: &[Query], connections: usize) -> FleetOutcome {
    let server = Server::start(
        Arc::clone(engine),
        "127.0.0.1:0",
        ServerConfig {
            workers: WORKERS,
            max_batch: MAX_BATCH,
            queue_capacity: 64,
            // Parked peers are reaped by deadline in production; here
            // they must survive the whole scenario.
            idle_timeout: None,
            max_connections: connections + 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind fleet server");
    let addr = server.local_addr();
    let threads_before = thread_count();

    let mut fleet: Vec<Client> = Vec::with_capacity(connections);
    for i in 0..connections {
        let mut c = Client::connect(addr).unwrap_or_else(|e| panic!("fleet connect {i}: {e}"));
        let resp = c
            .request("GET", "/healthz", None)
            .unwrap_or_else(|e| panic!("fleet probe {i}: {e}"));
        assert_eq!(resp.status, 200, "fleet member {i}");
        fleet.push(c);
    }
    let threads_after = thread_count();
    if threads_before > 0 {
        assert!(
            threads_after.saturating_sub(threads_before) < 32,
            "{connections} parked connections grew the process by {} threads — \
             that is thread-per-connection",
            threads_after.saturating_sub(threads_before)
        );
    }

    // Fresh traffic behind the parked fleet.
    let mut live = Client::connect(addr).expect("live connect behind fleet");
    let mut latencies: Vec<f64> = (0..50)
        .map(|i| {
            let q = &queries[i % queries.len()];
            let body = format!(
                "{{\"source\":{},\"target\":{},\"budget_s\":{:?}}}",
                q.source.0, q.target.0, q.budget_s
            );
            let started = Instant::now();
            let resp = live
                .request("POST", "/route", Some(&body))
                .expect("request behind fleet");
            assert_eq!(resp.status, 200, "request {i} behind the fleet");
            started.elapsed().as_secs_f64()
        })
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50_behind_fleet_s = percentile(&latencies, 0.50);

    // The parked fleet is still alive (spot-check), then drains clean.
    for (i, c) in fleet.iter_mut().rev().take(5).enumerate() {
        let resp = c
            .request("GET", "/healthz", None)
            .unwrap_or_else(|e| panic!("parked connection {i} died: {e}"));
        assert_eq!(resp.status, 200);
    }
    drop(live);
    drop(fleet);
    let report = server.shutdown();
    assert_eq!(report.in_flight_after_drain, 0);

    FleetOutcome {
        connections,
        threads_before,
        threads_after,
        p50_behind_fleet_s,
    }
}

fn start_server(engine: &Arc<RoutingEngine>) -> Server {
    Server::start(
        Arc::clone(engine),
        "127.0.0.1:0",
        ServerConfig {
            workers: WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            max_batch: MAX_BATCH,
            read_timeout: Some(Duration::from_secs(10)),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let per_client = if smoke { 20 } else { 300 };
    let fleet_size = if smoke { 100 } else { 1000 };

    let ctx = tiny_context();
    let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
    let engine = Arc::new(EngineBuilder::new(cost).build());
    let queries: Vec<Query> = QueryGenerator::new(0x5E21)
        .generate(
            &ctx.world.graph,
            &ctx.world.model,
            DistanceCategory::ZeroToOne,
            16,
        )
        .iter()
        .map(Query::from)
        .collect();
    assert!(!queries.is_empty(), "fixture produced no queries");

    let server = start_server(&engine);
    let addr = server.local_addr();
    check_parity(addr, &engine, &queries);
    let (uncontended, overload) = run_regimes(addr, &queries, per_client);

    // A pipelined burst on one connection, so the scrape carries real
    // samples in the batching metric families. Against a
    // capacity-1 dispatch queue most of the burst sheds — request-
    // granular 503s on a connection that stays usable.
    let mut burst_shed: u64 = 0;
    {
        let q = &queries[0];
        let body = format!(
            "{{\"source\":{},\"target\":{},\"budget_s\":{:?}}}",
            q.source.0, q.target.0, q.budget_s
        );
        let one = format!(
            "POST /route HTTP/1.1\r\nHost: srt-serve\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut conn = Client::connect(addr).expect("pipeline connect");
        let burst: Vec<u8> = one.as_bytes().repeat(32);
        conn.send_raw(&burst).expect("pipeline burst");
        for i in 0..32 {
            let resp = conn
                .read_response()
                .unwrap_or_else(|e| panic!("pipelined response {i} lost: {e}"));
            assert!(
                resp.status == 200 || resp.status == 503,
                "pipelined response {i}: status {}",
                resp.status
            );
            if resp.status == 503 {
                burst_shed += 1;
            }
        }
    }

    // Scrape the server's own view before shutdown: what an operator's
    // Prometheus would have seen.
    let page = Client::connect(addr)
        .and_then(|mut c| c.request_closing("GET", "/metrics", None))
        .expect("metrics scrape")
        .text();
    let scrape = |name: &str| -> f64 {
        page.lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("metric {name} missing from /metrics"))
    };
    let served_requests = scrape("srt_serve_requests_total");
    let served_shed = scrape("srt_serve_shed_total");
    let served_latency_count = scrape("srt_serve_request_seconds_count");
    let served_latency_sum_s = scrape("srt_serve_request_seconds_sum");
    let batch_size_count = scrape("srt_serve_batch_size_count");
    let batch_size_sum = scrape("srt_serve_batch_size_sum");
    let pipelined_total = scrape("srt_serve_pipelined_total");
    let inflight_requests = scrape("srt_serve_inflight_requests");
    let engine_epoch = scrape("srt_engine_epoch");
    // The scrape-coherence regression, asserted on the wire: the page
    // itself may never show the counter and the histogram apart.
    assert_eq!(
        served_requests as u64, served_latency_count as u64,
        "scrape shows requests_total and request_seconds_count apart"
    );
    assert_eq!(
        served_shed as u64,
        overload.shed + burst_shed,
        "server-side shed counter disagrees with client-observed 503s"
    );
    assert!(batch_size_count > 0.0, "no batches were observed");
    assert!(pipelined_total > 0.0, "the burst must register as pipelined");

    let report = server.shutdown();
    assert_eq!(report.in_flight_after_drain, 0);

    // ── The parked keep-alive fleet. ──
    let fleet = idle_fleet(&engine, &queries, fleet_size);
    assert!(
        fleet.p50_behind_fleet_s < 0.01,
        "p50 behind the parked fleet is {:.6}s — idle connections are taxing live traffic",
        fleet.p50_behind_fleet_s
    );

    println!(
        "{{\n  \"bench\": \"serve_latency\",\n  \"mode\": \"{}\",\n  \"workers\": {WORKERS},\n  \
         \"queue_capacity\": {QUEUE_CAPACITY},\n  \"max_batch\": {MAX_BATCH},\n  \
         \"batch_window_us\": 0,\n  \"overload_clients\": {},\n  \
         \"regimes\": {{\n{},\n{}\n  }},\n  \
         \"idle_keepalive\": {{\n    \"connections\": {},\n    \"threads_before\": {},\n    \
         \"threads_after\": {},\n    \"p50_behind_fleet_s\": {:?}\n  }},\n  \
         \"server_metrics\": {{\n    \"srt_serve_requests_total\": {},\n    \
         \"srt_serve_shed_total\": {},\n    \"srt_serve_request_seconds_count\": {},\n    \
         \"srt_serve_request_seconds_sum\": {:?},\n    \"srt_serve_batch_size_count\": {},\n    \
         \"srt_serve_batch_size_sum\": {},\n    \"srt_serve_pipelined_total\": {},\n    \
         \"srt_serve_inflight_requests\": {},\n    \"srt_engine_epoch\": {}\n  }},\n  \
         \"parity\": \"bitwise-identical to in-process RoutingEngine::route\"\n}}",
        if smoke { "smoke" } else { "full" },
        2 * (WORKERS + QUEUE_CAPACITY),
        phase_json("uncontended", &uncontended),
        phase_json("overload_2x", &overload),
        fleet.connections,
        fleet.threads_before,
        fleet.threads_after,
        fleet.p50_behind_fleet_s,
        served_requests as u64,
        served_shed as u64,
        served_latency_count as u64,
        served_latency_sum_s,
        batch_size_count as u64,
        batch_size_sum as u64,
        pipelined_total as u64,
        inflight_requests as u64,
        engine_epoch as u64,
    );
}

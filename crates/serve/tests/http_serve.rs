//! End-to-end certification of the serving layer over real sockets —
//! the one suite for the one server:
//!
//! * **parity** — `POST /route` answers, alone or under concurrent
//!   micro-batched dispatch (`max_batch` 8 and 1), are bitwise-identical
//!   (probability, distribution, path, counters) to calling
//!   `RoutingEngine::route` in-process, and `/route_batch` matches
//!   sequential routes whatever `"parallelism"` the body carries,
//! * **protocol** — malformed JSON is `400`, typed engine rejections
//!   are `422` with machine-readable kinds, wrong methods are `405`,
//!   unknown paths `404`,
//! * **pipelining** — many requests written in one burst are all
//!   parsed and answered, strictly in request order, with cheap
//!   endpoints interleaved between engine-bound ones,
//! * **request-granular shedding** — a lone connect-per-request client
//!   is never shed, while 2× overload from keep-alive clients sending
//!   pipelined pairs and a pipelined burst cost the overflowing
//!   *requests* clean `503`s (no connection reset) and every connection
//!   keeps being served,
//! * **metrics accounting** — the scraped `/metrics` page holds
//!   `requests_total` and the latency histogram's count together, its
//!   `shed_total` equals the `503`s the clients saw, exactly, and its
//!   batching, response-class and engine families reflect the traffic,
//! * **containment** — a query that panics mid-search returns an inline
//!   `500`-kind error in its batch without failing batch-mates, and the
//!   server keeps serving afterwards,
//! * **drain** — graceful shutdown answers every admitted request
//!   (zero in flight afterwards, all responses delivered), even
//!   mid-pipeline,
//! * **hot swap** — `POST /reload` publishes a new engine epoch (in
//!   `/healthz` and as `srt_engine_epoch` on `/metrics`) with zero
//!   dropped connections, a corrupt snapshot answers `422` while the old
//!   epoch keeps serving, and a server without a model path answers
//!   `409`,
//! * **connection scaling and idle reap** — hundreds of parked
//!   keep-alive connections cost scan slots, not threads, live requests
//!   behind them keep a p50 under 10 ms, the parked peers stay usable,
//!   and a parked connection is closed once
//!   [`ServerConfig::idle_timeout`] elapses.

mod client;

use client::{request_once, Client};
use srt_core::model::training::{train_hybrid, TrainingConfig};
use srt_core::routing::{EngineBuilder, Query, RoutingEngine};
use srt_core::{CombinePolicy, HybridCost, HybridModel};
use srt_ml::forest::ForestConfig;
use srt_serve::json::{self, Json};
use srt_serve::{Server, ServerConfig};
use srt_synth::{DistanceCategory, QueryGenerator, SyntheticWorld, WorldConfig};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn fixture() -> &'static (SyntheticWorld, HybridModel) {
    static FIX: OnceLock<(SyntheticWorld, HybridModel)> = OnceLock::new();
    FIX.get_or_init(|| {
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
        let (model, _) = train_hybrid(&world, &cfg).expect("fixture trains");
        (world, model)
    })
}

fn cost() -> HybridCost {
    let (world, model) = fixture();
    HybridCost::from_ground_truth(world, model, CombinePolicy::Hybrid)
}

/// One engine shared by most tests (each test runs its own server on an
/// ephemeral port over it; tests therefore never assert absolute engine
/// counter values, only server-local metrics).
fn shared_engine() -> Arc<RoutingEngine> {
    static ENGINE: OnceLock<Arc<RoutingEngine>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| Arc::new(EngineBuilder::new(cost()).build())))
}

fn workload(seed: u64, n: usize) -> Vec<Query> {
    let (world, _) = fixture();
    QueryGenerator::new(seed)
        .generate(&world.graph, &world.model, DistanceCategory::ZeroToOne, n)
        .iter()
        .map(Query::from)
        .collect()
}

fn start(config: ServerConfig) -> Server {
    Server::start(shared_engine(), "127.0.0.1:0", config).expect("bind ephemeral port")
}

fn query_body(q: &Query) -> String {
    format!(
        "{{\"source\":{},\"target\":{},\"budget_s\":{:?}}}",
        q.source.0, q.target.0, q.budget_s
    )
}

/// The `"queries":[…]` member of a `/route_batch` body.
fn batch_members(queries: &[Query]) -> String {
    let members: Vec<String> = queries.iter().map(query_body).collect();
    format!("\"queries\":[{}]", members.join(","))
}

fn route_request_bytes(q: &Query) -> Vec<u8> {
    let body = query_body(q);
    format!(
        "POST /route HTTP/1.1\r\nHost: srt-serve\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Full bitwise comparison of a served JSON document against an
/// in-process `RouteResult` (everything except wall-clock `elapsed_us`).
fn assert_served_identical(doc: &Json, reference: &srt_core::routing::RouteResult, what: &str) {
    let prob = doc.get("probability").and_then(|p| p.as_f64()).unwrap();
    assert_eq!(
        prob.to_bits(),
        reference.probability.to_bits(),
        "{what}: probability {prob} != {}",
        reference.probability
    );
    match (&reference.path, doc.get("path")) {
        (None, Some(Json::Null)) => {}
        (Some(p), Some(served)) => {
            let nodes: Vec<u64> = served
                .get("nodes")
                .and_then(|n| n.as_arr())
                .unwrap()
                .iter()
                .map(|n| n.as_u64().unwrap())
                .collect();
            let edges: Vec<u64> = served
                .get("edges")
                .and_then(|e| e.as_arr())
                .unwrap()
                .iter()
                .map(|e| e.as_u64().unwrap())
                .collect();
            let want_nodes: Vec<u64> = p.nodes.iter().map(|n| n.0 as u64).collect();
            let want_edges: Vec<u64> = p.edges.iter().map(|e| e.0 as u64).collect();
            assert_eq!(nodes, want_nodes, "{what}: path nodes differ");
            assert_eq!(edges, want_edges, "{what}: path edges differ");
        }
        other => panic!("{what}: path presence mismatch: {other:?}"),
    }
    match (&reference.distribution, doc.get("distribution")) {
        (None, Some(Json::Null)) => {}
        (Some(d), Some(served)) => {
            let start = served.get("start").and_then(|x| x.as_f64()).unwrap();
            let width = served.get("width").and_then(|x| x.as_f64()).unwrap();
            assert_eq!(start.to_bits(), d.start().to_bits(), "{what}: start");
            assert_eq!(width.to_bits(), d.width().to_bits(), "{what}: width");
            let probs = served.get("probs").and_then(|p| p.as_arr()).unwrap();
            assert_eq!(probs.len(), d.probs().len(), "{what}: bin count");
            for (i, (served_p, want)) in probs.iter().zip(d.probs()).enumerate() {
                assert_eq!(
                    served_p.as_f64().unwrap().to_bits(),
                    want.to_bits(),
                    "{what}: probs[{i}]"
                );
            }
        }
        other => panic!("{what}: distribution presence mismatch: {other:?}"),
    }
    let stats = doc.get("stats").unwrap();
    let counter = |name: &str| stats.get(name).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(
        counter("labels_created"),
        reference.stats.labels_created as u64,
        "{what}"
    );
    assert_eq!(
        counter("labels_expanded"),
        reference.stats.labels_expanded as u64,
        "{what}"
    );
    assert_eq!(
        stats.get("completed").and_then(|v| v.as_bool()).unwrap(),
        reference.stats.completed,
        "{what}"
    );
}

/// A response body with every wall-clock `"elapsed_us":N` member
/// removed — what "byte-identical up to timing" compares.
fn without_elapsed(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find("\"elapsed_us\":") {
        out.push_str(&rest[..at]);
        let tail = &rest[at + "\"elapsed_us\":".len()..];
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

fn metric_sample(page: &str, name: &str) -> u64 {
    page.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample {name} in:\n{page}"))
}

#[test]
fn healthz_answers_and_metrics_render() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    let health = request_once(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    // The engine is shared across tests (a reload test may have bumped
    // its epoch), so assert shape, not the epoch value.
    let doc = json::parse(&health.text()).expect("healthz is JSON");
    assert_eq!(doc.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert!(doc.get("epoch").and_then(|v| v.as_u64()).is_some());

    let metrics = request_once(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    let page = metrics.text();
    for family in [
        "srt_serve_accepted_total",
        "srt_serve_shed_total",
        "srt_serve_request_seconds_bucket",
        "srt_engine_queries_total",
        "srt_engine_panics_total",
    ] {
        assert!(page.contains(family), "missing {family} in:\n{page}");
    }
    server.shutdown();
}

#[test]
fn served_routes_are_bitwise_identical_to_the_engine() {
    let server = start(ServerConfig::default());
    let engine = shared_engine();
    let mut conn = Client::connect(server.local_addr()).unwrap();
    for (i, q) in workload(0xA11CE, 10).iter().enumerate() {
        let reference = engine.route(q).expect("workload queries are valid");
        let resp = conn
            .request("POST", "/route", Some(&query_body(q)))
            .unwrap();
        assert_eq!(resp.status, 200, "query {i}: {}", resp.text());
        let doc = json::parse(&resp.text()).expect("response is valid JSON");
        assert_served_identical(&doc, &reference, &format!("query {i}"));
    }
    server.shutdown();
}

#[test]
fn batch_over_http_matches_sequential_routes() {
    let server = start(ServerConfig::default());
    let engine = shared_engine();
    let queries = workload(0xBA7C4, 8);
    let members = batch_members(&queries);

    // `"parallelism"` is still accepted but chooses nothing: absent, 1
    // and 8 are the same request.
    let mut bodies_served = Vec::new();
    for parallelism in [
        "",
        ",\"parallelism\":4",
        ",\"parallelism\":1",
        ",\"parallelism\":8",
    ] {
        let body = format!("{{{members}{parallelism}}}");
        let resp = request_once(server.local_addr(), "POST", "/route_batch", Some(&body)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let doc = json::parse(&resp.text()).unwrap();
        let results = doc.get("results").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(results.len(), queries.len());
        for (i, (served, q)) in results.iter().zip(&queries).enumerate() {
            let reference = engine.route(q).unwrap();
            assert_served_identical(served, &reference, &format!("batch[{i}]{parallelism}"));
        }
        bodies_served.push(without_elapsed(&resp.text()));
    }
    assert!(
        bodies_served.windows(2).all(|w| w[0] == w[1]),
        "\"parallelism\" changed the served bytes"
    );

    // Type-checked all the same: a non-integer is a schema violation.
    for bad in ["\"two\"", "2.5", "-1"] {
        let body = format!("{{{members},\"parallelism\":{bad}}}");
        let resp = request_once(server.local_addr(), "POST", "/route_batch", Some(&body)).unwrap();
        assert_eq!(resp.status, 400, "parallelism {bad}: {}", resp.text());
        assert!(resp.text().contains("parallelism"), "{}", resp.text());
    }
    server.shutdown();
}

#[test]
fn protocol_and_semantic_failures_map_to_distinct_statuses() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    let num_nodes = shared_engine().cost().graph().num_nodes();

    // Unparseable JSON: 400 at the protocol layer.
    let resp = request_once(addr, "POST", "/route", Some("{not json")).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("bad_request"), "{}", resp.text());

    // Schema violation: 400 with the member named.
    let resp = request_once(addr, "POST", "/route", Some("{\"source\":1}")).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("target"), "{}", resp.text());

    // Well-formed but semantically impossible: 422 with the typed kind.
    let out_of_range = format!("{{\"source\":{num_nodes},\"target\":0,\"budget_s\":100.0}}");
    let resp = request_once(addr, "POST", "/route", Some(&out_of_range)).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.text());
    let doc = json::parse(&resp.text()).unwrap();
    let err = doc.get("error").unwrap();
    assert_eq!(err.get("kind").unwrap().as_str(), Some("node_out_of_range"));
    assert_eq!(err.get("node").unwrap().as_u64(), Some(num_nodes as u64));
    assert_eq!(
        err.get("num_nodes").unwrap().as_u64(),
        Some(num_nodes as u64)
    );

    // The negative-budget validation gap this PR closed, observed on
    // the wire: 422 invalid_budget, not a silent degenerate 200.
    let resp = request_once(
        addr,
        "POST",
        "/route",
        Some("{\"source\":0,\"target\":1,\"budget_s\":-5.0}"),
    )
    .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.text());
    let doc = json::parse(&resp.text()).unwrap();
    assert_eq!(
        doc.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("invalid_budget")
    );

    // Wrong method / unknown path. Known paths answer 405 for *any*
    // unsupported method (not a misleading 404); 404 is reserved for
    // genuinely unknown paths.
    let resp = request_once(addr, "GET", "/route", None).unwrap();
    assert_eq!(resp.status, 405);
    let resp = request_once(addr, "POST", "/healthz", Some("{}")).unwrap();
    assert_eq!(resp.status, 405);
    let resp = request_once(addr, "DELETE", "/route", None).unwrap();
    assert_eq!(resp.status, 405, "{}", resp.text());
    let resp = request_once(addr, "HEAD", "/metrics", None).unwrap();
    assert_eq!(resp.status, 405, "{}", resp.text());
    let resp = request_once(addr, "GET", "/nope", None).unwrap();
    assert_eq!(resp.status, 404);
    let resp = request_once(addr, "DELETE", "/nope", None).unwrap();
    assert_eq!(resp.status, 404);

    // Non-HTTP bytes: 400 and the connection closes.
    let mut raw = Client::connect(addr).unwrap();
    raw.send_raw(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
    let resp = raw.read_response().unwrap();
    assert_eq!(resp.status, 400);
    server.shutdown();
}

#[test]
fn panicking_query_in_a_batch_is_isolated_on_the_wire() {
    // A rigged engine: routing (victim.source -> victim.target) panics
    // mid-search. The server must answer the batch anyway, with the
    // victim as an inline typed error and batch-mates bitwise intact.
    // Deduplicate endpoint pairs so only index 2 trips the rig.
    let mut queries = workload(0xFA17, 12);
    let mut seen = std::collections::HashSet::new();
    queries.retain(|q| seen.insert((q.source, q.target)));
    queries.truncate(6);
    assert!(queries.len() == 6, "fixture workload too repetitive");
    let victim = queries[2];
    let rigged = Arc::new(
        EngineBuilder::new(cost())
            .panic_on_query(victim.source, victim.target)
            .build(),
    );
    let healthy = shared_engine();
    let server =
        Server::start(Arc::clone(&rigged), "127.0.0.1:0", ServerConfig::default()).expect("bind");

    let body = format!("{{{},\"parallelism\":2}}", batch_members(&queries));
    let mut conn = Client::connect(server.local_addr()).unwrap();
    let resp = conn.request("POST", "/route_batch", Some(&body)).unwrap();
    assert_eq!(
        resp.status, 200,
        "a contained panic must not fail the batch"
    );
    let doc = json::parse(&resp.text()).unwrap();
    let results = doc.get("results").and_then(|r| r.as_arr()).unwrap();
    assert_eq!(results.len(), queries.len());
    for (i, (served, q)) in results.iter().zip(&queries).enumerate() {
        if i == 2 {
            let err = served.get("error").expect("victim is an inline error");
            assert_eq!(err.get("kind").unwrap().as_str(), Some("internal"));
        } else {
            let reference = healthy.route(q).unwrap();
            assert_served_identical(served, &reference, &format!("batch-mate {i}"));
        }
    }

    // A single /route of the victim is a 500 with the typed kind...
    let resp = conn
        .request("POST", "/route", Some(&query_body(&victim)))
        .unwrap();
    assert_eq!(resp.status, 500, "{}", resp.text());
    let doc = json::parse(&resp.text()).unwrap();
    assert_eq!(
        doc.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("internal")
    );

    // ...and the server remains fully serviceable on the same
    // keep-alive connection.
    let resp = conn
        .request("POST", "/route", Some(&query_body(&queries[0])))
        .unwrap();
    assert_eq!(resp.status, 200);
    let page = conn.request("GET", "/metrics", None).unwrap().text();
    let panics = page
        .lines()
        .find(|l| l.starts_with("srt_engine_panics_total "))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap();
    assert!(
        panics >= 2,
        "both contained panics are counted, got {panics}"
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_admitted_connections_losslessly() {
    let server = start(ServerConfig {
        workers: 2,
        queue_capacity: 16,
        read_timeout: Some(Duration::from_secs(10)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let queries = workload(0xD1A1, 4);

    // In-flight sessions started before the drain begins.
    let clients: Vec<_> = (0..4).map(|_| Client::connect(addr).unwrap()).collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().accepted_total.load(Ordering::Relaxed) < 4 {
        assert!(Instant::now() < deadline, "connections never admitted");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Shut down concurrently with the requests still being issued.
    let driver = std::thread::spawn(move || {
        clients
            .into_iter()
            .zip(queries)
            .map(|(mut c, q)| {
                let resp = c.request("POST", "/route", Some(&query_body(&q)))?;
                Ok::<_, std::io::Error>(resp.status)
            })
            .collect::<Vec<_>>()
    });
    std::thread::sleep(Duration::from_millis(10));
    let report = server.shutdown();
    let statuses = driver.join().expect("driver thread");

    // Every admitted connection got a real answer — the drain dropped
    // nothing (responses during the drain may carry Connection: close,
    // which the client tolerates since it reads by Content-Length).
    for (i, s) in statuses.iter().enumerate() {
        assert_eq!(
            *s.as_ref().expect("admitted connection must be answered"),
            200,
            "connection {i}"
        );
    }
    assert_eq!(report.in_flight_after_drain, 0);
    assert!(report.connections_served >= 4);

    // The listener is really gone.
    assert!(
        Client::connect(addr).is_err() || {
            // A TIME_WAIT race can accept then reset; a request must fail.
            request_once(addr, "GET", "/healthz", None).is_err()
        }
    );
}

#[test]
fn reload_publishes_a_new_epoch_and_rejects_corrupt_snapshots() {
    // A private engine (not `shared_engine`): this test moves the epoch
    // and must not perturb what other tests observe.
    let (_, model) = fixture();
    let engine = Arc::new(EngineBuilder::new(cost()).build());
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let snapshot = dir.join("http_serve_reload.bin");
    srt_core::model::io::write_file(&snapshot, model).expect("snapshot writes");

    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            model_path: Some(snapshot.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut conn = Client::connect(server.local_addr()).unwrap();
    let queries = workload(0x4E10AD, 6);
    let before: Vec<_> = queries.iter().map(|q| engine.route(q).unwrap()).collect();
    let health = conn.request("GET", "/healthz", None).unwrap();
    let doc = json::parse(&health.text()).unwrap();
    assert_eq!(
        doc.get("epoch").and_then(|v| v.as_u64()),
        Some(0),
        "a fresh engine"
    );

    // Successful reload: 200, epoch 0 -> 1, visible in /healthz, on the
    // same keep-alive connection that keeps being served.
    let resp = conn.request("POST", "/reload", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let doc = json::parse(&resp.text()).unwrap();
    assert_eq!(doc.get("epoch").and_then(|v| v.as_u64()), Some(1));
    let health = conn.request("GET", "/healthz", None).unwrap();
    let doc = json::parse(&health.text()).unwrap();
    assert_eq!(doc.get("epoch").and_then(|v| v.as_u64()), Some(1));

    // The snapshot round-trips the identical model, so answers on the
    // new epoch are bitwise-identical to the old ones.
    for (i, (q, reference)) in queries.iter().zip(&before).enumerate() {
        let resp = conn
            .request("POST", "/route", Some(&query_body(q)))
            .unwrap();
        assert_eq!(resp.status, 200, "post-swap query {i}");
        let doc = json::parse(&resp.text()).unwrap();
        assert_served_identical(&doc, reference, &format!("post-swap query {i}"));
    }

    // Corrupt the file: /reload answers 422 and the old epoch keeps
    // serving, bitwise-unchanged.
    let good = std::fs::read(&snapshot).unwrap();
    std::fs::write(&snapshot, &good[..good.len() / 2]).unwrap();
    let resp = conn.request("POST", "/reload", None).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.text());
    assert!(resp.text().contains("bad_snapshot"), "{}", resp.text());
    assert_eq!(engine.epoch(), 1, "failed reload must not move the epoch");
    let resp = conn
        .request("POST", "/route", Some(&query_body(&queries[0])))
        .unwrap();
    assert_eq!(resp.status, 200);
    let doc = json::parse(&resp.text()).unwrap();
    assert_served_identical(&doc, &before[0], "post-rejection probe");
    // What an operator's scrape shows: the published epoch, unmoved by
    // the rejected snapshot.
    let page = conn.request("GET", "/metrics", None).unwrap().text();
    assert_eq!(metric_sample(&page, "srt_engine_epoch"), 1);

    // A vanished file is the server's problem (500), not the snapshot's.
    std::fs::remove_file(&snapshot).unwrap();
    let resp = conn.request("POST", "/reload", None).unwrap();
    assert_eq!(resp.status, 500, "{}", resp.text());
    assert!(resp.text().contains("reload_io"), "{}", resp.text());
    assert_eq!(engine.epoch(), 1);
    server.shutdown();
}

#[test]
fn reload_without_a_model_source_is_a_409() {
    // `shared_engine` servers are started without a model_path, so
    // /reload must refuse — pinning that the endpoint never invents a
    // model source (and never reads a client-supplied one).
    let server = start(ServerConfig::default());
    let resp = request_once(server.local_addr(), "POST", "/reload", None).unwrap();
    assert_eq!(resp.status, 409, "{}", resp.text());
    assert!(resp.text().contains("no_model_source"), "{}", resp.text());
    let resp = request_once(server.local_addr(), "GET", "/reload", None).unwrap();
    assert_eq!(resp.status, 405, "{}", resp.text());
    server.shutdown();
}

#[test]
fn idle_keepalive_connections_are_reaped_not_worker_pinning() {
    // One executor lane. A parked keep-alive connection holds a scan
    // slot, not a thread, so B is served while A sits idle; and once
    // `idle_timeout` passes the scan closes A.
    let server = start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        idle_timeout: Some(Duration::from_millis(150)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut a = Client::connect(addr).unwrap();
    let resp = a.request("GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200);
    // A now parks.

    let mut b = Client::connect(addr).unwrap();
    let resp = b.request("GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200, "B must be served while A is parked");

    // Block until the server closes A: EOF, well inside the client's
    // own 10 s read timeout, is the reap.
    let started = Instant::now();
    let eof = a.read_response().expect_err("nothing was requested on A");
    assert_eq!(
        eof.kind(),
        std::io::ErrorKind::UnexpectedEof,
        "A must be closed by the server, not time out client-side"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "A parked {:?} past a 150 ms idle deadline",
        started.elapsed()
    );
    // A's socket was closed by the reap: the next request on it fails.
    assert!(
        a.request("GET", "/healthz", None).is_err(),
        "reaped connection must be closed, not resurrected"
    );
    drop(b);
    server.shutdown();
}

#[test]
fn batched_routes_are_bitwise_identical_under_concurrency() {
    // `max_batch: 1` is the same planes with batches of one.
    for max_batch in [8, 1] {
        let server = start(ServerConfig {
            workers: 1,
            max_batch,
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let engine = shared_engine();

        // Four concurrent keep-alive clients: enough simultaneous
        // requests that the dispatch plane actually coalesces
        // multi-request batches while each client checks its own answers
        // bitwise. Each finishes with a /route_batch, which rides the
        // same planes — through the batcher while the others are still
        // routing — and must match too.
        let drivers: Vec<_> = (0..4)
            .map(|c| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let mut conn = Client::connect(addr).unwrap();
                    let queries = workload(0xBA7 + c, 12);
                    for (i, q) in queries.iter().enumerate() {
                        let reference = engine.route(q).expect("workload queries are valid");
                        let resp = conn
                            .request("POST", "/route", Some(&query_body(q)))
                            .unwrap();
                        assert_eq!(resp.status, 200, "client {c} query {i}: {}", resp.text());
                        let doc = json::parse(&resp.text()).unwrap();
                        assert_served_identical(&doc, &reference, &format!("client {c} query {i}"));
                    }
                    let resp = conn
                        .request(
                            "POST",
                            "/route_batch",
                            Some(&format!("{{{}}}", batch_members(&queries[..6]))),
                        )
                        .unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.text());
                    let doc = json::parse(&resp.text()).unwrap();
                    let results = doc.get("results").and_then(|r| r.as_arr()).unwrap();
                    assert_eq!(results.len(), 6);
                    for (i, (served, q)) in results.iter().zip(&queries).enumerate() {
                        let reference = engine.route(q).unwrap();
                        assert_served_identical(
                            served,
                            &reference,
                            &format!("client {c} batch[{i}]"),
                        );
                    }
                })
            })
            .collect();
        for d in drivers {
            d.join().expect("driver panicked");
        }

        // /reload without a model source still answers its 409 through
        // the dispatch planes, and the batching metric families are live.
        let mut conn = Client::connect(addr).unwrap();
        let resp = conn.request("POST", "/reload", None).unwrap();
        assert_eq!(resp.status, 409, "{}", resp.text());
        let page = conn.request("GET", "/metrics", None).unwrap().text();
        assert!(metric_sample(&page, "srt_serve_batch_size_count") > 0);
        // 48 routes + four /route_batch requests (one work item each,
        // however many queries it carries) + the /reload.
        assert!(metric_sample(&page, "srt_serve_batch_size_sum") >= 53);
        let _ = metric_sample(&page, "srt_serve_inflight_requests");
        assert_eq!(
            metric_sample(&page, "srt_serve_requests_total"),
            metric_sample(&page, "srt_serve_request_seconds_count"),
            "scrape coherence must hold"
        );
        drop(conn);
        let report = server.shutdown();
        assert_eq!(report.in_flight_after_drain, 0);
    }
}

#[test]
fn pipelined_requests_are_answered_in_request_order() {
    let engine = shared_engine();
    let queries = workload(0x919E, 3);
    let references: Vec<_> = queries.iter().map(|q| engine.route(q).unwrap()).collect();

    // One burst: route, healthz, route, bogus path, route, healthz —
    // six requests on the wire before the first response is read.
    let mut burst = Vec::new();
    burst.extend_from_slice(&route_request_bytes(&queries[0]));
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    burst.extend_from_slice(&route_request_bytes(&queries[1]));
    burst.extend_from_slice(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    burst.extend_from_slice(&route_request_bytes(&queries[2]));
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");

    for max_batch in [8, 1] {
        let server = start(ServerConfig {
            workers: 1,
            max_batch,
            ..ServerConfig::default()
        });
        let mut conn = Client::connect(server.local_addr()).unwrap();
        conn.send_raw(&burst).unwrap();
        let statuses: Vec<u16> = (0..6)
            .map(|i| {
                let resp = conn
                    .read_response()
                    .unwrap_or_else(|e| panic!("pipelined response {i} never arrived: {e}"));
                if [0, 2, 4].contains(&i) {
                    let doc = json::parse(&resp.text()).unwrap();
                    assert_served_identical(
                        &doc,
                        &references[i / 2],
                        &format!("pipelined route {}", i / 2),
                    );
                }
                resp.status
            })
            .collect();
        // Request order, not completion order: the interleaved cheap
        // endpoints answered instantly but still waited their turn.
        assert_eq!(statuses, vec![200, 200, 200, 404, 200, 200]);
        assert!(
            server.metrics().pipelined_total.load(Ordering::Relaxed) > 0,
            "the burst must register as pipelined traffic"
        );
        server.shutdown();
    }
}

#[test]
fn full_dispatch_queue_sheds_requests_not_the_connection() {
    // One executor lane behind a one-slot dispatch queue: the server
    // holds two requests at a time. A lone closed-loop client is never
    // shed; twice the holding capacity in closed-loop clients and a
    // 64-request pipelined burst are — per request, with clean 503s,
    // never a reset — and the burst's connection stays fully usable.
    // The /metrics page scraped afterwards must add up to exactly what
    // the clients saw.
    const WORKERS: usize = 1;
    const QUEUE_CAPACITY: usize = 1;
    let server = start(ServerConfig {
        workers: WORKERS,
        max_batch: 4,
        queue_capacity: QUEUE_CAPACITY,
        read_timeout: Some(Duration::from_secs(10)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let queries = workload(0x5ED2, 8);
    let q = queries[0];
    // What the clients saw: 200 responses, engine queries they carried,
    // and 503s.
    let (mut ok_seen, mut routed, mut shed_seen) = (0u64, 0u64, 0u64);

    // Uncontended: one closed-loop client, each /route on a connection
    // of its own, then one /route_batch; nothing is refused.
    for (i, q) in queries.iter().enumerate() {
        let resp = Client::connect(addr)
            .and_then(|mut conn| conn.request_closing("POST", "/route", Some(&query_body(q))))
            .unwrap_or_else(|e| panic!("uncontended query {i}: connection failed: {e}"));
        assert_eq!(
            resp.status,
            200,
            "uncontended query {i} was refused: {}",
            resp.text()
        );
    }
    let batch = format!("{{{}}}", batch_members(&queries));
    let resp = request_once(addr, "POST", "/route_batch", Some(&batch)).unwrap();
    assert_eq!(
        resp.status,
        200,
        "uncontended batch was refused: {}",
        resp.text()
    );
    ok_seen += queries.len() as u64 + 1;
    routed += 2 * queries.len() as u64;

    // 2× overload: twice the holding capacity in closed-loop clients,
    // each on its own keep-alive connection. Each round is a pipelined
    // pair: a lone request on an idle server is executed inline by the
    // connection plane and never meets the queue, so one request at a
    // time would never be shed, however many clients send it.
    let drivers: Vec<_> = (0..2 * (WORKERS + QUEUE_CAPACITY))
        .map(|c| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let (mut ok, mut shed) = (0u64, 0u64);
                let mut conn = Client::connect(addr).unwrap();
                for round in 0..10 {
                    let mut pair = route_request_bytes(&queries[(c + round * 7) % queries.len()]);
                    pair.extend(route_request_bytes(&queries[(c + round * 7 + 1) % queries.len()]));
                    conn.send_raw(&pair).unwrap_or_else(|e| {
                        panic!("overload client {c} round {round}: connection failed: {e}")
                    });
                    for k in 0..2 {
                        let resp = conn.read_response().unwrap_or_else(|e| {
                            panic!("overload client {c} round {round} answer {k}: connection failed: {e}")
                        });
                        match resp.status {
                            200 => ok += 1,
                            503 => shed += 1,
                            other => panic!("overload client {c} round {round} answer {k}: status {other}"),
                        }
                    }
                }
                (ok, shed)
            })
        })
        .collect();
    for d in drivers {
        let (ok, shed) = d.join().expect("overload client panicked");
        ok_seen += ok;
        routed += ok;
        shed_seen += shed;
    }

    // The pipelined burst on one connection.
    let one = route_request_bytes(&q);
    let burst: Vec<u8> = one.iter().copied().cycle().take(one.len() * 64).collect();
    let mut conn = Client::connect(addr).unwrap();
    conn.send_raw(&burst).unwrap();
    let mut ok = 0u64;
    let mut shed = 0u64;
    for i in 0..64 {
        let resp = conn
            .read_response()
            .unwrap_or_else(|e| panic!("response {i} never arrived: {e}"));
        match resp.status {
            200 => ok += 1,
            503 => {
                shed += 1;
                assert!(resp.text().contains("overloaded"), "{}", resp.text());
            }
            other => panic!("response {i}: unexpected status {other}"),
        }
    }
    assert!(ok >= 1, "at least the head of the burst is served");
    assert!(shed >= 1, "a one-slot queue cannot absorb a 64-burst");

    // The same connection lives on and is served normally.
    let resp = conn
        .request("POST", "/route", Some(&query_body(&q)))
        .unwrap();
    assert_eq!(
        resp.status,
        200,
        "shed connection must survive: {}",
        resp.text()
    );
    ok_seen += ok + 1;
    routed += ok + 1;
    shed_seen += shed;

    let page = conn.request("GET", "/metrics", None).unwrap().text();
    assert_eq!(
        metric_sample(&page, "srt_serve_requests_total"),
        metric_sample(&page, "srt_serve_request_seconds_count"),
        "scrape shows requests_total and request_seconds_count apart"
    );
    assert_eq!(
        metric_sample(&page, "srt_serve_shed_total"),
        shed_seen,
        "server-side shed counter disagrees with the client-observed 503s"
    );
    assert!(
        metric_sample(&page, "srt_serve_batch_size_count") > 0,
        "no batches observed"
    );
    assert!(
        metric_sample(&page, "srt_serve_pipelined_total") > 0,
        "the burst must register as pipelined traffic"
    );
    assert!(
        metric_sample(&page, "srt_serve_responses_total_2xx") >= ok_seen,
        "fewer 2xx recorded than the {ok_seen} the clients saw"
    );
    // The engine is shared with the other tests: its counters can only
    // be bounded from below, and nothing here may have panicked.
    assert!(
        metric_sample(&page, "srt_engine_queries_total") >= routed,
        "the engine counted fewer than the {routed} queries served"
    );
    assert_eq!(metric_sample(&page, "srt_engine_panics_total"), 0);
    drop(conn);
    let report = server.shutdown();
    assert_eq!(report.in_flight_after_drain, 0);
}

#[test]
fn graceful_drain_answers_every_admitted_pipelined_request() {
    let server = start(ServerConfig {
        workers: 1,
        queue_capacity: 64,
        read_timeout: Some(Duration::from_secs(10)),
        ..ServerConfig::default()
    });
    let queries = workload(0xD2A1, 16);
    let mut burst = Vec::new();
    for q in &queries {
        burst.extend_from_slice(&route_request_bytes(q));
    }

    let mut conn = Client::connect(server.local_addr()).unwrap();
    conn.send_raw(&burst).unwrap();
    // Give the readiness loop a moment to parse and admit the burst,
    // then shut down while responses are still streaming back.
    std::thread::sleep(Duration::from_millis(5));
    let reader = std::thread::spawn(move || {
        (0..16)
            .map(|i| {
                conn.read_response()
                    .unwrap_or_else(|e| panic!("drained request {i} was dropped: {e}"))
                    .status
            })
            .collect::<Vec<_>>()
    });
    let report = server.shutdown();
    let statuses = reader.join().expect("reader panicked");

    // Every request the server admitted is answered — 200 from the
    // engine or a request-granular 503 if the drain's queue close beat
    // its admission. Nothing may be silently dropped.
    assert_eq!(statuses.len(), 16);
    for (i, s) in statuses.iter().enumerate() {
        assert!(*s == 200 || *s == 503, "request {i}: unexpected status {s}");
    }
    assert_eq!(report.in_flight_after_drain, 0);
}

#[test]
fn parked_keepalive_fleet_holds_without_thread_per_connection() {
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

    let server = start(ServerConfig {
        workers: 1,
        // Parked peers are reaped by deadline in production; here they
        // must survive the whole test.
        idle_timeout: None,
        max_connections: 1024,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let before = thread_count();

    // 256 connections, each served one request, then parked open.
    let mut fleet: Vec<Client> = Vec::with_capacity(256);
    for i in 0..256 {
        let mut c = Client::connect(addr).unwrap();
        let resp = c.request("GET", "/healthz", None).unwrap();
        assert_eq!(resp.status, 200, "fleet member {i}");
        fleet.push(c);
    }
    let after = thread_count();
    if before > 0 && after > 0 {
        assert!(
            after.saturating_sub(before) < 32,
            "256 parked connections grew the process by {} threads — \
             that is thread-per-connection",
            after.saturating_sub(before)
        );
    }

    // The server is still responsive behind the parked fleet: a new
    // connection is served promptly, and the p50 of 20 live requests
    // on it stays under 10 ms.
    let queries = workload(0x1D1E, 20);
    let started = Instant::now();
    let mut live = Client::connect(addr).unwrap();
    let resp = live
        .request("POST", "/route", Some(&query_body(&queries[0])))
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "a new connection waited {:?} behind parked peers",
        started.elapsed()
    );
    let mut latencies: Vec<Duration> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let started = Instant::now();
            let resp = live
                .request("POST", "/route", Some(&query_body(q)))
                .unwrap();
            assert_eq!(resp.status, 200, "live request {i} behind the fleet");
            started.elapsed()
        })
        .collect();
    latencies.sort();
    let p50 = latencies[latencies.len().div_ceil(2) - 1];
    assert!(
        p50 < Duration::from_millis(10),
        "p50 behind the parked fleet is {p50:?} — idle connections are taxing live traffic"
    );

    // The parked peers are still alive, not merely counted.
    for (i, c) in fleet.iter_mut().rev().take(5).enumerate() {
        let resp = c
            .request("GET", "/healthz", None)
            .unwrap_or_else(|e| panic!("parked connection {i} died: {e}"));
        assert_eq!(resp.status, 200, "parked connection {i}");
    }

    drop(live);
    drop(fleet);
    let report = server.shutdown();
    assert_eq!(report.in_flight_after_drain, 0);
    assert!(report.connections_served >= 257);
}

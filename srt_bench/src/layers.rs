//! The traced run: the per-layer ledger of one workload.
//!
//! Every layer is measured from outside — by timing calls into its
//! public functions on the workload's own inputs and by reading its
//! public counters. Nothing in the program under test is instrumented.
//!
//! The run replays one pass of the workload request by request through
//! the serving steps (`serve.http.parse` → `serve.json.decode` →
//! `core.routing.route` → `serve.json.encode` → `serve.http.write`),
//! recording a span at each boundary. After a request is answered it
//! re-runs, flagged `replay`, the inner work a search hides: the
//! target's reverse Dijkstra, the pivot path, and the fold of the
//! returned path through the cost model, whose combine step is taken
//! apart into its classifier, forest and convolution calls. Then the
//! wire phases run twice, without and with client-side spans.

use crate::fixture::{self, Fixture, POOL_SEED};
use crate::report::{fill, PhaseRow, RunResult};
use crate::schema::PER_LAYER;
use crate::spans::{self_times_ns, SpanId, SpanLog, NO_PARENT};
use crate::stats::{median, percentile, sorted};
use crate::sys;
use crate::wire::{self, Entry, Phase, Verdict};
use crate::workloads::{self, phase_row, Sizes, Spec, WireDriver, LANES, MICRO_BATCH};
use srt_core::model::pair_features_view;
use srt_core::routing::{expected_time_path, BatchExecutor, Query, RouteResult};
use srt_core::HybridCost;
use srt_dist::{dominance, Histogram, HistogramPool};
use srt_graph::{EdgeId, OptimisticBounds};
use srt_serve::http::{self, Response};
use srt_serve::{handlers, json, DispatchQueue, ServeMetrics};
use srt_synth::DistanceCategory;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::BufWriter;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nanoseconds per call of an operation too short for one clock read:
/// `reps` calls between two reads.
fn per_call_ns<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t.elapsed().as_nanos() as f64 / f64::from(reps)
}

/// Timing samples by metric name, in nanoseconds.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, ns: f64) {
        self.0.entry(name).or_default().push(ns);
    }

    fn median_us(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v) / 1e3)
    }
}

/// What the replay writes into: the span log, the per-metric timing
/// samples, and the histogram pool the path folds draw from.
#[derive(Default)]
struct Tracer {
    log: SpanLog,
    samples: Samples,
    pool: HistogramPool,
    combine_steps: usize,
    estimator_steps: usize,
}

impl Tracer {
    /// Runs `f` inside a span of the request and files the span's
    /// duration under `metric`.
    fn timed<R>(
        &mut self,
        span: &'static str,
        metric: &'static str,
        parent: SpanId,
        request: u32,
        replay: bool,
        f: impl FnOnce(&mut HistogramPool) -> R,
    ) -> R {
        let id = self.log.open(span, parent, request, replay);
        let r = f(&mut self.pool);
        self.log.close(id);
        self.samples
            .push(metric, self.log.spans()[id as usize].duration_ns() as f64);
        r
    }

    /// Folds `edges` through the cost model the way
    /// `HybridCost::path_distribution_pooled` does, with the combine
    /// step rebuilt from the public calls it is made of so that each
    /// can carry a span: features (self time of `core.cost.combine`),
    /// the gate (`ml.classifier`), then one arm (`ml.forest_predict` or
    /// `dist.convolve`). Every rebuilt step is checked bitwise against
    /// the real `combine_pooled_traced`, which is what `combine_us`
    /// times.
    fn fold_path(
        &mut self,
        cost: &HybridCost,
        edges: &[EdgeId],
        budget_s: f64,
        eps: f64,
        parent: SpanId,
        request: u32,
    ) {
        let Some((&first, rest)) = edges.split_first() else {
            return;
        };
        let model = cost.model();
        let mut scratch = Vec::new();
        let fold = self.log.open("core.cost.path_fold", parent, request, true);
        let mut dist: Histogram = cost.marginal(first).pooled_clone(&mut self.pool);
        let mut prev = first;
        for &e in rest {
            let marginal = cost.marginal(e);

            let t = Instant::now();
            let (real, outcome) =
                cost.combine_pooled_traced(&dist.view(), prev, e, None, &mut self.pool);
            self.samples
                .push("core.cost.combine_us", t.elapsed().as_nanos() as f64);
            self.combine_steps += 1;
            self.estimator_steps += usize::from(outcome.used_estimator);

            let step = self.log.open("core.cost.combine", fold, request, true);
            let view = dist.view();
            let features = pair_features_view(cost.graph(), &view, prev, e, marginal);
            let use_estimator = self.timed(
                "ml.classifier",
                "ml.classifier_us",
                step,
                request,
                true,
                |_| {
                    model
                        .classifier
                        .use_estimation_scratch(&features, &mut scratch)
                },
            );
            let mut out = self.pool.checkout();
            if use_estimator {
                self.timed(
                    "ml.forest_predict",
                    "ml.forest_predict_us",
                    step,
                    request,
                    true,
                    |_| {
                        model.estimate_into(&view, marginal, &features, &mut out);
                    },
                );
            } else {
                self.timed(
                    "dist.convolve",
                    "dist.convolve_us",
                    step,
                    request,
                    true,
                    |pool| {
                        model.convolve_into(&view, marginal, &mut out, pool);
                    },
                );
            }
            let rebuilt = out
                .into_histogram()
                .expect("a combine step yields a valid histogram");
            self.log.close(step);
            assert!(
                use_estimator == outcome.used_estimator && rebuilt == real,
                "the rebuilt combine step no longer matches HybridCost::combine_pooled_traced"
            );

            self.samples.push(
                "dist.dominance_us",
                per_call_ns(8, || dominance::dominates_with_margin(&dist, &real, eps)),
            );
            self.samples
                .push("dist.cdf_us", per_call_ns(32, || real.cdf(budget_s)));

            self.pool.recycle(rebuilt);
            self.pool.recycle(std::mem::replace(&mut dist, real));
            prev = e;
        }
        self.pool.recycle(dist);
        self.log.close(fold);
        self.samples.push(
            "core.cost.path_fold_us",
            self.log.spans()[fold as usize].duration_ns() as f64,
        );
    }
}

/// What the request-by-request replay yields.
struct Replay {
    row: PhaseRow,
    results: Vec<RouteResult>,
    /// Duration of each request's `core.routing.route` span, ns.
    route_ns: Vec<f64>,
    response_bytes: f64,
    swap_ms: Vec<f64>,
}

fn replay_pass(fx: &Fixture, sizes: &Sizes, catalog: &[Entry], tr: &mut Tracer) -> Replay {
    let engine = &fx.engine;
    let cost = engine.cost();
    let eps = fx.model.calibration.as_ref().map_or(0.0, |c| c.margin_eps);
    let mut sink: Vec<u8> = Vec::with_capacity(4096);
    let mut seen_targets = BTreeSet::new();
    let mut out = Replay {
        row: PhaseRow::new("replay"),
        results: Vec::with_capacity(fx.inputs.plan.len()),
        route_ns: Vec::with_capacity(fx.inputs.plan.len()),
        response_bytes: 0.0,
        swap_ms: Vec::new(),
    };
    let started = Instant::now();
    for (k, &entry_ix) in fx.inputs.plan.iter().enumerate() {
        if sizes.swap_block > 0 && k % sizes.swap_block == 0 {
            out.swap_ms.push(fx.swap_model_ms());
        }
        let entry = &catalog[entry_ix as usize];
        let request = k as u32;

        let root = tr.log.open("request", NO_PARENT, request, false);
        let (req, _) = tr
            .timed(
                "serve.http.parse",
                "serve.http.parse_us",
                root,
                request,
                false,
                |_| http::parse_buffered(&entry.request),
            )
            .expect("generated requests parse")
            .expect("and are complete");
        let query = tr.timed(
            "serve.json.decode",
            "serve.json.decode_us",
            root,
            request,
            false,
            |_| {
                let doc = json::parse(std::str::from_utf8(&req.body).expect("UTF-8 body"))
                    .expect("JSON body");
                json::query_from_json(&doc).expect("a well-formed query")
            },
        );
        let result = tr
            .timed("core.routing.route", ROUTE_NS, root, request, false, |_| {
                engine.route(&query)
            })
            .expect("generated queries are valid");
        let body = tr.timed(
            "serve.json.encode",
            "serve.json.encode_us",
            root,
            request,
            false,
            |_| json::route_result_to_json(&result),
        );
        let response = Response::json(200, body);
        sink.clear();
        tr.timed(
            "serve.http.write",
            "serve.http.write_us",
            root,
            request,
            false,
            |_| http::write_response(&mut sink, &response),
        )
        .expect("writing into a Vec cannot fail");
        tr.log.close(root);

        out.row.sent += 1;
        out.row.ok += usize::from(wire::judge(entry, 200, &response.body).ok());
        out.response_bytes += response.body.len() as f64;

        // Replayed inner work: real time, outside the request's latency.
        if seen_targets.insert(query.target) {
            tr.timed(
                "graph.bounds_compute",
                "graph.bounds_compute_us",
                root,
                request,
                true,
                |_| {
                    black_box(OptimisticBounds::compute(cost.graph(), query.target, |e| {
                        cost.marginal(e).start().max(0.0)
                    }));
                },
            );
        }
        tr.timed(
            "graph.expected_path",
            "graph.expected_path_us",
            root,
            request,
            true,
            |_| {
                black_box(expected_time_path(&cost, query.source, query.target));
            },
        );
        if let Some(path) = &result.path {
            tr.fold_path(&cost, &path.edges, query.budget_s, eps, root, request);
        }
        out.results.push(result);
    }
    out.row.close(started.elapsed().as_secs_f64());
    out.response_bytes /= out.row.sent.max(1) as f64;
    out.route_ns = tr.samples.0.get(ROUTE_NS).cloned().unwrap_or_default();
    out
}

/// The per-layer metrics that are a median over timed calls, in
/// microseconds; each is sampled under its own name.
const TIMED_US: [&str; 15] = [
    "graph.bounds_compute_us",
    "graph.expected_path_us",
    "dist.convolve_us",
    "dist.dominance_us",
    "dist.cdf_us",
    "ml.forest_predict_us",
    "ml.classifier_us",
    "core.cost.combine_us",
    "core.cost.path_fold_us",
    "serve.http.parse_us",
    "serve.http.write_us",
    "serve.json.decode_us",
    "serve.json.encode_us",
    "serve.dispatch.push_pop_us",
    "serve.handlers.handle_us",
];

/// Sample key of the replayed `core.routing.route` spans, request by
/// request (not a metric itself: it feeds the budget and the executor
/// comparison).
const ROUTE_NS: &str = "core.routing.route";

/// Median `engine.route` over `queries`, in microseconds (0 when the
/// world cannot host the band).
fn route_median_us(fx: &Fixture, queries: &[Query]) -> f64 {
    let times: Vec<f64> = queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            let _ = black_box(fx.engine.route(q));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    if times.is_empty() {
        0.0
    } else {
        median(&times)
    }
}

fn p50_ms(phase: &Phase) -> f64 {
    percentile(&sorted(phase.ok_latencies_ms()), 0.5)
}

fn record_client_spans(log: &mut SpanLog, phase: &Phase) {
    for (i, r) in phase.records.iter().enumerate() {
        if r.verdict == Verdict::Unanswered {
            continue;
        }
        let request = 1_000_000 + i as u32;
        let root = log.record(
            "client.request",
            NO_PARENT,
            request,
            phase.started,
            r.due_ns,
            r.recv_ns,
        );
        log.record(
            "client.send",
            root,
            request,
            phase.started,
            r.sent_ns,
            r.written_ns,
        );
        log.record(
            "client.wait",
            root,
            request,
            phase.started,
            r.written_ns,
            r.recv_ns,
        );
    }
}

/// Per-name totals of the span log: count, span time and self time.
fn self_time_table(log: &SpanLog) -> String {
    let spans = log.spans();
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let row = by_name.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.duration_ns();
        row.2 += own;
    }
    let mut out = format!(
        "  {:<24} {:>8} {:>14} {:>14}\n",
        "span", "count", "total ms", "self ms"
    );
    for (name, (n, total, own)) in by_name {
        out.push_str(&format!(
            "  {name:<24} {n:>8} {:>14.3} {:>14.3}\n",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    out
}

/// The traced run: every per-layer metric of one workload.
pub fn run_traced(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    smoke: bool,
    trace_out: &Path,
) -> RunResult {
    let sizes = workloads::sizes(spec.kind, smoke);
    let mut fx = fixture::set_up(spec.kind, &sizes, seed, true);
    let server = fx
        .server
        .take()
        .expect("a traced run always starts a server");
    let addr = server.local_addr();
    // The reference answers; also the warm-up that fills the bounds cache.
    let catalog = workloads::wire_catalog(&fx.engine, &fx.inputs);

    // ---- Layer replay ----
    let mut tr = Tracer::default();
    let before = fx.engine.stats();
    let replay = replay_pass(&fx, &sizes, &catalog, &mut tr);
    let after = fx.engine.stats();
    let Tracer {
        mut log,
        mut samples,
        combine_steps,
        estimator_steps,
        ..
    } = tr;
    let n = replay.results.len().max(1) as f64;
    let sum = |f: fn(&RouteResult) -> usize| replay.results.iter().map(f).sum::<usize>() as u64;
    let labels_created = sum(|r| r.stats.labels_created);
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    let hits = after.bounds_cache_hits - before.bounds_cache_hits;
    let misses = after.bounds_cache_misses - before.bounds_cache_misses;
    let reuse = after.pool_reuse - before.pool_reuse;
    let mints = after.pool_misses - before.pool_misses;

    // ---- core.routing: the three distance bands, the executor, the swap ----
    let world = &fx.world;
    let shorts = fixture::generate(
        world,
        seed,
        DistanceCategory::ZeroToOne,
        sizes.band_samples[0],
    );
    let mids = fixture::generate(
        world,
        POOL_SEED,
        DistanceCategory::OneToFive,
        sizes.band_samples[1],
    );
    let longs = fixture::generate(
        world,
        POOL_SEED,
        DistanceCategory::FiveToTen,
        sizes.band_samples[2],
    );
    // A short search is comparable with its target's reverse Dijkstra,
    // so the short band is routed once untimed to cache the bounds; on
    // the other bands that cost is below a thousandth of the search.
    route_median_us(&fx, &shorts);
    let route_short_us = route_median_us(&fx, &shorts);
    let route_mid_us = route_median_us(&fx, &mids);
    let route_long_us = route_median_us(&fx, &longs);

    let mut batch_queries = workloads::planned_queries(&fx.inputs);
    let batch_of = batch_queries.len().min(256) / MICRO_BATCH * MICRO_BATCH;
    batch_queries.truncate(batch_of);
    let executor = BatchExecutor::new(Arc::clone(&fx.engine), LANES);
    executor.execute(batch_queries[..MICRO_BATCH.min(batch_of)].to_vec());
    let stats0 = executor.stats();
    let mut batch_ms = Vec::new();
    for chunk in batch_queries.chunks(MICRO_BATCH) {
        let t = Instant::now();
        black_box(executor.execute(chunk.to_vec()));
        batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let stats1 = executor.stats();
    drop(executor);
    let sequential_ms: f64 = replay.route_ns[..batch_of].iter().sum::<f64>() / 1e6;
    let batched_ms: f64 = batch_ms.iter().sum();
    let mut swap_ms = replay.swap_ms.clone();
    while swap_ms.len() < 3 {
        swap_ms.push(fx.swap_model_ms());
    }

    // ---- serve.handlers and serve.dispatch, no socket ----
    let metrics = ServeMetrics::new();
    for &i in fx.inputs.plan.iter().take(512) {
        let (req, _) = http::parse_buffered(&catalog[i as usize].request)
            .expect("generated requests parse")
            .expect("and are complete");
        let t = Instant::now();
        black_box(handlers::handle_request(
            &fx.engine, &metrics, 0, None, &req,
        ));
        samples.push("serve.handlers.handle_us", t.elapsed().as_nanos() as f64);
    }
    let queue: DispatchQueue<u64> = DispatchQueue::new(64);
    for round in 0..256u64 {
        samples.push(
            "serve.dispatch.push_pop_us",
            per_call_ns(16, || {
                queue.try_push(round).expect("the queue has room");
                queue.pop_batch(MICRO_BATCH)
            }),
        );
    }

    // ---- the wire, untraced then traced ----
    let idle = {
        let _parked = TcpStream::connect(addr).expect("connect to the server under test");
        let (cpu0, t) = (sys::process_cpu_s(), Instant::now());
        std::thread::sleep(Duration::from_secs_f64((0.15 * seconds).min(2.0)));
        (sys::process_cpu_s() - cpu0) / t.elapsed().as_secs_f64()
    };
    let served = server.metrics();
    let counters = || {
        let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        (
            served.batch_size.sum(),
            served.batch_size.count(),
            load(&served.pipelined_total),
            load(&served.requests_total),
            load(&served.shed_total),
        )
    };
    let driver = WireDriver {
        addr,
        catalog: &catalog,
        inputs: &fx.inputs,
        sizes: &sizes,
    };
    driver.warm_up();
    let (plain, late) = driver.paced(0.3 * seconds, false);
    driver.warm_up();
    let m0 = counters();
    let saturated = driver.saturated(0.25 * seconds);
    let m1 = counters();
    let (traced, _) = driver.paced(0.3 * seconds, true);
    record_client_spans(&mut log, &traced.phase);
    let report = server.shutdown();
    assert_eq!(report.in_flight_after_drain, 0, "the server drained clean");

    let wire_p50_us = 1e3 * p50_ms(&plain.phase);
    let traced_p50_us = 1e3 * p50_ms(&traced.phase);
    let handle_us = samples.median_us("serve.handlers.handle_us");

    let file = std::fs::File::create(trace_out).expect("the trace file can be created");
    log.write_jsonl(&mut BufWriter::new(file))
        .expect("the trace file can be written");

    // ---- the latency budget ----
    let route_us = median(&replay.route_ns) / 1e3;
    let steps = [
        ("serve.http.parse", samples.median_us("serve.http.parse_us")),
        (
            "serve.json.decode",
            samples.median_us("serve.json.decode_us"),
        ),
        ("core.routing.route", route_us),
        (
            "serve.json.encode",
            samples.median_us("serve.json.encode_us"),
        ),
        ("serve.http.write", samples.median_us("serve.http.write_us")),
    ];
    let explained: f64 = steps.iter().map(|s| s.1).sum();
    println!(
        "trace: {} spans written to {}",
        log.spans().len(),
        trace_out.display()
    );
    print!("{}", self_time_table(&log));
    println!(
        "latency budget ({}, paced p50 on the wire = {wire_p50_us:.1} us):",
        spec.name
    );
    for (name, us) in steps {
        println!(
            "  {name:<24} {us:>10.2} us  {:>6.2} %",
            100.0 * us / wire_p50_us
        );
    }
    println!(
        "  {:<24} {:>10.2} us  {:>6.2} %  (socket, wake-up, queue wait, writeback: nothing above explains it)",
        "unexplained residual",
        wire_p50_us - explained,
        100.0 * (wire_p50_us - explained) / wire_p50_us
    );

    let t = &fx.times;
    let mut values: Vec<(&str, f64)> = TIMED_US
        .iter()
        .map(|&name| (name, samples.median_us(name)))
        .collect();
    values.extend([
        ("setup.world_build_s", t.world_build_s),
        ("setup.train_s", t.train_s),
        ("setup.engine_build_s", t.engine_build_s),
        ("setup.server_start_s", t.server_start_s),
        ("setup.query_gen_s", t.query_gen_s),
        ("dist.pool_reuse_ratio", ratio(reuse, reuse + mints)),
        (
            "dist.lattice_fast_per_query",
            (after.lattice_fast_path - before.lattice_fast_path) as f64 / n,
        ),
        (
            "core.cost.estimator_arm_share",
            ratio(estimator_steps as u64, combine_steps as u64),
        ),
        ("core.routing.route_short_us", route_short_us),
        ("core.routing.route_mid_us", route_mid_us),
        ("core.routing.route_long_us", route_long_us),
        (
            "core.routing.labels_created_per_query",
            labels_created as f64 / n,
        ),
        (
            "core.routing.labels_expanded_per_query",
            sum(|r| r.stats.labels_expanded) as f64 / n,
        ),
        (
            "core.routing.pruned_bound_share",
            ratio(sum(|r| r.stats.pruned_bound), labels_created),
        ),
        (
            "core.routing.pruned_dominance_share",
            ratio(sum(|r| r.stats.pruned_dominance), labels_created),
        ),
        (
            "core.routing.pruned_infeasible_share",
            ratio(sum(|r| r.stats.pruned_infeasible), labels_created),
        ),
        (
            "core.routing.incomplete_share",
            sum(|r| usize::from(!r.stats.completed)) as f64 / n,
        ),
        ("core.routing.bounds_hit_ratio", ratio(hits, hits + misses)),
        ("core.routing.swap_ms", median(&swap_ms)),
        (
            "core.routing.executor_speedup",
            if batched_ms > 0.0 {
                sequential_ms / batched_ms
            } else {
                0.0
            },
        ),
        (
            "core.routing.execute_batch_ms",
            if batch_ms.is_empty() {
                0.0
            } else {
                median(&batch_ms)
            },
        ),
        (
            "core.routing.executor_inline_share",
            ratio(
                stats1.inline_batches - stats0.inline_batches,
                stats1.batches - stats0.batches,
            ),
        ),
        ("serve.json.response_bytes", replay.response_bytes),
        ("serve.batched.residual_us", wire_p50_us - handle_us),
        ("serve.batched.idle_cpu_share", idle),
        (
            "serve.batched.cpu_ms_per_query_saturated",
            1e3 * saturated.cpu_s / saturated.phase.ok_count().max(1) as f64,
        ),
        (
            "serve.batched.batch_size_mean",
            ratio(m1.0 - m0.0, m1.1 - m0.1),
        ),
        (
            "serve.batched.pipelined_share",
            ratio(m1.2 - m0.2, m1.3 - m0.3),
        ),
        ("serve.batched.shed_total", (m1.4 - m0.4) as f64),
        ("gen.late_p99_ms", late.p99_ms),
        ("gen.late_max_ms", late.max_ms),
        (
            "trace.overhead_share",
            (traced_p50_us - wire_p50_us) / wire_p50_us,
        ),
    ]);
    RunResult {
        workload: spec.name,
        seed,
        seconds,
        traced: true,
        metrics: fill(&PER_LAYER, &values),
        phases: vec![
            replay.row,
            phase_row("paced", &plain.phase),
            phase_row("saturated", &saturated.phase),
            phase_row("paced_traced", &traced.phase),
        ],
        latency_samples: plain.phase.ok_count(),
        invalid: late.invalid,
    }
}

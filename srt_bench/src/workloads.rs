//! The four workloads and the end-to-end run of each.
//!
//! A run sets the fixture up three times (the median is `setup_s`),
//! warms up untimed, then measures for `--seconds`, split between the
//! workload's two phases. Every answer is checked: wire answers
//! bitwise against the in-process engine, executor answers against the
//! sequential ones, and repeated passes against the first.

use crate::fixture::{self, Fixture, Inputs};
use crate::report::{fill, PhaseRow, RunResult};
use crate::schema::END_TO_END;
use crate::stats::{median, p99_stall_resistant, percentile, sorted};
use crate::sys;
use crate::wire::{self, Entry, Pace, Phase, Verdict};
use srt_core::routing::{BatchExecutor, EngineError, Query, RouteResult, RoutingEngine};
use srt_eval::setup::Scale;
use srt_serve::json::route_result_to_json;
use srt_synth::DistanceCategory;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Kind {
    WireShort,
    WireAnytime,
    EngineLong,
    EngineColdSwap,
}

/// A workload's name and the reason it exists.
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        kind: Kind::WireShort,
        name: "wire_short",
        why: "HTTP /route with 0.1 ms searches: http, json, dispatch and the connection plane do the work; open loop at 500 req/s shows wake-up latency and idle CPU, a closed window of 16 shows wire cost",
    },
    Spec {
        kind: Kind::WireAnytime,
        name: "wire_anytime",
        why: "same server, 20 ms deadline on every request, one in ten a [1,5) km query: search dominates, uneven costs exercise micro-batching and in-order writeback; carries the anytime quality metric",
    },
    Spec {
        kind: Kind::EngineLong,
        name: "engine_long",
        why: "no wire: [1,5) and [5,10) km queries in-process, sequential then through the 2-lane BatchExecutor; label search, dist algebra, forest inference and core.cost do it all, counters repeat exactly",
    },
    Spec {
        kind: Kind::EngineColdSwap,
        name: "engine_cold_swap",
        why: "same engine used differently: 1444-node world, a model swap before every 500 short queries, so epoch rebuild, reverse Dijkstra and cache misses do half the work; cost moved into swap or set-up shows",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The closed-loop window of the saturated wire phase.
const WINDOW: usize = 16;
/// Slices of a saturated phase whose median rate is the throughput.
pub const RATE_WINDOWS: usize = 6;
/// Queries per `BatchExecutor::execute` call, and the executor's lanes.
pub const MICRO_BATCH: usize = 8;
pub const LANES: usize = 2;

/// How big a workload is. `--smoke` shrinks everything to the tiny
/// world so the harness itself can be tested in seconds.
#[derive(Clone, Debug)]
pub struct Sizes {
    pub scale: Scale,
    /// Seeded `[0,1)` km queries.
    pub shorts: usize,
    /// `[1,5)` km queries taken from the fixed pool.
    pub mids: usize,
    /// `[5,10)` km queries taken from the fixed pool.
    pub longs: usize,
    pub deadline: Option<Duration>,
    /// Open-loop rate of the paced phase: end to end on the wire
    /// workloads, and in every traced run (which puts each workload's
    /// inputs on the wire to take the `serve.batched` numbers).
    pub paced_rate_hz: f64,
    /// Routes between two model swaps (`engine_cold_swap`).
    pub swap_block: usize,
    pub setup_repeats: usize,
    /// Queries per distance band behind the traced run's
    /// `core.routing.route_*_us`: seeded `[0,1)` km queries, then
    /// prefixes of the two fixed pools. The prefixes are short on the
    /// paper world, whose pools hold a 5 s `[1,5)` km query at index 7
    /// and a 30 s `[5,10)` km query at index 2.
    pub band_samples: [usize; 3],
}

pub fn sizes(kind: Kind, smoke: bool) -> Sizes {
    let deadline = (kind == Kind::WireAnytime).then_some(Duration::from_millis(20));
    let full = !smoke;
    let (scale, shorts, mids, longs, paced_rate_hz, swap_block) = match kind {
        Kind::WireShort if full => (Scale::Small, 2048, 0, 0, 500.0, 0),
        Kind::WireShort => (Scale::Tiny, 64, 0, 0, 500.0, 0),
        Kind::WireAnytime if full => (Scale::Small, 9 * 64, 64, 0, 200.0, 0),
        Kind::WireAnytime => (Scale::Tiny, 9 * 8, 8, 0, 200.0, 0),
        // An odd count, so that the median of whole passes is always a
        // sample of the same query instead of flipping between two.
        Kind::EngineLong if full => (Scale::Small, 0, 73, 8, 8.0, 0),
        Kind::EngineLong => (Scale::Tiny, 0, 16, 0, 200.0, 0),
        Kind::EngineColdSwap if full => (Scale::Paper, 2000, 0, 0, 500.0, 500),
        Kind::EngineColdSwap => (Scale::Tiny, 64, 0, 0, 500.0, 16),
    };
    Sizes {
        scale,
        shorts,
        mids,
        longs,
        deadline,
        paced_rate_hz,
        swap_block,
        setup_repeats: if full { 3 } else { 1 },
        band_samples: match scale {
            Scale::Tiny => [8, 4, 0],
            Scale::Small => [64, 12, 3],
            Scale::Paper => [64, 7, 2],
        },
    }
}

/// The request bytes of one `/route` call.
pub fn request_bytes(q: &Query) -> Vec<u8> {
    let mut body = format!(
        "{{\"source\":{},\"target\":{},\"budget_s\":{:?}",
        q.source.0, q.target.0, q.budget_s
    );
    if let Some(d) = q.deadline {
        body.push_str(&format!(",\"deadline_ms\":{:?}", d.as_secs_f64() * 1000.0));
    }
    body.push('}');
    format!(
        "POST /route HTTP/1.1\r\nHost: srt-bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The in-process answer to `q` without its deadline: what an exact
/// search must return.
fn reference(engine: &RoutingEngine, q: &Query) -> RouteResult {
    let exact = Query::new(q.source, q.target, q.budget_s);
    engine.route(&exact).expect("generated queries are valid")
}

/// Request bytes and expected answers for every distinct query. The
/// in-process reference pass doubles as the engine's warm-up: every
/// target's bounds are cached when it returns.
pub fn wire_catalog(engine: &RoutingEngine, inputs: &Inputs) -> Vec<Entry> {
    inputs
        .queries
        .iter()
        .map(|q| {
            let body = route_result_to_json(&reference(engine, q)).into_bytes();
            let expect = wire::deterministic_prefix(&body)
                .expect("a /route body ends with elapsed_us")
                .to_vec();
            Entry {
                request: request_bytes(q),
                expect,
                anytime: q.deadline.is_some(),
            }
        })
        .collect()
}

/// Same probability bits, same edges.
pub fn same_answer(a: &RouteResult, b: &RouteResult) -> bool {
    a.probability.to_bits() == b.probability.to_bits()
        && a.path.as_ref().map(|p| &p.edges) == b.path.as_ref().map(|p| &p.edges)
}

pub fn phase_row(name: &'static str, p: &Phase) -> PhaseRow {
    PhaseRow {
        name,
        sent: p.records.len(),
        ok: p.ok_count(),
        failed: p.failed_count(),
        elapsed_s: p.elapsed_s,
        failures: p.failure_breakdown(),
    }
}

/// Open-loop request count for `duration_s` at `rate_hz`. A workload
/// whose plan balances classes per pass sends whole passes only.
pub fn paced_count(rate_hz: f64, duration_s: f64, plan_len: usize, whole_passes: bool) -> usize {
    let n = (rate_hz * duration_s) as usize;
    if whole_passes {
        (n / plan_len).max(1) * plan_len
    } else {
        n.max(1)
    }
}

/// One wire phase with the process CPU it burned.
pub struct TimedPhase {
    pub phase: Phase,
    pub cpu_s: f64,
}

/// The load generator bound to one server and one workload.
pub struct WireDriver<'a> {
    pub addr: SocketAddr,
    pub catalog: &'a [Entry],
    pub inputs: &'a Inputs,
    pub sizes: &'a Sizes,
}

impl WireDriver<'_> {
    fn run(&self, pace: Pace, traced: bool) -> TimedPhase {
        let cpu0 = sys::process_cpu_s();
        let phase = wire::run_phase(self.addr, self.catalog, &self.inputs.plan, pace, traced)
            .expect("a loopback phase runs to its end");
        TimedPhase {
            phase,
            cpu_s: sys::process_cpu_s() - cpu0,
        }
    }

    /// The untimed warm-up before a phase: half a second of
    /// closed-loop traffic (a saturated phase started cold ran a fifth
    /// slower for its first second in the sizing probe).
    pub fn warm_up(&self) {
        self.run(
            Pace::Closed {
                window: WINDOW,
                duration: Duration::from_millis(500),
            },
            false,
        );
    }

    /// Open loop at the workload's fixed rate for about `duration_s`.
    ///
    /// A phase whose sender ran late (see [`MAX_LATE_P99_MS`]) is void
    /// and is measured again, up to [`PACED_ATTEMPTS`] times: on the
    /// shared reference box one run in forty meets a busy neighbour.
    /// The last attempt is returned with its lateness and, if it too
    /// was late, the reason the run is invalid.
    pub fn paced(&self, duration_s: f64, traced: bool) -> (TimedPhase, Lateness) {
        let count = paced_count(
            self.sizes.paced_rate_hz,
            duration_s,
            self.inputs.plan.len(),
            self.sizes.deadline.is_some(),
        );
        let mut attempt = 1;
        loop {
            let timed = self.run(
                Pace::Open {
                    rate_hz: self.sizes.paced_rate_hz,
                    count,
                },
                traced,
            );
            let late = Lateness::of(&timed.phase);
            match &late.invalid {
                Some(why) if attempt < PACED_ATTEMPTS => {
                    println!("  paced attempt {attempt} void: {why}; measuring again");
                    attempt += 1;
                }
                _ => return (timed, late),
            }
        }
    }

    /// Closed loop, a window of 16 outstanding, for `duration_s`.
    pub fn saturated(&self, duration_s: f64) -> TimedPhase {
        self.run(
            Pace::Closed {
                window: WINDOW,
                duration: Duration::from_secs_f64(duration_s),
            },
            false,
        )
    }
}

/// Sender lateness (p99, ms) beyond which an open-loop phase is
/// invalid and its numbers are withheld.
///
/// The schedule never drifts and latency is counted from the due time,
/// so a late send is already paid for in the latency it causes; what
/// the limit guards is the schedule itself — a sender this late is
/// sending bursts, not the stated rate. It is 10 ms rather than the
/// issue's 1 ms because this box makes a waking sender wait out a
/// scheduler slice (about 3 ms) whenever both cores run search lanes,
/// which `wire_anytime` does by design, and a busy minute pushed
/// `wire_short` past 3 ms three times in seventy runs.
pub const MAX_LATE_P99_MS: f64 = 10.0;

/// How often a void paced phase is measured before the run gives up.
pub const PACED_ATTEMPTS: usize = 3;

/// How late the sender of an open-loop phase ran against its schedule.
pub struct Lateness {
    /// The stall-resistant p99 the latencies use: one 100 ms machine
    /// stall makes fifty consecutive sends late, which is the machine's
    /// doing and already counted in those requests' latency.
    pub p99_ms: f64,
    pub max_ms: f64,
    /// Why the phase is invalid, if it is.
    pub invalid: Option<String>,
}

impl Lateness {
    pub fn of(paced: &Phase) -> Self {
        let late: Vec<f64> = paced.records.iter().map(|r| r.late_ms()).collect();
        let p99_ms = p99_stall_resistant(&late);
        let max_ms = late.iter().copied().fold(0.0, f64::max);
        let invalid = (p99_ms > MAX_LATE_P99_MS).then(|| {
            format!("the open-loop sender ran late: p99 {p99_ms:.3} ms, max {max_ms:.3} ms (limit {MAX_LATE_P99_MS} ms)")
        });
        Lateness {
            p99_ms,
            max_ms,
            invalid,
        }
    }
}

/// What a run measured, before it is laid out as metrics.
struct Measured {
    phases: Vec<PhaseRow>,
    /// Latency samples in arrival order, correct answers only.
    latencies_ms: Vec<f64>,
    throughput_qps: f64,
    cpu_ms_per_query: f64,
    exact_share: f64,
    invalid: Option<String>,
}

fn measure_wire(fx: &Fixture, sizes: &Sizes, seconds: f64) -> Measured {
    let server = fx.server.as_ref().expect("wire workloads start a server");
    let catalog = wire_catalog(&fx.engine, &fx.inputs);
    let driver = WireDriver {
        addr: server.local_addr(),
        catalog: &catalog,
        inputs: &fx.inputs,
        sizes,
    };
    driver.warm_up();
    let (paced, late) = driver.paced(0.55 * seconds, false);
    driver.warm_up();
    let saturated = driver.saturated(0.45 * seconds);

    // The hardest class the workload has decides the quality metric.
    let hardest = if fx.inputs.classes.contains(&DistanceCategory::OneToFive) {
        DistanceCategory::OneToFive
    } else {
        DistanceCategory::ZeroToOne
    };
    let (mut hard, mut hard_exact) = (0usize, 0usize);
    for (i, r) in paced.phase.records.iter().enumerate() {
        let entry = fx.inputs.plan[i % fx.inputs.plan.len()] as usize;
        if fx.inputs.classes[entry] == hardest {
            hard += 1;
            hard_exact += usize::from(r.verdict == Verdict::Exact);
        }
    }
    println!(
        "  generator lateness p99 {:.4} ms  max {:.4} ms",
        late.p99_ms, late.max_ms
    );
    Measured {
        phases: vec![
            phase_row("paced", &paced.phase),
            phase_row("saturated", &saturated.phase),
        ],
        latencies_ms: paced.phase.ok_latencies_ms(),
        throughput_qps: saturated.phase.ok_rate_median(RATE_WINDOWS),
        cpu_ms_per_query: 1e3 * paced.cpu_s / paced.phase.ok_count().max(1) as f64,
        exact_share: hard_exact as f64 / hard.max(1) as f64,
        invalid: late.invalid,
    }
}

fn is_correct(got: &Result<RouteResult, EngineError>, want: &RouteResult) -> bool {
    got.as_ref().is_ok_and(|r| same_answer(r, want))
}

/// An in-process phase whose answers are checked against the first
/// answer each query of the pass got.
struct Checked {
    row: PhaseRow,
    reference: Vec<RouteResult>,
    /// Latency of every correct answer, in arrival order.
    latencies_ms: Vec<f64>,
    /// Correct answers whose search ran to completion.
    completed: usize,
}

impl Checked {
    fn new(name: &'static str) -> Self {
        Checked {
            row: PhaseRow::new(name),
            reference: Vec::new(),
            latencies_ms: Vec::new(),
            completed: 0,
        }
    }

    /// Routes query `k` of the pass on this thread and records it.
    fn route(&mut self, engine: &RoutingEngine, k: usize, q: &Query) {
        let t = Instant::now();
        let got = engine.route(q);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.row.sent += 1;
        let ok = match self.reference.get(k) {
            Some(want) => is_correct(&got, want),
            None => got.is_ok(),
        };
        if ok {
            self.row.ok += 1;
            self.latencies_ms.push(ms);
            self.completed += usize::from(got.as_ref().is_ok_and(|r| r.stats.completed));
        }
        if self.reference.len() == k {
            self.reference
                .push(got.expect("generated queries are valid"));
        }
    }
}

/// Repeats `pass` — which returns how many correct answers it produced
/// — until `budget_s` is spent. Returns the correct answers per second
/// of each pass (their median is the throughput, so a stall spoils one
/// pass, not the figure) and the time all passes took.
fn whole_passes(budget_s: f64, mut pass: impl FnMut() -> usize) -> (Vec<f64>, f64) {
    let mut rates = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < budget_s {
        let pass_started = Instant::now();
        let ok = pass();
        rates.push(ok as f64 / pass_started.elapsed().as_secs_f64());
    }
    (rates, started.elapsed().as_secs_f64())
}

/// The workload's pass as a list of queries.
pub fn planned_queries(inputs: &Inputs) -> Vec<Query> {
    inputs
        .plan
        .iter()
        .map(|&i| inputs.queries[i as usize])
        .collect()
}

fn measure_engine_long(fx: &Fixture, seconds: f64) -> Measured {
    let engine = &fx.engine;
    let queries = planned_queries(&fx.inputs);
    for q in queries.iter().take(2 * MICRO_BATCH) {
        let _ = engine.route(q);
    }
    let cpu0 = sys::process_cpu_s();

    // Sequential: the first pass is the reference for every later answer.
    let mut seq = Checked::new("sequential");
    let (_, elapsed_s) = whole_passes(0.5 * seconds, || {
        let ok_before = seq.row.ok;
        for (k, q) in queries.iter().enumerate() {
            seq.route(engine, k, q);
        }
        seq.row.ok - ok_before
    });
    seq.row.close(elapsed_s);

    // Batched: the same list in micro-batches through the executor.
    let executor = BatchExecutor::new(Arc::clone(engine), LANES);
    executor.execute(queries[..MICRO_BATCH.min(queries.len())].to_vec());
    let mut bat = PhaseRow::new("batched");
    let (pass_rates, elapsed_s) = whole_passes(0.5 * seconds, || {
        let ok_before = bat.ok;
        for (chunk, want) in queries
            .chunks(MICRO_BATCH)
            .zip(seq.reference.chunks(MICRO_BATCH))
        {
            let got = executor.execute(chunk.to_vec());
            bat.sent += chunk.len();
            bat.ok += got
                .iter()
                .zip(want)
                .filter(|(g, w)| is_correct(g, w))
                .count();
        }
        bat.ok - ok_before
    });
    bat.close(elapsed_s);
    let cpu_s = sys::process_cpu_s() - cpu0;

    Measured {
        throughput_qps: median(&pass_rates),
        cpu_ms_per_query: 1e3 * cpu_s / (seq.row.ok + bat.ok).max(1) as f64,
        exact_share: seq.completed as f64 / seq.row.sent.max(1) as f64,
        latencies_ms: seq.latencies_ms,
        phases: vec![seq.row, bat],
        invalid: None,
    }
}

fn measure_cold_swap(fx: &Fixture, sizes: &Sizes, seconds: f64) -> Measured {
    let engine = &fx.engine;
    let queries = planned_queries(&fx.inputs);
    fx.swap_model_ms();
    for q in queries.iter().take(200) {
        let _ = engine.route(q);
    }
    let cpu0 = sys::process_cpu_s();
    let mut all = Checked::new("swap_and_route");
    let mut swaps = 0usize;
    let (pass_rates, elapsed_s) = whole_passes(seconds, || {
        let ok_before = all.row.ok;
        for (k, q) in queries.iter().enumerate() {
            if k % sizes.swap_block == 0 {
                fx.swap_model_ms();
                swaps += 1;
            }
            all.route(engine, k, q);
        }
        all.row.ok - ok_before
    });
    all.row.close(elapsed_s);
    let cpu_s = sys::process_cpu_s() - cpu0;
    println!("  model swaps {swaps}");
    Measured {
        throughput_qps: median(&pass_rates),
        cpu_ms_per_query: 1e3 * cpu_s / all.row.ok.max(1) as f64,
        exact_share: all.completed as f64 / all.row.sent.max(1) as f64,
        latencies_ms: all.latencies_ms,
        phases: vec![all.row],
        invalid: None,
    }
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run_end_to_end(spec: &'static Spec, seed: u64, seconds: f64, smoke: bool) -> RunResult {
    let sizes = sizes(spec.kind, smoke);
    let wire = matches!(spec.kind, Kind::WireShort | Kind::WireAnytime);
    let mut setups = Vec::with_capacity(sizes.setup_repeats);
    let mut fx = fixture::set_up(spec.kind, &sizes, seed, wire);
    setups.push(fx.times.total_s());
    while setups.len() < sizes.setup_repeats {
        // Drain the previous server before the next set-up binds its own.
        drop(fx);
        fx = fixture::set_up(spec.kind, &sizes, seed, wire);
        setups.push(fx.times.total_s());
    }

    let m = match spec.kind {
        Kind::WireShort | Kind::WireAnytime => measure_wire(&fx, &sizes, seconds),
        Kind::EngineLong => measure_engine_long(&fx, seconds),
        Kind::EngineColdSwap => measure_cold_swap(&fx, &sizes, seconds),
    };
    if let Some(server) = fx.server.take() {
        let report = server.shutdown();
        assert_eq!(report.in_flight_after_drain, 0, "the server drained clean");
    }

    let attempted: usize = m.phases.iter().map(|p| p.sent).sum();
    let failed: usize = m.phases.iter().map(|p| p.failed).sum();
    let by_value = sorted(m.latencies_ms.clone());
    let values = [
        ("setup_s", median(&setups)),
        ("throughput_qps", m.throughput_qps),
        ("lat_p50_ms", percentile(&by_value, 0.50)),
        ("lat_p90_ms", percentile(&by_value, 0.90)),
        ("lat_p99_ms", p99_stall_resistant(&m.latencies_ms)),
        ("cpu_ms_per_query", m.cpu_ms_per_query),
        ("peak_rss_mb", sys::peak_rss_mib()),
        (
            "answered_share",
            1.0 - failed as f64 / attempted.max(1) as f64,
        ),
        ("anytime_exact_share", m.exact_share),
    ];
    RunResult {
        workload: spec.name,
        seed,
        seconds,
        traced: false,
        metrics: fill(&END_TO_END, &values),
        phases: m.phases,
        latency_samples: m.latencies_ms.len(),
        invalid: m.invalid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srt_graph::NodeId;

    #[test]
    fn request_bytes_are_what_the_server_parses() {
        let q = Query::new(NodeId(3), NodeId(77), 123.456).with_deadline(Duration::from_millis(20));
        let bytes = request_bytes(&q);
        let (req, used) = srt_serve::http::parse_buffered(&bytes)
            .unwrap()
            .expect("complete request");
        assert_eq!(used, bytes.len());
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/route"));
        let doc = srt_serve::json::parse(std::str::from_utf8(&req.body).unwrap()).unwrap();
        assert_eq!(srt_serve::json::query_from_json(&doc).unwrap(), q);
    }

    /// 1500 on-time sends, except that `late(i)` says how late send `i` was.
    fn phase_with_lateness(late_ms: impl Fn(usize) -> f64) -> Phase {
        let records = (0..1500)
            .map(|i| {
                let due_ns = wire::due_ns(i, 500.0);
                wire::Record {
                    due_ns,
                    sent_ns: due_ns + (late_ms(i) * 1e6) as u64,
                    written_ns: 0,
                    recv_ns: due_ns + 60_000_000,
                    verdict: Verdict::Exact,
                }
            })
            .collect();
        Phase {
            started: Instant::now(),
            records,
            elapsed_s: 3.0,
        }
    }

    #[test]
    fn one_stall_does_not_void_a_phase_but_a_late_sender_does() {
        // A 100 ms stall: fifty consecutive sends catch up one by one.
        let stalled = Lateness::of(&phase_with_lateness(|i| {
            if (700..750).contains(&i) {
                2.0 * (750 - i) as f64
            } else {
                0.05
            }
        }));
        assert_eq!(stalled.max_ms, 100.0);
        assert!(stalled.p99_ms < 1.0 && stalled.invalid.is_none());

        // Two sends in a hundred 50 ms late, all phase long.
        let late = Lateness::of(&phase_with_lateness(
            |i| if i % 50 == 0 { 50.0 } else { 0.05 },
        ));
        assert_eq!(late.p99_ms, 50.0);
        assert!(late.invalid.is_some_and(|why| why.contains("limit 10 ms")));
    }

    #[test]
    fn paced_count_rounds_to_whole_passes_only_when_asked() {
        assert_eq!(paced_count(500.0, 6.6, 2048, false), 3300);
        assert_eq!(paced_count(200.0, 6.6, 640, true), 1280);
        assert_eq!(paced_count(200.0, 0.5, 640, true), 640);
        assert_eq!(paced_count(200.0, 0.001, 640, false), 1);
    }
}

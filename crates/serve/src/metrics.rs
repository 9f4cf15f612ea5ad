//! Server-side counters and the Prometheus text exposition behind
//! `GET /metrics`.
//!
//! Two metric families share the page: `srt_serve_*` (owned here —
//! admission, shedding, response classes, request latency, batching)
//! and `srt_engine_*` (projected from the live
//! [`srt_core::routing::StatsSnapshot`] at scrape time). Everything is
//! lock-free atomics, so recording on the hot path costs a handful of
//! relaxed increments.
//!
//! # Scrape coherence
//!
//! `srt_serve_requests_total` and the `srt_serve_request_seconds`
//! histogram are updated together inside one
//! [`SeqLock`] write section, and the page
//! render runs as a seqlock read — so a scrape can never observe a
//! request counted in one but not the other. (A scraped page once
//! showed `requests_total 1248` against `request_seconds_count 1247`:
//! the count was bumped at parse time, the histogram at response time,
//! and the scrape's own request sat in the gap. Both now move at
//! response time, atomically-enough, which also excludes the
//! in-progress scrape itself consistently.)

use srt_core::routing::StatsSnapshot;
use srt_core::sync::SeqLock;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (seconds) of the request-latency histogram buckets; an
/// implicit `+Inf` bucket follows. Spans 50µs–2.5s: everything a tiny
/// in-process search or a saturated queue can plausibly produce.
pub const LATENCY_BUCKETS_S: [f64; 12] = [
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1, 0.5, 2.5,
];

/// A fixed-bucket cumulative histogram in the Prometheus style.
pub struct LatencyHistogram {
    /// Per-bucket counts (`LATENCY_BUCKETS_S` plus the `+Inf` bucket),
    /// stored non-cumulative; the render accumulates.
    buckets: [AtomicU64; LATENCY_BUCKETS_S.len() + 1],
    /// Sum of observed values in nanoseconds (integer atomics keep the
    /// recorder lock-free; the render divides back to seconds).
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        let idx = LATENCY_BUCKETS_S
            .iter()
            .position(|&le| secs <= le)
            .unwrap_or(LATENCY_BUCKETS_S.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns
            .fetch_add(elapsed.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The value at (approximately) quantile `q` in seconds, resolved to
    /// the upper bound of the bucket the quantile lands in. Used by the
    /// bench harness and overload assertions — coarse on purpose.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return LATENCY_BUCKETS_S.get(i).copied().unwrap_or(f64::INFINITY);
            }
        }
        f64::INFINITY
    }

    fn render(&self, name: &str, out: &mut String) {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, le) in LATENCY_BUCKETS_S.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"{le:?}\"}} {cumulative}");
        }
        cumulative += self.buckets[LATENCY_BUCKETS_S.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let sum_s = self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9;
        let _ = writeln!(out, "{name}_sum {sum_s:?}");
        let _ = writeln!(out, "{name}_count {}", self.count());
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Upper bounds of the dispatched-batch-size histogram; an implicit
/// `+Inf` bucket follows. Powers of two up to the practical `--max-batch`
/// range.
pub const BATCH_SIZE_BUCKETS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// A fixed-bucket histogram over micro-batch sizes (how many requests
/// the dispatch plane managed to coalesce per engine call).
pub struct BatchHistogram {
    buckets: [AtomicU64; BATCH_SIZE_BUCKETS.len() + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl BatchHistogram {
    pub fn new() -> Self {
        BatchHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one dispatched batch of `size` requests.
    pub fn observe(&self, size: usize) {
        let size = size as u64;
        let idx = BATCH_SIZE_BUCKETS
            .iter()
            .position(|&le| size <= le)
            .unwrap_or(BATCH_SIZE_BUCKETS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(size, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Batches observed so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Requests observed across all batches.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn render(&self, name: &str, out: &mut String) {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, le) in BATCH_SIZE_BUCKETS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        cumulative += self.buckets[BATCH_SIZE_BUCKETS.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", self.sum());
        let _ = writeln!(out, "{name}_count {}", self.count());
    }
}

impl Default for BatchHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The server's own counters (the engine keeps its own in
/// [`srt_core::routing::EngineStats`]).
pub struct ServeMetrics {
    /// Connections registered with the connection plane.
    pub accepted_total: AtomicU64,
    /// Refusals with `503`: requests that found the dispatch queue full
    /// (or draining), plus connections turned away at the connection
    /// limit.
    pub shed_total: AtomicU64,
    /// HTTP requests answered (a keep-alive connection can contribute
    /// many). Bumped together with the latency histogram under
    /// `coherence` — see [`ServeMetrics::record_request`].
    pub requests_total: AtomicU64,
    /// Responses by class.
    pub responses_2xx: AtomicU64,
    pub responses_4xx: AtomicU64,
    pub responses_5xx: AtomicU64,
    /// End-to-end handler latency (parse-complete to response-written).
    pub latency: LatencyHistogram,
    /// Requests admitted to the dispatch queue and not yet answered
    /// (gauge).
    pub inflight_requests: AtomicU64,
    /// Requests that arrived pipelined: parsed off a connection that
    /// already had an unanswered request in flight.
    pub pipelined_total: AtomicU64,
    /// Sizes of the micro-batches the dispatch plane coalesced.
    pub batch_size: BatchHistogram,
    /// Brackets `record_request` against the page render so a scrape
    /// never sees `requests_total` and the histogram disagree.
    coherence: SeqLock,
}

impl ServeMetrics {
    pub fn new() -> Self {
        ServeMetrics {
            accepted_total: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            inflight_requests: AtomicU64::new(0),
            pipelined_total: AtomicU64::new(0),
            batch_size: BatchHistogram::new(),
            coherence: SeqLock::new(),
        }
    }

    /// Buckets a finished response into its class counter.
    pub fn record_response(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one answered request: the request counter, the latency
    /// histogram and the response-class counter move together inside
    /// one claimed seqlock write, so a concurrent scrape (whose render
    /// is a seqlock read) observes either none of them or all of them.
    pub fn record_request(&self, status: u16, elapsed: Duration) {
        self.coherence.write(|| {
            self.requests_total.fetch_add(1, Ordering::Relaxed);
            self.latency.observe(elapsed);
            self.record_response(status);
        });
    }

    /// Renders the full `/metrics` page: server families first, then the
    /// engine snapshot taken by the caller at scrape time. Runs as a
    /// seqlock read against [`ServeMetrics::record_request`], so the
    /// page is retried (rebuilt) if a request completed mid-render —
    /// the count/histogram pair is always coherent.
    pub fn render_prometheus(&self, engine: &StatsSnapshot, queue_depth: usize) -> String {
        self.coherence.read(|| self.render_page(engine, queue_depth))
    }

    fn render_page(&self, engine: &StatsSnapshot, queue_depth: usize) -> String {
        let mut out = String::with_capacity(2048);
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        };
        let gauge = |out: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        };
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);

        counter(
            &mut out,
            "srt_serve_accepted_total",
            "Connections registered with the connection plane.",
            load(&self.accepted_total),
        );
        counter(
            &mut out,
            "srt_serve_shed_total",
            "Requests shed with 503 (dispatch queue full or draining) plus connections refused at the connection limit.",
            load(&self.shed_total),
        );
        counter(
            &mut out,
            "srt_serve_requests_total",
            "HTTP requests answered (moves with the latency histogram).",
            load(&self.requests_total),
        );
        counter(
            &mut out,
            "srt_serve_pipelined_total",
            "Requests that arrived pipelined behind an unanswered request on the same connection.",
            load(&self.pipelined_total),
        );
        counter(
            &mut out,
            "srt_serve_responses_total_2xx",
            "Responses with a 2xx status.",
            load(&self.responses_2xx),
        );
        counter(
            &mut out,
            "srt_serve_responses_total_4xx",
            "Responses with a 4xx status.",
            load(&self.responses_4xx),
        );
        counter(
            &mut out,
            "srt_serve_responses_total_5xx",
            "Responses with a 5xx status.",
            load(&self.responses_5xx),
        );
        gauge(
            &mut out,
            "srt_serve_inflight_requests",
            "Requests admitted to the dispatch queue and not yet answered.",
            load(&self.inflight_requests),
        );
        gauge(
            &mut out,
            "srt_serve_queue_depth",
            "Requests waiting in the dispatch queue.",
            queue_depth as u64,
        );
        let _ = writeln!(
            out,
            "# HELP srt_serve_request_seconds Handler latency from parse-complete to response-written."
        );
        self.latency.render("srt_serve_request_seconds", &mut out);
        let _ = writeln!(
            out,
            "# HELP srt_serve_batch_size Requests coalesced per dispatched micro-batch."
        );
        self.batch_size.render("srt_serve_batch_size", &mut out);

        counter(
            &mut out,
            "srt_engine_queries_total",
            "Valid queries routed by the engine.",
            engine.queries,
        );
        counter(
            &mut out,
            "srt_engine_batches_total",
            "Batches submitted to the executor.",
            engine.batches,
        );
        counter(
            &mut out,
            "srt_engine_bounds_cache_hits_total",
            "Queries served from the per-target bounds cache.",
            engine.bounds_cache_hits,
        );
        counter(
            &mut out,
            "srt_engine_bounds_cache_misses_total",
            "Queries that had to compute fresh bounds.",
            engine.bounds_cache_misses,
        );
        counter(
            &mut out,
            "srt_engine_bounds_evictions_total",
            "Cached bounds evicted by the LRU policy.",
            engine.bounds_evictions,
        );
        counter(
            &mut out,
            "srt_engine_labels_created_total",
            "Search labels created across all queries.",
            engine.labels_created,
        );
        counter(
            &mut out,
            "srt_engine_labels_expanded_total",
            "Search labels expanded across all queries.",
            engine.labels_expanded,
        );
        counter(
            &mut out,
            "srt_engine_incomplete_total",
            "Searches cut short by a deadline or the label cap.",
            engine.incomplete,
        );
        counter(
            &mut out,
            "srt_engine_pool_reuse_total",
            "Histogram-buffer checkouts served from the free list.",
            engine.pool_reuse,
        );
        counter(
            &mut out,
            "srt_engine_pool_misses_total",
            "Histogram-buffer checkouts that allocated fresh.",
            engine.pool_misses,
        );
        counter(
            &mut out,
            "srt_engine_lattice_fast_path_total",
            "Convolutions that ran on the shared-lattice fast route.",
            engine.lattice_fast_path,
        );
        counter(
            &mut out,
            "srt_engine_panics_total",
            "Queries whose search panicked and was contained (any non-zero value is a bug report).",
            engine.panics,
        );
        gauge(
            &mut out,
            "srt_engine_epoch",
            "Id of the model epoch currently serving (bumped by each successful /reload).",
            engine.epoch,
        );
        out
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.observe(Duration::from_micros(80)); // -> le=0.0001
        }
        for _ in 0..10 {
            h.observe(Duration::from_millis(20)); // -> le=0.025
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 0.0001);
        assert_eq!(h.quantile(0.99), 0.025);
        // Beyond the last bound lands in +Inf.
        h.observe(Duration::from_secs(10));
        assert_eq!(h.quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn batch_histogram_buckets_by_size() {
        let h = BatchHistogram::new();
        h.observe(1);
        h.observe(3);
        h.observe(200);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 204);
        let mut page = String::new();
        h.render("srt_serve_batch_size", &mut page);
        for needle in [
            "srt_serve_batch_size_bucket{le=\"1\"} 1",
            "srt_serve_batch_size_bucket{le=\"4\"} 2",
            "srt_serve_batch_size_bucket{le=\"64\"} 2",
            "srt_serve_batch_size_bucket{le=\"+Inf\"} 3",
            "srt_serve_batch_size_sum 204",
            "srt_serve_batch_size_count 3",
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
    }

    /// The regression a scraped page once showed: scrapes racing
    /// traffic caught `requests_total` and the histogram count one
    /// apart (the count was bumped at parse time, the histogram at
    /// response time). Four writers record a fixed count each while the
    /// reader scrapes until they are done; every scrape must see the
    /// two equal, and the final page the exact totals.
    #[test]
    fn scrapes_never_observe_count_and_histogram_apart() {
        use std::sync::{Arc, Barrier};

        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 20_000;
        let metrics = Arc::new(ServeMetrics::new());
        let start = Arc::new(Barrier::new(WRITERS as usize + 1));
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let metrics = Arc::clone(&metrics);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for n in 0..PER_WRITER {
                        metrics.record_request(200, Duration::from_micros(100 + n % 500));
                    }
                })
            })
            .collect();

        let sample = |page: &str, name: &str| -> u64 {
            page.lines()
                .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no sample {name} in:\n{page}"))
        };
        start.wait();
        loop {
            // Read before the scrape, so the last scrape follows every write.
            let done = writers.iter().all(|w| w.is_finished());
            let page = metrics.render_prometheus(&StatsSnapshot::default(), 0);
            let count = sample(&page, "srt_serve_requests_total");
            let hist = sample(&page, "srt_serve_request_seconds_count");
            assert_eq!(
                count, hist,
                "scrape observed requests_total and the histogram apart"
            );
            if done {
                break;
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        let page = metrics.render_prometheus(&StatsSnapshot::default(), 0);
        let total = WRITERS * PER_WRITER;
        assert_eq!(sample(&page, "srt_serve_requests_total"), total);
        assert_eq!(sample(&page, "srt_serve_request_seconds_count"), total);
    }

    #[test]
    fn render_is_valid_prometheus_text() {
        let m = ServeMetrics::new();
        m.accepted_total.fetch_add(3, Ordering::Relaxed);
        m.shed_total.fetch_add(1, Ordering::Relaxed);
        m.record_response(200);
        m.record_response(422);
        m.latency.observe(Duration::from_micros(300));
        let page = m.render_prometheus(&StatsSnapshot::default(), 2);
        for needle in [
            "srt_serve_accepted_total 3",
            "srt_serve_shed_total 1",
            "srt_serve_responses_total_2xx 1",
            "srt_serve_responses_total_4xx 1",
            "srt_serve_queue_depth 2",
            "srt_serve_request_seconds_bucket{le=\"+Inf\"} 1",
            "srt_serve_request_seconds_count 1",
            "srt_engine_queries_total 0",
            "srt_engine_panics_total 0",
            "srt_engine_epoch 0",
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in page.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value in {line:?}"
            );
        }
    }
}

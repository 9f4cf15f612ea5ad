//! The benchmark's contract in code: workload names, metric names,
//! units, directions and regression bounds. `BENCHMARK.json` at the
//! repository root states the same tables for the driver; a unit test
//! keeps the two identical.

/// Which direction is an improvement.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract.
#[derive(Copy, Clone, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; per-layer metrics carry
    /// none.
    pub bound: Option<f64>,
    /// End to end: what the number is. Per layer: how it is taken from
    /// outside, and the end-to-end metric and workload it should move.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};

/// The nine end-to-end metrics; every workload reports every one.
///
/// The bounds are three times the run-to-run spread (inter-quartile
/// range over median, ten seeds) measured on the shared two-core
/// reference box, capped at the contract's 25 %: what that box can
/// resolve, not what a quiet machine could. README.md has the table.
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", Lower, 0.25,
        "median of three full set-ups: world build + training + engine build + server start + query generation"),
    e2e("throughput_qps", "1/s", Higher, 0.25,
        "correct answers per second: saturated phase (wire), batched phase (engine_long), whole run including swaps (engine_cold_swap)"),
    e2e("lat_p50_ms", "ms", Lower, 0.25,
        "median latency: paced phase from the due time (wire), sequential phase (engine_long), per route (engine_cold_swap)"),
    e2e("lat_p90_ms", "ms", Lower, 0.25,
        "p90 of the same samples; on engine_long the highest percentile with about ten samples beyond it"),
    e2e("lat_p99_ms", "ms", Lower, 0.25,
        "p99 of the same samples; the median of three segment p99s once a phase has 3000 samples, so one stall cannot own it"),
    e2e("cpu_ms_per_query", "ms", Lower, 0.15,
        "process utime+stime per answered request: paced phase (wire, where idle spin shows), whole measured run (engine)"),
    e2e("peak_rss_mb", "MiB", Lower, 0.25,
        "VmHWM of the workload's process when it ends"),
    e2e("answered_share", "ratio", Higher, 0.001,
        "1 - (non-200 + shed + wrong answer + unanswered) / attempted over all phases; 1.0 at the committed settings"),
    e2e("anytime_exact_share", "ratio", Higher, 0.06,
        "share of the latency phase's hardest requests ([1,5) km on wire_anytime, all elsewhere) answered with a completed, bitwise-exact search"),
];

/// The per-layer ledger of the traced run; every workload reports every
/// one, measured on that workload's world and inputs.
pub const PER_LAYER: [MetricDef; 47] = [
    layer("setup.world_build_s", "s", Lower, "wall time of SyntheticWorld::build -> setup_s @ all"),
    layer("setup.train_s", "s", Lower, "wall time of train_hybrid -> setup_s @ all, dominant @ engine_cold_swap"),
    layer("setup.engine_build_s", "s", Lower, "HybridCost::from_ground_truth + EngineBuilder::build -> setup_s @ all"),
    layer("setup.server_start_s", "s", Lower, "Server::start -> setup_s @ wire workloads"),
    layer("setup.query_gen_s", "s", Lower, "QueryGenerator::generate for the workload's inputs -> setup_s @ all"),
    layer("graph.bounds_compute_us", "us", Lower, "median OptimisticBounds::compute per distinct target -> throughput_qps, lat_p50_ms @ engine_cold_swap; no change @ wire_short, engine_long (warm cache)"),
    layer("graph.expected_path_us", "us", Lower, "median expected_time_path per query (the pivot) -> lat_p50_ms @ engine_cold_swap, wire_short"),
    layer("dist.convolve_us", "us", Lower, "median convolve_bounded_into on (prefix, marginal) operands of returned paths -> throughput_qps, lat_p90_ms @ engine_long; no change @ wire_short"),
    layer("dist.dominance_us", "us", Lower, "median dominance::dominates_with_margin on consecutive prefixes -> throughput_qps @ engine_long; no change @ wire_short"),
    layer("dist.cdf_us", "us", Lower, "median Histogram::cdf(budget) on path prefixes -> throughput_qps @ engine_long; no change @ wire_short"),
    layer("dist.pool_reuse_ratio", "ratio", Higher, "pool_reuse / (pool_reuse + pool_misses) from engine.stats() deltas -> throughput_qps, peak_rss_mb @ engine_long; already ~1.0 @ wire_short"),
    layer("dist.lattice_fast_per_query", "count", Higher, "lattice_fast_path / queries from engine.stats() deltas -> throughput_qps @ engine_long"),
    layer("ml.forest_predict_us", "us", Lower, "median estimator.predict_masses_into on pair_features_view rows of returned paths -> throughput_qps @ engine_long, anytime_exact_share @ wire_anytime; no change @ wire_short"),
    layer("ml.classifier_us", "us", Lower, "median classifier.use_estimation_scratch on the same rows -> same as ml.forest_predict_us"),
    layer("core.cost.combine_us", "us", Lower, "median HybridCost::combine_pooled_traced per path step -> throughput_qps @ engine_long; no change @ wire_short"),
    layer("core.cost.path_fold_us", "us", Lower, "median whole-path fold of combine steps per returned path -> lat_p90_ms @ engine_long"),
    layer("core.cost.estimator_arm_share", "ratio", Lower, "share of combine steps with CombineOutcome.used_estimator; a count, explains the ml/dist split"),
    layer("core.routing.route_short_us", "us", Lower, "median warm engine.route over [0,1) km queries -> lat_p50_ms @ engine_cold_swap; moves wire_short < 5%"),
    layer("core.routing.route_mid_us", "us", Lower, "median warm engine.route over the fixed [1,5) km pool -> lat_p50_ms @ engine_long, throughput_qps and tails @ wire_anytime"),
    layer("core.routing.route_long_us", "us", Lower, "median warm engine.route over the fixed [5,10) km pool -> lat_p99_ms @ engine_long"),
    layer("core.routing.labels_created_per_query", "count", Lower, "RouteResult.stats over one replayed pass; repeats exactly without a deadline -> throughput_qps @ engine_long (a count, not a speed)"),
    layer("core.routing.labels_expanded_per_query", "count", Lower, "as labels_created_per_query"),
    layer("core.routing.pruned_bound_share", "ratio", Higher, "pruned_bound / labels_created over the replayed pass"),
    layer("core.routing.pruned_dominance_share", "ratio", Higher, "pruned_dominance / labels_created over the replayed pass"),
    layer("core.routing.pruned_infeasible_share", "ratio", Higher, "pruned_infeasible / labels_created over the replayed pass"),
    layer("core.routing.incomplete_share", "ratio", Lower, "share of replayed searches cut short by the deadline or the label cap -> anytime_exact_share @ wire_anytime"),
    layer("core.routing.bounds_hit_ratio", "ratio", Higher, "bounds_cache_hits / (hits + misses) from engine.stats() deltas over a pass with the workload's swap cadence -> throughput_qps @ engine_cold_swap; 1.0 @ engine_long"),
    layer("core.routing.swap_ms", "ms", Lower, "median wall time of engine.swap_model(model.clone()) -> throughput_qps @ engine_cold_swap; no change @ engine_long"),
    layer("core.routing.executor_speedup", "ratio", Higher, "sequential time / BatchExecutor(2 lanes, batches of 8) time over the same queries -> throughput_qps @ engine_long, wire_anytime; no change @ engine_cold_swap"),
    layer("core.routing.execute_batch_ms", "ms", Lower, "median BatchExecutor::execute of 8 queries"),
    layer("core.routing.executor_inline_share", "ratio", Lower, "inline_batches / batches from ExecutorStats"),
    layer("serve.http.parse_us", "us", Lower, "median http::parse_buffered on the exact request bytes -> throughput_qps, cpu_ms_per_query @ wire_short; no change @ engine workloads"),
    layer("serve.http.write_us", "us", Lower, "median http::write_response into a Vec -> same as serve.http.parse_us"),
    layer("serve.json.decode_us", "us", Lower, "median json::parse + query_from_json on the request body -> same"),
    layer("serve.json.encode_us", "us", Lower, "median route_result_to_json on the real results -> same"),
    layer("serve.json.response_bytes", "B", Lower, "mean encoded /route body size"),
    layer("serve.handlers.handle_us", "us", Lower, "median handlers::handle_request on a parsed Request, no socket -> lat_p50_ms @ wire workloads"),
    layer("serve.dispatch.push_pop_us", "us", Lower, "median DispatchQueue::try_push + pop_batch round trip -> throughput_qps @ wire_short"),
    layer("serve.batched.residual_us", "us", Lower, "wire paced p50 - serve.handlers.handle_us: socket, wake-up, queue wait, writeback -> lat_p50_ms, lat_p99_ms @ wire workloads"),
    layer("serve.batched.idle_cpu_share", "ratio", Lower, "process CPU / wall over a window with the connection open and no traffic -> cpu_ms_per_query @ wire_short"),
    layer("serve.batched.cpu_ms_per_query_saturated", "ms", Lower, "process CPU per answered request in the saturated phase -> throughput_qps @ wire_short"),
    layer("serve.batched.batch_size_mean", "count", Higher, "batch_size sum / count from Server::metrics() deltas over the saturated phase -> throughput_qps @ wire_anytime"),
    layer("serve.batched.pipelined_share", "ratio", Higher, "pipelined_total / requests_total deltas over the saturated phase"),
    layer("serve.batched.shed_total", "count", Lower, "shed_total delta over the saturated phase -> answered_share @ wire workloads"),
    layer("gen.late_p99_ms", "ms", Lower, "p99 of how late the open-loop sender ran against its schedule; validity of the run, not a target"),
    layer("gen.late_max_ms", "ms", Lower, "worst sender lateness; validity of the run"),
    layer("trace.overhead_share", "ratio", Lower, "(traced paced p50 - untraced paced p50) / untraced paced p50; validity of the traced run"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;
    use srt_serve::json::{self, Json};
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_bounds_are_well_formed() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        for s in &SPECS {
            assert!(valid_name(s.name) && seen.insert(s.name));
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    fn members<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} array"))
    }

    fn text<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} string"))
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints. They must not drift apart.
    #[test]
    fn benchmark_json_states_the_same_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(raw.len() <= 64 * 1024);
        let doc = json::parse(&raw).expect("BENCHMARK.json parses");

        let workloads = members(&doc, "workloads");
        assert_eq!(workloads.len(), SPECS.len());
        for (w, s) in workloads.iter().zip(&SPECS) {
            assert_eq!(text(w, "name"), s.name);
            assert_eq!(text(w, "why"), s.why);
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = members(&doc, key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(text(j, "name"), m.name);
                assert_eq!(text(j, "unit"), m.unit, "{}", m.name);
                assert_eq!(text(j, "better"), m.better.as_str(), "{}", m.name);
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
        let paths = members(&doc, "paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("srt_bench"));
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .expect("run_seconds");
        assert!((1..=60).contains(&seconds));
    }
}

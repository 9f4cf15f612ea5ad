//! E5/E6/A1 benches: probabilistic budget routing per distance category,
//! the anytime variants, the expected-time baseline, and the pruning
//! ablation. The distance-category groups regenerate the paper's
//! efficiency table rows (compare their mean times); the ablation group
//! regenerates the per-pruning cost the paper only alludes to.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use srt_bench::tiny_context;
use srt_core::routing::baseline::ExpectedTimeBaseline;
use srt_core::routing::{
    BatchExecutor, BoundMode, DominanceMode, EngineBuilder, Query, RouterConfig, RoutingEngine,
};
use srt_core::{CombinePolicy, HybridCost};
use srt_synth::{DistanceCategory, QueryGenerator};
use std::sync::Arc;
use std::time::Duration;

fn queries_for(cat: DistanceCategory, n: usize) -> Vec<Query> {
    let ctx = tiny_context();
    let mut qg = QueryGenerator::new(0xBE7C);
    qg.generate(&ctx.world.graph, &ctx.world.model, cat, n)
        .iter()
        .map(Query::from)
        .collect()
}

fn engine(cost: &HybridCost, cfg: RouterConfig) -> RoutingEngine {
    EngineBuilder::new(cost.clone()).config(cfg).build()
}

/// E6 — one bench per distance category (the efficiency table's rows).
fn bench_efficiency_table(c: &mut Criterion) {
    let ctx = tiny_context();
    let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
    let router = engine(&cost, RouterConfig::default());

    let mut g = c.benchmark_group("routing/e6_efficiency");
    g.sample_size(20);
    for cat in DistanceCategory::ALL {
        let queries = queries_for(cat, 5);
        if queries.is_empty() {
            continue; // tiny network does not span the longest category
        }
        g.bench_with_input(BenchmarkId::from_parameter(cat.label()), &queries, |b, qs| {
            b.iter(|| {
                for q in qs {
                    black_box(router.route(q).unwrap());
                }
            })
        });
    }
    g.finish();
}

/// E5 — the anytime variants (P∞ / P1 / P5 / P10 stand-ins).
fn bench_quality_anytime(c: &mut Criterion) {
    let ctx = tiny_context();
    let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
    let router = engine(&cost, RouterConfig::default());
    let queries = queries_for(DistanceCategory::OneToFive, 5);

    let mut g = c.benchmark_group("routing/e5_anytime");
    g.sample_size(20);
    let variants: [(&str, Option<Duration>); 4] = [
        ("p_inf", None),
        ("p1", Some(Duration::from_micros(100))),
        ("p5", Some(Duration::from_micros(500))),
        ("p10", Some(Duration::from_millis(2))),
    ];
    for (name, limit) in variants {
        g.bench_with_input(BenchmarkId::from_parameter(name), &queries, |b, qs| {
            b.iter(|| {
                for q in qs {
                    let q = Query { deadline: limit, ..*q };
                    black_box(router.route(&q).unwrap());
                }
            })
        });
    }
    g.finish();
}

/// A1 — per-pruning ablation cost.
fn bench_pruning_ablation(c: &mut Criterion) {
    let ctx = tiny_context();
    let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
    let queries = queries_for(DistanceCategory::OneToFive, 3);

    let full = RouterConfig::default();
    let variants: Vec<(&str, RouterConfig)> = vec![
        ("all_prunings", full),
        (
            "no_bound",
            RouterConfig {
                bound: BoundMode::Off,
                max_labels: 30_000,
                ..full
            },
        ),
        (
            "no_pivot",
            RouterConfig {
                use_pivot_init: false,
                ..full
            },
        ),
        (
            "no_shifting",
            RouterConfig {
                use_cost_shifting: false,
                ..full
            },
        ),
        (
            "no_dominance",
            RouterConfig {
                dominance: DominanceMode::Off,
                max_labels: 30_000,
                ..full
            },
        ),
    ];

    let mut g = c.benchmark_group("routing/a1_pruning_ablation");
    g.sample_size(10);
    for (name, cfg) in variants {
        let router = engine(&cost, cfg);
        g.bench_with_input(BenchmarkId::from_parameter(name), &queries, |b, qs| {
            b.iter(|| {
                for q in qs {
                    black_box(router.route(q).unwrap());
                }
            })
        });
    }
    g.finish();
}

/// The dominance-mode cost spectrum: off, the legacy heuristic, the
/// provably-exact convolution-gated mode, and the margin-calibrated mode
/// the default configuration runs with. Before timing, prints what each
/// mode pruned, how many pairwise comparisons it ran to do so, and how
/// many pairs the sound modes skipped on the Pareto entry alone because
/// the exchange-safety rule excludes them.
fn bench_dominance_modes(c: &mut Criterion) {
    let ctx = tiny_context();
    let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
    // [1,5) km: long enough that vertices collect Pareto sets at all (a
    // [0,1) km query on the tiny world creates ~2 labels).
    let queries = queries_for(DistanceCategory::OneToFive, 3);

    let modes: [(&str, DominanceMode); 4] = [
        ("off", DominanceMode::Off),
        ("first_order", DominanceMode::FirstOrder),
        ("conv_gated", DominanceMode::ConvGated),
        ("margin", DominanceMode::Margin { eps: None }),
    ];
    let mut g = c.benchmark_group("routing/dominance_modes");
    g.sample_size(10);
    for (name, mode) in modes {
        let router = engine(
            &cost,
            RouterConfig {
                dominance: mode,
                max_labels: 30_000,
                ..RouterConfig::default()
            },
        );
        let (mut labels, mut pruned, mut compared, mut skipped) = (0usize, 0usize, 0usize, 0usize);
        for q in &queries {
            let r = router.route(q).unwrap();
            labels += r.stats.labels_created;
            pruned += r.stats.pruned_dominance;
            compared += r.stats.dominance_comparisons;
            skipped += r.stats.dominance_skipped;
        }
        eprintln!(
            "routing/dominance_modes/{name}: {labels} labels created, {pruned} pruned by \
             dominance, {compared} comparisons run, {skipped} unsafe pairs skipped"
        );
        g.bench_with_input(BenchmarkId::from_parameter(name), &queries, |b, qs| {
            b.iter(|| {
                for q in qs {
                    black_box(router.route(q).unwrap());
                }
            })
        });
    }
    g.finish();
}

/// The bound-mode cost spectrum: off, the legacy optimistic heuristic
/// (unsound under the estimator arm), the certificate-only sound bound,
/// and the support-aware certified envelope the default configuration
/// runs with. Before timing, prints each mode's expansion counts so the
/// smoke run also reports *how much* every bound prunes — the sharpness
/// data behind the "envelope keeps >= 80% of optimistic's pruning"
/// acceptance gate (asserted in srt-eval's ablation tests).
fn bench_bound_modes(c: &mut Criterion) {
    let ctx = tiny_context();
    let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
    let queries = queries_for(DistanceCategory::ZeroToOne, 4);

    let modes: [(&str, BoundMode); 4] = [
        ("off", BoundMode::Off),
        ("optimistic", BoundMode::Optimistic),
        ("certified", BoundMode::Certified),
        ("certified_envelope", BoundMode::CertifiedEnvelope),
    ];
    let mut g = c.benchmark_group("routing/bound_modes");
    g.sample_size(10);
    for (name, bound) in modes {
        let router = engine(
            &cost,
            RouterConfig {
                bound,
                dominance: DominanceMode::Off,
                max_labels: 120_000,
                ..RouterConfig::default()
            },
        );
        let (mut labels, mut pruned) = (0usize, 0usize);
        for q in &queries {
            let r = router.route(q).unwrap();
            labels += r.stats.labels_created;
            pruned += r.stats.pruned_bound;
        }
        eprintln!(
            "routing/bound_modes/{name}: {labels} labels created, {pruned} pruned by the bound"
        );
        g.bench_with_input(BenchmarkId::from_parameter(name), &queries, |b, qs| {
            b.iter(|| {
                for q in qs {
                    black_box(router.route(q).unwrap());
                }
            })
        });
    }
    g.finish();
}

/// The engine-shaped serving surface: queries/sec for sequential batches
/// on a reused `SearchContext`, parallel batches on the worker pool,
/// pooled vs. fresh contexts, and the per-target bounds cache cold vs.
/// warm on a repeated-target workload. The cold/warm pair is the bench
/// behind the acceptance gate "the warm bounds cache makes
/// repeated-target batches measurably faster".
fn bench_engine_throughput(c: &mut Criterion) {
    let ctx = tiny_context();
    let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
    let batch = queries_for(DistanceCategory::ZeroToOne, 6);

    let mut g = c.benchmark_group("routing/engine_throughput");
    g.sample_size(10);

    // Engine, one lane: same search, warm bounds cache + reused scratch.
    let engine = Arc::new(engine(&cost, RouterConfig::default()));
    let one_lane = BatchExecutor::new(Arc::clone(&engine), 1);
    one_lane.execute(batch.clone()); // warm the cache outside the timing loop
    g.bench_with_input(BenchmarkId::from_parameter("batch_seq_warm"), &batch, |b, qs| {
        b.iter(|| black_box(one_lane.execute(qs.clone())))
    });

    // The pooled-vs-unpooled pair: identical search, identical warm
    // bounds cache — the only difference is whether label payloads come
    // from a warm histogram pool (shared context) or are minted afresh
    // (a brand-new context per call). The gap is the price of per-label
    // allocation.
    let mut shared_ctx = engine.new_context();
    g.bench_with_input(
        BenchmarkId::from_parameter("per_query_pooled"),
        &batch,
        |b, qs| {
            b.iter(|| {
                for q in qs {
                    black_box(engine.route_with(q, &mut shared_ctx).unwrap());
                }
            })
        },
    );
    g.bench_with_input(
        BenchmarkId::from_parameter("per_query_unpooled"),
        &batch,
        |b, qs| {
            b.iter(|| {
                for q in qs {
                    // A fresh context: cold arena, cold histogram pool.
                    let mut cold = engine.new_context();
                    black_box(engine.route_with(q, &mut cold).unwrap());
                }
            })
        },
    );

    // Engine, persistent lanes at the machine's parallelism.
    let all_lanes = BatchExecutor::new(Arc::clone(&engine), 0);
    g.bench_with_input(BenchmarkId::from_parameter("batch_par_warm"), &batch, |b, qs| {
        b.iter(|| black_box(all_lanes.execute(qs.clone())))
    });

    // Cold bounds cache: every iteration pays the reverse Dijkstra per
    // distinct target again. Compare against batch_seq_warm for the
    // cache's contribution.
    g.bench_with_input(BenchmarkId::from_parameter("batch_seq_cold"), &batch, |b, qs| {
        b.iter(|| {
            engine.clear_bounds_cache();
            black_box(one_lane.execute(qs.clone()))
        })
    });
    g.finish();

    let stats = engine.stats();
    eprintln!(
        "routing/engine_throughput: {} queries served, bounds cache {} hits / {} misses, \
         histogram pool {} reuses / {} mints",
        stats.queries,
        stats.bounds_cache_hits,
        stats.bounds_cache_misses,
        stats.pool_reuse,
        stats.pool_misses
    );
}

/// The deterministic baseline the quality table compares against.
fn bench_baseline(c: &mut Criterion) {
    let ctx = tiny_context();
    let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
    let queries = queries_for(DistanceCategory::OneToFive, 5);

    c.bench_function("routing/expected_time_baseline", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(ExpectedTimeBaseline::solve(
                    &cost, q.source, q.target, q.budget_s,
                ));
            }
        })
    });
}

/// Path-cost computation alone (the virtual-edge iteration).
fn bench_path_cost(c: &mut Criterion) {
    let ctx = tiny_context();
    let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
    let traj = ctx
        .world
        .trajectories
        .iter()
        .max_by_key(|t| t.edges.len())
        .expect("trajectories exist");

    let mut g = c.benchmark_group("routing/path_cost");
    for len in [2usize, 5, 10] {
        if traj.edges.len() < len {
            continue;
        }
        let edges = &traj.edges[..len];
        g.bench_with_input(BenchmarkId::from_parameter(len), &edges, |b, es| {
            b.iter(|| black_box(cost.path_distribution(es)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_efficiency_table,
    bench_quality_anytime,
    bench_pruning_ablation,
    bench_dominance_modes,
    bench_bound_modes,
    bench_engine_throughput,
    bench_baseline,
    bench_path_cost
);
criterion_main!(benches);

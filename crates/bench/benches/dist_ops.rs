//! Microbenchmarks of the distribution algebra — the inner loop of both
//! path-cost computation and routing-label maintenance.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use srt_dist::{
    convolve, convolve_bounded, convolve_bounded_into, dominance, kl_divergence, wasserstein1,
    Histogram, HistogramPool,
};

fn hist(bins: usize, seed: u64) -> Histogram {
    let probs: Vec<f64> = (0..bins)
        .map(|i| 1.0 + ((i as u64 * 2654435761 + seed) % 97) as f64)
        .collect();
    Histogram::new(30.0 + seed as f64, 5.0, probs).expect("valid")
}

fn bench_convolution(c: &mut Criterion) {
    let mut g = c.benchmark_group("dist/convolve");
    for bins in [5usize, 10, 20, 40] {
        let a = hist(bins, 1);
        let b = hist(bins, 2);
        g.bench_with_input(BenchmarkId::new("full", bins), &bins, |bch, _| {
            bch.iter(|| convolve(black_box(&a), black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("bounded", bins), &bins, |bch, _| {
            bch.iter(|| convolve_bounded(black_box(&a), black_box(&b), bins).unwrap())
        });
    }
    g.finish();
}

fn bench_rebin(c: &mut Criterion) {
    let mut g = c.benchmark_group("dist/rebin");
    let a = hist(64, 3);
    for target in [8usize, 16, 32] {
        g.bench_with_input(BenchmarkId::from_parameter(target), &target, |bch, &t| {
            bch.iter(|| black_box(&a).with_bins(t).unwrap())
        });
    }
    g.finish();
}

/// The in-place operator group: each `_into` operator against its
/// value-returning twin on the same inputs. The `_into` rows run on a
/// warm pool (buffers recycled every iteration), i.e. the routing
/// engine's steady-state shape; the value rows pay the per-call
/// allocation the pool eliminates.
fn bench_into_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("dist/into_ops");
    let mut pool = HistogramPool::new();
    for bins in [10usize, 20, 40] {
        let a = hist(bins, 11);
        let b = hist(bins, 12);
        let cap = bins; // the exact result (2*bins - 1) always re-bins
        g.bench_with_input(BenchmarkId::new("bounded_value", bins), &bins, |bch, _| {
            bch.iter(|| convolve_bounded(black_box(&a), black_box(&b), cap).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("bounded_into", bins), &bins, |bch, _| {
            bch.iter(|| {
                let mut out = pool.checkout();
                convolve_bounded_into(
                    &black_box(&a).view(),
                    &black_box(&b).view(),
                    cap,
                    &mut out,
                    &mut pool,
                )
                .unwrap();
                pool.checkin_buf(out);
            })
        });
        // The retained scalar reference (materialize-then-redistribute,
        // per-element branches): the fused kernel's speedup is this row
        // over `bounded_into`, measured on identical inputs.
        g.bench_with_input(BenchmarkId::new("bounded_into_ref", bins), &bins, |bch, _| {
            bch.iter(|| {
                let mut out = pool.checkout();
                srt_dist::reference::convolve_bounded_into_ref(
                    &black_box(&a).view(),
                    &black_box(&b).view(),
                    cap,
                    &mut out,
                    &mut pool,
                )
                .unwrap();
                pool.checkin_buf(out);
            })
        });
    }
    // The regime the label search actually runs: a 20-bucket label
    // absorbing a 20-bucket marginal whose support is `ratio` times
    // narrower, so the widths never match and the result always exceeds
    // the cap. `search_projected_ref` is the pipeline the closed-form
    // kernel replaced (project onto the finer lattice, multiply out,
    // re-bucket), on identical inputs.
    let label = hist(20, 14);
    for ratio in [2usize, 20, 40] {
        let marginal = Histogram::new(12.0, label.width() / ratio as f64, hist(20, 15).probs().to_vec())
            .expect("valid");
        g.bench_with_input(BenchmarkId::new("search_bounded_into", ratio), &ratio, |bch, _| {
            bch.iter(|| {
                let mut out = pool.checkout();
                convolve_bounded_into(
                    &black_box(&label).view(),
                    &black_box(&marginal).view(),
                    20,
                    &mut out,
                    &mut pool,
                )
                .unwrap();
                pool.checkin_buf(out);
            })
        });
        g.bench_with_input(BenchmarkId::new("search_projected_ref", ratio), &ratio, |bch, _| {
            bch.iter(|| {
                let mut out = pool.checkout();
                srt_dist::reference::convolve_bounded_projected_ref(
                    &black_box(&label).view(),
                    &black_box(&marginal).view(),
                    20,
                    &mut out,
                    &mut pool,
                )
                .unwrap();
                pool.checkin_buf(out);
            })
        });
    }
    let src = hist(64, 13);
    g.bench_function("rebin_value", |bch| {
        bch.iter(|| black_box(&src).with_bins(16).unwrap())
    });
    let mut masses = Vec::new();
    g.bench_function("rebin_into", |bch| {
        bch.iter(|| {
            let v = black_box(&src).view();
            v.rebin_into(v.start(), (v.end() - v.start()) / 16.0, 16, &mut masses)
                .unwrap();
            black_box(&masses);
        })
    });
    g.finish();
}

fn bench_divergences(c: &mut Criterion) {
    let mut g = c.benchmark_group("dist/divergence");
    let a = hist(20, 4);
    let b = hist(20, 5);
    g.bench_function("kl_aligned", |bch| {
        bch.iter(|| kl_divergence(black_box(&a), black_box(&b)))
    });
    let c2 = hist(33, 6);
    g.bench_function("kl_projected", |bch| {
        bch.iter(|| kl_divergence(black_box(&a), black_box(&c2)))
    });
    g.bench_function("wasserstein1", |bch| {
        bch.iter(|| wasserstein1(black_box(&a), black_box(&b)))
    });
    g.finish();
}

/// Dominance across bin counts: the incremental `CdfScanner` makes the
/// breakpoint sweep O(na + nb), so the larger rows are where the win
/// over the historical re-summing (O(na · nb)) shows — except where the
/// sweep stops early, whose cost should not grow with the bin count.
fn bench_dominance(c: &mut Criterion) {
    let mut g = c.benchmark_group("dist/dominance");
    for bins in [20usize, 80, 320] {
        let fast = hist(bins, 7);
        let slow = fast.shift(25.0);
        g.bench_with_input(BenchmarkId::new("dominant_pair", bins), &bins, |bch, _| {
            bch.iter(|| dominance::compare(black_box(&fast), black_box(&slow)))
        });
        let x = hist(bins, 8);
        let y = hist(bins, 9);
        g.bench_with_input(
            BenchmarkId::new("incomparable_pair", bins),
            &bins,
            |bch, _| bch.iter(|| dominance::compare(black_box(&x), black_box(&y))),
        );
        // The margin predicate's two regimes. `fast` leads `slow` by a
        // clear 25 s, so the forward question holds at every breakpoint
        // and the sweep merges both lattices to the end; the reverse
        // question is violated as soon as `fast` has any mass, and the
        // early-exit sweep returns there — the common case in the
        // router's Pareto scan, where most keepers do not dominate.
        for (name, a, oa, b, ob) in [
            ("margin_holds_to_end", &fast, 1.5, &slow, -1.5),
            ("margin_fails_at_first", &slow, -1.5, &fast, 1.5),
        ] {
            g.bench_with_input(BenchmarkId::new(name, bins), &bins, |bch, _| {
                bch.iter(|| {
                    dominance::dominates_with_margin_shifted_views(
                        &black_box(a).view(),
                        oa,
                        &black_box(b).view(),
                        ob,
                        0.05,
                    )
                })
            });
        }
    }
    g.finish();
}

fn bench_cdf(c: &mut Criterion) {
    let mut g = c.benchmark_group("dist/scans");
    let a = hist(20, 10);
    g.bench_function("cdf", |bch| {
        bch.iter(|| black_box(&a).cdf(black_box(55.0)))
    });
    g.bench_function("quantile", |bch| {
        bch.iter(|| black_box(&a).quantile(black_box(0.73)))
    });
    g.bench_function("moments", |bch| {
        bch.iter(|| {
            let h = black_box(&a);
            (h.mean(), h.variance())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_convolution,
    bench_rebin,
    bench_into_ops,
    bench_divergences,
    bench_dominance,
    bench_cdf
);
criterion_main!(benches);

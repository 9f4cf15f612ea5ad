//! Set-up: world, trained model, engine, server and the workload's
//! inputs, each step timed on its own so the traced run can say where
//! `setup_s` goes.

use crate::workloads::{Kind, Sizes};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use srt_core::routing::{EngineBuilder, Query, RoutingEngine};
use srt_core::{train_hybrid, CombinePolicy, HybridCost, HybridModel};
use srt_serve::{Server, ServerConfig};
use srt_synth::{DistanceCategory, QueryGenerator, SyntheticWorld};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the fixed `[1,5)` and `[5,10)` km query pools.
///
/// Search cost in those bands is heavy-tailed (the slowest of 64
/// queries costs 150 times the median), so any sample a run can afford
/// differs from the next seed's by tens of percent in total work —
/// more than every regression bound. The pools are therefore part of
/// the benchmark's definition, like the world; `--seed` decides the
/// order they are asked in and generates the (cheap, numerous)
/// `[0,1)` km queries outright.
pub const POOL_SEED: u64 = 0x5EED_2020_0420;

/// Wall time of each set-up step, seconds.
#[derive(Copy, Clone, Debug, Default)]
pub struct SetupTimes {
    pub world_build_s: f64,
    pub train_s: f64,
    pub engine_build_s: f64,
    pub server_start_s: f64,
    pub query_gen_s: f64,
}

impl SetupTimes {
    /// The `setup_s` end-to-end metric.
    pub fn total_s(&self) -> f64 {
        self.world_build_s
            + self.train_s
            + self.engine_build_s
            + self.server_start_s
            + self.query_gen_s
    }
}

/// What a workload asks, and in which order.
pub struct Inputs {
    /// The distinct queries (deadline included where the workload has one).
    pub queries: Vec<Query>,
    /// Distance band of each query.
    pub classes: Vec<DistanceCategory>,
    /// One pass over the workload: indices into `queries`.
    pub plan: Vec<u32>,
}

/// Everything a workload runs against.
pub struct Fixture {
    pub world: SyntheticWorld,
    pub model: HybridModel,
    pub engine: Arc<RoutingEngine>,
    /// Present on wire workloads and in every traced run.
    pub server: Option<Server>,
    pub inputs: Inputs,
    pub times: SetupTimes,
}

impl Fixture {
    /// Publishes a clone of the serving model as a new engine epoch —
    /// the write `engine_cold_swap` interleaves with its reads — and
    /// returns how long the swap took, in milliseconds.
    pub fn swap_model_ms(&self) -> f64 {
        let t = Instant::now();
        self.engine
            .swap_model(self.model.clone())
            .expect("a clone of the serving model is admitted");
        t.elapsed().as_secs_f64() * 1e3
    }
}

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *slot = t.elapsed().as_secs_f64();
    r
}

/// The server under test, sized for a two-core box: two lanes,
/// micro-batches of eight, no batch window, no idle reaping.
///
/// The dispatch queue holds 1024 requests, not the issue's 64: this
/// box stalls for 100-200 ms a few times an hour, and at 500 req/s a
/// 64-deep queue turns such a stall into a burst of `503`s. A
/// benchmark's workloads must be ones on which nothing fails; the
/// stall still shows, as latency.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        max_batch: 8,
        batch_window: Duration::ZERO,
        queue_capacity: 1024,
        idle_timeout: None,
        ..ServerConfig::default()
    }
}

/// Builds the whole fixture from nothing.
///
/// # Panics
/// Panics when training fails or the world cannot host the workload's
/// queries — both are defects of the benchmark's sizing, not outcomes
/// to measure.
pub fn set_up(kind: Kind, sizes: &Sizes, seed: u64, with_server: bool) -> Fixture {
    let mut times = SetupTimes::default();
    let world = timed(&mut times.world_build_s, || {
        SyntheticWorld::build(sizes.scale.world_config())
    });
    let (model, _report) = timed(&mut times.train_s, || {
        train_hybrid(&world, &sizes.scale.training_config()).expect("bundled scales train")
    });
    let engine = timed(&mut times.engine_build_s, || {
        let cost = HybridCost::from_ground_truth(&world, &model, CombinePolicy::Hybrid);
        Arc::new(EngineBuilder::new(cost).build())
    });
    let server = with_server.then(|| {
        timed(&mut times.server_start_s, || {
            Server::start(Arc::clone(&engine), "127.0.0.1:0", server_config())
                .expect("bind an ephemeral loopback port")
        })
    });
    let inputs = timed(&mut times.query_gen_s, || {
        generate_inputs(kind, sizes, &world, seed)
    });
    Fixture {
        world,
        model,
        engine,
        server,
        inputs,
        times,
    }
}

/// `count` queries of one band; the generator may fall short on a
/// world too small for the band.
pub fn generate(
    world: &SyntheticWorld,
    seed: u64,
    category: DistanceCategory,
    count: usize,
) -> Vec<Query> {
    QueryGenerator::new(seed)
        .generate(&world.graph, &world.model, category, count)
        .iter()
        .map(Query::from)
        .collect()
}

fn generate_inputs(kind: Kind, sizes: &Sizes, world: &SyntheticWorld, seed: u64) -> Inputs {
    use DistanceCategory::{FiveToTen, OneToFive, ZeroToOne};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let shorts = generate(world, seed, ZeroToOne, sizes.shorts);
    let mids = generate(world, POOL_SEED, OneToFive, sizes.mids);
    let longs = generate(world, POOL_SEED, FiveToTen, sizes.longs);
    assert_eq!(
        shorts.len(),
        sizes.shorts,
        "world too small for the [0,1) km queries"
    );
    assert_eq!(
        mids.len(),
        sizes.mids,
        "world too small for the [1,5) km pool"
    );

    let mut classes = vec![ZeroToOne; shorts.len()];
    classes.extend(std::iter::repeat_n(OneToFive, mids.len()));
    classes.extend(std::iter::repeat_n(FiveToTen, longs.len()));
    let n_short = shorts.len() as u32;
    let n_mid = mids.len() as u32;
    let total = n_short + n_mid + longs.len() as u32;
    let mut queries = shorts;
    queries.extend(mids);
    queries.extend(longs);
    if let Some(deadline) = sizes.deadline {
        for q in &mut queries {
            *q = q.with_deadline(deadline);
        }
    }

    let plan = match kind {
        // Blocks of ten: nine short requests and one [1,5) km request at
        // a seeded slot, each band walked in a seeded permutation, so a
        // pass asks every query exactly once and every seed offers the
        // same mix.
        Kind::WireAnytime => {
            assert_eq!(n_short, 9 * n_mid, "nine short requests per pool query");
            let mut short_order: Vec<u32> = (0..n_short).collect();
            let mut mid_order: Vec<u32> = (n_short..n_short + n_mid).collect();
            short_order.shuffle(&mut rng);
            mid_order.shuffle(&mut rng);
            let mut next_short = short_order.into_iter();
            let mut plan = Vec::with_capacity(10 * n_mid as usize);
            for mid in mid_order {
                let slot = rng.gen_range(0..10usize);
                for k in 0..10 {
                    plan.push(if k == slot {
                        mid
                    } else {
                        next_short.next().expect("nine shorts per block")
                    });
                }
            }
            plan
        }
        _ => {
            let mut plan: Vec<u32> = (0..total).collect();
            plan.shuffle(&mut rng);
            plan
        }
    };
    Inputs {
        queries,
        classes,
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{sizes, Kind};

    #[test]
    fn same_seed_same_inputs_and_anytime_blocks_are_balanced() {
        let s = sizes(Kind::WireAnytime, true);
        let world = SyntheticWorld::build(s.scale.world_config());
        let a = generate_inputs(Kind::WireAnytime, &s, &world, 7);
        let b = generate_inputs(Kind::WireAnytime, &s, &world, 7);
        let c = generate_inputs(Kind::WireAnytime, &s, &world, 8);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.queries, b.queries);
        assert_ne!(a.plan, c.plan, "another seed asks in another order");
        // The [1,5) km pool does not depend on the seed; the short queries do.
        assert_eq!(a.queries[s.shorts..], c.queries[s.shorts..]);
        assert_ne!(a.queries[..s.shorts], c.queries[..s.shorts]);

        assert_eq!(a.plan.len(), 10 * s.mids);
        let mut asked = a.plan.clone();
        asked.sort_unstable();
        assert_eq!(
            asked,
            (0..a.queries.len() as u32).collect::<Vec<_>>(),
            "each query once per pass"
        );
        for block in a.plan.chunks(10) {
            let mids = block
                .iter()
                .filter(|&&i| a.classes[i as usize] == DistanceCategory::OneToFive)
                .count();
            assert_eq!(mids, 1, "one pool query per block of ten");
        }
        assert!(a.queries.iter().all(|q| q.deadline == s.deadline));
    }
}

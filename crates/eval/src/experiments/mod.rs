//! One module per reproduced table/figure (see crate docs for the index).

pub mod ablation;
pub mod buckets;
pub mod dependence;
pub mod efficiency;
pub mod intro;
pub mod model_quality;
pub mod motivating;
pub mod policy;
pub mod quality;
pub mod training_size;

use srt_core::routing::{BatchExecutor, EngineBuilder, RouteResult, RouterConfig};
use srt_core::HybridCost;
use srt_synth::Query;
use std::sync::Arc;
use std::time::Duration;

/// Routes a query batch on a [`BatchExecutor`] over a fresh engine,
/// preserving input order. The engine resolves the configuration (and its
/// convolution certificate, when one is needed) once for the whole
/// batch; per-target optimistic bounds are cached inside it, so repeated
/// targets within a batch pay for one reverse Dijkstra.
pub(crate) fn route_queries(
    cost: &HybridCost,
    cfg: RouterConfig,
    queries: &[Query],
    deadline: Option<Duration>,
) -> Vec<RouteResult> {
    let engine = Arc::new(EngineBuilder::new(cost.clone()).config(cfg).build());
    let batch: Vec<srt_core::routing::Query> = queries
        .iter()
        .map(|q| {
            let q = srt_core::routing::Query::from(q);
            match deadline {
                Some(d) => q.with_deadline(d),
                None => q,
            }
        })
        .collect();
    BatchExecutor::new(engine, 0)
        .execute(batch)
        .into_iter()
        .map(|r| r.expect("experiment queries are valid"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_context, Scale};
    use srt_core::routing::SearchContext;
    use srt_core::CombinePolicy;
    use srt_synth::{DistanceCategory, QueryGenerator};

    #[test]
    fn parallel_routing_matches_serial() {
        let ctx = build_context(Scale::Tiny);
        let cost = HybridCost::from_ground_truth(&ctx.world, &ctx.model, CombinePolicy::Hybrid);
        let mut qg = QueryGenerator::new(3);
        let queries = qg.generate(
            &ctx.world.graph,
            &ctx.world.model,
            DistanceCategory::ZeroToOne,
            6,
        );
        let parallel = route_queries(&cost, RouterConfig::default(), &queries, None);
        let engine = EngineBuilder::new(cost.clone()).config(RouterConfig::default()).build();
        let mut ctx = SearchContext::new();
        for (q, r) in queries.iter().zip(&parallel) {
            let serial = engine
                .route_with(&srt_core::routing::Query::from(q), &mut ctx)
                .unwrap();
            // Batches are bitwise-identical to sequential routing.
            assert_eq!(serial.probability.to_bits(), r.probability.to_bits());
        }
    }
}

//! Budget-routing query workloads by distance category.
//!
//! The paper evaluates "queries in distance categories: [0, 1), [1, 5),
//! [5, 10) km". A query is `(source, destination, budget)`; budgets are
//! drawn as a multiplier of the expected travel time of the fastest
//! expected path, so on-time probabilities land in the interesting band
//! rather than saturating at 0 or 1.

use crate::congestion::CongestionModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srt_graph::algo::dijkstra_all;
use srt_graph::{EdgeId, NodeId, RoadGraph};

/// The paper's three query distance bands.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum DistanceCategory {
    /// `[0, 1)` km.
    ZeroToOne,
    /// `[1, 5)` km.
    OneToFive,
    /// `[5, 10)` km.
    FiveToTen,
}

impl DistanceCategory {
    /// All categories in the paper's order.
    pub const ALL: [DistanceCategory; 3] = [
        DistanceCategory::ZeroToOne,
        DistanceCategory::OneToFive,
        DistanceCategory::FiveToTen,
    ];

    /// Route-length bounds in metres `[lo, hi)`.
    fn range_m(self) -> (f64, f64) {
        match self {
            DistanceCategory::ZeroToOne => (0.0, 1_000.0),
            DistanceCategory::OneToFive => (1_000.0, 5_000.0),
            DistanceCategory::FiveToTen => (5_000.0, 10_000.0),
        }
    }

    /// Table label, e.g. `"[1, 5)"`.
    pub fn label(self) -> &'static str {
        match self {
            DistanceCategory::ZeroToOne => "[0, 1)",
            DistanceCategory::OneToFive => "[1, 5)",
            DistanceCategory::FiveToTen => "[5, 10)",
        }
    }
}

/// One probabilistic budget-routing query.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Query {
    /// Origin vertex.
    pub source: NodeId,
    /// Destination vertex.
    pub target: NodeId,
    /// Arrival budget in seconds.
    pub budget_s: f64,
    /// Distance band the query belongs to.
    pub category: DistanceCategory,
}

/// Workload generator. Budgets default to
/// `expected_fastest_time * U[0.9, 1.15]`.
#[derive(Clone, Debug)]
pub struct QueryGenerator {
    rng: StdRng,
    /// Budget multiplier range.
    pub budget_lo: f64,
    /// Budget multiplier range.
    pub budget_hi: f64,
}

impl QueryGenerator {
    /// A generator with the default budget band.
    pub fn new(seed: u64) -> Self {
        QueryGenerator {
            rng: StdRng::seed_from_u64(seed),
            budget_lo: 0.9,
            budget_hi: 1.15,
        }
    }

    /// Generates `count` queries whose fastest-expected-path length falls
    /// in `category`. Returns fewer if the network cannot host them (e.g.
    /// a [5,10) km query on a 3 km network).
    pub fn generate(
        &mut self,
        g: &RoadGraph,
        model: &CongestionModel,
        category: DistanceCategory,
        count: usize,
    ) -> Vec<Query> {
        let (lo, hi) = category.range_m();
        let weight = |e: EdgeId| model.expected_edge_time(g, e);
        let mut out = Vec::with_capacity(count);
        let mut attempts = 0usize;
        let max_attempts = count * 40 + 200;

        while out.len() < count && attempts < max_attempts {
            attempts += 1;
            let source = NodeId(self.rng.gen_range(0..g.num_nodes() as u32));
            let sp = dijkstra_all(g, source, weight);

            // Candidate targets whose tree path length lies in the band.
            let mut candidates = Vec::new();
            for v in g.node_ids() {
                if v == source || !sp.distance(v).is_finite() {
                    continue;
                }
                if let Some(path) = sp.extract_path(v) {
                    let len = g.path_length_m(&path.edges);
                    if len >= lo && len < hi {
                        candidates.push((v, sp.distance(v)));
                    }
                }
            }
            if candidates.is_empty() {
                continue;
            }
            // Take up to 8 targets per Dijkstra to amortize its cost.
            let take = candidates.len().min(8).min(count - out.len());
            for _ in 0..take {
                let (target, exp_time) = candidates[self.rng.gen_range(0..candidates.len())];
                let mult = self.rng.gen_range(self.budget_lo..self.budget_hi);
                out.push(Query {
                    source,
                    target,
                    budget_s: exp_time * mult,
                    category,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::{CongestionConfig, CongestionModel};
    use crate::network::{generate_network, NetworkConfig};

    fn world() -> (RoadGraph, CongestionModel) {
        let g = generate_network(&NetworkConfig {
            width: 16,
            height: 16,
            ..NetworkConfig::default()
        });
        let m = CongestionModel::new(&g, CongestionConfig::default());
        (g, m)
    }

    #[test]
    fn category_ranges_partition_ten_km() {
        // Contiguous half-open bands from 0 to 10 km, in order.
        let ranges = DistanceCategory::ALL.map(DistanceCategory::range_m);
        assert_eq!(ranges[0].0, 0.0);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        assert_eq!(ranges[2].1, 10_000.0);
        assert_eq!(DistanceCategory::OneToFive.range_m(), (1_000.0, 5_000.0));
        assert_eq!(DistanceCategory::OneToFive.label(), "[1, 5)");
    }

    #[test]
    fn generated_queries_fall_in_their_band() {
        let (g, m) = world();
        let mut qg = QueryGenerator::new(11);
        for cat in [DistanceCategory::ZeroToOne, DistanceCategory::OneToFive] {
            let queries = qg.generate(&g, &m, cat, 10);
            assert!(!queries.is_empty(), "no queries for {cat:?}");
            let (lo, hi) = cat.range_m();
            let weight = |e: EdgeId| m.expected_edge_time(&g, e);
            for q in &queries {
                let sp = srt_graph::algo::dijkstra(&g, q.source, Some(q.target), weight);
                let path = sp.extract_path(q.target).expect("routable");
                let len = g.path_length_m(&path.edges);
                assert!(len >= lo && len < hi, "length {len} outside {cat:?}");
                assert!(q.budget_s > 0.0);
            }
        }
    }

    #[test]
    fn budgets_bracket_the_expected_time() {
        let (g, m) = world();
        let mut qg = QueryGenerator::new(13);
        let queries = qg.generate(&g, &m, DistanceCategory::OneToFive, 15);
        let weight = |e: EdgeId| m.expected_edge_time(&g, e);
        for q in &queries {
            let exp =
                srt_graph::algo::dijkstra(&g, q.source, Some(q.target), weight).distance(q.target);
            assert!(q.budget_s >= exp * 0.9 - 1e-9);
            assert!(q.budget_s <= exp * 1.15 + 1e-9);
        }
    }

    #[test]
    fn impossible_category_returns_empty() {
        // 4x4 grid spans well under 5 km.
        let g = generate_network(&NetworkConfig {
            width: 4,
            height: 4,
            ..NetworkConfig::default()
        });
        let m = CongestionModel::new(&g, CongestionConfig::default());
        let mut qg = QueryGenerator::new(17);
        let queries = qg.generate(&g, &m, DistanceCategory::FiveToTen, 5);
        assert!(queries.is_empty());
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let (g, m) = world();
        let a = QueryGenerator::new(5).generate(&g, &m, DistanceCategory::OneToFive, 5);
        let b = QueryGenerator::new(5).generate(&g, &m, DistanceCategory::OneToFive, 5);
        assert_eq!(a, b);
    }
}

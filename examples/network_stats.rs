//! Inspect the synthetic road-network substrate: scale, hierarchy,
//! connectivity, and how it compares to the paper's Danish network
//! (667,950 vertices / 1,647,724 edges from OpenStreetMap).
//!
//! Prints, for three generator scales, the node/edge counts, the road
//! category mix, strong-connectivity coverage and a corner-to-corner
//! free-flow time — the knobs to check before scaling worlds up.
//!
//! ```sh
//! cargo run --release --example network_stats
//! ```

use stochastic_routing::graph::{algo, OptimisticBounds, RoadCategory};
use stochastic_routing::synth::{generate_network, NetworkConfig};

fn main() {
    println!("paper's network: 667,950 vertices / 1,647,724 edges (Denmark, OSM)");
    println!("synthetic stand-ins at three scales:\n");

    for (name, cfg) in [
        (
            "test",
            NetworkConfig {
                width: 8,
                height: 8,
                ..NetworkConfig::default()
            },
        ),
        ("default", NetworkConfig::default()),
        ("evaluation", NetworkConfig::default().with_span_km(11.5)),
    ] {
        let g = generate_network(&cfg);
        let mut by_cat = [0usize; 5];
        let mut total_km = 0.0;
        for e in g.edge_ids() {
            by_cat[g.attrs(e).category.as_index()] += 1;
            total_km += g.attrs(e).length_m / 1000.0;
        }
        let mean_out = g.num_edges() as f64 / g.num_nodes() as f64;

        println!(
            "[{name}] {} nodes / {} edges, span {:.1} km, road {:.0} km, mean degree {:.2}",
            g.num_nodes(),
            g.num_edges(),
            cfg.span_km(),
            total_km,
            mean_out
        );
        for cat in RoadCategory::ALL {
            let n = by_cat[cat.as_index()];
            println!(
                "    {:<12} {:>6} edges ({:>4.1}%), default {:.0} km/h",
                cat.to_string(),
                n,
                n as f64 / g.num_edges() as f64 * 100.0,
                cat.default_speed_kmh()
            );
        }

        // Connectivity sanity: everything reaches everything (largest SCC).
        let scc = algo::largest_scc(&g);
        let bounds = OptimisticBounds::freeflow(&g, stochastic_routing::graph::NodeId(0));
        println!(
            "    SCC covers {}/{} nodes; {} can reach node n0; corner-to-corner free-flow {:.0} s",
            scc.len(),
            g.num_nodes(),
            bounds.num_reachable(),
            bounds.remaining(stochastic_routing::graph::NodeId(
                (g.num_nodes() - 1) as u32
            ))
        );
        println!();
    }
}

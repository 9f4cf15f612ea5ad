//! CLI runner: reproduces every table/figure of the paper.
//!
//! ```text
//! run_experiments [--scale tiny|small|paper] [--only e1,e2,e3,e4,e5,e6,a1,a2,a3,a4]
//! ```
//!
//! Output is GitHub-flavoured Markdown, ready to paste into
//! EXPERIMENTS.md.

#![forbid(unsafe_code)]

use srt_eval::experiments::{
    ablation, buckets, dependence, efficiency, intro, model_quality, motivating, policy, quality,
    training_size,
};
use srt_eval::setup::{build_context, Scale};
use std::io::Write;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut only: Option<Vec<String>> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| {
                        eprintln!("unknown scale; use tiny|small|paper");
                        std::process::exit(2);
                    });
            }
            "--only" => {
                i += 1;
                only = args
                    .get(i)
                    .map(|s| s.split(',').map(|x| x.trim().to_lowercase()).collect());
            }
            "--help" | "-h" => {
                println!("usage: run_experiments [--scale tiny|small|paper] [--only e1,...,a4]");
                return;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let wants = |id: &str| only.as_ref().is_none_or(|o| o.iter().any(|x| x == id));
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    writeln!(
        out,
        "# Stochastic-routing experiment run (scale: {scale:?})\n"
    )
    .unwrap();

    // E1/E2 need no world.
    if wants("e1") {
        let (t, r) = intro::run();
        writeln!(out, "{t}").unwrap();
        writeln!(
            out,
            "Probabilistic routing picks {}, average-time routing picks {} — the paper's risk argument.\n",
            r.probabilistic_choice(),
            r.mean_choice()
        )
        .unwrap();
    }
    if wants("e2") {
        let (t, r) = motivating::run();
        writeln!(out, "{t}").unwrap();
        writeln!(
            out,
            "KL(truth ‖ convolution) = {:.3}, total variation = {:.3} — convolution is measurably wrong on dependent pairs.\n",
            r.kl, r.tv
        )
        .unwrap();
    }

    let needs_world = ["e3", "e4", "e5", "e6", "a1", "a2", "a3", "a4"]
        .iter()
        .any(|id| wants(id));
    if !needs_world {
        return;
    }

    eprintln!("building world + training hybrid model at {scale:?} scale...");
    let t0 = Instant::now();
    let ctx = build_context(scale);
    eprintln!(
        "world ready in {:.1?}: {} nodes / {} edges / {} trajectories",
        t0.elapsed(),
        ctx.world.graph.num_nodes(),
        ctx.world.graph.num_edges(),
        ctx.world.trajectories.len()
    );

    if wants("e3") {
        let (t, r) = model_quality::run(&ctx);
        writeln!(out, "{t}").unwrap();
        writeln!(out, "{}", model_quality::gate_table(&r)).unwrap();
    }
    if wants("e4") {
        let (t, _) = dependence::run(&ctx, 500);
        writeln!(out, "{t}").unwrap();
    }
    let qpc = ctx.scale.queries_per_category();
    if wants("e5") {
        let (t, _) = quality::run(&ctx, qpc);
        writeln!(out, "{t}").unwrap();
    }
    if wants("e6") {
        let (t, _) = efficiency::run(&ctx, qpc);
        writeln!(out, "{t}").unwrap();
    }
    if wants("a1") {
        let (t, _) = ablation::run(&ctx, qpc.min(20));
        writeln!(out, "{t}").unwrap();
        let (t, _, eps) = ablation::run_dominance_soundness(&ctx, qpc.min(20));
        writeln!(out, "{t}").unwrap();
        writeln!(out, "calibrated dominance margin eps = {eps:.6}\n").unwrap();
        let (t, rows) = ablation::run_bound_soundness(&ctx, qpc.min(20));
        writeln!(out, "{t}").unwrap();
        if let (Some(reference), Some(opt), Some(env)) = (
            rows.iter().find(|r| r.name.contains("reference")),
            rows.iter().find(|r| r.name.contains("optimistic")),
            rows.iter().find(|r| r.name.contains("envelope")),
        ) {
            let opt_saved = opt.saved_vs(reference);
            writeln!(
                out,
                "certified-envelope sharpness = {:.1}% of the optimistic bound's pruning (soundly)\n",
                if opt_saved > 0.0 { env.saved_vs(reference) / opt_saved * 100.0 } else { 100.0 }
            )
            .unwrap();
        }
    }
    if wants("a4") {
        let replays = match scale {
            Scale::Tiny => 400,
            Scale::Small => 1000,
            Scale::Paper => 2000,
        };
        let (t, _) = policy::run(&ctx, qpc.min(30), replays);
        writeln!(out, "{t}").unwrap();
    }
    if wants("a2") {
        let counts: &[usize] = match scale {
            Scale::Tiny => &[5, 10, 20],
            _ => &[5, 10, 20, 40],
        };
        let (t, _) = buckets::run(&ctx, counts);
        writeln!(out, "{t}").unwrap();
    }
    if wants("a3") {
        let sizes: &[usize] = match scale {
            Scale::Tiny => &[50, 100, 150],
            Scale::Small => &[100, 200, 400, 800],
            Scale::Paper => &[250, 500, 1000, 2000, 4000],
        };
        let (t, _) = training_size::run(&ctx, sizes);
        writeln!(out, "{t}").unwrap();
    }
}

//! Regenerates Fig. 5: for every scenario and every intended grouping
//! strategy G1/G2/G3 — average |poss(m, SK)|, average number of questions,
//! % of probes answered with a real example, and the average time to obtain
//! the example.
//!
//! Usage: `cargo run --release -p muse-bench --bin fig5_museg [-- --json] [--threads N]`
//! (`MUSE_SCALE`/`MUSE_SEED` adjust instance generation; the paper sizes
//! correspond to scale 1.0 — use e.g. `MUSE_SCALE=0.1` for a quick run;
//! `--json` also merges the results into `BENCH_baseline.json`;
//! `--threads N` or `MUSE_THREADS` runs the cells concurrently).

use muse_bench::{baseline, env_scale, env_seed, Fig5Req};
use muse_cliogen::GroupingStrategy;
use muse_obs::Metrics;
use muse_par::scope_map;

/// Fig. 5 paper values: (scenario, strategy) -> (avg questions, % real,
/// time to obtain Ie in seconds). Avg poss per scenario: 13.1/11/26.7/14.1.
const PAPER: [(&str, &str, f64, u32, f64); 12] = [
    ("Mondial", "G1", 2.6, 38, 0.014),
    ("Mondial", "G2", 8.5, 41, 0.187),
    ("Mondial", "G3", 2.9, 40, 0.015),
    ("DBLP", "G1", 1.5, 17, 0.450),
    ("DBLP", "G2", 11.0, 11, 0.337),
    ("DBLP", "G3", 1.5, 17, 0.454),
    ("TPCH", "G1", 1.5, 0, 0.785),
    ("TPCH", "G2", 17.0, 12, 0.893),
    ("TPCH", "G3", 1.5, 0, 0.782),
    ("Amalgam", "G1", 2.0, 29, 0.013),
    ("Amalgam", "G2", 3.0, 52, 0.043),
    ("Amalgam", "G3", 3.0, 52, 0.030),
];

fn main() {
    let scale = env_scale();
    let seed = env_seed();
    let threads = baseline::arg_threads();
    println!("Fig. 5 — Muse-G over all scenarios, scale factor {scale}, {threads} thread(s)");
    println!(
        "{:<9} {:<5} {:>9} | {:>7} {:>7} | {:>7} {:>7} | {:>10} {:>9}",
        "Scenario",
        "Strat",
        "avg poss",
        "avg #q",
        "(paper)",
        "% real",
        "(paper)",
        "avg t(Ie)",
        "(paper)"
    );
    let scenarios = muse_scenarios::all_scenarios();
    let work: Vec<(usize, GroupingStrategy)> = (0..scenarios.len())
        .flat_map(|si| {
            [
                GroupingStrategy::G1,
                GroupingStrategy::G2,
                GroupingStrategy::G3,
            ]
            .into_iter()
            .map(move |g| (si, g))
        })
        .collect();
    let cells = scope_map(work.len(), threads, &Metrics::disabled(), |i| {
        let (si, strategy) = work[i];
        Fig5Req::default().run(&scenarios[si], strategy, scale, seed)
    });
    for ((_, strategy), cell) in work.iter().zip(&cells) {
        {
            let paper = PAPER
                .iter()
                .find(|p| p.0 == cell.scenario && p.1 == strategy.to_string())
                .expect("known cell");
            println!(
                "{:<9} {:<5} {:>9.1} | {:>7.1} {:>7.1} | {:>6.0}% {:>6}% | {:>9.4}s {:>8.3}s",
                cell.scenario,
                strategy.to_string(),
                cell.avg_poss,
                cell.avg_questions,
                paper.2,
                cell.real_fraction * 100.0,
                paper.3,
                cell.avg_example_time.as_secs_f64(),
                paper.4,
            );
        }
    }
    println!();
    println!("Paper avg poss: Mondial 13.1, DBLP 11, TPCH 26.7, Amalgam 14.1.");
    println!("Shape checks: G1/G3 << poss when keys exist; G2 ~ poss; TPC-H finds");
    println!("(almost) no real examples; retrieval is sub-second.");
    if baseline::wants_json() {
        baseline::emit("fig5_museg", baseline::fig5_section(scale, seed, threads));
    }
}

//! Regenerates the Muse-D table of Sec. VI: per scenario with ambiguous
//! mappings — alternatives encoded, number of questions, example sizes, and
//! ambiguous values per target instance.
//!
//! Usage: `cargo run -p muse-bench --bin table_mused [-- --json] [--threads N]`
//! (`--json` also merges the results into `BENCH_baseline.json`;
//! `--threads N` or `MUSE_THREADS` runs the scenarios concurrently).

use muse_bench::{baseline, env_scale, env_seed, mused_row, range_str};
use muse_obs::Metrics;
use muse_par::scope_map;

/// Paper values: (scenario, alternatives, questions, Ie tuples, # values).
const PAPER: [(&str, usize, usize, &str, &str); 2] =
    [("Mondial", 208, 7, "3-4", "4-5"), ("TPCH", 16, 1, "9", "4")];

fn main() {
    let scale = env_scale();
    let seed = env_seed();
    let threads = baseline::arg_threads();
    println!("Muse-D table (Sec. VI), scale factor {scale}, {threads} thread(s)");
    println!(
        "{:<9} {:>6} {:>7} | {:>4} {:>6} | {:>9} {:>7} | {:>8} {:>7} | {:>6}",
        "Scenario",
        "#alts",
        "(paper)",
        "#q",
        "(ppr)",
        "Ie tuples",
        "(paper)",
        "#choices",
        "(paper)",
        "real"
    );
    let scenarios = muse_scenarios::all_scenarios();
    let rows = scope_map(scenarios.len(), threads, &Metrics::disabled(), |i| {
        mused_row(&scenarios[i], scale, seed, Metrics::disabled_ref())
    });
    for (scenario, row) in scenarios.iter().zip(rows) {
        let Some(row) = row else {
            println!(
                "{:<9} (no ambiguous mappings — as in the paper)",
                scenario.name
            );
            continue;
        };
        let paper = PAPER.iter().find(|p| p.0 == row.scenario);
        let (p_alts, p_q, p_tuples, p_vals) = paper
            .map(|p| {
                (
                    p.1.to_string(),
                    p.2.to_string(),
                    p.3.to_string(),
                    p.4.to_string(),
                )
            })
            .unwrap_or_default();
        println!(
            "{:<9} {:>6} {:>7} | {:>4} {:>6} | {:>9} {:>7} | {:>8} {:>7} | {:>4}/{}",
            row.scenario,
            row.alternatives_encoded,
            p_alts,
            row.questions,
            p_q,
            range_str(row.example_tuples),
            p_tuples,
            range_str(row.ambiguous_values),
            p_vals,
            row.real_examples,
            row.questions,
        );
    }
    println!();
    println!("(The paper reports real examples were found for all Muse-D questions.)");
    if baseline::wants_json() {
        baseline::emit("table_mused", baseline::mused_section(scale, seed, threads));
    }
}

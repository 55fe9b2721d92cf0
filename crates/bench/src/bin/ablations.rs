//! Ablations of Muse's design choices (our additions; DESIGN.md §index):
//!
//! 1. **Key-aware vs basic probing** — how many questions Thm. 3.2 saves
//!    (run Muse-G with and without the schemas' key constraints).
//! 2. **Real-example fallback vs synthetic-only** — how often the real
//!    instance actually supplies a differentiating example per scenario.
//! 3. **Choice lists vs full alternative enumeration** — the number of
//!    decisions Muse-D asks for vs the number of target instances Yan et
//!    al.'s approach would display.
//!
//! Usage: `cargo run --release -p muse-bench --bin ablations [-- --json] [--threads N]`
//! (use `MUSE_SCALE=0.1` for a quick run; `--json` also merges the results
//! into `BENCH_baseline.json`; `--threads N` or `MUSE_THREADS` runs the
//! scenarios concurrently).

use muse_bench::{ablation_avg_questions, baseline, env_scale, env_seed, mused_row, Fig5Req};
use muse_cliogen::GroupingStrategy;
use muse_mapping::ambiguity::or_groups;
use muse_obs::Metrics;
use muse_par::scope_map;

fn main() {
    let scale = env_scale();
    let seed = env_seed();
    let threads = baseline::arg_threads();

    println!("== Ablation 1: key-aware probing (Thm. 3.2) vs basic algorithm ==");
    println!("   (question counts are instance-independent; synthetic examples only)");
    println!(
        "{:<9} {:<5} | {:>12} {:>12} {:>9}",
        "Scenario", "Strat", "q (keys)", "q (no keys)", "saved"
    );
    for scenario in muse_scenarios::all_scenarios() {
        for strategy in [GroupingStrategy::G1, GroupingStrategy::G3] {
            let with_keys =
                ablation_avg_questions(&scenario, strategy, true, Metrics::disabled_ref());
            let without =
                ablation_avg_questions(&scenario, strategy, false, Metrics::disabled_ref());
            println!(
                "{:<9} {:<5} | {:>12.1} {:>12.1} {:>8.0}%",
                scenario.name,
                strategy.to_string(),
                with_keys,
                without,
                (1.0 - with_keys / without.max(0.001)) * 100.0
            );
        }
    }

    println!();
    println!("== Ablation 2: real-example availability per scenario (strategy G2) ==");
    let scenarios = muse_scenarios::all_scenarios();
    let cells = scope_map(scenarios.len(), threads, &Metrics::disabled(), |i| {
        Fig5Req::default().run(&scenarios[i], GroupingStrategy::G2, scale, seed)
    });
    for (scenario, cell) in scenarios.iter().zip(cells) {
        println!(
            "{:<9} {:>5.0}% of probes found a real differentiating example (avg {:.4}s)",
            scenario.name,
            cell.real_fraction * 100.0,
            cell.avg_example_time.as_secs_f64()
        );
    }

    println!();
    println!("== Ablation 3: Muse-D decisions vs Yan-et-al. target instances ==");
    for scenario in muse_scenarios::all_scenarios() {
        let ms = scenario.mappings().expect("mappings");
        let mut decisions = 0usize;
        let mut instances = 0usize;
        for m in ms.iter().filter(|m| m.is_ambiguous()) {
            decisions += or_groups(m).len();
            instances += muse_lint::ambiguity::alternatives_count(m);
        }
        if instances == 0 {
            continue;
        }
        let row =
            mused_row(&scenario, scale, seed, Metrics::disabled_ref()).expect("ambiguous rows");
        println!(
            "{:<9} {:>4} choice-list decisions vs {:>4} full target instances ({}x fewer); Ie {} tuples",
            scenario.name,
            decisions,
            instances,
            instances / decisions.max(1),
            muse_bench::range_str(row.example_tuples),
        );
    }

    if baseline::wants_json() {
        baseline::emit(
            "ablations",
            baseline::ablations_section(scale, seed, threads),
        );
    }
}

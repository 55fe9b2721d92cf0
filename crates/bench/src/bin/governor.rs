//! Execution-governor bench.
//!
//! Per scenario, chases the generated instance two ways:
//!
//! 1. **unlimited** — the reference run; must not truncate,
//! 2. **budgeted** — under a deliberately tight term cap, so every
//!    scenario exercises the truncation path and the `budget.*` counters.
//!
//! With `--json` the measurements are merged into `BENCH_baseline.json`
//! as the `governor` section: per-scenario truncation reasons and the
//! `budget.*` counters.
//!
//! Usage: `cargo run --release -p muse-bench --bin governor [-- --json]`
//! (`MUSE_SCALE`/`MUSE_SEED` adjust instance generation; `MUSE_FAULTS`
//! arms a fault plan for the whole run, like the CLI).

use std::time::Instant;

use muse_bench::{baseline, chase_ready_mappings, env_scale, env_seed};
use muse_chase::ChaseReq;
use muse_obs::{Budget, Json, Metrics};

/// Term cap for the budgeted run: small enough that every bench scenario
/// truncates at the default scale, large enough to do real work first.
const TIGHT_TERM_CAP: u64 = 200;

fn main() {
    if let Err(e) = muse_fault::arm_from_env() {
        eprintln!("MUSE_FAULTS: {e}");
        std::process::exit(2);
    }
    let scale = env_scale();
    let seed = env_seed();

    println!("Execution governor — scale {scale}, seed {seed}");
    println!(
        "{:<10} {:>12} {:>10} {:>12} {:>9}",
        "scenario", "full tuples", "truncated", "part tuples", "time"
    );

    let mut scenarios_json = Vec::new();
    for s in muse_scenarios::all_scenarios() {
        let source = s.instance(s.default_scale * scale * 0.25, seed);
        let mappings = chase_ready_mappings(&s);

        // 1. Unlimited reference run.
        let t0 = Instant::now();
        let full = ChaseReq::default()
            .run(&s.source_schema, &s.target_schema, &source, &mappings)
            .expect("unlimited chase");
        let full_s = t0.elapsed().as_secs_f64();
        assert!(full.is_complete(), "{}: unlimited run truncated", s.name);
        let full_tuples = full.value().total_tuples();

        // 2. Budgeted run under a tight term cap.
        let budget_metrics = Metrics::enabled();
        let budget = Budget::unlimited().with_max_terms(TIGHT_TERM_CAP);
        let outcome = ChaseReq {
            metrics: &budget_metrics,
            budget: &budget,
            ..ChaseReq::default()
        }
        .run(&s.source_schema, &s.target_schema, &source, &mappings)
        .expect("budgeted chase");
        let (partial, reason) = outcome.into_parts();
        partial
            .validate(&s.target_schema)
            .expect("truncated instance stays valid");
        let partial_tuples = partial.total_tuples();

        println!(
            "{:<10} {:>12} {:>10} {:>12} {:>8.3}s",
            s.name,
            full_tuples,
            reason.map(|r| r.metric_key()).unwrap_or("no"),
            partial_tuples,
            full_s
        );

        scenarios_json.push((
            s.name.to_string(),
            Json::obj(vec![
                ("full_tuples", Json::Int(full_tuples as i64)),
                ("full_chase_s", Json::Num(full_s)),
                ("term_cap", Json::Int(TIGHT_TERM_CAP as i64)),
                (
                    "truncation_reason",
                    match reason {
                        Some(r) => Json::Str(r.metric_key().to_string()),
                        None => Json::Null,
                    },
                ),
                ("partial_tuples", Json::Int(partial_tuples as i64)),
                ("budget_metrics", budget_metrics.snapshot().to_json()),
            ]),
        ));
    }

    if baseline::wants_json() {
        baseline::emit(
            "governor",
            Json::obj(vec![
                ("scale", Json::Num(scale)),
                ("seed", Json::Int(seed as i64)),
                ("tight_term_cap", Json::Int(TIGHT_TERM_CAP as i64)),
                ("scenarios", Json::Obj(scenarios_json)),
            ]),
        );
    }
}

//! Measures what the static planner buys: per scenario, the `query.steps`
//! the Muse-G wizard pass spends with and without plan-driven evaluation
//! (same answers, same transcripts — only the work counters move), plus the
//! chase's observed `chase.steps` against the termination pass's static
//! upper bound.
//!
//! Usage: `cargo run --release -p muse-bench --bin plan_bench [-- --json]
//! [--threads N] [--only <scenario>]` (`MUSE_SCALE`/`MUSE_SEED` as usual;
//! `--json` merges the `plan` section into `BENCH_baseline.json`).
//! Step counts are measured without the real-example deadline, so they
//! are deterministic.
//!
//! `MUSE_GATE=1` (run at `MUSE_SCALE=1.0`, seed 1) enforces the search's
//! headline win: the Mondial G1+G2+G3 pass spends ≥5x fewer query steps
//! than [`MONDIAL_BASE_STEPS`], the planned pass of the two-copy `QIe`
//! search that the binding tables replaced. With one table build per
//! mapping the planner's own payoff is 1.0–1.1x, so the gate no longer
//! compares the two passes here.

use muse_bench::{baseline, chase_ready_mappings, env_scale, env_seed, Fig5Req};
use muse_cliogen::GroupingStrategy;
use muse_obs::{Json, Metrics};
use muse_par::scope_map;

/// `query.steps` of the planned Mondial G1+G2+G3 pass at scale 1.0, seed 1,
/// under the two-copy `QIe` search (`BENCH_baseline.json`, `plan.Mondial`,
/// recorded before the binding tables).
const MONDIAL_BASE_STEPS: u64 = 5_729_488;

struct Row {
    scenario: String,
    legacy_steps: u64,
    planned_steps: u64,
    chase_steps: u64,
    static_bound: u64,
}

fn wizard_steps(s: &muse_scenarios::Scenario, scale: f64, seed: u64, planned: bool) -> u64 {
    let metrics = Metrics::enabled();
    let req = Fig5Req {
        metrics: &metrics,
        planned,
        exhaustive: true,
        delta: None,
    };
    for strategy in [
        GroupingStrategy::G1,
        GroupingStrategy::G2,
        GroupingStrategy::G3,
    ] {
        req.run(s, strategy, scale, seed);
    }
    metrics.snapshot().counter("query.steps")
}

fn measure(s: &muse_scenarios::Scenario, scale: f64, seed: u64) -> Row {
    // No wall-clock cap on the binding-table builds makes the step counts
    // deterministic — the default 750 ms cap would make them load-dependent.
    let t = std::time::Instant::now();
    let legacy_steps = wizard_steps(s, scale, seed, false);
    eprintln!(
        "  [{:>8.1}s] {}: legacy pass done ({legacy_steps} steps)",
        t.elapsed().as_secs_f64(),
        s.name
    );
    let planned_steps = wizard_steps(s, scale, seed, true);
    eprintln!(
        "  [{:>8.1}s] {}: planned pass done ({planned_steps} steps)",
        t.elapsed().as_secs_f64(),
        s.name
    );

    // The chase side: observed steps vs the termination pass's static bound.
    let inst = s.instance(s.default_scale * scale, seed);
    let mappings = chase_ready_mappings(s);
    let metrics = Metrics::enabled();
    let hints =
        muse_query::SelectivityHints::from_constraints(&s.source_schema, &s.source_constraints);
    muse_chase::ChaseReq {
        metrics: &metrics,
        hints: Some(&hints),
        ..Default::default()
    }
    .run(&s.source_schema, &s.target_schema, &inst, &mappings)
    .expect("chase");
    let chase_steps = metrics.snapshot().counter("chase.steps");
    let sizes = muse_lint::termination::path_sizes(&s.source_schema, &inst);
    let static_bound = muse_lint::termination::chase_step_bound(
        &s.source_schema,
        &s.source_constraints,
        &mappings,
        &sizes,
    );

    Row {
        scenario: s.name.clone(),
        legacy_steps,
        planned_steps,
        chase_steps,
        static_bound,
    }
}

fn main() {
    let scale = env_scale();
    let seed = env_seed();
    let threads = baseline::arg_threads();
    println!("Static planner payoff — scale factor {scale}, {threads} thread(s)");
    println!(
        "{:<9} {:>14} {:>14} {:>7} | {:>12} {:>14}",
        "Scenario", "steps(legacy)", "steps(plan)", "ratio", "chase.steps", "static bound"
    );
    let mut scenarios = muse_scenarios::all_scenarios();
    // `--only <name>` restricts the run to one scenario (timing/debugging;
    // MUSE_GATE needs the Mondial row, so don't combine them).
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--only") {
        let name = args.get(i + 1).expect("--only needs a scenario name");
        scenarios.retain(|s| &s.name == name);
        assert!(!scenarios.is_empty(), "--only {name}: no such scenario");
    }
    let rows = scope_map(scenarios.len(), threads, &Metrics::disabled(), |i| {
        measure(&scenarios[i], scale, seed)
    });
    let mut sections = Vec::new();
    for r in &rows {
        let ratio = r.legacy_steps as f64 / r.planned_steps.max(1) as f64;
        println!(
            "{:<9} {:>14} {:>14} {:>5.1}x  | {:>12} {:>14}",
            r.scenario, r.legacy_steps, r.planned_steps, ratio, r.chase_steps, r.static_bound
        );
        assert!(
            r.chase_steps <= r.static_bound,
            "{}: observed chase.steps {} exceeds the static bound {}",
            r.scenario,
            r.chase_steps,
            r.static_bound
        );
        sections.push((
            r.scenario.clone(),
            Json::obj(vec![
                ("query_steps_legacy", Json::Int(r.legacy_steps as i64)),
                ("query_steps_planned", Json::Int(r.planned_steps as i64)),
                ("speedup", Json::Num(ratio)),
                ("chase_steps_observed", Json::Int(r.chase_steps as i64)),
                ("chase_steps_bound", Json::Int(r.static_bound as i64)),
            ]),
        ));
    }
    if std::env::var("MUSE_GATE").is_ok() {
        let mondial = rows
            .iter()
            .find(|r| r.scenario == "Mondial")
            .expect("Mondial row");
        assert!(
            scale == 1.0 && seed == 1,
            "the gate's base was recorded at scale 1.0, seed 1 (got {scale}, {seed})"
        );
        assert!(
            mondial.planned_steps * 5 <= MONDIAL_BASE_STEPS,
            "search gate: the Mondial wizard pass must spend >=5x fewer query steps \
             than the two-copy search's {MONDIAL_BASE_STEPS} (planned {})",
            mondial.planned_steps
        );
        println!(
            "gate ok: Mondial {:.1}x >= 5x fewer query steps than the two-copy search",
            MONDIAL_BASE_STEPS as f64 / mondial.planned_steps.max(1) as f64
        );
    }
    if baseline::wants_json() {
        baseline::emit(
            "plan",
            Json::obj(vec![
                ("scale", Json::Num(scale)),
                ("seed", Json::Int(seed as i64)),
                ("threads", Json::Int(threads as i64)),
                ("scenarios", Json::Obj(sections)),
            ]),
        );
    }
}

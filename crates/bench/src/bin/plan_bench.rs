//! Measures what the static planner buys: per scenario, the `query.steps`
//! the Muse-G wizard pass spends with and without plan-driven evaluation
//! (same answers, same transcripts — only the work counters move), plus the
//! chase's observed `chase.steps` against the termination pass's static
//! upper bound.
//!
//! Usage: `cargo run --release -p muse-bench --bin plan_bench [-- --json]
//! [--threads N] [--only <scenario>]` (`MUSE_SCALE`/`MUSE_SEED` as usual;
//! `--json` merges the `plan` section into `BENCH_baseline.json`;
//! `MUSE_GATE=1` additionally enforces the planner's headline win — ≥5x
//! fewer wizard query steps on Mondial at the paper scale). Step counts
//! are measured exhaustively (real-example deadline disabled) so they are
//! deterministic; rows marked `~` (TPC-H, whose exhaustive legacy search
//! is combinatorial) fall back to the default deadline budget.

use muse_bench::{baseline, chase_ready_mappings, env_scale, env_seed, Fig5Req};
use muse_cliogen::GroupingStrategy;
use muse_obs::{Json, Metrics};
use muse_par::scope_map;

struct Row {
    scenario: String,
    legacy_steps: u64,
    planned_steps: u64,
    chase_steps: u64,
    static_bound: u64,
    /// Measured with the real-example deadline disabled (deterministic
    /// counts). False only where the exhaustive QIe search is intractable
    /// and the row runs under the default deadline instead.
    exhaustive: bool,
}

fn wizard_steps(
    s: &muse_scenarios::Scenario,
    scale: f64,
    seed: u64,
    planned: bool,
    exhaustive: bool,
) -> u64 {
    let metrics = Metrics::enabled();
    let req = Fig5Req {
        metrics: &metrics,
        planned,
        exhaustive,
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
    // Exhaustive real-example search (no wall-clock budget) makes the step
    // counts deterministic — the default 750 ms deadline truncates slow
    // searches, so counts under it depend on machine load. TPC-H is the
    // exception: its legacy QIe searches are combinatorial at the paper
    // scale (hours, in either eval mode — the limit-mode search keeps the
    // legacy binding order, so plans don't rescue it), and its row runs
    // under the default deadline instead, marked `~` in the table.
    let exhaustive = s.name != "TPCH";
    let t = std::time::Instant::now();
    let legacy_steps = wizard_steps(s, scale, seed, false, exhaustive);
    eprintln!(
        "  [{:>8.1}s] {}: legacy pass done ({legacy_steps} steps)",
        t.elapsed().as_secs_f64(),
        s.name
    );
    let planned_steps = wizard_steps(s, scale, seed, true, exhaustive);
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
        exhaustive,
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
    let mut any_approx = false;
    for r in &rows {
        let ratio = r.legacy_steps as f64 / r.planned_steps.max(1) as f64;
        any_approx |= !r.exhaustive;
        println!(
            "{:<9} {:>14} {:>14} {:>5.1}x{} | {:>12} {:>14}",
            r.scenario,
            r.legacy_steps,
            r.planned_steps,
            ratio,
            if r.exhaustive { " " } else { "~" },
            r.chase_steps,
            r.static_bound
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
                ("exhaustive", Json::Bool(r.exhaustive)),
            ]),
        ));
    }
    if any_approx {
        println!("(~ measured under the default real-example deadline; counts approximate)");
    }
    if std::env::var("MUSE_GATE").is_ok() {
        let mondial = rows
            .iter()
            .find(|r| r.scenario == "Mondial")
            .expect("Mondial row");
        assert!(mondial.exhaustive, "the gate row must be deterministic");
        assert!(
            mondial.planned_steps * 5 <= mondial.legacy_steps,
            "plan gate: Mondial wizard pass must spend >=5x fewer query steps \
             (legacy {}, planned {})",
            mondial.legacy_steps,
            mondial.planned_steps
        );
        println!(
            "gate ok: Mondial {:.1}x >= 5x",
            mondial.legacy_steps as f64 / mondial.planned_steps.max(1) as f64
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

//! The evaluation harness: everything needed to regenerate the paper's
//! Sec. VI tables (the scenario characteristics table, Fig. 5, and the
//! Muse-D table). The binaries in `src/bin/` print each table; this library
//! holds the measurement code so integration tests and criterion benches
//! can reuse it.
//!
//! Environment knobs for the binaries:
//! * `MUSE_SCALE` — instance scale factor (default 1.0 = the paper's sizes).
//! * `MUSE_SEED` — generator seed (default 1).
//!
//! Every binary also accepts `--json`: besides the human-readable table it
//! writes its machine-readable section (per-scenario results plus the
//! `query.*`/`chase.*`/`iso.*`/`wizard.*` counters and timings recorded
//! while producing them) into `BENCH_baseline.json` — see [`baseline`].

#![forbid(unsafe_code)]

use std::time::Duration;

use muse_cliogen::{desired_grouping, GroupingStrategy};
use muse_lint::ambiguity::alternatives_count;
use muse_mapping::ambiguity::or_groups;
use muse_mapping::Mapping;
use muse_obs::Metrics;
use muse_scenarios::Scenario;
use muse_wizard::{MuseD, MuseG, OracleDesigner};

pub mod baseline;

/// One row of the scenario characteristics table (Sec. VI).
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// Scenario name.
    pub name: String,
    /// Approximate instance size in MB at the chosen scale.
    pub instance_mb: f64,
    /// Number of nested target sets (sets with grouping functions).
    pub target_sets_with_grouping: usize,
    /// Number of generated mappings.
    pub mappings: usize,
    /// Number of ambiguous mappings.
    pub ambiguous: usize,
}

/// One scenario's characteristics row.
pub fn scenario_row(s: &Scenario, scale: f64, seed: u64) -> ScenarioRow {
    let inst = s.instance(s.default_scale * scale, seed);
    let ms = s.mappings().expect("scenario mappings generate");
    ScenarioRow {
        name: s.name.clone(),
        instance_mb: inst.approx_bytes() as f64 / 1_000_000.0,
        target_sets_with_grouping: s.target_sets_with_grouping(),
        mappings: ms.len(),
        ambiguous: ms.iter().filter(|m| m.is_ambiguous()).count(),
    }
}

/// Compute the scenario characteristics table.
pub fn scenario_table(scale: f64, seed: u64) -> Vec<ScenarioRow> {
    muse_scenarios::all_scenarios()
        .iter()
        .map(|s| scenario_row(s, scale, seed))
        .collect()
}

/// One row of Fig. 5: a (scenario, grouping strategy) cell.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Scenario name.
    pub scenario: String,
    /// Strategy the oracle designer had in mind.
    pub strategy: GroupingStrategy,
    /// Average `|poss(m, SK)|` over all designed grouping functions.
    pub avg_poss: f64,
    /// Average number of questions per grouping function.
    pub avg_questions: f64,
    /// Fraction of probes answered with a real example.
    pub real_fraction: f64,
    /// Average time to construct/retrieve one example.
    pub avg_example_time: Duration,
    /// Number of grouping functions designed.
    pub grouping_functions: usize,
}

/// The unambiguous mappings of a scenario: ambiguous ones are resolved to
/// their first interpretation (the designer's pick is irrelevant to the
/// Muse-G statistics).
pub fn unambiguous_mappings(scenario: &Scenario) -> Vec<Mapping> {
    scenario
        .mappings()
        .expect("scenario mappings generate")
        .iter()
        .map(|m| {
            if m.is_ambiguous() {
                let picks = vec![0usize; or_groups(m).len()];
                muse_mapping::ambiguity::select(m, &picks).expect("first interpretation")
            } else {
                m.clone()
            }
        })
        .collect()
}

/// Chase-ready mappings of a scenario: ambiguity resolved to the first
/// interpretation and missing groupings defaulted, so the chase accepts
/// them as-is.
pub fn chase_ready_mappings(scenario: &Scenario) -> Vec<Mapping> {
    let mut ms = unambiguous_mappings(scenario);
    for m in &mut ms {
        m.ensure_default_groupings(&scenario.target_schema, &scenario.source_schema)
            .expect("default groupings");
    }
    ms
}

/// Run Muse-G over every grouping function of every mapping of `scenario`,
/// with an oracle designer that has `strategy` in mind, drawing examples
/// from a generated instance. This regenerates one Fig. 5 row.
pub fn fig5_cell(
    scenario: &Scenario,
    strategy: GroupingStrategy,
    scale: f64,
    seed: u64,
) -> Fig5Row {
    fig5_cell_with(scenario, strategy, scale, seed, Metrics::disabled_ref())
}

/// [`fig5_cell`] with the wizard's `query.*`/`chase.*`/`wizard.*` counters
/// and timers recorded into `metrics`. Runs plan-driven (the default
/// everywhere: joins ordered and probed per the static plans derived from
/// the scenario's source constraints).
pub fn fig5_cell_with(
    scenario: &Scenario,
    strategy: GroupingStrategy,
    scale: f64,
    seed: u64,
    metrics: &Metrics,
) -> Fig5Row {
    fig5_cell_plan(scenario, strategy, scale, seed, metrics, true)
}

/// [`fig5_cell_with`] with the plan-driven evaluation path switchable:
/// `planned = false` runs the evaluator's own greedy order with
/// single-attribute probes (the pre-planner behavior) — the before/after
/// knob `plan_bench` measures with. Results are identical either way; only
/// the `query.*` work counters move.
pub fn fig5_cell_plan(
    scenario: &Scenario,
    strategy: GroupingStrategy,
    scale: f64,
    seed: u64,
    metrics: &Metrics,
    planned: bool,
) -> Fig5Row {
    fig5_cell_plan_budget(scenario, strategy, scale, seed, metrics, planned, false)
}

/// [`fig5_cell_plan`] with the wizard's wall-clock real-example budget
/// switchable off (`exhaustive = true`). The default 750 ms deadline makes
/// `query.steps` load-dependent — a slow machine truncates more searches
/// and counts fewer steps — so `plan_bench`'s legacy/planned comparison
/// runs exhaustive for deterministic counts.
#[allow(clippy::too_many_arguments)]
pub fn fig5_cell_plan_budget(
    scenario: &Scenario,
    strategy: GroupingStrategy,
    scale: f64,
    seed: u64,
    metrics: &Metrics,
    planned: bool,
    exhaustive: bool,
) -> Fig5Row {
    fig5_cell_delta(
        scenario, strategy, scale, seed, metrics, planned, exhaustive, None,
    )
}

/// [`fig5_cell_plan_budget`] with an optional incremental chase store:
/// probe chases rederive unchanged bindings from `delta`'s materialized
/// state instead of re-chasing from scratch. Rows (and every question
/// transcript) are identical either way; only `chase.steps` vs
/// `chase.rederived` move. Share one store across strategies to measure
/// the full cross-probe payoff (`delta_bench` does).
#[allow(clippy::too_many_arguments)]
pub fn fig5_cell_delta(
    scenario: &Scenario,
    strategy: GroupingStrategy,
    scale: f64,
    seed: u64,
    metrics: &Metrics,
    planned: bool,
    exhaustive: bool,
    delta: Option<&muse_chase::DeltaStore>,
) -> Fig5Row {
    let instance = scenario.instance(scenario.default_scale * scale, seed);
    let hints = muse_query::SelectivityHints::from_constraints(
        &scenario.source_schema,
        &scenario.source_constraints,
    );
    let mut museg = MuseG::new(
        &scenario.source_schema,
        &scenario.target_schema,
        &scenario.source_constraints,
    )
    .with_instance(&instance)
    .with_metrics(metrics);
    if planned {
        museg = museg.with_plan_hints(&hints);
    }
    if exhaustive {
        museg.real_example_budget = None;
    }
    if let Some(store) = delta {
        museg = museg.with_delta(store);
    }

    let mut total_poss = 0usize;
    let mut total_questions = 0usize;
    let mut real = 0usize;
    let mut synthetic = 0usize;
    let mut example_time = Duration::ZERO;
    let mut designed = 0usize;

    for mut m in unambiguous_mappings(scenario) {
        let filled = m
            .filled_target_sets(&scenario.target_schema)
            .expect("filled sets resolve");
        if filled.is_empty() {
            continue;
        }
        // The oracle has the strategy's grouping in mind for every set.
        let mut oracle = OracleDesigner::new(&scenario.source_schema, &scenario.target_schema);
        for sk in &filled {
            let desired = desired_grouping(
                &m,
                sk,
                strategy,
                &scenario.source_schema,
                &scenario.target_schema,
            )
            .expect("strategy grouping");
            oracle.intend_grouping(m.name.clone(), sk.clone(), desired);
        }
        let outcomes = museg
            .design_all_groupings(&mut m, &mut oracle)
            .unwrap_or_else(|e| panic!("{}/{}: {e}", scenario.name, m.name));
        for o in outcomes {
            total_poss += o.poss_size;
            total_questions += o.questions;
            real += o.real_examples;
            synthetic += o.synthetic_examples;
            example_time += o.example_time;
            designed += 1;
        }
    }

    let examples = (real + synthetic).max(1);
    Fig5Row {
        scenario: scenario.name.clone(),
        strategy,
        avg_poss: total_poss as f64 / designed.max(1) as f64,
        avg_questions: total_questions as f64 / designed.max(1) as f64,
        real_fraction: real as f64 / examples as f64,
        avg_example_time: example_time / examples as u32,
        grouping_functions: designed,
    }
}

/// One row of the Muse-D table (Sec. VI).
#[derive(Debug, Clone)]
pub struct MuseDRow {
    /// Scenario name.
    pub scenario: String,
    /// Total interpretations encoded by the ambiguous mappings.
    pub alternatives_encoded: usize,
    /// Number of questions (= number of ambiguous mappings).
    pub questions: usize,
    /// Min/max example size in tuples.
    pub example_tuples: (usize, usize),
    /// Min/max number of ambiguous values (choice lists) per question.
    pub ambiguous_values: (usize, usize),
    /// How many questions used a real example.
    pub real_examples: usize,
}

/// Run Muse-D over every ambiguous mapping of `scenario`. Regenerates one
/// row of the Sec. VI Muse-D table.
pub fn mused_row(scenario: &Scenario, scale: f64, seed: u64) -> Option<MuseDRow> {
    mused_row_with(scenario, scale, seed, Metrics::disabled_ref())
}

/// [`mused_row`] with the wizard's counters and timers recorded into
/// `metrics`.
pub fn mused_row_with(
    scenario: &Scenario,
    scale: f64,
    seed: u64,
    metrics: &Metrics,
) -> Option<MuseDRow> {
    let ms = scenario.mappings().expect("scenario mappings generate");
    let ambiguous: Vec<&Mapping> = ms.iter().filter(|m| m.is_ambiguous()).collect();
    if ambiguous.is_empty() {
        return None;
    }
    let instance = scenario.instance(scenario.default_scale * scale, seed);
    let hints = muse_query::SelectivityHints::from_constraints(
        &scenario.source_schema,
        &scenario.source_constraints,
    );
    let mused = MuseD::new(
        &scenario.source_schema,
        &scenario.target_schema,
        &scenario.source_constraints,
    )
    .with_instance(&instance)
    .with_metrics(metrics)
    .with_plan_hints(&hints);

    let mut row = MuseDRow {
        scenario: scenario.name.clone(),
        alternatives_encoded: 0,
        questions: 0,
        example_tuples: (usize::MAX, 0),
        ambiguous_values: (usize::MAX, 0),
        real_examples: 0,
    };
    for m in ambiguous {
        let q = mused
            .question(m)
            .unwrap_or_else(|e| panic!("{}/{}: {e}", scenario.name, m.name));
        row.alternatives_encoded += alternatives_count(m);
        row.questions += 1;
        let tuples = q.example.instance.total_tuples();
        row.example_tuples = (
            row.example_tuples.0.min(tuples),
            row.example_tuples.1.max(tuples),
        );
        let vals = q.choices.len();
        row.ambiguous_values = (
            row.ambiguous_values.0.min(vals),
            row.ambiguous_values.1.max(vals),
        );
        if q.example.real {
            row.real_examples += 1;
        }
    }
    Some(row)
}

/// Average questions per grouping function, with or without the schemas'
/// key/FD constraints (the latter is the basic Sec. III-A algorithm) — the
/// key-aware-probing ablation. No instance is attached: question counts do
/// not depend on it.
pub fn ablation_avg_questions(
    scenario: &Scenario,
    strategy: GroupingStrategy,
    with_keys: bool,
    metrics: &Metrics,
) -> f64 {
    let no_keys = muse_nr::Constraints {
        keys: vec![],
        fds: vec![],
        fks: scenario.source_constraints.fks.clone(),
    };
    let cons = if with_keys {
        &scenario.source_constraints
    } else {
        &no_keys
    };
    let museg =
        MuseG::new(&scenario.source_schema, &scenario.target_schema, cons).with_metrics(metrics);
    let mut total = 0usize;
    let mut designed = 0usize;
    for mut m in unambiguous_mappings(scenario) {
        let filled = m
            .filled_target_sets(&scenario.target_schema)
            .expect("filled");
        if filled.is_empty() {
            continue;
        }
        let mut oracle = OracleDesigner::new(&scenario.source_schema, &scenario.target_schema);
        for sk in &filled {
            let desired = desired_grouping(
                &m,
                sk,
                strategy,
                &scenario.source_schema,
                &scenario.target_schema,
            )
            .expect("strategy grouping");
            oracle.intend_grouping(m.name.clone(), sk.clone(), desired);
        }
        let outcomes = museg
            .design_all_groupings(&mut m, &mut oracle)
            .expect("design");
        for o in outcomes {
            total += o.questions;
            designed += 1;
        }
    }
    total as f64 / designed.max(1) as f64
}

/// Scale factor from `MUSE_SCALE` (default 1.0).
pub fn env_scale() -> f64 {
    std::env::var("MUSE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Seed from `MUSE_SEED` (default 1).
pub fn env_seed() -> u64 {
    std::env::var("MUSE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Render a range like `3-4`, or a single number when min == max.
pub fn range_str(r: (usize, usize)) -> String {
    if r.0 == r.1 {
        format!("{}", r.0)
    } else {
        format!("{}-{}", r.0, r.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_table_matches_paper_counts() {
        let rows = scenario_table(0.05, 1);
        let by_name: std::collections::BTreeMap<_, _> =
            rows.iter().map(|r| (r.name.as_str(), r)).collect();
        assert_eq!(by_name["Mondial"].mappings, 26);
        assert_eq!(by_name["Mondial"].ambiguous, 7);
        assert_eq!(by_name["DBLP"].mappings, 4);
        assert_eq!(by_name["DBLP"].ambiguous, 0);
        assert_eq!(by_name["TPCH"].mappings, 5);
        assert_eq!(by_name["TPCH"].ambiguous, 1);
        assert_eq!(by_name["Amalgam"].mappings, 14);
        assert_eq!(by_name["Amalgam"].ambiguous, 0);
    }

    #[test]
    fn mused_rows_match_paper_counts() {
        let scenarios = muse_scenarios::all_scenarios();
        let mondial = scenarios.iter().find(|s| s.name == "Mondial").unwrap();
        let row = mused_row(mondial, 0.05, 1).unwrap();
        assert_eq!(row.alternatives_encoded, 208);
        assert_eq!(row.questions, 7);
        assert!(row.example_tuples.0 >= 3 && row.example_tuples.1 <= 5);
        assert!(row.ambiguous_values.0 >= 4 && row.ambiguous_values.1 <= 5);

        let tpch = scenarios.iter().find(|s| s.name == "TPCH").unwrap();
        let row = mused_row(tpch, 0.02, 1).unwrap();
        assert_eq!(row.alternatives_encoded, 16);
        assert_eq!(row.questions, 1);

        let dblp = scenarios.iter().find(|s| s.name == "DBLP").unwrap();
        assert!(mused_row(dblp, 0.02, 1).is_none());
    }

    #[test]
    fn fig5_g1_uses_keys_to_cut_questions() {
        let scenarios = muse_scenarios::all_scenarios();
        let dblp = scenarios.iter().find(|s| s.name == "DBLP").unwrap();
        let cell = fig5_cell(dblp, GroupingStrategy::G1, 0.02, 1);
        // With single keys, G1 concludes after probing the key: far fewer
        // questions than |poss| (paper: 1.5 vs 11).
        assert!(
            cell.avg_questions < cell.avg_poss / 2.0,
            "questions {} vs poss {}",
            cell.avg_questions,
            cell.avg_poss
        );
        assert!(cell.avg_questions <= 3.0);
    }

    #[test]
    fn fig5_g2_probes_most_attributes() {
        let scenarios = muse_scenarios::all_scenarios();
        let dblp = scenarios.iter().find(|s| s.name == "DBLP").unwrap();
        let g1 = fig5_cell(dblp, GroupingStrategy::G1, 0.02, 1);
        let g2 = fig5_cell(dblp, GroupingStrategy::G2, 0.02, 1);
        // G2's grouping never contains the key, so many more questions.
        assert!(g2.avg_questions > g1.avg_questions * 2.0);
    }
}

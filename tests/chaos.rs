//! Chaos differential: the full pipeline under deterministic fault
//! injection must either produce exactly the fault-free result or degrade
//! cleanly (a truncated-but-valid result, or a typed error) — never panic
//! the process, never emit a corrupt instance.
//!
//! Plans come from fixed seeds plus one spec-based plan per scenario, and
//! CI additionally exports `MUSE_FAULTS` so the whole suite runs once with
//! a plan armed from the environment (`muse_fault::arm_from_env`).

use muse_fault::{arm_scoped, parse_spec, plan_from_seed, FaultPlan};
use muse_suite::chase::{fingerprint, ChaseReq};
use muse_suite::cliogen::{desired_grouping, GroupingStrategy};
use muse_suite::mapping::ambiguity::{or_groups, select_multi};
use muse_suite::scenarios::Scenario;
use muse_suite::wizard::{OracleDesigner, Session, WizardError};

struct PipelineResult {
    /// Final mappings in concrete syntax.
    mappings_text: String,
    /// Fingerprint of the chased target (of the complete or partial value).
    target_fp: u64,
    /// Graceful-degradation warnings the session collected.
    warnings: usize,
    /// Whether the final chase truncated.
    chase_truncated: bool,
}

/// One full wizard-plus-chase pipeline. Never panics: every failure mode is
/// a `WizardError` or a truncated `Outcome`.
fn run_pipeline(scenario: &Scenario, scale: f64) -> Result<PipelineResult, WizardError> {
    let instance = scenario.instance(scale, 11);
    let mappings = scenario.mappings().expect("scenario mappings generate");

    let mut oracle = OracleDesigner::new(&scenario.source_schema, &scenario.target_schema);
    let mut resolved = Vec::new();
    for m in &mappings {
        if m.is_ambiguous() {
            let picks = vec![vec![0usize]; or_groups(m).len()];
            oracle
                .intended_choices
                .insert(m.name.clone(), picks.clone());
            resolved.extend(select_multi(m, &picks).expect("selection"));
        } else {
            resolved.push(m.clone());
        }
    }
    for m in &resolved {
        for sk in m
            .filled_target_sets(&scenario.target_schema)
            .expect("filled sets")
        {
            let desired = desired_grouping(
                m,
                &sk,
                GroupingStrategy::G3,
                &scenario.source_schema,
                &scenario.target_schema,
            )
            .expect("strategy grouping");
            oracle.intend_grouping(m.name.clone(), sk, desired);
        }
    }

    let session = Session::new(
        &scenario.source_schema,
        &scenario.target_schema,
        &scenario.source_constraints,
    )
    .with_instance(&instance);
    let report = session.run(&mappings, &mut oracle)?;

    // The finished mappings must be valid no matter what was injected.
    for m in &report.mappings {
        m.validate(&scenario.source_schema, &scenario.target_schema)
            .unwrap_or_else(|e| panic!("{}/{}: invalid mapping: {e}", scenario.name, m.name));
    }

    let outcome = ChaseReq::default()
        .run(
            &scenario.source_schema,
            &scenario.target_schema,
            &instance,
            &report.mappings,
        )
        .map_err(WizardError::Chase)?;
    let chase_truncated = !outcome.is_complete();
    let target = outcome.into_value();
    // Complete or truncated, the produced instance must be valid.
    target
        .validate(&scenario.target_schema)
        .unwrap_or_else(|e| panic!("{}: corrupt chased instance: {e}", scenario.name));

    Ok(PipelineResult {
        mappings_text: muse_suite::mapping::printer::print_all(&report.mappings),
        target_fp: fingerprint(&target),
        warnings: report.warnings.len(),
        chase_truncated,
    })
}

fn scenario_scale(name: &str) -> f64 {
    match name {
        "Mondial" => 0.02,
        "DBLP" => 0.01,
        "TPCH" => 0.01,
        s if s.starts_with("Synth-") => 0.25,
        _ => 0.02,
    }
}

/// Run the matrix: every scenario under every plan — the four hand-built
/// scenarios plus a couple of fleet members, so injected faults also hit
/// generated shapes (or-groups, deep chains). Asserts the differential
/// contract against a fault-free baseline per scenario.
fn chaos_matrix(plans: &[(String, FaultPlan)]) {
    let mut scenarios = muse_suite::scenarios::all_scenarios();
    scenarios.extend(muse_suite::scenarios::synth::fleet(2, 40));
    for scenario in &scenarios {
        let scale = scenario_scale(&scenario.name);
        let baseline = run_pipeline(scenario, scale)
            .unwrap_or_else(|e| panic!("{}: fault-free pipeline failed: {e}", scenario.name));
        assert_eq!(baseline.warnings, 0, "{}: clean baseline", scenario.name);
        assert!(!baseline.chase_truncated);

        for (label, plan) in plans {
            let guard = arm_scoped(plan.clone());
            let result = run_pipeline(scenario, scale);
            let stats = muse_fault::stats().expect("armed");
            drop(guard);

            match result {
                Ok(r) => {
                    if r.warnings == 0 && !r.chase_truncated && stats.injected == 0 {
                        // Nothing fired (the plan targeted points this
                        // pipeline never hit): byte-identical results.
                        assert_eq!(
                            r.mappings_text, baseline.mappings_text,
                            "{}/{label}: identical mappings when no fault fired",
                            scenario.name
                        );
                        assert_eq!(
                            r.target_fp, baseline.target_fp,
                            "{}/{label}: identical target when no fault fired",
                            scenario.name
                        );
                    }
                    // Faults fired: validity was already asserted inside
                    // run_pipeline; truncated results need not match.
                }
                Err(e) => {
                    // A typed error is an accepted degradation; a panic
                    // would have aborted the test instead.
                    eprintln!("{}/{label}: clean error under faults: {e}", scenario.name);
                }
            }
        }
    }
}

/// Fault arming is process-global, so this binary holds a single test.
#[test]
fn seeded_fault_plans_degrade_cleanly() {
    let mut plans: Vec<(String, FaultPlan)> = vec![
        ("seed:7x3".into(), plan_from_seed(7, 3)),
        ("seed:1042x2".into(), plan_from_seed(1042, 2)),
        (
            "probe+binding".into(),
            parse_spec("wizard.probe:deadline@1;chase.binding:deadline@3").unwrap(),
        ),
        // Sticky storage faults: the offline pipeline owns no storage, so
        // none of these may ever fire — the run must stay byte-identical.
        // (The serve crate's own degraded-mode tests cover the firing side.)
        (
            "sticky-wal-io".into(),
            parse_spec(
                "serve.wal.append:iox*;serve.wal.fsync:iox*;serve.wal.compact:iox*;serve.wal.open:iox*",
            )
            .unwrap(),
        ),
    ];
    // CI exports MUSE_FAULTS so the matrix also covers an env-armed plan.
    if let Ok(spec) = std::env::var("MUSE_FAULTS") {
        if !spec.trim().is_empty() {
            plans.push((
                format!("env:{spec}"),
                parse_spec(&spec).expect("MUSE_FAULTS parses"),
            ));
        }
    }
    chaos_matrix(&plans);
}

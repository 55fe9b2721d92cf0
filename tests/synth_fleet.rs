//! The fleet harness: every seeded synthetic scenario must clear the same
//! bars the four hand-built scenarios clear, per scenario —
//!
//! 1. **lint**: zero errors, and clean under the plan (`MUSE-P`) and
//!    termination (`MUSE-T`) passes — synthetic scenarios are weakly
//!    acyclic and cartesian-free by construction, checked seed by seed;
//! 2. **differential**: the chase is independent of mapping order —
//!    chasing Σ and Σ reversed yields equal fingerprints and equal
//!    `chase.{mappings,bindings,steps,tuples_emitted,dedup_hits}`; and
//!    (seeds 0..64) plan-driven evaluation returns byte-identical rows to
//!    the reference evaluator for every mapping query;
//! 3. **wizard property**: a G1/G2/G3 oracle session terminates without
//!    error, stays within the `MUSE-A003` question bounds for every
//!    grouping it designs, and its final mappings chase to a valid target.
//!
//! The seed range is sharded across CI workers via `MUSE_FLEET_SEEDS=lo..hi`
//! (default `0..16`, so the tier-1 run stays fast); the CI `fleet` job's
//! shards sum to ≥1000 distinct seeds. `MUSE_FLEET_SCALE` scales the
//! generated instances (default 0.25).

use muse_obs::Metrics;
use muse_suite::chase::{chase, fingerprint, ChaseReq};
use muse_suite::cliogen::{desired_grouping, GroupingStrategy};
use muse_suite::lint::budget::question_budget;
use muse_suite::lint::{lint, LintInput};
use muse_suite::mapping::ambiguity::{self, or_groups, select_multi};
use muse_suite::mapping::Mapping;
use muse_suite::scenarios::synth::SynthCfg;
use muse_suite::scenarios::Scenario;
use muse_suite::wizard::{OracleDesigner, Session};

fn seed_range() -> std::ops::Range<u64> {
    let spec = std::env::var("MUSE_FLEET_SEEDS").unwrap_or_else(|_| "0..16".into());
    let (lo, hi) = spec
        .split_once("..")
        .unwrap_or_else(|| panic!("MUSE_FLEET_SEEDS={spec:?}: expected lo..hi"));
    let lo: u64 = lo.trim().parse().expect("MUSE_FLEET_SEEDS lower bound");
    let hi: u64 = hi.trim().parse().expect("MUSE_FLEET_SEEDS upper bound");
    assert!(lo < hi, "MUSE_FLEET_SEEDS={spec:?}: empty range");
    lo..hi
}

fn fleet_scale() -> f64 {
    std::env::var("MUSE_FLEET_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25)
}

/// The oracle designer's injective homomorphism search recurses once per
/// target tuple; give the whole fleet loop a roomy stack.
fn with_big_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(f)
        .expect("spawn big-stack thread")
        .join()
        .expect("fleet body panicked");
}

/// Chase-ready mappings: first interpretation of every or-group, default
/// groupings filled in.
fn ready_mappings(s: &Scenario) -> Vec<Mapping> {
    s.mappings()
        .expect("scenario mappings generate")
        .iter()
        .map(|m| {
            let mut m = if m.is_ambiguous() {
                let picks = vec![0usize; ambiguity::or_groups(m).len()];
                ambiguity::select(m, &picks).expect("first interpretation")
            } else {
                m.clone()
            };
            m.ensure_default_groupings(&s.target_schema, &s.source_schema)
                .expect("default groupings");
            m
        })
        .collect()
}

/// An oracle wanting `strategy` groupings and the first interpretation of
/// every or-group — the designer `muse scenario --strategy` simulates.
fn oracle_for<'a>(scenario: &'a Scenario, strategy: GroupingStrategy) -> OracleDesigner<'a> {
    let mappings = scenario.mappings().unwrap();
    let mut oracle = OracleDesigner::new(&scenario.source_schema, &scenario.target_schema);
    for m in &mappings {
        let resolved = if m.is_ambiguous() {
            let picks = vec![vec![0usize]; or_groups(m).len()];
            oracle
                .intended_choices
                .insert(m.name.clone(), picks.clone());
            select_multi(m, &picks).unwrap()
        } else {
            vec![m.clone()]
        };
        for sel in resolved {
            for sk in sel.filled_target_sets(&scenario.target_schema).unwrap() {
                let desired = desired_grouping(
                    &sel,
                    &sk,
                    strategy,
                    &scenario.source_schema,
                    &scenario.target_schema,
                )
                .unwrap();
                oracle.intend_grouping(sel.name.clone(), sk, desired);
            }
        }
    }
    oracle
}

fn check_lint(s: &Scenario) {
    let mappings = s.mappings().unwrap();
    let report = lint(&LintInput {
        source_schema: &s.source_schema,
        source_constraints: &s.source_constraints,
        target_schema: &s.target_schema,
        target_constraints: &s.target_constraints,
        mappings: &mappings,
    });
    assert!(
        report.is_clean(),
        "{}: lint errors\n{}",
        s.name,
        report.render()
    );
    // P/T-clean: the generator never emits cartesian products, dead joins,
    // or non-weakly-acyclic constraint graphs, so the plan and termination
    // passes must stay below warning severity on every seed.
    for d in &report.diagnostics {
        let plan_or_term = d.code.starts_with("MUSE-P") || d.code.starts_with("MUSE-T");
        assert!(
            !(plan_or_term && d.severity >= muse_suite::lint::Severity::Warning),
            "{}: plan/termination pass not clean\n{}",
            s.name,
            d.render()
        );
    }
}

/// Plan-driven evaluation must return byte-identical rows to the reference
/// evaluator — on every mapping query of the scenario, over the generated
/// instance. Every query must also plan: the evaluator silently runs a
/// query the planner rejects plan-less, which would turn this differential
/// into plan-less against plan-less.
fn check_plan_differential(s: &Scenario, scale: f64, seed: u64) {
    use muse_suite::query::{plan_query, EvalReq, SelectivityHints};
    let source = s.instance(scale, seed);
    let hints = SelectivityHints::from_constraints(&s.source_schema, &s.source_constraints);
    let planned = EvalReq {
        hints: Some(&hints),
        ..EvalReq::default()
    };
    for m in ready_mappings(s) {
        let q = m.source_query();
        let reference = EvalReq::default()
            .run(&s.source_schema, &source, &q)
            .unwrap_or_else(|e| panic!("{}/{}: reference eval: {e}", s.name, m.name))
            .into_value();
        plan_query(&s.source_schema, &q, Some(&hints))
            .unwrap_or_else(|e| panic!("{}/{}: plan: {e}", s.name, m.name));
        let rows = planned
            .run(&s.source_schema, &source, &q)
            .unwrap_or_else(|e| panic!("{}/{}: planned eval: {e}", s.name, m.name))
            .into_value();
        assert_eq!(
            reference, rows,
            "{}/{}: plan-driven rows differ from the reference evaluator",
            s.name, m.name
        );
    }
}

fn check_differential(s: &Scenario, scale: f64, seed: u64) {
    let source = s.instance(scale, seed);
    source
        .validate(&s.source_schema)
        .unwrap_or_else(|e| panic!("{}: invalid source instance: {e}", s.name));
    s.source_constraints
        .validate_instance(&s.source_schema, &source)
        .unwrap_or_else(|e| panic!("{}: source constraints violated: {e}", s.name));

    // The universal solution of Σ does not depend on the order Σ is
    // listed in. SetIDs and nulls are Skolem terms, so they survive a
    // reordering up to interning order, which `fingerprint` abstracts away
    // (the injective `isomorphic` search is far too slow on reversed pairs).
    let mappings = ready_mappings(s);
    let reversed: Vec<Mapping> = mappings.iter().rev().cloned().collect();
    let chase_counted = |sigma: &[Mapping]| {
        let metrics = Metrics::enabled();
        let req = ChaseReq {
            metrics: &metrics,
            ..ChaseReq::default()
        };
        let target = req
            .run(&s.source_schema, &s.target_schema, &source, sigma)
            .unwrap_or_else(|e| panic!("{}: chase: {e}", s.name))
            .into_value();
        (target, metrics.snapshot())
    };
    let (forward, fm) = chase_counted(&mappings);
    assert!(!forward.is_empty(), "{}: chased an empty instance", s.name);
    let (backward, bm) = chase_counted(&reversed);
    assert_eq!(
        fingerprint(&forward),
        fingerprint(&backward),
        "{}: chasing Σ reversed changed the solution",
        s.name
    );
    for key in [
        "chase.mappings",
        "chase.bindings",
        "chase.steps",
        "chase.tuples_emitted",
        "chase.dedup_hits",
    ] {
        assert_eq!(
            fm.counter(key),
            bm.counter(key),
            "{}: counter {key} depends on mapping order",
            s.name
        );
    }
}

fn check_wizard_property(s: &Scenario, scale: f64, seed: u64, strategy: GroupingStrategy) {
    let instance = s.instance(scale, seed);
    let mappings = s.mappings().unwrap();
    let mut oracle = oracle_for(s, strategy);
    let session = Session::new(&s.source_schema, &s.target_schema, &s.source_constraints)
        .with_instance(&instance);
    let out = session
        .run(&mappings, &mut oracle)
        .unwrap_or_else(|e| panic!("{} ({strategy:?}): wizard failed: {e}", s.name));
    assert!(
        out.warnings.is_empty(),
        "{}: unbudgeted session degraded: {:?}",
        s.name,
        out.warnings
    );

    for (mname, g) in &out.groupings {
        let m = out
            .mappings
            .iter()
            .find(|m| &m.name == mname)
            .unwrap_or_else(|| panic!("{}: no final mapping named {mname}", s.name));
        let budget = question_budget(m, &s.source_schema, &s.source_constraints)
            .unwrap_or_else(|e| panic!("{}/{mname}: budget failed: {e:?}", s.name));
        assert!(
            g.questions <= budget.upper,
            "{}/{}/{}: {} questions > predicted upper bound {}",
            s.name,
            mname,
            g.sk,
            g.questions,
            budget.upper
        );
        assert!(
            g.questions >= budget.lower.min(1),
            "{}/{}/{}: {} questions < predicted lower bound {}",
            s.name,
            mname,
            g.sk,
            g.questions,
            budget.lower
        );
    }

    let target = chase(&s.source_schema, &s.target_schema, &instance, &out.mappings)
        .unwrap_or_else(|e| panic!("{}: final chase failed: {e}", s.name));
    target
        .validate(&s.target_schema)
        .unwrap_or_else(|e| panic!("{}: corrupt chased target: {e}", s.name));
}

#[test]
fn fleet_passes_lint_differential_and_wizard_property() {
    let range = seed_range();
    let scale = fleet_scale();
    with_big_stack(move || {
        let strategies = [
            GroupingStrategy::G1,
            GroupingStrategy::G2,
            GroupingStrategy::G3,
        ];
        let mut checked = 0u64;
        for seed in range {
            let s = Scenario::synthetic(SynthCfg::from_seed(seed));
            check_lint(&s);
            check_differential(&s, scale, seed);
            if seed < 64 {
                check_plan_differential(&s, scale, seed);
            }
            check_wizard_property(&s, scale, seed, strategies[(seed % 3) as usize]);
            checked += 1;
        }
        eprintln!("fleet: {checked} scenarios passed lint + differential + wizard property");
    });
}

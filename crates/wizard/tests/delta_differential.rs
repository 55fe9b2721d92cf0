//! Incremental-vs-scratch differential over the full wizard session layer:
//! a stepped session routed through a [`muse_chase::DeltaStore`] must be
//! byte-invisible — after *every* designer answer, the re-stepped session
//! renders the identical next question, and the finished report prints the
//! identical mappings. Covers the four named scenarios and a shard of the
//! seeded synthetic fleet.

use muse_chase::DeltaStore;
use muse_nr::Instance;
use muse_scenarios::Scenario;
use muse_wizard::{Answer, JoinChoice, PendingQuestion, ScenarioChoice, Session, Step};

/// Drive a session one answer at a time, collecting the rendered question
/// after every answer plus the final mapping text. The policy alternates
/// grouping answers by question index so both probe scenarios get
/// exercised. `cap` bounds the number of answers given (each step replays
/// the whole prefix, so full sessions are quadratic); a capped run still
/// checks byte identity after every answer it gives.
fn drive(
    session: &Session,
    mappings: &[muse_mapping::Mapping],
    s: &Scenario,
    cap: usize,
) -> Vec<String> {
    let mut answers: Vec<Answer> = Vec::new();
    let mut transcript: Vec<String> = Vec::new();
    while answers.len() < cap {
        match session.step(mappings, &answers).unwrap() {
            Step::Ask { seq, question } => {
                assert_eq!(seq, answers.len());
                transcript.push(question.render(&s.source_schema, &s.target_schema));
                answers.push(match *question {
                    PendingQuestion::Grouping(_) => Answer::Scenario(if seq % 2 == 0 {
                        ScenarioChoice::First
                    } else {
                        ScenarioChoice::Second
                    }),
                    PendingQuestion::Disambiguation(q) => {
                        Answer::Choices(vec![vec![0]; q.choices.len()])
                    }
                    PendingQuestion::Join(_) => Answer::Join(JoinChoice::Inner),
                });
            }
            Step::Done(report) => {
                transcript.push(
                    report
                        .mappings
                        .iter()
                        .map(muse_mapping::printer::print)
                        .collect::<Vec<_>>()
                        .join("\n"),
                );
                return transcript;
            }
        }
    }
    transcript
}

/// Run the scratch and incremental sessions over `s` and assert the full
/// transcripts (every question render + the final report) are identical.
/// Returns the incremental run's metrics snapshot for engagement checks.
fn differential(s: &Scenario, instance: Option<&Instance>, cap: usize) -> muse_obs::Snapshot {
    let mappings = s.mappings().unwrap();
    let base = Session::new(&s.source_schema, &s.target_schema, &s.source_constraints)
        .with_real_example_budget(None);
    let mut scratch_session = base.clone();
    if let Some(inst) = instance {
        scratch_session = scratch_session.with_instance(inst);
    }
    let scratch = drive(&scratch_session, &mappings, s, cap);

    let store = DeltaStore::new();
    let metrics = muse_obs::Metrics::enabled();
    let mut delta_session = base.with_delta(&store).with_metrics(&metrics);
    if let Some(inst) = instance {
        delta_session = delta_session.with_instance(inst);
    }
    let incremental = drive(&delta_session, &mappings, s, cap);

    assert_eq!(
        scratch, incremental,
        "{}: incremental transcript diverged",
        s.name
    );
    let snap = metrics.snapshot();
    // Ineligible queries (e.g. DBLP's nested source variables) are counted
    // as fallbacks — still a consult, still byte-invisible.
    let consulted = snap.counter("chase.delta_hits")
        + snap.counter("chase.delta_misses")
        + snap.counter("chase.delta_fallbacks");
    assert!(
        consulted > 0,
        "{}: the delta store was never consulted",
        s.name
    );
    snap
}

#[test]
fn named_scenarios_step_identically_through_the_store() {
    let mut rederived = 0;
    for s in muse_scenarios::all_scenarios() {
        let inst = s.instance(s.default_scale * 0.02, 1);
        let snap = differential(&s, Some(&inst), 10);
        rederived += snap.counter("chase.rederived");
    }
    // The quadratic step replay re-chases every already-answered probe:
    // across the four scenarios the store must be rederiving, not just
    // falling back.
    assert!(rederived > 0, "no probe chase was ever rederived");
}

#[test]
fn fleet_scenarios_step_identically_through_the_store() {
    for s in muse_scenarios::synth::fleet(4, 100) {
        let inst = s.instance(s.default_scale * 0.5, 1);
        differential(&s, Some(&inst), usize::MAX);
    }
}

#[test]
fn instanceless_sessions_step_identically_through_the_store() {
    // Synthetic-example-only sessions (no real instance) take the same
    // probe path; the store must stay byte-invisible there too.
    for s in muse_scenarios::all_scenarios().into_iter().take(2) {
        differential(&s, None, 8);
    }
}

//! Resume differential for [`StepMemo`]: a stepped session that resumes
//! from the memo must be byte-invisible next to the same session replaying
//! its whole answer log on every step. After every answer both sides must
//! report the same `seq` and rendered question, the same finished report,
//! or the same error.
//!
//! The memo-less side is quadratic, so full-length sessions compare the
//! memo-backed stepper after every answer against the transcript of one
//! run-to-completion `Session::run` (the same design-unit loop, no
//! stepping at all) and against the memo-less stepper on a sample of
//! answers; shorter sessions and the adversarial logs compare against the
//! memo-less stepper after every answer.

use std::sync::{Mutex, MutexGuard};

use muse_cliogen::{desired_grouping, GroupingStrategy};
use muse_mapping::ambiguity::{or_groups, select_multi};
use muse_mapping::Mapping;
use muse_nr::Instance;
use muse_obs::Metrics;
use muse_scenarios::Scenario;
use muse_wizard::{
    Answer, Designer, DisambiguationQuestion, GroupingQuestion, JoinChoice, JoinQuestion,
    OracleDesigner, PendingQuestion, ProbeCache, ScenarioChoice, Session, SessionReport, Step,
    StepMemo, WizardError,
};

/// The strategy oracle of `muse scenario --strategy`: the first
/// interpretation of every ambiguity, inner joins, and the strategy's
/// grouping for every filled nested set.
fn oracle<'a>(s: &'a Scenario, mappings: &[Mapping], g: GroupingStrategy) -> OracleDesigner<'a> {
    let mut o = OracleDesigner::new(&s.source_schema, &s.target_schema);
    for m in mappings {
        let resolved = if m.is_ambiguous() {
            let picks = vec![vec![0usize]; or_groups(m).len()];
            o.intended_choices.insert(m.name.clone(), picks.clone());
            select_multi(m, &picks).unwrap()
        } else {
            vec![m.clone()]
        };
        for sel in resolved {
            for sk in sel.filled_target_sets(&s.target_schema).unwrap() {
                let z = desired_grouping(&sel, &sk, g, &s.source_schema, &s.target_schema).unwrap();
                o.intended_groupings.insert((sel.name.clone(), sk), z);
            }
        }
    }
    o
}

/// How the test answers: a strategy oracle, `serve_bench`'s scripted
/// designer (scenario 2, the first alternative of every choice list, inner
/// joins), or a fixed pattern by question index that takes both grouping
/// scenarios and both join choices (outer choices add companion mappings,
/// which Muse-G then designs too).
enum Policy<'a> {
    Oracle(OracleDesigner<'a>),
    Script,
    Pattern,
}

impl Policy<'_> {
    fn answer(&mut self, seq: usize, q: &PendingQuestion) -> Answer {
        match self {
            Policy::Oracle(o) => match q {
                PendingQuestion::Grouping(g) => Answer::Scenario(o.pick_scenario(g).unwrap()),
                PendingQuestion::Disambiguation(d) => Answer::Choices(o.fill_choices(d).unwrap()),
                PendingQuestion::Join(j) => Answer::Join(o.pick_join(j).unwrap()),
            },
            Policy::Script => match q {
                PendingQuestion::Grouping(_) => Answer::Scenario(ScenarioChoice::Second),
                PendingQuestion::Disambiguation(d) => {
                    Answer::Choices(vec![vec![0]; d.choices.len()])
                }
                PendingQuestion::Join(_) => Answer::Join(JoinChoice::Inner),
            },
            Policy::Pattern => match q {
                PendingQuestion::Grouping(_) => Answer::Scenario(if seq.is_multiple_of(2) {
                    ScenarioChoice::First
                } else {
                    ScenarioChoice::Second
                }),
                PendingQuestion::Disambiguation(d) => {
                    Answer::Choices(vec![vec![0]; d.choices.len()])
                }
                PendingQuestion::Join(_) => Answer::Join(if seq.is_multiple_of(3) {
                    JoinChoice::Outer
                } else {
                    JoinChoice::Inner
                }),
            },
        }
    }
}

/// Everything in a report except wall-clock example times.
fn report_text(r: &SessionReport) -> String {
    let mut out = muse_mapping::printer::print_all(&r.mappings);
    for d in &r.disambiguations {
        out.push_str(&format!(
            "D {} alts={} choices={} tuples={} real={} defaulted={} {:?}\n",
            d.selected.len(),
            d.alternatives_encoded,
            d.num_choices,
            d.example_tuples,
            d.real,
            d.defaulted,
            d.warnings
        ));
    }
    for (name, g) in &r.groupings {
        out.push_str(&format!(
            "G {name} {} {:?} poss={} q={} implied={} incons={} real={} synth={} \
             timeouts={} multikey={} truncated={} {:?}\n",
            g.sk,
            g.grouping,
            g.poss_size,
            g.questions,
            g.skipped_implied,
            g.skipped_inconsequential,
            g.real_examples,
            g.synthetic_examples,
            g.real_search_timeouts,
            g.multi_key_assumption,
            g.skipped_truncated,
            g.warnings
        ));
    }
    out.push_str(&format!(
        "joins={} companions={} total={} warnings={:?}\n",
        r.join_questions,
        r.companions_added,
        r.total_questions(),
        r.warnings
    ));
    out
}

/// The byte-comparable text of one step's outcome.
fn observe(s: &Scenario, step: &Result<Step, WizardError>) -> String {
    match step {
        Ok(Step::Ask { seq, question }) => ask_text(s, *seq, question),
        Ok(Step::Done(report)) => format!("done\n{}", report_text(report)),
        Err(e) => format!("error: {e}"),
    }
}

fn ask_text(s: &Scenario, seq: usize, q: &PendingQuestion) -> String {
    format!(
        "ask #{seq}\n{}",
        q.render(&s.source_schema, &s.target_schema)
    )
}

/// One scenario set-up: the inputs both sides of the differential share.
struct Bench<'a> {
    s: &'a Scenario,
    mappings: Vec<Mapping>,
    /// Shared by both sides: byte-invisible, and it keeps the memo-less
    /// replay to lookups.
    cache: ProbeCache,
    instance: Option<&'a Instance>,
    join_options: bool,
}

impl<'a> Bench<'a> {
    fn new(s: &'a Scenario, instance: Option<&'a Instance>, join_options: bool) -> Self {
        Bench {
            s,
            mappings: s.mappings().unwrap(),
            cache: ProbeCache::new(1 << 16),
            instance,
            join_options,
        }
    }

    /// The memo-less session (the reference).
    fn session(&self) -> Session<'_> {
        self.uncached().with_probe_cache(&self.cache, &self.s.name)
    }

    /// The memo-less session without the probe cache.
    fn uncached(&self) -> Session<'_> {
        let s = self.s;
        let mut session = Session::new(&s.source_schema, &s.target_schema, &s.source_constraints)
            .with_real_example_budget(None);
        if let Some(inst) = self.instance {
            session = session.with_instance(inst);
        }
        session.offer_join_options = self.join_options;
        session
    }

    fn step(&self, session: &Session, answers: &[Answer]) -> (String, Option<PendingQuestion>) {
        let step = session.step(&self.mappings, answers);
        let text = observe(self.s, &step);
        let question = match step {
            Ok(Step::Ask { question, .. }) => Some(*question),
            _ => None,
        };
        (text, question)
    }

    /// Step the memo-less and the memo-backed session over `answers` and
    /// assert identical outcomes.
    fn both(
        &self,
        memo: &StepMemo,
        metrics: &Metrics,
        answers: &[Answer],
    ) -> Option<PendingQuestion> {
        let (plain, question) = self.step(&self.session(), answers);
        let resumed = self.session().with_step_memo(memo).with_metrics(metrics);
        let (with_memo, _) = self.step(&resumed, answers);
        assert_eq!(
            plain,
            with_memo,
            "{}: resumed step diverged after {} answer(s)",
            self.s.name,
            answers.len()
        );
        question
    }

    /// Lockstep over a whole session (or its first `cap` answers): both
    /// sides after every answer. Returns the answers given.
    fn lockstep(&self, policy: &mut Policy, cap: usize) -> Vec<Answer> {
        let memo = StepMemo::new();
        let metrics = Metrics::enabled();
        let mut answers = Vec::new();
        while answers.len() < cap {
            let Some(q) = self.both(&memo, &metrics, &answers) else {
                break;
            };
            answers.push(policy.answer(answers.len(), &q));
        }
        let snap = metrics.snapshot();
        if answers.len() > 1 {
            assert!(
                snap.counter("wizard.step_resumes") > 0,
                "{}: the memo never resumed",
                self.s.name
            );
        }
        answers
    }

    /// The transcript of one run-to-completion session answered by
    /// `policy`: every question as a step reports it, then the report.
    fn record(&self, policy: Policy) -> Recorded {
        let mut recorder = Recorder {
            s: self.s,
            policy,
            transcript: Vec::new(),
            answers: Vec::new(),
        };
        let report = self.session().run(&self.mappings, &mut recorder).unwrap();
        let Recorder {
            mut transcript,
            answers,
            ..
        } = recorder;
        transcript.push(format!("done\n{}", report_text(&report)));
        Recorded {
            transcript,
            answers,
            largest_unit: largest_unit(&report),
        }
    }

    /// A full session: the memo-backed stepper after every answer against
    /// the recorded run, plus the memo-less stepper on `samples` evenly
    /// spaced answers. The resumed steps must replay at most one design
    /// unit per answer. Returns the run and the resumed side's metrics.
    fn full(&self, policy: Policy, samples: usize) -> (Recorded, muse_obs::Snapshot) {
        let run = self.record(policy);
        let Recorded {
            transcript,
            answers,
            ..
        } = &run;

        let memo = StepMemo::new();
        let metrics = Metrics::enabled();
        let resumed = self.session().with_step_memo(&memo).with_metrics(&metrics);
        for k in 0..=answers.len() {
            let (text, _) = self.step(&resumed, &answers[..k]);
            assert_eq!(
                text, transcript[k],
                "{}: resumed step diverged from the run after {k} answer(s)",
                self.s.name
            );
        }
        let stride = (answers.len() / samples.max(1)).max(1);
        for k in (0..=answers.len()).step_by(stride).chain([answers.len()]) {
            let (text, _) = self.step(&self.session(), &answers[..k]);
            assert_eq!(
                text, transcript[k],
                "{}: full replay diverged from the run after {k} answer(s)",
                self.s.name
            );
        }
        let snap = metrics.snapshot();
        if answers.len() > 1 {
            assert!(
                snap.counter("wizard.step_resumes") > 0,
                "{}: the memo never resumed",
                self.s.name
            );
        }
        let replayed = snap.counter("wizard.step_replayed");
        assert!(
            replayed <= (answers.len() * run.largest_unit) as u64,
            "{}: {replayed} answers replayed over {} steps, largest unit {}",
            self.s.name,
            answers.len(),
            run.largest_unit
        );
        (run, snap)
    }
}

/// A recorded run-to-completion session.
struct Recorded {
    /// `transcript[k]` is what a step over the first `k` answers reports.
    transcript: Vec<String>,
    answers: Vec<Answer>,
    /// The most questions one design unit asked.
    largest_unit: usize,
}

/// Records every question `Session::run` asks, rendered the way a step
/// reports it, and answers it with the policy.
struct Recorder<'a> {
    s: &'a Scenario,
    policy: Policy<'a>,
    transcript: Vec<String>,
    answers: Vec<Answer>,
}

impl Recorder<'_> {
    fn ask(&mut self, q: PendingQuestion) -> Answer {
        let seq = self.answers.len();
        self.transcript.push(ask_text(self.s, seq, &q));
        let a = self.policy.answer(seq, &q);
        self.answers.push(a.clone());
        a
    }
}

impl Designer for Recorder<'_> {
    fn pick_scenario(&mut self, q: &GroupingQuestion) -> Result<ScenarioChoice, WizardError> {
        match self.ask(PendingQuestion::Grouping(q.clone())) {
            Answer::Scenario(c) => Ok(c),
            other => panic!("policy answered a grouping probe with {other:?}"),
        }
    }

    fn fill_choices(&mut self, q: &DisambiguationQuestion) -> Result<Vec<Vec<usize>>, WizardError> {
        match self.ask(PendingQuestion::Disambiguation(q.clone())) {
            Answer::Choices(c) => Ok(c),
            other => panic!("policy answered a disambiguation with {other:?}"),
        }
    }

    fn pick_join(&mut self, q: &JoinQuestion) -> Result<JoinChoice, WizardError> {
        match self.ask(PendingQuestion::Join(q.clone())) {
            Answer::Join(c) => Ok(c),
            other => panic!("policy answered a join question with {other:?}"),
        }
    }
}

/// The largest number of questions one design unit asked: a Muse-G
/// grouping design, or 1 for a disambiguation or join question.
fn largest_unit(report: &SessionReport) -> usize {
    report
        .groupings
        .iter()
        .map(|(_, g)| g.questions)
        .max()
        .unwrap_or(0)
        .max(1)
}

/// Fault arming is process-global and the fault test arms a plan, so every
/// test here steps sessions under this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const STRATEGIES: [GroupingStrategy; 3] = [
    GroupingStrategy::G1,
    GroupingStrategy::G2,
    GroupingStrategy::G3,
];

fn scenario(name: &str) -> Scenario {
    muse_scenarios::all_scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap()
}

#[test]
fn named_scenarios_resume_identically_under_every_strategy() {
    let _serial = serial();
    for s in muse_scenarios::all_scenarios() {
        let inst = s.instance(s.default_scale * 0.02, 1);
        let bench = Bench::new(&s, Some(&inst), false);
        for g in STRATEGIES {
            bench.full(Policy::Oracle(oracle(&s, &bench.mappings, g)), 8);
        }
    }
}

#[test]
fn fleet_shard_resumes_identically_after_every_answer() {
    let _serial = serial();
    for s in muse_scenarios::synth::fleet(4, 100) {
        let inst = s.instance(s.default_scale * 0.5, 1);
        let bench = Bench::new(&s, Some(&inst), false);
        bench.lockstep(
            &mut Policy::Oracle(oracle(&s, &bench.mappings, GroupingStrategy::G2)),
            usize::MAX,
        );
        bench.lockstep(&mut Policy::Pattern, usize::MAX);
    }
}

#[test]
fn join_questions_and_companions_resume_identically() {
    let _serial = serial();
    let mut outer = 0;
    for name in ["DBLP", "TPCH"] {
        let s = scenario(name);
        let bench = Bench::new(&s, None, true);
        let answers = bench.lockstep(&mut Policy::Pattern, 60);
        outer += answers
            .iter()
            .filter(|a| **a == Answer::Join(JoinChoice::Outer))
            .count();
    }
    assert!(outer > 0, "no outer choice added a companion mapping");
}

#[test]
fn adversarial_logs_match_the_full_replay() {
    let _serial = serial();
    let s = scenario("DBLP");
    let inst = s.instance(s.default_scale * 0.02, 1);
    let bench = Bench::new(&s, Some(&inst), false);
    let g2 = bench.record(Policy::Oracle(oracle(
        &s,
        &bench.mappings,
        GroupingStrategy::G2,
    )));
    let g1 = bench.record(Policy::Oracle(oracle(
        &s,
        &bench.mappings,
        GroupingStrategy::G1,
    )));
    let answers = &g2.answers;
    let memo = StepMemo::new();
    let metrics = Metrics::enabled();
    let resumes = || metrics.snapshot().counter("wizard.step_resumes");
    let check = |log: &[Answer]| bench.both(&memo, &metrics, log);

    // Walk the log until the open question sits at least two answers into
    // a design unit that is not the first.
    let mut k = 0;
    loop {
        check(&answers[..k]);
        if memo.resume_point().is_some_and(|r| r > 0 && r + 2 <= k) {
            break;
        }
        k += 1;
        assert!(
            k < answers.len(),
            "no later design unit asks three questions"
        );
    }

    // An answer popped mid-unit (the WAL-append rollback) still resumes.
    let before = resumes();
    check(&answers[..k - 1]);
    assert_eq!(resumes(), before + 1, "a pop inside the unit must resume");
    check(&answers[..k]);

    // A kind-mismatch BadAnswer, then a valid answer: the rejected step
    // keeps the resume point, so the restore and the valid answer resume.
    let wrong = match answers[k] {
        Answer::Scenario(_) => Answer::Join(JoinChoice::Outer),
        _ => Answer::Scenario(ScenarioChoice::First),
    };
    let mut bad = answers[..k].to_vec();
    bad.push(wrong);
    check(&bad);
    let before = resumes();
    check(&answers[..k]);
    check(&answers[..k + 1]);
    assert_eq!(
        resumes(),
        before + 2,
        "steps after a rejected answer must resume"
    );

    // A log that diverges before the resume point replays in full, and so
    // does the original log after it.
    let r = memo.resume_point().unwrap();
    let j = (0..r)
        .rev()
        .find(|&j| matches!(answers[j], Answer::Scenario(_)))
        .expect("a grouping answer before the resume point");
    let mut forked = answers[..k + 1].to_vec();
    forked[j] = match forked[j] {
        Answer::Scenario(ScenarioChoice::First) => Answer::Scenario(ScenarioChoice::Second),
        _ => Answer::Scenario(ScenarioChoice::First),
    };
    let before = resumes();
    check(&forked);
    check(&answers[..k + 1]);
    assert_eq!(resumes(), before, "a divergent log must not resume");

    // One memo shared by two sessions' logs, stepped alternately.
    let other = &g1.answers;
    for i in 0..=answers.len().min(other.len()) {
        check(&answers[..i]);
        check(&other[..i]);
    }

    // Popping the answer that completed a unit crosses the resume point:
    // that step replays in full.
    let b = (1..answers.len())
        .find(|&i| {
            check(&answers[..i]);
            memo.resume_point() == Some(i)
        })
        .expect("a unit boundary");
    let before = resumes();
    check(&answers[..b - 1]);
    assert_eq!(resumes(), before, "a pop across the resume point resumed");
}

#[test]
fn memo_is_bypassed_under_faults_and_budgets() {
    let _serial = serial();
    let s = scenario("DBLP");
    let bench = Bench::new(&s, None, false);
    let run = bench.record(Policy::Pattern);
    let k = run.answers.len() / 2;
    let memo = StepMemo::new();
    let metrics = Metrics::enabled();
    let resumed = || bench.session().with_step_memo(&memo).with_metrics(&metrics);
    for i in 0..=k {
        let (text, _) = bench.step(&resumed(), &run.answers[..i]);
        assert_eq!(text, run.transcript[i]);
    }
    let point = memo.resume_point();
    assert!(point.is_some());
    let resumes = || metrics.snapshot().counter("wizard.step_resumes");
    let before = resumes();

    // An armed fault plan counts hits, so neither a resumed step nor a
    // probe-cache hit may stand in for recomputation: a resumed step would
    // see its faults fire elsewhere, and a cache hit skips the fault points
    // that recomputing its question passes (`chase.binding`). Both must
    // step aside: the warm-cache and the memo-backed session each match a
    // cache-less one. Each side gets a freshly armed copy of the plan.
    for spec in ["wizard.probe:deadline@2x3", "chase.binding:deadline@1"] {
        let plan = muse_fault::parse_spec(spec).unwrap();
        let under_plan = |session: Session| {
            let _armed = muse_fault::arm_scoped(plan.clone());
            bench.step(&session, &run.answers[..=k]).0
        };
        let uncached = under_plan(bench.uncached());
        assert_eq!(
            under_plan(bench.session()),
            uncached,
            "{spec}: a warm probe cache changed the faulted outcome"
        );
        assert_eq!(
            under_plan(resumed()),
            uncached,
            "{spec}: the memo changed the faulted outcome"
        );
        assert_ne!(
            uncached,
            run.transcript[k + 1],
            "{spec}: the plan must change the outcome"
        );
    }

    // So must a limited budget: the memo shares the probe memo's gate.
    let budget = muse_obs::Budget::unlimited().with_max_rows(1 << 20);
    let plain = bench
        .step(&bench.session().with_budget(&budget), &run.answers[..=k])
        .0;
    let with_memo = bench
        .step(&resumed().with_budget(&budget), &run.answers[..=k])
        .0;
    assert_eq!(plain, with_memo);

    // A warm binding-table holder steps aside too: a warm table skips the
    // `query.eval` fault point its build passes, so under a `query.eval`
    // plan a session whose holder an earlier step warmed must match a cold
    // one, whichever evaluation the plan hits. The warming step stops at
    // the first question, so the holder has the table a replay needs first.
    let inst = s.instance(s.default_scale * 0.05, 1);
    let real = Bench::new(&s, Some(&inst), false);
    let real_run = real.record(Policy::Pattern);
    let all = &real_run.answers[..];
    let warm = real.uncached();
    let (text, _) = real.step(&warm, &all[..1]);
    assert_eq!(text, real_run.transcript[1]);
    assert!(
        !warm.tables.is_empty(),
        "the fault-free step warms the holder"
    );
    let mut changed = false;
    for hit in [1, 2, 3, 5, 8, 13] {
        let spec = format!("query.eval:deadline@{hit}");
        let plan = muse_fault::parse_spec(&spec).unwrap();
        let under_plan = |session: &Session| {
            let _armed = muse_fault::arm_scoped(plan.clone());
            real.step(session, all).0
        };
        let cold = under_plan(&real.uncached());
        assert_eq!(
            under_plan(&warm),
            cold,
            "{spec}: a warm binding-table holder changed the faulted outcome"
        );
        changed |= Some(&cold) != real_run.transcript.last();
    }
    assert!(changed, "no query.eval plan changed the outcome");

    assert_eq!(resumes(), before, "the memo resumed outside its gate");
    assert_eq!(
        memo.resume_point(),
        point,
        "a bypassed step touched the memo"
    );
    // Back inside the gate it resumes as before.
    let (text, _) = bench.step(&resumed(), &run.answers[..=k]);
    assert_eq!(text, run.transcript[k + 1]);
    assert_eq!(resumes(), before + 1);
}

/// The acceptance bound on the session the serve-long benchmark drives:
/// Mondial at scale 0.05 answered by `serve_bench`'s scripted designer,
/// 787 answers. Memo-less steps re-consume Σk = 310,078 answers over it;
/// resumed steps at most one design unit per answer (checked in `full`).
#[test]
fn full_mondial_session_replays_at_most_one_unit_per_answer() {
    let _serial = serial();
    let s = scenario("Mondial");
    let inst = s.instance(s.default_scale * 0.05, 1);
    let bench = Bench::new(&s, Some(&inst), false);
    let (run, snap) = bench.full(Policy::Script, 4);
    let n = run.answers.len();
    assert_eq!(n, 787, "the serve-long session length");
    let replayed = snap.counter("wizard.step_replayed");
    assert!(replayed <= (787 * run.largest_unit) as u64);
    assert!(
        replayed * 20 < (n * (n + 1) / 2) as u64,
        "{replayed} answers replayed, full replay re-consumes {}",
        n * (n + 1) / 2
    );
}

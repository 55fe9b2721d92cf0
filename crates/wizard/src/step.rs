//! Stepwise, resumable session driving.
//!
//! [`Session::run`] is a run-to-completion callback loop: the wizard calls
//! the [`Designer`] and blocks until every question is answered. A network
//! service needs the opposite shape — suspend after each question, hand the
//! question to a remote client, and resume when (or *if*) the answer comes
//! back, possibly in a different process after a crash.
//!
//! [`Session::step`] provides that shape without forking the wizard logic:
//! it drives the session's design-unit loop against the ordered list of
//! answers given so far using an internal replay designer. When the wizard
//! asks question `k+1` after `k` recorded answers, the replay designer
//! captures the question and aborts the run with the
//! [`WizardError::Suspended`] sentinel, which `step` translates into
//! [`Step::Ask`]. Once the answer list covers every question the wizard
//! wants to ask, the run completes and `step` returns [`Step::Done`] with
//! the same [`SessionReport`] a scripted run-to-completion session would
//! have produced — byte for byte, because the wizard is deterministic in
//! its inputs.
//!
//! Without a memo every step replays the whole answer log, so a session of
//! `k` answers costs `k` replays of a growing prefix: quadratic, and
//! resuming from a write-ahead answer log after a crash is the exact same
//! code path as answering one more question. A [`StepMemo`] attached with
//! [`Session::with_step_memo`] cuts that to the current design unit: each
//! step hands the run state at its last unit boundary to the memo, and the
//! next step whose answers extend the consumed prefix starts from there.
//! Any other log — a popped or rejected answer, a divergent history, a log
//! from another session — falls back to the full replay, which stays the
//! restart path and the reference the resumed path is tested against.
//!
//! Determinism caveat: replay equality requires an exhaustive
//! real-example search (`Session::with_real_example_budget(None)`) — the
//! default wall-clock cap can time out on one run and not the next. The
//! memo is consulted only under that setting, an unlimited budget and no
//! armed fault plan.

use std::sync::{Mutex, MutexGuard};

use muse_mapping::Mapping;
use muse_nr::Schema;

use crate::designer::{Designer, JoinChoice, ScenarioChoice};
use crate::error::WizardError;
use crate::mused::joins::JoinQuestion;
use crate::mused::DisambiguationQuestion;
use crate::museg::GroupingQuestion;
use crate::session::{Progress, Session, SessionReport};

/// One recorded designer answer, in question order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Answer to a Muse-G grouping probe.
    Scenario(ScenarioChoice),
    /// Answer to a Muse-D disambiguation (one pick list per or-group).
    Choices(Vec<Vec<usize>>),
    /// Answer to an inner/outer join question.
    Join(JoinChoice),
}

impl Answer {
    /// The answer's wire-protocol kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Answer::Scenario(_) => "scenario",
            Answer::Choices(_) => "choices",
            Answer::Join(_) => "join",
        }
    }
}

/// The question a suspended session is waiting on.
///
/// Always handed out boxed (see [`Step::Ask`]), so the variant size spread
/// never lands on the stack.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum PendingQuestion {
    /// A Muse-G grouping probe (answer with [`Answer::Scenario`]).
    Grouping(GroupingQuestion),
    /// A Muse-D disambiguation (answer with [`Answer::Choices`]).
    Disambiguation(DisambiguationQuestion),
    /// An inner/outer join question (answer with [`Answer::Join`]).
    Join(JoinQuestion),
}

impl PendingQuestion {
    /// The question's wire-protocol kind tag — equal to the `kind()` of the
    /// [`Answer`] variant that answers it.
    pub fn kind(&self) -> &'static str {
        match self {
            PendingQuestion::Grouping(_) => "scenario",
            PendingQuestion::Disambiguation(_) => "choices",
            PendingQuestion::Join(_) => "join",
        }
    }

    /// Name of the mapping the question is about.
    pub fn mapping(&self) -> &str {
        match self {
            PendingQuestion::Grouping(q) => &q.mapping,
            PendingQuestion::Disambiguation(q) => &q.mapping,
            PendingQuestion::Join(q) => &q.mapping,
        }
    }

    /// The question rendered exactly as the interactive CLI shows it.
    pub fn render(&self, source_schema: &Schema, target_schema: &Schema) -> String {
        match self {
            PendingQuestion::Grouping(q) => q.render(source_schema, target_schema),
            PendingQuestion::Disambiguation(q) => q.render(source_schema, target_schema),
            PendingQuestion::Join(q) => q.render(source_schema, target_schema),
        }
    }
}

/// What [`Session::step`] produced.
#[derive(Debug, Clone)]
pub enum Step {
    /// The answers cover questions `0..seq`; question `seq` is open.
    Ask {
        /// Zero-based index of the question being asked — always equal to
        /// the number of answers consumed so far.
        seq: usize,
        /// The question itself.
        question: Box<PendingQuestion>,
    },
    /// Every question is answered; the session is complete.
    Done(Box<SessionReport>),
}

/// The replay designer: pops recorded answers in order and captures the
/// first unanswered question.
struct StepDesigner<'s> {
    answers: &'s [Answer],
    next: usize,
    pending: Option<PendingQuestion>,
}

impl StepDesigner<'_> {
    fn take<T>(
        &mut self,
        expected: &'static str,
        capture: impl FnOnce() -> PendingQuestion,
        accept: impl FnOnce(&Answer) -> Option<T>,
    ) -> Result<T, WizardError> {
        match self.answers.get(self.next) {
            None => {
                self.pending = Some(capture());
                Err(WizardError::Suspended)
            }
            Some(a) => match accept(a) {
                Some(v) => {
                    self.next += 1;
                    Ok(v)
                }
                None => Err(WizardError::BadAnswer(format!(
                    "answer #{} has kind `{}` but question #{} expects `{}` \
                     (the answer log does not match this session's question sequence)",
                    self.next,
                    a.kind(),
                    self.next,
                    expected
                ))),
            },
        }
    }
}

impl Designer for StepDesigner<'_> {
    fn pick_scenario(&mut self, q: &GroupingQuestion) -> Result<ScenarioChoice, WizardError> {
        self.take(
            "scenario",
            || PendingQuestion::Grouping(q.clone()),
            |a| match a {
                Answer::Scenario(c) => Some(*c),
                _ => None,
            },
        )
    }

    fn fill_choices(&mut self, q: &DisambiguationQuestion) -> Result<Vec<Vec<usize>>, WizardError> {
        self.take(
            "choices",
            || PendingQuestion::Disambiguation(q.clone()),
            |a| match a {
                Answer::Choices(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    fn pick_join(&mut self, q: &JoinQuestion) -> Result<JoinChoice, WizardError> {
        self.take(
            "join",
            || PendingQuestion::Join(q.clone()),
            |a| match a {
                Answer::Join(c) => Some(*c),
                _ => None,
            },
        )
    }
}

/// A resume point for [`Session::step`], attached with
/// [`Session::with_step_memo`].
///
/// Each step records the run state at the last design-unit boundary it
/// reached, together with the answers consumed to get there. The next step
/// whose answer log extends that prefix starts from the recorded state and
/// replays only the current unit's answers. The state moves from step to
/// step; it is never copied.
///
/// A memo belongs to one session context: the schemas, constraints,
/// instance and options of the [`Session`] it is attached to. A step with
/// different input mappings ignores it.
#[derive(Default)]
pub struct StepMemo {
    slot: Mutex<Option<Checkpoint>>,
}

impl std::fmt::Debug for StepMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepMemo")
            .field("resume_point", &self.resume_point())
            .finish()
    }
}

/// The run state at a unit boundary and how it was reached.
struct Checkpoint {
    /// The input mappings of the run.
    mappings: Vec<Mapping>,
    /// The answers consumed to reach `progress`, in order.
    answers: Vec<Answer>,
    progress: Progress,
}

impl StepMemo {
    /// An empty memo: the first step replays in full.
    pub fn new() -> Self {
        StepMemo::default()
    }

    /// Number of answers the recorded resume point covers; `None` when
    /// there is none.
    pub fn resume_point(&self) -> Option<usize> {
        self.lock().as_ref().map(|c| c.answers.len())
    }

    fn lock(&self) -> MutexGuard<'_, Option<Checkpoint>> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hand over the resume point when `answers` extends its prefix and it
    /// was recorded for `mappings`. Either way the memo is left empty: the
    /// step puts back the state it ends at.
    fn take_matching(&self, mappings: &[Mapping], answers: &[Answer]) -> Option<Checkpoint> {
        self.lock()
            .take()
            .filter(|c| answers.starts_with(&c.answers) && c.mappings == mappings)
    }

    fn put(&self, checkpoint: Checkpoint) {
        *self.lock() = Some(checkpoint);
    }
}

impl Session<'_> {
    /// Advance the session as far as `answers` carries it: drive the
    /// wizard against the recorded answers and either surface the first
    /// unanswered question ([`Step::Ask`]) or the finished report
    /// ([`Step::Done`]). With a [`StepMemo`] attached, the run starts from
    /// the memo's resume point when `answers` extends it.
    ///
    /// Counts `wizard.step_resumes` (steps started from the memo) and
    /// `wizard.step_replayed` (answers consumed on the way to the open
    /// question or the end).
    ///
    /// Errors: [`WizardError::BadAnswer`] when an answer's kind does not
    /// match its question or when answers remain after the session
    /// completed (both indicate a corrupt or mismatched answer log);
    /// otherwise whatever the underlying wizard run raises.
    pub fn step(&self, mappings: &[Mapping], answers: &[Answer]) -> Result<Step, WizardError> {
        // Resume only where the run is a pure function of its answers. A
        // deadline spans the whole step and an armed fault plan counts
        // hits, so a resumed step would truncate elsewhere; the memo takes
        // the ProbeCache's gate, count caps included.
        let memo = self
            .step_memo
            .filter(|_| crate::cache::replay_safe(self.budget, self.real_example_budget));
        let resumed = memo.and_then(|memo| memo.take_matching(mappings, answers));
        let (mut progress, mut consumed, inputs) = match resumed {
            Some(c) => {
                self.metrics.incr("wizard.step_resumes");
                (c.progress, c.answers, Some(c.mappings))
            }
            None => (Progress::default(), Vec::new(), None),
        };
        let start = consumed.len();
        let hints = self.hints();
        let wizards = self.wizards(&hints);
        let mut replay = StepDesigner {
            answers,
            next: start,
            pending: None,
        };
        // Answers consumed when the current unit started.
        let mut boundary = start;
        let ended = loop {
            match self.run_unit(&wizards, &mut progress, mappings, &mut replay) {
                Ok(true) => boundary = replay.next,
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        self.metrics
            .add("wizard.step_replayed", (replay.next - start) as u64);
        let stopped = match ended {
            Ok(()) if replay.next < answers.len() => WizardError::BadAnswer(format!(
                "session completed after {} answer(s) but {} were recorded",
                replay.next,
                answers.len()
            )),
            Ok(()) => return Ok(Step::Done(Box::new(progress.into_report()))),
            Err(e) => e,
        };
        // A unit changes `progress` only when it completes, so here it is
        // the state at `boundary`, whatever stopped the run.
        if let Some(memo) = memo {
            consumed.extend_from_slice(&answers[start..boundary]);
            memo.put(Checkpoint {
                mappings: inputs.unwrap_or_else(|| mappings.to_vec()),
                answers: consumed,
                progress,
            });
        }
        match stopped {
            WizardError::Suspended => {
                let seq = replay.next;
                let Some(question) = replay.pending.take() else {
                    return Err(WizardError::BadAnswer(
                        "internal: session suspended without capturing a question".into(),
                    ));
                };
                Ok(Step::Ask {
                    seq,
                    question: Box::new(question),
                })
            }
            e => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designer::ScriptedDesigner;
    use muse_nr::Constraints;

    fn bundle() -> (muse_nr::Schema, muse_nr::Schema, Vec<Mapping>) {
        let scenario = &muse_scenarios::all_scenarios()[1]; // DBLP
        let mappings = scenario.mappings().unwrap();
        (
            scenario.source_schema.clone(),
            scenario.target_schema.clone(),
            mappings,
        )
    }

    /// Drive a session question-by-question with a fixed answer policy and
    /// compare the final report against the equivalent scripted
    /// run-to-completion session.
    #[test]
    fn stepped_session_matches_scripted_run() {
        let (src, tgt, mappings) = bundle();
        let cons = Constraints::none();
        let session = Session::new(&src, &tgt, &cons);

        let mut answers: Vec<Answer> = Vec::new();
        let stepped = loop {
            match session.step(&mappings, &answers).unwrap() {
                Step::Ask { seq, question } => {
                    assert_eq!(seq, answers.len());
                    answers.push(match *question {
                        PendingQuestion::Grouping(_) => Answer::Scenario(ScenarioChoice::Second),
                        PendingQuestion::Disambiguation(q) => {
                            Answer::Choices(vec![vec![0]; q.choices.len()])
                        }
                        PendingQuestion::Join(_) => Answer::Join(JoinChoice::Inner),
                    });
                }
                Step::Done(report) => break report,
            }
        };

        // The scripted equivalent: replay the same answers in one run.
        let mut scripted = ScriptedDesigner::default();
        for a in &answers {
            match a {
                Answer::Scenario(c) => scripted.scenarios.push_back(*c),
                Answer::Choices(c) => scripted.choices.push_back(c.clone()),
                Answer::Join(c) => scripted.joins.push_back(*c),
            }
        }
        let direct = session.run(&mappings, &mut scripted).unwrap();

        assert_eq!(stepped.total_questions(), direct.total_questions());
        assert_eq!(stepped.mappings.len(), direct.mappings.len());
        let render = |r: &SessionReport| {
            r.mappings
                .iter()
                .map(muse_mapping::printer::print)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&stepped), render(&direct));
    }

    #[test]
    fn resuming_from_a_prefix_reaches_the_same_question() {
        let (src, tgt, mappings) = bundle();
        let cons = Constraints::none();
        let session = Session::new(&src, &tgt, &cons);

        let mut answers: Vec<Answer> = Vec::new();
        let mut transcript: Vec<String> = Vec::new();
        while let Step::Ask { question, .. } = session.step(&mappings, &answers).unwrap() {
            transcript.push(question.render(&src, &tgt));
            answers.push(match *question {
                PendingQuestion::Grouping(_) => Answer::Scenario(ScenarioChoice::First),
                PendingQuestion::Disambiguation(q) => {
                    Answer::Choices(vec![vec![0]; q.choices.len()])
                }
                PendingQuestion::Join(_) => Answer::Join(JoinChoice::Inner),
            });
        }
        assert!(transcript.len() >= 2, "DBLP asks at least two questions");

        // "Crash" after k answers: a fresh step from the recorded prefix
        // must surface the exact question the live session saw next.
        let k = transcript.len() / 2;
        match session.step(&mappings, &answers[..k]).unwrap() {
            Step::Ask { seq, question } => {
                assert_eq!(seq, k);
                assert_eq!(question.render(&src, &tgt), transcript[k]);
            }
            Step::Done(_) => panic!("prefix of {k} answers cannot complete the session"),
        }
    }

    /// The probe memo must be invisible in the transcript: a session
    /// driven twice against a shared cache (cold, then fully warm) and a
    /// session driven without any cache must render byte-identical
    /// questions and produce byte-identical mappings.
    #[test]
    fn probe_cache_preserves_transcripts_byte_for_byte() {
        let (src, tgt, mappings) = bundle();
        let cons = Constraints::none();
        let cache = crate::cache::ProbeCache::new(256);
        let metrics = muse_obs::Metrics::enabled();

        let drive = |session: &Session| {
            let mut answers: Vec<Answer> = Vec::new();
            let mut transcript: Vec<String> = Vec::new();
            let report = loop {
                match session.step(&mappings, &answers).unwrap() {
                    Step::Ask { question, .. } => {
                        transcript.push(question.render(&src, &tgt));
                        answers.push(match *question {
                            PendingQuestion::Grouping(_) => {
                                Answer::Scenario(ScenarioChoice::Second)
                            }
                            PendingQuestion::Disambiguation(q) => {
                                Answer::Choices(vec![vec![0]; q.choices.len()])
                            }
                            PendingQuestion::Join(_) => Answer::Join(JoinChoice::Inner),
                        });
                    }
                    Step::Done(report) => break report,
                }
            };
            let mappings_text = report
                .mappings
                .iter()
                .map(muse_mapping::printer::print)
                .collect::<Vec<_>>()
                .join("\n");
            (transcript, mappings_text)
        };

        let uncached = Session::new(&src, &tgt, &cons).with_real_example_budget(None);
        let plain = drive(&uncached);

        let cached_session = uncached
            .with_metrics(&metrics)
            .with_probe_cache(&cache, "dblp-test");
        let cold = drive(&cached_session);
        let warm = drive(&cached_session);

        assert_eq!(plain, cold);
        assert_eq!(plain, warm);
        assert!(!cache.is_empty(), "the cold run must populate the cache");
        let snapshot = metrics.snapshot();
        assert!(
            snapshot.counter("wizard.cache_hits") > 0,
            "replay within a stepped session must already hit the memo"
        );
    }

    #[test]
    fn kind_mismatch_is_a_bad_answer() {
        let (src, tgt, mappings) = bundle();
        let cons = Constraints::none();
        let session = Session::new(&src, &tgt, &cons);

        // DBLP's first question is a grouping probe; answer it with a join
        // choice instead.
        let wrong = [Answer::Join(JoinChoice::Outer)];
        match session.step(&mappings, &wrong) {
            Err(WizardError::BadAnswer(msg)) => {
                assert!(msg.contains("kind `join`"), "got: {msg}")
            }
            other => panic!("expected BadAnswer, got {other:?}"),
        }
    }

    #[test]
    fn leftover_answers_are_rejected() {
        let (src, tgt, mappings) = bundle();
        let cons = Constraints::none();
        let session = Session::new(&src, &tgt, &cons);

        let mut answers: Vec<Answer> = Vec::new();
        while let Step::Ask { question, .. } = session.step(&mappings, &answers).unwrap() {
            answers.push(match *question {
                PendingQuestion::Grouping(_) => Answer::Scenario(ScenarioChoice::Second),
                PendingQuestion::Disambiguation(q) => {
                    Answer::Choices(vec![vec![0]; q.choices.len()])
                }
                PendingQuestion::Join(_) => Answer::Join(JoinChoice::Inner),
            });
        }
        answers.push(Answer::Scenario(ScenarioChoice::First));
        match session.step(&mappings, &answers) {
            Err(WizardError::BadAnswer(msg)) => assert!(msg.contains("recorded"), "got: {msg}"),
            other => panic!("expected BadAnswer, got {other:?}"),
        }
    }
}

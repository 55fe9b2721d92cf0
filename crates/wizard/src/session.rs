//! The full Muse wizard (Sec. V): Muse-D then Muse-G.
//!
//! Starting from the (possibly ambiguous) mappings a Clio-style tool
//! generated, the session first disambiguates every ambiguous mapping with
//! Muse-D, then walks the designer through the grouping design of every
//! resulting mapping with Muse-G, and reports the final mappings plus the
//! per-phase statistics the paper's Sec. VI tables are built from.
//!
//! A run is one loop over *design units*: a Muse-D disambiguation per
//! ambiguous mapping, a join question per (mapping, variable) and a Muse-G
//! grouping design per (mapping, nested set). Between units the whole run
//! state is a `Progress` value, which [`Session::step`] can keep and
//! resume from (see [`crate::step`]).

use std::time::Duration;

use muse_mapping::{Grouping, Mapping};
use muse_nr::{Constraints, Instance, Schema, SetPath};
use muse_obs::{Budget, Metrics};

use muse_mapping::WhereClause;

use crate::designer::Designer;
use crate::error::WizardError;
use crate::mused::joins::outer_companion;
use crate::mused::{DisambiguationOutcome, MuseD};
use crate::museg::{GroupingOutcome, MuseG};

/// A full wizard session over one mapping scenario.
#[derive(Debug, Clone, Copy)]
pub struct Session<'a> {
    /// Source schema.
    pub source_schema: &'a Schema,
    /// Target schema.
    pub target_schema: &'a Schema,
    /// Source constraints.
    pub source_constraints: &'a Constraints,
    /// The designer's source instance, when available.
    pub real_instance: Option<&'a Instance>,
    /// Enable Sec. III-C instance-only pruning in Muse-G.
    pub instance_only: bool,
    /// Offer the inner/outer join choice (Sec. IV "More options") for every
    /// source variable that feeds target elements on its own and is not
    /// already covered by another mapping in Σ.
    pub offer_join_options: bool,
    /// Execution budget for the whole session, forwarded to both component
    /// wizards. Questions the budget truncates are skipped with a warning
    /// (collected in [`SessionReport::warnings`]) instead of failing the
    /// session. Defaults to [`Budget::unlimited_ref`].
    pub budget: &'a Budget,
    /// Instrumentation sink, forwarded to both component wizards. Defaults
    /// to the no-op handle.
    pub metrics: &'a Metrics,
    /// Wall-clock cap for the real-instance example search (`QIe`),
    /// forwarded to both component wizards. `None` searches exhaustively —
    /// the setting replayable services need, because a timed-out search
    /// falls back to a synthetic example nondeterministically. Defaults to
    /// the wizards' own 750 ms cap.
    pub real_example_budget: Option<Duration>,
    /// Optional shared probe-question memo plus the context key covering
    /// everything outside the mappings that determines probe results
    /// (scenario and instance identity). Forwarded to both component
    /// wizards; consulted only when `budget` is unlimited,
    /// `real_example_budget` is `None` and no fault plan is armed. See
    /// [`crate::cache::ProbeCache`].
    pub probe_cache: Option<(&'a crate::cache::ProbeCache, &'a str)>,
    /// Incremental chase store, forwarded to both component wizards: probe
    /// and partial-target chases rederive unchanged bindings from
    /// materialized state instead of re-chasing from scratch. Output stays
    /// byte-identical (scratch fallback under budgets/faults). See
    /// [`muse_chase::DeltaStore`].
    pub delta: Option<&'a muse_chase::DeltaStore>,
    /// Resume point for [`Session::step`]: a step whose answers extend the
    /// memo's recorded prefix replays only the current design unit.
    /// Consulted under the same gate as `probe_cache`. See
    /// [`crate::step::StepMemo`].
    pub step_memo: Option<&'a crate::step::StepMemo>,
}

/// What a session produced.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The final, unambiguous mappings with designed grouping functions.
    pub mappings: Vec<Mapping>,
    /// Muse-D statistics, one per ambiguous input mapping.
    pub disambiguations: Vec<DisambiguationOutcome>,
    /// Muse-G statistics, one per (mapping, nested set) designed.
    pub groupings: Vec<(String, GroupingOutcome)>,
    /// Inner/outer questions asked and the companions the designer added.
    pub join_questions: usize,
    /// Companion mappings added by outer choices (also in `mappings`).
    pub companions_added: usize,
    /// Graceful-degradation warnings: one line per question the execution
    /// budget truncated (the session still completed with defaults).
    pub warnings: Vec<String>,
}

impl SessionReport {
    /// Total questions asked across both wizards (each disambiguation is
    /// one question).
    pub fn total_questions(&self) -> usize {
        self.disambiguations.len()
            + self.join_questions
            + self
                .groupings
                .iter()
                .map(|(_, g)| g.questions)
                .sum::<usize>()
    }

    /// True when the execution budget truncated at least one question — the
    /// session completed, but with defaulted answers (see `warnings`).
    pub fn truncated(&self) -> bool {
        !self.warnings.is_empty()
    }

    /// Total time spent constructing/retrieving examples.
    pub fn total_example_time(&self) -> Duration {
        self.disambiguations
            .iter()
            .map(|d| d.example_time)
            .sum::<Duration>()
            + self
                .groupings
                .iter()
                .map(|(_, g)| g.example_time)
                .sum::<Duration>()
    }
}

impl<'a> Session<'a> {
    /// A session without a real instance.
    pub fn new(
        source_schema: &'a Schema,
        target_schema: &'a Schema,
        source_constraints: &'a Constraints,
    ) -> Self {
        Session {
            source_schema,
            target_schema,
            source_constraints,
            real_instance: None,
            instance_only: false,
            offer_join_options: false,
            budget: Budget::unlimited_ref(),
            metrics: Metrics::disabled_ref(),
            real_example_budget: Some(Duration::from_millis(750)),
            probe_cache: None,
            delta: None,
            step_memo: None,
        }
    }

    /// Route wizard chases through an incremental chase store.
    pub fn with_delta(mut self, delta: &'a muse_chase::DeltaStore) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Cap (or, with `None`, uncap) the real-instance example search.
    pub fn with_real_example_budget(mut self, budget: Option<Duration>) -> Self {
        self.real_example_budget = budget;
        self
    }

    /// Use a real source instance.
    pub fn with_instance(mut self, inst: &'a Instance) -> Self {
        self.real_instance = Some(inst);
        self
    }

    /// Bound the session with an execution budget (graceful degradation).
    pub fn with_budget(mut self, budget: &'a Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Record wizard/query/chase/iso metrics into `metrics`.
    pub fn with_metrics(mut self, metrics: &'a Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Share a probe-question memo across sessions. `context` must name
    /// everything outside the mappings that determines probe results —
    /// typically the scenario plus the parameters of the source instance.
    pub fn with_probe_cache(
        mut self,
        cache: &'a crate::cache::ProbeCache,
        context: &'a str,
    ) -> Self {
        self.probe_cache = Some((cache, context));
        self
    }

    /// Resume [`Session::step`] from `memo` instead of replaying every
    /// recorded answer (see [`crate::step::StepMemo`]).
    pub fn with_step_memo(mut self, memo: &'a crate::step::StepMemo) -> Self {
        self.step_memo = Some(memo);
        self
    }

    /// Run the wizard over `mappings` (e.g. the output of
    /// `muse_cliogen::generate`), interrogating `designer`.
    pub fn run(
        &self,
        mappings: &[Mapping],
        designer: &mut dyn Designer,
    ) -> Result<SessionReport, WizardError> {
        let hints = self.hints();
        let wizards = self.wizards(&hints);
        let mut progress = Progress::default();
        while self.run_unit(&wizards, &mut progress, mappings, designer)? {}
        Ok(progress.into_report())
    }

    /// Static selectivity hints from the declared source constraints: both
    /// wizards plan their chase/QIe joins with them (same answers, fewer
    /// query steps).
    pub(crate) fn hints(&self) -> muse_query::SelectivityHints {
        muse_query::SelectivityHints::from_constraints(self.source_schema, self.source_constraints)
    }

    /// The two component wizards, configured from the session and
    /// borrowing `hints` for the whole run.
    pub(crate) fn wizards<'h>(
        &self,
        hints: &'h muse_query::SelectivityHints,
    ) -> (MuseD<'h>, MuseG<'h>)
    where
        'a: 'h,
    {
        let mut mused = MuseD::new(
            self.source_schema,
            self.target_schema,
            self.source_constraints,
        );
        mused.real_instance = self.real_instance;
        mused.budget = self.budget;
        mused.metrics = self.metrics;
        mused.real_example_budget = self.real_example_budget;
        mused.probe_cache = self.probe_cache;
        mused.plan_hints = Some(hints);
        mused.delta = self.delta;
        let mut museg = MuseG::new(
            self.source_schema,
            self.target_schema,
            self.source_constraints,
        );
        museg.real_instance = self.real_instance;
        museg.instance_only = self.instance_only;
        museg.budget = self.budget;
        museg.metrics = self.metrics;
        museg.real_example_budget = self.real_example_budget;
        museg.probe_cache = self.probe_cache;
        museg.plan_hints = Some(hints);
        museg.delta = self.delta;
        (mused, museg)
    }

    /// Run the next design unit of the session: one Muse-D disambiguation
    /// (phase 1), one inner/outer join question (phase 1.5, with
    /// `offer_join_options`) or one Muse-G grouping design (phase 2).
    /// Returns `false` once no unit is left.
    ///
    /// A unit changes `progress` only when it completes, so on any error
    /// — including [`WizardError::Suspended`] mid-unit — `progress` is the
    /// state at the boundary before the failing unit.
    pub(crate) fn run_unit(
        &self,
        (mused, museg): &(MuseD<'_>, MuseG<'_>),
        p: &mut Progress,
        mappings: &[Mapping],
        designer: &mut dyn Designer,
    ) -> Result<bool, WizardError> {
        loop {
            match p.next {
                // Phase 1: Muse-D on every ambiguous mapping.
                Cursor::Disambiguate(i) => {
                    let Some(m) = mappings.get(i) else {
                        p.next = if self.offer_join_options {
                            Cursor::Join(0, 0)
                        } else {
                            Cursor::Sets(0)
                        };
                        continue;
                    };
                    if !m.is_ambiguous() {
                        p.unambiguous.push(m.clone());
                        p.next = Cursor::Disambiguate(i + 1);
                        continue;
                    }
                    let out = mused.disambiguate(m, designer)?;
                    p.next = Cursor::Disambiguate(i + 1);
                    p.unambiguous.extend(out.selected.iter().cloned());
                    p.disambiguations.push(out);
                    return Ok(true);
                }
                // Phase 1.5 (optional): inner/outer join choices. For every
                // source variable whose tuples feed target elements on their
                // own, and whose standalone exchange is not already a
                // mapping of Σ (like m3 in Fig. 1), ask whether dangling
                // tuples should be exchanged too. Σ is `unambiguous` as
                // phase 1 left it: companions join it only after the phase.
                Cursor::Join(i, v) => {
                    let Some(m) = p.unambiguous.get(i) else {
                        p.unambiguous.extend(p.companions.iter().cloned());
                        p.next = Cursor::Sets(0);
                        continue;
                    };
                    if v >= m.source_vars.len() {
                        p.next = Cursor::Join(i + 1, 0);
                        continue;
                    }
                    let asks = outer_companion(m, v)
                        .is_ok_and(|companion| !covered_by_sigma(&companion, &p.unambiguous));
                    if !asks {
                        p.next = Cursor::Join(i, v + 1);
                        continue;
                    }
                    let chosen = mused.design_join(m, v, designer)?;
                    p.next = Cursor::Join(i, v + 1);
                    p.join_questions += 1;
                    if let Some(mut c) = chosen {
                        c.name = format!("{}~outer{}", m.name, p.companions.len() + 1);
                        p.companions.push(c);
                    }
                    return Ok(true);
                }
                // Phase 2: Muse-G on every grouping function of every
                // mapping, in the breadth-first target order of Sec. III-A
                // Step 1, so deeper sets are designed with the shallower
                // ones already fixed.
                Cursor::Sets(i) => {
                    let Some(m) = p.unambiguous.get(i) else {
                        p.next = Cursor::Finished;
                        continue;
                    };
                    let filled = m.filled_target_sets(self.target_schema)?;
                    p.sets = self.target_schema.set_paths_bfs();
                    p.sets.retain(|sk| filled.contains(sk));
                    p.next = Cursor::Grouping(i, 0);
                }
                Cursor::Grouping(i, k) => {
                    let (Some(m), Some(sk)) = (p.unambiguous.get_mut(i), p.sets.get(k)) else {
                        p.next = Cursor::Sets(i + 1);
                        continue;
                    };
                    let outcome = museg.design_grouping(m, sk, designer)?;
                    m.set_grouping(sk.clone(), Grouping::new(outcome.grouping.clone()));
                    p.groupings.push((m.name.clone(), outcome));
                    p.next = Cursor::Grouping(i, k + 1);
                    return Ok(true);
                }
                Cursor::Finished => return Ok(false),
            }
        }
    }
}

/// Where a session run stands between design units: every decision made
/// so far plus the next unit to run. Together with the session's inputs
/// it determines the rest of the run, which is what lets
/// [`crate::step::StepMemo`] resume a stepped session from it.
#[derive(Debug, Default)]
pub(crate) struct Progress {
    next: Cursor,
    /// Phase 1 output; phase 1.5 appends the companions, phase 2 fills in
    /// the designed groupings.
    unambiguous: Vec<Mapping>,
    disambiguations: Vec<DisambiguationOutcome>,
    join_questions: usize,
    /// Companion mappings added by outer choices so far.
    companions: Vec<Mapping>,
    /// The filled nested sets of the mapping phase 2 is designing, in
    /// breadth-first order.
    sets: Vec<SetPath>,
    groupings: Vec<(String, GroupingOutcome)>,
}

/// The next design unit, as indices into the run's inputs.
#[derive(Debug, Clone, Copy)]
enum Cursor {
    /// Input mapping `i` (Muse-D when it is ambiguous).
    Disambiguate(usize),
    /// Source variable `v` of unambiguous mapping `i` (join question).
    Join(usize, usize),
    /// The filled nested sets of unambiguous mapping `i` (phase 2).
    Sets(usize),
    /// The `k`-th of those sets (Muse-G).
    Grouping(usize, usize),
    /// Nothing left to design.
    Finished,
}

impl Default for Cursor {
    fn default() -> Self {
        Cursor::Disambiguate(0)
    }
}

impl Progress {
    /// The finished session's report.
    pub(crate) fn into_report(self) -> SessionReport {
        let mut warnings: Vec<String> = Vec::new();
        for d in &self.disambiguations {
            warnings.extend(d.warnings.iter().cloned());
        }
        for (_, g) in &self.groupings {
            warnings.extend(g.warnings.iter().cloned());
        }
        SessionReport {
            mappings: self.unambiguous,
            disambiguations: self.disambiguations,
            groupings: self.groupings,
            join_questions: self.join_questions,
            companions_added: self.companions.len(),
            warnings,
        }
    }
}

/// Does some mapping of Σ already exchange what `companion` would? True
/// when a single-variable mapping over the same source set asserts at least
/// the companion's correspondences (like `m3` covering the outer option of
/// `m2` in Fig. 1).
fn covered_by_sigma(companion: &Mapping, sigma: &[Mapping]) -> bool {
    let triples = |m: &Mapping| -> Option<std::collections::BTreeSet<(String, String, String)>> {
        if m.source_vars.len() != 1 {
            return None;
        }
        Some(
            m.wheres
                .iter()
                .filter_map(|w| match w {
                    WhereClause::Eq { source, target } => Some((
                        source.attr.clone(),
                        m.target_vars[target.var].set.to_string(),
                        target.attr.clone(),
                    )),
                    WhereClause::OrGroup { .. } => None,
                })
                .collect(),
        )
    };
    let Some(needed) = triples(companion) else {
        return true;
    };
    sigma.iter().any(|m| {
        m.source_vars.len() == 1
            && m.source_vars[0].set == companion.source_vars[0].set
            && triples(m).is_some_and(|have| needed.is_subset(&have))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designer::OracleDesigner;
    use muse_mapping::{parse, PathRef};
    use muse_nr::{Field, SetPath, Ty};

    fn schemas() -> (Schema, Schema) {
        let src = Schema::new(
            "S",
            vec![
                Field::new(
                    "Projects",
                    Ty::set_of(vec![
                        Field::new("pname", Ty::Str),
                        Field::new("manager", Ty::Str),
                        Field::new("tech-lead", Ty::Str),
                    ]),
                ),
                Field::new(
                    "Employees",
                    Ty::set_of(vec![
                        Field::new("eid", Ty::Str),
                        Field::new("ename", Ty::Str),
                    ]),
                ),
            ],
        )
        .unwrap();
        let tgt = Schema::new(
            "T",
            vec![Field::new(
                "Orgs",
                Ty::set_of(vec![
                    Field::new("lead", Ty::Str),
                    Field::new("Projects", Ty::set_of(vec![Field::new("pname", Ty::Str)])),
                ]),
            )],
        )
        .unwrap();
        (src, tgt)
    }

    #[test]
    fn full_session_disambiguates_then_designs_groupings() {
        let (src, tgt) = schemas();
        let cons = Constraints::none();
        let mut ms = parse(
            "ma: for p in S.Projects, e1 in S.Employees, e2 in S.Employees
                 satisfy e1.eid = p.manager and e2.eid = p.tech-lead
                 exists o in T.Orgs, q in o.Projects
                 where p.pname = q.pname
                   and (e1.ename = o.lead or e2.ename = o.lead)
                 group o.Projects by ()",
        )
        .unwrap();
        for m in &mut ms {
            m.ensure_default_groupings(&tgt, &src).unwrap();
        }

        let mut oracle = OracleDesigner::new(&src, &tgt);
        oracle.intended_choices.insert("ma".into(), vec![vec![1]]); // tech-lead
                                                                    // After selection the mapping is named ma#1; intend grouping by the
                                                                    // chosen lead's name.
        oracle.intend_grouping(
            "ma#1",
            SetPath::parse("Orgs.Projects"),
            vec![PathRef::new(2, "ename")],
        );

        let session = Session::new(&src, &tgt, &cons);
        let report = session.run(&ms, &mut oracle).unwrap();

        assert_eq!(report.mappings.len(), 1);
        assert_eq!(report.disambiguations.len(), 1);
        assert!(!report.mappings[0].is_ambiguous());
        let g = report.mappings[0]
            .grouping(&SetPath::parse("Orgs.Projects"))
            .unwrap();
        // e2.ename's class representative may be itself (no satisfy eq ties
        // it to another reference).
        assert_eq!(g.args, vec![PathRef::new(2, "ename")]);
        assert!(report.total_questions() >= 2);
        report.mappings[0].validate(&src, &tgt).unwrap();
    }
}

//! **Muse-G** — the grouping design wizard (Sec. III).
//!
//! For a mapping `m` and a nested target set `SK`, Muse-G infers the
//! designer's intended grouping function as a subset of `poss(m, SK)`. It
//! probes one attribute at a time: a two-copy example is constructed in
//! which the probed attribute differs and every still-relevant attribute
//! agrees, then the designer is shown the two chased targets — "probed
//! attribute in the grouping" (two groups) vs "not in" (one group) — and
//! picks the one that looks correct.
//!
//! Keys and FDs cut questions two ways (Sec. III-B / Thm. 3.2): attributes
//! determined by already-chosen ones are skipped outright, and with a
//! single candidate key over `poss` the key is probed first, so choosing it
//! ends the design immediately. With multiple candidate keys, one question
//! decides whether the designer groups by a key at all (grouping by any key
//! has the same effect); otherwise the non-key attributes are probed.

pub mod incremental;
pub mod instance_only;

use std::collections::VecDeque;
use std::time::Duration;

use muse_chase::ChaseReq;
use muse_mapping::{Grouping, Mapping, PathRef};
use muse_nr::constraints::fdset::{all_attrs, attrs, iter_attrs, AttrSet};
use muse_nr::{Constraints, Instance, Schema, SetPath};
use muse_obs::{faultpoints, Budget, Metrics, Outcome, TruncationReason};

use crate::designer::{Designer, ScenarioChoice};
use crate::error::WizardError;
use crate::example::{build_example_with, ClassSpace, Example, ExampleRequest};
use crate::table::BindingTables;

/// The grouping design wizard, configured once per scenario.
#[derive(Debug, Clone, Copy)]
pub struct MuseG<'a> {
    /// Source schema.
    pub source_schema: &'a Schema,
    /// Target schema.
    pub target_schema: &'a Schema,
    /// Source keys / FDs / referential constraints.
    pub source_constraints: &'a Constraints,
    /// The designer's familiar source instance, when available: probes draw
    /// real examples from it via `QIe` and fall back to synthetic ones.
    pub real_instance: Option<&'a Instance>,
    /// Sec. III-C "designing grouping functions only for the instance I":
    /// skip attributes whose inclusion is inconsequential on the real
    /// instance (single-valued across the mapping's bindings).
    pub instance_only: bool,
    /// Time budget for building a mapping's binding table from the real
    /// instance before falling back to synthetic examples (Sec. VI). `None`
    /// means no cap.
    pub real_example_budget: Option<Duration>,
    /// Execution budget for the whole design. A probe whose example search
    /// or scenario chase exceeds it is *skipped with a warning* (the probed
    /// attribute is left out of the grouping) rather than failing the
    /// session. Defaults to [`Budget::unlimited_ref`].
    pub budget: &'a Budget,
    /// Instrumentation sink (`wizard.*`, plus the query/chase/iso metrics of
    /// the probe machinery). Defaults to the no-op handle.
    pub metrics: &'a Metrics,
    /// Optional shared probe-question memo plus the context key covering
    /// everything outside the mapping/probe parameters that determines
    /// probe results (scenario and instance identity). Consulted only when
    /// `budget` is unlimited, `real_example_budget` is `None` and no fault
    /// plan is armed — see [`crate::cache::ProbeCache`].
    pub probe_cache: Option<(&'a crate::cache::ProbeCache, &'a str)>,
    /// Key/FD selectivity hints over the source schema: when set, binding
    /// table builds and probe chases run plan-driven (identical results,
    /// far fewer `query.steps`). [`crate::Session`] derives these from
    /// `source_constraints` automatically.
    pub plan_hints: Option<&'a muse_query::SelectivityHints>,
    /// The holder of `real_instance`'s binding tables ([`crate::table`]).
    /// Without one, each design call keeps its own for its duration.
    pub tables: Option<&'a BindingTables>,
    /// Incremental chase store: when set, probe chases carry it in their
    /// [`ChaseReq`], which rederives unchanged bindings from materialized
    /// state instead of re-chasing from scratch (byte-identical output;
    /// scratch fallback under budgets/faults).
    pub delta: Option<&'a muse_chase::DeltaStore>,
}

/// One probe shown to the designer.
#[derive(Debug, Clone)]
pub struct GroupingQuestion {
    /// Name of the mapping being designed.
    pub mapping: String,
    /// The nested target set whose grouping is being designed.
    pub sk: SetPath,
    /// The probed attribute.
    pub probed: PathRef,
    /// Its display name, e.g. `c.cid`.
    pub probed_name: String,
    /// The example source instance (real or synthetic).
    pub example: Example,
    /// Mapping with `SK(chosen ∪ {probed})`.
    pub d1: Mapping,
    /// Mapping with `SK(chosen)`.
    pub d2: Mapping,
    /// Chase of the example with `d1` (probed attribute included).
    pub scenario1: Instance,
    /// Chase of the example with `d2` (probed attribute omitted).
    pub scenario2: Instance,
}

/// Statistics and result of designing one grouping function.
#[derive(Debug, Clone)]
pub struct GroupingOutcome {
    /// The designed set.
    pub sk: SetPath,
    /// The inferred grouping (canonical: no attribute implied by the rest),
    /// in `poss` order. Guaranteed to have the *same effect* as whatever
    /// grouping the designer had in mind (Thm. 3.2).
    pub grouping: Vec<PathRef>,
    /// `|poss(m, SK)|`.
    pub poss_size: usize,
    /// Questions actually asked.
    pub questions: usize,
    /// Attributes skipped because keys/FDs made them inconsequential.
    pub skipped_implied: usize,
    /// Attributes skipped by the instance-only analysis (Sec. III-C).
    pub skipped_inconsequential: usize,
    /// Probes answered with a real example from the source instance.
    pub real_examples: usize,
    /// Probes that fell back to a synthetic example.
    pub synthetic_examples: usize,
    /// Probes whose real-instance search hit the time budget.
    pub real_search_timeouts: usize,
    /// Total time spent constructing/retrieving examples.
    pub example_time: Duration,
    /// True when the multi-key one-question shortcut concluded the design
    /// (assumes the designer does not group by a proper key fragment — see
    /// DESIGN.md).
    pub multi_key_assumption: bool,
    /// Probes skipped because the execution budget truncated their example
    /// or scenario chase (each one also leaves a warning).
    pub skipped_truncated: usize,
    /// Human-readable degradation warnings ("probe of c.cid skipped: …").
    pub warnings: Vec<String>,
}

impl<'a> MuseG<'a> {
    /// A wizard with no real instance and no instance-only pruning.
    pub fn new(
        source_schema: &'a Schema,
        target_schema: &'a Schema,
        source_constraints: &'a Constraints,
    ) -> Self {
        MuseG {
            source_schema,
            target_schema,
            source_constraints,
            real_instance: None,
            instance_only: false,
            real_example_budget: Some(Duration::from_millis(750)),
            budget: Budget::unlimited_ref(),
            metrics: Metrics::disabled_ref(),
            probe_cache: None,
            plan_hints: None,
            tables: None,
            delta: None,
        }
    }

    /// Run `f` with a binding-table holder: the attached one, else a fresh
    /// one that lives for the call, so the call's probes share their tables.
    pub(crate) fn with_tables<R>(&self, f: impl FnOnce(&MuseG<'_>) -> R) -> R {
        if self.tables.is_some() {
            return f(self);
        }
        let local = BindingTables::new();
        f(&MuseG {
            tables: Some(&local),
            ..*self
        })
    }

    /// Use a real source instance for example retrieval.
    pub fn with_instance(mut self, inst: &'a Instance) -> Self {
        self.real_instance = Some(inst);
        self
    }

    /// Route probe chases through an incremental chase store.
    pub fn with_delta(mut self, delta: &'a muse_chase::DeltaStore) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Drive probe evaluation with static plans derived from `hints`.
    pub fn with_plan_hints(mut self, hints: &'a muse_query::SelectivityHints) -> Self {
        self.plan_hints = Some(hints);
        self
    }

    /// Bound the design with an execution budget (graceful degradation).
    pub fn with_budget(mut self, budget: &'a Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Record wizard/query/chase/iso metrics into `metrics`.
    pub fn with_metrics(mut self, metrics: &'a Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Design the grouping function of `sk` in `m` by interrogating
    /// `designer`. `m` itself is not modified; the result carries the
    /// inferred grouping.
    pub fn design_grouping(
        &self,
        m: &Mapping,
        sk: &SetPath,
        designer: &mut dyn Designer,
    ) -> Result<GroupingOutcome, WizardError> {
        self.with_tables(|g| g.design_one(m, sk, designer))
    }

    fn design_one(
        &self,
        m: &Mapping,
        sk: &SetPath,
        designer: &mut dyn Designer,
    ) -> Result<GroupingOutcome, WizardError> {
        if m.is_ambiguous() {
            return Err(WizardError::Mapping(
                muse_mapping::MappingError::ConflictingAssignment {
                    target: format!("{} is ambiguous; run Muse-D first", m.name),
                },
            ));
        }
        let space = ClassSpace::new(m, self.source_schema, self.source_constraints)?;
        let n = space.len();
        let mut outcome = GroupingOutcome {
            sk: sk.clone(),
            grouping: Vec::new(),
            poss_size: n,
            questions: 0,
            skipped_implied: 0,
            skipped_inconsequential: 0,
            real_examples: 0,
            synthetic_examples: 0,
            real_search_timeouts: 0,
            example_time: Duration::ZERO,
            multi_key_assumption: false,
            skipped_truncated: 0,
            warnings: Vec::new(),
        };
        if n == 0 {
            return Ok(outcome);
        }

        // Instance-only pruning (Sec. III-C), read off the binding table.
        // Its build is uncapped, as the analysis always was.
        let inconsequential: AttrSet = match (self.instance_only, self.real_instance, self.tables) {
            (true, Some(real), Some(tables)) => {
                let table = tables.get(
                    m,
                    &space,
                    self.source_schema,
                    real,
                    self.plan_hints,
                    self.metrics,
                    None,
                )?;
                instance_only::inconsequential_attrs(table.as_deref())
            }
            _ => 0,
        };
        outcome.skipped_inconsequential = iter_attrs(inconsequential).count();

        // Probe one attribute per equality class: two references the
        // `satisfy` clause equates always carry the same value, so grouping
        // by either has the same effect. Members beyond the representative
        // are skipped (they count as implied).
        let reps: Vec<usize> = (0..n).filter(|&i| space.rep(i) == i).collect();
        outcome.skipped_implied += n - reps.len();

        // Candidate keys, canonicalized to class representatives: keys that
        // differ only in which class member they name are the same key.
        let keys = canonical_keys(&space);
        if keys.len() == 1 {
            // Single-keyed (Cor. 3.3): probe the key first, then the rest.
            let key = keys[0];
            let mut order: Vec<usize> = reps
                .iter()
                .copied()
                .filter(|i| key & attrs([*i]) != 0)
                .collect();
            order.extend(reps.iter().copied().filter(|i| key & attrs([*i]) == 0));
            let chosen = self.probe_loop(
                m,
                sk,
                &space,
                order,
                0,
                inconsequential,
                designer,
                &mut outcome,
            )?;
            outcome.grouping = refs_of(&space, chosen);
        } else {
            // Multiple candidate keys: one question decides whether the
            // designer groups by a key at all (grouping by one key has the
            // same effect as grouping by any superset, so any key works).
            let union_keys: AttrSet = keys.iter().fold(0, |a, k| a | k);
            let non_key = all_attrs(n) & !union_keys;
            let agree = space.closure(non_key);
            if agree & union_keys != 0 {
                return Err(WizardError::UnsupportedGrouping(format!(
                    "non-key attributes of {} functionally determine key attributes",
                    m.name
                )));
            }
            let differ: Vec<usize> = iter_attrs(union_keys).collect();
            let req = ExampleRequest {
                copies: 2,
                agree,
                differ,
                distinct: vec![],
                real_budget: self.real_example_budget,
            };
            let first_key = keys[0];
            let Some(probed) = iter_attrs(first_key).next() else {
                return Err(WizardError::UnsupportedGrouping(format!(
                    "mapping {} has an empty candidate key",
                    m.name
                )));
            };
            match self.make_question(m, sk, &space, &req, first_key, 0, probed)? {
                None => {
                    // Budget ran out before the question could be built.
                    // Skip it with a warning and default to grouping by the
                    // first candidate key — grouping by any key has the same
                    // effect, and it asks nothing further of the designer.
                    outcome.skipped_truncated += 1;
                    outcome.warnings.push(format!(
                        "{}: multi-key question for SK{} skipped (budget exceeded); \
                         defaulted to grouping by a candidate key",
                        m.name,
                        sk.label()
                    ));
                    self.metrics.incr("wizard.skipped_probes");
                    outcome.multi_key_assumption = true;
                    outcome.grouping = refs_of(&space, first_key);
                }
                Some(q) => {
                    self.record_example(&mut outcome, &q.example);
                    outcome.questions += 1;
                    self.metrics.incr("wizard.questions");
                    match designer.pick_scenario(&q)? {
                        ScenarioChoice::First => {
                            // Groups by a key: conclude with the first
                            // candidate key (same effect as any other key or
                            // superset).
                            outcome.multi_key_assumption = true;
                            outcome.grouping = refs_of(&space, first_key);
                        }
                        ScenarioChoice::Second => {
                            // Groups by non-key attributes only: probe them.
                            let order: Vec<usize> = reps
                                .iter()
                                .copied()
                                .filter(|i| non_key & attrs([*i]) != 0)
                                .collect();
                            let chosen = self.probe_loop(
                                m,
                                sk,
                                &space,
                                order,
                                0,
                                inconsequential,
                                designer,
                                &mut outcome,
                            )?;
                            outcome.grouping = refs_of(&space, chosen);
                        }
                    }
                }
            }
        }
        Ok(outcome)
    }

    /// Design every grouping function of `m`, in the breadth-first target
    /// order of Sec. III-A Step 1, updating `m` in place (so deeper sets are
    /// designed with the shallower ones already fixed).
    pub fn design_all_groupings(
        &self,
        m: &mut Mapping,
        designer: &mut dyn Designer,
    ) -> Result<Vec<GroupingOutcome>, WizardError> {
        let filled = m.filled_target_sets(self.target_schema)?;
        self.with_tables(|g| {
            let mut outcomes = Vec::new();
            for sk in g.target_schema.set_paths_bfs() {
                if !filled.contains(&sk) {
                    continue;
                }
                let outcome = g.design_one(m, &sk, designer)?;
                m.set_grouping(sk.clone(), Grouping::new(outcome.grouping.clone()));
                outcomes.push(outcome);
            }
            Ok(outcomes)
        })
    }

    /// The shared probe loop: ask about each attribute of `order` in turn,
    /// starting from the pre-chosen set `chosen0` (attributes that are kept
    /// without probing — used by incremental group-less refinement).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe_loop(
        &self,
        m: &Mapping,
        sk: &SetPath,
        space: &ClassSpace,
        order: Vec<usize>,
        chosen0: AttrSet,
        inconsequential: AttrSet,
        designer: &mut dyn Designer,
        outcome: &mut GroupingOutcome,
    ) -> Result<AttrSet, WizardError> {
        let mut chosen: AttrSet = chosen0;
        let mut rejected_reps: AttrSet = 0;
        let mut pending: VecDeque<usize> = order.into();
        let mut deferrals = 0usize;
        while let Some(a) = pending.pop_front() {
            let a_bit = attrs([a]);
            if inconsequential & a_bit != 0 {
                continue; // counted once in the outcome already
            }
            if space.closure(chosen) & a_bit != 0 {
                // Thm. 3.2 (generalized to FDs): `a` is determined by the
                // chosen attributes; including it cannot change the effect.
                outcome.skipped_implied += 1;
                continue;
            }
            if rejected_reps & attrs([space.rep(a)]) != 0 {
                // Same equality class as a rejected attribute: grouping by
                // it would have the very same (rejected) effect.
                outcome.skipped_implied += 1;
                continue;
            }
            let agree_base = chosen | attrs(pending.iter().copied());
            let agree = space.closure(agree_base);
            if agree & a_bit != 0 {
                // Cannot probe yet: `a` is determined by attributes that are
                // still pending. Defer it; a later order usually unblocks.
                deferrals += 1;
                if deferrals > pending.len() + 1 {
                    return Err(WizardError::UnsupportedGrouping(format!(
                        "attribute {} of {} cannot be probed with key-valid examples",
                        space.poss[a].attr, m.name
                    )));
                }
                pending.push_back(a);
                continue;
            }
            deferrals = 0;
            let req = ExampleRequest {
                copies: 2,
                agree,
                differ: vec![a],
                distinct: vec![],
                real_budget: self.real_example_budget,
            };
            let Some(q) = self.make_question(m, sk, space, &req, chosen | a_bit, chosen, a)? else {
                // The budget truncated this probe's example search or
                // scenario chase: skip the question with a warning. The
                // probed attribute (and its equality class) is left out of
                // the grouping — a deterministic, conservative default.
                outcome.skipped_truncated += 1;
                outcome.warnings.push(format!(
                    "{}: probe of {} for SK{} skipped (budget exceeded); \
                     attribute left out of the grouping",
                    m.name,
                    m.source_ref_name(&space.poss[a]),
                    sk.label()
                ));
                self.metrics.incr("wizard.skipped_probes");
                rejected_reps |= attrs([space.rep(a)]);
                continue;
            };
            self.record_example(outcome, &q.example);
            outcome.questions += 1;
            self.metrics.incr("wizard.questions");
            match designer.pick_scenario(&q)? {
                ScenarioChoice::First => chosen |= a_bit,
                ScenarioChoice::Second => rejected_reps |= attrs([space.rep(a)]),
            }
            // Early conclusion: everything left is implied by the chosen set.
            if space.closure(chosen) == all_attrs(space.len()) {
                outcome.skipped_implied += pending.len();
                pending.clear();
            }
        }
        Ok(chosen)
    }

    /// Build a probe question: construct the example and chase it under the
    /// two candidate groupings. Returns `None` when the execution budget
    /// (or an injected `wizard.probe` fault) truncates the work — the
    /// caller skips the question with a warning instead of failing.
    /// `Arc` so a [`crate::cache::ProbeCache`] hit shares the cached
    /// question instead of deep-copying its example instances.
    #[allow(clippy::too_many_arguments)]
    fn make_question(
        &self,
        m: &Mapping,
        sk: &SetPath,
        space: &ClassSpace,
        req: &ExampleRequest,
        with_set: AttrSet,
        without_set: AttrSet,
        probed: usize,
    ) -> Result<Option<std::sync::Arc<GroupingQuestion>>, WizardError> {
        if let Some(f) = muse_fault::point(faultpoints::WIZARD_PROBE) {
            fault_reason(f).record(self.metrics);
            return Ok(None);
        }
        if self.budget.deadline_expired() {
            TruncationReason::DeadlineExpired.record(self.metrics);
            return Ok(None);
        }
        let cached = match self.probe_cache {
            Some((cache, ctx))
                if crate::cache::replay_safe(self.budget, self.real_example_budget) =>
            {
                let key =
                    crate::cache::grouping_key(ctx, m, sk, req, with_set, without_set, probed);
                if let Some(q) = cache.get_grouping(&key) {
                    self.metrics.incr(cache.hits_key());
                    return Ok(Some(q));
                }
                self.metrics.incr(cache.misses_key());
                Some((cache, key))
            }
            _ => None,
        };
        // The real-instance search may not outlive the session deadline.
        let req = &ExampleRequest {
            real_budget: match (req.real_budget, self.budget.remaining()) {
                (Some(b), Some(rem)) => Some(b.min(rem)),
                (b, rem) => b.or(rem),
            },
            ..req.clone()
        };
        let local = BindingTables::new();
        let tables = self.tables.unwrap_or(&local);
        let example = build_example_with(
            m,
            space,
            req,
            self.source_schema,
            self.real_instance.map(|inst| (inst, tables)),
            self.plan_hints,
            self.metrics,
        )?;
        let mut d1 = m.clone();
        d1.set_grouping(sk.clone(), Grouping::new(refs_of(space, with_set)));
        let mut d2 = m.clone();
        d2.set_grouping(sk.clone(), Grouping::new(refs_of(space, without_set)));
        let probe_chase = self.metrics.timer("wizard.probe_chase_time").start();
        // d1 and d2 share the probe's source query, so with a delta store
        // the second chase is a pure rederivation of the first's bindings.
        let req = ChaseReq {
            metrics: self.metrics,
            budget: self.budget,
            hints: self.plan_hints,
            delta: self.delta,
        };
        let probe = |m: &Mapping| {
            req.run(
                self.source_schema,
                self.target_schema,
                &example.instance,
                std::slice::from_ref(m),
            )
        };
        let Outcome::Complete(scenario1) = probe(&d1)? else {
            return Ok(None);
        };
        let Outcome::Complete(scenario2) = probe(&d2)? else {
            return Ok(None);
        };
        drop(probe_chase);
        let probed_ref = space.poss[probed].clone();
        let question = std::sync::Arc::new(GroupingQuestion {
            mapping: m.name.clone(),
            sk: sk.clone(),
            probed_name: m.source_ref_name(&probed_ref),
            probed: probed_ref,
            example,
            d1,
            d2,
            scenario1,
            scenario2,
        });
        if let Some((cache, key)) = cached {
            cache.put_grouping(key, &question);
        }
        Ok(Some(question))
    }
}

/// Map an injected fault to the truncation reason it simulates.
pub(crate) fn fault_reason(f: muse_fault::Fault) -> TruncationReason {
    match f {
        muse_fault::Fault::DeadlineExpiry => TruncationReason::DeadlineExpired,
        muse_fault::Fault::TermCapExhaustion => TruncationReason::TermLimit,
        // Wizards own no storage; an io fault (only legal at serve.wal
        // points, which never reach here) degrades like a deadline.
        muse_fault::Fault::IoError => TruncationReason::DeadlineExpired,
    }
}

/// Candidate keys of the poss FD engine, canonicalized to equality-class
/// representatives and de-duplicated: `{c.cid}` and `{p.cid}` are the same
/// key when the satisfy clause equates them.
pub(crate) fn canonical_keys(space: &ClassSpace) -> Vec<AttrSet> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for key in space.fdset.candidate_keys() {
        let canon: AttrSet = iter_attrs(key)
            .map(|i| attrs([space.rep(i)]))
            .fold(0, |a, b| a | b);
        if seen.insert(canon) {
            out.push(canon);
        }
    }
    out
}

/// Convert a poss-index set into references, in poss order.
pub(crate) fn refs_of(space: &ClassSpace, set: AttrSet) -> Vec<PathRef> {
    iter_attrs(set)
        .filter(|&i| i < space.len())
        .map(|i| space.poss[i].clone())
        .collect()
}

impl MuseG<'_> {
    fn record_example(&self, outcome: &mut GroupingOutcome, ex: &Example) {
        if ex.real {
            outcome.real_examples += 1;
            self.metrics.incr("wizard.real_examples");
        } else {
            outcome.synthetic_examples += 1;
            self.metrics.incr("wizard.synthetic_examples");
        }
        if ex.timed_out {
            outcome.real_search_timeouts += 1;
            self.metrics.incr("wizard.real_search_timeouts");
        }
        outcome.example_time += ex.elapsed;
        self.metrics.timer("wizard.example_time").record(ex.elapsed);
    }
}

impl GroupingQuestion {
    /// Render the question the way Fig. 3 does: the example source and the
    /// two candidate targets.
    pub fn render(&self, source_schema: &Schema, target_schema: &Schema) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "[Muse-G] mapping {}, designing SK{}, probing {} ({} example):",
            self.mapping,
            self.sk.label(),
            self.probed_name,
            if self.example.real {
                "real"
            } else {
                "synthetic"
            }
        );
        out.push_str("Example source:\n");
        out.push_str(&muse_nr::display::render(
            source_schema,
            &self.example.instance,
        ));
        out.push_str("Scenario 1 (grouped by it):\n");
        out.push_str(&muse_nr::display::render(target_schema, &self.scenario1));
        out.push_str("Scenario 2 (not grouped by it):\n");
        out.push_str(&muse_nr::display::render(target_schema, &self.scenario2));
        out
    }
}

#[cfg(test)]
mod tests;

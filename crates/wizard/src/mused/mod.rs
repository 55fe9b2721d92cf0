//! **Muse-D** — the disambiguation wizard (Sec. IV).
//!
//! An ambiguous mapping encodes up to `∏ |or-group|` unambiguous mappings.
//! Rather than showing one target instance per interpretation (Yan et
//! al.'s approach, overwhelming already at a handful of groups), Muse-D
//! builds **one** example source instance in which all alternatives carry
//! distinct values, chases its *unambiguous part* into a single partial
//! target, and attaches a small **choice list** to each contested target
//! attribute. Filling in the choices selects the intended interpretation —
//! the number of decisions equals the number of ambiguous attributes, not
//! the number of interpretations.

pub mod joins;

use std::time::Duration;

use muse_chase::ChaseReq;
use muse_lint::ambiguity::alternatives_count;
use muse_mapping::ambiguity::{or_groups, select_multi};
use muse_mapping::{Mapping, PathRef, WhereClause};
use muse_nr::{Constraints, Instance, Schema, Value};
use muse_obs::{faultpoints, Budget, Metrics, Outcome, TruncationReason};

use crate::designer::Designer;
use crate::error::WizardError;
use crate::example::{build_example_with, ClassSpace, Example, ExampleRequest};

/// The disambiguation wizard, configured once per scenario.
#[derive(Debug, Clone, Copy)]
pub struct MuseD<'a> {
    /// Source schema.
    pub source_schema: &'a Schema,
    /// Target schema.
    pub target_schema: &'a Schema,
    /// Source constraints (used when compiling `QIe`).
    pub source_constraints: &'a Constraints,
    /// The designer's source instance, when available.
    pub real_instance: Option<&'a Instance>,
    /// Time budget for the real-example search (Sec. VI).
    pub real_example_budget: Option<Duration>,
    /// Execution budget for question construction. When it truncates the
    /// example search or partial chase, [`MuseD::disambiguate`] skips the
    /// question with a warning and defaults to the first alternative of
    /// every or-group. Defaults to [`Budget::unlimited_ref`].
    pub budget: &'a Budget,
    /// Instrumentation sink (`wizard.*`, plus the query/chase metrics of the
    /// question machinery). Defaults to the no-op handle.
    pub metrics: &'a Metrics,
    /// Optional shared probe-question memo plus the context key covering
    /// everything outside the mapping that determines the question
    /// (scenario and instance identity). Consulted only when `budget` is
    /// unlimited, `real_example_budget` is `None` and no fault plan is
    /// armed — see [`crate::cache::ProbeCache`].
    pub probe_cache: Option<(&'a crate::cache::ProbeCache, &'a str)>,
    /// Key/FD selectivity hints over the source schema: when set, `QIe`
    /// example searches and the partial chase run plan-driven (identical
    /// results, far fewer `query.steps`). [`crate::Session`] derives these
    /// from `source_constraints` automatically.
    pub plan_hints: Option<&'a muse_query::SelectivityHints>,
    /// Incremental chase store: when set, the partial-target chase carries
    /// it in its [`ChaseReq`] (byte-identical output; scratch fallback
    /// under budgets/faults).
    pub delta: Option<&'a muse_chase::DeltaStore>,
}

/// One choice list: the possible values for one ambiguous target attribute.
#[derive(Debug, Clone)]
pub struct ChoiceList {
    /// Display name, e.g. `p1.supervisor`.
    pub target_display: String,
    /// The contested target attribute.
    pub target: PathRef,
    /// The competing source projections.
    pub alternatives: Vec<PathRef>,
    /// The value each alternative takes on the example (aligned with
    /// `alternatives`).
    pub values: Vec<Value>,
}

/// The single question Muse-D asks per ambiguous mapping.
#[derive(Debug, Clone)]
pub struct DisambiguationQuestion {
    /// The ambiguous mapping's name.
    pub mapping: String,
    /// The example source instance.
    pub example: Example,
    /// Chase of the example with the unambiguous part of the mapping
    /// (ambiguous attributes show as labeled nulls — the "blanks").
    pub partial_target: Instance,
    /// One choice list per `or`-group, in `where`-clause order.
    pub choices: Vec<ChoiceList>,
}

/// Result and statistics of one disambiguation.
#[derive(Debug, Clone)]
pub struct DisambiguationOutcome {
    /// The selected unambiguous mapping(s) — several when the designer
    /// picked multiple values in some choice.
    pub selected: Vec<Mapping>,
    /// Number of interpretations the ambiguous mapping encoded.
    pub alternatives_encoded: usize,
    /// Number of choice lists shown (= number of ambiguous attributes).
    pub num_choices: usize,
    /// Tuples in the example source instance.
    pub example_tuples: usize,
    /// Whether the example came from the real source instance.
    pub real: bool,
    /// Time to construct/retrieve the example.
    pub example_time: Duration,
    /// True when the execution budget truncated question construction and
    /// the wizard defaulted to the first alternative of every or-group
    /// instead of asking (a warning is recorded alongside).
    pub defaulted: bool,
    /// Human-readable degradation warnings.
    pub warnings: Vec<String>,
}

impl<'a> MuseD<'a> {
    /// A wizard with no real instance.
    pub fn new(
        source_schema: &'a Schema,
        target_schema: &'a Schema,
        source_constraints: &'a Constraints,
    ) -> Self {
        MuseD {
            source_schema,
            target_schema,
            source_constraints,
            real_instance: None,
            real_example_budget: Some(Duration::from_millis(750)),
            budget: Budget::unlimited_ref(),
            metrics: Metrics::disabled_ref(),
            probe_cache: None,
            plan_hints: None,
            delta: None,
        }
    }

    /// Use a real source instance for example retrieval.
    pub fn with_instance(mut self, inst: &'a Instance) -> Self {
        self.real_instance = Some(inst);
        self
    }

    /// Route the partial-target chase through an incremental chase store.
    pub fn with_delta(mut self, delta: &'a muse_chase::DeltaStore) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Drive question evaluation with static plans derived from `hints`.
    pub fn with_plan_hints(mut self, hints: &'a muse_query::SelectivityHints) -> Self {
        self.plan_hints = Some(hints);
        self
    }

    /// Bound question construction with an execution budget.
    pub fn with_budget(mut self, budget: &'a Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Record wizard/query/chase metrics into `metrics`.
    pub fn with_metrics(mut self, metrics: &'a Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Build the question for an ambiguous mapping without consulting a
    /// designer (used by interactive front-ends and the benchmarks). Errors
    /// with [`WizardError::Truncated`] when the execution budget cuts
    /// question construction short; [`MuseD::disambiguate`] instead degrades
    /// to a defaulted outcome.
    pub fn question(&self, m: &Mapping) -> Result<DisambiguationQuestion, WizardError> {
        match self.try_question(m)? {
            // Unwrap the Arc without copying when the probe cache does not
            // also hold the question (no cache, or a zero-cap one).
            Some(q) => Ok(std::sync::Arc::try_unwrap(q).unwrap_or_else(|q| (*q).clone())),
            None => Err(WizardError::Truncated(format!(
                "disambiguation question for {} exceeded the execution budget",
                m.name
            ))),
        }
    }

    /// Budget-aware question construction: `Ok(None)` means the budget (or
    /// an injected `wizard.probe` fault) truncated the work. `Arc` so a
    /// [`crate::cache::ProbeCache`] hit shares the cached question instead
    /// of deep-copying its example instances.
    fn try_question(
        &self,
        m: &Mapping,
    ) -> Result<Option<std::sync::Arc<DisambiguationQuestion>>, WizardError> {
        let groups = or_groups(m);
        if groups.is_empty() {
            return Err(WizardError::NotAmbiguous(m.name.clone()));
        }
        if let Some(f) = muse_fault::point(faultpoints::WIZARD_PROBE) {
            crate::museg::fault_reason(f).record(self.metrics);
            return Ok(None);
        }
        if self.budget.deadline_expired() {
            TruncationReason::DeadlineExpired.record(self.metrics);
            return Ok(None);
        }
        // On a hit the per-example observability counters
        // (`wizard.real_examples` et al.) are not re-recorded — only the
        // outcome fields, which come from the cached question, matter for
        // the report.
        let cached = match self.probe_cache {
            Some((cache, ctx))
                if crate::cache::replay_safe(self.budget, self.real_example_budget) =>
            {
                let key = crate::cache::disambiguation_key(ctx, m);
                if let Some(q) = cache.get_disambiguation(&key) {
                    self.metrics.incr(cache.hits_key());
                    return Ok(Some(q));
                }
                self.metrics.incr(cache.misses_key());
                Some((cache, key))
            }
            _ => None,
        };
        let space = ClassSpace::new(m, self.source_schema, self.source_constraints)?;

        // All alternative values must be pairwise distinguishable — the
        // inequalities `en1 ≠ en2`, `cn1 ≠ cn2` of Sec. IV-A. Alternatives
        // that the satisfy clause makes equal can never be distinguished and
        // are left equal (their interpretations coincide anyway).
        let mut distinct = Vec::new();
        for (_, alts) in &groups {
            for i in 0..alts.len() {
                for j in i + 1..alts.len() {
                    let (Some(a), Some(b)) = (space.index_of(&alts[i]), space.index_of(&alts[j]))
                    else {
                        continue;
                    };
                    if space.rep(a) != space.rep(b) {
                        distinct.push((a, b));
                    }
                }
            }
        }
        let req = ExampleRequest {
            copies: 1,
            agree: 0,
            differ: vec![],
            distinct,
            // The real-instance search may not outlive the session deadline.
            real_budget: match (self.real_example_budget, self.budget.remaining()) {
                (Some(b), Some(rem)) => Some(b.min(rem)),
                (b, rem) => b.or(rem),
            },
        };
        let example = build_example_with(
            m,
            &space,
            &req,
            self.source_schema,
            self.real_instance,
            self.plan_hints,
            self.metrics,
        )?;
        if example.real {
            self.metrics.incr("wizard.real_examples");
        } else {
            self.metrics.incr("wizard.synthetic_examples");
        }
        if example.timed_out {
            self.metrics.incr("wizard.real_search_timeouts");
        }
        self.metrics
            .timer("wizard.example_time")
            .record(example.elapsed);

        // Partial target: chase with the or-groups dropped — the contested
        // attributes become labeled nulls ("blanks to fill in").
        let mut common = m.clone();
        common
            .wheres
            .retain(|w| matches!(w, WhereClause::Eq { .. }));
        let req = ChaseReq {
            metrics: self.metrics,
            budget: self.budget,
            hints: self.plan_hints,
            delta: self.delta,
        };
        let partial = req.run(
            self.source_schema,
            self.target_schema,
            &example.instance,
            &[common],
        )?;
        let Outcome::Complete(partial_target) = partial else {
            return Ok(None);
        };

        // Choice lists: the value each alternative takes on the example.
        let mut choices = Vec::with_capacity(groups.len());
        for (target, alts) in &groups {
            let mut values = Vec::with_capacity(alts.len());
            for alt in *alts {
                let set = &m.source_vars[alt.var].set;
                let attrs_of = self
                    .source_schema
                    .attributes(set)
                    .map_err(WizardError::Nr)?;
                let pos = attrs_of
                    .iter()
                    .position(|a| a == &alt.attr)
                    .ok_or_else(|| WizardError::BadAnswer(format!("unknown attr {}", alt.attr)))?;
                values.push(example.rows[0][alt.var][pos].clone());
            }
            choices.push(ChoiceList {
                target_display: m.target_ref_name(target),
                target: (*target).clone(),
                alternatives: alts.to_vec(),
                values,
            });
        }

        let question = std::sync::Arc::new(DisambiguationQuestion {
            mapping: m.name.clone(),
            example,
            partial_target,
            choices,
        });
        if let Some((cache, key)) = cached {
            cache.put_disambiguation(key, &question);
        }
        Ok(Some(question))
    }

    /// Disambiguate `m` by asking the designer to fill in the choices.
    ///
    /// When the execution budget truncates question construction, the
    /// question is skipped with a warning and the *first* alternative of
    /// every or-group is selected — a deterministic default the designer
    /// can revisit later (the outcome is marked `defaulted`).
    pub fn disambiguate(
        &self,
        m: &Mapping,
        designer: &mut dyn Designer,
    ) -> Result<DisambiguationOutcome, WizardError> {
        let Some(q) = self.try_question(m)? else {
            let groups = or_groups(m);
            let picks = vec![vec![0usize]; groups.len()];
            let selected = select_multi(m, &picks)?;
            self.metrics.incr("wizard.skipped_questions");
            return Ok(DisambiguationOutcome {
                alternatives_encoded: alternatives_count(m),
                num_choices: groups.len(),
                example_tuples: 0,
                real: false,
                example_time: Duration::ZERO,
                defaulted: true,
                warnings: vec![format!(
                    "{}: disambiguation question skipped (budget exceeded); \
                     defaulted to the first alternative of every or-group",
                    m.name
                )],
                selected,
            });
        };
        self.metrics.incr("wizard.questions");
        let picks = designer.fill_choices(&q)?;
        if picks.len() != q.choices.len() {
            return Err(WizardError::BadAnswer(format!(
                "expected {} choice selections, got {}",
                q.choices.len(),
                picks.len()
            )));
        }
        for (g, p) in picks.iter().enumerate() {
            if p.is_empty() {
                return Err(WizardError::BadAnswer(format!("choice {g} left empty")));
            }
            for &i in p {
                if i >= q.choices[g].values.len() {
                    return Err(WizardError::BadAnswer(format!(
                        "choice {g} has no alternative #{i}"
                    )));
                }
            }
        }
        let selected = select_multi(m, &picks)?;
        Ok(DisambiguationOutcome {
            alternatives_encoded: alternatives_count(m),
            num_choices: q.choices.len(),
            example_tuples: q.example.instance.total_tuples(),
            real: q.example.real,
            example_time: q.example.elapsed,
            defaulted: false,
            warnings: Vec::new(),
            selected,
        })
    }
}

impl DisambiguationQuestion {
    /// Render the question the way Fig. 4(b) does: example source, partial
    /// target, and the choice lists.
    pub fn render(&self, source_schema: &Schema, target_schema: &Schema) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "[Muse-D] mapping {} ({} example):",
            self.mapping,
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
        out.push_str("Partial target instance:\n");
        out.push_str(&muse_nr::display::render(
            target_schema,
            &self.partial_target,
        ));
        out.push_str("Choices:\n");
        for c in &self.choices {
            let vals: Vec<String> = c
                .values
                .iter()
                .map(|v| self.example.instance.store().render_value(v))
                .collect();
            let _ = writeln!(out, "  {} ∈ {{ {} }}", c.target_display, vals.join(" | "));
        }
        out
    }
}

#[cfg(test)]
mod tests;

//! **muse-lint** — static analysis over `(source schema, target schema,
//! constraints, mappings)` bundles.
//!
//! Muse's premise is that Clio-style generated mappings are ambiguous and
//! partially wrong *before* the wizard runs (Secs. I–IV of the paper).
//! Until now the repo discovered such defects at chase/wizard time, as
//! runtime `WizardError`s; this crate turns them into first-class
//! [`Diagnostic`]s a designer (or CI) can act on without running anything.
//!
//! Six passes, run in order over a [`LintInput`]:
//!
//! 1. [`wellformed`] — unbound/unused mapping variables, dangling schema
//!    paths, type-incompatible equalities, duplicate atoms (`MUSE-W…`);
//! 2. [`constraints`] — FDs redundant under closure, keys implied by the
//!    FD closure, referential constraints whose endpoints don't type-check,
//!    mappings not closed under the source constraints (`MUSE-C…`);
//! 3. [`ambiguity`] — per-target-attribute `or`-choice counts, the
//!    worst-case alternative-target-instance count that motivates Muse-D,
//!    and upper/lower bounds on Muse-G questions after key/FD pruning
//!    (`MUSE-A…`);
//! 4. [`grouping`] — grouping/Skolem safety: missing, misplaced, or
//!    ill-argumented grouping functions (`MUSE-G…`);
//! 5. [`plan`] — join-graph shape (cartesian products, dead or
//!    always-false predicates) and each mapping's static evaluation plan
//!    (`MUSE-P…`);
//! 6. [`termination`] — weak acyclicity of the position dependency graph
//!    and static chase-step bounds (`MUSE-T…`), the source of
//!    `Budget::auto` chase budgets.
//!
//! The crate also ships the workspace *self-check* binary
//! (`src/bin/selfcheck.rs`): a zero-dependency scanner enforcing the repo
//! rule that designer-reachable library code never panics
//! (`unwrap`/`expect`/`panic!`), with `// lint:allow(<code>)` as the escape
//! hatch for provably infallible sites.

#![forbid(unsafe_code)]

pub mod ambiguity;
pub mod budget;
pub mod constraints;
pub mod diag;
pub mod explain;
pub mod grouping;
pub mod plan;
pub mod termination;
pub mod wellformed;

pub use diag::{Diagnostic, Severity};

use muse_mapping::Mapping;
use muse_nr::{Constraints, Schema};
use muse_obs::{Json, Metrics};

/// Everything the analyzer looks at: the two schemas, their constraints,
/// and the candidate mappings between them.
#[derive(Debug, Clone, Copy)]
pub struct LintInput<'a> {
    /// Source schema.
    pub source_schema: &'a Schema,
    /// Source keys / FDs / referential constraints.
    pub source_constraints: &'a Constraints,
    /// Target schema.
    pub target_schema: &'a Schema,
    /// Target constraints.
    pub target_constraints: &'a Constraints,
    /// The mappings under analysis.
    pub mappings: &'a [Mapping],
}

/// The analyzer's output: diagnostics in pass order, deterministic for a
/// given input.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of info-severity findings.
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// True when the bundle has no error-severity findings.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Should a run gate fail? Errors always do; warnings only when
    /// `deny_warnings` is set.
    pub fn should_deny(&self, deny_warnings: bool) -> bool {
        self.errors() > 0 || (deny_warnings && self.warnings() > 0)
    }

    /// The stable JSON form: the diagnostics plus a severity tally.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "counts",
                Json::obj(vec![
                    ("error", Json::Int(self.errors() as i64)),
                    ("warning", Json::Int(self.warnings() as i64)),
                    ("info", Json::Int(self.infos() as i64)),
                ]),
            ),
            (
                "diagnostics",
                Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
        ])
    }

    /// Human rendering: one block per finding plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info\n",
            self.errors(),
            self.warnings(),
            self.infos()
        ));
        out
    }
}

/// Run all four passes.
pub fn lint(input: &LintInput) -> LintReport {
    lint_with(input, Metrics::disabled_ref())
}

/// [`lint`] instrumented through `metrics` (the `lint.*` keys:
/// `lint.runs`, `lint.diagnostics`, `lint.errors`, `lint.warnings`, and the
/// `lint.analysis_time` timer).
pub fn lint_with(input: &LintInput, metrics: &Metrics) -> LintReport {
    let mut report = LintReport::default();
    {
        let _span = metrics.timer("lint.analysis_time").start();
        wellformed::check(input, &mut report.diagnostics);
        constraints::check(input, &mut report.diagnostics);
        ambiguity::check(input, &mut report.diagnostics);
        grouping::check(input, &mut report.diagnostics);
        plan::check(input, &mut report.diagnostics);
        termination::check(input, &mut report.diagnostics);
    }
    metrics.incr("lint.runs");
    metrics.add("lint.diagnostics", report.diagnostics.len() as u64);
    metrics.add("lint.errors", report.errors() as u64);
    metrics.add("lint.warnings", report.warnings() as u64);
    report
}

#[cfg(test)]
pub(crate) mod fixtures {
    use muse_mapping::{Mapping, PathRef};
    use muse_nr::{Constraints, Field, ForeignKey, Key, Schema, SetPath, Ty};

    /// The CompDB source schema of Fig. 1.
    pub fn compdb() -> Schema {
        Schema::new(
            "CompDB",
            vec![
                Field::new(
                    "Companies",
                    Ty::set_of(vec![
                        Field::new("cid", Ty::Int),
                        Field::new("cname", Ty::Str),
                        Field::new("location", Ty::Str),
                    ]),
                ),
                Field::new(
                    "Projects",
                    Ty::set_of(vec![
                        Field::new("pid", Ty::Str),
                        Field::new("pname", Ty::Str),
                        Field::new("cid", Ty::Int),
                        Field::new("manager", Ty::Str),
                    ]),
                ),
                Field::new(
                    "Employees",
                    Ty::set_of(vec![
                        Field::new("eid", Ty::Str),
                        Field::new("ename", Ty::Str),
                        Field::new("contact", Ty::Str),
                    ]),
                ),
            ],
        )
        .expect("fixture schema is valid")
    }

    /// The OrgDB target schema of Fig. 1.
    pub fn orgdb() -> Schema {
        Schema::new(
            "OrgDB",
            vec![
                Field::new(
                    "Orgs",
                    Ty::set_of(vec![
                        Field::new("oname", Ty::Str),
                        Field::new(
                            "Projects",
                            Ty::set_of(vec![
                                Field::new("pname", Ty::Str),
                                Field::new("manager", Ty::Str),
                            ]),
                        ),
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
        .expect("fixture schema is valid")
    }

    /// CompDB's constraints: `key(Companies.cid)` plus the two referential
    /// constraints `f1`, `f2` of Fig. 1.
    pub fn compdb_constraints() -> Constraints {
        Constraints {
            keys: vec![Key::new(SetPath::parse("Companies"), vec!["cid"])],
            fds: vec![],
            fks: vec![
                ForeignKey::new(
                    SetPath::parse("Projects"),
                    vec!["cid"],
                    SetPath::parse("Companies"),
                    vec!["cid"],
                ),
                ForeignKey::new(
                    SetPath::parse("Projects"),
                    vec!["manager"],
                    SetPath::parse("Employees"),
                    vec!["eid"],
                ),
            ],
        }
    }

    /// The mapping `m2` of Fig. 1 with the default grouping.
    pub fn m2() -> Mapping {
        let mut m = Mapping::new("m2");
        let c = m.source_var("c", SetPath::parse("Companies"));
        let p = m.source_var("p", SetPath::parse("Projects"));
        let e = m.source_var("e", SetPath::parse("Employees"));
        m.source_eq(PathRef::new(p, "cid"), PathRef::new(c, "cid"));
        m.source_eq(PathRef::new(e, "eid"), PathRef::new(p, "manager"));
        let o = m.target_var("o", SetPath::parse("Orgs"));
        let p1 = m.target_child_var("p1", o, "Projects");
        let e1 = m.target_var("e1", SetPath::parse("Employees"));
        m.target_eq(PathRef::new(p1, "manager"), PathRef::new(e1, "eid"));
        m.where_eq(PathRef::new(c, "cname"), PathRef::new(o, "oname"));
        m.where_eq(PathRef::new(e, "eid"), PathRef::new(e1, "eid"));
        m.where_eq(PathRef::new(e, "ename"), PathRef::new(e1, "ename"));
        m.where_eq(PathRef::new(p, "pname"), PathRef::new(p1, "pname"));
        m.ensure_default_groupings(&orgdb(), &compdb())
            .expect("fixture mapping fills Orgs.Projects");
        m
    }

    /// A [`super::LintInput`] over owned fixture parts.
    pub struct OwnedInput {
        pub source_schema: Schema,
        pub source_constraints: Constraints,
        pub target_schema: Schema,
        pub target_constraints: Constraints,
        pub mappings: Vec<Mapping>,
    }

    impl OwnedInput {
        pub fn fig1(mappings: Vec<Mapping>) -> Self {
            OwnedInput {
                source_schema: compdb(),
                source_constraints: compdb_constraints(),
                target_schema: orgdb(),
                target_constraints: Constraints::none(),
                mappings,
            }
        }

        pub fn as_input(&self) -> super::LintInput<'_> {
            super::LintInput {
                source_schema: &self.source_schema,
                source_constraints: &self.source_constraints,
                target_schema: &self.target_schema,
                target_constraints: &self.target_constraints,
                mappings: &self.mappings,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::OwnedInput;
    use super::*;

    #[test]
    fn fig1_bundle_is_clean() {
        let owned = OwnedInput::fig1(vec![fixtures::m2()]);
        let report = lint(&owned.as_input());
        assert!(report.is_clean(), "unexpected errors:\n{}", report.render());
        assert_eq!(report.warnings(), 0, "{}", report.render());
    }

    #[test]
    fn metrics_record_the_run() {
        let owned = OwnedInput::fig1(vec![fixtures::m2()]);
        let metrics = Metrics::enabled();
        let report = lint_with(&owned.as_input(), &metrics);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("lint.runs"), 1);
        assert_eq!(
            snap.counter("lint.diagnostics"),
            report.diagnostics.len() as u64
        );
        assert!(snap.timer("lint.analysis_time").count >= 1);
    }

    #[test]
    fn report_gates() {
        let mut r = LintReport::default();
        assert!(!r.should_deny(true));
        r.diagnostics
            .push(Diagnostic::warning("MUSE-W006", "p", "dup"));
        assert!(!r.should_deny(false));
        assert!(r.should_deny(true));
        r.diagnostics
            .push(Diagnostic::error("MUSE-W001", "p", "bad"));
        assert!(r.should_deny(false));
        assert!(!r.is_clean());
    }

    #[test]
    fn json_counts_match() {
        let owned = OwnedInput::fig1(vec![fixtures::m2()]);
        let report = lint(&owned.as_input());
        let json = report.to_json().render_pretty();
        let parsed = Json::parse(&json).expect("round-trips");
        match parsed {
            Json::Obj(fields) => {
                assert_eq!(fields[0].0, "counts");
                assert_eq!(fields[1].0, "diagnostics");
            }
            other => panic!("expected object, got {other:?}"),
        }
    }
}

//! A test-only reference for the real-example search: the mapping's
//! `for`-clause bindings B from the evaluator with cloned tuples, compared
//! value by value in a B×B nested loop that keeps the least qualifying row
//! or pair. It shares nothing with the binding table but the evaluator's
//! row order, which is the order the table's ranks refer to.

// Shared by several test targets, each of which uses a part of it.
#![allow(dead_code)]

use muse_suite::cliogen::{desired_grouping, GroupingStrategy};
use muse_suite::mapping::ambiguity::{or_groups, select_multi};
use muse_suite::mapping::Mapping;
use muse_suite::nr::constraints::fdset::{attrs, AttrSet};
use muse_suite::nr::{Constraints, Instance, Schema, Value};
use muse_suite::query::{Binding, EvalReq, Query};
use muse_suite::scenarios::Scenario;
use muse_suite::wizard::designer::{Designer, JoinChoice, ScenarioChoice};
use muse_suite::wizard::example::{ClassSpace, Example, ExampleRequest, Rows};
use muse_suite::wizard::museg::instance_only::inconsequential_attrs;
use muse_suite::wizard::{
    BindingTable, DisambiguationQuestion, GroupingQuestion, JoinQuestion, OracleDesigner, Session,
    WizardError,
};

/// An oracle wanting `strategy` groupings and the first interpretation of
/// every or-group — the designer `muse scenario --strategy` simulates.
pub fn oracle_for(scenario: &Scenario, strategy: GroupingStrategy) -> OracleDesigner<'_> {
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

/// B with every poss column's value per row.
pub struct RefTable {
    rows: Vec<Binding>,
    /// Per poss index: (variable, field index).
    at: Vec<(usize, usize)>,
    /// Row-major hashes of every row's poss values: a cheap first test
    /// before two values are compared (equal values, equal hashes).
    hashes: Vec<u64>,
}

impl RefTable {
    pub fn new(schema: &Schema, inst: &Instance, m: &Mapping, space: &ClassSpace) -> RefTable {
        let rows = EvalReq::default()
            .run(schema, inst, &m.source_query())
            .expect("reference evaluation")
            .into_value();
        let at = space
            .poss
            .iter()
            .map(|r| {
                let field = schema
                    .attr_index(&m.source_vars[r.var].set, &r.attr)
                    .expect("poss attribute");
                (r.var, field)
            })
            .collect::<Vec<(usize, usize)>>();
        let hashes = rows
            .iter()
            .flat_map(|row| {
                at.iter().map(move |&(var, field)| {
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    std::hash::Hash::hash(&row[var][field], &mut h);
                    std::hash::Hasher::finish(&h)
                })
            })
            .collect();
        RefTable { rows, at, hashes }
    }

    /// Do rows `a` and `b` carry equal values in column `c`?
    fn same(&self, a: usize, b: usize, c: usize) -> bool {
        let w = self.at.len();
        self.hashes[a * w + c] == self.hashes[b * w + c] && self.value(a, c) == self.value(b, c)
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    fn value(&self, row: usize, col: usize) -> &Value {
        let (var, field) = self.at[col];
        &self.rows[row][var][field]
    }

    /// The least row (one copy) or least pair (two copies) meeting `req`.
    pub fn pick(&self, space: &ClassSpace, req: &ExampleRequest) -> Option<Vec<usize>> {
        let n = self.rows.len();
        let valid = |r: usize| {
            req.distinct
                .iter()
                .all(|&(a, b)| self.value(r, a) != self.value(r, b))
        };
        if req.copies == 1 {
            return (0..n).find(|&r| valid(r)).map(|r| vec![r]);
        }
        assert_eq!(req.copies, 2, "a real example has one or two copies");
        let agree: Vec<usize> = (0..space.len())
            .filter(|&c| space.rep(c) == c && req.agree & attrs([c]) != 0)
            .collect();
        let mut differ: Vec<usize> = req.differ.iter().map(|&i| space.rep(i)).collect();
        differ.dedup();
        // Rows agreeing on every agree column have equal keys, so testing
        // the key first skips no qualifying pair.
        let w = self.at.len();
        let key: Vec<u64> = (0..n)
            .map(|r| {
                agree.iter().fold(0u64, |k, &c| {
                    k.rotate_left(7) ^ self.hashes[r * w + c].wrapping_mul(0x9e37_79b9_7f4a_7c15)
                })
            })
            .collect();
        for i in (0..n).filter(|&i| valid(i)) {
            for j in (0..n).filter(|&j| key[j] == key[i] && valid(j)) {
                if agree.iter().all(|&c| self.same(i, j, c))
                    && differ.iter().all(|&c| !self.same(i, j, c))
                {
                    return Some(vec![i, j]);
                }
            }
        }
        None
    }

    /// The example rows of `ranks`: per copy, per variable, the atomic
    /// values in field order.
    pub fn rows_of(&self, schema: &Schema, m: &Mapping, ranks: &[usize]) -> Rows {
        ranks
            .iter()
            .map(|&r| {
                m.source_vars
                    .iter()
                    .enumerate()
                    .map(|(vi, v)| {
                        let fields = schema
                            .element_record(&v.set)
                            .unwrap()
                            .rcd_fields()
                            .unwrap()
                            .to_vec();
                        fields
                            .iter()
                            .zip(&self.rows[r][vi])
                            .filter(|(f, _)| f.ty.is_atomic())
                            .map(|(_, val)| val.clone())
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Today's instance-only analysis: the poss indices whose value is
    /// the same in every binding.
    pub fn constant_columns(&self) -> AttrSet {
        let mut out = 0;
        for c in 0..self.at.len() {
            if (1..self.rows.len()).all(|r| self.value(r, c) == self.value(0, c)) {
                out |= attrs([c]);
            }
        }
        out
    }
}

/// Diff one shown example against the reference. Returns whether it was
/// real.
pub fn check_example(
    schema: &Schema,
    cons: &Constraints,
    inst: &Instance,
    m: &Mapping,
    ex: &Example,
    what: &str,
) -> bool {
    let space = ClassSpace::new(m, schema, cons).unwrap();
    let reference = RefTable::new(schema, inst, m, &space);
    check_against(&reference, &space, schema, m, ex, what)
}

/// [`check_example`] against a reference already built for `m`'s `for`
/// clause.
pub fn check_against(
    reference: &RefTable,
    space: &ClassSpace,
    schema: &Schema,
    m: &Mapping,
    ex: &Example,
    what: &str,
) -> bool {
    let picked = reference.pick(space, &ex.request);
    assert_eq!(
        ex.real,
        picked.is_some(),
        "{what}: real-versus-synthetic differs from the reference ({} rows, {:?})",
        reference.len(),
        ex.request
    );
    if let Some(ranks) = picked {
        assert_eq!(ex.ranks, ranks, "{what}: not the least qualifying rows");
        assert_eq!(
            ex.rows,
            reference.rows_of(schema, m, &ranks),
            "{what}: example values differ from the reference rows"
        );
    } else {
        assert!(ex.ranks.is_empty(), "{what}: a synthetic example has ranks");
    }
    ex.real
}

/// Wraps a designer and diffs every example it is shown.
pub struct Checking<'a, D> {
    pub inner: D,
    pub scenario: &'a Scenario,
    pub instance: &'a Instance,
    /// The session's input mappings (Muse-D questions name one).
    pub mappings: &'a [Mapping],
    pub probes: usize,
    pub real: usize,
    /// The reference of the most recent `for` clause.
    last: Option<(Query, ClassSpace, RefTable)>,
}

impl<D> Checking<'_, D> {
    fn check(&mut self, m: &Mapping, ex: &Example, what: &str) {
        let s = self.scenario;
        let query = m.source_query();
        if self.last.as_ref().is_none_or(|(q, _, _)| *q != query) {
            let space = ClassSpace::new(m, &s.source_schema, &s.source_constraints).unwrap();
            let reference = RefTable::new(&s.source_schema, self.instance, m, &space);
            self.last = Some((query, space, reference));
        }
        let (_, space, reference) = self.last.as_ref().unwrap();
        let real = check_against(reference, space, &s.source_schema, m, ex, what);
        self.real += usize::from(real);
        self.probes += 1;
    }
}

impl<D: Designer> Designer for Checking<'_, D> {
    fn pick_scenario(&mut self, q: &GroupingQuestion) -> Result<ScenarioChoice, WizardError> {
        let what = format!(
            "{}/{} SK{} {}",
            self.scenario.name, q.mapping, q.sk, q.probed_name
        );
        self.check(&q.d1, &q.example, &what);
        self.inner.pick_scenario(q)
    }

    fn fill_choices(&mut self, q: &DisambiguationQuestion) -> Result<Vec<Vec<usize>>, WizardError> {
        let m = self
            .mappings
            .iter()
            .find(|m| m.name == q.mapping)
            .expect("the question's mapping");
        let what = format!("{}/{} (Muse-D)", self.scenario.name, q.mapping);
        self.check(m, &q.example, &what);
        self.inner.fill_choices(q)
    }

    fn pick_join(&mut self, q: &JoinQuestion) -> Result<JoinChoice, WizardError> {
        self.inner.pick_join(q)
    }
}

/// Run `designer`'s session over `s` on `inst` with every example diffed
/// against the reference. Returns (probes checked, real examples).
pub fn check_session<D: Designer>(s: &Scenario, inst: &Instance, designer: D) -> (usize, usize) {
    let mappings = s.mappings().unwrap();
    let mut checking = Checking {
        inner: designer,
        scenario: s,
        instance: inst,
        mappings: &mappings,
        probes: 0,
        real: 0,
        last: None,
    };
    Session::new(&s.source_schema, &s.target_schema, &s.source_constraints)
        .with_real_example_budget(None)
        .with_instance(inst)
        .run(&mappings, &mut checking)
        .unwrap_or_else(|e| panic!("{}: session failed: {e}", s.name));
    (checking.probes, checking.real)
}

/// The instance-only analysis read off the binding table equals today's
/// over every mapping of `mappings`.
pub fn check_instance_only(s: &Scenario, inst: &Instance, mappings: &[Mapping]) {
    for m in mappings {
        let space = ClassSpace::new(m, &s.source_schema, &s.source_constraints).unwrap();
        let table =
            BindingTable::build(m, &space, &s.source_schema, inst, &EvalReq::default()).unwrap();
        let reference = RefTable::new(&s.source_schema, inst, m, &space);
        assert_eq!(
            inconsequential_attrs(table.as_ref()),
            reference.constant_columns(),
            "{}/{}: instance-only analysis differs from today's",
            s.name,
            m.name
        );
    }
}

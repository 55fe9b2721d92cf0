//! Construction of the small data examples both wizards show the designer.
//!
//! An example request says, over the attribute references of `poss(m, SK)`:
//! which must *agree* across the two copies of the `for`-clause binding,
//! which must *differ* (the probed attribute), and which pairs must be
//! mutually *distinct* within a copy (Muse-D's alternatives). Muse first
//! compiles the request into the query `QIe` and runs it against the real
//! source instance; when no real tuples qualify it falls back to a
//! synthetic instance built from fresh constants (Sec. III-A).
//!
//! The [`ClassSpace`] pre-computes, for one mapping: the `poss` reference
//! list, the equality classes induced by the `satisfy` clause (two
//! references in one class always carry the same value), and the FD engine
//! over `poss` that combines the source keys/FDs of every variable with
//! those equalities. Keeping agree-sets closed under this engine is what
//! guarantees every constructed example is valid for the source constraints
//! (Sec. III-B).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use muse_mapping::poss::all_source_refs;
use muse_mapping::{Mapping, PathRef};
use muse_nr::constraints::fdset::{attrs, AttrSet, FdSet};
use muse_nr::{Constraints, Instance, Schema, SetPath, Tuple, Ty, Value};
use muse_obs::{Budget, Metrics};
use muse_query::{EvalReq, Operand, Query, SelectivityHints};

use crate::error::WizardError;

/// Binding rows: `rows[copy][var]` = a variable's atomic values in order.
pub type Rows = Vec<Vec<Vec<Value>>>;

/// Per-set FDs as (lhs labels, rhs labels) pairs.
type SetFds = BTreeMap<SetPath, Vec<(Vec<String>, Vec<String>)>>;

/// The reference/class structure of one mapping's source side.
#[derive(Debug, Clone)]
pub struct ClassSpace {
    /// `poss(m, ·)`: every atomic source reference, in canonical order.
    pub poss: Vec<PathRef>,
    /// Class representative (a poss index) per poss index.
    rep: Vec<usize>,
    /// FD engine over poss indices: per-variable keys/FDs plus the
    /// equality classes (as two-way FDs).
    pub fdset: FdSet,
    /// Whether each reference's attribute is integer-typed.
    is_int: Vec<bool>,
}

impl ClassSpace {
    /// Analyze `m` against the source schema and constraints.
    pub fn new(
        m: &Mapping,
        source_schema: &Schema,
        cons: &Constraints,
    ) -> Result<Self, WizardError> {
        let poss = all_source_refs(m, source_schema)?;
        let n = poss.len();
        if n > 128 {
            return Err(WizardError::TooManyAttributes(n));
        }
        let mut index: BTreeMap<(usize, String), usize> = BTreeMap::new();
        for (i, r) in poss.iter().enumerate() {
            index.insert((r.var, r.attr.clone()), i);
        }
        let idx_of =
            |r: &PathRef| -> Option<usize> { index.get(&(r.var, r.attr.clone())).copied() };

        // Union-find over poss indices, seeded by the satisfy equalities.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let union = |parent: &mut [usize], a: usize, b: usize| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                // Keep the smaller index as representative.
                let (lo, hi) = (ra.min(rb), ra.max(rb));
                parent[hi] = lo;
            }
        };
        for (a, b) in &m.source_eqs {
            if let (Some(ia), Some(ib)) = (idx_of(a), idx_of(b)) {
                union(&mut parent, ia, ib);
            }
        }

        // Inter-variable FD propagation: two variables over the same set
        // whose FD determinants fall in the same classes must have their
        // determined attributes merged as well, or a constructed instance
        // could violate the FD between the *two variables'* tuples.
        let per_set_fds: SetFds = {
            let mut map: SetFds = BTreeMap::new();
            for v in &m.source_vars {
                if !map.contains_key(&v.set) {
                    let fds = cons
                        .all_fds_of(source_schema, &v.set)
                        .map_err(WizardError::Nr)?
                        .into_iter()
                        .map(|f| (f.lhs, f.rhs))
                        .collect();
                    map.insert(v.set.clone(), fds);
                }
            }
            map
        };
        loop {
            let mut changed = false;
            for (vi, v) in m.source_vars.iter().enumerate() {
                for (wi, w) in m.source_vars.iter().enumerate() {
                    if vi == wi || v.set != w.set {
                        continue;
                    }
                    for (lhs, rhs) in &per_set_fds[&v.set] {
                        let aligned = lhs.iter().all(|a| {
                            match (
                                idx_of(&PathRef::new(vi, a.clone())),
                                idx_of(&PathRef::new(wi, a.clone())),
                            ) {
                                (Some(x), Some(y)) => find(&mut parent, x) == find(&mut parent, y),
                                _ => false,
                            }
                        });
                        if !aligned {
                            continue;
                        }
                        for r in rhs {
                            if let (Some(x), Some(y)) = (
                                idx_of(&PathRef::new(vi, r.clone())),
                                idx_of(&PathRef::new(wi, r.clone())),
                            ) {
                                if find(&mut parent, x) != find(&mut parent, y) {
                                    union(&mut parent, x, y);
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let rep: Vec<usize> = (0..n).map(|i| find(&mut parent, i)).collect();

        // FD engine: per-variable FDs plus equality classes as two-way FDs.
        let mut fdset = FdSet::new(n);
        for (vi, v) in m.source_vars.iter().enumerate() {
            for (lhs, rhs) in &per_set_fds[&v.set] {
                let l: Vec<usize> = lhs
                    .iter()
                    .filter_map(|a| idx_of(&PathRef::new(vi, a.clone())))
                    .collect();
                let r: Vec<usize> = rhs
                    .iter()
                    .filter_map(|a| idx_of(&PathRef::new(vi, a.clone())))
                    .collect();
                if l.len() == lhs.len() && !r.is_empty() {
                    fdset.add(attrs(l), attrs(r));
                }
            }
        }
        for (i, &r) in rep.iter().enumerate() {
            if r != i {
                fdset.add(attrs([i]), attrs([r]));
                fdset.add(attrs([r]), attrs([i]));
            }
        }

        // Attribute types, for generating well-typed synthetic constants.
        let mut is_int = Vec::with_capacity(n);
        for r in &poss {
            let set = &m.source_vars[r.var].set;
            let rcd = source_schema.element_record(set).map_err(WizardError::Nr)?;
            let ty = rcd.field(&r.attr).map(|f| &f.ty);
            is_int.push(matches!(ty, Some(Ty::Int)));
        }

        Ok(ClassSpace {
            poss,
            rep,
            fdset,
            is_int,
        })
    }

    /// Class representative of a poss index.
    pub fn rep(&self, i: usize) -> usize {
        self.rep[i]
    }

    /// Index of a reference in `poss`.
    pub fn index_of(&self, r: &PathRef) -> Option<usize> {
        self.poss.iter().position(|p| p == r)
    }

    /// Closure of a poss-index set under the FD engine.
    pub fn closure(&self, set: AttrSet) -> AttrSet {
        self.fdset.closure(set)
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.poss.len()
    }

    /// True when the mapping has no source references at all.
    pub fn is_empty(&self) -> bool {
        self.poss.is_empty()
    }
}

/// What an example must exhibit.
#[derive(Debug, Clone, Default)]
pub struct ExampleRequest {
    /// Number of `for`-clause copies (2 for Muse-G probes, 1 for Muse-D).
    pub copies: usize,
    /// Poss indices whose values must agree across copies. Callers must
    /// pass a closure-closed set (see [`ClassSpace::closure`]).
    pub agree: AttrSet,
    /// Poss indices whose values must differ across copies (the probed
    /// attribute's class).
    pub differ: Vec<usize>,
    /// Pairs of poss indices that must carry distinct values within every
    /// copy (Muse-D alternative values).
    pub distinct: Vec<(usize, usize)>,
    /// Time budget for searching the real instance; on expiry Muse falls
    /// back to a synthetic example ("if a real example was not found after
    /// a fixed amount of time", Sec. VI). `None` searches exhaustively.
    pub real_budget: Option<Duration>,
}

/// A constructed example: the instance plus the underlying binding rows
/// (`rows[copy][var]` = that variable's atomic values, in attribute order),
/// whether it came from real data, and how long retrieval took.
#[derive(Debug, Clone)]
pub struct Example {
    /// The example source instance `Ie`.
    pub instance: Instance,
    /// Atomic values per copy per variable.
    pub rows: Rows,
    /// True when drawn from the real source instance via `QIe`.
    pub real: bool,
    /// True when the real-instance search hit its time budget (and the
    /// example is therefore synthetic).
    pub timed_out: bool,
    /// Time spent constructing (and, for real examples, querying).
    pub elapsed: Duration,
}

/// Build an example: try the real instance first (when given), fall back to
/// synthetic constants.
pub fn build_example(
    m: &Mapping,
    space: &ClassSpace,
    req: &ExampleRequest,
    source_schema: &Schema,
    real_instance: Option<&Instance>,
) -> Result<Example, WizardError> {
    build_example_with(
        m,
        space,
        req,
        source_schema,
        real_instance,
        None,
        &Metrics::disabled(),
    )
}

/// [`build_example`] with the real-instance search (`QIe`) instrumented
/// through `metrics` (the `query.*` keys) and, when `hints` is given,
/// planned by the evaluator (composite key-aware hash probes — identical
/// results, far fewer `query.steps`; see [`EvalReq::hints`]).
#[allow(clippy::too_many_arguments)]
pub fn build_example_with(
    m: &Mapping,
    space: &ClassSpace,
    req: &ExampleRequest,
    source_schema: &Schema,
    real_instance: Option<&Instance>,
    hints: Option<&SelectivityHints>,
    metrics: &Metrics,
) -> Result<Example, WizardError> {
    let start = Instant::now();
    let mut timed_out = false;
    if let Some(real) = real_instance {
        let deadline = req.real_budget.map(|b| start + b);
        let (rows, cut_short) =
            query_real(m, space, req, source_schema, real, hints, deadline, metrics)?;
        timed_out = cut_short;
        if let Some(rows) = rows {
            let instance = materialize(m, source_schema, &rows)?;
            return Ok(Example {
                instance,
                rows,
                real: true,
                timed_out: false,
                elapsed: start.elapsed(),
            });
        }
    }
    let rows = synthetic_rows(m, space, req, source_schema)?;
    let instance = materialize(m, source_schema, &rows)?;
    Ok(Example {
        instance,
        rows,
        real: false,
        timed_out,
        elapsed: start.elapsed(),
    })
}

/// Synthetic binding rows: one value per (class, copy), agreeing classes
/// share a value across copies, everything else pairwise distinct.
fn synthetic_rows(
    m: &Mapping,
    space: &ClassSpace,
    req: &ExampleRequest,
    source_schema: &Schema,
) -> Result<Rows, WizardError> {
    let value_for = |i: usize, copy: usize| -> Value {
        let rep = space.rep(i);
        let agrees = req.agree & attrs([i]) != 0 || req.agree & attrs([rep]) != 0;
        let k = if agrees { 0 } else { copy };
        if space.is_int[rep] {
            Value::int((10 + rep as i64) * 10 + k as i64)
        } else {
            // The class representative index keeps values of *different*
            // classes distinct even when their attribute labels coincide
            // (e.g. `e1.ename` vs `e2.ename` in Fig. 4).
            Value::str(format!(
                "{}{}{}",
                synth_name(&space.poss[rep].attr),
                rep,
                (b'a' + k as u8) as char
            ))
        }
    };
    let mut rows = Vec::with_capacity(req.copies);
    for copy in 0..req.copies {
        let mut per_var = Vec::with_capacity(m.source_vars.len());
        for (vi, v) in m.source_vars.iter().enumerate() {
            let attrs_of = source_schema.attributes(&v.set).map_err(WizardError::Nr)?;
            let mut vals = Vec::with_capacity(attrs_of.len());
            for a in &attrs_of {
                // poss is every attribute of every source variable
                // (all_source_refs), and this loop walks exactly those,
                // so the lookup cannot miss.
                let i = space
                    .index_of(&PathRef::new(vi, a.clone()))
                    // lint:allow(SC002)
                    .expect("poss covers all source attributes");
                vals.push(value_for(i, copy));
            }
            per_var.push(vals);
        }
        rows.push(per_var);
    }
    Ok(rows)
}

/// A readable stem for synthetic values: `cname` → `cname-`.
fn synth_name(attr: &str) -> String {
    format!("{attr}-")
}

/// Compile `QIe` and run it against the real source instance.
#[allow(clippy::too_many_arguments)]
fn query_real(
    m: &Mapping,
    space: &ClassSpace,
    req: &ExampleRequest,
    source_schema: &Schema,
    real: &Instance,
    hints: Option<&SelectivityHints>,
    deadline: Option<Instant>,
    metrics: &Metrics,
) -> Result<(Option<Rows>, bool), WizardError> {
    let n = m.source_vars.len();
    let mut q = Query::new();
    for copy in 0..req.copies {
        for v in &m.source_vars {
            match &v.parent {
                None => {
                    q.var(format!("{}#{copy}", v.name), v.set.clone());
                }
                Some((p, field)) => {
                    q.child_var(format!("{}#{copy}", v.name), copy * n + p, field.clone());
                }
            }
        }
        for (a, b) in &m.source_eqs {
            q.add_eq(
                Operand::proj(copy * n + a.var, a.attr.clone()),
                Operand::proj(copy * n + b.var, b.attr.clone()),
            );
        }
    }
    if req.copies == 2 {
        // Cross-copy agreement: one equality per agreeing class.
        let mut done = std::collections::BTreeSet::new();
        for i in 0..space.len() {
            let rep = space.rep(i);
            if req.agree & attrs([rep]) != 0 && done.insert(rep) {
                let r = &space.poss[rep];
                q.add_eq(
                    Operand::proj(r.var, r.attr.clone()),
                    Operand::proj(n + r.var, r.attr.clone()),
                );
            }
        }
        // Cross-copy disagreement on the probed classes.
        let mut done = std::collections::BTreeSet::new();
        for &i in &req.differ {
            let rep = space.rep(i);
            if done.insert(rep) {
                let r = &space.poss[rep];
                q.add_neq(
                    Operand::proj(r.var, r.attr.clone()),
                    Operand::proj(n + r.var, r.attr.clone()),
                );
            }
        }
    }
    // Within-copy distinctness (Muse-D alternatives).
    for &(i, j) in &req.distinct {
        let (ri, rj) = (&space.poss[i], &space.poss[j]);
        for copy in 0..req.copies {
            q.add_neq(
                Operand::proj(copy * n + ri.var, ri.attr.clone()),
                Operand::proj(copy * n + rj.var, rj.attr.clone()),
            );
        }
    }

    // The first match is the example. With hints the evaluator probes
    // composite hash keys, but a limited search keeps the plan-less binding
    // order, so the match (and the transcript) is the same either way.
    let budget = match deadline {
        Some(at) => Budget::unlimited().with_deadline(at),
        None => Budget::unlimited(),
    };
    let eval = EvalReq {
        metrics,
        budget: &budget,
        hints,
        limit: Some(1),
    };
    let (result, cut_short) = eval.run(source_schema, real, &q)?.into_parts();
    let timed_out = cut_short.is_some();
    let Some(binding) = result.into_iter().next() else {
        return Ok((None, timed_out));
    };
    // Flatten to atomic values per (copy, var).
    let mut rows = Vec::with_capacity(req.copies);
    for copy in 0..req.copies {
        let mut per_var = Vec::with_capacity(n);
        for (vi, v) in m.source_vars.iter().enumerate() {
            let rcd = source_schema
                .element_record(&v.set)
                .map_err(WizardError::Nr)?;
            let Some(fields) = rcd.rcd_fields() else {
                return Err(WizardError::MalformedExample(format!(
                    "element of {} is not a record",
                    v.set
                )));
            };
            let tuple = &binding[copy * n + vi];
            let vals: Vec<Value> = fields
                .iter()
                .zip(tuple)
                .filter(|(f, _)| f.ty.is_atomic())
                .map(|(_, v)| v.clone())
                .collect();
            per_var.push(vals);
        }
        rows.push(per_var);
    }
    Ok((Some(rows), false))
}

/// Materialize binding rows into a fresh instance: top-level tuples go into
/// their root sets; nested variables' tuples go into per-parent sets whose
/// SetIDs are keyed by the parent's atomic values (identical parents across
/// copies therefore share their nested sets, as they must).
pub fn materialize(
    m: &Mapping,
    source_schema: &Schema,
    rows: &[Vec<Vec<Value>>],
) -> Result<Instance, WizardError> {
    let mut inst = Instance::new(source_schema);
    for per_var in rows {
        // SetIds of each variable's set-typed fields, per variable.
        let mut field_sets: Vec<BTreeMap<String, muse_nr::SetId>> = Vec::new();
        for (vi, v) in m.source_vars.iter().enumerate() {
            let rcd = source_schema
                .element_record(&v.set)
                .map_err(WizardError::Nr)?;
            let fields = rcd
                .rcd_fields()
                .ok_or_else(|| {
                    WizardError::MalformedExample(format!("element of {} is not a record", v.set))
                })?
                .to_vec();
            // SetIDs for this tuple's set fields, keyed by atomic values.
            let mut my_sets = BTreeMap::new();
            for f in &fields {
                if f.ty.is_set() {
                    let id = inst.group(v.set.child(&f.label), per_var[vi].clone());
                    my_sets.insert(f.label.clone(), id);
                }
            }
            // Assemble the full tuple in field order.
            let mut atomic_iter = per_var[vi].iter();
            let mut tuple: Tuple = Vec::with_capacity(fields.len());
            for f in &fields {
                if f.ty.is_set() {
                    tuple.push(Value::Set(my_sets[&f.label]));
                } else {
                    let Some(val) = atomic_iter.next() else {
                        return Err(WizardError::MalformedExample(format!(
                            "row for variable {} is shorter than its atomic fields",
                            v.name
                        )));
                    };
                    tuple.push(val.clone());
                }
            }
            // Insert into root or into the parent's set.
            match &v.parent {
                None => {
                    let id = inst.root_id(v.set.label()).ok_or_else(|| {
                        WizardError::MalformedExample(format!(
                            "instance has no root set {}",
                            v.set.label()
                        ))
                    })?;
                    inst.insert(id, tuple);
                }
                Some((p, field)) => {
                    let id = field_sets[*p][field];
                    inst.insert(id, tuple);
                }
            }
            field_sets.push(my_sets);
        }
    }
    inst.validate(source_schema).map_err(WizardError::Nr)?;
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_mapping::parse_one;
    use muse_nr::{Field, InstanceBuilder, Key};

    fn compdb() -> Schema {
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
        .unwrap()
    }

    fn orgdb() -> Schema {
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
        .unwrap()
    }

    fn m2() -> Mapping {
        let mut m = parse_one(
            "m2: for c in CompDB.Companies, p in CompDB.Projects, e in CompDB.Employees
                 satisfy p.cid = c.cid and e.eid = p.manager
                 exists o in OrgDB.Orgs, p1 in o.Projects, e1 in OrgDB.Employees
                 satisfy p1.manager = e1.eid
                 where c.cname = o.oname and e.eid = e1.eid and e.ename = e1.ename
                   and p.pname = p1.pname",
        )
        .unwrap();
        m.ensure_default_groupings(&orgdb(), &compdb()).unwrap();
        m
    }

    fn keyed_constraints() -> Constraints {
        Constraints {
            keys: vec![
                Key::new(SetPath::parse("Companies"), vec!["cid"]),
                Key::new(SetPath::parse("Projects"), vec!["pid"]),
                Key::new(SetPath::parse("Employees"), vec!["eid"]),
            ],
            fds: vec![],
            fks: vec![],
        }
    }

    #[test]
    fn class_space_merges_satisfy_equalities() {
        let m = m2();
        let space = ClassSpace::new(&m, &compdb(), &Constraints::none()).unwrap();
        assert_eq!(space.len(), 10);
        let c_cid = space.index_of(&PathRef::new(0, "cid")).unwrap();
        let p_cid = space.index_of(&PathRef::new(1, "cid")).unwrap();
        let p_mgr = space.index_of(&PathRef::new(1, "manager")).unwrap();
        let e_eid = space.index_of(&PathRef::new(2, "eid")).unwrap();
        assert_eq!(space.rep(c_cid), space.rep(p_cid));
        assert_eq!(space.rep(p_mgr), space.rep(e_eid));
        assert_ne!(space.rep(c_cid), space.rep(e_eid));
    }

    #[test]
    fn keyed_space_has_single_candidate_key() {
        let m = m2();
        let space = ClassSpace::new(&m, &compdb(), &keyed_constraints()).unwrap();
        let keys = space.fdset.candidate_keys();
        // p.pid determines everything: pid → (pname, cid, manager) →
        // (company attrs via cid, employee attrs via manager=eid).
        let p_pid = space.index_of(&PathRef::new(1, "pid")).unwrap();
        assert_eq!(keys, vec![attrs([p_pid])]);
    }

    #[test]
    fn synthetic_probe_example_matches_fig3a_shape() {
        // Probing c.cid with everything else agreeing: two Companies rows
        // that differ on cid only; Projects/Employees rows differ only where
        // the probe forces them to (nothing here), so each relation has at
        // most two tuples — the Fig. 3(a) shape.
        let m = m2();
        let space = ClassSpace::new(&m, &compdb(), &Constraints::none()).unwrap();
        let c_cid = space.index_of(&PathRef::new(0, "cid")).unwrap();
        let all: AttrSet = muse_nr::constraints::fdset::all_attrs(space.len());
        let agree =
            space.closure(all & !attrs([c_cid, space.index_of(&PathRef::new(1, "cid")).unwrap()]));
        let req = ExampleRequest {
            copies: 2,
            agree,
            differ: vec![c_cid],
            distinct: vec![],
            real_budget: None,
        };
        let ex = build_example(&m, &space, &req, &compdb(), None).unwrap();
        assert!(!ex.real);
        ex.instance.validate(&compdb()).unwrap();
        let comps = ex.instance.root_id("Companies").unwrap();
        assert_eq!(ex.instance.set_len(comps), 2);
        // Companies tuples differ on cid (position 0), agree elsewhere.
        let tuples: Vec<&Tuple> = ex.instance.tuples(comps).collect();
        assert_ne!(tuples[0][0], tuples[1][0]);
        assert_eq!(tuples[0][1], tuples[1][1]);
        assert_eq!(tuples[0][2], tuples[1][2]);
    }

    #[test]
    fn synthetic_examples_respect_keys() {
        // Probing cname with cid agreeing would violate key(cid); the agree
        // set must therefore be closed: closure({cid,...}) forces everything
        // to agree, contradicting the probe. The planner avoids that by
        // probing the key first; here we check the machinery: a correctly
        // closed request yields a key-valid instance.
        let m = m2();
        let cons = keyed_constraints();
        let space = ClassSpace::new(&m, &compdb(), &cons).unwrap();
        let c_cname = space.index_of(&PathRef::new(0, "cname")).unwrap();
        // Agree on location only (its closure adds nothing).
        let c_loc = space.index_of(&PathRef::new(0, "location")).unwrap();
        let agree = space.closure(attrs([c_loc]));
        let req = ExampleRequest {
            copies: 2,
            agree,
            differ: vec![c_cname],
            distinct: vec![],
            real_budget: None,
        };
        let ex = build_example(&m, &space, &req, &compdb(), None).unwrap();
        cons.validate_instance(&compdb(), &ex.instance).unwrap();
    }

    fn real_instance() -> Instance {
        let s = compdb();
        let mut b = InstanceBuilder::new(&s);
        // Two IBM companies at the same location with different cids (the
        // Fig. 3(a) real example), plus distinct projects/managers.
        b.push_top(
            "Companies",
            vec![Value::int(11), Value::str("IBM"), Value::str("NY")],
        );
        b.push_top(
            "Companies",
            vec![Value::int(12), Value::str("IBM"), Value::str("NY")],
        );
        b.push_top(
            "Companies",
            vec![Value::int(14), Value::str("SBC"), Value::str("NY")],
        );
        b.push_top(
            "Projects",
            vec![
                Value::str("P1"),
                Value::str("DB"),
                Value::int(11),
                Value::str("e4"),
            ],
        );
        b.push_top(
            "Projects",
            vec![
                Value::str("P2"),
                Value::str("Web"),
                Value::int(12),
                Value::str("e5"),
            ],
        );
        b.push_top(
            "Projects",
            vec![
                Value::str("P4"),
                Value::str("WiFi"),
                Value::int(14),
                Value::str("e6"),
            ],
        );
        b.push_top(
            "Employees",
            vec![Value::str("e4"), Value::str("Jon"), Value::str("x234")],
        );
        b.push_top(
            "Employees",
            vec![Value::str("e5"), Value::str("Anna"), Value::str("x888")],
        );
        b.push_top(
            "Employees",
            vec![Value::str("e6"), Value::str("Kat"), Value::str("x331")],
        );
        b.finish().unwrap()
    }

    #[test]
    fn real_example_found_when_data_supports_it() {
        // Probe on cid: need two companies agreeing on cname+location with
        // different cids — rows 11/12 qualify.
        let m = m2();
        let space = ClassSpace::new(&m, &compdb(), &Constraints::none()).unwrap();
        let c_cid = space.index_of(&PathRef::new(0, "cid")).unwrap();
        let c_cname = space.index_of(&PathRef::new(0, "cname")).unwrap();
        let c_loc = space.index_of(&PathRef::new(0, "location")).unwrap();
        let agree = space.closure(attrs([c_cname, c_loc]));
        let req = ExampleRequest {
            copies: 2,
            agree,
            differ: vec![c_cid],
            distinct: vec![],
            real_budget: None,
        };
        let real = real_instance();
        let ex = build_example(&m, &space, &req, &compdb(), Some(&real)).unwrap();
        assert!(ex.real, "a real example exists in the instance");
        ex.instance.validate(&compdb()).unwrap();
        let comps = ex.instance.root_id("Companies").unwrap();
        let names: Vec<&Value> = ex.instance.tuples(comps).map(|t| &t[1]).collect();
        assert!(names.iter().all(|v| **v == Value::str("IBM")));
    }

    #[test]
    fn falls_back_to_synthetic_when_no_real_example() {
        // Probe on cname with cid agreeing: no two companies share a cid,
        // so no real example exists; Muse falls back to synthetic (the
        // paper's key feature beyond Yan et al.).
        let m = m2();
        let space = ClassSpace::new(&m, &compdb(), &Constraints::none()).unwrap();
        let c_cid = space.index_of(&PathRef::new(0, "cid")).unwrap();
        let c_cname = space.index_of(&PathRef::new(0, "cname")).unwrap();
        let agree = space.closure(attrs([c_cid]));
        let req = ExampleRequest {
            copies: 2,
            agree,
            differ: vec![c_cname],
            distinct: vec![],
            real_budget: None,
        };
        let real = real_instance();
        let ex = build_example(&m, &space, &req, &compdb(), Some(&real)).unwrap();
        assert!(!ex.real);
        ex.instance.validate(&compdb()).unwrap();
    }

    #[test]
    fn single_copy_example_for_mused() {
        let m = m2();
        let space = ClassSpace::new(&m, &compdb(), &Constraints::none()).unwrap();
        let req = ExampleRequest {
            copies: 1,
            agree: 0,
            differ: vec![],
            distinct: vec![],
            real_budget: None,
        };
        let ex = build_example(&m, &space, &req, &compdb(), None).unwrap();
        // One tuple per relation.
        for root in ["Companies", "Projects", "Employees"] {
            let id = ex.instance.root_id(root).unwrap();
            assert_eq!(ex.instance.set_len(id), 1, "{root}");
        }
        // The satisfy equalities hold inside the copy.
        let projs = ex.instance.root_id("Projects").unwrap();
        let comps = ex.instance.root_id("Companies").unwrap();
        let p = ex.instance.tuples(projs).next().unwrap().clone();
        let c = ex.instance.tuples(comps).next().unwrap().clone();
        assert_eq!(p[2], c[0], "p.cid = c.cid");
    }

    #[test]
    fn nested_source_vars_materialize_under_parents() {
        let src = Schema::new(
            "S",
            vec![Field::new(
                "Depts",
                Ty::set_of(vec![
                    Field::new("dname", Ty::Str),
                    Field::new("Staff", Ty::set_of(vec![Field::new("sname", Ty::Str)])),
                ]),
            )],
        )
        .unwrap();
        let tgt = Schema::new(
            "T",
            vec![Field::new(
                "People",
                Ty::set_of(vec![Field::new("name", Ty::Str)]),
            )],
        )
        .unwrap();
        let m = parse_one(
            "m: for d in S.Depts, s in d.Staff
                exists p in T.People
                where s.sname = p.name",
        )
        .unwrap();
        m.validate(&src, &tgt).unwrap();
        let space = ClassSpace::new(&m, &src, &Constraints::none()).unwrap();
        let d_name = space.index_of(&PathRef::new(0, "dname")).unwrap();
        let s_name = space.index_of(&PathRef::new(1, "sname")).unwrap();
        // Agree on dname, differ on sname: one department, two staff.
        let req = ExampleRequest {
            copies: 2,
            agree: space.closure(attrs([d_name])),
            differ: vec![s_name],
            distinct: vec![],
            real_budget: None,
        };
        let ex = build_example(&m, &space, &req, &src, None).unwrap();
        ex.instance.validate(&src).unwrap();
        let depts = ex.instance.root_id("Depts").unwrap();
        assert_eq!(ex.instance.set_len(depts), 1, "identical parents merge");
        let staff_sets = ex.instance.set_ids_of(&SetPath::parse("Depts.Staff"));
        assert_eq!(staff_sets.len(), 1);
        assert_eq!(
            ex.instance.set_len(staff_sets[0]),
            2,
            "two staff in the shared set"
        );
    }
}

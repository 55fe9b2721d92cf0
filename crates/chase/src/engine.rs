//! The chase proper: evaluate each mapping's `for` clause, instantiate its
//! `exists` clause, group nested sets through their Skolem functions, and
//! union the results (set semantics).
//!
//! There is one serial engine and one entry point. [`chase`] and
//! [`chase_one`] are the plain forms; everything else — metrics, a budget,
//! planner hints, an incremental [`DeltaStore`] — is a field of a
//! [`ChaseReq`], whose [`ChaseReq::run`] every governed caller goes
//! through.
//!
//! Instrumentation (all behind [`Metrics`], zero-cost when disabled):
//!
//! * `chase.mappings` — mappings chased,
//! * `chase.bindings` — source bindings enumerated across mappings,
//! * `chase.steps` — chase steps attempted (one per enumerated binding;
//!   the observable the static bound of `muse-lint`'s termination pass
//!   caps from above),
//! * `chase.tuples_emitted` — tuples actually added to the target,
//! * `chase.dedup_hits` — tuple insertions the target union deduplicated,
//! * `chase.time` — wall-clock spans per chased mapping,
//! * `chase.delta_fallbacks` — requests carrying a [`DeltaStore`] that took
//!   the scratch path (see [`crate::delta`] for the rules),
//! * `budget.*` — truncations recorded when a governed chase stops early
//!   (see [`muse_obs::budget`]).

use std::collections::BTreeMap;

use muse_mapping::{Mapping, PathRef, WhereClause};
use muse_nr::{Instance, Schema, SetPath, Tuple, Value};
use muse_obs::{faultpoints, Budget, Counter, Metrics, Outcome, TruncationReason};
use muse_query::{EvalReq, SelectivityHints};

use crate::delta::DeltaStore;
use crate::error::ChaseError;

/// Translate a non-panic injected fault into the budget-truncation path
/// the site would take organically.
fn fault_reason(f: muse_fault::Fault) -> TruncationReason {
    match f {
        muse_fault::Fault::DeadlineExpiry => TruncationReason::DeadlineExpired,
        muse_fault::Fault::TermCapExhaustion => TruncationReason::TermLimit,
        // The chase owns no storage; an io fault (only legal at serve.wal
        // points, which never reach here) degrades like a deadline.
        muse_fault::Fault::IoError => TruncationReason::DeadlineExpired,
    }
}

/// Interned terms (SetIDs + labeled nulls) in `target`, the quantity the
/// budget's `max_terms` axis caps.
pub(crate) fn term_count(target: &Instance) -> u64 {
    (target.store().set_count() + target.store().null_count()) as u64
}

/// Chase `source` with all of `mappings`, producing the canonical universal
/// solution. Mappings must be unambiguous, validated and carry grouping
/// functions for every nested target set they fill.
///
/// ```
/// use muse_nr::{text::parse_schema, InstanceBuilder, Value};
///
/// let (src, _) = parse_schema("schema S\n A: set of { x: string }").unwrap();
/// let (tgt, _) = parse_schema("schema T\n B: set of { y: string }").unwrap();
/// let m = muse_mapping::parse_one("m: for a in S.A exists b in T.B where a.x = b.y").unwrap();
/// let mut builder = InstanceBuilder::new(&src);
/// builder.push_top("A", vec![Value::str("hello")]);
/// let source = builder.finish().unwrap();
///
/// let solution = muse_chase::chase(&src, &tgt, &source, &[m]).unwrap();
/// assert_eq!(solution.total_tuples(), 1);
/// ```
pub fn chase(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mappings: &[Mapping],
) -> Result<Instance, ChaseError> {
    ChaseReq::default()
        .run(source_schema, target_schema, source, mappings)
        .map(Outcome::into_value)
}

/// Chase with a single mapping.
///
/// ```
/// use muse_nr::{text::parse_schema, InstanceBuilder, Value};
///
/// let (src, _) = parse_schema("schema S\n A: set of { x: string }").unwrap();
/// let (tgt, _) = parse_schema("schema T\n B: set of { y: string }").unwrap();
/// let m = muse_mapping::parse_one("m: for a in S.A exists b in T.B where a.x = b.y").unwrap();
/// let mut builder = InstanceBuilder::new(&src);
/// builder.push_top("A", vec![Value::str("a")]);
/// builder.push_top("A", vec![Value::str("b")]);
/// let source = builder.finish().unwrap();
///
/// let solution = muse_chase::chase_one(&src, &tgt, &source, &m).unwrap();
/// assert_eq!(solution.total_tuples(), 2);
/// ```
pub fn chase_one(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mapping: &Mapping,
) -> Result<Instance, ChaseError> {
    chase(
        source_schema,
        target_schema,
        source,
        std::slice::from_ref(mapping),
    )
}

/// One chase request: how to chase, separate from what to chase. The
/// default is the plain [`chase`] — disabled metrics, unlimited budget, no
/// hints, no store — and callers override fields with struct-update
/// syntax:
///
/// ```
/// use muse_chase::ChaseReq;
/// use muse_nr::{text::parse_schema, InstanceBuilder, Value};
/// use muse_obs::{Budget, Metrics, TruncationReason};
///
/// let (src, _) = parse_schema("schema S\n A: set of { x: string }").unwrap();
/// let (tgt, _) = parse_schema("schema T\n B: set of { y: string }").unwrap();
/// let m = muse_mapping::parse_one("m: for a in S.A exists b in T.B where a.x = b.y").unwrap();
/// let mut builder = InstanceBuilder::new(&src);
/// builder.push_top("A", vec![Value::str("a")]);
/// builder.push_top("A", vec![Value::str("b")]);
/// let source = builder.finish().unwrap();
///
/// let metrics = Metrics::enabled();
/// let budget = Budget::unlimited().with_max_chase_steps(1);
/// let req = ChaseReq { metrics: &metrics, budget: &budget, ..ChaseReq::default() };
/// let out = req.run(&src, &tgt, &source, &[m]).unwrap();
/// assert_eq!(out.reason(), Some(TruncationReason::ChaseStepLimit));
/// assert_eq!(out.value().total_tuples(), 1);
/// assert_eq!(metrics.snapshot().counter("budget.step_limit_hits"), 1);
/// ```
#[derive(Clone, Copy)]
pub struct ChaseReq<'a> {
    /// Counters and timers (see the module docs for the keys).
    pub metrics: &'a Metrics,
    /// Governs the chase: the wall-clock deadline and chase-step cap are
    /// checked in the binding loop, the interned-term cap after every
    /// firing, and the `for`-clause evaluations run under the same budget.
    /// On exhaustion the chase stops cleanly and returns the target built
    /// so far as [`Outcome::Truncated`] — always a valid (validating)
    /// instance, just an incomplete one. Truncations are recorded under
    /// `budget.*`.
    pub budget: &'a Budget,
    /// Source selectivity hints: when given, every mapping's `for`-clause
    /// enumeration is planned by the evaluator ([`EvalReq::hints`]:
    /// key-aware join order and composite hash probes — identical
    /// bindings, identical target, far fewer `query.steps`).
    pub hints: Option<&'a SelectivityHints>,
    /// Incremental-chase state: a one-mapping request is answered from the
    /// store when its eligibility rules hold ([`crate::delta`]); any other
    /// request takes the scratch path and counts `chase.delta_fallbacks`.
    /// The output is byte-identical either way.
    pub delta: Option<&'a DeltaStore>,
}

impl Default for ChaseReq<'_> {
    fn default() -> Self {
        ChaseReq {
            metrics: Metrics::disabled_ref(),
            budget: Budget::unlimited_ref(),
            hints: None,
            delta: None,
        }
    }
}

impl<'a> ChaseReq<'a> {
    /// The evaluation request every `for`-clause enumeration of this chase
    /// runs under: the chase's metrics, budget and hints, no row limit.
    pub(crate) fn eval_req(&self) -> EvalReq<'a> {
        EvalReq {
            metrics: self.metrics,
            budget: self.budget,
            hints: self.hints,
            limit: None,
        }
    }

    /// Chase `source` with `mappings` under this request. Without a budget
    /// limit (or an injected fault) the outcome is always
    /// [`Outcome::Complete`].
    pub fn run(
        &self,
        source_schema: &Schema,
        target_schema: &Schema,
        source: &Instance,
        mappings: &[Mapping],
    ) -> Result<Outcome<Instance>, ChaseError> {
        if let Some(store) = self.delta {
            if let [mapping] = mappings {
                if let Some(target) =
                    store.chase_one(self, source_schema, target_schema, source, mapping)?
                {
                    return Ok(Outcome::Complete(target));
                }
            }
            self.metrics.incr("chase.delta_fallbacks");
        }
        let mut target = Instance::new(target_schema);
        let timer = self.metrics.timer("chase.time");
        let mut steps: u64 = 0;
        for m in mappings {
            let _span = timer.start();
            if let Some(reason) = self.chase_into(
                source_schema,
                target_schema,
                source,
                m,
                &mut target,
                &mut steps,
            )? {
                return Ok(Outcome::Truncated {
                    partial: target,
                    reason,
                });
            }
        }
        Ok(Outcome::Complete(target))
    }

    /// Chase one mapping into `target`. Returns the truncation reason when
    /// the budget (or an injected fault) cut the work short — `target` then
    /// holds everything fired so far, still a valid instance. `steps` is
    /// the cross-mapping firing counter the step cap applies to.
    fn chase_into(
        &self,
        source_schema: &Schema,
        target_schema: &Schema,
        source: &Instance,
        m: &Mapping,
        target: &mut Instance,
        steps: &mut u64,
    ) -> Result<Option<TruncationReason>, ChaseError> {
        let ChaseReq {
            metrics, budget, ..
        } = *self;
        let p = prepare(source_schema, target_schema, m, metrics)?;
        let bindings = match self
            .eval_req()
            .run(source_schema, source, &m.source_query())?
        {
            Outcome::Complete(b) => b,
            // The enumeration itself was cut short (already recorded by the
            // query layer); firing a truncated binding set would produce an
            // unpredictable prefix, so stop before firing.
            Outcome::Truncated { reason, .. } => return Ok(Some(reason)),
        };
        metrics.add("chase.bindings", bindings.len() as u64);
        metrics.add("chase.steps", bindings.len() as u64);
        let emit = Emit::new(metrics);
        let check_terms = budget.max_terms.is_some();
        for binding in &bindings {
            if let Some(f) = muse_fault::point(faultpoints::CHASE_BINDING) {
                let reason = fault_reason(f);
                reason.record(metrics);
                return Ok(Some(reason));
            }
            *steps += 1;
            if budget.steps_exhausted(*steps) {
                let reason = TruncationReason::ChaseStepLimit;
                reason.record(metrics);
                return Ok(Some(reason));
            }
            // The deadline check reads the clock — amortize it over firings.
            if steps.is_multiple_of(64) && budget.deadline_expired() {
                let reason = TruncationReason::DeadlineExpired;
                reason.record(metrics);
                return Ok(Some(reason));
            }
            fire(&p, target, binding, &emit)?;
            if check_terms && budget.terms_exhausted(term_count(target)) {
                let reason = TruncationReason::TermLimit;
                reason.record(metrics);
                return Ok(Some(reason));
            }
        }
        Ok(None)
    }
}

/// Tiny union-find over target `(var, attr)` projections.
struct Classes {
    ids: BTreeMap<(usize, String), usize>,
    parent: Vec<usize>,
}

impl Classes {
    fn new() -> Self {
        Classes {
            ids: BTreeMap::new(),
            parent: Vec::new(),
        }
    }

    fn id(&mut self, r: &PathRef) -> usize {
        if let Some(&i) = self.ids.get(&(r.var, r.attr.clone())) {
            return i;
        }
        let i = self.parent.len();
        self.parent.push(i);
        self.ids.insert((r.var, r.attr.clone()), i);
        i
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: &PathRef, b: &PathRef) {
        let (ia, ib) = (self.id(a), self.id(b));
        let (ra, rb) = (self.find(ia), self.find(ib));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    fn root_of(&mut self, r: &PathRef) -> usize {
        let i = self.id(r);
        self.find(i)
    }
}

/// Pre-resolved plan for instantiating one target variable's tuples.
struct TVarPlan {
    /// Per field: how to produce the value.
    fields: Vec<FieldPlan>,
    /// Where produced tuples go: `Root(label)` or the set-field of a parent
    /// variable.
    container: Container,
}

enum FieldPlan {
    /// Atomic field: the equivalence-class id (value computed per binding).
    Atomic { class: usize },
    /// Set field: index into the per-binding set-id table.
    Set { slot: usize },
}

enum Container {
    Root(String),
    ParentField { slot: usize },
}

/// A nested set the mapping fills: its path and grouping-argument refs.
struct SetSlot {
    path: SetPath,
}

/// Everything [`fire`] needs about one mapping, resolved once per chase
/// call. Borrowed pieces only — cheap to build.
pub(crate) struct Prepared<'m> {
    m: &'m Mapping,
    slots: Vec<SetSlot>,
    /// Per slot: `(source var, attr index)` of each grouping argument.
    slot_arg_idx: Vec<Vec<(usize, usize)>>,
    /// Per equivalence class: the `(source var, attr index)` assigned to it.
    assignment_idx: BTreeMap<usize, (usize, usize)>,
    /// Per equivalence class: deterministic labeled-null tag.
    class_tag: BTreeMap<usize, String>,
    plans: Vec<TVarPlan>,
}

/// Validate `m` and resolve its firing plan (equivalence classes, null
/// tags, set slots, per-target-variable field plans, projection indices).
pub(crate) fn prepare<'m>(
    source_schema: &Schema,
    target_schema: &Schema,
    m: &'m Mapping,
    metrics: &Metrics,
) -> Result<Prepared<'m>, ChaseError> {
    if m.is_ambiguous() {
        return Err(ChaseError::Ambiguous(m.name.clone()));
    }
    m.validate(source_schema, target_schema)?;
    metrics.incr("chase.mappings");

    // --- Equivalence classes over target attributes -----------------------
    let mut classes = Classes::new();
    for (a, b) in &m.target_eqs {
        classes.union(a, b);
    }
    // Make sure every target atomic attribute has a class.
    for (tv_idx, tv) in m.target_vars.iter().enumerate() {
        for attr in target_schema.attributes(&tv.set)? {
            classes.id(&PathRef::new(tv_idx, attr));
        }
    }
    // Class assignments from the where clause (first assignment wins; the
    // validator guarantees one plain assignment per target attribute).
    let mut assignment: BTreeMap<usize, PathRef> = BTreeMap::new();
    for w in &m.wheres {
        if let WhereClause::Eq {
            source: s,
            target: t,
        } = w
        {
            let root = classes.root_of(t);
            assignment.entry(root).or_insert_with(|| s.clone());
        }
    }
    // Deterministic null tags per class: the lexicographically least member.
    let mut class_tag: BTreeMap<usize, String> = BTreeMap::new();
    let member_keys: Vec<((usize, String), usize)> =
        classes.ids.iter().map(|(k, v)| (k.clone(), *v)).collect();
    for (key, id) in member_keys {
        let root = classes.find(id);
        let name = format!("{}:{}.{}", m.name, m.target_vars[key.0].name, key.1);
        let entry = class_tag.entry(root).or_insert_with(|| name.clone());
        if name < *entry {
            *entry = name;
        }
    }

    // --- Set slots (nested target sets with their grouping functions) -----
    let mut slots: Vec<SetSlot> = Vec::new();
    let mut slot_args: Vec<Vec<PathRef>> = Vec::new();
    let mut slot_of: BTreeMap<SetPath, usize> = BTreeMap::new();
    for (set, g) in &m.groupings {
        slot_of.insert(set.clone(), slots.len());
        slots.push(SetSlot { path: set.clone() });
        slot_args.push(g.args.clone());
    }

    // --- Per-target-variable plans ----------------------------------------
    let mut plans: Vec<TVarPlan> = Vec::with_capacity(m.target_vars.len());
    for (tv_idx, tv) in m.target_vars.iter().enumerate() {
        let rcd = target_schema.element_record(&tv.set)?;
        let fields = rcd
            .rcd_fields()
            .ok_or_else(|| ChaseError::NotARecordElement {
                mapping: m.name.clone(),
                set: tv.set.to_string(),
            })?;
        let mut fplans = Vec::with_capacity(fields.len());
        for f in fields {
            if f.ty.is_set() {
                let child = tv.set.child(&f.label);
                let slot = *slot_of
                    .get(&child)
                    .ok_or_else(|| muse_mapping::MappingError::MissingGrouping(child.clone()))?;
                fplans.push(FieldPlan::Set { slot });
            } else {
                let class = classes.root_of(&PathRef::new(tv_idx, f.label.clone()));
                fplans.push(FieldPlan::Atomic { class });
            }
        }
        let container = match &tv.parent {
            None => Container::Root(tv.set.label().to_owned()),
            Some((p, field)) => {
                let child = m.target_vars[*p].set.child(field);
                let slot = *slot_of
                    .get(&child)
                    .ok_or_else(|| muse_mapping::MappingError::MissingGrouping(child.clone()))?;
                Container::ParentField { slot }
            }
        };
        plans.push(TVarPlan {
            fields: fplans,
            container,
        });
    }

    // Precompute source attribute indices for fast projection.
    let src_attr_idx = |r: &PathRef| -> Result<usize, ChaseError> {
        let set = &m.source_vars[r.var].set;
        Ok(source_schema.attr_index(set, &r.attr)?)
    };
    let mut slot_arg_idx: Vec<Vec<(usize, usize)>> = Vec::with_capacity(slots.len());
    for args in &slot_args {
        let mut v = Vec::with_capacity(args.len());
        for a in args {
            v.push((a.var, src_attr_idx(a)?));
        }
        slot_arg_idx.push(v);
    }
    let mut assignment_idx: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for (class, r) in &assignment {
        assignment_idx.insert(*class, (r.var, src_attr_idx(r)?));
    }

    Ok(Prepared {
        m,
        slots,
        slot_arg_idx,
        assignment_idx,
        class_tag,
        plans,
    })
}

/// Emission counters resolved once per mapping, bumped once per tuple.
pub(crate) struct Emit {
    emitted: Counter,
    dedup_hits: Counter,
}

impl Emit {
    pub(crate) fn new(metrics: &Metrics) -> Self {
        Emit {
            emitted: metrics.counter("chase.tuples_emitted"),
            dedup_hits: metrics.counter("chase.dedup_hits"),
        }
    }

    fn record(&self, inserted: bool) {
        if inserted {
            self.emitted.incr();
        } else {
            self.dedup_hits.incr();
        }
    }
}

/// Project a source value, importing source nulls into the target store.
fn project(
    m: &Mapping,
    target: &mut Instance,
    binding: &[Tuple],
    var: usize,
    idx: usize,
) -> Result<Value, ChaseError> {
    match &binding[var][idx] {
        v @ Value::Atom(_) => Ok(v.clone()),
        Value::Null(n) => {
            // Source labeled null: re-Skolemize in the target store by its
            // printable identity.
            let tag = format!("src-null#{}", n.index());
            let id = target.store_mut().null_id(tag, Vec::new());
            Ok(Value::Null(id))
        }
        other => Err(ChaseError::NonAtomicSourceValue {
            mapping: m.name.clone(),
            what: format!("{other:?}"),
        }),
    }
}

/// Instantiate one source binding's `exists` clause into `target`.
pub(crate) fn fire(
    p: &Prepared<'_>,
    target: &mut Instance,
    binding: &[Tuple],
    emit: &Emit,
) -> Result<(), ChaseError> {
    let Prepared {
        m,
        slots,
        slot_arg_idx,
        assignment_idx,
        class_tag,
        plans,
    } = p;

    // SetIDs for every filled nested set, per this binding.
    let mut set_ids = Vec::with_capacity(slots.len());
    for (slot, s) in slots.iter().enumerate() {
        let mut args = Vec::with_capacity(slot_arg_idx[slot].len());
        for &(var, idx) in &slot_arg_idx[slot] {
            args.push(project(m, target, binding, var, idx)?);
        }
        set_ids.push(target.group(s.path.clone(), args));
    }

    // The binding key that Skolemizes unassigned nulls: all atomic values of
    // the whole binding, flattened in variable order.
    let mut binding_key: Option<Vec<Value>> = None;

    // Class values, computed lazily per binding.
    let mut class_values: BTreeMap<usize, Value> = BTreeMap::new();

    for plan in plans {
        let mut tuple = Vec::with_capacity(plan.fields.len());
        for f in &plan.fields {
            match f {
                FieldPlan::Set { slot } => tuple.push(Value::Set(set_ids[*slot])),
                FieldPlan::Atomic { class } => {
                    if let Some(v) = class_values.get(class) {
                        tuple.push(v.clone());
                        continue;
                    }
                    let v = if let Some(&(var, idx)) = assignment_idx.get(class) {
                        project(m, target, binding, var, idx)?
                    } else {
                        let key = binding_key.get_or_insert_with(|| {
                            binding
                                .iter()
                                .flat_map(|t| t.iter())
                                .filter(|v| matches!(v, Value::Atom(_)))
                                .cloned()
                                .collect()
                        });
                        let tag = class_tag
                            .get(class)
                            .cloned()
                            .unwrap_or_else(|| format!("{}:class{}", m.name, class));
                        Value::Null(target.store_mut().null_id(tag, key.clone()))
                    };
                    class_values.insert(*class, v.clone());
                    tuple.push(v);
                }
            }
        }
        match &plan.container {
            Container::Root(label) => {
                let id = target
                    .root_id(label)
                    .ok_or_else(|| ChaseError::MissingTargetRoot {
                        mapping: m.name.clone(),
                        root: label.clone(),
                    })?;
                emit.record(target.insert(id, tuple));
            }
            Container::ParentField { slot } => {
                emit.record(target.insert(set_ids[*slot], tuple));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_mapping::parse;
    use muse_nr::{display, Field, InstanceBuilder, Ty};

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

    /// The three mappings of Fig. 1 (m2 with the default all-attribute
    /// grouping, as in the figure).
    fn fig1_mappings() -> Vec<Mapping> {
        let mut ms = parse(
            "
            m1: for c in CompDB.Companies
                exists o in OrgDB.Orgs
                where c.cname = o.oname
                group o.Projects by (c.cid, c.cname, c.location)

            m2: for c in CompDB.Companies, p in CompDB.Projects, e in CompDB.Employees
                satisfy p.cid = c.cid and e.eid = p.manager
                exists o in OrgDB.Orgs, p1 in o.Projects, e1 in OrgDB.Employees
                satisfy p1.manager = e1.eid
                where c.cname = o.oname and e.eid = e1.eid and e.ename = e1.ename
                  and p.pname = p1.pname

            m3: for e in CompDB.Employees
                exists e1 in OrgDB.Employees
                where e.eid = e1.eid and e.ename = e1.ename
            ",
        )
        .unwrap();
        for m in &mut ms {
            m.ensure_default_groupings(&orgdb(), &compdb()).unwrap();
        }
        ms
    }

    fn fig2_source(schema: &Schema) -> Instance {
        let mut b = InstanceBuilder::new(schema);
        b.push_top(
            "Companies",
            vec![Value::int(111), Value::str("IBM"), Value::str("Almaden")],
        );
        b.push_top(
            "Companies",
            vec![Value::int(112), Value::str("SBC"), Value::str("NY")],
        );
        b.push_top(
            "Projects",
            vec![
                Value::str("p1"),
                Value::str("DBSearch"),
                Value::int(111),
                Value::str("e14"),
            ],
        );
        b.push_top(
            "Projects",
            vec![
                Value::str("p2"),
                Value::str("WebSearch"),
                Value::int(111),
                Value::str("e15"),
            ],
        );
        b.push_top(
            "Employees",
            vec![Value::str("e14"), Value::str("Smith"), Value::str("x2292")],
        );
        b.push_top(
            "Employees",
            vec![Value::str("e15"), Value::str("Anna"), Value::str("x2283")],
        );
        b.push_top(
            "Employees",
            vec![Value::str("e16"), Value::str("Brown"), Value::str("x2567")],
        );
        b.finish().unwrap()
    }

    #[test]
    fn fig2_chase_reproduces_the_paper() {
        let (s, t) = (compdb(), orgdb());
        let src = fig2_source(&s);
        let result = chase(&s, &t, &src, &fig1_mappings()).unwrap();
        result.validate(&t).unwrap();

        // Four Org tuples: two from m1 (IBM, SBC with 3-ary SetIDs) and two
        // from m2 (IBM with 10-ary SetIDs, one per project binding).
        let orgs = result.root_id("Orgs").unwrap();
        assert_eq!(result.set_len(orgs), 4);

        // Employees: e14, e15 (from m2 and m3, deduplicated) + e16 (m3 only).
        let emps = result.root_id("Employees").unwrap();
        assert_eq!(result.set_len(emps), 3);

        // Project sets: two empty (m1's groups) and two singletons (m2's).
        let proj_sets = result.set_ids_of(&SetPath::parse("Orgs.Projects"));
        assert_eq!(proj_sets.len(), 4);
        let mut sizes: Vec<usize> = proj_sets.iter().map(|&id| result.set_len(id)).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![0, 0, 1, 1]);

        // Spot-check rendered form against Fig. 2.
        let text = display::render(&t, &result);
        assert!(
            text.contains("Projects=SKProjects(111,IBM,Almaden)"),
            "got:\n{text}"
        );
        assert!(
            text.contains("Projects=SKProjects(112,SBC,NY)"),
            "got:\n{text}"
        );
        assert!(
            text.contains("(pname=DBSearch, manager=e14)"),
            "got:\n{text}"
        );
        assert!(
            text.contains("(pname=WebSearch, manager=e15)"),
            "got:\n{text}"
        );
        assert!(text.contains("(eid=e16, ename=Brown)"), "got:\n{text}");
    }

    #[test]
    fn chase_is_idempotent() {
        let (s, t) = (compdb(), orgdb());
        let src = fig2_source(&s);
        let ms = fig1_mappings();
        let once = chase(&s, &t, &src, &ms).unwrap();
        // Chasing with Σ twice (i.e. Σ ∪ Σ) adds nothing.
        let doubled: Vec<Mapping> = ms.iter().chain(&ms).cloned().collect();
        let twice = chase(&s, &t, &src, &doubled).unwrap();
        assert_eq!(once.total_tuples(), twice.total_tuples());
        assert_eq!(display::render(&t, &once), display::render(&t, &twice));
    }

    #[test]
    fn unassigned_target_attribute_becomes_labeled_null() {
        // Target Org has an `address` element with no correspondence: the
        // chase must produce labeled nulls N1, N2 (Sec. II).
        let s = compdb();
        let t = Schema::new(
            "OrgDB",
            vec![Field::new(
                "Orgs",
                Ty::set_of(vec![
                    Field::new("oname", Ty::Str),
                    Field::new("address", Ty::Str),
                ]),
            )],
        )
        .unwrap();
        let m = muse_mapping::parse_one(
            "m1: for c in CompDB.Companies exists o in OrgDB.Orgs where c.cname = o.oname",
        )
        .unwrap();
        let src = fig2_source(&s);
        let out = chase(&s, &t, &src, &[m]).unwrap();
        let orgs = out.root_id("Orgs").unwrap();
        let tuples: Vec<_> = out.tuples(orgs).collect();
        assert_eq!(tuples.len(), 2);
        // Both addresses are nulls, and they are *different* nulls.
        let nulls: Vec<_> = tuples
            .iter()
            .filter_map(|tp| match &tp[1] {
                Value::Null(n) => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(
            nulls.len(),
            2,
            "both addresses must be labeled nulls, got {tuples:?}"
        );
        assert_ne!(nulls[0], nulls[1]);
    }

    #[test]
    fn ambiguous_mapping_is_rejected() {
        let s = compdb();
        let t = Schema::new(
            "T",
            vec![Field::new(
                "Projects",
                Ty::set_of(vec![
                    Field::new("pname", Ty::Str),
                    Field::new("supervisor", Ty::Str),
                ]),
            )],
        )
        .unwrap();
        let m = muse_mapping::parse_one(
            "ma: for p in S.Projects, e1 in S.Employees, e2 in S.Employees
                 satisfy e1.eid = p.manager and e2.eid = p.manager
                 exists p1 in T.Projects
                 where p.pname = p1.pname
                   and (e1.ename = p1.supervisor or e2.ename = p1.supervisor)",
        )
        .unwrap();
        let src = fig2_source(&s);
        assert!(matches!(
            chase(&s, &t, &src, &[m]),
            Err(ChaseError::Ambiguous(_))
        ));
    }

    #[test]
    fn grouping_decides_set_identity() {
        // Group projects by cname only: both IBM projects share one set.
        let (s, t) = (compdb(), orgdb());
        let src = fig2_source(&s);
        let m = muse_mapping::parse_one(
            "m2: for c in CompDB.Companies, p in CompDB.Projects, e in CompDB.Employees
                 satisfy p.cid = c.cid and e.eid = p.manager
                 exists o in OrgDB.Orgs, p1 in o.Projects, e1 in OrgDB.Employees
                 satisfy p1.manager = e1.eid
                 where c.cname = o.oname and e.eid = e1.eid and e.ename = e1.ename
                   and p.pname = p1.pname
                 group o.Projects by (c.cname)",
        )
        .unwrap();
        let out = chase(&s, &t, &src, &[m]).unwrap();
        let proj_sets = out.set_ids_of(&SetPath::parse("Orgs.Projects"));
        assert_eq!(proj_sets.len(), 1);
        assert_eq!(out.set_len(proj_sets[0]), 2);
        let orgs = out.root_id("Orgs").unwrap();
        assert_eq!(out.set_len(orgs), 1); // one Org tuple: (IBM, SK(IBM))
    }

    #[test]
    fn empty_source_chases_to_empty_target() {
        let (s, t) = (compdb(), orgdb());
        let src = Instance::new(&s);
        let out = chase(&s, &t, &src, &fig1_mappings()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn step_cap_truncates_to_a_valid_prefix() {
        let (s, t) = (compdb(), orgdb());
        let src = fig2_source(&s);
        let ms = fig1_mappings();
        let m = Metrics::enabled();
        let budget = Budget::unlimited().with_max_chase_steps(2);
        let req = ChaseReq {
            metrics: &m,
            budget: &budget,
            ..ChaseReq::default()
        };
        let out = req.run(&s, &t, &src, &ms).unwrap();
        assert_eq!(out.reason(), Some(TruncationReason::ChaseStepLimit));
        let partial = out.into_value();
        partial.validate(&t).unwrap();
        // Exactly the first two firings happened (m1's two company bindings).
        let full = chase(&s, &t, &src, &ms).unwrap();
        assert!(partial.total_tuples() < full.total_tuples());
        assert!(partial.total_tuples() > 0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("budget.step_limit_hits"), 1);
        assert_eq!(snap.counter("budget.truncations"), 1);
    }

    #[test]
    fn term_cap_truncates_to_a_valid_prefix() {
        let (s, t) = (compdb(), orgdb());
        let src = fig2_source(&s);
        let ms = fig1_mappings();
        let m = Metrics::enabled();
        let budget = Budget::unlimited().with_max_terms(1);
        let req = ChaseReq {
            metrics: &m,
            budget: &budget,
            ..ChaseReq::default()
        };
        let out = req.run(&s, &t, &src, &ms).unwrap();
        assert_eq!(out.reason(), Some(TruncationReason::TermLimit));
        out.value().validate(&t).unwrap();
        assert_eq!(m.snapshot().counter("budget.term_limit_hits"), 1);
    }

    #[test]
    fn metered_request_completes_identically() {
        let (s, t) = (compdb(), orgdb());
        let src = fig2_source(&s);
        let ms = fig1_mappings();
        let plain = chase(&s, &t, &src, &ms).unwrap();
        let m = Metrics::enabled();
        let req = ChaseReq {
            metrics: &m,
            ..ChaseReq::default()
        };
        let metered = req.run(&s, &t, &src, &ms).unwrap();
        assert!(metered.is_complete());
        assert_eq!(
            display::render(&t, &plain),
            display::render(&t, metered.value())
        );
        let snap = m.snapshot();
        assert_eq!(snap.counter("chase.mappings"), 3);
        assert_eq!(snap.timer("chase.time").count, 3);
    }

    #[test]
    fn store_request_serves_one_mapping_and_counts_the_rest_as_fallbacks() {
        let (s, t) = (compdb(), orgdb());
        let src = fig2_source(&s);
        let ms = fig1_mappings();
        let store = DeltaStore::new();
        let m = Metrics::enabled();
        let req = ChaseReq {
            metrics: &m,
            delta: Some(&store),
            ..ChaseReq::default()
        };
        // m3 ranges over one flat root: the store materializes it.
        let one = req.run(&s, &t, &src, &ms[2..]).unwrap().into_value();
        assert_eq!(
            display::dump(&one),
            display::dump(&chase_one(&s, &t, &src, &ms[2]).unwrap())
        );
        assert_eq!(m.snapshot().counter("chase.delta_misses"), 1);
        assert_eq!(store.len(), 1);
        // A multi-mapping request always takes the scratch path.
        let all = req.run(&s, &t, &src, &ms).unwrap().into_value();
        assert_eq!(
            display::dump(&all),
            display::dump(&chase(&s, &t, &src, &ms).unwrap())
        );
        assert_eq!(m.snapshot().counter("chase.delta_fallbacks"), 1);
    }
}

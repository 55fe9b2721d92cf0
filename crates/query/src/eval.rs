//! Backtracking evaluation of conjunctive queries with lazy hash indexes.
//!
//! There is one entry point, [`EvalReq::run`]. Everything that varies
//! between callers — metrics, a budget, planner hints, a row limit — is a
//! field of the [`EvalReq`], and its `Default` is the plain evaluation.
//!
//! Instrumentation (all behind [`Metrics`], zero-cost when disabled):
//!
//! * `query.evals` — evaluation operations started,
//! * `query.steps` — backtracking search steps,
//! * `query.steps_limited` — the share of `query.steps` spent by searches
//!   with a row limit,
//! * `query.index_hits` / `query.index_misses` — lazy hash-index cache
//!   probes that found / had to build an index,
//! * `query.timeouts` — evaluations cut short by their deadline,
//! * `query.eval_time` — wall-clock spans per evaluation,
//! * `budget.*` — truncations (see [`muse_obs::budget`]).

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use muse_nr::{Instance, Schema, SetPath, Tuple, Value};
use muse_obs::{faultpoints, Budget, Counter, Metrics, Outcome, TruncationReason};

use crate::ast::{Operand, QVar, Query};
use crate::error::QueryError;
use crate::hints::SelectivityHints;
use crate::plan::{plan_query, EvalPlan};

/// One result row: a tuple per query variable, in variable order.
pub type Binding = Vec<Tuple>;

/// One query evaluation. Rows come back in a deterministic order (the
/// ordered containers of [`Instance`] drive iteration) that no field of
/// the request changes: hints and budgets change how the search runs and
/// where it stops, never which rows it emits first.
///
/// ```
/// use muse_nr::{Field, InstanceBuilder, Schema, SetPath, Ty, Value};
/// use muse_obs::{Budget, Metrics, TruncationReason};
/// use muse_query::{EvalReq, Query};
///
/// let schema = Schema::new(
///     "S",
///     vec![Field::new("A", Ty::set_of(vec![Field::new("x", Ty::Int)]))],
/// )
/// .unwrap();
/// let mut b = InstanceBuilder::new(&schema);
/// for x in 0..3 {
///     b.push_top("A", vec![Value::int(x)]);
/// }
/// let inst = b.finish().unwrap();
/// let mut q = Query::new();
/// q.var("a", SetPath::parse("A"));
///
/// let all = EvalReq::default().run(&schema, &inst, &q).unwrap();
/// assert_eq!(all.into_value().len(), 3);
///
/// let metrics = Metrics::enabled();
/// let budget = Budget::unlimited().with_max_rows(2);
/// let req = EvalReq { metrics: &metrics, budget: &budget, ..EvalReq::default() };
/// let out = req.run(&schema, &inst, &q).unwrap();
/// assert_eq!(out.reason(), Some(TruncationReason::RowLimit));
/// assert_eq!(out.value().len(), 2);
/// assert_eq!(metrics.snapshot().counter("budget.row_limit_hits"), 1);
/// ```
#[derive(Clone, Copy)]
pub struct EvalReq<'a> {
    /// Counters and timers (see the module docs for the keys).
    pub metrics: &'a Metrics,
    /// Governs the search: its deadline is checked every 1024 search
    /// steps and its `max_rows` caps the rows returned. Either one cutting
    /// the search short returns [`Outcome::Truncated`] with the rows found
    /// so far — always a prefix of the complete result — and records the
    /// truncation under `budget.*`. `QIe` carries its real-example deadline
    /// here, to fall back to a synthetic example "if a real example was
    /// not found after a fixed amount of time" (Sec. VI).
    pub budget: &'a Budget,
    /// Source selectivity hints. When given, the evaluator plans the query
    /// ([`plan_query`]) and probes a composite hash index on every
    /// equality bound at each position instead of a single attribute; an
    /// unlimited search without a deadline also binds variables in plan
    /// order and restores the plan-less emission order by rank-sorting.
    /// Same rows in the same order, far fewer `query.steps`. A query the
    /// planner rejects runs plan-less.
    pub hints: Option<&'a SelectivityHints>,
    /// Return at most this many rows. Reaching it is a complete answer,
    /// not a truncation: only the budget's own axes truncate.
    pub limit: Option<usize>,
}

impl Default for EvalReq<'_> {
    fn default() -> Self {
        EvalReq {
            metrics: Metrics::disabled_ref(),
            budget: Budget::unlimited_ref(),
            hints: None,
            limit: None,
        }
    }
}

impl EvalReq<'_> {
    /// Evaluate `query` over `inst` under this request. Without a budget
    /// limit (or an injected `query.eval` fault, which behaves as an
    /// expired deadline) the outcome is always [`Outcome::Complete`].
    pub fn run(
        &self,
        schema: &Schema,
        inst: &Instance,
        query: &Query,
    ) -> Result<Outcome<Vec<Binding>>, QueryError> {
        let EvalReq {
            metrics,
            budget,
            hints,
            limit,
        } = *self;
        if muse_fault::point(faultpoints::QUERY_EVAL).is_some() {
            let reason = TruncationReason::DeadlineExpired;
            reason.record(metrics);
            return Ok(Outcome::Truncated {
                partial: Vec::new(),
                reason,
            });
        }
        // A plan is an optimization, never a prerequisite: planning
        // failures fall back to the evaluator's own greedy order.
        let plan = hints.and_then(|h| plan_query(schema, query, Some(h)).ok());
        let budget_rows = budget
            .max_rows
            .map(|n| usize::try_from(n).unwrap_or(usize::MAX));
        let eff_limit = match (limit, budget_rows) {
            (Some(l), Some(cap)) => Some(l.min(cap)),
            (l, cap) => l.or(cap),
        };
        let (rows, timed_out) = enumerate(
            schema,
            inst,
            query,
            plan.as_ref(),
            eff_limit,
            budget.deadline,
            metrics,
        )?;
        if timed_out {
            let reason = TruncationReason::DeadlineExpired;
            reason.record(metrics);
            return Ok(Outcome::Truncated {
                partial: rows,
                reason,
            });
        }
        // The budget's cap (strictly tighter than any caller limit) stopped a
        // search that might have produced more rows.
        let budget_capped =
            budget_rows.is_some_and(|cap| rows.len() >= cap && limit.is_none_or(|l| cap < l));
        if budget_capped {
            let reason = TruncationReason::RowLimit;
            reason.record(metrics);
            return Ok(Outcome::Truncated {
                partial: rows,
                reason,
            });
        }
        Ok(Outcome::Complete(rows))
    }
}

/// The search behind [`EvalReq::run`]: at most `limit` rows, cut short at
/// `deadline`, driven by `ext_plan` when given. Returns the rows plus
/// whether the deadline cut the search short.
///
/// A plan changes *how* the search runs, never *what* it returns:
///
/// * at every position the search probes a composite hash index on all
///   equality attributes bound at that point (the plan-less path probes a
///   single attribute) — an order-preserving refinement, so limited and
///   deadlined searches return the exact prefix the plan-less search would;
/// * for complete enumerations (no limit, no deadline) the search binds
///   variables in plan order, and emitted rows are restored to the
///   plan-less emission order by rank-sorting before returning.
///
/// A plan that does not fit `query` (wrong arity, not a permutation,
/// children before parents) is ignored.
fn enumerate(
    schema: &Schema,
    inst: &Instance,
    query: &Query,
    ext_plan: Option<&EvalPlan>,
    limit: Option<usize>,
    deadline: Option<Instant>,
    metrics: &Metrics,
) -> Result<(Vec<Binding>, bool), QueryError> {
    let _span = metrics.timer("query.eval_time").start();
    metrics.incr("query.evals");
    query.validate(schema)?;
    if query.vars.is_empty() {
        // The empty conjunction has exactly one (empty) binding.
        return Ok((vec![Vec::new()], false));
    }
    // Plan order is only safe when the search is exhaustive: a limited or
    // deadlined search must keep the legacy order so its result prefix is
    // byte-identical.
    let use_ext_order = ext_plan.is_some() && limit.is_none() && deadline.is_none();
    let plan = Plan::build_ext(schema, query, ext_plan, use_ext_order)?;
    let reorder = plan.emit_order.clone().map(|emit_order| Reorder {
        emit_order,
        rank_maps: HashMap::new(),
        keys: Vec::new(),
    });
    let mut out = Vec::new();
    let mut search = Search {
        inst,
        plan: &plan,
        query,
        stack: Vec::with_capacity(query.vars.len()),
        index_cache: HashMap::new(),
        out: &mut out,
        limit,
        deadline,
        steps: 0,
        timed_out: false,
        reorder,
        index_hits: metrics.counter("query.index_hits"),
        index_misses: metrics.counter("query.index_misses"),
    };
    search.descend(0);
    let (steps, raw_timed_out) = (search.steps, search.timed_out);
    let reorder = search.reorder.take();
    drop(search);
    metrics.add("query.steps", steps);
    if limit.is_some() {
        // The limited share of the step total: these searches keep the
        // legacy binding order (prefix identity), so only composite probes
        // — not plan order — can shrink them.
        metrics.add("query.steps_limited", steps);
    }
    if let Some(re) = reorder {
        // Restore the legacy emission order: sort rows by their tuples'
        // global enumeration ranks, compared in legacy binding order. Keys
        // are unique (identical key ⇒ identical row), so the order is total.
        let mut paired: Vec<(Vec<u32>, Binding)> = re.keys.into_iter().zip(out).collect();
        paired.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out = paired.into_iter().map(|(_, row)| row).collect();
    }
    // Consistency guard: a search that already produced its full `limit` of
    // bindings is complete for the caller's purposes, even if the deadline
    // check happened to fire on the same step. (`done()` tests the limit
    // before the clock, so this should be unreachable — keep the invariant
    // explicit rather than implied by check ordering.)
    let limit_reached = limit.is_some_and(|l| out.len() >= l);
    let timed_out = raw_timed_out && !limit_reached;
    if timed_out {
        metrics.incr("query.timeouts");
    }
    Ok((out, timed_out))
}

/// The greedy binding order the evaluator uses for `query` — the order in
/// which emitted bindings are lexicographically sorted by per-variable
/// enumeration rank (even under a hinted plan, whose reorder pass restores
/// exactly this order). The score is purely structural (predicates,
/// parent placement, declaration order), never instance data, so the order
/// is identical across all instances of the same query — which is what lets
/// the incremental chase reconstruct the evaluator's emission order from a
/// materialized binding set without re-running the search.
pub fn greedy_order(schema: &Schema, query: &Query) -> Result<Vec<usize>, QueryError> {
    Ok(Plan::build(schema, query)?.order)
}

/// A predicate operand compiled to positional form.
#[derive(Debug, Clone)]
enum Op {
    Proj { var: usize, idx: usize },
    Const(Value),
}

impl Op {
    fn compile(schema: &Schema, vars: &[QVar], op: &Operand) -> Result<Op, QueryError> {
        Ok(match op {
            Operand::Const(v) => Op::Const(v.clone()),
            Operand::Proj { var, attr } => {
                let qv = vars.get(*var).ok_or(QueryError::UnknownVar(*var))?;
                let idx =
                    schema
                        .attr_index(&qv.set, attr)
                        .map_err(|_| QueryError::UnknownAttr {
                            var: qv.name.clone(),
                            attr: attr.clone(),
                        })?;
                Op::Proj { var: *var, idx }
            }
        })
    }

    fn max_var(&self) -> Option<usize> {
        match self {
            Op::Proj { var, .. } => Some(*var),
            Op::Const(_) => None,
        }
    }
}

struct Plan {
    /// Variable indices in binding order (parents before children).
    order: Vec<usize>,
    /// var index -> position in `order`.
    pos_of: Vec<usize>,
    /// Predicates (eq, then neq flag) that become checkable at each position.
    checks_at: Vec<Vec<(Op, Op, bool)>>,
    /// For each position (top-level vars only): usable index lookups — the
    /// attribute index on the new variable and the already-bound other side.
    /// Without an external plan at most one entry (the legacy single-probe
    /// choice); with one, every bound equality participates (composite key).
    lookup_at: Vec<Vec<(usize, Op)>>,
    /// Field index of the parent's set-typed field, per variable.
    parent_field_idx: Vec<Option<(usize, usize)>>,
    /// When `order` came from an external plan and differs from the greedy
    /// order: the greedy order, for restoring the legacy emission order.
    emit_order: Option<Vec<usize>>,
}

/// Does `ext` fit `query`: one step per variable, a permutation, parents
/// placed before children?
fn ext_order_fits(query: &Query, ext: &EvalPlan) -> bool {
    let n = query.vars.len();
    if ext.steps.len() != n {
        return false;
    }
    let mut placed = vec![false; n];
    for s in &ext.steps {
        if s.var >= n || placed[s.var] {
            return false;
        }
        if let Some((p, _)) = &query.vars[s.var].parent {
            if !placed[*p] {
                return false;
            }
        }
        placed[s.var] = true;
    }
    true
}

impl Plan {
    fn build(schema: &Schema, query: &Query) -> Result<Plan, QueryError> {
        Plan::build_ext(schema, query, None, false)
    }

    /// Build the runtime plan. `ext` (when present) switches every position
    /// to composite probing; `use_ext_order` additionally takes the binding
    /// order from it (recording the greedy order in `emit_order` when the
    /// two differ, so the caller can restore legacy emission order).
    fn build_ext(
        schema: &Schema,
        query: &Query,
        ext: Option<&EvalPlan>,
        use_ext_order: bool,
    ) -> Result<Plan, QueryError> {
        let n = query.vars.len();
        let eqs: Vec<(Op, Op)> = query
            .eqs
            .iter()
            .map(|(a, b)| {
                Ok((
                    Op::compile(schema, &query.vars, a)?,
                    Op::compile(schema, &query.vars, b)?,
                ))
            })
            .collect::<Result<_, QueryError>>()?;
        let neqs: Vec<(Op, Op)> = query
            .neqs
            .iter()
            .map(|(a, b)| {
                Ok((
                    Op::compile(schema, &query.vars, a)?,
                    Op::compile(schema, &query.vars, b)?,
                ))
            })
            .collect::<Result<_, QueryError>>()?;

        // Greedy ordering: repeatedly pick the eligible variable (parent
        // already placed) with the best score: constants and joins with
        // already-placed variables make a variable cheap to bind.
        let mut placed = vec![false; n];
        let mut order = Vec::with_capacity(n);
        while order.len() < n {
            let mut best: Option<(i64, usize)> = None;
            for v in 0..n {
                if placed[v] {
                    continue;
                }
                if let Some((p, _)) = &query.vars[v].parent {
                    if !placed[*p] {
                        continue;
                    }
                }
                let mut score: i64 = 0;
                for (a, b) in &eqs {
                    score += connectivity_score(v, &placed, a, b);
                }
                if query.vars[v].parent.is_some() {
                    score += 3; // bound to a single parent set: very cheap
                }
                // Prefer earlier declaration on ties (deterministic plans).
                let rank = (score, -(v as i64));
                if best.is_none_or(|(bs, bv)| rank > (bs, -(bv as i64))) {
                    best = Some((score, v));
                }
            }
            let (_, v) = best.expect("parents precede children (validated)");
            placed[v] = true;
            order.push(v);
        }

        // Swap in the external order for exhaustive searches; remember the
        // greedy order so emission order can be restored.
        let mut emit_order = None;
        if use_ext_order {
            if let Some(ext) = ext {
                if ext_order_fits(query, ext) {
                    let ext_order: Vec<usize> = ext.order().collect();
                    if ext_order != order {
                        emit_order = Some(std::mem::replace(&mut order, ext_order));
                    }
                }
            }
        }

        let mut pos_of = vec![0usize; n];
        for (pos, &v) in order.iter().enumerate() {
            pos_of[v] = pos;
        }

        // Assign each predicate to the earliest position where it is fully
        // bound.
        let mut checks_at: Vec<Vec<(Op, Op, bool)>> = (0..n).map(|_| Vec::new()).collect();
        let ready_pos = |a: &Op, b: &Op| -> usize {
            let pa = a.max_var().map_or(0, |v| pos_of[v]);
            let pb = b.max_var().map_or(0, |v| pos_of[v]);
            pa.max(pb)
        };
        for (a, b) in &eqs {
            let p = ready_pos(a, b);
            checks_at[p].push((a.clone(), b.clone(), false));
        }
        for (a, b) in &neqs {
            let p = ready_pos(a, b);
            checks_at[p].push((a.clone(), b.clone(), true));
        }

        // Index-lookup opportunities: for a top-level variable at position p,
        // equalities `newvar.attr = other` where `other` is bound before p.
        // The legacy path keeps exactly the first such equality; with an
        // external plan, all of them form one composite probe key.
        let mut lookup_at: Vec<Vec<(usize, Op)>> = (0..n).map(|_| Vec::new()).collect();
        for (pos, &v) in order.iter().enumerate() {
            if query.vars[v].parent.is_some() {
                continue;
            }
            if ext.is_some() {
                for (a, b, is_neq) in &checks_at[pos] {
                    if *is_neq {
                        continue;
                    }
                    for (this, other) in [(a, b), (b, a)] {
                        if let Op::Proj { var, idx } = this {
                            if *var == v && other.max_var().is_none_or(|o| pos_of[o] < pos) {
                                lookup_at[pos].push((*idx, other.clone()));
                            }
                        }
                    }
                }
            } else {
                let mut chosen: Option<(usize, Op)> = None;
                for (a, b, is_neq) in &checks_at[pos] {
                    if *is_neq {
                        continue;
                    }
                    for (this, other) in [(a, b), (b, a)] {
                        if let Op::Proj { var, idx } = this {
                            if *var == v && other.max_var().is_none_or(|o| pos_of[o] < pos) {
                                chosen = Some((*idx, other.clone()));
                            }
                        }
                    }
                    if chosen.is_some() {
                        break;
                    }
                }
                lookup_at[pos].extend(chosen);
            }
        }

        // Resolve parent field indices.
        let mut parent_field_idx = vec![None; n];
        for (v, qv) in query.vars.iter().enumerate() {
            if let Some((p, field)) = &qv.parent {
                let parent_rcd = schema
                    .element_record(&query.vars[*p].set)
                    .map_err(|_| QueryError::UnknownSet(query.vars[*p].set.to_string()))?;
                let idx =
                    parent_rcd
                        .field_index(field)
                        .ok_or_else(|| QueryError::BadParentField {
                            var: qv.name.clone(),
                            field: field.clone(),
                        })?;
                parent_field_idx[v] = Some((*p, idx));
            }
        }

        Ok(Plan {
            order,
            pos_of,
            checks_at,
            lookup_at,
            parent_field_idx,
            emit_order,
        })
    }
}

fn connectivity_score(v: usize, placed: &[bool], a: &Op, b: &Op) -> i64 {
    let involves = |op: &Op| op.max_var() == Some(v);
    let other_bound = |op: &Op| match op.max_var() {
        None => true,
        Some(o) => placed[o],
    };
    if involves(a) && other_bound(b) || involves(b) && other_bound(a) {
        2
    } else {
        0
    }
}

/// Match lists are shared behind an `Rc`: a probe hands out one pointer
/// clone instead of copying the whole `Vec<&Tuple>` per lookup. The index
/// key is the probed attribute list — a singleton on the legacy path, the
/// full composite probe key under an external plan.
type AttrIndex<'a> = HashMap<Vec<Value>, Rc<Vec<&'a Tuple>>>;

/// Rank bookkeeping for restoring the legacy emission order after a
/// plan-ordered exhaustive search (see [`enumerate`]).
struct Reorder {
    /// The greedy (legacy) binding order whose emission order we restore.
    emit_order: Vec<usize>,
    /// Per set path: tuple address → global `tuples_of_path` enumeration
    /// rank. Addresses are stable for the duration of one evaluation, and
    /// every candidate a search binds (full scan, index bucket, parent-set
    /// iteration) is a tuple of its variable's path, so each bound tuple
    /// has exactly one rank.
    rank_maps: HashMap<SetPath, HashMap<usize, u32>>,
    /// One key per emitted row: ranks in legacy binding order.
    keys: Vec<Vec<u32>>,
}

impl Reorder {
    fn push_key(&mut self, inst: &Instance, query: &Query, pos_of: &[usize], stack: &[&Tuple]) {
        let mut key = Vec::with_capacity(self.emit_order.len());
        for &v in &self.emit_order {
            let t = stack[pos_of[v]];
            let path = &query.vars[v].set;
            let map = self.rank_maps.entry(path.clone()).or_insert_with(|| {
                inst.tuples_of_path(path)
                    .enumerate()
                    .map(|(i, (_, t))| (std::ptr::from_ref(t) as usize, i as u32))
                    .collect()
            });
            key.push(
                map.get(&(std::ptr::from_ref(t) as usize))
                    .copied()
                    .unwrap_or(u32::MAX),
            );
        }
        self.keys.push(key);
    }
}

struct Search<'a, 'q, 'o> {
    inst: &'a Instance,
    plan: &'q Plan,
    query: &'q Query,
    /// Bound tuples, indexed by *variable index* (entries for unbound
    /// variables are placeholders until their position is reached).
    stack: Vec<&'a Tuple>,
    index_cache: HashMap<(SetPath, Vec<usize>), AttrIndex<'a>>,
    out: &'o mut Vec<Binding>,
    limit: Option<usize>,
    deadline: Option<Instant>,
    steps: u64,
    timed_out: bool,
    reorder: Option<Reorder>,
    index_hits: Counter,
    index_misses: Counter,
}

impl<'a, 'q, 'o> Search<'a, 'q, 'o> {
    fn done(&mut self) -> bool {
        if self.timed_out {
            return true;
        }
        if self.limit.is_some_and(|l| self.out.len() >= l) {
            return true;
        }
        // Check the deadline every 1024 search steps; a per-step syscall
        // would dominate the join itself.
        self.steps = self.steps.wrapping_add(1);
        if self.steps.is_multiple_of(1024) {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.timed_out = true;
                    return true;
                }
            }
        }
        false
    }

    fn eval_op(&self, op: &Op) -> Value {
        match op {
            Op::Const(v) => v.clone(),
            Op::Proj { var, idx } => {
                let pos = self.plan.pos_of[*var];
                self.stack[pos].get(*idx).cloned().expect("validated arity")
            }
        }
    }

    fn checks_pass(&self, pos: usize) -> bool {
        self.plan.checks_at[pos].iter().all(|(a, b, is_neq)| {
            let va = self.eval_op(a);
            let vb = self.eval_op(b);
            if *is_neq {
                va != vb
            } else {
                va == vb
            }
        })
    }

    fn descend(&mut self, pos: usize) {
        if self.done() {
            return;
        }
        if pos == self.plan.order.len() {
            // Emit in *variable* order, not binding order.
            let mut row: Vec<Tuple> = vec![Vec::new(); self.query.vars.len()];
            for (p, &v) in self.plan.order.iter().enumerate() {
                row[v] = self.stack[p].clone();
            }
            let (inst, query, plan, stack) = (self.inst, self.query, self.plan, &self.stack);
            if let Some(re) = self.reorder.as_mut() {
                re.push_key(inst, query, &plan.pos_of, stack);
            }
            self.out.push(row);
            return;
        }
        let v = self.plan.order[pos];
        // The instance and query outlive `self`; iterating them through
        // local copies of the references keeps `&mut self` free for
        // `try_tuple`, so none of the per-binding paths below has to
        // collect or clone its candidate tuples.
        let inst = self.inst;
        let query = self.query;
        let qv = &query.vars[v];

        if let Some((pvar, fidx)) = self.plan.parent_field_idx[v] {
            // Child variable: tuples of the parent's referenced set.
            let ppos = self.plan.pos_of[pvar];
            let parent_tuple = self.stack[ppos];
            if let Some(Value::Set(sid)) = parent_tuple.get(fidx) {
                for t in inst.tuples(*sid) {
                    self.try_tuple(pos, t);
                    if self.done() {
                        return;
                    }
                }
            }
            return;
        }

        let lookups = &self.plan.lookup_at[pos];
        if !lookups.is_empty() {
            // Hash-index lookup on (set path, probed attribute list).
            let needle: Vec<Value> = lookups
                .iter()
                .map(|(_, other)| self.eval_op(other))
                .collect();
            let attrs: Vec<usize> = lookups.iter().map(|(idx, _)| *idx).collect();
            let key = (qv.set.clone(), attrs);
            if self.index_cache.contains_key(&key) {
                self.index_hits.incr();
            } else {
                self.index_misses.incr();
                let mut index: HashMap<Vec<Value>, Vec<&'a Tuple>> = HashMap::new();
                for (_, t) in inst.tuples_of_path(&qv.set) {
                    let vals: Option<Vec<Value>> =
                        key.1.iter().map(|&i| t.get(i).cloned()).collect();
                    if let Some(vals) = vals {
                        index.entry(vals).or_default().push(t);
                    }
                }
                self.index_cache.insert(
                    key.clone(),
                    index.into_iter().map(|(k, ts)| (k, Rc::new(ts))).collect(),
                );
            }
            let matches: Option<Rc<Vec<&'a Tuple>>> = self
                .index_cache
                .get(&key)
                .and_then(|ix| ix.get(&needle))
                .cloned();
            if let Some(matches) = matches {
                for &t in matches.iter() {
                    self.try_tuple(pos, t);
                    if self.done() {
                        return;
                    }
                }
            }
            return;
        }

        // Full scan over every occurrence of the set path.
        for (_, t) in inst.tuples_of_path(&qv.set) {
            self.try_tuple(pos, t);
            if self.done() {
                return;
            }
        }
    }

    fn try_tuple(&mut self, pos: usize, t: &'a Tuple) {
        self.stack.push(t);
        if self.checks_pass(pos) {
            self.descend(pos + 1);
        }
        self.stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Operand;
    use muse_nr::{Field, InstanceBuilder, Ty};

    fn all(s: &Schema, i: &Instance, q: &Query) -> Vec<Binding> {
        EvalReq::default().run(s, i, q).unwrap().into_value()
    }

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
                    ]),
                ),
            ],
        )
        .unwrap()
    }

    fn fig2(schema: &Schema) -> Instance {
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
            vec![Value::str("DBSearch"), Value::int(111), Value::str("e14")],
        );
        b.push_top(
            "Projects",
            vec![Value::str("WebSearch"), Value::int(111), Value::str("e15")],
        );
        b.push_top("Employees", vec![Value::str("e14"), Value::str("Smith")]);
        b.push_top("Employees", vec![Value::str("e15"), Value::str("Anna")]);
        b.push_top("Employees", vec![Value::str("e16"), Value::str("Brown")]);
        b.finish().unwrap()
    }

    #[test]
    fn single_atom_scan() {
        let s = compdb();
        let i = fig2(&s);
        let mut q = Query::new();
        q.var("c", SetPath::parse("Companies"));
        let rows = all(&s, &i, &q);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn join_companies_projects_employees() {
        let s = compdb();
        let i = fig2(&s);
        let mut q = Query::new();
        let c = q.var("c", SetPath::parse("Companies"));
        let p = q.var("p", SetPath::parse("Projects"));
        let e = q.var("e", SetPath::parse("Employees"));
        q.add_eq(Operand::proj(p, "cid"), Operand::proj(c, "cid"));
        q.add_eq(Operand::proj(e, "eid"), Operand::proj(p, "manager"));
        let rows = all(&s, &i, &q);
        // Both projects belong to IBM; managers e14 and e15.
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.len(), 3);
            assert_eq!(row[c][1], Value::str("IBM"));
        }
    }

    #[test]
    fn constants_filter() {
        let s = compdb();
        let i = fig2(&s);
        let mut q = Query::new();
        let c = q.var("c", SetPath::parse("Companies"));
        q.add_eq(Operand::proj(c, "cname"), Operand::Const(Value::str("SBC")));
        let rows = all(&s, &i, &q);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0][0], Value::int(112));
    }

    #[test]
    fn inequalities() {
        let s = compdb();
        let i = fig2(&s);
        // Pairs of distinct companies.
        let mut q = Query::new();
        let c1 = q.var("c1", SetPath::parse("Companies"));
        let c2 = q.var("c2", SetPath::parse("Companies"));
        q.add_neq(Operand::proj(c1, "cid"), Operand::proj(c2, "cid"));
        let rows = all(&s, &i, &q);
        assert_eq!(rows.len(), 2); // (111,112) and (112,111)
    }

    #[test]
    fn limit_stops_early() {
        let s = compdb();
        let i = fig2(&s);
        let mut q = Query::new();
        q.var("e", SetPath::parse("Employees"));
        let req = EvalReq {
            limit: Some(2),
            ..EvalReq::default()
        };
        let rows = req.run(&s, &i, &q).unwrap().into_value();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn empty_result_when_unsatisfiable() {
        let s = compdb();
        let i = fig2(&s);
        let mut q = Query::new();
        let c = q.var("c", SetPath::parse("Companies"));
        q.add_eq(
            Operand::proj(c, "cname"),
            Operand::Const(Value::str("Acme")),
        );
        assert!(all(&s, &i, &q).is_empty());
    }

    #[test]
    fn empty_query_has_one_binding() {
        let s = compdb();
        let i = fig2(&s);
        let q = Query::new();
        assert_eq!(all(&s, &i, &q), vec![Vec::<Tuple>::new()]);
    }

    #[test]
    fn nested_child_variables() {
        let schema = Schema::new(
            "OrgDB",
            vec![Field::new(
                "Orgs",
                Ty::set_of(vec![
                    Field::new("oname", Ty::Str),
                    Field::new("Projects", Ty::set_of(vec![Field::new("pname", Ty::Str)])),
                ]),
            )],
        )
        .unwrap();
        let mut b = InstanceBuilder::new(&schema);
        let pi = b.group("Orgs.Projects", vec![Value::str("IBM")]);
        b.push(pi, vec![Value::str("DB")]);
        b.push(pi, vec![Value::str("Web")]);
        let ps = b.group("Orgs.Projects", vec![Value::str("SBC")]);
        b.push(ps, vec![Value::str("WiFi")]);
        b.push_top("Orgs", vec![Value::str("IBM"), Value::Set(pi)]);
        b.push_top("Orgs", vec![Value::str("SBC"), Value::Set(ps)]);
        let inst = b.finish().unwrap();

        let mut q = Query::new();
        let o = q.var("o", SetPath::parse("Orgs"));
        let p = q.child_var("p", o, "Projects");
        q.add_eq(Operand::proj(o, "oname"), Operand::Const(Value::str("IBM")));
        let rows = all(&schema, &inst, &q);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r[o][0], Value::str("IBM"));
            assert!(r[p][0] == Value::str("DB") || r[p][0] == Value::str("Web"));
        }
    }

    #[test]
    fn self_join_same_variable_order_is_deterministic() {
        let s = compdb();
        let i = fig2(&s);
        let mut q = Query::new();
        let c1 = q.var("c1", SetPath::parse("Companies"));
        let c2 = q.var("c2", SetPath::parse("Companies"));
        q.add_eq(Operand::proj(c1, "cname"), Operand::proj(c2, "cname"));
        let a = all(&s, &i, &q);
        let b = all(&s, &i, &q);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2); // each company matches itself
    }

    #[test]
    fn index_lookup_used_for_large_joins() {
        // A join over a larger instance; correctness is what we assert, the
        // lazy index is what makes it fast.
        let s = compdb();
        let mut b = InstanceBuilder::new(&s);
        for i in 0..500 {
            b.push_top(
                "Companies",
                vec![Value::int(i), Value::str(format!("c{i}")), Value::str("X")],
            );
            b.push_top(
                "Projects",
                vec![
                    Value::str(format!("p{i}")),
                    Value::int(i),
                    Value::str(format!("e{i}")),
                ],
            );
            b.push_top(
                "Employees",
                vec![Value::str(format!("e{i}")), Value::str(format!("n{i}"))],
            );
        }
        let inst = b.finish().unwrap();
        let mut q = Query::new();
        let c = q.var("c", SetPath::parse("Companies"));
        let p = q.var("p", SetPath::parse("Projects"));
        let e = q.var("e", SetPath::parse("Employees"));
        q.add_eq(Operand::proj(p, "cid"), Operand::proj(c, "cid"));
        q.add_eq(Operand::proj(e, "eid"), Operand::proj(p, "manager"));
        let rows = all(&s, &inst, &q);
        assert_eq!(rows.len(), 500);
    }

    #[test]
    fn planned_eval_matches_reference_byte_for_byte() {
        use crate::plan::PlanStep;

        let s = compdb();
        let mut b = InstanceBuilder::new(&s);
        for i in 0..40 {
            b.push_top(
                "Companies",
                vec![
                    Value::int(i % 7),
                    Value::str(format!("c{}", i % 5)),
                    Value::str("X"),
                ],
            );
            b.push_top(
                "Projects",
                vec![
                    Value::str(format!("p{}", i % 3)),
                    Value::int(i % 7),
                    Value::str(format!("e{}", i % 4)),
                ],
            );
            b.push_top(
                "Employees",
                vec![Value::str(format!("e{}", i % 4)), Value::str("n")],
            );
        }
        let inst = b.finish().unwrap();
        let mut q = Query::new();
        let c = q.var("c", SetPath::parse("Companies"));
        let p = q.var("p", SetPath::parse("Projects"));
        let e = q.var("e", SetPath::parse("Employees"));
        q.add_eq(Operand::proj(p, "cid"), Operand::proj(c, "cid"));
        q.add_eq(Operand::proj(e, "eid"), Operand::proj(p, "manager"));
        q.add_neq(Operand::proj(c, "cname"), Operand::Const(Value::str("c0")));

        let reference = all(&s, &inst, &q);
        // Every parent-respecting permutation must reproduce the reference
        // rows in the reference order.
        for order in [[c, p, e], [e, p, c], [p, c, e], [p, e, c], [c, e, p]] {
            let plan = EvalPlan {
                steps: order
                    .iter()
                    .map(|&v| PlanStep {
                        var: v,
                        probe_attrs: vec![],
                        key_covered: false,
                    })
                    .collect(),
            };
            let m = Metrics::disabled();
            let (rows, timed_out) = enumerate(&s, &inst, &q, Some(&plan), None, None, &m).unwrap();
            assert!(!timed_out);
            assert_eq!(rows, reference, "order {order:?} diverged");
        }
        // Limited searches keep the legacy order: identical prefixes.
        let hints = SelectivityHints::default();
        for limit in [1, 3, 7] {
            let req = EvalReq {
                hints: Some(&hints),
                limit: Some(limit),
                ..EvalReq::default()
            };
            let rows = req.run(&s, &inst, &q).unwrap().into_value();
            assert_eq!(rows.as_slice(), &reference[..limit.min(reference.len())]);
        }
    }

    #[test]
    fn composite_probes_cut_steps() {
        // Two equalities against the new variable: the legacy path probes
        // one attribute and filters the rest per candidate; the planned
        // path probes both at once. Same rows, strictly fewer steps.
        let s = compdb();
        let mut b = InstanceBuilder::new(&s);
        for i in 0..300 {
            b.push_top(
                "Companies",
                vec![
                    Value::int(i % 2),
                    Value::str(format!("c{i}")),
                    Value::str("X"),
                ],
            );
            b.push_top(
                "Projects",
                vec![
                    Value::str("p"),
                    Value::int(i % 2),
                    Value::str(format!("c{i}")),
                ],
            );
        }
        let inst = b.finish().unwrap();
        let mut q = Query::new();
        let c = q.var("c", SetPath::parse("Companies"));
        let p = q.var("p", SetPath::parse("Projects"));
        q.add_eq(Operand::proj(p, "cid"), Operand::proj(c, "cid"));
        q.add_eq(Operand::proj(p, "manager"), Operand::proj(c, "cname"));

        let m_ref = Metrics::enabled();
        let plain = EvalReq {
            metrics: &m_ref,
            ..EvalReq::default()
        };
        let reference = plain.run(&s, &inst, &q).unwrap().into_value();
        let hints = SelectivityHints::default();
        let m_plan = Metrics::enabled();
        let planned = EvalReq {
            metrics: &m_plan,
            hints: Some(&hints),
            ..EvalReq::default()
        };
        let rows = planned.run(&s, &inst, &q).unwrap().into_value();
        assert_eq!(rows, reference);
        let (ref_steps, plan_steps) = (
            m_ref.snapshot().counter("query.steps"),
            m_plan.snapshot().counter("query.steps"),
        );
        assert!(
            plan_steps * 10 < ref_steps,
            "composite probe did not pay off: {plan_steps} vs {ref_steps}"
        );
    }

    #[test]
    fn budget_row_cap_truncates() {
        let s = compdb();
        let i = fig2(&s);
        let mut q = Query::new();
        q.var("e", SetPath::parse("Employees"));
        let m = Metrics::enabled();
        let budget = Budget::unlimited().with_max_rows(2);
        let req = EvalReq {
            metrics: &m,
            budget: &budget,
            ..EvalReq::default()
        };
        let out = req.run(&s, &i, &q).unwrap();
        assert_eq!(out.reason(), Some(TruncationReason::RowLimit));
        assert_eq!(out.value().len(), 2);
        let snap = m.snapshot();
        assert_eq!(snap.counter("budget.truncations"), 1);
        assert_eq!(snap.counter("budget.row_limit_hits"), 1);
    }

    #[test]
    fn caller_limit_is_not_a_truncation() {
        let s = compdb();
        let i = fig2(&s);
        let mut q = Query::new();
        q.var("e", SetPath::parse("Employees"));
        let run = |budget: &Budget, limit: Option<usize>| {
            let req = EvalReq {
                budget,
                limit,
                ..EvalReq::default()
            };
            req.run(&s, &i, &q).unwrap()
        };
        // Caller asks for 2 rows under a looser (or equal) budget: complete.
        for budget in [
            Budget::unlimited(),
            Budget::unlimited().with_max_rows(2),
            Budget::unlimited().with_max_rows(10),
        ] {
            let out = run(&budget, Some(2));
            assert!(out.is_complete(), "budget {budget:?}");
            assert_eq!(out.value().len(), 2);
        }
        // A tighter budget than the caller's ask is a truncation.
        let out = run(&Budget::unlimited().with_max_rows(1), Some(2));
        assert_eq!(out.reason(), Some(TruncationReason::RowLimit));
        assert_eq!(out.value().len(), 1);
        // An exhaustive result below the cap is complete.
        let out = run(&Budget::unlimited().with_max_rows(50), None);
        assert!(out.is_complete());
        assert_eq!(out.value().len(), 3);
    }

    #[test]
    fn budget_expired_deadline_truncates() {
        let s = compdb();
        let i = fig2(&s);
        let mut q = Query::new();
        let c1 = q.var("c1", SetPath::parse("Companies"));
        let c2 = q.var("c2", SetPath::parse("Companies"));
        q.add_neq(Operand::proj(c1, "cid"), Operand::proj(c2, "cid"));
        let m = Metrics::enabled();
        let budget =
            Budget::unlimited().with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        let req = EvalReq {
            metrics: &m,
            budget: &budget,
            ..EvalReq::default()
        };
        let out = req.run(&s, &i, &q).unwrap();
        // The deadline check fires every 1024 steps; this tiny search ends
        // first, so completion is legal — what matters is that an actually
        // cut-short search reports DeadlineExpired. Force it with a search
        // big enough to cross the check boundary.
        if !out.is_complete() {
            assert_eq!(out.reason(), Some(TruncationReason::DeadlineExpired));
        }
        let mut b = InstanceBuilder::new(&s);
        for i in 0..2000 {
            b.push_top(
                "Employees",
                vec![Value::str(format!("e{i}")), Value::str("x")],
            );
        }
        let big = b.finish().unwrap();
        let mut q2 = Query::new();
        q2.var("a", SetPath::parse("Employees"));
        q2.var("b", SetPath::parse("Employees"));
        let out = req.run(&s, &big, &q2).unwrap();
        assert_eq!(out.reason(), Some(TruncationReason::DeadlineExpired));
        assert!(m.snapshot().counter("budget.deadline_hits") >= 1);
    }
}

//! **Incremental chase** — semi-naive delta evaluation over materialized
//! universal solutions (ROADMAP item 2).
//!
//! The wizard's interactive loop chases near-identical source instances
//! over and over: every Muse-G probe chases the same example under two
//! candidate groupings, and consecutive probes perturb only the example
//! rows the probed attribute touches. A [`DeltaStore`] exploits that by
//! materializing, per mapping source query, the state of the last chase:
//! the source tuples each query variable ranged over (the *snapshot*) and
//! the full set of live bindings. A binding is its own support set — the
//! chase fires one `exists`-clause instantiation per binding, so a derived
//! fact survives exactly as long as its binding does. A later chase of the
//! same query is then answered incrementally:
//!
//! 1. **Diff.** Each variable's root set is diffed against the snapshot
//!    (`added` / `removed`, by value — eligibility restricts source tuples
//!    to atoms, whose identity is stable across instances).
//! 2. **Delete/rederive.** Live bindings containing a removed tuple are
//!    retracted (`chase.retracted`); every other binding survives
//!    verbatim, because predicates are value-based and tuples immutable.
//! 3. **Semi-naive delta rounds.** Fresh bindings are enumerated one
//!    variable position `r` at a time: variable `r` ranges over `added`,
//!    variables before `r` over the *new* set, variables after `r` over
//!    the *old surviving* set. Each fresh binding is found exactly once
//!    (at its last added position) and no round joins the full new
//!    instance against itself (`chase.delta_rounds`, `chase.delta_facts`).
//! 4. **Canonical re-fire.** The surviving-plus-fresh bindings are fired
//!    into a fresh target in the evaluator's emission order, reconstructed
//!    without re-running the search: emission order is lexicographic in
//!    per-variable enumeration ranks taken in the greedy binding order
//!    ([`muse_query::greedy_order`], purely structural), and for flat root
//!    sets the enumeration rank order *is* the `BTreeSet` value order — so
//!    a `BTreeSet` of greedy-arranged bindings iterates in exactly the
//!    order the scratch chase fires. Re-firing through the same
//!    [`engine::fire`] in that order reproduces the scratch target
//!    byte-for-byte, including `TermStore` null/SetID numbering.
//!
//! Counter reconciliation: an incremental chase splits the scratch chase's
//! `chase.steps` into `chase.steps` (fresh bindings actually derived) plus
//! `chase.rederived` (surviving bindings replayed from the materialized
//! state); their sum equals `chase.bindings`, which matches the scratch
//! count exactly. `chase.tuples_emitted` / `chase.dedup_hits` are recorded
//! by the shared firing path and come out identical.
//!
//! The store is reached through [`ChaseReq::delta`]. Fallback rules — the
//! incremental path must be *indistinguishable* from the scratch chase, so
//! [`ChaseReq::run`] transparently takes the scratch path
//! (`chase.delta_fallbacks`) whenever byte-identity could not be argued
//! locally:
//!
//! * the budget is limited (truncation points depend on global step order),
//! * a fault plan is armed (fault points fire at scratch-chase sites),
//! * a query variable is nested (`parent`), or ranges over a set whose
//!   tuples contain non-atoms (nulls/SetIDs compare by instance-relative
//!   ids, so value diffs across instances would be unsound),
//! * a predicate constant is non-atomic, or
//! * the mapping set is empty / the chase is multi-mapping (the engine
//!   interleaves term interning across mappings), or
//! * the evaluator's emission order disagrees with the canonical order
//!   (`chase.delta_order_mismatch`; never observed, checked anyway).

use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;

use muse_mapping::Mapping;
use muse_nr::{Atom, Instance, Schema, Tuple, Value};
use muse_obs::json::Json;
use muse_obs::{Metrics, Outcome};
use muse_query::{greedy_order, Operand, Query};

use crate::engine::{self, ChaseReq, Emit, Prepared};
use crate::error::ChaseError;

/// Materialized states retained per query key, most-recently-used last.
/// The wizard revisits earlier examples wholesale (a later strategy pass
/// replays an earlier pass's probes), so a short history turns those
/// repeats into exact-snapshot matches — zero delta work — where a single
/// slot would pay the full diff chain again. Probe examples are tiny
/// (two copies of a handful of rows), so the history is cheap.
const STATES_PER_KEY: usize = 16;

/// Materialized chase state for one source query (see module docs).
#[derive(Clone)]
struct MappingState {
    /// Per query variable: rendered set path (guards restored snapshots
    /// against drift — a mismatch rematerializes from scratch).
    paths: Vec<String>,
    /// Greedy binding order of the source query.
    greedy: Vec<usize>,
    /// Per query variable: the source root tuples at the last update.
    snapshot: Vec<BTreeSet<Tuple>>,
    /// Live bindings, each arranged in greedy order — `BTreeSet` iteration
    /// is then exactly the evaluator's emission order.
    live: BTreeSet<Vec<Tuple>>,
}

/// A predicate operand compiled to positional form over atom values.
#[derive(Clone)]
enum COp {
    Proj { var: usize, idx: usize },
    Const(Value),
}

impl COp {
    fn eval<'a>(&'a self, partial: &[&'a Tuple]) -> &'a Value {
        match self {
            COp::Const(v) => v,
            COp::Proj { var, idx } => &partial[*var][*idx],
        }
    }
}

/// The source query compiled for delta evaluation, plus the eligibility
/// verdict baked into its construction.
struct Compiled {
    paths: Vec<String>,
    greedy: Vec<usize>,
    /// Predicates bucketed by the highest variable index they project —
    /// checkable as soon as the delta join binds that variable.
    checks_at: Vec<Vec<(COp, COp, bool)>>,
}

impl Compiled {
    /// Compile `q` if every variable is a flat root binding and every
    /// predicate operand is positional-over-atoms. `None` means ineligible.
    fn resolve(schema: &Schema, q: &Query) -> Option<Compiled> {
        if q.vars.is_empty() || q.vars.iter().any(|v| v.parent.is_some()) {
            return None;
        }
        let greedy = greedy_order(schema, q).ok()?;
        let compile = |op: &Operand| -> Option<COp> {
            match op {
                Operand::Const(v) => match v {
                    Value::Atom(_) => Some(COp::Const(v.clone())),
                    _ => None,
                },
                Operand::Proj { var, attr } => {
                    let set = &q.vars.get(*var)?.set;
                    let idx = schema.attr_index(set, attr).ok()?;
                    Some(COp::Proj { var: *var, idx })
                }
            }
        };
        let mut checks_at: Vec<Vec<(COp, COp, bool)>> =
            (0..q.vars.len()).map(|_| Vec::new()).collect();
        for (preds, is_neq) in [(&q.eqs, false), (&q.neqs, true)] {
            for (a, b) in preds {
                let ca = compile(a)?;
                let cb = compile(b)?;
                let at = a.var().into_iter().chain(b.var()).max().unwrap_or(0);
                checks_at[at].push((ca, cb, is_neq));
            }
        }
        Some(Compiled {
            paths: q.vars.iter().map(|v| v.set.to_string()).collect(),
            greedy,
            checks_at,
        })
    }

    fn checks_pass(&self, bound: usize, partial: &[&Tuple]) -> bool {
        self.checks_at[bound]
            .iter()
            .all(|(a, b, is_neq)| (a.eval(partial) == b.eval(partial)) != *is_neq)
    }
}

/// Identity of a source query, used as the materialization key. Two
/// mappings whose `for`/`satisfy` clauses compile to the same query (e.g. a
/// probe's `d1`/`d2` grouping variants) share one binding state.
fn query_key(q: &Query) -> String {
    use std::fmt::Write as _;
    let mut key = String::new();
    for v in &q.vars {
        let _ = write!(key, "v:{}\u{1f}", v.set);
    }
    let op = |o: &Operand, key: &mut String| match o {
        Operand::Proj { var, attr } => {
            let _ = write!(key, "{var}.{attr}");
        }
        Operand::Const(v) => {
            let _ = write!(key, "={v:?}");
        }
    };
    for (tag, preds) in [("eq", &q.eqs), ("ne", &q.neqs)] {
        for (a, b) in preds {
            let _ = write!(key, "{tag}:");
            op(a, &mut key);
            key.push('~');
            op(b, &mut key);
            key.push('\u{1f}');
        }
    }
    key
}

/// Clone each variable's root set out of `source`, refusing instances whose
/// relevant tuples contain anything but atoms.
fn atom_sets(source: &Instance, q: &Query) -> Option<Vec<BTreeSet<Tuple>>> {
    let mut sets = Vec::with_capacity(q.vars.len());
    for v in &q.vars {
        let id = source.root_id(v.set.label())?;
        let tuples = source.tuples(id);
        let set: BTreeSet<Tuple> = tuples.cloned().collect();
        if set
            .iter()
            .any(|t| t.iter().any(|v| !matches!(v, Value::Atom(_))))
        {
            return None;
        }
        sets.push(set);
    }
    Some(sets)
}

/// Arrange a variable-ordered binding in greedy order (the canonical sort
/// key) or back.
fn to_greedy(greedy: &[usize], b: &[Tuple]) -> Vec<Tuple> {
    greedy.iter().map(|&v| b[v].clone()).collect()
}

fn to_var_order(greedy: &[usize], b: &[Tuple]) -> Vec<Tuple> {
    let mut row = vec![Vec::new(); b.len()];
    for (i, &v) in greedy.iter().enumerate() {
        row[v] = b[i].clone();
    }
    row
}

/// A session-scoped store of materialized chase state, shared by every
/// probe/partial-target chase of that session (mirror of
/// [`crate::fingerprint`]'s role for instances: pure cache, zero effect on
/// results). Cheap to create; `Mutex`-protected so `serve` can hang one off
/// a session entry shared across request threads.
pub struct DeltaStore {
    inner: Mutex<HashMap<String, Vec<MappingState>>>,
}

impl std::fmt::Debug for DeltaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaStore")
            .field("entries", &self.len())
            .finish()
    }
}

impl Default for DeltaStore {
    fn default() -> Self {
        DeltaStore::new()
    }
}

impl DeltaStore {
    /// Empty store.
    pub fn new() -> Self {
        DeltaStore {
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Number of materialized query states currently held.
    pub fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }

    /// True when nothing has been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Vec<MappingState>>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The incremental one-mapping chase behind [`ChaseReq::run`]:
    /// `Some(target)` byte-identical to the scratch chase's complete
    /// outcome when the eligibility rules (module docs) hold, `None` when
    /// the request must take the scratch path instead.
    pub(crate) fn chase_one(
        &self,
        req: &ChaseReq<'_>,
        source_schema: &Schema,
        target_schema: &Schema,
        source: &Instance,
        mapping: &Mapping,
    ) -> Result<Option<Instance>, ChaseError> {
        let metrics = req.metrics;
        if !req.budget.is_unlimited() || muse_fault::armed() {
            return Ok(None);
        }
        let q = mapping.source_query();
        let (Some(compiled), Some(cur)) =
            (Compiled::resolve(source_schema, &q), atom_sets(source, &q))
        else {
            return Ok(None);
        };

        let timer = metrics.timer("chase.time");
        let _span = timer.start();
        // Same validation/plan resolution (and `chase.mappings` counter) as
        // the scratch path.
        let prepared = engine::prepare(source_schema, target_schema, mapping, metrics)?;

        let key = query_key(&q);
        let mut inner = self.lock();
        let states = inner.entry(key).or_default();
        let compatible =
            |s: &MappingState| s.paths == compiled.paths && s.greedy == compiled.greedy;
        // Exact snapshot match first (a revisited example: zero delta
        // work), else diff against the most recent compatible state.
        let exact = states
            .iter()
            .position(|s| compatible(s) && s.snapshot == cur);
        let state = match exact {
            Some(i) => {
                metrics.incr("chase.delta_hits");
                let mut s = states.remove(i);
                Self::apply_delta(&mut s, &compiled, cur, metrics);
                s
            }
            None => match states.iter().rposition(compatible) {
                Some(i) => {
                    metrics.incr("chase.delta_hits");
                    let mut s = states[i].clone();
                    Self::apply_delta(&mut s, &compiled, cur, metrics);
                    s
                }
                None => {
                    metrics.incr("chase.delta_misses");
                    let materialized =
                        Self::materialize(req, source_schema, source, &q, &compiled, cur)?;
                    match materialized {
                        Some(s) => s,
                        // Evaluator order disagreed with the canonical order
                        // (never observed; belt and braces) or the evaluation
                        // was truncated — stay on the scratch path.
                        None => return Ok(None),
                    }
                }
            },
        };
        // Evict before re-firing, so at most STATES_PER_KEY states are
        // alive while the target is built.
        while states.len() >= STATES_PER_KEY {
            states.remove(0);
        }
        let target = Self::refire(target_schema, &prepared, &state, metrics);
        states.push(state);
        target.map(Some)
    }

    /// First sight of a query: enumerate its bindings with the real
    /// (planned) evaluator — identical `query.*` / `chase.steps` accounting
    /// to a scratch chase — and check, while arranging them into the
    /// canonical set, that the emission order matches the greedy-rank sort
    /// the delta path will later rely on.
    fn materialize(
        req: &ChaseReq<'_>,
        source_schema: &Schema,
        source: &Instance,
        q: &Query,
        compiled: &Compiled,
        cur: Vec<BTreeSet<Tuple>>,
    ) -> Result<Option<MappingState>, ChaseError> {
        let metrics = req.metrics;
        let plan = engine::mapping_plan(source_schema, q, req.hints);
        let bindings = match muse_query::evaluate_all_planned_with(
            source_schema,
            source,
            q,
            plan.as_ref(),
            req.budget,
            metrics,
        )? {
            Outcome::Complete(b) => b,
            Outcome::Truncated { .. } => return Ok(None),
        };
        metrics.add("chase.bindings", bindings.len() as u64);
        metrics.add("chase.steps", bindings.len() as u64);
        let mut live = BTreeSet::new();
        let mut ordered = true;
        let mut last: Option<Vec<Tuple>> = None;
        for b in &bindings {
            let g = to_greedy(&compiled.greedy, b);
            if let Some(prev) = &last {
                ordered &= prev < &g;
            }
            last = Some(g.clone());
            live.insert(g);
        }
        if !ordered {
            metrics.incr("chase.delta_order_mismatch");
            return Ok(None);
        }
        Ok(Some(MappingState {
            paths: compiled.paths.clone(),
            greedy: compiled.greedy.clone(),
            snapshot: cur,
            live,
        }))
    }

    /// Steps 1–3 of the module docs: diff, delete/rederive, semi-naive
    /// fresh-binding rounds. Updates `state` in place.
    fn apply_delta(
        state: &mut MappingState,
        compiled: &Compiled,
        cur: Vec<BTreeSet<Tuple>>,
        metrics: &Metrics,
    ) {
        let n = cur.len();
        let added: Vec<BTreeSet<Tuple>> = (0..n)
            .map(|v| cur[v].difference(&state.snapshot[v]).cloned().collect())
            .collect();
        let removed: Vec<BTreeSet<Tuple>> = (0..n)
            .map(|v| state.snapshot[v].difference(&cur[v]).cloned().collect())
            .collect();

        // Delete: a binding's support is exactly its tuples.
        let before = state.live.len();
        if removed.iter().any(|r| !r.is_empty()) {
            let greedy = &state.greedy;
            state
                .live
                .retain(|b| !(0..n).any(|i| removed[greedy[i]].contains(&b[i])));
        }
        metrics.add("chase.retracted", (before - state.live.len()) as u64);

        // Old surviving sets: snapshot minus removals (== snapshot ∩ cur).
        let old: Vec<&BTreeSet<Tuple>> = (0..n).map(|v| &state.snapshot[v]).collect();

        // Semi-naive rounds: fresh bindings found at their *last* added
        // variable position, so each is derived exactly once.
        let mut fresh: Vec<Vec<Tuple>> = Vec::new();
        let mut rounds = 0u64;
        for r in 0..n {
            if added[r].is_empty() {
                continue;
            }
            rounds += 1;
            let mut partial: Vec<&Tuple> = Vec::with_capacity(n);
            Self::delta_join(
                compiled,
                &cur,
                old.as_slice(),
                &added,
                r,
                0,
                &mut partial,
                &mut fresh,
            );
        }
        metrics.add("chase.delta_rounds", rounds);
        metrics.add("chase.delta_facts", fresh.len() as u64);
        metrics.add("chase.steps", fresh.len() as u64);
        for b in &fresh {
            state.live.insert(to_greedy(&compiled.greedy, b));
        }
        metrics.add("chase.bindings", state.live.len() as u64);
        metrics.add("chase.rederived", (state.live.len() - fresh.len()) as u64);
        state.snapshot = cur;
    }

    /// Depth-first product for round `r`, binding variables in index order
    /// and pruning with every predicate as soon as it becomes checkable.
    #[allow(clippy::too_many_arguments)]
    fn delta_join<'a>(
        compiled: &Compiled,
        cur: &'a [BTreeSet<Tuple>],
        old: &[&'a BTreeSet<Tuple>],
        added: &'a [BTreeSet<Tuple>],
        r: usize,
        v: usize,
        partial: &mut Vec<&'a Tuple>,
        out: &mut Vec<Vec<Tuple>>,
    ) {
        if v == cur.len() {
            out.push(partial.iter().map(|t| (*t).clone()).collect());
            return;
        }
        let source: Box<dyn Iterator<Item = &'a Tuple>> = match v.cmp(&r) {
            std::cmp::Ordering::Less => Box::new(cur[v].iter()),
            std::cmp::Ordering::Equal => Box::new(added[v].iter()),
            // After the delta position: old tuples that survived.
            std::cmp::Ordering::Greater => {
                Box::new(old[v].iter().filter(move |t| cur[v].contains(*t)))
            }
        };
        for t in source {
            partial.push(t);
            if compiled.checks_pass(v, partial) {
                Self::delta_join(compiled, cur, old, added, r, v + 1, partial, out);
            }
            partial.pop();
        }
    }

    /// Step 4: fire the live bindings, in canonical (= scratch emission)
    /// order, into a fresh target instance. Counters and term numbering
    /// come out identical to the scratch chase; `chase.rederived` replaces
    /// the `chase.steps` the replayed bindings would have cost.
    fn refire(
        target_schema: &Schema,
        prepared: &Prepared<'_>,
        state: &MappingState,
        metrics: &Metrics,
    ) -> Result<Instance, ChaseError> {
        let emit = Emit::new(metrics);
        let mut target = Instance::new(target_schema);
        for b in &state.live {
            let row = to_var_order(&state.greedy, b);
            engine::fire(prepared, &mut target, &row, &emit)?;
        }
        Ok(target)
    }

    /// Serialize the materialized state (atoms only, by construction) for
    /// the serve layer's WAL snapshots.
    pub fn export_json(&self) -> Json {
        let tuple_json = |t: &Tuple| {
            Json::Arr(
                t.iter()
                    .map(|v| match v {
                        Value::Atom(Atom::Int(i)) => Json::Int(*i),
                        Value::Atom(Atom::Str(s)) => Json::str(s.as_ref()),
                        // Unreachable for materialized state; degrade to a
                        // sentinel the importer rejects.
                        _ => Json::Null,
                    })
                    .collect(),
            )
        };
        let set_json = |s: &BTreeSet<Tuple>| Json::Arr(s.iter().map(tuple_json).collect());
        let inner = self.lock();
        // Render deterministically (HashMap iteration is not): keys
        // sorted, each key's states in their retained (LRU→MRU) order —
        // one entry per state, keys repeating.
        let mut keys: Vec<&String> = inner.keys().collect();
        keys.sort();
        let entries = keys
            .iter()
            .flat_map(|k| inner[*k].iter().map(move |s| (*k, s)))
            .map(|(k, s)| {
                Json::obj(vec![
                    ("key", Json::str(k.clone())),
                    (
                        "paths",
                        Json::Arr(s.paths.iter().map(|p| Json::str(p.clone())).collect()),
                    ),
                    (
                        "greedy",
                        Json::Arr(s.greedy.iter().map(|&v| Json::Int(v as i64)).collect()),
                    ),
                    (
                        "snapshot",
                        Json::Arr(s.snapshot.iter().map(set_json).collect()),
                    ),
                    (
                        "live",
                        Json::Arr(
                            s.live
                                .iter()
                                .map(|b| Json::Arr(b.iter().map(tuple_json).collect()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![("v", Json::Int(1)), ("entries", Json::Arr(entries))])
    }

    /// Restore state exported by [`Self::export_json`] into this (fresh)
    /// store. Any malformed piece drops the whole blob — the store is a
    /// cache, so an empty restore only costs one rematerialization.
    pub fn import_json(&self, j: &Json) -> bool {
        fn tuple_of(j: &Json) -> Option<Tuple> {
            j.as_arr()?
                .iter()
                .map(|v| match v {
                    Json::Int(i) => Some(Value::int(*i)),
                    Json::Str(s) => Some(Value::str(s)),
                    _ => None,
                })
                .collect()
        }
        fn set_of(j: &Json) -> Option<BTreeSet<Tuple>> {
            j.as_arr()?.iter().map(tuple_of).collect()
        }
        if j.get("v").and_then(Json::as_int) != Some(1) {
            return false;
        }
        let Some(entries) = j.get("entries").and_then(Json::as_arr) else {
            return false;
        };
        let mut restored: HashMap<String, Vec<MappingState>> = HashMap::new();
        for e in entries {
            let parse = || -> Option<(String, MappingState)> {
                let key = e.get("key")?.as_str()?.to_owned();
                let paths: Vec<String> = e
                    .get("paths")?
                    .as_arr()?
                    .iter()
                    .map(|p| Some(p.as_str()?.to_owned()))
                    .collect::<Option<_>>()?;
                let greedy: Vec<usize> = e
                    .get("greedy")?
                    .as_arr()?
                    .iter()
                    .map(|v| usize::try_from(v.as_int()?).ok())
                    .collect::<Option<_>>()?;
                let snapshot: Vec<BTreeSet<Tuple>> = e
                    .get("snapshot")?
                    .as_arr()?
                    .iter()
                    .map(set_of)
                    .collect::<Option<_>>()?;
                let live: BTreeSet<Vec<Tuple>> = e
                    .get("live")?
                    .as_arr()?
                    .iter()
                    .map(|b| {
                        b.as_arr()?
                            .iter()
                            .map(tuple_of)
                            .collect::<Option<Vec<Tuple>>>()
                    })
                    .collect::<Option<_>>()?;
                if paths.len() != snapshot.len()
                    || greedy.len() != paths.len()
                    || live.iter().any(|b| b.len() != paths.len())
                {
                    return None;
                }
                Some((
                    key,
                    MappingState {
                        paths,
                        greedy,
                        snapshot,
                        live,
                    },
                ))
            };
            let Some((key, state)) = parse() else {
                return false;
            };
            let states = restored.entry(key).or_default();
            states.push(state);
            if states.len() > STATES_PER_KEY {
                return false;
            }
        }
        *self.lock() = restored;
        true
    }
}

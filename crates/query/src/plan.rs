//! Static query planning: a deterministic bound-variable-propagation join
//! order with key-aware probe annotations.
//!
//! [`plan_query`] orders a CQ's variables without looking at any instance:
//! starting from the declaration-first eligible variable, it repeatedly
//! binds the variable whose already-bound equalities are most selective —
//! preferring (lexicographically) variables whose bound attributes cover a
//! declared key under the [`SelectivityHints`] FD closure, then child
//! variables (bound to a single parent set), then the raw count of bound
//! equalities, then declaration order. The result is an [`EvalPlan`]: a
//! serializable artifact `muse lint` emits per mapping. The evaluator
//! builds the same plan itself from an [`crate::EvalReq`]'s `hints`.
//!
//! A plan changes how the evaluator searches, never what it returns:
//!
//! * *composite probes* — at every position the evaluator probes a lazy
//!   hash index on **all** equality attributes bound at that point (the
//!   plan-less path probes one); this is order-preserving, so it is safe
//!   even for `limit`/deadline searches (identical result prefixes);
//! * *plan order* — for complete enumerations (no limit, no deadline) the
//!   search runs in plan order and the emitted rows are restored to the
//!   plan-less emission order by rank-sorting, keeping results
//!   byte-identical.

use muse_nr::Schema;
use muse_obs::Json;

use crate::ast::{Operand, Query};
use crate::error::QueryError;
use crate::hints::SelectivityHints;

/// How one variable is bound, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// Index into [`Query::vars`].
    pub var: usize,
    /// Record field indices carrying an equality against an operand bound
    /// before this step — the composite hash-probe key. Sorted, deduped.
    pub probe_attrs: Vec<usize>,
    /// The probe attributes cover a declared key (under the hint FD
    /// closure): at most one tuple matches.
    pub key_covered: bool,
}

/// A static evaluation plan for one [`Query`]: the variable order plus the
/// per-step probe annotation. Produced by [`plan_query`], run by the
/// evaluator for a hinted [`crate::EvalReq`] and serialized by `muse lint`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalPlan {
    /// One step per query variable, in execution order.
    pub steps: Vec<PlanStep>,
}

impl EvalPlan {
    /// The variable order (indices into [`Query::vars`]).
    pub fn order(&self) -> impl Iterator<Item = usize> + '_ {
        self.steps.iter().map(|s| s.var)
    }

    /// Stable JSON form, resolving variable and attribute names against the
    /// query and schema the plan was built for.
    pub fn to_json(&self, schema: &Schema, query: &Query) -> Json {
        let steps = self
            .steps
            .iter()
            .map(|s| {
                let qv = &query.vars[s.var];
                let labels = schema.attributes(&qv.set).unwrap_or_default();
                let access = if qv.parent.is_some() {
                    "parent"
                } else if s.probe_attrs.is_empty() {
                    "scan"
                } else {
                    "probe"
                };
                Json::obj(vec![
                    ("var", Json::str(&qv.name)),
                    ("set", Json::str(qv.set.to_string())),
                    ("access", Json::str(access)),
                    (
                        "probe_attrs",
                        Json::Arr(
                            s.probe_attrs
                                .iter()
                                .map(|&i| {
                                    Json::str(
                                        labels.get(i).cloned().unwrap_or_else(|| format!("#{i}")),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                    ("key_covered", Json::Bool(s.key_covered)),
                ])
            })
            .collect();
        Json::obj(vec![("steps", Json::Arr(steps))])
    }
}

/// Past this many variables the planner falls back from exhaustive order
/// search to the greedy heuristic (6! = 720 candidate orders at most).
const EXHAUSTIVE_MAX_VARS: usize = 6;

/// Build the deterministic bound-variable-propagation plan for `query`.
/// `hints` sharpens the order (key-covered probes first) and fills
/// [`PlanStep::key_covered`]; without hints the order degrades to
/// bound-equality counting and no step is key-covered.
///
/// Up to `EXHAUSTIVE_MAX_VARS` (6) variables the planner scores every
/// parent-respecting order and keeps the best one — most key-covered
/// probes, then most probed equalities, ties resolved to the
/// lexicographically least order (declaration-order bias). Larger queries
/// use a greedy one-step version of the same ranking.
pub fn plan_query(
    schema: &Schema,
    query: &Query,
    hints: Option<&SelectivityHints>,
) -> Result<EvalPlan, QueryError> {
    query.validate(schema)?;
    let n = query.vars.len();
    // Resolve each equality side to (var, field index) or a constant.
    let eqs: Vec<(Side, Side)> = query
        .eqs
        .iter()
        .map(|(a, b)| Ok((side(schema, query, a)?, side(schema, query, b)?)))
        .collect::<Result<_, QueryError>>()?;

    if n <= EXHAUSTIVE_MAX_VARS {
        let mut best: Option<(Score, Vec<PlanStep>)> = None;
        let mut order = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        search_orders(query, &mut order, &mut placed, &mut |order| {
            let steps = steps_for_order(query, &eqs, hints, order);
            let score = (
                steps.iter().filter(|s| s.key_covered).count() as i64,
                steps.iter().map(|s| s.probe_attrs.len()).sum::<usize>() as i64,
            );
            // Strict `>` keeps the first (lexicographically least) order
            // among ties: orders are enumerated in ascending index order.
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, steps));
            }
        });
        let Some((_, steps)) = best else {
            return Err(QueryError::BadParent {
                var: query.vars[0].name.clone(),
            });
        };
        return Ok(EvalPlan { steps });
    }

    let mut placed = vec![false; n];
    let mut steps = Vec::with_capacity(n);
    while steps.len() < n {
        let mut best: Option<(Rank, PlanStep)> = None;
        for v in 0..n {
            if placed[v] {
                continue;
            }
            if let Some((p, _)) = &query.vars[v].parent {
                if !placed[*p] {
                    continue;
                }
            }
            let step = step_for(query, &eqs, hints, v, &placed);
            let rank = (
                step.key_covered as i64,
                query.vars[v].parent.is_some() as i64,
                step.probe_attrs.len() as i64,
                -(v as i64),
            );
            if best.as_ref().is_none_or(|(r, _)| rank > *r) {
                best = Some((rank, step));
            }
        }
        // Parents precede children in `Query::vars` (validated), so an
        // unplaced variable with a placed (or no) parent always exists.
        let Some((_, step)) = best else {
            return Err(QueryError::BadParent {
                var: query.vars[steps.len().min(n - 1)].name.clone(),
            });
        };
        placed[step.var] = true;
        steps.push(step);
    }
    Ok(EvalPlan { steps })
}

type Rank = (i64, i64, i64, i64);
type Score = (i64, i64);

/// Enumerate every parent-respecting variable order in lexicographic index
/// order, invoking `visit` on each complete one.
fn search_orders(
    query: &Query,
    order: &mut Vec<usize>,
    placed: &mut [bool],
    visit: &mut impl FnMut(&[usize]),
) {
    if order.len() == placed.len() {
        visit(order);
        return;
    }
    for v in 0..placed.len() {
        if placed[v] {
            continue;
        }
        if let Some((p, _)) = &query.vars[v].parent {
            if !placed[*p] {
                continue;
            }
        }
        placed[v] = true;
        order.push(v);
        search_orders(query, order, placed, visit);
        order.pop();
        placed[v] = false;
    }
}

/// The plan steps induced by one complete variable order.
fn steps_for_order(
    query: &Query,
    eqs: &[(Side, Side)],
    hints: Option<&SelectivityHints>,
    order: &[usize],
) -> Vec<PlanStep> {
    let mut placed = vec![false; query.vars.len()];
    order
        .iter()
        .map(|&v| {
            let step = step_for(query, eqs, hints, v, &placed);
            placed[v] = true;
            step
        })
        .collect()
}

/// The step binding `v` given the already-`placed` variables.
fn step_for(
    query: &Query,
    eqs: &[(Side, Side)],
    hints: Option<&SelectivityHints>,
    v: usize,
    placed: &[bool],
) -> PlanStep {
    let mut probe_attrs: Vec<usize> = Vec::new();
    for (a, b) in eqs {
        for (this, other) in [(a, b), (b, a)] {
            if let Side::Proj { var, idx } = this {
                if *var == v && other.bound(placed) {
                    probe_attrs.push(*idx);
                }
            }
        }
    }
    probe_attrs.sort_unstable();
    probe_attrs.dedup();
    let key_covered = hints.is_some_and(|h| h.covers_unique(&query.vars[v].set, &probe_attrs));
    PlanStep {
        var: v,
        probe_attrs,
        key_covered,
    }
}

#[derive(Debug, Clone)]
enum Side {
    Proj { var: usize, idx: usize },
    Const,
}

impl Side {
    fn bound(&self, placed: &[bool]) -> bool {
        match self {
            Side::Const => true,
            Side::Proj { var, .. } => placed[*var],
        }
    }
}

fn side(schema: &Schema, query: &Query, op: &Operand) -> Result<Side, QueryError> {
    Ok(match op {
        Operand::Const(_) => Side::Const,
        Operand::Proj { var, attr } => {
            let qv = query.vars.get(*var).ok_or(QueryError::UnknownVar(*var))?;
            let idx = schema
                .attr_index(&qv.set, attr)
                .map_err(|_| QueryError::UnknownAttr {
                    var: qv.name.clone(),
                    attr: attr.clone(),
                })?;
            Side::Proj { var: *var, idx }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_nr::{Constraints, Field, Key, SetPath, Ty};

    fn schema() -> Schema {
        Schema::new(
            "S",
            vec![
                Field::new(
                    "Companies",
                    Ty::set_of(vec![
                        Field::new("cid", Ty::Int),
                        Field::new("cname", Ty::Str),
                    ]),
                ),
                Field::new(
                    "Projects",
                    Ty::set_of(vec![
                        Field::new("pname", Ty::Str),
                        Field::new("cid", Ty::Int),
                    ]),
                ),
            ],
        )
        .unwrap()
    }

    fn keyed() -> SelectivityHints {
        SelectivityHints::from_constraints(
            &schema(),
            &Constraints {
                keys: vec![Key::new(SetPath::parse("Companies"), vec!["cid"])],
                fds: vec![],
                fks: vec![],
            },
        )
    }

    #[test]
    fn key_covered_probe_ordered_after_its_binder() {
        let s = schema();
        let mut q = Query::new();
        let c = q.var("c", SetPath::parse("Companies"));
        let p = q.var("p", SetPath::parse("Projects"));
        q.add_eq(Operand::proj(p, "cid"), Operand::proj(c, "cid"));
        let hints = keyed();
        let plan = plan_query(&s, &q, Some(&hints)).unwrap();
        // The exhaustive search discovers that scanning Projects first lets
        // Companies be probed by its declared key — regardless of
        // declaration order.
        assert_eq!(plan.steps[0].var, p);
        assert_eq!(plan.steps[1].var, c);
        assert_eq!(plan.steps[1].probe_attrs, vec![0]);
        assert!(plan.steps[1].key_covered);

        // Reversed declaration: p first, then c probed *by key*.
        let mut q2 = Query::new();
        let p2 = q2.var("p", SetPath::parse("Projects"));
        let c2 = q2.var("c", SetPath::parse("Companies"));
        q2.add_eq(Operand::proj(p2, "cid"), Operand::proj(c2, "cid"));
        let plan2 = plan_query(&s, &q2, Some(&hints)).unwrap();
        assert_eq!(plan2.order().collect::<Vec<_>>(), vec![p2, c2]);
        assert!(plan2.steps[1].key_covered);
        assert_eq!(plan2.steps[1].probe_attrs, vec![0]);
    }

    #[test]
    fn deterministic_and_total() {
        let s = schema();
        let mut q = Query::new();
        q.var("a", SetPath::parse("Companies"));
        q.var("b", SetPath::parse("Projects"));
        q.var("c", SetPath::parse("Projects"));
        let p1 = plan_query(&s, &q, None).unwrap();
        let p2 = plan_query(&s, &q, None).unwrap();
        assert_eq!(p1, p2);
        let mut vars: Vec<usize> = p1.order().collect();
        vars.sort_unstable();
        assert_eq!(vars, vec![0, 1, 2]);
    }

    #[test]
    fn json_shape() {
        let s = schema();
        let mut q = Query::new();
        let c = q.var("c", SetPath::parse("Companies"));
        let p = q.var("p", SetPath::parse("Projects"));
        q.add_eq(Operand::proj(p, "cid"), Operand::proj(c, "cid"));
        let plan = plan_query(&s, &q, Some(&keyed())).unwrap();
        let json = plan.to_json(&s, &q).render();
        assert!(json.contains("\"access\":\"scan\""), "{json}");
        assert!(json.contains("\"access\":\"probe\""), "{json}");
        assert!(json.contains("\"cid\""), "{json}");
    }
}

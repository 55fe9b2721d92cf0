//! Pass 6 — chase termination: weak acyclicity and static step bounds.
//!
//! Codes:
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `MUSE-T001` | warning | position dependency graph has a cycle through a special (existential) edge: the bundle is not weakly acyclic |
//! | `MUSE-T002` | info | bundle is weakly acyclic: every chase sequence terminates, and a static step bound exists |
//!
//! The *position dependency graph* (Fagin et al., weak acyclicity) has one
//! node per attribute position — `src:Set.attr` for source positions,
//! `tgt:Set.attr` for target positions — and, per dependency, a **regular**
//! edge from every premise position to every conclusion position it copies
//! into, plus a **special** edge from every premise position to every
//! *existential* conclusion position (one that gets an invented value). Two
//! dependency families contribute edges here:
//!
//! * the mappings (s-t tgds): a `where` assignment `s.a = t.b` draws a
//!   regular edge `src:….a → tgt:….b`; target attributes whose equivalence
//!   class (under the mapping's `target_eqs`) has no assignment are
//!   existential and receive special edges from every assigned source
//!   position of that mapping;
//! * the target referential constraints, read as target-side inclusion
//!   dependencies: `fk(From.f… ⊆ To.t…)` draws regular edges
//!   `tgt:From.fᵢ → tgt:To.tᵢ` and special edges from each `tgt:From.fᵢ`
//!   to every *other* attribute of `To` (the referenced tuple a repairing
//!   chase would have to invent).
//!
//! A cycle through a special edge means a repairing chase could invent
//! values forever (`MUSE-T001`). Without one, every chase terminates and
//! [`chase_step_bound`] computes a concrete per-instance step cap — the
//! number the engine's `chase.steps` counter can never exceed, and the one
//! `Budget::auto` (muse-serve preflight, `--auto-chase-budget`) installs as
//! `max_chase_steps`.

use std::collections::BTreeMap;

use muse_mapping::{Mapping, WhereClause};
use muse_nr::{Constraints, Instance, Schema, SetPath};
use muse_query::{plan_query, SelectivityHints};

use crate::diag::Diagnostic;
use crate::LintInput;

/// Run the pass over the whole bundle.
pub fn check(input: &LintInput, out: &mut Vec<Diagnostic>) {
    let g = PositionGraph::build(input);
    let mut special_cycles: Vec<String> = Vec::new();
    for &(u, v, special) in &g.edges {
        if special && g.reaches(v, u) {
            special_cycles.push(format!("{} → {}", g.names[u], g.names[v]));
        }
    }
    special_cycles.sort();
    special_cycles.dedup();
    if special_cycles.is_empty() {
        out.push(Diagnostic::info(
            "MUSE-T002",
            "termination",
            format!(
                "position dependency graph is weakly acyclic ({} positions, {} edges): \
                 every chase sequence terminates; a static chase-step bound is available \
                 (Budget::auto)",
                g.names.len(),
                g.edges.len()
            ),
        ));
    } else {
        for cycle in special_cycles {
            out.push(
                Diagnostic::warning(
                    "MUSE-T001",
                    "termination",
                    format!(
                        "position dependency graph has a cycle through the special edge \
                         {cycle}: the bundle is not weakly acyclic, so a value-inventing \
                         chase may not terminate"
                    ),
                )
                .with_suggestion(
                    "break the cycle: assign the existential attribute from a source \
                     position, or drop the circular referential constraint",
                ),
            );
        }
    }
}

/// Tuple counts per source set path — the instance statistics
/// [`chase_step_bound`] multiplies. Paths the instance does not populate
/// count as 0.
pub fn path_sizes(schema: &Schema, inst: &Instance) -> BTreeMap<SetPath, u64> {
    schema
        .set_paths_bfs()
        .into_iter()
        .map(|p| {
            let n = inst.tuples_of_path(&p).count() as u64;
            (p, n)
        })
        .collect()
}

/// The static chase-step upper bound for `mappings` over an instance with
/// the given per-path tuple counts (see [`path_sizes`]): the sum over
/// mappings of the product, over the variables of the mapping's static
/// evaluation plan, of the variable's worst-case match count — `1` when the
/// plan probes a declared key (at most one tuple per outer binding), the
/// path's tuple count otherwise. Saturating; `u64::MAX` means "unbounded as
/// computed", not non-termination.
///
/// The engine fires at most one chase step per enumerated binding, so its
/// `chase.steps` counter is always ≤ this bound.
pub fn chase_step_bound(
    source_schema: &Schema,
    source_constraints: &Constraints,
    mappings: &[Mapping],
    sizes: &BTreeMap<SetPath, u64>,
) -> u64 {
    let hints = SelectivityHints::from_constraints(source_schema, source_constraints);
    let mut total: u64 = 0;
    for m in mappings {
        let q = m.source_query();
        let mut product: u64 = 1;
        match plan_query(source_schema, &q, Some(&hints)) {
            Ok(plan) => {
                for step in &plan.steps {
                    let factor = if step.key_covered {
                        1
                    } else {
                        sizes.get(&q.vars[step.var].set).copied().unwrap_or(0)
                    };
                    product = product.saturating_mul(factor);
                }
            }
            Err(_) => {
                // Unplannable mapping (will be reported by pass 1): fall
                // back to the raw product of its variables' path sizes.
                for v in &q.vars {
                    product = product.saturating_mul(sizes.get(&v.set).copied().unwrap_or(0));
                }
            }
        }
        total = total.saturating_add(product);
    }
    total
}

/// The position dependency graph: node names plus `(from, to, special)`
/// edges.
struct PositionGraph {
    names: Vec<String>,
    ids: BTreeMap<String, usize>,
    edges: Vec<(usize, usize, bool)>,
    succ: Vec<Vec<usize>>,
}

impl PositionGraph {
    fn build(input: &LintInput) -> Self {
        let mut g = PositionGraph {
            names: Vec::new(),
            ids: BTreeMap::new(),
            edges: Vec::new(),
            succ: Vec::new(),
        };
        for m in input.mappings {
            g.add_mapping(input, m);
        }
        // Target referential constraints as t-t inclusion dependencies.
        for fk in &input.target_constraints.fks {
            let Ok(to_attrs) = input.target_schema.attributes(&fk.to) else {
                continue; // endpoint doesn't resolve; pass 2 reported it
            };
            for (f, t) in fk.from_attrs.iter().zip(&fk.to_attrs) {
                let from = g.node(format!("tgt:{}.{}", fk.from, f));
                let to = g.node(format!("tgt:{}.{}", fk.to, t));
                g.edge(from, to, false);
                for other in &to_attrs {
                    if !fk.to_attrs.contains(other) {
                        let o = g.node(format!("tgt:{}.{}", fk.to, other));
                        g.edge(from, o, true);
                    }
                }
            }
        }
        g
    }

    fn add_mapping(&mut self, input: &LintInput, m: &Mapping) {
        // Equivalence classes over (target var, attr) under target_eqs.
        let mut uf = UnionFind::default();
        for (a, b) in &m.target_eqs {
            let ia = uf.id((a.var, a.attr.clone()));
            let ib = uf.id((b.var, b.attr.clone()));
            uf.union(ia, ib);
        }
        let mut keys: Vec<(usize, String)> = Vec::new();
        for (tv_idx, tv) in m.target_vars.iter().enumerate() {
            let Ok(attrs) = input.target_schema.attributes(&tv.set) else {
                return; // unresolved target side; pass 1 reported it
            };
            for attr in attrs {
                let key = (tv_idx, attr);
                uf.id(key.clone());
                keys.push(key);
            }
        }
        // Which classes have a plain source assignment, and from where.
        let mut class_sources: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        let mut all_sources: Vec<String> = Vec::new();
        for w in &m.wheres {
            let WhereClause::Eq { source, target } = w else {
                continue; // or-groups are ambiguity; pass 3's domain
            };
            let Some(sv) = m.source_vars.get(source.var) else {
                continue;
            };
            let root = {
                let id = uf.id((target.var, target.attr.clone()));
                uf.find(id)
            };
            let name = format!("src:{}.{}", sv.set, source.attr);
            class_sources.entry(root).or_default().push(name.clone());
            all_sources.push(name);
        }
        all_sources.sort();
        all_sources.dedup();
        // Regular edges: assigned source position → every member of the
        // class. Special edges: every assigned source position → every
        // member of an unassigned (existential) class.
        for key in keys {
            let (tv_idx, attr) = &key;
            let root = {
                let id = uf.id((*tv_idx, attr.clone()));
                uf.find(id)
            };
            let tgt = self.node(format!("tgt:{}.{}", m.target_vars[*tv_idx].set, attr));
            match class_sources.get(&root) {
                Some(sources) => {
                    for s in sources {
                        let src = self.node(s.clone());
                        self.edge(src, tgt, false);
                    }
                }
                None => {
                    for s in &all_sources {
                        let src = self.node(s.clone());
                        self.edge(src, tgt, true);
                    }
                }
            }
        }
    }

    fn node(&mut self, name: String) -> usize {
        if let Some(&id) = self.ids.get(&name) {
            return id;
        }
        let id = self.names.len();
        self.ids.insert(name.clone(), id);
        self.names.push(name);
        self.succ.push(Vec::new());
        id
    }

    fn edge(&mut self, from: usize, to: usize, special: bool) {
        if self
            .edges
            .iter()
            .any(|&(f, t, s)| f == from && t == to && s == special)
        {
            return;
        }
        self.edges.push((from, to, special));
        self.succ[from].push(to);
    }

    /// Is `to` reachable from `from` (including `from == to` via a path of
    /// length ≥ 0)?
    fn reaches(&self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.names.len()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(n) = stack.pop() {
            for &s in &self.succ[n] {
                if s == to {
                    return true;
                }
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        false
    }
}

#[derive(Default)]
struct UnionFind {
    ids: BTreeMap<(usize, String), usize>,
    parent: Vec<usize>,
}

impl UnionFind {
    fn id(&mut self, key: (usize, String)) -> usize {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.parent.len();
        self.ids.insert(key, id);
        self.parent.push(id);
        id
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{m2, OwnedInput};
    use muse_mapping::PathRef;
    use muse_nr::{Field, ForeignKey, Key, Ty, Value};

    #[test]
    fn fig1_is_weakly_acyclic_with_t002() {
        let owned = OwnedInput::fig1(vec![m2()]);
        let mut out = Vec::new();
        check(&owned.as_input(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "MUSE-T002");
    }

    #[test]
    fn circular_existential_fk_trips_t001() {
        // Target: A(x, y) with fk A.y ⊆ B.u and B(u, v) with fk B.v ⊆ A.x —
        // each referenced tuple invents the other set's remaining attribute,
        // closing a special cycle.
        let mut owned = OwnedInput::fig1(vec![m2()]);
        owned.target_schema = Schema::new(
            "T",
            vec![
                Field::new(
                    "A",
                    Ty::set_of(vec![Field::new("x", Ty::Str), Field::new("y", Ty::Str)]),
                ),
                Field::new(
                    "B",
                    Ty::set_of(vec![Field::new("u", Ty::Str), Field::new("v", Ty::Str)]),
                ),
            ],
        )
        .unwrap();
        owned.target_constraints = Constraints {
            keys: vec![],
            fds: vec![],
            fks: vec![
                ForeignKey::new(
                    SetPath::parse("A"),
                    vec!["y"],
                    SetPath::parse("B"),
                    vec!["u"],
                ),
                ForeignKey::new(
                    SetPath::parse("B"),
                    vec!["v"],
                    SetPath::parse("A"),
                    vec!["x"],
                ),
            ],
        };
        owned.mappings.clear();
        let mut out = Vec::new();
        check(&owned.as_input(), &mut out);
        assert!(
            out.iter().any(|d| d.code == "MUSE-T001"),
            "expected MUSE-T001, got {out:?}"
        );
    }

    #[test]
    fn step_bound_dominates_bindings() {
        // m2 joins Companies ⋈ Projects ⋈ Employees; with key(Companies.cid)
        // the company lookup is key-covered, so the bound is
        // |Projects| · |Employees| — and the actual binding count is ≤ that.
        let owned = OwnedInput::fig1(vec![m2()]);
        let input = owned.as_input();
        let mut inst = Instance::new(input.source_schema);
        let projects = SetPath::parse("Projects");
        let c_id = inst.root_id("Companies").unwrap();
        let p_id = inst.root_id("Projects").unwrap();
        let e_id = inst.root_id("Employees").unwrap();
        for i in 0..3i64 {
            inst.insert(
                c_id,
                vec![Value::int(i), Value::str(format!("c{i}")), Value::str("x")],
            );
            inst.insert(
                e_id,
                vec![
                    Value::str(format!("e{i}")),
                    Value::str(format!("n{i}")),
                    Value::str("@"),
                ],
            );
        }
        for i in 0..4i64 {
            inst.insert(
                p_id,
                vec![
                    Value::str(format!("p{i}")),
                    Value::str(format!("pn{i}")),
                    Value::int(i % 3),
                    Value::str(format!("e{}", i % 3)),
                ],
            );
        }
        let sizes = path_sizes(input.source_schema, &inst);
        assert_eq!(sizes[&projects], 4);
        let bound = chase_step_bound(
            input.source_schema,
            input.source_constraints,
            input.mappings,
            &sizes,
        );
        // Neither Projects nor Employees carries a key, but Companies does:
        // the plan probes it key-covered, so bound = 4 · 3 = 12.
        assert_eq!(bound, 12);
        let metrics = muse_obs::Metrics::enabled();
        muse_chase::ChaseReq {
            metrics: &metrics,
            ..Default::default()
        }
        .run(
            input.source_schema,
            input.target_schema,
            &inst,
            input.mappings,
        )
        .unwrap();
        let observed = metrics.snapshot().counter("chase.steps");
        assert!(observed <= bound, "observed {observed} > bound {bound}");
        assert_eq!(observed, 4); // each project joins exactly once
    }

    #[test]
    fn keyed_joins_tighten_the_bound() {
        let owned = OwnedInput::fig1(vec![m2()]);
        let input = owned.as_input();
        let mut sizes = BTreeMap::new();
        sizes.insert(SetPath::parse("Companies"), 100u64);
        sizes.insert(SetPath::parse("Projects"), 10u64);
        sizes.insert(SetPath::parse("Employees"), 50u64);
        let with_keys = chase_step_bound(
            input.source_schema,
            input.source_constraints,
            input.mappings,
            &sizes,
        );
        let none = Constraints::none();
        let without = chase_step_bound(input.source_schema, &none, input.mappings, &sizes);
        assert_eq!(with_keys, 10 * 50); // Companies probe is key-covered
        assert_eq!(without, 100 * 10 * 50);
        assert!(with_keys < without);
    }

    #[test]
    fn grouping_key_doesnt_hide_unkeyed_cartesian() {
        // A two-variable mapping with no join at all: bound is the raw
        // product, whatever the constraints say about unrelated sets.
        let mut m = Mapping::new("cart");
        m.source_var("c", SetPath::parse("Companies"));
        m.source_var("e", SetPath::parse("Employees"));
        let o = m.target_var("o", SetPath::parse("Orgs"));
        m.where_eq(PathRef::new(0, "cname"), PathRef::new(o, "oname"));
        let owned = OwnedInput::fig1(vec![m]);
        let input = owned.as_input();
        let mut sizes = BTreeMap::new();
        sizes.insert(SetPath::parse("Companies"), 7u64);
        sizes.insert(SetPath::parse("Employees"), 5u64);
        let bound = chase_step_bound(
            input.source_schema,
            input.source_constraints,
            input.mappings,
            &sizes,
        );
        assert_eq!(bound, 35);
        let keys = Constraints {
            keys: vec![Key::new(SetPath::parse("Companies"), vec!["cid"])],
            fds: vec![],
            fks: vec![],
        };
        // The key never becomes usable — no equality binds Companies.cid.
        assert_eq!(
            chase_step_bound(input.source_schema, &keys, input.mappings, &sizes),
            35
        );
    }
}

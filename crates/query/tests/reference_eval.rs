//! Differential property test: the index-accelerated evaluator
//! ([`EvalReq::run`]) must agree with a trivially-correct reference
//! evaluator — a naive nested loop over the full cross product that checks
//! every predicate only on complete rows — and plan-driven runs (hinted
//! requests) must return the plan-less rows in the plan-less order.
//! Instances and queries are generated from seeded SplitMix64 streams, so
//! every failure is reproducible from its seed.

use muse_nr::{
    Constraints, Field, Instance, InstanceBuilder, Key, Schema, SetPath, Tuple, Ty, Value,
};
use muse_obs::{Budget, Metrics, Rng};
use muse_query::{Binding, EvalReq, Operand, Query, SelectivityHints};

/// Small alphabets force collisions, so joins actually match.
const TAGS: [&str; 3] = ["a", "b", "c"];
const KEYS: i64 = 4;

/// Roots `Items` (with a nested `Subs` set) and `Pairs`; every attribute the
/// queries touch is atomic, as `Query::validate` requires.
fn ref_schema() -> Schema {
    Schema::new(
        "RefDB",
        vec![
            Field::new(
                "Items",
                Ty::set_of(vec![
                    Field::new("k", Ty::Int),
                    Field::new("tag", Ty::Str),
                    Field::new(
                        "Subs",
                        Ty::set_of(vec![Field::new("sk", Ty::Int), Field::new("stag", Ty::Str)]),
                    ),
                ]),
            ),
            Field::new(
                "Pairs",
                Ty::set_of(vec![Field::new("k", Ty::Int), Field::new("tag", Ty::Str)]),
            ),
        ],
    )
    .unwrap()
}

/// The hint sets plan-driven runs use: keys on `Items.k` and
/// `Pairs.(k, tag)`, and no constraints at all. The random instances do
/// not satisfy the keys; hints steer the plan, never the rows.
fn hint_sets(schema: &Schema) -> [SelectivityHints; 2] {
    let keyed = Constraints {
        keys: vec![
            Key::new(SetPath::parse("Items"), vec!["k"]),
            Key::new(SetPath::parse("Pairs"), vec!["k", "tag"]),
        ],
        fds: vec![],
        fks: vec![],
    };
    [
        SelectivityHints::from_constraints(schema, &keyed),
        SelectivityHints::from_constraints(schema, &Constraints::none()),
    ]
}

/// Evaluate under a request with the given hints and an optional row cap
/// (`Budget::max_rows`).
fn run(
    schema: &Schema,
    inst: &Instance,
    q: &Query,
    hints: Option<&SelectivityHints>,
    max_rows: Option<u64>,
) -> Vec<Binding> {
    let budget = match max_rows {
        Some(n) => Budget::unlimited().with_max_rows(n),
        None => Budget::unlimited(),
    };
    let req = EvalReq {
        budget: &budget,
        hints,
        ..EvalReq::default()
    };
    let out = req.run(schema, inst, q).expect("evaluate");
    assert!(
        max_rows.is_some() || out.is_complete(),
        "no budget, no truncation"
    );
    out.into_value()
}

fn random_instance(schema: &Schema, rng: &mut Rng) -> Instance {
    let mut b = InstanceBuilder::new(schema);
    // 0..=4 items; group keys deliberately collide so some parents share a
    // `Subs` set (a legal instance shape the evaluator must handle).
    for _ in 0..rng.index(5) {
        let sid = b.group("Items.Subs", vec![Value::int(rng.range(0, 3))]);
        for _ in 0..rng.index(4) {
            b.push(
                sid,
                vec![Value::int(rng.range(0, KEYS)), Value::str(*rng.pick(&TAGS))],
            );
        }
        b.push_top(
            "Items",
            vec![
                Value::int(rng.range(0, KEYS)),
                Value::str(*rng.pick(&TAGS)),
                Value::Set(sid),
            ],
        );
    }
    for _ in 0..rng.index(6) {
        b.push_top(
            "Pairs",
            vec![Value::int(rng.range(0, KEYS)), Value::str(*rng.pick(&TAGS))],
        );
    }
    b.finish().unwrap()
}

/// Which attribute of a variable's set carries each predicate type.
#[derive(Clone, Copy)]
enum VarKind {
    Items,
    Pairs,
    Sub,
}

impl VarKind {
    fn attr(self, int: bool) -> &'static str {
        match (self, int) {
            (VarKind::Items | VarKind::Pairs, true) => "k",
            (VarKind::Items | VarKind::Pairs, false) => "tag",
            (VarKind::Sub, true) => "sk",
            (VarKind::Sub, false) => "stag",
        }
    }
}

/// A random conjunctive query: 1–3 top-level variables over `Items`/`Pairs`,
/// sometimes a child variable over an item's `Subs`, and random equality /
/// inequality predicates that are type-consistent (int with int, str with
/// str) so they are satisfiable often enough to be interesting.
fn random_query(rng: &mut Rng) -> Query {
    let mut q = Query::new();
    let mut kinds = Vec::new();
    for v in 0..1 + rng.index(3) {
        if rng.chance(0.5) {
            q.var(format!("v{v}"), SetPath::parse("Items"));
            kinds.push(VarKind::Items);
        } else {
            q.var(format!("v{v}"), SetPath::parse("Pairs"));
            kinds.push(VarKind::Pairs);
        }
    }
    let items: Vec<usize> = kinds
        .iter()
        .enumerate()
        .filter(|(_, k)| matches!(k, VarKind::Items))
        .map(|(v, _)| v)
        .collect();
    if !items.is_empty() && rng.chance(0.6) {
        let parent = *rng.pick(&items);
        q.child_var("s", parent, "Subs");
        kinds.push(VarKind::Sub);
    }

    let operand = |rng: &mut Rng, int: bool, kinds: &[VarKind]| -> Operand {
        if rng.chance(0.7) {
            let v = rng.index(kinds.len());
            Operand::proj(v, kinds[v].attr(int))
        } else if int {
            Operand::Const(Value::int(rng.range(0, KEYS)))
        } else {
            Operand::Const(Value::str(*rng.pick(&TAGS)))
        }
    };
    for _ in 0..rng.index(3) {
        let int = rng.chance(0.5);
        let (a, b) = (operand(rng, int, &kinds), operand(rng, int, &kinds));
        q.add_eq(a, b);
    }
    for _ in 0..rng.index(2) {
        let int = rng.chance(0.5);
        let (a, b) = (operand(rng, int, &kinds), operand(rng, int, &kinds));
        q.add_neq(a, b);
    }
    q
}

/// The reference: enumerate the full cross product in declaration order
/// (parents precede children, so the parent tuple is always on the stack
/// when a child variable is reached) and keep the rows where every equality
/// holds and every inequality fails to hold. No plan, no indexes, no early
/// predicate placement — nothing to get wrong.
fn naive_eval(schema: &Schema, inst: &Instance, q: &Query) -> Vec<Binding> {
    let parent_field: Vec<Option<(usize, usize)>> = q
        .vars
        .iter()
        .map(|qv| {
            qv.parent.as_ref().map(|(p, field)| {
                let rcd = schema.element_record(&q.vars[*p].set).unwrap();
                (*p, rcd.field_index(field).unwrap())
            })
        })
        .collect();
    let value_of = |row: &[Tuple], op: &Operand| -> Value {
        match op {
            Operand::Const(v) => v.clone(),
            Operand::Proj { var, attr } => {
                let idx = schema.attr_index(&q.vars[*var].set, attr).unwrap();
                row[*var][idx].clone()
            }
        }
    };
    let keep = |row: &[Tuple]| {
        q.eqs
            .iter()
            .all(|(a, b)| value_of(row, a) == value_of(row, b))
            && q.neqs
                .iter()
                .all(|(a, b)| value_of(row, a) != value_of(row, b))
    };

    let mut out = Vec::new();
    let mut stack: Vec<Tuple> = Vec::new();
    descend(inst, q, &parent_field, &keep, &mut stack, &mut out);
    out
}

fn descend(
    inst: &Instance,
    q: &Query,
    parent_field: &[Option<(usize, usize)>],
    keep: &dyn Fn(&[Tuple]) -> bool,
    stack: &mut Vec<Tuple>,
    out: &mut Vec<Binding>,
) {
    let v = stack.len();
    if v == q.vars.len() {
        if keep(stack) {
            out.push(stack.clone());
        }
        return;
    }
    let candidates: Vec<Tuple> = match parent_field[v] {
        Some((p, fidx)) => match stack[p].get(fidx) {
            Some(Value::Set(sid)) => inst.tuples(*sid).cloned().collect(),
            _ => Vec::new(),
        },
        None => inst
            .tuples_of_path(&q.vars[v].set)
            .map(|(_, t)| t.clone())
            .collect(),
    };
    for t in candidates {
        stack.push(t);
        descend(inst, q, parent_field, keep, stack, out);
        stack.pop();
    }
}

fn sorted(mut rows: Vec<Binding>) -> Vec<Binding> {
    rows.sort();
    rows
}

/// The workhorse: across many seeds, the engine's full result set is exactly
/// the reference's, as multisets, and every hinted run returns the
/// plan-less rows in order. Covers equalities (proj–proj and proj–const),
/// inequalities, joins, child variables, empty instances, and shared
/// sub-sets — whatever each seed happens to draw.
#[test]
fn evaluate_agrees_with_naive_reference() {
    let schema = ref_schema();
    let hint_sets = hint_sets(&schema);
    let (mut eq_preds, mut neq_preds, mut child_vars, mut nonempty) = (0, 0, 0, 0);
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed);
        let inst = random_instance(&schema, &mut rng);
        let q = random_query(&mut rng);
        q.validate(&schema).expect("generated query is valid");
        eq_preds += q.eqs.len();
        neq_preds += q.neqs.len();
        child_vars += q.vars.iter().filter(|v| v.parent.is_some()).count();

        let expect = sorted(naive_eval(&schema, &inst, &q));
        let plain = run(&schema, &inst, &q, None, None);
        for (h, hints) in hint_sets.iter().enumerate() {
            assert_eq!(
                run(&schema, &inst, &q, Some(hints), None),
                plain,
                "seed {seed}, hint set {h}: plan-driven rows differ from the plan-less run"
            );
        }
        assert_eq!(
            sorted(plain),
            expect,
            "seed {seed}: engine diverged from reference"
        );
        nonempty += usize::from(!expect.is_empty());
    }
    // The generator must actually exercise what this test claims to cover.
    assert!(eq_preds > 10, "too few equality predicates: {eq_preds}");
    assert!(neq_preds > 5, "too few inequality predicates: {neq_preds}");
    assert!(child_vars > 5, "too few child variables: {child_vars}");
    assert!(nonempty > 10, "too few non-empty results: {nonempty}");
}

/// The per-binding hot paths (child descend, hash-index probe, full scan)
/// borrow their candidate tuples instead of collecting/cloning them; this
/// differential pins the observable contract of that rewrite: identical
/// runs report identical `query.steps` / index-counter streams, and the
/// counted run still agrees with the naive reference row for row.
#[test]
fn search_counters_are_deterministic_and_results_match_the_reference() {
    let schema = ref_schema();
    let counters = |m: &Metrics| {
        let s = m.snapshot();
        (
            s.counter("query.steps"),
            s.counter("query.index_hits"),
            s.counter("query.index_misses"),
        )
    };
    let mut total_steps = 0u64;
    for seed in 0..32u64 {
        let mut rng = Rng::new(seed);
        let inst = random_instance(&schema, &mut rng);
        let q = random_query(&mut rng);

        let counted = || {
            let m = Metrics::enabled();
            let req = EvalReq {
                metrics: &m,
                ..EvalReq::default()
            };
            let out = req.run(&schema, &inst, &q).expect("evaluate");
            assert!(out.is_complete(), "seed {seed}: no budget, no truncation");
            (out.into_value(), counters(&m))
        };
        let (rows1, counts1) = counted();
        let (rows2, counts2) = counted();
        assert_eq!(rows1, rows2, "seed {seed}: nondeterministic result order");
        assert_eq!(counts1, counts2, "seed {seed}: nondeterministic counters");
        assert_eq!(
            sorted(rows1),
            sorted(naive_eval(&schema, &inst, &q)),
            "seed {seed}: counted run diverged from reference"
        );
        total_steps += counts1.0;
    }
    assert!(total_steps > 0, "the sweep must exercise the search loop");
}

/// Row caps: a capped evaluation is exactly a prefix of the engine's own
/// deterministic uncapped order, every returned row is a genuine answer
/// (member of the reference result), and every hinted run returns the same
/// prefix.
#[test]
fn row_caps_return_prefixes_of_the_full_result() {
    let schema = ref_schema();
    let hint_sets = hint_sets(&schema);
    for seed in 0..32u64 {
        let mut rng = Rng::new(seed);
        let inst = random_instance(&schema, &mut rng);
        let q = random_query(&mut rng);

        let full = run(&schema, &inst, &q, None, None);
        let reference = naive_eval(&schema, &inst, &q);
        for cap in [0, 1, 2, 5, full.len() + 1] {
            let capped = run(&schema, &inst, &q, None, Some(cap as u64));
            for (h, hints) in hint_sets.iter().enumerate() {
                assert_eq!(
                    run(&schema, &inst, &q, Some(hints), Some(cap as u64)),
                    capped,
                    "seed {seed}, cap {cap}, hint set {h}: plan-driven rows differ"
                );
            }
            assert_eq!(
                capped,
                full[..cap.min(full.len())],
                "seed {seed}, cap {cap}: not a prefix of the uncapped run"
            );
            for row in &capped {
                assert!(
                    reference.contains(row),
                    "seed {seed}, cap {cap}: row not in the reference result"
                );
            }
        }
    }
}

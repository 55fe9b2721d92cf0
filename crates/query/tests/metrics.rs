//! Integration tests of the `query.*` instrumentation: counters must track
//! what the evaluator actually did.

use std::time::Instant;

use muse_nr::{Field, InstanceBuilder, Schema, SetPath, Ty, Value};
use muse_obs::{Budget, Metrics};
use muse_query::{EvalReq, Operand, Query};

fn schema() -> Schema {
    Schema::new(
        "S",
        vec![
            Field::new(
                "A",
                Ty::set_of(vec![Field::new("x", Ty::Int), Field::new("y", Ty::Int)]),
            ),
            Field::new(
                "B",
                Ty::set_of(vec![Field::new("x", Ty::Int), Field::new("y", Ty::Int)]),
            ),
        ],
    )
    .unwrap()
}

fn instance(schema: &Schema, n: i64) -> muse_nr::Instance {
    let mut b = InstanceBuilder::new(schema);
    for i in 0..n {
        b.push_top("A", vec![Value::int(i), Value::int(i % 5)]);
        b.push_top("B", vec![Value::int(i), Value::int(i % 5)]);
    }
    b.finish().unwrap()
}

fn join_query() -> Query {
    let mut q = Query::new();
    let a = q.var("a", SetPath::parse("A"));
    let b = q.var("b", SetPath::parse("B"));
    q.add_eq(Operand::proj(a, "x"), Operand::proj(b, "x"));
    q
}

#[test]
fn counters_track_evaluation_work() {
    let s = schema();
    let inst = instance(&s, 40);
    let q = join_query();
    let metrics = Metrics::enabled();
    let req = EvalReq {
        metrics: &metrics,
        ..EvalReq::default()
    };
    let out = req.run(&s, &inst, &q).unwrap();
    assert!(out.is_complete());
    assert_eq!(out.value().len(), 40);

    let snap = metrics.snapshot();
    assert_eq!(snap.counter("query.evals"), 1);
    assert_eq!(snap.counter("query.timeouts"), 0);
    // Every binding of `a` enumerated at least one step, plus steps for the
    // indexed `b` lookups: the step count is at least one per result row.
    assert!(
        snap.counter("query.steps") >= 40,
        "steps: {}",
        snap.counter("query.steps")
    );
    // One join key ⇒ the index for B is built exactly once (a miss) and
    // re-used for each subsequent binding of `a`.
    assert_eq!(snap.counter("query.index_misses"), 1);
    assert_eq!(snap.counter("query.index_hits"), 39);
    // The whole evaluation ran under the eval_time span.
    let t = snap.timer("query.eval_time");
    assert_eq!(t.count, 1);
    assert!(t.nanos > 0);
}

#[test]
fn counters_accumulate_across_evaluations() {
    let s = schema();
    let inst = instance(&s, 10);
    let q = join_query();
    let metrics = Metrics::enabled();
    let req = EvalReq {
        metrics: &metrics,
        ..EvalReq::default()
    };
    for _ in 0..3 {
        req.run(&s, &inst, &q).unwrap();
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("query.evals"), 3);
    assert_eq!(snap.timer("query.eval_time").count, 3);
    assert_eq!(
        snap.counter("query.index_misses"),
        3,
        "cache is per-evaluation"
    );
}

#[test]
fn timeout_counter_fires_with_the_flag() {
    let s = schema();
    let inst = instance(&s, 2_000);
    // Unsatisfiable: forces an exhaustive scan that the deadline interrupts.
    let mut q = join_query();
    q.add_neq(Operand::proj(0, "y"), Operand::proj(0, "y"));
    let metrics = Metrics::enabled();
    let budget = Budget::unlimited()
        .with_max_rows(1)
        .with_deadline(Instant::now());
    let req = EvalReq {
        metrics: &metrics,
        budget: &budget,
        ..EvalReq::default()
    };
    let out = req.run(&s, &inst, &q).unwrap();
    assert!(out.value().is_empty());
    assert!(!out.is_complete());
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("query.timeouts"), 1);
    assert_eq!(snap.counter("budget.deadline_hits"), 1);
}

#[test]
fn plain_evaluate_is_unchanged_by_instrumentation() {
    // Enabled metrics return the same rows as the default (disabled)
    // request.
    let s = schema();
    let inst = instance(&s, 25);
    let q = join_query();
    let plain = EvalReq::default().run(&s, &inst, &q).unwrap();
    let metrics = Metrics::enabled();
    let counted = EvalReq {
        metrics: &metrics,
        ..EvalReq::default()
    };
    assert_eq!(plain, counted.run(&s, &inst, &q).unwrap());
}

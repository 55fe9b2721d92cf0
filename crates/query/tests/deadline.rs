//! Tests of the deadline-bounded evaluation used by Muse's "fall back to a
//! synthetic example after a fixed amount of time" feature.

use std::time::{Duration, Instant};

use muse_nr::{Field, Instance, InstanceBuilder, Schema, SetPath, Ty, Value};
use muse_obs::{Budget, TruncationReason};
use muse_query::{Binding, EvalReq, Operand, Query};

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

/// A cross-product-shaped unsatisfiable query over a big instance.
fn hard_query() -> Query {
    let mut q = Query::new();
    let a1 = q.var("a1", SetPath::parse("A"));
    let a2 = q.var("a2", SetPath::parse("A"));
    let b1 = q.var("b1", SetPath::parse("B"));
    // Join on y (non-selective), then demand an impossible x relation.
    q.add_eq(Operand::proj(a1, "y"), Operand::proj(a2, "y"));
    q.add_eq(Operand::proj(a2, "y"), Operand::proj(b1, "y"));
    q.add_eq(Operand::proj(a1, "x"), Operand::proj(b1, "x"));
    q.add_neq(Operand::proj(a1, "x"), Operand::proj(a1, "x")); // never true
    q
}

/// Evaluate with a row limit and an optional deadline (carried by the
/// budget). The flag says whether the deadline cut the search short.
fn run_until(
    s: &Schema,
    inst: &Instance,
    q: &Query,
    limit: Option<usize>,
    deadline: Option<Instant>,
) -> (Vec<Binding>, bool) {
    let budget = match deadline {
        Some(at) => Budget::unlimited().with_deadline(at),
        None => Budget::unlimited(),
    };
    let req = EvalReq {
        budget: &budget,
        limit,
        ..EvalReq::default()
    };
    let (rows, reason) = req.run(s, inst, q).unwrap().into_parts();
    assert!(reason.is_none_or(|r| r == TruncationReason::DeadlineExpired));
    (rows, reason.is_some())
}

fn big_instance(schema: &Schema, n: i64) -> Instance {
    let mut b = InstanceBuilder::new(schema);
    for i in 0..n {
        b.push_top("A", vec![Value::int(i), Value::int(i % 3)]);
        b.push_top("B", vec![Value::int(i), Value::int(i % 3)]);
    }
    b.finish().unwrap()
}

#[test]
fn expired_deadline_cuts_the_search_short() {
    let s = schema();
    let inst = big_instance(&s, 3_000);
    let q = hard_query();
    // A deadline in the past: the search must report a timeout promptly.
    let start = Instant::now();
    let (rows, timed_out) = run_until(&s, &inst, &q, Some(1), Some(Instant::now()));
    assert!(rows.is_empty());
    assert!(timed_out);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "cut short, not exhausted"
    );
}

#[test]
fn generous_deadline_does_not_affect_results() {
    let s = schema();
    let inst = big_instance(&s, 50);
    let mut q = Query::new();
    let a = q.var("a", SetPath::parse("A"));
    let b = q.var("b", SetPath::parse("B"));
    q.add_eq(Operand::proj(a, "x"), Operand::proj(b, "x"));
    let deadline = Some(Instant::now() + Duration::from_secs(60));
    let (rows, timed_out) = run_until(&s, &inst, &q, None, deadline);
    assert_eq!(rows.len(), 50);
    assert!(!timed_out);
}

#[test]
fn reached_limit_beats_expired_deadline() {
    // Regression: when the row limit is reached, the result set is complete
    // for the caller's purposes, so an (even already expired) deadline must
    // not be reported as a timeout. The search checks the limit before the
    // clock and squashes the flag when `limit` was satisfied.
    let s = schema();
    let inst = big_instance(&s, 3_000);
    let mut q = Query::new();
    let a = q.var("a", SetPath::parse("A"));
    let b = q.var("b", SetPath::parse("B"));
    q.add_eq(Operand::proj(a, "x"), Operand::proj(b, "x"));
    let expired = Some(Instant::now() - Duration::from_secs(1));
    let (rows, timed_out) = run_until(&s, &inst, &q, Some(1), expired);
    assert_eq!(rows.len(), 1, "the limit was reachable");
    assert!(
        !timed_out,
        "a limit-complete result must not report a timeout"
    );
}

#[test]
fn no_deadline_is_exhaustive() {
    let s = schema();
    let inst = big_instance(&s, 20);
    let q = hard_query();
    let (rows, timed_out) = run_until(&s, &inst, &q, Some(1), None);
    assert!(rows.is_empty());
    assert!(!timed_out);
}

//! Conjunctive queries with equalities and inequalities over NR instances.
//!
//! Mapping `for`-clauses compile into these queries. The chase enumerates
//! their bindings to fire each mapping (Sec. II), and Muse pulls *real*
//! data examples out of the designer's source instance from them: each
//! `for` clause is evaluated once, and every `QIe` probe — one (Muse-D) or
//! two (Muse-G) copies of the clause plus agreement equalities and
//! disagreement inequalities (Secs. III-A, IV-A) — is answered from that
//! one binding set by `muse_wizard::table`.
//!
//! The evaluator is a backtracking join with greedy connected-variable
//! ordering and lazily built hash indexes per `(set path, attribute)`.
//! It has one request type, [`EvalReq`]: metrics, a budget and planner
//! hints are its fields. [`EvalReq::run`] returns owned rows and
//! [`EvalReq::run_refs`] the same rows as references into the instance.

#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod eval;
pub mod hints;
pub mod plan;

pub use ast::{Operand, QVar, Query};
pub use error::QueryError;
pub use eval::{greedy_order, Binding, BindingRef, EvalReq};
pub use hints::SelectivityHints;
pub use plan::{plan_query, EvalPlan, PlanStep};

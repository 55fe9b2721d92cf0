//! Conjunctive queries with equalities and inequalities over NR instances.
//!
//! This is the substrate Muse uses to pull *real* data examples out of the
//! designer's source instance: each probe builds a query `QIe` whose atoms
//! are two (Muse-G) or one (Muse-D) copies of a mapping's `for`-clause, plus
//! the agreement equalities and the disagreement inequalities that make the
//! resulting example differentiating (Sec. III-A and IV-A). The chase engine
//! also compiles mapping `for`-clauses into these queries to enumerate
//! bindings.
//!
//! The evaluator is a backtracking join with greedy connected-variable
//! ordering and lazily built hash indexes per `(set path, attribute)`, which
//! keeps `QIe` retrieval sub-second on the paper-sized (10 MB) instances.
//! It has one entry point, [`EvalReq::run`]: metrics, a budget, planner
//! hints and a row limit are fields of the request.

#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod eval;
pub mod hints;
pub mod plan;

pub use ast::{Operand, QVar, Query};
pub use error::QueryError;
pub use eval::{greedy_order, Binding, EvalReq};
pub use hints::SelectivityHints;
pub use plan::{plan_query, EvalPlan, PlanStep};

//! The schema-mapping language used by Muse (Sec. II of the paper).
//!
//! A schema mapping is a triple `(S, T, Σ)` where `Σ` is a set of mappings in
//! the "query-like" notation of Popa et al. \[2\]:
//!
//! ```text
//! m2: for c in CompDB.Companies, p in CompDB.Projects, e in CompDB.Employees
//!     satisfy p.cid = c.cid and e.eid = p.manager
//!     exists o in OrgDB.Orgs, p1 in o.Projects, e1 in OrgDB.Employees
//!     satisfy p1.manager = e1.eid
//!     where c.cname = o.oname and e.eid = e1.eid and e.ename = e1.ename
//!       and p.pname = p1.pname
//!     group o.Projects by (c.cid, c.cname, c.location)
//! ```
//!
//! Each variable binds to tuples of a (possibly nested) set; `where` clauses
//! carry the attribute correspondences; grouping (Skolem) functions give
//! every nested target set its SetID. *Ambiguous* mappings carry `or`-groups:
//! several source attributes competing for one target attribute (Sec. IV).
//!
//! This crate provides the AST ([`Mapping`]), a parser for the concrete
//! syntax above ([`parser::parse`]), a printer ([`printer::print`]), closure
//! under referential constraints by chasing the specification
//! ([`closure::close_under_source_constraints`]), the `poss(m, SK)`
//! computation Muse-G starts from ([`poss::poss`]), and ambiguity utilities
//! ([`ambiguity`]).

#![forbid(unsafe_code)]

pub mod ambiguity;
pub mod ast;
pub mod closure;
pub mod error;
pub mod parser;
pub mod poss;
pub mod printer;

pub use ast::{Grouping, Mapping, MappingVar, PathRef, WhereClause};
pub use error::MappingError;
pub use parser::{parse, parse_one};
pub use printer::print;

//! Nested relational (NR) model of Popa et al., as used by Muse (ICDE 2008).
//!
//! The NR model generalizes the relational model: relations are sets of
//! records, and a set of records may itself be nested inside a record,
//! forming hierarchies. This crate provides:
//!
//! * [`Ty`] / [`Schema`] — the type grammar `String | Int | SetOf τ |
//!   Rcd[l1:τ1,…] | Choice[l1:τ1,…]` with named roots,
//! * [`SetPath`] — stable addresses for nested set types,
//! * [`Instance`] / [`Value`] / [`Tuple`] — data, including *SetIDs*
//!   (interned Skolem terms identifying nested sets) and labeled nulls,
//! * [`constraints`] — keys, functional dependencies (with closure and
//!   candidate-key computation) and referential constraints, plus instance
//!   validation against all three.
//!
//! Everything downstream (query evaluation, the chase, mapping generation and
//! the Muse wizards) is built on these types.

#![forbid(unsafe_code)]

pub mod atom;
pub mod builder;
pub mod constraints;
pub mod display;
pub mod error;
pub mod instance;
pub mod schema;
pub mod term;
pub mod text;
pub mod tsv;
pub mod types;

pub use atom::Atom;
pub use builder::InstanceBuilder;
pub use constraints::{Constraints, Fd, ForeignKey, Key};
pub use error::NrError;
pub use instance::{Instance, Tuple, Value};
pub use schema::{Schema, SetPath};
pub use term::{NullId, SetId, Term, TermStore};
pub use types::{Field, Ty};

//! A Clio-like mapping **generation** substrate.
//!
//! Muse refines mappings produced by semi-automatic tools such as Clio
//! (Popa et al. \[2\]), which is closed source. This crate re-implements the
//! published generation pipeline Muse needs:
//!
//! 1. the designer draws **correspondences** (arrows) between atomic source
//!    and target schema elements ([`Correspondence`]);
//! 2. each schema is compiled into its **logical associations**: one per
//!    nested set, consisting of the set's root-to-leaf variable chain closed
//!    under the schema's referential constraints ([`associations`]);
//! 3. every pair of a source and a target association that covers at least
//!    one correspondence yields a candidate **mapping**; pairs whose
//!    coverage a strictly smaller pair already achieves are pruned
//!    ([`generate()`](fn@generate));
//! 4. every nested target set receives the **default grouping function**
//!    (all source attributes — strategy `G1` of Sec. VI);
//! 5. when several source variables can supply the same target attribute
//!    (e.g. two foreign keys from `Projects` into `Employees`, as in
//!    Fig. 4), the generator emits an `or`-group — an **ambiguous** mapping,
//!    exactly the input Muse-D consumes ("ambiguities can be detected during
//!    mapping generation", Sec. IV).
//!
//! The [`strategy`] module computes the designer-intended grouping functions
//! `G1`/`G2`/`G3` used by the paper's evaluation (Sec. VI).

#![forbid(unsafe_code)]

pub mod assoc;
pub mod correspondence;
pub mod generate;
pub mod strategy;

pub use assoc::{associations, Association};
pub use correspondence::{AttrAddr, Correspondence};
pub use generate::{generate, ScenarioSpec};
pub use strategy::{desired_grouping, GroupingStrategy};

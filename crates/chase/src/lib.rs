//! The data-exchange chase (Sec. II of the paper, after Fagin et al. \[13\]).
//!
//! Chasing a source instance `I` with a set of mappings `Σ` produces a
//! *universal solution* `J`: a most general target instance such that
//! `(I, J)` satisfies `Σ` — there is a homomorphism from `J` into every
//! solution for `I`. The engine here is deterministic and idempotent:
//! grouping (Skolem) functions yield interned SetIDs, and target atoms not
//! covered by any correspondence become labeled nulls Skolemized on the
//! source binding, so re-chasing adds nothing.
//!
//! The companion modules implement homomorphisms, homomorphic equivalence
//! and isomorphism between instances ([`hom`]) — the machinery behind
//! Muse-G's differentiating scenarios — and the *same effect* relation of
//! Def. 3.1 ([`effect`]).

#![forbid(unsafe_code)]

pub mod delta;
pub mod effect;
pub mod engine;
pub mod error;
pub mod fingerprint;
pub mod hom;

pub use delta::DeltaStore;
pub use effect::same_effect_on;
pub use engine::{chase, chase_one, ChaseReq};
pub use error::ChaseError;
pub use fingerprint::fingerprint;
pub use hom::{
    find_homomorphism, find_injective_homomorphism, homomorphically_equivalent, isomorphic,
    isomorphic_with,
};

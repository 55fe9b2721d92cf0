//! Facade crate for the Muse reproduction: re-exports every workspace crate
//! under one roof so examples and integration tests can `use muse_suite::*`.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record.

#![forbid(unsafe_code)]

pub use muse_chase as chase;
pub use muse_cliogen as cliogen;
pub use muse_lint as lint;
pub use muse_mapping as mapping;
pub use muse_nr as nr;
pub use muse_query as query;
pub use muse_scenarios as scenarios;
pub use muse_wizard as wizard;

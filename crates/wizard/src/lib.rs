//! **Muse** — Mapping Understanding and deSign by Example (the paper's
//! contribution, Secs. III–V).
//!
//! Muse is a mapping design wizard: instead of editing mapping
//! specifications, the designer answers short questions about *small data
//! examples*, and Muse infers the intended mapping. Two component wizards:
//!
//! * **Muse-G** ([`museg`]) designs grouping (Skolem) functions. For each
//!   nested target set it probes one candidate attribute at a time with a
//!   two-tuple example whose chase under "include the attribute" vs "omit
//!   it" yields visibly different targets; the designer picks the one that
//!   looks right. Keys and FDs of the source schema cut the number of
//!   questions (Thm. 3.2 / Cor. 3.3), and examples are drawn from the real
//!   source instance whenever a differentiating one exists (`QIe`).
//! * **Muse-D** ([`mused`]) disambiguates mappings with `or`-groups. One
//!   compact example plus per-attribute *choice lists* — instead of one
//!   target instance per interpretation — lets the designer select the
//!   intended interpretation(s) with a handful of clicks.
//!
//! The [`designer`] module defines the [`Designer`] trait with oracle
//! implementations that answer exactly the way the paper's authors did when
//! playing designer in Sec. VI. [`session`] chains Muse-D and Muse-G into
//! the full wizard of Sec. V.

#![forbid(unsafe_code)]

pub mod cache;
pub mod designer;
pub mod error;
pub mod example;
pub mod interactive;
pub mod mused;
pub mod museg;
pub mod report;
pub mod session;
pub mod step;
pub mod table;

pub use cache::ProbeCache;
pub use designer::{Designer, JoinChoice, OracleDesigner, ScenarioChoice, ScriptedDesigner};
pub use error::WizardError;
pub use interactive::InteractiveDesigner;
pub use mused::joins::JoinQuestion;
pub use mused::{DisambiguationOutcome, DisambiguationQuestion, MuseD};
pub use museg::{GroupingOutcome, GroupingQuestion, MuseG};
pub use report::render as render_report;
pub use session::{Session, SessionReport};
pub use step::{Answer, PendingQuestion, Step, StepMemo};
pub use table::{BindingTable, BindingTables};

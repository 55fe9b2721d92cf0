//! **muse-obs** — the zero-external-dependency observability layer.
//!
//! Every hot path of the suite (conjunctive-query search, the chase,
//! isomorphism checks, wizard sessions) threads a [`Metrics`] handle and
//! reports counters and span timings through it. A disabled handle is a
//! `None` behind the scenes: instrumentation resolves to a predictable
//! branch on a dead `Option`, so the metrics-off build pays (nearly)
//! nothing — the property the bench baseline depends on.
//!
//! The crate also hosts two tiny pieces of shared plumbing that keep the
//! rest of the workspace free of external crates:
//!
//! * [`json`] — a minimal JSON value type with a writer and a parser, used
//!   by the bench binaries to emit (and tests to round-trip)
//!   `BENCH_baseline.json`.
//! * [`rng`] — a deterministic SplitMix64 generator, used by the scenario
//!   generators and the randomized property tests.
//!
//! The execution governor lives here too: [`budget`] defines the
//! [`Budget`]/[`Outcome`] contract every bounded operation follows, and
//! [`faultpoints`] is the registry of named fault-injection points the
//! `muse-fault` crate arms (obs hosts only the *names*, so every crate can
//! reference them without depending on the injector).

#![forbid(unsafe_code)]

pub mod budget;
pub mod faultpoints;
pub mod json;
pub mod metrics;
pub mod rng;

pub use budget::{Budget, Outcome, TruncationReason};
pub use json::Json;
pub use metrics::{Counter, Metrics, Snapshot, Timer, TimerStat};
pub use rng::Rng;

//! **muse-serve** — the Muse wizards as a long-lived network service.
//!
//! The paper's wizard is interactive: a designer answers a short sequence
//! of questions, each illustrated with a small data example. This crate
//! serves that interaction over HTTP/1.1 (hand-rolled on
//! `std::net::TcpListener` — the workspace is zero-dependency), holding
//! many design sessions open at once:
//!
//! | Verb + path                   | Effect                                        |
//! |-------------------------------|-----------------------------------------------|
//! | `POST /sessions`              | create a session (scenario + knobs) → id      |
//! | `GET /sessions/{id}/question` | the current question, example included        |
//! | `POST /sessions/{id}/answer`  | answer it, advancing the state machine        |
//! | `GET /sessions/{id}/report`   | the final [`muse_wizard::SessionReport`]      |
//! | `GET /metrics`                | live `muse_obs` counters + server histograms  |
//! | `GET /healthz`                | liveness + health state (`healthy` / `degraded` / `recovering`) |
//! | `POST /admin/shutdown`        | graceful drain                                |
//!
//! Durability: every session-mutating request is recorded in an
//! append-only answer log ([`wal`]) *before* it is acknowledged, so a
//! restarted server deterministically replays every session to its exact
//! pre-crash question — the wizard refactored into a stepwise state
//! machine ([`muse_wizard::Session::step`]) makes resumption the same code
//! path as answering one more question. Periodic *snapshot* records keep
//! resume cheap: a session whose latest snapshot covers all its answers
//! restores in O(1), and WAL compaction drops superseded snapshots so the
//! log stays bounded by the answer history. A corrupt WAL never takes the
//! server down: open *salvages* it — a clean torn tail is dropped
//! silently, any other damage is scanned past frame-by-frame, the skipped
//! bytes are quarantined to `<wal>.quarantine`, and every record before
//! the corruption survives ([`wal`]).
//!
//! Disk trouble at runtime degrades the service instead of killing it:
//! the store runs a Healthy → Degraded → Recovering state machine — while
//! degraded, mutations are shed with `503 + Retry-After` (the bundled
//! [`client`] honors it with capped, jittered backoff), reads are served
//! from memory, and a background probe re-verifies the WAL until two
//! consecutive successes restore Healthy. Sessions whose step panics
//! repeatedly are quarantined individually (structured 500) without
//! affecting their neighbors.
//!
//! Concurrency: a bounded accept loop feeds a fixed `muse-par` worker pool;
//! connections are persistent (HTTP/1.1 keep-alive) and parked between
//! requests on a dedicated poller thread, so an idle connection costs no
//! worker. The poller blocks in `poll(2)` on every parked socket plus a
//! wake socket that workers write when they park a connection, so a
//! parked connection's next request is picked up as soon as it arrives,
//! with no polling interval. That wait is the crate's one `unsafe` call,
//! and it makes the crate unix-only. The *resident-connection* cap sheds
//! excess load with `503 + Retry-After` ([`server`]). Request handling is
//! panic-isolated, budgeted per session via `muse_obs::Budget`, and
//! observable through `serve.*` metrics and the `serve.accept` /
//! `serve.handle` / `serve.wal.{open,append,fsync,compact}` /
//! `serve.session.step` fault points (the storage points accept sticky
//! `io` faults — `x*` in the plan grammar — which is how the degraded-mode
//! paths are exercised).
//! Identical deterministic probes across sessions are memoized
//! process-wide (`serve.cache_hits` / `serve.cache_misses`).

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(not(unix))]
compile_error!("muse-serve waits on sockets with poll(2) and builds only on unix");

pub mod client;
pub mod hist;
pub mod http;
pub mod oracle;
#[allow(unsafe_code)]
mod poll;
pub mod proto;
pub mod server;
pub mod store;
pub mod wal;

pub use client::Client;
pub use server::{Server, ServerConfig};
pub use store::SessionCfg;

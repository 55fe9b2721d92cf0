//! Registry of named fault-injection points.
//!
//! The `muse-fault` crate injects panics, deadline expiry and term-cap
//! exhaustion at *named points*; the names live here so that the crates
//! hosting the points (`query`, `chase`, `par`, `wizard`) and the injector
//! agree on a single vocabulary without a dependency cycle. A point name
//! is `<stage>.<site>`, matching the metrics key convention.
//!
//! Panic faults may only be requested at [`PANIC_ISOLATED`] points — the
//! sites wrapped in `catch_unwind` by the `muse-par` pool — so an armed
//! fault plan can never abort the process. Deadline/term-cap faults are
//! legal at any registered point; each site maps them onto its own budget
//! truncation path.

/// Query evaluation entry (`evaluate_budget_with`). Deadline faults only.
pub const QUERY_EVAL: &str = "query.eval";

/// The chase binding loop, checked once per firing.
pub const CHASE_BINDING: &str = "chase.binding";

/// Inside a `muse-par` worker, once per item. Panic isolated.
pub const PAR_WORKER: &str = "par.worker";

/// A wizard probe (example construction + probe chase) for one question.
pub const WIZARD_PROBE: &str = "wizard.probe";

/// The session server's accept loop, checked once per accepted connection.
/// A non-panic fault rejects the connection with `503 + Retry-After`, the
/// same path the connection cap takes.
pub const SERVE_ACCEPT: &str = "serve.accept";

/// One session-server request dispatch. A non-panic fault fails the
/// request with `503` before it touches any session state.
pub const SERVE_HANDLE: &str = "serve.handle";

/// One write-ahead-log append in the session server (legacy alias of
/// [`SERVE_WAL_APPEND`], kept so existing specs keep parsing). A fault
/// fails the append, which sheds the mutating request with
/// `503 + Retry-After` and flips the server into degraded mode; the
/// in-memory session is rolled back, so nothing unacknowledged survives.
pub const SERVE_WAL: &str = "serve.wal";

/// One write-ahead-log frame append, checked before any byte is written.
/// A sticky `io` fault here models a permanently dead disk: every mutation
/// sheds with `503 + Retry-After` until the fault clears and the recovery
/// probe restores `healthy`.
pub const SERVE_WAL_APPEND: &str = "serve.wal.append";

/// The flush/fsync step of a WAL append, checked after the frame bytes
/// start landing. An `io` fault here leaves a *torn* frame in the log —
/// the append reports failure, the request rolls back, and the next
/// replay's salvage pass quarantines the partial bytes.
pub const SERVE_WAL_FSYNC: &str = "serve.wal.fsync";

/// A WAL compaction (the atomic tmp-write + rename rewrite). A fault here
/// fails the compaction; the live log is untouched and service continues.
pub const SERVE_WAL_COMPACT: &str = "serve.wal.compact";

/// Opening (and salvage-repairing) the WAL at bind time. A fault here
/// fails the bind — a server must not come up pretending the log is
/// readable.
pub const SERVE_WAL_OPEN: &str = "serve.wal.open";

/// One `Session::step` run inside the session server, wrapped in
/// `catch_unwind`. Panic isolated: a panic fails the request with a
/// structured 500 and counts toward the session's quarantine threshold.
/// Non-panic faults at this point are no-ops (the server has no budget
/// truncation path of its own — budgets live inside the step).
pub const SERVE_SESSION_STEP: &str = "serve.session.step";

/// Every registered injection point.
pub const ALL: &[&str] = &[
    QUERY_EVAL,
    CHASE_BINDING,
    PAR_WORKER,
    WIZARD_PROBE,
    SERVE_ACCEPT,
    SERVE_HANDLE,
    SERVE_WAL,
    SERVE_WAL_APPEND,
    SERVE_WAL_FSYNC,
    SERVE_WAL_COMPACT,
    SERVE_WAL_OPEN,
    SERVE_SESSION_STEP,
];

/// Points wrapped in panic isolation (`catch_unwind`); only these may
/// receive injected panics.
pub const PANIC_ISOLATED: &[&str] = &[PAR_WORKER, SERVE_SESSION_STEP];

/// Points backed by real storage IO; only these may receive injected
/// `io` faults (the site translates them into an `io::Error` on its own
/// fail-degraded path).
pub const IO_CAPABLE: &[&str] = &[
    SERVE_WAL,
    SERVE_WAL_APPEND,
    SERVE_WAL_FSYNC,
    SERVE_WAL_COMPACT,
    SERVE_WAL_OPEN,
];

/// Is `name` a registered point?
pub fn is_registered(name: &str) -> bool {
    ALL.contains(&name)
}

/// May `name` receive an injected panic?
pub fn is_panic_isolated(name: &str) -> bool {
    PANIC_ISOLATED.contains(&name)
}

/// May `name` receive an injected `io` fault?
pub fn is_io_capable(name: &str) -> bool {
    IO_CAPABLE.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        assert!(is_registered(CHASE_BINDING));
        assert!(!is_registered("chase.nonsense"));
        for p in PANIC_ISOLATED {
            assert!(is_registered(p), "panic-isolated point {p} not in ALL");
        }
        assert!(is_panic_isolated(PAR_WORKER));
        assert!(!is_panic_isolated(QUERY_EVAL));
    }
}

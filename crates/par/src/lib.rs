//! **muse-par** — the zero-external-dependency parallel execution layer.
//!
//! Everything multi-core in the workspace goes through this crate: the
//! bench binaries run independent scenarios concurrently with it, the
//! CLI's `muse scenario all --threads N` drives whole wizard sessions
//! through it, and `muse serve` runs its request workers on it. The chase
//! itself stays serial; DESIGN.md ("Parallel execution") records why.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** [`scope_map`] returns results *indexed by input
//!    position*, never by completion order. Any worker may compute any
//!    item, but the caller always observes the same vector — so a
//!    deterministic serial computation stays deterministic when
//!    parallelised, whatever the scheduler does.
//! 2. **Zero dependencies.** `std::thread::scope` + atomics only; no
//!    rayon, no channels. The whole pool is ~60 lines and is trivially
//!    auditable.
//! 3. **Observability.** Runs report through [`muse_obs::Metrics`]:
//!    `par.rounds` (parallel rounds executed), `par.workers` (worker
//!    threads launched across rounds), `par.items` (work items processed
//!    in parallel rounds), `par.steal_ns` (nanoseconds workers spent
//!    acquiring work from the shared cursor) and `par.panics` (worker
//!    panics caught by the isolation wrapper).
//! 4. **Panic isolation.** [`try_scope_map`] catches a panicking item in
//!    its own slot (`Err(WorkerPanic)`) instead of unwinding through the
//!    pool, so a poisoned unit degrades the computation rather than
//!    aborting the process; [`scope_map`] keeps the legacy
//!    propagate-on-panic contract on top of it.
//!
//! Thread counts resolve through [`resolve_threads`]: an explicit request
//! (a `--threads N` flag) beats the `MUSE_THREADS` environment variable,
//! which beats the serial default of 1. A count of `0` means "one worker
//! per available core".

#![forbid(unsafe_code)]

pub mod pool;

pub use pool::{scope_map, try_scope_map, WorkerPanic};

/// Thread count requested via the `MUSE_THREADS` environment variable, if
/// set to something parseable.
pub fn env_threads() -> Option<usize> {
    std::env::var("MUSE_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
}

/// Resolve the effective thread count: `explicit` (e.g. a `--threads` CLI
/// flag) beats `MUSE_THREADS`, which beats the serial default of 1. The
/// value `0` (either source) resolves to the number of available cores.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    match explicit.or_else(env_threads) {
        Some(0) => available_parallelism(),
        Some(n) => n,
        None => 1,
    }
}

/// Number of hardware threads available to this process (1 when the
/// platform cannot tell).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_beats_default() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(Some(0)) >= 1);
    }

    #[test]
    fn available_parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
    }
}

//! The scoped worker pool: an index-ordered, panic-isolated parallel map.
//!
//! [`scope_map`] runs `f(0), f(1), …, f(n-1)` over a pool of scoped
//! threads that pull item indices from a shared atomic cursor (the
//! cheapest possible form of work stealing — every idle worker "steals"
//! the next unclaimed index). Results land in per-item slots, so the
//! returned vector is ordered by *input index*, not completion order:
//! callers get deterministic output no matter how the scheduler
//! interleaves the workers.
//!
//! Panic isolation: [`try_scope_map`] wraps every item in `catch_unwind`,
//! so one poisoned unit reports as an `Err(WorkerPanic)` in its slot
//! instead of aborting the process; caught panics count under
//! `par.panics`. [`scope_map`] keeps the original propagate-on-panic
//! contract by resuming the first caught unwind after all workers join.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use muse_obs::{faultpoints, Metrics};

/// A panic caught inside a worker, reported in the item's result slot.
pub struct WorkerPanic {
    /// Input index of the item whose closure panicked.
    pub item: usize,
    payload: Box<dyn Any + Send + 'static>,
}

impl WorkerPanic {
    /// Best-effort human-readable panic message.
    pub fn message(&self) -> String {
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s.clone()
        } else if let Some(p) = self.payload.downcast_ref::<muse_fault::InjectedPanic>() {
            p.to_string()
        } else {
            "<non-string panic payload>".to_owned()
        }
    }

    /// The raw panic payload, for downcasting.
    pub fn payload(&self) -> &(dyn Any + Send) {
        &*self.payload
    }

    /// Re-raise the caught panic on the current thread.
    pub fn resume(self) -> ! {
        resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WorkerPanic {{ item: {}, message: {:?} }}",
            self.item,
            self.message()
        )
    }
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on item {}: {}",
            self.item,
            self.message()
        )
    }
}

/// Map `f` over `0..n_items` with up to `threads` scoped worker threads,
/// returning per-item results in index order; a panicking closure yields
/// `Err(WorkerPanic)` in its slot instead of unwinding through the pool.
///
/// With `threads <= 1` (or fewer than two items) the closures run inline
/// on the caller's thread — still panic-isolated, but without the
/// `par.rounds`/`par.workers`/`par.items`/`par.steal_ns` metrics the
/// parallel rounds record. Caught panics always count under `par.panics`.
pub fn try_scope_map<T, F>(
    n_items: usize,
    threads: usize,
    metrics: &Metrics,
    f: F,
) -> Vec<Result<T, WorkerPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run_one = |i: usize| -> Result<T, WorkerPanic> {
        match catch_unwind(AssertUnwindSafe(|| {
            // Non-panic fault kinds have no budget to trip here; only
            // injected panics are meaningful at the pool boundary.
            let _ = muse_fault::point(faultpoints::PAR_WORKER);
            f(i)
        })) {
            Ok(v) => Ok(v),
            Err(payload) => {
                metrics.incr("par.panics");
                Err(WorkerPanic { item: i, payload })
            }
        }
    };

    let workers = threads.min(n_items);
    if workers <= 1 {
        return (0..n_items).map(run_one).collect();
    }
    metrics.incr("par.rounds");
    metrics.add("par.workers", workers as u64);
    metrics.add("par.items", n_items as u64);
    let steal_ns = metrics.counter("par.steal_ns");
    let timed = metrics.is_enabled();

    let cursor = AtomicUsize::new(0);
    // One slot per item; each is locked exactly once (the cursor hands every
    // index to exactly one worker), so the mutexes never contend.
    let slots: Vec<Mutex<Option<Result<T, WorkerPanic>>>> =
        (0..n_items).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let start = timed.then(Instant::now);
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if let Some(t0) = start {
                    steal_ns.add(t0.elapsed().as_nanos() as u64);
                }
                if i >= n_items {
                    break;
                }
                let value = run_one(i);
                let prev = slots[i].lock().expect("slot poisoned").replace(value);
                debug_assert!(prev.is_none(), "item {i} claimed twice");
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every claimed slot is filled")
        })
        .collect()
}

/// Map `f` over `0..n_items` with up to `threads` scoped worker threads,
/// returning the results in index order.
///
/// With `threads <= 1` (or fewer than two items) the closure runs inline
/// on the caller's thread and no metrics are recorded — the serial path
/// stays exactly the serial path. Parallel rounds record `par.rounds`,
/// `par.workers`, `par.items` and `par.steal_ns` through `metrics`.
///
/// A panic in `f` propagates to the caller once every worker has joined
/// (the lowest-index caught panic is resumed); callers that need to
/// *survive* a poisoned unit use [`try_scope_map`] instead.
pub fn scope_map<T, F>(n_items: usize, threads: usize, metrics: &Metrics, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n_items);
    if workers <= 1 {
        // Inline fast path: no isolation wrapper, panics unwind directly.
        return (0..n_items).map(f).collect();
    }
    let mut out = Vec::with_capacity(n_items);
    for result in try_scope_map(n_items, threads, metrics, f) {
        match result {
            Ok(v) => out.push(v),
            Err(p) => p.resume(),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered() {
        for threads in [1, 2, 4, 9] {
            let out = scope_map(20, threads, &Metrics::disabled(), |i| i * i);
            assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_fallback_handles_empty_and_single() {
        assert_eq!(
            scope_map(0, 8, &Metrics::disabled(), |i| i),
            Vec::<usize>::new()
        );
        assert_eq!(scope_map(1, 8, &Metrics::disabled(), |i| i + 1), vec![1]);
    }

    #[test]
    fn parallel_rounds_report_metrics() {
        let m = Metrics::enabled();
        let _ = scope_map(16, 4, &m, |i| i);
        let snap = m.snapshot();
        assert_eq!(snap.counter("par.rounds"), 1);
        assert_eq!(snap.counter("par.workers"), 4);
        assert_eq!(snap.counter("par.items"), 16);
        // steal_ns was touched (it may legitimately be 0 on a fast clock,
        // but the key must exist).
        assert!(snap.counters.contains_key("par.steal_ns"));
    }

    #[test]
    fn serial_rounds_report_nothing() {
        let m = Metrics::enabled();
        let _ = scope_map(16, 1, &m, |i| i);
        assert_eq!(m.snapshot().counter("par.rounds"), 0);
    }

    #[test]
    fn workers_share_the_load() {
        // All items complete even with far more items than workers.
        let sum: usize = scope_map(1000, 3, &Metrics::disabled(), |i| i).iter().sum();
        assert_eq!(sum, 999 * 1000 / 2);
    }
}

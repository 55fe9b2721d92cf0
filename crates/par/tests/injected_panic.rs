//! An injected `par.worker` panic is isolated to its own slot. The session
//! server's request workers run inside one `try_scope_map` call and rely on
//! exactly this contract.
//!
//! Fault plans are armed process-globally, so this case lives in its own
//! test binary rather than next to the edge cases that run concurrently.

use muse_fault::{arm_scoped, parse_spec, InjectedPanic};
use muse_obs::{faultpoints, Metrics};
use muse_par::try_scope_map;

#[test]
fn injected_worker_panic_fills_exactly_one_slot() {
    let m = Metrics::enabled();
    let guard = arm_scoped(parse_spec("par.worker:panic@1").unwrap());
    let out = try_scope_map(8, 4, &m, |i| i * 10);
    let stats = muse_fault::stats().expect("armed");
    drop(guard);

    assert_eq!(stats.injected, 1, "the one-shot panic fired once");
    let panics: Vec<_> = out.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(panics.len(), 1, "exactly one slot holds the panic");
    let injected = panics[0]
        .payload()
        .downcast_ref::<InjectedPanic>()
        .expect("payload is the injected panic");
    assert_eq!(injected.point, faultpoints::PAR_WORKER);
    for (i, r) in out.iter().enumerate() {
        if let Ok(v) = r {
            assert_eq!(*v, i * 10, "surviving slot {i} keeps its own result");
        }
    }
    assert_eq!(m.snapshot().counter("par.panics"), 1);
}

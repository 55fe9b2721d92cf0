//! **muse-fault** — deterministic fault injection for the governor.
//!
//! A [`FaultPlan`] is a list of faults, each naming a registered
//! injection point (see [`muse_obs::faultpoints`]), a fault kind, the
//! 1-based hit at which it starts firing, and a repetition count. Code
//! under test calls [`point`]`("chase.binding")` at each site; when no
//! plan is armed the call is a single relaxed atomic load — effectively
//! free — so the hooks stay compiled into release builds.
//!
//! Four fault kinds exist:
//!
//! * `panic` — the point panics with an [`InjectedPanic`] payload. Only
//!   legal at panic-isolated points (`faultpoints::PANIC_ISOLATED`), so an
//!   armed plan can never abort the process.
//! * `deadline` — [`point`] returns [`Fault::DeadlineExpiry`]; the site
//!   treats it exactly like an expired budget deadline.
//! * `termcap` — [`point`] returns [`Fault::TermCapExhaustion`]; the site
//!   treats it like a tripped interned-term cap.
//! * `io` — [`point`] returns [`Fault::IoError`]; only legal at
//!   IO-capable points (`faultpoints::IO_CAPABLE`), whose sites translate
//!   it into an `io::Error` on their own fail-degraded path.
//!
//! # Spec grammar (`MUSE_FAULTS` / `--faults`)
//!
//! ```text
//! spec    := entry (';' entry)*
//! entry   := point ':' kind ('@' hit)? ('x' count)?
//!          | 'seed' ':' u64 ('x' count)?    -- seeded plan, count entries (default 3)
//! kind    := 'panic' | 'deadline' | 'termcap' | 'io'
//! count   := u64 | '*'                      -- '*' = sticky (fires forever)
//! ```
//!
//! An explicit entry starts firing at its `hit` (1-based, default 1) and
//! keeps firing on every subsequent hit of its point until `count` total
//! firings (default 1 — one-shot). `x*` makes the fault **sticky**: it
//! never stops firing, which is how a permanently-dead disk is modeled
//! (`serve.wal.append:io@1x*`).
//!
//! Examples: `par.worker:panic`, `query.eval:deadline@3`,
//! `serve.wal.append:io x*`, `seed:42x5`,
//! `par.worker:panic;chase.binding:termcap@2x4`.
//!
//! The default one-shot behaviour is what lets a caller that retries
//! after an isolated worker panic succeed on the retry. Plans are armed
//! process-globally ([`arm`] / [`disarm`] / [`arm_from_env`]);
//! tests that arm plans must serialize.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use muse_obs::faultpoints;
use muse_obs::Rng;

/// A non-panic fault returned to the injection site for it to translate
/// into its own budget-truncation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Behave as if the wall-clock deadline just expired.
    DeadlineExpiry,
    /// Behave as if the interned-term cap was just exceeded.
    TermCapExhaustion,
    /// Behave as if the underlying storage operation failed with an
    /// `io::Error` (IO-capable points only).
    IoError,
}

/// The panic payload used for injected panics, distinguishable from
/// organic panics when a pool reports a caught unwind.
#[derive(Debug, Clone)]
pub struct InjectedPanic {
    /// The injection point that fired.
    pub point: &'static str,
}

impl std::fmt::Display for InjectedPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected panic at {}", self.point)
    }
}

/// What a plan entry does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with an [`InjectedPanic`] payload (panic-isolated points only).
    Panic,
    /// Report [`Fault::DeadlineExpiry`].
    Deadline,
    /// Report [`Fault::TermCapExhaustion`].
    TermCap,
    /// Report [`Fault::IoError`] (IO-capable points only).
    Io,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Deadline => "deadline",
            FaultKind::TermCap => "termcap",
            FaultKind::Io => "io",
        }
    }
}

/// How many times an entry fires once its `at_hit` is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repeat {
    /// Fire on `n` consecutive matching hits, then never again. The
    /// default is `Times(1)` — one-shot.
    Times(u64),
    /// Fire on every matching hit forever (`x*` in the spec) — a
    /// persistently failing resource.
    Sticky,
}

impl Default for Repeat {
    fn default() -> Self {
        Repeat::Times(1)
    }
}

/// One fault: fire `kind` starting at the `at_hit`-th call of `point`,
/// for `repeat` firings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEntry {
    /// Registered injection-point name.
    pub point: String,
    /// What happens when it fires.
    pub kind: FaultKind,
    /// 1-based hit count at which it starts firing.
    pub at_hit: u64,
    /// How many firings before the entry is spent.
    pub repeat: Repeat,
}

/// A parsed, validated fault plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The one-shot faults, in spec order.
    pub entries: Vec<FaultEntry>,
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{}:{}@{}", e.point, e.kind.name(), e.at_hit)?;
            match e.repeat {
                Repeat::Times(1) => {}
                Repeat::Times(n) => write!(f, "x{n}")?,
                Repeat::Sticky => f.write_str("x*")?,
            }
        }
        Ok(())
    }
}

/// Parse and validate a fault spec (see the module docs for the grammar).
pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
    let mut entries = Vec::new();
    for raw in spec.split(';') {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let Some((head, tail)) = raw.split_once(':') else {
            return Err(format!(
                "fault entry `{raw}`: expected `point:kind[@hit]` or `seed:<n>[x<count>]`"
            ));
        };
        if head == "seed" {
            let (seed_s, count_s) = match tail.split_once('x') {
                Some((s, c)) => (s, Some(c)),
                None => (tail, None),
            };
            let seed: u64 = seed_s
                .trim()
                .parse()
                .map_err(|_| format!("fault entry `{raw}`: bad seed `{seed_s}`"))?;
            let count: usize = match count_s {
                Some(c) => c
                    .trim()
                    .parse()
                    .map_err(|_| format!("fault entry `{raw}`: bad count `{c}`"))?,
                None => 3,
            };
            entries.extend(plan_from_seed(seed, count).entries);
            continue;
        }
        // entry := kind ('@' hit)? ('x' count)? after the point. The `x`
        // suffix binds to whichever segment it trails (no kind name
        // contains an `x`, so splitting the kind token is unambiguous).
        let (kind_and_hit, count_s) = match tail.split_once('x') {
            Some((kh, c)) => (kh, Some(c)),
            None => (tail, None),
        };
        let (kind_s, hit_s) = match kind_and_hit.split_once('@') {
            Some((k, h)) => (k, Some(h)),
            None => (kind_and_hit, None),
        };
        let kind = match kind_s.trim() {
            "panic" => FaultKind::Panic,
            "deadline" => FaultKind::Deadline,
            "termcap" => FaultKind::TermCap,
            "io" => FaultKind::Io,
            other => {
                return Err(format!(
                    "fault entry `{raw}`: unknown kind `{other}` (panic|deadline|termcap|io)"
                ))
            }
        };
        let at_hit: u64 = match hit_s {
            Some(h) => h
                .trim()
                .parse()
                .map_err(|_| format!("fault entry `{raw}`: bad hit `{h}`"))?,
            None => 1,
        };
        if at_hit == 0 {
            return Err(format!("fault entry `{raw}`: hit counts are 1-based"));
        }
        let repeat = match count_s.map(str::trim) {
            None => Repeat::Times(1),
            Some("*") => Repeat::Sticky,
            Some(c) => {
                let n: u64 = c
                    .parse()
                    .map_err(|_| format!("fault entry `{raw}`: bad count `{c}` (u64 or `*`)"))?;
                if n == 0 {
                    return Err(format!(
                        "fault entry `{raw}`: count must be >= 1 (or `*` for sticky)"
                    ));
                }
                Repeat::Times(n)
            }
        };
        let point = head.trim().to_owned();
        if !faultpoints::is_registered(&point) {
            return Err(format!(
                "fault entry `{raw}`: unknown point `{point}` (known: {})",
                faultpoints::ALL.join(", ")
            ));
        }
        if kind == FaultKind::Panic && !faultpoints::is_panic_isolated(&point) {
            return Err(format!(
                "fault entry `{raw}`: point `{point}` is not panic-isolated \
                 (panic faults are legal at: {})",
                faultpoints::PANIC_ISOLATED.join(", ")
            ));
        }
        if kind == FaultKind::Io && !faultpoints::is_io_capable(&point) {
            return Err(format!(
                "fault entry `{raw}`: point `{point}` is not IO-capable \
                 (io faults are legal at: {})",
                faultpoints::IO_CAPABLE.join(", ")
            ));
        }
        entries.push(FaultEntry {
            point,
            kind,
            at_hit,
            repeat,
        });
    }
    Ok(FaultPlan { entries })
}

/// Generate a deterministic `count`-entry plan from `seed`. Points are
/// drawn from the registry; panic faults are only assigned to
/// panic-isolated points and io faults to IO-capable points, so a seeded
/// plan is always valid. Seeded entries are always one-shot — sticky
/// faults wedge a resource permanently and are only ever requested
/// explicitly.
pub fn plan_from_seed(seed: u64, count: usize) -> FaultPlan {
    let mut rng = Rng::new(seed ^ 0xFA17_FA17_FA17_FA17);
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let point = faultpoints::ALL[rng.below(faultpoints::ALL.len() as u64) as usize];
        let kind = if faultpoints::is_panic_isolated(point) {
            match rng.below(3) {
                0 => FaultKind::Panic,
                1 => FaultKind::Deadline,
                _ => FaultKind::TermCap,
            }
        } else if faultpoints::is_io_capable(point) {
            match rng.below(3) {
                0 => FaultKind::Io,
                1 => FaultKind::Deadline,
                _ => FaultKind::TermCap,
            }
        } else {
            match rng.below(2) {
                0 => FaultKind::Deadline,
                _ => FaultKind::TermCap,
            }
        };
        entries.push(FaultEntry {
            point: point.to_owned(),
            kind,
            at_hit: 1 + rng.below(6),
            repeat: Repeat::Times(1),
        });
    }
    FaultPlan { entries }
}

/// Snapshot of the armed plan's progress, for `fault.*` reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Point-name → number of [`point`] calls while armed.
    pub hits: BTreeMap<String, u64>,
    /// Total faults injected (fired entries).
    pub injected: u64,
    /// Entries in the armed plan.
    pub planned: usize,
    /// Entries that have fired.
    pub fired: usize,
}

struct EntryState {
    entry: FaultEntry,
    /// Firings so far; a `Times(n)` entry is spent once this reaches `n`.
    fired: u64,
}

impl EntryState {
    fn spent(&self) -> bool {
        match self.entry.repeat {
            Repeat::Times(n) => self.fired >= n,
            Repeat::Sticky => false,
        }
    }
}

struct PlanState {
    entries: Vec<EntryState>,
    hits: BTreeMap<String, u64>,
    injected: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<PlanState>> = Mutex::new(None);

fn lock_state() -> std::sync::MutexGuard<'static, Option<PlanState>> {
    // A lock poisoned by an injected panic still holds consistent data.
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arm `plan` process-globally, replacing any previous plan and resetting
/// hit counters.
pub fn arm(plan: FaultPlan) {
    let mut guard = lock_state();
    *guard = Some(PlanState {
        entries: plan
            .entries
            .into_iter()
            .map(|entry| EntryState { entry, fired: 0 })
            .collect(),
        hits: BTreeMap::new(),
        injected: 0,
    });
    ARMED.store(true, Ordering::Release);
}

/// Disarm, returning the final stats of the plan that was armed (if any).
pub fn disarm() -> Option<FaultStats> {
    ARMED.store(false, Ordering::Release);
    let mut guard = lock_state();
    guard.take().map(|s| snapshot(&s))
}

/// Stats of the currently armed plan, if one is armed.
pub fn stats() -> Option<FaultStats> {
    let guard = lock_state();
    guard.as_ref().map(snapshot)
}

fn snapshot(s: &PlanState) -> FaultStats {
    FaultStats {
        hits: s.hits.clone(),
        injected: s.injected,
        planned: s.entries.len(),
        fired: s.entries.iter().filter(|e| e.fired > 0).count(),
    }
}

/// Is a plan currently armed?
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arm from the `MUSE_FAULTS` environment variable. Returns the parsed
/// plan when one was armed, `None` when the variable is unset or empty.
/// Libraries never call this — only binary entry points (the CLI, the
/// chaos harness, the governor bench) opt in.
pub fn arm_from_env() -> Result<Option<FaultPlan>, String> {
    match std::env::var("MUSE_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            let plan = parse_spec(&spec)?;
            arm(plan.clone());
            Ok(Some(plan))
        }
        _ => Ok(None),
    }
}

/// RAII guard that disarms on drop; use [`arm_scoped`] in tests.
pub struct ArmGuard(());

impl Drop for ArmGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arm `plan` and return a guard that disarms when dropped.
#[must_use = "the plan disarms when the guard drops"]
pub fn arm_scoped(plan: FaultPlan) -> ArmGuard {
    arm(plan);
    ArmGuard(())
}

/// The injection hook. Sites call this with their registered point name;
/// when disarmed this is one relaxed atomic load. When an armed entry
/// matches this point at (or, while it has firings left, past) its hit
/// count it fires: `panic` entries unwind with an [`InjectedPanic`]
/// payload, the other kinds are returned for the site to translate into
/// its own degradation path.
pub fn point(name: &'static str) -> Option<Fault> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    point_slow(name)
}

#[inline(never)]
fn point_slow(name: &'static str) -> Option<Fault> {
    let mut guard = lock_state();
    let state = guard.as_mut()?;
    let hit = state.hits.entry(name.to_owned()).or_insert(0);
    *hit += 1;
    let hit = *hit;
    for e in state.entries.iter_mut() {
        if !e.spent() && e.entry.point == name && hit >= e.entry.at_hit {
            e.fired += 1;
            state.injected += 1;
            let kind = e.entry.kind;
            drop(guard);
            return match kind {
                FaultKind::Panic => {
                    std::panic::panic_any(InjectedPanic { point: name });
                }
                FaultKind::Deadline => Some(Fault::DeadlineExpiry),
                FaultKind::TermCap => Some(Fault::TermCapExhaustion),
                FaultKind::Io => Some(Fault::IoError),
            };
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault state is process-global; serialize the tests that arm plans.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_point_is_noop() {
        let _s = serial();
        disarm();
        assert_eq!(point(faultpoints::QUERY_EVAL), None);
        assert!(!armed());
    }

    #[test]
    fn parse_explicit_entries() {
        let plan = parse_spec("par.worker:panic; query.eval:deadline@3").unwrap();
        assert_eq!(plan.entries.len(), 2);
        assert_eq!(plan.entries[0].kind, FaultKind::Panic);
        assert_eq!(plan.entries[0].at_hit, 1);
        assert_eq!(plan.entries[1].point, "query.eval");
        assert_eq!(plan.entries[1].at_hit, 3);
        assert_eq!(plan.to_string(), "par.worker:panic@1;query.eval:deadline@3");
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(parse_spec("nope.nope:panic").is_err());
        // Removed points are unknown (the first name is split so a
        // search for the removed identifier finds no live use).
        for gone in [concat!("chase.fire", "_unit:panic"), "chase.merge:deadline"] {
            let err = parse_spec(gone).unwrap_err();
            assert!(err.contains("unknown point"), "`{gone}`: {err}");
        }
        assert!(
            parse_spec("query.eval:panic").is_err(),
            "not panic-isolated"
        );
        assert!(parse_spec("query.eval:explode").is_err());
        assert!(parse_spec("query.eval:deadline@0").is_err());
        assert!(parse_spec("garbage").is_err());
        assert!(parse_spec("query.eval:io").is_err(), "not IO-capable");
        assert!(parse_spec("serve.wal.append:io@1x0").is_err(), "zero count");
        assert!(parse_spec("serve.wal.append:io@1xbogus").is_err());
        assert!(parse_spec("serve.wal.append:io@x*").is_err(), "empty hit");
    }

    #[test]
    fn parse_repetition_round_trips() {
        // Every shape of the grammar renders back to a canonical spec
        // that re-parses to the same plan.
        let cases = [
            ("serve.wal.append:io@1x*", "serve.wal.append:io@1x*"),
            ("serve.wal.fsync:iox*", "serve.wal.fsync:io@1x*"),
            ("serve.wal.compact:io@2x4", "serve.wal.compact:io@2x4"),
            ("query.eval:deadline@3x1", "query.eval:deadline@3"),
            ("serve.session.step:panic", "serve.session.step:panic@1"),
            (
                "serve.wal.open:io ; par.worker:panic@2",
                "serve.wal.open:io@1;par.worker:panic@2",
            ),
        ];
        for (spec, canonical) in cases {
            let plan = parse_spec(spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"));
            assert_eq!(plan.to_string(), canonical, "render of `{spec}`");
            let again = parse_spec(&plan.to_string()).unwrap();
            assert_eq!(again, plan, "round-trip of `{spec}`");
        }
        let sticky = parse_spec("serve.wal.append:io@2x*").unwrap();
        assert_eq!(sticky.entries[0].repeat, Repeat::Sticky);
        assert_eq!(sticky.entries[0].at_hit, 2);
        assert_eq!(sticky.entries[0].kind, FaultKind::Io);
    }

    #[test]
    fn sticky_fault_fires_forever_from_its_hit() {
        let _s = serial();
        let _g = arm_scoped(parse_spec("serve.wal.append:io@2x*").unwrap());
        assert_eq!(point(faultpoints::SERVE_WAL_APPEND), None);
        for _ in 0..10 {
            assert_eq!(point(faultpoints::SERVE_WAL_APPEND), Some(Fault::IoError));
        }
        let st = stats().unwrap();
        assert_eq!(st.injected, 10);
        assert_eq!(st.fired, 1);
        assert_eq!(st.hits.get(faultpoints::SERVE_WAL_APPEND), Some(&11));
    }

    #[test]
    fn counted_fault_fires_exactly_n_times() {
        let _s = serial();
        let _g = arm_scoped(parse_spec("query.eval:deadline@2x3").unwrap());
        assert_eq!(point(faultpoints::QUERY_EVAL), None);
        for _ in 0..3 {
            assert_eq!(point(faultpoints::QUERY_EVAL), Some(Fault::DeadlineExpiry));
        }
        assert_eq!(point(faultpoints::QUERY_EVAL), None);
        assert_eq!(point(faultpoints::QUERY_EVAL), None);
        let st = stats().unwrap();
        assert_eq!(st.injected, 3);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_valid() {
        let a = plan_from_seed(42, 5);
        let b = plan_from_seed(42, 5);
        assert_eq!(a, b);
        assert_ne!(a, plan_from_seed(43, 5));
        for e in &a.entries {
            assert!(faultpoints::is_registered(&e.point));
            if e.kind == FaultKind::Panic {
                assert!(faultpoints::is_panic_isolated(&e.point));
            }
            assert!(e.at_hit >= 1);
        }
        // `seed:` entries expand inside a spec.
        let via_spec = parse_spec("seed:42x5").unwrap();
        assert_eq!(via_spec, a);
    }

    #[test]
    fn one_shot_fault_fires_exactly_once_at_its_hit() {
        let _s = serial();
        let _g = arm_scoped(parse_spec("query.eval:deadline@2").unwrap());
        assert_eq!(point(faultpoints::QUERY_EVAL), None);
        assert_eq!(point(faultpoints::QUERY_EVAL), Some(Fault::DeadlineExpiry));
        assert_eq!(point(faultpoints::QUERY_EVAL), None);
        let st = stats().unwrap();
        assert_eq!(st.injected, 1);
        assert_eq!(st.fired, 1);
        assert_eq!(st.hits.get("query.eval"), Some(&3));
    }

    #[test]
    fn injected_panic_carries_typed_payload() {
        let _s = serial();
        let _g = arm_scoped(parse_spec("par.worker:panic").unwrap());
        let caught = std::panic::catch_unwind(|| point(faultpoints::PAR_WORKER));
        let payload = caught.expect_err("panic fault must unwind");
        let injected = payload
            .downcast_ref::<InjectedPanic>()
            .expect("payload is InjectedPanic");
        assert_eq!(injected.point, faultpoints::PAR_WORKER);
    }

    #[test]
    fn disarm_returns_final_stats() {
        let _s = serial();
        arm(parse_spec("chase.binding:termcap").unwrap());
        assert_eq!(
            point(faultpoints::CHASE_BINDING),
            Some(Fault::TermCapExhaustion)
        );
        let st = disarm().expect("was armed");
        assert_eq!(st.injected, 1);
        assert_eq!(st.planned, 1);
        assert!(!armed());
        assert_eq!(stats(), None);
    }
}

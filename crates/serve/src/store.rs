//! The in-memory session store: per-session state plus the stepping logic
//! that drives `muse_wizard::Session::step` from a recorded answer list.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use muse_chase::DeltaStore;
use muse_cliogen::GroupingStrategy;
use muse_nr::Instance;
use muse_obs::{Budget, Json, Metrics};
use muse_scenarios::Scenario;
use muse_wizard::{Answer, ProbeCache, Session, Step, StepMemo, WizardError};

use crate::oracle;
use crate::proto;

/// Everything a `POST /sessions` body may configure. Serialized verbatim
/// into the WAL's create record, so a replayed session rebuilds the exact
/// same deterministic context.
#[derive(Debug, Clone)]
pub struct SessionCfg {
    /// Scenario name (Mondial, DBLP, TPCH, Amalgam; case-insensitive).
    pub scenario: String,
    /// When set, the server answers its own questions with the strategy
    /// oracle (the `muse scenario --strategy` designer) and the session
    /// arrives at `done` immediately.
    pub strategy: Option<GroupingStrategy>,
    /// Instance scale relative to the scenario default (CLI `--scale`).
    pub scale: f64,
    /// Instance generator seed.
    pub seed: u64,
    /// Generate and attach the real source instance (real examples via
    /// `QIe`). Off = synthetic examples only, much cheaper.
    pub use_instance: bool,
    /// Sec. III-C instance-only pruning in Muse-G.
    pub instance_only: bool,
    /// Offer inner/outer join questions (Sec. IV "More options").
    pub join_options: bool,
    /// Budget: wall-clock deadline per request, in ms. Note a deadline
    /// makes replay nondeterministic; prefer the count caps below for
    /// durable sessions.
    pub deadline_ms: Option<u64>,
    /// Budget: max rows per query evaluation.
    pub max_rows: Option<u64>,
    /// Budget: max terms materialized per chase.
    pub max_terms: Option<u64>,
    /// Budget: max chase steps.
    pub max_chase_steps: Option<u64>,
    /// Budget: derive the chase-step cap from the termination analyzer's
    /// static bound (`muse-lint` T-pass), computed once per context at
    /// build time. Tightens, never loosens, an explicit `max_chase_steps`.
    pub auto_chase_steps: bool,
}

impl Default for SessionCfg {
    fn default() -> Self {
        SessionCfg {
            scenario: String::new(),
            strategy: None,
            scale: 0.05,
            seed: 1,
            use_instance: true,
            instance_only: false,
            join_options: false,
            deadline_ms: None,
            max_rows: None,
            max_terms: None,
            max_chase_steps: None,
            auto_chase_steps: false,
        }
    }
}

impl SessionCfg {
    /// Parse a create-request body. Unknown scenario names are caught later
    /// by [`SessionCtx::build`]; unknown *fields* are ignored.
    pub fn from_json(j: &Json) -> Result<SessionCfg, String> {
        let mut cfg = SessionCfg {
            scenario: j
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or("create needs a string `scenario`")?
                .to_owned(),
            ..SessionCfg::default()
        };
        if let Some(s) = j.get("strategy") {
            let name = s.as_str().ok_or("`strategy` must be a string")?;
            cfg.strategy = Some(oracle::parse_strategy(name)?);
        }
        if let Some(v) = j.get("scale") {
            cfg.scale = v
                .as_f64()
                .filter(|s| *s > 0.0)
                .ok_or("`scale` must be > 0")?;
        }
        if let Some(v) = j.get("seed") {
            cfg.seed = v
                .as_int()
                .filter(|s| *s >= 0)
                .ok_or("`seed` must be >= 0")? as u64;
        }
        for (key, slot) in [
            ("use_instance", &mut cfg.use_instance),
            ("instance_only", &mut cfg.instance_only),
            ("join_options", &mut cfg.join_options),
            ("auto_chase_steps", &mut cfg.auto_chase_steps),
        ] {
            if let Some(v) = j.get(key) {
                *slot = match v {
                    Json::Bool(b) => *b,
                    _ => return Err(format!("`{key}` must be a boolean")),
                };
            }
        }
        for (key, slot) in [
            ("deadline_ms", &mut cfg.deadline_ms),
            ("max_rows", &mut cfg.max_rows),
            ("max_terms", &mut cfg.max_terms),
            ("max_chase_steps", &mut cfg.max_chase_steps),
        ] {
            if let Some(v) = j.get(key) {
                let n = v
                    .as_int()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("`{key}` must be a positive integer"))?;
                *slot = Some(n as u64);
            }
        }
        Ok(cfg)
    }

    /// The WAL/create-record encoding; `from_json` of this value yields an
    /// identical config.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("scenario", Json::str(self.scenario.clone())),
            ("scale", Json::Num(self.scale)),
            ("seed", Json::Int(self.seed as i64)),
            ("use_instance", Json::Bool(self.use_instance)),
            ("instance_only", Json::Bool(self.instance_only)),
            ("join_options", Json::Bool(self.join_options)),
        ];
        if let Some(s) = self.strategy {
            fields.insert(1, ("strategy", Json::str(oracle::strategy_name(s))));
        }
        for (key, value) in [
            ("deadline_ms", self.deadline_ms),
            ("max_rows", self.max_rows),
            ("max_terms", self.max_terms),
            ("max_chase_steps", self.max_chase_steps),
        ] {
            if let Some(n) = value {
                fields.push((key, Json::Int(n as i64)));
            }
        }
        if self.auto_chase_steps {
            fields.push(("auto_chase_steps", Json::Bool(true)));
        }
        Json::obj(fields)
    }

    /// The key identifying this config's deterministic replay context —
    /// exactly the fields [`SessionCtx::build`] reads. Two sessions with
    /// equal keys share both a [`SessionCtx`] (via [`CtxCache`]) and a
    /// probe-cache namespace: the wizard's questions are a pure function
    /// of (context, mapping, probe state), so cross-session memo hits are
    /// sound only within one key.
    pub fn ctx_key(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.scenario.to_lowercase(),
            self.scale.to_bits(),
            self.seed,
            self.use_instance
        )
    }

    /// The execution budget for one request against this session. Built
    /// fresh per request so a deadline clock restarts each time.
    pub fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(ms) = self.deadline_ms {
            b = b.with_deadline_in(Duration::from_millis(ms));
        }
        if let Some(n) = self.max_rows {
            b = b.with_max_rows(n);
        }
        if let Some(n) = self.max_terms {
            b = b.with_max_terms(n);
        }
        if let Some(n) = self.max_chase_steps {
            b = b.with_max_chase_steps(n);
        }
        if self.auto_chase_steps {
            b = b.with_auto_chase_steps();
        }
        b
    }
}

/// The deterministic heavy state a session replays against: the scenario
/// bundle, its generated instance, and the candidate mappings.
pub struct SessionCtx {
    /// The owned scenario (schemas, constraints, generator).
    pub scenario: Scenario,
    /// The generated source instance, when `use_instance`.
    pub instance: Option<Instance>,
    /// Candidate mappings from the correspondences (`muse_cliogen`).
    pub mappings: Vec<muse_mapping::Mapping>,
    /// Static chase-step bound over `instance` (termination-analyzer
    /// preflight); `None` without an instance. Resolves a session's
    /// [`Budget::resolve_auto_chase_steps`] request.
    pub chase_step_bound: Option<u64>,
}

impl SessionCtx {
    /// Rebuild the context from a config — the same construction on every
    /// server that replays the same create record.
    pub fn build(cfg: &SessionCfg) -> Result<SessionCtx, String> {
        let mut all = muse_scenarios::all_scenarios();
        let idx = all
            .iter()
            .position(|s| s.name.eq_ignore_ascii_case(&cfg.scenario));
        let scenario = match idx {
            Some(idx) => all.swap_remove(idx),
            // `Synth-<seed>` resolves to a fleet scenario; seed-derived
            // construction is deterministic, so WAL replay rebuilds the
            // identical bundle on any server.
            None => match muse_scenarios::synth::cfg_from_name(&cfg.scenario) {
                Some(synth_cfg) => Scenario::synthetic(synth_cfg),
                None => {
                    return Err(format!(
                        "unknown scenario `{}` (try Mondial, DBLP, TPCH, Amalgam, Synth-<seed>)",
                        cfg.scenario
                    ));
                }
            },
        };
        let instance = cfg
            .use_instance
            .then(|| scenario.instance(scenario.default_scale * cfg.scale, cfg.seed));
        let mappings = scenario
            .mappings()
            .map_err(|e| format!("{}: mapping generation failed: {e}", scenario.name))?;
        let chase_step_bound = instance.as_ref().map(|inst| {
            let sizes = muse_lint::termination::path_sizes(&scenario.source_schema, inst);
            muse_lint::termination::chase_step_bound(
                &scenario.source_schema,
                &scenario.source_constraints,
                &mappings,
                &sizes,
            )
        });
        Ok(SessionCtx {
            scenario,
            instance,
            mappings,
            chase_step_bound,
        })
    }
}

/// A small process-wide cache of built [`SessionCtx`]s, keyed by
/// [`SessionCfg::ctx_key`]. Building a context is the expensive part of
/// session creation (instance generation + mapping enumeration); serving N
/// identical-config sessions should pay for it once. Contexts are built
/// *outside* the cache lock — two racing builds of the same key are both
/// correct (construction is deterministic) and the loser's copy is simply
/// dropped.
pub struct CtxCache {
    cap: usize,
    inner: Mutex<Vec<(String, Arc<SessionCtx>)>>,
}

impl CtxCache {
    /// A cache holding at most `cap` contexts (FIFO eviction).
    pub fn new(cap: usize) -> Self {
        CtxCache {
            cap,
            inner: Mutex::new(Vec::new()),
        }
    }

    /// Return the shared context for `cfg`, building it on a miss.
    pub fn get_or_build(
        &self,
        cfg: &SessionCfg,
        metrics: &Metrics,
    ) -> Result<Arc<SessionCtx>, String> {
        let key = cfg.ctx_key();
        {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((_, ctx)) = inner.iter().find(|(k, _)| *k == key) {
                metrics.incr("serve.ctx_cache_hits");
                return Ok(Arc::clone(ctx));
            }
        }
        metrics.incr("serve.ctx_cache_misses");
        let ctx = Arc::new(SessionCtx::build(cfg)?);
        if self.cap > 0 {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if !inner.iter().any(|(k, _)| *k == key) {
                while inner.len() >= self.cap {
                    inner.remove(0);
                }
                inner.push((key, Arc::clone(&ctx)));
            }
        }
        Ok(ctx)
    }
}

/// Where a session currently stands, with its wire payload pre-rendered.
pub enum SessionStatus {
    /// Waiting on question `seq`.
    Open {
        /// Number of recorded answers == index of the open question.
        seq: usize,
        /// The cached `question_json` payload.
        question: Json,
    },
    /// All questions answered.
    Done {
        /// The cached `report_json` payload.
        report: Json,
    },
    /// The wizard failed outright (not a budget truncation — those degrade
    /// into warnings). Surfaced as 500 on every endpoint.
    Failed {
        /// The wizard error, rendered.
        error: String,
    },
    /// The session's `step` panicked repeatedly (the `panic_quarantine`
    /// threshold) and was poisoned: every subsequent request gets a
    /// structured 500 with this reason instead of burning a worker on
    /// another doomed replay. Runtime-only — a restart replays the
    /// session from its WAL history and gives it a fresh chance.
    Quarantined {
        /// Why the session was poisoned.
        reason: String,
    },
}

/// One session: config, context, the answer log mirror, and cached status.
pub struct SessionEntry {
    /// The server-assigned id.
    pub id: u64,
    /// The creation config.
    pub cfg: SessionCfg,
    /// The deterministic replay context, shared across sessions with the
    /// same [`SessionCfg::ctx_key`] (see [`CtxCache`]).
    pub ctx: Arc<SessionCtx>,
    /// The probe-cache namespace ([`SessionCfg::ctx_key`], precomputed).
    pub probe_ctx: String,
    /// Every accepted answer, in question order (mirrors the WAL).
    pub answers: Vec<Answer>,
    /// Cached current state.
    pub status: SessionStatus,
    /// Consecutive `step` panics observed by the server; at the
    /// `panic_quarantine` threshold the session is poisoned. Reset by a
    /// successful step.
    pub panics: u32,
    /// The session's incremental chase store: probe chases, including
    /// those of steps that replay answers, rederive unchanged bindings
    /// from materialized state instead of re-chasing from scratch.
    /// Byte-invisible in every response (scratch fallback under
    /// budgets/faults); serialized into WAL snapshot records so a restart
    /// restores it warm.
    pub delta: Arc<DeltaStore>,
    /// The session's step resume point: an answer that extends the log
    /// replays only the current design unit instead of the whole log.
    /// Byte-invisible (full replay whenever the log does not extend the
    /// recorded prefix, or under a budget or fault plan); runtime-only, so
    /// the first step after a restart replays in full and records it.
    pub step_memo: StepMemo,
}

impl SessionEntry {
    /// Step the session over the recorded answers and refresh `status`.
    /// Returns the step so callers (the oracle loop, the create handler)
    /// can act on the typed question without re-parsing JSON.
    ///
    /// `probes` is the process-wide probe/example memo. The wizards consult
    /// it only under their replay gate (unlimited budget, uncapped
    /// real-example search, no armed fault plan): under a deadline or
    /// count cap a cache hit would bypass the budget's accounting and
    /// change which truncation warnings the wizard reports.
    pub fn advance(
        &mut self,
        metrics: &Metrics,
        probes: Option<&ProbeCache>,
    ) -> Result<Step, WizardError> {
        let mut budget = self.cfg.budget();
        if let Some(bound) = self.ctx.chase_step_bound {
            budget.resolve_auto_chase_steps(bound);
        }
        let mut session = Session::new(
            &self.ctx.scenario.source_schema,
            &self.ctx.scenario.target_schema,
            &self.ctx.scenario.source_constraints,
        )
        .with_budget(&budget)
        .with_metrics(metrics)
        // Exhaustive real-example search: a wall-clock cap here would make
        // replay nondeterministic (see DESIGN.md, replay invariant).
        .with_real_example_budget(None)
        // Safe under any budget: the store itself falls back to a scratch
        // chase (`chase.delta_fallbacks`) whenever the budget is limited,
        // and the wizards consult the probe cache and `step` the memo only
        // under their replay gate.
        .with_delta(&self.delta)
        .with_step_memo(&self.step_memo);
        if let Some(cache) = probes {
            session = session.with_probe_cache(cache, &self.probe_ctx);
        }
        if let Some(inst) = &self.ctx.instance {
            session = session.with_instance(inst);
        }
        session.instance_only = self.cfg.instance_only;
        session.offer_join_options = self.cfg.join_options;

        let step = session.step(&self.ctx.mappings, &self.answers)?;
        self.status = match &step {
            Step::Ask { seq, question } => SessionStatus::Open {
                seq: *seq,
                question: proto::question_json(
                    *seq,
                    question,
                    &self.ctx.scenario.source_schema,
                    &self.ctx.scenario.target_schema,
                ),
            },
            Step::Done(report) => SessionStatus::Done {
                report: proto::report_json(report),
            },
        };
        Ok(step)
    }
}

/// The concurrent session map. Lock order: the map lock is never held
/// while taking an entry lock's critical section beyond cloning the `Arc`.
pub struct Store {
    sessions: Mutex<BTreeMap<u64, Arc<Mutex<SessionEntry>>>>,
    next_id: AtomicU64,
    max_sessions: usize,
    open: AtomicU64,
}

impl Store {
    /// An empty store admitting at most `max_sessions` sessions.
    pub fn new(max_sessions: usize) -> Self {
        Store {
            sessions: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            max_sessions,
            open: AtomicU64::new(0),
        }
    }

    fn map(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Arc<Mutex<SessionEntry>>>> {
        self.sessions.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Insert a fresh session under a new id; `Err` when at capacity.
    pub fn insert(
        &self,
        cfg: SessionCfg,
        ctx: Arc<SessionCtx>,
    ) -> Result<Arc<Mutex<SessionEntry>>, String> {
        let mut map = self.map();
        if map.len() >= self.max_sessions {
            return Err(format!(
                "session store at capacity ({} sessions)",
                self.max_sessions
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let probe_ctx = cfg.ctx_key();
        let entry = Arc::new(Mutex::new(SessionEntry {
            id,
            cfg,
            ctx,
            probe_ctx,
            answers: Vec::new(),
            status: SessionStatus::Failed {
                error: "session not yet stepped".to_owned(),
            },
            panics: 0,
            delta: Arc::new(DeltaStore::new()),
            step_memo: StepMemo::new(),
        }));
        map.insert(id, Arc::clone(&entry));
        Ok(entry)
    }

    /// Insert a session under a WAL-recorded id (replay path); keeps
    /// `next_id` above every replayed id.
    pub fn insert_replayed(
        &self,
        id: u64,
        cfg: SessionCfg,
        ctx: Arc<SessionCtx>,
    ) -> Arc<Mutex<SessionEntry>> {
        let probe_ctx = cfg.ctx_key();
        let entry = Arc::new(Mutex::new(SessionEntry {
            id,
            cfg,
            ctx,
            probe_ctx,
            answers: Vec::new(),
            status: SessionStatus::Failed {
                error: "session not yet stepped".to_owned(),
            },
            panics: 0,
            delta: Arc::new(DeltaStore::new()),
            step_memo: StepMemo::new(),
        }));
        self.map().insert(id, Arc::clone(&entry));
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        entry
    }

    /// Look up a session.
    pub fn get(&self, id: u64) -> Option<Arc<Mutex<SessionEntry>>> {
        self.map().get(&id).cloned()
    }

    /// Drop a session (the create-append-failed rollback: the id was
    /// never acknowledged or logged, so it must not linger in memory).
    pub fn remove(&self, id: u64) -> Option<Arc<Mutex<SessionEntry>>> {
        self.map().remove(&id)
    }

    /// Every session, in id order (replay walks this once at bind time).
    pub fn all(&self) -> Vec<Arc<Mutex<SessionEntry>>> {
        self.map().values().cloned().collect()
    }

    /// Total sessions resident.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// True when no session is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The open-sessions gauge (maintained by the server on status
    /// transitions).
    pub fn open_sessions(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    /// Gauge bump on a session entering the open state.
    pub fn note_opened(&self) {
        self.open.fetch_add(1, Ordering::Relaxed);
    }

    /// Gauge drop on an open session completing or failing.
    pub fn note_closed(&self) {
        // Saturating: replays may close sessions the gauge never saw open.
        let _ = self
            .open
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_round_trips_through_json() {
        let text = "{\"scenario\":\"DBLP\",\"strategy\":\"g2\",\"scale\":0.02,\"seed\":7,\
                    \"use_instance\":false,\"join_options\":true,\"max_terms\":500}";
        let cfg = SessionCfg::from_json(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(cfg.scenario, "DBLP");
        assert_eq!(cfg.strategy, Some(GroupingStrategy::G2));
        assert_eq!(cfg.seed, 7);
        assert!(!cfg.use_instance);
        assert!(cfg.join_options);
        assert_eq!(cfg.max_terms, Some(500));
        let back = SessionCfg::from_json(&cfg.to_json()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
    }

    #[test]
    fn bad_cfg_fields_are_rejected() {
        for text in [
            "{}",
            "{\"scenario\":\"DBLP\",\"scale\":0}",
            "{\"scenario\":\"DBLP\",\"strategy\":\"g9\"}",
            "{\"scenario\":\"DBLP\",\"max_rows\":-5}",
            "{\"scenario\":\"DBLP\",\"use_instance\":1}",
        ] {
            let j = Json::parse(text).unwrap();
            assert!(SessionCfg::from_json(&j).is_err(), "{text}");
        }
    }

    #[test]
    fn synthetic_scenarios_resolve_by_name() {
        let cfg = SessionCfg {
            scenario: "Synth-7".to_owned(),
            use_instance: false,
            ..SessionCfg::default()
        };
        let a = SessionCtx::build(&cfg).unwrap();
        assert_eq!(a.scenario.name, "Synth-7");
        assert!(!a.mappings.is_empty());
        // Replay determinism: a rebuild produces the identical bundle.
        let b = SessionCtx::build(&cfg).unwrap();
        assert_eq!(a.scenario.source_schema, b.scenario.source_schema);
        assert_eq!(a.mappings.len(), b.mappings.len());

        let bad = SessionCfg {
            scenario: "Synth-x".to_owned(),
            ..SessionCfg::default()
        };
        assert!(SessionCtx::build(&bad).is_err());
    }

    #[test]
    fn auto_chase_steps_preflight_caps_the_budget() {
        let cfg = SessionCfg {
            scenario: "DBLP".to_owned(),
            scale: 0.02,
            auto_chase_steps: true,
            ..SessionCfg::default()
        };
        // Round-trips through the WAL encoding.
        let back = SessionCfg::from_json(&cfg.to_json()).unwrap();
        assert!(back.auto_chase_steps);

        let ctx = SessionCtx::build(&cfg).unwrap();
        let bound = ctx.chase_step_bound.expect("instance implies a bound");
        assert!(bound > 0);
        let mut budget = cfg.budget();
        assert!(budget.auto_chase_steps);
        budget.resolve_auto_chase_steps(bound);
        assert_eq!(budget.max_chase_steps, Some(bound));

        // Without an instance there is nothing to bound: the request stays
        // unresolved and the budget caps nothing.
        let no_inst = SessionCfg {
            use_instance: false,
            ..cfg
        };
        let ctx = SessionCtx::build(&no_inst).unwrap();
        assert_eq!(ctx.chase_step_bound, None);
    }

    #[test]
    fn store_enforces_capacity() {
        let store = Store::new(2);
        let cfg = SessionCfg {
            scenario: "DBLP".to_owned(),
            use_instance: false,
            ..SessionCfg::default()
        };
        for _ in 0..2 {
            let ctx = Arc::new(SessionCtx::build(&cfg).unwrap());
            store.insert(cfg.clone(), ctx).unwrap();
        }
        let ctx = Arc::new(SessionCtx::build(&cfg).unwrap());
        assert!(store.insert(cfg.clone(), ctx).is_err());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn ctx_cache_shares_contexts_by_key() {
        let metrics = Metrics::enabled();
        let cache = CtxCache::new(4);
        let cfg = SessionCfg {
            scenario: "DBLP".to_owned(),
            use_instance: false,
            ..SessionCfg::default()
        };
        let a = cache.get_or_build(&cfg, &metrics).unwrap();
        let b = cache.get_or_build(&cfg, &metrics).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key must share the context");
        // A different seed is a different key only when the instance is
        // used; with use_instance=false the seed still participates in the
        // key (conservative), so this builds a second context.
        let other = SessionCfg { seed: 9, ..cfg };
        let c = cache.get_or_build(&other, &metrics).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("serve.ctx_cache_hits"), 1);
        assert_eq!(snap.counter("serve.ctx_cache_misses"), 2);
    }

    #[test]
    fn replayed_ids_advance_the_counter() {
        let store = Store::new(16);
        let cfg = SessionCfg {
            scenario: "DBLP".to_owned(),
            use_instance: false,
            ..SessionCfg::default()
        };
        let ctx = Arc::new(SessionCtx::build(&cfg).unwrap());
        store.insert_replayed(7, cfg.clone(), Arc::clone(&ctx));
        let fresh = store.insert(cfg, ctx).unwrap();
        let id = fresh.lock().unwrap().id;
        assert_eq!(id, 8);
    }
}

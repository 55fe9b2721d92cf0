//! Isolating re-runs for the per-layer metrics: each one repeats a single
//! layer's public entry point on the run's own data, outside the measured
//! window.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use muse_chase::DeltaStore;
use muse_mapping::Mapping;
use muse_nr::Instance;
use muse_obs::{Json, Snapshot};
use muse_scenarios::Scenario;
use muse_serve::wal::Wal;
use muse_wizard::{
    Answer, Designer, DisambiguationQuestion, GroupingQuestion, JoinChoice, JoinQuestion,
    ProbeCache, ScenarioChoice, Session, WizardError,
};

use crate::stats::{ms, ratio, Dist, Tracer};
use crate::{metric, Metric};

/// The server's default probe-cache capacity (`ServerConfig::default`).
pub const PROBE_CACHE_CAP: usize = 1024;
/// Records under this size count as small for `obs.json_parse_small_*`.
const SMALL_RECORD: usize = 4 << 10;
/// Records over this size count as large for `obs.json_parse_large_*`.
const LARGE_RECORD: usize = 64 << 10;

/// A designer wrapper that times its inner designer and records the wait
/// for each question: from the previous answer (or the session start) to
/// the wizard's next call.
pub struct Timed<'t, D> {
    inner: D,
    tracer: &'t Tracer,
    trace: u64,
    last: Instant,
    deadline: Option<Instant>,
    /// Set when the deadline ended the session.
    pub cut: bool,
    /// Time spent inside the inner designer.
    pub designer: Duration,
    /// One wait per question.
    pub waits: Vec<Duration>,
    /// Every answer given, in question order.
    pub answers: Vec<Answer>,
}

impl<'t, D: Designer> Timed<'t, D> {
    /// Wrap `inner`; waits are measured from now. After `deadline` the
    /// designer stops answering, which ends the session.
    pub fn new(inner: D, tracer: &'t Tracer, trace: u64, deadline: Option<Instant>) -> Self {
        Timed {
            inner,
            tracer,
            trace,
            last: Instant::now(),
            deadline,
            cut: false,
            designer: Duration::ZERO,
            waits: Vec::new(),
            answers: Vec::new(),
        }
    }

    fn ask<T>(
        &mut self,
        call: impl FnOnce(&mut D) -> Result<T, WizardError>,
        record: impl FnOnce(&T) -> Answer,
    ) -> Result<T, WizardError> {
        let asked = Instant::now();
        if self.deadline.is_some_and(|d| asked >= d) {
            self.cut = true;
            return Err(WizardError::ScriptExhausted(
                "measurement window closed".to_owned(),
            ));
        }
        self.waits.push(asked - self.last);
        let inner = &mut self.inner;
        let out = self.tracer.span("designer", self.trace, || call(inner));
        if let Ok(v) = &out {
            self.answers.push(record(v));
        }
        self.last = Instant::now();
        self.designer += self.last - asked;
        out
    }
}

impl<D: Designer> Designer for Timed<'_, D> {
    fn pick_scenario(&mut self, q: &GroupingQuestion) -> Result<ScenarioChoice, WizardError> {
        self.ask(|d| d.pick_scenario(q), |c| Answer::Scenario(*c))
    }

    fn fill_choices(&mut self, q: &DisambiguationQuestion) -> Result<Vec<Vec<usize>>, WizardError> {
        self.ask(|d| d.fill_choices(q), |c| Answer::Choices(c.clone()))
    }

    fn pick_join(&mut self, q: &JoinQuestion) -> Result<JoinChoice, WizardError> {
        self.ask(|d| d.pick_join(q), |c| Answer::Join(*c))
    }
}

/// Program-counter metrics shared by every workload: query evaluation,
/// the chase, and the DeltaStore. `questions` is the number of questions
/// delivered, the base of the per-question ratio.
pub fn query_and_chase(snap: &Snapshot, questions: u64) -> Vec<Metric> {
    let c = |k: &str| snap.counter(k) as f64;
    let steps = c("query.steps");
    let delta_calls = c("chase.delta_hits") + c("chase.delta_misses") + c("chase.delta_fallbacks");
    vec![
        metric(
            "query.eval_s",
            snap.timer("query.eval_time").total().as_secs_f64(),
            "s",
            snap.timer("query.eval_time").count,
        ),
        metric(
            "query.steps_per_question",
            ratio(steps, questions as f64),
            "steps",
            questions,
        ),
        metric(
            "query.steps_limited_frac",
            ratio(c("query.steps_limited"), steps),
            "ratio",
            steps as u64,
        ),
        metric(
            "query.index_hit_ratio",
            ratio(
                c("query.index_hits"),
                c("query.index_hits") + c("query.index_misses"),
            ),
            "ratio",
            (c("query.index_hits") + c("query.index_misses")) as u64,
        ),
        metric(
            "chase.time_s",
            snap.timer("chase.time").total().as_secs_f64(),
            "s",
            snap.timer("chase.time").count,
        ),
        metric("chase.steps", c("chase.steps"), "count", 1),
        metric(
            "chase.delta_hit_ratio",
            ratio(c("chase.delta_hits"), delta_calls),
            "ratio",
            delta_calls as u64,
        ),
    ]
}

/// Wizard timers from runs without replay or cache (where they are
/// exact): example search, probe chases, the wizard's own remainder, and
/// the share of real examples. `own_s` is the runs' time minus designer
/// time.
pub fn wizard_exact(snap: &Snapshot, own_s: f64, sessions: u64) -> Vec<Metric> {
    let example = snap.timer("wizard.example_time");
    let probe = snap.timer("wizard.probe_chase_time");
    let real = snap.counter("wizard.real_examples") as f64;
    let synthetic = snap.counter("wizard.synthetic_examples") as f64;
    let example_s = example.total().as_secs_f64();
    let probe_s = probe.total().as_secs_f64();
    vec![
        metric("wizard.example_s", example_s, "s", example.count),
        metric("wizard.probe_chase_s", probe_s, "s", probe.count),
        metric("wizard.self_s", own_s - example_s - probe_s, "s", sessions),
        metric(
            "wizard.real_fraction",
            ratio(real, real + synthetic),
            "ratio",
            (real + synthetic) as u64,
        ),
    ]
}

/// What a step replay needs about one session.
pub struct ReplayLog<'a> {
    /// The scenario bundle.
    pub scenario: &'a Scenario,
    /// The source instance, when instance-backed.
    pub instance: Option<&'a Instance>,
    /// Candidate mappings.
    pub mappings: &'a [Mapping],
    /// The probe-cache namespace (scenario and instance identity).
    pub key: String,
    /// The recorded answers.
    pub answers: &'a [Answer],
    /// Span trace id.
    pub trace: u64,
}

/// Replay `Session::step` over each answer log the way a server does:
/// step k re-runs the wizard over the first k answers, with one fresh
/// ProbeCache for the whole replay and a fresh DeltaStore per log. At
/// most `cap` answers of each log are replayed. Returns each step's
/// duration in ms, and the replay failures.
pub fn replay_steps(logs: &[ReplayLog<'_>], cap: usize, tracer: &Tracer) -> (Dist, Vec<String>) {
    let cache = ProbeCache::new(PROBE_CACHE_CAP);
    let mut steps = Vec::new();
    let mut errors = Vec::new();
    for log in logs {
        let delta = DeltaStore::new();
        let s = log.scenario;
        let mut session = Session::new(&s.source_schema, &s.target_schema, &s.source_constraints)
            .with_real_example_budget(None)
            .with_delta(&delta)
            .with_probe_cache(&cache, &log.key);
        if let Some(inst) = log.instance {
            session = session.with_instance(inst);
        }
        for k in 0..=log.answers.len().min(cap) {
            let t = Instant::now();
            let out = tracer.span("wizard.step", log.trace, || {
                session.step(log.mappings, &log.answers[..k])
            });
            steps.push(ms(t.elapsed()));
            if let Err(e) = out {
                errors.push(format!("replay of trace {} at step {k}: {e}", log.trace));
                break;
            }
        }
    }
    (Dist::new(steps), errors)
}

/// The server's compaction rule: keep every create and answer, only the
/// newest snapshot per session, and no noop records.
pub fn newest_snapshots(records: Vec<Json>) -> Vec<Json> {
    let mut newest: BTreeMap<i64, usize> = BTreeMap::new();
    for (i, rec) in records.iter().enumerate() {
        if rec.get("rec").and_then(Json::as_str) == Some("snapshot") {
            if let Some(id) = rec.get("session").and_then(Json::as_int) {
                newest.insert(id, i);
            }
        }
    }
    records
        .into_iter()
        .enumerate()
        .filter(|(i, rec)| match rec.get("rec").and_then(Json::as_str) {
            Some("noop") => false,
            Some("snapshot") => rec
                .get("session")
                .and_then(Json::as_int)
                .is_some_and(|id| newest.get(&id) == Some(i)),
            _ => true,
        })
        .map(|(_, rec)| rec)
        .collect()
}

/// Re-run the log on `records`: `Wal::append` of each into a fresh log,
/// one `Wal::compact` (the server's rule), then `Wal::open` of the result,
/// which is what recovery pays to read it.
pub fn wal_costs(dir: &Path, records: &[Json], tracer: &Tracer) -> Result<Vec<Metric>, String> {
    let path = dir.join("isolate.wal");
    let _ = std::fs::remove_file(&path);
    let (wal, _, _) = Wal::open(&path).map_err(|e| format!("wal open: {e}"))?;
    let mut append = Duration::ZERO;
    for rec in records {
        let t = Instant::now();
        tracer
            .span("wal.append", 0, || wal.append(rec))
            .map_err(|e| format!("wal append: {e}"))?;
        append += t.elapsed();
    }
    let t = Instant::now();
    tracer
        .span("wal.compact", 0, || wal.compact(newest_snapshots))
        .map_err(|e| format!("wal compact: {e}"))?;
    let compact_s = t.elapsed().as_secs_f64();
    drop(wal);
    let t = Instant::now();
    let (_, read, _) = tracer
        .span("wal.open", 0, || Wal::open(&path))
        .map_err(|e| format!("wal reopen: {e}"))?;
    let open_s = t.elapsed().as_secs_f64();
    let n = records.len() as u64;
    Ok(vec![
        metric(
            "serve.wal_append_us",
            ratio(append.as_secs_f64() * 1e6, n as f64),
            "us",
            n,
        ),
        metric("serve.wal_compact_s", compact_s, "s", 1),
        metric("serve.wal_open_s", open_s, "s", read.len() as u64),
    ])
}

/// Median snapshot record size in the log, in KB.
pub fn snapshot_kb(records: &[Json]) -> Metric {
    let sizes: Vec<f64> = records
        .iter()
        .filter(|r| r.get("rec").and_then(Json::as_str) == Some("snapshot"))
        .map(|r| r.render().len() as f64 / 1024.0)
        .collect();
    let d = Dist::new(sizes);
    metric("serve.snapshot_kb", d.median(), "KB", d.n())
}

/// `Json::render` and `Json::parse` cost per KB over the records: parse
/// separately for records under 4 KB and over 64 KB (when a run has no
/// record over 64 KB, its largest tenth stands in).
pub fn json_costs(records: &[Json], tracer: &Tracer) -> Vec<Metric> {
    let mut texts = Vec::with_capacity(records.len());
    let t = Instant::now();
    for r in records {
        texts.push(tracer.span("json.render", 0, || r.render()));
    }
    let render_us = t.elapsed().as_secs_f64() * 1e6;
    let total_kb = texts.iter().map(String::len).sum::<usize>() as f64 / 1024.0;

    let per_kb = |set: &[&String]| -> (f64, u64) {
        let kb = set.iter().map(|s| s.len()).sum::<usize>() as f64 / 1024.0;
        let t = Instant::now();
        for s in set {
            let parsed = tracer.span("json.parse", 0, || Json::parse(s));
            std::hint::black_box(parsed.is_ok());
        }
        (ratio(t.elapsed().as_secs_f64() * 1e6, kb), set.len() as u64)
    };
    let small: Vec<&String> = texts.iter().filter(|s| s.len() < SMALL_RECORD).collect();
    let mut large: Vec<&String> = texts.iter().filter(|s| s.len() > LARGE_RECORD).collect();
    if large.is_empty() {
        let mut by_size: Vec<&String> = texts.iter().collect();
        by_size.sort_by_key(|s| std::cmp::Reverse(s.len()));
        by_size.truncate(texts.len().div_ceil(10));
        large = by_size;
    }
    let (small_us, small_n) = per_kb(&small);
    let (large_us, large_n) = per_kb(&large);
    vec![
        metric("obs.json_parse_small_us_per_kb", small_us, "us/KB", small_n),
        metric("obs.json_parse_large_us_per_kb", large_us, "us/KB", large_n),
        metric(
            "obs.json_render_us_per_kb",
            ratio(render_us, total_kb),
            "us/KB",
            texts.len() as u64,
        ),
    ]
}

/// Round trips of `GET /healthz` on one connection, in ms.
pub fn healthz_rtts(addr: &str, n: usize) -> Result<Dist, String> {
    let mut conn = crate::http::Conn::new(addr);
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let reply = conn.call("GET", "/healthz", "")?;
        if reply.status != 200 {
            return Err(format!("healthz: HTTP {}", reply.status));
        }
        rtts.push(ms(reply.rtt));
    }
    Ok(Dist::new(rtts))
}

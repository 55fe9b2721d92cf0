//! `serve-long` and `serve-fleet`: designers driving `muse serve` over
//! HTTP. The server runs in-process with 2 workers and the default
//! `ServerConfig` apart from the WAL path; load is a closed loop with zero
//! think time from one client thread, which takes its keep-alive
//! connections in turn.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use muse_obs::{Json, Metrics, Snapshot};
use muse_serve::store::{SessionCtx, SessionStatus};
use muse_serve::wal::Wal;
use muse_serve::{proto, Server, ServerConfig, SessionCfg};
use muse_wizard::{Answer, JoinChoice, ScenarioChoice, ScriptedDesigner, Session};

use crate::http::Conn;
use crate::layers::{self, ReplayLog, Timed};
use crate::stats::{ms, peak_rss_mb, ratio, Dist, Tracer};
use crate::{metric, Cfg, Metric, Mode, Ops, Pass, Workload};

/// serve-long's connections.
const LONG_CONNS: usize = 2;
/// Turns connection 0 takes alone before serve-long's connection 1 opens
/// its session: about half of a 787-answer Mondial session.
const LONG_STAGGER: usize = 394;
/// Server request workers.
const WORKERS: usize = 2;
/// Empty-WAL binds per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Binds on the final WAL per run; `recovery_s` is their median.
const RECOVERY_REPS: usize = 3;
/// Open sessions in serve-fleet.
const FLEET_OPEN: usize = 24;
/// serve-fleet sessions per second of the window: about the rate a quiet
/// 2-vCPU host drives them to done.
const FLEET_SESSIONS_PER_S: f64 = 3.2;
/// `GET /healthz` probes for `serve.http_rtt_ms`.
const HEALTHZ_PROBES: usize = 200;
/// Contexts whose instance and mapping generation are re-timed.
const GENERATION_SAMPLES: usize = 4;

/// How a workload loads the server.
struct Shape {
    /// Keep-alive connections, taken in turn by the one client thread.
    conns: usize,
    /// Sessions each connection keeps open, answered round-robin.
    open: usize,
    /// Sessions each connection drives to done.
    per_conn: usize,
    /// Turns connection 0 takes alone before the others start.
    stagger: usize,
}

/// serve-long: two connections drive the same Mondial config; connection
/// 1 starts when connection 0 is halfway through, so each question is
/// computed once, in connection 0's session, and connection 1's session
/// replays it from the ProbeCache. Answers slow down as a session grows
/// (step replay), so the slowest answers come from two parts of the run,
/// each connection's late half, not from its last seconds only. Two
/// client threads racing instead split the DeltaStore (and so the WAL
/// snapshot) state between the sessions by timing, which moved one seed's
/// WAL volume and run length by half between runs.
///
/// serve-fleet: one connection; two connections racing through the FIFO
/// ProbeCache make which sessions thrash vary from run to run.
fn shape(cfg: &Cfg) -> Shape {
    match (cfg.workload, cfg.tiny) {
        (Workload::ServeFleet, false) => Shape {
            conns: 1,
            open: FLEET_OPEN,
            per_conn: ((cfg.seconds * FLEET_SESSIONS_PER_S).round() as usize).max(FLEET_OPEN),
            stagger: 0,
        },
        (Workload::ServeFleet, true) => Shape {
            conns: 1,
            open: 2,
            per_conn: 4,
            stagger: 0,
        },
        (_, tiny) => Shape {
            conns: LONG_CONNS,
            open: 1,
            per_conn: 1,
            stagger: if tiny { 2 } else { LONG_STAGGER },
        },
    }
}

/// The create body of session `index`: serve-long opens the same Mondial
/// config on every connection; serve-fleet opens a distinct synthetic
/// scenario per session. Fleet shapes are the fixed sequence `Synth-1`,
/// `Synth-2`, … so that runs on different seeds compare like with like;
/// the seed generates every session's instance.
fn session_cfg(cfg: &Cfg, index: usize) -> SessionCfg {
    match (cfg.workload, cfg.tiny) {
        (Workload::ServeFleet, _) => SessionCfg {
            scenario: format!("Synth-{}", index + 1),
            seed: cfg.instance_seed(),
            ..SessionCfg::default()
        },
        (_, tiny) => SessionCfg {
            scenario: if tiny { "DBLP" } else { "Mondial" }.to_owned(),
            scale: if tiny { 0.02 } else { 0.05 },
            seed: cfg.instance_seed(),
            ..SessionCfg::default()
        },
    }
}

fn server_cfg(wal: &Path) -> ServerConfig {
    ServerConfig {
        threads: WORKERS,
        wal: Some(wal.to_owned()),
        ..ServerConfig::default()
    }
}

/// A running in-process server.
struct Live {
    server: Arc<Server>,
    /// Its listening address.
    addr: String,
    handle: JoinHandle<Result<(), String>>,
}

/// Bind a server on `wal` and wait until it answers `GET /healthz`.
fn start(wal: &Path, metrics: Metrics, tracer: &Tracer) -> Result<(Live, Duration), String> {
    let t = Instant::now();
    let server = tracer.span("serve.bind", 0, || Server::bind(server_cfg(wal), metrics))?;
    let server = Arc::new(server);
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    let runner = Arc::clone(&server);
    let handle = std::thread::spawn(move || runner.run());
    let live = Live {
        server,
        addr,
        handle,
    };
    let mut probe = Conn::new(&live.addr);
    loop {
        match probe.call("GET", "/healthz", "") {
            Ok(r) if r.status == 200 => break,
            _ if t.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(2));
            }
            _ => {
                let _ = stop(live);
                return Err("server not ready after 10 s".to_owned());
            }
        }
    }
    Ok((live, t.elapsed()))
}

/// Drain the server and join its thread.
fn stop(live: Live) -> Result<Arc<Server>, String> {
    let drained = Conn::new(&live.addr).call("POST", "/admin/shutdown", "");
    let joined = live.handle.join();
    drained?;
    joined
        .map_err(|_| "server thread panicked".to_owned())?
        .map_err(|e| format!("server: {e}"))?;
    Ok(live.server)
}

/// One served session, as its designer sees it.
struct Sess {
    id: u64,
    cfg: SessionCfg,
    /// The open question (fields before the prompt).
    question: Json,
    answers: Vec<Answer>,
    /// Sum of this session's round trips.
    rtt: Duration,
    /// `GET …/report` body, once done.
    report: Option<String>,
}

/// The designer's view of a response: everything before the question's
/// rendered prompt, which is its last and largest field. A raw `,"prompt":`
/// cannot occur inside a JSON string (quotes there are escaped), so the
/// cut is structural.
fn decode(body: &str) -> Result<Json, String> {
    let text = match body.find(",\"prompt\":") {
        Some(i) => format!("{}}}}}", &body[..i]),
        None => body.to_owned(),
    };
    Json::parse(&text).map_err(|e| format!("response: {e}"))
}

/// `serve_bench`'s scripted designer: scenario 2, first alternative of
/// every choice list, inner join.
fn scripted(question: &Json) -> Answer {
    match question.get("kind").and_then(Json::as_str) {
        Some("scenario") => Answer::Scenario(ScenarioChoice::Second),
        Some("choices") => {
            let n = question
                .get("choices")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
            Answer::Choices(vec![vec![0]; n])
        }
        _ => Answer::Join(JoinChoice::Inner),
    }
}

/// The live probe set: for each context, the questions a replay of its
/// open sessions revisits (sessions of one context share probes).
#[derive(Default)]
struct LiveProbes {
    open: BTreeMap<u64, (String, usize)>,
    peak: usize,
}

impl LiveProbes {
    fn set(&mut self, id: u64, key: &str, answered: Option<usize>) {
        match answered {
            Some(k) => {
                self.open.insert(id, (key.to_owned(), k + 1));
            }
            None => {
                self.open.remove(&id);
            }
        }
        let mut per_ctx: BTreeMap<&str, usize> = BTreeMap::new();
        for (key, n) in self.open.values() {
            let e = per_ctx.entry(key).or_default();
            *e = (*e).max(*n);
        }
        self.peak = self.peak.max(per_ctx.values().sum());
    }
}

/// What one connection did.
#[derive(Default)]
struct ConnOut {
    finished: Vec<Sess>,
    open: Vec<Sess>,
    answer_rtts: Vec<f64>,
    read_rtts: Vec<f64>,
    all_rtts: Vec<f64>,
    delivered: u64,
    retries: u64,
    ops: Ops,
}

impl ConnOut {
    fn read(
        &mut self,
        conn: &mut Conn,
        tracer: &Tracer,
        s: &mut Sess,
        what: &str,
    ) -> Option<String> {
        let path = format!("/sessions/{}/{what}", s.id);
        let name = if what == "report" {
            "http.report"
        } else {
            "http.question"
        };
        match tracer.span(name, s.id, || conn.call("GET", &path, "")) {
            Ok(r) => {
                s.rtt += r.rtt;
                self.read_rtts.push(ms(r.rtt));
                self.all_rtts.push(ms(r.rtt));
                let ok = (r.status == 200).then_some(r.body);
                self.ops.note(
                    "read",
                    ok.as_ref()
                        .map(|_| ())
                        .ok_or_else(|| format!("GET {path}: HTTP {}", r.status)),
                );
                ok
            }
            Err(e) => {
                self.ops.note("read", Err(e));
                None
            }
        }
    }
}

/// One connection's side of the client loop.
struct Client {
    conn: Conn,
    open: VecDeque<Sess>,
    opened: usize,
    out: ConnOut,
}

impl Client {
    /// Open sessions until `shape.open` are open or this connection has
    /// opened its share, then answer the longest-waiting one (the answer
    /// followed by `GET …/question`; a finished session by
    /// `GET …/report`). Returns false when nothing was left to answer.
    fn turn(
        &mut self,
        c: usize,
        cfg: &Cfg,
        shape: &Shape,
        tracer: &Tracer,
        live: &mut LiveProbes,
    ) -> bool {
        let out = &mut self.out;
        let conn = &mut self.conn;
        while self.open.len() < shape.open && self.opened < shape.per_conn {
            let scfg = session_cfg(cfg, c + shape.conns * self.opened);
            self.opened += 1;
            let body = scfg.to_json().render();
            let reply = tracer.span("http.create", 0, || conn.call("POST", "/sessions", &body));
            let created = reply.and_then(|r| {
                let parsed = decode(&r.body)?;
                match (r.status, parsed.get("session").and_then(Json::as_int)) {
                    (200, Some(id)) => Ok((r.rtt, id as u64, parsed)),
                    _ => Err(format!("create: HTTP {}: {}", r.status, r.body)),
                }
            });
            match created {
                Ok((rtt, id, parsed)) => {
                    out.ops.note("create", Ok(()));
                    out.all_rtts.push(ms(rtt));
                    let mut s = Sess {
                        id,
                        cfg: scfg,
                        question: parsed.get("question").cloned().unwrap_or(Json::Null),
                        answers: Vec::new(),
                        rtt,
                        report: None,
                    };
                    if parsed.get("status").and_then(Json::as_str) == Some("open") {
                        out.delivered += 1;
                        live.set(id, &s.cfg.ctx_key(), Some(0));
                        self.open.push_back(s);
                    } else {
                        s.report = out.read(conn, tracer, &mut s, "report");
                        out.ops.note("session", Ok(()));
                        out.finished.push(s);
                    }
                }
                Err(e) => out.ops.note("create", Err(e)),
            }
        }
        let Some(mut s) = self.open.pop_front() else {
            return false;
        };
        let answer = scripted(&s.question);
        let body = proto::answer_to_json(&answer).render();
        let path = format!("/sessions/{}/answer", s.id);
        let reply = tracer.span("http.answer", s.id, || conn.call("POST", &path, &body));
        let next = reply.and_then(|r| {
            if r.status != 200 {
                return Err(format!("POST {path}: HTTP {}: {}", r.status, r.body));
            }
            Ok((r.rtt, decode(&r.body)?))
        });
        let (rtt, parsed) = match next {
            Ok(v) => v,
            Err(e) => {
                out.ops.note("answer", Err(e));
                out.ops
                    .note("session", Err(format!("session {} abandoned", s.id)));
                live.set(s.id, "", None);
                return true;
            }
        };
        out.ops.note("answer", Ok(()));
        s.rtt += rtt;
        out.answer_rtts.push(ms(rtt));
        out.all_rtts.push(ms(rtt));
        s.answers.push(answer);
        let _ = out.read(conn, tracer, &mut s, "question");
        if parsed.get("status").and_then(Json::as_str) == Some("open") {
            out.delivered += 1;
            s.question = parsed.get("question").cloned().unwrap_or(Json::Null);
            live.set(s.id, &s.cfg.ctx_key(), Some(s.answers.len()));
            self.open.push_back(s);
        } else {
            s.report = out.read(conn, tracer, &mut s, "report");
            out.ops.note(
                "session",
                s.report
                    .as_ref()
                    .map(|_| ())
                    .ok_or_else(|| format!("session {}: no report", s.id)),
            );
            live.set(s.id, "", None);
            out.finished.push(s);
        }
        true
    }
}

/// The closed loop, on one client thread: the connections take turns,
/// one answer each per turn (connections after the first from turn
/// `shape.stagger` on), until every session is done or `deadline`.
/// Returns what each connection did and the peak live probe set.
fn drive(
    cfg: &Cfg,
    shape: &Shape,
    addr: &str,
    deadline: Option<Instant>,
    tracer: &Tracer,
) -> (Vec<ConnOut>, usize) {
    let mut clients: Vec<Client> = (0..shape.conns)
        .map(|_| Client {
            conn: Conn::new(addr),
            open: VecDeque::new(),
            opened: 0,
            out: ConnOut::default(),
        })
        .collect();
    let mut live = LiveProbes::default();
    let mut busy = true;
    let mut turn = 0;
    while busy && deadline.is_none_or(|d| Instant::now() < d) {
        busy = false;
        for (c, client) in clients.iter_mut().enumerate() {
            busy |= if c > 0 && turn < shape.stagger {
                true
            } else {
                client.turn(c, cfg, shape, tracer, &mut live)
            };
        }
        turn += 1;
    }
    let outs = clients
        .into_iter()
        .map(|mut client| {
            client.out.open = client.open.into();
            client.out.retries = client.conn.retries;
            client.out
        })
        .collect();
    (outs, live.peak)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The status and current question (or report) of every session in a
/// store, rendered; timing fields stripped from reports.
fn store_state(server: &Server) -> BTreeMap<u64, String> {
    server
        .store()
        .all()
        .into_iter()
        .map(|entry| {
            let e = lock(&entry);
            let state = match &e.status {
                SessionStatus::Open { seq, question } => {
                    format!("open {seq} {}", question.render())
                }
                SessionStatus::Done { report } => {
                    let mut r = report.clone();
                    proto::strip_volatile(&mut r);
                    format!("done {}", r.render())
                }
                SessionStatus::Failed { error } => format!("failed {error}"),
                SessionStatus::Quarantined { reason } => format!("quarantined {reason}"),
            };
            (e.id, state)
        })
        .collect()
}

/// The measured phase on a fresh server.
struct Measured {
    server: Arc<Server>,
    wal: PathBuf,
    conns: Vec<ConnOut>,
    wall: Duration,
    healthz: Option<Dist>,
    snap: Snapshot,
    peak_live: usize,
}

/// Measure on a fresh server; with a `window`, the clients stop when it
/// closes.
fn measure(
    cfg: &Cfg,
    window: Option<Duration>,
    metrics: &Metrics,
    tracer: &Tracer,
    traced: bool,
    ops: &mut Ops,
) -> Result<Measured, String> {
    let wal = cfg.dir.join("measured.wal");
    let (live, _) = start(&wal, metrics.clone(), tracer)?;
    let shape = shape(cfg);
    let t = Instant::now();
    let deadline = window.map(|w| t + w);
    let (conns, peak_live) = drive(cfg, &shape, &live.addr, deadline, tracer);
    let wall = t.elapsed();
    let snap = metrics.snapshot();
    let healthz = if traced {
        match layers::healthz_rtts(&live.addr, HEALTHZ_PROBES) {
            Ok(d) => Some(d),
            Err(e) => {
                ops.note("read", Err(e));
                None
            }
        }
    } else {
        None
    };
    let server = stop(live)?;
    Ok(Measured {
        server,
        wal,
        conns,
        wall,
        healthz,
        snap,
        peak_live,
    })
}

/// Contexts built from scratch by `SessionCtx::build`, one per distinct
/// config, with each build's duration.
struct Contexts {
    by_key: BTreeMap<String, Arc<SessionCtx>>,
    build_ms: Vec<f64>,
}

impl Contexts {
    fn get(&mut self, cfg: &SessionCfg, tracer: &Tracer) -> Result<Arc<SessionCtx>, String> {
        let key = cfg.ctx_key();
        if let Some(ctx) = self.by_key.get(&key) {
            return Ok(Arc::clone(ctx));
        }
        let t = Instant::now();
        let ctx = Arc::new(tracer.span("serve.ctx_build", 0, || SessionCtx::build(cfg))?);
        self.build_ms.push(ms(t.elapsed()));
        self.by_key.insert(key, Arc::clone(&ctx));
        Ok(ctx)
    }
}

/// The reference path: `Session::run` in process with a
/// `ScriptedDesigner` fed the served answers — no serve, WAL, replay or
/// ProbeCache. Returns the report with timing stripped, and the run's own
/// time (run minus designer).
fn reference(
    ctx: &SessionCtx,
    answers: &[Answer],
    wrong: bool,
    metrics: &Metrics,
    tracer: &Tracer,
    trace: u64,
) -> Result<(String, Duration), String> {
    let mut script = ScriptedDesigner::default();
    for (i, a) in answers.iter().enumerate() {
        match a {
            Answer::Scenario(c) => {
                // `wrong` flips the first grouping answer: the reference
                // then differs from what the designer chose.
                let flip = wrong && i == 0;
                script.scenarios.push_back(match (c, flip) {
                    (ScenarioChoice::First, false) | (ScenarioChoice::Second, true) => {
                        ScenarioChoice::First
                    }
                    _ => ScenarioChoice::Second,
                });
            }
            Answer::Choices(c) => script.choices.push_back(c.clone()),
            Answer::Join(j) => script.joins.push_back(*j),
        }
    }
    let s = &ctx.scenario;
    let mut session = Session::new(&s.source_schema, &s.target_schema, &s.source_constraints)
        .with_real_example_budget(None)
        .with_metrics(metrics);
    if let Some(inst) = &ctx.instance {
        session = session.with_instance(inst);
    }
    let mut designer = Timed::new(script, tracer, trace, None);
    let t = Instant::now();
    let report = tracer
        .span("wizard.run", trace, || {
            session.run(&ctx.mappings, &mut designer)
        })
        .map_err(|e| format!("reference run: {e}"))?;
    let own = t.elapsed().saturating_sub(designer.designer);
    let mut j = proto::report_json(&report);
    proto::strip_volatile(&mut j);
    Ok((j.render(), own))
}

/// The served report (`result` of `GET …/report`) with timing stripped.
fn served_report(body: &str) -> Result<String, String> {
    let parsed = Json::parse(body).map_err(|e| format!("report body: {e}"))?;
    let mut result = parsed
        .get("result")
        .cloned()
        .ok_or("report without `result`")?;
    proto::strip_volatile(&mut result);
    Ok(result.render())
}

/// Run the workload once.
pub fn run(cfg: &Cfg, mode: Mode) -> Pass {
    let traced = mode == Mode::Traced;
    let tracer = Tracer::new(traced);
    let mut ops = Ops::default();
    let mut pass = Pass::default();
    let full = mode == Mode::Measure && !cfg.tiny;

    // Set-up: bind on an empty WAL until ready, several times.
    let mut setups = Vec::new();
    let reps = match mode {
        Mode::Baseline => 0,
        _ if full => SETUP_REPS,
        _ => 1,
    };
    for k in 0..reps {
        let wal = cfg.dir.join(format!("setup-{k}.wal"));
        match start(&wal, Metrics::disabled(), &tracer).and_then(|(live, took)| {
            stop(live)?;
            Ok(took)
        }) {
            Ok(took) => setups.push(took.as_secs_f64()),
            Err(e) => ops.note("read", Err(e)),
        }
    }

    // The measured phase, on a fresh server: fixed work, every session
    // driven to done (about 20 s on a 2-vCPU host). A baseline pass stops
    // at half the window.
    let metrics = if traced {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    let seconds = Duration::from_secs_f64(cfg.seconds);
    let cut = (mode == Mode::Baseline).then_some(seconds / 2);
    let measured = match measure(cfg, cut, &metrics, &tracer, traced, &mut ops) {
        Ok(m) => m,
        Err(e) => {
            ops.note("session", Err(e));
            pass.ops = ops;
            return pass;
        }
    };
    // Read before the recovery binds and reference runs, which hold
    // copies of their own.
    let rss = peak_rss_mb();
    let measured = &measured;
    pass.waits = measured
        .conns
        .iter()
        .map(|c| c.answer_rtts.clone())
        .collect();
    for c in &measured.conns {
        ops.merge(c.ops.clone());
    }
    if mode == Mode::Baseline {
        pass.ops = ops;
        return pass;
    }

    let mut answer_rtts = Vec::new();
    let mut read_rtts = Vec::new();
    let mut all_rtts = Vec::new();
    let mut delivered = 0u64;
    let mut retries = 0u64;
    for c in &measured.conns {
        answer_rtts.extend_from_slice(&c.answer_rtts);
        read_rtts.extend_from_slice(&c.read_rtts);
        all_rtts.extend_from_slice(&c.all_rtts);
        delivered += c.delivered;
        retries += c.retries;
    }
    let finished: Vec<&Sess> = measured
        .conns
        .iter()
        .flat_map(|c| c.finished.iter())
        .collect();

    // Recovery: bind on a copy of the final WAL until every session is
    // restored; the restored status and question must match byte for byte.
    let before = store_state(&measured.server);
    let mut recoveries = Vec::new();
    for k in 0..if full { RECOVERY_REPS } else { 1 } {
        let copy = cfg.dir.join(format!("recover-{k}.wal"));
        let restored = std::fs::copy(&measured.wal, &copy)
            .map_err(|e| format!("copy wal: {e}"))
            .and_then(|_| {
                let t = Instant::now();
                let server = tracer.span("serve.bind", 0, || {
                    Server::bind(server_cfg(&copy), Metrics::disabled())
                })?;
                Ok((t.elapsed(), server))
            });
        match restored {
            Ok((took, server)) => {
                recoveries.push(took.as_secs_f64());
                if k == 0 {
                    let after = store_state(&server);
                    for (id, state) in &before {
                        let same = after.get(id) == Some(state);
                        ops.note(
                            "check",
                            same.then_some(())
                                .ok_or_else(|| format!("session {id} differs after recovery")),
                        );
                    }
                }
            }
            Err(e) => ops.note("check", Err(format!("recovery: {e}"))),
        }
    }

    // Output check: each finished session's report against the reference
    // path fed the same answers (identical logs are run once).
    let ref_metrics = if traced {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    let mut contexts = Contexts {
        by_key: BTreeMap::new(),
        build_ms: Vec::new(),
    };
    let mut refs: BTreeMap<(String, String), Result<String, String>> = BTreeMap::new();
    let mut ref_own = Duration::ZERO;
    for s in &finished {
        let log: Vec<String> = s
            .answers
            .iter()
            .map(|a| proto::answer_to_json(a).render())
            .collect();
        let key = (s.cfg.ctx_key(), log.join(","));
        if !refs.contains_key(&key) {
            let out = contexts.get(&s.cfg, &tracer).and_then(|ctx| {
                reference(
                    &ctx,
                    &s.answers,
                    cfg.wrong_reference,
                    &ref_metrics,
                    &tracer,
                    s.id,
                )
            });
            let out = out.map(|(report, own)| {
                ref_own += own;
                report
            });
            refs.insert(key.clone(), out);
        }
        let served = s
            .report
            .as_deref()
            .ok_or_else(|| "no report".to_owned())
            .and_then(served_report);
        let verdict = match (&refs[&key], served) {
            (Ok(want), Ok(got)) if *want == got => Ok(()),
            (Ok(_), Ok(_)) => Err("report differs from the reference".to_owned()),
            (Err(e), _) => Err(e.clone()),
            (_, Err(e)) => Err(e),
        };
        let verdict = verdict.map_err(|e| format!("session {}: {e}", s.id));
        ops.note("check", verdict);
    }

    let answers = Dist::new(answer_rtts);
    let reads = Dist::new(read_rtts);
    let own = Dist::new(finished.iter().map(|s| s.rtt.as_secs_f64()).collect());
    let setup_s = Dist::new(setups);
    let recovery = Dist::new(recoveries);
    pass.e2e = vec![
        metric(
            "questions_per_s",
            ratio(delivered as f64, measured.wall.as_secs_f64()),
            "1/s",
            delivered,
        ),
        metric("question_p50_ms", answers.q(0.5), "ms", answers.n()),
        metric("question_p99_ms", answers.q(0.99), "ms", answers.n()),
        metric("session_s", own.mean(), "s", own.n()),
        metric("setup_s", setup_s.median(), "s", setup_s.n()),
        metric("peak_rss_mb", rss, "MB", 1),
    ];
    let read_p99 = metric("serve.read_p99_ms", reads.q(0.99), "ms", reads.n());
    let recovery_s = metric("serve.recovery_s", recovery.median(), "s", recovery.n());
    pass.extra = vec![read_p99.clone(), recovery_s.clone()];

    let created: usize = measured
        .conns
        .iter()
        .map(|c| c.finished.len() + c.open.len())
        .sum();
    let distinct: std::collections::BTreeSet<String> = measured
        .conns
        .iter()
        .flat_map(|c| c.finished.iter().chain(c.open.iter()))
        .map(|s| s.cfg.ctx_key())
        .collect();
    let sh = shape(cfg);
    pass.record = vec![
        (
            "loop",
            format!(
                "closed, zero think time, 1 client thread taking {} connection(s) in turn{}",
                sh.conns,
                if sh.stagger > 0 {
                    format!(", connection 1 from turn {}", sh.stagger)
                } else {
                    String::new()
                }
            ),
        ),
        ("connections", sh.conns.to_string()),
        ("open_sessions", format!("{} per connection", sh.open)),
        (
            "seed_argument",
            match cfg.workload {
                Workload::ServeFleet => {
                    format!(
                        "instance seed {} (shapes Synth-1, Synth-2, …)",
                        cfg.instance_seed()
                    )
                }
                _ => format!("instance seed {}", cfg.instance_seed()),
            },
        ),
        (
            "sessions",
            format!(
                "{created} created, {} finished",
                created - measured.conns.iter().map(|c| c.open.len()).sum::<usize>()
            ),
        ),
        (
            "distinct_contexts",
            format!("{} (CtxCache holds 8)", distinct.len()),
        ),
        (
            "peak_live_probes",
            format!(
                "{} (ProbeCache holds {})",
                measured.peak_live,
                layers::PROBE_CACHE_CAP
            ),
        ),
        ("retries_503", retries.to_string()),
        (
            "answer_ms_p90_p999_max",
            format!(
                "{:.1} / {:.1} / {:.1}",
                answers.q(0.9),
                answers.q(0.999),
                answers.q(1.0)
            ),
        ),
        (
            "final_wal_kb",
            format!(
                "{:.1}",
                std::fs::metadata(&measured.wal).map_or(0, |m| m.len()) as f64 / 1024.0
            ),
        ),
    ];

    if traced {
        let ctx = LayerCtx {
            read_p99,
            recovery_s,
            cfg,
            measured,
            finished: &finished,
            delivered,
            retries,
            all_rtts: &all_rtts,
            ref_metrics: &ref_metrics,
            ref_own,
        };
        pass.layers = layers_for(&ctx, &mut contexts, &tracer, &mut ops);
        pass.spans = tracer.totals().into_iter().collect();
    }
    pass.ops = ops;
    pass
}

struct LayerCtx<'a> {
    read_p99: Metric,
    recovery_s: Metric,
    cfg: &'a Cfg,
    measured: &'a Measured,
    finished: &'a [&'a Sess],
    delivered: u64,
    retries: u64,
    all_rtts: &'a [f64],
    ref_metrics: &'a Metrics,
    ref_own: Duration,
}

/// Per-layer metrics of a traced pass.
fn layers_for(
    x: &LayerCtx<'_>,
    contexts: &mut Contexts,
    tracer: &Tracer,
    ops: &mut Ops,
) -> Vec<Metric> {
    let snap = &x.measured.snap;
    let c = |k: &str| snap.counter(k) as f64;
    let mut out = layers::query_and_chase(snap, x.delivered);

    let exports: Vec<f64> = x
        .measured
        .server
        .store()
        .all()
        .into_iter()
        .map(|entry| {
            let e = lock(&entry);
            let blob = tracer.span("delta.export", e.id, || e.delta.export_json());
            blob.render().len() as f64 / 1024.0
        })
        .collect();
    let exports = Dist::new(exports);
    out.push(metric(
        "chase.delta_export_kb",
        exports.median(),
        "KB",
        exports.n(),
    ));

    let refs = x.ref_metrics.snapshot();
    out.extend(layers::wizard_exact(
        &refs,
        x.ref_own.as_secs_f64(),
        x.finished.len() as u64,
    ));

    // Step replay over every distinct answer log of the run.
    let sessions: Vec<&Sess> = x
        .measured
        .conns
        .iter()
        .flat_map(|c| c.finished.iter().chain(c.open.iter()))
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut picked = Vec::new();
    for s in sessions {
        let log: Vec<String> = s
            .answers
            .iter()
            .map(|a| proto::answer_to_json(a).render())
            .collect();
        if seen.insert((s.cfg.ctx_key(), log.join(","))) {
            match contexts.get(&s.cfg, tracer) {
                Ok(ctx) => picked.push((s, ctx)),
                Err(e) => ops.note("check", Err(e)),
            }
        }
    }
    let logs: Vec<ReplayLog<'_>> = picked
        .iter()
        .map(|(s, ctx)| ReplayLog {
            scenario: &ctx.scenario,
            instance: ctx.instance.as_ref(),
            mappings: &ctx.mappings,
            key: s.cfg.ctx_key(),
            answers: &s.answers,
            trace: s.id,
        })
        .collect();
    let (steps, errors) = layers::replay_steps(&logs, usize::MAX, tracer);
    for e in errors {
        ops.note("check", Err(e));
    }
    out.push(metric("wizard.step_p50_ms", steps.q(0.5), "ms", steps.n()));
    out.push(metric("wizard.step_p99_ms", steps.q(0.99), "ms", steps.n()));
    let lookups = c("serve.cache_hits") + c("serve.cache_misses");
    out.push(metric(
        "wizard.cache_hit_ratio",
        ratio(c("serve.cache_hits"), lookups),
        "ratio",
        lookups as u64,
    ));

    out.push(metric(
        "serve.wal_bytes_per_answer",
        ratio(c("serve.wal_bytes"), c("serve.answers")),
        "B",
        c("serve.answers") as u64,
    ));
    match read_records(&x.cfg.dir, &x.measured.wal) {
        Ok(records) => {
            out.push(layers::snapshot_kb(&records));
            out.push(metric(
                "serve.wal_compactions",
                c("serve.wal_compactions"),
                "count",
                1,
            ));
            match layers::wal_costs(&x.cfg.dir, &records, tracer) {
                Ok(m) => out.extend(m),
                Err(e) => ops.note("check", Err(e)),
            }
            out.extend(layers::json_costs(&records, tracer));
        }
        Err(e) => ops.note("check", Err(e)),
    }

    let handle = snap.timer("serve.handle_time");
    let handle_ms = ratio(ms(handle.total()), handle.count as f64);
    let rtt_mean = Dist::new(x.all_rtts.to_vec()).mean();
    out.push(metric(
        "serve.handle_mean_ms",
        handle_ms,
        "ms",
        handle.count,
    ));
    out.push(metric(
        "serve.wait_mean_ms",
        rtt_mean - handle_ms,
        "ms",
        x.all_rtts.len() as u64,
    ));
    let healthz = x.measured.healthz.clone().unwrap_or_default();
    out.push(metric(
        "serve.http_rtt_ms",
        healthz.median(),
        "ms",
        healthz.n(),
    ));
    out.push(metric("serve.retries", x.retries as f64, "count", 1));
    out.push(x.read_p99.clone());
    out.push(x.recovery_s.clone());
    let builds = Dist::new(contexts.build_ms.clone());
    out.push(metric(
        "serve.ctx_build_ms",
        builds.median(),
        "ms",
        builds.n(),
    ));
    let ctx_lookups = c("serve.ctx_cache_hits") + c("serve.ctx_cache_misses");
    out.push(metric(
        "serve.ctx_cache_hit_ratio",
        ratio(c("serve.ctx_cache_hits"), ctx_lookups),
        "ratio",
        ctx_lookups as u64,
    ));

    // Instance and mapping generation, re-timed on a few of the run's
    // contexts.
    let mut instance = Vec::new();
    let mut mappings = Vec::new();
    let sampled: Vec<(String, Arc<SessionCtx>)> = contexts
        .by_key
        .iter()
        .take(GENERATION_SAMPLES)
        .map(|(k, v)| (k.clone(), Arc::clone(v)))
        .collect();
    for (key, ctx) in sampled {
        let Some(scfg) = x
            .finished
            .iter()
            .map(|s| &s.cfg)
            .find(|c| c.ctx_key() == key)
        else {
            continue;
        };
        let s = &ctx.scenario;
        let t = Instant::now();
        tracer.span("scenarios.instance", 0, || {
            std::hint::black_box(s.instance(s.default_scale * scfg.scale, scfg.seed))
        });
        instance.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let _ = tracer.span("cliogen.mappings", 0, || s.mappings());
        mappings.push(t.elapsed().as_secs_f64());
    }
    let instance = Dist::new(instance);
    let mappings = Dist::new(mappings);
    out.push(metric(
        "scenarios.instance_s",
        instance.mean(),
        "s",
        instance.n(),
    ));
    out.push(metric(
        "cliogen.mappings_s",
        mappings.mean(),
        "s",
        mappings.n(),
    ));
    out
}

/// The records of the run's final WAL, read from a copy.
fn read_records(dir: &Path, wal: &Path) -> Result<Vec<Json>, String> {
    let copy = dir.join("records.wal");
    std::fs::copy(wal, &copy).map_err(|e| format!("copy wal: {e}"))?;
    let (_, records, _) = Wal::open(&copy).map_err(|e| format!("read wal: {e}"))?;
    Ok(records)
}

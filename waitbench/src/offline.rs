//! `offline-paper`: the `muse scenario` path. Each session is
//! `Session::run` with the G2 oracle (the strategy that asks the most
//! questions) over the scenario's source instance, with uncapped
//! real-example search and no ProbeCache or DeltaStore, as the CLI runs
//! it.

use std::time::{Duration, Instant};

use muse_cliogen::GroupingStrategy;
use muse_obs::Metrics;
use muse_serve::oracle::Intentions;
use muse_serve::store::SessionCtx;
use muse_serve::SessionCfg;
use muse_wizard::{
    Answer, Designer, DisambiguationQuestion, GroupingQuestion, JoinChoice, JoinQuestion,
    PendingQuestion, ScenarioChoice, Session, SessionReport, WizardError,
};

use crate::layers::{self, ReplayLog, Timed};
use crate::stats::{ms, peak_rss_mb, ratio, Dist, Tracer};
use crate::{metric, Cfg, Metric, Mode, Ops, Pass};

/// The sessions of one pass: scenario and instance scale relative to the
/// paper's size. TPCH runs at 0.02 only to keep a pass short.
const PASS: [(&str, f64); 4] = [
    ("Mondial", 1.0),
    ("DBLP", 1.0),
    ("TPCH", 0.02),
    ("Amalgam", 1.0),
];
/// A pass's length on a quiet 2-vCPU host, in seconds: a run makes as
/// many passes as fit its window, at least two, so that every scenario's
/// questions are sampled at more than one point of the run.
const PASS_S: f64 = 12.0;
/// Step between the instance seeds of successive passes.
const PASS_SEED_STRIDE: u64 = 1_000_003;
/// The `--tiny` pass, for the benchmark's own tests.
const TINY_PASS: [(&str, f64); 2] = [("Amalgam", 0.05), ("DBLP", 0.02)];
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Answers replayed per session log for the `wizard.step_*` re-run.
const REPLAY_PREFIX: usize = 16;
/// Per-layer metrics of layers the offline path does not run (no
/// DeltaStore, ProbeCache, server, WAL or JSON codec): printed as 0.
const OFF_PATH: [(&str, &str); 19] = [
    ("chase.delta_export_kb", "KB"),
    ("wizard.cache_hit_ratio", "ratio"),
    ("serve.wal_bytes_per_answer", "B"),
    ("serve.snapshot_kb", "KB"),
    ("serve.wal_compactions", "count"),
    ("serve.wal_append_us", "us"),
    ("serve.wal_compact_s", "s"),
    ("serve.wal_open_s", "s"),
    ("serve.recovery_s", "s"),
    ("serve.handle_mean_ms", "ms"),
    ("serve.wait_mean_ms", "ms"),
    ("serve.http_rtt_ms", "ms"),
    ("serve.read_p99_ms", "ms"),
    ("serve.retries", "count"),
    ("serve.ctx_build_ms", "ms"),
    ("serve.ctx_cache_hit_ratio", "ratio"),
    ("obs.json_parse_small_us_per_kb", "us/KB"),
    ("obs.json_parse_large_us_per_kb", "us/KB"),
    ("obs.json_render_us_per_kb", "us/KB"),
];

/// Fig. 5 (EXPERIMENTS.md) question totals under G2: Muse-G grouping
/// questions and Muse-D questions per scenario. The counts depend on the
/// schemas and constraints, not on the instance.
fn expected_questions(scenario: &str) -> Option<(usize, usize)> {
    match scenario {
        "Mondial" => Some((447, 7)),
        "DBLP" => Some((82, 0)),
        "TPCH" => Some((265, 1)),
        "Amalgam" => Some((148, 0)),
        _ => None,
    }
}

/// The G2 strategy oracle as `muse serve` runs it (`muse_serve::oracle`):
/// the first interpretation of every ambiguous mapping and the G2
/// grouping for every filled nested set.
struct G2<'a> {
    ctx: &'a SessionCtx,
    intentions: Intentions,
}

impl G2<'_> {
    fn answer(&self, q: PendingQuestion) -> Result<Answer, WizardError> {
        self.intentions.answer(self.ctx, &q)
    }
}

fn unexpected(a: Answer) -> WizardError {
    WizardError::BadAnswer(format!("oracle answered with a `{}` answer", a.kind()))
}

impl Designer for G2<'_> {
    fn pick_scenario(&mut self, q: &GroupingQuestion) -> Result<ScenarioChoice, WizardError> {
        match self.answer(PendingQuestion::Grouping(q.clone()))? {
            Answer::Scenario(c) => Ok(c),
            a => Err(unexpected(a)),
        }
    }

    fn fill_choices(&mut self, q: &DisambiguationQuestion) -> Result<Vec<Vec<usize>>, WizardError> {
        match self.answer(PendingQuestion::Disambiguation(q.clone()))? {
            Answer::Choices(c) => Ok(c),
            a => Err(unexpected(a)),
        }
    }

    fn pick_join(&mut self, q: &JoinQuestion) -> Result<JoinChoice, WizardError> {
        match self.answer(PendingQuestion::Join(q.clone()))? {
            Answer::Join(c) => Ok(c),
            a => Err(unexpected(a)),
        }
    }
}

fn pass_list(cfg: &Cfg) -> &'static [(&'static str, f64)] {
    if cfg.tiny {
        &TINY_PASS
    } else {
        &PASS
    }
}

/// The instance seed of pass `r`: `--seed` for the first pass, then one
/// of its own for each later pass, so that a run averages over several
/// instances of every scenario.
fn pass_seed(cfg: &Cfg, r: usize) -> u64 {
    cfg.instance_seed()
        .wrapping_add((r as u64).wrapping_mul(PASS_SEED_STRIDE))
        & i64::MAX as u64
}

/// Contexts of one pass and their configs.
type Built = (Vec<SessionCtx>, Vec<SessionCfg>);

/// One setup: instance and mapping generation for every session of a
/// pass, on instance seed `seed`. Returns the contexts, their configs,
/// and the time taken.
fn setup(cfg: &Cfg, seed: u64, tracer: &Tracer) -> Result<(Built, Duration), String> {
    let t = Instant::now();
    let mut ctxs = Vec::new();
    let mut cfgs = Vec::new();
    for (i, &(name, scale)) in pass_list(cfg).iter().enumerate() {
        let scenario = muse_scenarios::all_scenarios()
            .into_iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("no scenario {name}"))?;
        let trace = i as u64;
        let instance = tracer.span("scenarios.instance", trace, || {
            scenario.instance(scenario.default_scale * scale, seed)
        });
        let mappings = tracer
            .span("cliogen.mappings", trace, || scenario.mappings())
            .map_err(|e| format!("{name}: mapping generation: {e}"))?;
        ctxs.push(SessionCtx {
            scenario,
            instance: Some(instance),
            mappings,
            chase_step_bound: None,
        });
        cfgs.push(SessionCfg {
            scenario: name.to_owned(),
            scale,
            seed,
            ..SessionCfg::default()
        });
    }
    Ok(((ctxs, cfgs), t.elapsed()))
}

/// A finished session.
struct Done {
    ctx: usize,
    answers: Vec<Answer>,
    own: Duration,
}

/// Output checks on one finished session: no truncation warnings, and
/// the Fig. 5 question totals.
fn check(name: &str, report: &SessionReport, ops: &mut Ops) {
    let warnings = if report.warnings.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{name}: {} truncation warning(s)",
            report.warnings.len()
        ))
    };
    ops.note("check", warnings);
    let grouping: usize = report.groupings.iter().map(|(_, g)| g.questions).sum();
    let got = (grouping, report.disambiguations.len());
    let counts = match expected_questions(name) {
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!("{name}: questions {got:?}, Fig. 5 says {want:?}")),
        None => Err(format!("{name}: no Fig. 5 counts")),
    };
    ops.note("check", counts);
}

/// One pass: every context's session, in order. With `cut`, the designer
/// stops answering at that instant and the pass ends. Returns the finished
/// sessions and every wait in question order, a cut session's included.
fn sessions(
    ctxs: &[SessionCtx],
    metrics: &Metrics,
    tracer: &Tracer,
    cut: Option<Instant>,
    ops: &mut Ops,
) -> (Vec<Done>, Vec<f64>) {
    let mut done = Vec::new();
    let mut all = Vec::new();
    for (i, ctx) in ctxs.iter().enumerate() {
        let trace = i as u64;
        let oracle = match Intentions::for_strategy(ctx, GroupingStrategy::G2) {
            Ok(intentions) => G2 { ctx, intentions },
            Err(e) => {
                ops.note("session", Err(e));
                continue;
            }
        };
        let s = &ctx.scenario;
        let mut session = Session::new(&s.source_schema, &s.target_schema, &s.source_constraints)
            .with_real_example_budget(None)
            .with_metrics(metrics);
        if let Some(inst) = &ctx.instance {
            session = session.with_instance(inst);
        }
        let mut designer = Timed::new(oracle, tracer, trace, cut);
        let t = Instant::now();
        let out = tracer.span("wizard.run", trace, || {
            session.run(&ctx.mappings, &mut designer)
        });
        let own = t.elapsed().saturating_sub(designer.designer);
        all.extend(designer.waits.iter().map(|w| ms(*w)));
        match out {
            Ok(report) => {
                ops.note("session", Ok(()));
                check(&s.name, &report, ops);
                done.push(Done {
                    ctx: i,
                    answers: designer.answers,
                    own,
                });
            }
            Err(_) if designer.cut => break,
            Err(e) => ops.note("session", Err(format!("{}: {e}", s.name))),
        }
    }
    (done, all)
}

/// Run the workload once.
pub fn run(cfg: &Cfg, mode: Mode) -> Pass {
    let traced = mode == Mode::Traced;
    let tracer = Tracer::new(traced);
    let metrics = if traced {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    let mut ops = Ops::default();
    let mut pass = Pass::default();

    // Set-up, timed several times over the first pass's inputs; one set of
    // contexts alive at a time, so peak_rss_mb counts one.
    let mut setups = Vec::new();
    let mut build = |r: usize, ops: &mut Ops| match setup(cfg, pass_seed(cfg, r), &tracer) {
        Ok((built, took)) => {
            setups.push(took.as_secs_f64());
            Some(built)
        }
        Err(e) => {
            ops.note("session", Err(e));
            None
        }
    };
    let reps = if cfg.tiny || mode != Mode::Measure {
        1
    } else {
        SETUP_REPS
    };
    let mut current = None;
    for _ in 0..reps {
        drop(current.take());
        current = build(0, &mut ops);
    }

    // Fixed work: as many passes as the window holds on a quiet 2-vCPU
    // host, each over instances of its own seed. A baseline pass stops at
    // half the window.
    let passes = if cfg.tiny {
        1
    } else {
        ((cfg.seconds / PASS_S).round() as usize).max(2)
    };
    let cut = (mode == Mode::Baseline)
        .then(|| Instant::now() + Duration::from_secs_f64(cfg.seconds / 2.0));
    let mut wall = Duration::ZERO;
    let mut done = Vec::new();
    let mut all = Vec::new();
    // The first pass's contexts, kept for the traced re-runs.
    let mut first: Option<Built> = None;
    for r in 0..passes {
        if r > 0 {
            drop(current.take());
            current = build(r, &mut ops);
        }
        let Some((ctxs, _)) = &current else {
            break;
        };
        let t = Instant::now();
        let (finished, waits) = sessions(ctxs, &metrics, &tracer, cut, &mut ops);
        wall += t.elapsed();
        done.push(finished);
        all.extend(waits);
        if r == 0 && traced {
            first = current.take();
        }
        if cut.is_some_and(|c| Instant::now() >= c) {
            break;
        }
    }
    let questions = all.len() as u64;
    let waits = Dist::new(all.clone());
    pass.waits = vec![all];
    let own = Dist::new(done.iter().flatten().map(|d| d.own.as_secs_f64()).collect());
    let setup_s = Dist::new(setups);
    pass.e2e = vec![
        metric(
            "questions_per_s",
            ratio(questions as f64, wall.as_secs_f64()),
            "1/s",
            questions,
        ),
        metric("question_p50_ms", waits.q(0.5), "ms", waits.n()),
        metric("question_p99_ms", waits.q(0.99), "ms", waits.n()),
        metric("session_s", own.mean(), "s", own.n()),
        metric("setup_s", setup_s.median(), "s", setup_s.n()),
        metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ];
    let per_pass = pass_list(cfg).len();
    pass.record = vec![
        (
            "loop",
            "closed, zero think time, 1 designer thread".to_owned(),
        ),
        ("connections", "0 (in-process Session::run)".to_owned()),
        ("open_sessions", "1".to_owned()),
        (
            "seed_argument",
            format!(
                "instance seeds {}",
                (0..done.len())
                    .map(|r| pass_seed(cfg, r).to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "sessions",
            format!("{per_pass} per pass, {} passes", done.len()),
        ),
        ("distinct_contexts", (per_pass * done.len()).to_string()),
        ("probe_cache", "none attached (no cache)".to_owned()),
        ("questions", questions.to_string()),
        (
            "session_own_s",
            done.iter()
                .flatten()
                .map(|d| format!("{} {:.3}", pass_list(cfg)[d.ctx].0, d.own.as_secs_f64()))
                .collect::<Vec<_>>()
                .join(", "),
        ),
    ];

    if let Some((ctxs, cfgs)) = &first {
        pass.layers = layers_for(ctxs, cfgs, &done, &metrics, &tracer, questions, &mut ops);
        pass.spans = tracer.totals().into_iter().collect();
    }
    pass.ops = ops;
    pass
}

/// Per-layer metrics of a traced pass.
fn layers_for(
    ctxs: &[SessionCtx],
    cfgs: &[SessionCfg],
    done: &[Vec<Done>],
    metrics: &Metrics,
    tracer: &Tracer,
    questions: u64,
    ops: &mut Ops,
) -> Vec<Metric> {
    let snap = metrics.snapshot();
    let mut out = layers::query_and_chase(&snap, questions);
    let own_s: f64 = done.iter().flatten().map(|d| d.own.as_secs_f64()).sum();
    let sessions = done.iter().map(Vec::len).sum::<usize>() as u64;
    out.extend(layers::wizard_exact(&snap, own_s, sessions));

    // Every pass asks the same questions: replay the first pass's logs.
    let logs: Vec<ReplayLog<'_>> = done
        .first()
        .into_iter()
        .flatten()
        .map(|d| {
            let i = d.ctx;
            ReplayLog {
                scenario: &ctxs[i].scenario,
                instance: ctxs[i].instance.as_ref(),
                mappings: &ctxs[i].mappings,
                key: cfgs[i].ctx_key(),
                answers: &d.answers,
                trace: d.ctx as u64,
            }
        })
        .collect();
    let (steps, errors) = layers::replay_steps(&logs, REPLAY_PREFIX, tracer);
    for e in errors {
        ops.note("check", Err(e));
    }
    out.push(metric("wizard.step_p50_ms", steps.q(0.5), "ms", steps.n()));
    out.push(metric("wizard.step_p99_ms", steps.q(0.99), "ms", steps.n()));
    out.extend(
        OFF_PATH
            .iter()
            .map(|&(name, unit)| metric(name, 0.0, unit, 0)),
    );

    let totals = tracer.totals();
    let per_ctx = |name: &str| {
        totals
            .get(name)
            .map_or((0.0, 0), |t| (ratio(t.total_s, t.count as f64), t.count))
    };
    let (instance_s, n_inst) = per_ctx("scenarios.instance");
    let (mappings_s, n_map) = per_ctx("cliogen.mappings");
    out.push(metric("scenarios.instance_s", instance_s, "s", n_inst));
    out.push(metric("cliogen.mappings_s", mappings_s, "s", n_map));
    out
}

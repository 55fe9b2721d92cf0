//! `muse-waitbench` — what a designer waits for, end to end and layer by
//! layer.
//!
//! ```text
//! muse-waitbench --workload offline-paper|serve-long|serve-fleet \
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload. With `--trace 0` it prints every
//! end-to-end metric (value, unit, sample count) with the output checks
//! on; with `--trace 1` it runs an untraced pass over half the window,
//! then the workload with `Metrics::enabled()` and the bench-side spans,
//! then the isolating re-runs, and prints every per-layer metric plus the
//! tracing overhead. Both end with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value","unit"}}}`.
//! `workloads.json` next to this package records why each workload exists,
//! its loop and cache working set, and the known defects it exposes.

mod http;
mod layers;
mod offline;
mod served;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `muse scenario` sessions with the G2 oracle, no cache, no serve.
    OfflinePaper,
    /// Two connections, each driving one long Mondial session to done.
    ServeLong,
    /// One connection driving distinct synthetic sessions to done, 24 open
    /// at a time. Not in `BENCHMARK.json`'s list: its figures swing most
    /// with the host (see `workloads.json`).
    ServeFleet,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "offline-paper" => Some(Workload::OfflinePaper),
            "serve-long" => Some(Workload::ServeLong),
            "serve-fleet" => Some(Workload::ServeFleet),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflinePaper => "offline-paper",
            Workload::ServeLong => "serve-long",
            Workload::ServeFleet => "serve-fleet",
        }
    }
}

/// What a pass is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off, full output checks: the end-to-end metrics.
    Measure,
    /// Tracing off, measurement only, half the window: the untraced side
    /// of the tracing-overhead ratio.
    Baseline,
    /// `Metrics::enabled()` and bench-side spans, full output checks, then
    /// the isolating re-runs: the per-layer metrics.
    Traced,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: instance generation.
    pub seed: u64,
    /// The window, in seconds. Measured passes are fixed work sized to
    /// about this long on a 2-vCPU host (serve-long's two sessions are a
    /// fixed size); the untraced baseline pass of a traced run stops at
    /// half of it.
    pub seconds: f64,
    /// Small inputs, for the benchmark's own tests.
    pub tiny: bool,
    /// Corrupt the reference answers of served sessions, so the output
    /// check must fail (tests only).
    pub wrong_reference: bool,
    /// Scratch directory for WAL files, inside the working directory.
    pub dir: PathBuf,
}

impl Cfg {
    /// The seed handed to instance generators: `--seed` folded into the
    /// non-negative range the session protocol encodes.
    pub fn instance_seed(&self) -> u64 {
        self.seed & i64::MAX as u64
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: u64,
}

/// Build a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Operations attempted and failed, by kind (sessions, creates, answers,
/// reads, output checks).
#[derive(Debug, Clone, Default)]
pub struct Ops {
    counts: std::collections::BTreeMap<&'static str, (u64, u64)>,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Ops {
    /// Record one attempted operation of `kind`; `Err` counts as failed.
    pub fn note(&mut self, kind: &'static str, outcome: Result<(), String>) {
        let c = self.counts.entry(kind).or_default();
        c.0 += 1;
        if let Err(e) = outcome {
            c.1 += 1;
            if self.errors.len() < 10 {
                self.errors.push(format!("{kind}: {e}"));
            }
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Ops) {
        for (k, (a, f)) in other.counts {
            let c = self.counts.entry(k).or_default();
            c.0 += a;
            c.1 += f;
        }
        for e in other.errors {
            if self.errors.len() < 10 {
                self.errors.push(e);
            }
        }
    }

    /// Total attempted.
    pub fn attempted(&self) -> u64 {
        self.counts.values().map(|c| c.0).sum()
    }

    /// Total failed.
    pub fn failed(&self) -> u64 {
        self.counts.values().map(|c| c.1).sum()
    }
}

/// What one pass of a workload produced.
#[derive(Default)]
pub struct Pass {
    /// Operation tally, output checks included.
    pub ops: Ops,
    /// End-to-end metrics, the same list on every workload.
    pub e2e: Vec<Metric>,
    /// End-to-end figures only some workloads have: printed, not in the
    /// result line.
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<Metric>,
    /// Workload record lines: key, value.
    pub record: Vec<(&'static str, String)>,
    /// Span totals, traced passes only.
    pub spans: Vec<(&'static str, stats::SpanTotal)>,
    /// Question waits in ms, in question order, one list per connection
    /// (offline: one list).
    pub waits: Vec<Vec<f64>>,
}

/// Traced over untraced question p50, over the questions both passes
/// reached: the first k waits of each connection, k taken from the
/// (shorter) baseline pass. Both passes ask the same questions in the
/// same per-connection order.
fn trace_overhead(traced: &Pass, base: &Pass) -> (f64, u64) {
    let mut t = Vec::new();
    let mut b = Vec::new();
    for (tw, bw) in traced.waits.iter().zip(&base.waits) {
        let k = tw.len().min(bw.len());
        t.extend_from_slice(&tw[..k]);
        b.extend_from_slice(&bw[..k]);
    }
    let n = t.len() as u64;
    (
        stats::ratio(stats::Dist::new(t).q(0.5), stats::Dist::new(b).q(0.5)),
        n,
    )
}

/// The end-to-end metrics, in print order, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("questions_per_s", "1/s"),
    ("question_p50_ms", "ms"),
    ("question_p99_ms", "ms"),
    ("session_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, in print order, with their units.
const PER_LAYER: [(&str, &str); 35] = [
    ("query.eval_s", "s"),
    ("query.steps_per_question", "steps"),
    ("query.steps_limited_frac", "ratio"),
    ("query.index_hit_ratio", "ratio"),
    ("chase.time_s", "s"),
    ("chase.steps", "count"),
    ("chase.delta_hit_ratio", "ratio"),
    ("chase.delta_export_kb", "KB"),
    ("wizard.example_s", "s"),
    ("wizard.probe_chase_s", "s"),
    ("wizard.self_s", "s"),
    ("wizard.real_fraction", "ratio"),
    ("wizard.step_p50_ms", "ms"),
    ("wizard.step_p99_ms", "ms"),
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
    ("obs.trace_overhead", "ratio"),
    ("scenarios.instance_s", "s"),
    ("cliogen.mappings_s", "s"),
];

/// `got` in the order of `want`. A metric a failed step did not produce
/// is printed as 0 and counted as a failed check, so the result line
/// always carries the whole list.
fn in_order(want: &[(&'static str, &'static str)], got: Vec<Metric>, ops: &mut Ops) -> Vec<Metric> {
    want.iter()
        .map(|&(name, unit)| match got.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => m.clone(),
            Some(m) => {
                ops.note(
                    "check",
                    Err(format!("{name}: unit {} is not {unit}", m.unit)),
                );
                metric(name, 0.0, unit, 0)
            }
            None => {
                ops.note("check", Err(format!("{name} was not measured")));
                metric(name, 0.0, unit, 0)
            }
        })
        .collect()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: muse-waitbench --workload offline-paper|serve-long|serve-fleet \
         --seed N --seconds S --trace 0|1 [--tiny] [--wrong-reference]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<(Cfg, bool)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut wrong_reference) = (false, false);
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--workload" => workload = value.and_then(|v| Workload::parse(v)),
            "--seed" => seed = value.and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => seconds = value.and_then(|v| v.parse::<f64>().ok()),
            "--trace" => trace = value.and_then(|v| v.parse::<u8>().ok()).filter(|t| *t <= 1),
            "--tiny" => {
                tiny = true;
                i += 1;
                continue;
            }
            "--wrong-reference" => {
                wrong_reference = true;
                i += 1;
                continue;
            }
            _ => return None,
        }
        i += 2;
    }
    let workload = workload?;
    let seconds = seconds.filter(|s| *s > 0.0)?;
    let dir =
        PathBuf::from(".waitbench_run").join(format!("{}-{}", workload.name(), std::process::id()));
    Some((
        Cfg {
            workload,
            seed: seed?,
            seconds,
            tiny,
            wrong_reference,
            dir,
        },
        trace? == 1,
    ))
}

fn run_pass(cfg: &Cfg, mode: Mode) -> Pass {
    match cfg.workload {
        Workload::OfflinePaper => offline::run(cfg, mode),
        Workload::ServeLong | Workload::ServeFleet => served::run(cfg, mode),
    }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!(
        "  {:<34} {:>16} {:<8} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        println!(
            "  {:<34} {:>16.6} {:<8} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn json_line(correct: bool, ops: &Ops, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            // Shortest round-trip form: every digit as measured.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted().max(1),
        ops.failed(),
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let Some((cfg, trace)) = parse_args() else {
        return usage();
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.dir) {
        eprintln!("cannot create {}: {e}", cfg.dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "muse-waitbench workload={} seed={} seconds={} trace={} hw_threads={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(trace),
        stats::hw_threads()
    );

    let (mut ops, metrics, extra, record) = if trace {
        // The untraced pass only anchors the overhead ratio; the traced
        // pass repeats the same inputs with every instrument on.
        let base = run_pass(&cfg, Mode::Baseline);
        let pass = run_pass(&cfg, Mode::Traced);
        let (overhead, n) = trace_overhead(&pass, &base);
        let mut ops = base.ops;
        ops.merge(pass.ops);
        let mut layers = pass.layers;
        layers.push(metric("obs.trace_overhead", overhead, "ratio", n));
        println!("spans (bench-side, traced pass)");
        println!(
            "  {:<24} {:>8} {:>8} {:>12} {:>12}",
            "span", "count", "traces", "total_s", "self_s"
        );
        for (name, t) in &pass.spans {
            println!(
                "  {name:<24} {:>8} {:>8} {:>12.6} {:>12.6}",
                t.count, t.traces, t.total_s, t.self_s
            );
        }
        (ops, layers, Vec::new(), pass.record)
    } else {
        let pass = run_pass(&cfg, Mode::Measure);
        (pass.ops, pass.e2e, pass.extra, pass.record)
    };
    let metrics = in_order(
        if trace { &PER_LAYER } else { &END_TO_END },
        metrics,
        &mut ops,
    );
    let _ = std::fs::remove_dir_all(&cfg.dir);
    let _ = std::fs::remove_dir(".waitbench_run");

    println!("workload record");
    for (k, v) in &record {
        println!("  {k:<28} {v}");
    }
    print_table(
        if trace {
            "per-layer metrics (traced pass; timers inclusive)"
        } else {
            "end-to-end metrics (tracing off)"
        },
        &metrics,
    );
    if !extra.is_empty() {
        print_table(
            "serve-only end-to-end figures (per-layer in BENCHMARK.json)",
            &extra,
        );
    }
    let error_rate = stats::ratio(ops.failed() as f64, ops.attempted() as f64);
    println!(
        "  {:<34} {:>16.6} {:<8} {:>8}",
        "error_rate",
        error_rate,
        "ratio",
        ops.attempted()
    );
    for e in &ops.errors {
        println!("  failure: {e}");
    }
    let correct = ops.failed() == 0 && ops.attempted() > 0;
    println!("{}", json_line(correct, &ops, &metrics));
    ExitCode::SUCCESS
}

//! `BENCH_baseline.json`: the machine-readable bench baseline.
//!
//! Every binary in `src/bin/` accepts `--json`. Besides printing its human
//! table it then re-runs its measurements with metrics enabled and merges
//! the results, keyed by binary name, into `BENCH_baseline.json` in the
//! current directory:
//!
//! ```json
//! {
//!   "fig5_museg": {
//!     "scale": 1.0,
//!     "seed": 1,
//!     "scenarios": {
//!       "Mondial": {
//!         "strategies": { "G1": { "avg_questions": 2.6, ... }, ... },
//!         "metrics": { "counters": { "query.evals": 123, ... },
//!                      "timers": { "query.eval_time": { "count": 123, "nanos": 456 } } }
//!       }
//!     }
//!   }
//! }
//! ```
//!
//! Sections written by the other binaries are preserved, so running all four
//! with `--json` accumulates the complete baseline. Compare two checkouts by
//! diffing the files or loading them with [`muse_obs::Json::parse`].

use std::path::{Path, PathBuf};

use muse_cliogen::GroupingStrategy;
use muse_obs::{Json, Metrics};
use muse_par::scope_map;
use muse_scenarios::synth::SynthCfg;
use muse_scenarios::Scenario;

use crate::{
    ablation_avg_questions, chase_ready_mappings, fig5_cell_with, mused_row_with, scenario_row,
    Fig5Row,
};

/// File the sections are merged into (in the current directory).
pub const FILE: &str = "BENCH_baseline.json";

/// Did the binary's caller pass `--json`?
pub fn wants_json() -> bool {
    std::env::args().skip(1).any(|a| a == "--json")
}

/// The `--threads N` (or `--threads=N`) value passed to the binary, if any.
fn explicit_threads_arg() -> Option<usize> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut explicit = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            explicit = it.next().and_then(|v| v.parse().ok());
        } else if let Some(v) = a.strip_prefix("--threads=") {
            explicit = v.parse().ok();
        }
    }
    explicit
}

/// Effective worker-thread count for a bench binary: `--threads N` beats
/// `MUSE_THREADS`, which beats the serial default of 1 (`0` = all cores).
pub fn arg_threads() -> usize {
    muse_par::resolve_threads(explicit_threads_arg())
}

/// Build `section` and merge it into [`FILE`], reporting where it went.
/// Exits non-zero when the file cannot be written.
pub fn emit(bench: &str, section: Json) {
    match update_section_in(Path::new("."), bench, section) {
        Ok(path) => eprintln!("wrote section `{bench}` to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {FILE}: {e}");
            std::process::exit(1);
        }
    }
}

/// Merge `section` under the key `bench` into `dir/BENCH_baseline.json`,
/// preserving every other binary's section. Within the section the incoming
/// value is *union-merged* ([`merge_json`]): keys only the existing section
/// has survive, so a partial re-run (e.g. with a different flag set) never
/// silently drops previously recorded counters. A missing or unparseable
/// file starts fresh.
pub fn update_section_in(dir: &Path, bench: &str, section: Json) -> std::io::Result<PathBuf> {
    let path = dir.join(FILE);
    let mut root = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .unwrap_or(Json::Obj(Vec::new()));
    if !matches!(root, Json::Obj(_)) {
        root = Json::Obj(Vec::new());
    }
    if let Json::Obj(fields) = &mut root {
        match fields.iter_mut().find(|(k, _)| k == bench) {
            Some(slot) => merge_json(&mut slot.1, section),
            None => fields.push((bench.to_string(), section)),
        }
    }
    std::fs::write(&path, root.render_pretty() + "\n")?;
    Ok(path)
}

/// Recursive union-merge: objects merge key-by-key (keys from either side
/// survive, insertion order of the existing side is kept), anything else is
/// replaced by the incoming value.
pub fn merge_json(existing: &mut Json, incoming: Json) {
    match (existing, incoming) {
        (Json::Obj(a), Json::Obj(b)) => {
            for (k, v) in b {
                match a.iter_mut().find(|(ak, _)| *ak == k) {
                    Some(slot) => merge_json(&mut slot.1, v),
                    None => a.push((k, v)),
                }
            }
        }
        (slot, incoming) => *slot = incoming,
    }
}

fn section(
    scale: f64,
    seed: u64,
    threads: usize,
    driver: &Metrics,
    scenarios: Vec<(String, Json)>,
) -> Json {
    Json::obj(vec![
        ("scale", Json::Num(scale)),
        ("seed", Json::Int(seed as i64)),
        ("threads", Json::Int(threads as i64)),
        ("driver", driver.snapshot().to_json()),
        ("scenarios", Json::Obj(scenarios)),
    ])
}

/// The `table_scenarios` section: per-scenario characteristics plus the
/// time spent generating instance and mappings. Scenarios run concurrently
/// on `threads` workers; each records into its own atomic metrics registry.
pub fn scenarios_section(scale: f64, seed: u64, threads: usize) -> Json {
    let driver = Metrics::enabled();
    let all = muse_scenarios::all_scenarios();
    let scenarios = scope_map(all.len(), threads, &driver, |i| {
        let s = &all[i];
        let metrics = Metrics::enabled();
        let row = metrics
            .timer("bench.row_time")
            .time(|| scenario_row(s, scale, seed));
        (
            row.name.to_string(),
            Json::obj(vec![
                ("instance_mb", Json::Num(row.instance_mb)),
                (
                    "target_sets_with_grouping",
                    Json::Int(row.target_sets_with_grouping as i64),
                ),
                ("mappings", Json::Int(row.mappings as i64)),
                ("ambiguous", Json::Int(row.ambiguous as i64)),
                ("metrics", metrics.snapshot().to_json()),
            ]),
        )
    });
    section(scale, seed, threads, &driver, scenarios)
}

fn fig5_json(cell: &Fig5Row) -> Json {
    Json::obj(vec![
        ("avg_poss", Json::Num(cell.avg_poss)),
        ("avg_questions", Json::Num(cell.avg_questions)),
        ("real_fraction", Json::Num(cell.real_fraction)),
        (
            "avg_example_time_s",
            Json::Num(cell.avg_example_time.as_secs_f64()),
        ),
        (
            "grouping_functions",
            Json::Int(cell.grouping_functions as i64),
        ),
    ])
}

/// The `fig5_museg` section: per scenario, the three strategy cells plus
/// the wizard/query/chase counters accumulated across all of them.
/// Scenarios run concurrently on `threads` workers.
pub fn fig5_section(scale: f64, seed: u64, threads: usize) -> Json {
    let driver = Metrics::enabled();
    let all = muse_scenarios::all_scenarios();
    let scenarios = scope_map(all.len(), threads, &driver, |i| {
        let s = &all[i];
        let metrics = Metrics::enabled();
        let mut strategies = Vec::new();
        for strategy in [
            GroupingStrategy::G1,
            GroupingStrategy::G2,
            GroupingStrategy::G3,
        ] {
            let cell = metrics
                .timer("bench.cell_time")
                .time(|| fig5_cell_with(s, strategy, scale, seed, &metrics));
            strategies.push((strategy.to_string(), fig5_json(&cell)));
        }
        (
            s.name.to_string(),
            Json::obj(vec![
                ("strategies", Json::Obj(strategies)),
                ("metrics", metrics.snapshot().to_json()),
            ]),
        )
    });
    section(scale, seed, threads, &driver, scenarios)
}

/// The `table_mused` section. Scenarios without ambiguous mappings map to
/// `null`, mirroring the table's "no ambiguous mappings" lines. Scenarios
/// run concurrently on `threads` workers.
pub fn mused_section(scale: f64, seed: u64, threads: usize) -> Json {
    let driver = Metrics::enabled();
    let all = muse_scenarios::all_scenarios();
    let scenarios = scope_map(all.len(), threads, &driver, |i| {
        let s = &all[i];
        let metrics = Metrics::enabled();
        let row = metrics
            .timer("bench.row_time")
            .time(|| mused_row_with(s, scale, seed, &metrics));
        let body = match row {
            Some(row) => Json::obj(vec![
                (
                    "alternatives_encoded",
                    Json::Int(row.alternatives_encoded as i64),
                ),
                ("questions", Json::Int(row.questions as i64)),
                ("example_tuples_min", Json::Int(row.example_tuples.0 as i64)),
                ("example_tuples_max", Json::Int(row.example_tuples.1 as i64)),
                (
                    "ambiguous_values_min",
                    Json::Int(row.ambiguous_values.0 as i64),
                ),
                (
                    "ambiguous_values_max",
                    Json::Int(row.ambiguous_values.1 as i64),
                ),
                ("real_examples", Json::Int(row.real_examples as i64)),
                ("metrics", metrics.snapshot().to_json()),
            ]),
            None => Json::Null,
        };
        (s.name.to_string(), body)
    });
    section(scale, seed, threads, &driver, scenarios)
}

/// The `lint` section: per-scenario diagnostic tallies from the static
/// analyzer plus its `lint.*` counters and the `lint.analysis_time` timer.
/// Lint is instance-free, so there is no scale/seed; scenarios run
/// concurrently on `threads` workers.
pub fn lint_section(threads: usize) -> Json {
    let driver = Metrics::enabled();
    let all = muse_scenarios::all_scenarios();
    let scenarios = scope_map(all.len(), threads, &driver, |i| {
        let s = &all[i];
        let metrics = Metrics::enabled();
        let mappings = s.mappings().expect("scenario mappings generate");
        let input = muse_lint::LintInput {
            source_schema: &s.source_schema,
            source_constraints: &s.source_constraints,
            target_schema: &s.target_schema,
            target_constraints: &s.target_constraints,
            mappings: &mappings,
        };
        let report = muse_lint::lint_with(&input, &metrics);
        (
            s.name.to_string(),
            Json::obj(vec![
                ("mappings", Json::Int(mappings.len() as i64)),
                ("errors", Json::Int(report.errors() as i64)),
                ("warnings", Json::Int(report.warnings() as i64)),
                ("infos", Json::Int(report.infos() as i64)),
                ("metrics", metrics.snapshot().to_json()),
            ]),
        )
    });
    Json::obj(vec![
        ("threads", Json::Int(threads as i64)),
        ("driver", driver.snapshot().to_json()),
        ("scenarios", Json::Obj(scenarios)),
    ])
}

/// The `ablations` section: key-aware question savings, G2 real-example
/// availability, and the Muse-D decisions-vs-instances counts. Scenarios
/// run concurrently on `threads` workers.
pub fn ablations_section(scale: f64, seed: u64, threads: usize) -> Json {
    let driver = Metrics::enabled();
    let all = muse_scenarios::all_scenarios();
    let scenarios = scope_map(all.len(), threads, &driver, |i| {
        let s = &all[i];
        let metrics = Metrics::enabled();
        let mut key_aware = Vec::new();
        for strategy in [GroupingStrategy::G1, GroupingStrategy::G3] {
            let with_keys = ablation_avg_questions(s, strategy, true, &metrics);
            let without = ablation_avg_questions(s, strategy, false, &metrics);
            key_aware.push((
                strategy.to_string(),
                Json::obj(vec![
                    ("avg_questions_with_keys", Json::Num(with_keys)),
                    ("avg_questions_without_keys", Json::Num(without)),
                ]),
            ));
        }
        let g2 = fig5_cell_with(s, GroupingStrategy::G2, scale, seed, &metrics);
        let ms = s.mappings().expect("scenario mappings generate");
        let mut decisions = 0usize;
        let mut instances = 0usize;
        for m in ms.iter().filter(|m| m.is_ambiguous()) {
            decisions += muse_mapping::ambiguity::or_groups(m).len();
            instances += muse_lint::ambiguity::alternatives_count(m);
        }
        (
            s.name.to_string(),
            Json::obj(vec![
                ("key_aware_questions", Json::Obj(key_aware)),
                ("real_fraction_g2", Json::Num(g2.real_fraction)),
                (
                    "avg_example_time_g2_s",
                    Json::Num(g2.avg_example_time.as_secs_f64()),
                ),
                ("mused_decisions", Json::Int(decisions as i64)),
                ("mused_alternative_instances", Json::Int(instances as i64)),
                ("metrics", metrics.snapshot().to_json()),
            ]),
        )
    });
    section(scale, seed, threads, &driver, scenarios)
}

/// The sweep's shape axis: named fleet configs spanning the generator's
/// knobs, from a flat wide scenario to a deep ambiguous one. Fixed seeds
/// keep the curves comparable across checkouts.
pub fn sweep_shapes() -> Vec<(&'static str, SynthCfg)> {
    let base = SynthCfg {
        seed: 0,
        themes: 2,
        depth: 1,
        source_nested: false,
        fillers: 1,
        fd_pairs: 0,
        fk_themes: 0,
        or_fanout: 2,
        base_rows: 48,
    };
    vec![
        ("flat", base.clone()),
        (
            "nested",
            SynthCfg {
                seed: 1,
                depth: 2,
                source_nested: true,
                fd_pairs: 1,
                ..base.clone()
            },
        ),
        (
            "deep",
            SynthCfg {
                seed: 2,
                depth: 3,
                source_nested: true,
                fd_pairs: 1,
                fk_themes: 1,
                or_fanout: 2,
                ..base
            },
        ),
    ]
}

fn cfg_json(cfg: &SynthCfg) -> Json {
    Json::obj(vec![
        ("themes", Json::Int(cfg.themes as i64)),
        ("depth", Json::Int(cfg.depth as i64)),
        ("source_nested", Json::Bool(cfg.source_nested)),
        ("fillers", Json::Int(cfg.fillers as i64)),
        ("fd_pairs", Json::Int(cfg.fd_pairs as i64)),
        ("fk_themes", Json::Int(cfg.fk_themes as i64)),
        ("or_fanout", Json::Int(cfg.or_fanout as i64)),
        ("base_rows", Json::Int(cfg.base_rows as i64)),
    ])
}

/// One sweep cell: generate, chase (serial), and run a G1 wizard pass over
/// one synthetic scenario at one scale, recording the curve-relevant
/// numbers plus the full metrics registry.
pub fn synth_sweep_cell(cfg: &SynthCfg, scale: f64, seed: u64) -> Json {
    let s = Scenario::synthetic(cfg.clone());
    let metrics = Metrics::enabled();
    let inst = metrics
        .timer("bench.instance_time")
        .time(|| s.instance(scale, seed));
    let mappings = chase_ready_mappings(&s);
    let target = metrics.timer("bench.chase_wall_time").time(|| {
        muse_chase::ChaseReq {
            metrics: &metrics,
            ..Default::default()
        }
        .run(&s.source_schema, &s.target_schema, &inst, &mappings)
        .expect("sweep chase")
        .into_value()
    });
    let row = metrics
        .timer("bench.wizard_wall_time")
        .time(|| fig5_cell_with(&s, GroupingStrategy::G1, scale, seed, &metrics));
    let snap = metrics.snapshot();
    Json::obj(vec![
        ("source_tuples", Json::Int(inst.total_tuples() as i64)),
        (
            "source_mb",
            Json::Num(inst.approx_bytes() as f64 / 1_000_000.0),
        ),
        ("target_tuples", Json::Int(target.total_tuples() as i64)),
        ("query_steps", Json::Int(snap.counter("query.steps") as i64)),
        (
            "chase_bindings",
            Json::Int(snap.counter("chase.bindings") as i64),
        ),
        (
            "chase_tuples_emitted",
            Json::Int(snap.counter("chase.tuples_emitted") as i64),
        ),
        ("avg_questions", Json::Num(row.avg_questions)),
        (
            "chase_wall_s",
            Json::Num(snap.timer("bench.chase_wall_time").nanos as f64 / 1e9),
        ),
        (
            "wizard_wall_s",
            Json::Num(snap.timer("bench.wizard_wall_time").nanos as f64 / 1e9),
        ),
        ("metrics", snap.to_json()),
    ])
}

/// The `synth_sweep` section: the scale × shape grid of fleet curves the
/// perf items (planner, semi-naive chase) are gated against. Cells run
/// concurrently on `threads` workers.
pub fn synth_sweep_section(scales: &[f64], seed: u64, threads: usize) -> Json {
    let shapes = sweep_shapes();
    let driver = Metrics::enabled();
    let n = shapes.len() * scales.len();
    let cells = scope_map(n, threads, &driver, |i| {
        let (_, cfg) = &shapes[i / scales.len()];
        let scale = scales[i % scales.len()];
        synth_sweep_cell(cfg, scale, seed)
    });
    let mut shape_objs = Vec::new();
    for (si, (name, cfg)) in shapes.iter().enumerate() {
        let mut by_scale = Vec::new();
        for (ki, scale) in scales.iter().enumerate() {
            by_scale.push((format!("{scale}"), cells[si * scales.len() + ki].clone()));
        }
        shape_objs.push((
            name.to_string(),
            Json::obj(vec![("cfg", cfg_json(cfg)), ("cells", Json::Obj(by_scale))]),
        ));
    }
    Json::obj(vec![
        (
            "scales",
            Json::Arr(scales.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("seed", Json::Int(seed as i64)),
        ("threads", Json::Int(threads as i64)),
        ("driver", driver.snapshot().to_json()),
        ("shapes", Json::Obj(shape_objs)),
    ])
}

//! Measures what the incremental chase engine buys: per scenario, the
//! `chase.steps` a full Muse-G wizard pass (strategies G1–G3) spends from
//! scratch vs routed through one shared [`muse_chase::DeltaStore`] — same
//! rows, same transcripts, the saved steps reappear as `chase.rederived` —
//! next to each pass's wall-clock time and `chase.time` total, so a step
//! win can be checked against the clock.
//!
//! Usage: `cargo run --release -p muse-bench --bin delta_bench [-- --json]
//! [--threads N] [--only <scenario>]` (`MUSE_SCALE`/`MUSE_SEED` as usual;
//! `--json` merges the `delta` section into `BENCH_baseline.json`;
//! `MUSE_GATE=1` additionally enforces the engine's headline win — ≥3x
//! fewer chase steps on the Mondial pass). Step counts are measured
//! without the real-example deadline, so they are deterministic.
//! `--threads N`
//! runs scenarios alongside each other, which skews their wall-clock
//! columns; the default (`MUSE_THREADS` or 1) times them one at a time.

use std::time::Instant;

use muse_bench::{baseline, env_scale, env_seed, Fig5Req};
use muse_chase::DeltaStore;
use muse_cliogen::GroupingStrategy;
use muse_obs::{Json, Metrics};
use muse_par::scope_map;

struct Row {
    scenario: String,
    scratch: Pass,
    incr: Pass,
    scratch_steps: u64,
    incr_steps: u64,
    rederived: u64,
    delta_hits: u64,
    fallbacks: u64,
}

/// Wall-clock cost of one wizard pass: the whole pass and its `chase.time`
/// total, in seconds.
struct Pass {
    wall_s: f64,
    chase_s: f64,
}

impl Pass {
    fn new(wall_s: f64, snap: &muse_obs::Snapshot) -> Self {
        Pass {
            wall_s,
            chase_s: snap.timer("chase.time").total().as_secs_f64(),
        }
    }

    fn json(&self) -> Json {
        Json::obj(vec![
            ("wall_seconds", Json::Num(self.wall_s)),
            ("chase_time_seconds", Json::Num(self.chase_s)),
        ])
    }
}

/// One full wizard pass (all three strategies); returns the Fig. 5 row
/// fingerprints so the caller can assert the store changed nothing.
fn wizard_pass(
    s: &muse_scenarios::Scenario,
    scale: f64,
    seed: u64,
    delta: Option<&DeltaStore>,
    metrics: &Metrics,
) -> Vec<String> {
    let req = Fig5Req {
        metrics,
        exhaustive: true,
        delta,
        ..Fig5Req::default()
    };
    let mut rows = Vec::new();
    for strategy in [
        GroupingStrategy::G1,
        GroupingStrategy::G2,
        GroupingStrategy::G3,
    ] {
        let r = req.run(s, strategy, scale, seed);
        rows.push(format!(
            "{}/{:?}: poss={:.3} q={:.3} real={:.3} designed={}",
            r.scenario,
            r.strategy,
            r.avg_poss,
            r.avg_questions,
            r.real_fraction,
            r.grouping_functions
        ));
    }
    rows
}

fn measure(s: &muse_scenarios::Scenario, scale: f64, seed: u64) -> Row {
    let t = Instant::now();
    let scratch_metrics = Metrics::enabled();
    let scratch_rows = wizard_pass(s, scale, seed, None, &scratch_metrics);
    let scratch_snap = scratch_metrics.snapshot();
    let scratch = Pass::new(t.elapsed().as_secs_f64(), &scratch_snap);
    let scratch_steps = scratch_snap.counter("chase.steps");
    eprintln!(
        "  [{:>8.1}s] {}: scratch pass done ({scratch_steps} steps)",
        t.elapsed().as_secs_f64(),
        s.name
    );
    let store = DeltaStore::new();
    let incr_metrics = Metrics::enabled();
    let t_incr = Instant::now();
    let incr_rows = wizard_pass(s, scale, seed, Some(&store), &incr_metrics);
    let snap = incr_metrics.snapshot();
    let incr = Pass::new(t_incr.elapsed().as_secs_f64(), &snap);
    let incr_steps = snap.counter("chase.steps");
    eprintln!(
        "  [{:>8.1}s] {}: incremental pass done ({incr_steps} steps)",
        t.elapsed().as_secs_f64(),
        s.name
    );
    assert_eq!(
        scratch_rows, incr_rows,
        "{}: the incremental pass changed a Fig. 5 row",
        s.name
    );
    let fallbacks = snap.counter("chase.delta_fallbacks");
    let rederived = snap.counter("chase.rederived");
    if fallbacks == 0 {
        // Counter reconciliation: every scratch step is either still a
        // step or a rederivation — nothing is silently skipped.
        assert_eq!(
            incr_steps + rederived,
            scratch_steps,
            "{}: steps + rederived must reconcile with the scratch pass",
            s.name
        );
    }
    Row {
        scenario: s.name.clone(),
        scratch,
        incr,
        scratch_steps,
        incr_steps,
        rederived,
        delta_hits: snap.counter("chase.delta_hits"),
        fallbacks,
    }
}

fn main() {
    let scale = env_scale();
    let seed = env_seed();
    let threads = baseline::arg_threads();
    let hw_threads = muse_par::available_parallelism();
    println!(
        "Incremental chase payoff — scale factor {scale}, {threads} thread(s), \
         {hw_threads} hardware thread(s)"
    );
    println!(
        "{:<9} {:>14} {:>13} {:>7} {:>11} {:>6} {:>10} {:>17} {:>17}",
        "Scenario",
        "steps(scratch)",
        "steps(incr)",
        "ratio",
        "rederived",
        "hits",
        "fallbacks",
        "wall/chase(scr)",
        "wall/chase(incr)"
    );
    let mut scenarios = muse_scenarios::all_scenarios();
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--only") {
        let name = args.get(i + 1).expect("--only needs a scenario name");
        scenarios.retain(|s| &s.name == name);
        assert!(!scenarios.is_empty(), "--only {name}: no such scenario");
    }
    let rows = scope_map(scenarios.len(), threads, &Metrics::disabled(), |i| {
        measure(&scenarios[i], scale, seed)
    });
    let mut sections = Vec::new();
    for r in &rows {
        let ratio = r.scratch_steps as f64 / r.incr_steps.max(1) as f64;
        println!(
            "{:<9} {:>14} {:>13} {:>5.1}x  {:>11} {:>6} {:>10} {:>8.2}s/{:>6.3}s {:>8.2}s/{:>6.3}s",
            r.scenario,
            r.scratch_steps,
            r.incr_steps,
            ratio,
            r.rederived,
            r.delta_hits,
            r.fallbacks,
            r.scratch.wall_s,
            r.scratch.chase_s,
            r.incr.wall_s,
            r.incr.chase_s
        );
        sections.push((
            r.scenario.clone(),
            Json::obj(vec![
                ("chase_steps_scratch", Json::Int(r.scratch_steps as i64)),
                ("chase_steps_incremental", Json::Int(r.incr_steps as i64)),
                ("speedup", Json::Num(ratio)),
                ("rederived", Json::Int(r.rederived as i64)),
                ("delta_hits", Json::Int(r.delta_hits as i64)),
                ("delta_fallbacks", Json::Int(r.fallbacks as i64)),
                ("scratch_pass", r.scratch.json()),
                ("incremental_pass", r.incr.json()),
            ]),
        ));
    }
    if std::env::var("MUSE_GATE").is_ok() {
        let mondial = rows
            .iter()
            .find(|r| r.scenario == "Mondial")
            .expect("Mondial row");
        assert!(
            mondial.incr_steps * 3 <= mondial.scratch_steps,
            "delta gate: the Mondial wizard pass must spend >=3x fewer chase steps \
             (scratch {}, incremental {})",
            mondial.scratch_steps,
            mondial.incr_steps
        );
        println!(
            "gate ok: Mondial {:.1}x >= 3x",
            mondial.scratch_steps as f64 / mondial.incr_steps.max(1) as f64
        );
    }
    if baseline::wants_json() {
        baseline::emit(
            "delta",
            Json::obj(vec![
                ("scale", Json::Num(scale)),
                ("seed", Json::Int(seed as i64)),
                ("threads", Json::Int(threads as i64)),
                ("hw_threads", Json::Int(hw_threads as i64)),
                ("scenarios", Json::Obj(sections)),
            ]),
        );
    }
}

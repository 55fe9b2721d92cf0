//! Micro-benchmarks supporting the paper's latency claims: sub-second `Ie`
//! retrieval (the "Average time to obtain Ie" column of Fig. 5), cheap
//! example chasing, and cheap isomorphism checks (what makes the
//! "think-time precomputation" strategy of Sec. VI viable).
//!
//! Hand-rolled harness (`harness = false`): each benchmark is warmed up,
//! then timed over enough iterations to fill a small measurement budget;
//! we report the median over several samples, which is robust to scheduler
//! noise. Filter by substring: `cargo bench --bench micro -- qie`.

use std::time::{Duration, Instant};

use muse_chase::{chase, chase_one, isomorphic, ChaseReq};
use muse_cliogen::{desired_grouping, GroupingStrategy};
use muse_mapping::Grouping;
use muse_obs::Metrics;
use muse_scenarios::all_scenarios;
use muse_wizard::example::{build_example, ClassSpace, ExampleRequest};
use muse_wizard::{Designer, MuseD, MuseG, OracleDesigner, ScenarioChoice};

const WARMUP: Duration = Duration::from_millis(300);
const SAMPLE: Duration = Duration::from_millis(400);
const SAMPLES: usize = 7;

struct Harness {
    filter: Vec<String>,
}

impl Harness {
    fn from_args() -> Self {
        // `cargo bench -- <substr>...` — also tolerate the `--bench` flag
        // cargo passes through.
        let filter = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        Harness { filter }
    }

    fn matches(&self, name: &str) -> bool {
        self.filter.is_empty() || self.filter.iter().any(|f| name.contains(f.as_str()))
    }

    /// Time `f`, printing `name: <median> ns/iter (± spread)`.
    fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        if !self.matches(name) {
            return;
        }
        // Warm up and estimate the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < WARMUP {
            std::hint::black_box(f());
            warm_iters += 1;
        }
        let per_iter = WARMUP.as_nanos() as u64 / warm_iters.max(1);
        let iters = (SAMPLE.as_nanos() as u64 / per_iter.max(1)).clamp(1, 1_000_000);

        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        let spread = samples[samples.len() - 1] - samples[0];
        println!(
            "{name:<44} {:>14} ns/iter  (±{:>12} over {SAMPLES} samples of {iters} iters)",
            group_digits(median as u64),
            group_digits(spread as u64),
        );
    }
}

fn group_digits(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Chase throughput: the full Mondial mapping set over a small instance.
fn bench_chase(h: &Harness) {
    let scenarios = all_scenarios();
    let mondial = scenarios.iter().find(|s| s.name == "Mondial").unwrap();
    let instance = mondial.instance(0.02, 7);
    let mappings = muse_bench::unambiguous_mappings(mondial);
    h.bench("chase/mondial-0.02", || {
        chase(
            &mondial.source_schema,
            &mondial.target_schema,
            &instance,
            &mappings,
        )
        .unwrap()
    });
}

/// `QIe` retrieval latency on the paper-sized (10 MB) TPC-H instance: the
/// dominant cost of a Muse-G probe. The paper reports sub-second times.
fn bench_qie_retrieval(h: &Harness) {
    let scenarios = all_scenarios();
    let tpch = scenarios.iter().find(|s| s.name == "TPCH").unwrap();
    let instance = tpch.instance(tpch.default_scale, 7);
    let m = &muse_bench::unambiguous_mappings(tpch)[1]; // customer mapping
    let space = ClassSpace::new(m, &tpch.source_schema, &tpch.source_constraints).unwrap();
    // Probe the last attribute: agree on everything else.
    let probed = space.len() - 1;
    let all = muse_nr::constraints::fdset::all_attrs(space.len());
    let agree = space.closure(all & !muse_nr::constraints::fdset::attrs([probed]));
    let req = ExampleRequest {
        copies: 2,
        agree,
        differ: vec![probed],
        distinct: vec![],
        real_budget: None,
    };
    h.bench("qie/tpch-customer-probe", || {
        build_example(m, &space, &req, &tpch.source_schema, Some(&instance)).unwrap()
    });
}

/// A full Muse-G probe question (example + two chases) on the CompDB/OrgDB
/// running example.
fn bench_probe_question(h: &Harness) {
    let scenarios = all_scenarios();
    let dblp = scenarios.iter().find(|s| s.name == "DBLP").unwrap();
    let instance = dblp.instance(0.05, 7);
    let museg = MuseG::new(
        &dblp.source_schema,
        &dblp.target_schema,
        &dblp.source_constraints,
    )
    .with_instance(&instance);
    let m = muse_bench::unambiguous_mappings(dblp)[0].clone();
    let filled = m.filled_target_sets(&dblp.target_schema).unwrap();
    let sk = filled.iter().next().unwrap().clone();
    let desired = desired_grouping(
        &m,
        &sk,
        GroupingStrategy::G3,
        &dblp.source_schema,
        &dblp.target_schema,
    )
    .unwrap();
    h.bench("museg/design-one-grouping-dblp", || {
        let mut oracle = OracleDesigner::new(&dblp.source_schema, &dblp.target_schema);
        oracle.intend_grouping(m.name.clone(), sk.clone(), desired.clone());
        museg.design_grouping(&m, &sk, &mut oracle).unwrap()
    });
}

/// Isomorphism checking between probe scenarios — what the designer's
/// answer-matching (and the oracle) pays per question.
fn bench_isomorphism(h: &Harness) {
    let scenarios = all_scenarios();
    let mondial = scenarios.iter().find(|s| s.name == "Mondial").unwrap();
    let instance = mondial.instance(0.02, 7);
    let ms = muse_bench::unambiguous_mappings(mondial);
    let m = ms
        .iter()
        .find(|m| {
            !m.filled_target_sets(&mondial.target_schema)
                .unwrap()
                .is_empty()
        })
        .unwrap();
    let j1 = chase_one(&mondial.source_schema, &mondial.target_schema, &instance, m).unwrap();
    // Same mapping with one grouping emptied: a different target.
    let mut m2 = m.clone();
    let sk = m2
        .filled_target_sets(&mondial.target_schema)
        .unwrap()
        .iter()
        .next()
        .unwrap()
        .clone();
    m2.set_grouping(sk, Grouping::new(vec![]));
    let j2 = chase_one(
        &mondial.source_schema,
        &mondial.target_schema,
        &instance,
        &m2,
    )
    .unwrap();
    h.bench("hom/isomorphic-mondial-targets", || isomorphic(&j1, &j2));
}

/// Muse-D question construction on the TPC-H ambiguous mapping.
fn bench_mused_question(h: &Harness) {
    let scenarios = all_scenarios();
    let tpch = scenarios.iter().find(|s| s.name == "TPCH").unwrap();
    let instance = tpch.instance(0.1, 7);
    let ms = tpch.mappings().unwrap();
    let ma = ms.iter().find(|m| m.is_ambiguous()).unwrap();
    let mused = MuseD::new(
        &tpch.source_schema,
        &tpch.target_schema,
        &tpch.source_constraints,
    )
    .with_instance(&instance);
    h.bench("mused/question-tpch-lineitem", || {
        mused.question(ma).unwrap()
    });
}

/// Ablation support: key-aware probing vs the basic algorithm, measured as
/// end-to-end wizard latency (questions also drop — see the ablations bin).
fn bench_key_ablation(h: &Harness) {
    let scenarios = all_scenarios();
    let amalgam = scenarios.iter().find(|s| s.name == "Amalgam").unwrap();
    let instance = amalgam.instance(0.05, 7);
    let m = muse_bench::unambiguous_mappings(amalgam)[0].clone();
    let filled = m.filled_target_sets(&amalgam.target_schema).unwrap();
    let sk = filled.iter().next().unwrap().clone();
    let desired = desired_grouping(
        &m,
        &sk,
        GroupingStrategy::G1,
        &amalgam.source_schema,
        &amalgam.target_schema,
    )
    .unwrap();
    let no_keys = muse_nr::Constraints::none();

    for (label, cons) in [
        ("museg/key-ablation/with-keys", &amalgam.source_constraints),
        ("museg/key-ablation/without-keys", &no_keys),
    ] {
        let museg = MuseG::new(&amalgam.source_schema, &amalgam.target_schema, cons)
            .with_instance(&instance);
        h.bench(label, || {
            let mut oracle = OracleDesigner::new(&amalgam.source_schema, &amalgam.target_schema);
            oracle.intend_grouping(m.name.clone(), sk.clone(), desired.clone());
            museg.design_grouping(&m, &sk, &mut oracle).unwrap()
        });
    }
}

/// Sanity: a designer that always answers "Second" must terminate quickly
/// too (empty grouping) — guards against pathological probe loops.
fn bench_all_second_designer(h: &Harness) {
    struct AlwaysSecond;
    impl Designer for AlwaysSecond {
        fn pick_scenario(
            &mut self,
            _q: &muse_wizard::GroupingQuestion,
        ) -> Result<ScenarioChoice, muse_wizard::WizardError> {
            Ok(ScenarioChoice::Second)
        }
        fn fill_choices(
            &mut self,
            _q: &muse_wizard::DisambiguationQuestion,
        ) -> Result<Vec<Vec<usize>>, muse_wizard::WizardError> {
            unreachable!()
        }
    }
    let scenarios = all_scenarios();
    let dblp = scenarios.iter().find(|s| s.name == "DBLP").unwrap();
    let m = muse_bench::unambiguous_mappings(dblp)[0].clone();
    let filled = m.filled_target_sets(&dblp.target_schema).unwrap();
    let sk = filled.iter().next().unwrap().clone();
    let museg = MuseG::new(
        &dblp.source_schema,
        &dblp.target_schema,
        &dblp.source_constraints,
    );
    h.bench("museg/all-second-synthetic", || {
        museg.design_grouping(&m, &sk, &mut AlwaysSecond).unwrap()
    });
}

/// Instrumentation overhead on a hot path: the same chase through the no-op
/// metrics handle (what every plain API call uses) and through a live
/// registry. The disabled handle must stay within noise of free — the
/// plain-API numbers above all go through it.
fn bench_metrics_overhead(h: &Harness) {
    let scenarios = all_scenarios();
    let mondial = scenarios.iter().find(|s| s.name == "Mondial").unwrap();
    let instance = mondial.instance(0.02, 7);
    let mappings = muse_bench::unambiguous_mappings(mondial);
    let enabled = Metrics::enabled();
    for (label, metrics) in [
        ("obs/chase-metrics-disabled", Metrics::disabled_ref()),
        ("obs/chase-metrics-enabled", &enabled),
    ] {
        h.bench(label, || {
            ChaseReq {
                metrics,
                ..ChaseReq::default()
            }
            .run(
                &mondial.source_schema,
                &mondial.target_schema,
                &instance,
                &mappings,
            )
            .unwrap()
        });
    }
}

fn main() {
    let h = Harness::from_args();
    bench_chase(&h);
    bench_qie_retrieval(&h);
    bench_probe_question(&h);
    bench_isomorphism(&h);
    bench_mused_question(&h);
    bench_key_ablation(&h);
    bench_all_second_designer(&h);
    bench_metrics_overhead(&h);
}

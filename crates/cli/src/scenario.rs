//! `muse scenario <name>`: run the full wizard (Sec. V) over one of the
//! evaluation scenarios, interactively or with a strategy oracle. The
//! pseudo-scenario `all` runs every scenario, concurrently when
//! `--threads`/`MUSE_THREADS` allows (oracle mode only — interactive
//! sessions cannot share a terminal).

use std::fmt::Write as _;
use std::io::{stdin, stdout};
use std::time::Duration;

use muse_cliogen::{desired_grouping, GroupingStrategy};
use muse_mapping::ambiguity::{or_groups, select_multi};
use muse_obs::{Budget, Metrics};
use muse_par::scope_map;
use muse_scenarios::Scenario;
use muse_wizard::{InteractiveDesigner, OracleDesigner, Session};

struct Options {
    name: String,
    strategy: Option<GroupingStrategy>,
    scale: f64,
    seed: u64,
    metrics: bool,
    threads: Option<usize>,
    lint_deny: bool,
    deadline_ms: Option<u64>,
    max_rows: Option<u64>,
    max_terms: Option<u64>,
    auto_chase_steps: bool,
    faults: Option<String>,
    synth: Option<(usize, u64)>,
}

impl Options {
    /// The execution budget for one session. Built per session so a
    /// `--deadline-ms` clock starts when that session starts.
    fn budget(&self) -> Budget {
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
        if self.auto_chase_steps {
            b = b.with_auto_chase_steps();
        }
        b
    }
}

/// Resolve a `--auto-chase-budget` request: install the termination
/// analyzer's static chase-step bound over this instance as the budget's
/// `max_chase_steps` (a no-op unless auto mode was requested).
fn resolve_auto_budget(
    budget: &mut Budget,
    scenario: &Scenario,
    instance: &muse_nr::Instance,
    mappings: &[muse_mapping::Mapping],
) {
    if !budget.auto_chase_steps {
        return;
    }
    let sizes = muse_lint::termination::path_sizes(&scenario.source_schema, instance);
    let bound = muse_lint::termination::chase_step_bound(
        &scenario.source_schema,
        &scenario.source_constraints,
        mappings,
        &sizes,
    );
    budget.resolve_auto_chase_steps(bound);
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        name: args.first().cloned().ok_or("missing scenario name")?,
        strategy: None,
        scale: 0.1,
        seed: 1,
        metrics: false,
        threads: None,
        lint_deny: false,
        deadline_ms: None,
        max_rows: None,
        max_terms: None,
        auto_chase_steps: false,
        faults: None,
        synth: None,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics" => {
                opts.metrics = true;
                i += 1;
            }
            "--lint-deny" => {
                opts.lint_deny = true;
                i += 1;
            }
            "--auto-chase-budget" => {
                opts.auto_chase_steps = true;
                i += 1;
            }
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--deadline-ms needs a number")?,
                );
                i += 2;
            }
            "--max-rows" => {
                opts.max_rows = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--max-rows needs a number")?,
                );
                i += 2;
            }
            "--max-terms" => {
                opts.max_terms = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--max-terms needs a number")?,
                );
                i += 2;
            }
            "--faults" => {
                opts.faults = Some(
                    args.get(i + 1)
                        .cloned()
                        .ok_or("--faults needs a spec, e.g. `wizard.probe:deadline@2`")?,
                );
                i += 2;
            }
            "--synth" => {
                let spec = args.get(i + 1).ok_or("--synth needs <count>x<seed>")?;
                opts.synth = Some(muse_scenarios::synth::parse_fleet_spec(spec)?);
                i += 2;
            }
            "--strategy" => {
                let v = args.get(i + 1).ok_or("--strategy needs a value")?;
                opts.strategy = Some(match v.to_ascii_lowercase().as_str() {
                    "g1" => GroupingStrategy::G1,
                    "g2" => GroupingStrategy::G2,
                    "g3" => GroupingStrategy::G3,
                    other => return Err(format!("unknown strategy `{other}`")),
                });
                i += 2;
            }
            "--scale" => {
                opts.scale = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--scale needs a number")?;
                i += 2;
            }
            "--seed" => {
                opts.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
                i += 2;
            }
            "--threads" => {
                opts.threads = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--threads needs a number")?,
                );
                i += 2;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

/// Per-scenario result of a `scenario all` sweep.
enum Status {
    Pending,
    Pass,
    Truncated(usize),
    Fail(String),
}

pub fn run(args: &[String]) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if let Some(spec) = &opts.faults {
        match muse_fault::parse_spec(spec) {
            Ok(plan) => muse_fault::arm(plan),
            Err(e) => {
                eprintln!("--faults: {e}");
                return 2;
            }
        }
    }
    let mut scenarios = muse_scenarios::all_scenarios();
    if let Some((count, seed0)) = opts.synth {
        scenarios.extend(muse_scenarios::synth::fleet(count, seed0));
    }
    // A `Synth-<seed>` name picks a fleet member directly, listed or not.
    if !scenarios
        .iter()
        .any(|s| s.name.eq_ignore_ascii_case(&opts.name))
    {
        if let Some(cfg) = muse_scenarios::synth::cfg_from_name(&opts.name) {
            scenarios.push(Scenario::synthetic(cfg));
        }
    }

    if opts.name.eq_ignore_ascii_case("all") {
        let Some(strategy) = opts.strategy else {
            eprintln!(
                "`muse scenario all` needs --strategy g1|g2|g3: \
                 interactive sessions cannot run concurrently"
            );
            return 2;
        };
        // Preflight serially; a failing scenario is marked FAIL and skipped,
        // the sweep continues over the rest.
        let mut status: Vec<Status> = scenarios
            .iter()
            .map(|scenario| match preflight(scenario, opts.lint_deny) {
                None => Status::Pending,
                Some(_) => Status::Fail("lint preflight failed".into()),
            })
            .collect();
        let runnable: Vec<usize> = status
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Status::Pending))
            .map(|(i, _)| i)
            .collect();
        let threads = muse_par::resolve_threads(opts.threads);
        println!(
            "Running all {} scenarios with strategy oracle on {} thread(s)…\n",
            scenarios.len(),
            threads
        );
        // Each session buffers its transcript; outputs print in scenario
        // order whatever the completion order was.
        let outputs = scope_map(runnable.len(), threads, &Metrics::disabled(), |i| {
            run_oracle(&scenarios[runnable[i]], strategy, &opts)
        });
        for (k, out) in outputs.into_iter().enumerate() {
            match out {
                Ok((text, warnings)) => {
                    print!("{text}");
                    status[runnable[k]] = if warnings == 0 {
                        Status::Pass
                    } else {
                        Status::Truncated(warnings)
                    };
                }
                Err(e) => {
                    eprintln!("{e}");
                    status[runnable[k]] = Status::Fail(e);
                }
            }
        }
        println!("── summary ──────────────────────────────────");
        let mut code = 0;
        for (scenario, st) in scenarios.iter().zip(&status) {
            match st {
                Status::Pass => println!("{:<10} PASS", scenario.name),
                Status::Truncated(n) => {
                    println!("{:<10} TRUNCATED ({n} warning(s))", scenario.name)
                }
                Status::Fail(e) => {
                    let first = e.lines().next().unwrap_or("failed");
                    println!("{:<10} FAIL: {first}", scenario.name);
                    code = 1;
                }
                Status::Pending => unreachable!("every runnable scenario produced an output"),
            }
        }
        return code;
    }

    let Some(scenario) = scenarios
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(&opts.name))
    else {
        eprintln!(
            "unknown scenario `{}` (try Mondial, DBLP, TPCH, Amalgam, Synth-<seed>, all)",
            opts.name
        );
        return 2;
    };

    if let Some(code) = preflight(scenario, opts.lint_deny) {
        return code;
    }

    match opts.strategy {
        Some(strategy) => match run_oracle(scenario, strategy, &opts) {
            Ok((text, _warnings)) => {
                print!("{text}");
                0
            }
            Err(e) => {
                eprintln!("{e}");
                1
            }
        },
        None => run_interactive(scenario, &opts),
    }
}

/// Lint the scenario's bundle before spending any designer questions on
/// it. Errors always abort; warnings abort only under `--lint-deny`.
/// Returns the exit code to bail with, or `None` to proceed.
fn preflight(scenario: &Scenario, lint_deny: bool) -> Option<i32> {
    let mappings = match scenario.mappings() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{}: mapping generation failed: {e}", scenario.name);
            return Some(1);
        }
    };
    let input = muse_lint::LintInput {
        source_schema: &scenario.source_schema,
        source_constraints: &scenario.source_constraints,
        target_schema: &scenario.target_schema,
        target_constraints: &scenario.target_constraints,
        mappings: &mappings,
    };
    match crate::lint::preflight(&input, lint_deny) {
        Ok(()) => None,
        Err(e) => {
            eprintln!("{}: {e}", scenario.name);
            Some(1)
        }
    }
}

/// One oracle-driven session, its whole transcript buffered so concurrent
/// sessions do not interleave on stdout. Returns the transcript plus the
/// number of graceful-degradation warnings (0 = untruncated).
fn run_oracle(
    scenario: &Scenario,
    strategy: GroupingStrategy,
    opts: &Options,
) -> Result<(String, usize), String> {
    let mut out = String::new();
    writeln!(
        out,
        "Generating the {} instance (scale {}) and candidate mappings…",
        scenario.name, opts.scale
    )
    .unwrap();
    let instance = scenario.instance(scenario.default_scale * opts.scale, opts.seed);
    let mappings = scenario
        .mappings()
        .map_err(|e| format!("{}: mapping generation failed: {e}", scenario.name))?;
    writeln!(
        out,
        "Instance: {} tuples ({:.2} MB). {} candidate mappings, {} ambiguous.\n",
        instance.total_tuples(),
        instance.approx_bytes() as f64 / 1_000_000.0,
        mappings.len(),
        mappings.iter().filter(|m| m.is_ambiguous()).count()
    )
    .unwrap();

    let metrics = if opts.metrics {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    let mut budget = opts.budget();
    resolve_auto_budget(&mut budget, scenario, &instance, &mappings);
    let session = Session::new(
        &scenario.source_schema,
        &scenario.target_schema,
        &scenario.source_constraints,
    )
    .with_instance(&instance)
    .with_budget(&budget)
    .with_metrics(&metrics);
    let mut oracle = oracle_for(scenario, &mappings, strategy);
    let report = session
        .run(&mappings, &mut oracle)
        .map_err(|e| format!("{}: wizard failed: {e}", scenario.name))?;
    writeln!(out, "\n{}", muse_wizard::render_report(&report)).unwrap();
    if metrics.is_enabled() {
        writeln!(out, "=== Metrics ===\n{}", metrics.snapshot().render()).unwrap();
    }
    Ok((out, report.warnings.len()))
}

fn run_interactive(scenario: &Scenario, opts: &Options) -> i32 {
    println!(
        "Generating the {} instance (scale {}) and candidate mappings…",
        scenario.name, opts.scale
    );
    let instance = scenario.instance(scenario.default_scale * opts.scale, opts.seed);
    let mappings = match scenario.mappings() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("mapping generation failed: {e}");
            return 1;
        }
    };
    println!(
        "Instance: {} tuples ({:.2} MB). {} candidate mappings, {} ambiguous.\n",
        instance.total_tuples(),
        instance.approx_bytes() as f64 / 1_000_000.0,
        mappings.len(),
        mappings.iter().filter(|m| m.is_ambiguous()).count()
    );

    let metrics = if opts.metrics {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    let mut budget = opts.budget();
    resolve_auto_budget(&mut budget, scenario, &instance, &mappings);
    let session = Session::new(
        &scenario.source_schema,
        &scenario.target_schema,
        &scenario.source_constraints,
    )
    .with_instance(&instance)
    .with_budget(&budget)
    .with_metrics(&metrics);

    let stdin = stdin();
    let mut designer = InteractiveDesigner::new(
        stdin.lock(),
        stdout(),
        scenario.source_schema.clone(),
        scenario.target_schema.clone(),
    );
    match session.run(&mappings, &mut designer) {
        Ok(report) => {
            println!("\n{}", muse_wizard::render_report(&report));
            if metrics.is_enabled() {
                println!("=== Metrics ===\n{}", metrics.snapshot().render());
            }
            0
        }
        Err(e) => {
            eprintln!("wizard failed: {e}");
            1
        }
    }
}

/// An oracle who wants `strategy` groupings and the first interpretation of
/// every ambiguity.
fn oracle_for<'a>(
    scenario: &'a Scenario,
    mappings: &[muse_mapping::Mapping],
    strategy: GroupingStrategy,
) -> OracleDesigner<'a> {
    let mut oracle = OracleDesigner::new(&scenario.source_schema, &scenario.target_schema);
    for m in mappings {
        let resolved = if m.is_ambiguous() {
            let picks = vec![vec![0usize]; or_groups(m).len()];
            oracle
                .intended_choices
                .insert(m.name.clone(), picks.clone());
            select_multi(m, &picks).expect("selection")
        } else {
            vec![m.clone()]
        };
        for sel in resolved {
            for sk in sel
                .filled_target_sets(&scenario.target_schema)
                .expect("filled")
            {
                let desired = desired_grouping(
                    &sel,
                    &sk,
                    strategy,
                    &scenario.source_schema,
                    &scenario.target_schema,
                )
                .expect("strategy grouping");
                oracle.intend_grouping(sel.name.clone(), sk, desired);
            }
        }
    }
    oracle
}

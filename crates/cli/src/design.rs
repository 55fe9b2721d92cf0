//! `muse design`: the full wizard over user-provided schema files.
//!
//! ```text
//! muse design --source src.schema --target tgt.schema --corr arrows.txt \
//!             [--data DIR] [--out mappings.txt]
//! ```
//!
//! * schema files use the `muse_nr::text` syntax (see `examples/schemas/`);
//! * the correspondence file holds one arrow per line,
//!   `Companies.cname -> Orgs.oname` (`#` comments allowed);
//! * `--data` points at a directory of `<SetLabel>.tsv` files — the
//!   designer's familiar instance, used for real examples;
//! * the finished mappings are printed (or written with `--out`) in the
//!   paper's concrete mapping syntax, ready for `muse_mapping::parse`.

use std::fs;
use std::io::{stdin, stdout};
use std::path::PathBuf;

use std::time::Duration;

use muse_cliogen::{generate, Correspondence, ScenarioSpec};
use muse_nr::text::parse_schema;
use muse_nr::tsv;
use muse_obs::{Budget, Metrics};
use muse_wizard::{InteractiveDesigner, Session};

struct Options {
    source: PathBuf,
    target: PathBuf,
    corr: PathBuf,
    data: Option<PathBuf>,
    out: Option<PathBuf>,
    metrics: bool,
    lint_deny: bool,
    deadline_ms: Option<u64>,
    max_rows: Option<u64>,
    max_terms: Option<u64>,
    auto_chase_steps: bool,
}

impl Options {
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

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut source = None;
    let mut target = None;
    let mut corr = None;
    let mut data = None;
    let mut out = None;
    let mut metrics = false;
    let mut lint_deny = false;
    let mut deadline_ms = None;
    let mut max_rows = None;
    let mut max_terms = None;
    let mut auto_chase_steps = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--metrics" {
            metrics = true;
            i += 1;
            continue;
        }
        if flag == "--lint-deny" {
            lint_deny = true;
            i += 1;
            continue;
        }
        if flag == "--auto-chase-budget" {
            auto_chase_steps = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value.parse().map_err(|_| format!("{flag} needs a number"))
        };
        match flag {
            "--source" => source = Some(PathBuf::from(value)),
            "--target" => target = Some(PathBuf::from(value)),
            "--corr" => corr = Some(PathBuf::from(value)),
            "--data" => data = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--deadline-ms" => deadline_ms = Some(number()?),
            "--max-rows" => max_rows = Some(number()?),
            "--max-terms" => max_terms = Some(number()?),
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 2;
    }
    Ok(Options {
        source: source.ok_or("--source is required")?,
        target: target.ok_or("--target is required")?,
        corr: corr.ok_or("--corr is required")?,
        data,
        out,
        metrics,
        lint_deny,
        deadline_ms,
        max_rows,
        max_terms,
        auto_chase_steps,
    })
}

/// Parse `A.x -> B.y` arrow lines.
pub fn parse_correspondences(text: &str) -> Result<Vec<Correspondence>, String> {
    let mut out = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (lhs, rhs) = line
            .split_once("->")
            .ok_or_else(|| format!("line {}: expected `source.attr -> target.attr`", no + 1))?;
        out.push(Correspondence::new(lhs.trim(), rhs.trim()));
    }
    Ok(out)
}

pub fn run(args: &[String]) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let read = |p: &PathBuf| {
        fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let run_inner = || -> Result<i32, String> {
        let (source_schema, source_cons) =
            parse_schema(&read(&opts.source)?).map_err(|e| format!("source schema: {e}"))?;
        let (target_schema, target_cons) =
            parse_schema(&read(&opts.target)?).map_err(|e| format!("target schema: {e}"))?;
        let correspondences = parse_correspondences(&read(&opts.corr)?)?;

        let spec = ScenarioSpec {
            source_schema: &source_schema,
            source_constraints: &source_cons,
            target_schema: &target_schema,
            target_constraints: &target_cons,
            correspondences: &correspondences,
        };
        let mappings = generate(&spec).map_err(|e| format!("mapping generation: {e}"))?;
        let lint_input = muse_lint::LintInput {
            source_schema: &source_schema,
            source_constraints: &source_cons,
            target_schema: &target_schema,
            target_constraints: &target_cons,
            mappings: &mappings,
        };
        crate::lint::preflight(&lint_input, opts.lint_deny)?;
        println!(
            "Generated {} candidate mappings ({} ambiguous).\n",
            mappings.len(),
            mappings.iter().filter(|m| m.is_ambiguous()).count()
        );

        let instance = match &opts.data {
            Some(dir) => {
                let inst = tsv::load_dir(&source_schema, dir)
                    .map_err(|e| format!("loading {}: {e}", dir.display()))?;
                inst.validate(&source_schema)
                    .map_err(|e| format!("instance: {e}"))?;
                source_cons
                    .validate_instance(&source_schema, &inst)
                    .map_err(|e| format!("instance violates constraints: {e}"))?;
                println!("Loaded your instance: {} tuples.\n", inst.total_tuples());
                Some(inst)
            }
            None => None,
        };

        let metrics = if opts.metrics {
            Metrics::enabled()
        } else {
            Metrics::disabled()
        };
        let mut budget = opts.budget();
        if budget.auto_chase_steps {
            // `--auto-chase-budget`: cap the chase at the termination
            // analyzer's static step bound over the loaded instance. With
            // no `--data` instance there is nothing to bound; the request
            // stays unresolved (no cap).
            if let Some(inst) = &instance {
                let sizes = muse_lint::termination::path_sizes(&source_schema, inst);
                let bound = muse_lint::termination::chase_step_bound(
                    &source_schema,
                    &source_cons,
                    &mappings,
                    &sizes,
                );
                budget.resolve_auto_chase_steps(bound);
            }
        }
        let mut session = Session::new(&source_schema, &target_schema, &source_cons)
            .with_budget(&budget)
            .with_metrics(&metrics);
        if let Some(inst) = &instance {
            session = session.with_instance(inst);
        }
        let stdin = stdin();
        let mut designer = InteractiveDesigner::new(
            stdin.lock(),
            stdout(),
            source_schema.clone(),
            target_schema.clone(),
        );
        let report = session
            .run(&mappings, &mut designer)
            .map_err(|e| e.to_string())?;
        for w in &report.warnings {
            eprintln!("warning: {w}");
        }

        let text = muse_mapping::printer::print_all(&report.mappings);
        match &opts.out {
            Some(path) => {
                fs::write(path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!(
                    "\nWrote {} mappings to {}.",
                    report.mappings.len(),
                    path.display()
                );
            }
            None => {
                println!("\nYour designed mappings:\n\n{text}");
            }
        }
        println!(
            "({} questions total, {:?} spent building examples)",
            report.total_questions(),
            report.total_example_time()
        );
        if metrics.is_enabled() {
            println!("\n=== Metrics ===\n{}", metrics.snapshot().render());
        }
        Ok(0)
    };
    match run_inner() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correspondence_lines_parse() {
        let text = "
            # arrows
            Companies.cname -> Orgs.oname
            Projects.pname->Orgs.Projects.pname
        ";
        let cs = parse_correspondences(text).unwrap();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].source.attr, "cname");
        assert_eq!(cs[1].target.set.to_string(), "Orgs.Projects");
    }

    #[test]
    fn malformed_lines_error_with_location() {
        let err = parse_correspondences("a.b => c.d").unwrap_err();
        assert!(err.contains("line 1"));
    }

    #[test]
    fn args_require_the_three_files() {
        assert!(parse_args(&[]).is_err());
        let ok = parse_args(&[
            "--source".into(),
            "s".into(),
            "--target".into(),
            "t".into(),
            "--corr".into(),
            "c".into(),
        ])
        .unwrap();
        assert!(ok.data.is_none());
        assert!(ok.out.is_none());
    }
}

//! `muse` — the mapping design wizard as an interactive CLI.
//!
//! ```text
//! muse demo                          the paper's Figs. 1-3, you play designer
//! muse disambiguate                  Fig. 4's ambiguous mapping, interactively
//! muse scenario <name> [options]     run the full wizard on an evaluation
//!                                    scenario (Mondial|DBLP|TPCH|Amalgam, or
//!                                    `all` with --strategy for every one)
//! muse lint <name|all> [--json] [--deny-warnings]
//!                                    static analysis over a scenario's
//!                                    schemas, constraints and mappings
//! muse design --source <file> --target <file> --corr <file>
//!                                    the wizard on your own schemas (see
//!                                    examples/schemas/)
//!     --strategy g1|g2|g3            oracle designer instead of you (default: interactive)
//!     --scale <f>                    instance scale factor (default 0.1)
//!     --seed <n>                     generator seed (default 1)
//!     --threads <n>                  worker threads for `scenario all`
//!                                    (default MUSE_THREADS or 1; 0 = all cores)
//!     --metrics                      print per-stage counters/timings after the run
//! ```

#![forbid(unsafe_code)]

use std::io::{stdin, stdout, Write};

mod demo;
mod design;
mod lint;
mod scenario;
mod serve;
mod synth;

fn main() {
    // Deterministic fault injection (chaos testing): `MUSE_FAULTS=<spec>`
    // arms a plan for the whole invocation. Libraries never read the
    // environment themselves — arming is an entry-point decision.
    if let Err(e) = muse_fault::arm_from_env() {
        eprintln!("MUSE_FAULTS: {e}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("demo") => demo::run_demo(),
        Some("disambiguate") => demo::run_disambiguate(),
        Some("scenario") => scenario::run(&args[1..]),
        Some("design") => design::run(&args[1..]),
        Some("lint") => lint::run(&args[1..]),
        Some("serve") => serve::run(&args[1..]),
        Some("synth") => synth::run(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n");
            usage();
            2
        }
    };
    std::process::exit(code);
}

fn usage() {
    println!("muse — Mapping Understanding and deSign by Example (ICDE 2008)");
    println!();
    println!("USAGE:");
    println!("  muse demo                      design SKProjs for the paper's running example");
    println!("  muse disambiguate              resolve the ambiguous mapping of Fig. 4");
    println!("  muse scenario <name> [opts]    full wizard on Mondial|DBLP|TPCH|Amalgam");
    println!("                                 (`all` + --strategy runs every scenario)");
    println!("  muse lint <name|all> [--json] [--deny-warnings]");
    println!("                                 static analysis (diagnostics, no wizard)");
    println!("  muse synth list <count>x<seed> profile generated fleet scenarios");
    println!("  muse synth dump <seed> [--scale F] [--inst-seed N]");
    println!("                                 dump one Synth-<seed> bundle (schemas,");
    println!("                                 mappings, instance) in text form");
    println!("  muse design --source S --target T --corr C [--data DIR] [--out F]");
    println!("                                 full wizard on your own schema files");
    println!("  muse serve [--port P] [--wal FILE] [--threads N]");
    println!("             [--max-sessions N] [--max-connections N]");
    println!("                                 both wizards over HTTP: durable, resumable");
    println!("                                 design sessions (see DESIGN.md)");
    println!("      --strategy g1|g2|g3        answer with an oracle instead of interactively");
    println!("      --scale <f>                instance scale (default 0.1)");
    println!("      --seed <n>                 generator seed (default 1)");
    println!("      --threads <n>              workers for `scenario all` (0 = all cores,");
    println!("                                 default MUSE_THREADS or 1)");
    println!("      --metrics                  print stage counters/timings after the run");
    println!("      --lint-deny                abort scenario/design runs on lint warnings");
    println!("                                 (lint errors always abort)");
    println!("      --deadline-ms <n>          wall-clock budget per session; questions the");
    println!("                                 budget truncates are skipped with a warning");
    println!("      --max-rows <n>             cap query result rows (graceful truncation)");
    println!("      --max-terms <n>            cap interned terms per chased instance");
    println!("      --faults <spec>            arm a fault-injection plan, e.g.");
    println!("                                 `wizard.probe:deadline@2;seed:7x3`");
    println!("                                 (also via the MUSE_FAULTS env var)");
    println!("      --synth <count>x<seed>     append generated fleet scenarios to");
    println!("                                 `scenario all` / `lint all` runs");
}

/// Shared stdin/stdout prompt helper.
pub(crate) fn pause(msg: &str) {
    print!("{msg}");
    let _ = stdout().flush();
    let mut s = String::new();
    let _ = stdin().read_line(&mut s);
}

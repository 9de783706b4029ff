//! Command line of the `perf` binary.

use crate::bench::{self, results_path, Opts, Outcome, Workload};
use crate::report;
use std::path::PathBuf;

const USAGE: &str = "\
usage:
  perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       one workload in this process; the last line of stdout is the result
  perf --smoke [--out DIR]
       all six workloads, untraced and traced, at tiny sizes with 2 passes
  perf merge [--out DIR]
       merge the per-run files under DIR into DIR/results.json, print the table
  perf compare <a.json> <b.json> [--benchmark BENCHMARK.json]
       apply every end-to-end bound to two merged results files
workloads: apps-coarse apps-fine exchange-pkt exchange-bytes jobs stream";

/// Seed of the committed ledger (SPAA 1996).
pub const DEFAULT_SEED: u64 = 9_601_996;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

fn usage_error(msg: &str) -> i32 {
    eprintln!("perf: {msg}\n{USAGE}");
    2
}

/// Run one workload, write its results file, print the result line.
/// Exit code 1 if any check failed.
fn run_one(opts: &Opts) -> Result<Outcome, String> {
    let outcome = bench::run(opts).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let path = results_path(&opts.out, opts.workload, opts.trace);
    std::fs::write(&path, outcome.results_file(opts).pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    for note in &outcome.ledger.notes {
        eprintln!("perf: FAILED CHECK: {note}");
    }
    Ok(outcome)
}

/// All six workloads untraced and traced at smoke scale; the outcomes in
/// `(workload, traced)` order.
pub fn smoke(out: PathBuf) -> Result<Vec<(Workload, bool, Outcome)>, String> {
    let mut all = Vec::new();
    for trace in [false, true] {
        for workload in Workload::ALL {
            let opts = Opts {
                workload,
                seed: DEFAULT_SEED,
                seconds: 0.0,
                trace,
                smoke: true,
                out: out.clone(),
            };
            all.push((workload, trace, run_one(&opts)?));
        }
    }
    Ok(all)
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let mut out = PathBuf::from("perf/out");
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke_mode) =
        (None, DEFAULT_SEED, DEFAULT_SECONDS, false, false);
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        let parsed: Result<(), String> = (|| {
            match arg.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    workload = Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload {name}"))?,
                    );
                }
                "--seed" => {
                    seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(0.0..=3600.0).contains(&seconds) {
                        return Err("--seconds must be between 0 and 3600".to_string());
                    }
                }
                "--trace" => {
                    trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--out" => out = PathBuf::from(value("a directory")?),
                "--benchmark" => benchmark = PathBuf::from(value("a file")?),
                "--smoke" => smoke_mode = true,
                "-h" | "--help" => return Err(String::new()),
                flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
                _ => positional.push(arg.clone()),
            }
            Ok(())
        })();
        if let Err(msg) = parsed {
            return usage_error(&msg);
        }
    }

    let result: Result<i32, String> = match positional.first().map(String::as_str) {
        Some("compare") => match &positional[1..] {
            [a, b] => {
                report::compare_files(a.as_ref(), b.as_ref(), &benchmark).map(|(text, verdict)| {
                    print!("{text}");
                    i32::from(!verdict.clean())
                })
            }
            _ => return usage_error("compare takes two results files"),
        },
        Some("merge") => report::merge(&out).and_then(|merged| {
            let path = out.join("results.json");
            std::fs::write(&path, merged.pretty())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            print!("{}", report::table(&merged));
            println!("merged results: {}", path.display());
            Ok(0)
        }),
        Some(other) => return usage_error(&format!("unknown command {other}")),
        None if smoke_mode => smoke(out).map(|all| {
            let mut failed = 0;
            for (w, traced, outcome) in &all {
                println!(
                    "{} --trace {}: {}",
                    w.name(),
                    u8::from(*traced),
                    outcome.result_line(*traced)
                );
                failed += outcome.ledger.failed;
            }
            i32::from(failed > 0)
        }),
        None => match workload {
            None => return usage_error("no workload given"),
            Some(workload) => {
                let opts = Opts {
                    workload,
                    seed,
                    seconds,
                    trace,
                    smoke: false,
                    out,
                };
                run_one(&opts).map(|outcome| {
                    if let Some(t) = &outcome.trace_file {
                        eprintln!("perf: trace written to {}", t.display());
                    }
                    if outcome.ledger.failed > 0 {
                        // A wrong result must not look like a measurement.
                        eprintln!(
                            "perf: {} of {} checks failed",
                            outcome.ledger.failed, outcome.ledger.attempted
                        );
                        1
                    } else {
                        println!("{}", outcome.result_line(trace));
                        0
                    }
                })
            }
        },
    };
    result.unwrap_or_else(|msg| {
        eprintln!("perf: {msg}");
        1
    })
}

//! `report` — regenerate the paper's tables and figures.
//!
//! Usage: [`USAGE`] (printed, with exit status 2, for an unknown subcommand).
//!
//! Throughput, launch latency and streaming efficiency are measured by the
//! perf ledger (`perf/run.sh`, compared across commits with `perf compare`),
//! not here.
//!
//! `bench_sync` measures the relaxed-synchronization machinery (DESIGN.md
//! §12): barrier-cost curves (full vs pairwise vs split-phase by `p`), the
//! end-to-end ocean ghost-exchange speedup at shared `p = 8` (neighborhood
//! vs full barriers), split-phase vs fused sample sort, and the checker-on
//! overhead of a relaxed run. Writes `BENCH_sync.json`.
//!
//! `autotune` closes the predict→schedule loop (DESIGN.md §16): profiles
//! each application, prices the backend × `p` grid with calibrated `g`/`L`,
//! measures every candidate, and reports how close the tuner's pick lands
//! to the measured oracle plus the per-backend prediction error. Writes
//! `BENCH_autotune.json`; exits non-zero if any pick changes result bits or
//! the seqsim prediction error exceeds its committed bound.
//!
//! `check` runs the identity matrix's checker families (DESIGN.md §8): the
//! six applications under the BSP contract checker on every
//! deterministic backend, the packet-lane, relaxed and split-phase variants,
//! and the streamed applications; every row must reproduce the sequential
//! simulator's digest with zero diagnostics, or the command exits non-zero.
//!
//! `lint` records each application's superstep plan on the checked
//! sequential simulator and statically analyzes it (boundary congruence,
//! sync-graph discipline, split-window hygiene, checkpoint placement) with
//! per-superstep `w + gh + L` cost predictions; exits non-zero on any
//! finding.
//!
//! `ablate` times the two design ablations nothing else measures: the
//! shortest-paths work factor on the host and on an emulated high-`L`
//! machine, and DRMA puts against message passing (median and min of k
//! runs per cell).
//!
//! `faults` runs the matrix's fault families (DESIGN.md §10): every app ×
//! backend bare, hardened and under each recoverable fault class must
//! reproduce the sequential simulator's digest, unrecoverable classes must
//! fail with structured errors, and checkpoint-rollback must recover a
//! transient panic; it prints the total injected/detected/rolled-back counts
//! and exits non-zero on any violation.
//!
//! Default sizes are reduced for quick runs; `--full` sweeps the paper's
//! complete problem sizes (several minutes).

use bsp_harness::apps::App;
use bsp_harness::measure::{sweep, Sweep};
use bsp_harness::tables;

const USAGE: &str = "usage: report [all|fig1_1|fig2_1|fig3_1|fig3_2|c1|c2|c3|c4|c5|c6|ablate|autotune|bench_sync|check|faults|lint] [--full]";

fn sizes_for(app: App, full: bool) -> &'static [usize] {
    if full {
        app.paper_sizes()
    } else {
        app.quick_sizes()
    }
}

fn sweep_app(app: App, full: bool) -> Sweep {
    eprintln!(
        "sweeping {} ({} mode)...",
        app.name(),
        if full { "full" } else { "quick" }
    );
    sweep(app, sizes_for(app, full), true)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    let c_for = |app: App| {
        let sw = sweep_app(app, full);
        tables::c_table(&sw);
    };

    match what.as_str() {
        "fig2_1" => tables::fig2_1(),
        "fig1_1" => {
            // Figure 1.1 needs Ocean size 130.
            let sw = sweep(App::Ocean, &[66, 130], true);
            tables::fig1_1(&sw);
        }
        "fig3_1" | "fig3_2" => {
            let sweeps: Vec<Sweep> = App::ALL.iter().map(|&a| sweep_app(a, full)).collect();
            if what == "fig3_1" {
                tables::fig3_1(&sweeps);
            } else {
                tables::fig3_2(&sweeps);
            }
        }
        "c1" => c_for(App::Ocean),
        "c2" => c_for(App::Mst),
        "c3" => c_for(App::Matmult),
        "c4" => c_for(App::Nbody),
        "c5" => c_for(App::Sp),
        "c6" => c_for(App::Msp),
        "ablate" => bsp_harness::ablate::run_ablate(full),
        "autotune" => {
            use bsp_harness::autotune;
            eprintln!("autotune sweep (profile → price grid → measure → score predictions)...");
            let bench = autotune::sweep_autotune(full);
            let json = autotune::to_json(&bench);
            std::fs::write("BENCH_autotune.json", &json).expect("write BENCH_autotune.json");
            eprintln!(
                "wrote BENCH_autotune.json ({} apps, {} within 10% of oracle, \
                 seqsim err {:.3}, gate_pass: {})",
                bench.points.len(),
                bench.apps_within_10pct,
                bench.seqsim_median_rel_err,
                bench.gate_pass
            );
            if !bench.gate_pass {
                std::process::exit(1);
            }
        }
        "bench_sync" => {
            use bsp_harness::sync_bench;
            eprintln!("relaxed-synchronization bench (barrier curves, ocean, sort, checker)...");
            let bench = sync_bench::sweep_sync(full);
            let json = sync_bench::to_json(&bench);
            std::fs::write("BENCH_sync.json", &json).expect("write BENCH_sync.json");
            eprintln!(
                "wrote BENCH_sync.json (ocean neigh speedup {:.2}x, sort split ratio {:.2}x)",
                bench.ocean_speedup, bench.sort_ratio
            );
        }
        "check" => {
            if !bsp_harness::oracle::run_check(full) {
                std::process::exit(1);
            }
        }
        "faults" => {
            if !bsp_harness::oracle::run_faults(full) {
                std::process::exit(1);
            }
        }
        "lint" => {
            if !bsp_harness::lint::run_lint(full) {
                std::process::exit(1);
            }
        }
        "all" => {
            tables::fig2_1();
            let sweeps: Vec<Sweep> = App::ALL.iter().map(|&a| sweep_app(a, full)).collect();
            let ocean = &sweeps[0];
            if ocean.get(130, 2).is_some() {
                tables::fig1_1(ocean);
            }
            tables::fig3_1(&sweeps);
            tables::fig3_2(&sweeps);
            for sw in &sweeps {
                tables::c_table(sw);
            }
        }
        other => {
            eprintln!("unknown figure '{other}'");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

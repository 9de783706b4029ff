//! Autotuning bench: does the closed predict→schedule loop (DESIGN.md §16)
//! actually pick good configurations?
//!
//! For each of the six applications at a small fixed size, the sweep
//! profiles the program per processor count on the sequential simulator,
//! prices the full backend × `p` grid with [`green_bsp::tune::plan`]
//! (measured `g`/`L` via the calibration cache), then *measures* every
//! candidate (min of [`MEASURE_REPS`] walls) to obtain the oracle. The
//! interesting numbers per app:
//!
//! - `auto_vs_oracle` — measured wall of the tuner's pick over the best
//!   measured wall in the grid (1.0 = the tuner found the oracle);
//! - `win_vs_median` — how much the pick beats the *median* grid
//!   configuration (what a guess would cost you in expectation);
//! - `bit_identical` — the pick's output digest matches the sequential
//!   reference at the same `p` (tuning must never change results).
//!
//! Every candidate's prediction is scored against its measured wall via
//! [`green_bsp::tune::record_outcome`], and the per-backend median relative
//! error lands in the JSON. The CI gate checks only the seqsim error bound
//! ([`SEQSIM_ERR_BOUND`]): seqsim walls are deterministic single-thread
//! compute, so its error isolates model quality from scheduler noise.

use crate::apps::{self, App};
use green_bsp::{cal_cache_stats, run, try_run, tune, BackendKind, Config, TuneOpts};
use std::time::Duration;

/// Walls per candidate; the minimum is the candidate's measured time
/// (first-run pool warm-up and scheduler jitter are one-sided noise).
pub const MEASURE_REPS: usize = 5;

/// CI bound on the seqsim median relative prediction error. Committed
/// deliberately loose: the model prices packet traffic with calibrated
/// `g`/`L` from a synthetic probe, and app kernels have different
/// per-packet handling costs than the probe. Tighten as the model earns it.
pub const SEQSIM_ERR_BOUND: f64 = 0.35;

/// One measured grid point.
pub struct CandidatePoint {
    /// Backend name.
    pub backend: &'static str,
    /// Processor count.
    pub procs: usize,
    /// The cost model's prediction, ms.
    pub predicted_ms: f64,
    /// Best measured wall, ms.
    pub measured_ms: f64,
}

/// One application's autotuning outcome.
pub struct AppPoint {
    /// Application name.
    pub app: &'static str,
    /// Problem size.
    pub size: usize,
    /// Backend the tuner chose.
    pub chosen_backend: &'static str,
    /// Processor count the tuner chose.
    pub chosen_procs: usize,
    /// The chosen candidate's predicted wall, ms.
    pub predicted_ms: f64,
    /// Measured wall of the chosen candidate, ms.
    pub auto_ms: f64,
    /// Best measured wall across the grid, ms.
    pub oracle_ms: f64,
    /// Config that achieved the oracle.
    pub oracle_backend: &'static str,
    /// Processor count of the oracle config.
    pub oracle_procs: usize,
    /// Median measured wall across the grid, ms.
    pub median_ms: f64,
    /// Worst measured wall across the grid, ms.
    pub worst_ms: f64,
    /// `auto_ms / oracle_ms` (1.0 = tuner found the oracle).
    pub auto_vs_oracle: f64,
    /// `median_ms / auto_ms` (speedup over guessing).
    pub win_vs_median: f64,
    /// `worst_ms / auto_ms` (speedup over the worst guess).
    pub win_vs_worst: f64,
    /// The chosen config's digest matches the seqsim reference at the
    /// same `p`.
    pub bit_identical: bool,
    /// Every measured grid point.
    pub grid: Vec<CandidatePoint>,
}

/// The full sweep result.
pub struct AutotuneBench {
    /// Per-application outcomes.
    pub points: Vec<AppPoint>,
    /// Per-backend prediction-error digest ([`tune::error_summary`]).
    pub errors: Vec<tune::ErrorStat>,
    /// Calibration-cache traffic for the whole sweep.
    pub cache: green_bsp::CalCacheStats,
    /// Apps whose pick is within 10% of the oracle.
    pub apps_within_10pct: usize,
    /// Apps where the pick beats the median grid config by ≥ 1.5×.
    pub apps_with_15x_win: usize,
    /// Every pick reproduced the sequential reference bits.
    pub all_bit_identical: bool,
    /// Seqsim median relative prediction error (the gated number); `-1`
    /// if no seqsim run was scored.
    pub seqsim_median_rel_err: f64,
    /// `seqsim_median_rel_err <= SEQSIM_ERR_BOUND` (and bit-identity held).
    pub gate_pass: bool,
}

fn backend_name(b: BackendKind) -> &'static str {
    match b {
        BackendKind::Shared => "shared",
        BackendKind::MsgPass => "msgpass",
        BackendKind::TcpSim => "tcpsim",
        BackendKind::SeqSim => "seqsim",
        BackendKind::NetSim(_) => "netsim",
    }
}

/// Grid axes per app: the deterministic transports crossed with the
/// processor counts the app admits (matmult partitions on a square grid).
fn grid_procs(app: App) -> &'static [usize] {
    match app {
        App::Matmult => &[1, 4],
        _ => &[1, 2, 4],
    }
}

const GRID_BACKENDS: [BackendKind; 4] = [
    BackendKind::Shared,
    BackendKind::MsgPass,
    BackendKind::TcpSim,
    BackendKind::SeqSim,
];

/// Measure every candidate in interleaved rounds (each round touches each
/// candidate once) and keep the per-candidate minimum: a transient
/// slowdown of the host then degrades one *round*, spread fairly across
/// the grid, instead of poisoning whichever candidate it landed on.
fn measure_grid_ms(app: App, wl: &apps::Workload, cfgs: &[Config]) -> Vec<f64> {
    let programs: Vec<apps::Program> = cfgs.iter().map(|c| app.program(wl, c.nprocs)).collect();
    let mut best = vec![f64::INFINITY; cfgs.len()];
    for _ in 0..MEASURE_REPS {
        for (i, cfg) in cfgs.iter().enumerate() {
            let wall = run(cfg, &*programs[i]).wall;
            best[i] = best[i].min(wall.as_secs_f64() * 1e3);
        }
    }
    best
}

fn tune_app(app: App, size: usize) -> AppPoint {
    let wl = apps::prepare(app, size);
    // Profile the program per width on the sequential simulator, then
    // price the grid with measured g/L.
    let profiles: Vec<(usize, green_bsp::HProfile)> = grid_procs(app)
        .iter()
        .map(|&p| (p, apps::h_profile(app, &wl, p)))
        .collect();
    let opts = TuneOpts {
        backends: GRID_BACKENDS.to_vec(),
        max_procs: *grid_procs(app).last().unwrap(),
        try_hardened: false,
        try_relaxed: false,
    };
    let plan = tune::plan(&profiles, &opts);

    // Measure every candidate and score its prediction.
    let cfgs: Vec<Config> = plan
        .candidates
        .iter()
        .map(|c| Config::new(c.nprocs).backend(c.backend))
        .collect();
    let measured = measure_grid_ms(app, &wl, &cfgs);
    let mut grid = Vec::with_capacity(plan.candidates.len());
    for (cand, &measured_ms) in plan.candidates.iter().zip(&measured) {
        tune::record_outcome(
            cand.backend,
            Duration::from_secs_f64(cand.predicted_secs.max(0.0)),
            Duration::from_secs_f64(measured_ms / 1e3),
        );
        grid.push(CandidatePoint {
            backend: backend_name(cand.backend),
            procs: cand.nprocs,
            predicted_ms: cand.predicted_secs * 1e3,
            measured_ms,
        });
    }

    let chosen = plan.chosen();
    let auto_ms = grid[0].measured_ms;
    let mut walls: Vec<f64> = grid.iter().map(|c| c.measured_ms).collect();
    walls.sort_by(f64::total_cmp);
    let oracle_ms = walls[0];
    let median_ms = walls[walls.len() / 2];
    let worst_ms = *walls.last().unwrap();
    let oracle = grid
        .iter()
        .min_by(|a, b| a.measured_ms.total_cmp(&b.measured_ms))
        .unwrap();

    // Tuning must never change results: the pick's digest must match the
    // sequential reference at the same width.
    let program = app.program(&wl, chosen.nprocs);
    let digest = |backend| {
        try_run(&Config::new(chosen.nprocs).backend(backend), &*program).map(|o| o.results)
    };
    let bit_identical = match (digest(chosen.backend), digest(BackendKind::SeqSim)) {
        (Ok(got), Ok(want)) => got == want,
        _ => false,
    };

    AppPoint {
        app: app.name(),
        size,
        chosen_backend: backend_name(chosen.backend),
        chosen_procs: chosen.nprocs,
        predicted_ms: chosen.predicted_secs * 1e3,
        auto_ms,
        oracle_ms,
        oracle_backend: oracle.backend,
        oracle_procs: oracle.procs,
        median_ms,
        worst_ms,
        auto_vs_oracle: auto_ms / oracle_ms,
        win_vs_median: median_ms / auto_ms,
        win_vs_worst: worst_ms / auto_ms,
        bit_identical,
        grid,
    }
}

/// Run the full autotuning sweep. `full` bumps the problem sizes one notch
/// (the model's relative terms grow with size; small sizes are the *harder*
/// regime for the tuner because launch overhead competes with `W`).
pub fn sweep_autotune(full: bool) -> AutotuneBench {
    let mut points = Vec::new();
    for &app in App::ALL.iter() {
        let sizes = app.quick_sizes();
        let size = if full {
            *sizes.last().unwrap()
        } else {
            sizes[0]
        };
        eprintln!("  tuning {} (size {size})...", app.name());
        let pt = tune_app(app, size);
        eprintln!(
            "    chose {}/p={} — auto {:.2} ms, oracle {:.2} ms ({:.2}x), median win {:.2}x",
            pt.chosen_backend,
            pt.chosen_procs,
            pt.auto_ms,
            pt.oracle_ms,
            pt.auto_vs_oracle,
            pt.win_vs_median
        );
        points.push(pt);
    }
    let errors = tune::error_summary();
    let cache = cal_cache_stats();
    let apps_within_10pct = points.iter().filter(|p| p.auto_vs_oracle <= 1.10).count();
    let apps_with_15x_win = points.iter().filter(|p| p.win_vs_median >= 1.5).count();
    let all_bit_identical = points.iter().all(|p| p.bit_identical);
    let seqsim_median_rel_err = errors
        .iter()
        .find(|e| e.backend == "seqsim")
        .map(|e| e.median_rel_err)
        .unwrap_or(-1.0);
    let gate_pass = all_bit_identical && (0.0..=SEQSIM_ERR_BOUND).contains(&seqsim_median_rel_err);
    AutotuneBench {
        points,
        errors,
        cache,
        apps_within_10pct,
        apps_with_15x_win,
        all_bit_identical,
        seqsim_median_rel_err,
        gate_pass,
    }
}

/// Serialize to the committed `BENCH_autotune.json` shape.
pub fn to_json(b: &AutotuneBench) -> String {
    let mut s = String::from("{\n  \"bench\": \"autotune\",\n  \"apps\": [\n");
    for (i, p) in b.points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"app\": \"{}\", \"size\": {}, \"chosen\": \"{}/p{}\", \
             \"predicted_ms\": {:.4}, \"auto_ms\": {:.4}, \"oracle_ms\": {:.4}, \
             \"oracle\": \"{}/p{}\", \"median_ms\": {:.4}, \"worst_ms\": {:.4}, \
             \"auto_vs_oracle\": {:.4}, \"win_vs_median\": {:.4}, \
             \"win_vs_worst\": {:.4}, \"bit_identical\": {}, \"grid\": [",
            p.app,
            p.size,
            p.chosen_backend,
            p.chosen_procs,
            p.predicted_ms,
            p.auto_ms,
            p.oracle_ms,
            p.oracle_backend,
            p.oracle_procs,
            p.median_ms,
            p.worst_ms,
            p.auto_vs_oracle,
            p.win_vs_median,
            p.win_vs_worst,
            p.bit_identical,
        ));
        for (j, c) in p.grid.iter().enumerate() {
            s.push_str(&format!(
                "{{\"cfg\": \"{}/p{}\", \"predicted_ms\": {:.4}, \"measured_ms\": {:.4}}}{}",
                c.backend,
                c.procs,
                c.predicted_ms,
                c.measured_ms,
                if j + 1 < p.grid.len() { ", " } else { "" }
            ));
        }
        s.push_str(&format!(
            "]}}{}\n",
            if i + 1 < b.points.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"prediction_error\": [\n");
    for (i, e) in b.errors.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"backend\": \"{}\", \"count\": {}, \"median_rel_err\": {:.4}}}{}\n",
            e.backend,
            e.count,
            e.median_rel_err,
            if i + 1 < b.errors.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"cal_cache\": {{\"memory_hits\": {}, \"disk_hits\": {}, \"probes\": {}}},\n",
        b.cache.memory_hits, b.cache.disk_hits, b.cache.probes
    ));
    s.push_str(&format!(
        "  \"apps_within_10pct_of_oracle\": {},\n  \"apps_with_1_5x_win_vs_median\": {},\n  \
         \"all_bit_identical\": {},\n  \"seqsim_median_rel_err\": {:.4},\n  \
         \"seqsim_err_bound\": {:.4},\n  \"gate_pass\": {}\n}}\n",
        b.apps_within_10pct,
        b.apps_with_15x_win,
        b.all_bit_identical,
        b.seqsim_median_rel_err,
        SEQSIM_ERR_BOUND,
        b.gate_pass
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_app_tunes_and_serializes() {
        let pt = tune_app(App::Ocean, 66);
        assert!(pt.bit_identical, "pick changed the result bits");
        assert!(pt.auto_ms > 0.0 && pt.oracle_ms > 0.0);
        assert!(pt.auto_vs_oracle >= 1.0 - 1e-9);
        assert!(!pt.grid.is_empty());
        let bench = AutotuneBench {
            points: vec![pt],
            errors: tune::error_summary(),
            cache: cal_cache_stats(),
            apps_within_10pct: 1,
            apps_with_15x_win: 0,
            all_bit_identical: true,
            seqsim_median_rel_err: 0.1,
            gate_pass: true,
        };
        let j = to_json(&bench);
        assert!(j.contains("\"bench\": \"autotune\""));
        assert!(j.contains("\"app\": \"ocean\""));
        assert!(j.contains("\"gate_pass\": true"));
    }
}

//! `report check` — run the six paper applications under the BSP checker
//! on every backend.
//!
//! This is the harness face of `green_bsp::check`: each (application,
//! backend) pair runs with [`Config::checked`] and must produce zero
//! [`CheckReport`]s (the applications are correct BSP programs, so any
//! diagnostic is a checker false positive or a runtime bug — both
//! failures; the converted apps run with the byte lane active, so this
//! sweep also proves the byte-conservation ledger is false-positive-free).
//! A lane-agreement sweep then re-runs the byte-lane-converted apps
//! (nbody, ocean, sort) against their packet-marshalling variants on every
//! backend and demands bit-identical results. The slab-mailbox and barrier
//! protocols themselves are model-checked over the real code by the loom
//! suite (`crates/core/src/loom_tests.rs`, DESIGN.md §13), not here.

use crate::apps::{prepare, submit_digest, App, SEED};
use green_bsp::{global, run, BackendKind, Config, JobHandle};
use std::collections::VecDeque;

/// Submitted sweep cells kept in flight at once (DESIGN.md §11): enough to
/// overlap one job's merge/teardown with the next ones' compute, small
/// enough that `WINDOW × p` runnable threads do not thrash the host.
const WINDOW: usize = 4;

/// Backends the checker sweep covers: the deterministic four from the
/// canonical [`crate::ALL_BACKENDS`] list. NetSim is excluded — it shares
/// the shared-memory delivery path and only adds modelled delays, which
/// the checker does not observe.
fn checked_backends() -> impl Iterator<Item = BackendKind> {
    crate::ALL_BACKENDS[..4].iter().map(|&(_, b)| b)
}

/// Problem size per app for the checked sweep. Checked runs pay for
/// tracking, so these are the smallest sizes that still exercise every
/// superstep pattern.
fn check_size(app: App) -> usize {
    match app {
        App::Ocean => 34,
        App::Nbody => 500,
        App::Matmult => 48,
        _ => 400,
    }
}

/// Run the full checker suite; returns `true` when everything is clean.
pub fn run_check(full: bool) -> bool {
    run_check_opts(full, false)
}

/// [`run_check`] with the relaxed-synchronization sweep toggled on
/// (`report check --sync-modes`): every converted app runs bulk-synchronous
/// and relaxed (neighborhood barriers, split-phase boundaries) under the
/// checker, demanding bit-identical results and zero diagnostics either
/// way — the checker must have no relaxed-mode false positives.
pub fn run_check_opts(full: bool, sync_modes: bool) -> bool {
    let mut clean = true;
    let p = 4;

    // The checked cells are independent jobs, so they go through
    // `Runtime::submit` on the process-global pool with a small sliding
    // window instead of running strictly one after another; each cell's
    // diagnostics are inspected as its handle completes, in submission
    // order.
    eprintln!("== checked application sweep (p = {p}, {WINDOW} jobs in flight) ==");
    let rt = global();
    let mut pending: VecDeque<CheckedCell> = VecDeque::new();
    for app in App::ALL {
        let size = if full {
            app.quick_sizes()[0]
        } else {
            check_size(app)
        };
        let wl = prepare(app, size);
        for backend in checked_backends() {
            let cfg = Config::new(p).backend(backend).checked();
            pending.push_back((app, size, backend, submit_digest(rt, app, &wl, &cfg)));
            if pending.len() >= WINDOW {
                clean &= join_checked_cell(pending.pop_front().expect("window is non-empty"));
            }
        }
    }
    while let Some(cell) = pending.pop_front() {
        clean &= join_checked_cell(cell);
    }

    eprintln!("== lane agreement sweep (byte lane vs packets, p = {p}) ==");
    for backend in checked_backends() {
        for (name, ok) in lane_agreement(p, backend) {
            if ok {
                eprintln!("  {:8} {:8?}: bit-identical", name, backend);
            } else {
                clean = false;
                eprintln!("  {:8} {:8?}: LANES DISAGREE", name, backend);
            }
        }
    }

    eprintln!("== streaming sweep (tiled apps under the checker, p = {p}) ==");
    clean &= streaming_check(p);

    if sync_modes {
        eprintln!("== sync-mode agreement sweep (bulk vs relaxed, checked, p = {p}) ==");
        for backend in checked_backends() {
            for (name, ok, reports) in sync_mode_agreement(p, backend) {
                if ok && reports == 0 {
                    eprintln!("  {:8} {:8?}: bit-identical, no diagnostics", name, backend);
                } else {
                    clean = false;
                    eprintln!(
                        "  {:8} {:8?}: {}{}",
                        name,
                        backend,
                        if ok { "" } else { "MODES DISAGREE " },
                        if reports > 0 {
                            format!("{reports} RELAXED-MODE DIAGNOSTIC(S)")
                        } else {
                            String::new()
                        }
                    );
                }
            }
        }
    }

    if clean {
        eprintln!("checker: all clean");
    } else {
        eprintln!("checker: FAILURES (see above)");
    }
    clean
}

/// Run both streaming applications end-to-end under [`Config::checked`]
/// (DESIGN.md §14): every tile job runs with full phase-discipline
/// tracking, and the sweep demands zero diagnostics *and* bit-identical
/// results against the in-core versions. Checked configs are not
/// arena-eligible, so this also exercises the streaming driver's cold
/// launch path.
fn streaming_check(p: usize) -> bool {
    use bsp_ocean::tiled::{initial_grid, jacobi_in_core, tiled_jacobi};
    use bsp_sort::external_sample_sort;
    use green_bsp::{Runtime, StreamConfig, TileStore};

    let dir = std::env::temp_dir().join(format!("green-bsp-check-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create check spill dir");
    let rt = Runtime::new();
    let cfg = Config::new(p).checked();
    let mut clean = true;
    let cell = |name: &str, reports: usize, identical: bool| {
        if reports == 0 && identical {
            eprintln!("  {name:8} checked : clean, bit-identical to in-core");
        } else {
            eprintln!(
                "  {name:8} checked : {}{}",
                if reports > 0 {
                    format!("{reports} DIAGNOSTIC(S) ")
                } else {
                    String::new()
                },
                if identical { "" } else { "NOT BIT-IDENTICAL" }
            );
        }
        reports == 0 && identical
    };

    // External sort: 4096 keys in 8 tiles.
    {
        let keys: Vec<u64> = (0..4096u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let bytes: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
        let input = TileStore::create_in(&dir, "sort-in.keys").expect("input store");
        input.write_all(&bytes).expect("write input");
        let output = TileStore::create_in(&dir, "sort-out.keys").expect("output store");
        let sc = StreamConfig::new(bytes.len() / 8).record(8).spill_dir(&dir);
        let res = external_sample_sort(&rt, &cfg, &sc, &input, &output).expect("checked sort");
        let mut want = keys;
        want.sort_unstable();
        let want: Vec<u8> = want.iter().flat_map(|k| k.to_le_bytes()).collect();
        clean &= cell(
            "extsort",
            res.stats.check_reports.len(),
            output.read_to_vec().expect("read output") == want,
        );
    }

    // Tiled ocean: 32x32 grid, 2 sweeps, 4-row tiles.
    {
        let n = 32;
        let u0 = initial_grid(n);
        let gb: Vec<u8> = u0.iter().flat_map(|v| v.to_le_bytes()).collect();
        let ping = TileStore::create_in(&dir, "ocean-ping.grid").expect("ping store");
        ping.write_all(&gb).expect("write ping");
        let pong = TileStore::create_in(&dir, "ocean-pong.grid").expect("pong store");
        pong.write_all(&vec![0u8; gb.len()]).expect("write pong");
        let sc = StreamConfig::new(4 * n * 8).spill_dir(&dir);
        let res = tiled_jacobi(&rt, &cfg, &sc, n, &ping, &pong, 2).expect("checked ocean");
        let mut want = u0;
        jacobi_in_core(n, &mut want, 2);
        let want: Vec<u8> = want.iter().flat_map(|v| v.to_le_bytes()).collect();
        let got = if res.result_in_pong { &pong } else { &ping };
        clean &= cell(
            "ocean",
            res.stats.check_reports.len(),
            got.read_to_vec().expect("read result") == want,
        );
    }

    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    clean
}

/// One in-flight checked sweep cell: `(app, size, backend, handle)`.
type CheckedCell = (App, usize, BackendKind, JobHandle<u64>);

/// Join one submitted checked cell and report its diagnostics; returns
/// `false` when the cell fails (phantom fault counters, checker
/// diagnostics, or a run error).
fn join_checked_cell((app, size, backend, handle): CheckedCell) -> bool {
    let out = match handle.join() {
        Ok(out) => out,
        Err(e) => {
            eprintln!(
                "  {:8} {:8?} size {:>6}: run FAILED: {e}",
                app.name(),
                backend,
                size
            );
            return false;
        }
    };
    let stats = &out.stats;
    let mut ok = true;
    // A checked, unfaulted run must also show zero fault activity —
    // nonzero counters here mean phantom injection or detection.
    if !stats.faults.is_zero() {
        ok = false;
        eprintln!(
            "  {:8} {:8?} size {:>6}: PHANTOM FAULT ACTIVITY {:?}",
            app.name(),
            backend,
            size,
            stats.faults
        );
    }
    if stats.check_reports.is_empty() {
        eprintln!(
            "  {:8} {:8?} size {:>6}: clean ({} supersteps, {:.1?}, sync-wait {:.1}ms, faults {}/{})",
            app.name(),
            backend,
            size,
            stats.s(),
            out.wall,
            stats.sync_wait_ms(),
            stats.faults.injected,
            stats.faults.detected
        );
    } else {
        ok = false;
        eprintln!(
            "  {:8} {:8?} size {:>6}: {} DIAGNOSTIC(S)",
            app.name(),
            backend,
            size,
            stats.check_reports.len()
        );
        for r in &stats.check_reports {
            eprintln!("    {r}");
        }
    }
    ok
}

/// Run the relaxed-synchronization-converted apps on `backend` under the
/// checker, bulk-synchronous vs relaxed, and compare results bit for bit.
/// Returns `(app, agree, relaxed-run diagnostics)` per app. The checked
/// relaxed run proves the checker raises no false positives on a correct
/// relaxed program (graph-violating sends would surface as
/// `graph-violating-send` reports).
fn sync_mode_agreement(p: usize, backend: BackendKind) -> Vec<(&'static str, bool, usize)> {
    let mut out = Vec::new();

    // Ocean: two multigrid V-cycles, every eligible boundary relaxed over
    // the ghost graph.
    {
        use bsp_ocean::grid::{apply_boundary, ghost_graph};
        use bsp_ocean::{solve, CycleMode, Hierarchy, MgParams, MgWorkspace};
        let n = 32;
        let mode = |relaxed: bool| {
            let mut cfg = Config::new(p).backend(backend).checked();
            if relaxed {
                cfg = cfg.sync_graph(&ghost_graph(p));
            }
            let res = run(&cfg, move |ctx| {
                let hier = Hierarchy::new(ctx.pid(), p, n, 8);
                let mut ws = MgWorkspace::new(&hier);
                let l = hier.levels[0];
                for i in 1..=l.rows {
                    for j in 1..=l.cols {
                        let (gi, gj) = (l.r0 + i - 1, l.c0 + j - 1);
                        ws.f[0][l.at(i, j)] = ((gi * 13 + gj * 7) % 11) as f64 - 5.0;
                    }
                }
                apply_boundary(&hier, 0, &mut ws.u[0]);
                let prm = MgParams {
                    relaxed,
                    mode: CycleMode::Fixed(2),
                    ..MgParams::default()
                };
                solve(ctx, &hier, &mut ws, &prm);
                ws.u[0].clone()
            });
            (res.results, res.stats.check_reports.len())
        };
        let (bulk, bulk_reports) = mode(false);
        let (relaxed, relaxed_reports) = mode(true);
        out.push(("ocean", bulk == relaxed, bulk_reports + relaxed_reports));
    }

    // Sample sort: fused vs split-phase boundaries.
    {
        use bsp_sort::sample_sort_mode;
        let mode = |split: bool| {
            let res = run(&Config::new(p).backend(backend).checked(), move |ctx| {
                let me = ctx.pid() as u64;
                let keys: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(me * 2 + 7)).collect();
                sample_sort_mode(ctx, keys, true, split)
            });
            (res.results, res.stats.check_reports.len())
        };
        let (fused, fused_reports) = mode(false);
        let (split, split_reports) = mode(true);
        out.push(("sort", fused == split, fused_reports + split_reports));
    }

    out
}

/// Run each byte-lane-converted app on `backend` with both transport lanes
/// and compare results bit for bit. Returns `(app, agree)` per app.
fn lane_agreement(p: usize, backend: BackendKind) -> Vec<(&'static str, bool)> {
    let mut out = Vec::new();

    // N-body: full 5-superstep driver, 2 iterations (migration + essential
    // exchange both exercised).
    {
        use bsp_nbody::{initial_partition, nbody_sim_with, plummer, SimConfig};
        let n = 400;
        let bodies = plummer(n, SEED);
        let (parts, cuts) = initial_partition(&bodies, p);
        let sim = SimConfig {
            iters: 2,
            ..SimConfig::default()
        };
        let lane = |byte_lane: bool| {
            run(&Config::new(p).backend(backend), |ctx| {
                nbody_sim_with(
                    ctx,
                    parts[ctx.pid()].clone(),
                    cuts.clone(),
                    n,
                    &sim,
                    byte_lane,
                )
                .bodies
            })
            .results
        };
        out.push(("nbody", lane(true) == lane(false)));
    }

    // Sample sort: splitter all-gather + bucket all-to-all.
    {
        use bsp_sort::sample_sort_with;
        let lane = |byte_lane: bool| {
            run(&Config::new(p).backend(backend), move |ctx| {
                let me = ctx.pid() as u64;
                let keys: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(me * 2 + 7)).collect();
                sample_sort_with(ctx, keys, byte_lane)
            })
            .results
        };
        out.push(("sort", lane(true) == lane(false)));
    }

    // Ocean: one ghost-ring exchange on the finest level.
    {
        use bsp_ocean::{exchange_ghosts_with, Hierarchy};
        let n = 32;
        let lane = |byte_lane: bool| {
            run(&Config::new(p).backend(backend), move |ctx| {
                let h = Hierarchy::new(ctx.pid(), p, n, 8);
                let l = h.levels[0];
                let mut f = l.zeros();
                for i in 1..=l.rows {
                    for j in 1..=l.cols {
                        let (gi, gj) = (l.r0 + i - 1, l.c0 + j - 1);
                        f[l.at(i, j)] = ((gi * n + gj) as f64 * 0.9173).cos();
                    }
                }
                exchange_ghosts_with(ctx, &h, 0, &mut f, byte_lane);
                f
            })
            .results
        };
        out.push(("ocean", lane(true) == lane(false)));
    }

    out
}

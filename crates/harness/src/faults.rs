//! `report faults` — fault-injection sweep over the six paper applications
//! (DESIGN.md §10).
//!
//! Five sweeps, all of which must hold for the run to pass:
//!
//! 1. **Fault-free hardened**: the guarded exchange's checksums, sequence
//!    numbers and retransmit rounds enabled with no fault plan must be
//!    invisible — bit-identical digests, all-zero fault counters (no false
//!    detections or recoveries).
//! 2. **Recoverable classes**: every app × backend × recoverable fault
//!    class (drop, duplicate, reorder, corrupt, delay, straggler) completes
//!    with a digest bit-identical to the fault-free run, and the counters
//!    prove the fault was injected *and* detected.
//! 3. **Relaxed-mode recoverable classes**: the relaxed-converted ocean
//!    multigrid (neighborhood boundaries over the ghost graph) heals every
//!    recoverable class bit-identically. Hardening gates Neighborhood
//!    boundaries down to Full internally (DESIGN.md §12) — this sweep
//!    proves the relaxed program *structure* composes with recovery.
//! 4. **Unrecoverable classes**: an injected proc panic surfaces as
//!    [`BspError::ProcPanicked`] and a persistent corruption exhausts the
//!    guarded exchange's retransmit budget into `Transport(RetryExhausted)`
//!    — structured failures, never hangs.
//! 5. **Checkpoint rollback**: a transient panic under a checkpoint policy
//!    rolls back and still converges to the bit-identical digest.

use crate::apps::{prepare, submit_digest, try_execute_digest, App, Workload};
use green_bsp::{
    global, BackendKind, BspError, CheckpointPolicy, Config, FaultEvent, FaultKind, FaultPlan,
    FaultTolerance, JobHandle, TransportErrorKind,
};
use std::collections::VecDeque;
use std::time::Duration;

/// Backends the fault sweep covers — all five library implementations,
/// from the canonical [`crate::ALL_BACKENDS`] list (NetSim at zero modelled
/// delay; `FaultKind::Delay` injection is independent of the delay model).
fn backends() -> impl Iterator<Item = BackendKind> {
    crate::ALL_BACKENDS.iter().map(|&(_, b)| b)
}

/// Submitted cells kept in flight at once for the fault-free phases (same
/// rationale as the checker sweep's window). Fault-injected cells stay
/// serial: the straggler class detects via a wall-clock deadline, and
/// co-scheduled jobs could push a healthy data round past it.
const WINDOW: usize = 4;

/// One in-flight digest cell: `(app index, backend index, handle)`.
type DigestCell = (usize, usize, JobHandle<u64>);

/// Join one submitted bare-reference cell into the `refs` table.
fn settle_bare(refs: &mut [Vec<Option<Vec<u64>>>], clean: &mut bool, (ai, bi, handle): DigestCell) {
    match handle.join() {
        Ok(out) => refs[ai][bi] = Some(out.results),
        Err(e) => {
            *clean = false;
            eprintln!(
                "  {:8} {:8?}: bare run FAILED: {e}",
                App::ALL[ai].name(),
                crate::ALL_BACKENDS[bi].1
            );
        }
    }
}

/// Join one submitted hardened cell: identical digest to the bare
/// reference, all-zero fault counters.
fn settle_hardened(refs: &[Vec<Option<Vec<u64>>>], clean: &mut bool, (ai, bi, handle): DigestCell) {
    let app = App::ALL[ai];
    let backend = crate::ALL_BACKENDS[bi].1;
    // A missing reference was already reported by `settle_bare`.
    let Some(bare) = refs[ai][bi].as_ref() else {
        return;
    };
    match handle.join() {
        Ok(out) => {
            let identical = &out.results == bare;
            let silent = out.stats.faults.is_zero();
            if identical && silent {
                eprintln!("  {:8} {:8?}: invisible", app.name(), backend);
            } else {
                *clean = false;
                eprintln!(
                    "  {:8} {:8?}: identical={identical} counters={:?}",
                    app.name(),
                    backend,
                    out.stats.faults
                );
            }
        }
        Err(e) => {
            *clean = false;
            eprintln!(
                "  {:8} {:8?}: hardened run FAILED: {e}",
                app.name(),
                backend
            );
        }
    }
}

/// Problem size per app (the smallest that still exercises every superstep
/// pattern; fault runs pay for reference + faulted executions per cell).
fn fault_size(app: App, full: bool) -> usize {
    if full {
        return app.quick_sizes()[0];
    }
    match app {
        App::Ocean => 34,
        App::Nbody => 500,
        App::Matmult => 48,
        _ => 400,
    }
}

/// Straggler detection threshold: well above a healthy data round at these
/// sizes, well below the injected 80ms straggler sleep.
const STRAGGLER_DEADLINE: Duration = Duration::from_millis(30);

/// Run the fault sweep; returns `true` when everything holds.
pub fn run_faults(full: bool) -> bool {
    // Injected faults panic by design (that is how the transport layers
    // unwind); without this filter every expected failure spews a backtrace
    // and the sweep's actual verdict drowns. Real application panics (plain
    // string payloads) still print. Left installed: this process exits
    // right after the sweep.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info.payload().downcast_ref::<BspError>().is_some()
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected fault"))
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.starts_with("injected fault"));
        if !expected {
            default_hook(info);
        }
    }));

    let mut clean = true;
    let p = 4;
    let rt = global();

    // Workloads prepared once and shared by every sweep below (the sweeps
    // previously re-prepared identical workloads from the same seed).
    let workloads: Vec<Workload> = App::ALL
        .iter()
        .map(|&app| prepare(app, fault_size(app, full)))
        .collect();

    // Bare reference digests for every (app, backend) cell, computed as
    // concurrent jobs on the persistent runtime. Both digest sweeps below
    // compare against this table, so the references are paid for once.
    eprintln!("== bare reference digests (p = {p}, {WINDOW} jobs in flight) ==");
    let mut refs: Vec<Vec<Option<Vec<u64>>>> =
        vec![vec![None; crate::ALL_BACKENDS.len()]; App::ALL.len()];
    let mut pending: VecDeque<DigestCell> = VecDeque::new();
    for (ai, &app) in App::ALL.iter().enumerate() {
        for (bi, &(_, backend)) in crate::ALL_BACKENDS.iter().enumerate() {
            let cfg = Config::new(p).backend(backend);
            pending.push_back((ai, bi, submit_digest(rt, app, &workloads[ai], &cfg)));
            if pending.len() >= WINDOW {
                settle_bare(
                    &mut refs,
                    &mut clean,
                    pending.pop_front().expect("non-empty"),
                );
            }
        }
    }
    while let Some(cell) = pending.pop_front() {
        settle_bare(&mut refs, &mut clean, cell);
    }
    eprintln!(
        "  {} cells referenced (arena {} hits / {} misses)",
        App::ALL.len() * crate::ALL_BACKENDS.len(),
        rt.arena_hits(),
        rt.arena_misses()
    );

    eprintln!("== fault-free hardened sweep (p = {p}, {WINDOW} jobs in flight) ==");
    for (ai, &app) in App::ALL.iter().enumerate() {
        for (bi, &(_, backend)) in crate::ALL_BACKENDS.iter().enumerate() {
            let cfg = Config::new(p).backend(backend).hardened();
            pending.push_back((ai, bi, submit_digest(rt, app, &workloads[ai], &cfg)));
            if pending.len() >= WINDOW {
                settle_hardened(&refs, &mut clean, pending.pop_front().expect("non-empty"));
            }
        }
    }
    while let Some(cell) = pending.pop_front() {
        settle_hardened(&refs, &mut clean, cell);
    }

    eprintln!("== recoverable-class sweep (p = {p}, 1 event at step 1, serial) ==");
    for (ai, &app) in App::ALL.iter().enumerate() {
        let wl = &workloads[ai];
        for (bi, &(_, backend)) in crate::ALL_BACKENDS.iter().enumerate() {
            // Bare failure already reported while building the table.
            let Some(bare) = refs[ai][bi].as_ref() else {
                continue;
            };
            let mut healed = Vec::new();
            for kind in FaultKind::RECOVERABLE {
                let plan = FaultPlan::new(0xFA17).with(FaultEvent {
                    pid: 1,
                    step: 1,
                    dest: 2,
                    kind,
                });
                let tol = FaultTolerance {
                    superstep_deadline: (kind == FaultKind::Straggler)
                        .then_some(STRAGGLER_DEADLINE),
                    ..FaultTolerance::default()
                };
                let cfg = Config::new(p).backend(backend).faults(plan).tolerant(tol);
                match try_execute_digest(app, wl, &cfg) {
                    Ok((digest, stats)) => {
                        let f = &stats.faults;
                        if &digest == bare && f.injected >= 1 && f.detected >= 1 {
                            healed.push(kind);
                        } else {
                            clean = false;
                            eprintln!(
                                "  {:8} {:8?} {kind:?}: identical={} counters={f:?}",
                                app.name(),
                                backend,
                                &digest == bare
                            );
                        }
                    }
                    Err(e) => {
                        clean = false;
                        eprintln!("  {:8} {:8?} {kind:?}: FAILED: {e}", app.name(), backend);
                    }
                }
            }
            if healed.len() == FaultKind::RECOVERABLE.len() {
                eprintln!(
                    "  {:8} {:8?}: all {} classes healed bitwise",
                    app.name(),
                    backend,
                    healed.len()
                );
            }
        }
    }

    eprintln!(
        "== relaxed-mode recoverable sweep (p = {p}, ocean multigrid over ghost graph, shared) =="
    );
    {
        use bsp_ocean::grid::{apply_boundary, ghost_graph};
        use bsp_ocean::{solve, CycleMode, Hierarchy, MgParams, MgWorkspace};
        let n = 32;
        // The relaxed-converted ocean multigrid (neighborhood boundaries on
        // every eligible ghost exchange), digested to one FNV word per
        // processor.
        let digest = |cfg: &Config, relaxed: bool| {
            green_bsp::try_run(cfg, move |ctx| {
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
                ws.u[0].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                    (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
                })
            })
        };
        let bulk = digest(&Config::new(p), false);
        let bare = digest(&Config::new(p).sync_graph(&ghost_graph(p)), true);
        match (&bulk, &bare) {
            (Ok(b), Ok(r)) if b.results == r.results => {
                // Per-class cells: the tolerant run hardens the exchange,
                // which gates Neighborhood down to Full (DESIGN.md §12) —
                // the relaxed program structure must still heal bitwise.
                for kind in FaultKind::RECOVERABLE {
                    let plan = FaultPlan::new(0x51AC).with(FaultEvent {
                        pid: 1,
                        step: 1,
                        dest: 2,
                        kind,
                    });
                    let tol = FaultTolerance {
                        superstep_deadline: (kind == FaultKind::Straggler)
                            .then_some(STRAGGLER_DEADLINE),
                        ..FaultTolerance::default()
                    };
                    let cfg = Config::new(p)
                        .sync_graph(&ghost_graph(p))
                        .faults(plan)
                        .tolerant(tol);
                    match digest(&cfg, true) {
                        Ok(out) => {
                            let f = &out.stats.faults;
                            if out.results == r.results && f.injected >= 1 && f.detected >= 1 {
                                eprintln!("  relaxed  {kind:?}: healed bitwise (gated to Full)");
                            } else {
                                clean = false;
                                eprintln!(
                                    "  relaxed  {kind:?}: identical={} counters={f:?}",
                                    out.results == r.results
                                );
                            }
                        }
                        Err(e) => {
                            clean = false;
                            eprintln!("  relaxed  {kind:?}: FAILED: {e}");
                        }
                    }
                }
            }
            (Ok(b), Ok(r)) => {
                clean = false;
                eprintln!(
                    "  relaxed baseline DIVERGED from bulk: {:?} vs {:?}",
                    b.results, r.results
                );
            }
            (b, r) => {
                clean = false;
                if let Err(e) = b {
                    eprintln!("  bulk baseline FAILED: {e}");
                }
                if let Err(e) = r {
                    eprintln!("  relaxed baseline FAILED: {e}");
                }
            }
        }
    }

    eprintln!("== unrecoverable-class sweep (p = {p}, app sp) ==");
    {
        let app = App::Sp;
        let wl = &workloads[App::ALL
            .iter()
            .position(|&a| a == app)
            .expect("app is in App::ALL")];
        for backend in backends() {
            let panic_plan = FaultPlan::new(1).with(FaultEvent {
                pid: 1,
                step: 1,
                dest: 0,
                kind: FaultKind::Panic,
            });
            match try_execute_digest(app, wl, &Config::new(p).backend(backend).faults(panic_plan)) {
                Err(BspError::ProcPanicked { pid: 1, .. }) => {
                    eprintln!("  panic    {backend:8?}: structured ProcPanicked");
                }
                Err(e) => {
                    clean = false;
                    eprintln!("  panic    {backend:8?}: WRONG ERROR: {e}");
                }
                Ok(_) => {
                    clean = false;
                    eprintln!("  panic    {backend:8?}: run SUCCEEDED past an injected panic");
                }
            }

            let corrupt_plan = FaultPlan::new(2)
                .with(FaultEvent {
                    pid: 1,
                    step: 1,
                    dest: 2,
                    kind: FaultKind::Corrupt,
                })
                .persistent();
            let tol = FaultTolerance {
                max_retries: 2,
                ..FaultTolerance::default()
            };
            let cfg = Config::new(p)
                .backend(backend)
                .faults(corrupt_plan)
                .tolerant(tol);
            match try_execute_digest(app, wl, &cfg) {
                Err(BspError::Transport(te))
                    if matches!(te.kind, TransportErrorKind::RetryExhausted) =>
                {
                    eprintln!("  persist  {backend:8?}: clean RetryExhausted");
                }
                Err(e) => {
                    clean = false;
                    eprintln!("  persist  {backend:8?}: WRONG ERROR: {e}");
                }
                Ok(_) => {
                    clean = false;
                    eprintln!("  persist  {backend:8?}: run SUCCEEDED past persistent corruption");
                }
            }
        }
    }

    eprintln!("== checkpoint-rollback sweep (p = {p}, transient panic at step 2) ==");
    for app in [App::Nbody, App::Ocean] {
        let ai = App::ALL
            .iter()
            .position(|&a| a == app)
            .expect("app is in App::ALL");
        let wl = &workloads[ai];
        // The deterministic first three backends (shared, msgpass, tcpsim);
        // references come from the table built up front.
        for (bi, &(_, backend)) in crate::ALL_BACKENDS[..3].iter().enumerate() {
            let Some(bare) = refs[ai][bi].as_ref() else {
                continue;
            };
            let plan = FaultPlan::new(3).with(FaultEvent {
                pid: 1,
                step: 2,
                dest: 0,
                kind: FaultKind::Panic,
            });
            let tol = FaultTolerance {
                checkpoint: Some(CheckpointPolicy {
                    every_supersteps: 2,
                }),
                ..FaultTolerance::default()
            };
            let cfg = Config::new(p).backend(backend).faults(plan).tolerant(tol);
            match try_execute_digest(app, wl, &cfg) {
                Ok((digest, stats)) => {
                    let f = &stats.faults;
                    if &digest == bare && f.rolled_back >= 1 {
                        eprintln!(
                            "  {:8} {:8?}: recovered bitwise ({} rollback(s), {}ms)",
                            app.name(),
                            backend,
                            f.rolled_back,
                            f.recovery_ms
                        );
                    } else {
                        clean = false;
                        eprintln!(
                            "  {:8} {:8?}: identical={} counters={f:?}",
                            app.name(),
                            backend,
                            &digest == bare
                        );
                    }
                }
                Err(e) => {
                    clean = false;
                    eprintln!("  {:8} {:8?}: rollback FAILED: {e}", app.name(), backend);
                }
            }
        }
    }

    if clean {
        eprintln!("faults: all clean");
    } else {
        eprintln!("faults: FAILURES (see above)");
    }
    clean
}

//! Fault-injection corpus and property tests (DESIGN.md §10).
//!
//! Recoverable fault classes (drop, duplicate, reorder, corrupt, delay,
//! straggler) must heal transparently under a hardened transport: the run
//! completes with results bit-identical to a fault-free run, and the fault
//! counters prove the faults were both injected and detected. Unrecoverable
//! classes (proc panic, retry-budget exhaustion) must surface as structured
//! [`BspError`]s — never a hang, never a silent wrong answer — and
//! checkpoint-rollback must turn a transient panic back into a bit-identical
//! success.

mod common;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use common::{backends, matches_seqsim};
use green_bsp::{
    try_run, BackendKind, BarrierKind, BspError, CheckKind, CheckpointPolicy, Config, Ctx,
    FaultEvent, FaultKind, FaultPlan, FaultTolerance, Packet, RunStats, TransportErrorKind,
};
use proptest::prelude::*;

/// Supersteps run by the digest app.
const STEPS: usize = 5;

fn encode_state(acc: u64, log: &[u64], step: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(16 + log.len() * 8);
    v.extend_from_slice(&acc.to_le_bytes());
    v.extend_from_slice(&(step as u64).to_le_bytes());
    for x in log {
        v.extend_from_slice(&x.to_le_bytes());
    }
    v
}

fn decode_state(b: &[u8]) -> (u64, Vec<u64>, usize) {
    let acc = u64::from_le_bytes(b[0..8].try_into().unwrap());
    let step = u64::from_le_bytes(b[8..16].try_into().unwrap()) as usize;
    let log = b[16..]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    (acc, log, step)
}

/// A deterministic multi-superstep program exercising both the packet lane
/// and the byte lane. Per superstep it folds everything received into a
/// running digest in delivery order, so a healed superstep must deliver the
/// very sequence a clean one does. Checkpoint-aware: resumes mid-run after
/// a rollback.
fn digest_app(ctx: &mut Ctx) -> Vec<u64> {
    let (me, p) = (ctx.pid(), ctx.nprocs());
    let (mut acc, mut log, start) = match ctx.restore_checkpoint() {
        Some(blob) => decode_state(&blob),
        None => (me as u64 + 1, Vec::new(), 0),
    };
    for step in start..STEPS {
        if ctx.checkpoint_due() {
            ctx.save_checkpoint(&encode_state(acc, &log, step));
        }
        for dest in 0..p {
            let tag = ((step as u64) << 32) | ((me as u64) << 16) | dest as u64;
            ctx.send_pkt(dest, Packet::two_u64(acc ^ tag, tag));
            ctx.send_pkt(dest, Packet::two_u64(tag, acc));
        }
        let nb = (step * 7 + me * 3) % 23;
        let payload: Vec<u8> = (0..nb)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(me as u8))
            .collect();
        ctx.send_bytes((me + step + 1) % p, &payload);
        ctx.sync();

        while let Some(pkt) = ctx.get_pkt() {
            let (a, b) = pkt.as_two_u64();
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ a ^ b.rotate_left(17);
        }
        while let Some((src, b)) = ctx.recv_bytes() {
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (src as u64) << 8;
            for &byte in b {
                acc = acc.wrapping_mul(31).wrapping_add(u64::from(byte));
            }
        }
        log.push(acc);
    }
    log
}

fn digest(cfg: &Config) -> Result<(Vec<Vec<u64>>, RunStats), BspError> {
    let out = try_run(cfg, digest_app)?;
    Ok((out.results, out.stats))
}

/// Fault-free reference digest on the shared backend.
fn reference(p: usize) -> Vec<Vec<u64>> {
    digest(&Config::new(p)).expect("fault-free run").0
}

// ------------------------------------------------------------- fault-free

/// Hardening with no fault plan must be invisible: bare and hardened, every
/// stack reproduces the simulator's results with all-zero fault counters
/// (no false detections, no recoveries) and no check reports.
#[test]
fn fault_free_hardened_run_is_invisible() {
    let p = 4;
    let bare = matches_seqsim(p, |cfg| cfg, digest_app);
    let hardened = matches_seqsim(p, Config::hardened, digest_app);
    assert_eq!(bare.results, hardened.results);
}

// ---------------------------------------------------- recoverable classes

/// Every recoverable fault class, on every backend, heals to a bit-identical
/// result — and the counters prove the fault was really injected and really
/// detected (no vacuous pass).
#[test]
fn each_recoverable_class_heals_bitwise() {
    let p = 4;
    let want = reference(p);
    for kind in FaultKind::RECOVERABLE {
        let plan = FaultPlan::new(0xC0FFEE).with(FaultEvent {
            pid: 1,
            step: 2,
            dest: 2,
            kind,
        });
        // Straggler detection needs a deadline; the injected sleep is 80ms,
        // so 30ms is comfortably between a normal round and the straggler.
        let tol = FaultTolerance {
            superstep_deadline: (kind == FaultKind::Straggler).then_some(Duration::from_millis(30)),
            ..FaultTolerance::default()
        };
        for (name, cfg) in backends(p) {
            let cfg = cfg.faults(plan.clone()).tolerant(tol.clone());
            let (got, stats) = digest(&cfg).unwrap_or_else(|e| panic!("{kind:?} on {name}: {e}"));
            assert_eq!(want, got, "{kind:?} on {name} diverged");
            assert!(
                stats.faults.injected >= 1,
                "{kind:?} on {name}: fault never injected"
            );
            assert!(
                stats.faults.detected >= 1,
                "{kind:?} on {name}: fault injected but never detected"
            );
        }
    }
}

// -------------------------------------------------- unrecoverable classes

/// An injected proc panic surfaces as a structured `ProcPanicked` (the
/// panicking proc wins over its peers' `PeerFailed`) on every backend —
/// and the run terminates rather than deadlocking at the next barrier.
#[test]
fn panic_fault_yields_structured_error_on_every_backend() {
    let p = 3;
    let plan = FaultPlan::new(1).with(FaultEvent {
        pid: 1,
        step: 1,
        dest: 0,
        kind: FaultKind::Panic,
    });
    for (name, cfg) in backends(p) {
        let err = digest(&cfg.faults(plan.clone())).expect_err("panic fault must fail the run");
        match err {
            BspError::ProcPanicked { pid, payload, .. } => {
                assert_eq!(pid, 1, "wrong pid on {name}");
                assert!(
                    payload.contains("injected fault"),
                    "payload on {name}: {payload}"
                );
            }
            other => panic!("{name}: expected ProcPanicked, got {other}"),
        }
    }
}

/// Regression for the shared-backend deadlock: a peer that dies before the
/// superstep barrier must poison it and release the survivors, on every
/// barrier implementation.
#[test]
fn peer_panic_trips_every_barrier_kind() {
    let plan = FaultPlan::new(2).with(FaultEvent {
        pid: 0,
        step: 1,
        dest: 0,
        kind: FaultKind::Panic,
    });
    for barrier in [
        BarrierKind::Central,
        BarrierKind::Flag,
        BarrierKind::Tree,
        BarrierKind::Dissemination,
    ] {
        let err = digest(&Config::new(4).barrier(barrier).faults(plan.clone()))
            .expect_err("peer panic must fail the run");
        assert!(
            matches!(err, BspError::ProcPanicked { pid: 0, .. }),
            "{barrier:?}: expected ProcPanicked from pid 0, got {err}"
        );
    }
}

/// A persistent fault the healer cannot outrun exhausts the retry budget and
/// degrades to a clean `Transport(RetryExhausted)` failure on every backend.
#[test]
fn persistent_fault_exhausts_retries() {
    let p = 3;
    let plan = FaultPlan::new(3)
        .with(FaultEvent {
            pid: 0,
            step: 1,
            dest: 1,
            kind: FaultKind::Corrupt,
        })
        .persistent();
    let tol = FaultTolerance {
        max_retries: 2,
        ..FaultTolerance::default()
    };
    for (name, cfg) in backends(p) {
        let err = digest(&cfg.faults(plan.clone()).tolerant(tol.clone()))
            .expect_err("persistent corruption must exhaust retries");
        match err {
            BspError::Transport(te) => assert!(
                matches!(te.kind, TransportErrorKind::RetryExhausted),
                "{name}: expected RetryExhausted, got {te}"
            ),
            other => panic!("{name}: expected Transport error, got {other}"),
        }
    }
}

// -------------------------------------------------------------- liveness

/// The channel transport's liveness backstop, on both schedules: under
/// hardening, a process that stops posting mid-superstep (it sleeps far past
/// the 50 ms superstep deadline inside its superstep) makes every other
/// process fail with a structured `BspError` within 5 s — a pipe read
/// blocked on a silent peer times out instead of hanging the run.
#[test]
fn silent_peer_fails_every_other_process_within_the_bound() {
    const SILENT: usize = 1;
    let bound = Duration::from_secs(5);
    let tol = FaultTolerance {
        superstep_deadline: Some(Duration::from_millis(50)),
        ..FaultTolerance::default()
    };
    for backend in [BackendKind::MsgPass, BackendKind::TcpSim] {
        let failed: Mutex<Vec<(usize, Duration, Option<BspError>)>> = Mutex::new(Vec::new());
        let start = Instant::now();
        let res = try_run(
            &Config::new(3).backend(backend).tolerant(tol.clone()),
            |ctx| {
                ctx.sync();
                if ctx.pid() == SILENT {
                    // Silent until every peer has given up (or twice the
                    // bound, so a transport that never gives up fails the
                    // assertions below instead of hanging the test).
                    while failed.lock().unwrap().len() < 2 && start.elapsed() < 2 * bound {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    ctx.sync();
                    return;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| ctx.sync())) {
                    let err = payload.downcast_ref::<BspError>().cloned();
                    failed
                        .lock()
                        .unwrap()
                        .push((ctx.pid(), start.elapsed(), err));
                    resume_unwind(payload);
                }
            },
        );
        assert!(res.is_err(), "{backend:?}: a silent peer cannot complete");
        let mut failed = failed.into_inner().unwrap();
        failed.sort_by_key(|f| f.0);
        let pids: Vec<usize> = failed.iter().map(|f| f.0).collect();
        assert_eq!(pids, [0, 2], "{backend:?}: every other process fails");
        for (pid, after, err) in failed {
            assert!(
                after < bound,
                "{backend:?}: proc {pid} failed after {after:?}"
            );
            assert!(err.is_some(), "{backend:?}: proc {pid} failed unstructured");
        }
    }
}

// ------------------------------------------------------ rollback recovery

/// A transient panic under a checkpoint policy rolls every proc back to the
/// last consistent snapshot and completes with bit-identical results.
#[test]
fn checkpoint_rollback_recovers_bitwise() {
    let p = 4;
    let want = reference(p);
    let plan = FaultPlan::new(4).with(FaultEvent {
        pid: 2,
        step: 3,
        dest: 0,
        kind: FaultKind::Panic,
    });
    let tol = FaultTolerance {
        checkpoint: Some(CheckpointPolicy {
            every_supersteps: 2,
        }),
        ..FaultTolerance::default()
    };
    // The shared and channel transports.
    for (name, cfg) in backends(p).into_iter().take(3) {
        let (got, stats) = digest(&cfg.faults(plan.clone()).tolerant(tol.clone()))
            .unwrap_or_else(|e| panic!("rollback on {name} failed: {e}"));
        assert_eq!(want, got, "post-rollback digest on {name} diverged");
        assert!(stats.faults.injected >= 1, "{name}: panic never injected");
        assert_eq!(
            stats.faults.rolled_back, 1,
            "{name}: expected exactly one rollback"
        );
    }
}

/// With no checkpoint policy (or an exhausted rollback budget) the same
/// transient panic stays a structured failure — no silent retry loops.
#[test]
fn rollback_budget_zero_degrades_to_clean_failure() {
    let plan = FaultPlan::new(5).with(FaultEvent {
        pid: 1,
        step: 2,
        dest: 0,
        kind: FaultKind::Panic,
    });
    let tol = FaultTolerance {
        checkpoint: Some(CheckpointPolicy {
            every_supersteps: 1,
        }),
        max_rollbacks: 0,
        ..FaultTolerance::default()
    };
    let err = digest(&Config::new(3).faults(plan).tolerant(tol))
        .expect_err("zero rollback budget must surface the panic");
    assert!(
        matches!(err, BspError::ProcPanicked { pid: 1, .. }),
        "expected ProcPanicked, got {err}"
    );
}

// ------------------------------------------------------------ diagnostics

/// A recoverable fault injected into an *unhardened* run is flagged: the run
/// "succeeds", but `report check`-style consumers see a `FaultUndetected`
/// diagnostic instead of silently trusting a corrupted answer.
#[test]
fn unhardened_injection_raises_fault_undetected() {
    // pid 0 sends its step-1 byte record to (0 + 1 + 1) % 3 = 2; aim the
    // drop there so the unguarded byte lane actually carries the fault.
    let plan = FaultPlan::new(6).with(FaultEvent {
        pid: 0,
        step: 1,
        dest: 2,
        kind: FaultKind::Drop,
    });
    let (_, stats) = digest(&Config::new(3).faults(plan)).expect("unhardened run still completes");
    assert!(stats.faults.injected >= 1, "fault never injected");
    assert_eq!(stats.faults.detected, 0, "nothing should detect it");
    assert!(
        stats
            .check_reports
            .iter()
            .any(|r| matches!(r.kind, CheckKind::FaultUndetected)),
        "expected a FaultUndetected diagnostic, got {:?}",
        stats.check_reports
    );
}

/// Unhardened injection reaches the packet lane whichever call sent the
/// packets: the context hands `send_pkt` traffic to the transport in
/// batches, and a batch is what the injector acts on.
#[test]
fn unhardened_batch_faults_reach_send_pkt_traffic() {
    for (kind, want) in [
        (FaultKind::Drop, [0, 0]),
        (FaultKind::Duplicate, [8, 0]),
        (FaultKind::Delay, [0, 4]),
    ] {
        let plan = FaultPlan::new(7).with(FaultEvent {
            pid: 0,
            step: 0,
            dest: 1,
            kind,
        });
        let out = try_run(&Config::new(2).faults(plan), |ctx| {
            if ctx.pid() == 0 {
                for i in 0..4 {
                    ctx.send_pkt(1, Packet::two_u64(i, 0));
                }
            }
            let mut seen = [0; 2];
            for n in &mut seen {
                ctx.sync();
                while ctx.get_pkt().is_some() {
                    *n += 1;
                }
            }
            seen
        })
        .expect("an unhardened run completes");
        assert_eq!(out.results[1], want, "{kind:?}");
    }
}

// --------------------------------------------------------------- property

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seeded plan over the fast recoverable classes (straggler excluded
    /// only for test wall-clock) heals to the fault-free digest on every
    /// backend.
    #[test]
    fn seeded_recoverable_plans_heal_on_all_backends(
        p in 2usize..=5,
        seed in 0u64..u64::MAX,
        n in 1usize..6,
    ) {
        let want = reference(p);
        let plan = FaultPlan::seeded(seed, p, STEPS, n, &FaultKind::RECOVERABLE[..5]);
        for (name, cfg) in backends(p) {
            let res = digest(&cfg.faults(plan.clone()).hardened());
            let err_msg = res.as_ref().err().map(ToString::to_string).unwrap_or_default();
            prop_assert!(res.is_ok(), "seed {} on {}: {}", seed, name, err_msg);
            let (got, stats) = res.unwrap();
            prop_assert_eq!(&want, &got, "seed {} on {} diverged", seed, name);
            prop_assert!(
                stats.faults.injected >= 1,
                "seed {} on {}: plan injected nothing", seed, name
            );
        }
    }
}

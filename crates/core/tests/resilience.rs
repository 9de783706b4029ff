//! Resilient-kernel corpus (DESIGN.md §15): cancellation, deadlines, FIFO
//! slot dispatch, self-healing workers, rollback of a submitted job, and
//! structured shutdown.
//!
//! Every scenario is bounded by `join_timeout` — a hang is a test failure
//! with a message, never a stuck binary — and the long-running probe
//! programs carry their own 20 s wall-clock escape hatch so a regression in
//! the cancellation machinery degrades to a clear assertion, not a runaway
//! thread.

mod common;

use common::{backends, digest_app};
use green_bsp::collectives::{allreduce_u64, sum_u64};
use green_bsp::{
    run_unpooled, BspError, CancelToken, CheckpointPolicy, Config, Ctx, FaultEvent, FaultKind,
    FaultPlan, FaultTolerance, Packet, Runtime,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A long-running probe: supersteps forever (bounded by a 20 s escape hatch
/// so a broken cancellation path fails the test instead of hanging it),
/// exercising the packet lane or the byte lane.
fn spin_prog(bytes: bool) -> impl Fn(&mut Ctx) -> u32 + Send + Sync + Clone + 'static {
    move |ctx: &mut Ctx| {
        let start = Instant::now();
        let next = (ctx.pid() + 1) % ctx.nprocs();
        while start.elapsed() < Duration::from_secs(20) {
            if bytes {
                ctx.send_bytes(next, &[0xAB; 16]);
            } else {
                ctx.send_pkt(next, Packet::two_u64(7, 7));
            }
            ctx.sync();
            while ctx.get_pkt().is_some() {}
            while ctx.recv_bytes().is_some() {}
            thread::sleep(Duration::from_micros(200));
        }
        0
    }
}

/// A short deterministic job: total exchange, everyone returns what it saw
/// in delivery order. Used as the "surviving concurrent job" whose results
/// must stay bit-identical to a serial reference.
fn exchange_prog(ctx: &mut Ctx) -> Vec<u64> {
    let me = ctx.pid() as u64;
    for dest in 0..ctx.nprocs() {
        for i in 0..64u64 {
            ctx.send_pkt(dest, Packet::two_u64(me * 1000 + i, 0));
        }
    }
    ctx.sync();
    let mut seen: Vec<u64> = Vec::new();
    while let Some(p) = ctx.get_pkt() {
        seen.push(p.as_two_u64().0);
    }
    seen
}

#[test]
fn cancel_mid_superstep_all_backends_both_lanes() {
    for bytes in [false, true] {
        for (name, cfg) in backends(2) {
            let rt = Runtime::new();
            let h = rt.submit(&cfg, spin_prog(bytes));
            thread::sleep(Duration::from_millis(15));
            h.cancel();
            let err = h
                .join_timeout(Duration::from_secs(15))
                .unwrap_or_else(|| panic!("{name} bytes={bytes}: cancelled job hung"))
                .unwrap_err();
            assert!(
                matches!(err, BspError::Cancelled { .. }),
                "{name} bytes={bytes}: {err:?}"
            );
            rt.shutdown();
        }
    }
}

#[test]
fn cancel_storm_resolves_every_handle_cancelled() {
    // Forever-jobs on both lanes, one running and the rest queued behind
    // it: cancelling them all at once must resolve every handle, queued
    // or mid-superstep.
    let rt = Runtime::new();
    let handles: Vec<_> = (0..12)
        .map(|i| rt.submit(&Config::new(2), spin_prog(i % 2 == 1)))
        .collect();
    thread::sleep(Duration::from_millis(20));
    for h in &handles {
        h.cancel();
    }
    for (i, h) in handles.into_iter().enumerate() {
        let err = h
            .join_timeout(Duration::from_secs(15))
            .unwrap_or_else(|| panic!("job {i} hung after cancel"))
            .unwrap_err();
        assert!(
            matches!(err, BspError::Cancelled { .. }),
            "job {i}: {err:?}"
        );
    }
    rt.shutdown();
}

#[test]
fn deadline_expiry_mid_superstep_all_backends_both_lanes() {
    for bytes in [false, true] {
        for (name, cfg) in backends(2) {
            let rt = Runtime::new();
            let token = CancelToken::new();
            token.deadline_in(Duration::from_millis(15));
            let h = rt.submit(&cfg.cancel_token(&token), spin_prog(bytes));
            let err = h
                .join_timeout(Duration::from_secs(15))
                .unwrap_or_else(|| panic!("{name} bytes={bytes}: overdue job hung"))
                .unwrap_err();
            assert!(
                matches!(err, BspError::DeadlineExceeded { .. }),
                "{name} bytes={bytes}: {err:?}"
            );
            // The handle controls the very token the caller attached.
            h.cancel();
            assert!(
                token.is_cancelled(),
                "{name}: cancel missed the caller's token"
            );
            rt.shutdown();
        }
    }
}

#[test]
fn cancel_wakes_peer_parked_in_sync_neigh() {
    // Proc 1 races ahead and parks inside the pairwise rendezvous; proc 0
    // dawdles, observes the token at its next boundary, and the poison path
    // must wake the parked peer — the job ends Cancelled, never hangs.
    let cfg = Config::new(2).sync_graph(&[(0, 1)]);
    let rt = Runtime::new();
    let h = rt.submit(&cfg, |ctx: &mut Ctx| {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(20) {
            if ctx.pid() == 0 {
                thread::sleep(Duration::from_millis(2));
            }
            ctx.sync_neigh();
        }
    });
    thread::sleep(Duration::from_millis(20));
    h.cancel();
    let err = h
        .join_timeout(Duration::from_secs(15))
        .expect("sync_neigh-parked job hung on cancel")
        .unwrap_err();
    assert!(matches!(err, BspError::Cancelled { .. }), "{err:?}");
    rt.shutdown();
}

#[test]
fn cancel_under_hardened_retransmit() {
    // Transient recoverable faults keep the guarded exchange running
    // retransmit rounds while the job is cancelled mid-flight: the
    // cancellation must cut through the recovery protocol as the primary
    // error, and nobody may hang mid-retransmit.
    let plan = FaultPlan::seeded(
        11,
        4,
        64,
        48,
        &[
            FaultKind::Corrupt,
            FaultKind::Drop,
            FaultKind::Duplicate,
            FaultKind::Reorder,
        ],
    );
    let cfg = Config::new(4).faults(plan).hardened();
    let rt = Runtime::new();
    let h = rt.submit(&cfg, spin_prog(false));
    thread::sleep(Duration::from_millis(25));
    h.cancel();
    let err = h
        .join_timeout(Duration::from_secs(15))
        .expect("hardened job hung on cancel mid-retransmit")
        .unwrap_err();
    assert!(matches!(err, BspError::Cancelled { .. }), "{err:?}");
    rt.shutdown();
}

#[test]
fn worker_abort_quarantines_respawns_and_pool_heals() {
    let rt = Runtime::new();
    // Warm the pool to p=2 with a clean job.
    let warm = rt.try_run(&Config::new(2), |ctx| {
        ctx.sync();
        ctx.pid() as u64
    });
    assert_eq!(warm.unwrap().results, vec![0, 1]);
    assert_eq!(rt.pool_health().live_workers, 2);

    // Injected thread-abort: the job fails structurally AND its worker dies.
    let plan = FaultPlan::new(3).with(FaultEvent {
        pid: 1,
        step: 0,
        dest: 0,
        kind: FaultKind::WorkerAbort,
    });
    let err = rt
        .try_run(&Config::new(2).faults(plan), |ctx| {
            ctx.sync();
            0u64
        })
        .unwrap_err();
    assert!(matches!(err, BspError::ProcPanicked { .. }), "{err:?}");

    // Self-healing: the dead slot is quarantined and a replacement spawned.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let h = rt.pool_health();
        if h.respawns >= 1 && h.live_workers == 2 {
            break;
        }
        assert!(Instant::now() < deadline, "pool did not heal: {h:?}");
        thread::sleep(Duration::from_millis(5));
    }
    assert!(rt.pool_health().quarantined >= 1);

    // The healed pool runs the next job bit-identically to a fresh machine,
    // and the run's stats carry the health snapshot.
    let reference = run_unpooled(&Config::new(2), exchange_prog)
        .unwrap()
        .results;
    let again = rt.try_run(&Config::new(2), exchange_prog).unwrap();
    assert_eq!(again.results, reference);
    assert!(again.stats.pool.respawns >= 1);
    assert_eq!(again.stats.pool.live_workers, 2);
    rt.shutdown();
}

#[test]
fn slices_admit_in_submission_order() {
    let rt = Runtime::new();
    let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    // Occupy the single worker slot so subsequent slices queue.
    let long = rt.submit(&Config::new(1), |ctx: &mut Ctx| {
        thread::sleep(Duration::from_millis(120));
        ctx.sync();
    });
    thread::sleep(Duration::from_millis(20));
    let o1 = Arc::clone(&order);
    let first = rt.submit(&Config::new(1), move |ctx: &mut Ctx| {
        o1.lock().unwrap().push("first");
        ctx.sync();
    });
    // Give the first job's slice time to reach the pool queue first.
    thread::sleep(Duration::from_millis(40));
    let o2 = Arc::clone(&order);
    let second = rt.submit(&Config::new(1), move |ctx: &mut Ctx| {
        o2.lock().unwrap().push("second");
        ctx.sync();
    });
    let outs: Vec<_> = [(long, "long"), (first, "first"), (second, "second")]
        .into_iter()
        .map(|(h, what)| {
            h.join_timeout(Duration::from_secs(15))
                .unwrap_or_else(|| panic!("{what} job hung"))
                .unwrap()
        })
        .collect();
    assert_eq!(*order.lock().unwrap(), vec!["first", "second"]);
    // `first` sat behind `long` on the single worker (queued at t ≈ 20 ms
    // behind a 120 ms job), and its stats say so; `long` found the worker
    // free.
    assert!(
        outs[1].stats.queue_wait >= Duration::from_millis(50),
        "first waited only {:?}",
        outs[1].stats.queue_wait
    );
    assert!(
        outs[0].stats.queue_wait < Duration::from_millis(50),
        "long waited {:?}",
        outs[0].stats.queue_wait
    );
    rt.shutdown();
}

/// A submitted job's rollback relaunches from the worker that settled the
/// failed incarnation. On a pool exactly `p` wide the relaunched slice
/// needs that very worker back, so it is admitted only once the settling
/// worker returns to its loop: the job must heal bit for bit, not hang.
/// Without a rollback budget the same panic is the job's result.
#[test]
fn submitted_rollback_relaunches_on_an_exactly_wide_pool() {
    let p = 4;
    let want = run_unpooled(&Config::new(p), digest_app).unwrap().results;
    let cfg = Config::new(p).faults(FaultPlan::new(4).with(FaultEvent {
        pid: 2,
        step: 3,
        dest: 0,
        kind: FaultKind::Panic,
    }));
    let tol = FaultTolerance {
        checkpoint: Some(CheckpointPolicy {
            every_supersteps: 2,
        }),
        ..FaultTolerance::default()
    };
    let rt = Runtime::with_workers(p);
    let out = rt
        .submit(&cfg.clone().tolerant(tol.clone()), digest_app)
        .join_timeout(Duration::from_secs(15))
        .expect("submitted rollback hung")
        .expect("the rollback should heal the run");
    assert_eq!(out.results, want);
    assert_eq!(out.stats.faults.rolled_back, 1);
    assert_eq!(rt.pool_health().quarantined, 0);

    let no_budget = FaultTolerance {
        max_rollbacks: 0,
        ..tol
    };
    let err = rt
        .submit(&cfg.tolerant(no_budget), digest_app)
        .join_timeout(Duration::from_secs(15))
        .expect("submitted failure hung")
        .expect_err("zero rollback budget must surface the panic");
    assert!(
        matches!(err, BspError::ProcPanicked { pid: 2, .. }),
        "expected ProcPanicked, got {err}"
    );
    rt.shutdown();
}

/// Spin until `ready` holds (bounded, so a broken scheduler fails the test
/// with `what` instead of hanging it).
fn await_flag(what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

/// FIFO slot dispatch on a pool exactly two wide: eight jobs stay in
/// flight, p = 1 and p = 2 mixed, with zero, exchange and all-reduce
/// supersteps, on the baton (seqsim), the staged pipes (msgpass, tcpsim)
/// and shared memory. A p = 2 job's first slot waits for its peer, so a
/// worker that took a later slice's task before the head slice's
/// remaining one would wedge both workers on two half-started jobs. Every
/// handle must resolve, bit-equal to the pool-free run.
#[test]
fn fifo_dispatch_keeps_mixed_jobs_live_on_a_two_wide_pool() {
    type Prog = fn(&mut Ctx) -> Vec<u64>;
    let progs: [(&str, Prog); 3] = [
        ("zero supersteps", |ctx| vec![ctx.pid() as u64 * 3 + 1]),
        ("exchange", exchange_prog),
        ("all-reduce", |ctx| {
            let me = ctx.pid() as u64;
            let sum = sum_u64(ctx, me + 1);
            vec![sum, allreduce_u64(ctx, sum ^ (me * 7), u64::max)]
        }),
    ];
    for name in ["seqsim", "msgpass", "tcpsim", "shared"] {
        let cfg = |p: usize| {
            backends(p)
                .into_iter()
                .find(|(n, _)| *n == name)
                .expect("known backend")
                .1
        };
        let want: Vec<Vec<_>> = (1..=2)
            .map(|p| {
                progs
                    .iter()
                    .map(|(_, prog)| run_unpooled(&cfg(p), prog).unwrap().results)
                    .collect()
            })
            .collect();
        let rt = Runtime::with_workers(2);
        let mut inflight = std::collections::VecDeque::new();
        for i in 0..64 {
            if inflight.len() == 8 {
                join_dispatched(inflight.pop_front().unwrap());
            }
            // p = 1 + (i / 3) % 2 and program i % 3: every pairing recurs.
            let (p, prog) = (1 + (i / 3) % 2, i % 3);
            let what = format!("{name} job {i} (p = {p}, {})", progs[prog].0);
            let h = rt.submit(&cfg(p), progs[prog].1);
            inflight.push_back((what, want[p - 1][prog].as_slice(), h));
        }
        inflight.into_iter().for_each(join_dispatched);
        rt.shutdown();
    }
}

/// Join a dispatched job within the timeout and compare it with its
/// pool-free run.
fn join_dispatched((what, want, h): (String, &[Vec<u64>], green_bsp::JobHandle<Vec<u64>>)) {
    let out = h
        .join_timeout(Duration::from_secs(15))
        .unwrap_or_else(|| panic!("{what} hung"))
        .unwrap_or_else(|e| panic!("{what} failed: {e}"));
    assert_eq!(out.results, want, "{what} diverged");
}

/// A fast shutdown lands while a p = 2 slice has one task taken and one
/// still queued behind a blocker: the started job completes with its
/// results (a worker takes its queued task after the blocker), and every
/// job behind it resolves `RuntimeShutdown`.
#[test]
fn fast_shutdown_drains_a_started_slice_and_fails_the_rest() {
    let rt = Runtime::with_workers(2);
    let (running, release) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let (r, go) = (Arc::clone(&running), Arc::clone(&release));
    let blocker = rt.submit(&Config::new(1), move |ctx: &mut Ctx| {
        r.store(true, Ordering::Release);
        await_flag("the blocker's release", || go.load(Ordering::Acquire));
        ctx.sync();
        5u64
    });
    await_flag("the blocker to start", || running.load(Ordering::Acquire));
    let entered = Arc::new(AtomicUsize::new(0));
    let e = Arc::clone(&entered);
    let pair = rt.submit(&Config::new(2), move |ctx: &mut Ctx| {
        e.fetch_add(1, Ordering::AcqRel);
        ctx.sync();
        ctx.pid() as u64 * 10
    });
    await_flag("the pair's first slot", || {
        entered.load(Ordering::Acquire) == 1
    });
    let behind: Vec<_> = (1..=4)
        .map(|p| rt.submit(&Config::new(1 + p % 2), |ctx: &mut Ctx| ctx.sync()))
        .collect();
    let stopper = thread::spawn({
        let rt = rt.clone();
        move || rt.shutdown()
    });
    for h in behind {
        let err = h
            .join_timeout(Duration::from_secs(15))
            .expect("queued job hung across shutdown")
            .unwrap_err();
        assert!(matches!(err, BspError::RuntimeShutdown), "{err:?}");
    }
    // The shutdown has drained the queue, and the pair is still half
    // started: its second task waits for the blocker's worker.
    assert_eq!(entered.load(Ordering::Acquire), 1);
    assert!(!pair.is_finished());
    release.store(true, Ordering::Release);
    let out = blocker
        .join_timeout(Duration::from_secs(15))
        .expect("blocker hung across shutdown")
        .expect("the blocker was running and must complete");
    assert_eq!(out.results, vec![5]);
    let out = pair
        .join_timeout(Duration::from_secs(15))
        .expect("started pair hung across shutdown")
        .expect("a started slice is drained, not failed");
    assert_eq!(out.results, vec![0, 10]);
    assert_eq!(entered.load(Ordering::Acquire), 2);
    stopper.join().expect("shutdown panicked");
}

#[test]
fn fast_shutdown_fails_queued_handles_structurally() {
    let rt = Runtime::new();
    // One worker slot: the first job runs, the second sits queued.
    let running = rt.submit(&Config::new(1), |ctx: &mut Ctx| {
        thread::sleep(Duration::from_millis(80));
        ctx.sync();
        7u32
    });
    thread::sleep(Duration::from_millis(20));
    let queued = rt.submit(&Config::new(1), |ctx: &mut Ctx| {
        ctx.sync();
        9u32
    });
    rt.clone().shutdown();
    // The running job completed; the queued one resolved with a structured
    // error instead of leaving `join` to hang forever.
    let out = running
        .join_timeout(Duration::from_secs(15))
        .expect("running job hung across shutdown")
        .expect("in-flight job should complete");
    assert_eq!(out.results, vec![7]);
    let err = queued
        .join_timeout(Duration::from_secs(15))
        .expect("queued job hung across shutdown")
        .unwrap_err();
    assert!(matches!(err, BspError::RuntimeShutdown), "{err:?}");
}

#[test]
fn submit_after_shutdown_resolves_with_runtime_shutdown() {
    let rt = Runtime::new();
    rt.clone().shutdown();
    let h = rt.submit(&Config::new(1), |ctx: &mut Ctx| ctx.sync());
    let err = h
        .join_timeout(Duration::from_secs(15))
        .expect("post-shutdown submit hung")
        .unwrap_err();
    assert!(matches!(err, BspError::RuntimeShutdown), "{err:?}");
}

#[test]
fn shutdown_drain_completes_queued_work_first() {
    let rt = Runtime::new();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            rt.submit(&Config::new(1), move |ctx: &mut Ctx| {
                thread::sleep(Duration::from_millis(15));
                ctx.sync();
                i as u32
            })
        })
        .collect();
    rt.clone().shutdown_drain();
    for (i, h) in handles.into_iter().enumerate() {
        let out = h
            .join_timeout(Duration::from_secs(15))
            .expect("drained job hung")
            .expect("shutdown_drain must complete queued jobs");
        assert_eq!(out.results, vec![i as u32]);
    }
}

#[test]
fn cancelled_job_leaves_concurrent_jobs_bit_identical() {
    let rt = Runtime::new();
    let victim = rt.submit(&Config::new(2), spin_prog(false));
    let survivors: Vec<_> = (0..3)
        .map(|_| rt.submit(&Config::new(2), exchange_prog))
        .collect();
    thread::sleep(Duration::from_millis(10));
    victim.cancel();
    let verr = victim
        .join_timeout(Duration::from_secs(15))
        .expect("victim hung on cancel")
        .unwrap_err();
    assert!(matches!(verr, BspError::Cancelled { .. }), "{verr:?}");
    let reference = run_unpooled(&Config::new(2), exchange_prog)
        .unwrap()
        .results;
    for s in survivors {
        let out = s
            .join_timeout(Duration::from_secs(15))
            .expect("survivor hung")
            .expect("survivors must complete");
        assert_eq!(out.results, reference);
        assert!(out.stats.pool.live_workers >= 2);
    }
    rt.shutdown();
}

#[test]
fn join_timeout_and_is_finished_track_job_progress() {
    let rt = Runtime::new();
    let h = rt.submit(&Config::new(1), |ctx: &mut Ctx| {
        thread::sleep(Duration::from_millis(60));
        ctx.sync();
        1u8
    });
    assert!(h.join_timeout(Duration::from_millis(1)).is_none());
    assert!(!h.is_finished());
    let out = h
        .join_timeout(Duration::from_secs(15))
        .expect("job hung")
        .unwrap();
    assert_eq!(out.results, vec![1]);
    rt.shutdown();
}

#[test]
fn cancel_while_queued_never_runs_the_job() {
    // A single worker slot: the blocker runs, the target's slice sits
    // queued. Cancelling the target while it waits must fail it at the
    // launch-time cancellation point without ever entering its closure.
    let rt = Runtime::new();
    let blocker = rt.submit(&Config::new(1), |ctx: &mut Ctx| {
        thread::sleep(Duration::from_millis(80));
        ctx.sync();
    });
    thread::sleep(Duration::from_millis(20));
    let ran = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&ran);
    let target = rt.submit(&Config::new(1), move |ctx: &mut Ctx| {
        r.fetch_add(1, Ordering::Relaxed);
        ctx.sync();
    });
    thread::sleep(Duration::from_millis(10));
    target.cancel();
    blocker
        .join_timeout(Duration::from_secs(15))
        .expect("blocker hung")
        .unwrap();
    let err = target
        .join_timeout(Duration::from_secs(15))
        .expect("queued-then-cancelled job hung")
        .unwrap_err();
    assert!(matches!(err, BspError::Cancelled { .. }), "{err:?}");
    assert_eq!(ran.load(Ordering::Relaxed), 0);
    rt.shutdown();
}

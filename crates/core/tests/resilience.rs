//! Resilient-kernel corpus (DESIGN.md §15): cancellation, deadlines, FIFO
//! admission, self-healing workers, and structured shutdown.
//!
//! Every scenario is bounded by `join_timeout` — a hang is a test failure
//! with a message, never a stuck binary — and the long-running probe
//! programs carry their own 20 s wall-clock escape hatch so a regression in
//! the cancellation machinery degrades to a clear assertion, not a runaway
//! thread.

mod common;

use common::backends;
use green_bsp::{
    run_unpooled, BspError, CancelToken, Config, Ctx, FaultEvent, FaultKind, FaultPlan, Packet,
    Runtime,
};
use std::sync::atomic::{AtomicUsize, Ordering};
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
    // `first` sat behind `long` on the single worker, and its stats say so.
    assert!(outs[1].stats.queue_wait > Duration::ZERO);
    rt.shutdown();
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

//! Proof of the §11 zero-allocation claim: once a transport set is parked
//! in the runtime's arena, a warm lease/release cycle touches the heap
//! zero times — it is a hash probe, a `Vec::pop`, per-endpoint cursor
//! resets, and a push back into retained capacity — and a warm job's packet
//! lane (stage, hand off a chunk, cross the boundary, drain) touches it
//! zero times too: the arena keeps the staging capacity like every other
//! `Ctx` buffer. So does its byte lane, where no buffer stays put: the
//! staging buffer travels to the receiver and a recycled one comes back
//! (DESIGN.md §9), and the arena keeps every buffer of that circulation.
//!
//! This file is its own test binary on purpose: `#[global_allocator]` is
//! process-wide, and a single `#[test]` keeps the counter free of
//! interference from parallel tests.

use green_bsp::{BackendKind, Config, Ctx, Packet, Runtime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator with a global and a per-thread allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor observe a dead slot.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations the calling thread has made so far.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

// SAFETY: delegates every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counter side effect does not touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_lease_release_cycle_allocates_nothing() {
    let rt = Runtime::new();
    let cfg = Config::new(4);
    // Cold run builds the transport set and parks it in the arena; one
    // extra cycle settles any lazy one-time state before counting.
    rt.prewarm(&cfg);
    assert!(rt.debug_lease_cycle(&cfg), "arena did not retain the set");

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..32 {
        assert!(
            rt.debug_lease_cycle(&cfg),
            "warm cycle {i} missed the arena"
        );
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "warm lease/release path allocated {delta} time(s) over 32 cycles"
    );

    // The packet lane of a warm job, below and above one chunk per
    // destination. Each process counts its own thread's allocations over
    // three supersteps of send / sync / drain; the empty superstep in front
    // takes the one allocation a job always makes at its first boundary
    // (its superstep log) out of the window.
    for per_dest in [cfg.chunk - 1, 2 * cfg.chunk + 500] {
        for run in 0..4 {
            let out = rt
                .try_run(&cfg, |ctx| {
                    ctx.sync();
                    let before = thread_allocs();
                    for step in 0..3u64 {
                        for dest in 0..ctx.nprocs() {
                            for i in 0..per_dest as u64 {
                                ctx.send_pkt(dest, Packet::two_u64(step, i));
                            }
                        }
                        ctx.sync();
                        let mut got = 0;
                        while ctx.get_pkt().is_some() {
                            got += 1;
                        }
                        assert_eq!(got, per_dest * ctx.nprocs());
                    }
                    thread_allocs() - before
                })
                .expect("exchange job");
            if run > 0 {
                assert_eq!(
                    out.results,
                    vec![0; cfg.nprocs],
                    "run {run} at {per_dest} packets per destination allocated on the packet lane"
                );
            }
        }
    }

    // The byte lane of a warm job. Four supersteps a run, because four
    // buffers circulate per ordered pair on shared memory (staging, two
    // phase slots, inbox segment): the first run sizes all four, and from
    // the second run on the lane allocates nothing. The first superstep,
    // outside the window, takes the job's one allocation (its superstep
    // log). `volume(me, dest)` is `(messages, bytes each)` per superstep.
    type Volume = fn(usize, usize) -> (usize, usize);
    let traffic: [(&str, Volume); 3] = [
        ("a storm of 64 B messages", |_, _| (2_000, 64)),
        ("one 64 KiB message", |_, _| (1, 65_536)),
        ("asymmetric volumes", |me, dest| {
            (1 + 50 * ((me + 3 * dest) % 4), 1_024)
        }),
    ];
    let lane_job = |ctx: &mut Ctx, volume: Volume, pkts: u64| {
        let (p, me) = (ctx.nprocs(), ctx.pid());
        let payload = [0x5Au8; 65_536];
        let mut before = 0;
        for step in 0..4 {
            if step == 1 {
                before = thread_allocs();
            }
            for dest in 0..p {
                let (n, len) = volume(me, dest);
                for _ in 0..n {
                    ctx.send_bytes(dest, &payload[..len]);
                }
                for i in 0..pkts * (1 + dest as u64) {
                    ctx.send_pkt(dest, Packet::two_u64(i, i));
                }
            }
            ctx.sync();
            while ctx.get_pkt().is_some() {}
            let mut got = 0;
            while let Some((_, m)) = ctx.recv_bytes() {
                got += m.len();
            }
            let want: usize = (0..p).map(|src| volume(src, me)).map(|(n, l)| n * l).sum();
            assert_eq!(got, want);
        }
        thread_allocs() - before
    };
    for (what, volume) in traffic {
        for run in 0..4 {
            let out = rt
                .try_run(&cfg, |ctx| lane_job(ctx, volume, 0))
                .expect("byte exchange job");
            if run > 0 {
                assert_eq!(
                    out.results,
                    vec![0; cfg.nprocs],
                    "run {run} of {what} allocated on the byte lane"
                );
            }
        }
    }

    // The channel backends ship the buffers themselves, so theirs circulate
    // between the two processes of a pair (six per pair on the byte lane,
    // four on the packet lane, changing direction as they go): a few runs
    // size them all, then neither lane allocates. What is left is the
    // channels' own bookkeeping — an unbounded `mpsc` channel allocates a
    // block per 31 sends, and a blocked receiver now and then grows a
    // waiter list — so a window gets one allocation per peer of slack;
    // buffer churn would cost two per peer and superstep.
    for backend in [BackendKind::TcpSim, BackendKind::MsgPass] {
        let cfg = Config::new(4).backend(backend);
        for run in 0..8 {
            let out = rt
                .try_run(&cfg, |ctx| lane_job(ctx, traffic[2].1, 300))
                .expect("channel exchange job");
            if run > 3 {
                assert!(
                    out.results.iter().all(|&n| n < cfg.nprocs as u64),
                    "run {run} on {backend:?} allocated {:?} time(s)",
                    out.results
                );
            }
        }
    }
    rt.shutdown();
}

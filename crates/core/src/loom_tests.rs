//! Loom-gated exhaustive model checking of the lock-free core.
//!
//! Compiled and run only under `RUSTFLAGS="--cfg loom"` (CI job
//! `analysis`):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p green-bsp --lib --release loom_tests
//! ```
//!
//! Every test wraps a small shape — p = 2 or 3 threads, 1–3 superstep
//! boundaries — in `loom::model`, which explores all interleavings of the
//! shape's synchronization operations up to a preemption bound of 2 and
//! checks, per interleaving: data-race freedom of the `UnsafeCell`
//! payloads against the happens-before relation the primitives actually
//! establish, deadlock freedom, and the test's own invariant asserts
//! (conservation, generation reuse, poison liveness).
//!
//! The publication tests double as the mutant teeth check (DESIGN.md
//! §13): rebuilding with `--cfg loom_mutant` weakens the flag store in
//! `NeighborSync::signal` from Release to [`Relaxed`](crate::relax), and
//! `neighbor_rendezvous_publishes_p2` (plus the split and p3 variants)
//! must then fail with "data race detected" — CI asserts that run's
//! failure.
//!
//! What these tests deliberately do NOT claim: the slab memcpys in
//! `Mailbox::push` go through a raw `AtomicPtr` and are invisible to the
//! cell tracker, so the mailbox tests assert *value* invariants
//! (conservation, cursor reset, overflow bookkeeping) across all
//! interleavings rather than race freedom of the copies themselves —
//! that's what the Miri and TSan CI slices cover.

use crate::backend::shared::Mailbox;
use crate::barrier::{Barrier, BarrierKind, CentralBarrier};
use crate::packet::Packet;
use crate::relax::NeighborSync;
use crate::stats::TransportCounters;
use crate::sync_shim::{SpinBudget, UnsafeCell};
use loom::thread;
use std::sync::Arc;

fn pkt(v: u64) -> Packet {
    Packet::two_u64(v, v)
}

fn drain_values(mb: &Mailbox) -> Vec<u64> {
    let mut inbox = Vec::new();
    let mut c = TransportCounters::default();
    mb.drain(&mut inbox, &mut c);
    let mut vals: Vec<u64> = inbox.iter().map(|p| p.as_two_u64().0).collect();
    vals.sort_unstable();
    vals
}

// ---- slab mailbox: reservation/swap protocol -------------------------

#[test]
fn loom_mailbox_conservation_p2() {
    loom::model(|| {
        let mb = Arc::new(Mailbox::new(8));
        let m2 = mb.clone();
        let h = thread::spawn(move || {
            let mut c = TransportCounters::default();
            m2.push(&[pkt(1), pkt(2)], &mut c);
        });
        {
            let mut c = TransportCounters::default();
            mb.push(&[pkt(3), pkt(4), pkt(5)], &mut c);
        }
        h.join().unwrap();
        // The join edge is the stand-in for the barrier ending the step:
        // the drain window is ordered after both pushes.
        assert_eq!(drain_values(&mb), vec![1, 2, 3, 4, 5]);
        // Cursor reset: a second drain of the same phase sees nothing.
        assert_eq!(drain_values(&mb), Vec::<u64>::new());
    });
}

#[test]
fn loom_mailbox_overflow_conservation_p3() {
    // Slab of 2 packets, 3 senders × 2 packets: every interleaving spills
    // at least one reservation, and some split a reservation across the
    // slab/overflow boundary. Conservation must hold in all of them.
    loom::model(|| {
        let mb = Arc::new(Mailbox::new(2));
        let hs: Vec<_> = (0..2u64)
            .map(|i| {
                let m2 = mb.clone();
                thread::spawn(move || {
                    let mut c = TransportCounters::default();
                    m2.push(&[pkt(10 + i), pkt(20 + i)], &mut c);
                })
            })
            .collect();
        {
            let mut c = TransportCounters::default();
            mb.push(&[pkt(30), pkt(31)], &mut c);
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(drain_values(&mb), vec![10, 11, 20, 21, 30, 31]);
    });
}

// ---- barriers: publication across superstep boundaries ----------------

/// Two threads, two boundaries, cross publication in both directions:
/// A writes `a` before boundary 1 and reads `b` after boundary 2; B reads
/// `a` between the boundaries and writes `b`. Race-freedom of the cell
/// accesses *is* the theorem: the barrier's internal synchronization must
/// order write-before-boundary against read-after-boundary on every
/// interleaving, including the generation-reuse second crossing.
fn check_barrier_publishes(kind: BarrierKind) {
    loom::model(move || {
        let bar: Arc<dyn Barrier> = kind.build(2).into();
        let a = Arc::new(UnsafeCell::new(0u32));
        let b = Arc::new(UnsafeCell::new(0u32));
        let (bar2, a2, b2) = (bar.clone(), a.clone(), b.clone());
        let h = thread::spawn(move || {
            bar2.wait(1);
            let got = a2.with(|p| {
                // SAFETY: ordered after the write of `a` by boundary 1;
                // the model checker verifies exactly this claim.
                unsafe { *p }
            });
            assert_eq!(got, 7);
            b2.with_mut(|p| {
                // SAFETY: written before boundary 2, read after it.
                unsafe { *p = got + 1 }
            });
            bar2.wait(1);
        });
        a.with_mut(|p| {
            // SAFETY: see above — checked by the model.
            unsafe { *p = 7 }
        });
        bar.wait(0);
        bar.wait(0);
        let got = b.with(|p| {
            // SAFETY: ordered after B's write by boundary 2.
            unsafe { *p }
        });
        assert_eq!(got, 8);
        h.join().unwrap();
    });
}

#[test]
fn loom_central_barrier_publishes_p2() {
    check_barrier_publishes(BarrierKind::Central);
}

#[test]
fn loom_flag_barrier_publishes_p2() {
    check_barrier_publishes(BarrierKind::Flag);
}

#[test]
fn loom_tree_barrier_publishes_p2() {
    check_barrier_publishes(BarrierKind::Tree);
}

#[test]
fn loom_dissemination_barrier_publishes_p2() {
    check_barrier_publishes(BarrierKind::Dissemination);
}

#[test]
fn loom_dissemination_barrier_publishes_p3() {
    // p=3 exercises the non-power-of-two round structure (⌈log₂ 3⌉ = 2
    // rounds with wraparound partners).
    loom::model(|| {
        let bar: Arc<dyn Barrier> = BarrierKind::Dissemination.build(3).into();
        let cells: Arc<Vec<UnsafeCell<u32>>> =
            Arc::new((0..3).map(|_| UnsafeCell::new(0)).collect());
        let hs: Vec<_> = (1..3usize)
            .map(|pid| {
                let (bar2, cells2) = (bar.clone(), cells.clone());
                thread::spawn(move || {
                    cells2[pid].with_mut(|p| {
                        // SAFETY: each pid writes only its own cell before
                        // the boundary; reads happen after it (model-checked).
                        unsafe { *p = pid as u32 }
                    });
                    bar2.wait(pid);
                    let sum: u32 = (0..3)
                        .map(|i| {
                            cells2[i].with(|p| {
                                // SAFETY: ordered after every write by the
                                // boundary (model-checked).
                                unsafe { *p }
                            })
                        })
                        .sum();
                    assert_eq!(sum, 3);
                })
            })
            .collect();
        cells[0].with_mut(|p| {
            // SAFETY: as above.
            unsafe { *p = 0 }
        });
        bar.wait(0);
        let sum: u32 = (0..3)
            .map(|i| {
                cells[i].with(|p| {
                    // SAFETY: as above.
                    unsafe { *p }
                })
            })
            .sum();
        assert_eq!(sum, 3);
        for h in hs {
            h.join().unwrap();
        }
    });
}

/// The spin → park hand-off of the central barrier. With the budget forced
/// to 0 every waiter goes straight to "register as sleeper, re-check the
/// generation, cv.wait"; with 1 it first makes one spin check, so the last
/// arriver's "publish generation, check sleeper count" lands before,
/// between and after each of those steps. A lost wakeup is a deadlock the
/// model reports; a lost publication is a race on the cells. Each round is
/// two crossings, so the second also runs against sleepers of the first
/// that have not yet deregistered.
fn check_central_handoff(p: usize, budget: u32, rounds: u32) {
    loom::model(move || {
        let bar = Arc::new(CentralBarrier::with_spin(p, SpinBudget::with_full(budget)));
        let cells: Arc<Vec<UnsafeCell<u32>>> =
            Arc::new((0..p).map(|_| UnsafeCell::new(0)).collect());
        let run = move |pid: usize, bar: &CentralBarrier, cells: &[UnsafeCell<u32>]| {
            for round in 1..=rounds {
                cells[pid].with_mut(|c| {
                    // SAFETY: own cell; the peers' reads of the previous
                    // round are ordered before by that round's second
                    // crossing (model-checked).
                    unsafe { *c = round }
                });
                bar.wait(pid);
                for cell in cells {
                    let got = cell.with(|c| {
                        // SAFETY: ordered after every write of this round
                        // by the crossing (model-checked).
                        unsafe { *c }
                    });
                    assert_eq!(got, round);
                }
                bar.wait(pid);
            }
        };
        let hs: Vec<_> = (1..p)
            .map(|pid| {
                let (bar, cells) = (bar.clone(), cells.clone());
                thread::spawn(move || run(pid, &bar, &cells))
            })
            .collect();
        run(0, &bar, &cells);
        for h in hs {
            h.join().unwrap();
        }
    });
}

#[test]
fn loom_central_barrier_handoff_park_only_p2() {
    check_central_handoff(2, 0, 2);
}

#[test]
fn loom_central_barrier_handoff_spin_then_park_p2() {
    check_central_handoff(2, 1, 2);
}

#[test]
fn loom_central_barrier_handoff_park_only_p3() {
    check_central_handoff(3, 0, 1);
}

#[test]
fn loom_central_barrier_handoff_spin_then_park_p3() {
    check_central_handoff(3, 1, 1);
}

/// Split-phase arrive/complete must publish exactly like a full wait:
/// A writes, arrives, computes on the side, completes; B's plain wait
/// then reads. Mixing the two styles in one crossing is part of the
/// contract.
fn check_barrier_split_phase(kind: BarrierKind) {
    loom::model(move || {
        let bar: Arc<dyn Barrier> = kind.build(2).into();
        let a = Arc::new(UnsafeCell::new(0u32));
        let (bar2, a2) = (bar.clone(), a.clone());
        let h = thread::spawn(move || {
            bar2.wait(1);
            let got = a2.with(|p| {
                // SAFETY: ordered after A's pre-arrive write (model-checked).
                unsafe { *p }
            });
            assert_eq!(got, 9);
        });
        a.with_mut(|p| {
            // SAFETY: written before the arrival announcement.
            unsafe { *p = 9 }
        });
        bar.arrive(0);
        bar.complete(0);
        h.join().unwrap();
    });
}

#[test]
fn loom_central_barrier_split_phase_p2() {
    check_barrier_split_phase(BarrierKind::Central);
}

#[test]
fn loom_flag_barrier_split_phase_p2() {
    check_barrier_split_phase(BarrierKind::Flag);
}

/// Poison must release a stuck waiter in every interleaving — whether the
/// poison lands before the wait starts, mid-spin, or mid-park. Liveness
/// failure shows up as the model's step-cap (livelock) or deadlock
/// detection.
fn check_barrier_poison_releases(kind: BarrierKind) {
    loom::model(move || {
        let bar: Arc<dyn Barrier> = kind.build(2).into();
        let bar2 = bar.clone();
        let h = thread::spawn(move || {
            bar2.wait(1);
            assert!(bar2.is_poisoned());
        });
        bar.poison();
        h.join().unwrap();
    });
}

#[test]
fn loom_central_barrier_poison_releases_p2() {
    check_barrier_poison_releases(BarrierKind::Central);
}

#[test]
fn loom_flag_barrier_poison_releases_p2() {
    check_barrier_poison_releases(BarrierKind::Flag);
}

#[test]
fn loom_tree_barrier_poison_releases_p2() {
    check_barrier_poison_releases(BarrierKind::Tree);
}

#[test]
fn loom_dissemination_barrier_poison_releases_p2() {
    check_barrier_poison_releases(BarrierKind::Dissemination);
}

// ---- NeighborSync: pairwise rendezvous --------------------------------

/// THE mutant-teeth test (DESIGN.md §13). Each side writes its payload
/// cell, signals its out-edge, waits on its in-edge, and reads the peer's
/// cell *immediately after the wait resolves*. The only happens-before
/// edge ordering that read after the peer's write is the Release store /
/// Acquire load of the generation flag in `signal`/`wait` — the SeqCst
/// park-gate fences don't pair with the spin path's plain acquire load.
/// Under `--cfg loom_mutant` the store weakens to Relaxed and this test
/// must fail with "data race detected".
#[test]
fn loom_neighbor_rendezvous_publishes_p2() {
    loom::model(|| {
        let ns = Arc::new(NeighborSync::new(2));
        let a = Arc::new(UnsafeCell::new(0u32));
        let b = Arc::new(UnsafeCell::new(0u32));
        let (ns2, a2, b2) = (ns.clone(), a.clone(), b.clone());
        let h = thread::spawn(move || {
            let mut pending = Vec::new();
            b2.with_mut(|p| {
                // SAFETY: written before signaling gen 1 (model-checked).
                unsafe { *p = 11 }
            });
            ns2.signal(1, &[0], 1, &mut pending);
            assert!(ns2.wait(1, &[0], 1, &mut pending));
            let got = a2.with(|p| {
                // SAFETY: ordered after the peer's write by the acquired
                // generation flag — the edge the mutant severs.
                unsafe { *p }
            });
            assert_eq!(got, 10);
            ns2.flush(&mut pending);
        });
        let mut pending = Vec::new();
        a.with_mut(|p| {
            // SAFETY: as above, other direction.
            unsafe { *p = 10 }
        });
        ns.signal(0, &[1], 1, &mut pending);
        assert!(ns.wait(0, &[1], 1, &mut pending));
        let got = b.with(|p| {
            // SAFETY: as above.
            unsafe { *p }
        });
        assert_eq!(got, 11);
        ns.flush(&mut pending);
        h.join().unwrap();
    });
}

#[test]
fn loom_neighbor_rendezvous_generation_reuse_p2() {
    // Three consecutive generations over the same edge, with the payload
    // double-buffered by generation parity exactly as the transport
    // double-buffers by `step & 1`. The monotone `>=` flag comparison
    // must neither deadlock nor leak a stale publication: gen 3 reuses
    // gen 1's buffer, and the only thing ordering the writer's gen-3
    // store after the reader's gen-1 load is the rendezvous chain
    // (reader read → reader signal(2) → writer wait(2) → writer write).
    loom::model(|| {
        let ns = Arc::new(NeighborSync::new(2));
        let cells: Arc<[UnsafeCell<u32>; 2]> = Arc::new([UnsafeCell::new(0), UnsafeCell::new(0)]);
        let (ns2, c2) = (ns.clone(), cells.clone());
        let h = thread::spawn(move || {
            let mut pending = Vec::new();
            for gen in 1..=3u64 {
                c2[(gen & 1) as usize].with_mut(|p| {
                    // SAFETY: the writer owns this parity's buffer for the
                    // generation; the reader's previous use of it is
                    // ordered before by the rendezvous chain.
                    unsafe { *p = gen as u32 }
                });
                ns2.signal(1, &[0], gen, &mut pending);
                assert!(ns2.wait(1, &[0], gen, &mut pending));
            }
            ns2.flush(&mut pending);
        });
        let mut pending = Vec::new();
        for gen in 1..=3u64 {
            ns.signal(0, &[1], gen, &mut pending);
            assert!(ns.wait(0, &[1], gen, &mut pending));
            let got = cells[(gen & 1) as usize].with(|p| {
                // SAFETY: ordered after the gen's write by the flag edge.
                unsafe { *p }
            });
            assert_eq!(got, gen as u32);
        }
        ns.flush(&mut pending);
        h.join().unwrap();
    });
}

#[test]
fn loom_neighbor_rendezvous_line_graph_p3() {
    // Line graph 0–1–2: the middle proc rendezvouses with both ends, the
    // ends only with the middle. Publication flows along edges; the ends
    // never synchronize with each other and must not need to.
    loom::model(|| {
        let ns = Arc::new(NeighborSync::new(3));
        let cells: Arc<Vec<UnsafeCell<u32>>> =
            Arc::new((0..3).map(|_| UnsafeCell::new(0)).collect());
        let neigh: [&[usize]; 3] = [&[1], &[0, 2], &[1]];
        let hs: Vec<_> = (1..3usize)
            .map(|pid| {
                let (ns2, cells2) = (ns.clone(), cells.clone());
                thread::spawn(move || {
                    let mut pending = Vec::new();
                    cells2[pid].with_mut(|p| {
                        // SAFETY: own cell, written before signaling.
                        unsafe { *p = pid as u32 + 1 }
                    });
                    ns2.signal(pid, neigh[pid], 1, &mut pending);
                    assert!(ns2.wait(pid, neigh[pid], 1, &mut pending));
                    for &n in neigh[pid] {
                        let got = cells2[n].with(|p| {
                            // SAFETY: n is a declared neighbor; the edge
                            // flag orders its write before this read.
                            unsafe { *p }
                        });
                        assert_eq!(got, n as u32 + 1);
                    }
                    ns2.flush(&mut pending);
                })
            })
            .collect();
        let mut pending = Vec::new();
        cells[0].with_mut(|p| {
            // SAFETY: as above.
            unsafe { *p = 1 }
        });
        ns.signal(0, neigh[0], 1, &mut pending);
        assert!(ns.wait(0, neigh[0], 1, &mut pending));
        let got = cells[1].with(|p| {
            // SAFETY: as above.
            unsafe { *p }
        });
        assert_eq!(got, 2);
        ns.flush(&mut pending);
        for h in hs {
            h.join().unwrap();
        }
    });
}

#[test]
fn loom_neighbor_poison_releases_waiter_p2() {
    // One side poisons instead of signaling: the other side's wait must
    // return `false` promptly on every interleaving — spin, yield, or
    // parked. A lost poison wakeup would trip the model's step cap.
    loom::model(|| {
        let ns = Arc::new(NeighborSync::new(2));
        let ns2 = ns.clone();
        let h = thread::spawn(move || {
            let mut pending = Vec::new();
            assert!(!ns2.wait(1, &[0], 1, &mut pending));
            ns2.flush(&mut pending);
        });
        ns.poison();
        h.join().unwrap();
    });
}

//! Single-processor simulation of a BSP program (paper §3, "the work depth
//! and the total work of the parallel programs were computed by simulating
//! the parallel computation on a single processor").
//!
//! The logical processes run one at a time, in pid order within each
//! superstep, under a baton passed through a mutex/condvar. Because exactly
//! one process computes at any moment, the per-superstep compute times are
//! clean measurements of local computation — no cache interference, no
//! scheduler preemption from sibling BSP processes — which is what the
//! paper's `W` (work depth) and total-work columns report.
//!
//! Message delivery reuses the shared-memory backend's [`Grid`] and its
//! double-buffered phase discipline: traffic handed over during superstep
//! `s` is deposited in phase `(s+1) mod 2` and, when the baton comes back
//! around, the owner collects that phase. The baton order guarantees every
//! process finished superstep `s` before any process starts `s + 1`.

//! Relaxed boundaries (DESIGN.md §12) are trivial here: with one process
//! running at a time, the baton already gives every boundary full-barrier
//! strength, so a neighborhood boundary changes nothing about delivery.
//! The *graph discipline* is still enforced, by the context as on every
//! backend (`Ctx::check_graph`), so the simulator stays a faithful oracle.

use super::super::context::ProcTransport;
use super::super::packet::{Packet, PACKET_SIZE};
use super::shared::Grid;
use crate::relax::SyncMode;
use crate::stats::TransportCounters;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

pub(crate) struct SeqState {
    /// Both lanes, one slot per `(dest, src, phase)` — no locking needed
    /// beyond the baton, but the slot locks are never contended.
    pkts: Grid<Packet>,
    bytes: Grid<u8>,
    baton: Mutex<BatonState>,
    cv: Condvar,
    /// Set when a process dies holding the baton; wakes every waiter so the
    /// survivors fail with `PeerFailed` instead of waiting forever.
    poisoned: AtomicBool,
}

struct BatonState {
    current: usize,
    done: Vec<bool>,
}

/// Lock the baton. Poisoning is unreachable: its critical sections only
/// read and write `BatonState`, and `pass_baton`'s one assertion holds
/// (see there). So the guard is taken either way.
fn lock(m: &Mutex<BatonState>) -> MutexGuard<'_, BatonState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on the baton's condvar with a guard from [`lock`]; unpoisonable for
/// the same reason.
fn wait<'a>(cv: &Condvar, guard: MutexGuard<'a, BatonState>) -> MutexGuard<'a, BatonState> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

impl SeqState {
    pub(crate) fn new(nprocs: usize) -> Arc<Self> {
        Arc::new(SeqState {
            pkts: Grid::new(nprocs),
            bytes: Grid::new(nprocs),
            baton: Mutex::new(BatonState {
                current: 0,
                done: vec![false; nprocs],
            }),
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
        })
    }

    fn wait_for_baton(&self, pid: usize) {
        let mut b = lock(&self.baton);
        while b.current != pid && !self.poisoned.load(Ordering::Acquire) {
            b = wait(&self.cv, b);
        }
        drop(b);
        if self.poisoned.load(Ordering::Acquire) {
            std::panic::panic_any(crate::fault::BspError::PeerFailed {
                pid,
                step: 0,
                detail: "a peer process panicked while holding the simulation baton".to_string(),
            });
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        let _b = lock(&self.baton);
        self.cv.notify_all();
    }

    /// Hand the baton to the next not-yet-finished process after `pid`
    /// (cyclically). If every process is done, the baton stops moving.
    ///
    /// The assertion cannot fire: only the holder calls this, from
    /// `exchange` or `finish`, after its own `wait_for_baton` returned, and
    /// while a job runs only the holder moves the baton (`reset` rewinds it
    /// after every slot has finished).
    fn pass_baton(&self, pid: usize) {
        let mut b = lock(&self.baton);
        debug_assert_eq!(b.current, pid);
        let p = b.done.len();
        for off in 1..=p {
            let next = (pid + off) % p;
            if !b.done[next] {
                b.current = next;
                drop(b);
                self.cv.notify_all();
                return;
            }
        }
        // Everyone done; leave the baton parked.
    }
}

/// Per-process endpoint of the sequential simulator.
pub(crate) struct SeqProc {
    st: Arc<SeqState>,
    pid: usize,
    /// Superstep currently executing (so a deposit knows its target phase).
    cur_step: usize,
    counters: TransportCounters,
}

impl SeqProc {
    pub(crate) fn create_all(nprocs: usize) -> Vec<SeqProc> {
        let st = SeqState::new(nprocs);
        (0..nprocs)
            .map(|pid| SeqProc {
                st: Arc::clone(&st),
                pid,
                cur_step: 0,
                counters: TransportCounters::default(),
            })
            .collect()
    }
}

impl ProcTransport for SeqProc {
    fn on_start(&mut self) {
        // Block until it is this process's turn; the compute clock opens
        // after this returns, so waiting costs no measured work.
        self.st.wait_for_baton(self.pid);
    }

    fn send_pkts(&mut self, dest: usize, buf: &mut Vec<Packet>) {
        // Only this process runs, so the hand-over goes straight into the
        // destination's slot.
        self.counters.lock_acquisitions += 1;
        self.counters.pkts_moved += buf.len() as u64;
        self.counters.bytes_moved += (buf.len() * PACKET_SIZE) as u64;
        let phase = (self.cur_step + 1) & 1;
        self.st.pkts.deposit(dest, self.pid, phase, buf);
    }

    fn send_bytes(&mut self, dest: usize, buf: &mut Vec<u8>) {
        self.counters.lock_acquisitions += 1;
        self.counters.bytes_moved += buf.len() as u64;
        let phase = (self.cur_step + 1) & 1;
        self.st.bytes.deposit(dest, self.pid, phase, buf);
    }

    fn exchange(
        &mut self,
        step: usize,
        _mode: SyncMode,
        inbox: &mut [Vec<Packet>],
        byte_inbox: &mut [Vec<u8>],
    ) {
        // The baton serializes everything, so a neighborhood boundary is
        // delivered identically to a full one.
        debug_assert_eq!(step, self.cur_step);
        let phase = (step + 1) & 1;
        self.st.pass_baton(self.pid);
        self.st.wait_for_baton(self.pid);
        self.st.pkts.collect(self.pid, phase, inbox);
        self.st.bytes.collect(self.pid, phase, byte_inbox);
        self.cur_step = step + 1;
    }

    fn finish(&mut self) {
        let mut b = lock(&self.st.baton);
        b.done[self.pid] = true;
        drop(b);
        self.st.pass_baton(self.pid);
    }

    fn counters(&self) -> TransportCounters {
        self.counters
    }

    fn poison(&mut self) {
        self.st.poison();
    }

    fn reset(&mut self) -> bool {
        // Poisoning is permanent; a group that ever failed is rebuilt.
        if self.st.poisoned.load(Ordering::Acquire) {
            return false;
        }
        // Each endpoint clears its own inbound slots; a full sweep over the
        // group covers the whole shared state.
        self.st.pkts.clear(self.pid);
        self.st.bytes.clear(self.pid);
        self.cur_step = 0;
        let mut b = lock(&self.st.baton);
        b.done[self.pid] = false;
        if self.pid == 0 {
            b.current = 0;
        }
        drop(b);
        self.counters = TransportCounters::default();
        true
    }
}

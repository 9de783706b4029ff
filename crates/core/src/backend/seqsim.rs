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
//! Message delivery reuses the double-buffered phase discipline of the
//! shared-memory backend (and, for the byte lane, its [`ByteGrid`]): a
//! process finishing superstep `s` deposits its traffic in phase
//! `(s+1) mod 2` and, when the baton comes back around, it drains that
//! phase. The baton order guarantees every process finished superstep `s`
//! before any process starts `s + 1`.

//! Relaxed boundaries (DESIGN.md §12) are trivial here: with one process
//! running at a time, the baton already gives every boundary full-barrier
//! strength, so a neighborhood boundary changes nothing about delivery.
//! The *graph discipline* is still enforced, by the context as on every
//! backend (`Ctx::check_graph`), so the simulator stays a faithful oracle.

use super::super::context::{hand_over, ProcTransport};
use super::super::packet::{Packet, PACKET_SIZE};
use super::shared::ByteGrid;
use crate::relax::SyncMode;
use crate::stats::TransportCounters;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

pub(crate) struct SeqState {
    /// `bufs[dest][phase]` — no locking needed beyond the baton, but Mutex
    /// keeps the code uniform and the cost is one uncontended lock.
    bufs: Vec<[Mutex<Vec<Packet>>; 2]>,
    /// Byte-lane records, one slot per `(dest, src, phase)`.
    bytes: ByteGrid,
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

impl SeqState {
    pub(crate) fn new(nprocs: usize) -> Arc<Self> {
        Arc::new(SeqState {
            bufs: (0..nprocs)
                .map(|_| [Mutex::new(Vec::new()), Mutex::new(Vec::new())])
                .collect(),
            bytes: ByteGrid::new(nprocs),
            baton: Mutex::new(BatonState {
                current: 0,
                done: vec![false; nprocs],
            }),
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
        })
    }

    fn wait_for_baton(&self, pid: usize) {
        let mut b = self.baton.lock().unwrap();
        while b.current != pid && !self.poisoned.load(Ordering::Acquire) {
            b = self.cv.wait(b).unwrap();
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
        let _b = self.baton.lock().unwrap();
        self.cv.notify_all();
    }

    /// Hand the baton to the next not-yet-finished process after `pid`
    /// (cyclically). If every process is done, the baton stops moving.
    fn pass_baton(&self, pid: usize) {
        let mut b = self.baton.lock().unwrap();
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
    out: Vec<Vec<Packet>>,
    out_bytes: Vec<Vec<u8>>,
    counters: TransportCounters,
}

impl SeqProc {
    pub(crate) fn create_all(nprocs: usize) -> Vec<SeqProc> {
        let st = SeqState::new(nprocs);
        (0..nprocs)
            .map(|pid| SeqProc {
                st: Arc::clone(&st),
                pid,
                out: vec![Vec::new(); nprocs],
                out_bytes: vec![Vec::new(); nprocs],
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

    fn send_batch(&mut self, dest: usize, pkts: &[Packet]) {
        self.out[dest].extend_from_slice(pkts);
    }

    fn send_bytes(&mut self, dest: usize, buf: &mut Vec<u8>) {
        self.counters.bytes_moved += buf.len() as u64;
        hand_over(&mut self.out_bytes[dest], buf);
    }

    fn exchange(
        &mut self,
        step: usize,
        _mode: SyncMode,
        inbox: &mut Vec<Packet>,
        byte_inbox: &mut [Vec<u8>],
    ) {
        // The baton serializes everything, so a neighborhood boundary is
        // delivered identically to a full one.
        let phase = (step + 1) & 1;
        for (dest, batch) in self.out.iter_mut().enumerate() {
            if !batch.is_empty() {
                self.counters.lock_acquisitions += 1;
                self.counters.pkts_moved += batch.len() as u64;
                self.counters.bytes_moved += (batch.len() * PACKET_SIZE) as u64;
                self.st.bufs[dest][phase].lock().unwrap().append(batch);
            }
        }
        for (dest, buf) in self.out_bytes.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.counters.lock_acquisitions += 1;
                self.st.bytes.deposit(dest, self.pid, phase, buf);
            }
        }
        self.st.pass_baton(self.pid);
        self.st.wait_for_baton(self.pid);
        inbox.append(&mut self.st.bufs[self.pid][phase].lock().unwrap());
        self.st.bytes.collect(self.pid, phase, byte_inbox);
    }

    fn finish(&mut self) {
        let mut b = self.st.baton.lock().unwrap();
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
        for buf in &mut self.out {
            buf.clear();
        }
        for buf in &mut self.out_bytes {
            buf.clear();
        }
        // Each endpoint clears its own inbound phase buffers; a full sweep
        // over the group covers the whole shared state.
        for buf in &self.st.bufs[self.pid] {
            buf.lock().unwrap().clear();
        }
        self.st.bytes.clear(self.pid);
        let mut b = self.st.baton.lock().unwrap();
        b.done[self.pid] = false;
        if self.pid == 0 {
            b.current = 0;
        }
        drop(b);
        self.counters = TransportCounters::default();
        true
    }
}

//! Shared-memory library version (paper Appendix B.1), rebuilt around
//! zero-contention slab mailboxes for packets and per-pair buffer slots
//! ([`ByteGrid`]) for the byte lane.
//!
//! Each process owns two input mailboxes used in alternating supersteps. The
//! paper's library lock-protects its input buffers and amortizes the lock by
//! acquiring space for 1000 packets at a time; here the common case takes no
//! lock at all. A mailbox is a fixed-capacity packet slab plus an atomic
//! write cursor: a sender reserves a chunk of cells with a single
//! `fetch_add` and copies its packets into the reserved range. Distinct
//! senders always receive disjoint ranges, so the copies never conflict.
//! Bursts that overrun the slab spill into a conventional locked overflow
//! vector, and the owner grows the slab at the next superstep boundary so a
//! steady traffic level pays the lock at most once.
//!
//! ## Phase discipline (safety argument)
//!
//! Packets sent during superstep `s` are written into the destination's
//! mailbox of phase `(s + 1) mod 2` and drained by the owner right after the
//! barrier that ends superstep `s`. A sender next touches that same phase
//! during superstep `s + 2`, which it can only reach after passing the
//! barrier ending superstep `s + 1` — and the owner's drain happened before
//! the owner arrived at that barrier. Hence drains (and slab growth, which
//! happens inside the drain) on one phase are always separated from every
//! write to that phase by at least one barrier, and the barrier provides the
//! happens-before edge that makes the relaxed cursor arithmetic and the raw
//! cell writes visible. See DESIGN.md, "Transport hot path". The byte lane
//! follows the same discipline with nothing relaxed about it: a sender
//! swaps its staging buffer into the `(dest, src, phase)` slot, the owner
//! swaps it out after the barrier, both under the slot's mutex.
//!
//! ## Relaxed boundaries (DESIGN.md §12)
//!
//! A neighborhood boundary replaces the p-wide barrier with a pairwise
//! rendezvous over the registered sync graph: flush → signal own out-edges
//! → wait own in-edges → drain. The per-edge Release/Acquire flag carries
//! the same happens-before the barrier used to provide, but only along
//! declared edges — which is why every superstep *adjacent* to a
//! neighborhood boundary (the one it ends and the one it begins) may only
//! send to graph neighbors or self; the context enforces that for every
//! backend alike (`Ctx::check_graph`). Split-phase boundaries move the
//! arrival announcement into `exchange_begin` and keep only the blocking
//! wait + drain in `exchange`. Deposits happen whenever the context hands a
//! chunk over — mid-superstep once a destination's staging buffer fills,
//! the rest at the boundary — and the phase discipline covers them all
//! alike.

use super::super::barrier::Barrier;
use super::super::context::{hand_over, ProcTransport};
use super::super::packet::{Packet, PACKET_SIZE};
use crate::check::audit::PhaseAudit;
use crate::fault::BspError;
use crate::pad::CachePadded;
use crate::relax::{NeighborSync, SyncGraph, SyncMode};
use crate::stats::TransportCounters;
// Synchronization primitives come through the shim: std under a normal
// build (bit-identical codegen, including the transparent UnsafeCell
// wrapper), loom's model-checked equivalents under `--cfg loom`. See
// sync_shim.rs and DESIGN.md §13.
use crate::sync_shim::{AtomicPtr, AtomicUsize, Mutex, Ordering, Thread, UnsafeCell};
use std::sync::Arc;

/// Default number of packets the context stages per destination before
/// handing them to the transport — the paper's value (1000 packets per lock
/// acquisition, here per slab reservation or per buffer extend).
pub const DEFAULT_CHUNK: usize = 1000;

/// Default per-(destination, phase) slab capacity in packets (1 MiB of
/// 16-byte packets). The owner grows its slab past this on demand. Slab
/// pages are only touched as the cursor advances, so a generous default
/// costs address space, not resident memory.
pub const DEFAULT_SLAB_CAP: usize = 65536;

/// A single-phase mailbox: lock-free slab + locked overflow.
///
/// Writers call [`Mailbox::push`] concurrently; the owner calls
/// [`Mailbox::drain`] strictly between barriers (see the module-level phase
/// discipline). That protocol — not any field-level locking — is what makes
/// the `unsafe impl Sync` below sound.
pub(crate) struct Mailbox {
    /// Write cursor: the total number of packets pushed this phase. Padded
    /// to its own cache line so reservations against different mailboxes
    /// never false-share.
    cursor: CachePadded<AtomicUsize>,
    /// The slab buffer's data pointer, published by the owner in its
    /// barrier-separated drain window and read (Relaxed) by writers. Always
    /// equals `(*vec.get()).as_mut_ptr()`.
    data: AtomicPtr<Packet>,
    /// The slab buffer's capacity in packets; always equals
    /// `(*vec.get()).capacity()`.
    cap: AtomicUsize,
    /// The `Vec` that owns the slab buffer. Its length stays 0 outside
    /// `drain`: writers fill the spare capacity directly through `data`, and
    /// the drain hands the whole buffer to the inbox with a pointer swap.
    /// Owner-only (drain window).
    vec: UnsafeCell<Vec<Packet>>,
    /// Spillover for bursts that overrun the slab.
    overflow: Mutex<Vec<Packet>>,
}

// SAFETY: concurrent `push` calls write disjoint ranges of the slab buffer
// (disjointness is guaranteed by the atomic `fetch_add`), and `drain` — the
// only code that touches `vec` or republishes `data`/`cap` — runs in a
// window that the superstep barrier separates from every push to the same
// phase.
unsafe impl Sync for Mailbox {}

impl Mailbox {
    // pub(crate) so the loom suite can model-check the reservation/swap
    // protocol on a standalone mailbox.
    pub(crate) fn new(cap: usize) -> Self {
        let mut vec: Vec<Packet> = Vec::with_capacity(cap.max(1));
        Mailbox {
            cursor: CachePadded::new(AtomicUsize::new(0)),
            data: AtomicPtr::new(vec.as_mut_ptr()),
            cap: AtomicUsize::new(vec.capacity()),
            vec: UnsafeCell::new(vec),
            overflow: Mutex::new(Vec::new()),
        }
    }

    /// Deposit a batch: one atomic reservation, then one contiguous copy
    /// into the reserved range. Anything past the slab's capacity goes to
    /// the locked overflow. Callable concurrently from any thread.
    pub(crate) fn push(&self, pkts: &[Packet], counters: &mut TransportCounters) {
        if pkts.is_empty() {
            return;
        }
        // Relaxed suffices: disjointness needs only the RMW's atomicity, and
        // visibility to the drain is given by the superstep barrier.
        let start = self.cursor.0.fetch_add(pkts.len(), Ordering::Relaxed);
        counters.slab_reservations += 1;
        counters.pkts_moved += pkts.len() as u64;
        counters.bytes_moved += (pkts.len() * PACKET_SIZE) as u64;
        let cap = self.cap.load(Ordering::Relaxed);
        // Clamp: a reservation starting at or past the capacity is entirely
        // spillover.
        let begin = start.min(cap);
        let in_slab = (cap - begin).min(pkts.len());
        // SAFETY: the range `begin..begin + in_slab` lies inside the slab
        // buffer's capacity and belongs exclusively to this reservation; the
        // owner never touches the buffer while pushes can run.
        unsafe {
            let dst = self.data.load(Ordering::Relaxed).add(begin);
            std::ptr::copy_nonoverlapping(pkts.as_ptr(), dst, in_slab);
        }
        if in_slab < pkts.len() {
            counters.overflow_spills += 1;
            counters.lock_acquisitions += 1;
            let mut ov = self.overflow.lock().unwrap();
            ov.extend_from_slice(&pkts[in_slab..]);
        }
    }

    /// Owner-only: move everything deposited this phase into `inbox`, reset
    /// the cursor, and grow the slab if the phase overflowed. Must only be
    /// called between the barrier ending the phase's superstep and the next
    /// barrier.
    ///
    /// The common case is zero-copy: the filled slab buffer is swapped with
    /// `inbox` wholesale, and the inbox's previous buffer becomes the next
    /// slab — so buffers circulate between the context and the mailbox and
    /// a steady traffic level allocates nothing.
    pub(crate) fn drain(&self, inbox: &mut Vec<Packet>, counters: &mut TransportCounters) {
        let total = self.cursor.0.swap(0, Ordering::Relaxed);
        if total == 0 {
            return;
        }
        self.vec.with_mut(|vptr| {
            // SAFETY: exclusive access during the drain window (phase
            // discipline); no push to this phase can run concurrently —
            // under `--cfg loom` the model checker verifies exactly this
            // via the cell's happens-before tracking.
            let vec = unsafe { &mut *vptr };
            let cap = vec.capacity();
            let used = total.min(cap);
            // SAFETY: reservations tile `0..total` densely from 0, so every
            // slot in `..used` was written by a completed push this phase —
            // `used` elements of the buffer are initialized.
            unsafe { vec.set_len(used) };
            std::mem::swap(inbox, vec);
            // `vec` is now the inbox's previous buffer. Anything still in it
            // belongs to the receiver (delivery order is unspecified anyway).
            if !vec.is_empty() {
                inbox.append(vec);
            }
            vec.clear();
            if total > cap {
                counters.lock_acquisitions += 1;
                let mut ov = self.overflow.lock().unwrap();
                debug_assert_eq!(ov.len(), total - used, "overflow bookkeeping");
                inbox.append(&mut ov);
            }
            // Republish the slab: grow so the next burst of this size is
            // lock-free, otherwise reuse the circulated buffer as-is.
            let need = if total > cap {
                total.next_power_of_two()
            } else {
                cap
            };
            if vec.capacity() < need {
                if total > cap {
                    counters.slab_regrows += 1;
                }
                *vec = Vec::with_capacity(need);
            }
            self.data.store(vec.as_mut_ptr(), Ordering::Relaxed);
            self.cap.store(vec.capacity(), Ordering::Relaxed);
        });
    }

    /// Current slab capacity in packets (test hook).
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.cap.load(Ordering::Relaxed)
    }
}

/// The byte lane's fabric: one buffer slot per `(dest, src, phase)`.
///
/// Byte-lane records are never copied between processes — the buffer they
/// were staged in is handed over. A slot has exactly one writer (`src`,
/// during a superstep that writes `phase`) and one reader (`dest`, right
/// after the boundary that closes it), and both only ever `mem::swap` its
/// buffer with one of their own: the sender trades its full staging buffer
/// for the slot's empty one, the owner trades last superstep's dead inbox
/// segment for the slot's full one. Four buffers therefore circulate per
/// ordered pair — staging, the two phase slots, the inbox segment — and a
/// steady traffic level allocates nothing. The phase discipline (module
/// docs) keeps writer and reader a barrier apart, so the mutex is never
/// contended; it is there so that the hand-over needs no `unsafe`.
pub(crate) struct ByteGrid {
    /// `slots[dest][src][phase]`.
    slots: Vec<Vec<[Mutex<Vec<u8>>; 2]>>,
}

impl ByteGrid {
    pub(crate) fn new(nprocs: usize) -> Self {
        ByteGrid {
            slots: (0..nprocs)
                .map(|_| {
                    (0..nprocs)
                        .map(|_| [Mutex::new(Vec::new()), Mutex::new(Vec::new())])
                        .collect()
                })
                .collect(),
        }
    }

    /// Sender side: hand `src`'s records for `dest` to the slot of `phase`
    /// and leave `buf` empty — holding the slot's previous (empty) buffer
    /// unless this superstep already deposited there (a fault injector's
    /// duplicate), in which case the records are appended.
    pub(crate) fn deposit(&self, dest: usize, src: usize, phase: usize, buf: &mut Vec<u8>) {
        let mut slot = self.slots[dest][src][phase]
            .lock()
            .expect("byte slot lock poisoned");
        hand_over(&mut slot, buf);
    }

    /// Owner side, between the boundary that closes `phase` and the next
    /// one: trade every inbox segment for the matching slot's buffer, so
    /// `byte_inbox[src]` holds what `src` deposited and the slot keeps the
    /// dead segment's allocation. Returns how many slots held records.
    pub(crate) fn collect(&self, dest: usize, phase: usize, byte_inbox: &mut [Vec<u8>]) -> u64 {
        let mut filled = 0;
        for (slot, seg) in self.slots[dest].iter().zip(byte_inbox) {
            let mut slot = slot[phase].lock().expect("byte slot lock poisoned");
            std::mem::swap(&mut *slot, seg);
            slot.clear();
            filled += u64::from(!seg.is_empty());
        }
        filled
    }

    /// Arena reset between jobs (owner only, outside any exchange): drop
    /// whatever was deposited for `dest` after the job's last boundary,
    /// keeping every slot's capacity.
    pub(crate) fn clear(&self, dest: usize) {
        for slot in self.slots[dest].iter().flatten() {
            slot.lock().expect("byte slot lock poisoned").clear();
        }
    }
}

impl Mailbox {
    /// Arena reset between jobs (owner only, outside any exchange): make
    /// every packet deposited after the job's last drain unreachable by
    /// rewinding the cursor — the generation tag of this slab. The slab
    /// keeps its pages and capacity; nothing is zeroed or reallocated, and
    /// the overflow lock is only touched if a stale deposit actually spilled.
    pub(crate) fn reset(&self) {
        if self.cursor.0.swap(0, Ordering::Relaxed) > self.cap.load(Ordering::Relaxed) {
            self.overflow.lock().unwrap().clear();
        }
    }
}

/// Global state shared by all processes: the double-buffered mailboxes and
/// the barrier.
pub(crate) struct SharedState {
    /// `mailboxes[dest][phase]`, phase alternating by superstep.
    pub(crate) mailboxes: Vec<[Mailbox; 2]>,
    /// The byte lane: per-pair buffer slots under the same phase
    /// discipline as the packet slabs.
    pub(crate) bytes: ByteGrid,
    pub(crate) barrier: Box<dyn Barrier>,
    /// Shadow-state phase-discipline validator; attached on checked runs
    /// only, so the unchecked hot path pays one predictable branch.
    pub(crate) audit: Option<Arc<PhaseAudit>>,
    /// Neighborhood-rendezvous state; present iff the run registered a
    /// sync graph ([`crate::Config::sync_graph`]).
    pub(crate) relax: Option<RelaxShared>,
}

/// The sync graph plus its per-edge rendezvous flags.
pub(crate) struct RelaxShared {
    pub(crate) graph: Arc<SyncGraph>,
    pub(crate) neigh: NeighborSync,
}

impl SharedState {
    #[cfg(test)]
    pub(crate) fn new(nprocs: usize, barrier: Box<dyn Barrier>, slab_cap: usize) -> Arc<Self> {
        Self::with_audit(nprocs, barrier, slab_cap, None, None)
    }

    pub(crate) fn with_audit(
        nprocs: usize,
        barrier: Box<dyn Barrier>,
        slab_cap: usize,
        audit: Option<Arc<PhaseAudit>>,
        graph: Option<Arc<SyncGraph>>,
    ) -> Arc<Self> {
        let cap = slab_cap.max(1);
        Arc::new(SharedState {
            mailboxes: (0..nprocs)
                .map(|_| [Mailbox::new(cap), Mailbox::new(cap)])
                .collect(),
            bytes: ByteGrid::new(nprocs),
            barrier,
            audit,
            relax: graph.map(|graph| RelaxShared {
                neigh: NeighborSync::new(nprocs),
                graph,
            }),
        })
    }

    pub(crate) fn nprocs(&self) -> usize {
        self.mailboxes.len()
    }
}

/// Per-process endpoint of the shared-memory transport.
pub(crate) struct SharedProc {
    pub(crate) st: Arc<SharedState>,
    pub(crate) pid: usize,
    /// Superstep currently executing (so a deposit knows its target phase).
    cur_step: usize,
    /// An `exchange_begin` ran for `cur_step`; `exchange` completes it.
    begun: bool,
    /// Monotone neighborhood-rendezvous generation. Advances in lockstep
    /// across procs (sync-mode congruence) and survives arena reuse, like
    /// msgpass's `xseq` — the shared flags are never rewound.
    neigh_gen: u64,
    /// Deferred neighborhood wakes (see [`NeighborSync::signal`]): handed
    /// to every signal/wait and flushed on finish/reset so no neighbor is
    /// left sleeping against the park timeout.
    pending_wakes: Vec<Thread>,
    counters: TransportCounters,
}

impl SharedProc {
    pub(crate) fn new(st: Arc<SharedState>, pid: usize) -> Self {
        SharedProc {
            st,
            pid,
            cur_step: 0,
            begun: false,
            neigh_gen: 0,
            pending_wakes: Vec::new(),
            counters: TransportCounters::default(),
        }
    }

    #[inline]
    fn write_phase(&self) -> usize {
        (self.cur_step + 1) & 1
    }

    /// Drain this process's packet mailbox and byte slots for the phase
    /// that superstep `step + 1` reads: packets are appended to `inbox`,
    /// byte segments replaced. One audit window covers both drains: they
    /// share the same barrier-separated slot of the phase discipline.
    pub(crate) fn drain_own(
        &mut self,
        step: usize,
        inbox: &mut Vec<Packet>,
        byte_inbox: &mut [Vec<u8>],
    ) {
        let phase = (step + 1) & 1;
        if let Some(a) = &self.st.audit {
            a.on_drain_start(self.pid, phase, step);
        }
        self.st.mailboxes[self.pid][phase].drain(inbox, &mut self.counters);
        self.counters.lock_acquisitions += self.st.bytes.collect(self.pid, phase, byte_inbox);
        if let Some(a) = &self.st.audit {
            a.on_drain_end(self.pid, phase);
        }
    }

    /// Announce this process's arrival at the boundary `mode` names without
    /// waiting for anyone: the split half of a barrier crossing, or the
    /// signal on every out-edge of the sync graph.
    fn arrive(&mut self, mode: SyncMode) {
        match mode {
            SyncMode::Full => self.st.barrier.arrive(self.pid),
            SyncMode::Neighborhood => {
                self.neigh_gen += 1;
                let rx = (self.st.relax.as_ref())
                    .expect("neighborhood synchronization requires Config::sync_graph");
                rx.neigh.signal(
                    self.pid,
                    rx.graph.neighbors(self.pid),
                    self.neigh_gen,
                    &mut self.pending_wakes,
                );
            }
        }
    }
}

impl ProcTransport for SharedProc {
    fn send_batch(&mut self, dest: usize, pkts: &[Packet]) {
        // The context did the staging: a chunk travels from its buffer to
        // the destination's slab with one reservation and one memcpy.
        let phase = self.write_phase();
        if let Some(a) = &self.st.audit {
            a.on_push(self.pid, dest, phase, self.cur_step);
        }
        self.st.mailboxes[dest][phase].push(pkts, &mut self.counters);
    }

    fn send_bytes(&mut self, dest: usize, buf: &mut Vec<u8>) {
        // The context hands over a whole superstep's records per
        // destination: the buffer itself goes into this pair's slot, nothing
        // is copied.
        let phase = self.write_phase();
        if let Some(a) = &self.st.audit {
            a.on_push(self.pid, dest, phase, self.cur_step);
        }
        self.counters.lock_acquisitions += 1;
        self.counters.bytes_moved += buf.len() as u64;
        self.st.bytes.deposit(dest, self.pid, phase, buf);
    }

    fn exchange_begin(&mut self, step: usize, mode: SyncMode) {
        debug_assert_eq!(step, self.cur_step);
        debug_assert!(!self.begun, "exchange_begin without a completing exchange");
        self.arrive(mode);
        self.begun = true;
    }

    fn exchange(
        &mut self,
        step: usize,
        mode: SyncMode,
        inbox: &mut Vec<Packet>,
        byte_inbox: &mut [Vec<u8>],
    ) {
        debug_assert_eq!(step, self.cur_step);
        // After an `exchange_begin` this is the second half of a split
        // boundary: the arrival announcement already happened.
        let begun = std::mem::take(&mut self.begun);
        let ok = match mode {
            SyncMode::Full => {
                if begun {
                    self.st.barrier.complete(self.pid);
                } else {
                    self.st.barrier.wait(self.pid);
                }
                !self.st.barrier.is_poisoned()
            }
            SyncMode::Neighborhood => {
                // Pairwise rendezvous: signal own out-edges, wait own
                // in-edges. Release/Acquire on the per-edge flags gives
                // neighbors the same happens-before the barrier did.
                if !begun {
                    self.arrive(mode);
                }
                let rx = self.st.relax.as_ref().expect("arrived over the graph");
                rx.neigh.wait(
                    self.pid,
                    rx.graph.neighbors(self.pid),
                    self.neigh_gen,
                    &mut self.pending_wakes,
                )
            }
        };
        if !ok {
            // A peer died; the rendezvous released us without the
            // all-arrived guarantee, so the inboxes are unusable. Surface a
            // structured error instead of computing on garbage or
            // deadlocking.
            std::panic::panic_any(BspError::PeerFailed {
                pid: self.pid,
                step,
                detail: "a peer process panicked before reaching the superstep boundary"
                    .to_string(),
            });
        }
        self.drain_own(step, inbox, byte_inbox);
        self.cur_step = step + 1;
    }

    fn finish(&mut self) {
        // Superstep alignment is the program's contract; the only cleanup
        // is delivering wakes deferred at the final boundary — this
        // processor will never signal again, so a neighbor parked on the
        // last crossing would otherwise ride out the park timeout.
        if let Some(rx) = &self.st.relax {
            rx.neigh.flush(&mut self.pending_wakes);
        }
    }

    fn counters(&self) -> TransportCounters {
        self.counters
    }

    fn poison(&mut self) {
        self.st.barrier.poison();
        if let Some(rx) = &self.st.relax {
            rx.neigh.poison();
        }
    }

    fn reset(&mut self) -> bool {
        // A poisoned barrier is permanently failed (one-way flag); the whole
        // group must be rebuilt, never reused. A proc parked mid-split
        // (exchange_begin without its exchange) is mid-protocol: peers may
        // still drain against its arrival, so decline reuse.
        if self.st.barrier.is_poisoned() || self.begun {
            return false;
        }
        if let Some(rx) = &self.st.relax {
            if rx.neigh.is_poisoned() {
                return false;
            }
            // Normally emptied by finish(); flush defensively so a leased
            // transport never carries wakes into the next job.
            rx.neigh.flush(&mut self.pending_wakes);
        }
        // Each endpoint rewinds its *own* mailboxes and byte slots (both
        // phases): traffic sent after a job's last sync still reaches them
        // (the context hands its staging over as it finishes), and a leased
        // slice must never observe a prior job's traffic.
        for mb in &self.st.mailboxes[self.pid] {
            mb.reset();
        }
        self.st.bytes.clear(self.pid);
        self.cur_step = 0;
        // `neigh_gen` is deliberately NOT rewound: the shared per-edge
        // flags are monotone across the arena's lifetime (like msgpass's
        // xseq), so a reused endpoint must keep counting from where the
        // fabric is.
        // Counters are per-run quantities (tests assert exact totals), not
        // per-endpoint lifetime totals.
        self.counters = TransportCounters::default();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::BarrierKind;

    #[test]
    fn mailbox_roundtrip_within_capacity() {
        let mb = Mailbox::new(8);
        let mut c = TransportCounters::default();
        mb.push(&[Packet::two_u64(1, 0), Packet::two_u64(2, 0)], &mut c);
        mb.push(&[Packet::two_u64(3, 0)], &mut c);
        let mut out = Vec::new();
        mb.drain(&mut out, &mut c);
        let mut vals: Vec<u64> = out.iter().map(|p| p.as_two_u64().0).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![1, 2, 3]);
        assert_eq!(c.slab_reservations, 2);
        assert_eq!(c.lock_acquisitions, 0, "in-capacity traffic takes no lock");
        assert_eq!(c.overflow_spills, 0);
        assert_eq!(c.pkts_moved, 3);
        assert_eq!(c.bytes_moved, 3 * PACKET_SIZE as u64);
    }

    #[test]
    fn mailbox_overflow_spills_and_grows() {
        let mb = Mailbox::new(4);
        let mut c = TransportCounters::default();
        let pkts: Vec<Packet> = (0..10).map(|i| Packet::two_u64(i, 0)).collect();
        mb.push(&pkts, &mut c);
        assert_eq!(c.overflow_spills, 1);
        let mut out = Vec::new();
        mb.drain(&mut out, &mut c);
        let mut vals: Vec<u64> = out.iter().map(|p| p.as_two_u64().0).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..10).collect::<Vec<u64>>());
        // Grown to the next power of two >= 10.
        assert_eq!(mb.capacity(), 16);
        // The next burst of the same size is lock-free.
        let before = c.lock_acquisitions;
        mb.push(&pkts, &mut c);
        assert_eq!(c.lock_acquisitions, before);
        let mut out2 = Vec::new();
        mb.drain(&mut out2, &mut c);
        assert_eq!(out2.len(), 10);
    }

    #[test]
    fn mailbox_empty_drain_is_noop() {
        let mb = Mailbox::new(4);
        let mut c = TransportCounters::default();
        let mut out = Vec::new();
        mb.drain(&mut out, &mut c);
        assert!(out.is_empty());
    }

    #[test]
    fn concurrent_pushes_land_disjointly() {
        // Many writers hammer one mailbox; the drained multiset must be
        // exactly what was pushed. (Barrier-free variant of the phase
        // discipline: the scope join provides the happens-before edge.)
        let mb = Mailbox::new(64); // force heavy overflow too
        let writers = 8;
        let per = 1000usize;
        std::thread::scope(|s| {
            for w in 0..writers {
                let mb = &mb;
                s.spawn(move || {
                    let mut c = TransportCounters::default();
                    for i in 0..per {
                        mb.push(&[Packet::two_u64(w as u64, i as u64)], &mut c);
                    }
                });
            }
        });
        let mut out = Vec::new();
        let mut c = TransportCounters::default();
        mb.drain(&mut out, &mut c);
        assert_eq!(out.len(), writers * per);
        let mut seen = std::collections::HashSet::new();
        for p in &out {
            assert!(seen.insert(p.as_two_u64()), "duplicate packet {:?}", p);
        }
    }

    #[test]
    fn shared_proc_counters_flow_through_exchange() {
        let st = SharedState::new(2, BarrierKind::Central.build(2), 16);
        // Single-threaded double-endpoint dance: both procs deposit in
        // chunks of five, then both hit the barrier via two threads.
        let mut a = SharedProc::new(st.clone(), 0);
        let mut b = SharedProc::new(st.clone(), 1);
        let pkts =
            |base: u64| -> Vec<Packet> { (0..10).map(|i| Packet::two_u64(base + i, 0)).collect() };
        for (to_b, to_a) in pkts(0).chunks(5).zip(pkts(100).chunks(5)) {
            a.send_batch(1, to_b);
            b.send_batch(0, to_a);
        }
        let (mut ia, mut ib) = (Vec::new(), Vec::new());
        let (mut ba, mut bb) = (vec![Vec::new(); 2], vec![Vec::new(); 2]);
        std::thread::scope(|s| {
            s.spawn(|| a.exchange(0, SyncMode::Full, &mut ia, &mut ba));
            s.spawn(|| b.exchange(0, SyncMode::Full, &mut ib, &mut bb));
        });
        assert_eq!(ia.len(), 10);
        assert_eq!(ib.len(), 10);
        assert_eq!(
            a.counters().slab_reservations,
            2,
            "one reservation per chunk"
        );
        assert_eq!(a.counters().pkts_moved, 10);
    }
}

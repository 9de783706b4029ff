//! Shared-memory library version (paper Appendix B.1), rebuilt around one
//! fabric for both lanes: a per-pair buffer slot ([`Grid`]) for every
//! `(dest, src, phase)`, filled and emptied by swapping whole buffers.
//!
//! The paper's library lock-protects each process's input buffer and
//! amortizes the lock by acquiring space for 1000 packets at a time. Here
//! no two senders ever share a buffer: a sender hands a destination its
//! whole superstep of packets (or byte-lane records) by swapping its
//! staging buffer into the pair's slot, once per destination per
//! superstep, and the slot's lock is never contended.
//!
//! ## Phase discipline
//!
//! Traffic sent during superstep `s` is deposited into the slots of phase
//! `(s + 1) mod 2` and collected by the owner right after the barrier that
//! ends superstep `s`. A sender next touches that same phase during
//! superstep `s + 2`, which it can only reach after passing the barrier
//! ending superstep `s + 1` — and the owner's collect happened before the
//! owner arrived at that barrier. Hence a slot's writer and reader are
//! always a barrier apart; the slot mutex only spares the hand-over any
//! `unsafe`. See DESIGN.md §7.
//!
//! ## Relaxed boundaries (DESIGN.md §12)
//!
//! A neighborhood boundary replaces the p-wide barrier with a pairwise
//! rendezvous over the registered sync graph: flush → signal own out-edges
//! → wait own in-edges → collect. The per-edge Release/Acquire flag carries
//! the same happens-before the barrier used to provide, but only along
//! declared edges — which is why every superstep *adjacent* to a
//! neighborhood boundary (the one it ends and the one it begins) may only
//! send to graph neighbors or self; the context enforces that for every
//! backend alike (`Ctx::check_graph`). Split-phase boundaries move the
//! arrival announcement into `exchange_begin` and keep only the blocking
//! wait + collect in `exchange`. Every deposit happens as the context
//! flushes its staging at the boundary, so the phase discipline covers
//! them all alike.

use super::super::barrier::Barrier;
use super::super::context::{hand_over, ProcTransport};
use super::super::packet::{Packet, PACKET_SIZE};
use crate::check::audit::PhaseAudit;
use crate::fault::BspError;
use crate::pad::CachePadded;
use crate::relax::{NeighborSync, SyncGraph, SyncMode};
use crate::stats::TransportCounters;
// Synchronization primitives come through the shim: std under a normal
// build, loom's model-checked equivalents under `--cfg loom`. See
// sync_shim.rs and DESIGN.md §13.
use crate::sync_shim::{AtomicUsize, Mutex, Ordering, Thread};
use std::sync::Arc;

/// The fabric of both lanes: one buffer slot per `(dest, src, phase)`.
///
/// Nothing is copied between processes — the buffer traffic was staged in
/// is handed over. A slot has exactly one writer (`src`, during a
/// superstep that writes `phase`) and one reader (`dest`, right after the
/// boundary that closes it), and both only ever `mem::swap` its buffer
/// with one of their own: the sender trades its full staging buffer for
/// the slot's empty one, the owner trades last superstep's dead inbox
/// segment for the slot's full one. Four buffers therefore circulate per
/// ordered pair — staging, the two phase slots, the inbox segment — and a
/// steady traffic level allocates nothing. The phase discipline (module
/// docs) keeps writer and reader a barrier apart, so the mutex is never
/// contended; it is there so that the hand-over needs no `unsafe`.
pub(crate) struct Grid<T> {
    /// `slots[dest][src][phase]`.
    slots: Vec<Vec<[Mutex<Vec<T>>; 2]>>,
    /// `deposits[dest][phase]`: deposits waiting in `dest`'s slots of
    /// `phase`, so a collect with nothing to take — a quiet boundary, or
    /// the lane a superstep did not use — touches no slot. Relaxed: the
    /// boundary that orders a slot's deposit before its collect orders
    /// this count the same way.
    deposits: Vec<[CachePadded<AtomicUsize>; 2]>,
}

impl<T> Grid<T> {
    pub(crate) fn new(nprocs: usize) -> Self {
        Grid {
            slots: (0..nprocs)
                .map(|_| {
                    (0..nprocs)
                        .map(|_| [Mutex::new(Vec::new()), Mutex::new(Vec::new())])
                        .collect()
                })
                .collect(),
            deposits: (0..nprocs)
                .map(|_| [0, 1].map(|_| CachePadded::new(AtomicUsize::new(0))))
                .collect(),
        }
    }

    pub(crate) fn nprocs(&self) -> usize {
        self.slots.len()
    }

    /// Sender side: hand `src`'s traffic for `dest` to the slot of `phase`
    /// and leave `buf` empty — holding the slot's previous (empty) buffer
    /// unless this superstep already deposited there (a fault injector's
    /// duplicate), in which case the traffic is appended.
    pub(crate) fn deposit(&self, dest: usize, src: usize, phase: usize, buf: &mut Vec<T>) {
        let mut slot = self.slots[dest][src][phase]
            .lock()
            .expect("grid slot lock poisoned");
        hand_over(&mut slot, buf);
        self.deposits[dest][phase].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Owner side, between the boundary that closes `phase` and the next
    /// one: trade every inbox segment for the matching slot's buffer, so
    /// `inbox[src]` holds what `src` deposited and the slot keeps the dead
    /// segment's allocation. Returns how many slots held traffic.
    pub(crate) fn collect(&self, dest: usize, phase: usize, inbox: &mut [Vec<T>]) -> u64 {
        if self.deposits[dest][phase].0.swap(0, Ordering::Relaxed) == 0 {
            for seg in inbox {
                seg.clear();
            }
            return 0;
        }
        let mut filled = 0;
        for (slot, seg) in self.slots[dest].iter().zip(inbox) {
            let mut slot = slot[phase].lock().expect("grid slot lock poisoned");
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
            slot.lock().expect("grid slot lock poisoned").clear();
        }
        for count in &self.deposits[dest] {
            count.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Global state shared by all processes: the two lanes' grids and the
/// barrier.
pub(crate) struct SharedState {
    /// The packet lane.
    pub(crate) pkts: Grid<Packet>,
    /// The byte lane, under the same phase discipline.
    pub(crate) bytes: Grid<u8>,
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
    pub(crate) fn new(nprocs: usize, barrier: Box<dyn Barrier>) -> Arc<Self> {
        Self::with_audit(nprocs, barrier, None, None)
    }

    pub(crate) fn with_audit(
        nprocs: usize,
        barrier: Box<dyn Barrier>,
        audit: Option<Arc<PhaseAudit>>,
        graph: Option<Arc<SyncGraph>>,
    ) -> Arc<Self> {
        Arc::new(SharedState {
            pkts: Grid::new(nprocs),
            bytes: Grid::new(nprocs),
            barrier,
            audit,
            relax: graph.map(|graph| RelaxShared {
                neigh: NeighborSync::new(nprocs),
                graph,
            }),
        })
    }

    pub(crate) fn nprocs(&self) -> usize {
        self.pkts.nprocs()
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

    /// Collect this process's slots of both lanes for the phase that
    /// superstep `step + 1` reads, replacing every inbox segment. One audit
    /// window covers both: they share the same barrier-separated slot of
    /// the phase discipline.
    pub(crate) fn drain_own(
        &mut self,
        step: usize,
        inbox: &mut [Vec<Packet>],
        byte_inbox: &mut [Vec<u8>],
    ) {
        let phase = (step + 1) & 1;
        if let Some(a) = &self.st.audit {
            a.on_drain_start(self.pid, phase, step);
        }
        self.counters.lock_acquisitions += self.st.pkts.collect(self.pid, phase, inbox)
            + self.st.bytes.collect(self.pid, phase, byte_inbox);
        if let Some(a) = &self.st.audit {
            a.on_drain_end(self.pid, phase);
        }
    }

    /// Open a deposit into `dest`'s slot: audit it and count its lock.
    /// Returns the phase this superstep writes.
    fn deposit_phase(&mut self, dest: usize) -> usize {
        let phase = (self.cur_step + 1) & 1;
        if let Some(a) = &self.st.audit {
            a.on_push(self.pid, dest, phase, self.cur_step);
        }
        self.counters.lock_acquisitions += 1;
        phase
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
    fn send_pkts(&mut self, dest: usize, buf: &mut Vec<Packet>) {
        // The context hands over a whole superstep's traffic per
        // destination: the buffer itself goes into this pair's slot,
        // nothing is copied.
        self.counters.pkts_moved += buf.len() as u64;
        self.counters.bytes_moved += (buf.len() * PACKET_SIZE) as u64;
        let phase = self.deposit_phase(dest);
        self.st.pkts.deposit(dest, self.pid, phase, buf);
    }

    fn send_bytes(&mut self, dest: usize, buf: &mut Vec<u8>) {
        self.counters.bytes_moved += buf.len() as u64;
        let phase = self.deposit_phase(dest);
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
        inbox: &mut [Vec<Packet>],
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
        // Each endpoint clears its *own* slots of both lanes (both
        // phases): traffic sent after a job's last sync still reaches them
        // (the context hands its staging over as it finishes), and a leased
        // slice must never observe a prior job's traffic.
        self.st.pkts.clear(self.pid);
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

    fn pkts(base: u64, n: u64) -> Vec<Packet> {
        (0..n).map(|i| Packet::two_u64(base + i, 0)).collect()
    }

    #[test]
    fn grid_collect_yields_one_segment_per_source_in_send_order() {
        let g: Grid<Packet> = Grid::new(3);
        let (mut a, mut b) = (pkts(0, 4), pkts(100, 2));
        g.deposit(1, 2, 1, &mut a);
        g.deposit(1, 0, 1, &mut b);
        assert!(
            a.is_empty() && b.is_empty(),
            "deposits leave the buffer empty"
        );
        // A second deposit in the same superstep (a fault injector's
        // duplicate) is appended.
        g.deposit(1, 0, 1, &mut pkts(200, 1));
        let mut inbox = vec![pkts(900, 3); 3];
        assert_eq!(g.collect(1, 1, &mut inbox), 2);
        assert_eq!(
            inbox,
            [[pkts(100, 2), pkts(200, 1)].concat(), vec![], pkts(0, 4)]
        );
        // The dead segments went back into the slots, emptied; the other
        // phase was never touched.
        assert_eq!(g.collect(1, 1, &mut inbox), 0);
        assert!(inbox.iter().all(Vec::is_empty));
        assert_eq!(g.collect(1, 0, &mut inbox), 0);
    }

    #[test]
    fn concurrent_pushes_land_disjointly() {
        // Many writers deposit into one destination's slots at once; each
        // segment must be exactly its writer's traffic, in send order.
        // (Barrier-free variant of the phase discipline: the scope join
        // provides the happens-before edge.)
        let writers = 8;
        let g: Grid<Packet> = Grid::new(writers);
        std::thread::scope(|s| {
            for w in 0..writers {
                let g = &g;
                s.spawn(move || g.deposit(0, w, 0, &mut pkts(1000 * w as u64, 1000)));
            }
        });
        let mut inbox = vec![Vec::new(); writers];
        assert_eq!(g.collect(0, 0, &mut inbox), writers as u64);
        for (w, seg) in inbox.iter().enumerate() {
            assert_eq!(seg, &pkts(1000 * w as u64, 1000));
        }
    }

    #[test]
    fn shared_proc_counters_flow_through_exchange() {
        let st = SharedState::new(2, BarrierKind::Central.build(2));
        // Single-threaded double-endpoint dance: each proc hands its peer
        // one superstep of packets, then both hit the barrier via two
        // threads.
        let mut a = SharedProc::new(st.clone(), 0);
        let mut b = SharedProc::new(st.clone(), 1);
        a.send_pkts(1, &mut pkts(0, 10));
        b.send_pkts(0, &mut pkts(100, 10));
        let (mut ia, mut ib) = (vec![Vec::new(); 2], vec![Vec::new(); 2]);
        let (mut ba, mut bb) = (vec![Vec::new(); 2], vec![Vec::new(); 2]);
        std::thread::scope(|s| {
            s.spawn(|| a.exchange(0, SyncMode::Full, &mut ia, &mut ba));
            s.spawn(|| b.exchange(0, SyncMode::Full, &mut ib, &mut bb));
        });
        assert_eq!(ia, [vec![], pkts(100, 10)]);
        assert_eq!(ib, [pkts(0, 10), vec![]]);
        let c = a.counters();
        // One lock to deposit, one to collect the one filled slot.
        assert_eq!((c.lock_acquisitions, c.pkts_moved), (2, 10));
        assert_eq!(c.bytes_moved, 10 * PACKET_SIZE as u64);
    }
}

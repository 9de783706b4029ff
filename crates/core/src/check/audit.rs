//! Runtime shadow-state validators: the checked transport wrapper, the
//! packet-conservation ledger, and the grid's phase-discipline audit.
//!
//! [`CheckedBackend`] wraps any [`ProcTransport`] and verifies, at every
//! superstep boundary, that the number of packets the transport delivered
//! to this process equals the sum of what every process sent to it during
//! the superstep — exact conservation, checked independently on all four
//! backends. [`PhaseAudit`] mirrors every deposit into and collect from
//! the shared-memory grid ([`crate::backend::shared`]) against the phase
//! discipline it relies on (send in step `s` → collect in the window right
//! after the barrier ending `s` → next touch in step `s + 2`) and reports
//! any ordering violation as a [`CheckKind::PhaseDiscipline`] diagnostic.

use super::{report, CheckKind, CheckReport, CheckShared, ReportSink};
use crate::context::ProcTransport;
use crate::packet::Packet;
use crate::relax::SyncMode;
use crate::stats::TransportCounters;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Per-(destination, phase) counters of packets sent, added to by every
/// sender before it enters the boundary synchronization and read by the
/// destination right after. The synchronization that every backend
/// performs inside `exchange` (barrier, channel receives, baton, staged
/// pipes) provides the happens-before edge that makes the relaxed adds
/// visible to the reader — the same argument as the grid itself.
pub(crate) struct DeliveryLedger {
    sent: Vec<[AtomicU64; 2]>,
}

impl DeliveryLedger {
    pub(crate) fn new(nprocs: usize) -> DeliveryLedger {
        DeliveryLedger {
            sent: (0..nprocs)
                .map(|_| [AtomicU64::new(0), AtomicU64::new(0)])
                .collect(),
        }
    }

    /// Record `count` packets bound for `dest`, sent during a superstep of
    /// parity `phase`.
    pub(crate) fn add(&self, dest: usize, phase: usize, count: u64) {
        if count > 0 {
            self.sent[dest][phase].fetch_add(count, Ordering::Relaxed);
        }
    }

    /// Destination-side: read-and-reset the expected count for this
    /// process and phase. Called between the boundary synchronization and
    /// the next one, so no sender can be concurrently adding to the slot
    /// (a sender next touches this parity two supersteps later).
    pub(crate) fn take(&self, me: usize, phase: usize) -> u64 {
        self.sent[me][phase].swap(0, Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------

/// Shadow state for one destination's grid slots of one phase.
struct GridShadow {
    /// `1 + s` where `s` is the superstep whose boundary window last
    /// drained this phase; 0 when never drained.
    last_drain: AtomicU64,
    /// Owner is inside its drain window for this phase right now.
    draining: AtomicBool,
}

/// Shadow-state validator for the grid's phase discipline.
///
/// The slot locks of [`crate::backend::shared::Grid`] are uncontended only
/// if every collect (drain) of a phase is barrier-separated from every
/// deposit (push) to that phase; a violation would not corrupt anything,
/// but it would deliver traffic a superstep early or late. The audit
/// re-derives that ordering from first principles on every operation:
///
/// * a push during superstep `s` must target phase `(s + 1) mod 2`;
/// * when it does, the phase's previous drain must have been the boundary
///   of superstep `s - 2` (or never, for `s < 2`) — i.e. the owner's drain
///   window closed before the sender could reach step `s`;
/// * a push must never observe the owner inside its drain window;
/// * a drain at the boundary of superstep `s` must drain phase
///   `(s + 1) mod 2`, must not be reentered, and must follow the drain at
///   boundary `s - 2` exactly.
///
/// All audit state uses `SeqCst`, so a protocol violation is observed
/// reliably here.
pub(crate) struct PhaseAudit {
    boxes: Vec<[GridShadow; 2]>,
    sink: ReportSink,
}

impl PhaseAudit {
    pub(crate) fn new(nprocs: usize, sink: ReportSink) -> PhaseAudit {
        PhaseAudit {
            boxes: (0..nprocs)
                .map(|_| {
                    [
                        GridShadow {
                            last_drain: AtomicU64::new(0),
                            draining: AtomicBool::new(false),
                        },
                        GridShadow {
                            last_drain: AtomicU64::new(0),
                            draining: AtomicBool::new(false),
                        },
                    ]
                })
                .collect(),
            sink,
        }
    }

    fn violation(&self, pid: usize, step: usize, detail: String) {
        report(
            &self.sink,
            CheckReport {
                kind: CheckKind::PhaseDiscipline,
                pid,
                step,
                related_step: None,
                detail,
            },
        );
    }

    /// Expected `last_drain` encoding observed by an operation on a phase
    /// during/at-the-boundary-of superstep `step`: the phase's previous
    /// drain was the boundary of `step - 2`, or never for `step < 2`.
    fn expected_prev_drain(step: usize) -> u64 {
        if step >= 2 {
            (step - 2) as u64 + 1
        } else {
            0
        }
    }

    /// Validate a push by `pid` of packets bound for `dest` during
    /// superstep `step`, targeting `phase`.
    pub(crate) fn on_push(&self, pid: usize, dest: usize, phase: usize, step: usize) {
        if phase != (step + 1) & 1 {
            self.violation(
                pid,
                step,
                format!(
                    "push to proc {} targeted phase {} during superstep {} \
                     (discipline requires phase {})",
                    dest,
                    phase,
                    step,
                    (step + 1) & 1
                ),
            );
            return;
        }
        let shadow = &self.boxes[dest][phase];
        if shadow.draining.load(Ordering::SeqCst) {
            self.violation(
                pid,
                step,
                format!(
                    "push to proc {} phase {} raced the owner's drain window \
                     (superstep {}): drains must be barrier-separated from writes",
                    dest, phase, step
                ),
            );
        }
        let prev = shadow.last_drain.load(Ordering::SeqCst);
        let want = Self::expected_prev_drain(step);
        if prev != want {
            self.violation(
                pid,
                step,
                format!(
                    "push to proc {} phase {} in superstep {} observed drain \
                     history {} (expected {}): the send-s/drain-after-barrier/\
                     next-touch-s+2 ordering was broken",
                    dest, phase, step, prev, want
                ),
            );
        }
    }

    /// Validate the opening of the owner's drain window: `owner` drains
    /// its own `phase` at the boundary ending superstep `step`.
    pub(crate) fn on_drain_start(&self, owner: usize, phase: usize, step: usize) {
        if phase != (step + 1) & 1 {
            self.violation(
                owner,
                step,
                format!(
                    "drain at the boundary of superstep {} targeted phase {} \
                     (discipline requires phase {})",
                    step,
                    phase,
                    (step + 1) & 1
                ),
            );
        }
        let shadow = &self.boxes[owner][phase];
        if shadow.draining.swap(true, Ordering::SeqCst) {
            self.violation(
                owner,
                step,
                format!("drain window for phase {} re-entered", phase),
            );
        }
        let prev = shadow.last_drain.load(Ordering::SeqCst);
        let want = Self::expected_prev_drain(step);
        if prev != want {
            self.violation(
                owner,
                step,
                format!(
                    "drain at boundary {} observed drain history {} (expected {}): \
                     a boundary was skipped or drained twice",
                    step, prev, want
                ),
            );
        }
        shadow.last_drain.store(step as u64 + 1, Ordering::SeqCst);
    }

    /// Close the owner's drain window.
    pub(crate) fn on_drain_end(&self, owner: usize, phase: usize) {
        self.boxes[owner][phase]
            .draining
            .store(false, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------

// Boxed transports must themselves satisfy the transport contract so the
// checked wrapper can hold any backend.
impl ProcTransport for Box<dyn ProcTransport> {
    fn on_start(&mut self) {
        (**self).on_start()
    }
    fn send_pkts(&mut self, dest: usize, buf: &mut Vec<Packet>) {
        (**self).send_pkts(dest, buf)
    }
    fn send_bytes(&mut self, dest: usize, buf: &mut Vec<u8>) {
        (**self).send_bytes(dest, buf)
    }
    fn exchange(
        &mut self,
        step: usize,
        mode: SyncMode,
        inbox: &mut [Vec<Packet>],
        byte_inbox: &mut [Vec<u8>],
    ) {
        (**self).exchange(step, mode, inbox, byte_inbox)
    }
    // Must forward explicitly: this impl shadows the inner type's methods,
    // and the trait default is a no-op — without this, a split-phase
    // announcement from `Ctx` would silently never reach any backend.
    fn exchange_begin(&mut self, step: usize, mode: SyncMode) {
        (**self).exchange_begin(step, mode)
    }
    fn finish(&mut self) {
        (**self).finish()
    }
    fn counters(&self) -> TransportCounters {
        (**self).counters()
    }
    fn poison(&mut self) {
        (**self).poison()
    }
    fn fault_counters(&self) -> crate::fault::FaultCounters {
        (**self).fault_counters()
    }
    // Must forward (not inherit the rebuild-only default): `Ctx` holds its
    // transport as a `Box<dyn ProcTransport>`, and this impl shadows the
    // inner type's methods — without this, the arena would silently never
    // reuse any backend.
    fn reset(&mut self) -> bool {
        (**self).reset()
    }
}

/// The checking layer around a backend transport: counts every packet each
/// process sends per destination per superstep, and verifies after every
/// boundary that the packets delivered to this process are exactly the
/// packets sent to it — independent of which backend routed them.
pub(crate) struct CheckedBackend<B: ProcTransport> {
    inner: B,
    shared: Arc<CheckShared>,
    pid: usize,
    /// Packets sent per destination during the current superstep.
    sent_to: Vec<u64>,
    /// Byte-lane bytes sent per destination during the current superstep.
    sent_bytes_to: Vec<u64>,
    step: usize,
}

impl<B: ProcTransport> CheckedBackend<B> {
    pub(crate) fn new(inner: B, shared: Arc<CheckShared>, pid: usize, nprocs: usize) -> Self {
        CheckedBackend {
            inner,
            shared,
            pid,
            sent_to: vec![0; nprocs],
            sent_bytes_to: vec![0; nprocs],
            step: 0,
        }
    }
}

impl<B: ProcTransport> ProcTransport for CheckedBackend<B> {
    fn on_start(&mut self) {
        self.inner.on_start()
    }

    fn send_pkts(&mut self, dest: usize, buf: &mut Vec<Packet>) {
        self.sent_to[dest] += buf.len() as u64;
        self.inner.send_pkts(dest, buf);
    }

    fn send_bytes(&mut self, dest: usize, buf: &mut Vec<u8>) {
        self.sent_bytes_to[dest] += buf.len() as u64;
        self.inner.send_bytes(dest, buf);
    }

    // `exchange_begin` deliberately keeps the no-op default: the
    // conservation ledger must publish this superstep's counts before the
    // boundary rendezvous, and that happens in `exchange`. Collapsing the
    // split boundary into one full exchange at `sync_end` is semantically a
    // legal (stronger) implementation of split-phase sync.

    fn exchange(
        &mut self,
        step: usize,
        _mode: SyncMode,
        inbox: &mut [Vec<Packet>],
        byte_inbox: &mut [Vec<u8>],
    ) {
        debug_assert_eq!(step, self.step, "transport driven out of order");
        let phase = step & 1;
        // Publish this superstep's per-destination counts before entering
        // the boundary synchronization, so every peer's counts are visible
        // to the destination when its inner exchange returns.
        for (dest, n) in self.sent_to.iter_mut().enumerate() {
            self.shared.ledger.add(dest, phase, *n);
            *n = 0;
        }
        for (dest, n) in self.sent_bytes_to.iter_mut().enumerate() {
            self.shared.ledger_bytes.add(dest, phase, *n);
            *n = 0;
        }
        // Whatever the program declared, the inner transport crosses at
        // full strength: the ledger's cross-process happens-before argument
        // (publish before the boundary, read after it) needs every sender
        // ordered before this reader, not just the graph neighbors.
        self.inner.exchange(step, SyncMode::Full, inbox, byte_inbox);
        // Both lanes' segments are replaced, not appended to.
        let delivered = inbox.iter().map(|seg| seg.len() as u64).sum::<u64>();
        let expected = self.shared.ledger.take(self.pid, phase);
        if delivered != expected {
            report(
                &self.shared.sink,
                CheckReport {
                    kind: CheckKind::DeliveryMismatch,
                    pid: self.pid,
                    step,
                    related_step: None,
                    detail: format!(
                        "superstep {} delivered {} packet(s) to proc {} but the \
                         processes sent it {} (transport conservation violated)",
                        step, delivered, self.pid, expected
                    ),
                },
            );
        }
        let bytes_delivered = byte_inbox.iter().map(|seg| seg.len() as u64).sum::<u64>();
        let bytes_expected = self.shared.ledger_bytes.take(self.pid, phase);
        if bytes_delivered != bytes_expected {
            report(
                &self.shared.sink,
                CheckReport {
                    kind: CheckKind::DeliveryMismatch,
                    pid: self.pid,
                    step,
                    related_step: None,
                    detail: format!(
                        "superstep {} delivered {} byte-lane byte(s) to proc {} but \
                         the processes sent it {} (transport conservation violated)",
                        step, bytes_delivered, self.pid, bytes_expected
                    ),
                },
            );
        }
        self.step = step + 1;
    }

    fn finish(&mut self) {
        // Packets staged after the last sync are reported through the
        // RunStats undelivered path (one path for checked and unchecked
        // runs); the transport itself just forwards.
        self.inner.finish()
    }

    fn counters(&self) -> TransportCounters {
        self.inner.counters()
    }

    fn poison(&mut self) {
        self.inner.poison()
    }

    fn fault_counters(&self) -> crate::fault::FaultCounters {
        self.inner.fault_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn sink() -> ReportSink {
        Arc::new(Mutex::new(Vec::new()))
    }

    #[test]
    fn ledger_roundtrip_and_reset() {
        let l = DeliveryLedger::new(2);
        l.add(1, 0, 5);
        l.add(1, 0, 2);
        l.add(1, 1, 9); // other phase is independent
        assert_eq!(l.take(1, 0), 7);
        assert_eq!(l.take(1, 0), 0, "take resets the slot");
        assert_eq!(l.take(1, 1), 9);
        assert_eq!(l.take(0, 0), 0);
    }

    #[test]
    fn clean_push_drain_cycle_is_silent() {
        let s = sink();
        let a = PhaseAudit::new(2, Arc::clone(&s));
        for step in 0..6usize {
            let phase = (step + 1) & 1;
            // Both procs push to each other during `step`...
            a.on_push(0, 1, phase, step);
            a.on_push(1, 0, phase, step);
            // ...then each owner collects its own slots at the boundary.
            for owner in 0..2 {
                a.on_drain_start(owner, phase, step);
                a.on_drain_end(owner, phase);
            }
        }
        assert!(s.lock().unwrap().is_empty(), "{:?}", s.lock().unwrap());
    }

    #[test]
    fn wrong_phase_push_is_flagged() {
        let s = sink();
        let a = PhaseAudit::new(2, Arc::clone(&s));
        a.on_push(0, 1, 0, 0); // step 0 must write phase 1
        let r = s.lock().unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, CheckKind::PhaseDiscipline);
        assert_eq!(r[0].pid, 0);
    }

    #[test]
    fn push_into_open_drain_window_is_flagged() {
        let s = sink();
        let a = PhaseAudit::new(2, Arc::clone(&s));
        a.on_push(0, 1, 1, 0);
        a.on_drain_start(1, 1, 0);
        // Sender misbehaves: touches phase 1 again while the window is
        // open (it should be blocked behind the next barrier, in step 2).
        a.on_push(0, 1, 1, 2);
        a.on_drain_end(1, 1);
        let r = s.lock().unwrap();
        assert!(
            r.iter().any(|r| r.detail.contains("drain window")),
            "{:?}",
            r
        );
    }

    #[test]
    fn skipped_drain_boundary_is_flagged() {
        let s = sink();
        let a = PhaseAudit::new(1, Arc::clone(&s));
        a.on_drain_start(0, 1, 0);
        a.on_drain_end(0, 1);
        // Boundary 2 for phase 1 skipped; boundary 4 observes history 1,
        // expected 3.
        a.on_drain_start(0, 1, 4);
        a.on_drain_end(0, 1);
        let r = s.lock().unwrap();
        assert_eq!(r.len(), 1);
        assert!(r[0].detail.contains("skipped"), "{:?}", r);
    }
}

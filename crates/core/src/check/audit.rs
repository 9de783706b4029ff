//! The checked transport wrapper and its delivery ledger.
//!
//! [`CheckedBackend`] wraps any [`ProcTransport`] and verifies, at every
//! superstep boundary, that what each source handed this process during
//! the superstep is exactly what arrived from it: per source and lane, the
//! same length and the same order-sensitive digest ([`crate::digest`]).
//! The check is independent of the backend, because every backend
//! delivers a source's traffic as one segment in send order; a mismatch
//! names its (superstep, destination, source).

use super::{report, CheckKind, CheckReport, CheckShared};
use crate::context::ProcTransport;
use crate::digest::{byte_hash, pkt_digest};
use crate::packet::Packet;
use crate::relax::SyncMode;
use crate::stats::TransportCounters;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One lane of what one source hands one destination in one superstep:
/// its length (packets or bytes) and its digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Lane {
    len: u64,
    digest: u64,
}

impl Lane {
    fn pkts(pkts: &[Packet]) -> Lane {
        Lane {
            len: pkts.len() as u64,
            digest: pkt_digest(pkts),
        }
    }

    fn bytes(bytes: &[u8]) -> Lane {
        Lane {
            len: bytes.len() as u64,
            digest: byte_hash(bytes),
        }
    }
}

/// Both lanes of one source's superstep of traffic to one destination.
type Sent = [Lane; 2];

/// Per-(destination, source, phase) record of what each source sent:
/// stored by the source before it enters the boundary synchronization and
/// read by the destination right after. The synchronization that every
/// backend performs inside `exchange` (barrier, channel receives, baton,
/// staged pipes) provides the happens-before edge that makes the relaxed
/// stores visible to the reader — the same argument as the grid itself —
/// and the source next stores into the same phase two supersteps later,
/// behind the next boundary, after the destination's read. Slots start at
/// zero, a digest no lane has in practice (the empty lane's included), so
/// a read that overtakes its store is a mismatch too.
pub(crate) struct DeliveryLedger {
    /// `slots[dest][src][phase]`: packet-lane length and digest, then the
    /// byte lane's.
    slots: Vec<Vec<[[AtomicU64; 4]; 2]>>,
}

impl DeliveryLedger {
    pub(crate) fn new(nprocs: usize) -> DeliveryLedger {
        DeliveryLedger {
            slots: (0..nprocs)
                .map(|_| (0..nprocs).map(|_| Default::default()).collect())
                .collect(),
        }
    }

    /// Source side: record what `src` sent `dest` during a superstep of
    /// parity `phase`.
    fn store(&self, dest: usize, src: usize, phase: usize, sent: Sent) {
        let [p, b] = sent;
        for (cell, v) in self.slots[dest][src][phase]
            .iter()
            .zip([p.len, p.digest, b.len, b.digest])
        {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Destination side: what `src` sent `dest` during a superstep of
    /// parity `phase`.
    fn load(&self, dest: usize, src: usize, phase: usize) -> Sent {
        let [pl, pd, bl, bd] = self.slots[dest][src][phase]
            .each_ref()
            .map(|cell| cell.load(Ordering::Relaxed));
        [
            Lane {
                len: pl,
                digest: pd,
            },
            Lane {
                len: bl,
                digest: bd,
            },
        ]
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

/// The checking layer around a backend transport: records the length and
/// digest of each lane it hands each destination per superstep, and
/// verifies after every boundary that each source's delivery to this
/// process is exactly what that source sent — independent of which backend
/// routed it.
pub(crate) struct CheckedBackend<B: ProcTransport> {
    inner: B,
    shared: Arc<CheckShared>,
    pid: usize,
    /// What this process handed each destination during the current
    /// superstep. `Ctx` hands over at most one buffer per destination and
    /// lane per superstep, so each lane is set once.
    sent: Vec<Sent>,
    /// `sent` of a destination that got nothing.
    nothing: Sent,
    step: usize,
}

impl<B: ProcTransport> CheckedBackend<B> {
    pub(crate) fn new(inner: B, shared: Arc<CheckShared>, pid: usize, nprocs: usize) -> Self {
        let nothing = [Lane::pkts(&[]), Lane::bytes(&[])];
        CheckedBackend {
            inner,
            shared,
            pid,
            sent: vec![nothing; nprocs],
            nothing,
            step: 0,
        }
    }

    /// Report every source whose delivery to this process in superstep
    /// `step` differs from what it sent.
    fn verify(&self, step: usize, inbox: &[Vec<Packet>], byte_inbox: &[Vec<u8>]) {
        for (src, (pkts, bytes)) in inbox.iter().zip(byte_inbox).enumerate() {
            let want = self.shared.ledger.load(self.pid, src, step & 1);
            let got = [Lane::pkts(pkts), Lane::bytes(bytes)];
            if got == want {
                continue;
            }
            let content = if got.map(|l| l.len) == want.map(|l| l.len) {
                " (same lengths, different digests)"
            } else {
                ""
            };
            report(
                &self.shared.sink,
                CheckReport {
                    kind: CheckKind::DeliveryMismatch,
                    pid: self.pid,
                    step,
                    related_step: None,
                    detail: format!(
                        "from proc {src}: sent {} packet(s) and {} byte-lane byte(s), \
                         received {} and {}{content}",
                        want[0].len, want[1].len, got[0].len, got[1].len
                    ),
                },
            );
        }
    }
}

impl<B: ProcTransport> ProcTransport for CheckedBackend<B> {
    fn on_start(&mut self) {
        self.inner.on_start()
    }

    fn send_pkts(&mut self, dest: usize, buf: &mut Vec<Packet>) {
        self.sent[dest][0] = Lane::pkts(buf);
        self.inner.send_pkts(dest, buf);
    }

    fn send_bytes(&mut self, dest: usize, buf: &mut Vec<u8>) {
        self.sent[dest][1] = Lane::bytes(buf);
        self.inner.send_bytes(dest, buf);
    }

    // `exchange_begin` deliberately keeps the no-op default: the delivery
    // ledger must be stored before the boundary rendezvous, and that
    // happens in `exchange`. Collapsing the split boundary into one full
    // exchange at `sync_end` is semantically a legal (stronger)
    // implementation of split-phase sync.

    fn exchange(
        &mut self,
        step: usize,
        _mode: SyncMode,
        inbox: &mut [Vec<Packet>],
        byte_inbox: &mut [Vec<u8>],
    ) {
        debug_assert_eq!(step, self.step, "transport driven out of order");
        // Store this superstep's per-destination record before entering
        // the boundary synchronization, so every peer's record is visible
        // to the destination when its inner exchange returns.
        for (dest, sent) in self.sent.iter_mut().enumerate() {
            let sent = std::mem::replace(sent, self.nothing);
            self.shared.ledger.store(dest, self.pid, step & 1, sent);
        }
        // Whatever the program declared, the inner transport crosses at
        // full strength: the ledger's cross-process happens-before argument
        // (store before the boundary, read after it) needs every sender
        // ordered before this reader, not just the graph neighbors.
        self.inner.exchange(step, SyncMode::Full, inbox, byte_inbox);
        // Both lanes' segments are replaced, not appended to.
        self.verify(step, inbox, byte_inbox);
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

    #[test]
    fn ledger_roundtrip_and_reset() {
        let l = DeliveryLedger::new(2);
        let sent = |n: u64| {
            [
                Lane::pkts(&vec![Packet::two_u64(n, 0); n as usize]),
                Lane::bytes(&[]),
            ]
        };
        l.store(1, 0, 0, sent(5));
        l.store(1, 1, 0, sent(2));
        l.store(1, 0, 1, sent(9)); // the other phase is independent
        assert_eq!(l.load(1, 0, 0), sent(5));
        assert_eq!(l.load(1, 1, 0), sent(2));
        assert_eq!(l.load(1, 0, 1), sent(9));
        // A store replaces the slot: nothing carries over two supersteps.
        l.store(1, 0, 0, sent(0));
        assert_eq!(l.load(1, 0, 0), sent(0));
        assert_ne!(sent(0), sent(1));
    }

    /// One process whose transport hands its own packets back reversed.
    struct Reversing(Vec<Packet>);

    impl ProcTransport for Reversing {
        fn send_pkts(&mut self, _: usize, buf: &mut Vec<Packet>) {
            self.0.append(buf);
        }
        fn send_bytes(&mut self, _: usize, _: &mut Vec<u8>) {}
        fn exchange(
            &mut self,
            _: usize,
            _: SyncMode,
            inbox: &mut [Vec<Packet>],
            _: &mut [Vec<u8>],
        ) {
            inbox[0] = self.0.drain(..).rev().collect();
        }
        fn finish(&mut self) {}
    }

    #[test]
    fn reordered_delivery_is_reported_at_its_source() {
        let shared = CheckShared::new(1);
        let mut t = CheckedBackend::new(Reversing(Vec::new()), Arc::clone(&shared), 0, 1);
        let (mut inbox, mut bytes) = (vec![Vec::new()], vec![Vec::new()]);
        for (step, n) in [(0, 2), (1, 1)] {
            let mut pkts: Vec<Packet> = (0..n).map(|i| Packet::two_u64(i, 0)).collect();
            t.send_pkts(0, &mut pkts);
            t.exchange(step, SyncMode::Full, &mut inbox, &mut bytes);
        }
        // Two packets reversed are a bad delivery; one cannot be.
        let r = shared.sink.lock().unwrap();
        assert_eq!(r.len(), 1, "{r:?}");
        assert_eq!(
            (r[0].kind, r[0].pid, r[0].step),
            (CheckKind::DeliveryMismatch, 0, 0)
        );
        assert!(r[0].detail.starts_with("from proc 0:"), "{}", r[0].detail);
        assert!(r[0].detail.contains("different digests"), "{}", r[0].detail);
    }
}

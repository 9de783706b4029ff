//! The two channel library versions (paper Appendix B.2 and B.3) as one
//! transport with two exchange schedules.
//!
//! Each process keeps a distinct output buffer per destination. During a
//! superstep, traffic is simply appended to the appropriate buffer; at the
//! boundary each pair of processes trades one [`Batch`] — possibly empty —
//! over a pipe per ordered pair. The BSP synchronization is *implicit* in
//! that trade: a process cannot leave the boundary before every peer has
//! reached it, because each peer's batch for this superstep must arrive.
//! The versions differ only in how the trades are scheduled ([`Plan`]):
//!
//! * **all-to-all** (B.2, the MPI version, [`crate::BackendKind::MsgPass`]):
//!   post a send to every peer, then receive from every peer, the pipes
//!   standing in for `Isend`/`Irecv` pairs. Posting needs no peer, so a
//!   split-phase boundary posts at `exchange_begin` and the caller's overlap
//!   window runs while the batches are in flight.
//! * **staged** (B.3, the TCP version, [`crate::BackendKind::TcpSim`]):
//!   blocking TCP can deadlock if two processes both push large transfers
//!   at an unscheduled moment, so the processes "pair off and talk
//!   according to a precomputed p−1 stage total-exchange pattern" — a
//!   round-robin tournament ([`Schedule`]) in which every round is a
//!   perfect matching and the lower-numbered process of a pair transmits
//!   first. The pipes hold one batch, like a socket with a full window.
//!
//! Buffers travel with the batch and come back: the allocation a batch
//! arrived in becomes the replacement for the next one posted to that peer
//! (packets), or the receiver's inbox segment whose dead predecessor does
//! (bytes), so a steady exchange allocates nothing on either lane.
//!
//! A *neighborhood* boundary (DESIGN.md §12) trades batches only along the
//! registered sync graph's edges — the empty batch still *is* the
//! synchronization, just pairwise. Sync modes are congruent across
//! processes, so both ends of every pipe agree on which boundaries use it
//! and the monotone `xseq` stays aligned.
//!
//! A hardened transport verifies every batch's sequence number and
//! checksum on receipt. All-to-all is fail-stop: a bad batch ends the run
//! with a structured error. The staged conversation has a reverse pipe per
//! pair and heals: the receiver nacks, the sender retransmits with bounded
//! exponential backoff, and a silent pipe times out.

use super::super::context::{hand_over, ProcTransport};
use super::super::packet::{Packet, PACKET_SIZE};
use crate::fault::{
    byte_hash, pkt_sum, BspError, FaultTolerance, TransportError, TransportErrorKind,
};
use crate::relax::{SyncGraph, SyncMode};
use crate::stats::TransportCounters;
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::time::Duration;

/// One superstep's traffic from one process to one peer: the fixed-size
/// packets and the byte-lane records, shipped together in a single pipe
/// transfer (one MPI message in the paper's terms). The frame carries a
/// sequence number (the sender's exchange count) and a content checksum;
/// both are verified by the receiver when the transport is hardened.
#[derive(Clone)]
struct Batch {
    pkts: Vec<Packet>,
    bytes: Vec<u8>,
    seq: u64,
    checksum: u64,
}

/// Checksum over a batch's content: order-insensitive over the fixed-size
/// packets (the BSP contract permits any arrival order) plus an
/// order-sensitive hash of the byte-lane records (their record framing is
/// positional).
fn batch_checksum(pkts: &[Packet], bytes: &[u8]) -> u64 {
    pkt_sum(pkts).wrapping_add(byte_hash(bytes))
}

/// Verify a received batch against the receiver's exchange count. A free
/// function so it can be unit-tested without threads (in-process pipes
/// never corrupt on their own).
fn verify_batch(batch: &Batch, expect_seq: u64) -> Result<(), TransportErrorKind> {
    if batch.seq != expect_seq {
        return Err(TransportErrorKind::SequenceGap);
    }
    if batch_checksum(&batch.pkts, &batch.bytes) != batch.checksum {
        return Err(TransportErrorKind::ChecksumMismatch);
    }
    Ok(())
}

/// Precomputed pairing schedule: `rounds[round][pid]` is `pid`'s partner in
/// that round (equal to `pid` itself for a bye).
struct Schedule {
    rounds: Vec<Vec<usize>>,
}

impl Schedule {
    /// Round-robin tournament over `p` players (the classic circle method):
    /// `p − 1` rounds when `p` is even, `p` rounds when odd (a dummy player
    /// creates the byes).
    fn round_robin(p: usize) -> Schedule {
        if p <= 1 {
            return Schedule { rounds: Vec::new() };
        }
        let n = p + p % 2; // even player count, last may be the dummy
        let m = n - 1; // modulus for the polygon method
        let rounds = (0..m)
            .map(|r| {
                let mut partner: Vec<usize> = (0..p).collect(); // default: bye
                let mut pair = |i: usize, j: usize| {
                    if i != j && i < p && j < p {
                        partner[i] = j;
                        partner[j] = i;
                    }
                };
                // Player `n − 1` meets i* with 2·i* ≡ r (mod m); every
                // other pair satisfies i + j ≡ r (mod m), i ≠ j.
                let istar = (r * (n / 2)) % m;
                pair(istar, n - 1);
                for i in (0..m).filter(|&i| i != istar) {
                    pair(i, (r + m - i) % m);
                }
                partner
            })
            .collect();
        Schedule { rounds }
    }
}

/// How a boundary's batches are traded — the one thing the two library
/// versions differ in (module docs).
#[derive(Clone)]
enum Plan {
    AllToAll,
    Staged(Arc<Schedule>),
}

/// Receiver's verdict on a delivered batch, sent back on the ack pipe of a
/// hardened staged conversation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ack {
    /// Frame verified; the conversation advances.
    Ok,
    /// Sequence or checksum verification failed; retransmit.
    Resend,
}

/// Bounded exponential backoff before retransmission `attempt` (1-based):
/// 1 ms, 2 ms, 4 ms, ... capped at 32 ms.
fn backoff_delay(attempt: u32) -> Duration {
    Duration::from_millis(1u64 << attempt.saturating_sub(1).min(5))
}

/// Per-process endpoint of the channel transport.
pub(crate) struct ChannelProc {
    pid: usize,
    plan: Plan,
    /// Per-destination output buffers.
    out: Vec<Vec<Packet>>,
    /// `spare[peer]`: the emptied buffer `peer`'s last batch arrived in —
    /// the next replacement for `out[peer]`.
    spare: Vec<Vec<Packet>>,
    /// Per-destination byte-lane records, taken over from the context whole
    /// ([`hand_over`]); between boundaries an empty entry keeps the dead
    /// inbox segment that the next hand-over gives back.
    out_bytes: Vec<Vec<u8>>,
    /// `senders[dest]` / `receivers[src]`: one bounded pipe per ordered
    /// pair of distinct processes.
    senders: Vec<Option<SyncSender<Batch>>>,
    receivers: Vec<Option<Receiver<Batch>>>,
    /// Reverse pipes carrying the receiver's [`Ack`] back to the sender;
    /// present only on a hardened staged transport.
    ack_senders: Vec<Option<Sender<Ack>>>,
    ack_receivers: Vec<Option<Receiver<Ack>>>,
    /// Verify sequence numbers and checksums on receipt. Off by default:
    /// the default path moves `Vec`s without touching their contents, and
    /// hashing every packet would not be free.
    hardened: bool,
    /// Retransmissions allowed per staged transfer before giving up.
    max_retries: u32,
    /// How long a hardened staged pipe read may stall before the transfer
    /// is declared dead (the per-superstep delivery timeout).
    timeout: Duration,
    /// Exchanges completed — the sequence number stamped on outgoing
    /// batches. Monotone across jobs: every endpoint of a group completes
    /// the same number of exchanges, so reuse keeps the peers aligned.
    xseq: u64,
    /// Registered sync graph (None = neighborhood boundaries unavailable).
    graph: Option<Arc<SyncGraph>>,
    /// Sends already posted by `exchange_begin`; `exchange` only receives.
    begun: bool,
    counters: TransportCounters,
}

/// A `p × p` table of `None`s, to be filled with one pipe end per ordered
/// pair.
fn grid<T>(p: usize) -> Vec<Vec<Option<T>>> {
    (0..p).map(|_| (0..p).map(|_| None).collect()).collect()
}

impl ChannelProc {
    /// The `nprocs` endpoints of the `staged` version, or else of the
    /// all-to-all one. With `tol` set, batches are verified on receipt:
    /// fail-stop on all-to-all, retransmitted on a negative ack when staged.
    pub(crate) fn create_all(
        nprocs: usize,
        staged: bool,
        tol: Option<&FaultTolerance>,
        graph: Option<Arc<SyncGraph>>,
    ) -> Vec<ChannelProc> {
        let hardened = tol.is_some();
        let acked = hardened && staged;
        // A staged pipe holds one batch: a sender that races ahead blocks,
        // like a TCP socket with a full window. An all-to-all post must
        // never block, and two slots are enough for that: a process posts
        // batch k to a peer only after receiving that peer's batch k − 1,
        // which the peer posted after consuming batch k − 2.
        let (window, plan) = if staged {
            (1, Plan::Staged(Arc::new(Schedule::round_robin(nprocs))))
        } else {
            (2, Plan::AllToAll)
        };
        // `tx[src][dest]` / `rx[src][dest]` carry data src → dest; the ack
        // for it runs the other way and is filed under the same indices.
        let (mut tx, mut rx, mut ack_tx, mut ack_rx) =
            (grid(nprocs), grid(nprocs), grid(nprocs), grid(nprocs));
        for src in 0..nprocs {
            for dest in (0..nprocs).filter(|&dest| dest != src) {
                let (s, r) = sync_channel(window);
                (tx[src][dest], rx[src][dest]) = (Some(s), Some(r));
                if acked {
                    let (s, r) = channel();
                    (ack_tx[src][dest], ack_rx[src][dest]) = (Some(s), Some(r));
                }
            }
        }
        // The superstep deadline is the *detection* threshold (the guarded
        // layer counts a blown deadline as a straggler); the pipe timeout
        // here is a liveness backstop against a dead peer, so it gets a
        // floor well above any tolerated straggler.
        let timeout = tol
            .and_then(|t| t.superstep_deadline)
            .map_or(Duration::from_secs(5), |d| d.max(Duration::from_secs(1)));
        // Endpoint `pid` sends data on `tx[pid][*]` and reads `rx[*][pid]`;
        // it acks what it read on `ack_tx[*][pid]` and collects the acks
        // for what it sent from `ack_rx[pid][*]`.
        (0..nprocs)
            .map(|pid| ChannelProc {
                pid,
                plan: plan.clone(),
                out: vec![Vec::new(); nprocs],
                spare: vec![Vec::new(); nprocs],
                out_bytes: vec![Vec::new(); nprocs],
                senders: std::mem::take(&mut tx[pid]),
                receivers: rx.iter_mut().map(|row| row[pid].take()).collect(),
                ack_senders: ack_tx.iter_mut().map(|row| row[pid].take()).collect(),
                ack_receivers: std::mem::take(&mut ack_rx[pid]),
                hardened,
                max_retries: tol.map_or(0, |t| t.max_retries),
                timeout,
                xseq: 0,
                graph: graph.clone(),
                begun: false,
                counters: TransportCounters::default(),
            })
            .collect()
    }

    /// Panic with a structured transport error (caught by [`crate::try_run`]
    /// and surfaced as [`BspError::Transport`], never a bare `expect`).
    fn fail(&self, peer: usize, step: usize, kind: TransportErrorKind, detail: String) -> ! {
        std::panic::panic_any(BspError::Transport(TransportError {
            pid: self.pid,
            peer: Some(peer),
            step,
            kind,
            detail,
        }))
    }

    /// Whether this process trades a batch with `peer` at a boundary in
    /// `mode`: every other process (full) or every graph neighbor.
    fn meets(&self, mode: SyncMode, peer: usize) -> bool {
        peer != self.pid
            && match mode {
                SyncMode::Full => true,
                SyncMode::Neighborhood => self
                    .graph
                    .as_ref()
                    .expect("neighborhood synchronization requires Config::sync_graph")
                    .is_neighbor(self.pid, peer),
            }
    }

    /// Take everything queued for `dest` as one (possibly empty) batch. The
    /// batch surrenders its allocations to the receiver; the buffer
    /// `dest`'s last batch arrived in takes the packet buffer's place, and
    /// [`ChannelProc::accept`] refills the byte entry the same way.
    fn take_batch(&mut self, dest: usize) -> Batch {
        let pkts = std::mem::replace(&mut self.out[dest], std::mem::take(&mut self.spare[dest]));
        let bytes = std::mem::take(&mut self.out_bytes[dest]);
        let checksum = if self.hardened {
            batch_checksum(&pkts, &bytes)
        } else {
            0
        };
        self.counters.lock_acquisitions += 1; // pipe send
        self.counters.pkts_moved += pkts.len() as u64;
        self.counters.bytes_moved += (pkts.len() * PACKET_SIZE) as u64;
        Batch {
            pkts,
            bytes,
            seq: self.xseq,
            checksum,
        }
    }

    /// Put `batch` on the pipe to `dest`.
    fn post(&self, dest: usize, step: usize, batch: Batch, what: &str) {
        let pipe = self.senders[dest].as_ref().expect("peer pipe");
        if pipe.send(batch).is_err() {
            self.fail(
                dest,
                step,
                TransportErrorKind::ChannelClosed,
                format!("peer {dest} hung up mid-superstep ({what})"),
            );
        }
    }

    /// Block for the next batch from `src`; with a `timeout`, give up on a
    /// silent pipe.
    fn recv_batch(&self, src: usize, step: usize, timeout: Option<Duration>) -> Batch {
        let pipe = self.receivers[src].as_ref().expect("peer pipe");
        let got = match timeout {
            Some(t) => pipe.recv_timeout(t),
            None => pipe.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match got {
            Ok(batch) => batch,
            Err(RecvTimeoutError::Disconnected) => self.fail(
                src,
                step,
                TransportErrorKind::ChannelClosed,
                format!("peer {src} hung up mid-superstep (recv)"),
            ),
            Err(RecvTimeoutError::Timeout) => self.fail(
                src,
                step,
                TransportErrorKind::DeliveryTimeout,
                format!(
                    "no frame from peer {src} within {:?} (delivery timeout)",
                    self.timeout
                ),
            ),
        }
    }

    /// Deliver a received batch: the packets are appended to `inbox`, the
    /// byte records become the (dead, cleared) inbox segment `seg`. The two
    /// allocations that leave circulation on this side stay here, both
    /// empty: the packet buffer the batch arrived in — the next replacement
    /// for `out[src]` — and the dead segment, which the next byte hand-over
    /// for `src` gives back to the context.
    fn accept(&mut self, src: usize, mut batch: Batch, inbox: &mut Vec<Packet>, seg: &mut Vec<u8>) {
        self.counters.lock_acquisitions += 1; // pipe receive
        inbox.extend_from_slice(&batch.pkts);
        batch.pkts.clear();
        std::mem::swap(seg, &mut batch.bytes);
        (self.spare[src], self.out_bytes[src]) = (batch.pkts, batch.bytes);
    }

    /// All-to-all: post one batch to every peer of a boundary in `mode` (a
    /// batch is sent even when empty: that emptiness is what synchronizes
    /// the pair, mirroring the 2p `Isend`/`Irecv` waits).
    fn post_all(&mut self, step: usize, mode: SyncMode) {
        for dest in 0..self.out.len() {
            if self.meets(mode, dest) {
                let batch = self.take_batch(dest);
                self.post(dest, step, batch, "send");
            }
        }
    }

    /// Staged sender half: ship `batch`, and when hardened wait for the
    /// partner's ack, retransmitting with bounded exponential backoff until
    /// acked or the retry budget is spent.
    fn transmit(&mut self, partner: usize, step: usize, batch: Batch) {
        let keep = self.hardened.then(|| batch.clone());
        self.post(partner, step, batch, "send");
        let Some(keep) = keep else { return };
        let mut attempt = 0u32;
        loop {
            let acks = self.ack_receivers[partner].as_ref().expect("ack pipe");
            match acks.recv_timeout(self.timeout) {
                Ok(Ack::Ok) => return,
                Ok(Ack::Resend) => {
                    attempt += 1;
                    if attempt > self.max_retries {
                        self.fail(
                            partner,
                            step,
                            TransportErrorKind::RetryExhausted,
                            format!(
                                "partner {partner} rejected the frame {attempt} time(s); \
                                 retry budget ({}) spent",
                                self.max_retries
                            ),
                        );
                    }
                    std::thread::sleep(backoff_delay(attempt));
                    self.post(partner, step, keep.clone(), "resend");
                }
                Err(RecvTimeoutError::Timeout) => self.fail(
                    partner,
                    step,
                    TransportErrorKind::DeliveryTimeout,
                    format!(
                        "no ack from partner {partner} within {:?} (delivery timeout)",
                        self.timeout
                    ),
                ),
                Err(RecvTimeoutError::Disconnected) => self.fail(
                    partner,
                    step,
                    TransportErrorKind::ChannelClosed,
                    format!("partner {partner} hung up (ack)"),
                ),
            }
        }
    }

    /// Staged receiver half: read one batch from `partner`, and when
    /// hardened verify it, nacking for retransmission until it verifies or
    /// the retry budget is spent.
    fn receive(&mut self, partner: usize, step: usize) -> Batch {
        if !self.hardened {
            return self.recv_batch(partner, step, None);
        }
        let mut attempt = 0u32;
        loop {
            let got = self.recv_batch(partner, step, Some(self.timeout));
            // A partner that hung up fails at its own next pipe operation,
            // so a verdict nobody reads is no error here.
            let acks = self.ack_senders[partner].as_ref().expect("ack pipe");
            let Err(kind) = verify_batch(&got, self.xseq) else {
                let _ = acks.send(Ack::Ok);
                return got;
            };
            attempt += 1;
            if attempt > self.max_retries {
                self.fail(
                    partner,
                    step,
                    kind,
                    format!(
                        "frame from partner {partner} failed verification \
                         {attempt} time(s); retry budget ({}) spent",
                        self.max_retries
                    ),
                );
            }
            let _ = acks.send(Ack::Resend);
        }
    }
}

impl ProcTransport for ChannelProc {
    fn send_batch(&mut self, dest: usize, pkts: &[Packet]) {
        self.out[dest].extend_from_slice(pkts);
    }

    fn send_bytes(&mut self, dest: usize, buf: &mut Vec<u8>) {
        self.counters.bytes_moved += buf.len() as u64;
        hand_over(&mut self.out_bytes[dest], buf);
    }

    fn exchange_begin(&mut self, step: usize, mode: SyncMode) {
        debug_assert!(!self.begun, "exchange_begin without a matching exchange");
        // Only posting can be done ahead of the peers; a staged conversation
        // needs its partner, so that schedule leaves everything to
        // `exchange`.
        if matches!(self.plan, Plan::AllToAll) {
            self.post_all(step, mode);
            self.begun = true;
        }
    }

    fn exchange(
        &mut self,
        step: usize,
        mode: SyncMode,
        inbox: &mut Vec<Packet>,
        byte_inbox: &mut [Vec<u8>],
    ) {
        let me = self.pid;
        // All-to-all posts before anything else: no peer should wait on
        // this process's local copying.
        if matches!(self.plan, Plan::AllToAll) && !std::mem::take(&mut self.begun) {
            self.post_all(step, mode);
        }
        // Every segment is dead; the ones no batch replaces stay empty.
        for seg in byte_inbox.iter_mut() {
            seg.clear();
        }
        // Self-delivery heads the inbox (`append` keeps the packet buffer's
        // allocation; the byte records trade places with the dead segment).
        self.counters.pkts_moved += self.out[me].len() as u64;
        self.counters.bytes_moved += (self.out[me].len() * PACKET_SIZE) as u64;
        inbox.append(&mut self.out[me]);
        std::mem::swap(&mut self.out_bytes[me], &mut byte_inbox[me]);
        match self.plan.clone() {
            Plan::AllToAll => {
                // Wait for one batch from every peer, in pid order
                // (deterministic inbox layout; the BSP contract lets packets
                // arrive in any order).
                for (src, seg) in byte_inbox.iter_mut().enumerate() {
                    if !self.meets(mode, src) {
                        continue;
                    }
                    let batch = self.recv_batch(src, step, None);
                    if self.hardened {
                        if let Err(kind) = verify_batch(&batch, self.xseq) {
                            self.fail(
                                src,
                                step,
                                kind,
                                format!(
                                    "batch from peer {src} carries seq {} and checksum \
                                     {:#018x}; it does not verify at exchange {}",
                                    batch.seq, batch.checksum, self.xseq
                                ),
                            );
                        }
                    }
                    self.accept(src, batch, inbox, seg);
                }
            }
            // Staged conversation: in each round talk to exactly one
            // partner. Lower pid transmits first; the partner reads the
            // pipe before replying — the scheduling that avoids
            // blocking-TCP deadlock. A neighborhood boundary runs the same
            // schedule but skips every round whose partner is not a
            // sync-graph neighbor: mode congruence means both ends of a
            // pairing agree on whether their round runs, so the matching
            // stays deadlock-free.
            Plan::Staged(schedule) => {
                for round in &schedule.rounds {
                    let partner = round[me];
                    if !self.meets(mode, partner) {
                        continue; // bye, or no rendezvous with a non-neighbor
                    }
                    let batch = self.take_batch(partner);
                    let got = if me < partner {
                        self.transmit(partner, step, batch);
                        self.receive(partner, step)
                    } else {
                        let got = self.receive(partner, step);
                        self.transmit(partner, step, batch);
                        got
                    };
                    self.accept(partner, got, inbox, &mut byte_inbox[partner]);
                }
            }
        }
        self.xseq += 1;
    }

    fn finish(&mut self) {}

    fn counters(&self) -> TransportCounters {
        self.counters
    }

    fn reset(&mut self) -> bool {
        // A job that ended between `exchange_begin` and `exchange` left
        // batches in flight — rebuild instead of reuse.
        if self.begun {
            return false;
        }
        for buf in &mut self.out {
            buf.clear();
        }
        for buf in &mut self.out_bytes {
            buf.clear();
        }
        // A clean run consumes every batch and every ack it was sent (the
        // empty batch *is* the synchronization); anything still queued
        // means the job ended mid-protocol and would be delivered to the
        // next one — rebuild instead of reuse.
        let mut data = self.receivers.iter().flatten();
        let mut acks = self.ack_receivers.iter().flatten();
        if data.any(|rx| rx.try_recv().is_ok()) || acks.any(|rx| rx.try_recv().is_ok()) {
            return false;
        }
        self.counters = TransportCounters::default();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::{Config, Ctx};

    #[test]
    fn round_robin_is_perfect_matching_even() {
        for p in [2usize, 4, 8, 16] {
            let s = Schedule::round_robin(p);
            assert_eq!(s.rounds.len(), p - 1);
            for round in &s.rounds {
                for (i, &j) in round.iter().enumerate() {
                    assert_ne!(j, i, "even p must have no byes");
                    assert_eq!(round[j], i, "matching must be symmetric");
                }
            }
        }
    }

    #[test]
    fn round_robin_odd_has_one_bye_per_round() {
        for p in [3usize, 5, 7, 9] {
            let s = Schedule::round_robin(p);
            assert_eq!(s.rounds.len(), p);
            for round in &s.rounds {
                let byes = (0..p).filter(|&i| round[i] == i).count();
                assert_eq!(byes, 1, "odd p: exactly one bye per round");
                for (i, &j) in round.iter().enumerate() {
                    assert_eq!(round[j], i);
                }
            }
        }
    }

    #[test]
    fn every_pair_meets_exactly_once() {
        for p in [2usize, 5, 8, 9, 16] {
            let s = Schedule::round_robin(p);
            let mut met = vec![vec![0u32; p]; p];
            for round in &s.rounds {
                for (i, &j) in round.iter().enumerate() {
                    if j != i {
                        met[i][j] += 1;
                    }
                }
            }
            for (i, row) in met.iter().enumerate() {
                for (j, &n) in row.iter().enumerate() {
                    assert_eq!(n, u32::from(i != j), "p={p}: pair ({i},{j}) met {n} times");
                }
            }
        }
    }

    #[test]
    fn p1_schedule_is_empty() {
        assert!(Schedule::round_robin(1).rounds.is_empty());
        assert!(Schedule::round_robin(0).rounds.is_empty());
    }

    fn sample_batch(seq: u64) -> Batch {
        let pkts = vec![Packet([7u8; PACKET_SIZE]), Packet([9u8; PACKET_SIZE])];
        let bytes = vec![1u8, 2, 3, 4, 5];
        let checksum = batch_checksum(&pkts, &bytes);
        Batch {
            pkts,
            bytes,
            seq,
            checksum,
        }
    }

    #[test]
    fn verify_batch_accepts_clean_frames() {
        assert_eq!(verify_batch(&sample_batch(3), 3), Ok(()));
    }

    #[test]
    fn verify_batch_flags_sequence_gap_before_checksum() {
        // A replayed (duplicated) frame from a previous superstep carries a
        // stale seq even though its content checksum is internally valid.
        assert_eq!(
            verify_batch(&sample_batch(2), 3),
            Err(TransportErrorKind::SequenceGap)
        );
    }

    #[test]
    fn verify_batch_flags_corruption() {
        let mut b = sample_batch(0);
        b.bytes[2] ^= 0x40;
        assert_eq!(
            verify_batch(&b, 0),
            Err(TransportErrorKind::ChecksumMismatch)
        );
        let mut b = sample_batch(0);
        b.pkts[1].0[0] ^= 0x01;
        assert_eq!(
            verify_batch(&b, 0),
            Err(TransportErrorKind::ChecksumMismatch)
        );
    }

    #[test]
    fn backoff_is_exponential_and_bounded() {
        assert_eq!(backoff_delay(1), Duration::from_millis(1));
        assert_eq!(backoff_delay(2), Duration::from_millis(2));
        assert_eq!(backoff_delay(3), Duration::from_millis(4));
        // Capped: arbitrarily late attempts never sleep more than 32 ms.
        assert_eq!(backoff_delay(30), Duration::from_millis(32));
    }

    /// Drive the sender/receiver halves of the ack/retry state machine across
    /// real pipes with an interposer that corrupts the first transmission:
    /// the receiver nacks, the sender retransmits, and the retry delivers the
    /// original content.
    #[test]
    fn nack_triggers_retransmission_and_recovers() {
        let tol = FaultTolerance::default();
        let mut procs = ChannelProc::create_all(2, true, Some(&tol), None);
        let mut p1 = procs.pop().unwrap();
        let mut p0 = procs.pop().unwrap();
        // Corrupt the pipe 0 -> 1 for the first frame only: steal proc 1's
        // receiver, flip a byte, and relay through a fresh pipe.
        let clean_rx = p1.receivers[0].take().unwrap();
        let (relay_tx, relay_rx) = sync_channel::<Batch>(1);
        p1.receivers[0] = Some(relay_rx);
        let relay = std::thread::spawn(move || {
            let mut first = true;
            while let Ok(mut b) = clean_rx.recv() {
                if first && !b.bytes.is_empty() {
                    b.bytes[0] ^= 0xFF; // bit rot in flight
                    first = false;
                }
                if relay_tx.send(b).is_err() {
                    break;
                }
            }
        });
        let t0 = std::thread::spawn(move || {
            let mut inbox = Vec::new();
            let mut bytes = vec![Vec::new(); 2];
            p0.send_batch(1, &[Packet([42u8; PACKET_SIZE])]);
            p0.send_bytes(1, &mut vec![10, 20, 30]);
            p0.exchange(0, SyncMode::Full, &mut inbox, &mut bytes);
        });
        let mut inbox = Vec::new();
        let mut bytes = vec![Vec::new(); 2];
        p1.exchange(0, SyncMode::Full, &mut inbox, &mut bytes);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].0[0], 42);
        assert_eq!(bytes, [vec![10, 20, 30], vec![]]);
        t0.join().unwrap();
        drop(p1); // closes the relay's outbound pipe
        relay.join().unwrap();
    }

    /// One fixed exchange — p = 3, every process sends 5 packets and one
    /// 10-byte message to every process (itself included), one boundary —
    /// counts exactly what `msgpass.rs` and `tcpsim.rs` counted for it
    /// before they became one transport.
    #[test]
    fn counters_for_a_fixed_exchange_match_the_two_old_transports() {
        for backend in [BackendKind::MsgPass, BackendKind::TcpSim] {
            let out = crate::run(&Config::new(3).backend(backend), |ctx: &mut Ctx| {
                for dest in 0..ctx.nprocs() {
                    for k in 0..5 {
                        ctx.send_pkt(dest, Packet::two_u64(ctx.pid() as u64, k));
                    }
                    ctx.send_bytes(dest, b"ten bytes!");
                }
                ctx.sync();
            });
            for c in &out.stats.transport {
                assert_eq!(
                    (c.lock_acquisitions, c.pkts_moved, c.bytes_moved),
                    (4, 15, 294),
                    "{backend:?}"
                );
            }
        }
    }

    /// The reuse rule, both schedules: an endpoint is reusable only when
    /// nothing it was sent is still queued — a batch or an ack left in a
    /// pipe would be delivered to the next job.
    #[test]
    fn reset_declines_whatever_is_mid_protocol() {
        let tol = FaultTolerance::default();
        for staged in [false, true] {
            for tol in [None, Some(&tol)] {
                let mut procs = ChannelProc::create_all(2, staged, tol, None);
                assert!(procs.iter_mut().all(|t| t.reset()), "idle group");
                // A batch posted to proc 1 that no exchange consumed.
                let stray = procs[0].take_batch(1);
                procs[0].post(1, 0, stray, "send");
                assert!(procs[0].reset() && !procs[1].reset());
            }
        }
        // A stray verdict on an ack pipe of the hardened staged version.
        let mut procs = ChannelProc::create_all(2, true, Some(&tol), None);
        let acks = procs[1].ack_senders[0].as_ref().unwrap();
        acks.send(Ack::Resend).unwrap();
        assert!(!procs[0].reset() && procs[1].reset());
    }

    /// A job that returned between `exchange_begin` and `exchange` left its
    /// posts in flight: the arena must rebuild that group, not lease it.
    #[test]
    fn group_abandoned_mid_split_is_rebuilt_not_leased() {
        let rt = crate::exec::Runtime::new();
        let cfg = Config::new(3).backend(BackendKind::MsgPass);
        rt.prewarm(&cfg);
        let mut set = rt.lease(&cfg).expect("prewarmed set");
        for ctx in &mut set {
            ctx.sync_begin(); // posts to every peer, blocks for none
        }
        rt.release(&cfg, set);
        assert!(!rt.debug_lease_cycle(&cfg), "mid-split group was parked");
        rt.shutdown();
    }
}

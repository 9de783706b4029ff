//! Staged total-exchange library version (paper Appendix B.3, the TCP
//! version used on the PC LAN).
//!
//! Blocking TCP can deadlock if two processes both push large transfers at
//! an unscheduled moment, so the paper's library makes the processes "pair
//! off and talk according to a precomputed p−1 stage total-exchange
//! pattern". We reproduce that discipline: a round-robin tournament schedule
//! (the classic circle method) in which every round is a perfect matching,
//! and within a pair the lower-numbered process transmits first. With an odd
//! number of processes, one process sits out ("bye") each round.

// Index-based loops below mirror the papers' formulas (loop variables
// participate in index arithmetic); clippy's iterator suggestions obscure them.
#![allow(clippy::needless_range_loop)]

use super::super::context::{hand_over, ProcTransport};
use super::super::packet::{Packet, PACKET_SIZE};
use super::msgpass::{batch_checksum, Batch};
use crate::fault::{BspError, FaultTolerance, TransportError, TransportErrorKind};
use crate::relax::{SyncGraph, SyncMode};
use crate::stats::TransportCounters;
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::time::Duration;

/// Precomputed pairing schedule: `schedule[round][pid]` is `pid`'s partner in
/// that round (equal to `pid` itself for a bye).
pub(crate) struct Schedule {
    pub(crate) rounds: Vec<Vec<usize>>,
}

impl Schedule {
    /// Round-robin tournament over `p` players: `p − 1` rounds when `p` is
    /// even, `p` rounds when odd (a dummy player creates the byes).
    pub(crate) fn round_robin(p: usize) -> Schedule {
        if p <= 1 {
            return Schedule { rounds: Vec::new() };
        }
        let n = if p.is_multiple_of(2) { p } else { p + 1 }; // even player count, last may be dummy
        let m = n - 1; // modulus for the polygon method
        let mut rounds = Vec::with_capacity(m);
        for r in 0..m {
            let mut partner: Vec<usize> = (0..p).collect(); // default: bye
                                                            // Player `n−1` (possibly the dummy) meets i* with 2·i* ≡ r (mod m).
            let istar = (r * (n / 2)) % m;
            if n - 1 < p {
                partner[n - 1] = istar;
                partner[istar] = n - 1;
            }
            // All other pairs: i + j ≡ r (mod m), i ≠ j.
            for i in 0..m {
                if i == istar {
                    continue; // paired with n−1 (or on bye if n−1 is the dummy)
                }
                let j = (r + m - i % m) % m;
                if j != i && j < p && i < p {
                    partner[i] = j;
                }
            }
            rounds.push(partner);
        }
        Schedule { rounds }
    }
}

/// Receiver's verdict on a delivered batch, sent back on the ack pipe when
/// the transport is hardened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ack {
    /// Frame verified; the conversation advances.
    Ok,
    /// Sequence or checksum verification failed; retransmit.
    Resend,
}

/// Bounded exponential backoff before retransmission `attempt` (1-based):
/// 1 ms, 2 ms, 4 ms, ... capped at 32 ms.
pub(crate) fn backoff_delay(attempt: u32) -> Duration {
    Duration::from_millis(1u64 << attempt.saturating_sub(1).min(5))
}

/// Verify a received batch against the receiver's exchange count. The
/// receiver half of the ack/retry state machine, factored out so it can be
/// unit-tested without threads (in-process pipes never corrupt on their own).
pub(crate) fn verify_batch(batch: &Batch, expect_seq: u64) -> Result<(), TransportErrorKind> {
    if batch.seq != expect_seq {
        return Err(TransportErrorKind::SequenceGap);
    }
    if batch_checksum(&batch.pkts, &batch.bytes) != batch.checksum {
        return Err(TransportErrorKind::ChecksumMismatch);
    }
    Ok(())
}

/// Per-process endpoint of the staged total-exchange transport.
pub(crate) struct TcpSimProc {
    pid: usize,
    out: Vec<Vec<Packet>>,
    /// `spare[peer]`: the emptied buffer `peer`'s last batch arrived in —
    /// the next replacement for `out[peer]`.
    spare: Vec<Vec<Packet>>,
    /// Per-destination byte-lane records, taken over from the context whole
    /// and shipped in the same staged conversation as the packets (one
    /// [`Batch`] per pipe transfer); between boundaries an empty entry keeps
    /// the dead inbox segment that the next hand-over gives back.
    out_bytes: Vec<Vec<u8>>,
    schedule: Arc<Schedule>,
    /// `senders[dest]` / `receivers[src]`: one bounded pipe per ordered pair,
    /// standing in for the TCP connection.
    senders: Vec<Option<SyncSender<Batch>>>,
    receivers: Vec<Option<Receiver<Batch>>>,
    /// Reverse pipes carrying the receiver's [`Ack`] verdict back to the
    /// sender. Only used when `hardened`.
    ack_senders: Vec<Option<Sender<Ack>>>,
    ack_receivers: Vec<Option<Receiver<Ack>>>,
    /// Verify frames and run the ack/retry protocol. Off by default.
    hardened: bool,
    /// Retransmissions allowed per transfer before giving up.
    max_retries: u32,
    /// How long a blocking pipe read may stall before the transfer is
    /// declared dead (the per-superstep delivery timeout).
    timeout: Duration,
    /// Exchanges completed — the sequence number stamped on outgoing batches.
    xseq: u64,
    /// Registered sync graph (None = neighborhood boundaries unavailable).
    graph: Option<Arc<SyncGraph>>,
    /// Sync mode latched for the next boundary (consumed there).
    mode: SyncMode,
    /// Mode of the previous boundary (adjacent-boundary graph discipline).
    prev_mode: SyncMode,
    counters: TransportCounters,
}

impl TcpSimProc {
    /// Create the `nprocs` endpoints with a bounded (capacity-1) pipe per
    /// ordered pair — a sender that races ahead blocks, like a TCP socket
    /// with a full window. With `tol` set, frames are verified on receipt
    /// and retransmitted on a negative ack (bounded exponential backoff).
    pub(crate) fn create_all(
        nprocs: usize,
        tol: Option<&FaultTolerance>,
        graph: Option<Arc<SyncGraph>>,
    ) -> Vec<TcpSimProc> {
        let schedule = Arc::new(Schedule::round_robin(nprocs));
        let mut tx: Vec<Vec<Option<SyncSender<Batch>>>> = (0..nprocs)
            .map(|_| (0..nprocs).map(|_| None).collect())
            .collect();
        let mut rx: Vec<Vec<Option<Receiver<Batch>>>> = (0..nprocs)
            .map(|_| (0..nprocs).map(|_| None).collect())
            .collect();
        let mut ack_tx: Vec<Vec<Option<Sender<Ack>>>> = (0..nprocs)
            .map(|_| (0..nprocs).map(|_| None).collect())
            .collect();
        let mut ack_rx: Vec<Vec<Option<Receiver<Ack>>>> = (0..nprocs)
            .map(|_| (0..nprocs).map(|_| None).collect())
            .collect();
        for src in 0..nprocs {
            for dest in 0..nprocs {
                if src != dest {
                    let (s, r) = sync_channel(1);
                    tx[src][dest] = Some(s);
                    rx[src][dest] = Some(r);
                    // Ack pipe runs opposite the data: dest -> src.
                    let (s, r) = channel();
                    ack_tx[dest][src] = Some(s);
                    ack_rx[dest][src] = Some(r);
                }
            }
        }
        let hardened = tol.is_some();
        let max_retries = tol.map(|t| t.max_retries).unwrap_or(0);
        // The superstep deadline is the *detection* threshold (the guarded
        // layer counts a blown deadline as a straggler); the pipe timeout
        // here is a liveness backstop against a dead peer, so it gets a
        // floor well above any tolerated straggler.
        let timeout = tol
            .and_then(|t| t.superstep_deadline)
            .map_or(Duration::from_secs(5), |d| d.max(Duration::from_secs(1)));
        (0..nprocs)
            .map(|pid| TcpSimProc {
                pid,
                out: vec![Vec::new(); nprocs],
                spare: vec![Vec::new(); nprocs],
                out_bytes: vec![Vec::new(); nprocs],
                schedule: Arc::clone(&schedule),
                senders: std::mem::take(&mut tx[pid]),
                receivers: (0..nprocs).map(|src| rx[src][pid].take()).collect(),
                ack_senders: std::mem::take(&mut ack_tx[pid]),
                ack_receivers: (0..nprocs).map(|src| ack_rx[src][pid].take()).collect(),
                hardened,
                max_retries,
                timeout,
                xseq: 0,
                graph: graph.clone(),
                mode: SyncMode::Full,
                prev_mode: SyncMode::Full,
                counters: TransportCounters::default(),
            })
            .collect()
    }

    /// Adjacent-boundary graph discipline (see the shared backend): staged
    /// traffic to a non-neighbor is illegal when this boundary or the
    /// previous one is a neighborhood boundary.
    fn check_graph(&self, mode: SyncMode, step: usize) {
        if mode != SyncMode::Neighborhood && self.prev_mode != SyncMode::Neighborhood {
            return;
        }
        let graph = self
            .graph
            .as_ref()
            .expect("neighborhood boundary implies a registered sync graph");
        for dest in 0..self.out.len() {
            let sent = !self.out[dest].is_empty() || !self.out_bytes[dest].is_empty();
            if sent && dest != self.pid && !graph.is_neighbor(self.pid, dest) {
                self.fail(
                    dest,
                    step,
                    TransportErrorKind::GraphViolation,
                    format!(
                        "superstep {} is adjacent to a neighborhood boundary but proc {} \
                         sent traffic to proc {}, which is not a sync-graph neighbor",
                        step, self.pid, dest
                    ),
                );
            }
        }
    }

    /// Panic with a structured transport error (caught by [`crate::try_run`]
    /// and surfaced as [`BspError::Transport`]).
    fn fail(&self, peer: usize, step: usize, kind: TransportErrorKind, detail: String) -> ! {
        std::panic::panic_any(BspError::Transport(TransportError {
            pid: self.pid,
            peer: Some(peer),
            step,
            kind,
            detail,
        }))
    }

    /// Sender half of a staged transfer: ship `batch`, and when hardened wait
    /// for the partner's ack, retransmitting with bounded exponential backoff
    /// until acked or the retry budget is spent.
    fn transmit(&mut self, partner: usize, step: usize, batch: Batch) {
        let keep = if self.hardened {
            Some(batch.clone())
        } else {
            None
        };
        if self.senders[partner].as_ref().unwrap().send(batch).is_err() {
            self.fail(
                partner,
                step,
                TransportErrorKind::ChannelClosed,
                format!("partner {partner} hung up (send)"),
            );
        }
        let Some(keep) = keep else { return };
        let mut attempt = 0u32;
        loop {
            match self.ack_receivers[partner]
                .as_ref()
                .unwrap()
                .recv_timeout(self.timeout)
            {
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
                    if self.senders[partner]
                        .as_ref()
                        .unwrap()
                        .send(keep.clone())
                        .is_err()
                    {
                        self.fail(
                            partner,
                            step,
                            TransportErrorKind::ChannelClosed,
                            format!("partner {partner} hung up (resend)"),
                        );
                    }
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

    /// Receiver half: read one batch from `partner`, and when hardened verify
    /// it, nacking for retransmission until it verifies or the retry budget
    /// is spent.
    fn receive(&mut self, partner: usize, step: usize) -> Batch {
        let mut attempt = 0u32;
        loop {
            let got = if self.hardened {
                match self.receivers[partner]
                    .as_ref()
                    .unwrap()
                    .recv_timeout(self.timeout)
                {
                    Ok(b) => b,
                    Err(RecvTimeoutError::Timeout) => self.fail(
                        partner,
                        step,
                        TransportErrorKind::DeliveryTimeout,
                        format!(
                            "no frame from partner {partner} within {:?} (delivery timeout)",
                            self.timeout
                        ),
                    ),
                    Err(RecvTimeoutError::Disconnected) => self.fail(
                        partner,
                        step,
                        TransportErrorKind::ChannelClosed,
                        format!("partner {partner} hung up (recv)"),
                    ),
                }
            } else {
                match self.receivers[partner].as_ref().unwrap().recv() {
                    Ok(b) => b,
                    Err(_) => self.fail(
                        partner,
                        step,
                        TransportErrorKind::ChannelClosed,
                        format!("partner {partner} hung up (recv)"),
                    ),
                }
            };
            if !self.hardened {
                return got;
            }
            match verify_batch(&got, self.xseq) {
                Ok(()) => {
                    let _ = self.ack_senders[partner].as_ref().unwrap().send(Ack::Ok);
                    return got;
                }
                Err(kind) => {
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
                    let _ = self.ack_senders[partner]
                        .as_ref()
                        .unwrap()
                        .send(Ack::Resend);
                }
            }
        }
    }
}

impl ProcTransport for TcpSimProc {
    fn send_batch(&mut self, dest: usize, pkts: &[Packet]) {
        self.out[dest].extend_from_slice(pkts);
    }

    fn send_bytes(&mut self, dest: usize, buf: &mut Vec<u8>) {
        self.counters.bytes_moved += buf.len() as u64;
        hand_over(&mut self.out_bytes[dest], buf);
    }

    fn set_sync_mode(&mut self, mode: SyncMode) {
        assert!(
            mode == SyncMode::Full || self.graph.is_some(),
            "neighborhood synchronization requires Config::sync_graph"
        );
        self.mode = mode;
    }

    fn exchange(&mut self, step: usize, inbox: &mut Vec<Packet>, byte_inbox: &mut [Vec<u8>]) {
        let mode = std::mem::take(&mut self.mode);
        self.check_graph(mode, step);
        // Every segment is dead; the ones no batch replaces stay empty.
        for seg in byte_inbox.iter_mut() {
            seg.clear();
        }
        // Self-delivery first (`append` keeps the packet buffer's
        // allocation; the byte records trade places with the dead segment).
        self.counters.pkts_moved += self.out[self.pid].len() as u64;
        self.counters.bytes_moved += (self.out[self.pid].len() * PACKET_SIZE) as u64;
        inbox.append(&mut self.out[self.pid]);
        std::mem::swap(&mut self.out_bytes[self.pid], &mut byte_inbox[self.pid]);
        // Staged conversation: in each round talk to exactly one partner.
        // Lower pid transmits first; the partner reads the pipe before
        // replying — the scheduling that avoids blocking-TCP deadlock.
        //
        // A neighborhood boundary runs the same schedule but skips every
        // round whose partner is not a sync-graph neighbor: mode congruence
        // means both ends of a pairing agree on whether their round runs,
        // so the matching stays deadlock-free and only the graph's edges
        // rendezvous (the conversation, even empty, is the pairwise sync).
        let schedule = Arc::clone(&self.schedule);
        for round in &schedule.rounds {
            let partner = round[self.pid];
            if partner == self.pid {
                continue; // bye
            }
            if mode == SyncMode::Neighborhood
                && !self
                    .graph
                    .as_ref()
                    .expect("checked in check_graph")
                    .is_neighbor(self.pid, partner)
            {
                continue; // relaxed boundary: no rendezvous with non-neighbors
            }
            // The outgoing allocations travel to the partner; the one its
            // last batch arrived in takes the packet buffer's place, and
            // the byte entry is refilled below the same way.
            let volume = self.out[partner].len();
            let pkts = std::mem::replace(
                &mut self.out[partner],
                std::mem::take(&mut self.spare[partner]),
            );
            let bytes = std::mem::take(&mut self.out_bytes[partner]);
            let checksum = if self.hardened {
                batch_checksum(&pkts, &bytes)
            } else {
                0
            };
            let batch = Batch {
                pkts,
                bytes,
                seq: self.xseq,
                checksum,
            };
            self.counters.lock_acquisitions += 2; // pipe send + recv
            self.counters.pkts_moved += volume as u64;
            self.counters.bytes_moved += (volume * PACKET_SIZE) as u64;
            let got = if self.pid < partner {
                self.transmit(partner, step, batch);
                self.receive(partner, step)
            } else {
                let got = self.receive(partner, step);
                self.transmit(partner, step, batch);
                got
            };
            (self.spare[partner], self.out_bytes[partner]) =
                got.unload(inbox, &mut byte_inbox[partner]);
        }
        self.xseq += 1;
        self.prev_mode = mode;
    }

    fn finish(&mut self) {}

    fn counters(&self) -> TransportCounters {
        self.counters
    }

    fn reset(&mut self) -> bool {
        for buf in &mut self.out {
            buf.clear();
        }
        for buf in &mut self.out_bytes {
            buf.clear();
        }
        // A clean run leaves every data and ack pipe drained: each staged
        // exchange pairs every transmit with a receive-plus-ack in the same
        // round, and a failed run (the only mid-conversation state) never
        // reaches reset — the runner drops its whole set. Probing all
        // 4·(p−1) pipes is therefore a pure invariant check; keep it on the
        // debug/test builds and off the release-build warm-launch path.
        if cfg!(debug_assertions) {
            for rx in self.receivers.iter().flatten() {
                if rx.try_recv().is_ok() {
                    return false;
                }
            }
            for rx in self.ack_receivers.iter().flatten() {
                if rx.try_recv().is_ok() {
                    return false;
                }
            }
        }
        // `xseq` keeps counting across jobs (monotone generation tag; the
        // whole group completed the same number of exchanges).
        self.mode = SyncMode::Full;
        self.prev_mode = SyncMode::Full;
        self.counters = TransportCounters::default();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_perfect_matching_even() {
        for p in [2usize, 4, 8, 16] {
            let s = Schedule::round_robin(p);
            assert_eq!(s.rounds.len(), p - 1);
            for round in &s.rounds {
                for i in 0..p {
                    let j = round[i];
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
                for i in 0..p {
                    let j = round[i];
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
                for i in 0..p {
                    let j = round[i];
                    if j != i {
                        met[i][j] += 1;
                    }
                }
            }
            for i in 0..p {
                for j in 0..p {
                    if i != j {
                        assert_eq!(
                            met[i][j], 1,
                            "p={}: pair ({},{}) met {} times",
                            p, i, j, met[i][j]
                        );
                    }
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
        let mut procs = TcpSimProc::create_all(2, Some(&tol), None);
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
            p0.exchange(0, &mut inbox, &mut bytes);
        });
        let mut inbox = Vec::new();
        let mut bytes = vec![Vec::new(); 2];
        p1.exchange(0, &mut inbox, &mut bytes);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].0[0], 42);
        assert_eq!(bytes, [vec![10, 20, 30], vec![]]);
        t0.join().unwrap();
        drop(p1); // closes the relay's outbound pipe
        relay.join().unwrap();
    }
}

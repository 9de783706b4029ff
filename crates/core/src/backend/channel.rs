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
//! Buffers travel with the batch and come back: a batch's buffers become
//! the receiver's inbox segments, and the dead segments they replace are
//! what the next hand-over to that peer gives back to the context, so a
//! steady exchange allocates nothing on either lane.
//!
//! A *neighborhood* boundary (DESIGN.md §12) trades batches only along the
//! registered sync graph's edges — the empty batch still *is* the
//! synchronization, just pairwise. Sync modes are congruent across
//! processes, so both ends of every pipe agree on which boundaries use it.
//!
//! Delivery is the pipes' business, as it was TCP's in the paper's B.3
//! version; damage and loss are healed one layer up, by the guarded
//! exchange (`crate::fault`). A hardened transport adds one thing here: a
//! pipe read that stalls past the delivery timeout fails the run with a
//! structured error instead of blocking on a dead peer forever.

use super::super::context::{hand_over, ProcTransport};
use super::super::packet::{Packet, PACKET_SIZE};
use crate::fault::{BspError, FaultTolerance, TransportError, TransportErrorKind};
use crate::relax::{SyncGraph, SyncMode};
use crate::stats::TransportCounters;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::Duration;

/// One superstep's traffic from one process to one peer: the fixed-size
/// packets and the byte-lane records, shipped together in a single pipe
/// transfer (one MPI message in the paper's terms).
struct Batch {
    pkts: Vec<Packet>,
    bytes: Vec<u8>,
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

/// Per-process endpoint of the channel transport.
pub(crate) struct ChannelProc {
    pid: usize,
    plan: Plan,
    /// Per-destination packets and byte-lane records, taken over from the
    /// context whole ([`hand_over`]); between boundaries an empty entry
    /// keeps the dead inbox segment that the next hand-over gives back.
    out: Vec<Vec<Packet>>,
    out_bytes: Vec<Vec<u8>>,
    /// `senders[dest]` / `receivers[src]`: one bounded pipe per ordered
    /// pair of distinct processes.
    senders: Vec<Option<SyncSender<Batch>>>,
    receivers: Vec<Option<Receiver<Batch>>>,
    /// How long a pipe read of a hardened transport may stall before the
    /// peer is declared dead (the per-superstep delivery timeout); `None`
    /// blocks, as an unhardened run always has.
    timeout: Option<Duration>,
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
    /// all-to-all one. With `tol` set, pipe reads time out.
    pub(crate) fn create_all(
        nprocs: usize,
        staged: bool,
        tol: Option<&FaultTolerance>,
        graph: Option<Arc<SyncGraph>>,
    ) -> Vec<ChannelProc> {
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
        // `tx[src][dest]` / `rx[src][dest]` carry data src → dest.
        let (mut tx, mut rx) = (grid(nprocs), grid(nprocs));
        for src in 0..nprocs {
            for dest in (0..nprocs).filter(|&dest| dest != src) {
                let (s, r) = sync_channel(window);
                (tx[src][dest], rx[src][dest]) = (Some(s), Some(r));
            }
        }
        // The superstep deadline is the *detection* threshold (the guarded
        // layer counts a blown deadline as a straggler); the pipe timeout
        // here is a liveness backstop against a dead peer, so it gets a
        // floor well above any tolerated straggler.
        let timeout = tol.map(|t| {
            t.superstep_deadline
                .map_or(Duration::from_secs(5), |d| d.max(Duration::from_secs(1)))
        });
        // Endpoint `pid` sends on `tx[pid][*]` and reads `rx[*][pid]`.
        (0..nprocs)
            .map(|pid| ChannelProc {
                pid,
                plan: plan.clone(),
                out: vec![Vec::new(); nprocs],
                out_bytes: vec![Vec::new(); nprocs],
                senders: std::mem::take(&mut tx[pid]),
                receivers: rx.iter_mut().map(|row| row[pid].take()).collect(),
                timeout,
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
    /// batch surrenders its allocations to the receiver;
    /// [`ChannelProc::accept`] refills the emptied entries.
    fn take_batch(&mut self, dest: usize) -> Batch {
        let pkts = std::mem::take(&mut self.out[dest]);
        let bytes = std::mem::take(&mut self.out_bytes[dest]);
        self.counters.lock_acquisitions += 1; // pipe send
        self.counters.pkts_moved += pkts.len() as u64;
        self.counters.bytes_moved += (pkts.len() * PACKET_SIZE) as u64;
        Batch { pkts, bytes }
    }

    /// Put `batch` on the pipe to `dest`.
    fn post(&self, dest: usize, step: usize, batch: Batch) {
        // Proven invariant: only a process's own slot is `None`, and every
        // caller posts to a peer that `meets` admitted, which excludes self.
        let pipe = self.senders[dest].as_ref().expect("peer pipe");
        if pipe.send(batch).is_err() {
            self.fail(
                dest,
                step,
                TransportErrorKind::ChannelClosed,
                format!("peer {dest} hung up mid-superstep (send)"),
            );
        }
    }

    /// Block for the next batch from `src`; on a hardened transport, give
    /// up on a pipe that stays silent past the timeout.
    fn recv_batch(&self, src: usize, step: usize) -> Batch {
        // Proven invariant, as in `post`: `meets` excludes self, the one
        // `None` slot.
        let pipe = self.receivers[src].as_ref().expect("peer pipe");
        let got = match self.timeout {
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
                    self.timeout.unwrap_or_default()
                ),
            ),
        }
    }

    /// Deliver a received batch: its buffers become `src`'s (dead,
    /// cleared) inbox segments, and the dead segments stay here, empty, for
    /// the next hand-overs to `src` to give back to the context.
    fn accept(
        &mut self,
        src: usize,
        mut batch: Batch,
        inbox: &mut [Vec<Packet>],
        bytes: &mut [Vec<u8>],
    ) {
        self.counters.lock_acquisitions += 1; // pipe receive
        std::mem::swap(&mut inbox[src], &mut batch.pkts);
        std::mem::swap(&mut bytes[src], &mut batch.bytes);
        (self.out[src], self.out_bytes[src]) = (batch.pkts, batch.bytes);
    }

    /// All-to-all: post one batch to every peer of a boundary in `mode` (a
    /// batch is sent even when empty: that emptiness is what synchronizes
    /// the pair, mirroring the 2p `Isend`/`Irecv` waits).
    fn post_all(&mut self, step: usize, mode: SyncMode) {
        for dest in 0..self.out.len() {
            if self.meets(mode, dest) {
                let batch = self.take_batch(dest);
                self.post(dest, step, batch);
            }
        }
    }
}

impl ProcTransport for ChannelProc {
    fn send_pkts(&mut self, dest: usize, buf: &mut Vec<Packet>) {
        hand_over(&mut self.out[dest], buf);
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
        inbox: &mut [Vec<Packet>],
        byte_inbox: &mut [Vec<u8>],
    ) {
        let me = self.pid;
        // All-to-all posts before anything else: no peer should wait on
        // this process's local copying.
        if matches!(self.plan, Plan::AllToAll) && !std::mem::take(&mut self.begun) {
            self.post_all(step, mode);
        }
        // Every segment is dead; the ones no batch replaces stay empty.
        for seg in inbox.iter_mut() {
            seg.clear();
        }
        for seg in byte_inbox.iter_mut() {
            seg.clear();
        }
        // Self-delivery: both buffers trade places with the dead segments.
        self.counters.pkts_moved += self.out[me].len() as u64;
        self.counters.bytes_moved += (self.out[me].len() * PACKET_SIZE) as u64;
        std::mem::swap(&mut self.out[me], &mut inbox[me]);
        std::mem::swap(&mut self.out_bytes[me], &mut byte_inbox[me]);
        match self.plan.clone() {
            Plan::AllToAll => {
                // Wait for one batch from every peer, in pid order.
                for src in 0..inbox.len() {
                    if !self.meets(mode, src) {
                        continue;
                    }
                    let batch = self.recv_batch(src, step);
                    self.accept(src, batch, inbox, byte_inbox);
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
                        self.post(partner, step, batch);
                        self.recv_batch(partner, step)
                    } else {
                        let got = self.recv_batch(partner, step);
                        self.post(partner, step, batch);
                        got
                    };
                    self.accept(partner, got, inbox, byte_inbox);
                }
            }
        }
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
        // A clean run consumes every batch it was sent (the empty batch
        // *is* the synchronization); anything still queued means the job
        // ended mid-exchange and would be delivered to the next one —
        // rebuild instead of reuse.
        if self
            .receivers
            .iter()
            .flatten()
            .any(|rx| rx.try_recv().is_ok())
        {
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
    /// nothing it was sent is still queued — a batch left in a pipe would
    /// be delivered to the next job.
    #[test]
    fn reset_declines_whatever_is_mid_protocol() {
        let tol = FaultTolerance::default();
        for staged in [false, true] {
            for tol in [None, Some(&tol)] {
                let mut procs = ChannelProc::create_all(2, staged, tol, None);
                assert!(procs.iter_mut().all(|t| t.reset()), "idle group");
                // A batch posted to proc 1 that no exchange consumed.
                let stray = procs[0].take_batch(1);
                procs[0].post(1, 0, stray);
                assert!(procs[0].reset() && !procs[1].reset());
            }
        }
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

//! Message-passing library version (paper Appendix B.2, the MPI version).
//!
//! Each process keeps a distinct output buffer per destination. During a
//! superstep, packets are simply appended to the appropriate buffer. At the
//! superstep boundary the process posts a send of every output buffer and a
//! receive from every peer — the BSP synchronization is *implicit* in this
//! all-to-all exchange: a process cannot leave the boundary before every
//! peer has reached it (each peer's buffer for this superstep, possibly
//! empty, must arrive). Channels stand in for MPI `Isend`/`Irecv` pairs.
//!
//! Buffers travel with the batch and come back: the allocation a batch
//! arrived in becomes the replacement for the next one posted to that peer
//! (packets), or the receiver's inbox segment whose dead predecessor does
//! (bytes), so a steady exchange allocates nothing on either lane.

//! ## Relaxed boundaries (DESIGN.md §12)
//!
//! A *neighborhood* boundary exchanges batches only along the registered
//! sync graph's edges: each process posts one (possibly empty) batch to
//! every neighbor and waits for one from each — the empty batch still *is*
//! the synchronization, just pairwise instead of all-to-all. Non-neighbor
//! channels are untouched; since sync modes are congruent across processes
//! (every process declares the same mode at the same boundary), both ends
//! of every channel agree on which boundaries use it, and the monotone
//! `xseq` stays aligned. Traffic to a non-neighbor in a superstep adjacent
//! to a neighborhood boundary is a [`TransportErrorKind::GraphViolation`] —
//! the same discipline every backend enforces, even though per-message
//! channels would make it safe here.
//!
//! A *split-phase* boundary posts all sends at `exchange_begin` and defers
//! only the receives to `exchange`, so the caller's overlap window runs
//! while peers' batches are in flight.

use super::super::context::{hand_over, ProcTransport};
use super::super::packet::{Packet, PACKET_SIZE};
use crate::fault::{byte_hash, pkt_sum, BspError, TransportError, TransportErrorKind};
use crate::relax::{SyncGraph, SyncMode};
use crate::stats::TransportCounters;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// One superstep's traffic from one process to one peer: the fixed-size
/// packets and the byte-lane records, shipped together in a single channel
/// send (one MPI message in the paper's terms). The frame carries a
/// sequence number (the sender's exchange count) and a content checksum;
/// both are verified by the receiver when the transport is hardened.
#[derive(Clone)]
pub(crate) struct Batch {
    pub(crate) pkts: Vec<Packet>,
    pub(crate) bytes: Vec<u8>,
    pub(crate) seq: u64,
    pub(crate) checksum: u64,
}

impl Batch {
    /// Deliver a received batch: the packets are appended to `inbox`, the
    /// byte records become the (dead, cleared) inbox segment `seg`. Returns
    /// the two allocations that leave circulation on this side, both empty:
    /// the packet buffer the batch arrived in — the next replacement for
    /// `out[src]` — and the dead segment, which the next byte hand-over for
    /// `src` gives back to the context.
    pub(crate) fn unload(
        mut self,
        inbox: &mut Vec<Packet>,
        seg: &mut Vec<u8>,
    ) -> (Vec<Packet>, Vec<u8>) {
        inbox.extend_from_slice(&self.pkts);
        self.pkts.clear();
        std::mem::swap(seg, &mut self.bytes);
        (self.pkts, self.bytes)
    }
}

/// Checksum over a batch's content: order-insensitive over the fixed-size
/// packets (the BSP contract permits any arrival order) plus an
/// order-sensitive hash of the byte-lane records (their record framing is
/// positional).
pub(crate) fn batch_checksum(pkts: &[Packet], bytes: &[u8]) -> u64 {
    pkt_sum(pkts).wrapping_add(byte_hash(bytes))
}

/// Per-process endpoint of the message-passing transport.
pub(crate) struct MsgPassProc {
    pid: usize,
    nprocs: usize,
    /// Per-destination output buffers.
    out: Vec<Vec<Packet>>,
    /// `spare[peer]`: the emptied buffer `peer`'s last batch arrived in —
    /// the next replacement for `out[peer]`.
    spare: Vec<Vec<Packet>>,
    /// Per-destination byte-lane records, taken over from the context whole
    /// ([`hand_over`]); between boundaries an empty entry keeps the dead
    /// inbox segment that the next hand-over gives back.
    out_bytes: Vec<Vec<u8>>,
    /// `senders[dest]` carries this process's superstep batches to `dest`.
    senders: Vec<Option<Sender<Batch>>>,
    /// `receivers[src]` yields `src`'s superstep batches for this process.
    receivers: Vec<Option<Receiver<Batch>>>,
    /// Verify sequence numbers and checksums on receipt. Off by default:
    /// the default path moves `Vec`s without touching their contents, and
    /// hashing every packet would not be free.
    hardened: bool,
    /// Number of exchanges completed (the sequence number stamped on
    /// outgoing batches).
    xseq: u64,
    /// Registered sync graph (None = neighborhood boundaries unavailable).
    graph: Option<Arc<SyncGraph>>,
    /// Sync mode latched for the next boundary (consumed there).
    mode: SyncMode,
    /// Mode of the previous boundary (adjacent-boundary graph discipline).
    prev_mode: SyncMode,
    /// Mode captured at `exchange_begin` for the in-flight split boundary.
    begun_mode: SyncMode,
    /// Sends already posted by `exchange_begin`; `exchange` only receives.
    begun: bool,
    counters: TransportCounters,
}

impl MsgPassProc {
    /// Create the full set of `nprocs` endpoints with a channel per ordered
    /// pair of distinct processes.
    pub(crate) fn create_all(
        nprocs: usize,
        hardened: bool,
        graph: Option<Arc<SyncGraph>>,
    ) -> Vec<MsgPassProc> {
        // channel[src][dest]
        let mut tx: Vec<Vec<Option<Sender<Batch>>>> = (0..nprocs)
            .map(|_| (0..nprocs).map(|_| None).collect())
            .collect();
        let mut rx: Vec<Vec<Option<Receiver<Batch>>>> = (0..nprocs)
            .map(|_| (0..nprocs).map(|_| None).collect())
            .collect();
        for src in 0..nprocs {
            for dest in 0..nprocs {
                if src != dest {
                    let (s, r) = channel();
                    tx[src][dest] = Some(s);
                    rx[src][dest] = Some(r);
                }
            }
        }
        // Endpoint for `pid` owns senders[dest] = tx[pid][dest] and
        // receivers[src] = rx[src][pid].
        let mut procs = Vec::with_capacity(nprocs);
        for pid in 0..nprocs {
            let senders = std::mem::take(&mut tx[pid]);
            let receivers = (0..nprocs).map(|src| rx[src][pid].take()).collect();
            procs.push(MsgPassProc {
                pid,
                nprocs,
                out: vec![Vec::new(); nprocs],
                spare: vec![Vec::new(); nprocs],
                out_bytes: vec![Vec::new(); nprocs],
                senders,
                receivers,
                hardened,
                xseq: 0,
                graph: graph.clone(),
                mode: SyncMode::Full,
                prev_mode: SyncMode::Full,
                begun_mode: SyncMode::Full,
                begun: false,
                counters: TransportCounters::default(),
            });
        }
        procs
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

    /// Adjacent-boundary graph discipline: when the boundary closing this
    /// superstep — or the one that opened it — is a neighborhood boundary,
    /// every destination with staged traffic must be a graph neighbor or
    /// this process itself. The per-superstep output buffers are exactly the
    /// record of who was sent to.
    fn check_graph(&self, mode: SyncMode, step: usize) {
        if mode != SyncMode::Neighborhood && self.prev_mode != SyncMode::Neighborhood {
            return;
        }
        let graph = self
            .graph
            .as_ref()
            .expect("neighborhood boundary implies a registered sync graph");
        for dest in 0..self.nprocs {
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

    /// Post one (possibly empty) batch to `dest`. The batch synchronizes the
    /// pair even when empty.
    fn post_batch(&mut self, dest: usize, step: usize) {
        let volume = self.out[dest].len();
        let checksum = if self.hardened {
            batch_checksum(&self.out[dest], &self.out_bytes[dest])
        } else {
            0
        };
        // The outgoing batch surrenders its allocations to the receiver;
        // the one `dest`'s last batch arrived in takes the packet buffer's
        // place, and `exchange` refills the byte entry the same way.
        let batch = Batch {
            pkts: std::mem::replace(&mut self.out[dest], std::mem::take(&mut self.spare[dest])),
            bytes: std::mem::take(&mut self.out_bytes[dest]),
            seq: self.xseq,
            checksum,
        };
        self.counters.lock_acquisitions += 1; // channel send
        self.counters.pkts_moved += volume as u64;
        self.counters.bytes_moved += (volume * PACKET_SIZE) as u64;
        if self.senders[dest]
            .as_ref()
            .expect("peer channel")
            .send(batch)
            .is_err()
        {
            self.fail(
                dest,
                step,
                TransportErrorKind::ChannelClosed,
                format!("peer {dest} hung up mid-superstep (send)"),
            );
        }
    }

    /// Post all sends for a boundary in `mode`: one batch per peer (full) or
    /// per graph neighbor (neighborhood).
    fn post_all(&mut self, mode: SyncMode, step: usize) {
        match mode {
            SyncMode::Full => {
                for dest in 0..self.nprocs {
                    if dest != self.pid {
                        self.post_batch(dest, step);
                    }
                }
            }
            SyncMode::Neighborhood => {
                let graph = Arc::clone(self.graph.as_ref().expect("checked in check_graph"));
                for &dest in graph.neighbors(self.pid) {
                    self.post_batch(dest, step);
                }
            }
        }
    }
}

impl ProcTransport for MsgPassProc {
    fn send_batch(&mut self, dest: usize, pkts: &[Packet]) {
        self.out[dest].extend_from_slice(pkts);
    }

    fn send_bytes(&mut self, dest: usize, buf: &mut Vec<u8>) {
        self.counters.bytes_moved += buf.len() as u64;
        hand_over(&mut self.out_bytes[dest], buf);
    }

    fn exchange_begin(&mut self, step: usize) {
        debug_assert!(!self.begun, "exchange_begin without a matching exchange");
        let mode = std::mem::take(&mut self.mode);
        self.check_graph(mode, step);
        // Post all sends now (a batch is sent even when empty: that
        // emptiness is what synchronizes the boundary, mirroring the 2p
        // Isend/Irecv waits); the receives wait until `exchange`, so the
        // caller's overlap window runs while peers' batches are in flight.
        self.post_all(mode, step);
        self.begun_mode = mode;
        self.begun = true;
    }

    fn set_sync_mode(&mut self, mode: SyncMode) {
        assert!(
            mode == SyncMode::Full || self.graph.is_some(),
            "neighborhood synchronization requires Config::sync_graph"
        );
        self.mode = mode;
    }

    fn exchange(&mut self, step: usize, inbox: &mut Vec<Packet>, byte_inbox: &mut [Vec<u8>]) {
        let mode = if self.begun {
            self.begun = false;
            self.begun_mode
        } else {
            let mode = std::mem::take(&mut self.mode);
            self.check_graph(mode, step);
            self.post_all(mode, step);
            mode
        };
        // Self-delivery (`append` leaves the packet buffer's allocation in
        // place).
        let me = self.pid;
        self.counters.pkts_moved += self.out[me].len() as u64;
        self.counters.bytes_moved += (self.out[me].len() * PACKET_SIZE) as u64;
        inbox.append(&mut self.out[me]);
        // Wait for one batch from every peer — every other process (full) or
        // every graph neighbor (neighborhood) — in pid order (deterministic
        // inbox layout; the BSP contract lets packets arrive in any order).
        let graph = match mode {
            SyncMode::Full => None,
            SyncMode::Neighborhood => self.graph.clone(),
        };
        for (src, seg) in byte_inbox.iter_mut().enumerate() {
            // Every segment is dead; one that nothing replaces stays empty.
            seg.clear();
            if src == me {
                // Own records trade places with the dead segment.
                std::mem::swap(&mut self.out_bytes[me], seg);
                continue;
            }
            if graph.as_ref().is_some_and(|g| !g.is_neighbor(me, src)) {
                continue;
            }
            self.counters.lock_acquisitions += 1; // channel receive
            let batch = match self.receivers[src].as_ref().expect("peer channel").recv() {
                Ok(b) => b,
                Err(_) => self.fail(
                    src,
                    step,
                    TransportErrorKind::ChannelClosed,
                    format!("peer {src} hung up mid-superstep (recv)"),
                ),
            };
            if self.hardened {
                if batch.seq != self.xseq {
                    self.fail(
                        src,
                        step,
                        TransportErrorKind::SequenceGap,
                        format!(
                            "batch from peer {src} carries seq {} but this process is at \
                             exchange {}",
                            batch.seq, self.xseq
                        ),
                    );
                }
                let want = batch_checksum(&batch.pkts, &batch.bytes);
                if want != batch.checksum {
                    self.fail(
                        src,
                        step,
                        TransportErrorKind::ChecksumMismatch,
                        format!(
                            "batch from peer {src} checksums to {:#018x} but was stamped \
                             {:#018x}",
                            want, batch.checksum
                        ),
                    );
                }
            }
            (self.spare[src], self.out_bytes[src]) = batch.unload(inbox, seg);
        }
        self.xseq += 1;
        self.prev_mode = mode;
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
        self.mode = SyncMode::Full;
        self.prev_mode = SyncMode::Full;
        self.begun_mode = SyncMode::Full;
        // A clean run consumes every batch it posted (the empty batch *is*
        // the synchronization); anything still queued means the job ended
        // mid-protocol — rebuild instead of reuse.
        for rx in self.receivers.iter().flatten() {
            if rx.try_recv().is_ok() {
                return false;
            }
        }
        // `xseq` deliberately keeps counting across jobs: it is a monotone
        // generation tag, and every endpoint of the group completed the same
        // number of exchanges, so the peers stay aligned.
        self.counters = TransportCounters::default();
        true
    }
}

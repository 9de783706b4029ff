//! The per-process BSP context: the Rust face of the Green BSP API.
//!
//! The paper's library is three functions — `bspSendPkt`, `bspGetPkt`,
//! `bspSynch` — plus auxiliaries for the process id and the number of
//! unreceived packets. [`Ctx`] carries exactly that interface, and records
//! the per-superstep statistics (`sent`, `received`, local compute time,
//! charged work units) from which the cost-model quantities `W`, `H`, `S`
//! are derived.

use crate::check::{
    report, BoundaryEvent, CheckCtx, CheckKind, CheckReport, CollectiveEvent, CollectiveKind,
    DrmaEvent, DrmaOp, TrackedPkt,
};
use crate::fault::{BspError, FaultCounters, TransportError, TransportErrorKind};
use crate::packet::Packet;
use crate::relax::{SyncGraph, SyncMode};
use crate::stats::{LocalStep, TransportCounters};
use std::panic::{panic_any, Location};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Length of a byte-lane record header: `[u32 src LE | u32 len LE]`,
/// followed by `len` payload bytes. Records are packed densely in the lane
/// buffers with no alignment padding.
pub const MSG_HDR: usize = 8;

/// Backend-specific per-process transport. Implementations deliver traffic
/// sent in superstep `s` at the beginning of superstep `s + 1`, one inbox
/// segment per source on both lanes.
pub(crate) trait ProcTransport: Send {
    /// Called once before the user function runs (e.g. the sequential
    /// simulator blocks here until it is this process's turn).
    fn on_start(&mut self) {}

    /// Take over a non-empty buffer of packets for `dest`, in send order,
    /// and leave `buf` empty. The buffer is *moved*, not copied: a
    /// transport holding nothing for `dest` yet swaps allocations with the
    /// caller ([`hand_over`]), so `buf` comes back as a recycled
    /// allocation. [`Ctx`] calls this at most once per destination per
    /// superstep, with the whole superstep's staged packets; only a fault
    /// injector's duplicated or delayed buffer arrives as a second call and
    /// is appended.
    fn send_pkts(&mut self, dest: usize, buf: &mut Vec<Packet>);

    /// [`send_pkts`](ProcTransport::send_pkts) for the byte lane: a buffer
    /// of byte-lane records (complete `[src|len|payload]` frames, packed
    /// back to back), handed over the same way.
    fn send_bytes(&mut self, dest: usize, buf: &mut Vec<u8>);

    /// First half of a split-phase boundary for superstep `step`: flush
    /// queued traffic and *announce* arrival at the rendezvous `mode` names
    /// without blocking for peers, so the caller can overlap local compute
    /// before [`exchange`](ProcTransport::exchange) — called with the same
    /// `step` and `mode` — completes the crossing. After `exchange_begin`,
    /// no further sends may arrive until the matching `exchange`. The
    /// default is a no-op — `exchange` alone is always a correct (if
    /// overlap-free) implementation of the pair.
    fn exchange_begin(&mut self, _step: usize, _mode: SyncMode) {}

    /// Complete superstep `step` (0-based): flush queued traffic, perform
    /// the synchronization `mode` asks for — the p-wide barrier, or a
    /// rendezvous with this process's sync-graph neighbors only, which any
    /// transport may strengthen to the barrier — and deliver what was
    /// addressed to this process during `step`. Which destinations a
    /// superstep may send to is [`Ctx`]'s business (`Ctx::check_graph`),
    /// not the transport's. Both lanes are delivered by *replacing* their
    /// segments: on return `inbox[src]` and `byte_inbox[src]` hold exactly
    /// the packets and records `src` sent here during `step` — in `src`'s
    /// send order, empty if it sent none. What the segments held on entry
    /// (the previous superstep's deliveries, dead by now) are the
    /// allocations the transport recycles. When an
    /// [`exchange_begin`](ProcTransport::exchange_begin) for the same step
    /// already ran, this is the second half of the split-phase pair and
    /// must not re-flush.
    fn exchange(
        &mut self,
        step: usize,
        mode: SyncMode,
        inbox: &mut [Vec<Packet>],
        byte_inbox: &mut [Vec<u8>],
    );

    /// The user function returned. Transports that serialize execution use
    /// this to hand control onward; barrier-based transports rely on the
    /// superstep-alignment contract instead.
    fn finish(&mut self);

    /// Hot-path counters accumulated over the run (lock acquisitions,
    /// volume). Collected into [`crate::RunStats`].
    fn counters(&self) -> TransportCounters {
        TransportCounters::default()
    }

    /// Mark shared synchronization state (barriers, batons) failed so peers
    /// blocked in an exchange wake and fail with
    /// [`crate::BspError::PeerFailed`] instead of deadlocking. Called by the
    /// runner when this process panics; the default has nothing to poison
    /// (channel-based backends propagate failure by dropping endpoints).
    fn poison(&mut self) {}

    /// Fault-machinery counters (injected/detected/retried). Non-zero only
    /// on hardened or fault-injected runs.
    fn fault_counters(&self) -> FaultCounters {
        FaultCounters::default()
    }

    /// Restore this endpoint to its launch state so a later job can reuse
    /// it (see [`crate::exec`]): clear staging buffers *keeping their
    /// capacity*, rewind the superstep counter, zero the hot-path counters.
    /// Every endpoint of a process group resets itself; because each one
    /// clears its own inbound state, a full sweep covers the whole shared
    /// fabric. Returns `false` when the endpoint cannot be safely reused
    /// (poisoned barrier or baton, data still pending in a channel) — the
    /// caller must then drop the whole group and rebuild. The default is
    /// `false`: wrapper transports (fault, guard, checker) and any future
    /// backend are rebuild-only until they opt in.
    fn reset(&mut self) -> bool {
        false
    }
}

/// Move `buf`'s traffic behind whatever `held` already has and leave `buf`
/// empty. When `held` is empty — every hand-over but a fault injector's
/// duplicated or delayed buffer — the two allocations are swapped and
/// nothing is copied.
#[inline]
pub(crate) fn hand_over<T>(held: &mut Vec<T>, buf: &mut Vec<T>) {
    if held.is_empty() {
        std::mem::swap(held, buf);
    } else {
        held.append(buf);
    }
}

/// Per-process checkpoint plumbing, present only when the run has a
/// [`crate::CheckpointPolicy`].
pub(crate) struct CkptState {
    pub(crate) every: usize,
    pub(crate) store: Arc<crate::fault::CheckpointStore>,
    pub(crate) pid: usize,
    /// Snapshot to resume from after a rollback; consumed by
    /// [`Ctx::restore_checkpoint`].
    pub(crate) restored: Option<Vec<u8>>,
}

/// The BSP process context handed to the user function by [`crate::run`].
///
/// # Superstep contract
///
/// Every process must call [`Ctx::sync`] the same number of times. A packet
/// sent in superstep `s` can be read with [`Ctx::get_pkt`] during superstep
/// `s + 1` only; packets left unread when the next `sync` happens are
/// discarded, exactly as in the paper's library.
pub struct Ctx {
    pid: usize,
    nprocs: usize,
    pub(crate) transport: Box<dyn ProcTransport>,
    /// Per-destination packet staging: [`Ctx::send_pkt`] appends here for
    /// the whole superstep. At the boundary the transport takes each
    /// buffer whole and leaves a recycled one in its place (DESIGN.md §7),
    /// so a destination never sent to costs nothing.
    pkt_out: Vec<Vec<Packet>>,
    /// Packets delivered this superstep, one segment per source pid. The
    /// next `exchange` replaces every segment and recycles the allocations.
    inbox: Vec<Vec<Packet>>,
    /// Read cursor: segment, and offset into it.
    pkt_seg: usize,
    pkt_pos: usize,
    /// Delivered packets not yet read, over all segments.
    pkt_unread: usize,
    /// Per-destination byte-lane staging: framed records accumulated during
    /// the superstep, handed over like `pkt_out` (see DESIGN.md §9).
    byte_out: Vec<Vec<u8>>,
    /// Byte-lane records delivered this superstep, one segment per source
    /// pid, replaced like `inbox`.
    byte_inbox: Vec<Vec<u8>>,
    /// Read cursor: segment, and record-granular offset into it.
    byte_seg: usize,
    byte_pos: usize,
    /// Delivered bytes not yet read, over all segments.
    byte_unread: usize,
    step: usize,
    sent_this_step: u64,
    sent_bytes_this_step: u64,
    work_units: u64,
    step_start: Instant,
    /// `Some` between [`Ctx::sync_begin`] and [`Ctx::sync_end`]: sends are
    /// forbidden in the overlap window (the exchange is already in flight).
    /// Holds the mode the window was opened with, which `sync_end` hands to
    /// the transport again.
    split: Option<SyncMode>,
    /// The registered sync graph ([`crate::Config::sync_graph`]); `None`
    /// makes neighborhood boundaries unavailable.
    graph: Option<Arc<SyncGraph>>,
    /// Mode of the boundary that opened the current superstep: the graph
    /// discipline covers both supersteps adjacent to a neighborhood
    /// boundary ([`Ctx::check_graph`]).
    last_mode: SyncMode,
    /// Compute time accumulated up to `sync_begin`, completed by the
    /// overlap window's time at `sync_end`.
    pending_compute: Duration,
    /// Time spent inside `exchange_begin`, added to the boundary's
    /// `sync_wait` at `sync_end`.
    pending_wait: Duration,
    pub(crate) log: Vec<LocalStep>,
    /// Per-process checker state; `None` on unchecked runs, so the hot path
    /// pays one predictable branch per operation.
    pub(crate) check: Option<Box<CheckCtx>>,
    /// Checkpoint plumbing; `None` unless the run has a
    /// [`crate::CheckpointPolicy`].
    pub(crate) ckpt: Option<Box<CkptState>>,
    /// Tile coordinates when this job is one tile of a streaming run
    /// (see [`crate::stream`]); `None` for ordinary in-core jobs. Stamped
    /// by the runner from the job's [`crate::Config`] — a plain `Copy`, so
    /// the warm lease path stays allocation-free.
    pub(crate) tile: Option<crate::stream::TileMeta>,
    /// Cooperative cancellation/deadline token, checked at every superstep
    /// boundary (see DESIGN.md §15); `None` for plain runs, so the boundary
    /// hot path pays one predictable branch. Stamped by the runner from the
    /// job's [`crate::Config`] — an `Arc` clone, so the warm lease path
    /// stays allocation-free.
    pub(crate) control: Option<crate::exec::CancelToken>,
}

/// In-place serializer for one byte-lane message, created by
/// [`Ctx::msg_writer`]: values are appended directly to the outgoing lane
/// buffer (no intermediate `Vec`), and the record's length header is patched
/// when the writer drops. Equivalent to one [`Ctx::send_bytes`] call.
pub struct MsgWriter<'a> {
    buf: &'a mut Vec<u8>,
    /// Offset of this record's header in `buf`.
    start: usize,
    sent_bytes: &'a mut u64,
}

impl MsgWriter<'_> {
    /// Append raw bytes to the message payload.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Append a little-endian `f32`.
    #[inline]
    pub fn put_f32(&mut self, v: f32) {
        self.write(&v.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.write(&v.to_le_bytes());
    }

    /// Payload bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len() - self.start - MSG_HDR
    }

    /// Whether no payload has been written yet (an empty message is valid).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for MsgWriter<'_> {
    fn drop(&mut self) {
        let len = self.buf.len() - self.start - MSG_HDR;
        assert!(len <= u32::MAX as usize, "message too large: {} bytes", len);
        self.buf[self.start + 4..self.start + MSG_HDR].copy_from_slice(&(len as u32).to_le_bytes());
        *self.sent_bytes += (MSG_HDR + len) as u64;
    }
}

impl Ctx {
    pub(crate) fn new(
        pid: usize,
        nprocs: usize,
        graph: Option<Arc<SyncGraph>>,
        transport: Box<dyn ProcTransport>,
    ) -> Self {
        Ctx {
            pid,
            nprocs,
            transport,
            pkt_out: vec![Vec::new(); nprocs],
            inbox: vec![Vec::new(); nprocs],
            pkt_seg: 0,
            pkt_pos: 0,
            pkt_unread: 0,
            byte_out: vec![Vec::new(); nprocs],
            byte_inbox: vec![Vec::new(); nprocs],
            byte_seg: 0,
            byte_pos: 0,
            byte_unread: 0,
            step: 0,
            sent_this_step: 0,
            sent_bytes_this_step: 0,
            work_units: 0,
            step_start: Instant::now(),
            split: None,
            graph,
            last_mode: SyncMode::Full,
            pending_compute: Duration::ZERO,
            pending_wait: Duration::ZERO,
            log: Vec::new(),
            check: None,
            ckpt: None,
            tile: None,
            control: None,
        }
    }

    /// Run the transport's start hook and open superstep 0's clock.
    pub(crate) fn begin(&mut self) {
        self.transport.on_start();
        self.step_start = Instant::now();
    }

    /// Rewind this context (and its transport) to the state a fresh
    /// [`Ctx::new`] would produce, keeping every buffer's capacity, so the
    /// executor's arena ([`crate::exec`]) can lease it to the next job with
    /// zero heap allocation. Returns `false` when the transport refuses
    /// (poisoned or mid-protocol); the caller drops the context instead.
    pub(crate) fn reset_for_reuse(&mut self) -> bool {
        if !self.transport.reset() {
            return false;
        }
        // Traffic staged after the job's last sync dies here, like every
        // other leftover of the previous job; the capacity stays.
        for buf in self.pkt_out.iter_mut().chain(&mut self.inbox) {
            buf.clear();
        }
        for buf in self.byte_out.iter_mut().chain(&mut self.byte_inbox) {
            buf.clear();
        }
        self.pkt_seg = 0;
        self.pkt_pos = 0;
        self.pkt_unread = 0;
        self.byte_seg = 0;
        self.byte_pos = 0;
        self.byte_unread = 0;
        self.step = 0;
        self.sent_this_step = 0;
        self.sent_bytes_this_step = 0;
        self.work_units = 0;
        self.step_start = Instant::now();
        self.split = None;
        self.last_mode = SyncMode::Full;
        self.pending_compute = Duration::ZERO;
        self.pending_wait = Duration::ZERO;
        self.log.clear();
        self.check = None;
        self.ckpt = None;
        self.tile = None;
        self.control = None;
        true
    }

    /// Cancellation point: every superstep boundary passes through here.
    /// A fired token unwinds via `panic_any` with a structured [`BspError`]
    /// payload — the same discipline the transports use — so the poison
    /// path releases peers and the runner reports
    /// [`BspError::Cancelled`] / [`BspError::DeadlineExceeded`] as the
    /// run's primary error. Plain runs (`control == None`) pay one branch.
    /// Also called by the runner's slot body at launch, so a job cancelled
    /// while queued never enters the user closure.
    #[inline]
    pub(crate) fn check_control(&mut self) {
        let Some(tok) = &self.control else { return };
        if tok.is_cancelled() {
            let (pid, step) = (self.pid, self.step);
            panic_any(BspError::Cancelled { pid, step });
        }
        if tok.deadline_exceeded() {
            let (pid, step) = (self.pid, self.step);
            panic_any(BspError::DeadlineExceeded { pid, step });
        }
    }

    /// Close the final (partial) superstep. The paper counts this superstep
    /// in `S` (e.g. the 1-processor matrix multiplication has `S = 1` with no
    /// synchronizations at all).
    pub(crate) fn finalize(&mut self) {
        if self.split.is_some() {
            let pid = self.pid;
            // Checked degradation: complete the half-crossed boundary so
            // peers blocked in the matching exchange are not stranded,
            // then finalize normally.
            if self.split_misuse(&format!(
                "proc {} returned between sync_begin and sync_end \
                 (open window force-closed before finalize)",
                pid
            )) {
                self.sync_end();
            } else {
                panic!("proc {} returned between sync_begin and sync_end", pid);
            }
        }
        let compute = self.step_start.elapsed();
        // Packets sent after the last sync have no delivery boundary left.
        // They are recorded in this final LocalStep and surfaced as
        // `RunStats::undelivered_pkts` — a debug_assert here used to lose
        // them silently in release builds.
        self.log.push(LocalStep {
            sent: self.sent_this_step,
            recv: 0,
            sent_bytes: self.sent_bytes_this_step,
            recv_bytes: 0,
            compute,
            work_units: self.work_units,
            sync_wait: Duration::ZERO,
        });
        // The transport sees everything the program sent; what has no
        // boundary left goes when the transport is reset or dropped.
        self.flush_staged();
        self.transport.finish();
    }

    /// This process's id in `0..nprocs` (the paper's `bspMyProc`).
    #[inline]
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Number of BSP processes (the paper's `bspNumProcs`).
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Index of the current superstep, starting at 0.
    #[inline]
    pub fn superstep(&self) -> usize {
        self.step
    }

    /// When this job is one tile of a streaming run ([`crate::stream`]),
    /// the tile's coordinates — index, record range, byte offset into the
    /// backing [`crate::stream::TileStore`], and the total tile count.
    /// `None` for ordinary in-core jobs.
    #[inline]
    pub fn tile(&self) -> Option<crate::stream::TileMeta> {
        self.tile
    }

    /// Send a packet to process `dest`; it becomes readable there in the next
    /// superstep (the paper's `bspSendPkt`). Sending to `self` is allowed.
    #[inline]
    #[track_caller]
    pub fn send_pkt(&mut self, dest: usize, pkt: Packet) {
        debug_assert!(dest < self.nprocs, "dest {} out of range", dest);
        if self.split.is_some() {
            if self.split_misuse("send_pkt between sync_begin and sync_end (packet dropped)") {
                return;
            }
            panic!("send_pkt between sync_begin and sync_end");
        }
        self.sent_this_step += 1;
        if let Some(c) = &mut self.check {
            c.record_send(self.step, dest, Location::caller(), 1);
        }
        // The whole per-packet cost: one indexed 16-byte store and a length
        // bump. The packet is never passed on by reference, so once this is
        // inlined the caller builds it straight into the staging buffer.
        self.pkt_out[dest].push(pkt);
    }

    /// Cross the boundary: retire the previous superstep's deliveries and
    /// let the transport deliver this one's. The transport trades every
    /// dead segment of both lanes for the buffer its traffic arrived in.
    fn deliver(&mut self, mode: SyncMode) {
        self.transport
            .exchange(self.step, mode, &mut self.inbox, &mut self.byte_inbox);
        self.pkt_seg = 0;
        self.pkt_pos = 0;
        self.pkt_unread = self.inbox.iter().map(Vec::len).sum();
        self.byte_seg = 0;
        self.byte_pos = 0;
        self.byte_unread = self.byte_inbox.iter().map(Vec::len).sum();
    }

    /// Hand everything staged — both lanes, every destination — to the
    /// transport, one buffer per destination and lane, each traded for a
    /// recycled one. Every boundary flavor starts here, so a transport's
    /// `exchange` or `exchange_begin` never has to ask for staged traffic,
    /// and nothing reaches a transport before `check_graph` has seen it.
    fn flush_staged(&mut self) {
        for dest in 0..self.nprocs {
            if !self.pkt_out[dest].is_empty() {
                self.transport.send_pkts(dest, &mut self.pkt_out[dest]);
            }
            if !self.byte_out[dest].is_empty() {
                self.transport.send_bytes(dest, &mut self.byte_out[dest]);
            }
        }
    }

    /// Send a whole batch of packets to process `dest`; equivalent to calling
    /// [`Ctx::send_pkt`] once per packet: the batch is appended to the
    /// staging buffer with one copy. Collectives and the DRMA layer route
    /// their bulk traffic through this.
    #[inline]
    #[track_caller]
    pub fn send_pkts(&mut self, dest: usize, pkts: &[Packet]) {
        debug_assert!(dest < self.nprocs, "dest {} out of range", dest);
        if self.split.is_some() {
            if self.split_misuse("send_pkts between sync_begin and sync_end (batch dropped)") {
                return;
            }
            panic!("send_pkts between sync_begin and sync_end");
        }
        self.sent_this_step += pkts.len() as u64;
        if let Some(c) = &mut self.check {
            c.record_send(self.step, dest, Location::caller(), pkts.len() as u64);
        }
        self.pkt_out[dest].extend_from_slice(pkts);
    }

    /// Send `payload` to process `dest` as one variable-length byte-lane
    /// message; it arrives there in the next superstep and is read with
    /// [`Ctx::recv_bytes`]. The payload is not chopped into 16-byte packets:
    /// the whole message is staged with one `memcpy` behind an 8-byte
    /// `{src, len}` header, and that copy is the only one on every
    /// backend — the staging buffer itself moves to the
    /// receiver at the boundary and is read in place. An empty payload is a
    /// valid message.
    #[inline]
    pub fn send_bytes(&mut self, dest: usize, payload: &[u8]) {
        debug_assert!(dest < self.nprocs, "dest {} out of range", dest);
        if self.split.is_some() {
            if self.split_misuse("send_bytes between sync_begin and sync_end (message dropped)") {
                return;
            }
            panic!("send_bytes between sync_begin and sync_end");
        }
        assert!(
            payload.len() <= u32::MAX as usize,
            "message too large: {} bytes",
            payload.len()
        );
        self.sent_bytes_this_step += (MSG_HDR + payload.len()) as u64;
        let pid = self.pid;
        let buf = &mut self.byte_out[dest];
        buf.extend_from_slice(&(pid as u32).to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(payload);
    }

    /// Open one byte-lane message to `dest` for in-place serialization:
    /// values are written straight into the outgoing lane buffer, and the
    /// record's length header is patched when the returned [`MsgWriter`]
    /// drops. Equivalent to building a `Vec<u8>` and calling
    /// [`Ctx::send_bytes`], without the intermediate allocation and copy.
    pub fn msg_writer(&mut self, dest: usize) -> MsgWriter<'_> {
        debug_assert!(dest < self.nprocs, "dest {} out of range", dest);
        if self.split.is_some() {
            // The writer API has no way to refuse a message, so the
            // checked degradation stages it normally; it leaves at the
            // next boundary that flushes the lane, one superstep late.
            if !self.split_misuse(
                "msg_writer between sync_begin and sync_end (message deferred to a later boundary)",
            ) {
                panic!("msg_writer between sync_begin and sync_end");
            }
        }
        let buf = &mut self.byte_out[dest];
        let start = buf.len();
        buf.extend_from_slice(&(self.pid as u32).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        MsgWriter {
            buf,
            start,
            sent_bytes: &mut self.sent_bytes_this_step,
        }
    }

    /// Get the next byte-lane message delivered to this process in the
    /// previous superstep: `(source pid, payload)`, read in place from the
    /// buffer the sender staged it in. Messages arrive by ascending source
    /// pid, and from one sender in that sender's send order, on every
    /// backend. `None` when every delivered message has been read. Unread
    /// messages are discarded at the next [`Ctx::sync`], mirroring the
    /// packet contract.
    #[inline]
    pub fn recv_bytes(&mut self) -> Option<(usize, &[u8])> {
        let seg = loop {
            let seg = self.byte_inbox.get(self.byte_seg)?;
            if self.byte_pos < seg.len() {
                break seg;
            }
            self.byte_seg += 1;
            self.byte_pos = 0;
        };
        let hdr = &seg[self.byte_pos..self.byte_pos + MSG_HDR];
        let src = u32::from_le_bytes(hdr[0..4].try_into().unwrap()) as usize;
        let len = u32::from_le_bytes(hdr[4..8].try_into().unwrap()) as usize;
        let body = self.byte_pos + MSG_HDR;
        debug_assert!(body + len <= seg.len(), "truncated record");
        self.byte_pos = body + len;
        self.byte_unread -= MSG_HDR + len;
        Some((src, &seg[body..body + len]))
    }

    /// Unread byte-lane bytes remaining this superstep (headers included) —
    /// the byte-lane counterpart of [`Ctx::pkts_remaining`]. Zero means
    /// [`Ctx::recv_bytes`] will return `None`.
    #[inline]
    pub fn bytes_remaining(&self) -> usize {
        self.byte_unread
    }

    /// Get the next packet sent to this process in the previous superstep;
    /// `None` when there are no further packets (the paper's `bspGetPkt`).
    /// Packets arrive by ascending source pid, and from one sender in that
    /// sender's send order, on every backend — the order
    /// [`Ctx::recv_bytes`] delivers the byte lane in.
    #[inline]
    pub fn get_pkt(&mut self) -> Option<Packet> {
        loop {
            let seg = self.inbox.get(self.pkt_seg)?;
            if let Some(&p) = seg.get(self.pkt_pos) {
                self.pkt_pos += 1;
                self.pkt_unread -= 1;
                return Some(p);
            }
            self.pkt_seg += 1;
            self.pkt_pos = 0;
        }
    }

    /// Like [`Ctx::get_pkt`], but the returned packet carries its superstep
    /// epoch — the checked face of the paper's `bspGetPkt`. On a checked run
    /// ([`crate::Config::checked`]), reading the packet after the `sync` that
    /// ends the current superstep files a
    /// [`CheckKind::StalePacketRead`](crate::check::CheckKind) diagnostic
    /// with the proc id, both supersteps, and the originating send site(s);
    /// on an unchecked run the packet behaves like a plain [`Packet`].
    #[inline]
    pub fn get_pkt_tracked(&mut self) -> Option<TrackedPkt> {
        let pkt = self.get_pkt()?;
        Some(match &self.check {
            Some(c) => TrackedPkt::tracked(
                pkt,
                self.step as u64,
                self.pid,
                Arc::clone(&c.epoch),
                Arc::clone(&c.shared.sink),
            ),
            None => TrackedPkt::new(pkt, self.step as u64, self.pid),
        })
    }

    /// Number of packets delivered this superstep and not yet read (the
    /// paper's auxiliary "number of unreceived packets").
    #[inline]
    pub fn pkts_remaining(&self) -> usize {
        self.pkt_unread
    }

    /// Barrier-synchronize all processes and deliver the packets sent during
    /// the superstep that just ended (the paper's `bspSynch`). Unread packets
    /// from the previous superstep are discarded.
    ///
    /// Semantically this is [`Ctx::sync_begin`] immediately followed by
    /// [`Ctx::sync_end`] — a split-phase boundary with an empty overlap
    /// window — but the bulk path stays fused so unconverted programs pay
    /// exactly what they always did (one `exchange`, no extra rendezvous
    /// traffic).
    pub fn sync(&mut self) {
        self.boundary(SyncMode::Full);
    }

    /// [`Ctx::sync`] over the registered sync graph
    /// ([`crate::Config::sync_graph`]): the boundary is a pairwise
    /// rendezvous with this process's neighbors instead of the p-wide
    /// barrier. Every process must take the same boundary kind at the same
    /// superstep (sync-mode congruence); traffic to a non-neighbor is a
    /// contract violation (panic unchecked, diagnostic under
    /// [`crate::Config::checked`]).
    pub fn sync_neigh(&mut self) {
        self.boundary(SyncMode::Neighborhood);
    }

    /// First half of a split-phase boundary: flush this superstep's sends
    /// and announce arrival at the rendezvous *without* blocking for peers.
    /// Between `sync_begin` and [`Ctx::sync_end`] the process may keep
    /// computing on local data — including reading the *current*
    /// superstep's delivered packets, which stay valid until `sync_end` —
    /// but must not send ([`Ctx::send_pkt`] and friends panic).
    pub fn sync_begin(&mut self) {
        self.boundary_begin(SyncMode::Full);
    }

    /// Split-phase [`Ctx::sync_neigh`]: announce arrival to neighbors now,
    /// complete the pairwise rendezvous at the matching [`Ctx::sync_end`].
    pub fn sync_neigh_begin(&mut self) {
        self.boundary_begin(SyncMode::Neighborhood);
    }

    /// The fused boundary in `mode`.
    fn boundary(&mut self, mode: SyncMode) {
        self.check_control();
        if self.split.is_some() {
            // Checked degradation: the caller clearly wants a boundary and
            // one is already half-crossed, so complete the open window (in
            // the mode it was opened with) — that keeps this proc's
            // boundary count congruent with peers that called sync_end
            // correctly.
            if self.split_misuse(
                "sync between sync_begin and sync_end (treated as the matching sync_end)",
            ) {
                self.sync_end();
                return;
            }
            panic!("sync between sync_begin and sync_end");
        }
        let compute = self.step_start.elapsed();
        self.check_graph(mode);
        self.flush_staged();
        let boundary = Instant::now();
        self.deliver(mode);
        let sync_wait = boundary.elapsed();
        self.close_step(mode, compute, sync_wait, false);
    }

    /// Open a split window whose boundary is `mode`.
    fn boundary_begin(&mut self, mode: SyncMode) {
        self.check_control();
        if self.split.is_some() {
            // Checked degradation: the window is already open; a second
            // announcement has nothing to add, so ignore it — mode and all.
            if self.split_misuse("sync_begin called twice without sync_end (second call ignored)") {
                return;
            }
            panic!("sync_begin called twice without sync_end");
        }
        self.split = Some(mode);
        self.pending_compute = self.step_start.elapsed();
        self.check_graph(mode);
        self.flush_staged();
        let boundary = Instant::now();
        self.transport.exchange_begin(self.step, mode);
        self.pending_wait = boundary.elapsed();
        // Reopen the clock: the overlap window is local computation and
        // belongs to the superstep being closed.
        self.step_start = Instant::now();
    }

    /// Second half of a split-phase boundary: block until every peer has
    /// arrived, then deliver the packets sent during the superstep that
    /// just ended. Must follow a [`Ctx::sync_begin`]; `sync_begin` +
    /// `sync_end` is observationally equivalent to one [`Ctx::sync`].
    pub fn sync_end(&mut self) {
        let Some(mode) = self.split.take() else {
            // Checked degradation: there is no open window to complete;
            // performing a boundary here would desynchronize this proc
            // from its peers, so ignore the call.
            if self.split_misuse("sync_end without sync_begin (call ignored)") {
                return;
            }
            panic!("sync_end without sync_begin");
        };
        let compute = self.pending_compute + self.step_start.elapsed();
        // The inboxes turn over here, not at sync_begin, so the previous
        // superstep's deliveries stay readable through the overlap window.
        let boundary = Instant::now();
        self.deliver(mode);
        let sync_wait = self.pending_wait + boundary.elapsed();
        self.pending_wait = Duration::ZERO;
        self.close_step(mode, compute, sync_wait, true);
    }

    /// The graph discipline, enforced here for every backend and wrapper
    /// stack: when the boundary about to be crossed — or the one that
    /// opened this superstep — is a neighborhood rendezvous, every
    /// destination this superstep sent to must be a sync-graph neighbor or
    /// this process itself, because the pairwise rendezvous orders nothing
    /// along any other edge. Runs before the staged traffic is handed over.
    /// Unchecked runs fail with [`TransportErrorKind::GraphViolation`];
    /// checked runs file [`CheckKind::GraphViolatingSend`] and carry on (the
    /// checker's transport crosses every boundary at full strength, so the
    /// results stay well-defined).
    fn check_graph(&self, mode: SyncMode) {
        if mode != SyncMode::Neighborhood && self.last_mode != SyncMode::Neighborhood {
            return;
        }
        let graph = self
            .graph
            .as_ref()
            .expect("neighborhood synchronization requires Config::sync_graph");
        let (pid, step) = (self.pid, self.step);
        for dest in 0..self.nprocs {
            let sent = !self.pkt_out[dest].is_empty() || !self.byte_out[dest].is_empty();
            if !sent || dest == pid || graph.is_neighbor(pid, dest) {
                continue;
            }
            let detail = format!(
                "superstep {step} is adjacent to a neighborhood boundary but proc {pid} \
                 sent traffic to proc {dest}, which is not a sync-graph neighbor"
            );
            match &self.check {
                Some(c) => report(
                    &c.shared.sink,
                    CheckReport {
                        kind: CheckKind::GraphViolatingSend,
                        pid,
                        step,
                        related_step: None,
                        detail,
                    },
                ),
                None => panic_any(BspError::Transport(TransportError {
                    pid,
                    peer: Some(dest),
                    step,
                    kind: TransportErrorKind::GraphViolation,
                    detail,
                })),
            }
        }
    }

    /// Split-window misuse gate. On a checked run
    /// ([`crate::Config::checked`]) files a
    /// [`CheckKind::SplitMisuse`] diagnostic and returns `true` so the
    /// caller can degrade gracefully (drop the send, ignore the stray
    /// call, force-close the window); on an unchecked run returns `false`
    /// and the caller panics — the legacy fail-fast contract.
    fn split_misuse(&mut self, what: &str) -> bool {
        match &mut self.check {
            Some(c) => {
                report(
                    &c.shared.sink,
                    CheckReport {
                        kind: CheckKind::SplitMisuse,
                        pid: self.pid,
                        step: self.step,
                        related_step: None,
                        detail: what.to_string(),
                    },
                );
                true
            }
            None => false,
        }
    }

    /// Shared tail of every boundary flavor: log the superstep, advance
    /// counters and the checker epoch, reopen the compute clock. `mode` is
    /// the boundary just crossed; `split` marks one crossed via
    /// `sync_begin`/`sync_end`.
    fn close_step(&mut self, mode: SyncMode, compute: Duration, sync_wait: Duration, split: bool) {
        let closed = self.step;
        self.last_mode = mode;
        self.log.push(LocalStep {
            sent: self.sent_this_step,
            recv: self.pkt_unread as u64,
            sent_bytes: self.sent_bytes_this_step,
            recv_bytes: self.byte_unread as u64,
            compute,
            work_units: self.work_units,
            sync_wait,
        });
        self.step += 1;
        self.sent_this_step = 0;
        self.sent_bytes_this_step = 0;
        self.work_units = 0;
        if let Some(c) = &mut self.check {
            // Invalidate every TrackedPkt delivered before this boundary and
            // count the sync for the congruence analysis.
            c.epoch.store(self.step as u64, Ordering::Relaxed);
            c.trace.syncs += 1;
            c.trace.boundaries.push(BoundaryEvent {
                step: closed,
                neigh: mode == SyncMode::Neighborhood,
                split,
            });
        }
        // The clock reopens after the exchange, so barrier wait and routing
        // time are excluded from the work depth, as in the paper (BSP models
        // only communication and synchronization; W is local computation).
        self.step_start = Instant::now();
    }

    /// Charge `units` of abstract local work to the current superstep.
    /// Deterministic alternative to the wall-clock work measurement; used by
    /// tests and available to the cost model.
    #[inline]
    pub fn charge(&mut self, units: u64) {
        self.work_units += units;
    }

    /// Record a collective invocation for the congruence analysis, and check
    /// the collective contract (the caller must have drained its inbox; see
    /// [`crate::collectives`]). No-op on unchecked runs.
    pub(crate) fn record_collective(&mut self, kind: CollectiveKind) {
        let pending = self.pkt_unread + self.byte_unread;
        let (pid, step) = (self.pid, self.step);
        if let Some(c) = &mut self.check {
            if pending > 0 {
                report(
                    &c.shared.sink,
                    CheckReport {
                        kind: CheckKind::CollectiveContract,
                        pid,
                        step,
                        related_step: None,
                        detail: format!(
                            "{:?} entered with {} unread packet(s)/lane byte(s) \
                             pending: a collective owns its superstep(s) and the \
                             caller must drain the inbox first",
                            kind, pending
                        ),
                    },
                );
            }
            c.trace.collectives.push(CollectiveEvent { step, kind });
        }
    }

    /// Record one DRMA operation for the conflict analysis. No-op on
    /// unchecked runs.
    pub(crate) fn record_drma(
        &mut self,
        dest: usize,
        region: u32,
        offset: u32,
        len: u32,
        op: DrmaOp,
    ) {
        let step = self.step;
        if let Some(c) = &mut self.check {
            c.trace.drma.push(DrmaEvent {
                step,
                dest,
                region,
                offset,
                len,
                op,
            });
        }
    }

    /// True when a checkpoint-rollback policy is active and the current
    /// superstep is on the policy's cadence: the app should call
    /// [`Ctx::save_checkpoint`] with its serialized state. Always `false`
    /// without a policy, so apps can call it unconditionally.
    #[inline]
    pub fn checkpoint_due(&self) -> bool {
        match &self.ckpt {
            Some(c) => c.every > 0 && self.step.is_multiple_of(c.every),
            None => false,
        }
    }

    /// Register `state` as this proc's snapshot for the current superstep.
    /// On a detected fault the runner rolls every proc back to the newest
    /// superstep at which *all* procs saved a snapshot. No-op without a
    /// checkpoint policy.
    pub fn save_checkpoint(&mut self, state: &[u8]) {
        // Placement is recorded even without a policy: where the program
        // *would* checkpoint is part of its superstep plan, and saving
        // inside a split window is flagged by the analyzer either way.
        if let Some(c) = &mut self.check {
            c.trace.ckpts.push((self.step, self.split.is_some()));
        }
        if let Some(c) = &self.ckpt {
            c.store.save(c.pid, self.step, state.to_vec());
        }
    }

    /// After a rollback, the snapshot this proc saved at the rollback point;
    /// `None` on a fresh (non-rollback) incarnation or when no consistent
    /// snapshot existed (the app then restarts from scratch). Consumes the
    /// blob, so call it once at the top of the program.
    pub fn restore_checkpoint(&mut self) -> Option<Vec<u8>> {
        self.ckpt.as_mut().and_then(|c| c.restored.take())
    }
}

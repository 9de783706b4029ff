//! Fault injection and self-healing supersteps.
//!
//! The paper's library assumes a perfectly reliable transport; this module
//! makes the superstep barrier a recovery line instead of a place to die.
//! Three pieces:
//!
//! * [`FaultPlan`] — a deterministic, seeded schedule of transport faults
//!   (drop / duplicate / reorder / corrupt / delay a batch, straggler proc,
//!   proc panic at superstep `s`), injected by the crate-private
//!   `FaultyBackend` wrapper at exchange boundaries on every backend.
//! * `GuardedBackend` — the hardening layer: every superstep's traffic is
//!   framed with a sequence number and xxhash-style checksums, verified on
//!   receipt, and healed by a status/retransmit round protocol that runs on
//!   the inner transport's own collective exchange primitive.
//! * Structured failures — [`TransportError`] / [`BspError`] replace
//!   `unwrap()`/`expect()` panics on the transport paths, and
//!   [`FaultCounters`] in [`crate::RunStats`] records what was injected,
//!   detected, retried and rolled back.
//!
//! Wire format of one guarded frame (one byte-lane record per peer per
//! round; all integers little-endian):
//!
//! ```text
//! off  0  u32 magic          off 24  u64 npkts
//! off  4  u32 kind           off 32  u64 nbytes (app payload length)
//! off  8  u64 src            off 40  u64 pkt_digest (packets, in order)
//! off 16  u64 seq (superstep)off 48  u64 byte_sum   (payload, in order)
//! off 56  u64 hdr_sum — xxhash-style hash of bytes 0..56
//! off 64  payload: app records, then (DATA frames) serialized packets
//! ```
//!
//! The status round is the protocol's control plane: it always runs after
//! the data round, every proc broadcasts its retransmit needs, and all procs
//! therefore agree on whether another retransmit round follows — the round
//! count stays identical across procs by construction, which is what keeps
//! barrier-based backends deadlock-free under injection. Injected faults
//! never target status frames (a real deployment would carry them on a
//! separately-protected control channel); persistent plans do re-hit
//! retransmit rounds, which is how retry-budget exhaustion is exercised.

use crate::context::{hand_over, ProcTransport};
use crate::digest::{byte_hash, fixed, pkt_digest};
use crate::packet::{Packet, PACKET_SIZE};
use crate::relax::SyncMode;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

// ------------------------------------------------------------------ errors

/// What went wrong on a transport path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportErrorKind {
    /// A peer's channel endpoint dropped mid-superstep (the peer panicked or
    /// exited early).
    ChannelClosed,
    /// A hardened pipe read stalled past the delivery timeout: the peer went
    /// silent mid-superstep.
    DeliveryTimeout,
    /// The retransmit budget was exhausted without reaching a verified
    /// superstep.
    RetryExhausted,
    /// A superstep adjacent to a neighborhood boundary sent traffic to a
    /// processor outside the registered sync graph: the pairwise rendezvous
    /// provides no happens-before edge for that delivery, so the send is a
    /// contract violation (see DESIGN.md §12).
    GraphViolation,
}

/// A structured transport failure: which proc saw it, against which peer,
/// in which superstep, and what kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportError {
    /// Proc that observed the failure.
    pub pid: usize,
    /// Peer involved, when attributable.
    pub peer: Option<usize>,
    /// Superstep in which the failure was observed.
    pub step: usize,
    /// Failure class.
    pub kind: TransportErrorKind,
    /// Human-readable context.
    pub detail: String,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transport {:?} at proc {} superstep {}",
            self.kind, self.pid, self.step
        )?;
        if let Some(peer) = self.peer {
            write!(f, " (peer {})", peer)?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// A BSP run failed. Returned by [`crate::try_run`]; [`crate::run`] panics
/// with the formatted message instead.
#[derive(Clone, Debug)]
pub enum BspError {
    /// A process's user function (or an injected fault) panicked; the payload
    /// is the panic message.
    ProcPanicked {
        /// Proc that panicked.
        pid: usize,
        /// Superstep it had reached.
        step: usize,
        /// Panic payload, when it was a string.
        payload: String,
    },
    /// A surviving process observed a poisoned barrier or baton: some peer
    /// failed, and the superstep can never complete.
    PeerFailed {
        /// Surviving proc that observed the failure.
        pid: usize,
        /// Superstep it was blocked in.
        step: usize,
        /// Context.
        detail: String,
    },
    /// A structured transport failure (closed channel, delivery timeout,
    /// retry exhaustion, graph violation).
    Transport(TransportError),
    /// The job was cancelled via [`crate::JobHandle::cancel`] (or a shared
    /// [`crate::CancelToken`]). The unwinding proc poisons its transport so
    /// peers observe [`BspError::PeerFailed`] instead of hanging.
    Cancelled {
        /// Proc that observed the cancellation request.
        pid: usize,
        /// Superstep boundary at which it was observed.
        step: usize,
    },
    /// The deadline armed on the job's [`crate::CancelToken`] passed before
    /// it finished. Observed cooperatively at a superstep (or tile)
    /// boundary, like `Cancelled`.
    DeadlineExceeded {
        /// Proc that observed the expired deadline.
        pid: usize,
        /// Superstep boundary at which it was observed.
        step: usize,
    },
    /// The runtime was shut down before this job ran (fast
    /// [`crate::Runtime::shutdown`] fails queued jobs with this instead of
    /// leaving their handles to hang).
    RuntimeShutdown,
}

impl fmt::Display for BspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BspError::ProcPanicked { pid, step, payload } => {
                write!(
                    f,
                    "proc {} panicked at superstep {}: {}",
                    pid, step, payload
                )
            }
            BspError::PeerFailed { pid, step, detail } => {
                write!(
                    f,
                    "proc {} superstep {}: peer failed: {}",
                    pid, step, detail
                )
            }
            BspError::Transport(e) => write!(f, "{}", e),
            BspError::Cancelled { pid, step } => {
                write!(f, "proc {} cancelled at superstep {}", pid, step)
            }
            BspError::DeadlineExceeded { pid, step } => {
                write!(f, "proc {} deadline exceeded at superstep {}", pid, step)
            }
            BspError::RuntimeShutdown => write!(f, "runtime shut down before the job ran"),
        }
    }
}

impl std::error::Error for BspError {}

// ----------------------------------------------------------- fault plans

/// One fault class. The first six are *recoverable*: the guarded exchange
/// detects and heals them and the run's results are bit-identical to a
/// fault-free run. `Panic` is unrecoverable at the transport level; it
/// surfaces as a structured [`BspError`] unless a
/// [`CheckpointPolicy`] lets the runner roll the whole machine back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Discard one proc's batch (packets + frame) to one destination.
    Drop,
    /// Deliver the batch twice.
    Duplicate,
    /// Scramble the order of the frame's payload records.
    Reorder,
    /// Flip a bit in the frame.
    Corrupt,
    /// Deliver the batch one exchange round late.
    Delay,
    /// The proc sleeps inside the exchange, blowing the superstep deadline.
    Straggler,
    /// The proc panics inside the exchange.
    Panic,
    /// The proc panics inside the exchange *and* its pool worker thread dies
    /// after the job: exercises the executor's quarantine→respawn path (see
    /// [`crate::Runtime::pool_health`]). Unrecoverable at the transport
    /// level, like `Panic`.
    WorkerAbort,
}

impl FaultKind {
    /// The recoverable classes, in a fixed order (used by sweeps and tests).
    pub const RECOVERABLE: [FaultKind; 6] = [
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::Corrupt,
        FaultKind::Delay,
        FaultKind::Straggler,
    ];
}

/// One scheduled fault: proc `pid` misbehaves toward `dest` in superstep
/// `step` (for `Straggler`/`Panic` the `dest` is ignored).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Proc that misbehaves.
    pub pid: usize,
    /// App superstep in which the fault fires.
    pub step: usize,
    /// Destination whose batch is affected (batch faults only).
    pub dest: usize,
    /// Fault class.
    pub kind: FaultKind,
}

#[inline]
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seeded schedule of transport faults. By default every
/// event fires once (*transient*): the injection hits the data round of its
/// superstep and never the recovery rounds, modelling a fault that does not
/// recur on retransmit. [`FaultPlan::persistent`] makes events re-fire on
/// retransmit rounds and across rollback incarnations, which is how retry-
/// and rollback-budget exhaustion are exercised.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed recorded for reproducibility.
    pub seed: u64,
    /// Events re-fire on retransmit rounds and across incarnations.
    pub persistent: bool,
    /// The scheduled faults.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (useful for measuring hardening overhead).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            persistent: false,
            events: Vec::new(),
        }
    }

    /// Add one event.
    pub fn with(mut self, ev: FaultEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Make every event re-fire on retransmit rounds and across rollback
    /// incarnations.
    pub fn persistent(mut self) -> Self {
        self.persistent = true;
        self
    }

    /// Derive `n` events deterministically from `seed`: pids and dests in
    /// `0..nprocs`, steps in `0..max_step`, kinds drawn from `kinds`.
    pub fn seeded(
        seed: u64,
        nprocs: usize,
        max_step: usize,
        n: usize,
        kinds: &[FaultKind],
    ) -> Self {
        assert!(nprocs > 0 && !kinds.is_empty());
        let mut st = seed ^ 0xA076_1D64_78BD_642F;
        let mut plan = FaultPlan::new(seed);
        for _ in 0..n {
            let r = splitmix(&mut st);
            plan.events.push(FaultEvent {
                pid: (r % nprocs as u64) as usize,
                step: ((r >> 16) % max_step.max(1) as u64) as usize,
                dest: ((r >> 32) % nprocs as u64) as usize,
                kind: kinds[((r >> 48) % kinds.len() as u64) as usize],
            });
        }
        plan
    }
}

/// What the fault machinery did over a run; merged into
/// [`crate::RunStats::faults`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Faults injected by the plan.
    pub injected: u64,
    /// Anomalies detected by the guarded exchange (missing, duplicate, stale
    /// or corrupt frames; fast-lane count/checksum mismatches; blown
    /// superstep deadlines).
    pub detected: u64,
    /// Retransmit rounds run.
    pub retried: u64,
    /// Whole-machine rollbacks performed by the runner.
    pub rolled_back: u64,
    /// Wall-clock milliseconds spent in failed incarnations and rollback.
    pub recovery_ms: u64,
}

impl FaultCounters {
    /// Accumulate `other` into `self`.
    pub fn add(&mut self, other: &FaultCounters) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.retried += other.retried;
        self.rolled_back += other.rolled_back;
        self.recovery_ms += other.recovery_ms;
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == FaultCounters::default()
    }
}

/// Snapshot app state every `every_supersteps` supersteps so the runner can
/// roll back to the last consistent barrier instead of failing the run.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointPolicy {
    /// Checkpoint cadence in supersteps (see [`crate::Ctx::checkpoint_due`]).
    pub every_supersteps: usize,
}

/// How much hardening and recovery a run gets. Present on a [`crate::Config`]
/// (via [`crate::Config::tolerant`]) ⇒ every exchange is checksummed,
/// sequence-checked and healed by retransmit.
#[derive(Clone, Debug)]
pub struct FaultTolerance {
    /// Retransmit rounds allowed per superstep before the run fails with
    /// [`TransportErrorKind::RetryExhausted`].
    pub max_retries: u32,
    /// Straggler detection: a data round exceeding this wall-clock deadline
    /// counts as a detected fault. `None` disables detection.
    pub superstep_deadline: Option<Duration>,
    /// Checkpoint cadence for rollback recovery; `None` means a failed proc
    /// fails the run.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Whole-machine rollbacks allowed before the run degrades to a
    /// structured failure.
    pub max_rollbacks: u32,
}

impl Default for FaultTolerance {
    fn default() -> Self {
        FaultTolerance {
            max_retries: 4,
            superstep_deadline: None,
            checkpoint: None,
            max_rollbacks: 2,
        }
    }
}

// ---------------------------------------------------- shared runner state

/// Per-run injection state shared across rollback incarnations: transient
/// events that already fired must not fire again after a rollback.
pub(crate) struct FaultState {
    pub(crate) fired: Vec<AtomicBool>,
}

impl FaultState {
    pub(crate) fn new(n: usize) -> Self {
        FaultState {
            fired: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

pub(crate) const ROUND_DATA: u8 = 0;
pub(crate) const ROUND_STATUS: u8 = 1;
pub(crate) const ROUND_RETRANS: u8 = 2;

/// Set by the guarded layer before each inner exchange so the injector knows
/// which app superstep and protocol round it is hitting.
pub(crate) struct RoundMeta {
    pub(crate) app_step: AtomicUsize,
    pub(crate) round: AtomicU8,
}

impl RoundMeta {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(RoundMeta {
            app_step: AtomicUsize::new(0),
            round: AtomicU8::new(ROUND_DATA),
        })
    }
}

/// One saved snapshot: the superstep it was taken at, and the app's blob.
type Snapshot = (usize, Vec<u8>);

/// Per-proc checkpoint blobs, keeping the last two snapshots so a rollback
/// always has a consistent cut even if a fault hits mid-checkpoint.
pub(crate) struct CheckpointStore {
    slots: Vec<Mutex<Vec<Snapshot>>>,
}

impl CheckpointStore {
    pub(crate) fn new(nprocs: usize) -> Self {
        CheckpointStore {
            slots: (0..nprocs).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// `pid`'s snapshots. No critical section here can panic — they
    /// compare, push, remove past a checked length and clone — so the lock
    /// is never poisoned; the guard is taken either way, since a poisoned
    /// list would still be whole.
    fn slot(&self, pid: usize) -> MutexGuard<'_, Vec<Snapshot>> {
        self.slots[pid]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn save(&self, pid: usize, step: usize, data: Vec<u8>) {
        let mut s = self.slot(pid);
        s.retain(|(st, _)| *st != step);
        s.push((step, data));
        if s.len() > 2 {
            s.remove(0);
        }
    }

    /// Largest superstep for which *every* proc holds a snapshot.
    pub(crate) fn consistent_step(&self) -> Option<usize> {
        let held: Vec<Vec<usize>> = (0..self.slots.len())
            .map(|pid| self.slot(pid).iter().map(|(st, _)| *st).collect())
            .collect();
        let first = held.first()?;
        (first.iter().copied())
            .filter(|st| held.iter().all(|h| h.contains(st)))
            .max()
    }

    pub(crate) fn blob(&self, pid: usize, step: usize) -> Option<Vec<u8>> {
        (self.slot(pid).iter())
            .find(|(st, _)| *st == step)
            .map(|(_, d)| d.clone())
    }

    /// Drop snapshots newer than `step` so the next incarnation cannot
    /// restore past the rollback point.
    pub(crate) fn prune_above(&self, step: usize) {
        for pid in 0..self.slots.len() {
            self.slot(pid).retain(|(st, _)| *st <= step);
        }
    }
}

// ------------------------------------------------------------ frame codec

const FRAME_MAGIC: u32 = 0xB59F_5EC5;
pub(crate) const FRAME_HDR: usize = 64;
const KIND_CTRL: u32 = 1;
const KIND_DATA: u32 = 2;
const KIND_STATUS: u32 = 3;

struct FrameHdr {
    kind: u32,
    src: usize,
    seq: u64,
    npkts: u64,
    nbytes: u64,
    pkt_digest: u64,
    byte_sum: u64,
}

/// Append one complete byte-lane record `[src|len|frame]` carrying a guarded
/// frame: the count and digest of `pkts` in the header, then the payload —
/// `app`, followed in a DATA frame by the packets themselves.
fn encode_frame(buf: &mut Vec<u8>, me: usize, kind: u32, seq: u64, pkts: &[Packet], app: &[u8]) {
    let raw = if kind == KIND_DATA { pkts.len() } else { 0 };
    let total = FRAME_HDR + app.len() + raw * PACKET_SIZE;
    buf.extend_from_slice(&(me as u32).to_le_bytes());
    buf.extend_from_slice(&(total as u32).to_le_bytes());
    let fstart = buf.len();
    buf.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    buf.extend_from_slice(&kind.to_le_bytes());
    buf.extend_from_slice(&(me as u64).to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(pkts.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(app.len() as u64).to_le_bytes());
    buf.extend_from_slice(&pkt_digest(pkts).to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes()); // byte_sum, patched below
    buf.extend_from_slice(&0u64.to_le_bytes()); // hdr_sum, patched below
    buf.extend_from_slice(app);
    for pkt in &pkts[..raw] {
        buf.extend_from_slice(&pkt.0);
    }
    let bsum = byte_hash(&buf[fstart + FRAME_HDR..]);
    buf[fstart + 48..fstart + 56].copy_from_slice(&bsum.to_le_bytes());
    let hsum = byte_hash(&buf[fstart..fstart + 56]);
    buf[fstart + 56..fstart + 64].copy_from_slice(&hsum.to_le_bytes());
}

/// Parse one guarded frame out of a record payload. `None` means the header
/// is untrustworthy (short, bad magic, or bad header checksum).
fn decode_frame(rec: &[u8]) -> Option<(FrameHdr, &[u8])> {
    if rec.len() < FRAME_HDR {
        return None;
    }
    let u32at = |o: usize| u32::from_le_bytes(fixed(&rec[o..]));
    let u64at = |o: usize| u64::from_le_bytes(fixed(&rec[o..]));
    if u32at(0) != FRAME_MAGIC || u64at(56) != byte_hash(&rec[..56]) {
        return None;
    }
    Some((
        FrameHdr {
            kind: u32at(4),
            src: u64at(8) as usize,
            seq: u64at(16),
            npkts: u64at(24),
            nbytes: u64at(32),
            pkt_digest: u64at(40),
            byte_sum: u64at(48),
        },
        &rec[FRAME_HDR..],
    ))
}

/// Walk the next `[src|len|payload]` record; `None` at a clean end or on a
/// malformed remainder (caller distinguishes via the final cursor position).
fn next_record<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    if *pos + 8 > buf.len() {
        return None;
    }
    let len = u32::from_le_bytes(fixed(&buf[*pos + 4..])) as usize;
    let body = *pos + 8;
    if body + len > buf.len() {
        return None;
    }
    *pos = body + len;
    Some(&buf[body..body + len])
}

/// Every whole record of every segment, with the segment (= source pid) it
/// arrived in; a segment's malformed remainder is skipped.
fn records(segs: &[Vec<u8>]) -> impl Iterator<Item = (usize, &[u8])> {
    segs.iter().enumerate().flat_map(|(src, seg)| {
        let mut pos = 0usize;
        std::iter::from_fn(move || next_record(seg, &mut pos)).map(move |rec| (src, rec))
    })
}

// -------------------------------------------------------- fault injection

/// How long an injected straggler sleeps inside the exchange.
pub(crate) const STRAGGLER_SLEEP: Duration = Duration::from_millis(80);

/// Transport wrapper that injects the plan's faults at exchange boundaries.
/// Mirrors `CheckedBackend`: it stacks over any backend via the
/// `ProcTransport` object impl, and the guarded layer above it repairs what
/// it breaks.
pub(crate) struct FaultyBackend<B: ProcTransport> {
    inner: B,
    pid: usize,
    plan: Arc<FaultPlan>,
    state: Arc<FaultState>,
    meta: Arc<RoundMeta>,
    /// Delayed traffic: `new` fills during the current round's hand-overs,
    /// `old` is flushed at the next exchange, giving exactly one round of
    /// delay.
    stash_pkts_old: Vec<(usize, Vec<Packet>)>,
    stash_pkts_new: Vec<(usize, Vec<Packet>)>,
    stash_bytes_old: Vec<(usize, Vec<u8>)>,
    stash_bytes_new: Vec<(usize, Vec<u8>)>,
    counters: FaultCounters,
}

impl<B: ProcTransport> FaultyBackend<B> {
    pub(crate) fn new(
        inner: B,
        pid: usize,
        plan: Arc<FaultPlan>,
        state: Arc<FaultState>,
        meta: Arc<RoundMeta>,
    ) -> Self {
        assert_eq!(plan.events.len(), state.fired.len());
        FaultyBackend {
            inner,
            pid,
            plan,
            state,
            meta,
            stash_pkts_old: Vec::new(),
            stash_pkts_new: Vec::new(),
            stash_bytes_old: Vec::new(),
            stash_bytes_new: Vec::new(),
            counters: FaultCounters::default(),
        }
    }

    /// The active event for this proc at the current (step, round), if any.
    /// `send_site` selects batch faults (matched against `dest`); otherwise
    /// the exchange-level kinds (straggler, panic).
    fn event_for(&self, dest: usize, send_site: bool) -> Option<(usize, FaultKind)> {
        let round = self.meta.round.load(Ordering::Relaxed);
        // Status rounds are the protocol's control plane and are never
        // injected into (see the module docs); transient events hit only the
        // data round, persistent ones also re-hit retransmit rounds.
        let injectable = round == ROUND_DATA || (self.plan.persistent && round == ROUND_RETRANS);
        if !injectable {
            return None;
        }
        let step = self.meta.app_step.load(Ordering::Relaxed);
        self.plan.events.iter().enumerate().find_map(|(i, e)| {
            if e.pid != self.pid || e.step != step {
                return None;
            }
            if !self.plan.persistent && self.state.fired[i].load(Ordering::Relaxed) {
                return None;
            }
            match e.kind {
                FaultKind::Straggler | FaultKind::Panic | FaultKind::WorkerAbort => {
                    (!send_site).then_some((i, e.kind))
                }
                _ => (send_site && e.dest == dest).then_some((i, e.kind)),
            }
        })
    }
}

impl<B: ProcTransport> ProcTransport for FaultyBackend<B> {
    fn on_start(&mut self) {
        self.inner.on_start();
    }

    fn send_pkts(&mut self, dest: usize, buf: &mut Vec<Packet>) {
        match self.event_for(dest, true) {
            // `injected` is counted once per event at the frame site
            // (send_bytes) — every dest gets a frame even when the packet
            // buffer is empty — so the packet action here is uncounted.
            Some((_, FaultKind::Drop)) => buf.clear(),
            Some((_, FaultKind::Duplicate)) => {
                let mut twin = buf.clone();
                self.inner.send_pkts(dest, buf);
                self.inner.send_pkts(dest, &mut twin);
            }
            Some((_, FaultKind::Delay)) => {
                self.stash_pkts_new.push((dest, std::mem::take(buf)));
            }
            _ => self.inner.send_pkts(dest, buf),
        }
    }

    fn send_bytes(&mut self, dest: usize, buf: &mut Vec<u8>) {
        match self.event_for(dest, true) {
            Some((_, FaultKind::Drop)) => {
                self.counters.injected += 1;
                buf.clear();
            }
            Some((_, FaultKind::Duplicate)) => {
                self.counters.injected += 1;
                let mut twin = buf.clone();
                self.inner.send_bytes(dest, buf);
                self.inner.send_bytes(dest, &mut twin);
            }
            Some((_, FaultKind::Delay)) => {
                self.counters.injected += 1;
                self.stash_bytes_new.push((dest, std::mem::take(buf)));
            }
            Some((_, FaultKind::Corrupt)) => {
                self.counters.injected += 1;
                // Mid-record: lands in the frame header for tiny frames
                // (hdr_sum catches it) or in the payload (byte_sum does).
                let i = buf.len() / 2;
                buf[i] ^= 0x20;
                self.inner.send_bytes(dest, buf);
            }
            Some((_, FaultKind::Reorder)) => {
                self.counters.injected += 1;
                let body = 8 + FRAME_HDR;
                if buf.len() >= body + 2 {
                    // Rotate the payload records out of order.
                    let mid = (buf.len() - body) / 2;
                    buf[body..].rotate_left(mid.max(1));
                } else {
                    // No payload to scramble: damage the header instead.
                    let n = buf.len();
                    buf[n - 1] ^= 0x01;
                }
                self.inner.send_bytes(dest, buf);
            }
            _ => self.inner.send_bytes(dest, buf),
        }
    }

    fn exchange(
        &mut self,
        step: usize,
        mode: SyncMode,
        inbox: &mut [Vec<Packet>],
        byte_inbox: &mut [Vec<u8>],
    ) {
        // Traffic delayed in the previous round arrives in this one.
        for (dest, mut pkts) in self.stash_pkts_old.drain(..) {
            self.inner.send_pkts(dest, &mut pkts);
        }
        for (dest, mut b) in self.stash_bytes_old.drain(..) {
            self.inner.send_bytes(dest, &mut b);
        }
        if let Some((i, kind)) = self.event_for(0, false) {
            match kind {
                FaultKind::Straggler => {
                    self.counters.injected += 1;
                    std::thread::sleep(STRAGGLER_SLEEP);
                }
                FaultKind::Panic | FaultKind::WorkerAbort => {
                    self.counters.injected += 1;
                    // Marked fired here because the end-of-round marking
                    // below never runs; a rollback incarnation must not
                    // re-fire a transient panic.
                    self.state.fired[i].store(true, Ordering::Relaxed);
                    if kind == FaultKind::WorkerAbort {
                        // The pool worker running this slot dies after the
                        // job, exercising the quarantine→respawn path.
                        crate::exec::request_worker_abort();
                    }
                    panic!(
                        "injected fault: proc {} panicked at superstep {}",
                        self.pid,
                        self.meta.app_step.load(Ordering::Relaxed)
                    );
                }
                _ => {}
            }
        }
        self.inner.exchange(step, mode, inbox, byte_inbox);
        std::mem::swap(&mut self.stash_pkts_old, &mut self.stash_pkts_new);
        std::mem::swap(&mut self.stash_bytes_old, &mut self.stash_bytes_new);
        if self.meta.round.load(Ordering::Relaxed) == ROUND_DATA {
            let s = self.meta.app_step.load(Ordering::Relaxed);
            for (i, e) in self.plan.events.iter().enumerate() {
                if e.pid == self.pid && e.step == s {
                    self.state.fired[i].store(true, Ordering::Relaxed);
                }
            }
            // Without a guard above, every exchange is a data round and
            // nothing else tracks the app superstep; advance it here. (With
            // a guard, this is overwritten by its absolute store.)
            self.meta.app_step.store(s + 1, Ordering::Relaxed);
        }
    }

    // `exchange_begin` deliberately keeps the no-op default: injection
    // happens inside `exchange`, and collapsing a split boundary into one
    // full exchange is a legal (stronger) implementation — the injected
    // events still land at the same app superstep.

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn counters(&self) -> crate::stats::TransportCounters {
        self.inner.counters()
    }

    fn poison(&mut self) {
        self.inner.poison();
    }

    fn fault_counters(&self) -> FaultCounters {
        let mut c = self.counters;
        c.add(&self.inner.fault_counters());
        c
    }
}

// ------------------------------------------------------- guarded exchange

/// The hardening layer: checksummed, sequence-numbered frames on every
/// exchange, verified per source on receipt and healed by
/// status/retransmit rounds on the inner transport's own collective
/// exchange primitive. Sits between the context (or `CheckedBackend`) and
/// the injector.
pub(crate) struct GuardedBackend<B: ProcTransport> {
    inner: B,
    pid: usize,
    nprocs: usize,
    meta: Arc<RoundMeta>,
    max_retries: u32,
    deadline: Option<Duration>,
    /// App superstep counter (what the context drives).
    step: usize,
    /// Inner exchange-round counter (data + status + retransmit rounds).
    inner_step: usize,
    /// Per-dest staging, retained until the superstep verifies clean so
    /// retransmits can be served.
    out_pkts: Vec<Vec<Packet>>,
    out_bytes: Vec<Vec<u8>>,
    /// The copy of `out_pkts[dest]` the data round hands to the inner
    /// transport (which takes the buffer it is given).
    pkt_copy: Vec<Packet>,
    /// Scratch inboxes for one inner round (allocations circulate with the
    /// inner transport's across rounds), one segment per source on both
    /// lanes. A frame is one record, so it never straddles a segment.
    round_pkts: Vec<Vec<Packet>>,
    round_bytes: Vec<Vec<u8>>,
    frame: Vec<u8>,
    counters: FaultCounters,
}

impl<B: ProcTransport> GuardedBackend<B> {
    pub(crate) fn new(
        inner: B,
        pid: usize,
        nprocs: usize,
        tol: &FaultTolerance,
        meta: Arc<RoundMeta>,
    ) -> Self {
        assert!(
            nprocs <= 64,
            "fault tolerance supports up to 64 processes (status masks are one u64)"
        );
        GuardedBackend {
            inner,
            pid,
            nprocs,
            meta,
            max_retries: tol.max_retries,
            deadline: tol.superstep_deadline,
            step: 0,
            inner_step: 0,
            out_pkts: vec![Vec::new(); nprocs],
            out_bytes: vec![Vec::new(); nprocs],
            pkt_copy: Vec::new(),
            round_pkts: vec![Vec::new(); nprocs],
            round_bytes: vec![Vec::new(); nprocs],
            frame: Vec::new(),
            counters: FaultCounters::default(),
        }
    }

    /// Run one inner round and leave its traffic in `round_pkts`/`round_bytes`.
    fn inner_round(&mut self) {
        let step = self.inner_step;
        self.inner.exchange(
            step,
            SyncMode::Full,
            &mut self.round_pkts,
            &mut self.round_bytes,
        );
        self.inner_step += 1;
        if self.round_pkts.iter().any(|seg| !seg.is_empty()) {
            // Fast-lane packets outside a data round are a delayed batch:
            // dropped here and re-requested from the source.
            self.counters.detected += 1;
        }
    }

    /// Verify the data round's delivery from `src`: exactly one CTRL frame
    /// of this superstep, an intact payload — moved into `bytes` — and a
    /// packet segment matching the frame's count and checksum. Every
    /// anomaly counts as detected; `false` means `src` must retransmit.
    fn verify_source(
        &mut self,
        src: usize,
        seq: u64,
        pkts: &[Packet],
        bytes: &mut Vec<u8>,
    ) -> bool {
        let seg = &self.round_bytes[src];
        let (mut pos, mut seen, mut clean) = (0usize, false, true);
        while let Some(rec) = next_record(seg, &mut pos) {
            let Some((h, payload)) = decode_frame(rec) else {
                clean = false;
                self.counters.detected += 1;
                continue;
            };
            if h.kind != KIND_CTRL || h.seq != seq || h.src != src {
                self.counters.detected += 1; // stale or misrouted frame
            } else if seen {
                self.counters.detected += 1; // duplicate frame
            } else if payload.len() as u64 != h.nbytes || byte_hash(payload) != h.byte_sum {
                seen = true;
                clean = false;
                self.counters.detected += 1; // corrupt/reordered payload
            } else {
                seen = true;
                bytes.extend_from_slice(payload);
                if pkts.len() as u64 != h.npkts || pkt_digest(pkts) != h.pkt_digest {
                    clean = false;
                    self.counters.detected += 1; // lost/duplicated packets
                }
            }
        }
        if pos != seg.len() {
            clean = false;
            self.counters.detected += 1; // malformed record tail
        }
        if !seen {
            // Every peer owes us a CTRL frame each data round (including
            // ourselves); an absent one was dropped or delayed in flight.
            self.counters.detected += 1;
        }
        seen && clean
    }
}

impl<B: ProcTransport> ProcTransport for GuardedBackend<B> {
    fn on_start(&mut self) {
        self.inner.on_start();
    }

    fn send_pkts(&mut self, dest: usize, buf: &mut Vec<Packet>) {
        hand_over(&mut self.out_pkts[dest], buf);
    }

    fn send_bytes(&mut self, dest: usize, buf: &mut Vec<u8>) {
        hand_over(&mut self.out_bytes[dest], buf);
    }

    // The self-healing protocol runs *global lockstep rounds*: every process
    // sends a CTRL frame to every peer each data round, and recovery rounds
    // assume all p processes participate. A neighborhood rendezvous would
    // break both (non-neighbors exchange nothing), so whatever mode the
    // program declared, every inner round is `Full`: the program keeps its
    // relaxed structure (and `Ctx` still holds it to the graph discipline)
    // and stays correct — full barriers are strictly stronger — it just
    // does not get the relaxed speedup while hardened. `exchange_begin`
    // likewise keeps the no-op default: the guard's ack/retry conversation
    // cannot be split across a begin/end pair.
    fn exchange(
        &mut self,
        step: usize,
        _mode: SyncMode,
        inbox: &mut [Vec<Packet>],
        byte_inbox: &mut [Vec<u8>],
    ) {
        debug_assert_eq!(step, self.step, "guarded transport driven out of order");
        let p = self.nprocs;
        let me = self.pid;
        let seq = step as u64;
        self.meta.app_step.store(step, Ordering::Relaxed);
        self.meta.round.store(ROUND_DATA, Ordering::Relaxed);

        // ---- data round: packets on the fast lane, one CTRL frame per peer.
        for dest in 0..p {
            if !self.out_pkts[dest].is_empty() {
                let mut copy = std::mem::take(&mut self.pkt_copy);
                copy.extend_from_slice(&self.out_pkts[dest]);
                self.inner.send_pkts(dest, &mut copy);
                self.pkt_copy = copy;
            }
            self.frame.clear();
            let mut frame = std::mem::take(&mut self.frame);
            encode_frame(
                &mut frame,
                me,
                KIND_CTRL,
                seq,
                &self.out_pkts[dest],
                &self.out_bytes[dest],
            );
            self.inner.send_bytes(dest, &mut frame);
            self.frame = frame;
        }
        let t0 = Instant::now();
        // The data round exchanges straight into the app inbox: in the clean
        // case (the overwhelmingly common one) the fast-lane packets are
        // verified in place and never copied again. A source that fails
        // verification has its segment rebuilt from a retransmitted DATA
        // frame.
        self.inner.exchange(
            self.inner_step,
            SyncMode::Full,
            inbox,
            &mut self.round_bytes,
        );
        self.inner_step += 1;
        if let Some(d) = self.deadline {
            if t0.elapsed() > d {
                // Straggler: the data round blew the superstep deadline.
                self.counters.detected += 1;
            }
        }

        // ---- verify per source: a verified payload goes straight into its
        // source's (dead, hence cleared) inbox segment; `need` has a bit per
        // source that must retransmit.
        let mut need: u64 = 0;
        for (src, (pkts, bytes)) in inbox.iter().zip(byte_inbox.iter_mut()).enumerate() {
            bytes.clear();
            if !self.verify_source(src, seq, pkts, bytes) {
                need |= 1u64 << src;
            }
        }

        // ---- recovery: status round, then retransmit rounds until every
        // proc reports clean. Status masks make the round count a global
        // agreement, so barrier-based backends stay in lockstep.
        let mut retries = 0u32;
        loop {
            // Re-assert the app superstep: the fault layer bumps it at the
            // end of each data round (for unguarded runs), which must not
            // leak into this superstep's status/retransmit rounds.
            self.meta.app_step.store(step, Ordering::Relaxed);
            self.meta.round.store(ROUND_STATUS, Ordering::Relaxed);
            let mine = need.to_le_bytes();
            for dest in 0..p {
                self.frame.clear();
                let mut frame = std::mem::take(&mut self.frame);
                encode_frame(&mut frame, me, KIND_STATUS, seq, &[], &mine);
                self.inner.send_bytes(dest, &mut frame);
                self.frame = frame;
            }
            self.inner_round();
            let mut stat: Vec<Option<u64>> = vec![None; p];
            for (src, rec) in records(&self.round_bytes) {
                match decode_frame(rec) {
                    Some((h, payload))
                        if h.kind == KIND_STATUS
                            && h.seq == seq
                            && h.src == src
                            && payload.len() == 8
                            && byte_hash(payload) == h.byte_sum =>
                    {
                        if stat[src].is_none() {
                            stat[src] = Some(u64::from_le_bytes(fixed(payload)));
                        } else {
                            self.counters.detected += 1;
                        }
                    }
                    _ => self.counters.detected += 1, // stale data frame etc.
                }
            }
            let all_known = stat.iter().all(Option::is_some);
            let global_need = stat.iter().flatten().fold(0u64, |a, &n| a | n);
            if all_known && global_need == 0 && need == 0 {
                break;
            }
            retries += 1;
            if retries > self.max_retries {
                std::panic::panic_any(BspError::Transport(TransportError {
                    pid: me,
                    peer: None,
                    step,
                    kind: TransportErrorKind::RetryExhausted,
                    detail: format!(
                        "superstep not verified after {} retransmit round(s)",
                        self.max_retries
                    ),
                }));
            }
            self.counters.retried += 1;

            // ---- retransmit round: serve every peer that asked (or whose
            // status was lost, conservatively) with a self-verifying DATA
            // frame of its records and packets.
            self.meta.round.store(ROUND_RETRANS, Ordering::Relaxed);
            let mybit = 1u64 << me;
            for (q, st) in stat.iter().enumerate() {
                if st.is_some_and(|n| n & mybit == 0) {
                    continue;
                }
                self.frame.clear();
                let mut frame = std::mem::take(&mut self.frame);
                encode_frame(
                    &mut frame,
                    me,
                    KIND_DATA,
                    seq,
                    &self.out_pkts[q],
                    &self.out_bytes[q],
                );
                self.inner.send_bytes(q, &mut frame);
                self.frame = frame;
            }
            self.inner_round();
            for (src, rec) in records(&self.round_bytes) {
                let Some((h, payload)) = decode_frame(rec) else {
                    self.counters.detected += 1;
                    continue;
                };
                if h.kind != KIND_DATA || h.seq != seq || h.src != src {
                    self.counters.detected += 1;
                    continue;
                }
                if payload.len() as u64 != h.nbytes + PACKET_SIZE as u64 * h.npkts
                    || byte_hash(payload) != h.byte_sum
                {
                    self.counters.detected += 1;
                    continue;
                }
                if need & (1u64 << src) == 0 {
                    continue; // a frame we did not ask for (late duplicate)
                }
                let (app, raw) = payload.split_at(h.nbytes as usize);
                let pkts = &mut inbox[src];
                pkts.clear();
                pkts.extend(raw.chunks_exact(PACKET_SIZE).map(|c| Packet(fixed(c))));
                if pkt_digest(pkts) != h.pkt_digest {
                    self.counters.detected += 1;
                    continue;
                }
                byte_inbox[src].clear();
                byte_inbox[src].extend_from_slice(app);
                need &= !(1u64 << src);
            }
        }

        for d in 0..p {
            self.out_pkts[d].clear();
            self.out_bytes[d].clear();
        }
        self.step += 1;
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn counters(&self) -> crate::stats::TransportCounters {
        self.inner.counters()
    }

    fn poison(&mut self) {
        self.inner.poison();
    }

    fn fault_counters(&self) -> FaultCounters {
        let mut c = self.counters;
        c.add(&self.inner.fault_counters());
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transport that is never driven: `verify_source` only reads the
    /// guard's own round buffers.
    struct Idle;

    impl ProcTransport for Idle {
        fn send_pkts(&mut self, _: usize, _: &mut Vec<Packet>) {}
        fn send_bytes(&mut self, _: usize, _: &mut Vec<u8>) {}
        fn exchange(&mut self, _: usize, _: SyncMode, _: &mut [Vec<Packet>], _: &mut [Vec<u8>]) {}
        fn finish(&mut self) {}
    }

    #[test]
    fn verify_source_rejects_reordered_packets() {
        let (a, b) = (Packet::two_u64(1, 2), Packet::two_u64(3, 4));
        let tol = FaultTolerance::default();
        let mut g = GuardedBackend::new(Idle, 0, 2, &tol, RoundMeta::new());
        // Proc 1's intact CTRL frame for superstep 5 was encoded for [a, b].
        encode_frame(&mut g.round_bytes[1], 1, KIND_CTRL, 5, &[a, b], b"rec");
        let mut bytes = Vec::new();
        assert!(g.verify_source(1, 5, &[a, b], &mut bytes));
        assert_eq!((bytes.as_slice(), g.counters.detected), (&b"rec"[..], 0));
        // The same packets in the other order are a bad delivery.
        assert!(!g.verify_source(1, 5, &[b, a], &mut Vec::new()));
        assert_eq!(g.counters.detected, 1);
    }

    #[test]
    fn byte_hash_is_order_sensitive() {
        assert_ne!(
            byte_hash(b"abcdefgh12345678"),
            byte_hash(b"12345678abcdefgh")
        );
        assert_ne!(byte_hash(b""), byte_hash(b"\0"));
        let mut v = b"hello world, this is a frame".to_vec();
        let h = byte_hash(&v);
        v[5] ^= 0x20;
        assert_ne!(h, byte_hash(&v));
    }

    #[test]
    fn frame_roundtrips_and_detects_corruption() {
        let mut buf = Vec::new();
        let pkts = [Packet::two_u64(11, 0), Packet::ZERO];
        encode_frame(&mut buf, 3, KIND_CTRL, 7, &pkts, b"payload-bytes");
        let mut pos = 0;
        let rec = next_record(&buf, &mut pos).expect("one record");
        assert_eq!(pos, buf.len());
        let (h, payload) = decode_frame(rec).expect("valid frame");
        assert_eq!((h.kind, h.src, h.seq, h.npkts), (KIND_CTRL, 3, 7, 2));
        assert_eq!(h.pkt_digest, pkt_digest(&pkts));
        assert_eq!(payload, b"payload-bytes");
        assert_eq!(byte_hash(payload), h.byte_sum);
        // Flip one header bit: the frame must become untrustworthy.
        let mut bad = buf.clone();
        bad[8 + 20] ^= 0x01;
        assert!(decode_frame(&bad[8..]).is_none());
        // Flip one payload bit: header stays valid, byte_sum must mismatch.
        let mut bad = buf.clone();
        let n = bad.len();
        bad[n - 3] ^= 0x01;
        let (h2, p2) = decode_frame(&bad[8..]).expect("header still valid");
        assert_ne!(byte_hash(p2), h2.byte_sum);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range(// and reproducible
    ) {
        let a = FaultPlan::seeded(42, 4, 6, 8, &FaultKind::RECOVERABLE);
        let b = FaultPlan::seeded(42, 4, 6, 8, &FaultKind::RECOVERABLE);
        assert_eq!(a.events, b.events);
        let c = FaultPlan::seeded(43, 4, 6, 8, &FaultKind::RECOVERABLE);
        assert_ne!(a.events, c.events);
        for e in &a.events {
            assert!(e.pid < 4 && e.dest < 4 && e.step < 6);
        }
    }

    #[test]
    fn checkpoint_store_finds_consistent_cut() {
        let st = CheckpointStore::new(3);
        st.save(0, 5, vec![1]);
        st.save(1, 5, vec![2]);
        st.save(2, 5, vec![3]);
        st.save(0, 10, vec![4]);
        st.save(1, 10, vec![5]);
        // proc 2 never reached step 10: the consistent cut is step 5.
        assert_eq!(st.consistent_step(), Some(5));
        st.save(2, 10, vec![6]);
        assert_eq!(st.consistent_step(), Some(10));
        st.prune_above(5);
        assert_eq!(st.consistent_step(), Some(5));
        assert_eq!(st.blob(1, 5), Some(vec![2]));
        assert_eq!(st.blob(1, 10), None);
    }
}

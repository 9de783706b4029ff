//! BSP phase-discipline checking: machine-checked diagnostics for the
//! invariants the library's safety contract leaves implicit.
//!
//! The Green BSP contract has four rules that nothing in the runtime
//! enforced until now — a misuse compiles, runs, and silently corrupts
//! results:
//!
//! 1. **Packet lifetime** — a packet obtained via [`crate::Ctx::get_pkt`]
//!    is valid only for the superstep in which it was delivered (the
//!    paper's `bspGetPkt` hands out pointers into a buffer that the next
//!    `bspSynch` reuses).
//! 2. **Superstep congruence** — every process calls `sync` the same
//!    number of times, and every process invokes the same collective (and
//!    the same DRMA op class) in the same superstep.
//! 3. **DRMA conflict freedom** — no two processes write the same
//!    registered cells in one superstep, and no process reads cells
//!    another writes in that superstep.
//! 4. **Phase discipline** — the per-pair grid of the shared backend
//!    relies on a strict "send in step `s`, collect right after the barrier
//!    ending `s`, next touch in step `s + 2`" ordering; only under it does
//!    [`crate::backend::shared`] deliver each superstep's traffic in the
//!    next one, with its slot locks uncontended.
//!
//! Enabling the checker ([`crate::Config::checked`]) wraps every backend
//! in a [`CheckedBackend`](audit) that verifies per-superstep packet
//! conservation, attaches a shadow-state [`audit::PhaseAudit`] to the
//! grid, records per-process call traces, and reports every violation as
//! a structured [`CheckReport`] in [`crate::RunStats::check_reports`] —
//! with proc id, superstep, and (for sends) the originating call site.
//! When the checker is disabled the hot path pays a single predictable
//! branch per operation.
//!
//! The grid and barrier protocols themselves are model-checked over the
//! real code by the loom suite (`crate::loom_tests`, DESIGN.md §13).

pub(crate) mod audit;

use crate::packet::Packet;
use std::fmt;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Category of a checker diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckKind {
    /// A [`TrackedPkt`] was read after the sync that ended its superstep.
    StalePacketRead,
    /// Processes executed different numbers of supersteps.
    SuperstepMismatch,
    /// Processes invoked different collectives (or the same collective in
    /// different supersteps).
    CollectiveMismatch,
    /// A collective was entered with unread packets pending (the caller
    /// must drain its inbox first; see [`crate::collectives`]).
    CollectiveContract,
    /// Two processes wrote overlapping DRMA cells in one superstep.
    DrmaWriteWrite,
    /// One process read DRMA cells another wrote in the same superstep.
    DrmaReadWrite,
    /// Packets were sent after the program's last `sync`; they have no
    /// delivery boundary and can never arrive.
    UndeliveredSend,
    /// A transport delivered a different number of packets than the sum of
    /// what all processes sent to this destination (conservation violated
    /// — a runtime bug, not a program bug).
    DeliveryMismatch,
    /// The grid violated the send/collect/barrier ordering its phase
    /// discipline relies on (a runtime bug, not a program bug).
    PhaseDiscipline,
    /// A fault plan injected at least one recoverable fault but the
    /// hardened transport detected none of them: the detection machinery
    /// (checksums, sequence numbers, count verification) is not observing
    /// the lane the fault landed on.
    FaultUndetected,
    /// A superstep adjacent to a neighborhood boundary sent traffic to a
    /// process outside the registered sync graph. Without an intervening
    /// full barrier there is no happens-before edge ordering that traffic
    /// against the destination's collect, so the send is illegal
    /// even if it happens to arrive (see DESIGN.md §12).
    GraphViolatingSend,
    /// A split-phase window was misused: a send or `sync` between
    /// [`crate::Ctx::sync_begin`] and [`crate::Ctx::sync_end`], a second
    /// `sync_begin` without closing the first, a `sync_end` with no
    /// open window, or a return from the program mid-window. Unchecked
    /// runs panic at the offending call; checked runs degrade (the
    /// offending operation is dropped or the window is force-closed) and
    /// file this diagnostic instead.
    SplitMisuse,
    /// The static plan analyzer ([`crate::analyze`]) found processes whose
    /// superstep skeletons can never meet at a boundary: different
    /// boundary counts, or different boundary kinds (full barrier vs
    /// neighborhood rendezvous) at the same boundary index. A real run
    /// would deadlock or silently skip a straggler.
    PlanDeadlock,
    /// A checkpoint was requested inside a split-phase overlap window.
    /// The checkpointed image would capture a half-completed boundary
    /// (sends flushed, deliveries pending), which a restore cannot replay.
    CheckpointInSplit,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckKind::StalePacketRead => "stale-packet-read",
            CheckKind::SuperstepMismatch => "superstep-mismatch",
            CheckKind::CollectiveMismatch => "collective-mismatch",
            CheckKind::CollectiveContract => "collective-contract",
            CheckKind::DrmaWriteWrite => "drma-write-write",
            CheckKind::DrmaReadWrite => "drma-read-write",
            CheckKind::UndeliveredSend => "undelivered-send",
            CheckKind::DeliveryMismatch => "delivery-mismatch",
            CheckKind::PhaseDiscipline => "phase-discipline",
            CheckKind::FaultUndetected => "fault-undetected",
            CheckKind::GraphViolatingSend => "graph-violating-send",
            CheckKind::SplitMisuse => "split-misuse",
            CheckKind::PlanDeadlock => "plan-deadlock",
            CheckKind::CheckpointInSplit => "checkpoint-in-split",
        };
        f.write_str(s)
    }
}

/// One structured checker diagnostic. Collected in
/// [`crate::RunStats::check_reports`].
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// What rule was violated.
    pub kind: CheckKind,
    /// The offending process (for pairwise conflicts, the first of the
    /// pair; the other is named in `detail`).
    pub pid: usize,
    /// Superstep at which the violation was detected.
    pub step: usize,
    /// For packet-lifetime violations: the superstep the packet was
    /// delivered in (it was sent during `related_step - 1`).
    pub related_step: Option<usize>,
    /// Human-readable specifics: the other proc, the trace diff, the
    /// originating send sites.
    pub detail: String,
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] proc {} superstep {}: {}",
            self.kind, self.pid, self.step, self.detail
        )
    }
}

/// Shared sink the run's diagnostics flow into.
pub(crate) type ReportSink = Arc<Mutex<Vec<CheckReport>>>;

pub(crate) fn report(sink: &ReportSink, r: CheckReport) {
    sink.lock().unwrap().push(r);
}

/// Which collective (or DRMA op class) a process invoked; used for the
/// congruence check. Derived collectives (`allreduce`, `sum`, `exscan`)
/// record the primitive they are built on, which keeps congruent programs
/// congruent in the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectiveKind {
    /// [`crate::collectives::allgather_u64`] (also the base of the `u64`
    /// reductions and scans).
    AllgatherU64,
    /// [`crate::collectives::allgather_f64`] (also the base of the `f64`
    /// reductions).
    AllgatherF64,
    /// [`crate::collectives::broadcast_pkts`].
    BroadcastPkts,
    /// [`crate::collectives::broadcast_pkts_two_phase`].
    BroadcastTwoPhase,
    /// [`crate::collectives::gather_pkts`].
    GatherPkts,
    /// [`crate::drma::Drma::sync`] (full put/get boundary).
    DrmaSync,
    /// [`crate::drma::Drma::sync_put`] (put-only boundary).
    DrmaSyncPut,
}

/// DRMA operation class, for the conflict detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DrmaOp {
    Put,
    Get,
}

/// One recorded collective invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CollectiveEvent {
    pub(crate) step: usize,
    pub(crate) kind: CollectiveKind,
}

/// One recorded DRMA operation: `op` on `dest`'s region `region`, cells
/// `offset .. offset + len`, shipped in superstep `step`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DrmaEvent {
    pub(crate) step: usize,
    pub(crate) dest: usize,
    pub(crate) region: u32,
    pub(crate) offset: u32,
    pub(crate) len: u32,
    pub(crate) op: DrmaOp,
}

/// One send-site record: `count` packets to `dest` during superstep
/// `step`, from the given source location.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SendSite {
    pub(crate) step: usize,
    pub(crate) dest: usize,
    pub(crate) site: &'static Location<'static>,
    pub(crate) count: u64,
}

/// One superstep boundary a process crossed, in program order — the raw
/// material of the static plan analyzer ([`crate::analyze`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BoundaryEvent {
    /// The superstep this boundary closed.
    pub(crate) step: usize,
    /// Neighborhood rendezvous ([`crate::Ctx::sync_neigh`]) vs full
    /// barrier.
    pub(crate) neigh: bool,
    /// Crossed split-phase (`sync_begin` / `sync_end`) vs fused.
    pub(crate) split: bool,
}

/// Everything one process recorded for post-run analysis.
#[derive(Clone, Debug, Default)]
pub(crate) struct ProcTrace {
    /// Number of `sync` calls this process made.
    pub(crate) syncs: usize,
    pub(crate) collectives: Vec<CollectiveEvent>,
    pub(crate) drma: Vec<DrmaEvent>,
    pub(crate) sites: Vec<SendSite>,
    /// Every boundary crossed, in order, with its declared kind.
    pub(crate) boundaries: Vec<BoundaryEvent>,
    /// Checkpoint registrations: `(superstep, inside a split window)`.
    pub(crate) ckpts: Vec<(usize, bool)>,
}

/// Run-wide checker state shared by every process.
pub(crate) struct CheckShared {
    pub(crate) sink: ReportSink,
    pub(crate) ledger: audit::DeliveryLedger,
    /// Byte-lane conservation ledger: counts bytes instead of packets.
    pub(crate) ledger_bytes: audit::DeliveryLedger,
    pub(crate) audit: Arc<audit::PhaseAudit>,
}

impl CheckShared {
    pub(crate) fn new(nprocs: usize) -> Arc<CheckShared> {
        let sink: ReportSink = Arc::new(Mutex::new(Vec::new()));
        Arc::new(CheckShared {
            sink: Arc::clone(&sink),
            ledger: audit::DeliveryLedger::new(nprocs),
            ledger_bytes: audit::DeliveryLedger::new(nprocs),
            audit: Arc::new(audit::PhaseAudit::new(nprocs, sink)),
        })
    }
}

/// Per-process checker context, attached to [`crate::Ctx`] when the run is
/// checked.
pub(crate) struct CheckCtx {
    pub(crate) shared: Arc<CheckShared>,
    /// The process's current superstep, shared with every [`TrackedPkt`]
    /// it hands out (bumped at each `sync`).
    pub(crate) epoch: Arc<AtomicU64>,
    pub(crate) trace: ProcTrace,
}

impl CheckCtx {
    pub(crate) fn new(shared: Arc<CheckShared>) -> CheckCtx {
        CheckCtx {
            shared,
            epoch: Arc::new(AtomicU64::new(0)),
            trace: ProcTrace::default(),
        }
    }

    /// Record a send call site (compressing consecutive sends from the
    /// same site in the same superstep into one entry).
    pub(crate) fn record_send(
        &mut self,
        step: usize,
        dest: usize,
        site: &'static Location<'static>,
        count: u64,
    ) {
        if let Some(last) = self.trace.sites.last_mut() {
            if last.step == step && last.dest == dest && std::ptr::eq(last.site, site) {
                last.count += count;
                return;
            }
        }
        self.trace.sites.push(SendSite {
            step,
            dest,
            site,
            count,
        });
    }
}

/// A packet plus the superstep epoch it is valid in — the checked face of
/// `bspGetPkt`. Obtain one with [`crate::Ctx::get_pkt_tracked`]; read the
/// payload with [`TrackedPkt::read`]. Reading after the owning superstep's
/// `sync` still returns the (copied) bytes, but files a
/// [`CheckKind::StalePacketRead`] diagnostic carrying the proc id, the
/// delivery superstep, and — once the run's traces are merged — the
/// candidate originating send sites.
pub struct TrackedPkt {
    pkt: Packet,
    epoch: u64,
    pid: usize,
    /// `None` when the run is unchecked: reads are then always silent.
    guard: Option<TrackGuard>,
}

struct TrackGuard {
    /// The owning process's live superstep (shared with its `CheckCtx`).
    now: Arc<AtomicU64>,
    sink: ReportSink,
    /// Report at most once per packet.
    reported: std::cell::Cell<bool>,
}

impl TrackedPkt {
    pub(crate) fn new(pkt: Packet, epoch: u64, pid: usize) -> TrackedPkt {
        TrackedPkt {
            pkt,
            epoch,
            pid,
            guard: None,
        }
    }

    pub(crate) fn tracked(
        pkt: Packet,
        epoch: u64,
        pid: usize,
        now: Arc<AtomicU64>,
        sink: ReportSink,
    ) -> TrackedPkt {
        TrackedPkt {
            pkt,
            epoch,
            pid,
            guard: Some(TrackGuard {
                now,
                sink,
                reported: std::cell::Cell::new(false),
            }),
        }
    }

    /// The superstep this packet was delivered in (it is valid only until
    /// that superstep's `sync`).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the packet is still within its validity window.
    #[inline]
    pub fn is_valid(&self) -> bool {
        match &self.guard {
            Some(g) => g.now.load(Ordering::Relaxed) == self.epoch,
            None => true,
        }
    }

    /// Read the payload. Files a [`CheckKind::StalePacketRead`] diagnostic
    /// (once) if the owning superstep has already ended; the bytes are
    /// returned regardless, mirroring the silent corruption the original
    /// library would exhibit.
    pub fn read(&self) -> Packet {
        if let Some(g) = &self.guard {
            let now = g.now.load(Ordering::Relaxed);
            if now != self.epoch && !g.reported.get() {
                g.reported.set(true);
                report(
                    &g.sink,
                    CheckReport {
                        kind: CheckKind::StalePacketRead,
                        pid: self.pid,
                        step: now as usize,
                        related_step: Some(self.epoch as usize),
                        detail: format!(
                            "packet delivered in superstep {} read in superstep {} \
                             (valid only until the sync ending superstep {})",
                            self.epoch, now, self.epoch
                        ),
                    },
                );
            }
        }
        self.pkt
    }
}

// ---------------------------------------------------------------------------
// Post-run trace analysis
// ---------------------------------------------------------------------------

fn fmt_trace(t: &[CollectiveEvent]) -> String {
    let items: Vec<String> = t
        .iter()
        .map(|e| format!("{:?}@s{}", e.kind, e.step))
        .collect();
    format!("[{}]", items.join(", "))
}

/// Compare per-process superstep counts; report every process that
/// deviates from the majority (ties broken toward proc 0's count).
fn check_superstep_congruence(traces: &[ProcTrace], sink: &ReportSink) {
    let counts: Vec<usize> = traces.iter().map(|t| t.syncs).collect();
    let reference = *counts
        .iter()
        .max_by_key(|&&c| {
            (
                counts.iter().filter(|&&x| x == c).count(),
                usize::MAX - c, // prefer proc-0-ish smaller counts on ties
            )
        })
        .unwrap();
    if counts.iter().all(|&c| c == reference) {
        return;
    }
    for (pid, &c) in counts.iter().enumerate() {
        if c != reference {
            report(
                sink,
                CheckReport {
                    kind: CheckKind::SuperstepMismatch,
                    pid,
                    step: c.min(reference),
                    related_step: None,
                    detail: format!(
                        "proc {} synced {} time(s) but the other procs synced {} \
                         (per-proc sync counts: {:?})",
                        pid, c, reference, counts
                    ),
                },
            );
        }
    }
}

/// Compare per-process collective traces; report every process whose trace
/// deviates from the majority, with a diff at the first divergence.
fn check_collective_congruence(traces: &[ProcTrace], sink: &ReportSink) {
    // Majority trace by exact equality.
    let mut best: (usize, usize) = (0, 0); // (count, representative pid)
    for (pid, t) in traces.iter().enumerate() {
        let count = traces
            .iter()
            .filter(|u| u.collectives == t.collectives)
            .count();
        if count > best.0 {
            best = (count, pid);
        }
    }
    let reference = &traces[best.1].collectives;
    for (pid, t) in traces.iter().enumerate() {
        if &t.collectives == reference {
            continue;
        }
        // First divergence between this trace and the reference.
        let i = t
            .collectives
            .iter()
            .zip(reference.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| t.collectives.len().min(reference.len()));
        let got = t.collectives.get(i);
        let want = reference.get(i);
        let step = got.or(want).map(|e| e.step).unwrap_or(0);
        report(
            sink,
            CheckReport {
                kind: CheckKind::CollectiveMismatch,
                pid,
                step,
                related_step: None,
                detail: format!(
                    "collective trace diverges from the other procs at call #{}: \
                     proc {} ran {}, majority ran {}; proc {} trace {}, majority trace {}",
                    i,
                    pid,
                    got.map(|e| format!("{:?} in superstep {}", e.kind, e.step))
                        .unwrap_or_else(|| "nothing".into()),
                    want.map(|e| format!("{:?} in superstep {}", e.kind, e.step))
                        .unwrap_or_else(|| "nothing".into()),
                    pid,
                    fmt_trace(&t.collectives),
                    fmt_trace(reference),
                ),
            },
        );
    }
}

fn ranges_overlap(a: &DrmaEvent, b: &DrmaEvent) -> bool {
    a.offset < b.offset + b.len && b.offset < a.offset + a.len
}

/// Flag write-write and read-write conflicts: two ops from different procs
/// targeting overlapping cells of the same region of the same destination
/// in the same superstep.
fn check_drma_conflicts(traces: &[ProcTrace], sink: &ReportSink) {
    let mut all: Vec<(usize, DrmaEvent)> = Vec::new();
    for (pid, t) in traces.iter().enumerate() {
        for &e in &t.drma {
            all.push((pid, e));
        }
    }
    all.sort_by_key(|(_, e)| (e.step, e.dest, e.region));
    for i in 0..all.len() {
        for (pid_b, b) in all.iter().skip(i + 1) {
            let (pid_a, a) = &all[i];
            if (a.step, a.dest, a.region) != (b.step, b.dest, b.region) {
                break; // sorted: no further candidates for `a`
            }
            if pid_a == pid_b || !ranges_overlap(a, b) {
                continue;
            }
            let kind = match (a.op, b.op) {
                (DrmaOp::Put, DrmaOp::Put) => CheckKind::DrmaWriteWrite,
                (DrmaOp::Get, DrmaOp::Get) => continue, // concurrent reads are fine
                _ => CheckKind::DrmaReadWrite,
            };
            report(
                sink,
                CheckReport {
                    kind,
                    pid: *pid_a.min(pid_b),
                    step: a.step,
                    related_step: None,
                    detail: format!(
                        "procs {} and {} both target proc {} region {} in superstep {}: \
                         {:?} cells {}..{} overlaps {:?} cells {}..{}",
                        pid_a,
                        pid_b,
                        a.dest,
                        a.region,
                        a.step,
                        a.op,
                        a.offset,
                        a.offset + a.len,
                        b.op,
                        b.offset,
                        b.offset + b.len
                    ),
                },
            );
        }
    }
}

/// Flag checkpoints registered inside a split-phase overlap window: the
/// snapshot would capture a half-crossed boundary (sends already flushed,
/// deliveries still pending), which a rollback cannot replay.
fn check_ckpt_in_split(traces: &[ProcTrace], sink: &ReportSink) {
    for (pid, t) in traces.iter().enumerate() {
        for &(step, in_split) in &t.ckpts {
            if in_split {
                report(
                    sink,
                    CheckReport {
                        kind: CheckKind::CheckpointInSplit,
                        pid,
                        step,
                        related_step: None,
                        detail: format!(
                            "proc {} saved a checkpoint in superstep {} between \
                             sync_begin and sync_end; the snapshot captures a \
                             half-crossed boundary and cannot be restored \
                             consistently (move the save before sync_begin or \
                             after sync_end)",
                            pid, step
                        ),
                    },
                );
            }
        }
    }
}

/// Append the candidate originating send sites to every stale-packet
/// report: a packet delivered in superstep `e` was sent during `e - 1`, so
/// every send site targeting the reader during `e - 1` is a candidate.
fn attach_send_sites(reports: &mut [CheckReport], traces: &[ProcTrace]) {
    for r in reports.iter_mut() {
        let (CheckKind::StalePacketRead, Some(epoch)) = (r.kind, r.related_step) else {
            continue;
        };
        if epoch == 0 {
            continue; // delivered at step 0 means sent before the run: impossible
        }
        let mut sites: Vec<String> = Vec::new();
        for (src, t) in traces.iter().enumerate() {
            for s in &t.sites {
                if s.step == epoch - 1 && s.dest == r.pid {
                    sites.push(format!(
                        "proc {} at {}:{} ({} pkt(s))",
                        src,
                        s.site.file(),
                        s.site.line(),
                        s.count
                    ));
                }
            }
        }
        if !sites.is_empty() {
            r.detail
                .push_str(&format!("; originating send site(s): {}", sites.join(", ")));
        }
    }
}

/// Run every post-run analysis over the collected traces and return the
/// complete, enriched report list (runtime-detected reports included).
pub(crate) fn analyze(traces: &[ProcTrace], sink: &ReportSink) -> Vec<CheckReport> {
    check_superstep_congruence(traces, sink);
    check_collective_congruence(traces, sink);
    check_drma_conflicts(traces, sink);
    check_ckpt_in_split(traces, sink);
    let mut reports = std::mem::take(&mut *sink.lock().unwrap());
    attach_send_sites(&mut reports, traces);
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> ReportSink {
        Arc::new(Mutex::new(Vec::new()))
    }

    fn trace(syncs: usize, collectives: Vec<CollectiveEvent>) -> ProcTrace {
        ProcTrace {
            syncs,
            collectives,
            ..ProcTrace::default()
        }
    }

    #[test]
    fn congruent_traces_are_clean() {
        let ev = vec![CollectiveEvent {
            step: 1,
            kind: CollectiveKind::AllgatherU64,
        }];
        let traces = vec![trace(3, ev.clone()), trace(3, ev.clone()), trace(3, ev)];
        let s = sink();
        let reports = analyze(&traces, &s);
        assert!(reports.is_empty(), "{:?}", reports);
    }

    #[test]
    fn minority_sync_count_is_blamed() {
        let traces = vec![trace(3, vec![]), trace(2, vec![]), trace(3, vec![])];
        let s = sink();
        let reports = analyze(&traces, &s);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, CheckKind::SuperstepMismatch);
        assert_eq!(reports[0].pid, 1);
    }

    #[test]
    fn collective_kind_divergence_is_blamed_on_minority() {
        let a = vec![CollectiveEvent {
            step: 0,
            kind: CollectiveKind::AllgatherU64,
        }];
        let b = vec![CollectiveEvent {
            step: 0,
            kind: CollectiveKind::AllgatherF64,
        }];
        let traces = vec![trace(1, a.clone()), trace(1, a.clone()), trace(1, b)];
        let s = sink();
        let reports = analyze(&traces, &s);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, CheckKind::CollectiveMismatch);
        assert_eq!(reports[0].pid, 2);
        assert!(reports[0].detail.contains("AllgatherF64"));
    }

    #[test]
    fn drma_overlap_classification() {
        let put = |pid: usize, off: u32, len: u32| {
            (
                pid,
                DrmaEvent {
                    step: 0,
                    dest: 2,
                    region: 0,
                    offset: off,
                    len,
                    op: DrmaOp::Put,
                },
            )
        };
        // Two disjoint puts: clean.
        let mut t0 = ProcTrace::default();
        t0.drma.push(put(0, 0, 4).1);
        let mut t1 = ProcTrace::default();
        t1.drma.push(put(1, 4, 4).1);
        let t2 = ProcTrace::default();
        let s = sink();
        let traces = vec![t0, t1, t2];
        assert!(analyze(&traces, &s).is_empty());
        // Overlapping puts: write-write.
        let mut t1 = ProcTrace::default();
        t1.drma.push(put(1, 3, 4).1);
        let traces = vec![traces.into_iter().next().unwrap(), t1, ProcTrace::default()];
        let s = sink();
        let reports = analyze(&traces, &s);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, CheckKind::DrmaWriteWrite);
    }

    #[test]
    fn tracked_pkt_untracked_reads_are_silent() {
        let p = TrackedPkt::new(Packet::two_u64(7, 0), 3, 0);
        assert!(p.is_valid());
        assert_eq!(p.read().as_two_u64().0, 7);
        assert_eq!(p.epoch(), 3);
    }

    #[test]
    fn tracked_pkt_reports_once_after_epoch_advances() {
        let now = Arc::new(AtomicU64::new(1));
        let s = sink();
        let p = TrackedPkt::tracked(Packet::ZERO, 1, 4, Arc::clone(&now), Arc::clone(&s));
        assert!(p.is_valid());
        let _ = p.read();
        assert!(s.lock().unwrap().is_empty());
        now.store(2, Ordering::Relaxed);
        assert!(!p.is_valid());
        let _ = p.read();
        let _ = p.read(); // second stale read must not duplicate the report
        let reports = s.lock().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, CheckKind::StalePacketRead);
        assert_eq!(reports[0].pid, 4);
        assert_eq!(reports[0].step, 2);
        assert_eq!(reports[0].related_step, Some(1));
    }
}

//! Per-superstep statistics in the vocabulary of the BSP cost model.
//!
//! The paper's Equation (1) charges a program `W + gH + LS` where
//! `W = Σ w_i` (the *work depth*: `w_i` is the largest local computation in
//! superstep `i`), `H = Σ h_i` (`h_i` is the largest number of packets sent
//! *or* received by any processor in superstep `i`), and `S` is the number of
//! supersteps. The runtime records exactly these quantities, plus the *total
//! work* (the sum of local computation over all processors, excluding idle
//! and communication time) that the paper uses to qualify superlinear
//! speed-ups.

use crate::check::CheckReport;
use std::time::Duration;

/// What one process recorded during one superstep. Collected locally with no
/// cross-thread synchronization; merged after the program finishes.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalStep {
    /// Packets this process sent during the superstep.
    pub sent: u64,
    /// Packets delivered to this process at the end of the superstep.
    pub recv: u64,
    /// Byte-lane bytes this process sent during the superstep (record
    /// headers included).
    pub sent_bytes: u64,
    /// Byte-lane bytes delivered to this process at the end of the
    /// superstep.
    pub recv_bytes: u64,
    /// Wall-clock local computation (superstep entry to `sync` entry, plus
    /// the overlap window of a split-phase boundary).
    pub compute: Duration,
    /// Abstract work units charged via [`crate::Ctx::charge`]. Deterministic
    /// alternative to wall time, used by tests.
    pub work_units: u64,
    /// Wall-clock time spent inside the superstep boundary itself — the
    /// rendezvous plus the transport's flush and drain — split out of
    /// `compute`. Relaxed synchronization (neighborhood barriers,
    /// split-phase overlap) exists to shrink exactly this number.
    pub sync_wait: Duration,
}

/// What one process's transport did on the communication hot path over a
/// whole run. Accumulated locally with no cross-thread synchronization;
/// collected after the program finishes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportCounters {
    /// Mutex/channel-lock operations taken on the hot path: grid slot
    /// hand-overs (one per deposit, one per filled slot collected) and
    /// channel sends/receives.
    pub lock_acquisitions: u64,
    /// Always 0: every hand-over swaps a whole buffer into a per-pair
    /// slot, which cannot overflow. Kept only because the benchmark ledger
    /// still reports it.
    pub overflow_spills: u64,
    /// Always 0, like `overflow_spills`: no slot is ever regrown.
    pub slab_regrows: u64,
    /// Packets this transport moved into destination buffers.
    pub pkts_moved: u64,
    /// Volume handed to the transport: `pkts_moved × PACKET_SIZE` plus
    /// every byte-lane byte (record headers included) at its hand-over.
    pub bytes_moved: u64,
}

impl TransportCounters {
    /// Accumulate `other` into `self`.
    pub fn add(&mut self, other: &TransportCounters) {
        self.lock_acquisitions += other.lock_acquisitions;
        self.overflow_spills += other.overflow_spills;
        self.slab_regrows += other.slab_regrows;
        self.pkts_moved += other.pkts_moved;
        self.bytes_moved += other.bytes_moved;
    }
}

/// Merged view of one superstep across all processes.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Largest number of packets sent by any process.
    pub max_sent: u64,
    /// Largest number of packets received by any process.
    pub max_recv: u64,
    /// Total packets routed in this superstep.
    pub total_pkts: u64,
    /// Largest number of byte-lane bytes sent by any process.
    pub max_sent_bytes: u64,
    /// Largest number of byte-lane bytes received by any process.
    pub max_recv_bytes: u64,
    /// Total byte-lane bytes routed in this superstep.
    pub total_bytes: u64,
    /// `w_i`: largest local computation by any process.
    pub w: Duration,
    /// Sum of local computation over all processes.
    pub work_sum: Duration,
    /// Largest charged work units by any process.
    pub w_units: u64,
    /// Sum of charged work units over all processes.
    pub work_units_sum: u64,
}

impl StepStats {
    /// `h_i`: the size of the h-relation routed in this superstep — the
    /// largest number of packets sent or received by any processor.
    #[inline]
    pub fn h(&self) -> u64 {
        self.max_sent.max(self.max_recv)
    }

    /// Byte-lane h-relation in bytes: the largest number of lane bytes sent
    /// or received by any processor. The paper defines `h` in packets; for
    /// variable-length messages the natural unit is bytes, and the cost
    /// model charges `g` per [`crate::packet::PACKET_SIZE`]-byte
    /// packet-equivalent (`h_bytes / 16`, rounded up).
    #[inline]
    pub fn h_bytes(&self) -> u64 {
        self.max_sent_bytes.max(self.max_recv_bytes)
    }
}

/// Statistics for a complete BSP program run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Number of processes.
    pub nprocs: usize,
    /// One entry per superstep, in order.
    pub steps: Vec<StepStats>,
    /// Per-process totals of local computation (for total-work accounting).
    pub per_proc_compute: Vec<Duration>,
    /// Per-process totals of time parked in superstep boundaries
    /// (rendezvous + flush + drain), excluded from `per_proc_compute`.
    pub per_proc_sync_wait: Vec<Duration>,
    /// Per-process totals of charged work units.
    pub per_proc_work_units: Vec<u64>,
    /// Per-process transport hot-path counters (empty for hand-built stats).
    pub transport: Vec<TransportCounters>,
    /// Packets sent after the last `sync` of the program. They can never be
    /// delivered (there is no further superstep boundary); a non-zero count
    /// is a program bug that release builds previously lost silently.
    pub undelivered_pkts: u64,
    /// Byte-lane bytes sent after the last `sync` (same failure mode as
    /// `undelivered_pkts`, on the variable-length lane).
    pub undelivered_bytes: u64,
    /// Structured diagnostics from the BSP checker (see [`crate::check`]).
    /// Undelivered-send reports are filed on every run; the full set of
    /// checks runs under [`crate::Config::checked`]. Empty means clean.
    pub check_reports: Vec<CheckReport>,
    /// Fault-injection and recovery totals, merged over all processes and
    /// all rollback incarnations (see [`crate::fault`]). All-zero unless a
    /// [`crate::FaultPlan`] or [`crate::FaultTolerance`] was configured.
    pub faults: crate::fault::FaultCounters,
    /// Launch overhead: time from job admission until the *last* process
    /// slot started executing the user function — worker wake-up (or
    /// spawn, on the cold path) plus transport lease or construction. Kept
    /// out of the per-superstep compute columns so cost-model validation
    /// (`T = W + gH + LS`) no longer absorbs launch cost into superstep 0.
    /// Zero for hand-built stats.
    pub setup: Duration,
    /// Teardown overhead: time from the last process slot finishing
    /// `finalize` until the run's results were collected and merged.
    /// `wall ≈ setup + compute-and-exchange + teardown`.
    pub teardown: Duration,
    /// Raw per-process checker traces (checked runs only; empty
    /// otherwise). Kept after [`crate::check::analyze`] consumes them so
    /// the static plan analyzer ([`crate::analyze`]) can reconstruct each
    /// process's superstep skeleton.
    pub(crate) proc_traces: Vec<crate::check::ProcTrace>,
    /// Bytes read from spill stores by the streaming layer (tile loads,
    /// ghost rows, bucket reads). Zero for in-core runs.
    pub io_read_bytes: u64,
    /// Bytes written to spill stores by the streaming layer (tile
    /// write-back, spill appends). Zero for in-core runs.
    pub io_write_bytes: u64,
    /// Time the streaming driver spent blocked waiting for the prefetcher
    /// to hand over the next tile. When compute ≥ I/O and the ring is deep
    /// enough this collapses to the first tile's load (see
    /// [`crate::stream`]).
    pub prefetch_wait: Duration,
    /// Tiles executed by the streaming layer. Zero for in-core runs.
    pub tiles: u64,
    /// Executor pool health at job completion (live workers, respawns,
    /// quarantined slots; see [`crate::exec::PoolHealth`]). Default for
    /// unpooled and hand-built stats.
    pub pool: crate::exec::PoolHealth,
    /// Time the job spent queued before admission (submit → coordinator
    /// pickup). Zero outside `submit`.
    pub queue_wait: Duration,
}

impl RunStats {
    /// `S`: the number of supersteps (sync calls; the final partial superstep
    /// after the last sync is also counted, matching the paper's convention
    /// that a 1-processor run of a communication-free program has `S ≥ 1`).
    pub fn s(&self) -> u64 {
        self.steps.len() as u64
    }

    /// `H = Σ h_i`.
    pub fn h_total(&self) -> u64 {
        self.steps.iter().map(|s| s.h()).sum()
    }

    /// Byte-lane `H` in bytes: `Σ h_bytes_i`.
    pub fn h_bytes_total(&self) -> u64 {
        self.steps.iter().map(|s| s.h_bytes()).sum()
    }

    /// Total byte-lane bytes routed over the whole run.
    pub fn total_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.total_bytes).sum()
    }

    /// `W = Σ w_i` — the work depth, as wall-clock time.
    pub fn w_total(&self) -> Duration {
        self.steps.iter().map(|s| s.w).sum()
    }

    /// Work depth in charged work units (deterministic).
    pub fn w_units_total(&self) -> u64 {
        self.steps.iter().map(|s| s.w_units).sum()
    }

    /// Total work: local computation summed over all processors. Excludes
    /// idle time from load imbalance and all communication time.
    pub fn total_work(&self) -> Duration {
        self.per_proc_compute.iter().sum()
    }

    /// Total charged work units over all processors.
    pub fn total_work_units(&self) -> u64 {
        self.per_proc_work_units.iter().sum()
    }

    /// Total time parked in superstep boundaries over all processors, in
    /// milliseconds: the observable cost relaxed synchronization removes.
    pub fn sync_wait_ms(&self) -> f64 {
        self.per_proc_sync_wait
            .iter()
            .sum::<Duration>()
            .as_secs_f64()
            * 1e3
    }

    /// Largest per-process boundary-wait total, in milliseconds (the
    /// critical-path analogue of [`RunStats::sync_wait_ms`]).
    pub fn max_sync_wait_ms(&self) -> f64 {
        self.per_proc_sync_wait
            .iter()
            .max()
            .copied()
            .unwrap_or(Duration::ZERO)
            .as_secs_f64()
            * 1e3
    }

    /// Total packets routed over the whole run.
    pub fn total_pkts(&self) -> u64 {
        self.steps.iter().map(|s| s.total_pkts).sum()
    }

    /// Sum of the per-process transport counters.
    pub fn transport_total(&self) -> TransportCounters {
        let mut t = TransportCounters::default();
        for c in &self.transport {
            t.add(c);
        }
        t
    }

    /// Merge per-process superstep logs into a `RunStats`.
    ///
    /// Panics if the processes did not all execute the same number of
    /// supersteps — a BSP program that violates superstep alignment is
    /// incorrect, and with a barrier-based backend would have deadlocked.
    pub fn merge(nprocs: usize, logs: Vec<Vec<LocalStep>>) -> RunStats {
        assert_eq!(logs.len(), nprocs);
        let nsteps = logs[0].len();
        for (pid, log) in logs.iter().enumerate() {
            assert_eq!(
                log.len(),
                nsteps,
                "BSP superstep misalignment: proc 0 ran {} supersteps but proc {} ran {}",
                nsteps,
                pid,
                log.len()
            );
        }
        Self::merge_unchecked(nprocs, logs)
    }

    /// Merge per-process superstep logs without the alignment panic: shorter
    /// logs are padded with empty supersteps. Used by checked runs, where a
    /// superstep misalignment is reported as a structured
    /// [`crate::check::CheckKind::SuperstepMismatch`] diagnostic instead of
    /// aborting the statistics merge.
    pub fn merge_lenient(nprocs: usize, mut logs: Vec<Vec<LocalStep>>) -> RunStats {
        assert_eq!(logs.len(), nprocs);
        let nsteps = logs.iter().map(Vec::len).max().unwrap_or(0);
        for log in &mut logs {
            log.resize(nsteps, LocalStep::default());
        }
        Self::merge_unchecked(nprocs, logs)
    }

    fn merge_unchecked(nprocs: usize, logs: Vec<Vec<LocalStep>>) -> RunStats {
        let nsteps = logs[0].len();
        let mut steps = vec![StepStats::default(); nsteps];
        let mut per_proc_compute = vec![Duration::ZERO; nprocs];
        let mut per_proc_sync_wait = vec![Duration::ZERO; nprocs];
        let mut per_proc_work_units = vec![0u64; nprocs];
        // The last LocalStep is the partial superstep after the final sync:
        // packets recorded as sent there have no delivery boundary left.
        let mut undelivered_pkts = 0u64;
        let mut undelivered_bytes = 0u64;
        for (pid, log) in logs.iter().enumerate() {
            if let Some(last) = log.last() {
                undelivered_pkts += last.sent;
                undelivered_bytes += last.sent_bytes;
            }
            for (i, ls) in log.iter().enumerate() {
                let st = &mut steps[i];
                st.max_sent = st.max_sent.max(ls.sent);
                st.max_recv = st.max_recv.max(ls.recv);
                st.total_pkts += ls.sent;
                st.max_sent_bytes = st.max_sent_bytes.max(ls.sent_bytes);
                st.max_recv_bytes = st.max_recv_bytes.max(ls.recv_bytes);
                st.total_bytes += ls.sent_bytes;
                st.w = st.w.max(ls.compute);
                st.work_sum += ls.compute;
                st.w_units = st.w_units.max(ls.work_units);
                st.work_units_sum += ls.work_units;
                per_proc_compute[pid] += ls.compute;
                per_proc_sync_wait[pid] += ls.sync_wait;
                per_proc_work_units[pid] += ls.work_units;
            }
        }
        RunStats {
            nprocs,
            steps,
            per_proc_compute,
            per_proc_sync_wait,
            per_proc_work_units,
            transport: Vec::new(),
            undelivered_pkts,
            undelivered_bytes,
            check_reports: Vec::new(),
            faults: crate::fault::FaultCounters::default(),
            setup: Duration::ZERO,
            teardown: Duration::ZERO,
            proc_traces: Vec::new(),
            io_read_bytes: 0,
            io_write_bytes: 0,
            prefetch_wait: Duration::ZERO,
            tiles: 0,
            pool: crate::exec::PoolHealth::default(),
            queue_wait: Duration::ZERO,
        }
    }

    /// Prefetch-stall time in milliseconds (see [`RunStats::prefetch_wait`]).
    pub fn prefetch_wait_ms(&self) -> f64 {
        self.prefetch_wait.as_secs_f64() * 1e3
    }

    /// Fold the stats of one tile's run into a streaming aggregate:
    /// supersteps are concatenated, per-process totals and transport
    /// counters are summed element-wise, diagnostics and fault counters
    /// accumulate, and `tiles` advances by one. The I/O and prefetch
    /// fields are owned by the streaming driver, which stamps them after
    /// the pipeline drains (see [`crate::stream`]).
    pub fn absorb_tile(&mut self, tile: &RunStats) {
        if self.per_proc_compute.is_empty() {
            self.nprocs = tile.nprocs;
            self.per_proc_compute = vec![Duration::ZERO; tile.nprocs];
            self.per_proc_sync_wait = vec![Duration::ZERO; tile.nprocs];
            self.per_proc_work_units = vec![0; tile.nprocs];
            self.transport = vec![TransportCounters::default(); tile.nprocs];
        }
        debug_assert_eq!(self.nprocs, tile.nprocs, "tile ran at a different p");
        self.steps.extend_from_slice(&tile.steps);
        for (pid, d) in tile.per_proc_compute.iter().enumerate() {
            self.per_proc_compute[pid] += *d;
        }
        for (pid, d) in tile.per_proc_sync_wait.iter().enumerate() {
            self.per_proc_sync_wait[pid] += *d;
        }
        for (pid, u) in tile.per_proc_work_units.iter().enumerate() {
            self.per_proc_work_units[pid] += *u;
        }
        for (pid, t) in tile.transport.iter().enumerate() {
            self.transport[pid].add(t);
        }
        self.undelivered_pkts += tile.undelivered_pkts;
        self.undelivered_bytes += tile.undelivered_bytes;
        self.check_reports.extend_from_slice(&tile.check_reports);
        self.faults.add(&tile.faults);
        self.setup += tile.setup;
        self.teardown += tile.teardown;
        self.tiles += 1;
    }

    /// Launch overhead in milliseconds (see [`RunStats::setup`]).
    pub fn setup_ms(&self) -> f64 {
        self.setup.as_secs_f64() * 1e3
    }

    /// Teardown overhead in milliseconds (see [`RunStats::teardown`]).
    pub fn teardown_ms(&self) -> f64 {
        self.teardown.as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls(sent: u64, recv: u64, ms: u64, wu: u64) -> LocalStep {
        LocalStep {
            sent,
            recv,
            compute: Duration::from_millis(ms),
            work_units: wu,
            ..LocalStep::default()
        }
    }

    #[test]
    fn byte_lane_h_merges_like_packets() {
        let bl = |sent_bytes: u64, recv_bytes: u64| LocalStep {
            sent_bytes,
            recv_bytes,
            ..LocalStep::default()
        };
        let logs = vec![vec![bl(100, 40), bl(0, 0)], vec![bl(30, 90), bl(8, 0)]];
        let rs = RunStats::merge(2, logs);
        // step 0: max_sent_bytes 100, max_recv_bytes 90 -> h_bytes = 100;
        // step 1: max_sent_bytes 8 -> h_bytes = 8.
        assert_eq!(rs.steps[0].h_bytes(), 100);
        assert_eq!(rs.h_bytes_total(), 108);
        assert_eq!(rs.total_bytes(), 138);
        // Bytes staged in the final partial superstep can never arrive.
        assert_eq!(rs.undelivered_bytes, 8);
        assert_eq!(rs.h_total(), 0, "byte lane does not inflate packet h");
    }

    #[test]
    fn h_is_max_of_sent_or_received() {
        let st = StepStats {
            max_sent: 3,
            max_recv: 7,
            ..Default::default()
        };
        assert_eq!(st.h(), 7);
    }

    #[test]
    fn merge_computes_paper_quantities() {
        // 2 procs, 2 supersteps.
        let logs = vec![
            vec![ls(5, 0, 10, 100), ls(0, 3, 30, 300)],
            vec![ls(2, 4, 20, 200), ls(1, 0, 5, 50)],
        ];
        let rs = RunStats::merge(2, logs);
        assert_eq!(rs.s(), 2);
        // step 0: max_sent 5, max_recv 4 -> h=5; step 1: max_sent 1, max_recv 3 -> h=3
        assert_eq!(rs.h_total(), 8);
        // w: step0 max(10,20)=20ms, step1 max(30,5)=30ms
        assert_eq!(rs.w_total(), Duration::from_millis(50));
        // total work = 10+30+20+5 = 65ms
        assert_eq!(rs.total_work(), Duration::from_millis(65));
        assert_eq!(rs.w_units_total(), 200 + 300);
        assert_eq!(rs.total_work_units(), 650);
        assert_eq!(rs.total_pkts(), 5 + 2 + 1);
    }

    #[test]
    #[should_panic(expected = "misalignment")]
    fn merge_detects_misalignment() {
        let logs = vec![vec![ls(0, 0, 1, 0)], vec![]];
        RunStats::merge(2, logs);
    }

    #[test]
    fn merge_lenient_pads_misaligned_logs() {
        let logs = vec![vec![ls(5, 0, 1, 0), ls(0, 5, 1, 0)], vec![ls(5, 5, 1, 0)]];
        let rs = RunStats::merge_lenient(2, logs);
        assert_eq!(rs.s(), 2);
        assert_eq!(rs.steps[0].max_sent, 5);
        assert_eq!(rs.steps[1].max_recv, 5);
    }

    #[test]
    fn sync_wait_is_split_out_of_compute() {
        let a = LocalStep {
            compute: Duration::from_millis(10),
            sync_wait: Duration::from_millis(4),
            ..LocalStep::default()
        };
        let b = LocalStep {
            sync_wait: Duration::from_millis(1),
            ..LocalStep::default()
        };
        let rs = RunStats::merge(2, vec![vec![a], vec![b]]);
        assert_eq!(rs.per_proc_sync_wait[0], Duration::from_millis(4));
        assert!((rs.sync_wait_ms() - 5.0).abs() < 1e-9);
        assert!((rs.max_sync_wait_ms() - 4.0).abs() < 1e-9);
        // Boundary time never leaks into the work accounting.
        assert_eq!(rs.total_work(), Duration::from_millis(10));
    }

    #[test]
    fn empty_run() {
        let rs = RunStats::merge(1, vec![vec![]]);
        assert_eq!(rs.s(), 0);
        assert_eq!(rs.h_total(), 0);
        assert_eq!(rs.total_work(), Duration::ZERO);
    }
}

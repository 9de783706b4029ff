//! Cost-model-driven autotuning: close the predict→schedule loop.
//!
//! The paper's central claim is that `T = W + g·H + L·S` is accurate enough
//! to *program against*. This module acts on that claim: it takes a job's
//! communication profile ([`HProfile`] — extracted from a prior
//! [`RunStats`], from a [`crate::analyze::PlanReport`] skeleton, or built by
//! hand), prices every candidate configuration in a feasibility-pruned grid
//! (backend × p × hardening × sync mode) with *measured* `g`/`L` from
//! [`crate::cost::calibrate_at`], and selects the argmin
//! ([`TunePlan::chosen`]). A caller runs the choice by building its
//! [`crate::Config`] from the chosen candidate, and may score the
//! prediction against the measured wall clock ([`record_outcome`] /
//! [`error_summary`] — the paper's §4 predictive-accuracy question asked of
//! our own tuner).

use crate::backend::BackendKind;
use crate::cost::{self, Calibration};
use crate::stats::RunStats;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Bandwidth penalty applied to hardened (checksummed, self-healing)
/// transport stacks: every packet is touched again to checksum and verify
/// it, and the guarded exchange adds a confirmation round. Measured on the
/// shared backend the overhead sits near 30%; a static factor keeps the
/// grid cheap to price.
pub const HARDENED_G_FACTOR: f64 = 1.3;

/// The byte-lane packet equivalence used across the crate: one 16-byte
/// packet slot per started 16 bytes (see `crate::packet::PACKET_SIZE`).
const PACKET_BYTES: u64 = 16;

// ---------------------------------------------------------------- profile

/// The algorithmic shape of a job at one processor count — everything the
/// cost function needs that is a property of the *program* rather than the
/// machine. Obtain one from a previous run ([`HProfile::from_stats`]), from
/// the plan analyzer's recorded skeleton ([`HProfile::from_plan`]), or
/// construct it from an analytical model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HProfile {
    /// `S`: supersteps.
    pub s: u64,
    /// `H`: summed packet-lane h-relations.
    pub h_total: u64,
    /// Byte-lane `H` in bytes (charged as `ceil(bytes/16)` packet
    /// equivalents).
    pub h_bytes_total: u64,
    /// `W`: work depth in seconds (max per-process compute, summed over
    /// supersteps) — what a parallel backend pays.
    pub w_secs: f64,
    /// Total work in seconds (compute summed over *all* processes) — what
    /// the baton-serialized seqsim backend pays.
    pub total_w_secs: f64,
    /// Boundaries the program closes with a neighborhood barrier
    /// (`sync_neigh`). Priced at `L_neigh` when the candidate keeps
    /// relaxed synchronization, at full `L` otherwise.
    pub neigh_boundaries: u64,
    /// Boundaries the program splits (`sync_begin`/`sync_end` with useful
    /// work between them), earning the overlap credit.
    pub split_boundaries: u64,
    /// Maximum degree of the sync graph the neighborhood boundaries run
    /// on; used to derive `L_neigh` from `L`. Irrelevant when
    /// `neigh_boundaries == 0`.
    pub neigh_degree: usize,
    /// Bytes the job reads from spill stores ([`crate::stream`]); adds the
    /// streaming stall term `max(0, io_time − compute_overlap)`.
    pub io_read_bytes: u64,
}

impl HProfile {
    /// Extract the profile from a measured run. Boundary kinds are not
    /// recorded in plain `RunStats`, so neighborhood/split counts start at
    /// zero — use [`HProfile::from_plan`] (or the builders below) when the
    /// program uses relaxed synchronization.
    pub fn from_stats(stats: &RunStats) -> HProfile {
        HProfile {
            s: stats.s(),
            h_total: stats.h_total(),
            h_bytes_total: stats.h_bytes_total(),
            w_secs: stats.w_total().as_secs_f64(),
            total_w_secs: stats.total_work().as_secs_f64(),
            neigh_boundaries: 0,
            split_boundaries: 0,
            neigh_degree: 0,
            io_read_bytes: stats.io_read_bytes,
        }
    }

    /// Extract the profile from the plan analyzer's recorded skeleton,
    /// including boundary kinds. The analyzer replays under seqsim, which
    /// serializes all processes onto one worker; its per-step `w` is the
    /// step's work depth, and total work is estimated as `w × p` (exact
    /// for balanced programs, an upper bound otherwise).
    pub fn from_plan(plan: &crate::analyze::PlanReport) -> HProfile {
        let w_secs: f64 = plan.steps.iter().map(|s| s.w.as_secs_f64()).sum();
        HProfile {
            s: plan.steps.len() as u64,
            h_total: plan.steps.iter().map(|s| s.h).sum(),
            h_bytes_total: plan.steps.iter().map(|s| s.h_bytes).sum(),
            w_secs,
            total_w_secs: w_secs * plan.nprocs as f64,
            neigh_boundaries: plan.boundaries.iter().filter(|b| b.neigh).count() as u64,
            split_boundaries: plan.boundaries.iter().filter(|b| b.split).count() as u64,
            neigh_degree: 0,
            io_read_bytes: 0,
        }
    }

    /// Set the sync-graph degree used to price neighborhood boundaries.
    pub fn with_degree(mut self, degree: usize) -> HProfile {
        self.neigh_degree = degree;
        self
    }

    /// Set the spill-store read volume for streaming jobs.
    pub fn with_io_read(mut self, bytes: u64) -> HProfile {
        self.io_read_bytes = bytes;
        self
    }
}

// ------------------------------------------------------------- candidates

/// One priced point of the configuration grid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// Library implementation.
    pub backend: BackendKind,
    /// Processor count.
    pub nprocs: usize,
    /// Whether the transport stack is hardened (`Config::hardened`).
    pub hardened: bool,
    /// Whether neighborhood boundaries keep their relaxed pricing (the
    /// caller must attach the sync graph; a hardened stack gates
    /// neighborhood barriers back to full ones, so `hardened && relaxed`
    /// is never generated).
    pub relaxed: bool,
    /// The cost model's `T` for this candidate, in seconds.
    pub predicted_secs: f64,
}

/// Grid axes and feasibility limits for [`plan`].
#[derive(Clone, Debug)]
pub struct TuneOpts {
    /// Backends to price.
    pub backends: Vec<BackendKind>,
    /// Widest rendezvous slice the pool can admit: candidates with
    /// `nprocs` above this are pruned — a `p`-wide job needs `p` parked
    /// workers at once, and planning wider than the pool guarantees a
    /// queue stall (or, worse, permanent starvation on a saturated pool).
    pub max_procs: usize,
    /// Include hardened-transport variants in the grid.
    pub try_hardened: bool,
    /// Include relaxed-synchronization variants (only meaningful when the
    /// profile records neighborhood boundaries, and only chosen if the
    /// caller will attach the sync graph to the built config).
    pub try_relaxed: bool,
}

impl Default for TuneOpts {
    fn default() -> Self {
        TuneOpts {
            backends: vec![
                BackendKind::Shared,
                BackendKind::MsgPass,
                BackendKind::SeqSim,
            ],
            max_procs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            try_hardened: false,
            try_relaxed: false,
        }
    }
}

/// The priced grid: every feasible candidate, cheapest first.
#[derive(Clone, Debug)]
pub struct TunePlan {
    /// Feasible candidates sorted ascending by predicted `T`.
    pub candidates: Vec<Candidate>,
}

impl TunePlan {
    /// The argmin candidate.
    ///
    /// Panics if the grid was empty (no feasible candidate) — [`plan`]
    /// never returns such a plan.
    pub fn chosen(&self) -> &Candidate {
        &self.candidates[0]
    }

    /// The chosen candidate's predicted wall time.
    pub fn predicted(&self) -> Duration {
        Duration::from_secs_f64(self.chosen().predicted_secs.max(0.0))
    }
}

/// Price the feasible grid for a job profiled at each candidate processor
/// count, returning the candidates sorted cheapest-first.
///
/// `profiles` maps `p → HProfile` — the profile is per-`p` because the
/// h-relations and the work split both change with the processor count.
/// Every `(backend, p)` point uses measured parameters from
/// [`cost::calibrate_at`] (disk-cached across processes). Feasibility
/// pruning: candidates wider than `opts.max_procs` never enter the grid;
/// `hardened && relaxed` is contradictory (hardening gates neighborhood
/// barriers back to full ones) and is never generated; relaxed variants
/// require the profile to actually record neighborhood boundaries.
///
/// Panics if the pruned grid is empty (e.g. `profiles` empty or every `p`
/// above `max_procs`).
pub fn plan(profiles: &[(usize, HProfile)], opts: &TuneOpts) -> TunePlan {
    let mut candidates = Vec::new();
    for &backend in &opts.backends {
        for &(nprocs, ref prof) in profiles {
            if nprocs == 0 || nprocs > opts.max_procs {
                continue;
            }
            let mut modes = vec![(false, false)];
            if opts.try_hardened {
                modes.push((true, false));
            }
            if opts.try_relaxed && prof.neigh_boundaries > 0 {
                modes.push((false, true));
            }
            for (hardened, relaxed) in modes {
                let cal = cost::calibrate_at(backend, nprocs);
                let predicted_secs =
                    predict_with(&cal, backend, hardened, relaxed, prof, host_cores());
                candidates.push(Candidate {
                    backend,
                    nprocs,
                    hardened,
                    relaxed,
                    predicted_secs,
                });
            }
        }
    }
    assert!(
        !candidates.is_empty(),
        "tune::plan: no feasible candidate (profiles empty or all wider than max_procs={})",
        opts.max_procs
    );
    candidates.sort_by(|a, b| a.predicted_secs.total_cmp(&b.predicted_secs));
    TunePlan { candidates }
}

/// The host's physical parallelism — the number of cores the backends can
/// actually spread a rendezvous slice across.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The cost function for one candidate, with explicit calibration — the
/// pure core of [`plan`], also used by tests that inject synthetic `g`/`L`.
///
/// `T = W + g·(H + ⌈H_bytes/16⌉) + Σ L_i + stall` where each boundary `i`
/// is priced at full `L`, at `L_neigh` (neighborhood boundary on a live
/// relaxed stack), or with the split-phase overlap credit
/// `max(0, L − w̄)`; `stall = max(0, io_read/bw − W)` is the streaming
/// prefetch stall. Seqsim pays total work instead of work depth (its baton
/// serializes every process onto one lane).
///
/// The `W` term of Equation (1) assumes `p` *dedicated* processors. Our
/// backends multiplex `p` virtual processors onto `host_cores` OS threads,
/// so compute time is bounded below by both the work depth and
/// `total_work / min(host_cores, p)` — on an oversubscribed host (the
/// CI's 1-core container is the extreme case) a "parallel" run pays its
/// total work serialized, and the tuner must know that or it will chase
/// speedups the machine cannot deliver.
pub fn predict_with(
    cal: &Calibration,
    backend: BackendKind,
    hardened: bool,
    relaxed: bool,
    prof: &HProfile,
    host_cores: usize,
) -> f64 {
    let work = if matches!(backend, BackendKind::SeqSim) {
        prof.total_w_secs
    } else {
        let eff_cores = host_cores.clamp(1, cal.nprocs.max(1));
        prof.w_secs.max(prof.total_w_secs / eff_cores as f64)
    };
    let pkt_equiv = prof.h_total + prof.h_bytes_total.div_ceil(PACKET_BYTES);
    let g_eff = cal.g_us * if hardened { HARDENED_G_FACTOR } else { 1.0 };
    let bandwidth = g_eff * 1e-6 * pkt_equiv as f64;
    // Boundary pricing. A hardened stack gates neighborhood barriers back
    // to full ones, so neigh boundaries only earn L_neigh on a live
    // relaxed stack.
    let neigh = if relaxed && !hardened {
        prof.neigh_boundaries.min(prof.s)
    } else {
        0
    };
    let split = prof.split_boundaries.min(prof.s - neigh.min(prof.s));
    let full = prof.s - neigh - split;
    let avg_w_us = if prof.s > 0 {
        work / prof.s as f64 * 1e6
    } else {
        0.0
    };
    let l_neigh = cost::l_neigh_us(cal.l_us, prof.neigh_degree, cal.nprocs);
    let split_l = (cal.l_us - avg_w_us).max(0.0);
    let latency_us = cal.l_us * full as f64 + l_neigh * neigh as f64 + split_l * split as f64;
    let latency = latency_us * 1e-6;
    let stall = if prof.io_read_bytes > 0 {
        (prof.io_read_bytes as f64 / read_bandwidth() - work).max(0.0)
    } else {
        0.0
    };
    work + bandwidth + latency + stall
}

// ----------------------------------------------------- I/O calibration

/// Measured [`crate::stream::TileStore`] read bandwidth in bytes/second,
/// probed once per process (write 4 MiB to a temp-dir store, read it back
/// timed). **Caveat:** the read-back almost always hits the OS page cache,
/// so this is a cache-bandwidth figure — an upper bound on cold-store
/// bandwidth. It still ranks candidates correctly for the warm tile ring
/// a streamed pass's reader actually refills; treat absolute streaming
/// predictions for cold data with suspicion (DESIGN.md §16). Falls back to
/// 1 GB/s if the probe cannot run (unwritable temp dir).
pub fn read_bandwidth() -> f64 {
    static BW: OnceLock<f64> = OnceLock::new();
    *BW.get_or_init(|| probe_read_bandwidth().unwrap_or(1e9))
}

fn probe_read_bandwidth() -> Option<f64> {
    use crate::stream::TileStore;
    const PROBE_BYTES: usize = 4 << 20;
    let dir = std::env::temp_dir();
    let name = format!("green-bsp-io-probe-{}.bin", std::process::id());
    let store = TileStore::create_in(&dir, &name).ok()?;
    let data = vec![0xA5u8; PROBE_BYTES];
    store.write_all(&data).ok()?;
    let mut buf = vec![0u8; PROBE_BYTES];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        store.read_at(0, &mut buf).ok()?;
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_file(store.path());
    if best > 0.0 && best.is_finite() {
        Some(PROBE_BYTES as f64 / best)
    } else {
        None
    }
}

// -------------------------------------------------- prediction scoring

/// One backend's accumulated prediction-error digest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorStat {
    /// Backend name (`"shared"`, `"msgpass"`, `"tcpsim"`, `"seqsim"`,
    /// `"netsim"`).
    pub backend: &'static str,
    /// Scored runs.
    pub count: usize,
    /// Median of `|wall − predicted| / wall` over those runs.
    pub median_rel_err: f64,
}

fn outcomes() -> &'static Mutex<Vec<(u8, f64)>> {
    static OUTCOMES: OnceLock<Mutex<Vec<(u8, f64)>>> = OnceLock::new();
    OUTCOMES.get_or_init(|| Mutex::new(Vec::new()))
}

fn backend_slot(backend: BackendKind) -> u8 {
    match backend {
        BackendKind::Shared => 0,
        BackendKind::MsgPass => 1,
        BackendKind::TcpSim => 2,
        BackendKind::SeqSim => 3,
        BackendKind::NetSim(_) => 4,
    }
}

fn slot_name(slot: u8) -> &'static str {
    match slot {
        0 => "shared",
        1 => "msgpass",
        2 => "tcpsim",
        3 => "seqsim",
        _ => "netsim",
    }
}

/// Score one completed planned run: accumulate the relative error of its
/// prediction into the process-wide histogram. Harnesses call it with each
/// run they measure (`report autotune`).
pub fn record_outcome(backend: BackendKind, predicted: Duration, wall: Duration) {
    let w = wall.as_secs_f64();
    if w <= 0.0 {
        return;
    }
    let rel = (w - predicted.as_secs_f64()).abs() / w;
    outcomes()
        .lock()
        .unwrap()
        .push((backend_slot(backend), rel));
}

/// Per-backend digest of every prediction scored so far in this process
/// (the first-class prediction-error metric of DESIGN.md §16). Backends
/// with no scored runs are omitted.
pub fn error_summary() -> Vec<ErrorStat> {
    let all = outcomes().lock().unwrap();
    let mut by_slot: [Vec<f64>; 5] = Default::default();
    for &(slot, rel) in all.iter() {
        by_slot[slot as usize].push(rel);
    }
    let mut out = Vec::new();
    for (slot, mut errs) in by_slot.into_iter().enumerate() {
        if errs.is_empty() {
            continue;
        }
        errs.sort_by(f64::total_cmp);
        out.push(ErrorStat {
            backend: slot_name(slot as u8),
            count: errs.len(),
            median_rel_err: errs[errs.len() / 2],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal(nprocs: usize, g_us: f64, l_us: f64) -> Calibration {
        Calibration { nprocs, g_us, l_us }
    }

    fn profile() -> HProfile {
        HProfile {
            s: 10,
            h_total: 1_000,
            h_bytes_total: 160,
            w_secs: 0.010,
            total_w_secs: 0.040,
            neigh_boundaries: 0,
            split_boundaries: 0,
            neigh_degree: 0,
            io_read_bytes: 0,
        }
    }

    #[test]
    fn predict_with_matches_the_cost_function_by_hand() {
        let c = cal(4, 1.0, 100.0);
        let t = predict_with(&c, BackendKind::Shared, false, false, &profile(), 8);
        // W + g(H + bytes/16) + LS = 0.010 + 1e-6*(1000+10) + 100e-6*10
        let expect = 0.010 + 1e-6 * 1_010.0 + 100e-6 * 10.0;
        assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
    }

    #[test]
    fn seqsim_pays_total_work_not_depth() {
        let c = cal(4, 1.0, 100.0);
        let par = predict_with(&c, BackendKind::Shared, false, false, &profile(), 8);
        let seq = predict_with(&c, BackendKind::SeqSim, false, false, &profile(), 8);
        assert!(
            seq - par > 0.025,
            "seqsim must be charged the serialized work: {seq} vs {par}"
        );
    }

    #[test]
    fn oversubscribed_host_charges_serialized_work() {
        let c = cal(4, 0.0, 0.0);
        // One core: a "parallel" backend pays the total work serialized.
        let one = predict_with(&c, BackendKind::Shared, false, false, &profile(), 1);
        assert!((one - 0.040).abs() < 1e-12, "{one}");
        // Two cores: total/2 = 0.020 still dominates the 0.010 depth.
        let two = predict_with(&c, BackendKind::Shared, false, false, &profile(), 2);
        assert!((two - 0.020).abs() < 1e-12, "{two}");
        // Enough cores: the work depth is achievable.
        let four = predict_with(&c, BackendKind::Shared, false, false, &profile(), 4);
        assert!((four - 0.010).abs() < 1e-12, "{four}");
    }

    #[test]
    fn hardening_inflates_bandwidth_only() {
        let c = cal(4, 10.0, 100.0);
        let plainc = predict_with(&c, BackendKind::Shared, false, false, &profile(), 8);
        let hard = predict_with(&c, BackendKind::Shared, true, false, &profile(), 8);
        let gh = 10.0e-6 * 1_010.0;
        assert!((hard - plainc - gh * (HARDENED_G_FACTOR - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn relaxed_neighborhood_boundaries_cost_less() {
        let mut p = profile();
        p.neigh_boundaries = 8;
        p.neigh_degree = 1;
        let c = cal(8, 1.0, 100.0);
        let full = predict_with(&c, BackendKind::Shared, false, false, &p, 8);
        let relaxed = predict_with(&c, BackendKind::Shared, false, true, &p, 8);
        assert!(relaxed < full, "{relaxed} vs {full}");
        // A hardened stack gates neighborhood barriers back to full ones.
        let hard_relaxed = predict_with(&c, BackendKind::Shared, true, true, &p, 8);
        let hard_full = predict_with(&c, BackendKind::Shared, true, false, &p, 8);
        assert!((hard_relaxed - hard_full).abs() < 1e-15);
    }

    #[test]
    fn split_boundaries_earn_the_overlap_credit() {
        let mut p = profile();
        p.split_boundaries = 10;
        p.w_secs = 10.0; // 1s of work per step dwarfs L = 100µs
        let c = cal(4, 1.0, 100.0);
        let t = predict_with(&c, BackendKind::Shared, false, false, &p, 8);
        // Fully overlapped: latency collapses to ~0 (only gH remains).
        assert!(t < 10.0 + 2e-3, "{t}");
    }

    #[test]
    fn streaming_stall_term_kicks_in_for_io_heavy_profiles() {
        let mut p = profile();
        p.w_secs = 0.0;
        p.total_w_secs = 0.0;
        p.io_read_bytes = 1 << 30;
        let c = cal(4, 0.0, 0.0);
        let t = predict_with(&c, BackendKind::Shared, false, false, &p, 8);
        let expect = (1u64 << 30) as f64 / read_bandwidth();
        assert!(
            (t - expect).abs() < expect * 1e-9 + 1e-12,
            "{t} vs {expect}"
        );
    }

    #[test]
    fn plan_prunes_infeasible_widths_and_sorts_by_cost() {
        let profiles = vec![(2, profile()), (8, profile())];
        let opts = TuneOpts {
            backends: vec![BackendKind::SeqSim, BackendKind::Shared],
            max_procs: 2,
            try_hardened: true,
            try_relaxed: true,
        };
        let plan = plan(&profiles, &opts);
        assert!(plan.candidates.iter().all(|c| c.nprocs <= 2));
        assert!(plan
            .candidates
            .windows(2)
            .all(|w| w[0].predicted_secs <= w[1].predicted_secs));
        // No relaxed candidates: the profile has no neighborhood boundaries.
        assert!(plan.candidates.iter().all(|c| !c.relaxed));
        assert!(!plan.candidates.iter().any(|c| c.hardened && c.relaxed));
    }

    #[test]
    fn error_summary_reports_median_per_backend() {
        record_outcome(
            BackendKind::TcpSim,
            Duration::from_millis(9),
            Duration::from_millis(10),
        );
        record_outcome(
            BackendKind::TcpSim,
            Duration::from_millis(5),
            Duration::from_millis(10),
        );
        record_outcome(
            BackendKind::TcpSim,
            Duration::from_millis(8),
            Duration::from_millis(10),
        );
        let s = error_summary();
        let tcp = s.iter().find(|e| e.backend == "tcpsim").unwrap();
        assert!(tcp.count >= 3);
        // Median of {0.1, 0.5, 0.2} (possibly with other tests' entries
        // mixed in) is at least bounded by the extremes.
        assert!(tcp.median_rel_err >= 0.0 && tcp.median_rel_err <= 1.0);
    }

    #[test]
    fn from_plan_extracts_boundary_kinds() {
        // Build a tiny relaxed program, lint it, and profile the plan.
        let cfg = crate::runner::Config::new(2).sync_graph(&[(0, 1)]);
        let report = crate::analyze::lint(&cfg, &crate::machine::SGI, |ctx| {
            ctx.sync_neigh();
            ctx.sync();
        })
        .unwrap();
        let prof = HProfile::from_plan(&report).with_degree(1);
        assert_eq!(prof.neigh_boundaries, 1, "{report}");
        assert_eq!(prof.neigh_degree, 1);
        assert!(prof.s >= 2);
    }
}

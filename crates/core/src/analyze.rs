//! Static superstep-plan analysis: find BSP contract violations *before*
//! any parallel run, and predict each superstep's cost from the model.
//!
//! [`lint`] executes the program once on the recording backend — the
//! checked sequential simulator, whose baton discipline tolerates even
//! processes that disagree on how many boundaries to cross (a shape that
//! would deadlock every barrier backend) — and extracts each process's
//! **superstep skeleton**: the ordered list of boundaries it crosses with
//! their declared kinds (full barrier vs neighborhood rendezvous, fused vs
//! split-phase), its per-superstep send volumes per lane, and its
//! checkpoint placements. Cross-process analysis of the
//! skeletons then reports, as ordinary [`CheckReport`] diagnostics:
//!
//! - [`CheckKind::PlanDeadlock`] — processes whose boundary counts or
//!   boundary kinds diverge: on a barrier backend the majority waits at a
//!   boundary the deviant never enters (static deadlock).
//! - [`CheckKind::GraphViolatingSend`] — traffic adjacent to a
//!   neighborhood boundary addressed outside the declared
//!   [`crate::SyncGraph`] (filed by the runtime checker during the
//!   recording run).
//! - [`CheckKind::SplitMisuse`] — sends inside a split window, unpaired
//!   `sync_begin`/`sync_end`, returning mid-window (filed by the checked
//!   [`crate::Ctx`] as the recording run executes).
//! - [`CheckKind::CheckpointInSplit`] — a checkpoint registered between
//!   `sync_begin` and `sync_end`.
//!
//! plus everything else the runtime checker notices (congruence, DRMA
//! conflicts, lane mixing, delivery conservation). The report also carries
//! the paper's per-superstep predicted cost `T_i = w_i + g·h_i + L`
//! (Equation (1), applied superstep by superstep via [`crate::cost`]) for
//! a chosen [`Machine`], so hot supersteps are visible before committing
//! to a parallel run.
//!
//! The recording run uses real data on one OS thread per process with a
//! baton serializing them — program results are bit-identical to a normal
//! run, so the skeleton is the program's true plan for this input, not an
//! abstraction of it. `report lint` in the harness sweeps the six example
//! apps through this analyzer on every backend's configuration.

use crate::backend::BackendKind;
use crate::check::{CheckKind, CheckReport, ProcTrace};
use crate::context::Ctx;
use crate::cost::Prediction;
use crate::fault::BspError;
use crate::machine::Machine;
use crate::runner::{try_run, Config};
use std::fmt;
use std::time::Duration;

/// Consensus description of one superstep boundary (boundary `i` closes
/// superstep `i`). Per-process deviations from the consensus are reported
/// as [`CheckKind::PlanDeadlock`] findings, not represented here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanBoundary {
    /// Boundary index == the superstep it closes.
    pub index: usize,
    /// Neighborhood rendezvous (`sync_neigh`) vs full barrier.
    pub neigh: bool,
    /// At least one process crossed it split-phase
    /// (`sync_begin`/`sync_end`). Mixing split and fused crossings of the
    /// same boundary is legal — a fused sync is a degenerate split window.
    pub split: bool,
}

/// One superstep of the recorded plan, with its cost-model prediction.
#[derive(Clone, Copy, Debug)]
pub struct PlanStep {
    /// Superstep index.
    pub step: usize,
    /// `h_i`: the h-relation this superstep routes (max packets sent or
    /// received by any process).
    pub h: u64,
    /// Byte-lane h-relation in bytes.
    pub h_bytes: u64,
    /// Work depth in charged work units (deterministic).
    pub w_units: u64,
    /// Work depth as measured wall-clock time on the recording run.
    pub w: Duration,
    /// `w_i + g·h_i + L` on the chosen machine.
    pub predicted: Prediction,
}

/// Output of [`lint`]: the consensus plan, per-superstep predictions, and
/// every finding — structured identically to a checked run's
/// [`crate::RunStats::check_reports`], so downstream tooling handles both.
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// Number of BSP processes analyzed.
    pub nprocs: usize,
    /// All findings, ordered by (superstep, proc). Empty ⇒ the plan is
    /// clean.
    pub findings: Vec<CheckReport>,
    /// Consensus boundary skeleton; `boundaries[i]` closes superstep `i`.
    pub boundaries: Vec<PlanBoundary>,
    /// Per-superstep skeleton and predicted cost (includes the final
    /// partial superstep, which no boundary closes).
    pub steps: Vec<PlanStep>,
    /// Whole-program `T` on the chosen machine: the sum of the per-step
    /// predictions, with each boundary priced by kind (full `L`,
    /// neighborhood `L_neigh`, or the split-phase overlap credit) — for an
    /// all-full-barrier program this is exactly `W + gH + LS`.
    pub predicted: Prediction,
}

impl PlanReport {
    /// True when the analyzer found nothing to report.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The findings of one kind (corpus tests and `report lint` filter
    /// with this).
    pub fn of_kind(&self, kind: CheckKind) -> Vec<&CheckReport> {
        self.findings.iter().filter(|r| r.kind == kind).collect()
    }
}

impl fmt::Display for PlanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan: {} proc(s), {} superstep(s), {} boundary crossing(s)",
            self.nprocs,
            self.steps.len(),
            self.boundaries.len()
        )?;
        writeln!(
            f,
            "{:>5}  {:>8}  {:>10}  {:>8}  {:>11}  {:>9}  boundary",
            "step", "h", "h_bytes", "w_units", "T_pred(us)", "comm(us)"
        )?;
        for s in &self.steps {
            let b = match self.boundaries.get(s.step) {
                Some(b) => format!(
                    "{}{}",
                    if b.neigh { "neigh" } else { "full" },
                    if b.split { "+split" } else { "" }
                ),
                None => "(end)".to_string(),
            };
            writeln!(
                f,
                "{:>5}  {:>8}  {:>10}  {:>8}  {:>11.2}  {:>9.2}  {}",
                s.step,
                s.h,
                s.h_bytes,
                s.w_units,
                s.predicted.total() * 1e6,
                s.predicted.comm() * 1e6,
                b
            )?;
        }
        writeln!(
            f,
            "total: T = W + gH + sum(L_b) = {:.2}us (comm {:.2}us)",
            self.predicted.total() * 1e6,
            self.predicted.comm() * 1e6
        )?;
        if self.findings.is_empty() {
            writeln!(f, "findings: none")?;
        } else {
            writeln!(f, "findings: {}", self.findings.len())?;
            for r in &self.findings {
                writeln!(f, "  {}", r)?;
            }
        }
        Ok(())
    }
}

/// Cross-process boundary-skeleton congruence: every process must cross
/// the same number of boundaries, with the same kind at each index. A
/// deviation is a static deadlock on every barrier backend — the majority
/// parks at a boundary the deviant never enters (or enters with a
/// different rendezvous discipline) — so each deviating process gets a
/// [`CheckKind::PlanDeadlock`] finding.
fn check_plan_deadlock(traces: &[ProcTrace], findings: &mut Vec<CheckReport>) {
    if traces.is_empty() {
        return;
    }
    // Reference boundary count by majority, ties toward the smaller count
    // (mirrors the superstep-congruence checker's convention).
    let counts: Vec<usize> = traces.iter().map(|t| t.boundaries.len()).collect();
    let reference = *counts
        .iter()
        .max_by_key(|&&c| (counts.iter().filter(|&&x| x == c).count(), usize::MAX - c))
        .unwrap();
    for (pid, &c) in counts.iter().enumerate() {
        if c != reference {
            findings.push(CheckReport {
                kind: CheckKind::PlanDeadlock,
                pid,
                step: c.min(reference),
                related_step: None,
                detail: format!(
                    "proc {} crosses {} superstep boundary(ies) but the plan \
                     consensus is {}; on a barrier backend the rest of the \
                     machine parks at boundary #{} forever (per-proc counts: \
                     {:?})",
                    pid,
                    c,
                    reference,
                    c.min(reference),
                    counts
                ),
            });
        }
    }
    // Kind congruence per boundary index, over the procs that reach it.
    for i in 0..reference {
        let kinds: Vec<(usize, bool)> = traces
            .iter()
            .enumerate()
            .filter_map(|(pid, t)| t.boundaries.get(i).map(|b| (pid, b.neigh)))
            .collect();
        let neigh_count = kinds.iter().filter(|(_, n)| *n).count();
        if neigh_count == 0 || neigh_count == kinds.len() {
            continue;
        }
        // Blame the minority kind (ties blame the neighborhood side, the
        // weaker discipline).
        let minority_is_neigh = neigh_count * 2 <= kinds.len();
        for &(pid, n) in kinds.iter().filter(|(_, n)| *n == minority_is_neigh) {
            let (mine, theirs) = if n {
                ("a neighborhood rendezvous", "a full barrier")
            } else {
                ("a full barrier", "a neighborhood rendezvous")
            };
            findings.push(CheckReport {
                kind: CheckKind::PlanDeadlock,
                pid,
                step: i,
                related_step: None,
                detail: format!(
                    "boundary #{}: proc {} crosses {} but the plan consensus \
                     is {}; the two disciplines never meet, so both sides can \
                     park forever on a relaxed backend",
                    i, pid, mine, theirs
                ),
            });
        }
    }
}

/// Consensus boundary skeleton: kind by majority at each index, split if
/// any process crossed split-phase.
fn consensus_boundaries(traces: &[ProcTrace]) -> Vec<PlanBoundary> {
    let n = traces.iter().map(|t| t.boundaries.len()).max().unwrap_or(0);
    (0..n)
        .map(|i| {
            let at: Vec<_> = traces.iter().filter_map(|t| t.boundaries.get(i)).collect();
            let neigh = at.iter().filter(|b| b.neigh).count() * 2 > at.len();
            let split = at.iter().any(|b| b.split);
            PlanBoundary {
                index: i,
                neigh,
                split,
            }
        })
        .collect()
}

/// Run `f` once on the recording backend and statically analyze its
/// superstep plan. `cfg` supplies the process count, sync graph, and
/// checkpoint policy; its backend choice is ignored (the recorder always
/// uses the checked sequential simulator) and fault injection is
/// disabled — the plan describes the program, not the fault model.
/// `machine` selects the `(g, L)` table for the cost predictions.
///
/// `Err` is returned only when a process panics with a genuine
/// application error; contract violations do *not* abort the recording —
/// they degrade gracefully under the checker and surface as findings.
pub fn lint<F, R>(cfg: &Config, machine: &Machine, f: F) -> Result<PlanReport, BspError>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    let mut rcfg = cfg.clone();
    rcfg.backend = BackendKind::SeqSim;
    rcfg.check = true;
    rcfg.fault_plan = None;
    let out = try_run(&rcfg, f)?;
    let stats = out.stats;

    let mut findings = stats.check_reports.clone();
    check_plan_deadlock(&stats.proc_traces, &mut findings);
    findings.sort_by_key(|a| (a.step, a.pid));

    let boundaries = consensus_boundaries(&stats.proc_traces);

    // Boundary-kind-aware pricing, matching the tuner (`crate::tune`):
    // a neighborhood boundary costs `L_neigh` (derived from `L`, the sync
    // graph's degree, and `p` — see `crate::cost::l_neigh_us`), a
    // split-phase boundary earns the overlap credit (the window's work
    // hides up to `L` of latency), and full barriers — including the
    // final partial superstep, by the paper's `S ≥ 1` convention — cost
    // full `L`. The byte lane is charged at `⌈h_bytes/16⌉` packet
    // equivalents, like everywhere else in the crate.
    let (g_us, l_us) = machine.g_l(cfg.nprocs);
    let degree = cfg.sync_graph.as_ref().map(|g| g.max_degree()).unwrap_or(0);
    let l_neigh = crate::cost::l_neigh_us(l_us, degree, cfg.nprocs);
    let price = |st: &crate::stats::StepStats, b: Option<&PlanBoundary>| {
        let w_secs = st.w.as_secs_f64();
        let latency_us = match b {
            Some(b) => {
                let base = if b.neigh { l_neigh } else { l_us };
                if b.split {
                    (base - w_secs * 1e6).max(0.0)
                } else {
                    base
                }
            }
            None => l_us,
        };
        Prediction {
            work: w_secs,
            bandwidth: g_us * 1e-6 * (st.h() + st.h_bytes().div_ceil(16)) as f64,
            latency: latency_us * 1e-6,
        }
    };
    let steps: Vec<PlanStep> = stats
        .steps
        .iter()
        .enumerate()
        .map(|(i, st)| PlanStep {
            step: i,
            h: st.h(),
            h_bytes: st.h_bytes(),
            w_units: st.w_units,
            w: st.w,
            predicted: price(st, boundaries.get(i)),
        })
        .collect();
    // The whole-program prediction is the sum of the per-step ones, so
    // the table's rows always add up to its total (for an all-full-barrier
    // packet-lane program this is exactly `predict(...)`'s `W + gH + LS`).
    let predicted = steps.iter().fold(
        Prediction {
            work: 0.0,
            bandwidth: 0.0,
            latency: 0.0,
        },
        |acc, s| Prediction {
            work: acc.work + s.predicted.work,
            bandwidth: acc.bandwidth + s.predicted.bandwidth,
            latency: acc.latency + s.predicted.latency,
        },
    );

    Ok(PlanReport {
        nprocs: cfg.nprocs,
        findings,
        boundaries,
        steps,
        predicted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::BoundaryEvent;
    use crate::machine::SGI;
    use crate::packet::Packet;

    fn trace_with(boundaries: Vec<BoundaryEvent>) -> ProcTrace {
        ProcTrace {
            boundaries,
            ..ProcTrace::default()
        }
    }

    fn full(step: usize) -> BoundaryEvent {
        BoundaryEvent {
            step,
            neigh: false,
            split: false,
        }
    }

    fn neigh(step: usize) -> BoundaryEvent {
        BoundaryEvent {
            step,
            neigh: true,
            split: false,
        }
    }

    #[test]
    fn congruent_plans_are_clean() {
        let traces = vec![
            trace_with(vec![full(0), neigh(1)]),
            trace_with(vec![full(0), neigh(1)]),
            trace_with(vec![full(0), neigh(1)]),
        ];
        let mut findings = Vec::new();
        check_plan_deadlock(&traces, &mut findings);
        assert!(findings.is_empty(), "{:?}", findings);
        let b = consensus_boundaries(&traces);
        assert_eq!(b.len(), 2);
        assert!(!b[0].neigh && b[1].neigh);
    }

    #[test]
    fn boundary_count_mismatch_is_a_plan_deadlock() {
        let traces = vec![
            trace_with(vec![full(0), full(1)]),
            trace_with(vec![full(0)]),
            trace_with(vec![full(0), full(1)]),
        ];
        let mut findings = Vec::new();
        check_plan_deadlock(&traces, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, CheckKind::PlanDeadlock);
        assert_eq!(findings[0].pid, 1);
        assert_eq!(findings[0].step, 1);
    }

    #[test]
    fn boundary_kind_mismatch_blames_the_minority() {
        let traces = vec![
            trace_with(vec![full(0)]),
            trace_with(vec![neigh(0)]),
            trace_with(vec![full(0)]),
        ];
        let mut findings = Vec::new();
        check_plan_deadlock(&traces, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pid, 1);
        assert!(findings[0].detail.contains("neighborhood rendezvous"));
    }

    #[test]
    fn lint_of_a_clean_exchange_is_clean_and_costed() {
        let report = lint(&Config::new(4), &SGI, |ctx| {
            for dest in 0..ctx.nprocs() {
                ctx.send_pkt(dest, Packet::two_u64(ctx.pid() as u64, 0));
            }
            ctx.charge(10);
            ctx.sync();
            while ctx.get_pkt().is_some() {}
            ctx.sync();
        })
        .unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.boundaries.len(), 2);
        assert_eq!(report.steps.len(), 3);
        assert_eq!(report.steps[0].h, 4);
        assert_eq!(report.steps[0].w_units, 10);
        assert!(report.steps[0].predicted.total() > 0.0);
        assert!(report.predicted.latency > 0.0);
        // The Display form renders and reports a clean plan.
        let s = report.to_string();
        assert!(s.contains("findings: none"), "{}", s);
    }

    #[test]
    fn lint_prices_neighborhood_boundaries_at_l_neigh() {
        // Ring graph on 4 procs: degree 2 everywhere.
        let cfg = Config::new(4).sync_graph(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let report = lint(&cfg, &SGI, |ctx| {
            ctx.sync_neigh();
            ctx.sync();
        })
        .unwrap();
        assert!(report.boundaries[0].neigh && !report.boundaries[1].neigh);
        let (_, l_us) = SGI.g_l(4);
        let l_neigh = crate::cost::l_neigh_us(l_us, 2, 4);
        assert!(l_neigh < l_us);
        assert!((report.steps[0].predicted.latency - l_neigh * 1e-6).abs() < 1e-15);
        assert!((report.steps[1].predicted.latency - l_us * 1e-6).abs() < 1e-15);
        // The final partial superstep keeps a full boundary's latency and
        // the table's rows add up to its total.
        let sum: f64 = report.steps.iter().map(|s| s.predicted.total()).sum();
        assert!((report.predicted.total() - sum).abs() < 1e-12);
    }

    #[test]
    fn lint_credits_split_phase_overlap() {
        let report = lint(&Config::new(2), &SGI, |ctx| {
            ctx.send_pkt(1 - ctx.pid(), Packet::ZERO);
            ctx.sync_begin();
            ctx.sync_end();
            while ctx.get_pkt().is_some() {}
            ctx.sync();
        })
        .unwrap();
        assert!(report.boundaries[0].split);
        let (_, l_us) = SGI.g_l(2);
        // The split boundary earns the overlap credit: its priced latency
        // never exceeds the full barrier the fused boundary pays.
        assert!(report.steps[0].predicted.latency <= l_us * 1e-6 + 1e-15);
        assert!((report.steps[1].predicted.latency - l_us * 1e-6).abs() < 1e-15);
    }

    #[test]
    fn lint_flags_skipped_sync_as_plan_deadlock() {
        let report = lint(&Config::new(3), &SGI, |ctx| {
            // Proc 1 skips the second boundary — a deadlock on every
            // barrier backend, tolerated (and recorded) by the baton.
            ctx.sync();
            if ctx.pid() != 1 {
                ctx.sync();
            }
        })
        .unwrap();
        let dl = report.of_kind(CheckKind::PlanDeadlock);
        assert_eq!(dl.len(), 1, "{:?}", report.findings);
        assert_eq!(dl[0].pid, 1);
    }

    #[test]
    fn lint_flags_mixed_boundary_kinds() {
        let cfg = Config::new(2).sync_graph(&[(0, 1)]);
        let report = lint(&cfg, &SGI, |ctx| {
            if ctx.pid() == 0 {
                ctx.sync_neigh();
            } else {
                ctx.sync();
            }
        })
        .unwrap();
        assert!(
            !report.of_kind(CheckKind::PlanDeadlock).is_empty(),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn lint_flags_checkpoint_in_split_window() {
        let report = lint(&Config::new(2), &SGI, |ctx| {
            ctx.sync_begin();
            ctx.save_checkpoint(b"mid-window snapshot");
            ctx.sync_end();
        })
        .unwrap();
        let ck = report.of_kind(CheckKind::CheckpointInSplit);
        assert_eq!(ck.len(), 2, "{:?}", report.findings);
        assert_eq!(ck[0].step, 0);
    }

    #[test]
    fn lint_records_split_in_the_skeleton() {
        let report = lint(&Config::new(2), &SGI, |ctx| {
            ctx.send_pkt(1 - ctx.pid(), Packet::ZERO);
            ctx.sync_begin();
            ctx.sync_end();
            while ctx.get_pkt().is_some() {}
            ctx.sync();
        })
        .unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.boundaries.len(), 2);
        assert!(report.boundaries[0].split);
        assert!(!report.boundaries[1].split);
    }
}

//! Corpus of intentionally-buggy BSP programs for the static superstep-plan
//! analyzer (`green_bsp::lint`), organized by finding class:
//!
//! 1. **plan-deadlock** — boundary counts or kinds diverge across procs;
//! 2. **graph-violating-send** — traffic outside the declared sync graph
//!    adjacent to a neighborhood boundary;
//! 3. **split-misuse** — sends inside a split window, unpaired
//!    `sync_begin`/`sync_end`, returning mid-window;
//! 4. **checkpoint-in-split** — a snapshot registered inside the window.
//!
//! Every program runs to completion under the recorder (that is the point:
//! these are bugs that deadlock or corrupt *parallel* runs), and each test
//! asserts the exact finding kind and blamed proc. The split-misuse
//! programs additionally assert the dual contract from the checker work:
//! checked runs degrade gracefully and file a diagnostic; unchecked runs
//! keep the original panic.

mod common;

use common::backends;
use green_bsp::{
    lint, run, BackendKind, CheckKind, CheckReport, Config, Ctx, Packet, PlanReport, SGI,
};

fn dump(reports: &[CheckReport]) -> String {
    reports
        .iter()
        .map(|r| format!("  {r}\n"))
        .collect::<String>()
}

fn lint2(nprocs: usize, f: impl Fn(&mut Ctx) + Sync) -> PlanReport {
    lint(&Config::new(nprocs), &SGI, f).expect("recording run completes")
}

// ---------------------------------------------------------------------------
// Class 1: plan deadlocks (boundary skeleton divergence).
// ---------------------------------------------------------------------------

#[test]
fn dl_skipped_final_sync() {
    let report = lint2(4, |ctx| {
        ctx.sync();
        if ctx.pid() != 3 {
            ctx.sync(); // proc 3 never reaches boundary #1
        }
    });
    let dl = report.of_kind(CheckKind::PlanDeadlock);
    assert_eq!(dl.len(), 1, "{}", dump(&report.findings));
    assert_eq!(dl[0].pid, 3);
    assert_eq!(dl[0].step, 1, "divergence is at boundary #1");
    assert!(
        dl[0].detail.contains("parks at boundary #1"),
        "{}",
        dl[0].detail
    );
}

#[test]
fn dl_extra_sync_in_a_loop() {
    // Off-by-one loop bound: proc 0 runs one extra iteration, so it parks
    // at a boundary nobody else ever enters.
    let report = lint2(3, |ctx| {
        let iters = if ctx.pid() == 0 { 4 } else { 3 };
        for _ in 0..iters {
            ctx.sync();
        }
    });
    let dl = report.of_kind(CheckKind::PlanDeadlock);
    assert_eq!(dl.len(), 1, "{}", dump(&report.findings));
    assert_eq!(dl[0].pid, 0);
    assert_eq!(dl[0].step, 3);
}

#[test]
fn dl_mixed_boundary_kinds() {
    // Proc 1 crosses a neighborhood rendezvous where the consensus is a
    // full barrier: its neighbors-only arrival never satisfies the
    // barrier, and the barrier never satisfies its rendezvous.
    let cfg = Config::new(4).sync_graph(&[(0, 1), (1, 2), (2, 3)]);
    let report = lint(&cfg, &SGI, |ctx| {
        if ctx.pid() == 1 {
            ctx.sync_neigh();
        } else {
            ctx.sync();
        }
    })
    .unwrap();
    let dl = report.of_kind(CheckKind::PlanDeadlock);
    assert_eq!(dl.len(), 1, "{}", dump(&report.findings));
    assert_eq!(dl[0].pid, 1);
    assert_eq!(dl[0].step, 0);
    assert!(
        dl[0].detail.contains("neighborhood rendezvous") && dl[0].detail.contains("full barrier"),
        "{}",
        dl[0].detail
    );
    // The consensus skeleton keeps the majority kind.
    assert!(!report.boundaries[0].neigh);
}

// ---------------------------------------------------------------------------
// Class 2: sends violating the declared sync graph.
// ---------------------------------------------------------------------------

#[test]
fn graph_send_to_non_neighbor_before_rendezvous() {
    // Ring graph, but proc 2 also messages proc 0 — two hops away — in a
    // superstep closed by a neighborhood rendezvous. Proc 0 never
    // rendezvouses with proc 2, so nothing orders that delivery.
    let cfg = Config::new(4).sync_graph(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let report = lint(&cfg, &SGI, |ctx| {
        let right = (ctx.pid() + 1) % ctx.nprocs();
        ctx.send_pkt(right, Packet::two_u64(ctx.pid() as u64, 0));
        if ctx.pid() == 2 {
            ctx.send_pkt(0, Packet::two_u64(99, 0)); // not a neighbor
        }
        ctx.sync_neigh();
        while ctx.get_pkt().is_some() {}
        ctx.sync();
    })
    .unwrap();
    let gv = report.of_kind(CheckKind::GraphViolatingSend);
    assert_eq!(gv.len(), 1, "{}", dump(&report.findings));
    assert_eq!(gv[0].pid, 2);
    assert_eq!(gv[0].step, 0);
    assert!(gv[0].detail.contains("to proc 0"), "{}", gv[0].detail);
    // The skeleton still records the neighborhood boundary.
    assert!(report.boundaries[0].neigh && !report.boundaries[1].neigh);
}

#[test]
fn graph_send_to_non_neighbor_after_rendezvous() {
    // The superstep *after* a neighborhood boundary is equally adjacent to
    // it: proc 0's send to proc 2 races the rendezvous it did not join.
    let cfg = Config::new(4).sync_graph(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let report = lint(&cfg, &SGI, |ctx| {
        ctx.sync_neigh();
        if ctx.pid() == 0 {
            ctx.send_pkt(2, Packet::ZERO); // not a neighbor
        }
        ctx.sync();
        while ctx.get_pkt().is_some() {}
    })
    .unwrap();
    let gv = report.of_kind(CheckKind::GraphViolatingSend);
    assert_eq!(gv.len(), 1, "{}", dump(&report.findings));
    assert_eq!(gv[0].pid, 0);
    assert!(gv[0].detail.contains("to proc 2"), "{}", gv[0].detail);
}

#[test]
fn graph_byte_lane_violation_is_flagged_too() {
    let cfg = Config::new(3).sync_graph(&[(0, 1), (1, 2)]);
    let report = lint(&cfg, &SGI, |ctx| {
        if ctx.pid() == 0 {
            ctx.send_bytes(2, b"around the line graph"); // 0–2 is no edge
        }
        ctx.sync_neigh();
        ctx.sync();
    })
    .unwrap();
    let gv = report.of_kind(CheckKind::GraphViolatingSend);
    assert_eq!(gv.len(), 1, "{}", dump(&report.findings));
    assert_eq!(gv[0].pid, 0);
    assert!(gv[0].detail.contains("to proc 2"), "{}", gv[0].detail);
}

// ---------------------------------------------------------------------------
// Class 3: split-phase misuse.
// ---------------------------------------------------------------------------

#[test]
fn split_send_inside_window() {
    let report = lint2(2, |ctx| {
        ctx.sync_begin();
        ctx.send_pkt(1 - ctx.pid(), Packet::ZERO); // inside the window
        ctx.sync_end();
        while ctx.get_pkt().is_some() {}
        ctx.sync();
    });
    let sm = report.of_kind(CheckKind::SplitMisuse);
    assert_eq!(sm.len(), 2, "one per proc:\n{}", dump(&report.findings));
    for r in &sm {
        assert_eq!(r.step, 0);
        assert!(r.detail.contains("send_pkt"), "{}", r.detail);
    }
}

#[test]
fn split_double_begin() {
    let report = lint2(2, |ctx| {
        ctx.sync_begin();
        ctx.sync_begin(); // window already open
        ctx.sync_end();
    });
    let sm = report.of_kind(CheckKind::SplitMisuse);
    assert_eq!(sm.len(), 2, "{}", dump(&report.findings));
    assert!(sm[0].detail.contains("twice"), "{}", sm[0].detail);
    // The second begin was ignored, so the skeleton has exactly one
    // (split) boundary per proc and the plan stays congruent.
    assert!(report.of_kind(CheckKind::PlanDeadlock).is_empty());
    assert_eq!(report.boundaries.len(), 1);
    assert!(report.boundaries[0].split);
}

#[test]
fn split_end_without_begin() {
    let report = lint2(2, |ctx| {
        ctx.sync();
        ctx.sync_end(); // no open window
    });
    let sm = report.of_kind(CheckKind::SplitMisuse);
    assert_eq!(sm.len(), 2, "{}", dump(&report.findings));
    assert_eq!(sm[0].step, 1);
    assert!(
        sm[0].detail.contains("without sync_begin"),
        "{}",
        sm[0].detail
    );
    assert!(report.of_kind(CheckKind::PlanDeadlock).is_empty());
}

#[test]
fn split_return_mid_window() {
    let report = lint2(2, |ctx| {
        ctx.sync();
        if ctx.pid() == 1 {
            ctx.sync_begin();
            // Bug: returns without sync_end; the recorder force-closes the
            // window so proc 0 is not stranded, and files the misuse.
        }
    });
    let sm = report.of_kind(CheckKind::SplitMisuse);
    assert_eq!(sm.len(), 1, "{}", dump(&report.findings));
    assert_eq!(sm[0].pid, 1);
    assert!(sm[0].detail.contains("returned"), "{}", sm[0].detail);
    // The forced close means proc 1 crossed one more boundary than proc 0:
    // also a plan deadlock, reported against the deviant.
    let dl = report.of_kind(CheckKind::PlanDeadlock);
    assert_eq!(dl.len(), 1, "{}", dump(&report.findings));
    assert_eq!(dl[0].pid, 1);
}

#[test]
fn split_sync_inside_window_counts_as_end() {
    let report = lint2(2, |ctx| {
        ctx.sync_begin();
        ctx.sync(); // treated as the matching sync_end
    });
    let sm = report.of_kind(CheckKind::SplitMisuse);
    assert_eq!(sm.len(), 2, "{}", dump(&report.findings));
    assert!(
        sm[0].detail.contains("treated as the matching sync_end"),
        "{}",
        sm[0].detail
    );
    assert!(report.of_kind(CheckKind::PlanDeadlock).is_empty());
    assert_eq!(report.boundaries.len(), 1);
}

// ---------------------------------------------------------------------------
// Class 4: checkpoint placement inside a split window.
// ---------------------------------------------------------------------------

#[test]
fn ckpt_saved_inside_window() {
    let report = lint2(3, |ctx| {
        ctx.sync();
        ctx.sync_begin();
        // Bug: the snapshot is taken while the boundary is half-crossed —
        // on a rollback, procs that snapshotted after sync_end disagree
        // with this one about which sends the snapshot contains.
        ctx.save_checkpoint(&[ctx.pid() as u8]);
        ctx.sync_end();
    });
    let ck = report.of_kind(CheckKind::CheckpointInSplit);
    assert_eq!(ck.len(), 3, "one per proc:\n{}", dump(&report.findings));
    for (pid, r) in ck.iter().enumerate() {
        assert_eq!(r.pid, pid);
        assert_eq!(r.step, 1);
        assert!(
            r.detail.contains("between sync_begin and sync_end"),
            "{}",
            r.detail
        );
    }
}

#[test]
fn ckpt_saved_outside_window_is_clean() {
    let report = lint2(3, |ctx| {
        ctx.sync();
        ctx.save_checkpoint(&[ctx.pid() as u8]); // before the window: fine
        ctx.sync_begin();
        ctx.sync_end();
    });
    assert!(report.is_clean(), "{}", dump(&report.findings));
}

// ---------------------------------------------------------------------------
// Satellite: dual behavior of the misuse paths. Checked runs degrade
// gracefully (diagnostic + defined semantics); unchecked runs keep the
// original panic, wrapped in the runner's panic envelope.
// ---------------------------------------------------------------------------

#[test]
fn checked_send_in_window_drops_the_packet_and_completes() {
    let out = run(&Config::new(2).checked(), |ctx| {
        ctx.send_pkt(1 - ctx.pid(), Packet::two_u64(1, 0)); // legal: before window
        ctx.sync_begin();
        ctx.send_pkt(1 - ctx.pid(), Packet::two_u64(2, 0)); // dropped + filed
        ctx.sync_end();
        let mut got = Vec::new();
        while let Some(p) = ctx.get_pkt() {
            got.push(p.as_two_u64().0);
        }
        ctx.sync();
        got
    });
    // Only the legal packet arrived; the in-window one was dropped.
    for got in &out.results {
        assert_eq!(got, &[1]);
    }
    assert_eq!(
        out.stats
            .check_reports
            .iter()
            .filter(|r| r.kind == CheckKind::SplitMisuse)
            .count(),
        2,
        "{}",
        dump(&out.stats.check_reports)
    );
}

#[test]
#[should_panic(expected = "send_pkt between sync_begin and sync_end")]
fn unchecked_send_in_window_panics() {
    let _ = run(&Config::new(2).backend(BackendKind::SeqSim), |ctx| {
        ctx.sync_begin();
        ctx.send_pkt(1 - ctx.pid(), Packet::ZERO);
        ctx.sync_end();
    });
}

#[test]
#[should_panic(expected = "sync_begin called twice without sync_end")]
fn unchecked_double_begin_panics() {
    let _ = run(&Config::new(2).backend(BackendKind::SeqSim), |ctx| {
        ctx.sync_begin();
        ctx.sync_begin();
    });
}

#[test]
#[should_panic(expected = "sync_end without sync_begin")]
fn unchecked_end_without_begin_panics() {
    let _ = run(&Config::new(2).backend(BackendKind::SeqSim), |ctx| {
        ctx.sync_end();
    });
}

#[test]
#[should_panic(expected = "returned between sync_begin and sync_end")]
fn unchecked_return_mid_window_panics() {
    let _ = run(&Config::new(2).backend(BackendKind::SeqSim), |ctx| {
        ctx.sync_begin();
    });
}

// ---------------------------------------------------------------------------
// An ignored or degraded neighborhood call leaves no mode behind: the
// boundary that runs is the one the open window asked for, and the graph
// discipline of a neighborhood boundary that never ran applies to nobody.
// ---------------------------------------------------------------------------

/// Run `program` at p = 3 with 0–1 the sync graph's only edge, checked:
/// exactly one `SplitMisuse` per proc and nothing else — no
/// `GraphViolatingSend` — and no boundary recorded as a neighborhood
/// rendezvous.
fn ignored_neigh_call_leaves_no_mode(program: fn(&mut Ctx)) {
    let graph = [(0, 1)];
    for (name, cfg) in backends(3) {
        let out = run(&cfg.sync_graph(&graph).checked(), program);
        let reports = &out.stats.check_reports;
        let mut blamed: Vec<_> = reports.iter().map(|r| (r.kind, r.pid)).collect();
        blamed.sort_by_key(|&(_, pid)| pid);
        let want: Vec<_> = (0..3).map(|pid| (CheckKind::SplitMisuse, pid)).collect();
        assert_eq!(blamed, want, "{name}:\n{}", dump(reports));
    }
    let skeleton =
        lint(&Config::new(3).sync_graph(&graph), &SGI, program).expect("recording run completes");
    assert!(
        skeleton.boundaries.iter().all(|b| !b.neigh),
        "{:?}",
        skeleton.boundaries
    );
}

#[test]
fn ignored_sync_neigh_begin_leaves_no_mode() {
    ignored_neigh_call_leaves_no_mode(|ctx| {
        ctx.sync_begin();
        ctx.sync_neigh_begin(); // window already open: ignored, mode and all
        ctx.sync_end();
        if ctx.pid() == 0 {
            ctx.send_pkt(2, Packet::ZERO); // 0–2 is no edge; no rendezvous ran
        }
        ctx.sync();
        while ctx.get_pkt().is_some() {}
    });
}

#[test]
fn sync_neigh_as_sync_end_leaves_no_mode() {
    ignored_neigh_call_leaves_no_mode(|ctx| {
        ctx.sync_begin();
        ctx.sync_neigh(); // completes the open *full* window
        if ctx.pid() == 0 {
            ctx.send_bytes(2, b"off the graph, between full boundaries");
        }
        ctx.sync();
        while ctx.recv_bytes().is_some() {}
    });
}

// ---------------------------------------------------------------------------
// Zero false positives: a correct program using every analyzed feature.
// ---------------------------------------------------------------------------

/// Ring graph; alternates full barriers, split-phase windows, and
/// neighborhood rendezvous; packets, `send_bytes` and `msg_writer` share
/// superstep 0; checkpoints on a legal boundary.
fn all_features(ctx: &mut Ctx) {
    let me = ctx.pid();
    let p = ctx.nprocs();
    let right = (me + 1) % p;
    // Superstep 0: full exchange on both lanes, closed split-phase.
    for dest in 0..p {
        ctx.send_pkt(dest, Packet::two_u64(me as u64, 0));
        ctx.send_bytes(dest, &[me as u8; 5]);
        ctx.msg_writer(dest).put_u64(me as u64);
    }
    ctx.charge(8);
    ctx.sync_begin();
    ctx.sync_end();
    let mut n = 0;
    while ctx.get_pkt().is_some() {
        n += 1;
    }
    assert_eq!(n, p);
    let mut bytes = 0;
    while let Some((_, payload)) = ctx.recv_bytes() {
        bytes += payload.len();
    }
    assert_eq!(bytes, p * (5 + 8));
    // Superstep 1: neighbor-only traffic, neighborhood rendezvous.
    ctx.send_pkt(right, Packet::two_u64(me as u64, 1));
    ctx.sync_neigh();
    assert!(ctx.get_pkt().is_some());
    // Superstep 2: checkpoint on a legal boundary, then finish.
    ctx.save_checkpoint(&[me as u8]);
    ctx.sync();
}

#[test]
fn clean_program_with_all_features_lints_clean() {
    // Nothing here should trip the analyzer, or the checker on any backend.
    let p = 4;
    let edges: Vec<(usize, usize)> = (0..p).map(|i| (i, (i + 1) % p)).collect();
    let cfg = Config::new(p).sync_graph(&edges);
    let report = lint(&cfg, &SGI, all_features).unwrap();
    assert!(report.is_clean(), "{}", dump(&report.findings));
    assert_eq!(report.boundaries.len(), 3);
    assert!(report.boundaries[0].split && !report.boundaries[0].neigh);
    assert!(report.boundaries[1].neigh);
    assert!(!report.boundaries[2].neigh && !report.boundaries[2].split);
    assert_eq!(report.steps[0].w_units, 8);
    assert!(report.predicted.total() > 0.0);

    for (name, cfg) in backends(p) {
        let out = run(&cfg.sync_graph(&edges).checked(), all_features);
        assert!(
            out.stats.check_reports.is_empty(),
            "{name}:\n{}",
            dump(&out.stats.check_reports)
        );
    }
}

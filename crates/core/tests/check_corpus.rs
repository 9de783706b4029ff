//! Corpus of intentionally-buggy BSP programs, each asserting the exact
//! diagnostic the checker must produce (kind, proc id, superstep), plus
//! zero-false-positive runs of correct programs on every backend.
//!
//! Every program here compiles and runs to completion — the point of the
//! checker is that these misuses would otherwise corrupt results silently
//! (see `green_bsp::check`).

mod common;

use common::matches_seqsim;
use green_bsp::collectives::{allgather_f64, allgather_u64};
use green_bsp::drma::Drma;
use green_bsp::{run, BackendKind, CheckKind, CheckReport, Config, Packet};

/// Find all reports of one kind, failing loudly with the full list.
fn of_kind(reports: &[CheckReport], kind: CheckKind) -> Vec<&CheckReport> {
    reports.iter().filter(|r| r.kind == kind).collect()
}

fn dump(reports: &[CheckReport]) -> String {
    reports
        .iter()
        .map(|r| format!("  {r}\n"))
        .collect::<String>()
}

// ---------------------------------------------------------------------------
// Bug 1: reading a packet after the sync that ended its superstep.
// ---------------------------------------------------------------------------

#[test]
fn bug_stale_packet_read() {
    let out = run(&Config::new(2).checked(), |ctx| {
        let other = 1 - ctx.pid();
        ctx.send_pkt(other, Packet::two_u64(7, 7));
        ctx.sync();
        let held = ctx.get_pkt_tracked().expect("packet delivered");
        assert!(held.is_valid());
        ctx.sync();
        // Bug: `held` points at superstep 1's inbox, which this sync retired.
        assert!(!held.is_valid());
        held.read().as_two_u64().0
    });
    let stale = of_kind(&out.stats.check_reports, CheckKind::StalePacketRead);
    assert_eq!(
        stale.len(),
        2,
        "one per proc:\n{}",
        dump(&out.stats.check_reports)
    );
    for pid in 0..2 {
        let r = stale
            .iter()
            .find(|r| r.pid == pid)
            .unwrap_or_else(|| panic!("no report for proc {pid}"));
        assert_eq!(r.step, 2, "read happened in superstep 2");
        assert_eq!(
            r.related_step,
            Some(1),
            "packet was delivered in superstep 1"
        );
        // The originating send site (this file) must be named.
        assert!(
            r.detail.contains("check_corpus.rs"),
            "send site missing: {}",
            r.detail
        );
    }
}

// ---------------------------------------------------------------------------
// Bug 2: one process skips a sync (superstep counts diverge).
// ---------------------------------------------------------------------------

#[test]
fn bug_skipped_sync() {
    // SeqSim tolerates a process retiring early (the baton skips finished
    // procs), so the misaligned program runs to completion and the checker
    // reports the divergence instead of the runtime deadlocking.
    let out = run(
        &Config::new(4).backend(BackendKind::SeqSim).checked(),
        |ctx| {
            ctx.sync();
            if ctx.pid() != 3 {
                ctx.sync(); // proc 3 skips this one
            }
        },
    );
    let mismatches = of_kind(&out.stats.check_reports, CheckKind::SuperstepMismatch);
    assert_eq!(
        mismatches.len(),
        1,
        "exactly the skipper is blamed:\n{}",
        dump(&out.stats.check_reports)
    );
    let r = mismatches[0];
    assert_eq!(r.pid, 3);
    assert_eq!(r.step, 1, "divergence begins after proc 3's last sync");
    assert!(r.detail.contains("synced 1 time(s)"), "{}", r.detail);
}

// ---------------------------------------------------------------------------
// Bug 3: processes run different collectives in the same superstep.
// ---------------------------------------------------------------------------

#[test]
fn bug_mismatched_collective_kind() {
    // Sync counts agree (both collectives are one superstep), so only the
    // congruence check can catch this.
    let out = run(&Config::new(4).checked(), |ctx| {
        if ctx.pid() == 0 {
            let _ = allgather_f64(ctx, 1.0);
        } else {
            let _ = allgather_u64(ctx, 1);
        }
    });
    let reports = of_kind(&out.stats.check_reports, CheckKind::CollectiveMismatch);
    assert_eq!(
        reports.len(),
        1,
        "the minority proc is blamed:\n{}",
        dump(&out.stats.check_reports)
    );
    let r = reports[0];
    assert_eq!(r.pid, 0);
    assert_eq!(r.step, 0);
    assert!(
        r.detail.contains("AllgatherF64") && r.detail.contains("AllgatherU64"),
        "{}",
        r.detail
    );
}

// ---------------------------------------------------------------------------
// Bug 4: the same collective, but at different supersteps.
// ---------------------------------------------------------------------------

#[test]
fn bug_collective_at_different_superstep() {
    // Everyone syncs twice in total, but proc 0 gathers in superstep 1
    // while the others gather in superstep 0.
    let out = run(&Config::new(4).checked(), |ctx| {
        if ctx.pid() == 0 {
            ctx.sync();
            let _ = allgather_u64(ctx, 9);
        } else {
            let _ = allgather_u64(ctx, 9);
            ctx.sync();
        }
    });
    let reports = of_kind(&out.stats.check_reports, CheckKind::CollectiveMismatch);
    assert!(
        reports.iter().any(|r| r.pid == 0
            && r.detail.contains("superstep 1")
            && r.detail.contains("superstep 0")),
        "proc 0's off-by-one-superstep gather must be flagged:\n{}",
        dump(&out.stats.check_reports)
    );
}

// ---------------------------------------------------------------------------
// Bug 5: entering a collective with unread packets pending.
// ---------------------------------------------------------------------------

#[test]
fn bug_collective_with_unread_packets() {
    let out = run(&Config::new(2).checked(), |ctx| {
        let other = 1 - ctx.pid();
        ctx.send_pkt(other, Packet::two_u64(1, 0));
        ctx.send_pkt(other, Packet::two_u64(2, 0));
        ctx.sync();
        let _ = ctx.get_pkt(); // read one of the two...
        let v = allgather_u64(ctx, 5); // ...then enter a collective anyway
        assert_eq!(v, vec![5, 5]);
    });
    let reports = of_kind(&out.stats.check_reports, CheckKind::CollectiveContract);
    assert_eq!(
        reports.len(),
        2,
        "both procs violate the contract:\n{}",
        dump(&out.stats.check_reports)
    );
    for pid in 0..2 {
        let r = reports
            .iter()
            .find(|r| r.pid == pid)
            .unwrap_or_else(|| panic!("no report for proc {pid}"));
        assert_eq!(r.step, 1);
        assert!(r.detail.contains("1 unread packet"), "{}", r.detail);
    }
}

// ---------------------------------------------------------------------------
// Bug 6: two processes put to overlapping cells in one superstep.
// ---------------------------------------------------------------------------

#[test]
fn bug_drma_write_write() {
    let out = run(&Config::new(3).checked(), |ctx| {
        let mut drma = Drma::new(vec![vec![0.0; 8]]);
        match ctx.pid() {
            1 => drma.put(0, 0, 2, &[1.0, 1.0, 1.0]), // cells 2..5
            2 => drma.put(0, 0, 4, &[2.0, 2.0]),      // cells 4..6 — overlap at 4
            _ => {}
        }
        drma.sync_put(ctx);
        drma.region(0).to_vec()
    });
    let reports = of_kind(&out.stats.check_reports, CheckKind::DrmaWriteWrite);
    assert_eq!(reports.len(), 1, "{}", dump(&out.stats.check_reports));
    let r = reports[0];
    assert_eq!(r.pid, 1, "first of the conflicting pair");
    assert_eq!(r.step, 0);
    assert!(
        r.detail.contains("procs 1 and 2") && r.detail.contains("region 0"),
        "{}",
        r.detail
    );
}

// ---------------------------------------------------------------------------
// Bug 7: one process reads cells another writes in the same superstep.
// ---------------------------------------------------------------------------

#[test]
fn bug_drma_read_write() {
    // The library gives this a defined order (gets see pre-put values),
    // but the dependence is almost always unintended — the checker flags
    // it so the author decides.
    let out = run(&Config::new(3).checked(), |ctx| {
        let mut drma = Drma::new(vec![vec![0.0; 8]]);
        let h = match ctx.pid() {
            1 => {
                drma.put(0, 0, 0, &[3.0, 3.0]); // cells 0..2
                None
            }
            2 => Some(drma.get(0, 0, 1, 2)), // cells 1..3 — overlap at 1
            _ => None,
        };
        drma.sync(ctx);
        h.map(|h| drma.take(h))
    });
    let reports = of_kind(&out.stats.check_reports, CheckKind::DrmaReadWrite);
    assert_eq!(reports.len(), 1, "{}", dump(&out.stats.check_reports));
    let r = reports[0];
    assert_eq!(r.pid, 1, "first of the conflicting pair");
    assert_eq!(r.step, 0);
    assert!(r.detail.contains("procs 1 and 2"), "{}", r.detail);
}

// ---------------------------------------------------------------------------
// Bug 8: sending after the program's last sync.
// ---------------------------------------------------------------------------

#[test]
fn bug_post_final_sync_send() {
    let out = run(&Config::new(2).checked(), |ctx| {
        let other = 1 - ctx.pid();
        ctx.send_pkt(other, Packet::ZERO);
        ctx.sync();
        while ctx.get_pkt().is_some() {}
        // Bug: no further sync — these three packets can never arrive.
        for _ in 0..3 {
            ctx.send_pkt(other, Packet::ZERO);
        }
    });
    assert_eq!(out.stats.undelivered_pkts, 6);
    let reports = of_kind(&out.stats.check_reports, CheckKind::UndeliveredSend);
    assert_eq!(reports.len(), 2, "{}", dump(&out.stats.check_reports));
    for pid in 0..2 {
        let r = reports
            .iter()
            .find(|r| r.pid == pid)
            .unwrap_or_else(|| panic!("no report for proc {pid}"));
        assert_eq!(r.step, 1, "the partial superstep after the last sync");
        assert!(r.detail.contains("3 packet(s)"), "{}", r.detail);
        assert!(
            r.detail.contains("check_corpus.rs"),
            "send site missing: {}",
            r.detail
        );
    }
}

// ---------------------------------------------------------------------------
// Zero false positives: correct programs stay clean on every backend.
// ---------------------------------------------------------------------------

/// A correct program exercising everything the checker watches: tracked
/// packet reads within their superstep, congruent collectives, disjoint
/// DRMA puts and gets, and a final drained superstep.
fn clean_program(ctx: &mut green_bsp::Ctx) -> u64 {
    let p = ctx.nprocs();
    let me = ctx.pid();
    // Plain exchange, read via the tracked API inside the right superstep.
    for dest in 0..p {
        if dest != me {
            ctx.send_pkt(dest, Packet::two_u64(me as u64, 1));
        }
    }
    ctx.sync();
    let mut acc = 0u64;
    while let Some(pkt) = ctx.get_pkt_tracked() {
        acc += pkt.read().as_two_u64().1;
    }
    // A congruent collective.
    let total = allgather_u64(ctx, acc).iter().sum::<u64>();
    // Disjoint DRMA: everyone puts to its own slot of everyone's region,
    // then gets its own slot back.
    let mut drma = Drma::new(vec![vec![0.0; p]]);
    for dest in 0..p {
        drma.put(dest, 0, me, &[me as f64]);
    }
    drma.sync_put(ctx);
    let h = drma.get((me + 1) % p, 0, me, 1);
    drma.sync(ctx);
    let _ = drma.take(h);
    total
}

#[test]
fn clean_programs_produce_zero_reports_on_all_backends() {
    for p in [1, 2, 4] {
        let out = matches_seqsim(p, Config::checked, clean_program);
        for r in &out.results {
            assert_eq!(*r, (p as u64 - 1) * p as u64, "payload intact");
        }
    }
}

/// Deterministic per-(proc, step) burst size: a seeded xorshift so the
/// stress pattern is irregular but every process can recompute everyone
/// else's burst for the conservation assert.
fn burst_size(seed: u64, pid: usize, step: u64) -> u64 {
    let mut x = seed ^ (pid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (step << 32);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    32 + x % 200
}

/// Satellite stress test: seeded irregular bursts must deliver every
/// packet, in send order per source, and stay clean under the phase audit.
#[test]
fn seeded_bursts_stay_audit_clean_and_conserved() {
    const SEED: u64 = 0x05EE_DB57;
    let out = run(&Config::new(4).checked(), |ctx| {
        let me = ctx.pid();
        let p = ctx.nprocs();
        for step in 0..4u64 {
            let mine = burst_size(SEED, me, step);
            for dest in 0..p {
                if dest != me {
                    for i in 0..mine {
                        ctx.send_pkt(dest, Packet::two_u64(me as u64, i));
                    }
                }
            }
            ctx.sync();
            let got: Vec<(u64, u64)> = std::iter::from_fn(|| ctx.get_pkt())
                .map(|p| p.as_two_u64())
                .collect();
            let expect: Vec<(u64, u64)> = (0..p)
                .filter(|&src| src != me)
                .flat_map(|src| (0..burst_size(SEED, src, step)).map(move |i| (src as u64, i)))
                .collect();
            assert_eq!(got, expect, "conservation at proc {me} step {step}");
        }
    });
    assert!(
        out.stats.check_reports.is_empty(),
        "phase audit false positive under bursts:\n{}",
        dump(&out.stats.check_reports)
    );
}

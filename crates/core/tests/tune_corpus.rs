//! Tuner corpus: the auto-selected configuration must always be *feasible*
//! (never wider than the pool can admit, never silently changing results)
//! and the planner must degrade, not panic, when it cannot measure.

use green_bsp::exec::Runtime;
use green_bsp::tune::{self, HProfile, TuneOpts};
use green_bsp::{BackendKind, BspError, Calibration, Config, Packet};

/// A p-invariant BSP program: every process sums its strided share of
/// `0..N` and a tree of packet exchanges reduces the partials; the global
/// digest is identical for every backend and processor count, so any
/// configuration the tuner picks must reproduce it bit-for-bit.
const N: u64 = 10_000;

fn reduce_sum(ctx: &mut green_bsp::Ctx) -> u64 {
    let (pid, p) = (ctx.pid(), ctx.nprocs());
    let mut local: u64 = (pid as u64..N)
        .step_by(p)
        .map(|x| x.wrapping_mul(2654435761))
        .sum();
    ctx.sync();
    // Fan everything into proc 0.
    if pid != 0 {
        ctx.send_pkt(0, Packet::two_u64(local, 0));
    }
    ctx.sync();
    if pid == 0 {
        while let Some(pkt) = ctx.get_pkt() {
            local = local.wrapping_add(pkt.as_two_u64().0);
        }
    } else {
        local = 0;
    }
    ctx.sync();
    local
}

fn reference_digest() -> u64 {
    let out = green_bsp::run(&Config::new(1).backend(BackendKind::SeqSim), reduce_sum);
    out.results[0]
}

fn profiles_for(ps: &[usize]) -> Vec<(usize, HProfile)> {
    ps.iter()
        .map(|&p| {
            let out = green_bsp::run(&Config::new(p).backend(BackendKind::SeqSim), reduce_sum);
            (p, HProfile::from_stats(&out.stats))
        })
        .collect()
}

#[test]
fn every_selectable_candidate_reproduces_the_reference_bits() {
    let expect = reference_digest();
    let profiles = profiles_for(&[1, 2, 4]);
    let opts = TuneOpts {
        backends: vec![
            BackendKind::Shared,
            BackendKind::MsgPass,
            BackendKind::TcpSim,
            BackendKind::SeqSim,
        ],
        max_procs: 4,
        try_hardened: true,
        try_relaxed: true,
    };
    let plan = tune::plan(&profiles, &opts);
    assert!(!plan.candidates.is_empty());
    for cand in &plan.candidates {
        assert!(cand.nprocs <= 4, "infeasible width chosen: {cand:?}");
        assert!(
            !(cand.hardened && cand.relaxed),
            "contradictory candidate generated: {cand:?}"
        );
        let mut cfg = Config::new(cand.nprocs).backend(cand.backend);
        if cand.hardened {
            cfg = cfg.hardened();
        }
        let out = green_bsp::run(&cfg, reduce_sum);
        let got = out.results.iter().fold(0u64, |acc, &r| acc.wrapping_add(r));
        assert_eq!(
            got, expect,
            "candidate {cand:?} silently changed the result"
        );
    }
    // The chosen candidate runs as the config a caller builds from it.
    let chosen = plan.chosen();
    let mut cfg = Config::new(chosen.nprocs).backend(chosen.backend);
    if chosen.hardened {
        cfg = cfg.hardened();
    }
    let out = green_bsp::try_run(&cfg, reduce_sum).unwrap();
    let got = out.results.iter().fold(0u64, |acc, &r| acc.wrapping_add(r));
    assert_eq!(got, expect);
}

#[test]
fn saturated_pool_prunes_wide_rendezvous_candidates() {
    let profiles = profiles_for(&[1, 2, 4, 8]);
    let opts = TuneOpts {
        backends: vec![BackendKind::Shared, BackendKind::MsgPass],
        max_procs: 2,
        try_hardened: false,
        try_relaxed: false,
    };
    let plan = tune::plan(&profiles, &opts);
    assert!(
        plan.candidates.iter().all(|c| c.nprocs <= 2),
        "a rendezvous candidate wider than the pool survived pruning: {:?}",
        plan.candidates
    );
}

#[test]
fn poisoned_calibration_probe_degrades_to_static_defaults() {
    // Shut the runtime down, then calibrate against it: the probe cannot
    // run, and the planner must fall back to the documented defaults
    // instead of panicking.
    let rt = Runtime::new();
    rt.clone().shutdown();
    let err = green_bsp::try_calibrate_with(&rt, BackendKind::Shared, 2)
        .expect_err("probe on a dead runtime cannot succeed");
    assert!(matches!(err, BspError::RuntimeShutdown), "{err}");
    let c = green_bsp::calibrate_with(&rt, BackendKind::Shared, 2);
    assert_eq!(c, Calibration::fallback(BackendKind::Shared, 2));
    assert!(c.g_us > 0.0 && c.l_us > 0.0);
}

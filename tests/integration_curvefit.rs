//! The §4 "curve fitting" validation: on a *simple subroutine* (sorting,
//! broadcast) the BSP cost function should predict actual running times
//! closely — not just trends. We validate against the machine emulator:
//! run the subroutine under injected `g·h + L` delays and check the wall
//! clock against `W + gH + LS` computed from the measured statistics.

use bsp_repro::green_bsp::{run, BackendKind, Config, NetSimParams, Packet};
use bsp_repro::sort::sample_sort;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard};

/// Every test here compares a wall clock with a prediction while its BSP
/// processes spin out emulated delays, so the tests must not share the
/// host's cores with each other: each holds this lock for its whole body.
static WALL_CLOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    // The lock guards no data, so a test that failed while holding it
    // leaves nothing behind for the next one.
    WALL_CLOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `H` in packet equivalents, as the emulator charges it and as
/// `tune::predict_with` prices it: packets plus byte-lane bytes at one `g`
/// per 16.
fn h_equivalents(stats: &bsp_repro::green_bsp::RunStats) -> u64 {
    stats
        .steps
        .iter()
        .map(|s| s.h() + s.h_bytes().div_ceil(16))
        .sum()
}

/// Run a program twice: once plain (for W and the stats), once under the
/// emulator (for "actual"); return (actual_secs, predicted_secs).
fn actual_vs_predicted<F>(p: usize, params: NetSimParams, f: F) -> (f64, f64)
where
    F: Fn(&mut bsp_repro::green_bsp::Ctx) + Sync,
{
    let plain = run(&Config::new(p), &f);
    let emulated = run(&Config::new(p).backend(BackendKind::NetSim(params)), &f);
    let w = plain.stats.w_total().as_secs_f64();
    // Equation (1) directly with the emulator's parameters.
    let pred = w
        + params.g_us * 1e-6 * h_equivalents(&emulated.stats) as f64
        + params.l_us * 1e-6 * emulated.stats.s() as f64;
    (emulated.wall.as_secs_f64(), pred)
}

#[test]
fn sample_sort_time_is_predicted_within_a_third() {
    let _alone = exclusive();
    let p = 4;
    let n_per = 20_000;
    let params = NetSimParams {
        g_us: 2.0,
        l_us: 2_000.0,
        l_neigh_us: 0.0,
        time_scale: 1.0,
    };
    let (actual, pred) = actual_vs_predicted(p, params, |ctx| {
        let mut rng = StdRng::seed_from_u64(3 + ctx.pid() as u64);
        let keys: Vec<u64> = (0..n_per).map(|_| rng.gen()).collect();
        let sorted = sample_sort(ctx, keys);
        std::hint::black_box(sorted.len());
    });
    let ratio = actual / pred;
    assert!(
        (0.7..=1.5).contains(&ratio),
        "sort: actual {actual:.4}s vs predicted {pred:.4}s (ratio {ratio:.2})"
    );
}

#[test]
fn broadcast_time_is_predicted_within_a_third() {
    let _alone = exclusive();
    let p = 4;
    let len = 30_000;
    let params = NetSimParams {
        g_us: 3.0,
        l_us: 1_000.0,
        l_neigh_us: 0.0,
        time_scale: 1.0,
    };
    let (actual, pred) = actual_vs_predicted(p, params, |ctx| {
        let data: Vec<Packet> = if ctx.pid() == 0 {
            (0..len).map(|i| Packet::two_u64(i, 0)).collect()
        } else {
            Vec::new()
        };
        let got = bsp_repro::green_bsp::collectives::broadcast_pkts(ctx, 0, &data);
        std::hint::black_box(got.len());
    });
    let ratio = actual / pred;
    assert!(
        (0.7..=1.5).contains(&ratio),
        "broadcast: actual {actual:.4}s vs predicted {pred:.4}s (ratio {ratio:.2})"
    );
}

#[test]
fn two_phase_broadcast_beats_direct_when_the_model_says_so() {
    // The cost model says two-phase wins when g·len·(p−3) > L + g·overhead;
    // verify both the model's preference and the emulated reality agree.
    // (p = 8: the root's direct send is 7·len packets, while two-phase
    // peaks at ~2·len + framing — a clear win even with index packets.)
    let _alone = exclusive();
    let p = 8;
    let len = 16_000;
    let params = NetSimParams {
        g_us: 4.0,
        l_us: 500.0,
        l_neigh_us: 0.0,
        time_scale: 1.0,
    };
    let direct = run(
        &Config::new(p).backend(BackendKind::NetSim(params)),
        |ctx| {
            let data: Vec<Packet> = if ctx.pid() == 0 {
                (0..len).map(|i| Packet::two_u64(i, 0)).collect()
            } else {
                Vec::new()
            };
            bsp_repro::green_bsp::collectives::broadcast_pkts(ctx, 0, &data).len()
        },
    );
    let two_phase = run(
        &Config::new(p).backend(BackendKind::NetSim(params)),
        |ctx| {
            let data: Vec<Packet> = if ctx.pid() == 0 {
                (0..len).map(|i| Packet::two_u64(i, 0)).collect()
            } else {
                Vec::new()
            };
            bsp_repro::green_bsp::collectives::broadcast_pkts_two_phase(ctx, 0, &data).len()
        },
    );
    // Model comparison.
    let h_direct = direct.stats.h_total();
    let h_two = two_phase.stats.h_total();
    let pred = |h: u64, s: u64| params.g_us * 1e-6 * h as f64 + params.l_us * 1e-6 * s as f64;
    let model_prefers_two_phase =
        pred(h_two, two_phase.stats.s()) < pred(h_direct, direct.stats.s());
    assert!(
        model_prefers_two_phase,
        "expected the model to prefer two-phase here"
    );
    assert!(
        two_phase.wall < direct.wall,
        "emulated reality disagrees with the model: two-phase {:?} vs direct {:?}",
        two_phase.wall,
        direct.wall
    );
}

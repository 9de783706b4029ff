//! Cross-crate integration: every application must produce identical
//! results and identical algorithmic statistics (`H`, `S`) on every library
//! implementation — the paper's portability claim, verified end to end.

use bsp_repro::green_bsp::{run, BackendKind, Config, NetSimParams};
use bsp_repro::harness::{prepare, App, ALL_BACKENDS};
use bsp_repro::nbody::{initial_partition, nbody_sim, plummer, SimConfig};

/// Runs `app`'s program on every backend and requires seqsim's digests, S
/// and H. Each process's digest covers its full output bits (ocean's ψ
/// block, every distance label, every matrix entry), so equal digests mean
/// equal results.
fn assert_identical_on_every_backend(app: App) {
    let p = 4;
    let program = app.program(&prepare(app, app.sweep_size(false)), p);
    let key = |backend| {
        let out = run(&Config::new(p).backend(backend), &*program);
        (out.results, out.stats.s(), out.stats.h_total())
    };
    let want = key(BackendKind::SeqSim);
    for (name, backend) in ALL_BACKENDS {
        assert_eq!(key(backend), want, "{} on {name} diverged", app.name());
    }
}

#[test]
fn mst_identical_on_every_backend() {
    assert_identical_on_every_backend(App::Mst);
}

#[test]
fn sp_identical_on_every_backend() {
    assert_identical_on_every_backend(App::Sp);
}

#[test]
fn msp_identical_on_every_backend() {
    assert_identical_on_every_backend(App::Msp);
}

#[test]
fn ocean_identical_on_every_backend() {
    assert_identical_on_every_backend(App::Ocean);
}

#[test]
fn matmul_identical_on_every_backend() {
    assert_identical_on_every_backend(App::Matmult);
}

#[test]
fn nbody_identical_on_every_backend() {
    assert_identical_on_every_backend(App::Nbody);
    // Migrated bodies are re-sorted by id and remote points by value bits,
    // so every force sum is a pure function of the input: trajectories
    // agree bit for bit. Covered from a balanced start and from a skewed
    // one (processor 0 holds everything), which repartitions and migrates.
    let n = 300;
    let bodies = plummer(n, 9);
    let p = 4;
    let (parts, cuts) = initial_partition(&bodies, p);
    let mut skewed = vec![Vec::new(); p];
    skewed[0] = bodies.clone();
    let cfg = SimConfig {
        iters: 2,
        ..SimConfig::default()
    };
    for (start, rebalances) in [(&parts, false), (&skewed, true)] {
        let mut reference = None;
        for (name, backend) in ALL_BACKENDS {
            let out = run(&Config::new(p).backend(backend), |ctx| {
                nbody_sim(ctx, start[ctx.pid()].clone(), cuts.clone(), n, &cfg)
            });
            assert_eq!(out.results[0].repartitions > 0, rebalances);
            let mut state: Vec<(u32, [u64; 7])> = out
                .results
                .iter()
                .flat_map(|r| &r.bodies)
                .map(|b| {
                    let f = [b.pos.x, b.pos.y, b.pos.z, b.vel.x, b.vel.y, b.vel.z, b.mass];
                    (b.id, f.map(f64::to_bits))
                })
                .collect();
            state.sort_unstable_by_key(|&(id, _)| id);
            assert_eq!(state.len(), n, "{name} lost bodies");
            let mass: f64 = state.iter().map(|(_, f)| f64::from_bits(f[6])).sum();
            assert!((mass - 1.0).abs() < 1e-9, "{name} lost mass");
            assert_eq!(out.stats.s(), 11, "{name}: 2 iterations = 11 supersteps");
            let key = (state, out.stats.s(), out.stats.h_total());
            match &reference {
                None => reference = Some(key),
                Some(r) => assert_eq!(*r, key, "{name} diverged"),
            }
        }
    }
}

#[test]
fn netsim_latency_slows_wall_clock() {
    // The machine emulator must actually inject delay: a high-L emulation
    // takes visibly longer than a low-L one for a superstep-heavy program.
    let prog = |ctx: &mut bsp_repro::green_bsp::Ctx| {
        for _ in 0..50 {
            ctx.send_pkt(
                (ctx.pid() + 1) % ctx.nprocs(),
                bsp_repro::green_bsp::Packet::ZERO,
            );
            ctx.sync();
            while ctx.get_pkt().is_some() {}
        }
    };
    let fast = run(
        &Config::new(2).backend(BackendKind::NetSim(NetSimParams {
            g_us: 0.0,
            l_us: 10.0,
            l_neigh_us: 0.0,
            time_scale: 1.0,
        })),
        prog,
    );
    let slow = run(
        &Config::new(2).backend(BackendKind::NetSim(NetSimParams {
            g_us: 0.0,
            l_us: 3000.0,
            l_neigh_us: 0.0,
            time_scale: 1.0,
        })),
        prog,
    );
    // 50 supersteps × (3000 − 10) µs ≈ 150 ms difference.
    assert!(
        slow.wall.as_secs_f64() > fast.wall.as_secs_f64() + 0.1,
        "expected injected latency: fast {:?}, slow {:?}",
        fast.wall,
        slow.wall
    );
}

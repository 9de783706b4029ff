//! Cross-crate integration: every application must produce identical
//! results and identical algorithmic statistics (`H`, `S`) on every library
//! implementation — the paper's portability claim, verified end to end.

use bsp_repro::graph::{build_locals, geometric_graph, mst_run, partition_kd, sp_run};
use bsp_repro::green_bsp::{run, BackendKind, Config, NetSimParams};
use bsp_repro::matmul::{assemble_blocks, cannon_run, skewed_blocks, Mat};
use bsp_repro::nbody::{initial_partition, nbody_sim, plummer, SimConfig};
use bsp_repro::ocean::{assemble_psi, ocean_run, OceanConfig};

fn backends() -> Vec<BackendKind> {
    vec![
        BackendKind::Shared,
        BackendKind::MsgPass,
        BackendKind::TcpSim,
        BackendKind::SeqSim,
        BackendKind::NetSim(NetSimParams {
            g_us: 0.05,
            l_us: 5.0,
            l_neigh_us: 0.0,
            time_scale: 1.0,
        }),
    ]
}

#[test]
fn mst_identical_on_every_backend() {
    let g = geometric_graph(600, 3);
    let p = 4;
    let owner = partition_kd(&g.pos, p);
    let locals = build_locals(&g, &owner, p);
    let mut reference = None;
    for backend in backends() {
        let out = run(&Config::new(p).backend(backend), |ctx| {
            let r = mst_run(ctx, &locals[ctx.pid()], &owner);
            (r.total_weight.to_bits(), r.total_edges)
        });
        let key = (out.results.clone(), out.stats.s(), out.stats.h_total());
        match &reference {
            None => reference = Some(key),
            Some(r) => assert_eq!(*r, key, "backend {backend:?} diverged"),
        }
    }
}

#[test]
fn sp_identical_on_every_backend() {
    let g = geometric_graph(500, 11);
    let p = 3;
    let owner = partition_kd(&g.pos, p);
    let locals = build_locals(&g, &owner, p);
    let mut reference: Option<Vec<Vec<u64>>> = None;
    for backend in backends() {
        let out = run(&Config::new(p).backend(backend), |ctx| {
            sp_run(ctx, &locals[ctx.pid()], 0, 500)
                .dist
                .iter()
                .map(|d| d.to_bits())
                .collect::<Vec<u64>>()
        });
        match &reference {
            None => reference = Some(out.results),
            Some(r) => assert_eq!(*r, out.results, "backend {backend:?} diverged"),
        }
    }
}

#[test]
fn ocean_identical_on_every_backend() {
    let cfg = OceanConfig {
        steps: 2,
        ..OceanConfig::new(16)
    };
    let p = 4;
    let mut reference: Option<Vec<u64>> = None;
    for backend in backends() {
        let out = run(&Config::new(p).backend(backend), |ctx| ocean_run(ctx, &cfg));
        let psi: Vec<u64> = assemble_psi(&out.results, 16)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        match &reference {
            None => reference = Some(psi),
            Some(r) => assert_eq!(*r, psi, "backend {backend:?} diverged"),
        }
    }
}

#[test]
fn matmul_identical_on_every_backend() {
    let n = 24;
    let p = 4;
    let a = Mat::random(n, n, 5);
    let b = Mat::random(n, n, 6);
    let blocks = skewed_blocks(&a, &b, p);
    let mut reference: Option<Vec<u64>> = None;
    for backend in backends() {
        let out = run(&Config::new(p).backend(backend), |ctx| {
            let (ab, bb) = blocks[ctx.pid()].clone();
            cannon_run(ctx, ab, bb)
        });
        let c: Vec<u64> = assemble_blocks(&out.results, n)
            .data
            .iter()
            .map(|v| v.to_bits())
            .collect();
        match &reference {
            None => reference = Some(c),
            Some(r) => assert_eq!(*r, c, "backend {backend:?} diverged"),
        }
    }
}

#[test]
fn nbody_identical_on_every_backend() {
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
        for backend in backends() {
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
            assert_eq!(state.len(), n, "backend {backend:?} lost bodies");
            let mass: f64 = state.iter().map(|(_, f)| f64::from_bits(f[6])).sum();
            assert!((mass - 1.0).abs() < 1e-9, "backend {backend:?} lost mass");
            assert_eq!(
                out.stats.s(),
                11,
                "backend {backend:?}: 2 iterations = 11 supersteps"
            );
            let key = (state, out.stats.s(), out.stats.h_total());
            match &reference {
                None => reference = Some(key),
                Some(r) => assert_eq!(*r, key, "backend {backend:?} diverged"),
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

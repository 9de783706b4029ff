//! The BSP N-body driver (paper §3.2).
//!
//! Each iteration runs a fixed superstep script, so an iteration costs 5
//! synchronizations (the paper reports `S = 6` for one iteration — 5 syncs
//! plus the trailing force/integration superstep):
//!
//! 1. **bbox/load** — all-gather the local bounding box and body count;
//!    everyone learns the universe box and the load imbalance.
//! 2. **sample** — if the imbalance exceeds the threshold, ship at most
//!    `sample_per_proc` position samples per processor to processor 0
//!    (otherwise an empty superstep keeps the script aligned; the paper
//!    likewise repartitions "only if the load imbalance reaches a certain
//!    threshold").
//! 3. **cuts** — processor 0 rebuilds the ORB cut tree from the samples and
//!    broadcasts the `p − 1` cuts (empty when not repartitioning).
//! 4. **migrate** — bodies whose ORB owner is elsewhere travel there.
//! 5. **essential** — each pair of processors exchanges essential points.
//! 6. **forces** (local, no further communication) — the received points
//!    form a second BH tree; one grouped walk over both trees
//!    ([`Octree::accels`]: one interaction list per group of nearby local
//!    bodies) gives every local force, the terms it evaluated are charged
//!    as `W`, and each body takes one leapfrog kick-drift step.

// Index-based loops below mirror the papers' formulas (loop variables
// participate in index arithmetic); clippy's iterator suggestions obscure them.
#![allow(clippy::needless_range_loop)]

use crate::body::{Aabb, Body, BodyAssembler};
use crate::essential::{essential_points, MassPoint};
use crate::octree::Octree;
use crate::orb::OrbTree;
use crate::vec3::{v3, V3};
use green_bsp::{Ctx, Packet};

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Barnes-Hut opening angle.
    pub theta: f64,
    /// Plummer softening length.
    pub eps: f64,
    /// Time step.
    pub dt: f64,
    /// Number of iterations.
    pub iters: usize,
    /// Repartition when `max_load / ideal_load` exceeds this.
    pub rebalance_threshold: f64,
    /// Sample positions each processor contributes to a repartition.
    pub sample_per_proc: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            theta: 0.5,
            eps: 0.05,
            dt: 0.025,
            iters: 1,
            rebalance_threshold: 1.15,
            sample_per_proc: 256,
        }
    }
}

/// Per-processor outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct SimOut {
    /// Final local bodies (sorted by id).
    pub bodies: Vec<Body>,
    /// Essential points received over the run.
    pub essential_recv: u64,
    /// Bodies that migrated away from this processor.
    pub migrated_out: u64,
    /// Number of repartitions performed.
    pub repartitions: u32,
}

// Superstep-1 field tags.
const F_XLO: u32 = 0;
const F_YLO: u32 = 1;
const F_ZLO: u32 = 2;
const F_XHI: u32 = 3;
const F_YHI: u32 = 4;
const F_ZHI: u32 = 5;
const F_CNT: u32 = 6;

/// Run the simulation. `bodies` is this processor's share of an ORB
/// partition with cut tree `cuts` (see [`crate::orb::initial_partition`]);
/// `global_n` is the total body count.
///
/// Ships body migration and the essential-point exchange on the zero-copy
/// byte lane (one bulk message per destination instead of 7 packets per
/// body / 1 packet per point); see [`nbody_sim_with`] for the legacy
/// packet discipline. Both lanes produce bit-identical trajectories.
pub fn nbody_sim(
    ctx: &mut Ctx,
    bodies: Vec<Body>,
    cuts: OrbTree,
    global_n: usize,
    cfg: &SimConfig,
) -> SimOut {
    nbody_sim_with(ctx, bodies, cuts, global_n, cfg, true)
}

/// [`nbody_sim`] with an explicit transport lane for the migration and
/// essential-point supersteps: `byte_lane = false` keeps the original
/// one-packet-per-field / one-packet-per-point discipline, `true` packs
/// each destination's traffic into one variable-length message. The
/// superstep script, quantization, and results are identical either way.
pub fn nbody_sim_with(
    ctx: &mut Ctx,
    mut bodies: Vec<Body>,
    mut cuts: OrbTree,
    global_n: usize,
    cfg: &SimConfig,
    byte_lane: bool,
) -> SimOut {
    let p = ctx.nprocs();
    assert_eq!(cuts.nparts, p);
    let me = ctx.pid();
    let mut essential_recv = 0u64;
    let mut migrated_out = 0u64;
    let mut repartitions = 0u32;

    // Checkpoint-rollback hooks (DESIGN.md §10): resume from the last
    // consistent iteration snapshot after a detected fault.
    let mut start_iter = 0usize;
    if let Some(blob) = ctx.restore_checkpoint() {
        let st = decode_ckpt(&blob);
        start_iter = st.iter;
        bodies = st.bodies;
        cuts = st.cuts;
        essential_recv = st.essential_recv;
        migrated_out = st.migrated_out;
        repartitions = st.repartitions;
    }

    for iter in start_iter..cfg.iters {
        if ctx.checkpoint_due() {
            ctx.save_checkpoint(&encode_ckpt(
                iter,
                &bodies,
                &cuts,
                essential_recv,
                migrated_out,
                repartitions,
            ));
        }
        // ---- superstep 1: bbox + load all-gather ----
        let mut local = Aabb::EMPTY;
        for b in &bodies {
            local.include(b.pos);
        }
        if local.is_empty() {
            // Degenerate empty part: contribute a neutral point.
            local.include(V3::ZERO);
        }
        let fields = [
            (F_XLO, local.lo.x),
            (F_YLO, local.lo.y),
            (F_ZLO, local.lo.z),
            (F_XHI, local.hi.x),
            (F_YHI, local.hi.y),
            (F_ZHI, local.hi.z),
            (F_CNT, bodies.len() as f64),
        ];
        for dest in 0..p {
            if dest != me {
                for &(f, v) in &fields {
                    ctx.send_pkt(dest, Packet::tag_u32_f64(f, 0, v));
                }
            }
        }
        ctx.sync();
        let mut universe = local;
        let mut max_load = bodies.len() as f64;
        while let Some(pkt) = ctx.get_pkt() {
            let (f, _, v) = pkt.as_tag_u32_f64();
            match f {
                F_XLO => universe.lo.x = universe.lo.x.min(v),
                F_YLO => universe.lo.y = universe.lo.y.min(v),
                F_ZLO => universe.lo.z = universe.lo.z.min(v),
                F_XHI => universe.hi.x = universe.hi.x.max(v),
                F_YHI => universe.hi.y = universe.hi.y.max(v),
                F_ZHI => universe.hi.z = universe.hi.z.max(v),
                F_CNT => max_load = max_load.max(v),
                _ => unreachable!(),
            }
        }
        let ideal = global_n as f64 / p as f64;
        let rebalance = p > 1 && max_load > cfg.rebalance_threshold * ideal;

        // ---- supersteps 2–3: samples to processor 0, cuts back ----
        if rebalance {
            cuts = resample_cuts(ctx, &bodies, cfg.sample_per_proc);
            repartitions += 1;
        } else {
            // Two empty supersteps keep the script aligned.
            ctx.sync();
            ctx.sync();
        }

        // ---- superstep 4: migrate strays to their ORB owners ----
        let mut kept = Vec::with_capacity(bodies.len());
        if byte_lane {
            // One bulk message per destination: 60 bytes per body instead
            // of 7 × 16 packet bytes, and no reassembly map on receipt.
            let mut outgoing: Vec<Vec<Body>> = vec![Vec::new(); p];
            for b in bodies.drain(..) {
                let owner = cuts.owner(b.pos);
                if owner == me {
                    kept.push(b);
                } else {
                    migrated_out += 1;
                    outgoing[owner].push(b);
                }
            }
            for (dest, bs) in outgoing.iter().enumerate() {
                if !bs.is_empty() {
                    let mut w = ctx.msg_writer(dest);
                    for b in bs {
                        crate::body::write_body(&mut w, b);
                    }
                }
            }
        } else {
            for b in bodies.drain(..) {
                let owner = cuts.owner(b.pos);
                if owner == me {
                    kept.push(b);
                } else {
                    migrated_out += 1;
                    for pkt in crate::body::body_to_packets(&b) {
                        ctx.send_pkt(owner, pkt);
                    }
                }
            }
        }
        ctx.sync();
        bodies = kept;
        if byte_lane {
            let mut arrived = Vec::new();
            while let Some((_src, payload)) = ctx.recv_bytes() {
                arrived.extend(crate::body::bodies_from_bytes(payload));
            }
            if !arrived.is_empty() {
                bodies.extend(arrived);
                bodies.sort_unstable_by_key(|b| b.id);
            }
        } else {
            let mut asm = BodyAssembler::default();
            let mut any = false;
            while let Some(pkt) = ctx.get_pkt() {
                asm.push(pkt);
                any = true;
            }
            if any {
                bodies.extend(asm.finish());
                bodies.sort_unstable_by_key(|b| b.id);
            }
        }

        // ---- superstep 5: essential-point exchange ----
        let tree = Octree::build(&bodies);
        let boxes = cuts.boxes(universe);
        for dest in 0..p {
            if dest != me {
                let pts = essential_points(&tree, &boxes[dest], cfg.theta);
                if byte_lane {
                    if !pts.is_empty() {
                        let mut w = ctx.msg_writer(dest);
                        for mp in pts {
                            mp.write_to(&mut w);
                        }
                    }
                } else {
                    for mp in pts {
                        ctx.send_pkt(dest, mp.to_packet());
                    }
                }
            }
        }
        ctx.sync();
        let mut remote: Vec<MassPoint> = Vec::with_capacity(ctx.pkts_remaining());
        if byte_lane {
            while let Some((_src, payload)) = ctx.recv_bytes() {
                assert_eq!(payload.len() % crate::essential::MASS_POINT_BYTES, 0);
                remote.extend(
                    payload
                        .chunks_exact(crate::essential::MASS_POINT_BYTES)
                        .map(MassPoint::from_bytes),
                );
            }
        } else {
            while let Some(pkt) = ctx.get_pkt() {
                remote.push(MassPoint::from_packet(pkt));
            }
        }
        // Remote points arrive by ascending source, each source's in send
        // order, on every backend and both lanes: the remote BH tree — and
        // hence every force sum — is the same on all of them.
        essential_recv += remote.len() as u64;

        // ---- superstep 6 (local): forces + leapfrog kick-drift ----
        // Merge the essential points into a second BH tree, so remote
        // contributions are evaluated hierarchically too — the received
        // points form a locally essential tree, as in Warren-Salmon; a flat
        // direct sum over them would make per-body work grow with p. Each
        // group of nearby local bodies walks both trees once and shares
        // the interaction list.
        let remote_bodies: Vec<Body> = remote
            .iter()
            .map(|mp| Body {
                pos: mp.pos,
                vel: V3::ZERO,
                mass: mp.mass,
                id: u32::MAX,
            })
            .collect();
        let remote_tree = Octree::build(&remote_bodies);
        let (accels, terms) = tree.accels(&[&tree, &remote_tree], cfg.theta, cfg.eps);
        ctx.charge(terms + 20 * (bodies.len() + remote_bodies.len()) as u64);
        drop(tree);
        for (b, a) in bodies.iter_mut().zip(&accels) {
            b.vel += *a * cfg.dt;
            b.pos += b.vel * cfg.dt;
        }
    }

    SimOut {
        bodies,
        essential_recv,
        migrated_out,
        repartitions,
    }
}

/// Supersteps 2–3 of a repartition: every processor ships at most `spp`
/// sample positions to processor 0, which builds the ORB cut tree over
/// the pool and broadcasts its `p − 1` cuts. Returns the new cuts on every
/// processor.
fn resample_cuts(ctx: &mut Ctx, bodies: &[Body], spp: usize) -> OrbTree {
    let p = ctx.nprocs();
    send_samples(ctx, bodies, spp);
    ctx.sync();
    if ctx.pid() == 0 {
        let new_cuts = OrbTree::build(&sample_pool(ctx, spp), p);
        for dest in 0..p {
            for (i, &(axis, coord)) in new_cuts.splits.iter().enumerate() {
                ctx.send_pkt(dest, Packet::tag_u32_f64(i as u32, axis as u32, coord));
            }
        }
    }
    ctx.sync();
    let mut splits = vec![(0u8, 0.0f64); p - 1];
    let mut got = 0;
    while let Some(pkt) = ctx.get_pkt() {
        let (i, axis, coord) = pkt.as_tag_u32_f64();
        splits[i as usize] = (axis as u8, coord);
        got += 1;
    }
    assert_eq!(got, p - 1, "incomplete cut broadcast");
    OrbTree { nparts: p, splits }
}

/// Send an evenly strided sample of at most `spp` body positions to
/// processor 0, one packet per coordinate, keyed `pid·spp + i`. The
/// stride is rounded up so the keys never reach the next processor's.
fn send_samples(ctx: &mut Ctx, bodies: &[Body], spp: usize) {
    let stride = bodies.len().div_ceil(spp).max(1);
    let first = ctx.pid() * spp;
    for (i, b) in bodies.iter().step_by(stride).enumerate() {
        let key = (first + i) as u32;
        ctx.send_pkt(0, Packet::tag_u32_f64(key, 0, b.pos.x));
        ctx.send_pkt(0, Packet::tag_u32_f64(key, 1, b.pos.y));
        ctx.send_pkt(0, Packet::tag_u32_f64(key, 2, b.pos.z));
    }
}

/// Processor 0's sample pool: the complete points of [`send_samples`],
/// in key order, so the ORB cuts are a pure function of the samples
/// whatever order the packets arrived in.
fn sample_pool(ctx: &mut Ctx, spp: usize) -> Vec<V3> {
    let mut slots = vec![([0.0f64; 3], 0u8); ctx.nprocs() * spp];
    while let Some(pkt) = ctx.get_pkt() {
        let (key, axis, v) = pkt.as_tag_u32_f64();
        let slot = &mut slots[key as usize];
        slot.0[axis as usize] = v;
        slot.1 |= 1 << axis;
    }
    slots
        .iter()
        .filter(|(_, mask)| *mask == 0b111)
        .map(|(c, _)| v3(c[0], c[1], c[2]))
        .collect()
}

/// Decoded checkpoint state (see [`encode_ckpt`]).
struct CkptState {
    iter: usize,
    bodies: Vec<Body>,
    cuts: OrbTree,
    essential_recv: u64,
    migrated_out: u64,
    repartitions: u32,
}

/// Serialize the per-processor simulation state (iteration index, local
/// bodies, current ORB cuts, counters) for checkpoint rollback.
fn encode_ckpt(
    iter: usize,
    bodies: &[Body],
    cuts: &OrbTree,
    essential_recv: u64,
    migrated_out: u64,
    repartitions: u32,
) -> Vec<u8> {
    let mut v = Vec::with_capacity(48 + 16 * cuts.splits.len() + 60 * bodies.len());
    for w in [
        iter as u64,
        essential_recv,
        migrated_out,
        u64::from(repartitions),
        cuts.nparts as u64,
        cuts.splits.len() as u64,
    ] {
        v.extend_from_slice(&w.to_le_bytes());
    }
    for &(axis, coord) in &cuts.splits {
        v.extend_from_slice(&u64::from(axis).to_le_bytes());
        v.extend_from_slice(&coord.to_bits().to_le_bytes());
    }
    for b in bodies {
        v.extend_from_slice(&u64::from(b.id).to_le_bytes());
        for x in [b.pos.x, b.pos.y, b.pos.z, b.vel.x, b.vel.y, b.vel.z, b.mass] {
            v.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    v
}

fn decode_ckpt(b: &[u8]) -> CkptState {
    let word = |i: usize| u64::from_le_bytes(b[8 * i..8 * i + 8].try_into().unwrap());
    let f = |i: usize| f64::from_bits(word(i));
    let nsplits = word(5) as usize;
    let splits = (0..nsplits)
        .map(|k| (word(6 + 2 * k) as u8, f(7 + 2 * k)))
        .collect();
    let mut bodies = Vec::new();
    let mut i = 6 + 2 * nsplits;
    while 8 * i < b.len() {
        bodies.push(Body {
            id: word(i) as u32,
            pos: v3(f(i + 1), f(i + 2), f(i + 3)),
            vel: v3(f(i + 4), f(i + 5), f(i + 6)),
            mass: f(i + 7),
        });
        i += 8;
    }
    CkptState {
        iter: word(0) as usize,
        bodies,
        cuts: OrbTree {
            nparts: word(4) as usize,
            splits,
        },
        essential_recv: word(1),
        migrated_out: word(2),
        repartitions: word(3) as u32,
    }
}

/// One sequential Barnes-Hut step over all bodies (kick-drift), the
/// 1-processor baseline.
pub fn sequential_step(bodies: &mut [Body], cfg: &SimConfig) {
    let accels = {
        let tree = Octree::build(bodies);
        tree.accels(&[&tree], cfg.theta, cfg.eps).0
    };
    for (b, a) in bodies.iter_mut().zip(&accels) {
        b.vel += *a * cfg.dt;
        b.pos += b.vel * cfg.dt;
    }
}

/// Total energy (kinetic + BH-approximated potential) — a conservation
/// diagnostic for tests and examples.
pub fn total_energy(bodies: &[Body], theta: f64, eps: f64) -> f64 {
    let tree = Octree::build(bodies);
    let mut e = 0.0;
    for b in bodies {
        e += 0.5 * b.mass * b.vel.norm2();
        e += 0.5 * b.mass * tree.potential(b.pos, b.id, theta, eps);
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orb::initial_partition;
    use crate::plummer::plummer;
    use green_bsp::{run, Config};

    fn run_parallel(n: usize, p: usize, cfg: &SimConfig, seed: u64) -> (Vec<Body>, Vec<SimOut>) {
        let bodies = plummer(n, seed);
        let (parts, cuts) = initial_partition(&bodies, p);
        let out = run(&Config::new(p), |ctx| {
            nbody_sim(ctx, parts[ctx.pid()].clone(), cuts.clone(), n, cfg)
        });
        let mut all: Vec<Body> = out
            .results
            .iter()
            .flat_map(|r| r.bodies.iter().copied())
            .collect();
        all.sort_unstable_by_key(|b| b.id);
        (all, out.results)
    }

    #[test]
    fn parallel_tracks_sequential_bh() {
        let n = 600;
        let cfg = SimConfig {
            iters: 2,
            ..SimConfig::default()
        };
        let mut seq = plummer(n, 3);
        for _ in 0..cfg.iters {
            sequential_step(&mut seq, &cfg);
        }
        for p in [1usize, 2, 4] {
            let (par, _) = run_parallel(n, p, &cfg, 3);
            assert_eq!(par.len(), n, "p={p}: body count conserved");
            // Positions agree with the sequential BH evolution to within
            // the f32 essential-point quantization and MAC differences.
            let mut worst: f64 = 0.0;
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.id, b.id);
                worst = worst.max((a.pos - b.pos).norm());
            }
            assert!(worst < 5e-4, "p={p}: worst position deviation {worst}");
        }
    }

    #[test]
    fn superstep_count_matches_paper_structure() {
        // One iteration = 5 syncs + the trailing compute superstep = 6,
        // exactly Figure C.4's S for the parallel runs.
        let n = 200;
        let bodies = plummer(n, 1);
        for p in [2usize, 4] {
            let (parts, cuts) = initial_partition(&bodies, p);
            let out = run(&Config::new(p), |ctx| {
                nbody_sim(
                    ctx,
                    parts[ctx.pid()].clone(),
                    cuts.clone(),
                    n,
                    &SimConfig::default(),
                )
            });
            assert_eq!(out.stats.s(), 6, "p={p}");
        }
    }

    #[test]
    fn mass_and_bodies_conserved_over_many_iters() {
        let n = 400;
        let cfg = SimConfig {
            iters: 5,
            ..SimConfig::default()
        };
        let (par, outs) = run_parallel(n, 4, &cfg, 7);
        assert_eq!(par.len(), n);
        let ids: Vec<u32> = par.iter().map(|b| b.id).collect();
        assert_eq!(
            ids,
            (0..n as u32).collect::<Vec<_>>(),
            "no body lost or duplicated"
        );
        let mass: f64 = par.iter().map(|b| b.mass).sum();
        assert!((mass - 1.0).abs() < 1e-9);
        let _ = outs;
    }

    #[test]
    fn energy_is_approximately_conserved() {
        let n = 500;
        let cfg = SimConfig {
            iters: 8,
            dt: 0.01,
            ..SimConfig::default()
        };
        let before = total_energy(&plummer(n, 11), cfg.theta, cfg.eps);
        let (par, _) = run_parallel(n, 4, &cfg, 11);
        let after = total_energy(&par, cfg.theta, cfg.eps);
        let drift = (after - before).abs() / before.abs();
        assert!(drift < 0.05, "energy drift {drift} ({before} -> {after})");
    }

    #[test]
    fn lanes_produce_identical_trajectories() {
        // The byte-lane and packet-lane simulations must agree bit for bit:
        // same f32 essential-point quantization, same deterministic
        // ordering of remote points and migrated bodies.
        let n = 400;
        let cfg = SimConfig {
            iters: 3,
            ..SimConfig::default()
        };
        let bodies = plummer(n, 17);
        for p in [2usize, 4] {
            let (parts, cuts) = initial_partition(&bodies, p);
            let run_lane = |byte_lane: bool| {
                run(&Config::new(p), |ctx| {
                    nbody_sim_with(
                        ctx,
                        parts[ctx.pid()].clone(),
                        cuts.clone(),
                        n,
                        &cfg,
                        byte_lane,
                    )
                })
            };
            let bytes = run_lane(true);
            let pkts = run_lane(false);
            for (a, b) in bytes.results.iter().zip(&pkts.results) {
                assert_eq!(a.bodies, b.bodies, "p={p}");
                assert_eq!(a.essential_recv, b.essential_recv, "p={p}");
                assert_eq!(a.migrated_out, b.migrated_out, "p={p}");
            }
            assert!(bytes.stats.h_bytes_total() > 0, "byte lane unused");
            assert_eq!(pkts.stats.h_bytes_total(), 0);
            // Bulk records beat 16-byte fragmentation on wire volume.
            assert!(
                bytes.stats.h_bytes_total() < 16 * (pkts.stats.h_total() - bytes.stats.h_total()),
                "byte lane should move fewer wire bytes than the packets it replaced"
            );
        }
    }

    #[test]
    fn rebalancing_triggers_on_skewed_load() {
        // Force a skewed initial partition by giving processor 0 everything:
        // the first iteration must repartition and migrate bodies.
        let n = 300;
        let bodies = plummer(n, 5);
        let (_, cuts) = initial_partition(&bodies, 2);
        let cfg = SimConfig {
            iters: 2,
            ..SimConfig::default()
        };
        let out = run(&Config::new(2), |ctx| {
            let mine = if ctx.pid() == 0 {
                bodies.clone()
            } else {
                Vec::new()
            };
            nbody_sim(ctx, mine, cuts.clone(), n, &cfg)
        });
        assert!(out.results[0].repartitions >= 1);
        assert!(out.results[0].migrated_out > 0);
        let total: usize = out.results.iter().map(|r| r.bodies.len()).sum();
        assert_eq!(total, n);
        // After rebalancing, the load is reasonably even.
        for r in &out.results {
            assert!(r.bodies.len() > n / 4, "still skewed: {}", r.bodies.len());
        }
    }

    #[test]
    fn one_process_equals_sequential_step_bit_for_bit() {
        let n = 700;
        let cfg = SimConfig {
            iters: 3,
            ..SimConfig::default()
        };
        let mut seq = plummer(n, 19);
        for _ in 0..cfg.iters {
            sequential_step(&mut seq, &cfg);
        }
        let (par, _) = run_parallel(n, 1, &cfg, 19);
        let bits = |bs: &[Body]| -> Vec<(u32, [u64; 7])> {
            bs.iter()
                .map(|b| {
                    let f = [b.pos.x, b.pos.y, b.pos.z, b.vel.x, b.vel.y, b.vel.z, b.mass];
                    (b.id, f.map(f64::to_bits))
                })
                .collect()
        };
        assert_eq!(bits(&par), bits(&seq));
    }

    /// A skewed p = 3 start in which every processor holds more than
    /// `spp` bodies, and processor 0 so many that a rounded-down stride
    /// would make it send more than `spp` samples (8 000 / 256 → 31 → 259).
    fn skewed_parts(spp: usize) -> Vec<Vec<Body>> {
        let bodies = plummer(8_000 + 1_000 + 300, 23);
        let parts = vec![
            bodies[..8_000].to_vec(),
            bodies[8_000..9_000].to_vec(),
            bodies[9_000..].to_vec(),
        ];
        assert!(parts.iter().all(|part| part.len() > spp));
        parts
    }

    /// What [`send_samples`] means to send: each processor's strided
    /// positions, at most `spp` of them, in processor order.
    fn intended_pool(parts: &[Vec<Body>], spp: usize) -> Vec<V3> {
        parts
            .iter()
            .flat_map(|part| {
                let stride = part.len().div_ceil(spp);
                let sample: Vec<V3> = part.iter().step_by(stride).map(|b| b.pos).collect();
                assert!(sample.len() <= spp && sample.len() > spp / 2);
                sample
            })
            .collect()
    }

    #[test]
    fn sample_pool_holds_exactly_the_intended_points() {
        let spp = SimConfig::default().sample_per_proc;
        let parts = skewed_parts(spp);
        let out = run(&Config::new(3), |ctx| {
            send_samples(ctx, &parts[ctx.pid()], spp);
            ctx.sync();
            if ctx.pid() == 0 {
                sample_pool(ctx, spp)
            } else {
                Vec::new()
            }
        });
        assert_eq!(out.results[0], intended_pool(&parts, spp));
    }

    #[test]
    fn resampled_cuts_are_the_orb_of_the_pool() {
        let spp = SimConfig::default().sample_per_proc;
        let parts = skewed_parts(spp);
        let want = OrbTree::build(&intended_pool(&parts, spp), 3);
        let out = run(&Config::new(3), |ctx| {
            resample_cuts(ctx, &parts[ctx.pid()], spp)
        });
        for cuts in &out.results {
            assert_eq!(*cuts, want);
        }
        assert_eq!(out.stats.s(), 3);
    }
}

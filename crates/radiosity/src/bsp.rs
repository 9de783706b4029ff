//! The BSP-parallel hierarchical radiosity solver.
//!
//! Patches are dealt round-robin; geometry is replicated (trees are
//! complete, so node geometry follows from the patch id alone) and only
//! radiosity values travel. Each processor refines the links whose
//! *receiver* it owns, subscribes once to the remote source nodes those
//! links reference, and then every iteration costs exactly one superstep:
//! owners push the subscribed nodes' current radiosities, receivers gather
//! and push-pull. Gathering is Jacobi-style exactly as in the sequential
//! solver, so the parallel run computes bit-identical radiosities.

use crate::hier::{refine, Link};
use crate::patchtree::PatchTree;
use crate::scene::Scene;
use green_bsp::{Ctx, Packet};
use std::collections::HashMap;

const TAG_SHIFT: u32 = 28;
const ID_MASK: u32 = (1 << TAG_SHIFT) - 1;
const T_SUB: u32 = 0;
const T_BVAL: u32 = 1;

/// Owner of a patch.
pub fn owner_of(patch: u32, nprocs: usize) -> usize {
    patch as usize % nprocs
}

/// Solve on the calling BSP process; returns the trees of the patches this
/// process owns, as `(patch index, tree)` pairs.
pub fn solve_bsp(
    ctx: &mut Ctx,
    scene: &Scene,
    depth: u32,
    f_eps: f64,
    iters: usize,
) -> Vec<(u32, PatchTree)> {
    let p = ctx.nprocs();
    let me = ctx.pid();
    let npatch = scene.patches.len() as u32;

    // Trees for every patch (geometry + scratch); only owned trees carry
    // authoritative radiosity.
    let mut trees: Vec<PatchTree> = scene
        .patches
        .iter()
        .map(|&pt| PatchTree::new(pt, depth))
        .collect();

    // Refine the links for my receiving patches, in the sequential build
    // order (dst-major, then src) so gather sums associate identically.
    let mut links: Vec<Link> = Vec::new();
    for dp in 0..npatch {
        if owner_of(dp, p) != me {
            continue;
        }
        for sp in 0..npatch {
            if sp != dp {
                refine(&trees, dp, sp, f_eps, &mut links);
            }
        }
    }

    // Subscribe to remote source nodes (once).
    for (sp, sn) in needed_nodes(&links, p, me) {
        ctx.send_pkt(
            owner_of(sp, p),
            Packet::tag_u32_f64((T_SUB << TAG_SHIFT) | sp, sn, me as f64),
        );
    }
    ctx.sync();
    let mut requests = Vec::with_capacity(ctx.pkts_remaining());
    while let Some(pkt) = ctx.get_pkt() {
        let (tk, node, who) = pkt.as_tag_u32_f64();
        debug_assert_eq!(tk >> TAG_SHIFT, T_SUB);
        requests.push(((tk & ID_MASK, node), who as usize));
    }
    let subscribers = group_subscribers(requests);

    // Iterate: push subscribed values, gather, push-pull.
    let mut remote_b: HashMap<(u32, u32), f64> = HashMap::new();
    for _ in 0..iters {
        for &((sp, sn), ref subs) in &subscribers {
            let v = trees[sp as usize].b[sn as usize];
            for &dest in subs {
                ctx.send_pkt(dest, Packet::tag_u32_f64((T_BVAL << TAG_SHIFT) | sp, sn, v));
            }
        }
        ctx.sync();
        while let Some(pkt) = ctx.get_pkt() {
            let (tk, node, v) = pkt.as_tag_u32_f64();
            debug_assert_eq!(tk >> TAG_SHIFT, T_BVAL);
            remote_b.insert((tk & ID_MASK, node), v);
        }
        for l in &links {
            let src_b = if owner_of(l.src_patch, p) == me {
                trees[l.src_patch as usize].b[l.src_node as usize]
            } else {
                remote_b[&(l.src_patch, l.src_node)]
            };
            let dt = &mut trees[l.dst_patch as usize];
            dt.gather[l.dst_node as usize] += dt.patch.reflectance * l.f * src_b;
        }
        ctx.charge(links.len() as u64);
        for dp in 0..npatch {
            if owner_of(dp, p) == me {
                trees[dp as usize].push_pull();
            }
        }
    }

    trees
        .into_iter()
        .enumerate()
        .filter(|(i, _)| owner_of(*i as u32, p) == me)
        .map(|(i, t)| (i as u32, t))
        .collect()
}

/// The remote source nodes `me`'s links read, once each, ascending by
/// `(patch, node)`: the order its subscriptions are sent in.
fn needed_nodes(links: &[Link], p: usize, me: usize) -> Vec<(u32, u32)> {
    let mut needed: Vec<(u32, u32)> = (links.iter())
        .filter(|l| owner_of(l.src_patch, p) != me)
        .map(|l| (l.src_patch, l.src_node))
        .collect();
    needed.sort_unstable();
    needed.dedup();
    needed
}

/// Subscription requests `((patch, node), subscriber)` grouped by node,
/// nodes ascending and each node's subscribers ascending: the order every
/// iteration's pushes are sent in.
fn group_subscribers(mut requests: Vec<((u32, u32), usize)>) -> Vec<((u32, u32), Vec<usize>)> {
    requests.sort_unstable();
    let mut groups: Vec<((u32, u32), Vec<usize>)> = Vec::new();
    for (node, who) in requests {
        match groups.last_mut() {
            Some((last, subs)) if *last == node => subs.push(who),
            _ => groups.push((node, vec![who])),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hier::{solve_seq, total_power};
    use crate::scene::open_box;
    use green_bsp::{run, Config};

    fn run_parallel(
        scene: &Scene,
        depth: u32,
        f_eps: f64,
        iters: usize,
        p: usize,
    ) -> Vec<PatchTree> {
        let out = run(&Config::new(p), |ctx| {
            solve_bsp(ctx, scene, depth, f_eps, iters)
        });
        let mut trees: Vec<Option<PatchTree>> = vec![None; scene.patches.len()];
        for r in out.results {
            for (i, t) in r {
                trees[i as usize] = Some(t);
            }
        }
        trees.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn subscriptions_and_pushes_go_out_in_one_sorted_order() {
        // The send orders are functions of the links alone: two calls
        // agree, and both are sorted (two hash sets holding the same
        // nodes iterate them in different orders).
        let scene = open_box(1.0, 0.6);
        let trees: Vec<PatchTree> = (scene.patches.iter())
            .map(|&pt| PatchTree::new(pt, 2))
            .collect();
        let npatch = scene.patches.len() as u32;
        for p in [2usize, 3, 4] {
            let mut requests = Vec::new();
            for me in 0..p {
                let mut links = Vec::new();
                for dp in (0..npatch).filter(|&dp| owner_of(dp, p) == me) {
                    for sp in (0..npatch).filter(|&sp| sp != dp) {
                        refine(&trees, dp, sp, 0.04, &mut links);
                    }
                }
                let needed = needed_nodes(&links, p, me);
                assert!(!needed.is_empty(), "p={p}: proc {me} subscribes to nothing");
                assert!(needed.windows(2).all(|w| w[0] < w[1]), "p={p}");
                assert_eq!(needed, needed_nodes(&links, p, me), "p={p}");
                requests.extend(needed.into_iter().map(|node| (node, me)));
            }
            let groups = group_subscribers(requests.clone());
            requests.reverse();
            assert_eq!(groups, group_subscribers(requests), "p={p}");
            assert!(groups.windows(2).all(|w| w[0].0 < w[1].0), "p={p}");
            assert!(groups
                .iter()
                .all(|(_, subs)| subs.windows(2).all(|w| w[0] < w[1])));
        }
    }

    #[test]
    fn parallel_is_bitwise_equal_to_sequential() {
        let scene = open_box(1.0, 0.6);
        let seq = solve_seq(&scene, 2, 0.04, 10);
        for p in [1usize, 2, 3, 4] {
            let par = run_parallel(&scene, 2, 0.04, 10, p);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.b, b.b, "p={p}: radiosities must be identical");
            }
        }
    }

    #[test]
    fn box_light_illuminates_the_floor() {
        let scene = open_box(1.0, 0.5);
        let trees = run_parallel(&scene, 2, 0.03, 20, 2);
        let floor = &trees[0];
        assert!(floor.patch.emission == 0.0);
        assert!(floor.b[0] > 0.05, "floor radiosity {:.4}", floor.b[0]);
        // Ceiling (the light) outshines everything.
        let ceiling = &trees[1];
        for (i, t) in trees.iter().enumerate() {
            if i != 1 {
                assert!(t.b[0] < ceiling.b[0]);
            }
        }
        // Walls are lit about equally by symmetry.
        let w: Vec<f64> = (2..6).map(|i| trees[i].b[0]).collect();
        for pair in w.windows(2) {
            assert!((pair[0] - pair[1]).abs() < 1e-9, "wall asymmetry {w:?}");
        }
    }

    #[test]
    fn superstep_count_is_setup_plus_one_per_iteration() {
        let scene = open_box(1.0, 0.5);
        let iters = 7;
        let out = run(&Config::new(3), |ctx| {
            solve_bsp(ctx, &scene, 1, 0.05, iters).len()
        });
        assert_eq!(out.stats.s(), 1 + iters as u64 + 1);
    }

    #[test]
    fn power_matches_sequential_total() {
        let scene = open_box(2.0, 0.7);
        let seq_p = total_power(&solve_seq(&scene, 2, 0.03, 25));
        let par = run_parallel(&scene, 2, 0.03, 25, 4);
        let par_p: f64 = par.iter().map(|t| t.power()).sum();
        assert!((seq_p - par_p).abs() < 1e-9 * seq_p.max(1.0));
    }
}

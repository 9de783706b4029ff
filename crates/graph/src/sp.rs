//! Single-source shortest paths with the *work factor* technique (paper §3.4).
//!
//! Each processor keeps a priority queue over its home nodes. The naive
//! parallelization of Dijkstra — run the local queue dry, exchange border
//! updates, repeat — "works poorly", so the paper lets a processor end its
//! superstep after a bounded amount of local work (the *work factor*),
//! which improves both load balance and convergence. The right work factor
//! grows with the machine's latency `L`; the paper picked one value for all
//! platforms, and so do we (it is a parameter, swept by the ablation bench).
//!
//! Distance labels are tentative (label-correcting): a popped node may be
//! re-relaxed later if a shorter path arrives from another processor. On
//! termination every label equals the true Dijkstra distance.
//!
//! Termination detection: each processor appends `p − 1` status packets to
//! its superstep traffic carrying `remaining queue length + updates sent`;
//! when the global sum for a superstep is zero, no work remains and no
//! messages are in flight, so everyone stops — in lockstep, since all
//! processors compute the same sum.

use crate::partition::LocalGraph;
use crate::util::heap_key;
use green_bsp::{Ctx, Packet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The work factor used for the paper-style experiments: maximum non-stale
/// queue pops per processor per superstep. Small factors are the paper's
/// load-balancing lever ("this may lead to both better load balancing and
/// quicker convergence"): with 200, the 40k-node graph at 16 processors
/// runs in the paper's regime (S ≈ 50–100, work depth ~5× below the
/// 1-processor work), while the extra supersteps at p = 1 cost only
/// `L·S ≈ a millisecond` on every machine of Figure 2.1.
pub const DEFAULT_WORK_FACTOR: usize = 200;

/// Result of a distributed SSSP run on one processor.
#[derive(Clone, Debug)]
pub struct SpResult {
    /// Distance labels of this processor's home nodes, indexed like
    /// [`LocalGraph::home`].
    pub dist: Vec<f64>,
    /// Non-stale priority-queue pops performed here (the local work).
    pub pops: u64,
    /// Edge relaxations performed here.
    pub relaxations: u64,
}

const TAG_SHIFT: u32 = 28;
const ID_MASK: u32 = (1 << TAG_SHIFT) - 1;
const T_UPD: u32 = 0;
const T_STAT: u32 = 1;

#[inline]
fn pk(tag: u32, id: u32, aux: u32, val: f64) -> Packet {
    debug_assert!(id <= ID_MASK);
    Packet::tag_u32_f64((tag << TAG_SHIFT) | id, aux, val)
}

#[inline]
fn unpk(p: Packet) -> (u32, u32, u32, f64) {
    let (t, aux, val) = p.as_tag_u32_f64();
    (t >> TAG_SHIFT, t & ID_MASK, aux, val)
}

/// Run distributed SSSP from global node `source`. All processors must call
/// this with their own [`LocalGraph`] of the same partition.
pub fn sp_run(ctx: &mut Ctx, lg: &LocalGraph, source: u32, work_factor: usize) -> SpResult {
    assert!(work_factor > 0);
    assert!(lg.n_global <= 1 << TAG_SHIFT, "node ids need over 28 bits");
    let nh = lg.n_home();
    let mut dist = vec![f64::INFINITY; nh];
    let mut border_cache = vec![f64::INFINITY; lg.border_gid.len()];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut pops = 0u64;
    let mut relaxations = 0u64;
    // Border indices improved this superstep, in first-improvement order;
    // `queued[bi]` is the superstep that last queued `bi`.
    let mut dirty: Vec<u32> = Vec::new();
    let mut queued = vec![0u32; lg.border_gid.len()];
    let mut step = 0u32;

    if let Some(lid) = lg.lid(source) {
        if lg.is_home(lid) {
            dist[lid as usize] = 0.0;
            heap.push(heap_key(0.0, lid));
        }
    }

    loop {
        // Local Dijkstra work, bounded by the work factor.
        let relax_before = relaxations;
        step += 1;
        dirty.clear();
        let mut budget = work_factor;
        while budget > 0 {
            let Some(Reverse((bits, u))) = heap.pop() else {
                break;
            };
            let d = f64::from_bits(bits);
            if d > dist[u as usize] {
                continue; // stale entry: free to discard
            }
            budget -= 1;
            pops += 1;
            for &(v, w) in lg.neighbors(u) {
                relaxations += 1;
                let nd = d + w;
                if lg.is_home(v) {
                    if nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        heap.push(heap_key(nd, v));
                    }
                } else {
                    let bi = v as usize - nh;
                    if nd < border_cache[bi] {
                        border_cache[bi] = nd;
                        if queued[bi] != step {
                            queued[bi] = step;
                            dirty.push(bi as u32);
                        }
                    }
                }
            }
        }
        ctx.charge(relaxations - relax_before);

        // Ship the improved border labels to their owners.
        let sent = dirty.len() as u64;
        for &bi in &dirty {
            let bi = bi as usize;
            let owner = lg.border_owner[bi] as usize;
            ctx.send_pkt(owner, pk(T_UPD, lg.border_gid[bi], 0, border_cache[bi]));
        }
        // Status: my remaining work after this superstep.
        let active = heap.len() as u64 + sent;
        for dest in 0..ctx.nprocs() {
            if dest != ctx.pid() {
                ctx.send_pkt(dest, pk(T_STAT, active.min(ID_MASK as u64) as u32, 0, 0.0));
            }
        }
        ctx.sync();

        let mut global_active = active;
        while let Some(pkt) = ctx.get_pkt() {
            let (tag, id, _, val) = unpk(pkt);
            match tag {
                T_STAT => global_active += id as u64,
                T_UPD => {
                    let lid = lg.lid(id).expect("update for a node we do not own");
                    debug_assert!(lg.is_home(lid));
                    if val < dist[lid as usize] {
                        dist[lid as usize] = val;
                        heap.push(heap_key(val, lid));
                    }
                }
                _ => unreachable!("unexpected tag {tag}"),
            }
        }
        if global_active == 0 {
            break;
        }
    }

    SpResult {
        dist,
        pops,
        relaxations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::geometric_graph;
    use crate::partition::{build_locals, partition_kd};
    use crate::seq::dijkstra;
    use green_bsp::{run, Config};

    fn check(n: usize, seed: u64, p: usize, wf: usize) {
        let g = geometric_graph(n, seed);
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let source = (n / 3) as u32;
        let expect = dijkstra(&g, source);
        let out = run(&Config::new(p), |ctx| {
            sp_run(ctx, &locals[ctx.pid()], source, wf)
        });
        for (pid, r) in out.results.iter().enumerate() {
            for (h, &d) in r.dist.iter().enumerate() {
                let gid = locals[pid].home[h];
                assert_eq!(
                    d.to_bits(),
                    expect[gid as usize].to_bits(),
                    "n={n} p={p} wf={wf} node {gid}: {d} vs {}",
                    expect[gid as usize]
                );
            }
        }
    }

    #[test]
    fn matches_dijkstra_small() {
        for p in [1, 2, 3, 4] {
            check(150, 3, p, 50);
        }
    }

    #[test]
    fn matches_dijkstra_medium() {
        for p in [1, 2, 4, 8] {
            check(900, 11, p, DEFAULT_WORK_FACTOR);
        }
    }

    #[test]
    fn work_factor_does_not_change_answers() {
        // Any work factor gives the same fixed point; only S changes.
        for wf in [1, 7, 100, 100_000] {
            check(300, 19, 3, wf);
        }
    }

    #[test]
    fn smaller_work_factor_means_more_supersteps() {
        let g = geometric_graph(600, 29);
        let p = 4;
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let s_of = |wf: usize| {
            run(&Config::new(p), |ctx| {
                sp_run(ctx, &locals[ctx.pid()], 0, wf)
            })
            .stats
            .s()
        };
        let s_small = s_of(10);
        let s_large = s_of(10_000);
        assert!(
            s_small > s_large,
            "wf=10 gave S={s_small}, wf=10000 gave S={s_large}"
        );
    }

    #[test]
    fn unreachable_stays_infinite() {
        // A 1-node "graph" has only the source; other procs hold nothing.
        let g = geometric_graph(1, 1);
        let owner = partition_kd(&g.pos, 2);
        let locals = build_locals(&g, &owner, 2);
        let out = run(&Config::new(2), |ctx| {
            sp_run(ctx, &locals[ctx.pid()], 0, 10)
        });
        let all: Vec<f64> = out.results.iter().flat_map(|r| r.dist.clone()).collect();
        assert_eq!(all, vec![0.0]);
    }

    #[test]
    fn conservative_message_bound() {
        let g = geometric_graph(1200, 41);
        let p = 4;
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let max_border = locals.iter().map(|l| l.border_gid.len()).max().unwrap() as u64;
        let out = run(&Config::new(p), |ctx| {
            sp_run(ctx, &locals[ctx.pid()], 7, DEFAULT_WORK_FACTOR)
        });
        for step in &out.stats.steps {
            assert!(
                step.max_sent <= max_border + p as u64,
                "sent {} exceeds border bound {}",
                step.max_sent,
                max_border + p as u64
            );
        }
    }
}

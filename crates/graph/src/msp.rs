//! Multiple simultaneous shortest paths (paper §3.5).
//!
//! Many shortest-path trees are computed at once over the same read-only
//! graph: the use cases the paper names are all-pairs subsets, the global
//! routing phase in VLSI layout, and graph partitioning heuristics. The
//! graph itself takes Ω(|E| + |V|) storage while each computation adds only
//! O(|V|) read-write state, so amortizing the graph across K instances is
//! nearly free — and the per-superstep latency cost is shared by all K
//! trees, which is why the paper's MSP speed-ups on the high-latency PC LAN
//! are so much better than single-source SP.
//!
//! [`crate::sp`] is this kernel with one source: `sp_run` calls
//! [`msp_run`] with one instance, so single-source and multi-source runs send
//! the same packets in the same order and share every line of the loop.
//!
//! Each instance runs the work-factor Dijkstra of §3.4, round-robin over
//! instances with the same per-instance work factor. Distance labels are
//! tentative (label-correcting): a popped node may be re-relaxed later if a
//! shorter path arrives from another processor. On termination every label
//! equals the true Dijkstra distance.
//!
//! Termination detection: each processor appends `p − 1` status packets to
//! its superstep traffic carrying `remaining queue length + updates sent`;
//! when the global sum for a superstep is zero, no work remains and no
//! messages are in flight, so everyone stops — in lockstep, since all
//! processors compute the same sum.

// Index-based loops below mirror the papers' formulas (loop variables
// participate in index arithmetic); clippy's iterator suggestions obscure them.
#![allow(clippy::needless_range_loop)]

use crate::partition::LocalGraph;
use crate::util::heap_key;
use green_bsp::{Ctx, Packet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a distributed multi-source run on one processor.
#[derive(Clone, Debug)]
pub struct MspResult {
    /// `dist[k]` holds instance `k`'s labels for this processor's home
    /// nodes, indexed like [`LocalGraph::home`].
    pub dist: Vec<Vec<f64>>,
    /// Non-stale pops performed here, over all instances.
    pub pops: u64,
    /// Edge relaxations performed here, over all instances.
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

/// Run K simultaneous SSSP computations (one per entry of `sources`) with
/// the given per-instance work factor. All processors must call this with
/// their own [`LocalGraph`] of the same partition.
pub fn msp_run(ctx: &mut Ctx, lg: &LocalGraph, sources: &[u32], work_factor: usize) -> MspResult {
    assert!(work_factor > 0);
    assert!(lg.n_global <= 1 << TAG_SHIFT, "node ids need over 28 bits");
    let k = sources.len();
    assert!(k <= u16::MAX as usize, "too many instances");
    let nh = lg.n_home();
    let nb = lg.border_gid.len();
    // Read-write state per instance: three integers and one double per node
    // in the paper; here one label table indexed by local id (the home
    // distances, then the border cache), a superstep stamp per border node,
    // and a heap.
    let mut label: Vec<Vec<f64>> = vec![vec![f64::INFINITY; nh + nb]; k];
    let mut heaps: Vec<BinaryHeap<Reverse<u128>>> = (0..k).map(|_| BinaryHeap::new()).collect();
    let mut pops = 0u64;
    let mut relaxations = 0u64;
    // `(instance, border index)` pairs improved this superstep, in
    // first-improvement order; `queued[inst][bi]` is the superstep that last
    // queued the pair.
    let mut dirty: Vec<(u16, u32)> = Vec::new();
    let mut queued: Vec<Vec<u32>> = vec![vec![0u32; nb]; k];
    let mut step = 0u32;
    // The improvements `(v, label)` of the row being relaxed, in row order.
    let max_degree = (0..nh as u32).map(|u| lg.neighbors(u).len()).max();
    let mut staged = vec![(0u32, 0.0f64); max_degree.unwrap_or(0)];

    for (inst, &s) in sources.iter().enumerate() {
        if let Some(lid) = lg.lid(s) {
            if lg.is_home(lid) {
                label[inst][lid as usize] = 0.0;
                heaps[inst].push(heap_key(0.0, lid));
            }
        }
    }

    loop {
        // Local Dijkstra work, bounded by the work factor per instance.
        let relax_before = relaxations;
        step += 1;
        dirty.clear();
        for inst in 0..k {
            let mut budget = work_factor;
            let lab = &mut label[inst][..];
            let q_inst = &mut queued[inst];
            let heap = &mut heaps[inst];
            while budget > 0 {
                let Some(Reverse(key)) = heap.pop() else {
                    break;
                };
                let (d, u) = (f64::from_bits((key >> 32) as u64), key as u32);
                if d > lab[u as usize] {
                    continue; // stale entry: free to discard
                }
                budget -= 1;
                pops += 1;
                let row = lg.neighbors(u);
                relaxations += row.len() as u64;
                // Relax the whole row without a branch on the outcome: every
                // entry is written to the next staging slot, and only an
                // improvement advances the index past it.
                let mut improved = 0;
                for &(v, w) in row {
                    let nd = d + w;
                    let old = lab[v as usize];
                    let better = nd < old;
                    lab[v as usize] = if better { nd } else { old };
                    staged[improved] = (v, nd);
                    improved += better as usize;
                }
                for &(v, nd) in &staged[..improved] {
                    if lg.is_home(v) {
                        heap.push(heap_key(nd, v));
                    } else {
                        let bi = v as usize - nh;
                        if q_inst[bi] != step {
                            q_inst[bi] = step;
                            dirty.push((inst as u16, bi as u32));
                        }
                    }
                }
            }
        }
        ctx.charge(relaxations - relax_before);

        // Ship the improved border labels to their owners.
        let sent = dirty.len() as u64;
        for &(inst, bi) in &dirty {
            let (inst, bi) = (inst as usize, bi as usize);
            let owner = lg.border_owner[bi] as usize;
            let d = label[inst][nh + bi];
            ctx.send_pkt(owner, pk(T_UPD, lg.border_gid[bi], inst as u32, d));
        }
        // Status: my remaining work after this superstep.
        let active = heaps.iter().map(|h| h.len() as u64).sum::<u64>() + sent;
        for dest in 0..ctx.nprocs() {
            if dest != ctx.pid() {
                ctx.send_pkt(dest, pk(T_STAT, active.min(ID_MASK as u64) as u32, 0, 0.0));
            }
        }
        ctx.sync();

        let mut global_active = active;
        while let Some(pkt) = ctx.get_pkt() {
            let (tag, id, aux, val) = unpk(pkt);
            match tag {
                T_STAT => global_active += id as u64,
                T_UPD => {
                    let inst = aux as usize;
                    let lid = lg.lid(id).expect("update for a node we do not own");
                    debug_assert!(lg.is_home(lid));
                    if val < label[inst][lid as usize] {
                        label[inst][lid as usize] = val;
                        heaps[inst].push(heap_key(val, lid));
                    }
                }
                _ => unreachable!("unexpected tag {tag}"),
            }
        }
        if global_active == 0 {
            break;
        }
    }

    for lab in &mut label {
        lab.truncate(nh);
    }
    MspResult {
        dist: label,
        pops,
        relaxations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::geometric_graph;
    use crate::partition::{build_locals, partition_kd};
    use crate::seq::multi_dijkstra;
    use crate::sp::sp_run;
    use green_bsp::{run, Config};

    fn sources_for(n: usize, k: usize) -> Vec<u32> {
        (0..k).map(|i| ((i * n) / k) as u32).collect()
    }

    fn check(n: usize, seed: u64, p: usize, k: usize, wf: usize) {
        let g = geometric_graph(n, seed);
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let sources = sources_for(n, k);
        let expect = multi_dijkstra(&g, &sources);
        let out = run(&Config::new(p), |ctx| {
            msp_run(ctx, &locals[ctx.pid()], &sources, wf)
        });
        for (pid, r) in out.results.iter().enumerate() {
            assert_eq!(r.dist.len(), k);
            for inst in 0..k {
                for (h, &d) in r.dist[inst].iter().enumerate() {
                    let gid = locals[pid].home[h];
                    assert_eq!(
                        d.to_bits(),
                        expect[inst][gid as usize].to_bits(),
                        "p={p} inst={inst} node {gid}: {d} vs {}",
                        expect[inst][gid as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn matches_multi_dijkstra_small() {
        for p in [1, 2, 4] {
            check(150, 7, p, 5, 40);
        }
    }

    #[test]
    fn matches_multi_dijkstra_25_instances() {
        // The paper's experiment: 25 simultaneous computations.
        check(400, 13, 4, 25, 100);
    }

    #[test]
    fn single_instance_agrees_with_sp() {
        let g = geometric_graph(300, 5);
        let p = 3;
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let msp = run(&Config::new(p), |ctx| {
            msp_run(ctx, &locals[ctx.pid()], &[11], 50)
        });
        let sp = run(&Config::new(p), |ctx| {
            sp_run(ctx, &locals[ctx.pid()], 11, 50)
        });
        for pid in 0..p {
            assert_eq!(msp.results[pid].dist[0], sp.results[pid].dist);
        }
    }

    #[test]
    fn superstep_sharing_across_instances() {
        // K instances in one MSP run must take far fewer supersteps than K
        // sequential SP runs — the whole point of §3.5.
        let g = geometric_graph(500, 23);
        let p = 4;
        let k = 8;
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let sources = sources_for(500, k);
        let msp_s = run(&Config::new(p), |ctx| {
            msp_run(ctx, &locals[ctx.pid()], &sources, 50)
        })
        .stats
        .s();
        let mut sp_s_total = 0;
        for &s in &sources {
            sp_s_total += run(&Config::new(p), |ctx| {
                sp_run(ctx, &locals[ctx.pid()], s, 50)
            })
            .stats
            .s();
        }
        assert!(
            msp_s * 2 < sp_s_total,
            "MSP S={msp_s} should be far below {k}×SP total {sp_s_total}"
        );
    }
}

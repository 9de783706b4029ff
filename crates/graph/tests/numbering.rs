//! The BSP graph algorithms do not depend on how a process numbers its home
//! nodes.
//!
//! `build_locals` numbers home nodes along a Morton curve. Here every
//! `LocalGraph` is renumbered twice more — to ascending global id and to the
//! reversed Morton order — and sp, msp and mst must produce the same
//! distances by global id, the same per-process pops and relaxations, the
//! same mst rounds, weights and per-process recorded weights, and the same
//! superstep structure (`S`, `H`, every `h_i`) under all three numberings.
//! mst's local phase is what makes this non-trivial: it orients and ties its
//! edges by global id, so union-by-size picks the same component labels
//! whatever the local ids; an all-ties lattice exercises the tie-break.
//! sp and msp break heap ties by local id, so they are checked only on
//! G(δ), whose distances do not tie.

use bsp_graph::gen::{geometric_graph, Graph};
use bsp_graph::msp::msp_run;
use bsp_graph::mst::mst_run;
use bsp_graph::partition::{build_locals, partition_kd, LocalGraph};
use bsp_graph::sp::{sp_run, DEFAULT_WORK_FACTOR};
use green_bsp::{run, Config, RunStats};
use std::collections::HashMap;

const N: usize = 2_500;
const SEED: u64 = 9_601_996;
const SP_SOURCE: u32 = 833;
const MSP_SOURCES: [u32; 5] = [0, 500, 1000, 1500, 2000];

/// `lg` with its home nodes renumbered so that local id `i` is global node
/// `order[i]` (a permutation of `lg.home`); border ids are unchanged.
fn renumber(lg: &LocalGraph, order: Vec<u32>) -> LocalGraph {
    assert_eq!(order.len(), lg.n_home());
    let nh = lg.n_home() as u32;
    let new_lid: HashMap<u32, u32> = order
        .iter()
        .enumerate()
        .map(|(i, &g)| (lg.lid(g).unwrap(), i as u32))
        .collect();
    let map = |lid: u32| if lid < nh { new_lid[&lid] } else { lid };
    let (mut xadj, mut adj, mut apx, mut aps) = (vec![0u32], Vec::new(), vec![0u32], Vec::new());
    for &g in &order {
        let old = lg.lid(g).unwrap();
        adj.extend(lg.neighbors(old).iter().map(|&(v, w)| (map(v), w)));
        xadj.push(adj.len() as u32);
        aps.extend_from_slice(lg.remote_procs(old));
        apx.push(aps.len() as u32);
    }
    let gid_to_lid = lg.gid_to_lid.iter().map(|(&g, &l)| (g, map(l))).collect();
    LocalGraph {
        home: order,
        xadj,
        adj,
        gid_to_lid,
        adj_procs_xadj: apx,
        adj_procs: aps,
        ..lg.clone()
    }
}

/// The partition of `g` at `p` under the three numberings: as built
/// (Morton), ascending global id, and reversed Morton.
fn numberings(g: &Graph, p: usize) -> (Vec<u32>, [Vec<LocalGraph>; 3]) {
    let owner = partition_kd(&g.pos, p);
    let built = build_locals(g, &owner, p);
    let ascending = built
        .iter()
        .map(|lg| {
            let mut order = lg.home.clone();
            order.sort_unstable();
            renumber(lg, order)
        })
        .collect();
    let reversed = built
        .iter()
        .map(|lg| renumber(lg, lg.home.iter().rev().copied().collect()))
        .collect();
    (owner, [built, ascending, reversed])
}

/// `S`, `H` and every `h_i` of a run.
fn steps(stats: &RunStats) -> (u64, u64, Vec<u64>) {
    let h = stats.steps.iter().map(|s| s.h()).collect();
    (stats.s(), stats.h_total(), h)
}

/// Per-process `dist` rows (indexed like `home`) keyed by global id.
fn by_gid<'a>(locals: &[LocalGraph], rows: impl Iterator<Item = &'a [f64]>) -> Vec<u64> {
    let mut out = vec![u64::MAX; N];
    for (lg, row) in locals.iter().zip(rows) {
        for (h, &d) in row.iter().enumerate() {
            out[lg.home[h] as usize] = d.to_bits();
        }
    }
    out
}

#[test]
fn sp_is_independent_of_the_home_numbering() {
    let g = geometric_graph(N, SEED);
    for p in [1, 2, 4] {
        let (_, sets) = numberings(&g, p);
        let runs: Vec<_> = sets
            .iter()
            .map(|locals| {
                let out = run(&Config::new(p), |ctx| {
                    sp_run(ctx, &locals[ctx.pid()], SP_SOURCE, DEFAULT_WORK_FACTOR)
                });
                let dist = by_gid(locals, out.results.iter().map(|r| &r.dist[..]));
                let work: Vec<(u64, u64)> = out
                    .results
                    .iter()
                    .map(|r| (r.pops, r.relaxations))
                    .collect();
                (dist, work, steps(&out.stats))
            })
            .collect();
        assert!(
            runs[0].0.iter().all(|&d| d != u64::MAX),
            "p={p}: every node"
        );
        for (i, r) in runs.iter().enumerate().skip(1) {
            assert!(r.0 == runs[0].0, "sp p={p} numbering {i}: distances");
            assert_eq!(r.1, runs[0].1, "sp p={p} numbering {i}: pops, relaxations");
            assert_eq!(r.2, runs[0].2, "sp p={p} numbering {i}: S, H, h_i");
        }
    }
}

#[test]
fn msp_is_independent_of_the_home_numbering() {
    let g = geometric_graph(N, SEED);
    for p in [1, 2, 4] {
        let (_, sets) = numberings(&g, p);
        let runs: Vec<_> = sets
            .iter()
            .map(|locals| {
                let out = run(&Config::new(p), |ctx| {
                    msp_run(ctx, &locals[ctx.pid()], &MSP_SOURCES, DEFAULT_WORK_FACTOR)
                });
                let dist: Vec<Vec<u64>> = (0..MSP_SOURCES.len())
                    .map(|k| by_gid(locals, out.results.iter().map(|r| &r.dist[k][..])))
                    .collect();
                let work: Vec<(u64, u64)> = out
                    .results
                    .iter()
                    .map(|r| (r.pops, r.relaxations))
                    .collect();
                (dist, work, steps(&out.stats))
            })
            .collect();
        for (i, r) in runs.iter().enumerate().skip(1) {
            assert!(r.0 == runs[0].0, "msp p={p} numbering {i}: distances");
            assert_eq!(r.1, runs[0].1, "msp p={p} numbering {i}: pops, relaxations");
            assert_eq!(r.2, runs[0].2, "msp p={p} numbering {i}: S, H, h_i");
        }
    }
}

/// mst rounds, total weight bits, each process's recorded weights and `S`,
/// `H`, every `h_i` of `g` at each `p`, equal under the three numberings.
fn assert_mst_independent(g: &Graph, what: &str) {
    for p in [1, 2, 4] {
        let (owner, sets) = numberings(g, p);
        let runs: Vec<_> = sets
            .iter()
            .map(|locals| {
                let out = run(&Config::new(p), |ctx| {
                    mst_run(ctx, &locals[ctx.pid()], &owner)
                });
                let rounds: Vec<u32> = out.results.iter().map(|r| r.rounds).collect();
                // Total weight bits, and the tree-edge weights each process
                // recorded (a merge is recorded by the leader of the hooking
                // label, so this sees which node labels each component).
                let weights: Vec<(u64, Vec<u64>)> = out
                    .results
                    .iter()
                    .map(|r| {
                        let mut mine: Vec<u64> =
                            r.local_weights.iter().map(|w| w.to_bits()).collect();
                        mine.sort_unstable();
                        (r.total_weight.to_bits(), mine)
                    })
                    .collect();
                (rounds, weights, steps(&out.stats))
            })
            .collect();
        for (i, r) in runs.iter().enumerate().skip(1) {
            assert_eq!(r.0, runs[0].0, "mst {what} p={p} numbering {i}: rounds");
            assert_eq!(r.1, runs[0].1, "mst {what} p={p} numbering {i}: weights");
            assert_eq!(r.2, runs[0].2, "mst {what} p={p} numbering {i}: S, H, h_i");
        }
    }
}

#[test]
fn mst_is_independent_of_the_home_numbering() {
    assert_mst_independent(&geometric_graph(N, SEED), "G(δ)");
}

/// A `side × side` lattice on the unit square with every edge weight 1. Cell
/// `c` (row-major) is node `c · 7919 mod side²`, so global ids are scattered
/// over the square (`side` must not be a multiple of the prime 7919).
fn unit_lattice(side: usize) -> Graph {
    let n = side * side;
    let id = |c: usize| (c * 7919 % n) as u32;
    let (mut pos, mut rows) = (vec![(0.0, 0.0); n], vec![Vec::new(); n]);
    for c in 0..n {
        let (x, y) = (c % side, c / side);
        pos[id(c) as usize] = (
            (x as f64 + 0.5) / side as f64,
            (y as f64 + 0.5) / side as f64,
        );
        let row = &mut rows[id(c) as usize];
        if x + 1 < side {
            row.push(id(c + 1));
        }
        if y + 1 < side {
            row.push(id(c + side));
        }
        if x > 0 {
            row.push(id(c - 1));
        }
        if y > 0 {
            row.push(id(c - side));
        }
    }
    let (mut xadj, mut adj) = (vec![0u32], Vec::new());
    for mut row in rows {
        row.sort_unstable();
        adj.extend(row.into_iter().map(|v| (v, 1.0)));
        xadj.push(adj.len() as u32);
    }
    Graph {
        n,
        xadj,
        adj,
        pos,
        delta: 1.0 / side as f64,
    }
}

/// Every edge of the lattice ties with every other, so here the local
/// phase's order is decided by the global-id tie-break alone.
#[test]
fn mst_is_independent_of_the_home_numbering_when_every_weight_ties() {
    assert_mst_independent(&unit_lattice(40), "lattice");
}

//! sp is msp with one source, and that one kernel still runs the loop it
//! replaced.
//!
//! `sp_run(s)` must be bit-identical to `msp_run(&[s])` — distances,
//! per-process pops and relaxations, `S`, `H` and every `h_i` — and both
//! must equal `reference_sp`, the separate single-source loop the shared
//! kernel replaced (a tuple-keyed heap, branching relaxations, home labels
//! and the border cache in two tables). On G(δ), and on a lattice where
//! every weight is 1 so that distances tie everywhere and a relaxation that
//! also accepts an equal label would pop nodes twice. The lattice is kept to
//! side 10 or less: such a relaxation pops a node once per shortest path to
//! it, and their number grows exponentially with the side.

use bsp_graph::gen::{geometric_graph, Graph};
use bsp_graph::msp::msp_run;
use bsp_graph::partition::{build_locals, partition_kd, LocalGraph};
use bsp_graph::sp::sp_run;
use green_bsp::{run, Config, Ctx, Packet, RunOutput};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const TAG_SHIFT: u32 = 28;
const ID_MASK: u32 = (1 << TAG_SHIFT) - 1;
const T_UPD: u32 = 0;
const T_STAT: u32 = 1;

/// The single-source work-factor Dijkstra as it stood before sp became
/// msp with one instance: distances, pops and relaxations.
fn reference_sp(ctx: &mut Ctx, lg: &LocalGraph, source: u32, wf: usize) -> (Vec<f64>, u64, u64) {
    let pk = |tag: u32, id: u32, val: f64| Packet::tag_u32_f64((tag << TAG_SHIFT) | id, 0, val);
    let nh = lg.n_home();
    let mut dist = vec![f64::INFINITY; nh];
    let mut border_cache = vec![f64::INFINITY; lg.border_gid.len()];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let (mut pops, mut relaxations) = (0u64, 0u64);
    let mut dirty: Vec<u32> = Vec::new();
    let mut queued = vec![0u32; lg.border_gid.len()];
    let mut step = 0u32;
    if let Some(lid) = lg.lid(source) {
        if lg.is_home(lid) {
            dist[lid as usize] = 0.0;
            heap.push(Reverse((0f64.to_bits(), lid)));
        }
    }
    loop {
        let relax_before = relaxations;
        step += 1;
        dirty.clear();
        let mut budget = wf;
        while budget > 0 {
            let Some(Reverse((bits, u))) = heap.pop() else {
                break;
            };
            let d = f64::from_bits(bits);
            if d > dist[u as usize] {
                continue;
            }
            budget -= 1;
            pops += 1;
            for &(v, w) in lg.neighbors(u) {
                relaxations += 1;
                let nd = d + w;
                if lg.is_home(v) {
                    if nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        heap.push(Reverse((nd.to_bits(), v)));
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
        for &bi in &dirty {
            let bi = bi as usize;
            let owner = lg.border_owner[bi] as usize;
            ctx.send_pkt(owner, pk(T_UPD, lg.border_gid[bi], border_cache[bi]));
        }
        let active = heap.len() as u64 + dirty.len() as u64;
        for dest in 0..ctx.nprocs() {
            if dest != ctx.pid() {
                ctx.send_pkt(dest, pk(T_STAT, active.min(ID_MASK as u64) as u32, 0.0));
            }
        }
        ctx.sync();
        let mut global_active = active;
        while let Some(pkt) = ctx.get_pkt() {
            let (t, _, val) = pkt.as_tag_u32_f64();
            let id = t & ID_MASK;
            if t >> TAG_SHIFT == T_STAT {
                global_active += id as u64;
            } else {
                let lid = lg.lid(id).expect("update for a node we do not own");
                if val < dist[lid as usize] {
                    dist[lid as usize] = val;
                    heap.push(Reverse((val.to_bits(), lid)));
                }
            }
        }
        if global_active == 0 {
            return (dist, pops, relaxations);
        }
    }
}

/// A `side × side` lattice on the unit square with every edge weight 1; cell
/// `c` (row-major) is node `c · 7919 mod side²` (`side < 7919`).
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

/// One run's distance bits, per-process `(pops, relaxations)`, and `S`,
/// `H`, every `h_i`.
type Outcome = (Vec<Vec<u64>>, Vec<(u64, u64)>, (u64, u64, Vec<u64>));

fn outcome<R>(out: &RunOutput<R>, f: impl Fn(&R) -> (&[f64], u64, u64)) -> Outcome {
    let per: Vec<_> = out.results.iter().map(f).collect();
    let dist = per
        .iter()
        .map(|r| r.0.iter().map(|d| d.to_bits()).collect())
        .collect();
    let work = per.iter().map(|r| (r.1, r.2)).collect();
    let h = out.stats.steps.iter().map(|s| s.h()).collect();
    (dist, work, (out.stats.s(), out.stats.h_total(), h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sp_is_one_source_msp_and_runs_the_loop_it_replaced(
        n in 1usize..=1500,
        seed in any::<u64>(),
        p in 1usize..=4,
        wf in 1usize..300,
        src_frac in 0.0f64..1.0,
        ties in any::<bool>(),
    ) {
        let g = if ties {
            unit_lattice(1 + n % 10)
        } else {
            geometric_graph(n, seed)
        };
        let source = ((g.n as f64 * src_frac) as usize).min(g.n - 1) as u32;
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let cfg = Config::new(p);
        let sp = run(&cfg, |ctx| sp_run(ctx, &locals[ctx.pid()], source, wf));
        let msp = run(&cfg, |ctx| msp_run(ctx, &locals[ctx.pid()], &[source], wf));
        let reference = run(&cfg, |ctx| reference_sp(ctx, &locals[ctx.pid()], source, wf));
        let sp = outcome(&sp, |r| (&r.dist[..], r.pops, r.relaxations));
        let msp = outcome(&msp, |r| (&r.dist[0][..], r.pops, r.relaxations));
        let reference = outcome(&reference, |r| (&r.0[..], r.1, r.2));
        let what = if ties { "lattice" } else { "G(δ)" };
        prop_assert!(sp.0 == msp.0, "{} n={} p={}: sp vs msp distances", what, g.n, p);
        prop_assert_eq!(&sp.1, &msp.1, "{} n={} p={}: sp vs msp pops, relaxations", what, g.n, p);
        prop_assert_eq!(&sp.2, &msp.2, "{} n={} p={}: sp vs msp S, H, h_i", what, g.n, p);
        prop_assert!(sp.0 == reference.0, "{} n={} p={}: distances vs reference", what, g.n, p);
        prop_assert_eq!(&sp.1, &reference.1, "{} n={} p={}: pops, relaxations vs reference", what, g.n, p);
        prop_assert_eq!(&sp.2, &reference.2, "{} n={} p={}: S, H, h_i vs reference", what, g.n, p);
    }
}

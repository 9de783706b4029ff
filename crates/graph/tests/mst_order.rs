//! mst records its merges in a fixed order.
//!
//! A process's `local_weights` list its local phase's tree edges in Kruskal
//! order, then the merges it led in each round, then — on process 0 — the
//! mixed phase's edges. Leaders walk their labels in ascending order, so
//! the list, unsorted and bit for bit, and the round count must be the same
//! in two runs on each of four backends: on the G(δ) graph that
//! `order_pins.rs` pins and on a 40 × 40 lattice where every weight ties.

use bsp_graph::gen::{geometric_graph, Graph};
use bsp_graph::mst::mst_run;
use bsp_graph::partition::{build_locals, partition_kd};
use green_bsp::{run, BackendKind, Config};

const N: usize = 2_500;
const SEED: u64 = 9_601_996;

/// A `side × side` lattice on the unit square with every edge weight 1;
/// cell `c` (row-major) is node `c · 7919 mod side²`, so global ids are
/// scattered over the square (`side` must not be a multiple of 7919).
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

#[test]
fn mst_records_the_same_weights_in_the_same_order_on_every_run() {
    let backends = [
        BackendKind::Shared,
        BackendKind::MsgPass,
        BackendKind::TcpSim,
        BackendKind::SeqSim,
    ];
    for (what, g) in [
        ("G(δ)", geometric_graph(N, SEED)),
        ("lattice", unit_lattice(40)),
    ] {
        for p in [2, 4] {
            let owner = partition_kd(&g.pos, p);
            let locals = build_locals(&g, &owner, p);
            // Per process: rounds and the recorded weights' bits, unsorted.
            let mut first: Option<Vec<(u32, Vec<u64>)>> = None;
            for backend in backends {
                for rep in 0..2 {
                    let out = run(&Config::new(p).backend(backend), |ctx| {
                        mst_run(ctx, &locals[ctx.pid()], &owner)
                    });
                    let got: Vec<(u32, Vec<u64>)> = out
                        .results
                        .iter()
                        .map(|r| {
                            (
                                r.rounds,
                                r.local_weights.iter().map(|w| w.to_bits()).collect(),
                            )
                        })
                        .collect();
                    let Some(want) = &first else {
                        first = Some(got);
                        continue;
                    };
                    for (pid, ((rounds, ws), (want_rounds, want_ws))) in
                        got.iter().zip(want).enumerate()
                    {
                        let at = format!("{what} p={p} {backend:?} run {rep} pid {pid}");
                        assert_eq!(rounds, want_rounds, "{at}: rounds");
                        let first_diff = ws.iter().zip(want_ws).position(|(a, b)| a != b);
                        assert!(
                            ws.len() == want_ws.len() && first_diff.is_none(),
                            "{at}: {} weights against {}, first differing at {first_diff:?}",
                            ws.len(),
                            want_ws.len()
                        );
                    }
                }
            }
        }
    }
}

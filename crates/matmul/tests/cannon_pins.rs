//! Cannon's product pinned bit for bit to the naive loop in Cannon's own
//! summation order, with the paper's superstep and h-relation counts.
//!
//! `A` moves right and `B` down one block per round, so process `(x, y)`
//! accumulates `A(x, kb) · B(kb, y)` for `kb = (x + y − round) mod √p`,
//! `round = 0, 1, …`. Each entry of its `C` block receives its `√p · b`
//! products in that block order, ascending `k` inside each block, one
//! multiply and one add at a time. The oracle below is that sum written as
//! a plain triple loop over the full matrices: any change to the local
//! kernel's arithmetic, or to the order in which Cannon feeds it blocks,
//! changes some bit.

use bsp_matmul::{cannon_run, skewed_blocks, Mat};
use green_bsp::{run, Config};

/// Process `(x, y)`'s block of `A · B`, summed in Cannon's round order.
fn naive_in_round_order(a: &Mat, b: &Mat, q: usize, x: usize, y: usize) -> Mat {
    let n = a.rows;
    let bs = n / q;
    let mut c = Mat::zeros(bs, bs);
    for round in 0..q {
        let kb = (x + y + q - round) % q;
        for i in 0..bs {
            for kk in 0..bs {
                let aik = a.at(x * bs + i, kb * bs + kk);
                for j in 0..bs {
                    *c.at_mut(i, j) += aik * b.at(kb * bs + kk, y * bs + j);
                }
            }
        }
    }
    c
}

/// Run Cannon at `(n, p)`; check every block's bits, `S` and `H`.
fn pin(n: usize, p: usize, h: u64) {
    let q = (p as f64).sqrt() as usize;
    let a = Mat::random(n, n, 40 + n as u64);
    let b = Mat::random(n, n, 41 + n as u64);
    let blocks = skewed_blocks(&a, &b, p);
    let out = run(&Config::new(p), |ctx| {
        let (ab, bb) = blocks[ctx.pid()].clone();
        cannon_run(ctx, ab, bb)
    });
    for (pid, got) in out.results.iter().enumerate() {
        let want = naive_in_round_order(&a, &b, q, pid / q, pid % q);
        let diff = got
            .data
            .iter()
            .zip(&want.data)
            .position(|(u, v)| u.to_bits() != v.to_bits());
        assert_eq!(diff, None, "n={n} p={p}: process {pid}'s block");
    }
    assert_eq!(out.stats.s(), 2 * q as u64 - 1, "n={n} p={p}: S");
    assert_eq!(out.stats.h_total(), h, "n={n} p={p}: H");
}

#[test]
fn matmult_144_at_paper_widths() {
    // Figure C.3, matmult 144: H = 2 (√p − 1) (n / √p)².
    for (p, h) in [(1, 0), (4, 10_368), (9, 9_216), (16, 7_776)] {
        pin(144, p, h);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "576³ naive products; run in release")]
fn matmult_576_on_one_process() {
    // The size the perf ledger's apps-coarse workload multiplies at p = 1.
    pin(576, 1, 0);
}

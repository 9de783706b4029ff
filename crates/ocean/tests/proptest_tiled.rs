//! Tiled Jacobi against two references: the in-core sweep, which shares the
//! row kernel with the tile jobs, and a per-cell sweep over a zero-padded
//! grid written here, which shares nothing with either. All three must
//! agree bit for bit on the grid; Σd² must agree exactly between the two
//! in-core sweeps (same accumulation order) and to 1e-9 for the streamed
//! run, whose per-tile partial sums are reduced in a different order.

use bsp_ocean::tiled::{forcing, initial_grid, jacobi_in_core, tiled_jacobi};
use green_bsp::{Config, Runtime, StreamConfig, TileStore};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

fn tmpdir() -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "green-bsp-proptest-tiled-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn grid_bytes(u: &[f64]) -> Vec<u8> {
    u.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Per-cell Jacobi on an `(n + 2)²` grid whose border ring is the zero
/// boundary: no branch, no row, no shared code — only the same arithmetic
/// in the same order.
fn oracle(n: usize, u: &[f64], sweeps: usize) -> (Vec<f64>, f64) {
    let w = n + 2;
    let h = 1.0 / (n as f64 + 1.0);
    let h2 = h * h;
    let mut old = vec![0.0; w * w];
    for i in 0..n {
        old[(i + 1) * w + 1..][..n].copy_from_slice(&u[i * n..][..n]);
    }
    let mut new = old.clone();
    let mut res2 = 0.0;
    for _ in 0..sweeps {
        res2 = 0.0;
        for i in 1..=n {
            for j in 1..=n {
                let c = i * w + j;
                let v = 0.25
                    * (old[c - w] + old[c + w] + old[c - 1] + old[c + 1]
                        - h2 * forcing(i - 1, j - 1));
                let d = v - old[c];
                res2 += d * d;
                new[c] = v;
            }
        }
        std::mem::swap(&mut old, &mut new);
    }
    let grid = (0..n)
        .flat_map(|i| old[(i + 1) * w + 1..][..n].to_vec())
        .collect();
    (grid, res2)
}

/// Stream the relaxation of `u0` and return the final grid bytes and Σd².
fn tiled(
    rt: &Runtime,
    (n, rows_per_tile, p, sweeps): (usize, usize, usize, usize),
    u0: &[f64],
) -> (Vec<u8>, f64) {
    let dir = tmpdir();
    let ping = TileStore::create_in(&dir, "ping.grid").unwrap();
    ping.write_all(&grid_bytes(u0)).unwrap();
    let pong = TileStore::create_in(&dir, "pong.grid").unwrap();
    pong.write_all(&vec![0u8; n * n * 8]).unwrap();
    let sc = StreamConfig::new(rows_per_tile * n * 8).spill_dir(&dir);
    let res = tiled_jacobi(rt, &Config::new(p), &sc, n, &ping, &pong, sweeps).unwrap();
    assert_eq!(res.result_in_pong, sweeps % 2 == 1);
    let store = if res.result_in_pong { &pong } else { &ping };
    let got = store.read_to_vec().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (got, res.residual2)
}

/// All three sweeps over `u0`, compared.
fn check(rt: &Runtime, shape: (usize, usize, usize, usize), u0: &[f64]) {
    let (n, _, _, sweeps) = shape;
    let (want, want_res2) = oracle(n, u0, sweeps);
    let mut core = u0.to_vec();
    let core_res2 = jacobi_in_core(n, &mut core, sweeps);
    assert_eq!(grid_bytes(&core), grid_bytes(&want), "in-core {shape:?}");
    assert_eq!(core_res2.to_bits(), want_res2.to_bits(), "Σd² {shape:?}");
    let (got, got_res2) = tiled(rt, shape, u0);
    assert_eq!(got, grid_bytes(&want), "tiled {shape:?}");
    assert!(
        (got_res2 - want_res2).abs() <= 1e-9 * want_res2.abs().max(1.0),
        "tiled Σd² {got_res2} vs {want_res2} {shape:?}"
    );
}

#[test]
fn tiled_in_core_and_oracle_agree_on_every_shape() {
    let rt = Runtime::new();
    for n in [1usize, 2, 3, 29, 48] {
        let u0 = initial_grid(n);
        // One-row tiles, a one-row tail tile, exactly one tile, and a
        // budget twice the grid; p = 5 leaves empty shards in short tiles.
        let mut tile_rows = vec![1, 2, (n - 1).max(1), n, 2 * n];
        tile_rows.dedup();
        for rows_per_tile in tile_rows {
            for p in [1usize, 2, 3, 5] {
                for sweeps in [2usize, 3] {
                    check(&rt, (n, rows_per_tile, p, sweeps), &u0);
                }
            }
        }
    }
    rt.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary cell values (signs, magnitudes, exact zeros) on arbitrary
    /// shapes, not only the synthetic start grid.
    #[test]
    fn arbitrary_grids_relax_identically(
        n in 1usize..24,
        rows_per_tile in 1usize..30,
        p in 1usize..6,
        sweeps in 0usize..5,
        seed in any::<u64>(),
    ) {
        let mut x = seed;
        let u0: Vec<f64> = (0..n * n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                match x >> 61 {
                    0 => 0.0,
                    _ => ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e3,
                }
            })
            .collect();
        let rt = Runtime::new();
        check(&rt, (n, rows_per_tile, p, sweeps), &u0);
        rt.shutdown();
    }
}

//! Tiled out-of-core Jacobi relaxation — the ocean stencil streamed
//! through [`green_bsp::run_stream`] when the grid is larger than memory
//! (DESIGN.md §14).
//!
//! The `n × n` row-major `f64` grid lives in a [`TileStore`]; tiles are
//! row bands (`StreamConfig::record` = one row). Every sweep is one
//! streaming pass — one BSP job — and each tile is a hyperstep of it: the
//! processes own contiguous row bands of the tile, apply the five-point
//! Jacobi update against the *old* grid, and allreduce their
//! squared-update norms (one superstep per tile), and each process's
//! write-back lands its new rows at the offsets they were read from in the
//! ping-pong partner store.
//!
//! **Ghost rows.** A row band's stencil reaches one row above and one row
//! below the tile, and those rows belong to neighboring tiles that are
//! out of core by the time this tile computes. Before each sweep the
//! driver therefore reads every tile's two boundary-adjacent rows from
//! the old grid into one in-memory byte buffer (`2 · tiles` rows, the
//! store's own little-endian `f64` encoding), and each tile hands the
//! kernel slices of it. Rows outside the grid are the homogeneous Dirichlet
//! boundary: a zero row.
//!
//! **Bit-identity.** Both the in-core reference [`jacobi_in_core`] and the
//! streamed tiles relax through the one row kernel `relax_row`, which is generic
//! only over how a cell is stored (`f64` in core, eight little-endian bytes
//! in a tile). Every operand is the same `f64` regardless of where the tile
//! boundary fell, so the streamed grid is bit-identical to the in-core
//! sweep for any tile budget — the property the tests and the perf
//! ledger's `stream` workload verify.

use green_bsp::collectives::allreduce_f64;
use green_bsp::{run_stream, Config, RunStats, Runtime, StreamConfig, StreamError, TileStore};
use std::time::{Duration, Instant};

/// Outcome of a streamed multi-sweep relaxation.
#[derive(Debug)]
pub struct TiledOcean {
    /// Aggregate statistics over all sweeps (tiles and I/O summed).
    pub stats: RunStats,
    /// Sweeps performed.
    pub sweeps: usize,
    /// Σ (u' − u)² over the final sweep — the convergence monitor the
    /// in-core solver also reports (reduction order differs, so compare
    /// approximately, unlike the grid itself).
    pub residual2: f64,
    /// `false` when the final grid sits in the `ping` store (even sweep
    /// count), `true` when it sits in `pong` (odd).
    pub result_in_pong: bool,
    /// Wall-clock duration of the whole relaxation.
    pub wall: Duration,
}

/// Deterministic synthetic vorticity forcing, shared by the streamed and
/// in-core sweeps so their right-hand sides agree bit for bit.
#[inline]
pub fn forcing(i: usize, j: usize) -> f64 {
    ((i.wrapping_mul(31) + j.wrapping_mul(17)) % 97) as f64 / 97.0 - 0.5
}

/// Deterministic initial grid for tests and benches.
pub fn initial_grid(n: usize) -> Vec<f64> {
    (0..n * n)
        .map(|k| ((k.wrapping_mul(2654435761)) % 1000) as f64 / 1000.0)
        .collect()
}

/// One five-point Jacobi update. Keep this the *only* spelling of the
/// stencil in this module: bit-identity between the streamed and in-core
/// paths rests on both calling exactly this expression.
#[inline]
fn update(n2h2: f64, up: f64, down: f64, left: f64, right: f64, f: f64) -> f64 {
    0.25 * (up + down + left + right - n2h2 * f)
}

/// How a grid cell is stored: a native `f64` in core, its eight
/// little-endian bytes in a tile. The row kernel is generic over nothing
/// else.
trait Cell: Copy {
    fn get(self) -> f64;
    fn put(v: f64) -> Self;
}

impl Cell for f64 {
    fn get(self) -> f64 {
        self
    }
    fn put(v: f64) -> f64 {
        v
    }
}

impl Cell for [u8; 8] {
    fn get(self) -> f64 {
        f64::from_le_bytes(self)
    }
    fn put(v: f64) -> [u8; 8] {
        v.to_le_bytes()
    }
}

/// Relax global row `gi`: `dst[j]` is the update of `cur[j]` against its
/// `north`/`south` neighbour rows (a zero row outside the grid) and its
/// left/right neighbours (zero outside it); each cell's squared update is
/// added to `acc` in column order.
fn relax_row<C: Cell>(
    h2: f64,
    gi: usize,
    north: &[C],
    cur: &[C],
    south: &[C],
    dst: &mut [C],
    acc: &mut f64,
) {
    let n = cur.len();
    assert!(north.len() == n && south.len() == n && dst.len() == n);
    let mut left = 0.0;
    let mut here = cur.first().map_or(0.0, |c| c.get());
    for (j, ((up, down), out)) in north.iter().zip(south).zip(dst).enumerate() {
        let right = cur.get(j + 1).map_or(0.0, |c| c.get());
        let v = update(h2, up.get(), down.get(), left, right, forcing(gi, j));
        let d = v - here;
        *acc += d * d;
        *out = C::put(v);
        (left, here) = (here, right);
    }
}

/// Relax rows `band` of `old`, a block of whole rows whose first row is
/// global row `first` and whose neighbour rows above and below the block
/// are `north` and `south`, into `dst` (the band's rows only).
fn relax_band<C: Cell>(
    h2: f64,
    first: usize,
    (north, old, south): (&[C], &[C], &[C]),
    band: std::ops::Range<usize>,
    dst: &mut [C],
    acc: &mut f64,
) {
    let n = north.len();
    let rows = old.len() / n.max(1);
    let row = |r: usize| &old[r * n..][..n];
    for (k, r) in band.enumerate() {
        let above = if r == 0 { north } else { row(r - 1) };
        let below = if r + 1 == rows { south } else { row(r + 1) };
        let out = &mut dst[k * n..][..n];
        relax_row(h2, first + r, above, row(r), below, out, acc);
    }
}

/// In-core reference: `sweeps` Jacobi sweeps over the `n × n` grid `u`
/// (row-major, homogeneous Dirichlet boundary), returning the final
/// sweep's Σ (u' − u)².
pub fn jacobi_in_core(n: usize, u: &mut Vec<f64>, sweeps: usize) -> f64 {
    let h = 1.0 / (n as f64 + 1.0);
    let h2 = h * h;
    let mut res2 = 0.0;
    let mut next = vec![0.0; n * n];
    let zero = vec![0.0; n];
    for _ in 0..sweeps {
        res2 = 0.0;
        relax_band(h2, 0, (&zero, u, &zero), 0..n, &mut next, &mut res2);
        std::mem::swap(u, &mut next);
    }
    res2
}

/// Stream `sweeps` Jacobi sweeps over the `n × n` grid in `ping`,
/// ping-ponging between `ping` and `pong` (both must be `n·n·8` bytes;
/// `pong` is overwritten). `sc` supplies the tile budget and ring depth;
/// its record size is overridden to one grid row.
pub fn tiled_jacobi(
    rt: &Runtime,
    cfg: &Config,
    sc: &StreamConfig,
    n: usize,
    ping: &TileStore,
    pong: &TileStore,
    sweeps: usize,
) -> Result<TiledOcean, StreamError> {
    let start = Instant::now();
    let row = n * 8;
    assert_eq!(
        ping.len() as usize,
        n * n * 8,
        "ping store must hold the grid"
    );
    let mut sc = sc.clone();
    sc.record = row;
    let h = 1.0 / (n as f64 + 1.0);
    let h2 = h * h;

    let mut agg = RunStats::default();
    agg.nprocs = cfg.nprocs;
    let mut res2 = 0.0;
    // Tile `t`'s north ghost row at `2t`, south at `2t + 1`; the two rows
    // outside the grid are never read into and stay zero.
    let plan = sc.plan(ping.len());
    let mut ghosts = vec![0u8; plan.len() * 2 * row];

    for sweep in 0..sweeps {
        let (src, dst) = if sweep % 2 == 0 {
            (ping, pong)
        } else {
            (pong, ping)
        };
        for (t, meta) in plan.iter().enumerate() {
            let (north, south) = ghosts[t * 2 * row..][..2 * row].split_at_mut(row);
            let first = meta.first_record();
            let last = first + meta.records(); // exclusive: the south ghost row
            if first > 0 {
                src.read_at((first - 1) as u64 * row as u64, north)?;
                agg.io_read_bytes += row as u64;
            }
            if last < n {
                src.read_at(last as u64 * row as u64, south)?;
                agg.io_read_bytes += row as u64;
            }
        }

        let out = run_stream(rt, cfg, &sc, src, Some(dst), |ctx, data, out| {
            let meta = ctx.tile().expect("tile job");
            let band = meta.shard(ctx.pid(), ctx.nprocs());
            let (north, south) = ghosts[meta.index * 2 * row..][..2 * row].split_at(row);
            let cells = |b| <[u8]>::as_chunks::<8>(b).0;
            out.resize(band.len(), 0);
            let mut local2 = 0.0;
            relax_band(
                h2,
                meta.first_record(),
                (cells(north), cells(data), cells(south)),
                band.start / row..band.end / row, // tile-local rows
                out.as_chunks_mut::<8>().0,
                &mut local2,
            );
            // One real superstep per tile: the convergence monitor.
            allreduce_f64(ctx, local2, |a, b| a + b)
        })?;

        if sweep + 1 == sweeps {
            res2 = out.tiles.iter().map(|t| t[0]).sum();
        }
        agg.absorb(&out.stats);
    }

    Ok(TiledOcean {
        stats: agg,
        sweeps,
        residual2: res2,
        result_in_pong: sweeps % 2 == 1,
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "green-bsp-tiled-ocean-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn grid_bytes(u: &[f64]) -> Vec<u8> {
        u.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// The per-cell sweep this module shipped before the row kernel, kept
    /// as the oracle: `jacobi_in_core` and the streamed sweep now share one loop,
    /// so comparing them to each other could not see a bug in it.
    fn jacobi_per_cell(n: usize, u: &mut Vec<f64>, sweeps: usize) -> f64 {
        let h = 1.0 / (n as f64 + 1.0);
        let h2 = h * h;
        let mut res2 = 0.0;
        let mut next = vec![0.0; n * n];
        for _ in 0..sweeps {
            res2 = 0.0;
            for i in 0..n {
                for j in 0..n {
                    let at = |r: isize, c: isize| -> f64 {
                        if r < 0 || c < 0 || r >= n as isize || c >= n as isize {
                            0.0
                        } else {
                            u[r as usize * n + c as usize]
                        }
                    };
                    let (ri, rj) = (i as isize, j as isize);
                    let v = update(
                        h2,
                        at(ri - 1, rj),
                        at(ri + 1, rj),
                        at(ri, rj - 1),
                        at(ri, rj + 1),
                        forcing(i, j),
                    );
                    let d = v - u[i * n + j];
                    res2 += d * d;
                    next[i * n + j] = v;
                }
            }
            std::mem::swap(u, &mut next);
        }
        res2
    }

    /// FNV-1a over the grid's little-endian bytes.
    fn digest(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Stream `sweeps` sweeps over `initial_grid(n)` in stores named after
    /// `tag` inside `dir`; returns the final grid's bytes and Σd².
    fn run_tiled(
        rt: &Runtime,
        dir: &std::path::Path,
        (n, sweeps, rows_per_tile): (usize, usize, usize),
        tag: &str,
    ) -> (Vec<u8>, f64) {
        let ping = TileStore::create_in(dir, &format!("{tag}-ping.grid")).unwrap();
        ping.write_all(&grid_bytes(&initial_grid(n))).unwrap();
        let pong = TileStore::create_in(dir, &format!("{tag}-pong.grid")).unwrap();
        pong.write_all(&vec![0u8; n * n * 8]).unwrap();
        let sc = StreamConfig::new(rows_per_tile * n * 8).spill_dir(dir);
        let res = tiled_jacobi(rt, &Config::new(3), &sc, n, &ping, &pong, sweeps).unwrap();
        assert_eq!(res.stats.tiles as usize, sweeps * sc.plan(ping.len()).len());
        let got = if res.result_in_pong { &pong } else { &ping };
        (got.read_to_vec().unwrap(), res.residual2)
    }

    fn check_tiled(n: usize, sweeps: usize, rows_per_tile: usize, tag: &str) {
        let dir = tmpdir(tag);
        let rt = Runtime::new();
        let (got, res2) = run_tiled(&rt, &dir, (n, sweeps, rows_per_tile), tag);
        rt.shutdown();

        let mut want = initial_grid(n);
        let want_res2 = jacobi_in_core(n, &mut want, sweeps);
        assert_eq!(
            got,
            grid_bytes(&want),
            "streamed grid differs from in-core ({tag})"
        );
        assert!((res2 - want_res2).abs() <= 1e-9 * want_res2.abs().max(1.0));
        // The relaxation leaves nothing of its own in the spill directory.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2, "stray files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn row_kernel_matches_the_per_cell_oracle_and_the_recorded_digest() {
        // Digest and Σd² bits of the n = 48, 3-sweep grid, recorded from the
        // per-cell implementation before the row kernel replaced it.
        const DIGEST: u64 = 0x5744_857e_1c4d_bafc;
        const RES2_BITS: u64 = 0x4031_6953_3a0f_7759;
        let (mut cell, mut rows) = (initial_grid(48), initial_grid(48));
        let cell_res2 = jacobi_per_cell(48, &mut cell, 3);
        let rows_res2 = jacobi_in_core(48, &mut rows, 3);
        assert_eq!(digest(&grid_bytes(&cell)), DIGEST, "oracle drifted");
        assert_eq!(cell_res2.to_bits(), RES2_BITS, "oracle residual drifted");
        assert_eq!(digest(&grid_bytes(&rows)), DIGEST);
        assert_eq!(rows_res2.to_bits(), RES2_BITS);

        let dir = tmpdir("digest");
        let rt = Runtime::new();
        let (tiled, tiled_res2) = run_tiled(&rt, &dir, (48, 3, 6), "digest");
        rt.shutdown();
        assert_eq!(digest(&tiled), DIGEST);
        assert!((tiled_res2 - rows_res2).abs() <= 1e-9 * rows_res2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_core_equals_the_oracle_bit_for_bit_on_small_and_odd_grids() {
        for n in [0usize, 1, 2, 3, 7, 29] {
            for sweeps in [0usize, 1, 2, 5] {
                let (mut cell, mut rows) = (initial_grid(n), initial_grid(n));
                let cell_res2 = jacobi_per_cell(n, &mut cell, sweeps);
                let rows_res2 = jacobi_in_core(n, &mut rows, sweeps);
                assert_eq!(
                    grid_bytes(&rows),
                    grid_bytes(&cell),
                    "n={n} sweeps={sweeps}"
                );
                assert_eq!(rows_res2.to_bits(), cell_res2.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn concurrent_relaxations_share_a_spill_dir() {
        // Two different relaxations at once in one directory and one
        // process: each must see only its own ghost rows. Two tiles per
        // sweep and many sweeps, so the per-sweep ghost hand-offs of the
        // two runs interleave many times.
        let dir = tmpdir("concurrent");
        let rt = Runtime::new();
        let shapes = [(48usize, 101usize, 24usize), (40, 100, 20)];
        let gate = std::sync::Barrier::new(shapes.len());
        let got: Vec<Vec<u8>> = std::thread::scope(|s| {
            let runs: Vec<_> = shapes
                .iter()
                .enumerate()
                .map(|(k, &shape)| {
                    let (rt, dir, gate) = (&rt, &dir, &gate);
                    s.spawn(move || {
                        gate.wait();
                        run_tiled(rt, dir, shape, &format!("run{k}")).0
                    })
                })
                .collect();
            runs.into_iter().map(|r| r.join().unwrap()).collect()
        });
        rt.shutdown();
        for (&(n, sweeps, _), got) in shapes.iter().zip(&got) {
            let mut want = initial_grid(n);
            jacobi_in_core(n, &mut want, sweeps);
            assert_eq!(got, &grid_bytes(&want), "n={n}: ghosts clobbered");
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 4, "stray files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_sweeps_are_bit_identical_to_in_core() {
        // 8 tiles of 6 rows: every ghost strip crosses a tile boundary.
        check_tiled(48, 3, 6, "multi");
    }

    #[test]
    fn single_tile_degenerates_to_in_core() {
        check_tiled(24, 2, 24, "single");
    }

    #[test]
    fn odd_row_tail_tile_and_odd_sweeps() {
        // 29 rows in 4-row tiles leaves a 1-row tail tile; odd sweep count
        // leaves the result in the pong store.
        check_tiled(29, 1, 4, "tail");
    }
}

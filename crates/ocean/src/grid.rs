//! Distributed 2-D grids for the ocean simulation: block partition over a
//! `pr × pc` processor grid, a multigrid level hierarchy, and the ghost-cell
//! exchange superstep.
//!
//! Grids are cell-centered with `n × n` interior cells on the unit square
//! (`n` a power of two, as in the paper's problem sizes 66/130/258/514 =
//! interior 64/128/256/512 plus the boundary ring). Every level keeps a
//! one-cell ghost ring; domain-boundary ghosts implement the homogeneous
//! Dirichlet condition by reflection (`ghost = −interior`).
//!
//! Partition starts are `k·n/pr`, so with `n`, `pr`, `pc` all powers of two
//! every coarse cell's four fine children live on the same processor — the
//! alignment that makes restriction and prolongation communication-free
//! (only ghost exchanges are ever sent).

use green_bsp::{Ctx, Packet};

/// One multigrid level's view of this processor's block.
#[derive(Clone, Copy, Debug)]
pub struct Level {
    /// Global interior cells per side.
    pub n: usize,
    /// First global row of my block.
    pub r0: usize,
    /// Rows in my block.
    pub rows: usize,
    /// First global column of my block.
    pub c0: usize,
    /// Columns in my block.
    pub cols: usize,
    /// Cell width `1/n`.
    pub h: f64,
}

impl Level {
    /// Field storage size including the ghost ring.
    pub fn field_len(&self) -> usize {
        (self.rows + 2) * (self.cols + 2)
    }

    /// Index into a field: `i`, `j` are 1-based interior coordinates;
    /// 0 and `rows+1`/`cols+1` are ghosts.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> usize {
        i * (self.cols + 2) + j
    }

    /// Allocate a zero field with ghost ring.
    pub fn zeros(&self) -> Vec<f64> {
        vec![0.0; self.field_len()]
    }
}

/// The processor-grid placement and level hierarchy for one processor.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// Total processors.
    pub p: usize,
    /// Processor-grid rows.
    pub pr: usize,
    /// Processor-grid columns.
    pub pc: usize,
    /// My processor-grid row.
    pub my_r: usize,
    /// My processor-grid column.
    pub my_c: usize,
    /// Levels, finest first.
    pub levels: Vec<Level>,
}

/// Split `p = pr × pc` with both factors powers of two and `pr ≤ pc`.
pub fn proc_grid(p: usize) -> (usize, usize) {
    assert!(p.is_power_of_two(), "ocean needs a power-of-two p, got {p}");
    let k = p.trailing_zeros() as usize;
    let pr = 1usize << (k / 2);
    (pr, p / pr)
}

impl Hierarchy {
    /// Build the hierarchy for processor `pid` of `p`, finest interior size
    /// `n`, coarsening down to `coarse_n` cells per side.
    pub fn new(pid: usize, p: usize, n: usize, coarse_n: usize) -> Hierarchy {
        assert!(n.is_power_of_two(), "interior size must be a power of two");
        let (pr, pc) = proc_grid(p);
        assert!(n >= pr.max(pc), "grid too small for the processor grid");
        let coarse_n = coarse_n.max(pr.max(pc)).max(4).min(n);
        let (my_r, my_c) = (pid / pc, pid % pc);
        let mut levels = Vec::new();
        let mut nl = n;
        loop {
            let r0 = my_r * nl / pr;
            let r1 = (my_r + 1) * nl / pr;
            let c0 = my_c * nl / pc;
            let c1 = (my_c + 1) * nl / pc;
            levels.push(Level {
                n: nl,
                r0,
                rows: r1 - r0,
                c0,
                cols: c1 - c0,
                h: 1.0 / nl as f64,
            });
            if nl <= coarse_n {
                break;
            }
            nl /= 2;
        }
        Hierarchy {
            p,
            pr,
            pc,
            my_r,
            my_c,
            levels,
        }
    }

    /// pid of the processor-grid neighbour in direction
    /// (`dr`, `dc` ∈ {−1, 0, 1}), if it exists.
    pub fn neighbor(&self, dr: isize, dc: isize) -> Option<usize> {
        let nr = self.my_r as isize + dr;
        let nc = self.my_c as isize + dc;
        if nr < 0 || nc < 0 || nr >= self.pr as isize || nc >= self.pc as isize {
            None
        } else {
            Some(nr as usize * self.pc + nc as usize)
        }
    }
}

/// The ghost exchange's communication pattern as sync-graph edges: the
/// 8-neighborhood (edge and corner neighbours) of the `pr × pc` processor
/// grid. Pass to [`green_bsp::Config::sync_graph`] so
/// [`exchange_ghosts_mode`] can run on neighborhood barriers instead of
/// the p-wide rendezvous (DESIGN.md §12).
pub fn ghost_graph(p: usize) -> Vec<(usize, usize)> {
    let (pr, pc) = proc_grid(p);
    let mut edges = Vec::new();
    for r in 0..pr {
        for c in 0..pc {
            let pid = r * pc + c;
            for dr in -1isize..=1 {
                for dc in -1isize..=1 {
                    let (nr, nc) = (r as isize + dr, c as isize + dc);
                    if nr < 0 || nc < 0 || nr >= pr as isize || nc >= pc as isize {
                        continue;
                    }
                    let nb = nr as usize * pc + nc as usize;
                    if nb > pid {
                        edges.push((pid, nb));
                    }
                }
            }
        }
    }
    edges
}

// Ghost placement sides, from the receiver's perspective.
const PLACE_TOP: u32 = 0;
const PLACE_BOTTOM: u32 = 1;
const PLACE_LEFT: u32 = 2;
const PLACE_RIGHT: u32 = 3;
const PLACE_TL: u32 = 4;
const PLACE_TR: u32 = 5;
const PLACE_BL: u32 = 6;
const PLACE_BR: u32 = 7;

#[inline]
fn ghost_pkt(side: u32, global_idx: usize, level: usize, v: f64) -> Packet {
    Packet::tag_u32_f64((side << 28) | global_idx as u32, level as u32, v)
}

/// Exchange the ghost ring of `field` on level `lvl` with the four
/// processor-grid neighbours (one superstep), then refresh the
/// domain-boundary ghosts by Dirichlet reflection.
///
/// Ships each boundary strip as one zero-copy byte-lane message (a whole
/// row/column of `f64`s behind a 12-byte strip header) instead of one
/// 16-byte packet per cell; see [`exchange_ghosts_with`] for the legacy
/// per-cell packet discipline. Ghost placement is index-directed either
/// way, so the two lanes fill the ring bit-identically.
///
/// The caller must not have other traffic in flight in this superstep.
pub fn exchange_ghosts(ctx: &mut Ctx, hier: &Hierarchy, lvl: usize, field: &mut [f64]) {
    exchange_ghosts_with(ctx, hier, lvl, field, true)
}

/// [`exchange_ghosts`] with an explicit transport lane: `byte_lane = false`
/// sends every ghost cell as its own tagged 16-byte packet (the original
/// discipline), `true` packs each strip into one variable-length message
/// `[u32 side | u32 level | u32 start | f64 × len]`. Identical results.
pub fn exchange_ghosts_with(
    ctx: &mut Ctx,
    hier: &Hierarchy,
    lvl: usize,
    field: &mut [f64],
    byte_lane: bool,
) {
    exchange_ghosts_mode(ctx, hier, lvl, field, byte_lane, false)
}

/// [`exchange_ghosts_with`] with an explicit barrier mode: `neigh = true`
/// closes the superstep with [`Ctx::sync_neigh`], so only sync-graph
/// neighbours rendezvous (the run's [`green_bsp::Config`] must carry
/// [`ghost_graph`]). All traffic of a ghost exchange goes to grid
/// neighbours, so the relaxed boundary is always legal here — but the
/// *next* superstep's sends are bound by the adjacent-boundary rule of
/// DESIGN.md §12: callers must use `neigh = false` for the exchange
/// immediately preceding any global collective (e.g. the coarse-grid
/// gather or a reduction).
pub fn exchange_ghosts_mode(
    ctx: &mut Ctx,
    hier: &Hierarchy,
    lvl: usize,
    field: &mut [f64],
    byte_lane: bool,
    neigh: bool,
) {
    ghost_send(ctx, hier, lvl, field, byte_lane);
    if neigh {
        ctx.sync_neigh();
    } else {
        ctx.sync();
    }
    ghost_drain(ctx, hier, lvl, field, byte_lane);
    apply_boundary(hier, lvl, field);
}

/// [`exchange_ghosts_mode`] with the exchange split around a compute body:
/// boundary strips are posted, the superstep boundary is *begun*
/// ([`Ctx::sync_begin`] / [`Ctx::sync_neigh_begin`]), `body` runs while the
/// exchange drains, and only then does [`Ctx::sync_end`] block for the
/// (neighborhood) rendezvous before ghosts are placed.
///
/// `body` receives the field being exchanged; the strips were already
/// captured at post time and ghosts are placed after `body` returns, so the
/// body may read or write any cell — but for bit-identity with the fused
/// exchange it should only touch cells whose update does not read the ghost
/// ring (e.g. the interior points of a 5-point relaxation, leaving the
/// ghost-adjacent border cells for after the call). This is the
/// latency-hiding composition of DESIGN.md §12: split-phase × neighborhood,
/// where the body's compute gives graph neighbours time to arrive so the
/// closing wait resolves without descheduling.
pub fn exchange_ghosts_overlap<F: FnOnce(&mut [f64])>(
    ctx: &mut Ctx,
    hier: &Hierarchy,
    lvl: usize,
    field: &mut [f64],
    byte_lane: bool,
    neigh: bool,
    body: F,
) {
    ghost_send(ctx, hier, lvl, field, byte_lane);
    if neigh {
        ctx.sync_neigh_begin();
    } else {
        ctx.sync_begin();
    }
    body(field);
    ctx.sync_end();
    ghost_drain(ctx, hier, lvl, field, byte_lane);
    apply_boundary(hier, lvl, field);
}

/// Bytes of a byte-lane ghost strip's header: `u32 side | u32 level |
/// u32 start`, followed by the strip's cells as `f64`s.
const STRIP_HDR: usize = 12;

/// Post one boundary strip to `dest`: the cells `vals`, read straight from
/// the field, placed on the receiver's `side` from global index `g0` on.
fn send_strip(
    ctx: &mut Ctx,
    byte_lane: bool,
    dest: usize,
    side: u32,
    lvl: usize,
    g0: usize,
    vals: impl Iterator<Item = f64>,
) {
    if byte_lane {
        let mut w = ctx.msg_writer(dest);
        w.put_u32(side);
        w.put_u32(lvl as u32);
        w.put_u32(g0 as u32);
        for v in vals {
            w.put_f64(v);
        }
    } else {
        for (k, v) in vals.enumerate() {
            ctx.send_pkt(dest, ghost_pkt(side, g0 + k, lvl, v));
        }
    }
}

/// Split a byte-lane ghost strip into `(side, level, start, cells)`.
///
/// Every message this lane carries during a ghost exchange was written by
/// [`send_strip`] (the exchange's contract: no other traffic in flight),
/// which always writes the three header words, so `payload` holds at least
/// [`STRIP_HDR`] bytes. Each header `try_into` then converts a range of
/// exactly four bytes into `[u8; 4]`, and each cell's converts one of
/// `chunks_exact(8)`'s 8-byte chunks into `[u8; 8]`: none can fail.
fn parse_strip(payload: &[u8]) -> (u32, u32, usize, impl Iterator<Item = f64> + '_) {
    let word = |k: usize| u32::from_le_bytes(payload[4 * k..4 * k + 4].try_into().unwrap());
    let cells = payload[STRIP_HDR..]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()));
    (word(0), word(1), word(2) as usize, cells)
}

/// Post this block's boundary strips (edges + corners) to the grid
/// neighbours. First half of [`exchange_ghosts_mode`].
fn ghost_send(ctx: &mut Ctx, hier: &Hierarchy, lvl: usize, field: &[f64], byte_lane: bool) {
    let l = hier.levels[lvl];
    let w = l.cols + 2;
    // Edge rows are contiguous; edge columns stride by the row width.
    let row = |i: usize| field[l.at(i, 1)..][..l.cols].iter().copied();
    let col = |j: usize| field[l.at(1, j)..].iter().step_by(w).take(l.rows).copied();
    // Send edge rows/columns; the side says where the *receiver* places them.
    if let Some(up) = hier.neighbor(-1, 0) {
        send_strip(ctx, byte_lane, up, PLACE_BOTTOM, lvl, l.c0, row(1));
    }
    if let Some(down) = hier.neighbor(1, 0) {
        send_strip(ctx, byte_lane, down, PLACE_TOP, lvl, l.c0, row(l.rows));
    }
    if let Some(left) = hier.neighbor(0, -1) {
        send_strip(ctx, byte_lane, left, PLACE_RIGHT, lvl, l.r0, col(1));
    }
    if let Some(right) = hier.neighbor(0, 1) {
        send_strip(ctx, byte_lane, right, PLACE_LEFT, lvl, l.r0, col(l.cols));
    }
    // Corners, needed by the bilinear prolongation: my corner interior cell
    // goes to the diagonal neighbour's opposite corner ghost.
    let corners = [
        (-1isize, -1isize, 1, 1, PLACE_BR),
        (-1, 1, 1, l.cols, PLACE_BL),
        (1, -1, l.rows, 1, PLACE_TR),
        (1, 1, l.rows, l.cols, PLACE_TL),
    ];
    for (dr, dc, i, j, place) in corners {
        if let Some(diag) = hier.neighbor(dr, dc) {
            let cell = std::iter::once(field[l.at(i, j)]);
            send_strip(ctx, byte_lane, diag, place, lvl, 0, cell);
        }
    }
}

/// Where the ghost cell for global index `g` on `side` sits in the field,
/// and the stride to the next cell of a strip along that side.
fn ghost_slot(l: &Level, side: u32, g: usize) -> (usize, usize) {
    let w = l.cols + 2;
    match side {
        PLACE_TOP => (l.at(0, g - l.c0 + 1), 1),
        PLACE_BOTTOM => (l.at(l.rows + 1, g - l.c0 + 1), 1),
        PLACE_LEFT => (l.at(1 + g - l.r0, 0), w),
        PLACE_RIGHT => (l.at(1 + g - l.r0, l.cols + 1), w),
        PLACE_TL => (l.at(0, 0), 1),
        PLACE_TR => (l.at(0, l.cols + 1), 1),
        PLACE_BL => (l.at(l.rows + 1, 0), 1),
        PLACE_BR => (l.at(l.rows + 1, l.cols + 1), 1),
        _ => unreachable!(),
    }
}

/// Place the received ghost strips into `field`'s ghost ring. Second half
/// of [`exchange_ghosts_mode`]; the superstep boundary must already have
/// been crossed.
fn ghost_drain(ctx: &mut Ctx, hier: &Hierarchy, lvl: usize, field: &mut [f64], byte_lane: bool) {
    let l = hier.levels[lvl];
    // Index-directed placement: each strip or packet names its ghost
    // cells, so arrival order is irrelevant on both lanes.
    if byte_lane {
        // The payload borrows `ctx`, not `field`, so cells are placed
        // straight from it as they are parsed.
        while let Some((_src, payload)) = ctx.recv_bytes() {
            let (side, level, g0, cells) = parse_strip(payload);
            debug_assert_eq!(level as usize, lvl, "ghost strip for wrong level");
            let (at, stride) = ghost_slot(&l, side, g0);
            for (k, v) in cells.enumerate() {
                field[at + k * stride] = v;
            }
        }
    } else {
        while let Some(pkt) = ctx.get_pkt() {
            let (tag, level, v) = pkt.as_tag_u32_f64();
            debug_assert_eq!(level as usize, lvl, "ghost packet for wrong level");
            field[ghost_slot(&l, tag >> 28, (tag & 0x0FFF_FFFF) as usize).0] = v;
        }
    }
}

/// Dirichlet reflection on the physical domain boundary:
/// `ghost = −interior` so the value at the boundary face is zero.
pub fn apply_boundary(hier: &Hierarchy, lvl: usize, field: &mut [f64]) {
    let l = hier.levels[lvl];
    if hier.my_r == 0 {
        for j in 1..=l.cols {
            field[l.at(0, j)] = -field[l.at(1, j)];
        }
    }
    if hier.my_r == hier.pr - 1 {
        for j in 1..=l.cols {
            field[l.at(l.rows + 1, j)] = -field[l.at(l.rows, j)];
        }
    }
    if hier.my_c == 0 {
        for i in 1..=l.rows {
            field[l.at(i, 0)] = -field[l.at(i, 1)];
        }
    }
    if hier.my_c == hier.pc - 1 {
        for i in 1..=l.rows {
            field[l.at(i, l.cols + 1)] = -field[l.at(i, l.cols)];
        }
    }
    // Corner ghosts not covered by a diagonal neighbour: reflect across the
    // domain edge(s). Double reflection at the domain corners.
    let (rt, rb) = (hier.my_r == 0, hier.my_r == hier.pr - 1);
    let (cl, cr) = (hier.my_c == 0, hier.my_c == hier.pc - 1);
    let (rr, cc) = (l.rows, l.cols);
    if rt && cl {
        field[l.at(0, 0)] = field[l.at(1, 1)];
    } else if rt {
        field[l.at(0, 0)] = -field[l.at(1, 0)];
    } else if cl {
        field[l.at(0, 0)] = -field[l.at(0, 1)];
    }
    if rt && cr {
        field[l.at(0, cc + 1)] = field[l.at(1, cc)];
    } else if rt {
        field[l.at(0, cc + 1)] = -field[l.at(1, cc + 1)];
    } else if cr {
        field[l.at(0, cc + 1)] = -field[l.at(0, cc)];
    }
    if rb && cl {
        field[l.at(rr + 1, 0)] = field[l.at(rr, 1)];
    } else if rb {
        field[l.at(rr + 1, 0)] = -field[l.at(rr, 0)];
    } else if cl {
        field[l.at(rr + 1, 0)] = -field[l.at(rr + 1, 1)];
    }
    if rb && cr {
        field[l.at(rr + 1, cc + 1)] = field[l.at(rr, cc)];
    } else if rb {
        field[l.at(rr + 1, cc + 1)] = -field[l.at(rr, cc + 1)];
    } else if cr {
        field[l.at(rr + 1, cc + 1)] = -field[l.at(rr + 1, cc)];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_bsp::{run, Config};

    #[test]
    fn proc_grid_factors() {
        assert_eq!(proc_grid(1), (1, 1));
        assert_eq!(proc_grid(2), (1, 2));
        assert_eq!(proc_grid(4), (2, 2));
        assert_eq!(proc_grid(8), (2, 4));
        assert_eq!(proc_grid(16), (4, 4));
    }

    #[test]
    fn hierarchy_partitions_exactly() {
        for p in [1usize, 2, 4, 8, 16] {
            let mut total_rows_cols = Vec::new();
            for pid in 0..p {
                let h = Hierarchy::new(pid, p, 64, 8);
                for (li, l) in h.levels.iter().enumerate() {
                    assert_eq!(l.n, 64 >> li);
                    assert!(l.rows >= 1 && l.cols >= 1);
                    total_rows_cols.push((li, l.r0, l.rows, l.c0, l.cols));
                }
            }
            // Per level, blocks tile the grid exactly.
            let h0 = Hierarchy::new(0, p, 64, 8);
            for li in 0..h0.levels.len() {
                let n = h0.levels[li].n;
                let cells: usize = (0..p)
                    .map(|pid| {
                        let h = Hierarchy::new(pid, p, 64, 8);
                        h.levels[li].rows * h.levels[li].cols
                    })
                    .sum();
                assert_eq!(cells, n * n, "p={p} level {li}");
            }
        }
    }

    #[test]
    fn coarse_alignment_children_stay_local() {
        // Each coarse cell's 2×2 fine children belong to the same block.
        for p in [2usize, 4, 8, 16] {
            for pid in 0..p {
                let h = Hierarchy::new(pid, p, 128, 8);
                for w in h.levels.windows(2) {
                    let (fine, coarse) = (w[0], w[1]);
                    assert_eq!(coarse.r0 * 2, fine.r0);
                    assert_eq!(coarse.rows * 2, fine.rows);
                    assert_eq!(coarse.c0 * 2, fine.c0);
                    assert_eq!(coarse.cols * 2, fine.cols);
                }
            }
        }
    }

    #[test]
    fn neighbors_are_mutual() {
        for p in [4usize, 8, 16] {
            for pid in 0..p {
                let h = Hierarchy::new(pid, p, 64, 8);
                for (dr, dc) in [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)] {
                    if let Some(nb) = h.neighbor(dr, dc) {
                        let hn = Hierarchy::new(nb, p, 64, 8);
                        assert_eq!(hn.neighbor(-dr, -dc), Some(pid));
                    }
                }
            }
        }
    }

    #[test]
    fn ghost_exchange_transports_edges() {
        // Fill each block with its global cell index; after one exchange,
        // every interior-adjacent ghost must hold the neighbour's value.
        let n = 16;
        for p in [1usize, 2, 4, 8] {
            let out = run(&Config::new(p), move |ctx| {
                let h = Hierarchy::new(ctx.pid(), p, n, 8);
                let l = h.levels[0];
                let mut f = l.zeros();
                for i in 1..=l.rows {
                    for j in 1..=l.cols {
                        let (gi, gj) = (l.r0 + i - 1, l.c0 + j - 1);
                        f[l.at(i, j)] = (gi * n + gj) as f64;
                    }
                }
                exchange_ghosts(ctx, &h, 0, &mut f);
                // Verify all four ghost edges.
                let mut errors = 0;
                let val = |gi: isize, gj: isize| -> f64 {
                    if gi < 0 || gj < 0 || gi >= n as isize || gj >= n as isize {
                        // Dirichlet reflection of the adjacent interior cell.
                        let (ci, cj) = (gi.clamp(0, n as isize - 1), gj.clamp(0, n as isize - 1));
                        -((ci * n as isize + cj) as f64)
                    } else {
                        (gi * n as isize + gj) as f64
                    }
                };
                for i in 1..=l.rows {
                    let gi = (l.r0 + i - 1) as isize;
                    if f[l.at(i, 0)] != val(gi, l.c0 as isize - 1) {
                        errors += 1;
                    }
                    if f[l.at(i, l.cols + 1)] != val(gi, (l.c0 + l.cols) as isize) {
                        errors += 1;
                    }
                }
                for j in 1..=l.cols {
                    let gj = (l.c0 + j - 1) as isize;
                    if f[l.at(0, j)] != val(l.r0 as isize - 1, gj) {
                        errors += 1;
                    }
                    if f[l.at(l.rows + 1, j)] != val((l.r0 + l.rows) as isize, gj) {
                        errors += 1;
                    }
                }
                errors
            });
            assert!(
                out.results.iter().all(|&e| e == 0),
                "p={p}: ghost errors {:?}",
                out.results
            );
        }
    }

    #[test]
    fn lanes_fill_identical_ghost_rings() {
        // Byte-lane strips and per-cell packets must produce bit-identical
        // fields (f64 bits pass through unchanged on both lanes).
        let n = 32;
        let fill = move |h: &Hierarchy| {
            let l = h.levels[0];
            let mut f = l.zeros();
            for i in 1..=l.rows {
                for j in 1..=l.cols {
                    let (gi, gj) = (l.r0 + i - 1, l.c0 + j - 1);
                    f[l.at(i, j)] = ((gi * n + gj) as f64 * 0.7318).sin();
                }
            }
            f
        };
        for p in [1usize, 2, 4, 8] {
            let bytes = run(&Config::new(p), move |ctx| {
                let h = Hierarchy::new(ctx.pid(), p, n, 8);
                let mut f = fill(&h);
                exchange_ghosts_with(ctx, &h, 0, &mut f, true);
                f
            });
            let pkts = run(&Config::new(p), move |ctx| {
                let h = Hierarchy::new(ctx.pid(), p, n, 8);
                let mut f = fill(&h);
                exchange_ghosts_with(ctx, &h, 0, &mut f, false);
                f
            });
            assert_eq!(bytes.results, pkts.results, "p={p}");
            if p > 1 {
                assert!(bytes.stats.h_bytes_total() > 0, "byte lane unused");
                assert_eq!(bytes.stats.h_total(), 0, "no packets on the byte lane");
                assert_eq!(pkts.stats.h_bytes_total(), 0);
            }
        }
    }

    #[test]
    fn ghost_graph_edges_are_mutual_grid_neighbors() {
        for p in [2usize, 4, 8, 16] {
            let edges = ghost_graph(p);
            let (pr, pc) = proc_grid(p);
            for &(a, b) in &edges {
                assert!(a < b && b < p, "p={p}: malformed edge ({a},{b})");
                let (ar, ac) = (a / pc, a % pc);
                let (br, bc) = (b / pc, b % pc);
                assert!(
                    ar.abs_diff(br) <= 1 && ac.abs_diff(bc) <= 1,
                    "p={p}: ({a},{b}) not grid-adjacent on {pr}x{pc}"
                );
            }
            // Every processor with a grid neighbour appears in some edge.
            if p > 1 {
                for pid in 0..p {
                    assert!(
                        edges.iter().any(|&(a, b)| a == pid || b == pid),
                        "p={p}: pid {pid} isolated"
                    );
                }
            }
        }
    }

    #[test]
    fn neighborhood_barrier_fills_identical_ghost_rings() {
        // A ghost exchange closed with a neighborhood barrier over
        // ghost_graph(p) must fill the ring bit-identically to the full
        // barrier, on both transport lanes.
        let n = 32;
        let fill = move |h: &Hierarchy| {
            let l = h.levels[0];
            let mut f = l.zeros();
            for i in 1..=l.rows {
                for j in 1..=l.cols {
                    let (gi, gj) = (l.r0 + i - 1, l.c0 + j - 1);
                    f[l.at(i, j)] = ((gi * n + gj) as f64 * 0.7318).sin();
                }
            }
            f
        };
        for p in [2usize, 4, 8] {
            for byte_lane in [false, true] {
                let full = run(&Config::new(p), move |ctx| {
                    let h = Hierarchy::new(ctx.pid(), p, n, 8);
                    let mut f = fill(&h);
                    exchange_ghosts_mode(ctx, &h, 0, &mut f, byte_lane, false);
                    f
                });
                let relaxed = run(&Config::new(p).sync_graph(&ghost_graph(p)), move |ctx| {
                    let h = Hierarchy::new(ctx.pid(), p, n, 8);
                    let mut f = fill(&h);
                    exchange_ghosts_mode(ctx, &h, 0, &mut f, byte_lane, true);
                    f
                });
                assert_eq!(full.results, relaxed.results, "p={p} byte_lane={byte_lane}");
            }
        }
    }
}

//! The paper's input model (§3.3): geometric random graphs `G(δ)`.
//!
//! Nodes are assigned uniformly at random to points on the unit square.
//! `G(r)` has an edge between all pairs of nodes within Euclidean distance
//! `r`; the input graph is `G(δ)` where `δ` is the minimum radius at which
//! `G(δ)` is a single connected component. Edge weights are the distances.
//!
//! `δ` is defined by a bisection: bracket the threshold, double the
//! bracket's top until `G(hi)` is connected, then halve `[0, hi]` until it
//! is narrower than `1e-6 · hi`, keeping the connected end. Each probe of
//! that bisection needs only one number of the points, the *bottleneck*
//! `b`: the largest squared length among the edges of a minimum spanning
//! tree. `G(r)` is connected exactly when `r * r >= b`, because a pair is
//! an edge of `G(r)` exactly when its squared length `d2` (one float
//! expression, symmetric in the endpoints) is at most `r * r`. So the
//! generator computes `b` once, with a few scans of one bucket grid, and
//! replays the bisection with `mid * mid >= b` as its test. The probes are
//! the same floats, so `δ` has the same bits — and `G(δ)` the same edges —
//! as a bisection that sweeps the connectivity of `G(mid)` at every probe.

use crate::unionfind::UnionFind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A weighted undirected graph in CSR form, with node coordinates.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Number of nodes.
    pub n: usize,
    /// CSR row offsets: neighbours of `u` are `adj[xadj[u]..xadj[u+1]]`.
    pub xadj: Vec<u32>,
    /// `(neighbour, weight)` pairs; every undirected edge appears twice.
    pub adj: Vec<(u32, f64)>,
    /// Node coordinates on the unit square.
    pub pos: Vec<(f64, f64)>,
    /// The connectivity radius δ actually used.
    pub delta: f64,
}

impl Graph {
    /// Neighbours of `u` with weights.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[(u32, f64)] {
        &self.adj[self.xadj[u as usize] as usize..self.xadj[u as usize + 1] as usize]
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of `u`.
    pub fn degree(&self, u: u32) -> usize {
        (self.xadj[u as usize + 1] - self.xadj[u as usize]) as usize
    }
}

/// Uniform bucket grid over the unit square for radius queries, in CSR
/// form: the points counting-sorted by cell (ascending id within a cell),
/// with their coordinates copied in that order.
struct Grid {
    cell: f64,
    dim: usize,
    /// The points of cell `by * dim + bx` are slots `start[c]..start[c + 1]`.
    start: Vec<u32>,
    /// Point id of each slot.
    ids: Vec<u32>,
    /// Coordinates of each slot.
    pts: Vec<(f64, f64)>,
}

impl Grid {
    fn build(pos: &[(f64, f64)], cell: f64) -> Grid {
        // Cap the grid resolution: more than ~n buckets buys nothing, and an
        // uncapped 1/cell can explode for near-coincident points. A coarser
        // grid is still correct (the 3×3 neighbourhood scan only requires
        // cell >= r), just slower.
        let max_dim = ((pos.len() as f64).sqrt().ceil() as usize + 1).min(4096);
        // floor keeps the effective bucket width 1/dim >= cell >= r.
        let dim = ((1.0 / cell).floor() as usize).clamp(1, max_dim.max(1));
        let cell = 1.0 / dim as f64;
        let cell_of = |(x, y): (f64, f64)| {
            let bx = ((x / cell) as usize).min(dim - 1);
            let by = ((y / cell) as usize).min(dim - 1);
            by * dim + bx
        };
        let mut start = vec![0u32; dim * dim + 1];
        for &p in pos {
            start[cell_of(p) + 1] += 1;
        }
        for c in 0..dim * dim {
            start[c + 1] += start[c];
        }
        let mut next = start.clone();
        let mut ids = vec![0u32; pos.len()];
        let mut pts = vec![(0.0, 0.0); pos.len()];
        for (i, &p) in pos.iter().enumerate() {
            let slot = &mut next[cell_of(p)];
            ids[*slot as usize] = i as u32;
            pts[*slot as usize] = p;
            *slot += 1;
        }
        Grid {
            cell,
            dim,
            start,
            ids,
            pts,
        }
    }

    /// Call `f(u, v, d2)` for every ordered pair of distinct points whose
    /// squared distance `d2` is at most `r2`, where `r2 <= cell²`. Pairs come
    /// grouped by `u` in cell order; `u`'s partners come row by row of its
    /// 3×3 neighbourhood, cell by cell, in ascending id.
    fn for_pairs_within(&self, r2: f64, mut f: impl FnMut(u32, u32, f64)) {
        // dim == 1 means the whole square is one bucket, which the 3×3 scan
        // always covers regardless of r (δ can exceed 1 on sparse inputs).
        debug_assert!(r2.sqrt() <= self.cell * (1.0 + 1e-12) || self.dim == 1);
        let dim = self.dim;
        for by in 0..dim {
            let rows = by.saturating_sub(1)..=(by + 1).min(dim - 1);
            for bx in 0..dim {
                // A row's three neighbouring cells are adjacent slot ranges.
                let (first, last) = (bx.saturating_sub(1), (bx + 1).min(dim - 1));
                let c = by * dim + bx;
                for k in self.start[c] as usize..self.start[c + 1] as usize {
                    let (u, (x, y)) = (self.ids[k], self.pts[k]);
                    for nby in rows.clone() {
                        let span = self.start[nby * dim + first] as usize
                            ..self.start[nby * dim + last + 1] as usize;
                        for j in span {
                            if j == k {
                                continue;
                            }
                            let (vx, vy) = self.pts[j];
                            let d2 = (vx - x) * (vx - x) + (vy - y) * (vy - y);
                            if d2 <= r2 {
                                f(u, self.ids[j], d2);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The largest nearest-neighbour squared distance over all points, or
/// `None` if some point has no other point within `r2`. Every spanning
/// tree has an edge at each point, so this is a lower bound on `b`.
fn longest_nearest(grid: &Grid, n: usize, r2: f64) -> Option<f64> {
    let mut nearest = vec![f64::INFINITY; n];
    grid.for_pairs_within(r2, |u, _, d2| {
        let m = &mut nearest[u as usize];
        *m = m.min(d2);
    });
    let l = nearest.iter().fold(0.0f64, |a, &d2| a.max(d2));
    (l <= r2).then_some(l)
}

/// The pairs within `r2` longer than `l` whose endpoints `uf` holds in
/// different components, as `(d2, u, v)` with `u < v`: the only edges a
/// Kruskal pass over `uf`'s components can still use.
fn tail_pairs(grid: &Grid, r2: f64, l: f64, uf: &mut UnionFind) -> Vec<(f64, u32, u32)> {
    let mut tail = Vec::new();
    grid.for_pairs_within(r2, |u, v, d2| {
        if u < v && d2 > l && !uf.connected(u, v) {
            tail.push((d2, u, v));
        }
    });
    tail
}

/// The bottleneck `b` of the points' minimum spanning tree if `G(r)` is
/// connected, `None` if it is not. Stores no edge list: the pairs up to the
/// longest nearest-neighbour distance `l` are unioned as they are found,
/// and only the pairs left between components are kept for Kruskal.
fn bottleneck_within(pos: &[(f64, f64)], r: f64) -> Option<f64> {
    let n = pos.len();
    if n <= 1 {
        return Some(0.0);
    }
    let grid = Grid::build(pos, r.max(1e-9));
    let r2 = r * r;
    let l = longest_nearest(&grid, n, r2)?;
    // b >= l, so if the pairs up to l connect the points, b = l.
    let mut uf = UnionFind::new(n);
    grid.for_pairs_within(l, |u, v, _| {
        if u < v {
            uf.union(u, v);
        }
    });
    if uf.components() == 1 {
        return Some(l);
    }
    let mut tail = tail_pairs(&grid, r2, l, &mut uf);
    tail.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    for (d2, u, v) in tail {
        if uf.union(u, v) && uf.components() == 1 {
            return Some(d2);
        }
    }
    None
}

/// The bisection's starting radius for `n` points. The connectivity
/// threshold of a random geometric graph is Θ(sqrt(ln n / n)); the bracket
/// starts around it and is doubled while `G(hi)` is disconnected.
fn initial_hi(n: usize) -> f64 {
    (2.0 * ((n.max(2) as f64).ln() / (std::f64::consts::PI * n as f64)).sqrt())
        .clamp(1e-3, 2.0_f64.sqrt())
}

/// The bracket's top after its doublings, and the bottleneck `b`.
/// `bottleneck_within` is `None` exactly when `G(hi)` is disconnected, so
/// this doubles `hi` as often as the bisection does.
fn bracket_and_bottleneck(pos: &[(f64, f64)]) -> (f64, f64) {
    let mut hi = initial_hi(pos.len());
    loop {
        if let Some(b) = bottleneck_within(pos, hi) {
            return (hi, b);
        }
        hi *= 2.0;
    }
}

/// `G(r)` in CSR form: a counting scan sets `xadj`, a fill scan writes
/// `adj` at its exact size, and each row is sorted by neighbour id.
fn csr_within(pos: &[(f64, f64)], r: f64) -> (Vec<u32>, Vec<(u32, f64)>) {
    let n = pos.len();
    let grid = Grid::build(pos, r.max(1e-9));
    let r2 = r * r;
    let mut xadj = vec![0u32; n + 1];
    grid.for_pairs_within(r2, |u, _, _| xadj[u as usize + 1] += 1);
    for u in 0..n {
        xadj[u + 1] += xadj[u];
    }
    let mut next = xadj[..n].to_vec();
    let mut adj = vec![(0u32, 0.0f64); xadj[n] as usize];
    grid.for_pairs_within(r2, |u, v, d2| {
        let slot = &mut next[u as usize];
        adj[*slot as usize] = (v, d2.sqrt());
        *slot += 1;
    });
    for u in 0..n {
        adj[xadj[u] as usize..xadj[u + 1] as usize].sort_unstable_by_key(|a| a.0);
    }
    (xadj, adj)
}

/// Generate the paper's input graph: `n` uniform points on the unit square,
/// connected at the minimal radius δ, with Euclidean edge weights. `δ` is
/// the bisection's result to relative precision 1e-6 above the exact
/// threshold `sqrt(b)`, replayed from the bottleneck `b` (see the module
/// docs).
pub fn geometric_graph(n: usize, seed: u64) -> Graph {
    assert!(n >= 1);
    graph_on(random_points(n, seed))
}

/// `n` uniform points on the unit square, drawn from `seed`.
fn random_points(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect()
}

/// `G(δ)` on the given points.
fn graph_on(pos: Vec<(f64, f64)>) -> Graph {
    // The bisection that defines δ, each probe answered by `b`.
    let (mut hi, b) = bracket_and_bottleneck(&pos);
    let mut lo = 0.0f64;
    while hi - lo > 1e-6 * hi {
        let mid = 0.5 * (lo + hi);
        if mid * mid >= b {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let delta = hi;
    let (xadj, adj) = csr_within(&pos, delta);
    Graph {
        n: pos.len(),
        xadj,
        adj,
        pos,
        delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference generator's bucket grid: one `Vec` of point ids per
    /// cell, rebuilt at every probe.
    struct BucketGrid {
        cell: f64,
        dim: usize,
        buckets: Vec<Vec<u32>>,
    }

    impl BucketGrid {
        fn build(pos: &[(f64, f64)], cell: f64) -> BucketGrid {
            let max_dim = ((pos.len() as f64).sqrt().ceil() as usize + 1).min(4096);
            let dim = ((1.0 / cell).floor() as usize).clamp(1, max_dim.max(1));
            let cell = 1.0 / dim as f64;
            let mut buckets = vec![Vec::new(); dim * dim];
            for (i, &(x, y)) in pos.iter().enumerate() {
                let bx = ((x / cell) as usize).min(dim - 1);
                let by = ((y / cell) as usize).min(dim - 1);
                buckets[by * dim + bx].push(i as u32);
            }
            BucketGrid { cell, dim, buckets }
        }

        /// Visit every node within distance `r <= cell` of node `u`
        /// (excluding `u`).
        fn for_neighbors(&self, pos: &[(f64, f64)], u: u32, r: f64, mut f: impl FnMut(u32, f64)) {
            let (x, y) = pos[u as usize];
            let bx = ((x / self.cell) as usize).min(self.dim - 1);
            let by = ((y / self.cell) as usize).min(self.dim - 1);
            let r2 = r * r;
            for nby in by.saturating_sub(1)..=(by + 1).min(self.dim - 1) {
                for nbx in bx.saturating_sub(1)..=(bx + 1).min(self.dim - 1) {
                    for &v in &self.buckets[nby * self.dim + nbx] {
                        if v == u {
                            continue;
                        }
                        let (vx, vy) = pos[v as usize];
                        let d2 = (vx - x) * (vx - x) + (vy - y) * (vy - y);
                        if d2 <= r2 {
                            f(v, d2.sqrt());
                        }
                    }
                }
            }
        }
    }

    /// Is `G(r)` on these points a single connected component? A union-find
    /// sweep over every pair within `r`.
    fn connected_at(pos: &[(f64, f64)], r: f64) -> bool {
        let n = pos.len();
        if n <= 1 {
            return true;
        }
        let grid = BucketGrid::build(pos, r.max(1e-9));
        let mut uf = UnionFind::new(n);
        for u in 0..n as u32 {
            grid.for_neighbors(pos, u, r, |v, _| {
                uf.union(u, v);
            });
            if u % 1024 == 0 && uf.components() == 1 {
                return true;
            }
        }
        uf.components() == 1
    }

    /// The reference `G(δ)`: the bisection with a `connected_at` sweep at
    /// every probe, and the graph gathered in one `Vec` per node.
    fn reference_graph(pos: Vec<(f64, f64)>) -> Graph {
        let n = pos.len();
        let mut hi = initial_hi(n);
        while !connected_at(&pos, hi) {
            hi *= 2.0;
        }
        let mut lo = 0.0f64;
        while hi - lo > 1e-6 * hi {
            let mid = 0.5 * (lo + hi);
            if connected_at(&pos, mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let delta = hi;
        let grid = BucketGrid::build(&pos, delta.max(1e-9));
        let mut neigh: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for u in 0..n as u32 {
            grid.for_neighbors(&pos, u, delta, |v, d| {
                neigh[u as usize].push((v, d));
            });
        }
        let mut xadj = Vec::with_capacity(n + 1);
        let mut adj = Vec::new();
        xadj.push(0u32);
        for row in neigh.iter_mut() {
            row.sort_unstable_by_key(|a| a.0);
            adj.extend_from_slice(row);
            xadj.push(adj.len() as u32);
        }
        Graph {
            n,
            xadj,
            adj,
            pos,
            delta,
        }
    }

    /// Every bit of a graph's radius and edges.
    fn bits(g: &Graph) -> (u64, Vec<u32>, Vec<(u32, u64)>) {
        let adj = g.adj.iter().map(|&(v, w)| (v, w.to_bits())).collect();
        (g.delta.to_bits(), g.xadj.clone(), adj)
    }

    /// Squared length of every pair `u < v`, as the grid scan computes it.
    fn all_pairs(pos: &[(f64, f64)]) -> Vec<(f64, u32, u32)> {
        let mut pairs = Vec::new();
        for (u, &(x, y)) in pos.iter().enumerate() {
            for (v, &(vx, vy)) in pos.iter().enumerate().skip(u + 1) {
                let d2 = (vx - x) * (vx - x) + (vy - y) * (vy - y);
                pairs.push((d2, u as u32, v as u32));
            }
        }
        pairs
    }

    /// The bracket's top and `l` there, next to `b`.
    fn top_l_and_b(pos: &[(f64, f64)]) -> (f64, f64, f64) {
        let (hi, b) = bracket_and_bottleneck(pos);
        let l = longest_nearest(&Grid::build(pos, hi), pos.len(), hi * hi).unwrap();
        (hi, l, b)
    }

    /// Two tight clusters far apart (for `n` points in all): every point's
    /// nearest neighbour is in its own cluster, so `b` is the gap.
    fn two_clusters(n: usize, seed: u64) -> Vec<(f64, f64)> {
        random_points(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| {
                let corner = if i % 2 == 0 { 0.1 } else { 0.4 };
                (corner + 0.1 * x, corner + 0.1 * y)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The generator's `G(δ)` is the probing bisection's, bit for bit.
        #[test]
        fn same_graph_as_the_probing_bisection(n in 1usize..=3000, seed in any::<u64>()) {
            let pos = random_points(n, seed);
            let want = bits(&reference_graph(pos.clone()));
            prop_assert_eq!(bits(&graph_on(pos)), want, "n = {}, seed = {}", n, seed);
        }

        /// `G(r)` is connected exactly when `r * r >= b`: at radii around
        /// δ, and at `sqrt(b)` and the floats on either side of it.
        #[test]
        fn connected_exactly_when_r_squared_reaches_b(
            n in 2usize..=1500,
            seed in any::<u64>(),
            t in -1.0f64..1.0,
        ) {
            let pos = random_points(n, seed);
            let (_, b) = bracket_and_bottleneck(&pos);
            let root = b.sqrt();
            for r in [root * (1.0 + 1e-3 * t), root.next_down(), root, root.next_up()] {
                prop_assert_eq!(connected_at(&pos, r), r * r >= b, "n = {}, seed = {}, r = {}", n, seed, r);
            }
        }

        /// `b` is the longest edge of a Kruskal tree over all pairs.
        #[test]
        fn b_is_the_spanning_tree_bottleneck(n in 2usize..=300, seed in any::<u64>()) {
            let pos = random_points(n, seed);
            let mut pairs = all_pairs(&pos);
            pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let mut uf = UnionFind::new(n);
            let want = pairs
                .into_iter()
                .find(|&(_, u, v)| uf.union(u, v) && uf.components() == 1)
                .unwrap()
                .0;
            prop_assert_eq!(bracket_and_bottleneck(&pos).1.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn b_is_the_longest_nearest_neighbour_on_uniform_points() {
        for (n, seed) in [(2_500, 7), (10_000, 13)] {
            let (_, l, b) = top_l_and_b(&random_points(n, seed));
            assert_eq!(b.to_bits(), l.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn the_kruskal_tail_keeps_only_pairs_between_components() {
        for pos in [two_clusters(40, 1), two_clusters(400, 2)] {
            let (hi, l, b) = top_l_and_b(&pos);
            assert!(b > l, "the tail is reached");
            let mut uf = UnionFind::new(pos.len());
            let pairs = all_pairs(&pos);
            for &(d2, u, v) in &pairs {
                if d2 <= l {
                    uf.union(u, v);
                }
            }
            let mut want: Vec<_> = pairs
                .into_iter()
                .filter(|&(d2, u, v)| d2 > l && d2 <= hi * hi && !uf.connected(u, v))
                .collect();
            let mut got = tail_pairs(&Grid::build(&pos, hi), hi * hi, l, &mut uf);
            want.sort_unstable_by_key(|&(_, u, v)| (u, v));
            got.sort_unstable_by_key(|&(_, u, v)| (u, v));
            assert_eq!(got, want);
            assert_eq!(bits(&graph_on(pos.clone())), bits(&reference_graph(pos)));
        }
    }

    #[test]
    fn the_bracket_doubles_past_an_isolated_point_and_past_a_gap() {
        // Two points further apart than the first bracket: the nearest-
        // neighbour scan finds a point with no neighbour.
        let isolated = vec![(0.05, 0.05), (0.95, 0.95)];
        let hi = initial_hi(2);
        assert!(longest_nearest(&Grid::build(&isolated, hi), 2, hi * hi).is_none());
        // Two close pairs as far apart: every point has a neighbour, but
        // the Kruskal tail cannot bridge the gap.
        let gap = vec![(0.05, 0.05), (0.06, 0.05), (0.95, 0.95), (0.94, 0.95)];
        let hi = initial_hi(4);
        assert!(longest_nearest(&Grid::build(&gap, hi), 4, hi * hi).is_some());
        assert!(bottleneck_within(&gap, hi).is_none());
        for pos in [isolated, gap] {
            assert!(bracket_and_bottleneck(&pos).0 > initial_hi(pos.len()));
            assert_eq!(bits(&graph_on(pos.clone())), bits(&reference_graph(pos)));
        }
    }

    #[test]
    fn an_edge_exactly_at_a_probe_radius_connects_the_probe() {
        // The first probe is the bracket's midpoint. Two points exactly that
        // far apart make its `mid * mid` equal to `b`.
        let mid = 0.5 * initial_hi(2);
        let pos = vec![(0.0, 0.5), (mid, 0.5)];
        assert_eq!(bracket_and_bottleneck(&pos).1, mid * mid);
        let g = graph_on(pos.clone());
        assert_eq!(g.delta, mid);
        assert_eq!(bits(&g), bits(&reference_graph(pos)));
    }

    #[test]
    fn benchmark_instance_is_pinned() {
        let g = geometric_graph(40_000, 9_601_996);
        assert_eq!(g.delta.to_bits(), 0x3f83_99b1_4b3c_d09e);
        assert_eq!(g.delta, 0.009570489033287107);
        assert_eq!(g.m(), 228_606);
        let (_, l, b) = top_l_and_b(&g.pos);
        assert_eq!(b.to_bits(), l.to_bits());
    }

    fn check_graph_invariants(g: &Graph) {
        assert_eq!(g.xadj.len(), g.n + 1);
        // Symmetry: (u,v,w) implies (v,u,w).
        for u in 0..g.n as u32 {
            for &(v, w) in g.neighbors(u) {
                assert_ne!(v, u, "no self loops");
                assert!(
                    g.neighbors(v).iter().any(|&(x, w2)| x == u && w2 == w),
                    "edge ({u},{v}) not symmetric"
                );
                let (ux, uy) = g.pos[u as usize];
                let (vx, vy) = g.pos[v as usize];
                let d = ((ux - vx).powi(2) + (uy - vy).powi(2)).sqrt();
                assert!((d - w).abs() < 1e-12, "weight is the distance");
                assert!(w <= g.delta * (1.0 + 1e-9), "no edge longer than δ");
            }
        }
        // Connectivity.
        let mut uf = UnionFind::new(g.n);
        for u in 0..g.n as u32 {
            for &(v, _) in g.neighbors(u) {
                uf.union(u, v);
            }
        }
        assert_eq!(uf.components(), 1, "G(δ) must be connected");
    }

    #[test]
    fn small_graphs_are_valid() {
        for n in [1usize, 2, 3, 10, 100] {
            let g = geometric_graph(n, 42);
            check_graph_invariants(&g);
        }
    }

    #[test]
    fn medium_graph_is_valid_and_sparse() {
        let g = geometric_graph(2500, 7);
        check_graph_invariants(&g);
        // Average degree at the connectivity threshold is Θ(ln n): allow a
        // generous band.
        let avg_deg = g.adj.len() as f64 / g.n as f64;
        assert!(avg_deg > 2.0 && avg_deg < 40.0, "avg degree {}", avg_deg);
    }

    #[test]
    fn delta_is_minimal() {
        let g = geometric_graph(500, 3);
        // Slightly below δ the graph must be disconnected.
        assert!(!connected_at(&g.pos, g.delta * 0.999));
        assert!(connected_at(&g.pos, g.delta));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = geometric_graph(300, 11);
        let b = geometric_graph(300, 11);
        assert_eq!(a.xadj, b.xadj);
        assert_eq!(a.pos, b.pos);
        let c = geometric_graph(300, 12);
        assert_ne!(a.pos, c.pos);
    }
}

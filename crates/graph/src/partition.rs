//! Spatial graph partitioning into the paper's home/border node structure.
//!
//! "We assume that the input graph is initially partitioned among the
//! processors. Each processor contains a data structure representing the
//! portion of the graph for which it is responsible, and also a copy of each
//! node in the graph that is connected to a node in its portion. The nodes
//! for which a processor is responsible are called *home nodes* and the
//! other nodes are called *border nodes*." (§3.3)
//!
//! Because the input graphs are geometric, the partition is spatial: a
//! balanced kd-split of the node positions, which keeps the border small
//! (`O(√(n/p))` nodes per cut for these graphs).
//!
//! Home nodes get local ids along a Morton (Z-order) curve of their
//! positions, so a relaxation's neighbours sit in nearby `dist` slots and
//! adjacency rows; border nodes follow in ascending global id.

use crate::gen::Graph;
use std::collections::HashMap;

/// Partition node positions into `nparts` parts of near-equal size by
/// recursive median bisection along the wider axis. Returns the owner part
/// of each node.
pub fn partition_kd(pos: &[(f64, f64)], nparts: usize) -> Vec<u32> {
    assert!(nparts >= 1);
    let mut owner = vec![0u32; pos.len()];
    let mut idx: Vec<u32> = (0..pos.len() as u32).collect();
    split(&mut idx, pos, 0, nparts as u32, &mut owner);
    owner
}

fn split(idx: &mut [u32], pos: &[(f64, f64)], first_part: u32, nparts: u32, owner: &mut [u32]) {
    if nparts == 1 {
        for &i in idx.iter() {
            owner[i as usize] = first_part;
        }
        return;
    }
    if idx.is_empty() {
        return;
    }
    // Wider axis of the bounding box.
    let (mut xmin, mut xmax, mut ymin, mut ymax) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &i in idx.iter() {
        let (x, y) = pos[i as usize];
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    let axis_x = (xmax - xmin) >= (ymax - ymin);
    // Split node count proportionally to the processor counts on each side.
    let left_parts = nparts / 2;
    let k = (idx.len() as u64 * left_parts as u64 / nparts as u64) as usize;
    let key = |i: &u32| {
        let (x, y) = pos[*i as usize];
        if axis_x {
            x
        } else {
            y
        }
    };
    if k > 0 && k < idx.len() {
        idx.select_nth_unstable_by(k, |a, b| {
            key(a).partial_cmp(&key(b)).unwrap().then(a.cmp(b))
        });
    }
    let (left, right) = idx.split_at_mut(k);
    split(left, pos, first_part, left_parts, owner);
    split(
        right,
        pos,
        first_part + left_parts,
        nparts - left_parts,
        owner,
    );
}

/// One processor's portion of a distributed graph.
///
/// Local node ids: home nodes are `0..n_home()` (in Morton order of their
/// positions, ties by global id), border nodes are
/// `n_home()..n_home()+border_gid.len()` (in ascending global id).
#[derive(Clone, Debug)]
pub struct LocalGraph {
    /// This processor's id.
    pub pid: usize,
    /// Number of processors in the partition.
    pub nprocs: usize,
    /// Total nodes in the global graph.
    pub n_global: usize,
    /// Global ids of home nodes, by local id: ascending in
    /// `(Morton key of the position, global id)`.
    pub home: Vec<u32>,
    /// CSR offsets over home nodes (by home local index).
    pub xadj: Vec<u32>,
    /// `(local id, weight)` adjacency of home nodes; targets may be home or
    /// border local ids.
    pub adj: Vec<(u32, f64)>,
    /// Global ids of border nodes, ascending.
    pub border_gid: Vec<u32>,
    /// Owner processor of each border node (parallel to `border_gid`).
    pub border_owner: Vec<u32>,
    /// Global id -> local id, for home and border nodes.
    pub gid_to_lid: HashMap<u32, u32>,
    /// CSR offsets of `adj_procs`: distinct remote processors adjacent to
    /// each home node (used by the conservative label pushes).
    pub adj_procs_xadj: Vec<u32>,
    /// Flattened distinct adjacent remote processors per home node.
    pub adj_procs: Vec<u32>,
}

impl LocalGraph {
    /// Number of home nodes.
    #[inline]
    pub fn n_home(&self) -> usize {
        self.home.len()
    }

    /// Global id of a local node (home or border).
    #[inline]
    pub fn gid(&self, lid: u32) -> u32 {
        let nh = self.home.len() as u32;
        if lid < nh {
            self.home[lid as usize]
        } else {
            self.border_gid[(lid - nh) as usize]
        }
    }

    /// Local id of a global node if this processor holds it.
    #[inline]
    pub fn lid(&self, gid: u32) -> Option<u32> {
        self.gid_to_lid.get(&gid).copied()
    }

    /// Is this local id a home node?
    #[inline]
    pub fn is_home(&self, lid: u32) -> bool {
        (lid as usize) < self.home.len()
    }

    /// Adjacency of a home node, as `(local id, weight)` pairs.
    #[inline]
    pub fn neighbors(&self, home_lid: u32) -> &[(u32, f64)] {
        &self.adj[self.xadj[home_lid as usize] as usize..self.xadj[home_lid as usize + 1] as usize]
    }

    /// Distinct remote processors adjacent to a home node.
    #[inline]
    pub fn remote_procs(&self, home_lid: u32) -> &[u32] {
        &self.adj_procs[self.adj_procs_xadj[home_lid as usize] as usize
            ..self.adj_procs_xadj[home_lid as usize + 1] as usize]
    }

    /// Owner of a border node given its local id.
    #[inline]
    pub fn owner_of_border(&self, lid: u32) -> u32 {
        self.border_owner[(lid as usize) - self.home.len()]
    }
}

/// Morton key of a position on the unit square: `x` and `y` quantised to
/// 16 bits each (clamped to the square) and interleaved, `x` in the even
/// bits.
fn morton_key((x, y): (f64, f64)) -> u32 {
    fn spread(c: f64) -> u32 {
        let mut v = ((c * 65536.0) as u32).min(0xFFFF); // `as` saturates, NaN -> 0
        v = (v | (v << 8)) & 0x00FF_00FF;
        v = (v | (v << 4)) & 0x0F0F_0F0F;
        v = (v | (v << 2)) & 0x3333_3333;
        (v | (v << 1)) & 0x5555_5555
    }
    spread(x) | (spread(y) << 1)
}

/// Build every processor's [`LocalGraph`] from a global graph and an owner
/// map (e.g. from [`partition_kd`]).
pub fn build_locals(g: &Graph, owner: &[u32], nprocs: usize) -> Vec<LocalGraph> {
    assert_eq!(owner.len(), g.n);
    // One global Morton order; each process takes its home nodes in it.
    let mut order: Vec<(u32, u32)> = (0..g.n as u32)
        .map(|u| (morton_key(g.pos[u as usize]), u))
        .collect();
    order.sort_unstable();
    let mut homes: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
    for (_, u) in order {
        homes[owner[u as usize] as usize].push(u);
    }
    // Dense global -> local index for the adjacency translation, shared by
    // the processes in turn. Each process sets the entries of its home and
    // border nodes before reading any, and every neighbour of a home node
    // is one of those, so another process's stale entries are never read.
    let mut lid_of = vec![0u32; g.n];
    homes
        .into_iter()
        .enumerate()
        .map(|(pid, home)| {
            // Collect border nodes.
            let mut border: Vec<u32> = Vec::new();
            for &u in &home {
                for &(v, _) in g.neighbors(u) {
                    if owner[v as usize] as usize != pid {
                        border.push(v);
                    }
                }
            }
            border.sort_unstable();
            border.dedup();
            let mut gid_to_lid = HashMap::with_capacity(home.len() + border.len());
            for (lid, &u) in home.iter().chain(&border).enumerate() {
                gid_to_lid.insert(u, lid as u32);
                lid_of[u as usize] = lid as u32;
            }
            let border_owner: Vec<u32> = border.iter().map(|&b| owner[b as usize]).collect();
            // Home adjacency in local ids + distinct adjacent remote procs.
            let mut xadj = Vec::with_capacity(home.len() + 1);
            let mut adj = Vec::new();
            let mut apx = Vec::with_capacity(home.len() + 1);
            let mut aps = Vec::new();
            xadj.push(0u32);
            apx.push(0u32);
            let mut procs_buf: Vec<u32> = Vec::new();
            for &u in &home {
                procs_buf.clear();
                for &(v, w) in g.neighbors(u) {
                    adj.push((lid_of[v as usize], w));
                    let o = owner[v as usize];
                    if o as usize != pid {
                        procs_buf.push(o);
                    }
                }
                xadj.push(adj.len() as u32);
                procs_buf.sort_unstable();
                procs_buf.dedup();
                aps.extend_from_slice(&procs_buf);
                apx.push(aps.len() as u32);
            }
            LocalGraph {
                pid,
                nprocs,
                n_global: g.n,
                home,
                xadj,
                adj,
                border_gid: border,
                border_owner,
                gid_to_lid,
                adj_procs_xadj: apx,
                adj_procs: aps,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::geometric_graph;

    #[test]
    fn kd_partition_is_balanced() {
        let g = geometric_graph(1000, 13);
        for p in [1usize, 2, 3, 4, 7, 8, 16] {
            let owner = partition_kd(&g.pos, p);
            let mut counts = vec![0usize; p];
            for &o in &owner {
                counts[o as usize] += 1;
            }
            let (mn, mx) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
            assert!(
                mx - mn <= p, // proportional splits keep parts within a few nodes
                "p={}: imbalance {:?}",
                p,
                counts
            );
        }
    }

    #[test]
    fn locals_cover_graph_exactly() {
        let g = geometric_graph(600, 21);
        for p in [1usize, 2, 4, 5, 8] {
            let owner = partition_kd(&g.pos, p);
            let locals = build_locals(&g, &owner, p);
            // Every node is home exactly once.
            let mut seen = vec![0u32; g.n];
            for lg in &locals {
                for &u in &lg.home {
                    seen[u as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1));
            // Edge multiset preserved: each undirected edge counted once per
            // home endpoint.
            let total_local_adj: usize = locals.iter().map(|lg| lg.adj.len()).sum();
            assert_eq!(total_local_adj, g.adj.len());
        }
    }

    #[test]
    fn border_nodes_are_exactly_remote_neighbors() {
        let g = geometric_graph(500, 33);
        let p = 4;
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        for lg in &locals {
            for &b in &lg.border_gid {
                assert_ne!(owner[b as usize] as usize, lg.pid, "border not home");
                // b must be adjacent to some home node of lg.
                let adjacent = g
                    .neighbors(b)
                    .iter()
                    .any(|&(v, _)| owner[v as usize] as usize == lg.pid);
                assert!(adjacent, "border node {b} not adjacent to partition");
            }
            // Owners recorded correctly.
            for (i, &b) in lg.border_gid.iter().enumerate() {
                assert_eq!(lg.border_owner[i], owner[b as usize]);
            }
        }
    }

    #[test]
    fn morton_key_interleaves_the_quantised_coordinates() {
        let q = 1.0 / 65536.0; // one quantisation step
        assert_eq!(morton_key((0.0, 0.0)), 0);
        assert_eq!(morton_key((q, 0.0)), 0b01);
        assert_eq!(morton_key((0.0, q)), 0b10);
        assert_eq!(morton_key((3.0 * q, 0.0)), 0b0101);
        assert_eq!(morton_key((5.0 * q, 6.0 * q)), 0b11_10_01);
        assert_eq!(morton_key((0.5, 0.0)), 1 << 30);
        assert_eq!(morton_key((0.0, 0.5)), 1 << 31);
        // The far corner (clamped into the square) is the maximum key.
        assert_eq!(morton_key((1.0, 1.0)), u32::MAX);
        assert_eq!(morton_key((1.0 - q, 1.0 - q)), u32::MAX);
        assert_eq!(morton_key((-0.5, 2.0)), 0xAAAA_AAAA);
    }

    #[test]
    fn home_lids_follow_the_curve_and_border_lids_ascend_after_them() {
        let g = geometric_graph(800, 17);
        for p in [1usize, 2, 3, 4] {
            let owner = partition_kd(&g.pos, p);
            for lg in build_locals(&g, &owner, p) {
                let keys: Vec<(u32, u32)> = lg
                    .home
                    .iter()
                    .map(|&u| (morton_key(g.pos[u as usize]), u))
                    .collect();
                assert!(keys.windows(2).all(|k| k[0] < k[1]), "p={p}: home order");
                assert!(
                    lg.border_gid.windows(2).all(|b| b[0] < b[1]),
                    "p={p}: border"
                );
                let nh = lg.n_home() as u32;
                for (i, &b) in lg.border_gid.iter().enumerate() {
                    assert_eq!(lg.lid(b), Some(nh + i as u32), "p={p}: border {b}");
                }
            }
        }
    }

    #[test]
    fn local_ids_roundtrip() {
        let g = geometric_graph(400, 5);
        let owner = partition_kd(&g.pos, 3);
        let locals = build_locals(&g, &owner, 3);
        for lg in &locals {
            for lid in 0..(lg.home.len() + lg.border_gid.len()) as u32 {
                let gid = lg.gid(lid);
                assert_eq!(lg.lid(gid), Some(lid));
            }
            assert_eq!(lg.lid(u32::MAX), None);
        }
    }

    #[test]
    fn adjacency_weights_match_global() {
        let g = geometric_graph(300, 8);
        let owner = partition_kd(&g.pos, 4);
        let locals = build_locals(&g, &owner, 4);
        for lg in &locals {
            for h in 0..lg.n_home() as u32 {
                let u = lg.home[h as usize];
                let mut local: Vec<(u32, u64)> = lg
                    .neighbors(h)
                    .iter()
                    .map(|&(lid, w)| (lg.gid(lid), w.to_bits()))
                    .collect();
                let mut global: Vec<(u32, u64)> = g
                    .neighbors(u)
                    .iter()
                    .map(|&(v, w)| (v, w.to_bits()))
                    .collect();
                local.sort_unstable();
                global.sort_unstable();
                assert_eq!(local, global, "node {u}");
            }
        }
    }

    #[test]
    fn remote_procs_listing_is_correct() {
        let g = geometric_graph(300, 14);
        let owner = partition_kd(&g.pos, 4);
        let locals = build_locals(&g, &owner, 4);
        for lg in &locals {
            for h in 0..lg.n_home() as u32 {
                let u = lg.home[h as usize];
                let mut expect: Vec<u32> = g
                    .neighbors(u)
                    .iter()
                    .map(|&(v, _)| owner[v as usize])
                    .filter(|&o| o as usize != lg.pid)
                    .collect();
                expect.sort_unstable();
                expect.dedup();
                assert_eq!(lg.remote_procs(h), &expect[..]);
            }
        }
    }

    #[test]
    fn spatial_partition_has_small_border() {
        // For a geometric graph, the border should be far smaller than the
        // node count — the property that makes the algorithms conservative.
        let g = geometric_graph(2500, 77);
        let p = 4;
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        for lg in &locals {
            assert!(
                lg.border_gid.len() < lg.n_home() / 2,
                "border {} vs home {}",
                lg.border_gid.len(),
                lg.n_home()
            );
        }
    }
}

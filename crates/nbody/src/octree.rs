//! The Barnes-Hut oct-tree (BH tree): hierarchical grouping of bodies into
//! clusters by spatial subdivision, with monopole (center-of-mass)
//! summaries per cell.
//!
//! Arena layout: internal nodes allocate their 8 children contiguously, so
//! children always have larger indices than their parent and a single
//! reverse sweep computes the mass summaries bottom-up. Leaves hold one
//! body (chained if coincident points exceed the depth cap).
//!
//! Forces ([`Octree::accels`]) take one tree walk per *group* of target
//! bodies, not one per body. A group is a node holding at most `GROUP`
//! bodies, or a leaf. It walks every source tree once against the bounding
//! box of its members' positions: a source cell enters the group's
//! interaction list as its monopole when `s < θ·d_min`, with `d_min` the
//! distance from the cell's center of mass to that box, and is opened
//! otherwise; leaf bodies enter as they are. Every accepted cell therefore
//! also passes the per-body test `s < θ·|com − pos|` for every member, so
//! each body's interaction set refines the one a walk of its own would
//! take. Each member is then summed against the list in `LANES`
//! independent accumulators combined in a fixed order, so the result is a
//! pure function of the trees.

use crate::body::{Aabb, Body};
use crate::vec3::{v3, V3};

/// Tree node: a cubic cell.
#[derive(Clone, Debug)]
pub struct Node {
    /// Cell center.
    pub center: V3,
    /// Half the cell edge length.
    pub half: f64,
    /// Total mass of bodies in the cell.
    pub mass: f64,
    /// Center of mass of the cell.
    pub com: V3,
    /// Number of bodies in the cell.
    pub count: u32,
    /// Index of the first of 8 contiguous children; 0 means leaf.
    pub children: u32,
    /// Head of the body chain for leaves (-1 = empty).
    pub body: i32,
}

/// The Barnes-Hut tree over a set of bodies.
pub struct Octree<'a> {
    /// The bodies the tree was built over.
    pub bodies: &'a [Body],
    /// Node arena; index 0 is the root.
    pub nodes: Vec<Node>,
    /// Next-pointers chaining bodies within a leaf (parallel to `bodies`).
    next: Vec<i32>,
}

/// Maximum subdivision depth (guards against coincident bodies).
const MAX_DEPTH: u32 = 48;

/// Largest body count of a node whose bodies share one interaction list.
const GROUP: u32 = 64;

/// Independent accumulators of the list sum.
const LANES: usize = 4;

/// A group's interaction list: mass points as four reused arrays.
#[derive(Default)]
struct List {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    m: Vec<f64>,
}

impl List {
    fn clear(&mut self) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.m.clear();
    }

    fn push(&mut self, pos: V3, mass: f64) {
        self.x.push(pos.x);
        self.y.push(pos.y);
        self.z.push(pos.z);
        self.m.push(mass);
    }

    fn len(&self) -> usize {
        self.m.len()
    }

    /// Pad to a whole number of lanes with massless points, whose terms
    /// are exactly 0.
    fn pad(&mut self) {
        while !self.len().is_multiple_of(LANES) {
            self.push(V3::ZERO, 0.0);
        }
    }

    /// Softened acceleration at `pos` from every point of the padded list.
    /// A point at distance 0 contributes exactly 0 because `eps2 > 0`.
    fn accel_at(&self, pos: V3, eps2: f64) -> V3 {
        let (mut ax, mut ay, mut az) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
        let lanes = self
            .x
            .chunks_exact(LANES)
            .zip(self.y.chunks_exact(LANES))
            .zip(self.z.chunks_exact(LANES))
            .zip(self.m.chunks_exact(LANES));
        for (((x, y), z), m) in lanes {
            for l in 0..LANES {
                let (dx, dy, dz) = (x[l] - pos.x, y[l] - pos.y, z[l] - pos.z);
                let r2 = dx * dx + dy * dy + dz * dz + eps2;
                let f = m[l] / (r2 * r2.sqrt());
                ax[l] += dx * f;
                ay[l] += dy * f;
                az[l] += dz * f;
            }
        }
        v3(ax.iter().sum(), ay.iter().sum(), az.iter().sum())
    }
}

/// The group opening test: `n` may stand in for its bodies everywhere in
/// `bx` when `s² < θ²·d_min²`, `d_min` the distance from its center of
/// mass to the box. `d_min` is at most the distance to any point of the
/// box, so this implies the per-body test for every such point.
fn accepts(n: &Node, bx: &Aabb, theta2: f64) -> bool {
    let gap = |lo: f64, hi: f64, c: f64| (lo - c).max(0.0).max(c - hi);
    let d = v3(
        gap(bx.lo.x, bx.hi.x, n.com.x),
        gap(bx.lo.y, bx.hi.y, n.com.y),
        gap(bx.lo.z, bx.hi.z, n.com.z),
    );
    let s = n.half * 2.0;
    s * s < theta2 * d.norm2()
}

impl<'a> Octree<'a> {
    /// Build the tree over `bodies` (possibly empty).
    pub fn build(bodies: &'a [Body]) -> Octree<'a> {
        // Bounding cube.
        let mut lo = v3(f64::MAX, f64::MAX, f64::MAX);
        let mut hi = v3(f64::MIN, f64::MIN, f64::MIN);
        for b in bodies {
            lo = lo.min(b.pos);
            hi = hi.max(b.pos);
        }
        if bodies.is_empty() {
            lo = V3::ZERO;
            hi = V3::ZERO;
        }
        let center = (lo + hi) * 0.5;
        let half = ((hi - lo).x.max((hi - lo).y).max((hi - lo).z) * 0.5).max(1e-12) * 1.0000001;
        let mut tree = Octree {
            bodies,
            nodes: vec![Node {
                center,
                half,
                mass: 0.0,
                com: V3::ZERO,
                count: 0,
                children: 0,
                body: -1,
            }],
            next: vec![-1; bodies.len()],
        };
        for i in 0..bodies.len() {
            tree.insert(i as u32);
        }
        tree.summarize();
        tree
    }

    /// Next body in a leaf's chain (-1 ends the chain).
    #[inline]
    pub fn next_of(&self, b: i32) -> i32 {
        self.next[b as usize]
    }

    #[inline]
    fn octant(center: V3, p: V3) -> usize {
        ((p.x >= center.x) as usize)
            | (((p.y >= center.y) as usize) << 1)
            | (((p.z >= center.z) as usize) << 2)
    }

    fn child_cell(center: V3, half: f64, oct: usize) -> (V3, f64) {
        let h = half * 0.5;
        let off = v3(
            if oct & 1 != 0 { h } else { -h },
            if oct & 2 != 0 { h } else { -h },
            if oct & 4 != 0 { h } else { -h },
        );
        (center + off, h)
    }

    fn insert(&mut self, bi: u32) {
        let mut node = 0usize;
        let mut depth = 0;
        loop {
            self.nodes[node].count += 1;
            if self.nodes[node].children != 0 {
                // Internal: descend.
                let oct = Self::octant(self.nodes[node].center, self.bodies[bi as usize].pos);
                node = self.nodes[node].children as usize + oct;
                depth += 1;
                continue;
            }
            // Leaf.
            if self.nodes[node].body < 0 {
                self.nodes[node].body = bi as i32;
                return;
            }
            if depth >= MAX_DEPTH {
                // Chain (coincident or near-coincident bodies).
                self.next[bi as usize] = self.nodes[node].body;
                self.nodes[node].body = bi as i32;
                return;
            }
            // Split: allocate 8 children and push the resident chain down.
            let base = self.nodes.len() as u32;
            let (c, h) = (self.nodes[node].center, self.nodes[node].half);
            for oct in 0..8 {
                let (cc, ch) = Self::child_cell(c, h, oct);
                self.nodes.push(Node {
                    center: cc,
                    half: ch,
                    mass: 0.0,
                    com: V3::ZERO,
                    count: 0,
                    children: 0,
                    body: -1,
                });
            }
            self.nodes[node].children = base;
            let mut resident = self.nodes[node].body;
            self.nodes[node].body = -1;
            while resident >= 0 {
                let nxt = self.next[resident as usize];
                self.next[resident as usize] = -1;
                let oct = Self::octant(c, self.bodies[resident as usize].pos);
                let child = base as usize + oct;
                // Re-thread into the child leaf (children of a fresh split
                // are leaves; counts fixed below).
                self.next[resident as usize] = self.nodes[child].body;
                self.nodes[child].body = resident;
                self.nodes[child].count += 1;
                resident = nxt;
            }
            // Continue insertion of bi from this node (it is internal now);
            // the count was already incremented for this node.
            let oct = Self::octant(c, self.bodies[bi as usize].pos);
            node = base as usize + oct;
            depth += 1;
        }
    }

    /// Bottom-up mass/center-of-mass summaries. Children follow parents in
    /// the arena, so one reverse sweep suffices.
    fn summarize(&mut self) {
        for i in (0..self.nodes.len()).rev() {
            let n = &self.nodes[i];
            let (mut mass, mut weighted) = (0.0, V3::ZERO);
            if n.children != 0 {
                for c in 0..8usize {
                    let ch = &self.nodes[n.children as usize + c];
                    mass += ch.mass;
                    weighted += ch.com * ch.mass;
                }
            } else {
                let mut b = n.body;
                while b >= 0 {
                    let body = &self.bodies[b as usize];
                    mass += body.mass;
                    weighted += body.pos * body.mass;
                    b = self.next[b as usize];
                }
            }
            let node = &mut self.nodes[i];
            node.mass = mass;
            node.com = if mass > 0.0 {
                weighted / mass
            } else {
                node.center
            };
        }
    }

    /// Gravitational acceleration on every body of this tree (indexed like
    /// `bodies`) from all bodies of `sources`, with opening angle `theta`
    /// and Plummer softening `eps > 0`; also the number of terms evaluated,
    /// the work charged to the BSP cost model. A body's own term, like that
    /// of any body at distance 0, is exactly 0.
    pub fn accels(&self, sources: &[&Octree<'_>], theta: f64, eps: f64) -> (Vec<V3>, u64) {
        debug_assert!(eps > 0.0, "a term at distance 0 is 0 only under softening");
        let (theta2, eps2) = (theta * theta, eps * eps);
        let mut acc = vec![V3::ZERO; self.bodies.len()];
        let mut terms = 0u64;
        let (mut list, mut stack) = (List::default(), Vec::new());
        self.for_each_group(|members, bx| {
            list.clear();
            for src in sources {
                src.gather(bx, theta2, &mut stack, &mut list);
            }
            terms += (list.len() * members.len()) as u64;
            list.pad();
            for &b in members {
                acc[b as usize] = list.accel_at(self.bodies[b as usize].pos, eps2);
            }
        });
        (acc, terms)
    }

    /// Call `f(members, bbox)` once per group, in a fixed order: `members`
    /// are body indices, `bbox` the bounding box of their positions.
    fn for_each_group(&self, mut f: impl FnMut(&[u32], &Aabb)) {
        let (mut groups, mut sub, mut members) = (vec![0u32], Vec::new(), Vec::new());
        while let Some(gi) = groups.pop() {
            let g = &self.nodes[gi as usize];
            if g.count == 0 {
                continue;
            }
            if g.children != 0 && g.count > GROUP {
                groups.extend((0..8).map(|c| g.children + c));
                continue;
            }
            members.clear();
            let mut bx = Aabb::EMPTY;
            sub.push(gi);
            while let Some(ni) = sub.pop() {
                let n = &self.nodes[ni as usize];
                if n.children != 0 {
                    sub.extend((0..8).map(|c| n.children + c));
                }
                let mut b = n.body;
                while b >= 0 {
                    members.push(b as u32);
                    bx.include(self.bodies[b as usize].pos);
                    b = self.next[b as usize];
                }
            }
            f(&members, &bx);
        }
    }

    /// Append this tree's terms for a group with bounding box `bx` to
    /// `list`: accepted cells as monopoles, leaf bodies as they are.
    fn gather(&self, bx: &Aabb, theta2: f64, stack: &mut Vec<u32>, list: &mut List) {
        stack.clear();
        stack.push(0);
        while let Some(ni) = stack.pop() {
            let n = &self.nodes[ni as usize];
            if n.count == 0 {
                continue;
            }
            if n.children == 0 {
                let mut b = n.body;
                while b >= 0 {
                    let body = &self.bodies[b as usize];
                    list.push(body.pos, body.mass);
                    b = self.next[b as usize];
                }
            } else if accepts(n, bx, theta2) {
                list.push(n.com, n.mass);
            } else {
                stack.extend((0..8).map(|c| n.children + c));
            }
        }
    }

    /// Gravitational potential at `pos` (excluding body `skip_id`), with
    /// the per-body opening test `s < θ·|com − pos|`. For diagnostics.
    pub fn potential(&self, pos: V3, skip_id: u32, theta: f64, eps: f64) -> f64 {
        let mut pot = 0.0;
        if self.nodes[0].count == 0 {
            return pot;
        }
        let eps2 = eps * eps;
        let mut stack: Vec<u32> = vec![0];
        while let Some(ni) = stack.pop() {
            let n = &self.nodes[ni as usize];
            if n.count == 0 {
                continue;
            }
            let dist2 = (n.com - pos).norm2();
            let s = n.half * 2.0;
            if n.children != 0 {
                if s * s < theta * theta * dist2 {
                    pot -= n.mass / (dist2 + eps2).sqrt();
                } else {
                    for c in 0..8 {
                        stack.push(n.children + c);
                    }
                }
            } else {
                let mut b = n.body;
                while b >= 0 {
                    let body = &self.bodies[b as usize];
                    if body.id != skip_id {
                        pot -= body.mass / ((body.pos - pos).norm2() + eps2).sqrt();
                    }
                    b = self.next[b as usize];
                }
            }
        }
        pot
    }
}

/// Direct O(n²) acceleration on each body — the accuracy baseline.
pub fn direct_accels(bodies: &[Body], eps: f64) -> Vec<V3> {
    let eps2 = eps * eps;
    bodies
        .iter()
        .map(|bi| {
            let mut acc = V3::ZERO;
            for bj in bodies {
                if bj.id != bi.id {
                    let d = bj.pos - bi.pos;
                    let r2 = d.norm2() + eps2;
                    acc += d * (bj.mass / (r2 * r2.sqrt()));
                }
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plummer::plummer;

    /// The per-body walk the grouped one replaced: one traversal per
    /// target, skipping body `skip_id`. The accuracy oracle.
    fn per_body_accel(tree: &Octree<'_>, pos: V3, skip_id: u32, theta: f64, eps: f64) -> V3 {
        let mut acc = V3::ZERO;
        let eps2 = eps * eps;
        let mut stack = vec![0u32];
        while let Some(ni) = stack.pop() {
            let n = &tree.nodes[ni as usize];
            if n.count == 0 {
                continue;
            }
            let d = n.com - pos;
            let dist2 = d.norm2();
            let s = n.half * 2.0;
            if n.children != 0 {
                if s * s < theta * theta * dist2 {
                    let r2 = dist2 + eps2;
                    acc += d * (n.mass / (r2 * r2.sqrt()));
                } else {
                    stack.extend((0..8).map(|c| n.children + c));
                }
            } else {
                let mut b = n.body;
                while b >= 0 {
                    let body = &tree.bodies[b as usize];
                    if body.id != skip_id {
                        let d = body.pos - pos;
                        let r2 = d.norm2() + eps2;
                        acc += d * (body.mass / (r2 * r2.sqrt()));
                    }
                    b = tree.next[b as usize];
                }
            }
        }
        acc
    }

    /// Direct sum on each of `targets` from every body of `sources`.
    fn direct_from(targets: &[Body], sources: &[Body], eps: f64) -> Vec<V3> {
        targets
            .iter()
            .map(|t| {
                sources.iter().fold(V3::ZERO, |acc, s| {
                    let d = s.pos - t.pos;
                    let r2 = d.norm2() + eps * eps;
                    acc + d * (s.mass / (r2 * r2.sqrt()))
                })
            })
            .collect()
    }

    fn mean_rel_err(got: &[V3], want: &[V3]) -> f64 {
        let sum: f64 = got
            .iter()
            .zip(want)
            .map(|(a, d)| (*a - *d).norm() / d.norm().max(1e-12))
            .sum();
        sum / got.len() as f64
    }

    fn assert_close(got: &[V3], want: &[V3]) {
        assert_eq!(got.len(), want.len());
        for (i, (a, d)) in got.iter().zip(want).enumerate() {
            assert!(
                (*a - *d).norm() <= 1e-9 * d.norm().max(1.0),
                "body {i}: {a:?} vs {d:?}"
            );
        }
    }

    #[test]
    fn tree_counts_and_mass() {
        let bodies = plummer(777, 3);
        let tree = Octree::build(&bodies);
        assert_eq!(tree.nodes[0].count as usize, bodies.len());
        assert!((tree.nodes[0].mass - 1.0).abs() < 1e-12);
        // Node invariants: internal node's count equals sum of children.
        for n in &tree.nodes {
            if n.children != 0 {
                let sum: u32 = (0..8)
                    .map(|c| tree.nodes[(n.children + c) as usize].count)
                    .sum();
                assert_eq!(n.count, sum);
            }
        }
    }

    #[test]
    fn bodies_are_inside_their_cells() {
        let bodies = plummer(300, 9);
        let tree = Octree::build(&bodies);
        for n in &tree.nodes {
            let mut b = n.body;
            while b >= 0 {
                let p = bodies[b as usize].pos;
                assert!((p.x - n.center.x).abs() <= n.half * (1.0 + 1e-9));
                assert!((p.y - n.center.y).abs() <= n.half * (1.0 + 1e-9));
                assert!((p.z - n.center.z).abs() <= n.half * (1.0 + 1e-9));
                b = tree.next[b as usize];
            }
        }
    }

    #[test]
    fn theta_zero_equals_direct_sum() {
        // θ = 0 opens every cell: both walks equal the direct sum up to
        // summation order, and the grouped one evaluates every pair once,
        // each body's own (zero) term included.
        let bodies = plummer(500, 5);
        let tree = Octree::build(&bodies);
        let direct = direct_accels(&bodies, 0.05);
        let (acc, terms) = tree.accels(&[&tree], 0.0, 0.05);
        assert_close(&acc, &direct);
        assert_eq!(terms, 500 * 500);
        let oracle: Vec<V3> = bodies
            .iter()
            .map(|b| per_body_accel(&tree, b.pos, b.id, 0.0, 0.05))
            .collect();
        assert_close(&oracle, &direct);
    }

    #[test]
    fn theta_half_is_accurate() {
        // The grouped walk refines every body's interaction set; on
        // average that makes it no less accurate than the per-body walk.
        let bodies = plummer(2000, 13);
        let tree = Octree::build(&bodies);
        let direct = direct_accels(&bodies, 0.05);
        let (grouped, _) = tree.accels(&[&tree], 0.5, 0.05);
        let per_body: Vec<V3> = bodies
            .iter()
            .map(|b| per_body_accel(&tree, b.pos, b.id, 0.5, 0.05))
            .collect();
        let (g, o) = (
            mean_rel_err(&grouped, &direct),
            mean_rel_err(&per_body, &direct),
        );
        assert!(g <= o, "grouped {g} vs per-body {o}");
        assert!(o < 0.02, "per-body mean relative force error {o}");
    }

    #[test]
    fn every_accepted_cell_passes_the_per_body_test_for_every_member() {
        // Checked for every cell of the local tree and of a displaced one,
        // not only for the cells a walk reaches.
        let bodies = plummer(1200, 21);
        let far: Vec<Body> = plummer(800, 22)
            .into_iter()
            .map(|mut b| {
                b.pos.x += 2.0;
                b
            })
            .collect();
        let (tree, far_tree) = (Octree::build(&bodies), Octree::build(&far));
        for theta in [0.5f64, 1.0] {
            let mut accepted = 0;
            tree.for_each_group(|members, bx| {
                for src in [&tree, &far_tree] {
                    for n in src.nodes.iter().filter(|n| n.children != 0 && n.count > 0) {
                        if !accepts(n, bx, theta * theta) {
                            continue;
                        }
                        accepted += 1;
                        let s = n.half * 2.0;
                        for &b in members {
                            let dist2 = (n.com - bodies[b as usize].pos).norm2();
                            assert!(s * s < theta * theta * dist2, "θ={theta}: cell too close");
                        }
                    }
                }
            });
            assert!(accepted > 0, "θ={theta}: no cell accepted");
        }
    }

    #[test]
    fn group_boundary_counts() {
        for n in [GROUP - 1, GROUP, GROUP + 1] {
            let bodies = plummer(n as usize, 31);
            let tree = Octree::build(&bodies);
            let (mut groups, mut seen) = (0, vec![0u32; bodies.len()]);
            tree.for_each_group(|members, _| {
                groups += 1;
                for &b in members {
                    seen[b as usize] += 1;
                }
            });
            assert!(seen.iter().all(|&c| c == 1), "n={n}: not a partition");
            assert_eq!(groups == 1, n <= GROUP, "n={n}: {groups} groups");
            let direct = direct_accels(&bodies, 0.05);
            let (acc, terms) = tree.accels(&[&tree], 0.0, 0.05);
            assert_close(&acc, &direct);
            assert_eq!(terms, u64::from(n * n));
            let (acc, _) = tree.accels(&[&tree], 0.5, 0.05);
            let oracle: Vec<V3> = bodies
                .iter()
                .map(|b| per_body_accel(&tree, b.pos, b.id, 0.5, 0.05))
                .collect();
            assert!(mean_rel_err(&acc, &direct) <= mean_rel_err(&oracle, &direct));
        }
    }

    #[test]
    fn coincident_bodies_do_not_blow_up() {
        // More coincident bodies than a group holds: past the depth cap
        // they chain in one leaf, which is then one group by itself.
        let chained = GROUP + 6;
        let mut bodies = plummer(200, 1);
        for b in bodies.iter_mut().take(chained as usize) {
            b.pos = v3(0.25, 0.25, 0.25);
        }
        let tree = Octree::build(&bodies);
        assert_eq!(tree.nodes[0].count, 200);
        let longest = tree
            .nodes
            .iter()
            .filter(|n| n.children == 0)
            .map(|n| n.count);
        assert_eq!(longest.max(), Some(chained));
        let direct = direct_accels(&bodies, 0.05);
        let (acc, terms) = tree.accels(&[&tree], 0.0, 0.05);
        assert_close(&acc, &direct);
        assert_eq!(terms, 200 * 200);
        let (acc, _) = tree.accels(&[&tree], 0.5, 0.05);
        assert!(acc.iter().all(|a| a.norm().is_finite()));
    }

    #[test]
    fn empty_and_singleton_trees() {
        let empty: Vec<Body> = Vec::new();
        let none = Octree::build(&empty);
        assert_eq!(none.accels(&[&none], 0.5, 0.1), (vec![], 0));
        let one = plummer(1, 2);
        let single = Octree::build(&one);
        assert_eq!(single.nodes[0].count, 1);
        // The one term evaluated is the body's own, and it is exactly 0.
        assert_eq!(single.accels(&[&single], 0.5, 0.1), (vec![V3::ZERO], 1));
        // An empty source adds nothing to any target.
        assert_eq!(single.accels(&[&none], 0.5, 0.1), (vec![V3::ZERO], 0));
        let bodies = plummer(300, 4);
        let tree = Octree::build(&bodies);
        assert_eq!(
            tree.accels(&[&tree, &none], 0.5, 0.1),
            tree.accels(&[&tree], 0.5, 0.1)
        );
    }

    #[test]
    fn remote_only_source() {
        // Targets outside the source tree: one Plummer sphere pulled by a
        // displaced other, as a process is by its essential points alone.
        let local = plummer(400, 6);
        let remote: Vec<Body> = plummer(500, 7)
            .into_iter()
            .map(|mut b| {
                b.pos.x += 1.5;
                b.id += 400;
                b
            })
            .collect();
        let (lt, rt) = (Octree::build(&local), Octree::build(&remote));
        let direct = direct_from(&local, &remote, 0.05);
        let (acc, terms) = lt.accels(&[&rt], 0.0, 0.05);
        assert_close(&acc, &direct);
        assert_eq!(terms, 400 * 500);
        let (acc, _) = lt.accels(&[&rt], 0.5, 0.05);
        let oracle: Vec<V3> = local
            .iter()
            .map(|b| per_body_accel(&rt, b.pos, b.id, 0.5, 0.05))
            .collect();
        let (g, o) = (mean_rel_err(&acc, &direct), mean_rel_err(&oracle, &direct));
        assert!(g <= o, "grouped {g} vs per-body {o}");
    }

    #[test]
    fn potential_matches_direct_at_theta_zero() {
        let bodies = plummer(150, 21);
        let tree = Octree::build(&bodies);
        let eps = 0.05;
        for b in bodies.iter().take(10) {
            let pot = tree.potential(b.pos, b.id, 0.0, eps);
            let mut direct = 0.0;
            for o in &bodies {
                if o.id != b.id {
                    direct -= o.mass / ((o.pos - b.pos).norm2() + eps * eps).sqrt();
                }
            }
            assert!((pot - direct).abs() < 1e-9);
        }
    }
}

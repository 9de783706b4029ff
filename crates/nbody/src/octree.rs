//! The Barnes-Hut oct-tree (BH tree): hierarchical grouping of bodies into
//! clusters by spatial subdivision, with monopole (center-of-mass)
//! summaries per cell.
//!
//! Arena layout: internal nodes allocate their 8 children contiguously, so
//! children always have larger indices than their parent and a single
//! reverse sweep computes the mass summaries bottom-up. Leaves hold one
//! body (chained if coincident points exceed the depth cap).

use crate::body::Body;
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

    /// Gravitational acceleration at `pos` from all bodies except id
    /// `skip_id`, using the θ opening test and Plummer softening `eps`.
    pub fn accel(&self, pos: V3, skip_id: u32, theta: f64, eps: f64) -> V3 {
        self.accel_with_count(pos, skip_id, theta, eps).0
    }

    /// Like [`Octree::accel`], also returning the number of interactions
    /// evaluated (monopole terms + direct body terms) — the abstract work
    /// charged to the BSP cost model.
    pub fn accel_with_count(&self, pos: V3, skip_id: u32, theta: f64, eps: f64) -> (V3, u64) {
        let mut interactions = 0u64;
        let mut acc = V3::ZERO;
        if self.nodes[0].count == 0 {
            return (acc, 0);
        }
        let eps2 = eps * eps;
        let mut stack: Vec<u32> = vec![0];
        while let Some(ni) = stack.pop() {
            let n = &self.nodes[ni as usize];
            if n.count == 0 {
                continue;
            }
            let d = n.com - pos;
            let dist2 = d.norm2();
            let s = n.half * 2.0;
            if n.children != 0 {
                if s * s < theta * theta * dist2 {
                    // Far enough: monopole approximation.
                    let r2 = dist2 + eps2;
                    acc += d * (n.mass / (r2 * r2.sqrt()));
                    interactions += 1;
                } else {
                    for c in 0..8 {
                        stack.push(n.children + c);
                    }
                }
            } else {
                // Leaf: direct sum over the chain.
                let mut b = n.body;
                while b >= 0 {
                    let body = &self.bodies[b as usize];
                    if body.id != skip_id {
                        let d = body.pos - pos;
                        let r2 = d.norm2() + eps2;
                        acc += d * (body.mass / (r2 * r2.sqrt()));
                        interactions += 1;
                    }
                    b = self.next[b as usize];
                }
            }
        }
        (acc, interactions)
    }

    /// Gravitational potential at `pos` (excluding body `skip_id`), same
    /// approximation scheme as [`Octree::accel`]. For diagnostics.
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
        // θ = 0 forces full opening: BH must equal the direct sum exactly
        // up to summation order.
        let bodies = plummer(200, 5);
        let tree = Octree::build(&bodies);
        let direct = direct_accels(&bodies, 0.05);
        for (b, d) in bodies.iter().zip(&direct) {
            let a = tree.accel(b.pos, b.id, 0.0, 0.05);
            assert!(
                (a - *d).norm() <= 1e-9 * d.norm().max(1.0),
                "body {}: {:?} vs {:?}",
                b.id,
                a,
                d
            );
        }
    }

    #[test]
    fn theta_half_is_accurate() {
        let bodies = plummer(1000, 13);
        let tree = Octree::build(&bodies);
        let direct = direct_accels(&bodies, 0.05);
        let mut rel_err_sum = 0.0;
        for (b, d) in bodies.iter().zip(&direct) {
            let a = tree.accel(b.pos, b.id, 0.5, 0.05);
            rel_err_sum += (a - *d).norm() / d.norm().max(1e-12);
        }
        let mean = rel_err_sum / bodies.len() as f64;
        assert!(mean < 0.02, "mean relative force error {mean}");
    }

    #[test]
    fn coincident_bodies_do_not_blow_up() {
        let mut bodies = plummer(10, 1);
        for b in bodies.iter_mut().take(5) {
            b.pos = v3(0.25, 0.25, 0.25); // 5 coincident bodies
        }
        let tree = Octree::build(&bodies);
        assert_eq!(tree.nodes[0].count, 10);
        let a = tree.accel(v3(1.0, 0.0, 0.0), u32::MAX, 0.5, 0.05);
        assert!(a.norm().is_finite());
    }

    #[test]
    fn empty_and_singleton_trees() {
        let empty: Vec<Body> = Vec::new();
        let t = Octree::build(&empty);
        assert_eq!(t.accel(v3(1.0, 1.0, 1.0), u32::MAX, 0.5, 0.1), V3::ZERO);
        let one = plummer(1, 2);
        let t = Octree::build(&one);
        assert_eq!(t.nodes[0].count, 1);
        // Self-force is zero.
        assert_eq!(t.accel(one[0].pos, one[0].id, 0.5, 0.1), V3::ZERO);
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

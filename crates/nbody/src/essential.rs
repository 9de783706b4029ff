//! Essential-tree extraction (paper §3.2): "appropriate subtrees, called
//! 'essential trees', are exchanged between every pair of processors, such
//! that afterwards every processor has a local BH tree that contains all
//! the data needed to compute the forces on its bodies."
//!
//! We use the Warren-Salmon conservative rule: a cell's monopole
//! summary is *essential* for a remote processor when the opening test
//! `s/d < θ` holds with `d` the minimum distance from the cell to the whole
//! remote region box, so the approximation is valid for every body the
//! remote processor can hold. Cells that fail the test are recursed; leaf
//! bodies are shipped verbatim. Each essential point — a summary or a body
//! — is `(x, y, z, m)` in `f32`, exactly one 16-byte packet, which is how
//! the paper was "careful in minimizing the amount of data sent".

use crate::body::Aabb;
use crate::octree::Octree;
use crate::vec3::{v3, V3};
use green_bsp::{MsgWriter, Packet};

/// A mass point received from (or destined for) a remote processor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MassPoint {
    /// Position.
    pub pos: V3,
    /// Mass.
    pub mass: f64,
}

impl MassPoint {
    /// Encode as one 16-byte packet (`f32` each).
    pub fn to_packet(self) -> Packet {
        Packet::point_mass(
            self.pos.x as f32,
            self.pos.y as f32,
            self.pos.z as f32,
            self.mass as f32,
        )
    }

    /// Decode from a packet.
    pub fn from_packet(p: Packet) -> MassPoint {
        let (x, y, z, m) = p.as_point_mass();
        MassPoint {
            pos: v3(x as f64, y as f64, z as f64),
            mass: m as f64,
        }
    }

    /// Append to a byte-lane message as a [`MASS_POINT_BYTES`]-byte record
    /// with the *same* `f32` quantization as [`MassPoint::to_packet`], so
    /// the two lanes deliver bit-identical values.
    pub fn write_to(self, w: &mut MsgWriter<'_>) {
        w.put_f32(self.pos.x as f32);
        w.put_f32(self.pos.y as f32);
        w.put_f32(self.pos.z as f32);
        w.put_f32(self.mass as f32);
    }

    /// Decode one [`MassPoint::write_to`] record.
    pub fn from_bytes(rec: &[u8]) -> MassPoint {
        let f = |i: usize| f32::from_le_bytes(rec[i * 4..i * 4 + 4].try_into().unwrap());
        MassPoint {
            pos: v3(f(0) as f64, f(1) as f64, f(2) as f64),
            mass: f(3) as f64,
        }
    }
}

/// Bytes of the byte-lane essential-point record: 4 × `f32`.
pub const MASS_POINT_BYTES: usize = 16;

/// Extract the essential points of `tree` for a remote region `target`.
pub fn essential_points(tree: &Octree<'_>, target: &Aabb, theta: f64) -> Vec<MassPoint> {
    let mut out = Vec::new();
    if tree.nodes.is_empty() || tree.nodes[0].count == 0 {
        return out;
    }
    let mut stack: Vec<u32> = vec![0];
    while let Some(ni) = stack.pop() {
        let n = &tree.nodes[ni as usize];
        if n.count == 0 {
            continue;
        }
        let cell = Aabb {
            lo: n.center - v3(n.half, n.half, n.half),
            hi: n.center + v3(n.half, n.half, n.half),
        };
        let dmin = target.dist_to_box(&cell);
        let s = 2.0 * n.half;
        if n.children != 0 {
            if s < theta * dmin {
                // Valid for every point of the target region.
                out.push(MassPoint {
                    pos: n.com,
                    mass: n.mass,
                });
            } else {
                for c in 0..8 {
                    stack.push(n.children + c);
                }
            }
        } else {
            // Leaf: ship the bodies themselves.
            let mut b = n.body;
            while b >= 0 {
                let body = &tree.bodies[b as usize];
                out.push(MassPoint {
                    pos: body.pos,
                    mass: body.mass,
                });
                b = tree.next_of(b);
            }
        }
    }
    out
}

/// Direct gravitational acceleration at `pos` from a list of mass points.
pub fn accel_from_points(points: &[MassPoint], pos: V3, eps: f64) -> V3 {
    let eps2 = eps * eps;
    let mut acc = V3::ZERO;
    for mp in points {
        let d = mp.pos - pos;
        let r2 = d.norm2() + eps2;
        acc += d * (mp.mass / (r2 * r2.sqrt()));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::octree::direct_accels;
    use crate::plummer::plummer;

    #[test]
    fn mass_point_packet_roundtrip() {
        let mp = MassPoint {
            pos: v3(0.125, -2.5, 3.75),
            mass: 0.0625,
        };
        assert_eq!(MassPoint::from_packet(mp.to_packet()), mp);
    }

    #[test]
    fn byte_record_matches_packet_quantization() {
        // A value that is NOT exactly representable in f32: both encodings
        // must round it identically.
        let mp = MassPoint {
            pos: v3(0.1, -0.2, 1.0 / 3.0),
            mass: 0.123456789,
        };
        let via_pkt = MassPoint::from_packet(mp.to_packet());
        let rec = [
            (mp.pos.x as f32).to_le_bytes(),
            (mp.pos.y as f32).to_le_bytes(),
            (mp.pos.z as f32).to_le_bytes(),
            (mp.mass as f32).to_le_bytes(),
        ]
        .concat();
        assert_eq!(rec.len(), MASS_POINT_BYTES);
        assert_eq!(MassPoint::from_bytes(&rec), via_pkt);
        assert_ne!(via_pkt, mp, "test should exercise actual quantization");
    }

    #[test]
    fn essential_mass_is_conserved() {
        let bodies = plummer(800, 3);
        let tree = Octree::build(&bodies);
        let target = Aabb {
            lo: v3(10.0, 10.0, 10.0),
            hi: v3(11.0, 11.0, 11.0),
        };
        let pts = essential_points(&tree, &target, 0.5);
        let total: f64 = pts.iter().map(|p| p.mass).sum();
        assert!((total - 1.0).abs() < 1e-9, "total essential mass {total}");
    }

    #[test]
    fn distant_target_gets_few_points() {
        let bodies = plummer(2000, 5);
        let tree = Octree::build(&bodies);
        let far = Aabb {
            lo: v3(100.0, 100.0, 100.0),
            hi: v3(101.0, 101.0, 101.0),
        };
        let pts = essential_points(&tree, &far, 0.5);
        assert!(
            pts.len() < 50,
            "far target should need few summaries, got {}",
            pts.len()
        );
        // An overlapping target needs many more.
        let near = Aabb {
            lo: v3(-1.0, -1.0, -1.0),
            hi: v3(1.0, 1.0, 1.0),
        };
        let pts_near = essential_points(&tree, &near, 0.5);
        assert!(pts_near.len() > pts.len() * 4);
    }

    #[test]
    fn essential_forces_are_accurate_everywhere_in_target() {
        // The conservative MAC must give BH-grade accuracy for EVERY probe
        // point inside the target box, not just its center.
        let bodies = plummer(1500, 9);
        let tree = Octree::build(&bodies);
        let target = Aabb {
            lo: v3(0.5, 0.5, 0.5),
            hi: v3(1.5, 1.5, 1.5),
        };
        let pts = essential_points(&tree, &target, 0.5);
        let eps = 0.05;
        let direct = direct_accels(&bodies, eps);
        let mut worst: f64 = 0.0;
        for (i, b) in bodies.iter().enumerate() {
            if target.contains(b.pos) {
                // Probe with the body excluded from the direct reference:
                // essential points include it, so subtract its self-term
                // (zero at its own position under softening symmetry).
                let a = accel_from_points(&pts, b.pos, eps);
                let rel = (a - direct[i]).norm() / direct[i].norm().max(1e-9);
                worst = worst.max(rel);
            }
        }
        assert!(worst < 0.05, "worst relative force error {worst}");
    }

    #[test]
    fn overlapping_target_degenerates_to_all_bodies() {
        // θ small or overlapping region: everything is shipped as bodies,
        // never as invalid summaries.
        let bodies = plummer(300, 13);
        let tree = Octree::build(&bodies);
        let mut universe = Aabb::EMPTY;
        for b in &bodies {
            universe.include(b.pos);
        }
        let pts = essential_points(&tree, &universe, 0.5);
        assert_eq!(pts.len(), bodies.len(), "dmin = 0 everywhere: all bodies");
    }
}

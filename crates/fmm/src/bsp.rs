//! The BSP-parallel FMM.
//!
//! Leaves are dealt to processors in contiguous Morton ranges balanced by
//! charge count; an internal cell belongs to the owner of its first
//! descendant leaf. The passes map onto supersteps cleanly because every
//! quantity exchanged is *additive* (partial multipoles, local-expansion
//! contributions) or *read-only* (interaction-list multipoles, neighbour
//! charges):
//!
//! 1. one superstep ships each processor's partial multipoles of shared
//!    ancestors to their owners, together with the boundary-leaf charges
//!    the neighbours will need for the near field;
//! 2. one superstep pushes completed multipoles along interaction lists
//!    (the lists are symmetric, so the owner of `d` knows exactly who
//!    needs `d`);
//! 3. one superstep per level carries the L2L contributions of parents to
//!    remotely-owned children;
//! 4. the final superstep evaluates: local expansion plus near-field
//!    direct sums.
//!
//! `S = 3 + (leaf_level − 2)` — constant in `n` for fixed depth, the same
//! "few supersteps" profile as the paper's N-body code.

use crate::cxl::{cx, Cx};
use crate::expansion::{Binomials, Expansion, NCOEF};
use crate::quadtree::{leaf_of, Cell};
use crate::seq::{Charge, FmmResult};
use green_bsp::{Ctx, Packet};
use std::collections::{BTreeMap, BTreeSet, HashMap};

const TAG_SHIFT: u32 = 28;
const ID_MASK: u32 = (1 << TAG_SHIFT) - 1;
const T_MUL: u32 = 0; // multipole coefficient (additive)
const T_LOC: u32 = 1; // local-expansion coefficient (additive)
const T_CHG: u32 = 2; // boundary charge component

/// Cell key packed into 28 bits: level (4) | morton (24). Leaf level ≤ 10.
fn key(cell: Cell) -> u32 {
    debug_assert!(cell.level <= 12 && cell.m < (1 << 24));
    ((cell.level as u32) << 24) | cell.m
}

fn unkey(k: u32) -> Cell {
    Cell {
        level: (k >> 24) as u8,
        m: k & 0x00FF_FFFF,
    }
}

/// `aux` for expansion coefficients: coeff index (15 bits) | im flag (bit 15).
fn coeff_pkts(tag: u32, cell: Cell, e: &Expansion, out: &mut Vec<Packet>) {
    let k = (tag << TAG_SHIFT) | key(cell);
    for (i, c) in e.c.iter().enumerate() {
        if c.re != 0.0 {
            out.push(Packet::tag_u32_f64(k, i as u32, c.re));
        }
        if c.im != 0.0 {
            out.push(Packet::tag_u32_f64(k, i as u32 | 0x8000, c.im));
        }
    }
}

/// The keys of `map`, ascending: the order every send loop walks cells in.
fn sorted_keys(map: &HashMap<u32, Expansion>) -> Vec<u32> {
    let mut keys: Vec<u32> = map.keys().copied().collect();
    keys.sort_unstable();
    keys
}

/// The Morton-range partition of the leaf level.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Leaf level.
    pub leaf_level: u8,
    /// `starts[p]..starts[p+1]` is processor `p`'s Morton leaf range.
    pub starts: Vec<u32>,
}

impl Partition {
    /// Balance leaf ranges by charge count.
    pub fn build(charges: &[Charge], leaf_level: u8, nprocs: usize) -> Partition {
        let nleaf = 1usize << (2 * leaf_level);
        let mut counts = vec![0u32; nleaf];
        for c in charges {
            counts[leaf_of(c.z, leaf_level).m as usize] += 1;
        }
        let total: u64 = charges.len() as u64;
        let mut starts = Vec::with_capacity(nprocs + 1);
        starts.push(0u32);
        let mut acc = 0u64;
        let mut next_cut = 1;
        for (m, &cnt) in counts.iter().enumerate() {
            while next_cut < nprocs && acc >= (next_cut as u64 * total) / nprocs as u64 {
                starts.push(m as u32);
                next_cut += 1;
            }
            acc += cnt as u64;
        }
        while starts.len() < nprocs {
            starts.push(nleaf as u32);
        }
        starts.push(nleaf as u32);
        Partition { leaf_level, starts }
    }

    /// Owner of a leaf Morton code.
    pub fn owner_of_leaf(&self, m: u32) -> usize {
        match self.starts[1..].binary_search(&m) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
        .min(self.starts.len() - 2)
    }

    /// Owner of any cell: the owner of its first descendant leaf.
    pub fn owner(&self, cell: Cell) -> usize {
        self.owner_of_leaf(cell.first_leaf(self.leaf_level))
    }

    /// This processor's leaf range.
    pub fn range(&self, pid: usize) -> std::ops::Range<u32> {
        self.starts[pid]..self.starts[pid + 1]
    }
}

/// Sparse per-processor FMM state.
#[derive(Default)]
struct State {
    multipole: HashMap<u32, Expansion>, // by cell key
    local: HashMap<u32, Expansion>,
}

/// Run the parallel FMM over this processor's charges (those whose leaf
/// falls in `part.range(ctx.pid())`). Returns potentials/fields for
/// `my_charges`, in order.
pub fn fmm_bsp(ctx: &mut Ctx, my_charges: &[Charge], part: &Partition) -> FmmResult {
    let bin = Binomials::new();
    let leaf_level = part.leaf_level;
    let me = ctx.pid();
    let my_range = part.range(me);

    // Bucket my charges into my leaves, in ascending Morton order.
    let mut buckets: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (i, c) in my_charges.iter().enumerate() {
        let leaf = leaf_of(c.z, leaf_level);
        debug_assert!(
            my_range.contains(&leaf.m),
            "charge {i} not in this processor's range"
        );
        buckets.entry(leaf.m).or_default().push(i as u32);
    }

    // ---- superstep 1: partial upward pass + boundary charge push ----
    let mut st = State::default();
    // P2M on my leaves, then M2M through all ancestors (partial sums).
    let mut frontier: BTreeSet<Cell> = BTreeSet::new();
    for (&m, idxs) in &buckets {
        let cell = Cell {
            level: leaf_level,
            m,
        };
        let center = cell.center();
        let exp = st.multipole.entry(key(cell)).or_default();
        for &ci in idxs {
            let c = my_charges[ci as usize];
            exp.add_charge(center, c.z, c.q);
        }
        frontier.insert(cell);
    }
    let mut level_cells = frontier;
    for _l in (1..=leaf_level).rev() {
        let mut parents: BTreeSet<Cell> = BTreeSet::new();
        for cell in &level_cells {
            let parent = cell.parent();
            let child_exp = st.multipole[&key(*cell)];
            let mut pe = *st.multipole.entry(key(parent)).or_default();
            child_exp.m2m(cell.center(), parent.center(), &bin, &mut pe);
            st.multipole.insert(key(parent), pe);
            parents.insert(parent);
        }
        level_cells = parents;
    }
    // Ship partial multipoles of cells owned elsewhere, in ascending key
    // order; drop them locally.
    let mut pkts = Vec::new();
    for k in sorted_keys(&st.multipole) {
        let cell = unkey(k);
        let owner = part.owner(cell);
        if owner != me {
            let e = st.multipole.remove(&k).unwrap();
            pkts.clear();
            coeff_pkts(T_MUL, cell, &e, &mut pkts);
            for p in pkts.drain(..) {
                ctx.send_pkt(owner, p);
            }
        }
    }
    // Boundary charges: a leaf of mine adjacent to a remote leaf ships its
    // charges to that neighbour's owner.
    for (&m, idxs) in &buckets {
        let cell = Cell {
            level: leaf_level,
            m,
        };
        let mut dests: BTreeSet<usize> = BTreeSet::new();
        for nb in cell.neighbors() {
            let o = part.owner_of_leaf(nb.m);
            if o != me {
                dests.insert(o);
            }
        }
        for &dest in &dests {
            for &ci in idxs {
                let c = my_charges[ci as usize];
                let k = (T_CHG << TAG_SHIFT) | key(cell);
                ctx.send_pkt(dest, Packet::tag_u32_f64(k, ci * 4, c.z.re));
                ctx.send_pkt(dest, Packet::tag_u32_f64(k, ci * 4 + 1, c.z.im));
                ctx.send_pkt(dest, Packet::tag_u32_f64(k, ci * 4 + 2, c.q));
            }
        }
    }
    ctx.sync();

    // Absorb partial multipoles and remote charges.
    let mut remote_charges: HashMap<u32, HashMap<u32, [f64; 3]>> = HashMap::new();
    while let Some(pkt) = ctx.get_pkt() {
        let (tk, aux, v) = pkt.as_tag_u32_f64();
        let tag = tk >> TAG_SHIFT;
        let k = tk & ID_MASK;
        match tag {
            T_MUL => {
                let e = st.multipole.entry(k).or_default();
                let idx = (aux & 0x7FFF) as usize;
                if aux & 0x8000 != 0 {
                    e.c[idx].im += v;
                } else {
                    e.c[idx].re += v;
                }
            }
            T_CHG => {
                let entry = remote_charges.entry(k).or_default();
                entry.entry(aux / 4).or_insert([0.0; 3])[(aux % 4) as usize] = v;
            }
            _ => unreachable!("unexpected tag in FMM superstep 1"),
        }
    }

    // ---- superstep 2: interaction-list multipole push ----
    let mut pkts = Vec::new();
    for k in sorted_keys(&st.multipole) {
        let cell = unkey(k);
        if cell.level < 2 {
            continue;
        }
        let e = &st.multipole[&k];
        let mut dests: BTreeSet<usize> = BTreeSet::new();
        for d in cell.interaction_list() {
            let o = part.owner(d);
            if o != me {
                dests.insert(o);
            }
        }
        if dests.is_empty() {
            continue;
        }
        pkts.clear();
        coeff_pkts(T_MUL, cell, e, &mut pkts);
        for &dest in &dests {
            for p in &pkts {
                ctx.send_pkt(dest, *p);
            }
        }
    }
    ctx.sync();
    let mut il_mult: HashMap<u32, Expansion> = HashMap::new();
    while let Some(pkt) = ctx.get_pkt() {
        let (tk, aux, v) = pkt.as_tag_u32_f64();
        debug_assert_eq!(tk >> TAG_SHIFT, T_MUL);
        let e = il_mult.entry(tk & ID_MASK).or_default();
        let idx = (aux & 0x7FFF) as usize;
        if aux & 0x8000 != 0 {
            e.c[idx].im += v;
        } else {
            e.c[idx].re += v;
        }
    }

    // M2L: for every owned cell at levels ≥ 2, fold interaction-list
    // multipoles (local or received) into its local expansion.
    let owned_cells: Vec<Cell> = st
        .multipole
        .keys()
        .map(|&k| unkey(k))
        .filter(|c| part.owner(*c) == me)
        .collect();
    // Note: cells with no local charges can still need locals (their
    // charges may be elsewhere... but a cell with no charges needs no
    // local expansion; only cells with descendant charges of mine matter,
    // and those all appear in st.multipole by construction).
    for cell in &owned_cells {
        if cell.level < 2 {
            continue;
        }
        let center = cell.center();
        let mut acc = st.local.remove(&key(*cell)).unwrap_or_default();
        for d in cell.interaction_list() {
            let src = st.multipole.get(&key(d)).or_else(|| il_mult.get(&key(d)));
            if let Some(srce) = src {
                srce.m2l(d.center(), center, &bin, &mut acc);
            }
        }
        st.local.insert(key(*cell), acc);
    }

    // ---- downward pass: one superstep per level ----
    for l in 2..leaf_level {
        // Send/apply L2L from my owned cells at level l to their children.
        let cells: Vec<Cell> = sorted_keys(&st.local)
            .into_iter()
            .map(unkey)
            .filter(|c| c.level == l)
            .collect();
        let mut pkts = Vec::new();
        for cell in cells {
            let e = st.local[&key(cell)];
            for child in cell.children() {
                // Only children with my or remote charges matter; we cannot
                // know remote occupancy, so translate for every child that
                // is owned remotely or locally occupied.
                let owner = part.owner(child);
                if owner == me {
                    if st.multipole.contains_key(&key(child)) {
                        let mut acc = st.local.remove(&key(child)).unwrap_or_default();
                        e.l2l(cell.center(), child.center(), &bin, &mut acc);
                        st.local.insert(key(child), acc);
                    }
                } else {
                    let mut tmp = Expansion::default();
                    e.l2l(cell.center(), child.center(), &bin, &mut tmp);
                    pkts.clear();
                    coeff_pkts(T_LOC, child, &tmp, &mut pkts);
                    for p in pkts.drain(..) {
                        ctx.send_pkt(owner, p);
                    }
                }
            }
        }
        ctx.sync();
        while let Some(pkt) = ctx.get_pkt() {
            let (tk, aux, v) = pkt.as_tag_u32_f64();
            debug_assert_eq!(tk >> TAG_SHIFT, T_LOC);
            let e = st.local.entry(tk & ID_MASK).or_default();
            let idx = (aux & 0x7FFF) as usize;
            if aux & 0x8000 != 0 {
                e.c[idx].im += v;
            } else {
                e.c[idx].re += v;
            }
        }
    }

    // ---- evaluation ----
    let mut potential = vec![Cx::ZERO; my_charges.len()];
    let mut field = vec![Cx::ZERO; my_charges.len()];
    for (&m, idxs) in &buckets {
        let cell = Cell {
            level: leaf_level,
            m,
        };
        let center = cell.center();
        let local = st.local.get(&key(cell)).copied().unwrap_or_default();
        // Near-field source list: my own near buckets + received remote
        // boundary charges of neighbouring leaves.
        let mut near_local: Vec<u32> = vec![m];
        let mut near_remote: Vec<&HashMap<u32, [f64; 3]>> = Vec::new();
        for nb in cell.neighbors() {
            if part.owner_of_leaf(nb.m) == me {
                near_local.push(nb.m);
            }
            if let Some(rc) = remote_charges.get(&key(nb)) {
                near_remote.push(rc);
            }
        }
        for &ci in idxs {
            let mec = my_charges[ci as usize];
            let mut phi = local.eval_local(center, mec.z);
            let mut fld = local.eval_local_field(center, mec.z);
            for &nm in &near_local {
                if let Some(bucket) = buckets.get(&nm) {
                    for &cj in bucket {
                        if cj == ci {
                            continue;
                        }
                        let other = my_charges[cj as usize];
                        let d = mec.z - other.z;
                        phi += d.ln().scale(other.q);
                        fld += d.inv().scale(other.q);
                    }
                }
            }
            for rc in &near_remote {
                for comps in rc.values() {
                    let oz = cx(comps[0], comps[1]);
                    let d = mec.z - oz;
                    phi += d.ln().scale(comps[2]);
                    fld += d.inv().scale(comps[2]);
                }
            }
            potential[ci as usize] = phi;
            field[ci as usize] = fld;
        }
    }
    ctx.charge((my_charges.len() * NCOEF) as u64);
    FmmResult { potential, field }
}

/// Split charges by owner for a partition (setup helper, mirrors the
/// paper's "initially partitioned" convention).
pub fn deal_charges(charges: &[Charge], part: &Partition) -> Vec<Vec<Charge>> {
    let nprocs = part.starts.len() - 1;
    let mut out = vec![Vec::new(); nprocs];
    for c in charges {
        out[part.owner_of_leaf(leaf_of(c.z, part.leaf_level).m)].push(*c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{direct, fmm_seq, random_charges};
    use green_bsp::{run, Config};

    fn run_parallel(charges: &[Charge], leaf_level: u8, p: usize) -> FmmResult {
        let part = Partition::build(charges, leaf_level, p);
        let parts = deal_charges(charges, &part);
        let out = run(&Config::new(p), |ctx| {
            fmm_bsp(ctx, &parts[ctx.pid()], &part)
        });
        // Reassemble in the original charge order.
        let mut potential = vec![Cx::ZERO; charges.len()];
        let mut field = vec![Cx::ZERO; charges.len()];
        // Map each charge back: charges were dealt in order per proc.
        let mut cursor: Vec<usize> = vec![0; p];
        for (i, c) in charges.iter().enumerate() {
            let o = part.owner_of_leaf(leaf_of(c.z, leaf_level).m);
            let r = &out.results[o];
            potential[i] = r.potential[cursor[o]];
            field[i] = r.field[cursor[o]];
            cursor[o] += 1;
        }
        FmmResult { potential, field }
    }

    #[test]
    fn partition_covers_and_balances() {
        let charges = random_charges(5000, 3);
        for p in [1usize, 2, 3, 4, 8] {
            let part = Partition::build(&charges, 4, p);
            let parts = deal_charges(&charges, &part);
            let total: usize = parts.iter().map(|v| v.len()).sum();
            assert_eq!(total, charges.len());
            for (pid, chunk) in parts.iter().enumerate() {
                for c in chunk {
                    let leaf = leaf_of(c.z, 4);
                    assert!(part.range(pid).contains(&leaf.m));
                    assert_eq!(part.owner_of_leaf(leaf.m), pid);
                }
            }
            // Reasonable balance for uniform charges.
            if p <= 4 {
                let max = parts.iter().map(|v| v.len()).max().unwrap();
                assert!(max < 2 * charges.len() / p, "p={p}: max {max}");
            }
        }
    }

    #[test]
    fn owner_of_internal_cells_is_consistent() {
        let charges = random_charges(1000, 7);
        let part = Partition::build(&charges, 4, 3);
        for level in 0..=4u8 {
            for m in 0..(1u32 << (2 * level)) {
                let cell = Cell { level, m };
                let o = part.owner(cell);
                assert_eq!(o, part.owner_of_leaf(cell.first_leaf(4)));
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_fmm() {
        let charges = random_charges(1200, 11);
        let seq = fmm_seq(&charges, 3);
        for p in [1usize, 2, 4] {
            let par = run_parallel(&charges, 3, p);
            for i in 0..charges.len() {
                // Re Φ and the field are branch-independent; Im Φ is not.
                assert!(
                    (par.potential[i].re - seq.potential[i].re).abs() < 1e-9,
                    "p={p} charge {i}: {:?} vs {:?}",
                    par.potential[i],
                    seq.potential[i]
                );
                assert!((par.field[i] - seq.field[i]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn parallel_matches_direct() {
        let charges = random_charges(700, 13);
        let exact = direct(&charges);
        let par = run_parallel(&charges, 4, 4);
        let mut worst: f64 = 0.0;
        for i in 0..charges.len() {
            worst = worst.max((par.potential[i].re - exact.potential[i].re).abs());
            worst =
                worst.max((par.field[i] - exact.field[i]).abs() / exact.field[i].abs().max(1.0));
        }
        assert!(worst < 1e-6, "worst error {worst}");
    }

    #[test]
    fn superstep_count_is_depth_bound() {
        let charges = random_charges(2000, 17);
        for (leaf_level, p) in [(3u8, 4usize), (4, 4), (5, 2)] {
            let part = Partition::build(&charges, leaf_level, p);
            let parts = deal_charges(&charges, &part);
            let out = run(&Config::new(p), |ctx| {
                fmm_bsp(ctx, &parts[ctx.pid()], &part).potential.len()
            });
            // supersteps: 2 + (leaf_level − 2) syncs + final = leaf_level + 1.
            assert_eq!(
                out.stats.s(),
                leaf_level as u64 + 1,
                "leaf_level {leaf_level}"
            );
        }
    }
}

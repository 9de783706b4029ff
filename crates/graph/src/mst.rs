//! Parallel minimum spanning tree (paper §3.3).
//!
//! Three phases, as in the paper:
//!
//! 1. **Local phase** — each processor runs Kruskal on the edges with both
//!    endpoints among its home nodes, producing the local components of the
//!    MST.
//! 2. **Parallel phase** — a simplification of the conservative DRAM
//!    algorithm of Leiserson and Maggs: distributed Borůvka rounds. Each
//!    round, every component finds its minimum outgoing edge (candidates are
//!    aggregated at the *leader*, the owner of the component's label node),
//!    components hook along those edges (2-cycles broken toward the smaller
//!    label), the new component roots are found by pointer jumping across
//!    processors, and fresh labels are pushed back to subscribers.
//! 3. **Mixed phase** — once the number of components is small, each
//!    processor sends its minimum edge per component pair to processor 0,
//!    which assembles the remaining forest sequentially.
//!
//! The algorithm is *conservative*: per superstep, a processor's message
//! count is bounded by its number of border nodes / components, plus `p − 1`
//! termination-bookkeeping packets.
//!
//! Component labels are global node ids; the *owner* of a label (its leader)
//! is the processor owning that node in the partition, so routing decisions
//! need the partition function, which is globally known (it is a small kd
//! cut tree; we pass the expanded owner map).

use crate::partition::LocalGraph;
use crate::unionfind::UnionFind;
use crate::util::edge_key;
use green_bsp::{Ctx, Packet};
#[cfg(test)]
use std::collections::BTreeMap;

/// Result of a distributed MST run, identical on every processor except for
/// `local_weights`.
#[derive(Clone, Debug)]
pub struct MstResult {
    /// Total weight of the spanning forest (= MST weight when connected).
    pub total_weight: f64,
    /// Number of tree edges found (`n − 1` when connected).
    pub total_edges: u64,
    /// Weights of the tree edges recorded by *this* processor, in the order
    /// recorded: local-phase edges in Kruskal order, each round's merges led
    /// here in ascending label order, and — on processor 0 — the mixed-phase
    /// edges in Kruskal order. Concatenated over processors these are exactly
    /// the tree's edge weights.
    pub local_weights: Vec<f64>,
    /// Borůvka rounds executed in the parallel phase.
    pub rounds: u32,
}

// ---- packet encoding: [u32 tag|id, u32 aux, f64 val] --------------------

const TAG_SHIFT: u32 = 28;
const ID_MASK: u32 = (1 << TAG_SHIFT) - 1;

const T_PUSH: u32 = 0; // (node, comp): boundary label push
const T_SUB: u32 = 1; // (comp, pid): subscription to a label's updates
const T_CAND: u32 = 2; // (cu, cv, w): candidate min outgoing edge
const T_HOOK: u32 = 3; // (cu, cv, w): cu hooks into cv
const T_JQ: u32 = 4; // (c, parent, asker): pointer-jump query
const T_JR_ROOT: u32 = 5; // (c, root): parent is a root — settled
const T_JR_STEP: u32 = 6; // (c, grandparent): keep jumping
const T_ROOT: u32 = 7; // (old label, new root): relabel update
const T_STAT: u32 = 8; // (a, b): bookkeeping counters
const T_TOTAL: u32 = 9; // (edge count, _, weight): per-proc totals
const T_RES: u32 = 10; // (edge count, _, weight): mixed-phase result

#[inline]
fn pk(tag: u32, id: u32, aux: u32, val: f64) -> Packet {
    debug_assert!(id <= ID_MASK);
    Packet::tag_u32_f64((tag << TAG_SHIFT) | id, aux, val)
}

#[inline]
fn unpk(p: Packet) -> (u32, u32, u32, f64) {
    let (t, aux, val) = p.as_tag_u32_f64();
    (t >> TAG_SHIFT, t & ID_MASK, aux, val)
}

/// Per-component candidate: minimum outgoing edge, ordered by `(w, cv)`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cand {
    w: f64,
    cv: u32,
}

impl Cand {
    fn better_than(&self, other: &Cand) -> bool {
        (self.w, self.cv) < (other.w, other.cv)
    }
}

/// Reduce `(label, candidate)` pairs to the best candidate per label, in
/// ascending label order. Weights are positive, so their bits order as they
/// do (see [`edge_key`]) and the key ranks candidates as `better_than` does.
fn best_per_label(cands: &mut Vec<(u32, Cand)>) {
    cands.sort_unstable_by_key(|&(c, d)| (c, d.w.to_bits(), d.cv));
    cands.dedup_by_key(|&mut (c, _)| c);
}

/// Index of `label` in the ascending table `labels`.
fn index_of(labels: &[u32], label: u32) -> usize {
    labels
        .binary_search(&label)
        .unwrap_or_else(|_| panic!("no table entry for label {label}"))
}

/// State of the parallel phase on one processor.
///
/// Labels live in *slots*: slot `ci < nc` is the local phase's component
/// `ci`, slot `nc + bi` is border node `bi`. A relabel rewrites the `nc`
/// component slots, a label push one border slot.
struct MstState<'a> {
    lg: &'a LocalGraph,
    owner: &'a [u32],
    /// Number of components the local phase left.
    nc: usize,
    /// Local component of each home node (a slot below `nc`).
    cidx: Vec<u32>,
    /// Current label of each slot (global node ids as labels); a border
    /// slot holds the last label pushed for it.
    lab: Vec<u32>,
    /// Home nodes with remote neighbours, ascending: the label pushers.
    pushers: Vec<u32>,
    /// Home adjacency entries `(home slot, neighbour slot, w)` that may still
    /// join two components: every border entry and every home–home entry
    /// between local components. Labels only merge, so an entry once
    /// internal stays internal and is dropped.
    frontier: Vec<(u32, u32, f64)>,
    /// Recorded tree-edge weights.
    weights: Vec<f64>,
}

impl<'a> MstState<'a> {
    fn owner_of(&self, label: u32) -> usize {
        self.owner[label as usize] as usize
    }

    /// Phase 1: the completely local phase.
    ///
    /// Kruskal over home-home edges, but an edge joining local components
    /// `A` and `B` is only *committed* when the cut property certifies it
    /// globally: since all lighter home-home edges have been processed, `e`
    /// is the lightest home-home edge leaving both `A` and `B`, so it is in
    /// the global MST iff it is also no heavier than the lightest edge from
    /// `A` (or from `B`) to a border node — and a component's full outgoing
    /// edge set is locally visible. Heavier joins are deferred to the
    /// parallel phase, where the components stay separate and the deferred
    /// edges are rediscovered by the candidate scans: they and the border
    /// entries make up the frontier.
    fn local_phase(lg: &'a LocalGraph, owner: &'a [u32]) -> Self {
        let nh = lg.n_home();
        let home = &lg.home;
        let mut edges: Vec<(f64, u32, u32)> = Vec::new();
        // Border entries `(home lid, border index, w)`.
        let mut border_adj: Vec<(u32, u32, f64)> = Vec::new();
        // Cheapest border-incident edge per home node (f64::INFINITY if none).
        let mut min_border = vec![f64::INFINITY; nh];
        for h in 0..nh as u32 {
            for &(v, w) in lg.neighbors(h) {
                if lg.is_home(v) {
                    if home[h as usize] < home[v as usize] {
                        edges.push((w, h, v));
                    }
                } else {
                    border_adj.push((h, v - nh as u32, w));
                    if w < min_border[h as usize] {
                        min_border[h as usize] = w;
                    }
                }
            }
        }
        #[cfg(test)]
        let reference = reference_local_kruskal(home, edges.clone(), min_border.clone());
        let mut kr = LocalKruskal {
            home,
            uf: UnionFind::new(nh),
            min_border,
            weights: Vec::new(),
            deferred: Vec::new(),
        };
        kr.filter_kruskal(&mut edges);
        // Number the components densely, each labelled by its root's
        // global id.
        let mut slot_of_root = vec![u32::MAX; nh];
        let mut lab: Vec<u32> = Vec::new();
        let cidx: Vec<u32> = (0..nh as u32)
            .map(|h| {
                let r = kr.uf.find(h) as usize;
                if slot_of_root[r] == u32::MAX {
                    slot_of_root[r] = lab.len() as u32;
                    lab.push(home[r]);
                }
                slot_of_root[r]
            })
            .collect();
        #[cfg(test)]
        assert!(
            (&kr.weights, &kr.deferred, &cidx) == (&reference.0, &reference.1, &reference.2),
            "Filter-Kruskal differs from the sort-then-scan local phase"
        );
        let nc = lab.len();
        lab.resize(nc + lg.border_gid.len(), u32::MAX);
        // Every home–home entry between components is a deferred edge (a
        // cycle or a union leaves its endpoints together), seen from both
        // ends.
        let mut frontier = Vec::with_capacity(2 * kr.deferred.len() + border_adj.len());
        for (a, b, w) in kr.deferred {
            let (ca, cb) = (cidx[a as usize], cidx[b as usize]);
            if ca != cb {
                frontier.push((ca, cb, w));
                frontier.push((cb, ca, w));
            }
        }
        frontier.extend(
            border_adj
                .into_iter()
                .map(|(h, bi, w)| (cidx[h as usize], (nc as u32) + bi, w)),
        );
        MstState {
            lg,
            owner,
            nc,
            cidx,
            lab,
            pushers: (0..nh as u32)
                .filter(|&h| !lg.remote_procs(h).is_empty())
                .collect(),
            frontier,
            weights: kr.weights,
        }
    }

    /// Superstep A: push boundary labels to adjacent processors and
    /// subscribe to every live local label at its leader, in ascending
    /// label order.
    fn push_labels_and_subscribe(&self, ctx: &mut Ctx, subscribe: bool) {
        for &h in &self.pushers {
            let gid = self.lg.home[h as usize];
            let c = self.lab[self.cidx[h as usize] as usize];
            for &pr in self.lg.remote_procs(h) {
                ctx.send_pkt(pr as usize, pk(T_PUSH, gid, c, 0.0));
            }
        }
        if subscribe {
            let me = ctx.pid() as u32;
            let mut labels = self.lab[..self.nc].to_vec();
            labels.sort_unstable();
            labels.dedup();
            for c in labels {
                ctx.send_pkt(self.owner_of(c), pk(T_SUB, c, me, 0.0));
            }
        }
    }

    /// Apply a `T_PUSH` packet.
    fn apply_push(&mut self, gid: u32, c: u32) {
        let bi = self
            .lg
            .border_gid
            .binary_search(&gid)
            .expect("push for unknown border node");
        self.lab[self.nc + bi] = c;
    }

    /// Candidate scan: the minimum outgoing edge of each local label, in
    /// ascending label order. Call it once the round's label pushes are in:
    /// it drops the frontier entries that merges have made internal.
    fn candidates(&mut self) -> Vec<(u32, Cand)> {
        let lab = &self.lab;
        let mut best: Vec<Option<Cand>> = vec![None; self.nc];
        self.frontier.retain(|&(a, b, w)| {
            let cv = lab[b as usize];
            if cv == lab[a as usize] {
                return false;
            }
            let cand = Cand { w, cv };
            let cur = &mut best[a as usize];
            if cur.is_none_or(|c| cand.better_than(&c)) {
                *cur = Some(cand);
            }
            true
        });
        let mut out: Vec<(u32, Cand)> = best
            .iter()
            .zip(lab)
            .filter_map(|(b, &c)| b.map(|d| (c, d)))
            .collect();
        best_per_label(&mut out);
        #[cfg(test)]
        assert_eq!(out, self.reference_candidates(), "frontier candidates");
        out
    }

    /// Mixed-phase scan: the minimum edge weight between each pair of
    /// labels `a < b` seen here, in ascending `(a, b)` order.
    fn pair_minima(&self) -> Vec<(u32, u32, f64)> {
        let lab = &self.lab;
        let mut pairs: Vec<(u32, u32, f64)> = self
            .frontier
            .iter()
            .filter_map(|&(a, b, w)| {
                let (cu, cv) = (lab[a as usize], lab[b as usize]);
                (cu != cv).then_some((cu.min(cv), cu.max(cv), w))
            })
            .collect();
        pairs.sort_unstable_by_key(|&(a, b, w)| (a, b, w.to_bits()));
        pairs.dedup_by_key(|&mut (a, b, _)| (a, b));
        #[cfg(test)]
        assert_eq!(pairs, self.reference_pair_minima(), "frontier pair minima");
        pairs
    }
}

/// Edges of at most this many are sorted and scanned; larger sets are split
/// around a pivot weight first.
const KRUSKAL_LEAF: usize = 4096;

/// Edges per block of [`partition_below`] (its offsets fit a `u8`).
const BLOCK: usize = 128;

/// The local phase's Kruskal: a union-find over the home nodes, each root's
/// cheapest border edge, and the edges committed and deferred so far.
struct LocalKruskal<'a> {
    home: &'a [u32],
    uf: UnionFind,
    min_border: Vec<f64>,
    weights: Vec<f64>,
    deferred: Vec<(u32, u32, f64)>,
}

impl LocalKruskal<'_> {
    /// Commit or defer `edges`, which are in Kruskal order: by weight, ties
    /// by their endpoints' global ids.
    fn scan(&mut self, edges: &[(f64, u32, u32)]) {
        for &(w, a, b) in edges {
            let (ra, rb) = (self.uf.find(a), self.uf.find(b));
            if ra == rb {
                continue; // cycle: excluded by the cycle property
            }
            let (mba, mbb) = (self.min_border[ra as usize], self.min_border[rb as usize]);
            if w <= mba || w <= mbb {
                self.uf.union(ra, rb);
                let r = self.uf.find(ra);
                self.min_border[r as usize] = mba.min(mbb);
                self.weights.push(w);
            } else {
                self.deferred.push((a, b, w)); // neither side's cut is certified locally
            }
        }
    }

    /// Run a set of exactly equal weights, oriented and tied by global id, so
    /// the unions (and so each component's label) do not depend on the local
    /// numbering.
    fn scan_ties(&mut self, run: &mut [(f64, u32, u32)]) {
        let home = self.home;
        run.sort_unstable_by_key(|&(_, a, b)| (home[a as usize], home[b as usize]));
        self.scan(run);
    }

    /// Filter-Kruskal: process `edges` in Kruskal order without sorting them
    /// all. A set above [`KRUSKAL_LEAF`] is split three ways around a
    /// median-of-three pivot weight; the lighter part goes first, then the
    /// run equal to the pivot, and the heavier part is filtered — an edge
    /// whose endpoints are joined already would be a cycle — before it is
    /// split in turn. Equal weights always share a part, so every tie run is
    /// scanned whole.
    fn filter_kruskal(&mut self, mut edges: &mut [(f64, u32, u32)]) {
        while edges.len() > KRUSKAL_LEAF {
            let bits = |i: usize| edges[i].0.to_bits();
            let (x, y, z) = (bits(0), bits(edges.len() / 2), bits(edges.len() - 1));
            let pivot = x.max(y).min(x.min(y).max(z));
            // Three ways: below the pivot, equal to it, above it.
            let lt = partition_below(edges, pivot);
            let gt = lt + partition_below(&mut edges[lt..], pivot + 1);
            let (light, rest) = std::mem::take(&mut edges).split_at_mut(lt);
            let (equal, heavy) = rest.split_at_mut(gt - lt);
            self.filter_kruskal(light);
            self.scan_ties(equal);
            let mut kept = 0;
            for i in 0..heavy.len() {
                let e = heavy[i];
                heavy[kept] = e;
                kept += (self.uf.find(e.1) != self.uf.find(e.2)) as usize;
            }
            edges = &mut heavy[..kept];
            #[cfg(test)]
            assert!(
                edges
                    .iter()
                    .all(|&(_, a, b)| self.uf.find(a) != self.uf.find(b)),
                "the filter kept a cycle edge"
            );
        }
        edges.sort_unstable_by_key(|e| edge_key(e).0);
        for run in edges.chunk_by_mut(|x, y| x.0.to_bits() == y.0.to_bits()) {
            self.scan_ties(run);
        }
    }
}

/// Move the edges whose weight bits are below `bound` to the front and
/// return how many there are. Block partition (Edelkamp and Weiß's
/// BlockQuicksort): the comparisons of a block of [`BLOCK`] edges from each
/// end are recorded as offsets without a branch, then the misplaced pairs
/// are swapped; what is left between the blocks is partitioned one by one.
fn partition_below(edges: &mut [(f64, u32, u32)], bound: u64) -> usize {
    let below = |e: &(f64, u32, u32)| e.0.to_bits() < bound;
    // `edges[..l]` are below the bound and `edges[r..]` are not; a block
    // with misplaced offsets still to swap stays in `l..r`.
    let (mut l, mut r) = (0, edges.len());
    let (mut left, mut right) = ([0u8; BLOCK], [0u8; BLOCK]);
    let (mut nl, mut nr) = (0, 0);
    while r - l >= 2 * BLOCK {
        if nl == 0 {
            for i in 0..BLOCK {
                left[nl] = i as u8;
                nl += !below(&edges[l + i]) as usize;
            }
        }
        if nr == 0 {
            for i in 0..BLOCK {
                right[nr] = i as u8;
                nr += below(&edges[r - 1 - i]) as usize;
            }
        }
        for _ in 0..nl.min(nr) {
            (nl, nr) = (nl - 1, nr - 1);
            edges.swap(l + left[nl] as usize, r - 1 - right[nr] as usize);
        }
        if nl == 0 {
            l += BLOCK;
        }
        if nr == 0 {
            r -= BLOCK;
        }
    }
    let mut k = l;
    for i in l..r {
        if below(&edges[i]) {
            edges.swap(k, i);
            k += 1;
        }
    }
    k
}

/// Broadcast a bookkeeping counter pair to every other processor.
fn send_stat(ctx: &mut Ctx, a: u32, b: u32) {
    let p = ctx.nprocs();
    for dest in 0..p {
        if dest != ctx.pid() {
            ctx.send_pkt(dest, pk(T_STAT, a, b, 0.0));
        }
    }
}

/// Run the distributed MST. `owner` is the global partition function
/// (`owner[gid] = processor`). Must be called by all processors with their
/// own [`LocalGraph`] of the same partition.
pub fn mst_run(ctx: &mut Ctx, lg: &LocalGraph, owner: &[u32]) -> MstResult {
    assert!(lg.n_global <= 1 << TAG_SHIFT, "node ids need over 28 bits");
    let p = ctx.nprocs();
    let threshold = (2 * p).max(32) as u64;
    let mut st = MstState::local_phase(lg, owner);
    // Local-phase work: edge sort + union-find, ~ m log m.
    let m_local = lg.adj.len() as u64;
    ctx.charge(m_local * 4 + lg.n_home() as u64);
    let mut rounds = 0u32;

    // ---- Phase 2: Borůvka rounds ----
    // Leader-side tables cover the labels owned here and are sorted by
    // label, so every send loop below runs in ascending label order.
    loop {
        rounds += 1;
        // A: push fresh labels + subscriptions.
        st.push_labels_and_subscribe(ctx, true);
        ctx.sync();

        // B: absorb pushes and subscriptions; send aggregated candidates.
        let mut subscribers: Vec<(u32, u32)> = Vec::new(); // (label, pid)
        while let Some(pkt) = ctx.get_pkt() {
            let (tag, id, aux, _) = unpk(pkt);
            match tag {
                T_PUSH => st.apply_push(id, aux),
                T_SUB => subscribers.push((id, aux)),
                _ => unreachable!("unexpected tag {tag} in superstep B"),
            }
        }
        subscribers.sort_unstable();
        let mut live: Vec<u32> = subscribers.iter().map(|&(c, _)| c).collect();
        live.dedup();
        for (cu, cand) in st.candidates() {
            ctx.send_pkt(st.owner_of(cu), pk(T_CAND, cu, cand.cv, cand.w));
        }
        ctx.charge(lg.adj.len() as u64); // candidate scan
        ctx.sync();

        // C: leaders select the global minimum per component and hook.
        let mut pending: Vec<(u32, Cand)> = Vec::new();
        while let Some(pkt) = ctx.get_pkt() {
            let (tag, cu, cv, w) = unpk(pkt);
            debug_assert_eq!(tag, T_CAND);
            pending.push((cu, Cand { w, cv }));
        }
        best_per_label(&mut pending);
        for &(cu, cand) in &pending {
            ctx.send_pkt(st.owner_of(cand.cv), pk(T_HOOK, cu, cand.cv, cand.w));
        }
        ctx.sync();

        // D: break 2-cycles, fix parents, record merge weights.
        let mut incoming: Vec<(u32, u32, f64)> = Vec::new(); // (cv, cu, w)
        while let Some(pkt) = ctx.get_pkt() {
            let (tag, cu, cv, w) = unpk(pkt);
            debug_assert_eq!(tag, T_HOOK);
            incoming.push((cv, cu, w));
        }
        incoming.sort_unstable_by_key(|&(cv, cu, _)| (cv, cu));
        // Parent pointer of each live label, by its index in `live`.
        let mut parent = live.clone();
        let mut merges = 0u32;
        let mut unsettled: Vec<u32> = Vec::new();
        for &(c, cand) in &pending {
            let d = cand.cv;
            let mutual = incoming.binary_search_by_key(&(c, d), |&(cv, cu, _)| (cv, cu));
            if let Ok(i) = mutual {
                // With distinct weights a mutual pair must have chosen the
                // same (minimum) edge; a mismatch means a selection bug.
                let w2 = incoming[i].2;
                debug_assert!(
                    (w2 - cand.w).abs() < 1e-12,
                    "mutual hook {c}<->{d} with differing weights {w2} vs {}",
                    cand.w
                );
                if c < d {
                    continue; // the d -> c hook survives instead
                }
            }
            parent[index_of(&live, c)] = d;
            st.weights.push(cand.w);
            merges += 1;
            unsettled.push(c);
        }

        // Pointer jumping: parent chains flatten to roots.
        let mut iter_guard = 0;
        loop {
            iter_guard += 1;
            assert!(
                iter_guard < 64,
                "pointer jumping did not converge (weight-tie hook cycle?)"
            );
            send_stat(ctx, unsettled.len() as u32, 0);
            let me = ctx.pid() as f64;
            for &c in &unsettled {
                let pc = parent[index_of(&live, c)];
                ctx.send_pkt(st.owner_of(pc), pk(T_JQ, c, pc, me));
            }
            ctx.sync();
            let mut global_unsettled = unsettled.len() as u64;
            let mut queries: Vec<(u32, u32, usize)> = Vec::new();
            while let Some(pkt) = ctx.get_pkt() {
                let (tag, id, aux, val) = unpk(pkt);
                match tag {
                    T_STAT => global_unsettled += id as u64,
                    T_JQ => queries.push((id, aux, val as usize)),
                    _ => unreachable!("unexpected tag {tag} in jump superstep"),
                }
            }
            if global_unsettled == 0 {
                break;
            }
            for (c, pc, asker) in queries {
                let gp = parent[index_of(&live, pc)];
                let tag = if gp == pc { T_JR_ROOT } else { T_JR_STEP };
                ctx.send_pkt(asker, pk(tag, c, gp, 0.0));
            }
            ctx.sync();
            let mut still: Vec<u32> = Vec::new();
            while let Some(pkt) = ctx.get_pkt() {
                let (tag, c, gp, _) = unpk(pkt);
                match tag {
                    T_JR_ROOT => parent[index_of(&live, c)] = gp,
                    T_JR_STEP => {
                        parent[index_of(&live, c)] = gp;
                        still.push(c);
                    }
                    _ => unreachable!("unexpected tag {tag} in jump-reply superstep"),
                }
            }
            unsettled = still;
        }

        // F: push new roots to subscribers; exchange merge/root counters.
        let my_roots = live.iter().zip(&parent).filter(|(c, r)| c == r).count() as u32;
        for &(c, pid) in &subscribers {
            let root = parent[index_of(&live, c)];
            ctx.send_pkt(pid as usize, pk(T_ROOT, c, root, 0.0));
        }
        send_stat(ctx, merges, my_roots);
        ctx.sync();
        let mut relabel: Vec<(u32, u32)> = Vec::new(); // (old label, root)
        let (mut total_merges, mut total_roots) = (merges as u64, my_roots as u64);
        while let Some(pkt) = ctx.get_pkt() {
            let (tag, id, aux, _) = unpk(pkt);
            match tag {
                T_ROOT => relabel.push((id, aux)),
                T_STAT => {
                    total_merges += id as u64;
                    total_roots += aux as u64;
                }
                _ => unreachable!("unexpected tag {tag} in superstep F"),
            }
        }
        relabel.sort_unstable();
        for c in &mut st.lab[..st.nc] {
            if let Ok(i) = relabel.binary_search_by_key(&*c, |&(old, _)| old) {
                *c = relabel[i].1;
            }
        }
        if total_merges == 0 || total_roots <= threshold {
            break;
        }
    }

    // ---- Phase 3: mixed parallel/sequential finish ----
    // Refresh border labels (no subscriptions needed).
    st.push_labels_and_subscribe(ctx, false);
    ctx.sync();
    while let Some(pkt) = ctx.get_pkt() {
        let (tag, id, aux, _) = unpk(pkt);
        debug_assert_eq!(tag, T_PUSH);
        st.apply_push(id, aux);
    }
    // Min edge per component pair -> processor 0; per-proc totals -> all.
    for (a, b, w) in st.pair_minima() {
        ctx.send_pkt(0, pk(T_CAND, a, b, w));
    }
    ctx.charge(lg.adj.len() as u64); // mixed-phase pair scan
    let my_count = st.weights.len() as u32;
    // Sum in sorted order so the value is independent of the sequence the
    // weights were recorded in. The local phase recorded its weights in
    // ascending order already; the stable sort finds that run and merges in
    // the rounds' few weights (equal keys are equal weights, so stability
    // changes no bit).
    let my_weight: f64 = {
        let mut ws = st.weights.clone();
        ws.sort_by_key(|w| w.to_bits());
        ws.iter().sum()
    };
    if ctx.pid() != 0 {
        ctx.send_pkt(0, pk(T_TOTAL, my_count, ctx.pid() as u32, my_weight));
    }
    ctx.sync();

    // Fold per-processor totals in pid order — the order they arrive in —
    // so every backend and every run produces bit-identical results.
    let mut totals: Vec<(u32, u32, f64)> = vec![(ctx.pid() as u32, my_count, my_weight)];
    if ctx.pid() == 0 {
        // Sequential assembly: Kruskal over the component graph.
        let mut edges: Vec<(f64, u32, u32)> = Vec::new();
        while let Some(pkt) = ctx.get_pkt() {
            let (tag, a, b, w) = unpk(pkt);
            match tag {
                T_CAND => edges.push((w, a, b)),
                T_TOTAL => totals.push((b, a, w)),
                _ => unreachable!("unexpected tag {tag} in mixed phase"),
            }
        }
        let others_count: u64 = totals.iter().map(|&(_, c, _)| c as u64).sum();
        let others_weight: f64 = totals.iter().map(|&(_, _, w)| w).sum();
        edges.sort_unstable_by_key(edge_key);
        // Union-find over the labels, numbered by rank.
        let mut labels: Vec<u32> = edges.iter().flat_map(|&(_, a, b)| [a, b]).collect();
        labels.sort_unstable();
        labels.dedup();
        let mut uf = UnionFind::new(labels.len());
        let mut fixed_count = 0u32;
        let mut fixed_weight = 0.0;
        for (w, a, b) in edges {
            if uf.union(index_of(&labels, a) as u32, index_of(&labels, b) as u32) {
                st.weights.push(w);
                fixed_count += 1;
                fixed_weight += w;
            }
        }
        // Broadcast the final totals.
        let total_edges = others_count + fixed_count as u64;
        let total_weight = others_weight + fixed_weight;
        for dest in 1..p {
            ctx.send_pkt(dest, pk(T_RES, total_edges as u32, 0, total_weight));
        }
        ctx.sync();
        return MstResult {
            total_weight,
            total_edges,
            local_weights: st.weights,
            rounds,
        };
    }
    // Non-roots: drain the totals (only processor 0 folds them), wait for
    // the result.
    while ctx.get_pkt().is_some() {}
    drop(totals);
    ctx.sync();
    let pkt = ctx.get_pkt().expect("mixed-phase result");
    let (tag, count, _, weight) = unpk(pkt);
    debug_assert_eq!(tag, T_RES);
    MstResult {
        total_weight: weight,
        total_edges: count as u64,
        local_weights: st.weights,
        rounds,
    }
}

/// The local phase's Kruskal as a sort of every edge and one scan, which
/// [`LocalKruskal::filter_kruskal`] replaces: `local_phase` checks the
/// committed weights, the deferred edges and the component slots against it
/// under test.
#[cfg(test)]
#[allow(clippy::type_complexity)]
fn reference_local_kruskal(
    home: &[u32],
    mut edges: Vec<(f64, u32, u32)>,
    mut min_border: Vec<f64>,
) -> (Vec<f64>, Vec<(u32, u32, f64)>, Vec<u32>) {
    edges.sort_unstable_by_key(|e| edge_key(e).0);
    for run in edges.chunk_by_mut(|x, y| x.0.to_bits() == y.0.to_bits()) {
        run.sort_unstable_by_key(|&(_, a, b)| (home[a as usize], home[b as usize]));
    }
    let mut uf = UnionFind::new(home.len());
    let mut weights = Vec::new();
    let mut deferred: Vec<(u32, u32, f64)> = Vec::new();
    for (w, a, b) in edges {
        let (ra, rb) = (uf.find(a), uf.find(b));
        if ra == rb {
            continue;
        }
        let (mba, mbb) = (min_border[ra as usize], min_border[rb as usize]);
        if w <= mba || w <= mbb {
            uf.union(ra, rb);
            let r = uf.find(ra);
            min_border[r as usize] = mba.min(mbb);
            weights.push(w);
        } else {
            deferred.push((a, b, w));
        }
    }
    let mut slot_of_root = vec![u32::MAX; home.len()];
    let mut slots = 0;
    let cidx = (0..home.len() as u32)
        .map(|h| {
            let r = uf.find(h) as usize;
            if slot_of_root[r] == u32::MAX {
                slot_of_root[r] = slots;
                slots += 1;
            }
            slot_of_root[r]
        })
        .collect();
    (weights, deferred, cidx)
}

/// The full-adjacency scans the frontier replaces: `candidates` and
/// `pair_minima` check every result against them under test.
#[cfg(test)]
impl MstState<'_> {
    /// Label of a local id (home or border).
    fn label_of(&self, lid: u32) -> u32 {
        let nh = self.lg.n_home();
        if (lid as usize) < nh {
            self.lab[self.cidx[lid as usize] as usize]
        } else {
            self.lab[self.nc + lid as usize - nh]
        }
    }

    fn reference_candidates(&self) -> Vec<(u32, Cand)> {
        let mut best: BTreeMap<u32, Cand> = BTreeMap::new();
        for h in 0..self.lg.n_home() as u32 {
            let cu = self.label_of(h);
            for &(v, w) in self.lg.neighbors(h) {
                let cv = self.label_of(v);
                if cv != cu {
                    let cand = Cand { w, cv };
                    let cur = best.entry(cu).or_insert(cand);
                    if cand.better_than(cur) {
                        *cur = cand;
                    }
                }
            }
        }
        best.into_iter().collect()
    }

    fn reference_pair_minima(&self) -> Vec<(u32, u32, f64)> {
        let mut best: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for h in 0..self.lg.n_home() as u32 {
            let cu = self.label_of(h);
            for &(v, w) in self.lg.neighbors(h) {
                let cv = self.label_of(v);
                if cv != cu {
                    let e = best
                        .entry((cu.min(cv), cu.max(cv)))
                        .or_insert(f64::INFINITY);
                    if w < *e {
                        *e = w;
                    }
                }
            }
        }
        best.into_iter().map(|((a, b), w)| (a, b, w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{geometric_graph, Graph};
    use crate::partition::{build_locals, partition_kd};
    use crate::seq::kruskal_mst;
    use green_bsp::{run, Config};
    use proptest::prelude::*;

    fn check(n: usize, seed: u64, p: usize) {
        let g = geometric_graph(n, seed);
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let (kw, kedges) = kruskal_mst(&g);
        let out = run(&Config::new(p), |ctx| {
            mst_run(ctx, &locals[ctx.pid()], &owner)
        });
        // Identical totals on every processor.
        for r in &out.results {
            assert_eq!(r.total_edges, (n - 1) as u64, "n={n} p={p}");
            assert!(
                (r.total_weight - kw).abs() < 1e-9 * kw.max(1.0),
                "n={n} p={p}: parallel {} vs kruskal {}",
                r.total_weight,
                kw
            );
        }
        // The multiset of edge weights matches Kruskal's exactly (the MST is
        // unique for distinct weights).
        let mut ours: Vec<u64> = out
            .results
            .iter()
            .flat_map(|r| r.local_weights.iter().map(|w| w.to_bits()))
            .collect();
        ours.sort_unstable();
        let mut theirs: Vec<u64> = kedges
            .iter()
            .map(|&(u, v)| {
                g.neighbors(u)
                    .iter()
                    .find(|&&(x, _)| x == v)
                    .map(|&(_, w)| w.to_bits())
                    .unwrap()
            })
            .collect();
        theirs.sort_unstable();
        assert_eq!(ours, theirs, "n={n} p={p}: weight multiset differs");
    }

    #[test]
    fn matches_kruskal_small() {
        for p in [1, 2, 3, 4] {
            check(120, 5, p);
        }
    }

    #[test]
    fn matches_kruskal_medium() {
        for p in [1, 2, 4, 8] {
            check(800, 17, p);
        }
    }

    #[test]
    fn matches_kruskal_various_seeds() {
        for seed in [1u64, 2, 3] {
            check(400, seed, 4);
        }
    }

    #[test]
    fn single_processor_reduces_to_local_kruskal() {
        let g = geometric_graph(500, 9);
        let owner = partition_kd(&g.pos, 1);
        let locals = build_locals(&g, &owner, 1);
        let (kw, _) = kruskal_mst(&g);
        let out = run(&Config::new(1), |ctx| mst_run(ctx, &locals[0], &owner));
        assert!((out.results[0].total_weight - kw).abs() < 1e-9);
        assert_eq!(out.results[0].rounds, 1, "one no-op Borůvka round");
    }

    #[test]
    fn conservative_message_bound() {
        // Per superstep, messages sent by a processor must be O(border +
        // components + p). We check the aggregate: the max h-relation never
        // exceeds the largest border size plus p.
        let g = geometric_graph(1500, 23);
        let p = 4;
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let max_border = locals.iter().map(|l| l.border_gid.len()).max().unwrap() as u64;
        let out = run(&Config::new(p), |ctx| {
            mst_run(ctx, &locals[ctx.pid()], &owner)
        });
        for (i, step) in out.stats.steps.iter().enumerate() {
            assert!(
                step.max_sent <= 3 * max_border + p as u64,
                "superstep {i}: sent {} exceeds conservative bound ({})",
                step.max_sent,
                3 * max_border + p as u64
            );
        }
    }

    #[test]
    fn partition_below_splits_at_the_bound() {
        for len in [0u32, 1, 2, 255, 256, 257, 511, 1000, 5000] {
            // Weights 1..=97 in a scramble, with every value repeated.
            let edges: Vec<(f64, u32, u32)> = (0..len)
                .map(|i| ((i.wrapping_mul(2_654_435_761) % 97) as f64 + 1.0, i, 0))
                .collect();
            for bound in [0.5, 1.0, 30.0, 49.5, 97.0, 98.0] {
                let mut parted = edges.clone();
                let k = partition_below(&mut parted, f64::to_bits(bound));
                assert!(
                    parted[..k].iter().all(|e| e.0 < bound),
                    "len {len} bound {bound}"
                );
                assert!(
                    parted[k..].iter().all(|e| e.0 >= bound),
                    "len {len} bound {bound}"
                );
                parted.sort_unstable_by_key(|e| e.1);
                assert!(
                    parted == edges,
                    "len {len} bound {bound}: not a permutation"
                );
            }
        }
    }

    /// A `side × side` lattice on the unit square with every edge weight 1;
    /// cell `c` (row-major) is node `c · 7919 mod side²`, so global ids are
    /// scattered over the square (`side < 7919`).
    fn tie_lattice(side: usize) -> Graph {
        let n = side * side;
        let id = |c: usize| (c * 7919 % n) as u32;
        let (mut pos, mut rows) = (vec![(0.0, 0.0); n], vec![Vec::new(); n]);
        for c in 0..n {
            let (x, y) = (c % side, c / side);
            pos[id(c) as usize] = (
                (x as f64 + 0.5) / side as f64,
                (y as f64 + 0.5) / side as f64,
            );
            let row = &mut rows[id(c) as usize];
            if x + 1 < side {
                row.push(id(c + 1));
            }
            if y + 1 < side {
                row.push(id(c + side));
            }
            if x > 0 {
                row.push(id(c - 1));
            }
            if y > 0 {
                row.push(id(c - side));
            }
        }
        let (mut xadj, mut adj) = (vec![0u32], Vec::new());
        for mut row in rows {
            row.sort_unstable();
            adj.extend(row.into_iter().map(|v| (v, 1.0)));
            xadj.push(adj.len() as u32);
        }
        Graph {
            n,
            xadj,
            adj,
            pos,
            delta: 1.0 / side as f64,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// In every round of every process, the frontier's candidates, and
        /// in the mixed phase its pair minima, equal the full-adjacency
        /// scans': `candidates` and `pair_minima` assert it under test, and
        /// a process that panics fails the run. On G(δ), and on a lattice
        /// where every weight ties.
        #[test]
        fn frontier_scans_match_the_full_adjacency_scans(
            n in 1usize..=2000,
            seed in any::<u64>(),
            p in 1usize..=4,
            ties in any::<bool>(),
        ) {
            let g = if ties {
                tie_lattice(((n as f64).sqrt() as usize).max(1))
            } else {
                geometric_graph(n, seed)
            };
            let owner = partition_kd(&g.pos, p);
            let locals = build_locals(&g, &owner, p);
            let out = run(&Config::new(p), |ctx| {
                mst_run(ctx, &locals[ctx.pid()], &owner)
            });
            for r in &out.results {
                prop_assert_eq!(r.total_edges, (g.n - 1) as u64, "n = {}, p = {}", g.n, p);
            }
        }

        /// The Filter-Kruskal local phase commits the weights, defers the
        /// edges and numbers the components exactly as the sort-then-scan
        /// it replaced: `local_phase` asserts it under test on every call.
        /// On G(δ) with its weights rounded up to `levels` values, so tie
        /// runs are long (one run of every edge at `levels = 1`), with
        /// process edge counts on both sides of [`KRUSKAL_LEAF`].
        #[test]
        fn filter_kruskal_matches_the_sort_then_scan_on_quantised_weights(
            n in 1usize..=4000,
            seed in any::<u64>(),
            p in 1usize..=3,
            levels in (0usize..5).prop_map(|i| [1.0, 2.0, 7.0, 64.0, 1024.0][i]),
        ) {
            let mut g = geometric_graph(n, seed);
            let delta = g.delta;
            for e in &mut g.adj {
                e.1 = (e.1 / delta * levels).ceil().max(1.0);
            }
            let owner = partition_kd(&g.pos, p);
            let locals = build_locals(&g, &owner, p);
            let out = run(&Config::new(p), |ctx| {
                mst_run(ctx, &locals[ctx.pid()], &owner)
            });
            let (kw, _) = kruskal_mst(&g);
            for r in &out.results {
                prop_assert_eq!(r.total_edges, (g.n - 1) as u64, "n = {}, p = {}", g.n, p);
                prop_assert_eq!(r.total_weight, kw, "n = {}, p = {}", g.n, p);
            }
        }
    }
}

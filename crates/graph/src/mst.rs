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
use green_bsp::{Ctx, Packet};
use std::collections::{HashMap, HashSet};

/// Result of a distributed MST run, identical on every processor except for
/// `local_weights`.
#[derive(Clone, Debug)]
pub struct MstResult {
    /// Total weight of the spanning forest (= MST weight when connected).
    pub total_weight: f64,
    /// Number of tree edges found (`n − 1` when connected).
    pub total_edges: u64,
    /// Weights of the tree edges recorded by *this* processor (local-phase
    /// edges, parallel-phase merges led here, and — on processor 0 — the
    /// mixed-phase edges). Concatenated over processors these are exactly
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
#[derive(Clone, Copy, Debug)]
struct Cand {
    w: f64,
    cv: u32,
}

impl Cand {
    fn better_than(&self, other: &Cand) -> bool {
        (self.w, self.cv) < (other.w, other.cv)
    }
}

/// State of the parallel phase on one processor.
struct MstState<'a> {
    lg: &'a LocalGraph,
    owner: &'a [u32],
    /// Component label per home node (global node ids as labels).
    comp: Vec<u32>,
    /// Cached component label per border node (by border index).
    border_comp: Vec<u32>,
    /// Leader-side parent pointers for labels owned here.
    parent: HashMap<u32, u32>,
    /// Leader-side subscriber lists for labels owned here.
    subscribers: HashMap<u32, Vec<u32>>,
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
    /// edges are rediscovered by the candidate scans.
    fn local_phase(lg: &'a LocalGraph, owner: &'a [u32]) -> Self {
        let nh = lg.n_home();
        let mut edges: Vec<(f64, u32, u32)> = Vec::new();
        // Cheapest border-incident edge per home node (f64::INFINITY if none).
        let mut min_border = vec![f64::INFINITY; nh];
        for h in 0..nh as u32 {
            for &(v, w) in lg.neighbors(h) {
                if lg.is_home(v) {
                    if h < v {
                        edges.push((w, h, v));
                    }
                } else if w < min_border[h as usize] {
                    min_border[h as usize] = w;
                }
            }
        }
        edges.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        let mut uf = UnionFind::new(nh);
        let mut weights = Vec::new();
        for (w, a, b) in edges {
            let (ra, rb) = (uf.find(a), uf.find(b));
            if ra == rb {
                continue; // cycle: excluded by the cycle property
            }
            let (mba, mbb) = (min_border[ra as usize], min_border[rb as usize]);
            if w <= mba || w <= mbb {
                uf.union(ra, rb);
                let r = uf.find(ra);
                min_border[r as usize] = mba.min(mbb);
                weights.push(w);
            }
            // else: deferred — neither side's cut is certified locally.
        }
        let comp: Vec<u32> = (0..nh as u32)
            .map(|h| lg.home[uf.find(h) as usize])
            .collect();
        MstState {
            lg,
            owner,
            comp,
            border_comp: vec![u32::MAX; lg.border_gid.len()],
            parent: HashMap::new(),
            subscribers: HashMap::new(),
            weights,
        }
    }

    /// Component label of a neighbour by local id.
    #[inline]
    fn comp_of(&self, lid: u32) -> u32 {
        let nh = self.lg.n_home();
        if (lid as usize) < nh {
            self.comp[lid as usize]
        } else {
            self.border_comp[lid as usize - nh]
        }
    }

    /// Superstep A: push boundary labels to adjacent processors and
    /// subscribe to every live local label at its leader.
    fn push_labels_and_subscribe(&self, ctx: &mut Ctx, subscribe: bool) {
        for h in 0..self.lg.n_home() as u32 {
            let procs = self.lg.remote_procs(h);
            if !procs.is_empty() {
                let gid = self.lg.home[h as usize];
                let c = self.comp[h as usize];
                for &pr in procs {
                    ctx.send_pkt(pr as usize, pk(T_PUSH, gid, c, 0.0));
                }
            }
        }
        if subscribe {
            let me = ctx.pid() as u32;
            let distinct: HashSet<u32> = self.comp.iter().copied().collect();
            for c in distinct {
                ctx.send_pkt(self.owner_of(c), pk(T_SUB, c, me, 0.0));
            }
        }
    }

    /// Apply a `T_PUSH` packet.
    fn apply_push(&mut self, gid: u32, c: u32) {
        let lid = self.lg.lid(gid).expect("push for unknown border node");
        let nh = self.lg.n_home();
        debug_assert!(lid as usize >= nh, "push must target a border node");
        self.border_comp[lid as usize - nh] = c;
    }

    /// Local candidate scan: minimum outgoing edge per local component.
    fn candidates(&self) -> HashMap<u32, Cand> {
        let mut best: HashMap<u32, Cand> = HashMap::new();
        for h in 0..self.lg.n_home() as u32 {
            let cu = self.comp[h as usize];
            for &(v, w) in self.lg.neighbors(h) {
                let cv = self.comp_of(v);
                if cv != cu {
                    let cand = Cand { w, cv };
                    match best.get_mut(&cu) {
                        Some(cur) if !cand.better_than(cur) => {}
                        Some(cur) => *cur = cand,
                        None => {
                            best.insert(cu, cand);
                        }
                    }
                }
            }
        }
        best
    }
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
    let p = ctx.nprocs();
    let threshold = (2 * p).max(32) as u64;
    let mut st = MstState::local_phase(lg, owner);
    // Local-phase work: edge sort + union-find, ~ m log m.
    let m_local = lg.adj.len() as u64;
    ctx.charge(m_local * 4 + lg.n_home() as u64);
    let mut rounds = 0u32;

    // ---- Phase 2: Borůvka rounds ----
    loop {
        rounds += 1;
        // A: push fresh labels + subscriptions.
        st.push_labels_and_subscribe(ctx, true);
        ctx.sync();

        // B: absorb pushes and subscriptions; send aggregated candidates.
        st.subscribers.clear();
        let mut live: HashSet<u32> = HashSet::new();
        while let Some(pkt) = ctx.get_pkt() {
            let (tag, id, aux, _) = unpk(pkt);
            match tag {
                T_PUSH => st.apply_push(id, aux),
                T_SUB => {
                    st.subscribers.entry(id).or_default().push(aux);
                    live.insert(id);
                }
                _ => unreachable!("unexpected tag {tag} in superstep B"),
            }
        }
        for (cu, cand) in st.candidates() {
            ctx.send_pkt(st.owner_of(cu), pk(T_CAND, cu, cand.cv, cand.w));
        }
        ctx.charge(lg.adj.len() as u64); // candidate scan
        ctx.sync();

        // C: leaders select the global minimum per component and hook.
        let mut pending: HashMap<u32, Cand> = HashMap::new();
        while let Some(pkt) = ctx.get_pkt() {
            let (tag, cu, cv, w) = unpk(pkt);
            debug_assert_eq!(tag, T_CAND);
            let cand = Cand { w, cv };
            match pending.get_mut(&cu) {
                Some(cur) if !cand.better_than(cur) => {}
                Some(cur) => *cur = cand,
                None => {
                    pending.insert(cu, cand);
                }
            }
        }
        for (&cu, cand) in &pending {
            ctx.send_pkt(st.owner_of(cand.cv), pk(T_HOOK, cu, cand.cv, cand.w));
        }
        ctx.sync();

        // D: break 2-cycles, fix parents, record merge weights.
        let mut incoming: HashMap<u32, HashMap<u32, f64>> = HashMap::new(); // cv -> {cu: w}
        while let Some(pkt) = ctx.get_pkt() {
            let (tag, cu, cv, w) = unpk(pkt);
            debug_assert_eq!(tag, T_HOOK);
            incoming.entry(cv).or_default().insert(cu, w);
        }
        st.parent.clear();
        for &c in &live {
            st.parent.insert(c, c);
        }
        let mut merges = 0u32;
        let mut unsettled: Vec<u32> = Vec::new();
        for (&c, cand) in &pending {
            let d = cand.cv;
            let mutual_w = incoming.get(&c).and_then(|s| s.get(&d).copied());
            if let Some(w2) = mutual_w {
                // With distinct weights a mutual pair must have chosen the
                // same (minimum) edge; a mismatch means a selection bug.
                debug_assert!(
                    (w2 - cand.w).abs() < 1e-12,
                    "mutual hook {c}<->{d} with differing weights {w2} vs {}",
                    cand.w
                );
                if c < d {
                    continue; // the d -> c hook survives instead
                }
            }
            st.parent.insert(c, d);
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
                let pc = st.parent[&c];
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
                let gp = *st
                    .parent
                    .get(&pc)
                    .unwrap_or_else(|| panic!("no parent entry for label {pc}"));
                let tag = if gp == pc { T_JR_ROOT } else { T_JR_STEP };
                ctx.send_pkt(asker, pk(tag, c, gp, 0.0));
            }
            ctx.sync();
            let mut still: Vec<u32> = Vec::new();
            while let Some(pkt) = ctx.get_pkt() {
                let (tag, c, gp, _) = unpk(pkt);
                match tag {
                    T_JR_ROOT => {
                        st.parent.insert(c, gp);
                    }
                    T_JR_STEP => {
                        st.parent.insert(c, gp);
                        still.push(c);
                    }
                    _ => unreachable!("unexpected tag {tag} in jump-reply superstep"),
                }
            }
            unsettled = still;
        }

        // F: push new roots to subscribers; exchange merge/root counters.
        let mut my_roots = 0u32;
        for &c in &live {
            let root = st.parent[&c];
            if root == c {
                my_roots += 1;
            }
            if let Some(subs) = st.subscribers.get(&c) {
                for &pid in subs {
                    ctx.send_pkt(pid as usize, pk(T_ROOT, c, root, 0.0));
                }
            }
        }
        send_stat(ctx, merges, my_roots);
        ctx.sync();
        let mut relabel: HashMap<u32, u32> = HashMap::new();
        let (mut total_merges, mut total_roots) = (merges as u64, my_roots as u64);
        while let Some(pkt) = ctx.get_pkt() {
            let (tag, id, aux, _) = unpk(pkt);
            match tag {
                T_ROOT => {
                    relabel.insert(id, aux);
                }
                T_STAT => {
                    total_merges += id as u64;
                    total_roots += aux as u64;
                }
                _ => unreachable!("unexpected tag {tag} in superstep F"),
            }
        }
        for c in st.comp.iter_mut() {
            if let Some(&r) = relabel.get(c) {
                *c = r;
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
    let mut pair_best: HashMap<(u32, u32), f64> = HashMap::new();
    for h in 0..lg.n_home() as u32 {
        let cu = st.comp[h as usize];
        for &(v, w) in lg.neighbors(h) {
            let cv = st.comp_of(v);
            if cv != cu {
                let key = (cu.min(cv), cu.max(cv));
                let e = pair_best.entry(key).or_insert(f64::INFINITY);
                if w < *e {
                    *e = w;
                }
            }
        }
    }
    for (&(a, b), &w) in &pair_best {
        ctx.send_pkt(0, pk(T_CAND, a, b, w));
    }
    ctx.charge(lg.adj.len() as u64); // mixed-phase pair scan
    let my_count = st.weights.len() as u32;
    // Sum in sorted order so the value is independent of the (arrival-
    // order-dependent) sequence the weights were recorded in.
    let my_weight: f64 = {
        let mut ws = st.weights.clone();
        ws.sort_by(|a, b| a.partial_cmp(b).unwrap());
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
        edges.sort_unstable_by(|x, y| {
            x.0.partial_cmp(&y.0)
                .unwrap()
                .then(x.1.cmp(&y.1))
                .then(x.2.cmp(&y.2))
        });
        // Union-find over labels via dense renumbering.
        let mut dense: HashMap<u32, u32> = HashMap::new();
        for &(_, a, b) in &edges {
            let next = dense.len() as u32;
            dense.entry(a).or_insert(next);
            let next = dense.len() as u32;
            dense.entry(b).or_insert(next);
        }
        let mut uf = UnionFind::new(dense.len());
        let mut fixed_count = 0u32;
        let mut fixed_weight = 0.0;
        for (w, a, b) in edges {
            if uf.union(dense[&a], dense[&b]) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::geometric_graph;
    use crate::partition::{build_locals, partition_kd};
    use crate::seq::kruskal_mst;
    use green_bsp::{run, Config};

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
        let mut ours: Vec<f64> = out
            .results
            .iter()
            .flat_map(|r| r.local_weights.iter().copied())
            .collect();
        ours.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut theirs: Vec<f64> = kedges
            .iter()
            .map(|&(u, v)| {
                g.neighbors(u)
                    .iter()
                    .find(|&&(x, _)| x == v)
                    .map(|&(_, w)| w)
                    .unwrap()
            })
            .collect();
        theirs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(ours.len(), theirs.len());
        for (a, b) in ours.iter().zip(theirs.iter()) {
            assert!((a - b).abs() < 1e-12, "weight multiset differs: {a} vs {b}");
        }
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
}

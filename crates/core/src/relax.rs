//! Relaxed synchronization: static sync graphs and pairwise neighborhood
//! barriers.
//!
//! The paper's barrier charges every superstep the full latency `L` even
//! when a processor exchanges data with a handful of static neighbors
//! (ocean's ghost ring: ≤ 8 of `p − 1` peers). A superstep that declares a
//! [`SyncGraph`] via [`Config::sync_graph`](crate::Config::sync_graph) and
//! synchronizes with [`Ctx::sync_neigh`](crate::Ctx::sync_neigh) instead
//! performs a *pairwise* rendezvous: each processor signals a per-directed-
//! edge generation flag toward every neighbor, then waits only for its own
//! in-edges, skipping the p-wide rendezvous entirely.
//!
//! Soundness (DESIGN.md §12): the per-edge flag a neighbor raises *after*
//! draining phase `s & 1` is exactly the flag this processor waits on
//! before its step-`s + 2` deposits into that phase, so the Release/Acquire
//! edge of the flag store/load carries the same happens-before the global
//! barrier used to provide — but only along declared edges. Traffic to a
//! non-neighbor has no such edge, which is why the context rejects it on
//! every backend ([`TransportErrorKind::GraphViolation`](crate::TransportErrorKind)).

use crate::pad::CachePadded;
// All synchronization primitives come through the shim: std under a normal
// build (bit-identical codegen), loom's model-checked equivalents under
// `--cfg loom`. See sync_shim.rs and DESIGN.md §13.
use crate::sync_shim as shim;
use crate::sync_shim::{AtomicBool, AtomicU64, Mutex, Ordering, SpinBudget, Thread};
use std::time::Duration;

/// The ordering of the per-edge generation-flag publication in
/// [`NeighborSync::signal`] — Release, the load-bearing half of the
/// rendezvous happens-before edge. Under `--cfg loom_mutant` (the loom
/// suite's teeth check, CI job `analysis`) it is deliberately weakened to
/// Relaxed, which must make the model checker report a data race on the
/// payload published across the rendezvous: the SeqCst fence *after* the
/// store is no substitute, because C++11 requires a release fence *before*
/// a relaxed store to upgrade it, and the reader's spin path acquires the
/// flag without any fence of its own.
#[cfg(not(loom_mutant))]
const PUBLISH: Ordering = Ordering::Release;
#[cfg(loom_mutant)]
const PUBLISH: Ordering = Ordering::Relaxed;

/// How a superstep boundary synchronizes: an argument of every exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// The bulk-synchronous p-wide barrier (the paper's discipline).
    #[default]
    Full,
    /// Pairwise rendezvous with declared neighbors only. Requires a
    /// [`SyncGraph`] registered on the [`Config`](crate::Config); every
    /// processor must use the same mode sequence (superstep congruence
    /// extends to sync modes).
    Neighborhood,
}

/// A static, symmetric communication graph over `p` processors.
///
/// Built once from directed edge pairs; symmetrized (a pairwise rendezvous
/// is inherently bidirectional), self-edges dropped (a processor never
/// waits on itself — local sends are delivered by the local drain), and
/// deduplicated. The graph is immutable for the life of a run, which is
/// what makes the per-edge generation flags sound: the wait set of step
/// `s` equals the signal set of step `s`, on every processor, every step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncGraph {
    nprocs: usize,
    /// `neighbors[pid]`: sorted, deduplicated, self-free adjacency list.
    neighbors: Vec<Vec<usize>>,
    /// FNV-1a over `(nprocs, sorted undirected edge list)`; feeds the
    /// executor's arena key so pooled transports are never reused across
    /// runs with different graphs.
    hash: u64,
}

impl SyncGraph {
    /// Build a graph over `p` processors from directed `(src, dst)` pairs.
    ///
    /// # Panics
    /// If any endpoint is `>= p`.
    pub fn new(p: usize, edges: &[(usize, usize)]) -> Self {
        assert!(p > 0, "sync graph needs at least one processor");
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); p];
        for &(a, b) in edges {
            assert!(
                a < p && b < p,
                "sync graph edge ({a}, {b}) out of range for p = {p}"
            );
            if a == b {
                continue; // local delivery needs no rendezvous
            }
            neighbors[a].push(b);
            neighbors[b].push(a);
        }
        for adj in &mut neighbors {
            adj.sort_unstable();
            adj.dedup();
        }
        // FNV-1a over the canonical (sorted undirected) edge list.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(p as u64);
        for (a, adj) in neighbors.iter().enumerate() {
            for &b in adj.iter().filter(|&&b| b > a) {
                mix(a as u64);
                mix(b as u64);
            }
        }
        SyncGraph {
            nprocs: p,
            neighbors,
            hash,
        }
    }

    /// Number of processors the graph was built for.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Sorted neighbor set of `pid` (never contains `pid` itself).
    pub fn neighbors(&self, pid: usize) -> &[usize] {
        &self.neighbors[pid]
    }

    /// Whether `a` and `b` are joined by an edge (false for `a == b`).
    pub fn is_neighbor(&self, a: usize, b: usize) -> bool {
        self.neighbors[a].binary_search(&b).is_ok()
    }

    /// Canonical hash of `(nprocs, edge set)` for arena keying.
    /// Largest neighbor count over all processors (used by the machine
    /// emulator to derive a default neighborhood-barrier latency).
    pub fn max_degree(&self) -> usize {
        self.neighbors.iter().map(|n| n.len()).max().unwrap_or(0)
    }

    pub fn edge_hash(&self) -> u64 {
        self.hash
    }

    /// Total undirected edge count.
    pub fn edge_count(&self) -> usize {
        self.neighbors.iter().map(Vec::len).sum::<usize>() / 2
    }
}

/// Per-directed-edge generation flags for the pairwise rendezvous.
///
/// `flags[src * p + dst]` is a monotone counter: the highest neighborhood
/// generation `src` has completed *toward* `dst`. A neighborhood boundary
/// at generation `g` is: flush sends, [`signal`](NeighborSync::signal) all
/// out-edges to `g` (Release), [`wait`](NeighborSync::wait) all in-edges
/// to reach `g` (Acquire), drain. Monotone counters make the flags
/// reusable without re-initialization, exactly like [`FlagBarrier`]
/// (crate::barrier::FlagBarrier) generations, and survive transport reuse
/// across pooled runs (the executor never resets them, like msgpass's
/// `xseq`).
pub struct NeighborSync {
    nprocs: usize,
    flags: Vec<CachePadded<AtomicU64>>,
    /// Parked waiter per destination: `waiters[dst]` holds the handle and
    /// the full wait requirement of the one thread (processor `dst`
    /// itself) blocked in [`wait`](NeighborSync::wait). A signaler unparks
    /// it only when the flag it just raised *completes* that requirement,
    /// so every sleep costs exactly one park/unpark pair — waiters sleep
    /// off the run queue instead of yield-spinning, and a running thread
    /// is never preempted by a wakeup that cannot make progress. On an
    /// oversubscribed host this is what lets a scheduled thread burn
    /// through a whole superstep per slice while its neighbors sleep.
    waiters: Vec<Mutex<Option<Waiter>>>,
    /// `parked[dst]`: fast-path gate so signalers skip the waiter mutex
    /// entirely while `dst` is running.
    parked: Vec<CachePadded<AtomicBool>>,
    /// The pre-park policy shared with `CentralBarrier`, so a neighborhood
    /// boundary spins exactly as long as the full one it relaxes.
    spin: SpinBudget,
    poisoned: AtomicBool,
}

/// A registered parked waiter: wake `thread` once every in-edge `src →
/// dst` for `src ∈ srcs` has reached `gen`.
struct Waiter {
    thread: Thread,
    gen: u64,
    srcs: Box<[usize]>,
}

/// Deliver every deferred wake in `pending`.
fn flush_pending(pending: &mut Vec<Thread>) {
    for t in pending.drain(..) {
        t.unpark();
    }
}

impl NeighborSync {
    /// Flag matrix for `p` processors.
    pub fn new(p: usize) -> Self {
        assert!(p > 0);
        NeighborSync {
            nprocs: p,
            flags: (0..p * p)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            waiters: (0..p).map(|_| Mutex::new(None)).collect(),
            parked: (0..p)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            spin: SpinBudget::new(p),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Publish generation `gen` on every out-edge `src → dst` for
    /// `dst ∈ dsts`. Release ordering: everything `src` wrote before the
    /// signal (its deposits into the grid) is visible to a `dst`
    /// that acquires the flag.
    ///
    /// `pending` is the caller-owned deferred-wake buffer: wakes this
    /// signal completes are pushed there instead of delivered, and wakes
    /// deferred earlier are delivered now; see the inline comments for the
    /// deferral discipline.
    pub fn signal(&self, src: usize, dsts: &[usize], gen: u64, pending: &mut Vec<Thread>) {
        for &dst in dsts {
            self.flags[src * self.nprocs + dst].0.store(gen, PUBLISH);
        }
        // Pairs with the fence in `wait` (store parked → check flags vs
        // store flags → check parked): at least one side must observe the
        // other, so a waiter never parks against an unseen flag.
        shim::fence(Ordering::SeqCst);
        for &dst in dsts {
            if !self.parked[dst].0.load(Ordering::Relaxed) {
                continue;
            }
            let guard = self.waiters[dst].lock().unwrap();
            if let Some(w) = guard.as_ref() {
                let met = |src: usize| {
                    self.flags[src * self.nprocs + dst]
                        .0
                        .load(Ordering::Acquire)
                        >= w.gen
                };
                // Gather only waiters this signal *completed* — a wakeup
                // that cannot make progress would just preempt the
                // signaler and go back to sleep — and DEFER the unpark
                // until this processor itself blocks or finishes. The
                // deferral serves twice on an oversubscribed host: an
                // immediate unpark invites wakeup preemption (evicting
                // this running, progressing thread), and the longer a
                // completed waiter sleeps, the more generations of flags
                // accumulate above it — when it finally wakes it crosses
                // several boundaries in one scheduling slice instead of
                // paying a park/unpark pair per boundary. Liveness is the
                // flush-before-blocking discipline: a holder delivers all
                // deferred wakes exactly when the dependency binds (its
                // own wait stalls) or when it stops participating.
                if w.srcs.iter().all(|&s| met(s)) {
                    pending.push(w.thread.clone());
                }
            }
        }
    }

    /// Block until every in-edge `src → dst` for `src ∈ srcs` has reached
    /// `gen`, or the rendezvous is poisoned. Returns `false` on poison —
    /// callers must treat the crossing as failed, mirroring
    /// [`Barrier::is_poisoned`](crate::barrier::Barrier::is_poisoned).
    ///
    /// The shared [`SpinBudget`] covers the truly-parallel fast path (by
    /// yielding when `p` exceeds the cores); after that the waiter registers
    /// its thread handle and parks, to be unparked by the next in-neighbor
    /// signal (or by [`poison`](NeighborSync::poison)).
    /// Registration happens *before* each flag recheck and signalers store
    /// the flag *before* unparking, so a wakeup can never be missed; the
    /// park timeout is only insurance on top of that protocol.
    #[must_use]
    pub fn wait(&self, dst: usize, srcs: &[usize], gen: u64, pending: &mut Vec<Thread>) -> bool {
        let met = |src: usize| {
            self.flags[src * self.nprocs + dst]
                .0
                .load(Ordering::Acquire)
                >= gen
        };
        let all_met = || srcs.iter().all(|&s| met(s));
        // A wake may be deferred only while its holder has not yet reached
        // its own next boundary, and this is it: whether the wait resolves
        // at once, in the spin, or by parking, a neighbor whose only
        // missing flag was ours must not sit out our spin budget (or, for
        // a split-phase caller that never blocks, the park timeout).
        flush_pending(pending);
        if self
            .spin
            .spin(|| all_met() || self.poisoned.load(Ordering::Acquire))
        {
            return !self.poisoned.load(Ordering::Acquire);
        }
        *self.waiters[dst].lock().unwrap() = Some(Waiter {
            thread: shim::current(),
            gen,
            srcs: srcs.into(),
        });
        self.parked[dst].0.store(true, Ordering::Relaxed);
        // Pairs with the fence in `signal`; see there.
        shim::fence(Ordering::SeqCst);
        let ok = loop {
            if all_met() {
                break true;
            }
            if self.poisoned.load(Ordering::Acquire) {
                break false;
            }
            // The timeout is pure insurance (poison also unparks): the
            // registration-before-recheck protocol cannot miss a wakeup.
            shim::park_timeout(Duration::from_millis(1));
        };
        self.parked[dst].0.store(false, Ordering::Relaxed);
        *self.waiters[dst].lock().unwrap() = None;
        ok && !self.poisoned.load(Ordering::Acquire)
    }

    /// Deliver any still-deferred wakes. Callers that stop participating
    /// in the rendezvous (run teardown, transport reset) must call this so
    /// no neighbor is left to ride out a park timeout.
    pub fn flush(&self, pending: &mut Vec<Thread>) {
        flush_pending(pending);
    }

    /// Mark the rendezvous dead: a participant has panicked and will never
    /// signal again. All current and future waits return promptly.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        for w in &self.waiters {
            if let Some(w) = w.lock().unwrap().as_ref() {
                w.thread.unpark();
            }
        }
    }

    /// Whether [`poison`](NeighborSync::poison) has been called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn graph_symmetrizes_dedups_and_drops_self_edges() {
        let g = SyncGraph::new(4, &[(0, 1), (1, 0), (1, 1), (2, 3), (0, 1)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.neighbors(3), &[2]);
        assert_eq!(g.edge_count(), 2);
        assert!(g.is_neighbor(0, 1) && g.is_neighbor(1, 0));
        assert!(!g.is_neighbor(0, 2));
        assert!(!g.is_neighbor(1, 1), "self is never a neighbor");
    }

    #[test]
    fn graph_hash_is_canonical() {
        let a = SyncGraph::new(4, &[(0, 1), (2, 3)]);
        let b = SyncGraph::new(4, &[(3, 2), (1, 0), (1, 1)]);
        assert_eq!(a.edge_hash(), b.edge_hash(), "orientation must not matter");
        let c = SyncGraph::new(4, &[(0, 1)]);
        assert_ne!(a.edge_hash(), c.edge_hash());
        let d = SyncGraph::new(5, &[(0, 1), (2, 3)]);
        assert_ne!(a.edge_hash(), d.edge_hash(), "p is part of the identity");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn graph_rejects_out_of_range_edges() {
        SyncGraph::new(2, &[(0, 2)]);
    }

    #[test]
    fn empty_neighborhood_waits_on_nobody() {
        let ns = NeighborSync::new(3);
        // Proc 0 has no neighbors: its wait must return immediately.
        assert!(ns.wait(0, &[], 17, &mut Vec::new()));
    }

    /// Ring of p threads crossing thousands of pairwise generations: no
    /// thread may observe a neighbor more than one generation away, and a
    /// Relaxed write before the signal must be visible after the wait.
    #[test]
    fn pairwise_rendezvous_publishes_across_generations() {
        let p = 4;
        let graph = SyncGraph::new(p, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let ns = Arc::new(NeighborSync::new(p));
        let cells: Arc<Vec<CachePadded<AtomicU64>>> = Arc::new(
            (0..p)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        );
        std::thread::scope(|s| {
            for pid in 0..p {
                let ns = Arc::clone(&ns);
                let cells = Arc::clone(&cells);
                let graph = &graph;
                s.spawn(move || {
                    let mut pending = Vec::new();
                    for g in 1..=2_000u64 {
                        cells[pid].0.store(g, Ordering::Relaxed);
                        ns.signal(pid, graph.neighbors(pid), g, &mut pending);
                        assert!(ns.wait(pid, graph.neighbors(pid), g, &mut pending));
                        for &n in graph.neighbors(pid) {
                            let seen = cells[n].0.load(Ordering::Relaxed);
                            assert!(
                                seen >= g,
                                "flag acquired but neighbor {n} still at {seen} < {g}"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn poison_releases_stuck_pairwise_waiters() {
        let p = 3;
        let ns = Arc::new(NeighborSync::new(p));
        std::thread::scope(|s| {
            for pid in 0..p - 1 {
                let ns = Arc::clone(&ns);
                s.spawn(move || {
                    // Wait on proc 2, which never signals.
                    assert!(
                        !ns.wait(pid, &[2], 1, &mut Vec::new()),
                        "poisoned wait must fail"
                    );
                });
            }
            let ns = Arc::clone(&ns);
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                ns.poison();
            });
        });
    }
}

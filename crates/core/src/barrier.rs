//! Barrier synchronization primitives for superstep boundaries.
//!
//! The paper's shared-memory library synchronizes with `p` shared counters:
//! each processor increments its own, processor 0 spins on counters `1..p`,
//! and processors `1..p` spin on counter 0 (Appendix B.1). That scheme is
//! [`FlagBarrier`]. The default is [`CentralBarrier`], which also spins —
//! on one generation word, for a bounded budget of about one park/unpark
//! pair — and then parks on a condvar, so it costs what the flag scheme
//! costs with a core per process and stays robust when logical processes
//! outnumber cores (the budget is then spent in `yield_now`, not in a
//! spin). A [`TreeBarrier`] and [`DisseminationBarrier`] are provided for
//! the barrier ablation bench.

use crate::pad::CachePadded;
// Every synchronization primitive comes through the shim: std under a
// normal build (bit-identical codegen), loom's model-checked equivalents
// under `--cfg loom`. See sync_shim.rs and DESIGN.md §13.
pub(crate) use crate::sync_shim::spin_wait;
use crate::sync_shim::{AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering, SpinBudget};

/// A reusable barrier for a fixed set of `p` participants.
pub trait Barrier: Send + Sync {
    /// Block until all `p` participants have called `wait` for the current
    /// generation. `pid` identifies the caller in `0..p`.
    ///
    /// If the barrier has been [`poison`ed](Barrier::poison) — because a
    /// participant died and will never arrive — `wait` returns promptly
    /// *without* the usual all-arrived guarantee. Callers that care must
    /// check [`is_poisoned`](Barrier::is_poisoned) after every crossing.
    fn wait(&self, pid: usize);
    /// Split-phase arrival: announce this participant has reached the
    /// barrier *without* blocking for the others, so the caller can keep
    /// computing on local data and block later in
    /// [`complete`](Barrier::complete). `arrive` + `complete` is
    /// observationally equivalent to one [`wait`](Barrier::wait), and the
    /// two styles may be mixed across participants in the same crossing.
    /// At most one arrival may be outstanding per participant.
    ///
    /// The default is a no-op (all the work happens in `complete`), which
    /// is always correct — it simply forfeits the overlap.
    fn arrive(&self, _pid: usize) {}
    /// Second half of a split-phase crossing: block until every
    /// participant has arrived at the generation this participant
    /// [`arrive`](Barrier::arrive)d at. Defaults to a full
    /// [`wait`](Barrier::wait), matching the no-op default `arrive`.
    fn complete(&self, pid: usize) {
        self.wait(pid);
    }
    /// Number of participants.
    fn parties(&self) -> usize;
    /// Mark the barrier as dead: a participant has panicked and will never
    /// arrive again. All current and future `wait` calls return promptly
    /// instead of deadlocking.
    fn poison(&self);
    /// Whether [`poison`](Barrier::poison) has been called.
    fn is_poisoned(&self) -> bool;
}

/// Which barrier implementation a backend should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BarrierKind {
    /// Central counter, spin-then-park: waiters spin on a generation word
    /// for a bounded budget, then sleep on a condvar. Default; as cheap as
    /// the spinning kinds on idle cores, friendly to oversubscription.
    #[default]
    Central,
    /// The paper's flag scheme: `p` shared counters, proc 0 as coordinator.
    Flag,
    /// Binary combining tree of atomic counters.
    Tree,
    /// Dissemination barrier: ⌈log₂ p⌉ rounds of pairwise flags.
    Dissemination,
}

impl BarrierKind {
    /// Construct a barrier of this kind for `p` participants.
    pub fn build(self, p: usize) -> Box<dyn Barrier> {
        match self {
            BarrierKind::Central => Box::new(CentralBarrier::new(p)),
            BarrierKind::Flag => Box::new(FlagBarrier::new(p)),
            BarrierKind::Tree => Box::new(TreeBarrier::new(p)),
            BarrierKind::Dissemination => Box::new(DisseminationBarrier::new(p)),
        }
    }
}

// ---------------------------------------------------------------------------

/// Central counter barrier with a spin-then-park crossing.
///
/// Arrival is one atomic increment. The last arriver publishes the next
/// generation (Release) and is the only one who may touch the mutex — and
/// only when some waiter has registered as a sleeper. A waiter spins on the
/// generation word (Acquire) for the [`SpinBudget`] — about one park/unpark
/// pair; yielding between checks when `p` exceeds the core count — and only
/// then registers and parks on the condvar. With a core per participant a
/// crossing is a handful of cache-line transfers; oversubscribed, a waiter
/// hands its core to the threads it waits for and, if they stay behind,
/// sleeps off the run queue exactly as a condvar barrier's would.
pub struct CentralBarrier {
    parties: usize,
    /// Arrivals in the current generation; the last arriver resets it.
    arrived: CachePadded<AtomicUsize>,
    /// Generations completed: the word waiters spin on.
    generation: CachePadded<AtomicU64>,
    /// Waiters past their spin budget, parked (or about to park) on `cv`.
    /// Changed only while holding `lock`.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    spin: SpinBudget,
    poisoned: AtomicBool,
    /// Per-participant generation recorded at [`arrive`](Barrier::arrive)
    /// time, so [`complete`](Barrier::complete) knows which generation to
    /// wait out. Only touched by its own pid between arrive and complete.
    arrive_gen: Vec<CachePadded<AtomicU64>>,
}

impl CentralBarrier {
    /// Barrier for `p` participants.
    pub fn new(p: usize) -> Self {
        Self::with_spin(p, SpinBudget::new(p))
    }

    /// Barrier with a fixed spin budget (the loom suite forces 0 and 1).
    pub(crate) fn with_spin(p: usize, spin: SpinBudget) -> Self {
        assert!(p > 0);
        CentralBarrier {
            parties: p,
            arrived: CachePadded::new(AtomicUsize::new(0)),
            generation: CachePadded::new(AtomicU64::new(0)),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            spin,
            poisoned: AtomicBool::new(false),
            arrive_gen: (0..p)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// First half of a crossing: count the caller in and return the
    /// generation it is completing. The last one in publishes the next
    /// generation and wakes whoever gave up spinning.
    fn count_in(&self) -> u64 {
        // Stable: the generation cannot advance before the caller arrives.
        let gen = self.generation.0.load(Ordering::Relaxed);
        // AcqRel: the RMW chain carries every earlier arriver's writes to
        // the last one, whose generation store carries them to all waiters.
        if self.arrived.0.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.0.store(0, Ordering::Relaxed);
            // SeqCst (Release and more): store generation → load sleepers
            // here against add sleepers → load generation in `wait_out`.
            // One side must see the other, so no sleeper parks unwoken
            // against a generation it did not see.
            self.generation
                .0
                .store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) != 0 {
                // Through the lock, so the wake cannot fall between a
                // sleeper's re-check and its cv.wait.
                let _registered = self.lock.lock().expect(LOCK_CLEAN);
                self.cv.notify_all();
            }
        }
        gen
    }

    /// Second half: return once generation `gen` is complete (or poisoned).
    fn wait_out(&self, gen: u64) {
        let done =
            |order| self.generation.0.load(order) != gen || self.poisoned.load(Ordering::Acquire);
        if self.spin.spin(|| done(Ordering::Acquire)) {
            return;
        }
        let mut guard = self.lock.lock().expect(LOCK_CLEAN);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while !done(Ordering::SeqCst) {
            guard = self.cv.wait(guard).expect(LOCK_CLEAN);
        }
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The barrier's mutex guards `()` and no code path panics while holding it.
const LOCK_CLEAN: &str = "barrier lock is never poisoned";

impl Barrier for CentralBarrier {
    fn wait(&self, _pid: usize) {
        if !self.poisoned.load(Ordering::Acquire) {
            self.wait_out(self.count_in());
        }
    }

    fn arrive(&self, pid: usize) {
        if !self.poisoned.load(Ordering::Acquire) {
            // If the caller is the last arriver, complete() finds the
            // generation already past this one and returns at once.
            self.arrive_gen[pid]
                .0
                .store(self.count_in(), Ordering::Relaxed);
        }
    }

    fn complete(&self, pid: usize) {
        if !self.poisoned.load(Ordering::Acquire) {
            self.wait_out(self.arrive_gen[pid].0.load(Ordering::Relaxed));
        }
    }

    fn parties(&self) -> usize {
        self.parties
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        // Spinners see the flag; take the lock so the store cannot fall
        // between a sleeper's re-check and its cv.wait, then wake them all.
        let _registered = self.lock.lock().expect(LOCK_CLEAN);
        self.cv.notify_all();
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------

/// Cache-line padded atomic counter.
type PaddedAtomic = CachePadded<AtomicU64>;

/// The paper's shared-memory barrier (Appendix B.1): each processor
/// increments its own flag; processor 0 spins on flags `1..p-1`, processors
/// `1..p-1` spin on flag 0. Generations are encoded as monotone counters so
/// the barrier is reusable without re-initialization.
pub struct FlagBarrier {
    flags: Vec<PaddedAtomic>,
    poisoned: AtomicBool,
}

impl FlagBarrier {
    /// Barrier for `p` participants.
    pub fn new(p: usize) -> Self {
        assert!(p > 0);
        FlagBarrier {
            flags: (0..p)
                .map(|_| PaddedAtomic::new(AtomicU64::new(0)))
                .collect(),
            poisoned: AtomicBool::new(false),
        }
    }
}

impl Barrier for FlagBarrier {
    fn wait(&self, pid: usize) {
        let p = self.flags.len();
        if p == 1 {
            return;
        }
        if pid == 0 {
            // Announce arrival and the generation we are completing.
            let gen = self.flags[0].0.load(Ordering::Relaxed) + 1;
            // Wait for everyone else to arrive at this generation.
            for f in &self.flags[1..] {
                let mut spins = 0;
                while f.0.load(Ordering::Acquire) < gen {
                    if self.poisoned.load(Ordering::Acquire) {
                        return;
                    }
                    spin_wait(&mut spins);
                }
            }
            // Release: everyone spins on flag 0.
            self.flags[0].0.store(gen, Ordering::Release);
        } else {
            let gen = self.flags[pid].0.load(Ordering::Relaxed) + 1;
            self.flags[pid].0.store(gen, Ordering::Release);
            let mut spins = 0;
            while self.flags[0].0.load(Ordering::Acquire) < gen {
                if self.poisoned.load(Ordering::Acquire) {
                    return;
                }
                spin_wait(&mut spins);
            }
        }
    }

    fn arrive(&self, pid: usize) {
        // The coordinator's "arrival" is inseparable from its wait-for-all
        // loop, so it overlaps nothing; everyone else raises their flag now
        // and spins on flag 0 only in complete().
        if self.flags.len() > 1 && pid != 0 {
            let gen = self.flags[pid].0.load(Ordering::Relaxed) + 1;
            self.flags[pid].0.store(gen, Ordering::Release);
        }
    }

    fn complete(&self, pid: usize) {
        let p = self.flags.len();
        if p == 1 {
            return;
        }
        if pid == 0 {
            self.wait(0); // the full coordinator sequence
        } else {
            let gen = self.flags[pid].0.load(Ordering::Relaxed);
            let mut spins = 0;
            while self.flags[0].0.load(Ordering::Acquire) < gen {
                if self.poisoned.load(Ordering::Acquire) {
                    return;
                }
                spin_wait(&mut spins);
            }
        }
    }

    fn parties(&self) -> usize {
        self.flags.len()
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------

/// Binary combining-tree barrier. Each internal node waits for its two
/// children, then signals its parent; the root broadcasts the release by
/// bumping a generation counter everyone spins on.
pub struct TreeBarrier {
    parties: usize,
    arrive: Vec<PaddedAtomic>, // per-node arrival counts (children + self)
    release: PaddedAtomic,     // generation counter
    gen: Vec<PaddedAtomic>,    // per-proc local generation (avoids &mut self)
    poisoned: AtomicBool,
}

impl TreeBarrier {
    /// Barrier for `p` participants.
    pub fn new(p: usize) -> Self {
        assert!(p > 0);
        TreeBarrier {
            parties: p,
            arrive: (0..p)
                .map(|_| PaddedAtomic::new(AtomicU64::new(0)))
                .collect(),
            release: PaddedAtomic::new(AtomicU64::new(0)),
            gen: (0..p)
                .map(|_| PaddedAtomic::new(AtomicU64::new(0)))
                .collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn children(&self, pid: usize) -> (Option<usize>, Option<usize>) {
        let l = 2 * pid + 1;
        let r = 2 * pid + 2;
        (
            (l < self.parties).then_some(l),
            (r < self.parties).then_some(r),
        )
    }
}

impl Barrier for TreeBarrier {
    fn wait(&self, pid: usize) {
        let my_gen = self.gen[pid].0.load(Ordering::Relaxed) + 1;
        self.gen[pid].0.store(my_gen, Ordering::Relaxed);
        // Wait for children's subtree arrivals.
        let (l, r) = self.children(pid);
        for c in [l, r].into_iter().flatten() {
            let mut spins = 0;
            while self.arrive[c].0.load(Ordering::Acquire) < my_gen {
                if self.poisoned.load(Ordering::Acquire) {
                    return;
                }
                spin_wait(&mut spins);
            }
        }
        if pid == 0 {
            // Root: release everyone.
            self.release.0.store(my_gen, Ordering::Release);
        } else {
            // Signal parent, then wait for root's release.
            self.arrive[pid].0.store(my_gen, Ordering::Release);
            let mut spins = 0;
            while self.release.0.load(Ordering::Acquire) < my_gen {
                if self.poisoned.load(Ordering::Acquire) {
                    return;
                }
                spin_wait(&mut spins);
            }
        }
    }

    fn parties(&self) -> usize {
        self.parties
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------

/// Dissemination barrier: in round `k`, proc `i` signals proc
/// `(i + 2^k) mod p` and waits for a signal from `(i - 2^k) mod p`.
/// ⌈log₂ p⌉ rounds; no central hot spot.
pub struct DisseminationBarrier {
    parties: usize,
    rounds: usize,
    /// flags[round][pid]: monotone generation counters.
    flags: Vec<Vec<PaddedAtomic>>,
    gen: Vec<PaddedAtomic>,
    poisoned: AtomicBool,
}

impl DisseminationBarrier {
    /// Barrier for `p` participants.
    pub fn new(p: usize) -> Self {
        assert!(p > 0);
        let rounds = (usize::BITS - (p - 1).leading_zeros()) as usize; // ceil(log2 p), 0 for p=1
        DisseminationBarrier {
            parties: p,
            rounds,
            flags: (0..rounds)
                .map(|_| {
                    (0..p)
                        .map(|_| PaddedAtomic::new(AtomicU64::new(0)))
                        .collect()
                })
                .collect(),
            gen: (0..p)
                .map(|_| PaddedAtomic::new(AtomicU64::new(0)))
                .collect(),
            poisoned: AtomicBool::new(false),
        }
    }
}

impl Barrier for DisseminationBarrier {
    fn wait(&self, pid: usize) {
        let p = self.parties;
        if p == 1 {
            return;
        }
        let my_gen = self.gen[pid].0.load(Ordering::Relaxed) + 1;
        self.gen[pid].0.store(my_gen, Ordering::Relaxed);
        for k in 0..self.rounds {
            let dist = 1usize << k;
            let to = (pid + dist) % p;
            self.flags[k][to].0.store(my_gen, Ordering::Release);
            let mut spins = 0;
            while self.flags[k][pid].0.load(Ordering::Acquire) < my_gen {
                if self.poisoned.load(Ordering::Acquire) {
                    return;
                }
                spin_wait(&mut spins);
            }
        }
    }

    fn parties(&self) -> usize {
        self.parties
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// Hammer a barrier with p threads for many generations, checking that no
    /// thread ever observes another thread more than one generation ahead or
    /// behind at a barrier crossing.
    fn stress(barrier: Arc<dyn Barrier>, p: usize, gens: usize) {
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..p).map(|_| AtomicUsize::new(0)).collect());
        std::thread::scope(|s| {
            for pid in 0..p {
                let b = Arc::clone(&barrier);
                let c = Arc::clone(&counters);
                s.spawn(move || {
                    for g in 0..gens {
                        c[pid].store(g, Ordering::SeqCst);
                        b.wait(pid);
                        // After the barrier, every thread must have reached
                        // generation >= g (it may already be at g+1).
                        for other in c.iter() {
                            let o = other.load(Ordering::SeqCst);
                            assert!(o == g || o == g + 1, "gen skew: {} vs {}", o, g);
                        }
                        b.wait(pid);
                    }
                });
            }
        });
    }

    #[test]
    fn central_barrier_stress() {
        for p in [1, 2, 3, 7, 16] {
            stress(Arc::new(CentralBarrier::new(p)), p, 50);
        }
    }

    #[test]
    fn flag_barrier_stress() {
        for p in [1, 2, 5, 8] {
            stress(Arc::new(FlagBarrier::new(p)), p, 50);
        }
    }

    #[test]
    fn tree_barrier_stress() {
        for p in [1, 2, 6, 9] {
            stress(Arc::new(TreeBarrier::new(p)), p, 50);
        }
    }

    #[test]
    fn dissemination_barrier_stress() {
        for p in [1, 2, 4, 7] {
            stress(Arc::new(DisseminationBarrier::new(p)), p, 50);
        }
    }

    /// Rapidly reuse one barrier for thousands of generations, verifying
    /// both the monotone-counter generation encoding (no stale-generation
    /// release is ever observed) and the Release/Acquire publication edge
    /// the exchange fabric relies on: data written with Relaxed ordering
    /// before a crossing must be visible after it.
    fn generation_reuse_stress(barrier: Arc<dyn Barrier>, p: usize, gens: u64) {
        let cell = AtomicU64::new(u64::MAX);
        std::thread::scope(|s| {
            for pid in 0..p {
                let b = Arc::clone(&barrier);
                let cell = &cell;
                s.spawn(move || {
                    for g in 0..gens {
                        if pid == 0 {
                            cell.store(g, Ordering::Relaxed);
                        }
                        b.wait(pid);
                        assert_eq!(
                            cell.load(Ordering::Relaxed),
                            g,
                            "barrier crossing failed to publish generation {g}"
                        );
                        b.wait(pid); // hold readers until everyone has checked
                    }
                });
            }
        });
    }

    #[test]
    fn all_barriers_publish_across_thousands_of_reused_generations() {
        for kind in [
            BarrierKind::Central,
            BarrierKind::Flag,
            BarrierKind::Tree,
            BarrierKind::Dissemination,
        ] {
            for p in [2, 4, 8] {
                generation_reuse_stress(Arc::from(kind.build(p)), p, 2_000);
            }
        }
    }

    #[test]
    fn kinds_build() {
        for kind in [
            BarrierKind::Central,
            BarrierKind::Flag,
            BarrierKind::Tree,
            BarrierKind::Dissemination,
        ] {
            let b = kind.build(4);
            assert_eq!(b.parties(), 4);
        }
    }

    /// A participant that never arrives must not deadlock the others once the
    /// barrier is poisoned: all waiters return promptly and observe the flag.
    #[test]
    fn poison_releases_stuck_waiters() {
        for kind in [
            BarrierKind::Central,
            BarrierKind::Flag,
            BarrierKind::Tree,
            BarrierKind::Dissemination,
        ] {
            let p = 4;
            let b: Arc<dyn Barrier> = Arc::from(kind.build(p));
            std::thread::scope(|s| {
                // Procs 0..3 wait; proc 3 never arrives and poisons instead.
                for pid in 0..p - 1 {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        b.wait(pid);
                        assert!(b.is_poisoned(), "{kind:?} waiter released unpoisoned");
                    });
                }
                let b = Arc::clone(&b);
                s.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    b.poison();
                });
            });
        }
    }

    /// Split-phase crossings must be observationally equivalent to plain
    /// waits, including when the two styles are mixed in one crossing:
    /// after complete(), every participant has reached the generation.
    fn split_phase_stress(barrier: Arc<dyn Barrier>, p: usize, gens: usize) {
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..p).map(|_| AtomicUsize::new(0)).collect());
        std::thread::scope(|s| {
            for pid in 0..p {
                let b = Arc::clone(&barrier);
                let c = Arc::clone(&counters);
                s.spawn(move || {
                    for g in 0..gens {
                        c[pid].store(g, Ordering::SeqCst);
                        if (pid + g) % 2 == 0 {
                            b.arrive(pid);
                            // Overlap window: local-only work goes here.
                            b.complete(pid);
                        } else {
                            b.wait(pid);
                        }
                        for other in c.iter() {
                            let o = other.load(Ordering::SeqCst);
                            assert!(o == g || o == g + 1, "gen skew: {} vs {}", o, g);
                        }
                        b.wait(pid);
                    }
                });
            }
        });
    }

    #[test]
    fn split_phase_matches_wait_on_all_kinds() {
        for kind in [
            BarrierKind::Central,
            BarrierKind::Flag,
            BarrierKind::Tree,
            BarrierKind::Dissemination,
        ] {
            for p in [1, 2, 3, 8] {
                split_phase_stress(Arc::from(kind.build(p)), p, 60);
            }
        }
    }

    /// The last arriver advances the generation inside arrive(); its own
    /// complete() must then return without blocking (the overlap window is
    /// free for whoever arrives last).
    #[test]
    fn last_arriver_completes_without_blocking() {
        let b = CentralBarrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| b.wait(0));
            std::thread::sleep(std::time::Duration::from_millis(10));
            b.arrive(1); // releases pid 0
            b.complete(1); // must not deadlock waiting on an old generation
        });
    }

    /// Central barrier whose waiters spin for exactly `ns` (then park),
    /// whatever the host's core count.
    fn central_with_budget(p: usize, ns: u32) -> CentralBarrier {
        CentralBarrier::with_spin(p, SpinBudget::with_full(ns))
    }

    /// Four threads per core, thousands of generations, plain and mixed
    /// split-phase crossings: bounded spinning must never starve the thread
    /// being waited for. Run at the budget `new` picks (yielding here, `p`
    /// exceeds the cores) and at a forced spin larger than it ever picks.
    #[test]
    fn oversubscribed_crossings_stay_live() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let p = 4 * cores;
        // The interpreter is ~1000× slower; the CI slice keeps the shape.
        let gens = if cfg!(miri) { 20 } else { 1_000 };
        let start = std::time::Instant::now();
        for barrier in [CentralBarrier::new(p), central_with_budget(p, 50_000)] {
            let barrier: Arc<dyn Barrier> = Arc::new(barrier);
            stress(Arc::clone(&barrier), p, gens);
            split_phase_stress(barrier, p, gens);
        }
        let took = start.elapsed();
        assert!(
            took < std::time::Duration::from_secs(120),
            "{} oversubscribed crossings at p = {p} took {took:?}",
            8 * gens
        );
    }

    /// Delays every other crossing of pid 0 by 5 ms, far past any budget
    /// but `u32::MAX` ns.
    struct LateArriver(CentralBarrier, AtomicUsize);

    impl Barrier for LateArriver {
        fn wait(&self, pid: usize) {
            if pid == 0 && self.1.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            self.0.wait(pid);
        }
        fn parties(&self) -> usize {
            self.0.parties()
        }
        fn poison(&self) {
            self.0.poison();
        }
        fn is_poisoned(&self) -> bool {
            self.0.is_poisoned()
        }
    }

    /// Both wake paths carry the publication edge: a budget of `u32::MAX`
    /// ns outlasts the late arriver, so every wait resolves in the spin;
    /// a budget of 0 parks every waiter; 30 µs mixes the two (the late
    /// crossings park, the prompt ones mostly do not).
    #[test]
    fn spin_and_park_wake_paths_both_publish() {
        for ns in [u32::MAX, 0, 30_000] {
            for p in [2, 3] {
                let late = LateArriver(central_with_budget(p, ns), AtomicUsize::new(0));
                generation_reuse_stress(Arc::new(late), p, 20);
            }
        }
    }

    /// Poison must reach a waiter wherever it is: spinning (budget
    /// `u32::MAX` ns, it would spin for seconds) or parked (budget 0).
    #[test]
    fn poison_releases_spinner_and_sleeper_promptly() {
        for ns in [u32::MAX, 0] {
            let b = central_with_budget(2, ns);
            std::thread::scope(|s| {
                let waiter = s.spawn(|| b.wait(0));
                std::thread::sleep(std::time::Duration::from_millis(20));
                let poisoned_at = std::time::Instant::now();
                b.poison();
                waiter.join().unwrap();
                let took = poisoned_at.elapsed();
                assert!(
                    took < std::time::Duration::from_secs(1),
                    "budget {ns} ns: waiter needed {took:?} after poison"
                );
            });
        }
    }

    #[test]
    fn single_party_never_blocks() {
        for kind in [
            BarrierKind::Central,
            BarrierKind::Flag,
            BarrierKind::Tree,
            BarrierKind::Dissemination,
        ] {
            let b = kind.build(1);
            for _ in 0..10 {
                b.wait(0);
            }
        }
    }
}

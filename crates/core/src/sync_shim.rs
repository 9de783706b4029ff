//! Synchronization-primitive shim: the single import point for every
//! atomic, lock, and thread primitive used by the lock-free core
//! (`barrier`, `relax`, `backend::shared`).
//!
//! Under a normal build each name re-exports the `std` item it always
//! was — zero-cost, and the compiled code is bit-identical to importing
//! `std::sync` directly. Under `RUSTFLAGS="--cfg loom"` the same names
//! resolve to the `loom` model checker's instrumented equivalents, so the
//! loom-gated suite (`src/loom_tests.rs`) can exhaustively explore the
//! interleavings and happens-before structure of the real runtime code,
//! not a transcription of it.
//!
//! The only non-re-export is [`UnsafeCell`]: std's lacks the
//! `with`/`with_mut` closure API that loom uses to observe accesses, so
//! the non-loom arm defines a `#[repr(transparent)]` wrapper providing
//! those methods as `#[inline]` pass-throughs (plus `get` for the raw
//! pointer). See DESIGN.md §13 for the layering and the per-primitive
//! proof obligations discharged under the loom cfg.

#[cfg(loom)]
pub(crate) use loom::cell::UnsafeCell;
#[cfg(loom)]
pub(crate) use loom::hint::spin_loop;
#[cfg(loom)]
pub(crate) use loom::sync::atomic::{
    fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering,
};
#[cfg(loom)]
pub(crate) use loom::sync::{Condvar, Mutex};
#[cfg(loom)]
pub(crate) use loom::thread::{current, park_timeout, yield_now, Thread};

#[cfg(not(loom))]
pub(crate) use std::hint::spin_loop;
#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{
    fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering,
};
#[cfg(not(loom))]
pub(crate) use std::sync::{Condvar, Mutex};
#[cfg(not(loom))]
pub(crate) use std::thread::{current, park_timeout, yield_now, Thread};

/// Transparent `std::cell::UnsafeCell` wrapper exposing loom's
/// closure-based access API. `with`/`with_mut` compile to the raw pointer
/// the closure body dereferences — same codegen as calling
/// `UnsafeCell::get` directly — while giving the loom build a hook to
/// check every access against the happens-before clocks.
#[cfg(not(loom))]
#[repr(transparent)]
#[derive(Debug, Default)]
pub(crate) struct UnsafeCell<T: ?Sized>(std::cell::UnsafeCell<T>);

#[cfg(not(loom))]
impl<T> UnsafeCell<T> {
    pub(crate) fn new(t: T) -> Self {
        Self(std::cell::UnsafeCell::new(t))
    }

    /// Present for API parity with the loom arm; the mailboxes only need
    /// `with_mut` today.
    #[allow(dead_code)]
    #[inline(always)]
    pub(crate) fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        f(self.0.get())
    }

    #[inline(always)]
    pub(crate) fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        f(self.0.get())
    }
}

/// Spin-then-yield backoff used by the flag/tree/dissemination barriers.
/// Lives here (rather than `barrier`) because its two halves are exactly
/// the two primitives the shim swaps: under loom both `spin_loop` and
/// `yield_now` become voluntary reschedule points, so bounded spins stay
/// bounded in model time instead of exploding the state space.
pub(crate) const SPIN_LIMIT: u32 = 128;

#[inline]
pub(crate) fn spin_wait(spins: &mut u32) {
    if *spins < SPIN_LIMIT {
        *spins += 1;
        spin_loop();
    } else {
        yield_now();
    }
}

/// The pre-park wait policy of every blocking boundary (`CentralBarrier`,
/// `NeighborSync`): wait on the condition without sleeping for about the
/// cost of the park/unpark pair this tries to avoid — the 2-competitive
/// rule: never more than twice the better of "never park" and "always
/// park" — then report a miss and let the caller park.
///
/// How it waits comes from what the code can observe. With a core per
/// party it spins. With more parties than cores it calls `yield_now`
/// instead: the thread waited for needs the core a spinner would burn, is
/// usually runnable, and a wait that resolves in a yield costs no
/// park/unpark pair.
pub(crate) struct SpinBudget {
    /// [`FULL_BUDGET`], or what a test forces.
    full: u32,
    /// More parties than cores: yield, do not spin.
    yields: bool,
}

/// In ns: one futex park/unpark pair as `barrier.central.sync_us` measured
/// it before the spin existed (≈ 20 µs at p = 2) plus the late arriver's
/// own wake-up — the break-even point of the 2-competitive rule.
#[cfg(not(loom))]
const FULL_BUDGET: u32 = 30_000;
/// In checks: the model cannot replay a clock, and one check is enough to
/// reach both the resolve-awake and the park path.
#[cfg(loom)]
const FULL_BUDGET: u32 = 1;

impl SpinBudget {
    pub(crate) fn new(parties: usize) -> Self {
        SpinBudget {
            yields: parties > cores(),
            ..Self::with_full(FULL_BUDGET)
        }
    }

    /// A fixed full budget of spinning, whatever the host: tests force both
    /// wake paths (0 parks at once).
    pub(crate) fn with_full(full: u32) -> Self {
        SpinBudget {
            full,
            yields: false,
        }
    }

    /// Wait for `done()` without sleeping. `false` once the budget is spent:
    /// the caller must park (re-checking `done` under its own wake-up
    /// protocol).
    pub(crate) fn spin(&self, done: impl Fn() -> bool) -> bool {
        done() || awake_for(self.full, self.yields, &done)
    }
}

/// Cores this process may run on, read once: on Linux
/// `available_parallelism` parses cgroup files (≈ 16 µs), too slow for the
/// path that builds a fabric per launch.
#[cfg(not(loom))]
fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}
/// The model's threads are the only load there is.
#[cfg(loom)]
fn cores() -> usize {
    usize::MAX
}

/// Check `done` for about `budget` ns: after every yield, or spinning and
/// reading the clock every [`SPIN_LIMIT`] checks.
#[cfg(not(loom))]
fn awake_for(budget: u32, yields: bool, done: &impl Fn() -> bool) -> bool {
    let budget = std::time::Duration::from_nanos(budget.into());
    let start = std::time::Instant::now();
    while start.elapsed() < budget {
        let checks = if yields {
            yield_now();
            1
        } else {
            SPIN_LIMIT
        };
        for _ in 0..checks {
            if done() {
                return true;
            }
            spin_loop();
        }
    }
    false
}
/// Both are the same schedule point to the model.
#[cfg(loom)]
fn awake_for(budget: u32, _yields: bool, done: &impl Fn() -> bool) -> bool {
    (0..budget).any(|_| {
        spin_loop();
        done()
    })
}

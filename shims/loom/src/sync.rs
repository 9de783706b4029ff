//! Model-checked `std::sync` stand-ins: atomics with vector-clock
//! happens-before tracking (sequentially-consistent values, per-location
//! release clocks), a truly-blocking `Mutex`/`Condvar` pair so deadlocks
//! are detected, and `fence`.

use crate::rt::{self, with_rt, VClock};
use std::convert::Infallible;
use std::sync::Mutex as StdMutex;

pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::*;

    /// Shared per-location state. Values are SC (single modification
    /// order, loads see the latest store); memory-model weakness is
    /// expressed through `sync`, the release clock published by the last
    /// store: a Relaxed store clears it, an RMW continues it
    /// (release-sequence style).
    struct Loc<V> {
        val: V,
        sync: VClock,
    }

    /// One atomic op = one schedule point (taken *before* the access) +
    /// value op + clock transfer, all while holding the baton. During
    /// unwinding (Drop impls on the abort path) the op degrades to plain
    /// value semantics with no scheduling and no clock transfer. Outside
    /// `loom::model` entirely, `with_rt` panics — shim atomics only make
    /// sense under the model.
    fn atomic_op<V: Copy, R>(
        loc: &StdMutex<Loc<V>>,
        f: impl FnOnce(&mut Loc<V>, Option<(&crate::rt::Rt, usize)>) -> R,
    ) -> R {
        if std::thread::panicking() {
            let mut l = loc.lock().unwrap();
            return f(&mut l, None);
        }
        with_rt(|rt, tid| {
            rt.schedule(tid, false);
            let mut l = loc.lock().unwrap();
            f(&mut l, Some((rt, tid)))
        })
    }

    fn do_load<V: Copy>(
        l: &mut Loc<V>,
        env: Option<(&crate::rt::Rt, usize)>,
        order: Ordering,
    ) -> V {
        if let Some((rt, tid)) = env {
            if order == Ordering::SeqCst {
                rt.sc_join(tid);
            }
            if rt::ord_acquires(order) {
                rt.clock_acquire(tid, &l.sync);
            }
        }
        l.val
    }

    fn do_store<V: Copy>(
        l: &mut Loc<V>,
        env: Option<(&crate::rt::Rt, usize)>,
        v: V,
        order: Ordering,
    ) {
        if let Some((rt, tid)) = env {
            if order == Ordering::SeqCst {
                rt.sc_join(tid);
            }
            if rt::ord_releases(order) {
                l.sync = rt.clock_release(tid);
            } else {
                // A Relaxed store publishes nothing: readers that
                // acquire-load this value gain no happens-before edge.
                // This is exactly what the Release→Relaxed mutant check
                // relies on.
                l.sync.clear();
            }
        }
        l.val = v;
    }

    /// RMW: acquire-side join plus release-side continuation regardless of
    /// ordering (a deliberate over-approximation documented in the shim
    /// README — it can mask, never fabricate, races on RMW-carried data).
    fn do_rmw<V: Copy>(
        l: &mut Loc<V>,
        env: Option<(&crate::rt::Rt, usize)>,
        f: impl FnOnce(V) -> V,
        order: Ordering,
    ) -> V {
        let old = l.val;
        l.val = f(old);
        if let Some((rt, tid)) = env {
            if order == Ordering::SeqCst {
                rt.sc_join(tid);
            }
            rt.clock_acquire(tid, &l.sync);
            let rel = rt.clock_release(tid);
            l.sync.join(&rel);
        }
        old
    }

    macro_rules! int_atomic {
        ($name:ident, $ty:ty) => {
            pub struct $name {
                loc: StdMutex<Loc<$ty>>,
            }

            impl $name {
                pub fn new(v: $ty) -> Self {
                    Self {
                        loc: StdMutex::new(Loc {
                            val: v,
                            sync: VClock::default(),
                        }),
                    }
                }
                pub fn load(&self, order: Ordering) -> $ty {
                    atomic_op(&self.loc, |l, env| do_load(l, env, order))
                }
                pub fn store(&self, v: $ty, order: Ordering) {
                    atomic_op(&self.loc, |l, env| do_store(l, env, v, order))
                }
                pub fn swap(&self, v: $ty, order: Ordering) -> $ty {
                    atomic_op(&self.loc, |l, env| do_rmw(l, env, |_| v, order))
                }
                pub fn fetch_add(&self, v: $ty, order: Ordering) -> $ty {
                    atomic_op(&self.loc, |l, env| {
                        do_rmw(l, env, |old| old.wrapping_add(v), order)
                    })
                }
                pub fn fetch_sub(&self, v: $ty, order: Ordering) -> $ty {
                    atomic_op(&self.loc, |l, env| {
                        do_rmw(l, env, |old| old.wrapping_sub(v), order)
                    })
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(0 as $ty)
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    f.write_str(stringify!($name))
                }
            }
        };
    }

    int_atomic!(AtomicU64, u64);
    int_atomic!(AtomicUsize, usize);
    int_atomic!(AtomicU32, u32);

    pub struct AtomicBool {
        loc: StdMutex<Loc<bool>>,
    }

    impl AtomicBool {
        pub fn new(v: bool) -> Self {
            Self {
                loc: StdMutex::new(Loc {
                    val: v,
                    sync: VClock::default(),
                }),
            }
        }
        pub fn load(&self, order: Ordering) -> bool {
            atomic_op(&self.loc, |l, env| do_load(l, env, order))
        }
        pub fn store(&self, v: bool, order: Ordering) {
            atomic_op(&self.loc, |l, env| do_store(l, env, v, order))
        }
        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            atomic_op(&self.loc, |l, env| do_rmw(l, env, |_| v, order))
        }
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("AtomicBool")
        }
    }

    pub struct AtomicPtr<T> {
        loc: StdMutex<Loc<*mut T>>,
    }

    // SAFETY: all accesses to the inner pointer value go through the model
    // scheduler (one thread at a time) or an uncontended std mutex;
    // matching `std::sync::atomic::AtomicPtr`, which is Send+Sync for all T.
    unsafe impl<T> Send for AtomicPtr<T> {}
    // SAFETY: see the Send impl above.
    unsafe impl<T> Sync for AtomicPtr<T> {}

    impl<T> AtomicPtr<T> {
        pub fn new(v: *mut T) -> Self {
            Self {
                loc: StdMutex::new(Loc {
                    val: v,
                    sync: VClock::default(),
                }),
            }
        }
        pub fn load(&self, order: Ordering) -> *mut T {
            atomic_op(&self.loc, |l, env| do_load(l, env, order))
        }
        pub fn store(&self, v: *mut T, order: Ordering) {
            atomic_op(&self.loc, |l, env| do_store(l, env, v, order))
        }
        pub fn swap(&self, v: *mut T, order: Ordering) -> *mut T {
            atomic_op(&self.loc, |l, env| do_rmw(l, env, |_| v, order))
        }
    }

    impl<T> std::fmt::Debug for AtomicPtr<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("AtomicPtr")
        }
    }

    /// Fences join the thread clock with the global SC clock in both
    /// directions. Release/Acquire fences get the same treatment — an
    /// over-approximation (extra hb edges, never missing mandatory ones
    /// from *this* model's perspective) kept deliberately coarse because
    /// the ported code only issues SeqCst fences.
    pub fn fence(order: Ordering) {
        assert!(order != Ordering::Relaxed, "fence(Relaxed) is not a fence");
        if std::thread::panicking() || !rt::in_model() {
            return;
        }
        with_rt(|rt, tid| rt.sc_join(tid));
    }
}

// ---- Mutex / Condvar -------------------------------------------------

#[derive(Default)]
struct MutexState {
    held: bool,
    #[allow(dead_code)]
    holder: usize,
    /// Release clock published by the last unlock.
    sync: VClock,
    /// Model-thread ids blocked in `lock`.
    waiters: Vec<usize>,
}

pub struct Mutex<T> {
    state: StdMutex<MutexState>,
    data: std::cell::UnsafeCell<T>,
}

// SAFETY: the model scheduler enforces mutual exclusion (only the holder
// dereferences `data`, and only one model thread runs at a time), matching
// std::sync::Mutex's Send/Sync conditions.
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: see the Send impl above.
unsafe impl<T: Send> Sync for Mutex<T> {}

pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
}

pub type LockResult<G> = Result<G, Infallible>;

impl<T> Mutex<T> {
    pub fn new(t: T) -> Self {
        Self {
            state: StdMutex::new(MutexState::default()),
            data: std::cell::UnsafeCell::new(t),
        }
    }

    /// Truly blocking under the model: a thread that finds the mutex held
    /// parks on the waiter list and is only rescheduled after an unlock,
    /// which is what lets the runtime detect lock-cycle deadlocks.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if std::thread::panicking() || !rt::in_model() {
            // Degraded direct acquire for Drop-during-unwind paths.
            let mut s = self.state.lock().unwrap();
            s.held = true;
            return Ok(MutexGuard { lock: self });
        }
        with_rt(|rt, tid| {
            rt.schedule(tid, false);
            loop {
                let mut s = self.state.lock().unwrap();
                if !s.held {
                    s.held = true;
                    s.holder = tid;
                    let sync = s.sync.clone();
                    drop(s);
                    rt.clock_acquire(tid, &sync);
                    return Ok(MutexGuard { lock: self });
                }
                s.waiters.push(tid);
                drop(s);
                rt.block_current(tid);
            }
        })
    }

    fn unlock(&self) {
        let publish = !std::thread::panicking() && rt::in_model();
        let rel = if publish {
            with_rt(|rt, tid| {
                rt.schedule(tid, false);
                Some(rt.clock_release(tid))
            })
        } else {
            None
        };
        let waiters = {
            let mut s = self.state.lock().unwrap();
            s.held = false;
            if let Some(r) = rel {
                s.sync = r;
            }
            std::mem::take(&mut s.waiters)
        };
        if publish && !waiters.is_empty() {
            with_rt(|rt, _tid| {
                let mut st = rt.m.lock().unwrap();
                for w in waiters {
                    if st.threads[w].state == crate::rt::ThreadState::Blocked {
                        st.threads[w].state = crate::rt::ThreadState::Runnable;
                    }
                }
            });
        }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.unlock();
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: guard existence proves this model thread holds the lock;
        // the scheduler runs one thread at a time.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in Deref — exclusive by the model's mutual exclusion.
        unsafe { &mut *self.lock.data.get() }
    }
}

#[derive(Default)]
struct CondvarState {
    waiters: Vec<usize>,
}

#[derive(Default)]
pub struct Condvar {
    state: StdMutex<CondvarState>,
}

impl Condvar {
    pub fn new() -> Self {
        Self::default()
    }

    /// Atomically (in model terms: without any other thread running in
    /// between) release the mutex, enqueue, block; on wakeup re-acquire.
    /// No spurious wakeups are modeled — all ported call sites wait in
    /// `while` loops anyway.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        with_rt(|rt, tid| {
            rt.schedule(tid, false);
            self.state.lock().unwrap().waiters.push(tid);
            // Release the mutex *without* a second schedule point so no
            // other thread can observe "unlocked but not yet enqueued".
            std::mem::forget(guard);
            let rel = rt.clock_release(tid);
            let waiters = {
                let mut s = lock.state.lock().unwrap();
                s.held = false;
                s.sync = rel;
                std::mem::take(&mut s.waiters)
            };
            {
                let mut st = rt.m.lock().unwrap();
                for w in waiters {
                    if st.threads[w].state == crate::rt::ThreadState::Blocked {
                        st.threads[w].state = crate::rt::ThreadState::Runnable;
                    }
                }
            }
            rt.block_current(tid);
            // Re-acquire.
            loop {
                let mut s = lock.state.lock().unwrap();
                if !s.held {
                    s.held = true;
                    s.holder = tid;
                    let sync = s.sync.clone();
                    drop(s);
                    rt.clock_acquire(tid, &sync);
                    return Ok(MutexGuard { lock });
                }
                s.waiters.push(tid);
                drop(s);
                rt.block_current(tid);
            }
        })
    }

    pub fn notify_all(&self) {
        if std::thread::panicking() || !rt::in_model() {
            return;
        }
        with_rt(|rt, tid| {
            rt.schedule(tid, false);
            let waiters = std::mem::take(&mut self.state.lock().unwrap().waiters);
            let mut st = rt.m.lock().unwrap();
            for w in waiters {
                if st.threads[w].state == crate::rt::ThreadState::Blocked {
                    st.threads[w].state = crate::rt::ThreadState::Runnable;
                }
            }
        });
    }

    pub fn notify_one(&self) {
        if std::thread::panicking() || !rt::in_model() {
            return;
        }
        with_rt(|rt, tid| {
            rt.schedule(tid, false);
            let w = {
                let mut s = self.state.lock().unwrap();
                if s.waiters.is_empty() {
                    None
                } else {
                    Some(s.waiters.remove(0))
                }
            };
            if let Some(w) = w {
                let mut st = rt.m.lock().unwrap();
                if st.threads[w].state == crate::rt::ThreadState::Blocked {
                    st.threads[w].state = crate::rt::ThreadState::Runnable;
                }
            }
        });
    }
}

pub use std::sync::Arc;

//! Persistent BSP executor: a long-lived pool of pinned worker threads plus
//! a run-to-run transport arena (DESIGN.md §11).
//!
//! The paper's library pays its process-creation cost once per *machine*,
//! not once per *program launch*: the BSP processes exist for the life of
//! the job and successive supersteps reuse them. The original runner here
//! did the opposite — every [`crate::run`] spawned `p` OS threads and built
//! a fresh transport fabric, so the launch path (thread spawn + fabric
//! allocation) dominated short jobs and polluted the cost model's
//! superstep-0 column. This module restores the paper's economics:
//!
//! * **Pinned worker pool** — a [`Runtime`] owns worker threads that are
//!   spawned once (grown on demand, pinned round-robin to cores where the
//!   OS allows it) and parked on a condvar between jobs. A job's `p` slot
//!   tasks queue as one slice, and a free worker takes the next task of
//!   the oldest slice (FIFO). A worker runs one task at a time, so a job's
//!   processes run on `p` distinct workers; and since a slot only waits on
//!   its own job's peers, the oldest job's missing tasks are always next
//!   in line, so rendezvous-style backends (seqsim's baton, the channel
//!   transport's staged exchange) cannot deadlock on a pool `p` wide.
//! * **Transport arena** — after a clean run of a *plain* config (no
//!   checker, no fault plan, no hardening) the job's transport endpoints
//!   are reset in place ([`crate::context::ProcTransport::reset`]) and
//!   parked in a keyed arena. The next job with the same shape pops the
//!   set back out: grid slots, channel pipes, and staging buffers keep
//!   their capacity, and the warm launch path performs **zero heap
//!   allocation**. Reset happens at *release* time so a warm lease is a
//!   pure pop.
//! * **Concurrent jobs** — [`Runtime::submit`] builds a job's first
//!   incarnation on the caller's thread, enqueues its slice and returns a
//!   [`JobHandle`]. The rest of the job — merge, arena reset, rollback
//!   decision, relaunch, handle resolution — runs on the worker whose slot
//!   finishes each incarnation last, as its result board's completion. No
//!   thread blocks on a submitted job, so a harness sweep can keep many
//!   jobs in flight on one pool.
//! * **Resilient kernel** (DESIGN.md §15) — the pool is *self-healing*: a
//!   worker thread that dies (a panic escaping the runner, or an injected
//!   [`crate::FaultKind::WorkerAbort`]) is quarantined and a replacement is
//!   respawned; only the job on that slot fails, and [`PoolHealth`] counts
//!   the lifecycle. Jobs are *cancellable* and *deadline-bounded*
//!   ([`JobHandle::cancel`], [`CancelToken::deadline_in`] on a token
//!   attached with [`Config::cancel_token`]) through a cooperative
//!   [`CancelToken`] checked at superstep boundaries. A failed job is
//!   healed, if at all, inside its run: checkpoint rollback
//!   ([`crate::CheckpointPolicy`]) is the one recovery loop.
//!   [`Runtime::shutdown`] fails still-queued jobs with
//!   [`BspError::RuntimeShutdown`] instead of leaving their handles to
//!   hang; [`Runtime::shutdown_drain`] completes them first.
//!
//! [`crate::run`] / [`crate::try_run`] are thin shims over a lazily
//! initialized process-wide [`global`] runtime; existing call sites are
//! unchanged. [`crate::run_unpooled`] keeps the old spawn-per-run path
//! alive as the pool-free reference the test corpora compare against and
//! the path a nested run takes.

use crate::backend::BackendKind;
use crate::barrier::BarrierKind;
use crate::context::Ctx;
use crate::fault::BspError;
use crate::runner::{run_pipeline, submit_pipeline, Config, RunOutput};
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Lock one of this module's mutexes. Poisoning is unreachable: no
/// critical section here runs user code — they move queue entries,
/// counters and already-built values — a board's completion runs after its
/// lock is released, and the only panics under a lock are `JobHandle`'s
/// misuse panics, which leave the guarded slot whole. So the guard is
/// taken either way.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `cv` with a guard from [`lock`]; unpoisonable for the same reason.
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Tasks and the result board
// ---------------------------------------------------------------------------

/// One process slot's worth of work, type- and lifetime-erased so the pool
/// can run slots from jobs with different result types.
pub(crate) type Task = Box<dyn FnOnce() + Send>;

/// Erase the lifetime of a slot task so it can sit in the pool's queue.
///
/// # Safety
///
/// The caller must not let any borrow captured by `task` die before the
/// task has finished running. [`crate::runner`]'s blocking path guarantees
/// this by blocking on [`Board::wait_take`] — which returns only after
/// every slot task has called [`Board::fill`] — before the borrowed user
/// function goes out of scope. This is the classic scoped-thread-pool
/// argument. Submitted jobs own everything their tasks capture and need no
/// erasure.
pub(crate) unsafe fn erase_task<'a>(task: Box<dyn FnOnce() + Send + 'a>) -> Task {
    // SAFETY: `Box<dyn FnOnce + Send + 'a>` and `Box<dyn FnOnce + Send>`
    // are both fat pointers with identical layout; only the lifetime bound
    // changes, and the caller upholds it per this function's contract.
    unsafe { std::mem::transmute(task) }
}

/// What a board runs, with every outcome, instead of waking a waiter.
pub(crate) type Completion<T> = Box<dyn FnOnce(Vec<Option<T>>) + Send>;

/// A fixed-size result board: each of a job's `p` slot tasks fills exactly
/// one slot. The last fill either wakes the thread blocked in
/// [`Board::wait_take`] or, when the board has a completion, runs it.
pub(crate) struct Board<T> {
    slots: Mutex<Vec<Option<T>>>,
    remaining: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    then: Mutex<Option<Completion<T>>>,
}

impl<T> Board<T> {
    pub(crate) fn new(n: usize) -> Arc<Board<T>> {
        Arc::new(Board {
            slots: Mutex::new((0..n).map(|_| None).collect()),
            remaining: AtomicUsize::new(n),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            then: Mutex::new(None),
        })
    }

    /// Settle the board with `then` instead of a waiter. Set it before the
    /// slot tasks are dispatched.
    pub(crate) fn then(&self, then: Completion<T>) {
        *lock(&self.then) = Some(then);
    }

    /// Deposit slot `idx`'s outcome. The final deposit takes the completion
    /// out of its lock and runs it on this thread, or latches `done` and
    /// wakes the waiter. Slot tasks wrap their body in `catch_unwind`, so a
    /// fill always happens and the board always settles.
    pub(crate) fn fill(&self, idx: usize, val: T) {
        lock(&self.slots)[idx] = Some(val);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let then = lock(&self.then).take();
            match then {
                Some(then) => {
                    let outcomes = std::mem::take(&mut *lock(&self.slots));
                    then(outcomes);
                }
                None => {
                    *lock(&self.done) = true;
                    self.done_cv.notify_all();
                }
            }
        }
    }

    /// Block until every slot is filled, then take the outcomes.
    pub(crate) fn wait_take(&self) -> Vec<Option<T>> {
        let mut d = lock(&self.done);
        while !*d {
            d = wait(&self.done_cv, d);
        }
        std::mem::take(&mut *lock(&self.slots))
    }
}

// ---------------------------------------------------------------------------
// Core pinning
// ---------------------------------------------------------------------------

/// Pin the calling thread to `core` (best effort). Uses a raw
/// `sched_setaffinity(2)` syscall on Linux/x86-64 — the workspace links no
/// libc crate — and is a no-op elsewhere. Returns whether the pin took.
/// Kept on a measurement: un-pinned workers cost the ledger's `stream`
/// workload 8 % of its wall time (EXPERIMENTS.md, "One arena reset, on the
/// thread that merges").
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_to_core(core: usize) -> bool {
    // A 1024-bit CPU mask, the kernel's default cpu_set_t width.
    let mut mask = [0u64; 16];
    mask[(core / 64) % 16] = 1u64 << (core % 64);
    let ret: isize;
    // SAFETY: sched_setaffinity(pid = 0 → calling thread, len, mask) only
    // reads `len` bytes from `mask`, which outlives the call; the asm
    // clobbers exactly what the x86-64 syscall ABI clobbers (rcx, r11, rax).
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin_to_core(_core: usize) -> bool {
    false
}

// ---------------------------------------------------------------------------
// Worker detection (nested-run deadlock guard)
// ---------------------------------------------------------------------------

thread_local! {
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Set by [`request_worker_abort`] while a slot task runs; the worker
    /// checks (and clears) it after the task and, if set, dies so the
    /// quarantine→respawn path fires.
    static ABORT_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Is the current thread one of the pool's workers? A BSP process that
/// launches a nested run must not lease pool slots — the nested job could
/// wait on slots held by the very job that spawned it — so
/// [`crate::try_run`] falls back to the spawn-per-run path on workers.
pub(crate) fn on_worker_thread() -> bool {
    IS_POOL_WORKER.with(|c| c.get())
}

/// Ask the current pool worker to die after the running task completes
/// (no-op off the pool). Used by the [`crate::FaultKind::WorkerAbort`]
/// injection to model a worker thread lost mid-job: the job on this slot
/// fails through the normal poison path, then the thread exits and the
/// pool respawns a replacement.
pub(crate) fn request_worker_abort() {
    ABORT_WORKER.with(|c| c.set(true));
}

// ---------------------------------------------------------------------------
// Cancellation tokens
// ---------------------------------------------------------------------------

struct TokenInner {
    cancelled: std::sync::atomic::AtomicBool,
    deadline: Mutex<Option<Instant>>,
}

/// A cooperative cancellation token shared between a job and its
/// controllers. The runner checks it at every superstep boundary (and the
/// streaming driver at every tile boundary): a cancelled or overdue job
/// unwinds through the transport poison path into a structured
/// [`BspError::Cancelled`] / [`BspError::DeadlineExceeded`] on every
/// backend, releasing parked peers instead of hanging them.
///
/// Every job [`Runtime::submit`] queues carries one, so
/// [`JobHandle::cancel`] works on it: the token attached with
/// [`Config::cancel_token`] when the config has one (the caller's token and
/// the handle's are then the same token), a fresh one otherwise. Blocking
/// [`crate::try_run`] calls carry one only via [`Config::cancel_token`].
/// Cheap to clone (an `Arc` handle).
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish_non_exhaustive()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: std::sync::atomic::AtomicBool::new(false),
                deadline: Mutex::new(None),
            }),
        }
    }

    /// Request cancellation. Idempotent; observed at the job's next
    /// superstep (or tile) boundary.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Has [`CancelToken::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Arm an absolute deadline; the job observes it at the next boundary
    /// after it passes.
    pub fn set_deadline(&self, at: Instant) {
        *lock(&self.inner.deadline) = Some(at);
    }

    /// Arm a deadline `d` from now.
    pub fn deadline_in(&self, d: Duration) {
        self.set_deadline(Instant::now() + d);
    }

    /// Has the armed deadline passed? (`false` when no deadline is set —
    /// the clock is read only when one is.)
    pub fn deadline_exceeded(&self) -> bool {
        lock(&self.inner.deadline).is_some_and(|at| Instant::now() >= at)
    }
}

// ---------------------------------------------------------------------------
// The runtime
// ---------------------------------------------------------------------------

/// One queued job slice: the slot tasks no worker has taken yet, plus an
/// abort closure that fills every result-board slot with
/// [`BspError::RuntimeShutdown`] so a slice abandoned by a fast
/// [`Runtime::shutdown`] still settles its board — waking a blocked
/// caller, or resolving a submitted job's handle through the board's
/// completion. The abort is dropped when the first task is taken, so
/// exactly one of `tasks` / `abort` ever runs.
struct JobSlice {
    tasks: std::vec::IntoIter<Task>,
    abort: Option<Task>,
}

/// Scheduler state: the FIFO queue of slices; a free worker takes the next
/// task of the head slice ([`Sched::take`]). Deadlock-free on any pool at
/// least `p` wide ([`Runtime::ensure_capacity`]): a slot only ever waits on
/// peers of its own job, and no task of a later slice is taken while the
/// head slice has one left, so every running slot belongs to the head job
/// or to an older, fully running one — and the head job's missing tasks
/// are next in line for the next free worker.
struct Sched {
    queue: VecDeque<JobSlice>,
    spawned: usize,
    shutdown: bool,
}

impl Sched {
    /// Take the head slice's next task. The slice is now started, so its
    /// abort closure is dead weight; dropping it here (under the sched
    /// lock) only drops an `Arc` clone.
    fn take(&mut self) -> Option<Task> {
        let head = self.queue.front_mut()?;
        head.abort = None;
        let task = head.tasks.next();
        if head.tasks.as_slice().is_empty() {
            self.queue.pop_front();
        }
        task
    }
}

/// Key identifying a reusable transport-set shape. Two configs with equal
/// keys build bit-compatible fabrics, so a set released by one can be
/// leased by the other. `f64` network parameters are compared by bit
/// pattern (the arena never does arithmetic on them).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ArenaKey {
    backend: u8,
    net_bits: [u64; 4],
    nprocs: usize,
    barrier: u8,
    /// Canonical hash of the registered sync graph (0 = none): a leased set
    /// must carry the same neighborhood topology the config asks for.
    graph_hash: u64,
}

impl ArenaKey {
    fn of(cfg: &Config) -> ArenaKey {
        let (backend, net_bits) = match cfg.backend {
            BackendKind::Shared => (0, [0; 4]),
            BackendKind::MsgPass => (1, [0; 4]),
            BackendKind::TcpSim => (2, [0; 4]),
            BackendKind::SeqSim => (3, [0; 4]),
            BackendKind::NetSim(p) => (
                4,
                [
                    p.g_us.to_bits(),
                    p.l_us.to_bits(),
                    p.l_neigh_us.to_bits(),
                    p.time_scale.to_bits(),
                ],
            ),
        };
        let barrier = match cfg.barrier {
            BarrierKind::Central => 0,
            BarrierKind::Flag => 1,
            BarrierKind::Tree => 2,
            BarrierKind::Dissemination => 3,
        };
        ArenaKey {
            backend,
            net_bits,
            nprocs: cfg.nprocs,
            barrier,
            graph_hash: cfg.sync_graph.as_ref().map_or(0, |g| g.edge_hash()),
        }
    }
}

/// Only plain configs are arena-cacheable: the checker, the fault injector,
/// and the hardened wrapper stack all thread per-run state through the
/// transport boxes, so those sets are rebuilt per run (exactly as before).
pub(crate) fn arena_eligible(cfg: &Config) -> bool {
    !cfg.check && cfg.fault_plan.is_none() && cfg.tolerance.is_none()
}

/// Parked transport sets, keyed by fabric shape. A shape never parks more
/// sets than it had out at once; [`ARENA_TOTAL`] bounds them all, so a
/// sweep over many shapes cannot hoard memory.
struct ArenaState {
    sets: HashMap<ArenaKey, Vec<Vec<Ctx>>>,
    total: usize,
}

/// Max parked sets across all shapes.
const ARENA_TOTAL: usize = 64;

struct PoolInner {
    sched: Mutex<Sched>,
    work_cv: Condvar,
    arena: Mutex<ArenaState>,
    arena_hits: AtomicU64,
    arena_misses: AtomicU64,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Jobs submitted and not yet finished (or aborted); what
    /// [`Runtime::shutdown_drain`] waits on.
    pending: Mutex<usize>,
    pending_cv: Condvar,
    /// Worker threads currently alive (spawned and not exited).
    live_workers: AtomicUsize,
    /// Worker slots quarantined after an abnormal thread death.
    quarantined: AtomicU64,
    /// Replacement workers spawned by the self-healing path.
    respawns: AtomicU64,
}

/// Why a worker's main loop returned.
enum WorkerExit {
    /// Clean pool shutdown.
    Shutdown,
    /// The thread is dying abnormally: a panic escaped the runner, or an
    /// injected [`crate::FaultKind::WorkerAbort`] fired. The slot is
    /// quarantined and a replacement respawned.
    Died,
}

fn worker_loop(inner: &PoolInner) -> WorkerExit {
    IS_POOL_WORKER.with(|c| c.set(true));
    loop {
        let mut s = lock(&inner.sched);
        let task = loop {
            if let Some(t) = s.take() {
                break t;
            }
            if s.shutdown {
                return WorkerExit::Shutdown;
            }
            s = wait(&inner.work_cv, s);
        };
        drop(s);
        // Slot tasks catch panics internally (and always fill their board
        // slot); this outer catch shields the pool from bugs in the runner
        // itself. A panic that reaches it anyway — or an abort requested by
        // the fault injector — kills this worker, and the self-healing path
        // in `run_worker` quarantines the slot and respawns a replacement.
        let escaped = std::panic::catch_unwind(AssertUnwindSafe(task)).is_err();
        let aborted = ABORT_WORKER.with(|c| c.replace(false));
        if escaped || aborted {
            return WorkerExit::Died;
        }
    }
}

/// A worker thread's whole life: pin, count in, run the loop, and on an
/// abnormal death quarantine the slot and respawn a replacement (unless the
/// pool is shutting down).
fn run_worker(inner: Arc<PoolInner>, idx: usize, cores: usize) {
    pin_to_core(idx % cores);
    inner.live_workers.fetch_add(1, Ordering::Relaxed);
    let exit = worker_loop(&inner);
    inner.live_workers.fetch_sub(1, Ordering::Relaxed);
    if let WorkerExit::Died = exit {
        inner.quarantined.fetch_add(1, Ordering::Relaxed);
        if lock(&inner.sched).shutdown {
            return;
        }
        inner.respawns.fetch_add(1, Ordering::Relaxed);
        let inner2 = Arc::clone(&inner);
        // The OS refusing a thread is the one reachable failure here, and
        // it stays a panic: there is no caller to return an error to.
        let h = std::thread::Builder::new()
            .name(format!("bsp-worker-{idx}"))
            .spawn(move || run_worker(inner2, idx, cores))
            .expect("failed to respawn BSP pool worker");
        lock(&inner.handles).push(h);
    }
}

// ---------------------------------------------------------------------------
// Pool health
// ---------------------------------------------------------------------------

/// Snapshot of the worker pool's self-healing state (see DESIGN.md §15).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolHealth {
    /// Worker threads currently alive.
    pub live_workers: usize,
    /// Worker slots quarantined after an abnormal thread death (escaped
    /// panic or injected [`crate::FaultKind::WorkerAbort`]).
    pub quarantined: u64,
    /// Replacement workers spawned by the self-healing path.
    pub respawns: u64,
}

/// A persistent BSP executor: pinned worker pool + transport arena +
/// concurrent job queue. Cheap to clone (a handle to shared state).
///
/// Most code should use [`crate::run`] / [`crate::try_run`], which route
/// through the process-wide [`global`] runtime. Construct a private
/// `Runtime` for tests and benchmarks that need isolated pool state.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<PoolInner>,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new()
    }
}

impl Runtime {
    /// An empty runtime: no workers yet; the pool grows on demand to the
    /// widest `p` ever submitted.
    pub fn new() -> Runtime {
        Runtime {
            inner: Arc::new(PoolInner {
                sched: Mutex::new(Sched {
                    queue: VecDeque::new(),
                    spawned: 0,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                arena: Mutex::new(ArenaState {
                    sets: HashMap::new(),
                    total: 0,
                }),
                arena_hits: AtomicU64::new(0),
                arena_misses: AtomicU64::new(0),
                handles: Mutex::new(Vec::new()),
                pending: Mutex::new(0),
                pending_cv: Condvar::new(),
                live_workers: AtomicUsize::new(0),
                quarantined: AtomicU64::new(0),
                respawns: AtomicU64::new(0),
            }),
        }
    }

    /// A runtime pre-sized to `n` workers (spawned immediately), so jobs up
    /// to `p = n` dispatch without a spawn on the submission path.
    pub fn with_workers(n: usize) -> Runtime {
        let rt = Runtime::new();
        rt.ensure_capacity(n);
        rt
    }

    /// Number of worker threads currently spawned.
    pub fn workers(&self) -> usize {
        lock(&self.inner.sched).spawned
    }

    /// Warm-lease count: jobs whose transport fabric came from the arena.
    pub fn arena_hits(&self) -> u64 {
        self.inner.arena_hits.load(Ordering::Relaxed)
    }

    /// Cold-build count: arena-eligible jobs that found no parked set.
    pub fn arena_misses(&self) -> u64 {
        self.inner.arena_misses.load(Ordering::Relaxed)
    }

    /// Grow the pool to at least `p` workers. Worker `i` is pinned to core
    /// `i mod ncores` (best effort; a failed pin is harmless).
    fn ensure_capacity(&self, p: usize) {
        let to_spawn: Vec<usize> = {
            let mut s = lock(&self.inner.sched);
            let mut v = Vec::new();
            while !s.shutdown && s.spawned < p {
                v.push(s.spawned);
                s.spawned += 1;
            }
            v
        };
        if to_spawn.is_empty() {
            return;
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut spawned = Vec::with_capacity(to_spawn.len());
        for idx in to_spawn {
            let inner = Arc::clone(&self.inner);
            // As on respawn: a refused thread is reachable and stays a panic.
            let h = std::thread::Builder::new()
                .name(format!("bsp-worker-{idx}"))
                .spawn(move || run_worker(inner, idx, cores))
                .expect("failed to spawn BSP pool worker");
            spawned.push(h);
        }
        lock(&self.inner.handles).extend(spawned);
        // Workers take tasks at once: wait until `p` run, so a fresh pool's
        // first barrier does not wait out a thread start.
        while self.inner.live_workers.load(Ordering::Relaxed) < p
            && !lock(&self.inner.sched).shutdown
        {
            std::thread::yield_now();
        }
    }

    /// Enqueue a whole job slice (`tasks.len()` = the job's `p`) at the
    /// back of the FIFO queue, wake a worker per task and return; it never
    /// waits for the slice, so a submitted job's completion can relaunch
    /// from a worker. If the pool is already shut down, `abort` runs
    /// instead on the calling thread, failing the slice's result board with
    /// [`BspError::RuntimeShutdown`] — without this, the slice would sit in
    /// a queue no worker will ever drain and its job would never settle.
    pub(crate) fn execute(&self, tasks: Vec<Task>, abort: Task) {
        let p = tasks.len();
        self.ensure_capacity(p);
        let mut s = lock(&self.inner.sched);
        if s.shutdown {
            drop(s);
            abort();
            return;
        }
        s.queue.push_back(JobSlice {
            tasks: tasks.into_iter(),
            abort: Some(abort),
        });
        drop(s);
        for _ in 0..p {
            self.inner.work_cv.notify_one();
        }
    }

    /// Pool self-healing counters: live workers, quarantined slots,
    /// respawned replacements.
    pub fn pool_health(&self) -> PoolHealth {
        PoolHealth {
            live_workers: self.inner.live_workers.load(Ordering::Relaxed),
            quarantined: self.inner.quarantined.load(Ordering::Relaxed),
            respawns: self.inner.respawns.load(Ordering::Relaxed),
        }
    }

    /// Pop a warm transport set for `cfg` from the arena, if its shape is
    /// cacheable and a set is parked. The hot path is a `HashMap` probe and
    /// a `Vec::pop` — no allocation, no construction.
    pub(crate) fn lease(&self, cfg: &Config) -> Option<Vec<Ctx>> {
        if !arena_eligible(cfg) {
            return None;
        }
        let key = ArenaKey::of(cfg);
        let mut a = lock(&self.inner.arena);
        match a.sets.get_mut(&key).and_then(Vec::pop) {
            Some(set) => {
                a.total -= 1;
                drop(a);
                self.inner.arena_hits.fetch_add(1, Ordering::Relaxed);
                Some(set)
            }
            None => {
                drop(a);
                self.inner.arena_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Park a job's transport set for reuse. Every endpoint is reset in
    /// place ([`Ctx::reset_for_reuse`]); if any endpoint declines (poisoned
    /// barrier, mid-protocol channel), the whole set is dropped — rebuild,
    /// not reuse. This is the arena's one reset site: the runner calls it
    /// once every slot has finished, so no peer can still touch the set.
    pub(crate) fn release(&self, cfg: &Config, mut ctxs: Vec<Ctx>) {
        if !arena_eligible(cfg) || ctxs.len() != cfg.nprocs {
            return;
        }
        for ctx in &mut ctxs {
            if !ctx.reset_for_reuse() {
                return;
            }
        }
        let key = ArenaKey::of(cfg);
        let mut a = lock(&self.inner.arena);
        if a.total < ARENA_TOTAL {
            a.sets.entry(key).or_default().push(ctxs);
            a.total += 1;
        }
    }

    /// Run one job to completion on this runtime's pool, blocking the
    /// calling thread. Unlike [`Runtime::submit`], the user function may
    /// borrow from the caller's stack.
    ///
    /// Must not be called from one of this runtime's own workers (a nested
    /// job could wait on slots held by its parent); [`crate::try_run`]
    /// handles that case by falling back to the spawn-per-run path.
    pub fn try_run<F, R>(&self, cfg: &Config, f: F) -> Result<RunOutput<R>, BspError>
    where
        F: Fn(&mut Ctx) -> R + Sync,
        R: Send,
    {
        assert!(cfg.nprocs > 0, "a BSP machine needs at least one process");
        run_pipeline(Some(self), cfg, &f)
    }

    /// Submit a job and return immediately with a [`JobHandle`]. The job's
    /// first incarnation is built and enqueued on the calling thread; its
    /// processes run on the worker pool alongside other in-flight jobs,
    /// each leasing its own `p`-slice, and the worker that finishes an
    /// incarnation's last slot merges it and resolves the handle (or
    /// relaunches after a rollback). Results arrive in whatever order jobs
    /// finish; slot tasks are *dispatched* in submission order.
    ///
    /// The handle is cancellable via [`JobHandle::cancel`], which fires the
    /// token attached with [`Config::cancel_token`] when there is one — so
    /// a deadline armed on that token bounds the job, queue wait included.
    pub fn submit<F, R>(&self, cfg: &Config, f: F) -> JobHandle<R>
    where
        F: Fn(&mut Ctx) -> R + Send + Sync + 'static,
        R: Send + 'static,
    {
        // Validate here so a bad config panics in the caller, not on a
        // worker (where the panic would be reported through the handle).
        assert!(cfg.nprocs > 0, "a BSP machine needs at least one process");
        *lock(&self.inner.pending) += 1;
        let mut cfg = cfg.clone();
        let token = cfg.control.get_or_insert_with(CancelToken::new).clone();
        let state = Arc::new(HandleState {
            slot: Mutex::new(Slot::Pending),
            cv: Condvar::new(),
        });
        let (report, inner) = (Arc::clone(&state), Arc::clone(&self.inner));
        let finish = Box::new(move |res| {
            report.finish(res);
            // One submitted job fewer for `shutdown_drain` to wait on.
            *lock(&inner.pending) -= 1;
            inner.pending_cv.notify_all();
        });
        submit_pipeline(self, cfg, f, finish);
        JobHandle {
            shared: state,
            token,
        }
    }

    /// Run a throwaway job with `cfg`'s shape so the arena holds a warm
    /// transport set for it. Subsequent runs with an equal config lease
    /// that set with zero heap allocation on the launch path.
    pub fn prewarm(&self, cfg: &Config) {
        let _ = self.try_run(cfg, |ctx| ctx.sync());
    }

    /// Lease + release one arena set for `cfg`, returning whether a warm
    /// set was available. This is the zero-allocation seam the allocation
    /// test measures: after [`Runtime::prewarm`], a full cycle touches no
    /// allocator.
    #[doc(hidden)]
    pub fn debug_lease_cycle(&self, cfg: &Config) -> bool {
        match self.lease(cfg) {
            Some(set) => {
                self.release(cfg, set);
                true
            }
            None => false,
        }
    }

    /// Fast shutdown: stop and join every worker. Jobs a worker has
    /// started complete, their queued tasks included; jobs no worker has
    /// started are *not* drained — their handles resolve with a structured
    /// [`BspError::RuntimeShutdown`] (previously they were silently
    /// abandoned and `join` hung forever). Use [`Runtime::shutdown_drain`]
    /// to complete queued work instead.
    pub fn shutdown(self) {
        // Drain the unstarted slices under the queue's lock, then run their
        // abort closures outside it: each fills its slice's result board
        // with `RuntimeShutdown`, and the last fill settles the job — a
        // blocked caller wakes, a submitted job's handle resolves. Only the
        // head slice can be started (FIFO); it stays for the workers.
        let aborts: Vec<Task> = {
            let mut s = lock(&self.inner.sched);
            s.shutdown = true;
            let started = usize::from(s.queue.front().is_some_and(|j| j.abort.is_none()));
            s.queue.drain(started..).filter_map(|j| j.abort).collect()
        };
        self.inner.work_cv.notify_all();
        for a in aborts {
            a();
        }
        // A dying worker can push a respawned handle concurrently with the
        // take (it re-checks `shutdown` first, but the flag may land after
        // its check); loop until the vector stays empty.
        loop {
            let handles = std::mem::take(&mut *lock(&self.inner.handles));
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }

    /// Graceful shutdown: block until every submitted job has finished,
    /// then [`Runtime::shutdown`]. New submissions racing the drain may
    /// still be aborted with [`BspError::RuntimeShutdown`].
    pub fn shutdown_drain(self) {
        let mut pending = lock(&self.inner.pending);
        while *pending > 0 {
            pending = wait(&self.inner.pending_cv, pending);
        }
        drop(pending);
        self.shutdown();
    }
}

/// The process-wide runtime backing [`crate::run`] / [`crate::try_run`].
/// Created lazily on first use; lives for the rest of the process.
pub fn global() -> &'static Runtime {
    static GLOBAL: OnceLock<Runtime> = OnceLock::new();
    GLOBAL.get_or_init(Runtime::new)
}

// ---------------------------------------------------------------------------
// Job handles
// ---------------------------------------------------------------------------

// The one `Ready` payload per job dwarfs the unit variants; boxing it
// would add an allocation to every job completion for no win.
#[allow(clippy::large_enum_variant)]
enum Slot<R> {
    Pending,
    Ready(Result<RunOutput<R>, BspError>),
    Taken,
}

struct HandleState<R> {
    slot: Mutex<Slot<R>>,
    cv: Condvar,
}

impl<R> HandleState<R> {
    fn finish(&self, res: Result<RunOutput<R>, BspError>) {
        let mut slot = lock(&self.slot);
        // `finish` is called exactly once per job, so the slot can only be
        // Pending here.
        *slot = Slot::Ready(res);
        drop(slot);
        self.cv.notify_all();
    }
}

/// Handle to a job submitted with [`Runtime::submit`].
pub struct JobHandle<R> {
    shared: Arc<HandleState<R>>,
    token: CancelToken,
}

impl<R> JobHandle<R> {
    /// Block until the job finishes and take its result. A panic anywhere
    /// in the job (including in result merging) surfaces as the `Err` arm —
    /// `join` itself never panics on job failure.
    ///
    /// Panics if the result was already taken by a successful
    /// [`JobHandle::join_timeout`].
    pub fn join(self) -> Result<RunOutput<R>, BspError> {
        let mut slot = lock(&self.shared.slot);
        loop {
            match std::mem::replace(&mut *slot, Slot::Taken) {
                Slot::Ready(res) => return res,
                Slot::Taken => panic!("job result already taken by join_timeout"),
                Slot::Pending => {
                    *slot = Slot::Pending;
                    slot = wait(&self.shared.cv, slot);
                }
            }
        }
    }

    /// Wait at most `d` for the job to finish; `Some(result)` takes the
    /// result, `None` means it is still running (the handle stays usable —
    /// cancel it, keep waiting, or drop it).
    pub fn join_timeout(&self, d: Duration) -> Option<Result<RunOutput<R>, BspError>> {
        let deadline = Instant::now() + d;
        let mut slot = lock(&self.shared.slot);
        loop {
            match std::mem::replace(&mut *slot, Slot::Taken) {
                Slot::Ready(res) => return Some(res),
                Slot::Taken => panic!("job result already taken by join_timeout"),
                Slot::Pending => *slot = Slot::Pending,
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (g, timeout) = self
                .shared
                .cv
                .wait_timeout(slot, left)
                .unwrap_or_else(PoisonError::into_inner);
            slot = g;
            if timeout.timed_out() && matches!(*slot, Slot::Pending) {
                return None;
            }
        }
    }

    /// Request cooperative cancellation: the job observes it at its next
    /// superstep (or tile) boundary and fails with
    /// [`BspError::Cancelled`], releasing its peers through the transport
    /// poison path. Idempotent; a job that already finished is unaffected.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// The job's control token (to share cancellation across handles or
    /// tighten the deadline mid-flight).
    pub fn cancel_token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Has the job finished (result ready to take without blocking)?
    pub fn is_finished(&self) -> bool {
        !matches!(*lock(&self.shared.slot), Slot::Pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn ring(ctx: &mut Ctx) -> u64 {
        let next = (ctx.pid() + 1) % ctx.nprocs();
        ctx.send_pkt(next, Packet::two_u64(ctx.pid() as u64, 0));
        ctx.sync();
        let mut got = 0;
        while let Some(pkt) = ctx.get_pkt() {
            got = pkt.as_two_u64().0;
        }
        got
    }

    #[test]
    fn warm_run_reuses_the_transport_set() {
        let rt = Runtime::new();
        let cfg = Config::new(4);
        for _ in 0..3 {
            let out = rt.try_run(&cfg, ring).unwrap();
            assert_eq!(out.results.len(), 4);
        }
        // First run misses (cold build), later runs lease the parked set.
        assert_eq!(rt.arena_misses(), 1);
        assert_eq!(rt.arena_hits(), 2);
        assert!(rt.debug_lease_cycle(&cfg));
    }

    #[test]
    fn reused_sets_start_clean_on_every_backend() {
        use crate::backend::{BackendKind, NetSimParams};
        let rt = Runtime::new();
        for backend in [
            BackendKind::Shared,
            BackendKind::MsgPass,
            BackendKind::TcpSim,
            BackendKind::SeqSim,
            BackendKind::NetSim(NetSimParams {
                g_us: 0.0,
                l_us: 0.0,
                l_neigh_us: 0.0,
                time_scale: 0.0,
            }),
        ] {
            let cfg = Config::new(3).backend(backend);
            for _ in 0..4 {
                let out = rt
                    .try_run(&cfg, |ctx: &mut Ctx| {
                        let next = (ctx.pid() + 1) % ctx.nprocs();
                        ctx.send_pkt(next, Packet::two_u64(ctx.pid() as u64, 7));
                        ctx.sync();
                        let mut got = Vec::new();
                        while let Some(pkt) = ctx.get_pkt() {
                            got.push(pkt.as_two_u64().0);
                        }
                        got
                    })
                    .unwrap();
                // Exactly one message per process per run: a stale slot
                // from an unreset parked set would surface as extras.
                for (pid, got) in out.results.iter().enumerate() {
                    let prev = (pid + out.results.len() - 1) % out.results.len();
                    assert_eq!(got.as_slice(), &[prev as u64], "backend {backend:?}");
                }
            }
            assert!(rt.debug_lease_cycle(&cfg), "no parked set for {backend:?}");
        }
        rt.shutdown();
    }

    #[test]
    fn different_shapes_do_not_share_sets() {
        let rt = Runtime::new();
        let a = Config::new(2);
        let b = Config::new(3);
        rt.prewarm(&a);
        assert!(!rt.debug_lease_cycle(&b));
        assert!(rt.debug_lease_cycle(&a));
    }

    #[test]
    fn checked_configs_are_never_cached() {
        let rt = Runtime::new();
        let cfg = Config::new(2).checked();
        rt.prewarm(&cfg);
        assert!(!rt.debug_lease_cycle(&cfg));
        assert_eq!(rt.arena_hits(), 0);
    }

    #[test]
    fn submit_returns_results_through_the_handle() {
        let rt = Runtime::new();
        let cfg = Config::new(4);
        let handles: Vec<_> = (0..4).map(|_| rt.submit(&cfg, ring)).collect();
        for h in handles {
            let out = h.join().unwrap();
            for (pid, &got) in out.results.iter().enumerate() {
                assert_eq!(got as usize, (pid + 3) % 4);
            }
        }
    }

    #[test]
    fn submitted_failure_surfaces_through_join_not_a_panic() {
        let rt = Runtime::new();
        let cfg = Config::new(2);
        let h = rt.submit(&cfg, |ctx: &mut Ctx| {
            if ctx.pid() == 1 {
                panic!("deliberate test failure");
            }
            ctx.sync();
        });
        match h.join() {
            Err(BspError::ProcPanicked { pid, .. }) => assert_eq!(pid, 1),
            other => panic!("expected ProcPanicked, got {other:?}"),
        }
        // The pool survives a failed job.
        assert!(rt.try_run(&cfg, ring).is_ok());
    }

    #[test]
    fn nested_runs_fall_back_instead_of_deadlocking() {
        // Each BSP process launches a nested BSP run; on pool workers this
        // must take the spawn-per-run path rather than queueing behind the
        // parent's own slots.
        let out = crate::run(&Config::new(2), |ctx| {
            let inner = crate::run(&Config::new(2), |c| c.pid() as u64);
            ctx.sync();
            inner.results.iter().sum::<u64>()
        });
        assert_eq!(out.results, vec![1, 1]);
    }

    /// Submit one job per config, each holding its slots (and so its
    /// transport set) until every job is submitted, then join them all.
    fn gated_wave(rt: &Runtime, cfgs: &[Config]) {
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let handles: Vec<_> = cfgs
            .iter()
            .map(|cfg| {
                let gate = Arc::clone(&gate);
                rt.submit(cfg, move |ctx: &mut Ctx| {
                    // A 20 s escape hatch turns a broken gate into a
                    // failed join below instead of a hang.
                    let start = Instant::now();
                    while !gate.load(Ordering::Acquire) && start.elapsed().as_secs() < 20 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    ctx.sync();
                })
            })
            .collect();
        gate.store(true, Ordering::Release);
        for h in handles {
            h.join_timeout(Duration::from_secs(15))
                .expect("gated job hung")
                .unwrap();
        }
    }

    /// Sets parked across every shape (checked against the running total).
    fn parked(rt: &Runtime) -> usize {
        let a = lock(&rt.inner.arena);
        assert_eq!(a.sets.values().map(Vec::len).sum::<usize>(), a.total);
        a.total
    }

    #[test]
    fn the_arena_keeps_every_set_a_wave_gives_back() {
        use crate::backend::BackendKind;
        let rt = Runtime::with_workers(2);
        // Eight sets of one shape out at once all park on their way back,
        // so a second wave of eight leases only warm sets.
        let wave = vec![Config::new(2); 8];
        gated_wave(&rt, &wave);
        assert_eq!((rt.arena_hits(), rt.arena_misses()), (0, 8));
        assert_eq!(parked(&rt), 8);
        gated_wave(&rt, &wave);
        assert_eq!((rt.arena_hits(), rt.arena_misses()), (8, 8));
        // Nine sets of each of eight more shapes come back onto those
        // eight: 80 in all, of which the arena's one bound keeps 64.
        let shapes: Vec<Config> = [
            BackendKind::Shared,
            BackendKind::MsgPass,
            BackendKind::TcpSim,
            BackendKind::SeqSim,
        ]
        .into_iter()
        .flat_map(|b| {
            [BarrierKind::Central, BarrierKind::Flag].map(|k| Config::new(1).backend(b).barrier(k))
        })
        .flat_map(|cfg| vec![cfg; 9])
        .collect();
        gated_wave(&rt, &shapes);
        assert_eq!(parked(&rt), ARENA_TOTAL);
        rt.shutdown();
    }

    #[test]
    fn shutdown_joins_everything() {
        let rt = Runtime::with_workers(3);
        let cfg = Config::new(3);
        rt.try_run(&cfg, ring).unwrap();
        let h = rt.submit(&cfg, ring);
        h.join().unwrap();
        rt.shutdown();
    }
}

//! Launching BSP programs: configuration, process spawning, and result
//! collection.

use crate::backend::channel::ChannelProc;
use crate::backend::netsim::{NetSimProc, NetSimState};
use crate::backend::seqsim::SeqProc;
use crate::backend::shared::{SharedProc, SharedState};
use crate::backend::BackendKind;
use crate::barrier::BarrierKind;
use crate::check::audit::CheckedBackend;
use crate::check::{self, CheckCtx, CheckKind, CheckReport, CheckShared, ProcTrace};
use crate::context::{CkptState, Ctx, ProcTransport};
use crate::exec;
use crate::fault::{
    BspError, CheckpointStore, FaultCounters, FaultPlan, FaultState, FaultTolerance, FaultyBackend,
    GuardedBackend, RoundMeta,
};
use crate::relax::SyncGraph;
use crate::stats::RunStats;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for a BSP run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of BSP processes.
    pub nprocs: usize,
    /// Library implementation to use.
    pub backend: BackendKind,
    /// Barrier used by barrier-based backends.
    pub barrier: BarrierKind,
    /// Run under the BSP checker (see [`crate::check`]): packet-lifetime
    /// tracking, superstep/collective congruence, DRMA conflict detection,
    /// per-superstep packet conservation, and (shared-memory backends) the
    /// grid phase-discipline audit. Diagnostics land in
    /// [`RunStats::check_reports`].
    pub check: bool,
    /// Deterministic fault-injection plan: a [`FaultyBackend`] wrapper is
    /// interposed on every process and replays the plan's events at
    /// exchange boundaries (see [`crate::fault`]).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Static synchronization graph enabling neighborhood barriers
    /// ([`crate::SyncMode::Neighborhood`], see DESIGN.md §12): a superstep
    /// that calls [`Ctx::sync_neigh`] synchronizes pairwise with its graph
    /// neighbors instead of crossing the `p`-wide barrier. `None` (the
    /// default) means neighborhood boundaries are unavailable and
    /// `sync_neigh` panics.
    pub sync_graph: Option<Arc<SyncGraph>>,
    /// Fault-tolerance settings. When set, the transport stack is hardened:
    /// a self-healing [`GuardedBackend`] wrapper checksums and retransmits
    /// exchanges, the channel transport's pipe reads time out on a silent
    /// peer, and (with a [`crate::CheckpointPolicy`]) the runner rolls all
    /// processes back to the last consistent checkpoint on an unrecovered
    /// failure.
    pub tolerance: Option<FaultTolerance>,
    /// Tile coordinates stamped onto every [`Ctx`] of the run, surfaced via
    /// [`Ctx::tile`]. Set per tile job by the streaming driver
    /// ([`crate::stream`]); not part of the arena shape key — the same warm
    /// transport set serves every tile.
    pub(crate) tile: Option<crate::stream::TileMeta>,
    /// Cooperative cancellation/deadline token stamped onto every [`Ctx`]
    /// and checked at superstep boundaries (see DESIGN.md §15). Attached
    /// with [`Config::cancel_token`], or a fresh one by
    /// [`crate::Runtime::submit`]; `None` (the default) keeps the boundary
    /// hot path token-free.
    pub(crate) control: Option<crate::exec::CancelToken>,
}

impl Config {
    /// Default configuration: shared-memory backend, central barrier.
    pub fn new(nprocs: usize) -> Self {
        Config {
            nprocs,
            backend: BackendKind::default(),
            barrier: BarrierKind::default(),
            check: false,
            sync_graph: None,
            fault_plan: None,
            tolerance: None,
            tile: None,
            control: None,
        }
    }

    /// Select a library implementation.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Select the barrier implementation.
    pub fn barrier(mut self, barrier: BarrierKind) -> Self {
        self.barrier = barrier;
        self
    }

    /// Enable the BSP checker for this run (see [`crate::check`]).
    pub fn checked(mut self) -> Self {
        self.check = true;
        self
    }

    /// Register a static synchronization graph, enabling neighborhood
    /// boundaries ([`Ctx::sync_neigh`]). Edges are undirected and
    /// symmetrized; self-edges are dropped (a process never waits on
    /// itself). Panics if an endpoint is `>= nprocs`.
    ///
    /// The graph disciplines traffic: a superstep *adjacent* to a
    /// neighborhood boundary (the one it closes, or the one immediately
    /// after it) may only send to graph neighbors and itself — violations
    /// fail the run with [`crate::TransportErrorKind::GraphViolation`].
    pub fn sync_graph(mut self, edges: &[(usize, usize)]) -> Self {
        self.sync_graph = Some(Arc::new(SyncGraph::new(self.nprocs, edges)));
        self
    }

    /// Inject faults from a deterministic [`FaultPlan`] (see [`crate::fault`]).
    /// Pair with [`Config::tolerant`] (or [`Config::hardened`]) if the run
    /// is expected to survive them.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Harden the transport stack with explicit [`FaultTolerance`] settings.
    pub fn tolerant(mut self, tol: FaultTolerance) -> Self {
        self.tolerance = Some(tol);
        self
    }

    /// Harden the transport stack with default [`FaultTolerance`] settings
    /// (checksummed self-healing exchanges, 4 retries, no checkpointing).
    pub fn hardened(self) -> Self {
        self.tolerant(FaultTolerance::default())
    }

    /// Attach a cooperative cancellation/deadline token (see
    /// [`crate::exec::CancelToken`]). The runner checks it at every
    /// superstep boundary; a fired token unwinds the run through the poison
    /// path into [`BspError::Cancelled`] / [`BspError::DeadlineExceeded`].
    /// A deadline is armed on the token
    /// ([`crate::exec::CancelToken::deadline_in`]). [`crate::Runtime::submit`]
    /// adopts it as the job's token, so `JobHandle::cancel` fires the very
    /// token attached here.
    pub fn cancel_token(mut self, token: &crate::exec::CancelToken) -> Self {
        self.control = Some(token.clone());
        self
    }
}

/// Results of a BSP run: one value per process plus merged statistics.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// The user function's return values, indexed by pid.
    pub results: Vec<R>,
    /// Merged per-superstep statistics (`W`, `H`, `S`, total work).
    pub stats: RunStats,
    /// Wall-clock duration of the whole run on the host.
    pub wall: Duration,
}

fn build_transports(
    cfg: &Config,
    check: Option<&Arc<CheckShared>>,
    fstate: Option<&Arc<FaultState>>,
) -> Vec<Box<dyn ProcTransport>> {
    let p = cfg.nprocs;
    let audit = check.map(|c| Arc::clone(&c.audit));
    let tol = cfg.tolerance.as_ref();
    let bare: Vec<Box<dyn ProcTransport>> = match cfg.backend {
        BackendKind::Shared => {
            let st =
                SharedState::with_audit(p, cfg.barrier.build(p), audit, cfg.sync_graph.clone());
            (0..p)
                .map(|pid| Box::new(SharedProc::new(st.clone(), pid)) as Box<dyn ProcTransport>)
                .collect()
        }
        BackendKind::MsgPass | BackendKind::TcpSim => {
            let staged = cfg.backend == BackendKind::TcpSim;
            ChannelProc::create_all(p, staged, tol, cfg.sync_graph.clone())
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn ProcTransport>)
                .collect()
        }
        BackendKind::SeqSim => SeqProc::create_all(p)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn ProcTransport>)
            .collect(),
        BackendKind::NetSim(params) => {
            let shared =
                SharedState::with_audit(p, cfg.barrier.build(p), audit, cfg.sync_graph.clone());
            let ns = NetSimState::new(cfg.barrier.build(p));
            (0..p)
                .map(|pid| {
                    Box::new(NetSimProc::new(shared.clone(), ns.clone(), pid, params))
                        as Box<dyn ProcTransport>
                })
                .collect()
        }
    };
    // Stack, innermost first: bare backend → fault injector → self-healing
    // guard → conservation checker. The injector sits *under* the guard so
    // the guard's checksums see (and heal) the injected damage; the checker
    // sits on top so a checked run verifies the post-recovery delivery.
    // Unhardened, fault-free configs take the exact pre-existing fast path
    // (no wrappers at all).
    let mut stack = bare;
    if let (Some(plan), Some(state)) = (cfg.fault_plan.as_ref(), fstate) {
        stack = stack
            .into_iter()
            .enumerate()
            .map(|(pid, t)| {
                // One RoundMeta per process, shared with the guard above (if
                // any) so the injector knows which protocol round is live.
                let meta = RoundMeta::new();
                let faulty =
                    FaultyBackend::new(t, pid, Arc::clone(plan), Arc::clone(state), meta.clone());
                let out: Box<dyn ProcTransport> = match tol {
                    Some(tol) => Box::new(GuardedBackend::new(faulty, pid, p, tol, meta)),
                    None => Box::new(faulty),
                };
                out
            })
            .collect();
    } else if let Some(tol) = tol {
        stack = stack
            .into_iter()
            .enumerate()
            .map(|(pid, t)| {
                let meta = RoundMeta::new();
                Box::new(GuardedBackend::new(t, pid, p, tol, meta)) as Box<dyn ProcTransport>
            })
            .collect();
    }
    match check {
        None => stack,
        // Checked run: interpose the conservation-checking wrapper between
        // the context and every backend endpoint.
        Some(shared) => stack
            .into_iter()
            .enumerate()
            .map(|(pid, t)| {
                Box::new(CheckedBackend::new(t, Arc::clone(shared), pid, p))
                    as Box<dyn ProcTransport>
            })
            .collect(),
    }
}

/// Convert a caught panic payload into a structured [`BspError`]. Transports
/// panic with `BspError` payloads (via `panic_any`); anything else is an
/// application panic whose message we preserve verbatim.
pub(crate) fn payload_to_error(pid: usize, payload: Box<dyn std::any::Any + Send>) -> BspError {
    match payload.downcast::<BspError>() {
        Ok(e) => *e,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = payload.downcast_ref::<&'static str>() {
                (*s).to_string()
            } else {
                "non-string panic payload".to_string()
            };
            BspError::ProcPanicked {
                pid,
                step: 0,
                payload: msg,
            }
        }
    }
}

/// Run `f` as a BSP program on `cfg.nprocs` processes.
///
/// `f` receives a [`Ctx`] and may return a per-process value. Every process
/// must call [`Ctx::sync`] the same number of times (the superstep
/// contract); [`RunStats::merge`] verifies this after the run.
///
/// # Example
///
/// ```
/// use green_bsp::{run, Config, Packet};
///
/// // Total exchange: everyone sends its pid to everyone else.
/// let out = run(&Config::new(4), |ctx| {
///     for dest in 0..ctx.nprocs() {
///         if dest != ctx.pid() {
///             ctx.send_pkt(dest, Packet::two_u64(ctx.pid() as u64, 0));
///         }
///     }
///     ctx.sync();
///     let mut seen = 0u64;
///     while let Some(pkt) = ctx.get_pkt() {
///         seen += pkt.as_two_u64().0;
///     }
///     seen
/// });
/// // Each process saw the sum of the other three pids: 0+1+2+3 minus its own.
/// for (pid, &sum) in out.results.iter().enumerate() {
///     assert_eq!(sum, 6 - pid as u64);
/// }
/// assert_eq!(out.stats.s(), 2); // one sync plus the final partial superstep
/// assert_eq!(out.stats.h_total(), 3); // each proc sent and received 3 packets
/// ```
pub fn run<F, R>(cfg: &Config, f: F) -> RunOutput<R>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    match try_run(cfg, f) {
        Ok(out) => out,
        Err(e) => panic!("BSP process panicked: {e}"),
    }
}

/// Run `f` as a BSP program, returning a structured [`BspError`] instead of
/// panicking when a process fails.
///
/// A worker panic is caught, its payload preserved (transport failures
/// arrive as [`BspError::Transport`] / [`BspError::PeerFailed`]; application
/// panics as [`BspError::ProcPanicked`] carrying the panic message), and the
/// surviving processes are released by poisoning the backend's barrier so
/// the run ends promptly rather than deadlocking.
///
/// With a [`crate::CheckpointPolicy`] configured (via
/// [`Config::tolerant`]), a failed run is rolled back to the last
/// checkpoint consistent across all processes and re-executed, up to
/// [`FaultTolerance::max_rollbacks`] times; [`RunStats::faults`] records
/// the rollbacks and total recovery time.
pub fn try_run<F, R>(cfg: &Config, f: F) -> Result<RunOutput<R>, BspError>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    assert!(cfg.nprocs > 0, "a BSP machine needs at least one process");
    // Route through the process-wide worker pool — unless this thread *is*
    // a pool worker (a BSP process launching a nested run), in which case
    // leasing pool slots could deadlock against the parent job's own slice;
    // nested runs take the spawn-per-run path instead.
    if exec::on_worker_thread() {
        run_pipeline(None, cfg, &f)
    } else {
        run_pipeline(Some(exec::global()), cfg, &f)
    }
}

/// Run `f` with the original spawn-per-run strategy: `p` freshly spawned
/// OS threads and a freshly built transport fabric, no pool, no arena.
///
/// This is the pool-free reference that the `exec_stress` and `resilience`
/// test corpora compare pooled runs against, and the path a nested run (a
/// BSP process launching its own run) takes; use it too when a run must
/// share no state whatsoever with the rest of the process.
pub fn run_unpooled<F, R>(cfg: &Config, f: F) -> Result<RunOutput<R>, BspError>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    assert!(cfg.nprocs > 0, "a BSP machine needs at least one process");
    run_pipeline(None, cfg, &f)
}

/// The full job pipeline: fault-state setup, the checkpoint-rollback loop,
/// and per-incarnation execution via [`run_once`]. With a runtime, process
/// slots run on its worker pool and plain-config transports are leased
/// from / released to its arena; without one, every incarnation spawns
/// fresh threads.
pub(crate) fn run_pipeline<R>(
    rt: Option<&exec::Runtime>,
    cfg: &Config,
    f: &(dyn Fn(&mut Ctx) -> R + Sync),
) -> Result<RunOutput<R>, BspError>
where
    R: Send,
{
    assert!(cfg.nprocs > 0, "a BSP machine needs at least one process");
    // Fired-event state is shared across rollback incarnations so a
    // transient fault injected before the rollback does not re-fire after it.
    let fstate = cfg
        .fault_plan
        .as_ref()
        .map(|p| Arc::new(FaultState::new(p.events.len())));
    let policy = cfg.tolerance.as_ref().and_then(|t| t.checkpoint);
    let ckpt_store = policy.map(|_| Arc::new(CheckpointStore::new(cfg.nprocs)));
    let every = policy.map(|c| c.every_supersteps).unwrap_or(0);
    let max_rollbacks = cfg.tolerance.as_ref().map(|t| t.max_rollbacks).unwrap_or(0);
    let mut rolled_back = 0u64;
    let mut carried = FaultCounters::default();
    let mut recover_from: Option<Instant> = None;
    let mut restored: Vec<Option<Vec<u8>>> = (0..cfg.nprocs).map(|_| None).collect();
    loop {
        let ckpt = ckpt_store.as_ref().map(|s| (every, s));
        match run_once(
            rt,
            cfg,
            f,
            fstate.as_ref(),
            ckpt,
            std::mem::take(&mut restored),
        ) {
            Ok(mut out) => {
                out.stats.faults.add(&carried);
                out.stats.faults.rolled_back += rolled_back;
                if let Some(t0) = recover_from {
                    out.stats.faults.recovery_ms += t0.elapsed().as_millis() as u64;
                }
                return Ok(out);
            }
            Err((err, fc)) => {
                // Keep the failed incarnation's counters: its detections and
                // retries are part of the run's fault history.
                carried.add(&fc);
                // Deliberate terminations are never rolled back: a cancelled
                // or overdue job must unwind immediately, and a shut-down
                // runtime has no pool to re-run on.
                let terminal = matches!(
                    err,
                    BspError::Cancelled { .. }
                        | BspError::DeadlineExceeded { .. }
                        | BspError::RuntimeShutdown
                );
                if let Some(store) = ckpt_store
                    .as_ref()
                    .filter(|_| !terminal && rolled_back < u64::from(max_rollbacks))
                {
                    recover_from.get_or_insert_with(Instant::now);
                    rolled_back += 1;
                    restored = (0..cfg.nprocs).map(|_| None).collect();
                    if let Some(cs) = store.consistent_step() {
                        // Roll every process back to the newest superstep all
                        // of them snapshotted; later snapshots are discarded.
                        store.prune_above(cs);
                        for (pid, slot) in restored.iter_mut().enumerate() {
                            *slot = store.blob(pid, cs);
                        }
                    }
                    // No consistent cut yet: re-run from scratch (restored
                    // stays all-None). Deterministic apps still converge to
                    // bit-identical output.
                    continue;
                }
                return Err(err);
            }
        }
    }
}

type ProcResult<R> = (
    R,
    Vec<crate::stats::LocalStep>,
    crate::stats::TransportCounters,
    Option<Box<ProcTrace>>,
);

/// A successful process slot: its results plus the timing endpoints the
/// setup/teardown split needs and the context itself, shipped back so the
/// transport set can be released to the arena.
struct SlotOk<R> {
    res: ProcResult<R>,
    fc: FaultCounters,
    ctx: Ctx,
    entered: Instant,
    finished: Instant,
    /// Whether this slot already ran `Ctx::reset_for_reuse` on its worker
    /// (and it succeeded). Set only on the pooled path for arena-eligible
    /// configs; resetting in parallel on the workers keeps the submitting
    /// thread's release down to a map probe and a push.
    reset_ok: bool,
}

enum SlotOutcome<R> {
    /// Boxed: a `Ctx` rides along, and the Fail arm should stay small.
    Done(Box<SlotOk<R>>),
    Fail {
        err: BspError,
        fc: FaultCounters,
    },
}

/// Quiescence gate for worker-side arena resets. `Ctx::reset_for_reuse`
/// touches state peers may still be using after *this* slot's last barrier
/// — a late peer can flush post-last-sync packets into this endpoint's
/// grid slots, and a seqsim reset rewinds the shared baton peers are still
/// waiting on. So every slot first *arrives* (its own work is done), then
/// waits for the whole group before resetting. The waits are bounded by
/// the job's own slot skew: every peer is past its last blocking operation
/// when it arrives.
struct ResetGate {
    remaining: AtomicUsize,
}

impl ResetGate {
    fn new(p: usize) -> ResetGate {
        ResetGate {
            remaining: AtomicUsize::new(p),
        }
    }

    fn arrive(&self) {
        self.remaining.fetch_sub(1, Ordering::Release);
    }

    fn wait_quiesced(&self) {
        // The expected wait is the job's slot skew — sub-microsecond to a
        // few microseconds of barrier-release stagger — so spin long
        // enough to cover it: yielding early puts an OS reschedule on the
        // job's critical path (tens of µs), which is worse than burning
        // the worker's own pinned core briefly. The gate is only armed
        // when every slot has a core of its own (see `run_once`), so
        // spinning here never starves the peer being waited for. Fall back
        // to yielding only for pathological skew (a descheduled peer).
        let mut spins = 0u32;
        while self.remaining.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < 1 << 14 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Cores the OS will actually run in parallel, cached per process; gates
/// whether worker-side resets can spin without starving a peer.
fn parallel_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Test-only override: arm the reset gate regardless of core count, so the
/// worker-side reset path stays covered on single-core CI hosts (the gate
/// is correct there too — arrivals make progress through the yields — just
/// not profitable).
#[cfg(test)]
pub(crate) static FORCE_PAR_RESET: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

fn par_reset_wanted(nprocs: usize) -> bool {
    #[cfg(test)]
    if FORCE_PAR_RESET.load(Ordering::Relaxed) {
        return true;
    }
    parallel_cores() >= nprocs
}

/// Decrements the gate on drop, so a slot that fails — or unwinds through
/// a runner bug — can never strand its peers spinning at the gate.
struct ArriveOnDrop<'a>(Option<&'a ResetGate>);

impl Drop for ArriveOnDrop<'_> {
    fn drop(&mut self) {
        if let Some(gate) = self.0.take() {
            gate.arrive();
        }
    }
}

/// The body of one process slot, identical on the pooled and the
/// spawn-per-run path: attach per-run checker/checkpoint state, run the
/// user function, and package the outcome.
///
/// `entered` is stamped at pickup, *before* `Ctx::begin` — so a seqsim
/// process parked waiting for the baton charges that wait to the run, not
/// to launch setup — and `finished` after `finalize`, so
/// `max(finished)..collect` is pure teardown.
fn slot_body<R>(
    pid: usize,
    mut ctx: Ctx,
    f: &(dyn Fn(&mut Ctx) -> R + Sync),
    shared: Option<Arc<CheckShared>>,
    ckpt: Option<(usize, Arc<CheckpointStore>)>,
    blob: Option<Vec<u8>>,
    gate: Option<&ResetGate>,
) -> SlotOutcome<R> {
    let entered = Instant::now();
    let mut arrive = ArriveOnDrop(gate);
    if let Some(shared) = shared {
        ctx.check = Some(Box::new(CheckCtx::new(shared)));
    }
    if let Some((every, store)) = ckpt {
        ctx.ckpt = Some(Box::new(CkptState {
            every,
            store,
            pid,
            restored: blob,
        }));
    }
    // `finalize` runs inside the catch: a poisoned-peer panic during the
    // final drain must not escape onto a pool worker's stack. Its payload
    // still reaches the caller via `payload_to_error`, exactly as when the
    // slot ran on a dedicated thread.
    let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
        // Launch-time cancellation point: a job cancelled while its slice
        // was still queued behind busy workers fails here without ever
        // entering the user closure (DESIGN.md §15).
        ctx.check_control();
        ctx.begin();
        let r = f(&mut ctx);
        ctx.finalize();
        r
    }));
    match r {
        Ok(r) => {
            let finished = Instant::now();
            let counters = ctx.transport.counters();
            let fc = ctx.transport.fault_counters();
            let trace = ctx.check.take().map(|c| Box::new(c.trace));
            let log = std::mem::take(&mut ctx.log);
            // Reset here, after every capture, so the clearing work runs on
            // this worker in parallel with its peers instead of serially on
            // the submitting thread at release. The gate supplies the
            // quiescence the serial release-time reset got for free: only
            // after every slot has arrived (all closures and finalizes
            // done, so no peer can still touch this endpoint's state) do
            // the parallel resets begin.
            let reset_ok = match gate {
                Some(g) => {
                    arrive.0 = None;
                    g.arrive();
                    g.wait_quiesced();
                    ctx.reset_for_reuse()
                }
                None => false,
            };
            SlotOutcome::Done(Box::new(SlotOk {
                res: (r, log, counters, trace),
                fc,
                ctx,
                entered,
                finished,
                reset_ok,
            }))
        }
        Err(payload) => {
            // Release peers parked at the superstep barrier; they fail
            // with `PeerFailed` instead of hanging.
            ctx.transport.poison();
            let fc = ctx.transport.fault_counters();
            SlotOutcome::Fail {
                err: payload_to_error(pid, payload),
                fc,
            }
        }
    }
}

/// One incarnation of a run: lease or build the transport fabric, execute
/// every process slot (on the runtime's worker pool when one is given,
/// otherwise on freshly spawned scoped threads), join, merge. A process
/// failure yields the primary error plus the fault counters gathered
/// before death.
fn run_once<R>(
    rt: Option<&exec::Runtime>,
    cfg: &Config,
    f: &(dyn Fn(&mut Ctx) -> R + Sync),
    fstate: Option<&Arc<FaultState>>,
    ckpt: Option<(usize, &Arc<CheckpointStore>)>,
    mut restored: Vec<Option<Vec<u8>>>,
) -> Result<RunOutput<R>, (BspError, FaultCounters)>
where
    R: Send,
{
    // The clock opens at admission: `wall` covers transport lease or
    // construction (reported separately as `RunStats::setup`), the
    // supersteps, and result collection (`RunStats::teardown`).
    let start = Instant::now();
    let nprocs = cfg.nprocs;
    let shared = cfg.check.then(|| CheckShared::new(nprocs));
    // Warm path: pop a reset transport set from the runtime's arena (plain
    // configs only). Cold path: build the fabric from scratch.
    let mut ctxs: Vec<Ctx> = match rt.and_then(|rt| rt.lease(cfg)) {
        Some(set) => set,
        None => build_transports(cfg, shared.as_ref(), fstate)
            .into_iter()
            .enumerate()
            .map(|(pid, t)| Ctx::new(pid, nprocs, cfg.sync_graph.clone(), t))
            .collect(),
    };
    // Streaming runs: stamp the tile coordinates on every slot (a `Copy`,
    // so the warm path stays allocation-free).
    if cfg.tile.is_some() {
        for ctx in &mut ctxs {
            ctx.tile = cfg.tile;
        }
    }
    // Cancellable runs: stamp the control token on every slot (an `Arc`
    // clone, so the warm path stays allocation-free; plain runs skip the
    // loop entirely and their boundary checks stay token-free).
    if cfg.control.is_some() {
        for ctx in &mut ctxs {
            ctx.control = cfg.control.clone();
        }
    }
    let ckpt_owned = ckpt.map(|(every, store)| (every, Arc::clone(store)));
    // Arena-bound sets reset on their own workers (see `slot_body` and
    // `ResetGate`) — but only when the host really runs the slots in
    // parallel. On an oversubscribed host (fewer cores than processes)
    // the slots are time-sliced, a spinning slot starves the peer it
    // waits for, and the serial release-time reset is strictly cheaper.
    // The spawn-per-run path and ineligible shapes never park either way.
    let gate = (rt.is_some() && exec::arena_eligible(cfg) && par_reset_wanted(nprocs))
        .then(|| ResetGate::new(nprocs));
    let pre_reset = gate.is_some();

    let outcomes: Vec<SlotOutcome<R>> = match rt {
        // Pooled: one lifetime-erased task per slot, all dispatched
        // atomically to the pool; the board blocks until the last slot
        // reports, which is what makes the lifetime erasure sound.
        Some(rt) => {
            let board = exec::Board::new(nprocs);
            let gate = gate.as_ref();
            let tasks: Vec<exec::Task> = ctxs
                .into_iter()
                .enumerate()
                .map(|(pid, ctx)| {
                    debug_assert_eq!(ctx.pid(), pid, "arena set out of pid order");
                    let shared = shared.clone();
                    let ckpt = ckpt_owned.clone();
                    let blob = restored[pid].take();
                    let board = Arc::clone(&board);
                    let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        // The outer catch guarantees the board slot is
                        // always filled, even if the runner itself bugs
                        // out, so the submitting thread can never hang.
                        let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            slot_body(pid, ctx, f, shared, ckpt, blob, gate)
                        }))
                        .unwrap_or_else(|payload| SlotOutcome::Fail {
                            err: payload_to_error(pid, payload),
                            fc: FaultCounters::default(),
                        });
                        board.fill(pid, out);
                    });
                    // SAFETY: `board.wait_take()` below returns only after
                    // every task has filled its slot, i.e. run to
                    // completion; the borrows the tasks capture (`f`,
                    // `shared`, `board`) all outlive that point.
                    unsafe { exec::erase_task(task) }
                })
                .collect();
            // The abort task runs instead of the slice if the runtime shuts
            // down while the job is still queued: it fills every board slot
            // so `wait_take` below returns with a structured error instead
            // of hanging. Same lifetime-erasure argument as the tasks.
            let abort_board = Arc::clone(&board);
            let abort: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                for pid in 0..nprocs {
                    abort_board.fill(
                        pid,
                        SlotOutcome::<R>::Fail {
                            err: BspError::RuntimeShutdown,
                            fc: FaultCounters::default(),
                        },
                    );
                }
            });
            // SAFETY: identical to the `tasks` erasure above — the closure
            // only touches `board`, which `wait_take` below keeps alive on
            // this stack until every slot (including abort fills) is taken.
            let abort = unsafe { exec::erase_task(abort) };
            rt.execute(tasks, abort);
            board
                .wait_take()
                .into_iter()
                .map(|o| o.expect("pool task finished without filling its board slot"))
                .collect()
        }
        // Unpooled: the original spawn-per-run strategy.
        None => std::thread::scope(|s| {
            let handles: Vec<_> = ctxs
                .into_iter()
                .enumerate()
                .map(|(pid, ctx)| {
                    let shared = shared.clone();
                    let ckpt = ckpt_owned.clone();
                    let blob = restored[pid].take();
                    s.spawn(move || slot_body(pid, ctx, f, shared, ckpt, blob, None))
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(pid, h)| match h.join() {
                    Ok(out) => out,
                    // The thread died outside slot_body's catch (a bug in
                    // the runtime itself, not the program); preserve the
                    // payload regardless.
                    Err(payload) => SlotOutcome::Fail {
                        err: payload_to_error(pid, payload),
                        fc: FaultCounters::default(),
                    },
                })
                .collect()
        }),
    };

    let mut per_proc: Vec<Option<ProcResult<R>>> = (0..nprocs).map(|_| None).collect();
    let mut faults = FaultCounters::default();
    // The primary error: prefer the root cause over collateral. A panicking
    // proc's peers report `PeerFailed` (poisoned barrier) or a hung-up
    // channel (`Transport(ChannelClosed)`); genuine transport faults
    // (checksum, retry exhaustion) outrank those but not an app panic.
    fn error_rank(e: &BspError) -> u8 {
        match e {
            // Deliberate terminations outrank everything: the proc that
            // observed its token fire is the root cause; peers merely saw
            // the poisoned barrier.
            BspError::Cancelled { .. }
            | BspError::DeadlineExceeded { .. }
            | BspError::RuntimeShutdown => 4,
            BspError::ProcPanicked { .. } => 3,
            BspError::Transport(te) => match te.kind {
                crate::fault::TransportErrorKind::ChannelClosed => 1,
                _ => 2,
            },
            BspError::PeerFailed { .. } => 0,
        }
    }
    let mut fail: Option<BspError> = None;
    let note_failure = |err: BspError, fail: &mut Option<BspError>| {
        if fail
            .as_ref()
            .is_none_or(|cur| error_rank(&err) > error_rank(cur))
        {
            *fail = Some(err);
        }
    };
    let mut last_entered: Option<Instant> = None;
    let mut last_finished: Option<Instant> = None;
    let mut reusable: Vec<Ctx> = Vec::with_capacity(nprocs);
    let mut all_reset = true;
    for (pid, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            SlotOutcome::Done(ok) => {
                let ok = *ok;
                faults.add(&ok.fc);
                last_entered = Some(last_entered.map_or(ok.entered, |t| t.max(ok.entered)));
                last_finished = Some(last_finished.map_or(ok.finished, |t| t.max(ok.finished)));
                all_reset &= ok.reset_ok;
                reusable.push(ok.ctx);
                per_proc[pid] = Some(ok.res);
            }
            SlotOutcome::Fail { err, fc } => {
                faults.add(&fc);
                note_failure(err, &mut fail);
            }
        }
    }
    if let Some(err) = fail {
        // A failed run never reaches the arena: any endpoint may be
        // poisoned or mid-protocol, so its whole set is dropped here.
        return Err((err, faults));
    }

    let end = Instant::now();
    let wall = end.duration_since(start);
    // Clean run: hand the transport set back to the arena. When the gate
    // was armed, every slot already reset itself on its worker and the
    // park is a map probe and a push; if any endpoint declined (poisoned
    // barrier, mid-protocol channel), the set is dropped — rebuild, not
    // reuse. Without the gate, `release` does the serial reset here.
    if let Some(rt) = rt {
        if pre_reset {
            if all_reset {
                rt.park(cfg, reusable);
            }
        } else {
            rt.release(cfg, reusable);
        }
    }
    let mut results = Vec::with_capacity(nprocs);
    let mut logs = Vec::with_capacity(nprocs);
    let mut transport = Vec::with_capacity(nprocs);
    let mut traces: Vec<ProcTrace> = Vec::new();
    for slot in per_proc {
        let (r, log, counters, trace) = slot.unwrap();
        results.push(r);
        logs.push(log);
        transport.push(counters);
        if let Some(t) = trace {
            traces.push(*t);
        }
    }
    // Post-last-sync sends: each process's final partial LocalStep records
    // them. Reported as a structured diagnostic — the same path in debug
    // and release builds (this used to be a debug_assert that silently
    // vanished from release binaries).
    let mut undelivered_reports: Vec<CheckReport> = Vec::new();
    for (pid, log) in logs.iter().enumerate() {
        let Some(last) = log.last().filter(|l| l.sent > 0 || l.sent_bytes > 0) else {
            continue;
        };
        let step = log.len() - 1;
        let mut traffic = Vec::new();
        if last.sent > 0 {
            traffic.push(format!("{} packet(s)", last.sent));
        }
        if last.sent_bytes > 0 {
            traffic.push(format!("{} byte-lane byte(s)", last.sent_bytes));
        }
        let mut detail = format!(
            "{} sent after the program's last sync have no delivery \
             boundary and can never arrive",
            traffic.join(" and ")
        );
        if let Some(t) = traces.get(pid) {
            let sites: Vec<String> = t
                .sites
                .iter()
                .filter(|s| s.step == step)
                .map(|s| format!("{}:{} ({} pkt(s))", s.site.file(), s.site.line(), s.count))
                .collect();
            if !sites.is_empty() {
                detail.push_str(&format!("; send site(s): {}", sites.join(", ")));
            }
        }
        undelivered_reports.push(CheckReport {
            kind: CheckKind::UndeliveredSend,
            pid,
            step,
            related_step: None,
            detail,
        });
    }
    // Checked runs tolerate superstep misalignment in the merge — the
    // checker reports it as a diagnostic instead of panicking mid-collect.
    let mut stats = if cfg.check {
        RunStats::merge_lenient(nprocs, logs)
    } else {
        RunStats::merge(nprocs, logs)
    };
    stats.transport = transport;
    stats.faults = faults;
    // Pooled runs snapshot executor health so a job that rode out a worker
    // respawn can see it (see DESIGN.md §15).
    if let Some(rt) = rt {
        stats.pool = rt.pool_health();
    }
    // Launch/teardown split: the slowest slot's pickup bounds setup, its
    // finish bounds teardown. (`duration_since` saturates to zero, so a
    // clock oddity can't panic here.)
    stats.setup = last_entered
        .map(|t| t.duration_since(start))
        .unwrap_or_default();
    stats.teardown = last_finished
        .map(|t| end.duration_since(t))
        .unwrap_or_default();
    if let Some(shared) = &shared {
        stats.check_reports = check::analyze(&traces, &shared.sink);
        // Keep the raw traces: the plan analyzer rebuilds each process's
        // superstep skeleton from them (see `crate::analyze`).
        stats.proc_traces = traces;
    }
    stats.check_reports.extend(undelivered_reports);
    // Close the loop between the injector and the checker: a plan that
    // injected faults none of which any hardening layer noticed means the
    // fault landed on a lane the detection machinery is not observing.
    if cfg.fault_plan.is_some() && stats.faults.injected > 0 && stats.faults.detected == 0 {
        stats.check_reports.push(CheckReport {
            kind: CheckKind::FaultUndetected,
            pid: 0,
            step: 0,
            related_step: None,
            detail: format!(
                "{} fault(s) were injected but no hardening layer detected any of them",
                stats.faults.injected
            ),
        });
    }
    if stats.undelivered_pkts > 0 {
        eprintln!(
            "green-bsp warning: {} packet(s) sent after the last sync were never delivered",
            stats.undelivered_pkts
        );
    }
    if stats.undelivered_bytes > 0 {
        eprintln!(
            "green-bsp warning: {} byte-lane byte(s) sent after the last sync were never delivered",
            stats.undelivered_bytes
        );
    }
    Ok(RunOutput {
        results,
        stats,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn all_backends(p: usize) -> Vec<Config> {
        let mut v = vec![
            Config::new(p),
            Config::new(p).backend(BackendKind::MsgPass),
            Config::new(p).backend(BackendKind::TcpSim),
            Config::new(p).backend(BackendKind::SeqSim),
            Config::new(p).backend(BackendKind::NetSim(crate::backend::NetSimParams {
                g_us: 0.1,
                l_us: 1.0,
                l_neigh_us: 0.0,
                time_scale: 1.0,
            })),
        ];
        // Exercise every barrier with the shared backend too.
        for b in [
            BarrierKind::Flag,
            BarrierKind::Tree,
            BarrierKind::Dissemination,
        ] {
            v.push(Config::new(p).barrier(b));
        }
        v
    }

    /// A ring program: each proc passes a counter around the ring p times;
    /// final value must be pid + p (each hop adds 1).
    fn ring(cfg: &Config) {
        let p = cfg.nprocs;
        let out = run(cfg, |ctx| {
            let p = ctx.nprocs();
            let mut val = ctx.pid() as u64;
            for _ in 0..p {
                ctx.send_pkt((ctx.pid() + 1) % p, Packet::two_u64(val + 1, 0));
                ctx.sync();
                val = ctx.get_pkt().expect("ring packet").as_two_u64().0;
                assert!(ctx.get_pkt().is_none());
            }
            val
        });
        for (pid, &v) in out.results.iter().enumerate() {
            assert_eq!(v, pid as u64 + p as u64, "backend {:?}", cfg.backend);
        }
        assert_eq!(out.stats.s(), p as u64 + 1);
        assert_eq!(out.stats.h_total(), p as u64);
    }

    #[test]
    fn ring_on_all_backends() {
        for p in [1, 2, 3, 4, 8] {
            for cfg in all_backends(p) {
                ring(&cfg);
            }
        }
    }

    /// Total exchange with per-pair volume (i+j+1) packets; checks counts and
    /// payload sums on every backend.
    fn total_exchange(cfg: &Config) {
        let out = run(cfg, |ctx| {
            let p = ctx.nprocs();
            let me = ctx.pid();
            for dest in 0..p {
                let k = me + dest + 1;
                for i in 0..k {
                    ctx.send_pkt(dest, Packet::two_u64(me as u64, i as u64));
                }
            }
            ctx.sync();
            let mut count = 0u64;
            let mut src_sum = 0u64;
            while let Some(pkt) = ctx.get_pkt() {
                let (src, _) = pkt.as_two_u64();
                count += 1;
                src_sum += src;
            }
            (count, src_sum)
        });
        let p = cfg.nprocs;
        for (pid, &(count, src_sum)) in out.results.iter().enumerate() {
            let expect_count: u64 = (0..p).map(|src| (src + pid + 1) as u64).sum();
            let expect_sum: u64 = (0..p)
                .map(|src| (src as u64) * (src + pid + 1) as u64)
                .sum();
            assert_eq!(count, expect_count, "backend {:?}", cfg.backend);
            assert_eq!(src_sum, expect_sum, "backend {:?}", cfg.backend);
        }
    }

    #[test]
    fn total_exchange_on_all_backends() {
        for p in [1, 2, 5, 8] {
            for cfg in all_backends(p) {
                total_exchange(&cfg);
            }
        }
    }

    #[test]
    fn self_send_is_delivered() {
        for cfg in all_backends(3) {
            let out = run(&cfg, |ctx| {
                ctx.send_pkt(ctx.pid(), Packet::two_u64(42, 0));
                ctx.sync();
                ctx.get_pkt().unwrap().as_two_u64().0
            });
            assert!(out.results.iter().all(|&v| v == 42));
        }
    }

    #[test]
    fn unread_packets_are_discarded_at_sync() {
        let out = run(&Config::new(2), |ctx| {
            // Superstep 0: peer sends us 2 packets.
            ctx.send_pkt(1 - ctx.pid(), Packet::ZERO);
            ctx.send_pkt(1 - ctx.pid(), Packet::ZERO);
            ctx.sync();
            // Read only one, then sync again: the other must be gone.
            assert_eq!(ctx.pkts_remaining(), 2);
            let _ = ctx.get_pkt();
            ctx.sync();
            ctx.pkts_remaining()
        });
        assert_eq!(out.results, vec![0, 0]);
    }

    #[test]
    fn stats_count_supersteps_including_final() {
        // No syncs at all: S = 1 (the paper's 1-proc matmult has S = 1).
        let out = run(&Config::new(2), |_ctx| ());
        assert_eq!(out.stats.s(), 1);
        // Three syncs: S = 4.
        let out = run(&Config::new(2), |ctx| {
            ctx.sync();
            ctx.sync();
            ctx.sync();
        });
        assert_eq!(out.stats.s(), 4);
    }

    #[test]
    fn charged_work_units_are_recorded() {
        let out = run(&Config::new(2), |ctx| {
            ctx.charge(10 * (ctx.pid() as u64 + 1));
            ctx.sync();
            ctx.charge(5);
        });
        // step 0: w_units = max(10, 20) = 20; step 1: 5.
        assert_eq!(out.stats.w_units_total(), 25);
        assert_eq!(out.stats.total_work_units(), 10 + 20 + 5 + 5);
    }

    #[test]
    fn seqsim_and_shared_agree_on_h_and_s() {
        let prog = |ctx: &mut Ctx| {
            let p = ctx.nprocs();
            for step in 0..3 {
                for dest in 0..p {
                    for _ in 0..(ctx.pid() + step + 1) {
                        ctx.send_pkt(dest, Packet::ZERO);
                    }
                }
                ctx.sync();
                while ctx.get_pkt().is_some() {}
            }
        };
        let a = run(&Config::new(4), prog);
        let b = run(&Config::new(4).backend(BackendKind::SeqSim), prog);
        assert_eq!(a.stats.s(), b.stats.s());
        assert_eq!(a.stats.h_total(), b.stats.h_total());
        assert_eq!(a.stats.total_pkts(), b.stats.total_pkts());
    }

    #[test]
    fn large_volume_exceeding_chunk_size() {
        // Ten times the paper's 1000-packet chunk in one superstep: the
        // staging buffer takes it all and moves whole, in send order.
        let out = run(&Config::new(2), |ctx| {
            for i in 0..10_000u64 {
                ctx.send_pkt(1 - ctx.pid(), Packet::two_u64(i, 0));
            }
            ctx.sync();
            std::iter::from_fn(|| ctx.get_pkt())
                .map(|p| p.as_two_u64().0)
                .collect::<Vec<u64>>()
        });
        let expect: Vec<u64> = (0..10_000).collect();
        assert_eq!(out.results, vec![expect.clone(), expect]);
        // One deposit and one filled slot collected per process.
        let t = out.stats.transport_total();
        assert_eq!(
            (t.lock_acquisitions, t.pkts_moved),
            (2 * 2, 2 * 10_000),
            "{t:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_procs_rejected() {
        let _ = run(&Config::new(0), |_ctx| ());
    }

    #[test]
    fn undelivered_sends_are_surfaced_not_lost_silently() {
        let out = run(&Config::new(2), |ctx| {
            ctx.send_pkt(1 - ctx.pid(), Packet::ZERO);
            ctx.sync();
            while ctx.get_pkt().is_some() {}
            // Bug under test: sending after the last sync.
            ctx.send_pkt(1 - ctx.pid(), Packet::ZERO);
            ctx.send_pkt(1 - ctx.pid(), Packet::ZERO);
        });
        assert_eq!(out.stats.undelivered_pkts, 4);
        // A clean program reports zero.
        let clean = run(&Config::new(2), |ctx| ctx.sync());
        assert_eq!(clean.stats.undelivered_pkts, 0);
    }

    #[test]
    fn batch_send_matches_per_packet_send_on_all_backends() {
        for p in [1, 2, 4] {
            for cfg in all_backends(p) {
                let batched = run(&cfg, |ctx| {
                    let me = ctx.pid() as u64;
                    let pkts: Vec<Packet> = (0..2500).map(|i| Packet::two_u64(me, i)).collect();
                    for dest in 0..ctx.nprocs() {
                        ctx.send_pkts(dest, &pkts);
                    }
                    ctx.sync();
                    let mut seen: Vec<(u64, u64)> = Vec::new();
                    while let Some(pkt) = ctx.get_pkt() {
                        seen.push(pkt.as_two_u64());
                    }
                    seen
                });
                let looped = run(&cfg, |ctx| {
                    let me = ctx.pid() as u64;
                    for dest in 0..ctx.nprocs() {
                        for i in 0..2500 {
                            ctx.send_pkt(dest, Packet::two_u64(me, i));
                        }
                    }
                    ctx.sync();
                    let mut seen: Vec<(u64, u64)> = Vec::new();
                    while let Some(pkt) = ctx.get_pkt() {
                        seen.push(pkt.as_two_u64());
                    }
                    seen
                });
                assert_eq!(batched.results, looped.results, "backend {:?}", cfg.backend);
                assert_eq!(batched.stats.h_total(), looped.stats.h_total());
            }
        }
    }

    #[test]
    fn byte_lane_roundtrips_on_all_backends() {
        for p in [1, 2, 3, 4, 8] {
            for cfg in all_backends(p) {
                let out = run(&cfg, |ctx| {
                    let p = ctx.nprocs();
                    let me = ctx.pid();
                    // Variable-length messages, including an empty one, to
                    // every destination (self included).
                    for dest in 0..p {
                        let payload: Vec<u8> =
                            (0..(me * 37 + dest * 11) % 97).map(|i| i as u8).collect();
                        ctx.send_bytes(dest, &payload);
                        ctx.send_bytes(dest, &[]);
                    }
                    ctx.sync();
                    let mut got: Vec<(usize, Vec<u8>)> = Vec::new();
                    while let Some((src, payload)) = ctx.recv_bytes() {
                        got.push((src, payload.to_vec()));
                    }
                    assert_eq!(ctx.bytes_remaining(), 0);
                    got.sort();
                    got
                });
                for (pid, got) in out.results.iter().enumerate() {
                    let mut expect: Vec<(usize, Vec<u8>)> = (0..p)
                        .flat_map(|src| {
                            let payload: Vec<u8> =
                                (0..(src * 37 + pid * 11) % 97).map(|i| i as u8).collect();
                            [(src, payload), (src, Vec::new())]
                        })
                        .collect();
                    expect.sort();
                    assert_eq!(
                        got, &expect,
                        "backend {:?} p={} pid={}",
                        cfg.backend, p, pid
                    );
                }
                assert!(out.stats.h_bytes_total() > 0);
            }
        }
    }

    #[test]
    fn msg_writer_matches_send_bytes() {
        for cfg in all_backends(3) {
            let out = run(&cfg, |ctx| {
                let me = ctx.pid() as u64;
                let next = (ctx.pid() + 1) % ctx.nprocs();
                {
                    let mut w = ctx.msg_writer(next);
                    assert!(w.is_empty());
                    w.put_u32(0xDEAD_BEEF);
                    w.put_u64(me);
                    w.put_f64(2.5);
                    assert_eq!(w.len(), 4 + 8 + 8);
                }
                ctx.sync();
                let (src, payload) = ctx.recv_bytes().expect("one message");
                let v = u32::from_le_bytes(payload[0..4].try_into().unwrap());
                let s = u64::from_le_bytes(payload[4..12].try_into().unwrap());
                let f = f64::from_le_bytes(payload[12..20].try_into().unwrap());
                assert_eq!(v, 0xDEAD_BEEF);
                assert_eq!(s, src as u64);
                assert_eq!(f, 2.5);
                assert!(ctx.recv_bytes().is_none());
                src
            });
            for (pid, &src) in out.results.iter().enumerate() {
                assert_eq!(src, (pid + 2) % 3, "backend {:?}", cfg.backend);
            }
        }
    }

    #[test]
    fn unread_byte_messages_are_discarded_at_sync() {
        let out = run(&Config::new(2), |ctx| {
            ctx.send_bytes(1 - ctx.pid(), &[1, 2, 3]);
            ctx.send_bytes(1 - ctx.pid(), &[4, 5]);
            ctx.sync();
            assert!(ctx.bytes_remaining() > 0);
            let _ = ctx.recv_bytes(); // read only one
            ctx.sync();
            ctx.bytes_remaining()
        });
        assert_eq!(out.results, vec![0, 0]);
    }

    #[test]
    fn undelivered_byte_sends_are_surfaced() {
        let out = run(&Config::new(2), |ctx| {
            ctx.sync();
            // Bug under test: byte-lane send after the last sync.
            ctx.send_bytes(1 - ctx.pid(), &[9; 10]);
        });
        // 2 procs × (8-byte header + 10 payload bytes).
        assert_eq!(out.stats.undelivered_bytes, 2 * 18);
        assert!(out
            .stats
            .check_reports
            .iter()
            .any(|r| r.kind == CheckKind::UndeliveredSend && r.detail.contains("byte-lane")));
    }

    #[test]
    fn checked_byte_lane_run_is_clean() {
        for p in [2, 4] {
            let out = run(&Config::new(p).checked(), |ctx| {
                for dest in 0..ctx.nprocs() {
                    ctx.send_bytes(dest, &[7; 33]);
                }
                ctx.sync();
                while ctx.recv_bytes().is_some() {}
                ctx.sync();
            });
            assert!(
                out.stats.check_reports.is_empty(),
                "{:?}",
                out.stats.check_reports
            );
        }
    }
}

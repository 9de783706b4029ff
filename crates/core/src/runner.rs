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
use std::ops::{ControlFlow, Deref};
use std::panic::AssertUnwindSafe;
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
    /// and a per-(superstep, destination, source) delivery digest on both
    /// lanes. Diagnostics land in [`RunStats::check_reports`].
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
    let tol = cfg.tolerance.as_ref();
    let bare: Vec<Box<dyn ProcTransport>> = match cfg.backend {
        BackendKind::Shared => {
            let st = SharedState::new(p, cfg.barrier.build(p), cfg.sync_graph.clone());
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
            let shared = SharedState::new(p, cfg.barrier.build(p), cfg.sync_graph.clone());
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

/// The full job pipeline on the caller's thread: the checkpoint-rollback
/// loop over blocking incarnations ([`run_once`]). With a runtime, process
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
    let mut rec = Recovery::new(cfg);
    let mut restored = no_blobs(cfg.nprocs);
    loop {
        match rec.next(cfg.nprocs, run_once(rt, cfg, f, &rec, restored)) {
            ControlFlow::Break(res) => return res,
            ControlFlow::Continue(blobs) => restored = blobs,
        }
    }
}

/// Resolves a submitted job's handle with its result.
pub(crate) type Finish<R> = Box<dyn FnOnce(Result<RunOutput<R>, BspError>) + Send>;

/// Launch a submitted job and return at once. The first incarnation is
/// built on the calling thread; each incarnation's merge, arena reset,
/// rollback decision, relaunch and the final `finish` run on the thread
/// that fills its board's last slot. No thread blocks on the job.
pub(crate) fn submit_pipeline<F, R>(rt: &exec::Runtime, cfg: Config, f: F, finish: Finish<R>)
where
    F: Fn(&mut Ctx) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    let restored = no_blobs(cfg.nprocs);
    Submitted {
        rt: rt.clone(),
        rec: Recovery::new(&cfg),
        cfg,
        f: Arc::new(f),
        finish,
    }
    .launch(restored);
}

/// A submitted job between incarnations: everything its board completion
/// needs to settle one incarnation and start the next.
struct Submitted<F, R> {
    rt: exec::Runtime,
    cfg: Config,
    f: Arc<F>,
    rec: Recovery,
    finish: Finish<R>,
}

impl<F, R> Submitted<F, R>
where
    F: Fn(&mut Ctx) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    /// Build an incarnation and enqueue its slice. Never waits: `execute`
    /// only enqueues, so a relaunch issued on a worker of a pool exactly
    /// `p` wide is admitted once that worker returns to its loop.
    fn launch(self, restored: Vec<Option<Vec<u8>>>) {
        let prepared = std::panic::catch_unwind(AssertUnwindSafe(|| {
            prepare(Some(&self.rt), &self.cfg, self.rec.fstate.as_ref())
        }));
        let (launch, ctxs) = match prepared {
            Ok(prepared) => prepared,
            Err(payload) => return (self.finish)(Err(payload_to_error(0, payload))),
        };
        let nprocs = self.cfg.nprocs;
        let board = exec::Board::new(nprocs);
        let tasks = slot_tasks(
            &launch,
            ctxs,
            Arc::clone(&self.f),
            self.rec.ckpt.as_ref(),
            restored,
            &board,
        );
        let abort = shutdown_fill(&board, nprocs);
        let rt = self.rt.clone();
        board.then(Box::new(move |outcomes| self.settle(launch, outcomes)));
        rt.execute(tasks, abort);
    }

    /// The board's completion: merge the incarnation, then resolve the job
    /// or relaunch it. A panic in the merge resolves the handle with an
    /// error instead of escaping onto the worker.
    fn settle(mut self, launch: Launch, outcomes: Vec<Option<SlotOutcome<R>>>) {
        let next = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let res = collect(Some(&self.rt), &self.cfg, launch, outcomes);
            self.rec.next(self.cfg.nprocs, res)
        }))
        .unwrap_or_else(|payload| ControlFlow::Break(Err(payload_to_error(0, payload))));
        match next {
            ControlFlow::Break(res) => (self.finish)(res),
            ControlFlow::Continue(restored) => self.launch(restored),
        }
    }
}

/// No checkpoint to resume from, for any of `nprocs` processes.
fn no_blobs(nprocs: usize) -> Vec<Option<Vec<u8>>> {
    (0..nprocs).map(|_| None).collect()
}

/// What a job does once an incarnation has settled: stop with its result,
/// or run again, each process resuming from its blob (none: from scratch).
type Next<R> = ControlFlow<Result<RunOutput<R>, BspError>, Vec<Option<Vec<u8>>>>;

/// A job's fault and rollback state across its incarnations.
struct Recovery {
    /// Fired-event state, shared across incarnations so a transient fault
    /// injected before a rollback does not re-fire after it.
    fstate: Option<Arc<FaultState>>,
    /// Checkpoint interval and store, under a checkpoint policy.
    ckpt: Option<(usize, Arc<CheckpointStore>)>,
    max_rollbacks: u64,
    rolled_back: u64,
    /// Fault counters of the failed incarnations.
    carried: FaultCounters,
    recover_from: Option<Instant>,
}

impl Recovery {
    fn new(cfg: &Config) -> Recovery {
        let tol = cfg.tolerance.as_ref();
        let store = || Arc::new(CheckpointStore::new(cfg.nprocs));
        Recovery {
            fstate: cfg
                .fault_plan
                .as_ref()
                .map(|p| Arc::new(FaultState::new(p.events.len()))),
            ckpt: tol
                .and_then(|t| t.checkpoint)
                .map(|c| (c.every_supersteps, store())),
            max_rollbacks: tol.map_or(0, |t| u64::from(t.max_rollbacks)),
            rolled_back: 0,
            carried: FaultCounters::default(),
            recover_from: None,
        }
    }

    /// The one rollback rule: carry a failed incarnation's counters, never
    /// roll back a terminal error, spend the rollback budget, and resume
    /// from the newest checkpoint consistent across all processes.
    fn next<R>(
        &mut self,
        nprocs: usize,
        res: Result<RunOutput<R>, (BspError, FaultCounters)>,
    ) -> Next<R> {
        let (err, fc) = match res {
            Ok(mut out) => {
                out.stats.faults.add(&self.carried);
                out.stats.faults.rolled_back += self.rolled_back;
                if let Some(t0) = self.recover_from {
                    out.stats.faults.recovery_ms += t0.elapsed().as_millis() as u64;
                }
                return ControlFlow::Break(Ok(out));
            }
            Err(failed) => failed,
        };
        // Keep the failed incarnation's counters: its detections and
        // retries are part of the run's fault history.
        self.carried.add(&fc);
        // Deliberate terminations are never rolled back: a cancelled or
        // overdue job must unwind immediately, and a shut-down runtime has
        // no pool to re-run on.
        let terminal = matches!(
            err,
            BspError::Cancelled { .. }
                | BspError::DeadlineExceeded { .. }
                | BspError::RuntimeShutdown
        );
        let Some((_, store)) = self
            .ckpt
            .as_ref()
            .filter(|_| !terminal && self.rolled_back < self.max_rollbacks)
        else {
            return ControlFlow::Break(Err(err));
        };
        self.recover_from.get_or_insert_with(Instant::now);
        self.rolled_back += 1;
        let mut restored = no_blobs(nprocs);
        if let Some(cs) = store.consistent_step() {
            // Roll every process back to the newest superstep all of them
            // snapshotted; later snapshots are discarded.
            store.prune_above(cs);
            for (pid, slot) in restored.iter_mut().enumerate() {
                *slot = store.blob(pid, cs);
            }
        }
        // No consistent cut yet: re-run from scratch (restored stays
        // all-None). Deterministic apps still converge to bit-identical
        // output.
        ControlFlow::Continue(restored)
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
}

enum SlotOutcome<R> {
    /// Boxed: a `Ctx` rides along, and the Fail arm should stay small.
    Done(Box<SlotOk<R>>),
    Fail {
        err: BspError,
        fc: FaultCounters,
    },
}

/// The body of one process slot, identical on the pooled and the
/// spawn-per-run path: attach per-run checker/checkpoint state, run the
/// user function, and package the outcome.
///
/// `entered` is stamped at pickup, *before* `Ctx::begin` — so a seqsim
/// process parked waiting for the baton charges that wait to the run, not
/// to launch setup — and `finished` after `finalize`, so
/// `max(finished)..collect` is pure teardown: merge and arena reset.
fn slot_body<R, F>(
    pid: usize,
    mut ctx: Ctx,
    f: &F,
    shared: Option<Arc<CheckShared>>,
    ckpt: Option<(usize, Arc<CheckpointStore>)>,
    blob: Option<Vec<u8>>,
) -> SlotOutcome<R>
where
    F: Fn(&mut Ctx) -> R + Sync + ?Sized,
{
    let entered = Instant::now();
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
            SlotOutcome::Done(Box::new(SlotOk {
                res: (r, log, counters, trace),
                fc,
                ctx,
                entered,
                finished,
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

/// One incarnation's launch-side state, carried from [`prepare`] to
/// [`collect`].
struct Launch {
    /// Admission (for a submitted job's first incarnation, the submit):
    /// `wall`, `setup` and `queue_wait` count from here.
    start: Instant,
    shared: Option<Arc<CheckShared>>,
}

/// Open an incarnation: lease or build the transport fabric and stamp the
/// per-run state on every slot.
fn prepare(
    rt: Option<&exec::Runtime>,
    cfg: &Config,
    fstate: Option<&Arc<FaultState>>,
) -> (Launch, Vec<Ctx>) {
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
    // Cancellable runs: stamp the control token on every slot (an `Arc`
    // clone, so the warm path stays allocation-free; plain runs skip the
    // loop entirely and their boundary checks stay token-free).
    if cfg.control.is_some() {
        for ctx in &mut ctxs {
            ctx.control = cfg.control.clone();
        }
    }
    (Launch { start, shared }, ctxs)
}

/// The incarnation's slot tasks: each runs [`slot_body`] and fills its
/// board slot. The outer catch guarantees the fill even if the runner
/// itself bugs out, so the board always completes.
fn slot_tasks<'a, R, P>(
    launch: &Launch,
    ctxs: Vec<Ctx>,
    f: P,
    ckpt: Option<&(usize, Arc<CheckpointStore>)>,
    restored: Vec<Option<Vec<u8>>>,
    board: &Arc<exec::Board<SlotOutcome<R>>>,
) -> Vec<Box<dyn FnOnce() + Send + 'a>>
where
    R: Send + 'a,
    P: Deref + Clone + Send + 'a,
    P::Target: Fn(&mut Ctx) -> R + Sync,
{
    ctxs.into_iter()
        .zip(restored)
        .enumerate()
        .map(|(pid, (ctx, blob))| {
            debug_assert_eq!(ctx.pid(), pid, "arena set out of pid order");
            let (f, shared, ckpt) = (f.clone(), launch.shared.clone(), ckpt.cloned());
            let board = Arc::clone(board);
            Box::new(move || {
                let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    slot_body(pid, ctx, &*f, shared, ckpt, blob)
                }))
                .unwrap_or_else(|payload| SlotOutcome::Fail {
                    err: payload_to_error(pid, payload),
                    fc: FaultCounters::default(),
                });
                board.fill(pid, out);
            }) as Box<dyn FnOnce() + Send + 'a>
        })
        .collect()
}

/// What a queued slice runs instead of its tasks when the runtime shuts
/// down: every slot fails with [`BspError::RuntimeShutdown`], so the board
/// completes and its job settles instead of hanging.
fn shutdown_fill<'a, R: Send + 'a>(
    board: &Arc<exec::Board<SlotOutcome<R>>>,
    nprocs: usize,
) -> Box<dyn FnOnce() + Send + 'a> {
    let board = Arc::clone(board);
    Box::new(move || {
        for pid in 0..nprocs {
            board.fill(
                pid,
                SlotOutcome::Fail {
                    err: BspError::RuntimeShutdown,
                    fc: FaultCounters::default(),
                },
            );
        }
    })
}

/// One blocking incarnation: launch every process slot (on the runtime's
/// worker pool when one is given, otherwise on freshly spawned scoped
/// threads), wait for the board, merge.
fn run_once<R>(
    rt: Option<&exec::Runtime>,
    cfg: &Config,
    f: &(dyn Fn(&mut Ctx) -> R + Sync),
    rec: &Recovery,
    restored: Vec<Option<Vec<u8>>>,
) -> Result<RunOutput<R>, (BspError, FaultCounters)>
where
    R: Send,
{
    let (launch, ctxs) = prepare(rt, cfg, rec.fstate.as_ref());
    let board = exec::Board::new(cfg.nprocs);
    let tasks = slot_tasks(&launch, ctxs, f, rec.ckpt.as_ref(), restored, &board);
    match rt {
        Some(rt) => {
            // SAFETY: `board.wait_take()` below returns only after every
            // task has filled its slot, i.e. run to completion, or after
            // the abort filled them all in their stead; the borrow the
            // tasks capture (`f`) outlives that point, and the abort
            // captures only an `Arc` of the board.
            let tasks = tasks
                .into_iter()
                .map(|t| unsafe { exec::erase_task(t) })
                .collect();
            // SAFETY: as for the tasks.
            let abort = unsafe { exec::erase_task(shutdown_fill(&board, cfg.nprocs)) };
            rt.execute(tasks, abort);
        }
        // Unpooled: the original spawn-per-run strategy.
        None => std::thread::scope(|s| {
            for task in tasks {
                s.spawn(task);
            }
        }),
    }
    collect(rt, cfg, launch, board.wait_take())
}

/// Merge one incarnation's slot outcomes. A process failure yields the
/// primary error plus the fault counters gathered before death; a clean
/// pooled run resets its transport set into the arena (the arena's one
/// reset site) and returns the results with merged statistics.
fn collect<R>(
    rt: Option<&exec::Runtime>,
    cfg: &Config,
    launch: Launch,
    outcomes: Vec<Option<SlotOutcome<R>>>,
) -> Result<RunOutput<R>, (BspError, FaultCounters)> {
    let nprocs = cfg.nprocs;
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
    let mut first_entered: Option<Instant> = None;
    let mut last_entered: Option<Instant> = None;
    let mut last_finished: Option<Instant> = None;
    let mut reusable: Vec<Ctx> = Vec::with_capacity(nprocs);
    // Filled in pid order: the board hands its slots back that way, and a
    // run with any failed slot returns before these are read.
    let mut results = Vec::with_capacity(nprocs);
    let mut logs = Vec::with_capacity(nprocs);
    let mut transport = Vec::with_capacity(nprocs);
    let mut traces: Vec<ProcTrace> = Vec::new();
    for outcome in outcomes {
        match outcome.expect("a board completes only once every slot is filled") {
            SlotOutcome::Done(ok) => {
                let ok = *ok;
                faults.add(&ok.fc);
                first_entered = Some(first_entered.map_or(ok.entered, |t| t.min(ok.entered)));
                last_entered = Some(last_entered.map_or(ok.entered, |t| t.max(ok.entered)));
                last_finished = Some(last_finished.map_or(ok.finished, |t| t.max(ok.finished)));
                reusable.push(ok.ctx);
                let (r, log, counters, trace) = ok.res;
                results.push(r);
                logs.push(log);
                transport.push(counters);
                traces.extend(trace.map(|t| *t));
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

    // Clean run: reset the transport set and hand it back to the arena
    // (`Runtime::release`; a set with a declining endpoint is dropped).
    // The clock stops after it, so `wall` and `teardown` include the reset.
    if let Some(rt) = rt {
        rt.release(cfg, reusable);
    }
    let end = Instant::now();
    let wall = end.duration_since(launch.start);
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
    // The wait behind other jobs: admission to the first slot picked up
    // by a worker.
    if let Some(rt) = rt {
        stats.pool = rt.pool_health();
        stats.queue_wait = first_entered
            .map(|t| t.duration_since(launch.start))
            .unwrap_or_default();
    }
    // Launch/teardown split: the slowest slot's pickup bounds setup, its
    // finish bounds teardown. (`duration_since` saturates to zero, so a
    // clock oddity can't panic here.)
    stats.setup = last_entered
        .map(|t| t.duration_since(launch.start))
        .unwrap_or_default();
    stats.teardown = last_finished
        .map(|t| end.duration_since(t))
        .unwrap_or_default();
    if let Some(shared) = &launch.shared {
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

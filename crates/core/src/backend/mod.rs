//! The library implementations. A transport is an exchange schedule and
//! nothing else: staging, the boundary's mode and the sync-graph discipline
//! all live in [`crate::Ctx`], which hands every transport whole batches and
//! tells it, per boundary, which rendezvous to run.
//!
//! * [`shared`] — the SGI Challenge shared-memory version (Appendix B.1):
//!   double-buffered input buffers, chunked lock amortization, explicit
//!   barrier at superstep boundaries.
//! * [`channel`] — a distinct output buffer per pair of processes, traded
//!   over per-pair pipes at the boundary, where synchronization is implicit
//!   in the trade. One transport, two schedules: the NEC Cenju MPI
//!   version's all-to-all ([`BackendKind::MsgPass`], Appendix B.2), and the
//!   PC-LAN TCP version's precomputed `p − 1`-stage pairwise total exchange
//!   ([`BackendKind::TcpSim`], Appendix B.3), which is what prevented
//!   deadlock over blocking TCP.
//! * [`seqsim`] — the single-processor simulation the paper used to measure
//!   work depth `W` and total work: the same program, with logical processes
//!   executed one at a time.
//! * [`netsim`] — a machine emulator that injects the modelled `g·h + L`
//!   superstep delay of a target platform (the substitution for the paper's
//!   physical testbeds; see DESIGN.md §2).

pub(crate) mod channel;
pub(crate) mod netsim;
pub(crate) mod seqsim;
pub(crate) mod shared;

/// Which library implementation to run a program on.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum BackendKind {
    /// Shared-memory version (default): direct writes into the destination's
    /// double-buffered input buffer, plus an explicit barrier.
    #[default]
    Shared,
    /// Message-passing version: per-pair buffers exchanged at the boundary.
    MsgPass,
    /// Staged pairwise total-exchange version (the TCP discipline).
    TcpSim,
    /// Deterministic single-processor simulation (for `W` / total work).
    SeqSim,
    /// Shared-memory execution plus injected per-superstep delays emulating
    /// a machine with the given BSP parameters.
    NetSim(NetSimParams),
}

/// Delay model for [`BackendKind::NetSim`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetSimParams {
    /// Gap: microseconds per 16-byte packet.
    pub g_us: f64,
    /// Latency: microseconds per superstep.
    pub l_us: f64,
    /// Latency charged at a *neighborhood* boundary (see
    /// [`crate::SyncMode::Neighborhood`]). `0.0` means "derive it": a
    /// pairwise rendezvous costs roughly `L · (1 + max_degree) / p`, the
    /// fraction of the full barrier's fan-in a processor actually waits on.
    pub l_neigh_us: f64,
    /// Multiplier applied to the injected delay (use `< 1.0` to fast-forward
    /// an emulation, `1.0` for real-time).
    pub time_scale: f64,
}

impl NetSimParams {
    /// Emulate `machine` at `nprocs` processors in real time.
    pub fn for_machine(machine: &crate::machine::Machine, nprocs: usize) -> Self {
        let (g_us, l_us) = machine.g_l(nprocs);
        NetSimParams {
            g_us,
            l_us,
            l_neigh_us: 0.0,
            time_scale: 1.0,
        }
    }

    /// Scale the injected delays by `scale`.
    pub fn scaled(mut self, scale: f64) -> Self {
        self.time_scale = scale;
        self
    }

    /// Set the latency charged at neighborhood boundaries explicitly.
    pub fn neigh_latency(mut self, l_neigh_us: f64) -> Self {
        self.l_neigh_us = l_neigh_us;
        self
    }
}

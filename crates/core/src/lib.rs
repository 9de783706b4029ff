//! # Green BSP — a bulk-synchronous parallel runtime
//!
//! Rust reproduction of the *Green BSP library* from Goudreau, Lang, Rao,
//! Suel, and Tsantilas, **"Towards Efficiency and Portability: Programming
//! with the BSP Model"**, SPAA 1996.
//!
//! In the BSP model a parallel machine is a set of processors with private
//! memories and a network routing fixed-size packets. Computation proceeds
//! in *supersteps*: in each superstep a processor computes on local data,
//! sends packets, and receives the packets sent to it in the *previous*
//! superstep; supersteps are separated by a global synchronization. A
//! program with work depth `W`, summed h-relations `H`, and `S` supersteps
//! runs in time `W + gH + LS` on a machine with gap `g` and latency `L`
//! (Equation (1) of the paper).
//!
//! The library deliberately offers only one communication and one
//! synchronization operation — [`Ctx::send_pkt`], [`Ctx::get_pkt`],
//! [`Ctx::sync`] — mirroring the paper's minimalist design, plus a
//! *byte lane* ([`Ctx::send_bytes`] / [`Ctx::recv_bytes`]) that carries
//! variable-length messages without 16-byte fragmentation: a message is
//! copied once, into a per-destination buffer, and that buffer moves to
//! the receiver at the boundary (DESIGN.md §9). Everything else
//! ([`collectives`], the [`message`] shims) is built on top.
//!
//! ## Quick start
//!
//! ```
//! use green_bsp::{run, Config, Packet, collectives};
//!
//! // Estimate π by summing per-process partial integrals with a one-
//! // superstep all-reduce.
//! let out = run(&Config::new(4), |ctx| {
//!     let (pid, p, n) = (ctx.pid(), ctx.nprocs(), 10_000);
//!     let mut local = 0.0;
//!     for i in (pid..n).step_by(p) {
//!         let x = (i as f64 + 0.5) / n as f64;
//!         local += 4.0 / (1.0 + x * x) / n as f64;
//!     }
//!     collectives::allreduce_f64(ctx, local, |a, b| a + b)
//! });
//! assert!((out.results[0] - std::f64::consts::PI).abs() < 1e-6);
//! println!("S = {}, H = {}", out.stats.s(), out.stats.h_total());
//! ```
//!
//! ## Library implementations
//!
//! Like the paper, the same API runs on several "platforms": a
//! shared-memory version with double-buffered input buffers and chunked
//! locking, a message-passing version with per-pair buffers, a staged
//! pairwise total-exchange version (the TCP discipline), a deterministic
//! single-processor simulator for measuring work depth, and a machine
//! emulator that injects modelled `g·h + L` delays. See [`backend`].
//!
//! ## Cost model
//!
//! [`machine`] holds the paper's measured `(g, L)` tables for its three
//! platforms (Figure 2.1) and [`cost`] evaluates Equation (1), so measured
//! statistics ([`RunStats`]) can be turned into the paper's predicted-time
//! columns.
//!
//! ## Checking
//!
//! The BSP contract (packet lifetimes, superstep congruence, DRMA conflict
//! freedom) is implicit in the paper's library — misuse silently corrupts
//! results. [`check`] turns those rules into machine-checked diagnostics:
//! enable it with [`Config::checked`] and read the structured
//! [`CheckReport`]s from [`RunStats::check_reports`].

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod analyze;
pub mod backend;
pub mod barrier;
pub mod check;
pub mod collectives;
pub mod context;
pub mod cost;
pub(crate) mod digest;
pub mod drma;
pub mod exec;
pub mod fault;
pub mod machine;
pub mod message;
pub mod packet;
pub mod pad;
pub mod relax;
pub mod runner;
pub mod stats;
pub mod stream;
pub(crate) mod sync_shim;
pub mod tune;

// Loom-gated exhaustive interleaving tests for the synchronization core. A unit
// (not integration) test module because it drives the pub(crate) grid,
// barriers and rendezvous directly. Selected by the CI `analysis` job via
// `RUSTFLAGS="--cfg loom" cargo test -p green-bsp --lib loom_`.
#[cfg(all(test, loom))]
mod loom_tests;

pub use analyze::{lint, PlanBoundary, PlanReport, PlanStep};
pub use backend::{BackendKind, NetSimParams};
pub use barrier::BarrierKind;
pub use check::{CheckKind, CheckReport, CollectiveKind, TrackedPkt};
pub use context::{Ctx, MsgWriter, MSG_HDR};
pub use cost::{
    cal_cache_stats, calibrate, calibrate_at, calibrate_with, l_neigh_us, predict,
    predict_from_stats, try_calibrate_with, CalCacheStats, Calibration, Prediction,
};
pub use exec::{global, CancelToken, JobHandle, PoolHealth, Runtime};
pub use fault::{
    BspError, CheckpointPolicy, FaultCounters, FaultEvent, FaultKind, FaultPlan, FaultTolerance,
    TransportError, TransportErrorKind,
};
pub use machine::{Machine, CENJU, PAPER_MACHINES, PC_LAN, SGI};
pub use packet::{Packet, PACKET_SIZE};
pub use relax::{NeighborSync, SyncGraph, SyncMode};
pub use runner::{run, run_unpooled, try_run, Config, RunOutput};
pub use stats::{LocalStep, RunStats, StepStats};
pub use stream::{
    run_stream, run_stream_with, StreamConfig, StreamError, StreamRun, TileMeta, TileStore,
};
pub use tune::{Candidate, ErrorStat, HProfile, TuneOpts, TunePlan};

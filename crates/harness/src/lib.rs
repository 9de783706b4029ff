//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation from our implementations.
//!
//! The pipeline per experiment point is the paper's own (§3 and DESIGN.md
//! §2): run the application on the shared-memory backend (exact `H` and
//! `S`, host wall time), run it on the single-processor simulation backend
//! (clean work depth `W` and total work), then evaluate Equation (1) with
//! each target machine's `(g, L)` from Figure 2.1 and a per-(app, machine)
//! compute-scale calibrated against the paper's 1-processor times.
//!
//! The `report` binary prints any figure: `report fig2_1`, `report c4`,
//! `report all`, with `--full` for the paper's complete problem sizes.

pub mod ablate;
pub mod apps;
pub mod autotune;
pub mod lint;
pub mod measure;
pub mod oracle;
pub mod paper;
pub mod sync_bench;
pub mod tables;

pub use apps::{execute, h_profile, prepare, App, Program, Variant, Workload};
pub use measure::{measure, sweep, Measurement, Sweep};

use green_bsp::{BackendKind, NetSimParams};

/// The canonical backend list: the backend axis of the identity matrix
/// behind `report check` / `report faults` ([`oracle`]) and of the
/// cross-backend integration tests. Order matters: the first four are the
/// deterministic transports; NetSim sits last with zeroed `g`/`L`/
/// `time_scale` so sweeps measure its bookkeeping, not injected model
/// delays (sweeps that want real delays build their own `NetSimParams`).
pub const ALL_BACKENDS: [(&str, BackendKind); 5] = [
    ("shared", BackendKind::Shared),
    ("msgpass", BackendKind::MsgPass),
    ("tcpsim", BackendKind::TcpSim),
    ("seqsim", BackendKind::SeqSim),
    (
        "netsim",
        BackendKind::NetSim(NetSimParams {
            g_us: 0.0,
            l_us: 0.0,
            l_neigh_us: 0.0,
            time_scale: 0.0,
        }),
    ),
];

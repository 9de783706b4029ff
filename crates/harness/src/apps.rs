//! Uniform driver for the six applications: workload preparation (input
//! generation and partitioning, which the paper treats as given), one BSP
//! program per application, and the hand-written variants the correctness
//! sweeps run beside them.

use crate::paper::PaperRow;
use bsp_graph::{build_locals, geometric_graph, msp_run, mst_run, partition_kd, sp_run, Graph};
use bsp_matmul::{cannon_run, skewed_blocks, Mat};
use bsp_nbody::{initial_partition, nbody_sim_with, plummer, Body, OrbTree, SimConfig};
use bsp_ocean::grid::ghost_graph;
use bsp_ocean::{exchange_ghosts_with, ocean_run, CycleMode, Hierarchy, MgParams, OceanConfig};
use bsp_sort::sample_sort_mode;
use green_bsp::{run, BackendKind, Config, Ctx, RunStats};
use std::sync::Arc;
use std::time::Duration;

/// The six applications of §3, in the paper's presentation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum App {
    /// §3.1 ocean eddy simulation.
    Ocean,
    /// §3.2 Barnes-Hut N-body.
    Nbody,
    /// §3.3 minimum spanning tree.
    Mst,
    /// §3.4 single-source shortest paths.
    Sp,
    /// §3.5 multiple shortest paths (25 sources).
    Msp,
    /// §3.6 dense matrix multiplication.
    Matmult,
}

/// Deterministic workload seed shared by all experiments.
pub const SEED: u64 = 9_601_996; // SPAA 1996

/// The paper's 25 simultaneous sources for MSP.
pub const MSP_SOURCES: usize = 25;

/// A BSP program whose every process returns a 64-bit digest of its full
/// output bits (positions, distance labels, matrix entries, the ψ block),
/// so a sweep can demand bit-identical results, not a matching scalar. It
/// owns its partitioned input, so one program serves any number of runs,
/// blocking or submitted.
pub type Program = Arc<dyn Fn(&mut Ctx) -> u64 + Send + Sync>;

impl App {
    /// All six applications.
    pub const ALL: [App; 6] = [
        App::Ocean,
        App::Nbody,
        App::Mst,
        App::Sp,
        App::Msp,
        App::Matmult,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            App::Ocean => "ocean",
            App::Nbody => "nbody",
            App::Mst => "mst",
            App::Sp => "sp",
            App::Msp => "msp",
            App::Matmult => "matmult",
        }
    }

    /// Parse a name.
    pub fn from_name(s: &str) -> Option<App> {
        App::ALL.iter().copied().find(|a| a.name() == s)
    }

    /// The paper's Appendix C table for this application.
    pub fn paper_table(self) -> &'static [PaperRow] {
        match self {
            App::Ocean => crate::paper::OCEAN,
            App::Nbody => crate::paper::NBODY,
            App::Mst => crate::paper::MST,
            App::Sp => crate::paper::SP,
            App::Msp => crate::paper::MSP,
            App::Matmult => crate::paper::MATMULT,
        }
    }

    /// Problem sizes the paper ran.
    pub fn paper_sizes(self) -> &'static [usize] {
        match self {
            App::Ocean => &[66, 130, 258, 514],
            App::Nbody => &[1_000, 4_000, 16_000, 64_000, 256_000],
            App::Mst | App::Sp | App::Msp => &[2_500, 10_000, 40_000],
            App::Matmult => &[144, 288, 432, 576],
        }
    }

    /// Reduced sizes for quick runs.
    pub fn quick_sizes(self) -> &'static [usize] {
        match self {
            App::Ocean => &[66, 130],
            App::Nbody => &[1_000, 4_000, 16_000],
            App::Mst | App::Sp | App::Msp => &[2_500, 10_000],
            App::Matmult => &[144, 288],
        }
    }

    /// Problem size for the correctness sweeps (`report check`, `faults`,
    /// `lint`): the smallest that still exercises every superstep pattern,
    /// because checked, hardened and faulted runs pay for it many times
    /// over; with `full`, the first quick size.
    pub fn sweep_size(self, full: bool) -> usize {
        if full {
            return self.quick_sizes()[0];
        }
        match self {
            App::Ocean => 34,
            App::Nbody => 500,
            App::Matmult => 48,
            _ => 400,
        }
    }

    /// Processor counts the paper swept for this application.
    pub fn procs(self) -> &'static [usize] {
        match self {
            App::Matmult => &[1, 4, 9, 16],
            _ => &[1, 2, 4, 8, 16],
        }
    }

    /// The large size used in Figures 3.1 / 3.2.
    pub fn headline_size(self) -> usize {
        match self {
            App::Ocean => 514,
            App::Nbody => 64_000,
            App::Mst | App::Sp | App::Msp => 40_000,
            App::Matmult => 576,
        }
    }

    /// This application on `wl` at width `p`. The input is partitioned
    /// here, once, outside any run (the paper assumes pre-partitioned
    /// inputs), and the program owns the parts.
    pub fn program(self, wl: &Workload, p: usize) -> Program {
        let app = self;
        match (app, wl) {
            (App::Ocean, Workload::Ocean(ocfg)) => {
                let ocfg = *ocfg;
                Arc::new(move |ctx: &mut Ctx| ocean_digest(ctx, &ocfg))
            }
            (App::Nbody, Workload::Nbody(bodies)) => {
                let (parts, cuts) = initial_partition(bodies, p);
                nbody_program(parts, cuts, bodies.len(), SimConfig::default(), true)
            }
            (App::Mst | App::Sp | App::Msp, Workload::Graph(g)) => {
                let owner = partition_kd(&g.pos, p);
                let locals = build_locals(g, &owner, p);
                let sources: Vec<u32> = (0..MSP_SOURCES)
                    .map(|i| ((i * g.n) / MSP_SOURCES) as u32)
                    .collect();
                Arc::new(move |ctx: &mut Ctx| {
                    let local = &locals[ctx.pid()];
                    let work = bsp_graph::DEFAULT_WORK_FACTOR;
                    match app {
                        App::Mst => {
                            let r = mst_run(ctx, local, &owner);
                            mix(r.total_weight.to_bits(), r.total_edges)
                        }
                        App::Sp => fold_f64(0, &sp_run(ctx, local, 0, work).dist),
                        _ => {
                            let dist = msp_run(ctx, local, &sources, work).dist;
                            fold_f64(0, dist.iter().flatten())
                        }
                    }
                })
            }
            (App::Matmult, Workload::Mat(a, b)) => {
                let blocks = skewed_blocks(a, b, p);
                Arc::new(move |ctx: &mut Ctx| {
                    let (ab, bb) = blocks[ctx.pid()].clone();
                    fold_f64(0, &cannon_run(ctx, ab, bb).data)
                })
            }
            _ => unreachable!("workload does not match app"),
        }
    }
}

/// The hand-written programs the correctness sweeps run beside the six
/// applications. Each makes one transport choice (lane, boundary kind)
/// differently from its [`Variant::canonical`] form and must produce the
/// same digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Ocean at the sweep size, two steps of two fixed V-cycles; `relaxed`
    /// makes every eligible boundary a neighborhood rendezvous over
    /// [`ghost_graph`].
    Ocean { relaxed: bool },
    /// Sample sort of 1000 keys per process on the byte or packet lane,
    /// with fused or split-phase boundaries.
    Sort { bytes: bool, split: bool },
    /// N-body at the sweep size for two iterations (migration and the
    /// essential exchange both run) on the byte or packet lane.
    Nbody { bytes: bool },
    /// One ghost-ring exchange on ocean's finest level at the sweep size,
    /// on the byte or packet lane.
    Ghost { bytes: bool },
}

impl Variant {
    /// The same program on the byte lane with fused, full boundaries.
    pub fn canonical(self) -> Variant {
        match self {
            Variant::Ocean { .. } => Variant::Ocean { relaxed: false },
            Variant::Sort { .. } => Variant::Sort {
                bytes: true,
                split: false,
            },
            Variant::Nbody { .. } => Variant::Nbody { bytes: true },
            Variant::Ghost { .. } => Variant::Ghost { bytes: true },
        }
    }

    /// Display name: the program, then what it does differently.
    pub fn name(self) -> String {
        let lane = |bytes: bool| if bytes { "" } else { "/pkts" };
        match self {
            Variant::Ocean { relaxed } => {
                format!("ocean-mg{}", if relaxed { "/relaxed" } else { "" })
            }
            Variant::Sort { bytes, split } => {
                format!("sort{}{}", lane(bytes), if split { "/split" } else { "" })
            }
            Variant::Nbody { bytes } => format!("nbody-2it{}", lane(bytes)),
            Variant::Ghost { bytes } => format!("ghosts{}", lane(bytes)),
        }
    }

    /// The configuration at width `p` this program needs: relaxed ocean's
    /// neighborhood boundaries run over the ghost graph.
    pub fn config(self, p: usize) -> Config {
        match self {
            Variant::Ocean { relaxed: true } => Config::new(p).sync_graph(&ghost_graph(p)),
            _ => Config::new(p),
        }
    }

    /// This variant at width `p`, sized like the applications' sweeps.
    pub fn program(self, p: usize, full: bool) -> Program {
        let grid_n = App::Ocean.sweep_size(full) - 2;
        match self {
            Variant::Ocean { relaxed } => {
                let ocfg = OceanConfig {
                    steps: 2,
                    mg: MgParams {
                        relaxed,
                        mode: CycleMode::Fixed(2),
                        ..MgParams::default()
                    },
                    ..OceanConfig::new(grid_n)
                };
                Arc::new(move |ctx: &mut Ctx| ocean_digest(ctx, &ocfg))
            }
            Variant::Sort { bytes, split } => Arc::new(move |ctx: &mut Ctx| {
                let me = ctx.pid() as u64;
                let keys = (0..1000u64)
                    .map(|i| i.wrapping_mul(me * 2 + 7) ^ SEED)
                    .collect();
                sample_sort_mode(ctx, keys, bytes, split)
                    .into_iter()
                    .fold(0, mix)
            }),
            Variant::Nbody { bytes } => {
                let n = App::Nbody.sweep_size(full);
                let (parts, cuts) = initial_partition(&plummer(n, SEED), p);
                let sim = SimConfig {
                    iters: 2,
                    ..SimConfig::default()
                };
                nbody_program(parts, cuts, n, sim, bytes)
            }
            Variant::Ghost { bytes } => Arc::new(move |ctx: &mut Ctx| {
                let h = Hierarchy::new(ctx.pid(), ctx.nprocs(), grid_n, 8);
                let l = h.levels[0];
                let mut f = l.zeros();
                for i in 1..=l.rows {
                    for j in 1..=l.cols {
                        let (gi, gj) = (l.r0 + i - 1, l.c0 + j - 1);
                        f[l.at(i, j)] = ((gi * grid_n + gj) as f64 * 0.9173).cos();
                    }
                }
                exchange_ghosts_with(ctx, &h, 0, &mut f, bytes);
                fold_f64(0, &f)
            }),
        }
    }
}

/// Mix one 64-bit value into a running digest (order-sensitive).
fn mix(acc: u64, bits: u64) -> u64 {
    (acc.rotate_left(21) ^ bits).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Mix a sequence of floats into `acc`, bit for bit.
fn fold_f64<'a>(acc: u64, xs: impl IntoIterator<Item = &'a f64>) -> u64 {
    xs.into_iter().fold(acc, |d, x| mix(d, x.to_bits()))
}

/// Ocean's two global scalars, then this process's block of ψ.
fn ocean_digest(ctx: &mut Ctx, ocfg: &OceanConfig) -> u64 {
    let r = ocean_run(ctx, ocfg);
    let head = mix(r.kinetic_energy.to_bits(), r.psi_integral.to_bits());
    fold_f64(head, &r.psi_block.4)
}

/// N-body from pre-partitioned bodies, digested over the id-keyed
/// physical state.
fn nbody_program(
    parts: Vec<Vec<Body>>,
    cuts: OrbTree,
    n: usize,
    sim: SimConfig,
    byte_lane: bool,
) -> Program {
    Arc::new(move |ctx: &mut Ctx| {
        let start = parts[ctx.pid()].clone();
        let mut r = nbody_sim_with(ctx, start, cuts.clone(), n, &sim, byte_lane);
        // Migration order is transport-dependent; the digest must only see
        // the (id-keyed) physical state.
        r.bodies.sort_by_key(|b| b.id);
        r.bodies.iter().fold(0, |d, b| {
            let state = [b.pos.x, b.pos.y, b.pos.z, b.vel.x, b.vel.y, b.vel.z, b.mass];
            fold_f64(mix(d, u64::from(b.id)), &state)
        })
    })
}

/// A prepared (but not yet partitioned) input.
pub enum Workload {
    /// Ocean configuration for the given interior size.
    Ocean(OceanConfig),
    /// Plummer bodies.
    Nbody(Vec<bsp_nbody::Body>),
    /// Geometric random graph `G(δ)`.
    Graph(Graph),
    /// Input matrices.
    Mat(Mat, Mat),
}

/// Ocean harness configuration for a paper size label: adaptive multigrid
/// (the paper-faithful mode whose cycle count shrinks as the CFL time step
/// shrinks with resolution).
fn ocean_cfg(paper_size: usize) -> OceanConfig {
    OceanConfig {
        steps: 3,
        mg: MgParams {
            mode: CycleMode::Adaptive {
                rel_tol: 1e-5,
                max: 10,
            },
            ..MgParams::default()
        },
        ..OceanConfig::new(paper_size - 2)
    }
}

/// Generate the input for `(app, size)`. Deterministic in [`SEED`].
pub fn prepare(app: App, size: usize) -> Workload {
    match app {
        App::Ocean => Workload::Ocean(ocean_cfg(size)),
        App::Nbody => Workload::Nbody(plummer(size, SEED)),
        App::Mst | App::Sp | App::Msp => Workload::Graph(geometric_graph(size, SEED)),
        App::Matmult => Workload::Mat(
            Mat::random(size, size, SEED),
            Mat::random(size, size, SEED + 1),
        ),
    }
}

/// Run `(app, workload)` on `p` processors with the given library
/// implementation. Partitioning happens outside the timed region, as the
/// paper assumes pre-partitioned inputs. Returns the run statistics and
/// host wall time.
pub fn execute(app: App, wl: &Workload, p: usize, backend: BackendKind) -> (RunStats, Duration) {
    let program = app.program(wl, p);
    let out = run(&Config::new(p).backend(backend), &*program);
    (out.stats, out.wall)
}

/// Measure the app's communication profile at width `p` for the tuner
/// (DESIGN.md §16): one run on the deterministic sequential simulator
/// yields exact `S`/`H`/byte-lane counts plus a clean work depth and total
/// work, which [`green_bsp::HProfile::from_stats`] turns into the tuner's
/// input. SeqSim is the cheapest backend that observes the *real* `p`-wide
/// communication pattern without contending for host cores.
pub fn h_profile(app: App, wl: &Workload, p: usize) -> green_bsp::HProfile {
    // Warm run first: a cold first touch of the workload inflates the
    // measured compute times by tens of percent (page faults, cache
    // misses), which would bias every prediction the tuner makes. Then
    // profile the fastest of three runs — the tuner's predictions are
    // compared against min-of-N measurements, so its `W` must be a
    // min-of-N too or every prediction carries a systematic noise bias.
    let _ = execute(app, wl, p, BackendKind::SeqSim);
    let best = (0..3)
        .map(|_| execute(app, wl, p, BackendKind::SeqSim))
        .min_by(|a, b| a.1.cmp(&b.1))
        .expect("three profile runs");
    green_bsp::HProfile::from_stats(&best.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_runs_at_tiny_scale() {
        for app in App::ALL {
            let size = match app {
                App::Ocean => 34, // interior 32
                App::Nbody => 200,
                App::Matmult => 48,
                _ => 300,
            };
            let wl = prepare(app, size);
            for p in [1usize, 4] {
                let (stats, _) = execute(app, &wl, p, BackendKind::Shared);
                assert!(stats.s() >= 1, "{} produced no supersteps", app.name());
                if p > 1 && app != App::Matmult {
                    // Converted apps (nbody, ocean, sort) carry some or all
                    // of their traffic on the byte lane now.
                    assert!(
                        stats.h_total() + stats.h_bytes_total() > 0,
                        "{} sent no traffic at p={p}",
                        app.name()
                    );
                }
            }
        }
    }

    #[test]
    fn superstep_structure_matches_paper_shape() {
        // N-body: S = 6 per iteration; matmult: S = 2√p − 1.
        let wl = prepare(App::Nbody, 500);
        let (stats, _) = execute(App::Nbody, &wl, 4, BackendKind::Shared);
        assert_eq!(stats.s(), 6);
        let wl = prepare(App::Matmult, 48);
        let (stats, _) = execute(App::Matmult, &wl, 16, BackendKind::Shared);
        assert_eq!(stats.s(), 7);
    }

    #[test]
    fn seqsim_and_shared_agree_on_algorithmic_quantities() {
        for app in [App::Mst, App::Sp, App::Matmult] {
            let size = if app == App::Matmult { 48 } else { 400 };
            let wl = prepare(app, size);
            let (a, _) = execute(app, &wl, 4, BackendKind::Shared);
            let (b, _) = execute(app, &wl, 4, BackendKind::SeqSim);
            assert_eq!(a.s(), b.s(), "{}", app.name());
            assert_eq!(a.h_total(), b.h_total(), "{}", app.name());
        }
    }

    #[test]
    fn app_names_roundtrip() {
        for app in App::ALL {
            assert_eq!(App::from_name(app.name()), Some(app));
        }
        assert_eq!(App::from_name("bogus"), None);
    }
}

//! The only file of the benchmark that touches the application crates'
//! API (`bsp-nbody`, `bsp-graph`, `bsp-matmul`, `bsp-ocean`, `bsp-sort`):
//! input generation, partitioning, the BSP entry points, the result
//! digests and the sequential oracles. A change to an app's signature
//! costs an edit here and nowhere else in `perf/`.
//!
//! Every entry point is timed from outside: an `Instant` around the one
//! call into the runtime. Partitioning, digests and oracle comparisons
//! happen outside that interval.

use crate::gen::{mix, SplitMix};
use crate::scale::Scale;
use bsp_graph::{
    build_locals, dijkstra, geometric_graph, kruskal_mst, msp_run, mst_run, multi_dijkstra,
    partition_kd, sp_run, Graph, LocalGraph, DEFAULT_WORK_FACTOR,
};
use bsp_matmul::layout::assemble_blocks;
use bsp_matmul::{blocked_matmul, cannon_run, skewed_blocks, Mat};
use bsp_nbody::orb::OrbTree;
use bsp_nbody::{initial_partition, nbody_sim, plummer, Body, SimConfig};
use bsp_ocean::{ghost_graph, ocean_run, CycleMode, MgParams, OceanConfig};
use green_bsp::{
    BackendKind, BspError, Config, RunStats, Runtime, StreamConfig, StreamError, TileStore,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The six paper applications, by the workload that runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    Nbody,
    Msp,
    Matmul,
    Ocean,
    Sp,
    Mst,
}

impl App {
    /// Compute-bound apps of `apps-coarse`.
    pub const COARSE: [App; 3] = [App::Nbody, App::Msp, App::Matmul];
    /// Boundary-bound apps of `apps-fine`.
    pub const FINE: [App; 3] = [App::Ocean, App::Sp, App::Mst];

    /// Metric prefix: the module that implements the app.
    pub fn prefix(self) -> &'static str {
        match self {
            App::Nbody => "nbody",
            App::Msp => "graph.msp",
            App::Matmul => "matmul",
            App::Ocean => "ocean",
            App::Sp => "graph.sp",
            App::Mst => "graph.mst",
        }
    }

    /// Cannon's algorithm needs a square process grid.
    pub fn needs_square(self) -> bool {
        self == App::Matmul
    }
}

enum Data {
    Nbody(Vec<Body>),
    Graph(Arc<Graph>, Vec<u32>),
    Mat(Mat, Mat),
    Ocean(OceanConfig),
}

/// One app's seeded, not yet partitioned input.
pub struct AppInput {
    pub app: App,
    data: Data,
}

/// Ocean configuration as `harness::apps::ocean_cfg`: three time steps of
/// adaptive multigrid, the paper-faithful mode.
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

/// Seed of the one geometric graph every run shares (the harness's
/// `SEED`). `G(δ)` connects `n` random points at the smallest radius that
/// leaves no point isolated — an extreme-value statistic: over 24 seeds at
/// n = 40 000 the edge count ranged from 203 k to 371 k, and the graph
/// apps' single-process time with it by ±17 %. Ten runs on ten such
/// instances measure the generator, not the library. So the instance is
/// fixed and the run's seed picks the sources instead.
const GRAPH_SEED: u64 = 9_601_996;

/// Generate the inputs of `apps` from `seed`: the Plummer sphere, the two
/// matrices, and the source nodes of the shortest-path apps. The three
/// graph apps share one geometric graph (see [`GRAPH_SEED`]); the ocean
/// basin has no random input.
pub fn inputs(apps: &[App], scale: &Scale, seed: u64) -> Vec<AppInput> {
    let mut graph: Option<Arc<Graph>> = None;
    apps.iter()
        .map(|&app| {
            let data = match app {
                App::Nbody => Data::Nbody(plummer(scale.nbody_n, seed)),
                App::Matmul => Data::Mat(
                    Mat::random(scale.matmul_n, scale.matmul_n, seed),
                    Mat::random(scale.matmul_n, scale.matmul_n, seed.wrapping_add(1)),
                ),
                App::Ocean => Data::Ocean(ocean_cfg(scale.ocean_size)),
                App::Msp | App::Sp | App::Mst => {
                    let g = graph
                        .get_or_insert_with(|| Arc::new(geometric_graph(scale.graph_n, GRAPH_SEED)))
                        .clone();
                    // Node ids are in generation order, so any id is a
                    // uniformly random place on the square: sp starts at a
                    // seeded node, msp at evenly spaced ids from there.
                    let first = SplitMix::new(seed).below(g.n);
                    let k = if app == App::Msp {
                        scale.msp_sources
                    } else {
                        1
                    };
                    let sources = (0..k)
                        .map(|i| ((first + (i * g.n) / k) % g.n) as u32)
                        .collect();
                    Data::Graph(g, sources)
                }
            };
            AppInput { app, data }
        })
        .collect()
}

enum Part {
    Nbody {
        parts: Vec<Vec<Body>>,
        cuts: OrbTree,
        n: usize,
    },
    Graph {
        locals: Vec<LocalGraph>,
        owner: Vec<u32>,
        sources: Vec<u32>,
    },
    Mat {
        blocks: Vec<(Mat, Mat)>,
        n: usize,
    },
    Ocean {
        cfg: OceanConfig,
        /// Run under `ghost_graph` with neighbourhood boundaries.
        relaxed: bool,
    },
}

/// An app partitioned for `p` processes, ready to run any number of times.
pub struct Prepared {
    pub app: App,
    pub p: usize,
    part: Part,
}

/// What an oracle compares against, assembled in global order.
pub enum Answer {
    /// Apps whose only oracle is the sequential simulator's digest.
    None,
    /// `dist[source][node]`.
    Dist(Vec<Vec<f64>>),
    /// Total weight and edge count of the spanning forest.
    Forest(f64, u64),
    Product(Mat),
}

/// One timed run of an app.
pub struct AppRun {
    /// Wall clock around the one call into the runtime.
    pub wall: Duration,
    pub stats: RunStats,
    /// One result digest per process, over the full output bits.
    pub digest: Vec<u64>,
    pub answer: Answer,
}

impl AppInput {
    /// Partition for `p` processes (outside every timed region: the paper
    /// assumes pre-partitioned inputs).
    pub fn partition(&self, p: usize) -> Prepared {
        let part = match &self.data {
            Data::Nbody(bodies) => {
                let (parts, cuts) = initial_partition(bodies, p);
                Part::Nbody {
                    parts,
                    cuts,
                    n: bodies.len(),
                }
            }
            Data::Graph(g, sources) => {
                let owner = partition_kd(&g.pos, p);
                Part::Graph {
                    locals: build_locals(g, &owner, p),
                    owner,
                    sources: sources.clone(),
                }
            }
            Data::Mat(a, b) => Part::Mat {
                blocks: skewed_blocks(a, b, p),
                n: a.rows,
            },
            Data::Ocean(cfg) => Part::Ocean {
                cfg: *cfg,
                relaxed: false,
            },
        };
        Prepared {
            app: self.app,
            p,
            part,
        }
    }

    /// The ocean run of `relax.ocean_neigh_wall_s`: ghost exchanges closed
    /// by neighbourhood boundaries over `ghost_graph(p)`.
    pub fn partition_relaxed_ocean(&self, p: usize) -> Option<Prepared> {
        let Data::Ocean(cfg) = &self.data else {
            return None;
        };
        let mut cfg = *cfg;
        cfg.mg.relaxed = true;
        Some(Prepared {
            app: App::Ocean,
            p,
            part: Part::Ocean { cfg, relaxed: true },
        })
    }

    /// Compare a run's assembled answer with an independent sequential
    /// algorithm: Dijkstra for the shortest-path apps, Kruskal for the
    /// spanning tree, the blocked sequential product for Cannon. Sums are
    /// taken in another order there, so the comparison has a tolerance;
    /// bit-identity is checked separately, against the sequential
    /// simulator's digest.
    pub fn check_oracle(&self, answer: &Answer) -> Result<(), String> {
        const TOL: f64 = 1e-9;
        let close = |a: f64, b: f64| (a - b).abs() <= TOL * (1.0 + a.abs().max(b.abs())) || a == b;
        match (&self.data, answer) {
            (Data::Graph(g, sources), Answer::Dist(got)) => {
                let want = if sources.len() == 1 {
                    vec![dijkstra(g, sources[0])]
                } else {
                    multi_dijkstra(g, sources)
                };
                if want.len() != got.len() {
                    return Err(format!(
                        "{} distance vectors, expected {}",
                        got.len(),
                        want.len()
                    ));
                }
                for (k, (w, h)) in want.iter().zip(got).enumerate() {
                    if w.len() != h.len() {
                        return Err(format!(
                            "source {k}: {} labels, expected {}",
                            h.len(),
                            w.len()
                        ));
                    }
                    if let Some(v) = (0..w.len()).find(|&v| !close(w[v], h[v])) {
                        return Err(format!(
                            "source {k} node {v}: distance {} but Dijkstra says {}",
                            h[v], w[v]
                        ));
                    }
                }
                Ok(())
            }
            (Data::Graph(g, _), Answer::Forest(weight, edges)) => {
                let (want, tree) = kruskal_mst(g);
                if !close(want, *weight) || tree.len() as u64 != *edges {
                    return Err(format!(
                        "forest weight {weight} with {edges} edges but Kruskal says {want} with {}",
                        tree.len()
                    ));
                }
                Ok(())
            }
            (Data::Mat(a, b), Answer::Product(c)) => {
                let d = blocked_matmul(a, b).max_abs_diff(c);
                if d > 1e-9 * a.rows as f64 {
                    return Err(format!(
                        "product differs from the blocked sequential one by {d}"
                    ));
                }
                Ok(())
            }
            (Data::Nbody(_) | Data::Ocean(_), Answer::None) => Ok(()),
            _ => Err("answer does not match the app".to_string()),
        }
    }
}

/// Scatter per-process home-node labels into global node order.
fn gather_dist(locals: &[LocalGraph], per_proc: &[&[f64]]) -> Vec<f64> {
    let mut out = vec![f64::NAN; locals[0].n_global];
    for (lg, dist) in locals.iter().zip(per_proc) {
        for (lid, &d) in dist.iter().enumerate() {
            out[lg.home[lid] as usize] = d;
        }
    }
    out
}

/// Fold the bits of `values` into the digest `acc`.
fn fold_bits<'a>(acc: u64, values: impl IntoIterator<Item = &'a f64>) -> u64 {
    values.into_iter().fold(acc, |d, x| mix(d, x.to_bits()))
}

impl Prepared {
    /// The run configuration on `backend` (with the sync graph where the
    /// relaxed ocean needs one).
    pub fn config(&self, backend: BackendKind) -> Config {
        let cfg = Config::new(self.p).backend(backend);
        match &self.part {
            Part::Ocean { relaxed: true, .. } => cfg.sync_graph(&ghost_graph(self.p)),
            _ => cfg,
        }
    }

    /// Run once on `rt`. With `keep_answer` the output is also assembled
    /// for [`AppInput::check_oracle`] (set-up only; timed passes compare
    /// digests).
    pub fn run(&self, rt: &Runtime, cfg: &Config, keep_answer: bool) -> Result<AppRun, BspError> {
        assert_eq!(
            cfg.nprocs, self.p,
            "config width differs from the partition"
        );
        match &self.part {
            Part::Nbody { parts, cuts, n } => {
                let sim = SimConfig::default();
                let t0 = Instant::now();
                let out = rt.try_run(cfg, |ctx| {
                    nbody_sim(ctx, parts[ctx.pid()].clone(), cuts.clone(), *n, &sim)
                })?;
                let wall = t0.elapsed();
                let digest = out
                    .results
                    .into_iter()
                    .map(|mut r| {
                        // Migration order depends on the transport; the
                        // digest sees only the id-keyed physical state.
                        r.bodies.sort_by_key(|b| b.id);
                        r.bodies.iter().fold(0u64, |d, b| {
                            let d = mix(d, u64::from(b.id));
                            fold_bits(
                                d,
                                &[b.pos.x, b.pos.y, b.pos.z, b.vel.x, b.vel.y, b.vel.z, b.mass],
                            )
                        })
                    })
                    .collect();
                Ok(AppRun {
                    wall,
                    stats: out.stats,
                    digest,
                    answer: Answer::None,
                })
            }
            Part::Graph {
                locals,
                owner,
                sources,
            } => match self.app {
                App::Mst => {
                    let t0 = Instant::now();
                    let out = rt.try_run(cfg, |ctx| mst_run(ctx, &locals[ctx.pid()], owner))?;
                    let wall = t0.elapsed();
                    let digest = out
                        .results
                        .iter()
                        .map(|r| mix(r.total_weight.to_bits(), r.total_edges))
                        .collect();
                    let r0 = &out.results[0];
                    Ok(AppRun {
                        wall,
                        stats: out.stats,
                        digest,
                        answer: Answer::Forest(r0.total_weight, r0.total_edges),
                    })
                }
                App::Sp => {
                    let t0 = Instant::now();
                    let out = rt.try_run(cfg, |ctx| {
                        sp_run(ctx, &locals[ctx.pid()], sources[0], DEFAULT_WORK_FACTOR)
                    })?;
                    let wall = t0.elapsed();
                    let digest = out.results.iter().map(|r| fold_bits(0, &r.dist)).collect();
                    let answer = if keep_answer {
                        let per: Vec<&[f64]> = out.results.iter().map(|r| &r.dist[..]).collect();
                        Answer::Dist(vec![gather_dist(locals, &per)])
                    } else {
                        Answer::None
                    };
                    Ok(AppRun {
                        wall,
                        stats: out.stats,
                        digest,
                        answer,
                    })
                }
                _ => {
                    let t0 = Instant::now();
                    let out = rt.try_run(cfg, |ctx| {
                        msp_run(ctx, &locals[ctx.pid()], sources, DEFAULT_WORK_FACTOR)
                    })?;
                    let wall = t0.elapsed();
                    let digest = out
                        .results
                        .iter()
                        .map(|r| fold_bits(0, r.dist.iter().flatten()))
                        .collect();
                    let answer = if keep_answer {
                        Answer::Dist(
                            (0..sources.len())
                                .map(|k| {
                                    let per: Vec<&[f64]> =
                                        out.results.iter().map(|r| &r.dist[k][..]).collect();
                                    gather_dist(locals, &per)
                                })
                                .collect(),
                        )
                    } else {
                        Answer::None
                    };
                    Ok(AppRun {
                        wall,
                        stats: out.stats,
                        digest,
                        answer,
                    })
                }
            },
            Part::Mat { blocks, n } => {
                let t0 = Instant::now();
                let out = rt.try_run(cfg, |ctx| {
                    let (a, b) = blocks[ctx.pid()].clone();
                    cannon_run(ctx, a, b)
                })?;
                let wall = t0.elapsed();
                let digest = out.results.iter().map(|m| fold_bits(0, &m.data)).collect();
                let answer = if keep_answer {
                    Answer::Product(assemble_blocks(&out.results, *n))
                } else {
                    Answer::None
                };
                Ok(AppRun {
                    wall,
                    stats: out.stats,
                    digest,
                    answer,
                })
            }
            Part::Ocean { cfg: ocfg, .. } => {
                let t0 = Instant::now();
                let out = rt.try_run(cfg, |ctx| ocean_run(ctx, ocfg))?;
                let wall = t0.elapsed();
                let digest = out
                    .results
                    .iter()
                    .map(|r| {
                        let d = mix(r.kinetic_energy.to_bits(), r.psi_integral.to_bits());
                        fold_bits(d, &r.psi_block.4)
                    })
                    .collect();
                Ok(AppRun {
                    wall,
                    stats: out.stats,
                    digest,
                    answer: Answer::None,
                })
            }
        }
    }
}

// ------------------------------------------------------------ stream apps

/// In-core sample sort of `keys` over `cfg.nprocs` processes: the baseline
/// the external sort's efficiency is taken against.
pub fn sort_in_core(
    rt: &Runtime,
    cfg: &Config,
    keys: &[u64],
) -> Result<(Vec<u64>, Duration), BspError> {
    let n = keys.len();
    let per = n.div_ceil(cfg.nprocs);
    let t0 = Instant::now();
    let out = rt.try_run(cfg, |ctx| {
        let lo = (ctx.pid() * per).min(n);
        let hi = ((ctx.pid() + 1) * per).min(n);
        bsp_sort::sample_sort(ctx, keys[lo..hi].to_vec())
    })?;
    let wall = t0.elapsed();
    Ok((out.results.into_iter().flatten().collect(), wall))
}

/// External sample sort of the `u64` keys in `input` into `output`.
pub fn sort_external(
    rt: &Runtime,
    cfg: &Config,
    sc: &StreamConfig,
    input: &TileStore,
    output: &TileStore,
) -> Result<(RunStats, Duration), StreamError> {
    let t0 = Instant::now();
    let res = bsp_sort::external_sample_sort(rt, cfg, sc, input, output)?;
    Ok((res.stats, t0.elapsed()))
}

/// `sweeps` in-core Jacobi sweeps over the `n × n` grid.
pub fn jacobi_in_core(n: usize, grid: &mut Vec<f64>, sweeps: usize) -> Duration {
    let t0 = Instant::now();
    std::hint::black_box(bsp_ocean::jacobi_in_core(n, grid, sweeps));
    t0.elapsed()
}

/// The same sweeps streamed in tiles between `ping` and `pong`; the last
/// field says whether the result ended in `pong`.
pub fn jacobi_tiled(
    rt: &Runtime,
    cfg: &Config,
    sc: &StreamConfig,
    n: usize,
    ping: &TileStore,
    pong: &TileStore,
    sweeps: usize,
) -> Result<(RunStats, Duration, bool), StreamError> {
    let t0 = Instant::now();
    let res = bsp_ocean::tiled_jacobi(rt, cfg, sc, n, ping, pong, sweeps)?;
    Ok((res.stats, t0.elapsed(), res.result_in_pong))
}

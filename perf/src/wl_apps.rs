//! Workloads `apps-coarse` and `apps-fine`: the paper's six applications
//! at the paper's sizes, three per workload, each pass run at `p = P`
//! (Cannon at `p = Q`) and again at `p = 1` so machine drift hits both.
//!
//! Set-up takes a result digest of every app on the sequential simulator
//! at both widths and checks it against an independent sequential
//! algorithm; every later run, timed or not, must reproduce that digest
//! bit for bit.

use crate::apps::{self, App, AppInput, AppRun, Prepared};
use crate::ledger::{pkt_equivalents, traffic, Env, Ledger, PassSamples};
use crate::quant::{median, Summary};
use crate::scale::Budget;
use crate::trace::Tracer;
use green_bsp::{BackendKind, Config, HProfile, RunStats, Runtime};
use std::time::Duration;

fn mean_secs(d: &[Duration]) -> f64 {
    if d.is_empty() {
        0.0
    } else {
        d.iter().map(Duration::as_secs_f64).sum::<f64>() / d.len() as f64
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Coarse,
    Fine,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Coarse => "apps-coarse",
            Kind::Fine => "apps-fine",
        }
    }
}

/// Samples of one app over the timed passes.
#[derive(Default)]
struct AppSamples {
    wall: Vec<f64>,
    p1: Vec<f64>,
    compute: Vec<f64>,
    sync_wait: Vec<f64>,
    launch: Vec<f64>,
    imbalance: Vec<f64>,
    s: u64,
    h: u64,
}

struct Cell {
    input: AppInput,
    wide: Prepared,
    narrow: Prepared,
    ref_wide: Vec<u64>,
    ref_narrow: Vec<u64>,
    seq_wide: RunStats,
    seq_narrow: RunStats,
    samples: AppSamples,
}

pub struct Apps {
    kind: Kind,
    rt: Runtime,
    cells: Vec<Cell>,
    reps: usize,
    /// Median pass wall at `p = P` on the shared backend, kept for the
    /// per-backend probe.
    shared_wall: f64,
}

/// What the tuner probe needs from one app: sequential-simulator profiles
/// at both widths and the measured median wall at each.
pub struct TuneRow {
    pub profiles: Vec<(usize, HProfile)>,
    pub measured: Vec<(usize, f64)>,
}

/// Run `prep` once on `backend`, under a span, and compare its digest with
/// `reference`. `None` (and a counted failure) when the run errors.
fn checked_run(
    rt: &Runtime,
    prep: &Prepared,
    cfg: &Config,
    reference: Option<&[u64]>,
    keep_answer: bool,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> Option<AppRun> {
    let span = tracer.begin(&format!("run {} p={}", prep.app.prefix(), prep.p));
    let res = prep.run(rt, cfg, keep_answer);
    if let Ok(run) = &res {
        tracer.synthesise_run(span, &run.stats);
    }
    tracer.end(span);
    match res {
        Ok(run) => {
            if let Some(want) = reference {
                ledger.check(run.digest == want, || {
                    format!(
                        "{} p={} on {:?}: result digest differs from the sequential simulator's",
                        prep.app.prefix(),
                        prep.p,
                        cfg.backend
                    )
                });
            }
            Some(run)
        }
        Err(e) => {
            ledger.fail(format!("{} p={}: {e}", prep.app.prefix(), prep.p));
            None
        }
    }
}

impl Apps {
    /// Generate, partition, take the reference digests, check them against
    /// the sequential oracles, create and prewarm the runtime, and make
    /// each app's first (cold) run.
    pub fn setup(env: &Env, kind: Kind, ledger: &mut Ledger, tracer: &mut Tracer) -> Option<Apps> {
        let which = match kind {
            Kind::Coarse => App::COARSE,
            Kind::Fine => App::FINE,
        };
        let span = tracer.begin("setup.generate");
        let inputs = apps::inputs(&which, &env.scale, env.seed);
        tracer.end(span);

        let span = tracer.begin("setup.runtime");
        let rt = Runtime::new();
        rt.prewarm(&Config::new(env.width.p));
        rt.prewarm(&Config::new(1));
        tracer.end(span);

        let mut cells = Vec::new();
        for input in inputs {
            let p = if input.app.needs_square() {
                env.width.q
            } else {
                env.width.p
            };
            let span = tracer.begin("setup.partition");
            let wide = input.partition(p);
            let narrow = input.partition(1);
            tracer.end(span);

            let span = tracer.begin("setup.reference");
            let seq = BackendKind::SeqSim;
            let rw = checked_run(&rt, &wide, &wide.config(seq), None, true, ledger, tracer);
            let rn = checked_run(
                &rt,
                &narrow,
                &narrow.config(seq),
                None,
                true,
                ledger,
                tracer,
            );
            tracer.end(span);
            let (Some(rw), Some(rn)) = (rw, rn) else {
                rt.shutdown();
                return None;
            };

            let span = tracer.begin("setup.oracle");
            for (run, p) in [(&rw, wide.p), (&rn, 1)] {
                let verdict = input.check_oracle(&run.answer);
                ledger.check(verdict.is_ok(), || {
                    format!(
                        "{} p={p} on the sequential simulator: {}",
                        input.app.prefix(),
                        verdict.unwrap_err()
                    )
                });
            }
            tracer.end(span);

            let span = tracer.begin("setup.cold_run");
            let shared = BackendKind::Shared;
            checked_run(
                &rt,
                &wide,
                &wide.config(shared),
                Some(&rw.digest),
                false,
                ledger,
                tracer,
            );
            checked_run(
                &rt,
                &narrow,
                &narrow.config(shared),
                Some(&rn.digest),
                false,
                ledger,
                tracer,
            );
            tracer.end(span);

            cells.push(Cell {
                input,
                wide,
                narrow,
                ref_wide: rw.digest,
                ref_narrow: rn.digest,
                seq_wide: rw.stats,
                seq_narrow: rn.stats,
                samples: AppSamples::default(),
            });
        }
        Some(Apps {
            kind,
            rt,
            cells,
            reps: match kind {
                Kind::Coarse => 1,
                Kind::Fine => env.scale.fine_reps,
            },
            shared_wall: 0.0,
        })
    }

    /// One pass at one width on `backend`: `reps` × every app. Returns the
    /// summed run wall and the traffic, or `None` if a run failed.
    fn pass(
        &mut self,
        wide: bool,
        backend: BackendKind,
        record: bool,
        ledger: &mut Ledger,
        tracer: &mut Tracer,
    ) -> Option<(f64, u64, u64)> {
        let (mut wall, mut pkts, mut bytes) = (0.0, 0, 0);
        for _ in 0..self.reps {
            for cell in &mut self.cells {
                let (prep, reference) = if wide {
                    (&cell.wide, &cell.ref_wide)
                } else {
                    (&cell.narrow, &cell.ref_narrow)
                };
                let cfg = prep.config(backend);
                let run =
                    checked_run(&self.rt, prep, &cfg, Some(reference), false, ledger, tracer)?;
                let secs = run.wall.as_secs_f64();
                wall += secs;
                let (k, b) = traffic(&run.stats);
                pkts += k;
                bytes += b;
                if !record {
                    continue;
                }
                let s = &mut cell.samples;
                if wide {
                    let compute = mean_secs(&run.stats.per_proc_compute);
                    let peak = run
                        .stats
                        .per_proc_compute
                        .iter()
                        .map(Duration::as_secs_f64)
                        .fold(0.0, f64::max);
                    s.wall.push(secs);
                    s.compute.push(compute / secs);
                    s.sync_wait
                        .push(mean_secs(&run.stats.per_proc_sync_wait) / secs);
                    s.launch
                        .push((run.stats.setup + run.stats.teardown).as_secs_f64() / secs);
                    s.imbalance
                        .push(if compute > 0.0 { peak / compute } else { 1.0 });
                    s.s = run.stats.s();
                    s.h = pkt_equivalents(run.stats.h_total(), run.stats.h_bytes_total());
                } else {
                    s.p1.push(secs);
                }
            }
        }
        Some((wall, pkts, bytes))
    }

    /// The timed passes: `p = P` then `p = 1`, interleaved.
    pub fn measure(&mut self, budget: &Budget, ledger: &mut Ledger, tracer: &mut Tracer) {
        let mut out = PassSamples::default();
        for cell in &mut self.cells {
            cell.samples = AppSamples::default();
        }
        let shared = BackendKind::Shared;
        let runs_per_pass = (self.reps * self.cells.len()) as f64;
        let n = budget.drive(|timed| {
            let span = tracer.begin("pass");
            let wide = self.pass(true, shared, timed, ledger, tracer);
            let narrow = self.pass(false, shared, timed, ledger, tracer);
            tracer.end(span);
            if let (true, Some((wall, pkts, bytes)), Some((p1, ..))) = (timed, wide, narrow) {
                out.wall.push(wall);
                out.wall_p1.push(p1);
                out.pkts_per_s
                    .push(pkt_equivalents(pkts, bytes) as f64 / wall);
                out.bytes_per_s.push((16 * pkts + bytes) as f64 / wall);
                out.jobs_per_s.push(runs_per_pass / wall);
            }
        });
        ledger.note(
            &format!("{}.timed_passes", self.kind.name()),
            crate::json::Json::Num(n as f64),
        );
        if out.wall.is_empty() {
            ledger.fail(format!("{}: no pass completed", self.kind.name()));
            return;
        }
        self.shared_wall = median(&out.wall);
        out.emit(ledger);
        self.emit_layers(ledger);
    }

    /// Per-app attribution from `RunStats`: the four shares sum to 1
    /// because `other` is the residual of the wall.
    fn emit_layers(&self, ledger: &mut Ledger) {
        for cell in &self.cells {
            let (pre, s) = (cell.input.app.prefix(), &cell.samples);
            let p = cell.wide.p as f64;
            let (wall, p1) = (median(&s.wall), median(&s.p1));
            let shares = [median(&s.compute), median(&s.sync_wait), median(&s.launch)];
            let name = |m: &str| format!("{pre}.{m}");
            ledger.layer(&name("wall_s"), "s", Summary::of(&s.wall));
            ledger.layer(&name("p1_s"), "s", Summary::of(&s.p1));
            ledger.layer(
                &name("par_efficiency"),
                "ratio",
                Summary::single(p1 / (p * wall)),
            );
            ledger.layer(&name("S"), "count", Summary::single(s.s as f64));
            ledger.layer(&name("H"), "count", Summary::single(s.h as f64));
            ledger.layer(&name("compute_share"), "ratio", Summary::single(shares[0]));
            ledger.layer(
                &name("sync_wait_share"),
                "ratio",
                Summary::single(shares[1]),
            );
            ledger.layer(&name("launch_share"), "ratio", Summary::single(shares[2]));
            ledger.layer(
                &name("other_share"),
                "ratio",
                Summary::single(1.0 - shares.iter().sum::<f64>()),
            );
            ledger.layer(&name("imbalance"), "ratio", Summary::of(&s.imbalance));
        }
    }

    /// `backend.{shared,msgpass,tcpsim}.fine_wall_s`: the `p = P` pass on
    /// each backend (digests checked as everywhere), and
    /// `relax.ocean_neigh_wall_s`: the ocean under `ghost_graph` with
    /// neighbourhood boundaries. Traced runs of `apps-fine` only.
    pub fn probe_backends(&mut self, env: &Env, ledger: &mut Ledger, tracer: &mut Tracer) {
        let passes = if env.scale.smoke { 1 } else { 3 };
        ledger.layer(
            "backend.shared.fine_wall_s",
            "s",
            Summary::single(self.shared_wall),
        );
        for (label, backend) in [
            ("msgpass", BackendKind::MsgPass),
            ("tcpsim", BackendKind::TcpSim),
        ] {
            let span = tracer.begin(&format!("probe.fine.{label}"));
            self.pass(true, backend, false, ledger, tracer); // warm the arena for this shape
            let walls: Vec<f64> = (0..passes)
                .filter_map(|_| self.pass(true, backend, false, ledger, tracer))
                .map(|(wall, ..)| wall)
                .collect();
            tracer.end(span);
            ledger.layer_of(&format!("backend.{label}.fine_wall_s"), "s", &walls);
        }

        let span = tracer.begin("probe.relax.ocean");
        let mut walls = Vec::new();
        if let Some(cell) = self.cells.iter().find(|c| c.input.app == App::Ocean) {
            let relaxed = cell
                .input
                .partition_relaxed_ocean(cell.wide.p)
                .expect("the ocean cell holds an ocean input");
            let cfg = relaxed.config(BackendKind::Shared);
            for i in 0..=passes * self.reps {
                // The relaxed run must reproduce the bulk-synchronous digest.
                let run = checked_run(
                    &self.rt,
                    &relaxed,
                    &cfg,
                    Some(&cell.ref_wide),
                    false,
                    ledger,
                    tracer,
                );
                if let (Some(run), true) = (run, i > 0) {
                    walls.push(run.wall.as_secs_f64());
                }
            }
        }
        tracer.end(span);
        ledger.layer_of("relax.ocean_neigh_wall_s", "s", &walls);
    }

    /// Profiles and measured walls for the tuner probe.
    pub fn tune_rows(&self) -> Vec<TuneRow> {
        self.cells
            .iter()
            .filter(|c| !c.samples.wall.is_empty())
            .map(|c| {
                let mut profiles = vec![(1, HProfile::from_stats(&c.seq_narrow))];
                let mut measured = vec![(1, median(&c.samples.p1))];
                if c.wide.p > 1 {
                    profiles.push((c.wide.p, HProfile::from_stats(&c.seq_wide)));
                    measured.push((c.wide.p, median(&c.samples.wall)));
                }
                TuneRow { profiles, measured }
            })
            .collect()
    }

    pub fn finish(self) {
        self.rt.shutdown();
    }
}

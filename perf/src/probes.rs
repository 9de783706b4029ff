//! Layer probes no workload exercises on its own: the four barrier
//! implementations, the relaxed boundaries, the collectives, the message
//! and DRMA shims, and the cost model with its tuner. Each is a tiny BSP
//! program whose whole time is the layer it names; a traced run makes
//! them after the workloads.

use crate::ledger::{Env, Ledger};
use crate::quant::{median, Summary};
use crate::trace::Tracer;
use crate::wl_apps::TuneRow;
use green_bsp::{
    collectives, cost, drma::Drma, message, tune, BackendKind, BarrierKind, Config, Ctx, Packet,
    Runtime, TuneOpts,
};
use std::time::Instant;

/// The probes share one runtime of their own.
pub struct Probes<'a> {
    pub env: &'a Env,
    pub rt: &'a Runtime,
}

fn per_op_us(walls: &[f64], ops: usize) -> Vec<f64> {
    walls.iter().map(|w| w * 1e6 / ops as f64).collect()
}

/// Ring sync graph (degree ≤ 2).
fn ring(p: usize) -> Vec<(usize, usize)> {
    (0..p).map(|i| (i, (i + 1) % p)).collect()
}

impl Probes<'_> {
    /// Wall seconds of three runs (one in the smoke mode) of `program` under
    /// `cfg` after a warm-up one; `check` judges each run's per-process
    /// results.
    fn time_runs<R: Send>(
        &self,
        name: &str,
        cfg: &Config,
        ledger: &mut Ledger,
        tracer: &mut Tracer,
        program: impl Fn(&mut Ctx) -> R + Sync,
        check: impl Fn(&[R]) -> bool,
    ) -> Vec<f64> {
        let rt = self.rt;
        let runs = if self.env.scale.smoke { 1 } else { 3 };
        let span = tracer.begin(name);
        rt.prewarm(cfg);
        let mut walls = Vec::new();
        for i in 0..=runs {
            let run = tracer.begin("run");
            let t0 = Instant::now();
            let res = rt.try_run(cfg, &program);
            let wall = t0.elapsed().as_secs_f64();
            tracer.end(run);
            match res {
                Ok(out) => {
                    ledger.check(check(&out.results), || format!("{name}: wrong result"));
                    if i > 0 {
                        walls.push(wall);
                    }
                }
                Err(e) => ledger.fail(format!("{name}: {e}")),
            }
        }
        tracer.end(span);
        walls
    }

    /// `barrier.*.sync_us`, `relax.neigh_sync_us`, `relax.split_sync_us`:
    /// empty supersteps, so the boundary is the whole measurement.
    pub fn sync_costs(&self, ledger: &mut Ledger, tracer: &mut Tracer) {
        let (p, steps) = (self.env.width.p, self.env.scale.barrier_steps);
        let all_steps = move |r: &[usize]| r.iter().all(|&s| s == steps);
        for (label, kind) in [
            ("central", BarrierKind::Central),
            ("flag", BarrierKind::Flag),
            ("tree", BarrierKind::Tree),
            ("dissemination", BarrierKind::Dissemination),
        ] {
            let name = format!("barrier.{label}.sync_us");
            let cfg = Config::new(p).barrier(kind);
            let walls = self.time_runs(
                &name,
                &cfg,
                ledger,
                tracer,
                |ctx| {
                    for _ in 0..steps {
                        ctx.sync();
                    }
                    ctx.superstep()
                },
                all_steps,
            );
            ledger.layer_of(&name, "us", &per_op_us(&walls, steps));
        }
        let walls = self.time_runs(
            "relax.neigh_sync_us",
            &Config::new(p).sync_graph(&ring(p)),
            ledger,
            tracer,
            |ctx| {
                for _ in 0..steps {
                    ctx.sync_neigh();
                }
                ctx.superstep()
            },
            all_steps,
        );
        ledger.layer_of("relax.neigh_sync_us", "us", &per_op_us(&walls, steps));
        let walls = self.time_runs(
            "relax.split_sync_us",
            &Config::new(p),
            ledger,
            tracer,
            |ctx| {
                for _ in 0..steps {
                    ctx.sync_begin();
                    ctx.sync_end();
                }
                ctx.superstep()
            },
            all_steps,
        );
        ledger.layer_of("relax.split_sync_us", "us", &per_op_us(&walls, steps));
    }

    /// `collectives.allreduce_us`, `collectives.bcast_1k_us`,
    /// `message.send_recv_mb_s`, `drma.put_sync_us`.
    pub fn shims(&self, ledger: &mut Ledger, tracer: &mut Tracer) {
        let env = self.env;
        let (p, reps) = (env.width.p, env.scale.collective_reps);
        let cfg = Config::new(p);

        let want = (p * (p + 1) / 2 * reps) as f64;
        let walls = self.time_runs(
            "collectives.allreduce_us",
            &cfg,
            ledger,
            tracer,
            |ctx| {
                let mine = ctx.pid() as f64 + 1.0;
                (0..reps)
                    .map(|_| collectives::allreduce_f64(ctx, mine, |a, b| a + b))
                    .sum::<f64>()
            },
            |r| r.iter().all(|&x| x == want),
        );
        ledger.layer_of("collectives.allreduce_us", "us", &per_op_us(&walls, reps));

        // 64 packets = 1 KiB from process 0 to everyone.
        let data: Vec<Packet> = (0..64).map(|i| Packet::two_u64(i, !i)).collect();
        let walls = self.time_runs(
            "collectives.bcast_1k_us",
            &cfg,
            ledger,
            tracer,
            |ctx| {
                (0..reps).all(|_| {
                    let mut got = collectives::broadcast_pkts(ctx, 0, &data);
                    // Delivery order is unspecified; the content is not.
                    got.sort_unstable_by_key(|pk| pk.as_two_u64().0);
                    got == data
                })
            },
            |r| r.iter().all(|&ok| ok),
        );
        ledger.layer_of("collectives.bcast_1k_us", "us", &per_op_us(&walls, reps));

        // One 64 KiB message to the next process per superstep.
        const MSG: usize = 64 << 10;
        let msg_reps = (reps / 4).max(1);
        let payload = crate::gen::bytes(MSG, env.seed);
        let walls = self.time_runs(
            "message.send_recv_mb_s",
            &cfg,
            ledger,
            tracer,
            |ctx| {
                let next = (ctx.pid() + 1) % ctx.nprocs();
                (0..msg_reps).all(|_| {
                    message::send_msg(ctx, next, &payload);
                    ctx.sync();
                    let got = message::recv_msgs(ctx);
                    got.len() == 1 && got[0].1 == payload
                })
            },
            |r| r.iter().all(|&ok| ok),
        );
        let mb = (p * msg_reps * MSG) as f64 / 1e6;
        let rates: Vec<f64> = walls.iter().map(|w| mb / w).collect();
        ledger.layer_of("message.send_recv_mb_s", "MB/s", &rates);

        // 64 doubles put into the next process's region per boundary.
        let walls = self.time_runs(
            "drma.put_sync_us",
            &cfg,
            ledger,
            tracer,
            |ctx| {
                let next = (ctx.pid() + 1) % ctx.nprocs();
                let mut mem = Drma::new(vec![vec![0.0; 64]]);
                let values: Vec<f64> = (0..64).map(|i| (ctx.pid() * 64 + i) as f64).collect();
                for _ in 0..reps {
                    mem.put(next, 0, 0, &values);
                    mem.sync_put(ctx);
                }
                let prev = (ctx.pid() + ctx.nprocs() - 1) % ctx.nprocs();
                mem.region(0)
                    .iter()
                    .enumerate()
                    .all(|(i, &v)| v == (prev * 64 + i) as f64)
            },
            |r| r.iter().all(|&ok| ok),
        );
        ledger.layer_of("drma.put_sync_us", "us", &per_op_us(&walls, reps));
    }

    /// `cost.calibrate_ms`, `tune.plan_us`, `tune.pred_rel_err`,
    /// `tune.pick_p`: what planning costs and how well `T = W + gH + LS`
    /// predicts the six apps. `rows` carries each app's sequential-simulator
    /// profiles and measured walls from the two app workloads.
    pub fn cost_model(&self, rows: &[TuneRow], ledger: &mut Ledger, tracer: &mut Tracer) {
        let (p, rt) = (self.env.width.p, self.rt);
        let span = tracer.begin("cost.calibrate");
        let t0 = Instant::now();
        let cal = cost::try_calibrate_with(rt, BackendKind::Shared, p);
        let calibrate_ms = t0.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        ledger.check(cal.is_ok(), || {
            "cost: the calibration probe failed".to_string()
        });
        ledger.layer("cost.calibrate_ms", "ms", Summary::single(calibrate_ms));

        // The first plan calibrates (and caches) every (backend, p) it prices;
        // `tune.plan_us` is the warm planning cost after that.
        let opts = TuneOpts {
            backends: vec![BackendKind::Shared],
            max_procs: p,
            try_hardened: false,
            try_relaxed: false,
        };
        let (mut plan_us, mut errs, mut picks) = (Vec::new(), Vec::new(), Vec::new());
        for row in rows {
            let span = tracer.begin("tune.plan");
            tune::plan(&row.profiles, &opts);
            let t0 = Instant::now();
            let plan = tune::plan(&row.profiles, &opts);
            plan_us.push(t0.elapsed().as_secs_f64() * 1e6);
            tracer.end(span);
            let chosen = plan.chosen();
            picks.push(chosen.nprocs as f64);
            if let Some(&(_, measured)) = row.measured.iter().find(|(w, _)| *w == chosen.nprocs) {
                errs.push((chosen.predicted_secs - measured).abs() / measured);
            }
        }
        ledger.layer_of("tune.plan_us", "us", &plan_us);
        ledger.layer(
            "tune.pred_rel_err",
            "ratio",
            Summary::single(if errs.is_empty() { 0.0 } else { median(&errs) }),
        );
        ledger.layer(
            "tune.pick_p",
            "count",
            Summary::single(if picks.is_empty() {
                0.0
            } else {
                median(&picks)
            }),
        );
    }
}

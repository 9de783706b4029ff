//! Workload `jobs`: the executor's queue, lease and arena and the
//! runner's set-up and tear-down do all the work — no application
//! compute, next to no traffic. One submitter, closed loop: a pass is a
//! run of sequential `submit(..).join()` calls (each latency recorded), a
//! run of empty jobs kept eight in flight, and a run of small
//! four-superstep jobs. Every job's result is checked.

use crate::json::Json;
use crate::ledger::{pkt_equivalents, traffic, Env, Ledger, PassSamples};
use crate::quant::{quantile, Summary};
use crate::scale::Budget;
use crate::trace::Tracer;
use green_bsp::{collectives, Config, Ctx, JobHandle, Packet, RunStats, Runtime};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Empty jobs kept in flight in the windowed phase.
const WINDOW: usize = 8;

/// Packets each process sends in the small job's exchange superstep.
const SMALL_PKTS: usize = 64;

/// The empty job: no superstep boundary, one value per process.
fn touch(ctx: &mut Ctx) -> usize {
    ctx.pid()
}

#[inline]
fn small_fold(pid: usize, k: usize) -> u64 {
    ((pid as u64) << 16 | k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Four supersteps: an all-reduce, a 64-packet exchange, an all-reduce of
/// what the exchange delivered, and the final partial superstep.
fn small(ctx: &mut Ctx) -> (u64, u64) {
    let (p, me) = (ctx.nprocs(), ctx.pid());
    let ranks = collectives::allreduce_u64(ctx, me as u64 + 1, |a, b| a + b);
    for k in 0..SMALL_PKTS {
        ctx.send_pkt((me + 1 + k) % p, Packet::two_u64(me as u64, k as u64));
    }
    ctx.sync();
    let mut got = 0u64;
    while let Some(pkt) = ctx.get_pkt() {
        let (src, k) = pkt.as_two_u64();
        got = got.wrapping_add(small_fold(src as usize, k as usize));
    }
    let all = collectives::allreduce_u64(ctx, got, u64::wrapping_add);
    (ranks, all)
}

/// What every process of a `p`-wide small job must return.
fn small_expected(p: usize) -> (u64, u64) {
    let ranks = (p * (p + 1) / 2) as u64;
    let all = (0..p)
        .flat_map(|pid| (0..SMALL_PKTS).map(move |k| small_fold(pid, k)))
        .fold(0u64, u64::wrapping_add);
    (ranks, all)
}

/// Samples of one pass.
#[derive(Default)]
struct Pass {
    wall: f64,
    launch_us: Vec<f64>,
    jobs_per_s: f64,
    small_job_us: f64,
    pkts: u64,
    bytes: u64,
    queue_wait: Duration,
    setup: Duration,
    teardown: Duration,
    joined: u64,
}

pub struct Jobs {
    rt: Runtime,
    p: usize,
    seq: usize,
    windowed: usize,
    small: usize,
    cold_first_run_ms: f64,
}

impl Jobs {
    pub fn setup(env: &Env, tracer: &mut Tracer) -> Jobs {
        let span = tracer.begin("setup.runtime");
        let rt = Runtime::new();
        tracer.end(span);
        // First run on a runtime with no workers and an empty arena: the
        // cold launch every process pays once.
        let span = tracer.begin("setup.cold_run");
        let t0 = Instant::now();
        let cold = rt.try_run(&Config::new(env.width.p), touch);
        let cold_first_run_ms = t0.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        drop(cold);
        let span = tracer.begin("setup.prewarm");
        rt.prewarm(&Config::new(env.width.p));
        rt.prewarm(&Config::new(1));
        tracer.end(span);
        let sc = &env.scale;
        Jobs {
            rt,
            p: env.width.p,
            seq: sc.jobs_seq,
            windowed: sc.jobs_windowed,
            small: sc.jobs_small,
            cold_first_run_ms,
        }
    }

    /// Join `h` under a span and check its per-process results.
    fn join<R: PartialEq + std::fmt::Debug>(
        h: JobHandle<R>,
        want: impl Fn(usize) -> R,
        pass: &mut Pass,
        ledger: &mut Ledger,
        tracer: &mut Tracer,
    ) -> Option<RunStats> {
        let span = tracer.begin("exec.join");
        let res = h.join();
        tracer.end(span);
        match res {
            Ok(out) => {
                let ok = out
                    .results
                    .iter()
                    .enumerate()
                    .all(|(pid, r)| *r == want(pid));
                ledger.check(ok, || format!("jobs: wrong job result {:?}", out.results));
                pass.joined += 1;
                pass.queue_wait += out.stats.queue_wait;
                pass.setup += out.stats.setup;
                pass.teardown += out.stats.teardown;
                Some(out.stats)
            }
            Err(e) => {
                ledger.fail(format!("jobs: {e}"));
                None
            }
        }
    }

    fn pass(&self, p: usize, ledger: &mut Ledger, tracer: &mut Tracer) -> Pass {
        let cfg = Config::new(p);
        let mut pass = Pass::default();
        let span = tracer.begin(&format!("pass p={p}"));
        let start = Instant::now();

        let phase = tracer.begin("jobs.sequential");
        for _ in 0..self.seq {
            let t0 = Instant::now();
            let s = tracer.begin("exec.submit");
            let h = self.rt.submit(&cfg, touch);
            tracer.end(s);
            Self::join(h, |pid| pid, &mut pass, ledger, tracer);
            pass.launch_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        tracer.end(phase);

        let phase = tracer.begin("jobs.windowed");
        let t0 = Instant::now();
        let mut inflight: VecDeque<JobHandle<usize>> = VecDeque::with_capacity(WINDOW);
        for _ in 0..self.windowed {
            if inflight.len() == WINDOW {
                let h = inflight.pop_front().expect("window is full");
                Self::join(h, |pid| pid, &mut pass, ledger, tracer);
            }
            let s = tracer.begin("exec.submit");
            inflight.push_back(self.rt.submit(&cfg, touch));
            tracer.end(s);
        }
        for h in inflight {
            Self::join(h, |pid| pid, &mut pass, ledger, tracer);
        }
        pass.jobs_per_s = self.windowed as f64 / t0.elapsed().as_secs_f64();
        tracer.end(phase);

        let phase = tracer.begin("jobs.small");
        let t0 = Instant::now();
        let want = small_expected(p);
        for _ in 0..self.small {
            let s = tracer.begin("exec.submit");
            let h = self.rt.submit(&cfg, small);
            tracer.end(s);
            if let Some(stats) = Self::join(h, |_| want, &mut pass, ledger, tracer) {
                let (k, b) = traffic(&stats);
                pass.pkts += k;
                pass.bytes += b;
            }
        }
        pass.small_job_us = t0.elapsed().as_secs_f64() * 1e6 / self.small as f64;
        tracer.end(phase);

        pass.wall = start.elapsed().as_secs_f64();
        tracer.end(span);
        pass
    }

    pub fn measure(&mut self, budget: &Budget, ledger: &mut Ledger, tracer: &mut Tracer) {
        let mut out = PassSamples::default();
        let (mut small_us, mut queue_us, mut setup_us, mut teardown_us) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        // Submit-to-join latency of every sequential job of the timed passes.
        let mut launch_us = Vec::new();
        let (hits0, misses0) = (self.rt.arena_hits(), self.rt.arena_misses());
        let jobs_per_pass = (self.seq + self.windowed + self.small) as u64;
        let n = budget.drive(|timed| {
            let wide = self.pass(self.p, ledger, tracer);
            let narrow = self.pass(1, ledger, tracer);
            if !timed || wide.joined != jobs_per_pass || narrow.joined != jobs_per_pass {
                return;
            }
            out.wall.push(wide.wall);
            out.wall_p1.push(narrow.wall);
            out.pkts_per_s
                .push(pkt_equivalents(wide.pkts, wide.bytes) as f64 / wide.wall);
            out.bytes_per_s
                .push((16 * wide.pkts + wide.bytes) as f64 / wide.wall);
            out.jobs_per_s.push(wide.jobs_per_s);
            launch_us.extend(wide.launch_us);
            small_us.push(wide.small_job_us);
            let per_job = |d: Duration| d.as_secs_f64() * 1e6 / wide.joined as f64;
            queue_us.push(per_job(wide.queue_wait));
            setup_us.push(per_job(wide.setup));
            teardown_us.push(per_job(wide.teardown));
        });
        ledger.note("jobs.timed_passes", Json::Num(n as f64));
        if out.wall.is_empty() {
            ledger.fail("jobs: no pass completed".to_string());
            return;
        }
        out.emit(ledger);

        let (hits, misses) = (
            self.rt.arena_hits() - hits0,
            self.rt.arena_misses() - misses0,
        );
        ledger.layer("exec.launch_p50_us", "us", Summary::of(&launch_us));
        ledger.layer(
            "exec.launch_p99_us",
            "us",
            Summary::single(quantile(&launch_us, 0.99)),
        );
        ledger.layer_of("exec.queue_wait_us", "us", &queue_us);
        ledger.layer(
            "exec.arena_hit_ratio",
            "ratio",
            Summary::single(hits as f64 / (hits + misses).max(1) as f64),
        );
        ledger.layer_of("exec.small_job_us", "us", &small_us);
        ledger.layer_of("runner.setup_us", "us", &setup_us);
        ledger.layer_of("runner.teardown_us", "us", &teardown_us);
        ledger.layer(
            "runner.cold_first_run_ms",
            "ms",
            Summary::single(self.cold_first_run_ms),
        );
    }

    pub fn finish(self) {
        self.rt.shutdown();
    }
}

//! Workloads `exchange-pkt` and `exchange-bytes`: no application compute,
//! only the communication hot path, once per backend and pass.
//!
//! `exchange-pkt` stresses the 16-byte packet lane (`send_pkt`, `sync`,
//! `get_pkt`) with so few boundaries per packet that it isolates the gap
//! `g` from the latency `L`. `exchange-bytes` drives the same `context`
//! and `backend` layers the other way: the byte lane, with tiny messages
//! beside huge ones, so a gain on one lane or size that costs another
//! shows.
//!
//! Every process folds what it receives into a count and a checksum that
//! set-up computed independently from the traffic pattern.

use crate::gen;
use crate::json::Json;
use crate::ledger::{pkt_equivalents, Env, Ledger, PassSamples};
use crate::quant::{median, Summary};
use crate::scale::Budget;
use crate::trace::{ProcSpans, Tracer};
use green_bsp::{BackendKind, BspError, Config, Ctx, Packet, RunStats, Runtime};
use std::time::{Duration, Instant};

pub const BACKENDS: [(&str, BackendKind); 3] = [
    ("shared", BackendKind::Shared),
    ("msgpass", BackendKind::MsgPass),
    ("tcpsim", BackendKind::TcpSim),
];

/// What one process received: message count and checksum.
type Fold = (u64, u64);

/// How the packet exchange addresses and issues its sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PktPattern {
    /// `send_pkt`, destination `(i + step) % p`.
    Rotating,
    /// The same traffic through one `send_pkts` call per destination.
    Batched,
    /// `send_pkt`, every packet to process 0.
    FanIn,
}

#[inline]
fn pkt_of(src: usize, step: usize, i: usize) -> Packet {
    Packet::two_u64(((src as u64) << 32) | step as u64, i as u64)
}

#[inline]
fn fold_pkt(acc: Fold, pkt: Packet) -> Fold {
    let (a, b) = pkt.as_two_u64();
    (
        acc.0 + 1,
        acc.1
            .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b),
    )
}

#[inline]
fn pkt_dest(pattern: PktPattern, p: usize, step: usize, i: usize) -> usize {
    match pattern {
        PktPattern::FanIn => 0,
        _ => (i + step) % p,
    }
}

/// What each process must receive, recomputed from the pattern without
/// the library.
fn expected_pkts(pattern: PktPattern, p: usize, steps: usize, sends: usize) -> Vec<Fold> {
    let mut want = vec![(0, 0); p];
    for src in 0..p {
        for step in 0..steps {
            for i in 0..sends {
                let d = pkt_dest(pattern, p, step, i);
                want[d] = fold_pkt(want[d], pkt_of(src, step, i));
            }
        }
    }
    want
}

/// The packet exchange as one BSP process runs it.
fn pkt_program(
    ctx: &mut Ctx,
    pattern: PktPattern,
    steps: usize,
    sends: usize,
    trace: bool,
) -> (Fold, ProcSpans) {
    let (p, me) = (ctx.nprocs(), ctx.pid());
    let mut spans = ProcSpans::new(trace);
    let mut got = (0, 0);
    let mut batches: Vec<Vec<Packet>> = vec![Vec::new(); p];
    for step in 0..steps {
        match pattern {
            PktPattern::Rotating => spans.time("context.send_pkt", || {
                // A wrapping counter, not `%`: a division per packet
                // would cost as much as the send it addresses.
                let mut dest = step % p;
                for i in 0..sends {
                    ctx.send_pkt(dest, pkt_of(me, step, i));
                    dest += 1;
                    if dest == p {
                        dest = 0;
                    }
                }
            }),
            PktPattern::FanIn => spans.time("context.send_pkt", || {
                for i in 0..sends {
                    ctx.send_pkt(0, pkt_of(me, step, i));
                }
            }),
            PktPattern::Batched => {
                for b in &mut batches {
                    b.clear();
                }
                for i in 0..sends {
                    batches[(i + step) % p].push(pkt_of(me, step, i));
                }
                spans.time("context.send_pkts", || {
                    for (dest, b) in batches.iter().enumerate() {
                        ctx.send_pkts(dest, b);
                    }
                });
            }
        }
        spans.time("sync", || ctx.sync());
        spans.time("context.get_pkt", || {
            while let Some(pkt) = ctx.get_pkt() {
                got = fold_pkt(got, pkt);
            }
        });
    }
    (got, spans)
}

/// Message sizes of one superstep, the payload pool they are cut from,
/// and (for the size-class probe) the classes themselves.
struct ByteTraffic {
    sizes: Vec<u32>,
    pool: Vec<u8>,
    classes: [(usize, usize); 3],
}

const CLASS_SPANS: [&str; 3] = [
    "context.send_bytes_64",
    "context.send_bytes_1k",
    "context.send_bytes_64k",
];

#[inline]
fn word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("eight bytes"))
}

/// Fold one received message. `full` reads every byte; the timed passes
/// read the length and the first and last word only, so the checksum does
/// not dilute the copy being measured.
#[inline]
fn fold_msg(acc: Fold, src: usize, payload: &[u8], full: bool) -> Fold {
    let n = payload.len();
    let mut h =
        gen::mix(src as u64, n as u64) ^ word(payload) ^ word(&payload[n - 8..]).rotate_left(29);
    if full {
        h = payload.chunks_exact(8).fold(h, |h, w| gen::mix(h, word(w)));
    }
    (acc.0 + 1, acc.1.wrapping_add(h))
}

impl ByteTraffic {
    fn new(classes: [(usize, usize); 3], seed: u64) -> ByteTraffic {
        let sizes = gen::size_order(&classes, seed);
        let total: usize = sizes.iter().map(|&s| s as usize).sum();
        ByteTraffic {
            sizes,
            pool: gen::bytes(total, seed ^ 0xB17E),
            classes,
        }
    }

    fn bytes_per_step(&self) -> usize {
        self.pool.len()
    }

    /// The messages process `src` sends in `step`: `(dest, payload)`.
    /// With `class` set, only that size class (the probe).
    fn messages(
        &self,
        p: usize,
        step: usize,
        class: Option<usize>,
    ) -> impl Iterator<Item = (usize, &[u8])> {
        let only = class.map(|c| self.classes[c].1 as u32);
        let mut off = 0;
        self.sizes.iter().enumerate().filter_map(move |(k, &len)| {
            let at = off;
            off += len as usize;
            (only.is_none_or(|o| o == len))
                .then(|| ((k + step) % p, &self.pool[at..at + len as usize]))
        })
    }

    fn expected(&self, p: usize, steps: usize, by_class: bool, full: bool) -> Vec<Fold> {
        let mut want = vec![(0, 0); p];
        for src in 0..p {
            for step in 0..steps {
                let class = by_class.then_some(step % 3);
                for (d, payload) in self.messages(p, step, class) {
                    want[d] = fold_msg(want[d], src, payload, full);
                }
            }
        }
        want
    }

    fn program(
        &self,
        ctx: &mut Ctx,
        steps: usize,
        by_class: bool,
        full: bool,
        trace: bool,
    ) -> (Fold, ProcSpans) {
        let p = ctx.nprocs();
        let mut spans = ProcSpans::new(trace);
        let mut got = (0, 0);
        for step in 0..steps {
            let class = by_class.then_some(step % 3);
            let name = class.map_or("context.send_bytes", |c| CLASS_SPANS[c]);
            spans.time(name, || {
                for (dest, payload) in self.messages(p, step, class) {
                    ctx.send_bytes(dest, payload);
                }
            });
            spans.time("sync", || ctx.sync());
            spans.time("context.recv_bytes", || {
                while let Some((src, payload)) = ctx.recv_bytes() {
                    got = fold_msg(got, src, payload, full);
                }
            });
        }
        (got, spans)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Pkt,
    Bytes,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Pkt => "exchange-pkt",
            Kind::Bytes => "exchange-bytes",
        }
    }
}

/// One finished exchange run.
struct Ran {
    wall: f64,
    stats: RunStats,
    spans: Vec<ProcSpans>,
    /// Messages delivered, as the receivers counted them.
    delivered: u64,
}

pub struct Exchange {
    kind: Kind,
    rt: Runtime,
    p: usize,
    steps: usize,
    sends: usize,
    bytes: Option<ByteTraffic>,
    smoke: bool,
    want_wide: Vec<Fold>,
    want_narrow: Vec<Fold>,
}

impl Exchange {
    pub fn setup(env: &Env, kind: Kind, ledger: &mut Ledger, tracer: &mut Tracer) -> Exchange {
        let p = env.width.p;
        let sc = &env.scale;
        let span = tracer.begin("setup.generate");
        let (steps, bytes) = match kind {
            Kind::Pkt => (sc.xpkt_steps, None),
            Kind::Bytes => (
                sc.xbytes_steps,
                Some(ByteTraffic::new(sc.xbytes_mix, env.seed)),
            ),
        };
        tracer.end(span);

        let span = tracer.begin("setup.expected");
        let want = |p: usize| match &bytes {
            None => expected_pkts(PktPattern::Rotating, p, steps, sc.xpkt_sends),
            Some(t) => t.expected(p, steps, false, false),
        };
        let (want_wide, want_narrow) = (want(p), want(1));
        tracer.end(span);

        let span = tracer.begin("setup.runtime");
        let rt = Runtime::new();
        for (_, backend) in BACKENDS {
            rt.prewarm(&Config::new(p).backend(backend));
            rt.prewarm(&Config::new(1).backend(backend));
        }
        tracer.end(span);

        let x = Exchange {
            kind,
            rt,
            p,
            steps,
            sends: sc.xpkt_sends,
            bytes,
            smoke: sc.smoke,
            want_wide,
            want_narrow,
        };
        // First (cold) run on every backend. The byte exchange reads every
        // delivered byte here; the timed passes sample each message.
        let span = tracer.begin("setup.cold_run");
        for (_, backend) in BACKENDS {
            if let Some(t) = &x.bytes {
                let want = t.expected(p, steps, false, true);
                let cfg = Config::new(p).backend(backend);
                let res =
                    x.rt.try_run(&cfg, |ctx| t.program(ctx, steps, false, true, false));
                x.verify(res, &want, &cfg, ledger);
            } else {
                x.run(true, backend, ledger, tracer);
            }
        }
        tracer.end(span);
        x
    }

    /// Count a run's result against `want`; returns it if it completed.
    fn verify(
        &self,
        res: Result<green_bsp::RunOutput<(Fold, ProcSpans)>, BspError>,
        want: &[Fold],
        cfg: &Config,
        ledger: &mut Ledger,
    ) -> Option<(RunStats, Vec<ProcSpans>, u64)> {
        match res {
            Ok(out) => {
                let (folds, spans): (Vec<Fold>, Vec<ProcSpans>) = out.results.into_iter().unzip();
                ledger.check(folds == want, || {
                    format!(
                        "{} p={} on {:?}: delivered (count, checksum) {folds:?}, expected {want:?}",
                        self.kind.name(),
                        cfg.nprocs,
                        cfg.backend
                    )
                });
                let delivered = folds.iter().map(|f| f.0).sum();
                Some((out.stats, spans, delivered))
            }
            Err(e) => {
                ledger.fail(format!("{} on {:?}: {e}", self.kind.name(), cfg.backend));
                None
            }
        }
    }

    /// One run of the workload's own pattern at `p = P` or `p = 1`.
    fn run(
        &self,
        wide: bool,
        backend: BackendKind,
        ledger: &mut Ledger,
        tracer: &mut Tracer,
    ) -> Option<Ran> {
        let (p, want) = if wide {
            (self.p, &self.want_wide)
        } else {
            (1, &self.want_narrow)
        };
        let cfg = Config::new(p).backend(backend);
        let (steps, sends, trace) = (self.steps, self.sends, tracer.on());
        self.timed(&cfg, want, ledger, tracer, |ctx| match &self.bytes {
            None => pkt_program(ctx, PktPattern::Rotating, steps, sends, trace),
            Some(t) => t.program(ctx, steps, false, false, trace),
        })
    }

    /// Time one `try_run` of `program` under a span, verify it, and attach
    /// what the processes recorded.
    fn timed(
        &self,
        cfg: &Config,
        want: &[Fold],
        ledger: &mut Ledger,
        tracer: &mut Tracer,
        program: impl Fn(&mut Ctx) -> (Fold, ProcSpans) + Sync,
    ) -> Option<Ran> {
        let span = tracer.begin(&format!("run {:?} p={}", cfg.backend, cfg.nprocs));
        let t0 = Instant::now();
        let res = self.rt.try_run(cfg, program);
        let wall = t0.elapsed().as_secs_f64();
        let ran = self
            .verify(res, want, cfg, ledger)
            .map(|(stats, spans, delivered)| {
                for (pid, s) in spans.iter().enumerate() {
                    tracer.attach(span, pid, s);
                }
                Ran {
                    wall,
                    stats,
                    spans,
                    delivered,
                }
            });
        tracer.end(span);
        ran
    }

    /// Payload bytes one delivered message count stands for.
    fn payload_bytes(&self, p: usize) -> u64 {
        self.bytes
            .as_ref()
            .map_or(0, |t| (t.bytes_per_step() * self.steps * p) as u64)
    }

    pub fn measure(&mut self, budget: &Budget, ledger: &mut Ledger, tracer: &mut Tracer) {
        let mut out = PassSamples::default();
        // Per backend: run walls, and per-process span totals of the
        // traced passes.
        let mut walls: [Vec<f64>; 3] = Default::default();
        let mut boundary_us: [Vec<f64>; 3] = Default::default();
        let (mut send_ns, mut drain_ns) = (Vec::new(), Vec::new());
        let mut counters = green_bsp::stats::TransportCounters::default();
        let n = budget.drive(|timed| {
            let span = tracer.begin("pass");
            let mut wide = Vec::new();
            let mut narrow_wall = 0.0;
            let mut ok = true;
            for (_, backend) in BACKENDS {
                match self.run(true, backend, ledger, tracer) {
                    Some(r) => wide.push(r),
                    None => ok = false,
                }
            }
            for (_, backend) in BACKENDS {
                match self.run(false, backend, ledger, tracer) {
                    Some(r) => narrow_wall += r.wall,
                    None => ok = false,
                }
            }
            tracer.end(span);
            if !(timed && ok) {
                return;
            }
            let wall: f64 = wide.iter().map(|r| r.wall).sum();
            let (mut pkts, mut lane_bytes) = (0, 0);
            counters = Default::default();
            for (b, r) in wide.iter().enumerate() {
                walls[b].push(r.wall);
                pkts += r.stats.total_pkts();
                lane_bytes += r.stats.total_bytes();
                counters.add(&r.stats.transport_total());
                if tracer.on() {
                    let slowest = |name: &str| {
                        r.spans
                            .iter()
                            .map(|s| s.total(name))
                            .max()
                            .unwrap_or_default()
                    };
                    boundary_us[b].push(slowest("sync").as_secs_f64() * 1e6 / self.steps as f64);
                    if b == 0 {
                        let (send, drain) = match self.kind {
                            Kind::Pkt => ("context.send_pkt", "context.get_pkt"),
                            Kind::Bytes => ("context.send_bytes", "context.recv_bytes"),
                        };
                        // Calls per process: every process sends, and on
                        // average receives, an equal share.
                        let calls = r.delivered as f64 / self.p as f64;
                        send_ns.push(slowest(send).as_secs_f64() * 1e9 / calls);
                        drain_ns.push(slowest(drain).as_secs_f64() * 1e9 / calls);
                    }
                }
            }
            out.wall.push(wall);
            out.wall_p1.push(narrow_wall);
            match self.kind {
                Kind::Pkt => {
                    out.pkts_per_s.push(pkts as f64 / wall);
                    out.bytes_per_s.push((16 * pkts) as f64 / wall);
                }
                Kind::Bytes => {
                    out.pkts_per_s
                        .push(pkt_equivalents(pkts, lane_bytes) as f64 / wall);
                    out.bytes_per_s
                        .push((3 * self.payload_bytes(self.p)) as f64 / wall);
                }
            }
            out.jobs_per_s.push(wide.len() as f64 / wall);
        });
        ledger.note(
            &format!("{}.timed_passes", self.kind.name()),
            Json::Num(n as f64),
        );
        if out.wall.is_empty() {
            ledger.fail(format!("{}: no pass completed", self.kind.name()));
            return;
        }
        out.emit(ledger);

        // Per-backend rates: the traffic of one run over its median wall.
        let per_backend = match self.kind {
            Kind::Pkt => (self.p * self.steps * self.sends) as f64,
            Kind::Bytes => self.payload_bytes(self.p) as f64,
        };
        for (b, (label, _)) in BACKENDS.iter().enumerate() {
            let rate = per_backend / median(&walls[b]);
            match self.kind {
                Kind::Pkt => {
                    ledger.layer(
                        &format!("backend.{label}.pkts_per_s"),
                        "1/s",
                        Summary::single(rate),
                    );
                    ledger.layer_of(
                        &format!("backend.{label}.boundary_us"),
                        "us",
                        &boundary_us[b],
                    );
                }
                Kind::Bytes => ledger.layer(
                    &format!("backend.{label}.bytes_per_s"),
                    "B/s",
                    Summary::single(rate),
                ),
            }
        }
        match self.kind {
            Kind::Pkt => {
                ledger.layer_of("context.send_pkt_ns", "ns", &send_ns);
                ledger.layer_of("context.get_pkt_ns", "ns", &drain_ns);
                let count = |v: u64| Summary::single(v as f64);
                ledger.layer("backend.pkts_moved", "count", count(counters.pkts_moved));
                ledger.layer(
                    "backend.overflow_spills",
                    "count",
                    count(counters.overflow_spills),
                );
                ledger.layer(
                    "backend.slab_regrows",
                    "count",
                    count(counters.slab_regrows),
                );
                ledger.layer(
                    "backend.lock_acquisitions",
                    "count",
                    count(counters.lock_acquisitions),
                );
            }
            Kind::Bytes => {
                ledger.layer_of("context.recv_bytes_ns", "ns", &drain_ns);
                ledger.layer(
                    "backend.bytes_moved",
                    "count",
                    Summary::single(counters.bytes_moved as f64),
                );
            }
        }
    }

    /// Three verified runs (one in the smoke mode) of `program` under a
    /// span, after one warm-up run.
    fn probe(
        &self,
        name: &str,
        cfg: &Config,
        want: &[Fold],
        ledger: &mut Ledger,
        tracer: &mut Tracer,
        program: impl Fn(&mut Ctx) -> (Fold, ProcSpans) + Sync,
    ) -> Vec<Ran> {
        let runs = if self.smoke { 1 } else { 3 };
        let span = tracer.begin(name);
        self.rt.prewarm(cfg);
        let _warm = self.timed(cfg, want, ledger, tracer, &program);
        let ran = (0..runs)
            .filter_map(|_| self.timed(cfg, want, ledger, tracer, &program))
            .collect();
        tracer.end(span);
        ran
    }

    /// Layer probes a traced run adds: the batched call and the fan-in on
    /// the packet lane, the price of the hardening and checking wrappers,
    /// and the per-size cost of `send_bytes`.
    pub fn probe_layers(&self, ledger: &mut Ledger, tracer: &mut Tracer) {
        let (p, steps, sends, trace) = (self.p, self.steps, self.sends, tracer.on());
        let bare = Config::new(p);
        let slowest = |ran: &[Ran], name: &str| -> Vec<f64> {
            ran.iter()
                .map(|r| {
                    r.spans
                        .iter()
                        .map(|s| s.total(name))
                        .max()
                        .unwrap_or_default()
                })
                .map(|d: Duration| d.as_secs_f64() * 1e9)
                .collect()
        };
        match &self.bytes {
            None => {
                let calls = (steps * sends) as f64;
                let total = (p * steps * sends) as f64;
                let rate =
                    |ran: &[Ran]| -> Vec<f64> { ran.iter().map(|r| total / r.wall).collect() };

                let ran = self.probe(
                    "probe.send_pkts",
                    &bare,
                    &self.want_wide,
                    ledger,
                    tracer,
                    |ctx| pkt_program(ctx, PktPattern::Batched, steps, sends, trace),
                );
                let per_pkt: Vec<f64> = slowest(&ran, "context.send_pkts")
                    .iter()
                    .map(|ns| ns / calls)
                    .collect();
                ledger.layer_of("context.send_pkts_ns", "ns", &per_pkt);

                let want = expected_pkts(PktPattern::FanIn, p, steps, sends);
                let ran = self.probe("probe.fanin", &bare, &want, ledger, tracer, |ctx| {
                    pkt_program(ctx, PktPattern::FanIn, steps, sends, trace)
                });
                ledger.layer_of("backend.shared.fanin_pkts_per_s", "1/s", &rate(&ran));

                // Wrapper prices: the same exchange, fewer supersteps (the
                // checker keeps per-packet records), as a rate ratio over
                // the bare stack at that length.
                let short = (steps / 8).max(2);
                let want = expected_pkts(PktPattern::Rotating, p, short, sends);
                let short_total = (p * short * sends) as f64;
                let mut short_rate = |name: &str, cfg: &Config| -> f64 {
                    let ran = self.probe(name, cfg, &want, ledger, tracer, |ctx| {
                        pkt_program(ctx, PktPattern::Rotating, short, sends, false)
                    });
                    let walls: Vec<f64> = ran.iter().map(|r| r.wall).collect();
                    if walls.is_empty() {
                        0.0
                    } else {
                        short_total / median(&walls)
                    }
                };
                let base = short_rate("probe.bare", &bare);
                let hardened = short_rate("probe.hardened", &bare.clone().hardened());
                let checked = short_rate("probe.checked", &bare.clone().checked());
                let ratio = |x: f64| Summary::single(if base > 0.0 { x / base } else { 0.0 });
                ledger.layer("fault.hardened_ratio", "ratio", ratio(hardened));
                ledger.layer("check.checked_ratio", "ratio", ratio(checked));
            }
            Some(t) => {
                let steps = steps.max(3).next_multiple_of(3);
                let want = t.expected(p, steps, true, false);
                let ran = self.probe("probe.send_bytes", &bare, &want, ledger, tracer, |ctx| {
                    t.program(ctx, steps, true, false, trace)
                });
                for (c, name) in CLASS_SPANS.iter().enumerate() {
                    let calls = (t.classes[c].0 * steps / 3) as f64;
                    let per_call: Vec<f64> =
                        slowest(&ran, name).iter().map(|ns| ns / calls).collect();
                    ledger.layer_of(&format!("{name}_ns"), "ns", &per_call);
                }
            }
        }
    }

    pub fn finish(self) {
        self.rt.shutdown();
    }
}

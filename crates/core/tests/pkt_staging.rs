//! The packet lane end to end (DESIGN.md §7): `Ctx::send_pkt` stages
//! packets per destination for the whole superstep, and a transport sees
//! one buffer per destination — at a boundary, and when the program
//! returns. Delivery is one segment per source pid: ascending source, then
//! send order, on every backend and wrapper stack.

mod common;

use common::{backends, matches_seqsim};
use green_bsp::collectives::gather_pkts;
use green_bsp::drma::Drma;
use green_bsp::{BspError, CancelToken, CheckKind, Ctx, Packet, Runtime};

/// A packet that names its sender, its superstep and its position.
fn pkt(ctx: &Ctx, i: usize) -> Packet {
    Packet::two_u64(
        ((ctx.pid() as u64) << 32) | ctx.superstep() as u64,
        i as u64,
    )
}

/// Everything delivered this superstep, in delivery order.
fn drain(ctx: &mut Ctx) -> Vec<(u64, u64)> {
    std::iter::from_fn(|| ctx.get_pkt())
        .map(|p| p.as_two_u64())
        .collect()
}

/// `n` packets to the next process, or `n` to every process interleaved
/// one destination after the other; then one boundary and a drain.
fn exchange(ctx: &mut Ctx, n: usize, interleaved: bool) -> Vec<(u64, u64)> {
    let p = ctx.nprocs();
    for i in 0..n {
        if interleaved {
            for dest in 0..p {
                ctx.send_pkt(dest, pkt(ctx, i));
            }
        } else {
            ctx.send_pkt((ctx.pid() + 1) % p, pkt(ctx, i));
        }
    }
    ctx.sync();
    drain(ctx)
}

#[test]
fn volumes_match_seqsim() {
    let p = 3;
    for n in [0usize, 1, 1_000, 3_001] {
        for interleaved in [false, true] {
            let want = matches_seqsim(p, |cfg| cfg, |ctx| exchange(ctx, n, interleaved));
            let per_proc = if interleaved { p * n } else { n };
            assert!(want.results.iter().all(|r| r.len() == per_proc));
            assert_eq!(want.stats.total_pkts(), (p * per_proc) as u64);
        }
    }
}

/// What `src` sends `dest` in `step`, in send order: up to eight packets,
/// and some pairs silent.
fn script(src: usize, dest: usize, step: usize) -> Vec<(u64, u64)> {
    let n = (src * 3 + dest * 5 + step * 7) % 9;
    let tag = ((src as u64) << 32) | step as u64;
    (0..n).map(|i| (tag, (dest * 100 + i) as u64)).collect()
}

/// What `dest` must receive after `step`, in delivery order.
fn expected(p: usize, dest: usize, step: usize) -> Vec<(u64, u64)> {
    (0..p).flat_map(|src| script(src, dest, step)).collect()
}

fn packets(script: &[(u64, u64)]) -> Vec<Packet> {
    script.iter().map(|&(a, b)| Packet::two_u64(a, b)).collect()
}

#[test]
fn delivery_is_ascending_source_then_send_order_on_every_stack() {
    const STEPS: usize = 3;
    for p in [1usize, 3, 4] {
        let program = |ctx: &mut Ctx| {
            let (p, me) = (ctx.nprocs(), ctx.pid());
            let mut seen = Vec::new();
            for step in 0..STEPS {
                // Three passes over the destinations — single packets, one
                // batch, single packets — so every destination's traffic is
                // interleaved with every other's.
                let out: Vec<Vec<Packet>> = (0..p).map(|d| packets(&script(me, d, step))).collect();
                let third = |s: &[Packet], k: usize| s.len() * k / 3;
                for (dest, s) in out.iter().enumerate() {
                    for &pkt in &s[..third(s, 1)] {
                        ctx.send_pkt(dest, pkt);
                    }
                }
                for (dest, s) in out.iter().enumerate() {
                    ctx.send_pkts(dest, &s[third(s, 1)..third(s, 2)]);
                }
                for (dest, s) in out.iter().enumerate() {
                    for &pkt in &s[third(s, 2)..] {
                        ctx.send_pkt(dest, pkt);
                    }
                }
                ctx.sync();
                assert_eq!(ctx.pkts_remaining(), expected(p, me, step).len());
                seen.push(drain(ctx));
                // A gather at process 0 hands back the root's own packets,
                // then everyone else's in the same order.
                let gathered = gather_pkts(ctx, 0, &out[0]);
                seen.push(gathered.iter().flatten().map(|p| p.as_two_u64()).collect());
                // A DRMA put round: every process writes its slot of every
                // region, in one batch per destination.
                let mut d = Drma::new(vec![vec![0.0; 2 * p]]);
                for dest in 0..p {
                    d.put(dest, 0, 2 * me, &[me as f64, step as f64]);
                }
                d.sync_put(ctx);
                seen.push(d.region(0).iter().map(|&v| (v as u64, 0)).collect());
            }
            seen
        };
        let want = matches_seqsim(p, |cfg| cfg, program);
        for (pid, seen) in want.results.iter().enumerate() {
            for (step, got) in seen.chunks(3).enumerate() {
                assert_eq!(
                    got[0],
                    expected(p, pid, step),
                    "p={p} pid={pid} step={step}"
                );
                let gathered = if pid == 0 {
                    expected(p, 0, step)
                } else {
                    Vec::new()
                };
                assert_eq!(got[1], gathered, "p={p} pid={pid} step={step}: gather");
                let region: Vec<(u64, u64)> = (0..p)
                    .flat_map(|src| [(src as u64, 0), (step as u64, 0)])
                    .collect();
                assert_eq!(got[2], region, "p={p} pid={pid} step={step}: drma");
            }
        }
    }
}

#[test]
fn packets_staged_before_sync_begin_arrive_at_sync_end() {
    for (name, cfg) in backends(3) {
        let out = green_bsp::run(&cfg, |ctx| {
            let next = (ctx.pid() + 1) % ctx.nprocs();
            // Nothing has left the staging buffer when the boundary opens.
            for i in 0..10 {
                ctx.send_pkt(next, pkt(ctx, i));
            }
            ctx.sync_begin();
            let early = ctx.pkts_remaining();
            ctx.sync_end();
            (early, drain(ctx).len())
        });
        assert_eq!(out.results, vec![(0, 10); 3], "{name}");
    }
}

#[test]
fn send_pkt_send_pkts_send_pkt_loses_and_duplicates_nothing() {
    for (name, cfg) in backends(2) {
        // Batches of several sizes between single packets.
        for batch in [5usize, 13, 40] {
            let out = green_bsp::run(&cfg, |ctx| {
                let peer = 1 - ctx.pid();
                for i in 0..3 {
                    ctx.send_pkt(peer, pkt(ctx, i));
                }
                let pkts: Vec<Packet> = (3..3 + batch).map(|i| pkt(ctx, i)).collect();
                ctx.send_pkts(peer, &pkts);
                for i in 3 + batch..6 + batch {
                    ctx.send_pkt(peer, pkt(ctx, i));
                }
                ctx.sync();
                drain(ctx)
            });
            for (pid, got) in out.results.iter().enumerate() {
                let src = ((1 - pid) as u64) << 32;
                let want: Vec<(u64, u64)> = (0..batch as u64 + 6).map(|i| (src, i)).collect();
                assert_eq!(got, &want, "{name} batch={batch}");
            }
        }
    }
}

#[test]
fn sends_after_the_last_sync_surface_as_undelivered() {
    for (name, cfg) in backends(2) {
        // All of them are still staged when the program returns.
        let n = 1_003;
        let out = green_bsp::run(&cfg, |ctx| {
            ctx.sync();
            for i in 0..n {
                ctx.send_pkt(1 - ctx.pid(), pkt(ctx, i));
            }
        });
        assert_eq!(out.stats.undelivered_pkts, 2 * n as u64, "{name}");
        let reports = out
            .stats
            .check_reports
            .iter()
            .filter(|r| r.kind == CheckKind::UndeliveredSend)
            .count();
        assert_eq!(reports, 2, "{name}: {:?}", out.stats.check_reports);
    }
}

/// Two boundaries of a job that sends nothing: whatever it receives was left
/// behind by an earlier job.
fn probe(ctx: &mut Ctx) -> usize {
    let mut seen = 0;
    for _ in 0..2 {
        ctx.sync();
        seen += drain(ctx).len();
    }
    seen
}

#[test]
fn staged_packets_never_reach_the_next_job_on_the_arena_set() {
    for (name, cfg) in backends(2) {
        let rt = Runtime::new();
        // Stage a few packets to the peer and many to self: leftovers in
        // the staging buffers, handed to the transport as the job ends.
        let stage = |ctx: &mut Ctx| {
            ctx.sync();
            for i in 0..10 {
                ctx.send_pkt(1 - ctx.pid(), pkt(ctx, i));
            }
            for i in 0..ctx.nprocs() * 1500 {
                ctx.send_pkt(ctx.pid(), pkt(ctx, i));
            }
        };

        // A job that returns with packets staged is parked and reset.
        rt.try_run(&cfg, stage).expect("the job itself is fine");
        let hits = rt.arena_hits();
        let clean = rt.try_run(&cfg, probe).expect("probe");
        assert_eq!(rt.arena_hits(), hits + 1, "{name}: probe did not lease");
        assert_eq!(clean.results, vec![0, 0], "{name}: after a clean job");
        assert_eq!(clean.stats.total_pkts(), 0, "{name}");

        // A job that panics with packets staged.
        let err = rt
            .try_run(&cfg, |ctx| {
                stage(ctx);
                if ctx.pid() == 0 {
                    panic!("boom");
                }
                ctx.sync();
            })
            .expect_err("proc 0 panicked");
        assert!(
            matches!(err, BspError::ProcPanicked { pid: 0, .. }),
            "{err}"
        );
        let after = rt.try_run(&cfg, probe).expect("probe");
        assert_eq!(after.results, vec![0, 0], "{name}: after a panicked job");

        // A job that is cancelled with packets staged.
        let token = CancelToken::new();
        let err = rt
            .try_run(&cfg.clone().cancel_token(&token), |ctx| {
                stage(ctx);
                token.cancel();
                ctx.sync();
            })
            .expect_err("cancelled");
        assert!(matches!(err, BspError::Cancelled { .. }), "{err}");
        let after = rt.try_run(&cfg, probe).expect("probe");
        assert_eq!(after.results, vec![0, 0], "{name}: after a cancelled job");
        rt.shutdown();
    }
}

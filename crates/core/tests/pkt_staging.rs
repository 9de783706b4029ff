//! The packet-staging seam (DESIGN.md §7): `Ctx::send_pkt` stages packets
//! per destination and a transport only ever sees whole batches — at the
//! chunk threshold, at a boundary, and when the program returns. Every scenario runs on all five backends.

mod common;

use common::{backends, matches_seqsim};
use green_bsp::{BspError, CancelToken, CheckKind, Ctx, Packet, Runtime};

/// A packet that names its sender, its superstep and its position.
fn pkt(ctx: &Ctx, i: usize) -> Packet {
    Packet::two_u64(
        ((ctx.pid() as u64) << 32) | ctx.superstep() as u64,
        i as u64,
    )
}

/// Everything delivered this superstep, sorted (arrival order is free).
fn drain(ctx: &mut Ctx) -> Vec<(u64, u64)> {
    let mut got = Vec::new();
    while let Some(p) = ctx.get_pkt() {
        got.push(p.as_two_u64());
    }
    got.sort_unstable();
    got
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
fn volumes_around_the_chunk_match_seqsim() {
    let p = 3;
    for chunk in [1usize, 7, 1000] {
        for n in [chunk - 1, chunk, chunk + 1, 3 * chunk + 1] {
            for interleaved in [false, true] {
                let want = matches_seqsim(
                    p,
                    |cfg| cfg.chunk(chunk),
                    |ctx| exchange(ctx, n, interleaved),
                );
                let per_proc = if interleaved { p * n } else { n };
                assert!(want.results.iter().all(|r| r.len() == per_proc));
                assert_eq!(want.stats.total_pkts(), (p * per_proc) as u64);
            }
        }
    }
}

#[test]
fn packets_staged_before_sync_begin_arrive_at_sync_end() {
    for (name, cfg) in backends(3) {
        let out = green_bsp::run(&cfg, |ctx| {
            let next = (ctx.pid() + 1) % ctx.nprocs();
            // Below the chunk: nothing has left the staging buffer when the
            // boundary opens.
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
        // A batch that rides the staging buffer, one that fills it exactly,
        // and one that goes straight to the transport.
        for batch in [5usize, 13, 40] {
            let out = green_bsp::run(&cfg.clone().chunk(16), |ctx| {
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
        // Some of them have already been handed to the transport by the
        // chunk threshold, some are still staged when the program returns.
        let n = cfg.chunk + 3;
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
        // Stage fewer than a chunk to the peer and more than a chunk to
        // self, so both the staging buffers and the transport hold leftovers.
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

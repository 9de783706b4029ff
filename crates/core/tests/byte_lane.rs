//! The byte lane end to end (DESIGN.md §9): a record is copied once, into
//! the sender's staging buffer, and that buffer moves — staging → transport
//! → the receiver's inbox segment — to be read in place. Delivery is one
//! segment per source pid: ascending source, then send order, on every
//! backend. Every scenario runs on all five backends and on the checked and
//! hardened stacks.

mod common;

use common::{matches_seqsim, stacks};
use green_bsp::{BspError, CancelToken, Ctx, Runtime, MSG_HDR};

const SIZES: [usize; 8] = [0, 1, 7, 64, 1_000, 4_096, 65_536, 13];

/// What `src` sends `dest` in `step`, in send order. Odd sources are silent
/// in even supersteps (an empty segment between two full ones), some pairs
/// are silent in every superstep, and payload sizes run from 0 to 64 KiB.
fn script(src: usize, dest: usize, step: usize) -> Vec<Vec<u8>> {
    if (src % 2 == 1 && step.is_multiple_of(2)) || (src + 2 * dest + step) % 5 == 4 {
        return Vec::new();
    }
    (0..1 + (src + dest + step) % 3)
        .map(|i| {
            let len = SIZES[(src * 7 + dest * 3 + step * 5 + i) % SIZES.len()];
            let tag = (src * 1_000 + dest * 100 + step * 10 + i) as u32;
            (0..len)
                .map(|j| (tag.wrapping_mul(31).wrapping_add(j as u32) % 251) as u8)
                .collect()
        })
        .collect()
}

/// What `dest` must receive after `step`, in delivery order.
fn expected(p: usize, dest: usize, step: usize) -> Vec<(usize, Vec<u8>)> {
    (0..p)
        .flat_map(|src| script(src, dest, step).into_iter().map(move |m| (src, m)))
        .collect()
}

/// Read everything delivered, in delivery order, checking `bytes_remaining`
/// before every read.
fn drain(ctx: &mut Ctx) -> Vec<(usize, Vec<u8>)> {
    let mut got = Vec::new();
    let mut left = ctx.bytes_remaining();
    while let Some((src, m)) = ctx.recv_bytes() {
        left -= MSG_HDR + m.len();
        got.push((src, m.to_vec()));
        assert_eq!(ctx.bytes_remaining(), left, "after message {}", got.len());
    }
    assert_eq!(left, 0, "bytes_remaining did not reach zero");
    got
}

fn clean(name: &str, at: &str, reports: &[green_bsp::CheckReport]) {
    assert!(reports.is_empty(), "{name} {at}: {reports:?}");
}

#[test]
fn delivery_is_ascending_source_then_send_order_and_matches_seqsim() {
    const STEPS: usize = 3;
    for p in [1usize, 3, 4] {
        let program = |ctx: &mut Ctx| {
            let (p, me) = (ctx.nprocs(), ctx.pid());
            let mut seen = Vec::new();
            for step in 0..STEPS {
                for dest in 0..p {
                    for m in script(me, dest, step) {
                        ctx.send_bytes(dest, &m);
                    }
                }
                ctx.sync();
                let total: usize = expected(p, me, step)
                    .iter()
                    .map(|(_, m)| MSG_HDR + m.len())
                    .sum();
                assert_eq!(ctx.bytes_remaining(), total, "pid {me} step {step}");
                seen.push(drain(ctx));
            }
            seen
        };
        let want = matches_seqsim(p, |cfg| cfg, program);
        for (pid, seen) in want.results.iter().enumerate() {
            for (step, got) in seen.iter().enumerate() {
                assert_eq!(got, &expected(p, pid, step), "seqsim p={p} pid={pid}");
            }
        }
    }
}

#[test]
fn unread_messages_are_discarded_at_the_next_sync() {
    for p in [1usize, 3, 4] {
        for (name, cfg) in stacks(p) {
            let out = green_bsp::run(&cfg, |ctx| {
                let (p, me) = (ctx.nprocs(), ctx.pid());
                for dest in 0..p {
                    for i in 0..3u8 {
                        ctx.send_bytes(dest, &[i; 40]);
                    }
                }
                ctx.sync();
                // Stop in the middle of the first segment.
                let (src, m) = ctx.recv_bytes().expect("a message");
                assert_eq!((src, m), (0, &[0u8; 40][..]));
                assert_eq!(ctx.bytes_remaining(), (3 * p - 1) * (MSG_HDR + 40));
                // Only the last process sends now: every other segment must
                // come back empty, not with what was left unread in it.
                if me == p - 1 {
                    for dest in 0..p {
                        ctx.send_bytes(dest, b"fresh");
                    }
                }
                ctx.sync();
                let got = drain(ctx);
                ctx.sync();
                (got, ctx.bytes_remaining(), ctx.recv_bytes().is_none())
            });
            for (pid, r) in out.results.iter().enumerate() {
                let want = (vec![(p - 1, b"fresh".to_vec())], 0, true);
                assert_eq!(r, &want, "{name} p={p} pid={pid}");
            }
            clean(name, "discard", &out.stats.check_reports);
        }
    }
}

#[test]
fn records_staged_before_sync_begin_arrive_at_sync_end() {
    for p in [1usize, 3, 4] {
        for (name, cfg) in stacks(p) {
            let out = green_bsp::run(&cfg, |ctx| {
                let (p, me) = (ctx.nprocs(), ctx.pid());
                for dest in 0..p {
                    ctx.send_bytes(dest, &[me as u8; 100]);
                    ctx.send_bytes(dest, b"");
                }
                ctx.sync();
                let first = ctx.recv_bytes().map(|(s, m)| (s, m.to_vec()));
                for dest in 0..p {
                    ctx.send_bytes(dest, format!("{me}->{dest}").as_bytes());
                }
                ctx.sync_begin();
                // The window: the previous superstep's deliveries are still
                // there, from where the reader stopped, and nothing sent
                // before `sync_begin` has shown up yet.
                let mut window = vec![first.expect("own first message")];
                window.extend(drain(ctx));
                ctx.sync_end();
                (window, drain(ctx))
            });
            for (pid, (window, after)) in out.results.iter().enumerate() {
                let want_window: Vec<(usize, Vec<u8>)> = (0..p)
                    .flat_map(|s| [(s, vec![s as u8; 100]), (s, Vec::new())])
                    .collect();
                let want_after: Vec<(usize, Vec<u8>)> = (0..p)
                    .map(|s| (s, format!("{s}->{pid}").into_bytes()))
                    .collect();
                assert_eq!(window, &want_window, "{name} p={p} pid={pid}: window");
                assert_eq!(after, &want_after, "{name} p={p} pid={pid}: after");
            }
            clean(name, "split", &out.stats.check_reports);
        }
    }
}

/// Two boundaries of a job that sends nothing: whatever it receives was left
/// behind by an earlier job.
fn probe(ctx: &mut Ctx) -> usize {
    let mut seen = 0;
    for _ in 0..2 {
        ctx.sync();
        seen += ctx.bytes_remaining() + drain(ctx).len();
    }
    seen
}

#[test]
fn staged_bytes_never_reach_the_next_job_on_the_arena_set() {
    for p in [1usize, 3, 4] {
        for (name, cfg) in stacks(p) {
            let rt = Runtime::new();
            // One delivered superstep, so every kind of buffer has held
            // records, then a message per destination that no boundary
            // delivers (the transport gets it when the program returns).
            let stage = |ctx: &mut Ctx| {
                for dest in 0..ctx.nprocs() {
                    ctx.send_bytes(dest, &[1; 300]);
                }
                ctx.sync();
                for dest in 0..ctx.nprocs() {
                    ctx.send_bytes(dest, b"staged, never delivered");
                }
            };

            // A job that returns with bytes staged is parked and reset.
            rt.try_run(&cfg, stage).expect("the job itself is fine");
            let hits = rt.arena_hits();
            let after = rt.try_run(&cfg, probe).expect("probe");
            // Bare transports are parked and re-leased; wrapped ones rebuild.
            if !cfg.check && cfg.tolerance.is_none() {
                assert_eq!(rt.arena_hits(), hits + 1, "{name}: probe did not lease");
            }
            assert_eq!(after.results, vec![0; p], "{name} p={p}: after a clean job");
            assert_eq!(after.stats.total_bytes(), 0, "{name}");

            // A job that panics with bytes staged.
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
                "{name}: {err}"
            );
            let after = rt.try_run(&cfg, probe).expect("probe");
            assert_eq!(
                after.results,
                vec![0; p],
                "{name} p={p}: after a panicked job"
            );

            // A job that is cancelled with bytes staged.
            let token = CancelToken::new();
            let err = rt
                .try_run(&cfg.clone().cancel_token(&token), |ctx| {
                    stage(ctx);
                    token.cancel();
                    ctx.sync();
                })
                .expect_err("cancelled");
            assert!(matches!(err, BspError::Cancelled { .. }), "{name}: {err}");
            let after = rt.try_run(&cfg, probe).expect("probe");
            assert_eq!(
                after.results,
                vec![0; p],
                "{name} p={p}: after a cancelled job"
            );
            rt.shutdown();
        }
    }
}

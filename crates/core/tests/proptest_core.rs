//! Property-based tests for the Green BSP runtime: random traffic patterns
//! must be routed identically (as multisets, with exact counts and payload
//! checksums) by every library implementation, and the recorded statistics
//! must match the pattern exactly.

mod common;

use common::{backends, matches_seqsim};
use green_bsp::{run, Config, Ctx, Packet};
use proptest::prelude::*;

/// A randomly generated BSP program: `plan[step][src][dest]` packets are sent
/// from `src` to `dest` in superstep `step`.
#[derive(Debug, Clone)]
struct TrafficPlan {
    nprocs: usize,
    plan: Vec<Vec<Vec<u8>>>,
}

fn traffic_plan() -> impl Strategy<Value = TrafficPlan> {
    (1usize..=6).prop_flat_map(|p| {
        let step = prop::collection::vec(prop::collection::vec(0u8..20, p), p);
        prop::collection::vec(step, 1..5).prop_map(move |plan| TrafficPlan { nprocs: p, plan })
    })
}

/// Volumes that exercise the transport's edge cases for a chunk size of 16
/// and a slab capacity of 32: empty, single, either side of the staging
/// chunk boundary, and enough to overflow the slab (which then grows at the
/// superstep boundary — both the pre- and post-growth paths get traffic).
fn boundary_volume() -> impl Strategy<Value = u8> {
    const VOLS: [u8; 12] = [0, 1, 2, 15, 16, 17, 31, 32, 33, 60, 64, 70];
    (0usize..VOLS.len()).prop_map(|i| VOLS[i])
}

/// A traffic plan whose per-pair volumes sit on chunk/slab boundaries.
fn boundary_plan() -> impl Strategy<Value = TrafficPlan> {
    (1usize..=5).prop_flat_map(|p| {
        let step = prop::collection::vec(prop::collection::vec(boundary_volume(), p), p);
        prop::collection::vec(step, 1..4).prop_map(move |plan| TrafficPlan { nprocs: p, plan })
    })
}

/// Execute the plan; per process return the full sorted multiset of payloads
/// per superstep.
fn execute_multiset(plan: &TrafficPlan, cfg: &Config) -> Vec<Vec<Vec<u64>>> {
    let plan = plan.clone();
    let out = green_bsp::run(cfg, move |ctx| {
        let me = ctx.pid();
        let mut log = Vec::new();
        let mut batch: Vec<Packet> = Vec::new();
        for (step, matrix) in plan.plan.iter().enumerate() {
            for (dest, &count) in matrix[me].iter().enumerate() {
                batch.clear();
                batch.extend((0..count).map(|k| {
                    let tag = ((step as u64) << 32)
                        | ((me as u64) << 24)
                        | ((dest as u64) << 16)
                        | k as u64;
                    Packet::two_u64(tag, tag)
                }));
                // Alternate batch and per-packet sends so both paths are
                // exercised against each other.
                if (step + dest) % 2 == 0 {
                    ctx.send_pkts(dest, &batch);
                } else {
                    for &pkt in &batch {
                        ctx.send_pkt(dest, pkt);
                    }
                }
            }
            ctx.sync();
            let mut got: Vec<u64> = Vec::new();
            while let Some(pkt) = ctx.get_pkt() {
                got.push(pkt.as_two_u64().0);
            }
            got.sort_unstable();
            log.push(got);
        }
        log
    });
    out.results
}

/// The plan as a program: per process, (received count, payload checksum)
/// per superstep.
fn counted(plan: &TrafficPlan) -> impl Fn(&mut Ctx) -> Vec<(u64, u64)> + Sync {
    let plan = plan.clone();
    move |ctx| {
        let me = ctx.pid();
        let mut log = Vec::new();
        for (step, matrix) in plan.plan.iter().enumerate() {
            for (dest, &count) in matrix[me].iter().enumerate() {
                for k in 0..count {
                    // Payload identifies (step, src, dest, k) uniquely.
                    let tag = ((step as u64) << 32)
                        | ((me as u64) << 24)
                        | ((dest as u64) << 16)
                        | k as u64;
                    ctx.send_pkt(dest, Packet::two_u64(tag, tag.wrapping_mul(0x9E37)));
                }
            }
            ctx.sync();
            let mut n = 0u64;
            let mut sum = 0u64;
            while let Some(pkt) = ctx.get_pkt() {
                let (tag, chk) = pkt.as_two_u64();
                assert_eq!(chk, tag.wrapping_mul(0x9E37), "payload corrupted");
                n += 1;
                sum = sum.wrapping_add(tag);
            }
            log.push((n, sum));
        }
        log
    }
}

/// Message payload sizes spanning empty through 64 KiB, hitting the
/// fragmentation edge cases (one-byte tail, exact fragment fill) on the way.
fn msg_size() -> impl Strategy<Value = usize> {
    const SIZES: [usize; 12] = [0, 1, 7, 8, 9, 63, 100, 500, 1024, 4096, 16384, 65536];
    (0usize..SIZES.len()).prop_map(|i| SIZES[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every backend and wrapper stack routes the same traffic to the same
    /// destinations with identical payload multisets.
    #[test]
    fn all_backends_route_identically(plan in traffic_plan()) {
        matches_seqsim(plan.nprocs, |cfg| cfg, counted(&plan));
    }

    /// With a tiny staging chunk and slab capacity, traffic whose volumes sit
    /// exactly on the chunk and slab boundaries (forcing overflow spills and
    /// barrier-time slab growth in the shared backend) is still delivered as
    /// an identical multiset by every backend.
    #[test]
    fn boundary_volumes_deliver_identical_multisets(plan in boundary_plan()) {
        let tiny = |cfg: Config| cfg.chunk(16).slab_cap(32);
        let reference = execute_multiset(&plan, &tiny(Config::new(plan.nprocs)));
        for (name, cfg) in backends(plan.nprocs) {
            let got = execute_multiset(&plan, &tiny(cfg));
            prop_assert_eq!(&reference, &got, "{} diverged", name);
        }
    }

    /// Delivered counts match the plan, and the recorded h-relations equal
    /// the plan's max(sent, recv) per superstep.
    #[test]
    fn stats_match_plan(plan in traffic_plan()) {
        let p = plan.nprocs;
        let cfg = Config::new(p);
        let plan2 = plan.clone();
        let out = run(&cfg, move |ctx| {
            let me = ctx.pid();
            for matrix in &plan2.plan {
                for (dest, &count) in matrix[me].iter().enumerate() {
                    for _ in 0..count {
                        ctx.send_pkt(dest, Packet::ZERO);
                    }
                }
                ctx.sync();
                while ctx.get_pkt().is_some() {}
            }
        });
        prop_assert_eq!(out.stats.s(), plan.plan.len() as u64 + 1);
        for (step, matrix) in plan.plan.iter().enumerate() {
            let max_sent = (0..p)
                .map(|src| matrix[src].iter().map(|&c| c as u64).sum::<u64>())
                .max()
                .unwrap();
            let max_recv = (0..p)
                .map(|dest| (0..p).map(|src| matrix[src][dest] as u64).sum::<u64>())
                .max()
                .unwrap();
            prop_assert_eq!(out.stats.steps[step].h(), max_sent.max(max_recv));
            let total: u64 = matrix.iter().flatten().map(|&c| c as u64).sum();
            prop_assert_eq!(out.stats.steps[step].total_pkts, total);
        }
    }

    /// Variable-length messages round-trip over random sizes and fan-outs.
    #[test]
    fn messages_roundtrip(
        p in 1usize..=5,
        sizes in prop::collection::vec(0usize..200, 1..8),
    ) {
        let cfg = Config::new(p);
        let sizes2 = sizes.clone();
        let out = run(&cfg, move |ctx| {
            let me = ctx.pid();
            for (i, &len) in sizes2.iter().enumerate() {
                let dest = (me + i + 1) % ctx.nprocs();
                let payload: Vec<u8> = (0..len).map(|j| (j ^ me ^ i) as u8).collect();
                green_bsp::message::send_msg(ctx, dest, &payload);
            }
            ctx.sync();
            green_bsp::message::recv_msgs(ctx)
        });
        for (pid, msgs) in out.results.iter().enumerate() {
            prop_assert_eq!(msgs.len(), sizes.len());
            for (src, bytes) in msgs {
                // Find which (i) this message came from: dest = (src+i+1)%p == pid.
                let mut matched = false;
                for (i, &len) in sizes.iter().enumerate() {
                    if (src + i + 1) % p == pid && bytes.len() == len {
                        let expect: Vec<u8> = (0..len).map(|j| (j ^ src ^ i) as u8).collect();
                        if *bytes == expect {
                            matched = true;
                            break;
                        }
                    }
                }
                prop_assert!(matched, "unexpected message from {} to {}", src, pid);
            }
        }
    }

    /// On every backend the byte lane delivers exactly the `(source,
    /// payload)` list computed from the generated send plan, by source then
    /// send order.
    #[test]
    fn byte_lane_delivers_the_send_plan_on_all_backends(
        p in 1usize..=5,
        sizes in prop::collection::vec(msg_size(), 1..6),
    ) {
        let payload = |src: usize, i: usize, len: usize| -> Vec<u8> {
            (0..len).map(|j| (j.wrapping_mul(31) ^ src ^ i) as u8).collect()
        };
        let expected: Vec<Vec<(usize, Vec<u8>)>> = (0..p)
            .map(|pid| {
                let mut msgs = Vec::new();
                for src in 0..p {
                    for (i, &len) in sizes.iter().enumerate() {
                        if (src + i) % p == pid {
                            msgs.push((src, payload(src, i, len)));
                        }
                    }
                }
                msgs
            })
            .collect();
        for (name, cfg) in backends(p) {
            let sizes = sizes.clone();
            let got = run(&cfg, move |ctx| {
                let me = ctx.pid();
                for (i, &len) in sizes.iter().enumerate() {
                    let dest = (me + i) % ctx.nprocs();
                    green_bsp::message::send_msg(ctx, dest, &payload(me, i, len));
                }
                ctx.sync();
                green_bsp::message::recv_msgs(ctx)
            })
            .results;
            prop_assert_eq!(&expected, &got, "byte lane on {} diverged", name);
        }
    }

    /// Packet field roundtrips at arbitrary offsets.
    #[test]
    fn packet_field_roundtrip(
        off32 in 0usize..=12,
        off64 in 0usize..=8,
        a in any::<u32>(),
        b in any::<u64>(),
        x in any::<f64>(),
    ) {
        let mut p = Packet::ZERO;
        p.put_u32(off32, a);
        prop_assert_eq!(p.get_u32(off32), a);
        let mut q = Packet::ZERO;
        q.put_u64(off64, b);
        prop_assert_eq!(q.get_u64(off64), b);
        let mut r = Packet::ZERO;
        r.put_f64(off64, x);
        let back = r.get_f64(off64);
        prop_assert!(back == x || (back.is_nan() && x.is_nan()));
    }

    /// The collectives agree with their sequential definitions.
    #[test]
    fn collectives_agree_with_sequential(
        p in 1usize..=6,
        vals in prop::collection::vec(0u64..1_000_000, 6),
    ) {
        let vals = vals[..p].to_vec();
        let vals2 = vals.clone();
        let out = run(&Config::new(p), move |ctx| {
            let v = vals2[ctx.pid()];
            let sum = green_bsp::collectives::sum_u64(ctx, v);
            let scan = green_bsp::collectives::exscan_u64(ctx, v);
            let gathered = green_bsp::collectives::allgather_u64(ctx, v);
            (sum, scan, gathered)
        });
        let total: u64 = vals.iter().sum();
        for (pid, (sum, scan, gathered)) in out.results.iter().enumerate() {
            prop_assert_eq!(*sum, total);
            prop_assert_eq!(*scan, vals[..pid].iter().sum::<u64>());
            prop_assert_eq!(gathered, &vals);
        }
    }
}

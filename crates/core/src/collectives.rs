//! Collective operations built on the three Green BSP primitives.
//!
//! The paper's position (shared with LogP, §1.3) is that richer operations
//! should be implemented *on top of* the minimal primitive set rather than
//! provided natively, so that the simple two-parameter cost model stays
//! valid. Each collective here is an ordinary BSP subroutine: it costs the
//! supersteps and h-relations you can read off its code.
//!
//! # Contract
//!
//! A collective owns the superstep(s) it executes: the caller must have read
//! all pending packets before calling one, and must not have unsent traffic
//! intended for the same superstep. All processes must call the same
//! collective at the same point.

use crate::check::CollectiveKind;
use crate::context::Ctx;
use crate::packet::Packet;

/// All-gather a `u64`: returns the vector of every process's value, indexed
/// by pid. One superstep; `h = p − 1`.
pub fn allgather_u64(ctx: &mut Ctx, v: u64) -> Vec<u64> {
    ctx.record_collective(CollectiveKind::AllgatherU64);
    let p = ctx.nprocs();
    let me = ctx.pid();
    for dest in 0..p {
        if dest != me {
            ctx.send_pkt(dest, Packet::two_u64(me as u64, v));
        }
    }
    ctx.sync();
    let mut out = vec![0u64; p];
    out[me] = v;
    while let Some(pkt) = ctx.get_pkt() {
        let (src, val) = pkt.as_two_u64();
        out[src as usize] = val;
    }
    out
}

/// All-gather an `f64`: returns every process's value, indexed by pid.
/// One superstep; `h = p − 1`.
pub fn allgather_f64(ctx: &mut Ctx, v: f64) -> Vec<f64> {
    ctx.record_collective(CollectiveKind::AllgatherF64);
    let p = ctx.nprocs();
    let me = ctx.pid();
    for dest in 0..p {
        if dest != me {
            ctx.send_pkt(dest, Packet::u64_f64(me as u64, v));
        }
    }
    ctx.sync();
    let mut out = vec![0.0f64; p];
    out[me] = v;
    while let Some(pkt) = ctx.get_pkt() {
        let (src, val) = pkt.as_u64_f64();
        out[src as usize] = val;
    }
    out
}

/// All-reduce a `u64` with a fold; the fold is applied in pid order on every
/// process, so the result is identical everywhere even for non-commutative
/// folds. One superstep.
pub fn allreduce_u64(ctx: &mut Ctx, v: u64, f: impl Fn(u64, u64) -> u64) -> u64 {
    let vals = allgather_u64(ctx, v);
    let mut it = vals.into_iter();
    let first = it.next().unwrap();
    it.fold(first, f)
}

/// All-reduce an `f64` with a fold applied in pid order (deterministic
/// floating-point result). One superstep.
pub fn allreduce_f64(ctx: &mut Ctx, v: f64, f: impl Fn(f64, f64) -> f64) -> f64 {
    let vals = allgather_f64(ctx, v);
    let mut it = vals.into_iter();
    let first = it.next().unwrap();
    it.fold(first, f)
}

/// Sum over all processes. One superstep.
pub fn sum_u64(ctx: &mut Ctx, v: u64) -> u64 {
    allreduce_u64(ctx, v, |a, b| a.wrapping_add(b))
}

/// Global maximum. One superstep.
pub fn max_f64(ctx: &mut Ctx, v: f64) -> f64 {
    allreduce_f64(ctx, v, f64::max)
}

/// Global minimum. One superstep.
pub fn min_f64(ctx: &mut Ctx, v: f64) -> f64 {
    allreduce_f64(ctx, v, f64::min)
}

/// Exclusive prefix sum of a `u64` in pid order: process `i` receives
/// `Σ_{j<i} v_j`. One superstep.
pub fn exscan_u64(ctx: &mut Ctx, v: u64) -> u64 {
    let vals = allgather_u64(ctx, v);
    vals[..ctx.pid()].iter().sum()
}

/// Broadcast a packet sequence from `root` to everyone; returns the data on
/// every process. One superstep; `h = (p − 1)·len` at the root.
pub fn broadcast_pkts(ctx: &mut Ctx, root: usize, data: &[Packet]) -> Vec<Packet> {
    ctx.record_collective(CollectiveKind::BroadcastPkts);
    let p = ctx.nprocs();
    if ctx.pid() == root {
        for dest in 0..p {
            if dest != root {
                ctx.send_pkts(dest, data);
            }
        }
    }
    ctx.sync();
    if ctx.pid() == root {
        data.to_vec()
    } else {
        let mut out = Vec::with_capacity(ctx.pkts_remaining());
        while let Some(pkt) = ctx.get_pkt() {
            out.push(pkt);
        }
        out
    }
}

/// Two-phase broadcast of a packet sequence (Valiant's trick for long
/// vectors): the root scatters `len/p`-sized slices, then every process
/// rebroadcasts its slice. Two supersteps, but `h ≈ 2·len` instead of
/// `(p−1)·len` at the root — the kind of trade-off Equation (1) lets a BSP
/// programmer evaluate (better when `g·len·(p−3) > L`). Slices are tagged so
/// the result is returned in the root's original order on every process.
pub fn broadcast_pkts_two_phase(ctx: &mut Ctx, root: usize, data: &[Packet]) -> Vec<Packet> {
    ctx.record_collective(CollectiveKind::BroadcastTwoPhase);
    let p = ctx.nprocs();
    if p == 1 {
        return data.to_vec();
    }
    let me = ctx.pid();
    // Phase 1: scatter slices. Each packet is prefixed by an index packet
    // carrying (slot, position) so reassembly is order-independent.
    let len = if me == root { data.len() } else { 0 };
    let lens = allgather_u64(ctx, len as u64);
    let total = lens[root] as usize;
    let chunk = total.div_ceil(p);
    if me == root {
        for (slot, piece) in data.chunks(chunk.max(1)).enumerate() {
            let dest = slot;
            for (i, pkt) in piece.iter().enumerate() {
                let global = slot * chunk + i;
                ctx.send_pkt(dest % p, Packet::two_u64(global as u64, 0));
                ctx.send_pkt(dest % p, *pkt);
            }
        }
    }
    ctx.sync();
    // Collect my slice (pairs of index packet + data packet, in order).
    let mut mine: Vec<(u64, Packet)> = Vec::new();
    while let Some(idx) = ctx.get_pkt() {
        let (global, _) = idx.as_two_u64();
        let pkt = ctx.get_pkt().expect("index packet without data packet");
        mine.push((global, pkt));
    }
    // Phase 2: everyone rebroadcasts its slice to everyone. The interleaved
    // (index, data) batch is identical for every destination, so it is built
    // once and bulk-sent.
    let rebroadcast: Vec<Packet> = mine
        .iter()
        .flat_map(|&(global, pkt)| [Packet::two_u64(global, 0), pkt])
        .collect();
    for dest in 0..p {
        if dest != me {
            ctx.send_pkts(dest, &rebroadcast);
        }
    }
    ctx.sync();
    let mut out = vec![Packet::ZERO; total];
    for (global, pkt) in mine {
        out[global as usize] = pkt;
    }
    while let Some(idx) = ctx.get_pkt() {
        let (global, _) = idx.as_two_u64();
        let pkt = ctx.get_pkt().expect("index packet without data packet");
        out[global as usize] = pkt;
    }
    out
}

/// Gather packet sequences at `root`; returns `Some(packets)` at the root —
/// its own `data` first, then every other process's by ascending pid, each
/// in send order — and `None` elsewhere. One superstep.
pub fn gather_pkts(ctx: &mut Ctx, root: usize, data: &[Packet]) -> Option<Vec<Packet>> {
    ctx.record_collective(CollectiveKind::GatherPkts);
    let me = ctx.pid();
    if me != root {
        ctx.send_pkts(root, data);
    }
    ctx.sync();
    if me == root {
        let mut out = Vec::with_capacity(data.len() + ctx.pkts_remaining());
        out.extend_from_slice(data);
        while let Some(pkt) = ctx.get_pkt() {
            out.push(pkt);
        }
        Some(out)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, Config};

    #[test]
    fn allgather_orders_by_pid() {
        let out = run(&Config::new(5), |ctx| {
            allgather_u64(ctx, (ctx.pid() * 10) as u64)
        });
        for r in out.results {
            assert_eq!(r, vec![0, 10, 20, 30, 40]);
        }
    }

    #[test]
    fn allreduce_f64_is_deterministic_in_pid_order() {
        let out = run(&Config::new(4), |ctx| {
            allreduce_f64(ctx, 0.1 * (ctx.pid() as f64 + 1.0), |a, b| a + b)
        });
        let expect = ((0.1 + 0.2) + 0.3) + 0.4;
        for r in out.results {
            assert_eq!(r, expect, "bitwise-identical fold on every process");
        }
    }

    #[test]
    fn sum_and_minmax() {
        let out = run(&Config::new(4), |ctx| {
            let s = sum_u64(ctx, ctx.pid() as u64 + 1);
            let mx = max_f64(ctx, ctx.pid() as f64);
            let mn = min_f64(ctx, ctx.pid() as f64);
            (s, mx, mn)
        });
        for (s, mx, mn) in out.results {
            assert_eq!(s, 10);
            assert_eq!(mx, 3.0);
            assert_eq!(mn, 0.0);
        }
    }

    #[test]
    fn exscan() {
        let out = run(&Config::new(4), |ctx| exscan_u64(ctx, ctx.pid() as u64 + 1));
        assert_eq!(out.results, vec![0, 1, 3, 6]);
    }

    #[test]
    fn broadcast_small() {
        let out = run(&Config::new(4), |ctx| {
            let data: Vec<Packet> = (0..10).map(|i| Packet::two_u64(i, i * i)).collect();
            let got = broadcast_pkts(ctx, 2, if ctx.pid() == 2 { &data } else { &[] });
            got.iter().map(|p| p.as_two_u64().1).sum::<u64>()
        });
        let expect: u64 = (0..10).map(|i| i * i).sum();
        assert!(out.results.iter().all(|&v| v == expect));
    }

    #[test]
    fn broadcast_two_phase_preserves_order() {
        for p in [1, 2, 3, 4, 7] {
            let out = run(&Config::new(p), |ctx| {
                let data: Vec<Packet> = (0..23).map(|i| Packet::two_u64(100 + i, 0)).collect();
                broadcast_pkts_two_phase(ctx, 0, if ctx.pid() == 0 { &data } else { &[] })
                    .iter()
                    .map(|p| p.as_two_u64().0)
                    .collect::<Vec<_>>()
            });
            for r in out.results {
                assert_eq!(r, (0..23).map(|i| 100 + i).collect::<Vec<u64>>(), "p={}", p);
            }
        }
    }

    #[test]
    fn gather_collects_everything() {
        let out = run(&Config::new(4), |ctx| {
            let data = vec![Packet::two_u64(ctx.pid() as u64, 7)];
            gather_pkts(ctx, 0, &data).map(|pkts| {
                let mut srcs: Vec<u64> = pkts.iter().map(|p| p.as_two_u64().0).collect();
                srcs.sort_unstable();
                srcs
            })
        });
        assert_eq!(out.results[0], Some(vec![0, 1, 2, 3]));
        assert!(out.results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn collective_superstep_costs() {
        // allgather = 1 superstep, two-phase broadcast = 3 (one for the
        // length gather, two for the phases).
        let out = run(&Config::new(4), |ctx| {
            let _ = allgather_u64(ctx, 1);
        });
        assert_eq!(out.stats.s(), 2); // 1 sync + final partial superstep
        let out = run(&Config::new(4), |ctx| {
            let data = vec![Packet::ZERO; 16];
            let _ = broadcast_pkts_two_phase(ctx, 0, if ctx.pid() == 0 { &data } else { &[] });
        });
        assert_eq!(out.stats.s(), 4);
    }
}

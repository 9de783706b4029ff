//! Variable-length messages: two shims over the byte lane.
//!
//! The paper's library fixed the packet size at 16 bytes; footnote 2 notes
//! the authors were changing the system to allow packets of arbitrary
//! length, expecting better readability but no significant performance
//! change. [`send_msg`] / [`recv_msgs`] are that interface, as thin shims
//! over the zero-copy byte lane ([`crate::Ctx::send_bytes`] /
//! [`crate::Ctx::recv_bytes`]): one memcpy per message behind an 8-byte
//! `{src, len}` header, delivered in bulk after the barrier (DESIGN.md §9).
//! Byte-lane messages compose freely with raw packet traffic in the same
//! superstep. (What chopping a message into 16-byte packets cost instead is
//! recorded in EXPERIMENTS.md "Ablations".)

use crate::context::Ctx;

/// Send `bytes` to `dest` as a variable-length message; it can be collected
/// with [`recv_msgs`] in the next superstep.
///
/// Ships on the byte lane: one staged memcpy behind an 8-byte header,
/// regardless of length.
pub fn send_msg(ctx: &mut Ctx, dest: usize, bytes: &[u8]) {
    ctx.send_bytes(dest, bytes);
}

/// Drain the byte lane and collect every message delivered this superstep.
/// Returns `(source pid, message bytes)` pairs sorted by source then by the
/// sender's message order.
pub fn recv_msgs(ctx: &mut Ctx) -> Vec<(usize, Vec<u8>)> {
    let mut out: Vec<(usize, Vec<u8>)> = Vec::new();
    while let Some((src, payload)) = ctx.recv_bytes() {
        out.push((src, payload.to_vec()));
    }
    // Every backend preserves per-sender arrival order, so a stable sort by
    // source yields the documented (source, send-order) ordering.
    out.sort_by_key(|&(src, _)| src);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, Config};
    use crate::{BackendKind, NetSimParams};

    #[test]
    fn roundtrip_various_lengths() {
        for len in [0usize, 1, 7, 8, 9, 16, 63, 64, 65, 1000] {
            let out = run(&Config::new(2), move |ctx| {
                let payload: Vec<u8> = (0..len).map(|i| (i * 7 + ctx.pid()) as u8).collect();
                send_msg(ctx, 1 - ctx.pid(), &payload);
                ctx.sync();
                recv_msgs(ctx)
            });
            for (pid, msgs) in out.results.iter().enumerate() {
                assert_eq!(msgs.len(), 1);
                let (src, bytes) = &msgs[0];
                assert_eq!(*src, 1 - pid);
                let expect: Vec<u8> = (0..len).map(|i| (i * 7 + (1 - pid)) as u8).collect();
                assert_eq!(*bytes, expect, "len={}", len);
            }
        }
    }

    #[test]
    fn many_messages_ordered_by_source_and_send_order() {
        let out = run(&Config::new(4), |ctx| {
            let p = ctx.nprocs();
            for dest in 0..p {
                for k in 0..3u8 {
                    send_msg(ctx, dest, &[ctx.pid() as u8, k]);
                }
            }
            ctx.sync();
            recv_msgs(ctx)
        });
        for msgs in out.results {
            assert_eq!(msgs.len(), 12);
            // Sources appear in ascending pid order, each with k = 0,1,2.
            for (i, (src, bytes)) in msgs.iter().enumerate() {
                assert_eq!(*src, i / 3);
                assert_eq!(bytes[0] as usize, i / 3);
                assert_eq!(bytes[1] as usize, i % 3);
            }
        }
    }

    #[test]
    fn byte_lane_cost_is_header_plus_payload_bytes() {
        let out = run(&Config::new(2), |ctx| {
            if ctx.pid() == 0 {
                send_msg(ctx, 1, &[0u8; 17]);
            }
            ctx.sync();
            let _ = recv_msgs(ctx);
        });
        // No packets at all; 8-byte header + 17 payload bytes on the lane.
        assert_eq!(out.stats.steps[0].max_sent, 0);
        assert_eq!(out.stats.steps[0].h_bytes(), 8 + 17);
    }

    #[test]
    fn empty_message_is_just_a_header() {
        let out = run(&Config::new(2), |ctx| {
            if ctx.pid() == 0 {
                send_msg(ctx, 1, &[]);
            }
            ctx.sync();
            recv_msgs(ctx)
        });
        assert_eq!(out.results[1], vec![(0usize, Vec::new())]);
        assert_eq!(out.stats.steps[0].max_sent, 0);
        assert_eq!(out.stats.steps[0].h_bytes(), 8);
    }

    #[test]
    fn byte_lane_delivers_the_send_plan_on_every_backend() {
        const P: usize = 4;
        let payload = |src: usize, dest: usize, k: usize| -> Vec<u8> {
            (0..(src * 13 + dest * 5 + k * 7) % 41)
                .map(|i| (i + k) as u8)
                .collect()
        };
        let netsim = BackendKind::NetSim(NetSimParams {
            g_us: 0.0,
            l_us: 0.0,
            l_neigh_us: 0.0,
            time_scale: 0.0,
        });
        for backend in [
            BackendKind::Shared,
            BackendKind::MsgPass,
            BackendKind::TcpSim,
            BackendKind::SeqSim,
            netsim,
        ] {
            let out = run(&Config::new(P).backend(backend), move |ctx| {
                for dest in 0..P {
                    for k in 0..2 {
                        send_msg(ctx, dest, &payload(ctx.pid(), dest, k));
                    }
                }
                ctx.sync();
                recv_msgs(ctx)
            });
            // Ascending source, then the sender's order.
            for (pid, msgs) in out.results.iter().enumerate() {
                let want: Vec<(usize, Vec<u8>)> = (0..P)
                    .flat_map(|src| (0..2).map(move |k| (src, payload(src, pid, k))))
                    .collect();
                assert_eq!(*msgs, want, "{backend:?} pid {pid}");
            }
        }
    }
}

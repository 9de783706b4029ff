//! Variable-length message throughput: byte-lane vs. packet fragmentation.
//!
//! The program is a cyclic exchange of fixed-size messages: every process
//! sends one message per destination per superstep and drains what it
//! receives. The *same* payloads travel either on the byte lane
//! ([`green_bsp::Ctx::send_bytes`] — one copy into a per-destination buffer
//! that then moves to the receiver) or through the legacy 16-byte
//! fragmentation shim
//! ([`green_bsp::message::send_msg_fragmented`] — a header packet plus one
//! packet per 8 payload bytes). The measured payload-bytes/second isolates
//! what DESIGN.md §9 claims the byte lane buys: for a 1 KiB message the
//! fragmentation path stages 129 packets (2064 wire bytes) where the byte
//! lane moves 1032. The `report bench_message` subcommand sweeps
//! `p = 1..=8` × {64 B, 1 KiB, 64 KiB} on the shared backend and emits
//! `BENCH_message.json`.

use green_bsp::message::{recv_msgs_fragmented, send_msg_fragmented};
use green_bsp::{run, BackendKind, Config};
use std::time::Instant;

/// Message sizes swept by the bench (bytes).
pub const MSG_SIZES: [usize; 3] = [64, 1024, 65536];

/// One measured throughput point.
#[derive(Clone, Debug)]
pub struct MessagePoint {
    /// Transport lane: `bytes` (the byte lane) or `frag` (16-byte packets).
    pub lane: &'static str,
    /// Processor count.
    pub nprocs: usize,
    /// Payload bytes per message.
    pub msg_bytes: usize,
    /// Supersteps routed.
    pub steps: usize,
    /// Total payload bytes delivered over the run.
    pub total_bytes: u64,
    /// Wall-clock seconds for the whole run.
    pub secs: f64,
    /// Delivered payload bytes per second.
    pub bytes_per_sec: f64,
}

/// Route `steps` supersteps of one-message-per-destination traffic and
/// report the delivered payload rate. `byte_lane` picks the transport.
pub fn measure_messages(
    backend: BackendKind,
    p: usize,
    msg_bytes: usize,
    steps: usize,
    byte_lane: bool,
) -> MessagePoint {
    let cfg = Config::new(p).backend(backend);
    // Warmup: four supersteps, because four buffers circulate per ordered
    // pair on the byte lane (DESIGN.md §9) and each is sized on first use.
    run_pattern(&cfg, msg_bytes, 4, byte_lane);
    let start = Instant::now();
    let out = run_pattern(&cfg, msg_bytes, steps, byte_lane);
    let secs = start.elapsed().as_secs_f64();
    let total_bytes: u64 = out.results.iter().sum();
    MessagePoint {
        lane: if byte_lane { "bytes" } else { "frag" },
        nprocs: p,
        msg_bytes,
        steps,
        total_bytes,
        secs,
        bytes_per_sec: total_bytes as f64 / secs.max(1e-12),
    }
}

/// Run the message pattern once; returns per-proc delivered payload bytes.
fn run_pattern(
    cfg: &Config,
    msg_bytes: usize,
    steps: usize,
    byte_lane: bool,
) -> green_bsp::RunOutput<u64> {
    run(cfg, move |ctx| {
        let p = ctx.nprocs();
        let payload = vec![ctx.pid() as u8; msg_bytes];
        let mut delivered = 0u64;
        for _step in 0..steps {
            for dest in 0..p {
                if byte_lane {
                    ctx.send_bytes(dest, &payload);
                } else {
                    send_msg_fragmented(ctx, dest, &payload);
                }
            }
            ctx.sync();
            if byte_lane {
                while let Some((_src, bytes)) = ctx.recv_bytes() {
                    delivered += bytes.len() as u64;
                }
            } else {
                for (_src, bytes) in recv_msgs_fragmented(ctx) {
                    delivered += bytes.len() as u64;
                }
            }
        }
        delivered
    })
}

/// Sweep both lanes over `procs` × [`MSG_SIZES`] on the shared backend,
/// printing progress to stderr. `steps` is scaled down for large messages
/// so every point routes a comparable byte volume.
pub fn sweep_messages(procs: &[usize], steps: usize) -> Vec<MessagePoint> {
    let mut points = Vec::new();
    for &msg_bytes in &MSG_SIZES {
        // Keep per-point traffic roughly constant: big messages need fewer
        // supersteps to reach steady-state rates.
        let scaled = (steps * 1024 / msg_bytes).clamp(2, steps);
        for &p in procs {
            for byte_lane in [true, false] {
                let pt = measure_messages(BackendKind::Shared, p, msg_bytes, scaled, byte_lane);
                eprintln!(
                    "  {:5} p={}  {:>7}B  {:>12.0} bytes/s  ({} B in {:.3}s)",
                    pt.lane, pt.nprocs, pt.msg_bytes, pt.bytes_per_sec, pt.total_bytes, pt.secs
                );
                points.push(pt);
            }
        }
    }
    points
}

/// Serialize the sweep as the `BENCH_message.json` document.
pub fn to_json(points: &[MessagePoint]) -> String {
    let mut s = String::from("{\n  \"bench\": \"message_throughput\",\n");
    s.push_str(
        "  \"backend\": \"shared\",\n  \"lanes\": [\"bytes\", \"frag\"],\n  \"results\": [\n",
    );
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"lane\": \"{}\", \"p\": {}, \"msg_bytes\": {}, \"steps\": {}, \
             \"total_bytes\": {}, \"secs\": {:.6}, \"bytes_per_sec\": {:.1}}}{}\n",
            p.lane,
            p.nprocs,
            p.msg_bytes,
            p.steps,
            p.total_bytes,
            p.secs,
            p.bytes_per_sec,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_lanes_route_expected_volume() {
        for byte_lane in [true, false] {
            let pt = measure_messages(BackendKind::Shared, 2, 256, 3, byte_lane);
            // 2 procs × 2 dests × 3 steps × 256 B (self-sends included).
            assert_eq!(pt.total_bytes, 2 * 2 * 3 * 256);
            assert!(pt.bytes_per_sec > 0.0);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let pts = vec![measure_messages(BackendKind::Shared, 1, 64, 2, true)];
        let j = to_json(&pts);
        assert!(j.starts_with('{') && j.ends_with("}\n"));
        assert!(j.contains("\"lane\": \"bytes\""));
        assert!(j.contains("\"bytes_per_sec\""));
    }
}

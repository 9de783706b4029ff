//! What the core corpora share: one list of library implementations and
//! wrapper stacks, and one check that a program runs on each of them
//! exactly as on the sequential simulator.
// Each test binary uses only part of this module.
#![allow(dead_code)]

use green_bsp::{run, BackendKind, Config, Ctx, NetSimParams, Packet, RunOutput};
use std::fmt::Debug;

/// The five library implementations at `p` processes.
pub fn backends(p: usize) -> Vec<(&'static str, Config)> {
    vec![
        ("shared", Config::new(p)),
        ("msgpass", Config::new(p).backend(BackendKind::MsgPass)),
        ("tcpsim", Config::new(p).backend(BackendKind::TcpSim)),
        ("seqsim", Config::new(p).backend(BackendKind::SeqSim)),
        (
            "netsim",
            Config::new(p).backend(BackendKind::NetSim(NetSimParams {
                g_us: 0.001,
                l_us: 0.5,
                l_neigh_us: 0.0,
                time_scale: 1.0,
            })),
        ),
    ]
}

/// The five backends, then the wrapped stacks: the checker, hardening on
/// the shared and channel transports, and both at once.
pub fn stacks(p: usize) -> Vec<(&'static str, Config)> {
    let mut stacks = backends(p);
    stacks.extend([
        ("shared+checked", Config::new(p).checked()),
        ("shared+hardened", Config::new(p).hardened()),
        (
            "tcpsim+hardened",
            Config::new(p).backend(BackendKind::TcpSim).hardened(),
        ),
        (
            "msgpass+hardened+checked",
            Config::new(p)
                .backend(BackendKind::MsgPass)
                .hardened()
                .checked(),
        ),
    ]);
    stacks
}

/// Run `program` on the sequential simulator and on every one of
/// [`stacks`]`(p)`, each configuration passed through `tweak` first, and
/// assert that every stack returns the simulator's results and packet,
/// byte and h-relation totals, with no checker report and no fault
/// activity. Returns the simulator's run.
pub fn matches_seqsim<R, F>(p: usize, tweak: impl Fn(Config) -> Config, program: F) -> RunOutput<R>
where
    R: Send + PartialEq + Debug,
    F: Fn(&mut Ctx) -> R + Sync,
{
    let counts = |out: &RunOutput<R>| {
        let s = &out.stats;
        (
            s.total_pkts(),
            s.total_bytes(),
            s.h_total(),
            s.h_bytes_total(),
        )
    };
    let want = run(
        &tweak(Config::new(p).backend(BackendKind::SeqSim)),
        &program,
    );
    for (name, cfg) in stacks(p) {
        let got = run(&tweak(cfg), &program);
        let s = &got.stats;
        assert_eq!(got.results, want.results, "{name} p={p}: results");
        assert_eq!(counts(&got), counts(&want), "{name} p={p}: counts");
        assert!(
            s.check_reports.is_empty(),
            "{name} p={p}: {:?}",
            s.check_reports
        );
        assert!(s.faults.is_zero(), "{name} p={p}: {:?}", s.faults);
    }
    want
}

/// Supersteps run by the digest app.
pub const STEPS: usize = 5;

fn encode_state(acc: u64, log: &[u64], step: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(16 + log.len() * 8);
    v.extend_from_slice(&acc.to_le_bytes());
    v.extend_from_slice(&(step as u64).to_le_bytes());
    for x in log {
        v.extend_from_slice(&x.to_le_bytes());
    }
    v
}

fn decode_state(b: &[u8]) -> (u64, Vec<u64>, usize) {
    let acc = u64::from_le_bytes(b[0..8].try_into().unwrap());
    let step = u64::from_le_bytes(b[8..16].try_into().unwrap()) as usize;
    let log = b[16..]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    (acc, log, step)
}

/// A deterministic multi-superstep program exercising both the packet lane
/// and the byte lane. Per superstep it folds everything received into a
/// running digest in delivery order, so a healed superstep must deliver the
/// very sequence a clean one does. Checkpoint-aware: resumes mid-run after
/// a rollback.
pub fn digest_app(ctx: &mut Ctx) -> Vec<u64> {
    let (me, p) = (ctx.pid(), ctx.nprocs());
    let (mut acc, mut log, start) = match ctx.restore_checkpoint() {
        Some(blob) => decode_state(&blob),
        None => (me as u64 + 1, Vec::new(), 0),
    };
    for step in start..STEPS {
        if ctx.checkpoint_due() {
            ctx.save_checkpoint(&encode_state(acc, &log, step));
        }
        for dest in 0..p {
            let tag = ((step as u64) << 32) | ((me as u64) << 16) | dest as u64;
            ctx.send_pkt(dest, Packet::two_u64(acc ^ tag, tag));
            ctx.send_pkt(dest, Packet::two_u64(tag, acc));
        }
        let nb = (step * 7 + me * 3) % 23;
        let payload: Vec<u8> = (0..nb)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(me as u8))
            .collect();
        ctx.send_bytes((me + step + 1) % p, &payload);
        ctx.sync();

        while let Some(pkt) = ctx.get_pkt() {
            let (a, b) = pkt.as_two_u64();
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ a ^ b.rotate_left(17);
        }
        while let Some((src, b)) = ctx.recv_bytes() {
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (src as u64) << 8;
            for &byte in b {
                acc = acc.wrapping_mul(31).wrapping_add(u64::from(byte));
            }
        }
        log.push(acc);
    }
    log
}

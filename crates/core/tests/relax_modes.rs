//! Cross-backend × cross-mode equivalence: random app-shaped traffic
//! driven through relaxed synchronization (neighborhood barriers,
//! split-phase boundaries — DESIGN.md §12) must be bit-identical to the
//! same traffic under bulk synchronization, on every backend.
//! "Bit-identical" covers the delivered payload multisets *and* the
//! packet/byte ledgers (per-superstep `total_pkts`, `h`, `total_bytes`).
//!
//! Plans are generated so the adjacent-boundary rule holds by
//! construction: a superstep adjacent to a neighborhood boundary sends
//! only along sync-graph edges (or to self); supersteps sandwiched by
//! full barriers may send anywhere. Random graphs include isolated
//! processors (the empty-neighborhood case), and the edge lists carry
//! self-edges, which `SyncGraph` must drop.

mod common;

use common::backends;
use green_bsp::{
    run, try_run, BspError, CheckKind, Config, Ctx, FaultPlan, Packet, TransportErrorKind,
};
use proptest::prelude::*;

/// A random relaxed-synchronization program.
#[derive(Debug, Clone)]
struct RelaxPlan {
    nprocs: usize,
    /// Sync-graph edges, possibly with self-edges and duplicates.
    edges: Vec<(usize, usize)>,
    /// Per superstep: close with a neighborhood barrier?
    neigh: Vec<bool>,
    /// Per superstep: use the split-phase form of the boundary?
    split: Vec<bool>,
    /// `sends[step][src][dest]` packet count (pre-masking).
    sends: Vec<Vec<Vec<u8>>>,
}

impl RelaxPlan {
    fn neighbors(&self, pid: usize) -> Vec<usize> {
        let mut n: Vec<usize> = self
            .edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == pid && b != pid {
                    Some(b)
                } else if b == pid && a != pid {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        n.sort_unstable();
        n.dedup();
        n
    }

    /// The legal destinations for `src` in superstep `step`: everything
    /// when both adjacent boundaries are full, neighbors ∪ {self}
    /// otherwise (the adjacent-boundary rule).
    fn legal(&self, step: usize, src: usize, dest: usize) -> bool {
        let adjacent_relaxed = self.neigh[step] || (step > 0 && self.neigh[step - 1]);
        if !adjacent_relaxed || dest == src {
            true
        } else {
            self.neighbors(src).contains(&dest)
        }
    }
}

fn relax_plan() -> impl Strategy<Value = RelaxPlan> {
    (2usize..=5).prop_flat_map(|p| {
        let edges = prop::collection::vec((0..p, 0..p), 0..=p * 2);
        let steps = 1usize..=4;
        (Just(p), edges, steps).prop_flat_map(|(p, edges, s)| {
            let flags = || prop::collection::vec(any::<bool>(), s);
            let step = prop::collection::vec(prop::collection::vec(0u8..6, p), p);
            let sends = prop::collection::vec(step, s);
            (Just(p), Just(edges), flags(), flags(), sends).prop_map(
                |(nprocs, edges, neigh, split, sends)| RelaxPlan {
                    nprocs,
                    edges,
                    neigh,
                    split,
                    sends,
                },
            )
        })
    })
}

/// Per-proc, per-step sorted payload multisets.
type StepMultisets = Vec<Vec<Vec<u64>>>;
/// Per-step ledger rows `(total_pkts, h, total_bytes, h_bytes)`.
type LedgerRows = Vec<(u64, u64, u64, u64)>;

/// Execute the plan. `relaxed = false` forces every boundary to a fused
/// full barrier — the bulk-synchronous reference.
fn execute(plan: &RelaxPlan, cfg: &Config, relaxed: bool) -> (StepMultisets, LedgerRows) {
    let cfg = cfg.clone().sync_graph(&plan.edges);
    let plan = plan.clone();
    let out = run(&cfg, move |ctx| {
        let me = ctx.pid();
        let mut log = Vec::new();
        for step in 0..plan.sends.len() {
            for (dest, &count) in plan.sends[step][me].iter().enumerate() {
                if !plan.legal(step, me, dest) {
                    continue;
                }
                for k in 0..count {
                    let tag = ((step as u64) << 32)
                        | ((me as u64) << 24)
                        | ((dest as u64) << 16)
                        | k as u64;
                    ctx.send_pkt(dest, Packet::two_u64(tag, tag.wrapping_mul(0x9E37)));
                }
                // A variable-length message per pair with traffic, so the
                // byte lane crosses relaxed boundaries too.
                if count > 0 {
                    let mut w = ctx.msg_writer(dest);
                    w.put_u32(step as u32);
                    w.put_u32(me as u32);
                    w.put_u32(count as u32);
                }
            }
            match (relaxed && plan.neigh[step], relaxed && plan.split[step]) {
                (true, true) => {
                    ctx.sync_neigh_begin();
                    ctx.sync_end();
                }
                (true, false) => ctx.sync_neigh(),
                (false, true) => {
                    ctx.sync_begin();
                    ctx.sync_end();
                }
                (false, false) => ctx.sync(),
            }
            let mut got: Vec<u64> = Vec::new();
            while let Some(pkt) = ctx.get_pkt() {
                let (tag, chk) = pkt.as_two_u64();
                assert_eq!(chk, tag.wrapping_mul(0x9E37), "payload corrupted");
                got.push(tag);
            }
            while let Some((src, payload)) = ctx.recv_bytes() {
                let s = u32::from_le_bytes(payload[0..4].try_into().unwrap());
                let from = u32::from_le_bytes(payload[4..8].try_into().unwrap());
                let count = u32::from_le_bytes(payload[8..12].try_into().unwrap());
                assert_eq!(from as usize, src, "byte-lane source mismatch");
                got.push(u64::MAX - ((s as u64) << 32 | (src as u64) << 16 | count as u64));
            }
            got.sort_unstable();
            log.push(got);
        }
        log
    });
    let ledger = out
        .stats
        .steps
        .iter()
        .map(|s| (s.total_pkts, s.h(), s.total_bytes, s.h_bytes()))
        .collect();
    (out.results, ledger)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Relaxed modes never change what arrives or what the ledgers say,
    /// on any backend: everything equals the bulk-synchronous run of the
    /// same program on the shared backend.
    #[test]
    fn relaxed_equals_bulk_on_every_backend(plan in relax_plan()) {
        let reference = execute(&plan, &Config::new(plan.nprocs), false);
        for (name, cfg) in backends(plan.nprocs) {
            let bulk = execute(&plan, &cfg, false);
            prop_assert_eq!(&reference, &bulk, "bulk on {} diverged", name);
            let relaxed = execute(&plan, &cfg, true);
            prop_assert_eq!(&reference, &relaxed, "relaxed on {} diverged", name);
        }
    }
}

/// The graph discipline is one rule with one verdict on every transport
/// stack: traffic to a non-neighbor in a superstep adjacent to a
/// neighborhood boundary — the one the boundary closes or the one it opens,
/// fused or split-phase, whichever way the traffic was sent — fails an
/// unchecked run with the same `GraphViolation` and is reported, without
/// stopping the run, by a checked one.
#[test]
fn graph_violating_send_fails_fast() {
    type Send = fn(&mut Ctx, usize);
    type Wrap = fn(Config) -> Config;
    /// The ways traffic reaches a transport (under `Config::chunk(4)`).
    const SENDS: [(&str, Send); 5] = [
        ("send_pkt", |ctx, dest| ctx.send_pkt(dest, Packet::ZERO)),
        // Above the chunk: handed to the transport directly, never staged.
        ("send_pkts", |ctx, dest| {
            ctx.send_pkts(dest, &[Packet::ZERO; 9])
        }),
        // Two full chunks: all of it left mid-superstep, nothing is staged
        // when the boundary looks.
        ("flushed", |ctx, dest| {
            for _ in 0..8 {
                ctx.send_pkt(dest, Packet::ZERO);
            }
        }),
        ("send_bytes", |ctx, dest| {
            ctx.send_bytes(dest, b"off the graph")
        }),
        ("msg_writer", |ctx, dest| ctx.msg_writer(dest).put_u64(7)),
    ];
    let stacks: [(&str, Wrap); 4] = [
        ("bare", |cfg| cfg),
        ("checked", Config::checked),
        ("faulty", |cfg| cfg.faults(FaultPlan::new(1))),
        ("hardened", Config::hardened),
    ];
    for (name, cfg) in backends(3) {
        for (stack, wrap) in stacks {
            for split in [false, true] {
                for after in [false, true] {
                    for (how, send) in SENDS {
                        let row = format!("{name} {stack} split={split} after={after} {how}");
                        // 0–1 is the only edge; proc 0 sends to proc 2.
                        let cfg = cfg.clone().chunk(4).sync_graph(&[(0, 1)]);
                        let res = try_run(&wrap(cfg), move |ctx| {
                            let neigh = |ctx: &mut Ctx| {
                                if split {
                                    ctx.sync_neigh_begin();
                                    ctx.sync_end();
                                } else {
                                    ctx.sync_neigh();
                                }
                            };
                            if after {
                                neigh(ctx);
                            }
                            if ctx.pid() == 0 {
                                send(ctx, 2);
                            }
                            if after {
                                ctx.sync();
                            } else {
                                neigh(ctx);
                            }
                        });
                        let step = usize::from(after);
                        match res {
                            Ok(out) if stack == "checked" => {
                                let blamed: Vec<_> = (out.stats.check_reports.iter())
                                    .map(|r| (r.kind, r.pid, r.step))
                                    .collect();
                                assert_eq!(
                                    blamed,
                                    [(CheckKind::GraphViolatingSend, 0, step)],
                                    "{row}"
                                );
                            }
                            Err(BspError::Transport(t)) if stack != "checked" => assert_eq!(
                                (t.kind, t.pid, t.peer, t.step),
                                (TransportErrorKind::GraphViolation, 0, Some(2), step),
                                "{row}: {}",
                                t.detail
                            ),
                            Err(e) => panic!("{row}: unexpected error {e}"),
                            Ok(_) => panic!("{row}: violation not caught"),
                        }
                    }
                }
            }
        }
    }
}

/// The empty-neighborhood and self-edge corners, deterministically: an
/// isolated processor (no edges at all) crosses neighborhood boundaries
/// alone, and self-edges in the declared graph are dropped but self-sends
/// still deliver.
#[test]
fn isolated_proc_and_self_edges() {
    let plan = RelaxPlan {
        nprocs: 4,
        // 0-1 is a real edge; (2,2) and (3,3) are self-edges (dropped):
        // processors 2 and 3 are isolated.
        edges: vec![(0, 1), (2, 2), (3, 3), (0, 1)],
        neigh: vec![true, true, false],
        split: vec![false, true, false],
        // Step 0/1 (relaxed-adjacent): 0↔1 traffic plus self-sends on the
        // isolated processors. Step 2 is full-sandwiched on entry only —
        // step 1 is relaxed, so sends stay on-graph there too.
        sends: vec![
            vec![
                vec![2, 3, 0, 0],
                vec![1, 1, 0, 0],
                vec![0, 0, 4, 0],
                vec![0, 0, 0, 2],
            ],
            vec![
                vec![0, 2, 0, 0],
                vec![3, 0, 0, 0],
                vec![0, 0, 1, 0],
                vec![0, 0, 0, 0],
            ],
            vec![
                vec![0, 1, 0, 0],
                vec![2, 0, 0, 0],
                vec![0, 0, 2, 0],
                vec![0, 0, 0, 1],
            ],
        ],
    };
    let reference = execute(&plan, &Config::new(plan.nprocs), false);
    for (name, cfg) in backends(plan.nprocs) {
        let relaxed = execute(&plan, &cfg, true);
        assert_eq!(reference, relaxed, "{name} diverged");
    }
}

/// A peer that panics while its neighbors sit inside a *split-phase*
/// neighborhood boundary must poison the pairwise rendezvous: the waiters
/// are released promptly (no deadlock) and the run surfaces the panicking
/// process's structured error, which wins over the peers' secondary
/// failures. Two placements of the fault, on every backend: before the
/// victim's first rendezvous signal (peers park in `sync_end` waiting on
/// it forever) and inside the victim's own open split window (peers reach
/// the trailing full barrier instead and must be released there).
#[test]
fn peer_panic_poisons_split_phase_neighborhood_waiters() {
    for (name, cfg) in backends(3) {
        for mid_window in [false, true] {
            // Line graph 0–1–2: proc 1 waits on 2's rendezvous, proc 0 on
            // 1's, so the poison must propagate through a chain of
            // split-phase waiters, not just the victim's direct peer.
            let cfg = cfg.clone().sync_graph(&[(0, 1), (1, 2)]);
            let res = try_run(&cfg, move |ctx| {
                if ctx.pid() == 2 {
                    if mid_window {
                        ctx.sync_neigh_begin();
                    }
                    panic!("injected neighborhood fault");
                }
                ctx.sync_neigh_begin();
                // Overlap window: local work only, then close the boundary.
                ctx.sync_end();
                ctx.sync();
            });
            match res {
                Err(BspError::ProcPanicked { pid, payload, .. }) => {
                    assert_eq!(pid, 2, "{name} mid_window={mid_window}: wrong proc blamed");
                    assert!(
                        payload.contains("injected neighborhood fault"),
                        "{name} mid_window={mid_window}: payload {payload:?}"
                    );
                }
                Err(e) => panic!("{name} mid_window={mid_window}: unexpected error {e}"),
                Ok(_) => panic!("{name} mid_window={mid_window}: panic not surfaced"),
            }
        }
    }
}

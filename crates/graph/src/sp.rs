//! Single-source shortest paths with the *work factor* technique (paper §3.4).
//!
//! Each processor keeps a priority queue over its home nodes. The naive
//! parallelization of Dijkstra — run the local queue dry, exchange border
//! updates, repeat — "works poorly", so the paper lets a processor end its
//! superstep after a bounded amount of local work (the *work factor*),
//! which improves both load balance and convergence. The right work factor
//! grows with the machine's latency `L`; the paper picked one value for all
//! platforms, and so do we (it is a parameter, swept by the ablation bench).
//!
//! sp is [`crate::msp`] with one source: [`sp_run`] runs [`msp_run`] with a
//! single instance, so it sends the same update packets (instance 0) and
//! status packets in the same order, and its labels, termination detection
//! and work counts are msp's.

use crate::msp::{msp_run, MspResult};
use crate::partition::LocalGraph;
use green_bsp::Ctx;

/// The work factor used for the paper-style experiments: maximum non-stale
/// queue pops per processor per superstep. Small factors are the paper's
/// load-balancing lever ("this may lead to both better load balancing and
/// quicker convergence"): with 200, the 40k-node graph at 16 processors
/// runs in the paper's regime (S ≈ 50–100, work depth ~5× below the
/// 1-processor work), while the extra supersteps at p = 1 cost only
/// `L·S ≈ a millisecond` on every machine of Figure 2.1.
pub const DEFAULT_WORK_FACTOR: usize = 200;

/// Result of a distributed SSSP run on one processor.
#[derive(Clone, Debug)]
pub struct SpResult {
    /// Distance labels of this processor's home nodes, indexed like
    /// [`LocalGraph::home`].
    pub dist: Vec<f64>,
    /// Non-stale priority-queue pops performed here (the local work).
    pub pops: u64,
    /// Edge relaxations performed here.
    pub relaxations: u64,
}

/// Run distributed SSSP from global node `source`. All processors must call
/// this with their own [`LocalGraph`] of the same partition.
pub fn sp_run(ctx: &mut Ctx, lg: &LocalGraph, source: u32, work_factor: usize) -> SpResult {
    let MspResult {
        mut dist,
        pops,
        relaxations,
    } = msp_run(ctx, lg, &[source], work_factor);
    SpResult {
        dist: dist.pop().expect("one instance"),
        pops,
        relaxations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::geometric_graph;
    use crate::partition::{build_locals, partition_kd};
    use crate::seq::dijkstra;
    use green_bsp::{run, Config};

    fn check(n: usize, seed: u64, p: usize, wf: usize) {
        let g = geometric_graph(n, seed);
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let source = (n / 3) as u32;
        let expect = dijkstra(&g, source);
        let out = run(&Config::new(p), |ctx| {
            sp_run(ctx, &locals[ctx.pid()], source, wf)
        });
        for (pid, r) in out.results.iter().enumerate() {
            for (h, &d) in r.dist.iter().enumerate() {
                let gid = locals[pid].home[h];
                assert_eq!(
                    d.to_bits(),
                    expect[gid as usize].to_bits(),
                    "n={n} p={p} wf={wf} node {gid}: {d} vs {}",
                    expect[gid as usize]
                );
            }
        }
    }

    #[test]
    fn matches_dijkstra_small() {
        for p in [1, 2, 3, 4] {
            check(150, 3, p, 50);
        }
    }

    #[test]
    fn matches_dijkstra_medium() {
        for p in [1, 2, 4, 8] {
            check(900, 11, p, DEFAULT_WORK_FACTOR);
        }
    }

    #[test]
    fn work_factor_does_not_change_answers() {
        // Any work factor gives the same fixed point; only S changes.
        for wf in [1, 7, 100, 100_000] {
            check(300, 19, 3, wf);
        }
    }

    #[test]
    fn smaller_work_factor_means_more_supersteps() {
        let g = geometric_graph(600, 29);
        let p = 4;
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let s_of = |wf: usize| {
            run(&Config::new(p), |ctx| {
                sp_run(ctx, &locals[ctx.pid()], 0, wf)
            })
            .stats
            .s()
        };
        let s_small = s_of(10);
        let s_large = s_of(10_000);
        assert!(
            s_small > s_large,
            "wf=10 gave S={s_small}, wf=10000 gave S={s_large}"
        );
    }

    #[test]
    fn unreachable_stays_infinite() {
        // A 1-node "graph" has only the source; other procs hold nothing.
        let g = geometric_graph(1, 1);
        let owner = partition_kd(&g.pos, 2);
        let locals = build_locals(&g, &owner, 2);
        let out = run(&Config::new(2), |ctx| {
            sp_run(ctx, &locals[ctx.pid()], 0, 10)
        });
        let all: Vec<f64> = out.results.iter().flat_map(|r| r.dist.clone()).collect();
        assert_eq!(all, vec![0.0]);
    }

    #[test]
    fn conservative_message_bound() {
        let g = geometric_graph(1200, 41);
        let p = 4;
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let max_border = locals.iter().map(|l| l.border_gid.len()).max().unwrap() as u64;
        let out = run(&Config::new(p), |ctx| {
            sp_run(ctx, &locals[ctx.pid()], 7, DEFAULT_WORK_FACTOR)
        });
        for step in &out.stats.steps {
            assert!(
                step.max_sent <= max_border + p as u64,
                "sent {} exceeds border bound {}",
                step.max_sent,
                max_border + p as u64
            );
        }
    }
}

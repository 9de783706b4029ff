//! Property-based tests: for random graph sizes, seeds, processor counts,
//! and work factors, the distributed algorithms must agree exactly with
//! their sequential baselines: sp and msp distances bit for bit with
//! Dijkstra's (with positive weights the label-correcting fixed point is
//! Dijkstra's float labels), mst's edge count exactly. mst's total weight
//! is summed in a different order than Kruskal's, so it keeps a tolerance.

use bsp_graph::gen::geometric_graph;
use bsp_graph::msp::msp_run;
use bsp_graph::mst::mst_run;
use bsp_graph::partition::{build_locals, partition_kd};
use bsp_graph::seq::{dijkstra, kruskal_mst, prim_mst_weight};
use bsp_graph::sp::sp_run;
use green_bsp::{run, Config};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mst_matches_kruskal(
        n in 20usize..300,
        seed in 0u64..1000,
        p in 1usize..=6,
    ) {
        let g = geometric_graph(n, seed);
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let (kw, _) = kruskal_mst(&g);
        let pw = prim_mst_weight(&g);
        prop_assert!((kw - pw).abs() < 1e-9, "baselines disagree");
        let out = run(&Config::new(p), |ctx| {
            mst_run(ctx, &locals[ctx.pid()], &owner)
        });
        for r in &out.results {
            prop_assert_eq!(r.total_edges, (n - 1) as u64);
            prop_assert!(
                (r.total_weight - kw).abs() < 1e-9 * kw.max(1.0),
                "parallel {} vs kruskal {}", r.total_weight, kw
            );
        }
    }

    #[test]
    fn sp_matches_dijkstra(
        n in 20usize..300,
        seed in 0u64..1000,
        p in 1usize..=6,
        wf in 1usize..500,
        src_frac in 0.0f64..1.0,
    ) {
        let g = geometric_graph(n, seed);
        let source = ((n as f64 * src_frac) as usize).min(n - 1) as u32;
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let expect = dijkstra(&g, source);
        let out = run(&Config::new(p), |ctx| {
            sp_run(ctx, &locals[ctx.pid()], source, wf)
        });
        for (pid, r) in out.results.iter().enumerate() {
            for (h, &d) in r.dist.iter().enumerate() {
                let gid = locals[pid].home[h] as usize;
                prop_assert_eq!(d.to_bits(), expect[gid].to_bits(),
                    "node {}: {} vs {}", gid, d, expect[gid]);
            }
        }
    }

    #[test]
    fn msp_matches_per_instance_dijkstra(
        n in 20usize..200,
        seed in 0u64..1000,
        p in 1usize..=5,
        k in 1usize..8,
    ) {
        let g = geometric_graph(n, seed);
        let sources: Vec<u32> = (0..k).map(|i| ((i * n) / k) as u32).collect();
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let out = run(&Config::new(p), |ctx| {
            msp_run(ctx, &locals[ctx.pid()], &sources, 64)
        });
        for (inst, &s) in sources.iter().enumerate() {
            let expect = dijkstra(&g, s);
            for (pid, r) in out.results.iter().enumerate() {
                for (h, &d) in r.dist[inst].iter().enumerate() {
                    let gid = locals[pid].home[h] as usize;
                    prop_assert_eq!(d.to_bits(), expect[gid].to_bits(),
                        "instance {} node {}: {} vs {}", inst, gid, d, expect[gid]);
                }
            }
        }
    }

    #[test]
    fn partition_always_covers(
        n in 1usize..400,
        seed in 0u64..1000,
        p in 1usize..=9,
    ) {
        let g = geometric_graph(n, seed);
        let owner = partition_kd(&g.pos, p);
        prop_assert!(owner.iter().all(|&o| (o as usize) < p));
        let locals = build_locals(&g, &owner, p);
        let homes: usize = locals.iter().map(|l| l.n_home()).sum();
        prop_assert_eq!(homes, n);
        let adj: usize = locals.iter().map(|l| l.adj.len()).sum();
        prop_assert_eq!(adj, g.adj.len());
        // Balance: proportional splits keep parts within ceil(n/p) ± p.
        for l in &locals {
            prop_assert!(l.n_home() <= n / p + p);
        }
    }
}

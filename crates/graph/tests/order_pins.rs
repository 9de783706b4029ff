//! Pins the exact processing order of the three BSP graph algorithms.
//!
//! sp and msp pop their heaps in `(distance, local id)` order and mst sorts
//! its edges by `(weight, a, b)`; a change to those orders moves the
//! per-process pop and relaxation counts, mst's Borůvka round count, or the
//! superstep structure. The figures below were recorded on one geometric
//! graph (n = 2 500) and must not move when the ordering code is rewritten.

use bsp_graph::gen::geometric_graph;
use bsp_graph::msp::msp_run;
use bsp_graph::mst::mst_run;
use bsp_graph::partition::{build_locals, partition_kd};
use bsp_graph::sp::{sp_run, DEFAULT_WORK_FACTOR};
use green_bsp::{run, Config, RunStats};

const N: usize = 2_500;
const SEED: u64 = 9_601_996;
const SP_SOURCE: u32 = 833;
const MSP_SOURCES: [u32; 5] = [0, 500, 1000, 1500, 2000];

/// Superstep structure of one run: `S`, `H` and every `h_i`.
struct Steps {
    s: u64,
    h_total: u64,
    h: &'static [u64],
}

/// Per-process pops and relaxations of sp or msp, plus the run's steps.
struct PathPin {
    pops: &'static [u64],
    relaxations: &'static [u64],
    steps: Steps,
}

/// Everything pinned at one processor count.
struct Pin {
    p: usize,
    sp: PathPin,
    msp: PathPin,
    mst_rounds: &'static [u32],
    mst: Steps,
}

const PINS: [Pin; 3] = [
    Pin {
        p: 1,
        sp: PathPin {
            pops: &[2500],
            relaxations: &[24798],
            steps: Steps {
                s: 14,
                h_total: 0,
                h: &[0; 14],
            },
        },
        msp: PathPin {
            pops: &[12500],
            relaxations: &[123990],
            steps: Steps {
                s: 14,
                h_total: 0,
                h: &[0; 14],
            },
        },
        mst_rounds: &[1],
        mst: Steps {
            s: 9,
            h_total: 2,
            h: &[1, 0, 0, 0, 1, 0, 0, 0, 0],
        },
    },
    Pin {
        p: 2,
        sp: PathPin {
            pops: &[1251, 1387],
            relaxations: &[12863, 13228],
            steps: Steps {
                s: 12,
                h_total: 129,
                h: &[1, 1, 1, 8, 40, 41, 23, 11, 1, 1, 1, 0],
            },
        },
        msp: PathPin {
            pops: &[6318, 6568],
            relaxations: &[64894, 62951],
            steps: Steps {
                s: 12,
                h_total: 530,
                h: &[13, 31, 75, 129, 101, 93, 55, 23, 8, 1, 1, 0],
            },
        },
        mst_rounds: &[1, 1],
        mst: Steps {
            s: 13,
            h_total: 292,
            h: &[89, 19, 19, 12, 11, 4, 3, 1, 20, 70, 43, 1, 0],
        },
    },
    Pin {
        p: 4,
        sp: PathPin {
            pops: &[626, 669, 658, 772],
            relaxations: &[6591, 6664, 6062, 7818],
            steps: Steps {
                s: 11,
                h_total: 253,
                h: &[16, 30, 38, 51, 53, 33, 16, 8, 5, 3, 0],
            },
        },
        msp: PathPin {
            pops: &[3354, 3383, 3467, 3423],
            relaxations: &[35518, 34070, 32141, 34572],
            steps: Steps {
                s: 11,
                h_total: 643,
                h: &[38, 63, 121, 128, 105, 100, 61, 17, 7, 3, 0],
            },
        },
        mst_rounds: &[1, 1, 1, 1],
        mst: Steps {
            s: 13,
            h_total: 350,
            h: &[93, 17, 17, 15, 12, 6, 3, 3, 20, 77, 84, 3, 0],
        },
    },
];

fn assert_steps(app: &str, p: usize, stats: &RunStats, want: &Steps) {
    let h: Vec<u64> = stats.steps.iter().map(|s| s.h()).collect();
    assert_eq!(stats.s(), want.s, "{app} p={p}: S");
    assert_eq!(stats.h_total(), want.h_total, "{app} p={p}: H");
    assert_eq!(h, want.h, "{app} p={p}: per-superstep h");
}

#[test]
fn sp_pops_relaxations_and_steps_are_pinned() {
    let g = geometric_graph(N, SEED);
    for pin in &PINS {
        let p = pin.p;
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let out = run(&Config::new(p), |ctx| {
            sp_run(ctx, &locals[ctx.pid()], SP_SOURCE, DEFAULT_WORK_FACTOR)
        });
        let pops: Vec<u64> = out.results.iter().map(|r| r.pops).collect();
        let relax: Vec<u64> = out.results.iter().map(|r| r.relaxations).collect();
        assert_eq!(pops, pin.sp.pops, "sp p={p}: pops");
        assert_eq!(relax, pin.sp.relaxations, "sp p={p}: relaxations");
        assert_steps("sp", p, &out.stats, &pin.sp.steps);
    }
}

#[test]
fn msp_pops_relaxations_and_steps_are_pinned() {
    let g = geometric_graph(N, SEED);
    for pin in &PINS {
        let p = pin.p;
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let out = run(&Config::new(p), |ctx| {
            msp_run(ctx, &locals[ctx.pid()], &MSP_SOURCES, DEFAULT_WORK_FACTOR)
        });
        let pops: Vec<u64> = out.results.iter().map(|r| r.pops).collect();
        let relax: Vec<u64> = out.results.iter().map(|r| r.relaxations).collect();
        assert_eq!(pops, pin.msp.pops, "msp p={p}: pops");
        assert_eq!(relax, pin.msp.relaxations, "msp p={p}: relaxations");
        assert_steps("msp", p, &out.stats, &pin.msp.steps);
    }
}

#[test]
fn mst_rounds_and_steps_are_pinned() {
    let g = geometric_graph(N, SEED);
    for pin in &PINS {
        let p = pin.p;
        let owner = partition_kd(&g.pos, p);
        let locals = build_locals(&g, &owner, p);
        let out = run(&Config::new(p), |ctx| {
            mst_run(ctx, &locals[ctx.pid()], &owner)
        });
        let rounds: Vec<u32> = out.results.iter().map(|r| r.rounds).collect();
        assert_eq!(rounds, pin.mst_rounds, "mst p={p}: rounds");
        assert_steps("mst", p, &out.stats, &pin.mst);
    }
}

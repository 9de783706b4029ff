//! sp, msp and mst pack a global node id into 28 bits of each packet; a
//! graph with more nodes than that must be refused up front, in release
//! builds too, rather than mis-tag its packets.

use bsp_graph::msp::msp_run;
use bsp_graph::mst::mst_run;
use bsp_graph::partition::LocalGraph;
use bsp_graph::sp::sp_run;
use green_bsp::{run, Config};
use std::collections::HashMap;

/// An empty single-process partition of a graph claiming `2^28 + 1` nodes.
fn oversized() -> LocalGraph {
    LocalGraph {
        pid: 0,
        nprocs: 1,
        n_global: (1 << 28) + 1,
        home: Vec::new(),
        xadj: vec![0],
        adj: Vec::new(),
        border_gid: Vec::new(),
        border_owner: Vec::new(),
        gid_to_lid: HashMap::new(),
        adj_procs_xadj: vec![0],
        adj_procs: Vec::new(),
    }
}

#[test]
#[should_panic(expected = "node ids need over 28 bits")]
fn sp_refuses_more_than_2_pow_28_nodes() {
    let lg = oversized();
    run(&Config::new(1), |ctx| sp_run(ctx, &lg, 0, 10));
}

#[test]
#[should_panic(expected = "node ids need over 28 bits")]
fn msp_refuses_more_than_2_pow_28_nodes() {
    let lg = oversized();
    run(&Config::new(1), |ctx| msp_run(ctx, &lg, &[0], 10));
}

#[test]
#[should_panic(expected = "node ids need over 28 bits")]
fn mst_refuses_more_than_2_pow_28_nodes() {
    let lg = oversized();
    run(&Config::new(1), |ctx| mst_run(ctx, &lg, &[]));
}

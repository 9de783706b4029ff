//! `report ablate` — the two design ablations no other instrument
//! measures: the shortest-paths work factor (§3.4) and Oxford-style DRMA
//! puts against Green BSP message passing (§1.3). Every wall-time cell is
//! the median and min of `k` runs; the exact quantities beside them (`S`,
//! stencil cells) are what the unit test pins.

use crate::apps::SEED;
use bsp_graph::{build_locals, geometric_graph, partition_kd, sp_run, LocalGraph};
use green_bsp::drma::Drma;
use green_bsp::{run, BackendKind, Config, NetSimParams, Packet, RunOutput};
use std::time::Duration;

/// Work factors swept: from a boundary every 25 queue pops to almost none.
const WORK_FACTORS: [usize; 4] = [25, 200, 2_000, 20_000];

/// The emulated high-latency machine the work factor should be raised for.
const HIGH_L: NetSimParams = NetSimParams {
    g_us: 0.5,
    l_us: 500.0,
    l_neigh_us: 0.0,
    time_scale: 1.0,
};

/// Cells per process of the halo stencil, and its steps.
const CELLS: usize = 512;
const STEPS: usize = 20;

/// Median and min, in µs, of `k` wall times.
fn median_min(k: usize, mut f: impl FnMut() -> Duration) -> (f64, f64) {
    let mut us: Vec<f64> = (0..k).map(|_| f().as_secs_f64() * 1e6).collect();
    us.sort_by(f64::total_cmp);
    (us[k / 2], us[0])
}

/// `G(δ)` with `n` vertices, partitioned over `p` processes.
fn sp_graph(n: usize, p: usize) -> Vec<LocalGraph> {
    let g = geometric_graph(n, SEED);
    build_locals(&g, &partition_kd(&g.pos, p), p)
}

/// Shortest paths from vertex 0 at work factor `wf`.
fn sp_at(locals: &[LocalGraph], cfg: &Config, wf: usize) -> RunOutput<u64> {
    run(cfg, |ctx| sp_run(ctx, &locals[ctx.pid()], 0, wf).pops)
}

/// One step's averaging over the owned cells (ghosts at both ends).
fn average(cells: &mut [f64]) {
    let old = cells.to_vec();
    for i in 1..=CELLS {
        cells[i] = 0.5 * (old[i - 1] + old[i + 1]);
    }
}

/// The 1-D halo stencil: each step ships both edge cells to the
/// neighbours — by remote put when `drma`, else by `send_pkt` — then
/// averages. Every process returns its cells, ghosts included.
fn stencil(p: usize, drma: bool) -> RunOutput<Vec<f64>> {
    run(&Config::new(p), move |ctx| {
        let (me, p) = (ctx.pid(), ctx.nprocs());
        let mut cells: Vec<f64> = (0..CELLS + 2).map(|i| (me * CELLS + i) as f64).collect();
        if drma {
            let mut d = Drma::new(vec![cells]);
            for _ in 0..STEPS {
                let (lo, hi) = (d.region(0)[1], d.region(0)[CELLS]);
                if me > 0 {
                    d.put(me - 1, 0, CELLS + 1, &[lo]);
                }
                if me + 1 < p {
                    d.put(me + 1, 0, 0, &[hi]);
                }
                d.sync_put(ctx);
                average(d.region_mut(0));
            }
            return d.region(0).to_vec();
        }
        for _ in 0..STEPS {
            if me > 0 {
                ctx.send_pkt(me - 1, Packet::u64_f64(1, cells[1]));
            }
            if me + 1 < p {
                ctx.send_pkt(me + 1, Packet::u64_f64(0, cells[CELLS]));
            }
            ctx.sync();
            while let Some(pkt) = ctx.get_pkt() {
                let (side, v) = pkt.as_u64_f64();
                cells[if side == 0 { 0 } else { CELLS + 1 }] = v;
            }
            average(&mut cells);
        }
        cells
    })
}

/// Print the two tables; `full` takes more runs per cell.
pub fn run_ablate(full: bool) {
    let k = if full { 51 } else { 21 };
    let p = 4;
    println!("=== Ablations: wall µs, median [min] of {k} runs ===\n");

    let n = 5_000;
    let locals = sp_graph(n, p);
    println!("Work factor (§3.4): sp on G(δ) n = {n}, p = {p}");
    println!(
        "{:>7} | {:>10} | {:>18} | {:>24}",
        "wf", "S (seqsim)", "host", "netsim g=0.5 L=500us"
    );
    for wf in WORK_FACTORS {
        let s = sp_at(&locals, &Config::new(p).backend(BackendKind::SeqSim), wf)
            .stats
            .s();
        let (host, host_min) = median_min(k, || sp_at(&locals, &Config::new(p), wf).wall);
        let netsim = Config::new(p).backend(BackendKind::NetSim(HIGH_L));
        let (emu, emu_min) = median_min(k, || sp_at(&locals, &netsim, wf).wall);
        println!(
            "{wf:>7} | {s:>10} | {host:>8.1} [{host_min:>7.1}] | {emu:>12.1} [{emu_min:>9.1}]"
        );
    }

    println!("\nDRMA puts vs message passing (§1.3): {CELLS}-cell halo stencil, {STEPS} steps");
    println!("{:>7} | {:>18} | {:>18}", "p", "drma puts", "send_pkt");
    for p in [2, 4] {
        let (puts, puts_min) = median_min(k, || stencil(p, true).wall);
        let (msg, msg_min) = median_min(k, || stencil(p, false).wall);
        println!("{p:>7} | {puts:>8.1} [{puts_min:>7.1}] | {msg:>8.1} [{msg_min:>7.1}]");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_have_exact_outcomes() {
        let locals = sp_graph(600, 4);
        let s = |wf| {
            sp_at(&locals, &Config::new(4).backend(BackendKind::SeqSim), wf)
                .stats
                .s()
        };
        let (small, large) = (s(WORK_FACTORS[0]), s(WORK_FACTORS[3]));
        assert!(small > large, "S at wf 25 = {small}, at wf 20000 = {large}");

        for p in [2, 4] {
            let bits = |drma| -> Vec<Vec<u64>> {
                let out = stencil(p, drma).results;
                out.iter()
                    .map(|c| c.iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(true), bits(false), "p = {p}");
        }
    }
}

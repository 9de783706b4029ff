//! Ablation: chunked hand-off amortization. The paper allocates
//! input-buffer space for 1000 packets per lock acquisition "so the locking
//! cost is small per packet" (Appendix B.1). Here `Ctx::send_pkt` stages
//! packets per destination and hands the transport `Config::chunk` of them
//! at a time — on the shared backend (the default, measured here) one slab
//! reservation and one copy per chunk; this sweeps the chunk size from a
//! hand-off per packet up.

use bsp_bench::quick_criterion;
use criterion::Criterion;
use green_bsp::{run, Config, Packet};

fn exchange_with_chunk(chunk: usize, p: usize, per_pair: usize) {
    let out = run(&Config::new(p).chunk(chunk), move |ctx| {
        let me = ctx.pid();
        for dest in 0..ctx.nprocs() {
            if dest != me {
                for i in 0..per_pair {
                    ctx.send_pkt(dest, Packet::two_u64(i as u64, 0));
                }
            }
        }
        ctx.sync();
        while ctx.get_pkt().is_some() {}
    });
    std::hint::black_box(out.stats.total_pkts());
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_chunk");
    for chunk in [1usize, 10, 100, 1000, 10_000] {
        group.bench_function(format!("chunk{chunk}/p4"), |b| {
            b.iter(|| exchange_with_chunk(chunk, 4, 8_000));
        });
    }
    group.finish();
}

fn main() {
    let mut c = quick_criterion();
    benches(&mut c);
    c.final_summary();
}

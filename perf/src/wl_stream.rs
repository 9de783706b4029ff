//! Workload `stream`: out-of-core execution. An external sample sort and a
//! tiled Jacobi sweep, each with its input four times the tile budget, so
//! the reader/writer ring, the `TileStore` I/O and the sort do the work —
//! the only workload where spill I/O and prefetch stall exist. The in-core
//! baselines run interleaved in the same pass; every streamed result must
//! equal its in-core result bit for bit.

use crate::apps;
use crate::gen::{self, SplitMix};
use crate::json::Json;
use crate::ledger::{pkt_equivalents, traffic, Env, Ledger, PassSamples};
use crate::quant::{median, Summary};
use crate::scale::Budget;
use crate::trace::Tracer;
use green_bsp::{Config, RunStats, Runtime, StreamConfig, TileStore};
use std::path::Path;
use std::time::{Duration, Instant};

fn le_bytes_u64(v: &[u64]) -> Vec<u8> {
    v.iter().flat_map(|k| k.to_le_bytes()).collect()
}

fn le_bytes_f64(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// One `TileStore` call made by the benchmark itself, under a span.
fn store_op<T>(
    tracer: &mut Tracer,
    name: &str,
    op: impl FnOnce() -> std::io::Result<T>,
    ledger: &mut Ledger,
) -> Option<T> {
    let span = tracer.begin(name);
    let res = op();
    tracer.end(span);
    res.map_err(|e| ledger.fail(format!("stream: {name}: {e}")))
        .ok()
}

/// Input size over tile budget, for both streamed apps.
const TILE_RATIO: usize = 4;

pub struct Stream {
    rt: Runtime,
    p: usize,
    keys: Vec<u64>,
    sorted: Vec<u8>,
    grid0: Vec<u8>,
    relaxed: Vec<u8>,
    n: usize,
    sweeps: usize,
    sort_cfg: StreamConfig,
    grid_cfg: StreamConfig,
    input: TileStore,
    output: TileStore,
    ping: TileStore,
    pong: TileStore,
    /// In-core Jacobi wall taken in set-up (the reference run).
    jacobi_ref_wall: Duration,
}

/// One streamed app run.
struct Streamed {
    wall: f64,
    stats: RunStats,
}

#[derive(Default)]
struct Samples {
    ext_sort: Vec<f64>,
    tiled: Vec<f64>,
    in_core_sort: Vec<f64>,
    in_core_jacobi: Vec<f64>,
    prefetch_share: Vec<f64>,
    io_read: u64,
    io_write: u64,
    tiles: u64,
}

impl Stream {
    pub fn setup(env: &Env, ledger: &mut Ledger, tracer: &mut Tracer) -> Option<Stream> {
        let sc = &env.scale;
        let (n, sweeps) = (sc.jacobi_n, sc.jacobi_sweeps);
        let dir: &Path = &env.tmp;

        let span = tracer.begin("setup.generate");
        let keys = gen::keys(sc.sort_keys, env.seed);
        let mut g = SplitMix::new(env.seed ^ 0x0CEA);
        let grid: Vec<f64> = (0..n * n)
            .map(|_| (g.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        tracer.end(span);

        let span = tracer.begin("setup.reference");
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut relaxed = grid.clone();
        let jacobi_ref_wall = apps::jacobi_in_core(n, &mut relaxed, sweeps);
        tracer.end(span);

        let (key_bytes, grid_bytes) = (keys.len() * 8, n * n * 8);
        let create = |name: &str| TileStore::create_in(dir, name);
        let input = store_op(
            tracer,
            "stream.store.create",
            || create("sort-input.keys"),
            ledger,
        )?;
        let output = store_op(
            tracer,
            "stream.store.create",
            || create("sort-output.keys"),
            ledger,
        )?;
        let ping = store_op(
            tracer,
            "stream.store.create",
            || create("jacobi-ping.grid"),
            ledger,
        )?;
        let pong = store_op(
            tracer,
            "stream.store.create",
            || create("jacobi-pong.grid"),
            ledger,
        )?;
        let grid0 = le_bytes_f64(&grid);
        store_op(
            tracer,
            "stream.store.write_all",
            || input.write_all(&le_bytes_u64(&keys)),
            ledger,
        )?;
        store_op(
            tracer,
            "stream.store.write_all",
            || pong.write_all(&vec![0u8; grid_bytes]),
            ledger,
        )?;

        let span = tracer.begin("setup.runtime");
        let rt = Runtime::new();
        rt.prewarm(&Config::new(env.width.p));
        rt.prewarm(&Config::new(1));
        tracer.end(span);

        let s = Stream {
            rt,
            p: env.width.p,
            keys,
            sorted: le_bytes_u64(&sorted),
            grid0,
            relaxed: le_bytes_f64(&relaxed),
            n,
            sweeps,
            sort_cfg: StreamConfig::new((key_bytes / TILE_RATIO).max(8))
                .record(8)
                .spill_dir(dir),
            grid_cfg: StreamConfig::new((grid_bytes / TILE_RATIO).max(n * 8)).spill_dir(dir),
            input,
            output,
            ping,
            pong,
            jacobi_ref_wall,
        };

        let span = tracer.begin("setup.cold_run");
        let p = s.p;
        s.ext_sort(p, ledger, tracer);
        s.tiled(p, ledger, tracer);
        tracer.end(span);
        Some(s)
    }

    fn useful_bytes(&self) -> f64 {
        (self.keys.len() * 8 + self.n * self.n * 8 * self.sweeps) as f64
    }

    /// External sort at width `p`; the output store must hold the keys in
    /// sorted order.
    fn ext_sort(&self, p: usize, ledger: &mut Ledger, tracer: &mut Tracer) -> Option<Streamed> {
        let span = tracer.begin(&format!("run sort.external p={p}"));
        let res = apps::sort_external(
            &self.rt,
            &Config::new(p),
            &self.sort_cfg,
            &self.input,
            &self.output,
        );
        if let Ok((stats, _)) = &res {
            tracer.synthesise_run(span, stats);
        }
        tracer.end(span);
        let (stats, wall) = res
            .map_err(|e| ledger.fail(format!("stream: external sort p={p}: {e}")))
            .ok()?;
        let got = store_op(
            tracer,
            "stream.store.read_to_vec",
            || self.output.read_to_vec(),
            ledger,
        )?;
        ledger.check(got == self.sorted, || {
            format!("stream: external sort p={p}: output is not the sorted input")
        });
        Some(Streamed {
            wall: wall.as_secs_f64(),
            stats,
        })
    }

    /// Tiled Jacobi at width `p`; the result store must equal the in-core
    /// sweep bit for bit.
    fn tiled(&self, p: usize, ledger: &mut Ledger, tracer: &mut Tracer) -> Option<Streamed> {
        // The sweeps overwrite both stores: restore the input first.
        store_op(
            tracer,
            "stream.store.write_all",
            || self.ping.write_all(&self.grid0),
            ledger,
        )?;
        let span = tracer.begin(&format!("run ocean.tiled p={p}"));
        let res = apps::jacobi_tiled(
            &self.rt,
            &Config::new(p),
            &self.grid_cfg,
            self.n,
            &self.ping,
            &self.pong,
            self.sweeps,
        );
        if let Ok((stats, ..)) = &res {
            tracer.synthesise_run(span, stats);
        }
        tracer.end(span);
        let (stats, wall, in_pong) = res
            .map_err(|e| ledger.fail(format!("stream: tiled Jacobi p={p}: {e}")))
            .ok()?;
        let store = if in_pong { &self.pong } else { &self.ping };
        let got = store_op(
            tracer,
            "stream.store.read_to_vec",
            || store.read_to_vec(),
            ledger,
        )?;
        ledger.check(got == self.relaxed, || {
            format!("stream: tiled Jacobi p={p}: result differs from the in-core sweep")
        });
        Some(Streamed {
            wall: wall.as_secs_f64(),
            stats,
        })
    }

    /// In-core baselines: the sample sort at `p = P` and the sequential
    /// Jacobi sweep, both checked like the streamed runs.
    fn baselines(&self, ledger: &mut Ledger, tracer: &mut Tracer) -> Option<(f64, f64)> {
        let span = tracer.begin("run sort.sample");
        let res = apps::sort_in_core(&self.rt, &Config::new(self.p), &self.keys);
        tracer.end(span);
        let (got, sort_wall) = res
            .map_err(|e| ledger.fail(format!("stream: in-core sort: {e}")))
            .ok()?;
        ledger.check(le_bytes_u64(&got) == self.sorted, || {
            "stream: in-core sample sort: output is not the sorted input".to_string()
        });
        let span = tracer.begin("run ocean.jacobi_in_core");
        let mut grid: Vec<f64> = self
            .grid0
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("eight bytes")))
            .collect();
        let wall = apps::jacobi_in_core(self.n, &mut grid, self.sweeps);
        tracer.end(span);
        ledger.check(le_bytes_f64(&grid) == self.relaxed, || {
            "stream: in-core Jacobi is not repeatable".to_string()
        });
        Some((sort_wall.as_secs_f64(), wall.as_secs_f64()))
    }

    pub fn measure(&mut self, budget: &Budget, ledger: &mut Ledger, tracer: &mut Tracer) {
        let mut out = PassSamples::default();
        let mut s = Samples::default();
        s.in_core_jacobi.push(self.jacobi_ref_wall.as_secs_f64());
        let useful = self.useful_bytes();
        let n = budget.drive(|timed| {
            let span = tracer.begin("pass");
            let p = self.p;
            let base = self.baselines(ledger, tracer);
            let wide = (
                self.ext_sort(p, ledger, tracer),
                self.tiled(p, ledger, tracer),
            );
            let narrow = (
                self.ext_sort(1, ledger, tracer),
                self.tiled(1, ledger, tracer),
            );
            tracer.end(span);
            let (
                true,
                Some((base_sort, base_jacobi)),
                (Some(sort), Some(tiled)),
                (Some(s1), Some(t1)),
            ) = (timed, base, wide, narrow)
            else {
                return;
            };
            let wall = sort.wall + tiled.wall;
            out.wall.push(wall);
            out.wall_p1.push(s1.wall + t1.wall);
            out.bytes_per_s.push(useful / wall);
            let (mut pkts, mut bytes, mut tiles) = (0, 0, 0);
            let mut prefetch = Duration::ZERO;
            for r in [&sort, &tiled] {
                let (k, b) = traffic(&r.stats);
                pkts += k;
                bytes += b;
                tiles += r.stats.tiles;
                prefetch += r.stats.prefetch_wait;
            }
            out.pkts_per_s
                .push(pkt_equivalents(pkts, bytes) as f64 / wall);
            out.jobs_per_s.push(tiles as f64 / wall);
            s.ext_sort.push(sort.wall);
            s.tiled.push(tiled.wall);
            s.in_core_sort.push(base_sort);
            s.in_core_jacobi.push(base_jacobi);
            s.prefetch_share.push(prefetch.as_secs_f64() / wall);
            s.io_read = sort.stats.io_read_bytes + tiled.stats.io_read_bytes;
            s.io_write = sort.stats.io_write_bytes + tiled.stats.io_write_bytes;
            s.tiles = tiles;
        });
        ledger.note("stream.timed_passes", Json::Num(n as f64));
        if out.wall.is_empty() {
            ledger.fail("stream: no pass completed".to_string());
            return;
        }
        out.emit(ledger);

        let count = |v: u64| Summary::single(v as f64);
        ledger.layer_of("stream.prefetch_wait_share", "ratio", &s.prefetch_share);
        ledger.layer("stream.io_read_bytes", "count", count(s.io_read));
        ledger.layer("stream.io_write_bytes", "count", count(s.io_write));
        ledger.layer("stream.tiles", "count", count(s.tiles));
        ledger.layer(
            "stream.extsort_efficiency",
            "ratio",
            Summary::single(median(&s.in_core_sort) / median(&s.ext_sort)),
        );
        ledger.layer(
            "stream.ocean_efficiency",
            "ratio",
            Summary::single(median(&s.in_core_jacobi) / median(&s.tiled)),
        );
        ledger.layer("sort.sample.wall_s", "s", Summary::of(&s.in_core_sort));
    }

    /// `stream.read_mb_s` / `stream.write_mb_s`: sequential `TileStore`
    /// I/O in 1 MiB calls, each under its own span. (The page cache
    /// absorbs both, so these price the call path, not the disk.)
    pub fn probe_io(&self, env: &Env, ledger: &mut Ledger, tracer: &mut Tracer) {
        const CHUNK: usize = 1 << 20;
        let total = env.scale.io_probe_bytes.max(CHUNK);
        let chunk = gen::bytes(CHUNK, env.seed);
        let mut buf = vec![0u8; CHUNK];
        let (mut read, mut write) = (Vec::new(), Vec::new());
        let span = tracer.begin("probe.store_io");
        let store = store_op(
            tracer,
            "stream.store.create",
            || TileStore::create_in(&env.tmp, "io-probe.bin"),
            ledger,
        );
        if let Some(store) = store {
            for _ in 0..if env.scale.smoke { 1 } else { 3 } {
                let t0 = Instant::now();
                let ok = (0..total / CHUNK).all(|i| {
                    store_op(
                        tracer,
                        "stream.store.write_at",
                        || store.write_at((i * CHUNK) as u64, &chunk),
                        ledger,
                    )
                    .is_some()
                });
                if ok {
                    write.push(total as f64 / 1e6 / t0.elapsed().as_secs_f64());
                }
                let t0 = Instant::now();
                let ok = (0..total / CHUNK).all(|i| {
                    store_op(
                        tracer,
                        "stream.store.read_at",
                        || store.read_at((i * CHUNK) as u64, &mut buf),
                        ledger,
                    )
                    .is_some()
                });
                if ok {
                    read.push(total as f64 / 1e6 / t0.elapsed().as_secs_f64());
                    // Outside the timed interval: the last chunk read back.
                    ledger.check(buf == chunk, || {
                        "stream: store read back other bytes".to_string()
                    });
                }
            }
        }
        tracer.end(span);
        ledger.layer_of("stream.read_mb_s", "MB/s", &read);
        ledger.layer_of("stream.write_mb_s", "MB/s", &write);
    }

    pub fn finish(self) {
        self.rt.shutdown();
    }
}

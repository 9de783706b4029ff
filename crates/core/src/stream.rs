//! Streaming supersteps: tiled out-of-core execution with double-buffered
//! prefetch on the persistent executor (DESIGN.md §14).
//!
//! The paper's efficiency argument assumes the problem fits in memory; this
//! layer removes that assumption without changing the programming model. A
//! dataset living in a spill-directory [`TileStore`] is partitioned into
//! fixed-budget tiles ([`StreamConfig::plan`]), and each tile runs as one
//! warm, allocation-free BSP job against the executor's per-shape transport
//! arena ([`crate::exec::Runtime`]) — the same `p` processes, the same
//! leased fabric, tile after tile. Around the compute loop sits a
//! double-buffered prefetch pipeline:
//!
//! * a dedicated **reader thread** loads tile `N+1` into a recycled buffer
//!   from a ring of 2–3 while tile `N` computes;
//! * a dedicated **writer thread** writes tile `N−1`'s output back while
//!   tile `N` computes;
//! * the driver thread only ever blocks when the prefetcher falls behind,
//!   and that stall is measured first-class as
//!   [`crate::RunStats::prefetch_wait`].
//!
//! When compute ≥ I/O the executor therefore never stalls on disk: the
//! steady state is one `recv` from an already-full channel per tile. The
//! store is positioned-`pread`/`pwrite` backed (`std::os::unix::fs::FileExt`);
//! an `mmap` window would serve the same role but needs a platform crate
//! this workspace deliberately does not link, so the portable read path is
//! the only one compiled (the OS page cache provides most of the benefit).
//!
//! Inside a tile job, [`crate::Ctx::tile`] exposes the tile's coordinates
//! ([`TileMeta`]): its index, byte range in the backing store, record size,
//! and the total tile count, plus [`TileMeta::shard`] for the conventional
//! contiguous split of the tile's records across the job's processes.

use crate::context::Ctx;
use crate::exec::Runtime;
use crate::fault::BspError;
use crate::runner::Config;
use crate::stats::RunStats;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Coordinates of one tile of a streaming run, visible to the tile's BSP
/// job via [`crate::Ctx::tile`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileMeta {
    /// Tile index in `0..tiles`, in store order.
    pub index: usize,
    /// Total number of tiles in this streaming run.
    pub tiles: usize,
    /// Byte offset of this tile in the input [`TileStore`].
    pub offset: u64,
    /// Bytes in this tile (a multiple of `record`; the final tile may be
    /// short).
    pub len: usize,
    /// Record granularity in bytes: tiles and shards split only on record
    /// boundaries.
    pub record: usize,
}

impl TileMeta {
    /// Records in this tile.
    #[inline]
    pub fn records(&self) -> usize {
        self.len / self.record
    }

    /// Global index of this tile's first record in the backing store.
    #[inline]
    pub fn first_record(&self) -> usize {
        (self.offset / self.record as u64) as usize
    }

    /// Whether this is the final tile of the run.
    #[inline]
    pub fn is_last(&self) -> bool {
        self.index + 1 == self.tiles
    }

    /// The conventional contiguous split of this tile across `nprocs` BSP
    /// processes: the byte range (record-aligned) process `pid` owns.
    /// Ranges are disjoint, cover the tile, and may be empty for trailing
    /// processes of a short tile.
    pub fn shard(&self, pid: usize, nprocs: usize) -> std::ops::Range<usize> {
        let recs = self.records();
        let per = recs.div_ceil(nprocs.max(1));
        let lo = (pid * per).min(recs);
        let hi = ((pid + 1) * per).min(recs);
        lo * self.record..hi * self.record
    }
}

/// Shape of a streaming run: the in-core tile budget, the prefetch ring
/// depth, and where spill files live.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// In-core budget per tile in bytes. The planner rounds it down to a
    /// whole number of records (minimum one record per tile).
    pub tile_bytes: usize,
    /// Tile buffers in flight (reader-owned + computing + writer-owned).
    /// Clamped to `2..=3`: 2 is classic double buffering, 3 additionally
    /// decouples write-back from prefetch.
    pub ring: usize,
    /// Record granularity in bytes; tiles split only on record boundaries.
    pub record: usize,
    /// Directory for spill files created by the run's applications (e.g.
    /// external sort's bucket spills). The streaming core itself only
    /// reads/writes the stores it is handed.
    pub spill_dir: PathBuf,
}

impl StreamConfig {
    /// A streaming config with the given tile budget, record size 1, ring
    /// depth 3, and the system temp directory for spills.
    pub fn new(tile_bytes: usize) -> StreamConfig {
        StreamConfig {
            tile_bytes: tile_bytes.max(1),
            ring: 3,
            record: 1,
            spill_dir: std::env::temp_dir(),
        }
    }

    /// Set the record granularity (bytes); tiles split only on record
    /// boundaries.
    pub fn record(mut self, record: usize) -> StreamConfig {
        self.record = record.max(1);
        self
    }

    /// Set the prefetch ring depth (clamped to `2..=3` at run time).
    pub fn ring(mut self, ring: usize) -> StreamConfig {
        self.ring = ring;
        self
    }

    /// Set the spill directory.
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> StreamConfig {
        self.spill_dir = dir.into();
        self
    }

    /// Partition a store of `total` bytes into record-aligned tiles of at
    /// most (budget rounded down to a record multiple) bytes. Empty input
    /// plans zero tiles; a budget smaller than one record still plans
    /// one-record tiles.
    ///
    /// Panics if `total` is not a multiple of the record size — a tile
    /// boundary through the middle of a record cannot be computed on.
    pub fn plan(&self, total: u64) -> Vec<TileMeta> {
        let rec = self.record.max(1) as u64;
        assert!(
            total.is_multiple_of(rec),
            "store length {total} is not a multiple of the record size {rec}"
        );
        if total == 0 {
            return Vec::new();
        }
        let per = (self.tile_bytes as u64 / rec).max(1) * rec;
        let tiles = total.div_ceil(per) as usize;
        (0..tiles)
            .map(|i| {
                let offset = i as u64 * per;
                TileMeta {
                    index: i,
                    tiles,
                    offset,
                    len: per.min(total - offset) as usize,
                    record: rec as usize,
                }
            })
            .collect()
    }
}

/// A spill-directory dataset: a plain file accessed with positioned reads
/// and writes, safe to share across the prefetcher's reader and writer
/// threads (`&self` everywhere; the logical length is an atomic).
#[derive(Debug)]
pub struct TileStore {
    file: File,
    path: PathBuf,
    /// Logical length: advanced by `write_at`/`append`, initialized from
    /// file metadata on `open`.
    len: AtomicU64,
    /// Fault injection (see DESIGN.md §15): successful reads remaining
    /// before an injected failure; `u64::MAX` (the default) disables it.
    reads_left: AtomicU64,
    /// Successful writes remaining before an injected failure.
    writes_left: AtomicU64,
}

impl TileStore {
    /// Create (or truncate) the store at `path`.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<TileStore> {
        let path = path.into();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(TileStore {
            file,
            path,
            len: AtomicU64::new(0),
            reads_left: AtomicU64::new(u64::MAX),
            writes_left: AtomicU64::new(u64::MAX),
        })
    }

    /// Create (or truncate) `dir/name`, creating `dir` if needed.
    pub fn create_in(dir: impl AsRef<Path>, name: &str) -> io::Result<TileStore> {
        std::fs::create_dir_all(dir.as_ref())?;
        TileStore::create(dir.as_ref().join(name))
    }

    /// Open an existing store read-write; the logical length starts at the
    /// file's current size.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<TileStore> {
        let path = path.into();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        Ok(TileStore {
            file,
            path,
            len: AtomicU64::new(len),
            reads_left: AtomicU64::new(u64::MAX),
            writes_left: AtomicU64::new(u64::MAX),
        })
    }

    /// Fault-injection hook: the next `n` reads succeed, every read after
    /// them fails with an injected I/O error. For resilience tests; not
    /// part of the stable API.
    #[doc(hidden)]
    pub fn fail_reads_after(&self, n: u64) {
        self.reads_left.store(n, Ordering::Release);
    }

    /// Fault-injection hook: the next `n` writes succeed, every write after
    /// them fails with an injected I/O error (a deterministic stand-in for
    /// disk-full / EIO). For resilience tests; not part of the stable API.
    #[doc(hidden)]
    pub fn fail_writes_after(&self, n: u64) {
        self.writes_left.store(n, Ordering::Release);
    }

    /// Charge one operation against an injection budget. `u64::MAX` means
    /// injection is off and the counter never moves (the steady-state
    /// cost is one relaxed load).
    fn charge(counter: &AtomicU64, what: &str) -> io::Result<()> {
        let left = counter.load(Ordering::Acquire);
        if left == u64::MAX {
            return Ok(());
        }
        if left == 0 {
            return Err(io::Error::other(format!("injected spill {what} failure")));
        }
        counter.store(left - 1, Ordering::Release);
        Ok(())
    }

    /// Logical length in bytes.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the store holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Fill `buf` from `offset` (exact read; errors on short files).
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        TileStore::charge(&self.reads_left, "read")?;
        self.file.read_exact_at(buf, offset)
    }

    /// Write `data` at `offset`, extending the logical length if the write
    /// ends past it.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        TileStore::charge(&self.writes_left, "write")?;
        self.file.write_all_at(data, offset)?;
        self.len
            .fetch_max(offset + data.len() as u64, Ordering::AcqRel);
        Ok(())
    }

    /// Append `data`, returning the offset it landed at. The offset is
    /// reserved atomically, so concurrent appenders interleave whole
    /// records rather than bytes.
    pub fn append(&self, data: &[u8]) -> io::Result<u64> {
        TileStore::charge(&self.writes_left, "write")?;
        let offset = self.len.fetch_add(data.len() as u64, Ordering::AcqRel);
        self.file.write_all_at(data, offset)?;
        Ok(offset)
    }

    /// Replace the store's contents with `data`.
    pub fn write_all(&self, data: &[u8]) -> io::Result<()> {
        self.file.set_len(0)?;
        self.len.store(0, Ordering::Release);
        self.write_at(0, data)
    }

    /// Read the whole store into a `Vec` (for in-core comparisons/tests;
    /// defeats the point of streaming otherwise).
    pub fn read_to_vec(&self) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; self.len() as usize];
        self.read_at(0, &mut buf)?;
        Ok(buf)
    }
}

/// Why a streaming run failed: spill I/O or the BSP job itself.
#[derive(Debug)]
pub enum StreamError {
    /// A spill-store read or write failed.
    Io(io::Error),
    /// A tile's BSP job failed.
    Bsp(BspError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream I/O error: {e}"),
            StreamError::Bsp(e) => write!(f, "stream BSP error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> StreamError {
        StreamError::Io(e)
    }
}

impl From<BspError> for StreamError {
    fn from(e: BspError) -> StreamError {
        StreamError::Bsp(e)
    }
}

/// Results of a streaming run.
#[derive(Debug)]
pub struct StreamRun<R> {
    /// Per-tile, per-process results of the tile jobs, in tile order.
    pub tiles: Vec<Vec<R>>,
    /// Aggregate statistics: supersteps concatenated across tiles,
    /// per-process totals summed, plus the streaming-only fields
    /// ([`RunStats::io_read_bytes`], [`RunStats::io_write_bytes`],
    /// [`RunStats::prefetch_wait`], [`RunStats::tiles`]).
    pub stats: RunStats,
    /// Wall-clock duration of the whole streaming run.
    pub wall: Duration,
}

/// Stream `input` through `cfg.nprocs`-process BSP tile jobs with a custom
/// write-back stage.
///
/// For every tile, `f` runs once per process on the warm executor: it
/// receives the process context (with [`Ctx::tile`] set), the whole tile's
/// bytes, and this process's recycled output buffer. After the job, the
/// tile's `p` output buffers travel to the writer thread, which calls
/// `write(meta, bufs)` — it must return the number of bytes it wrote (for
/// [`RunStats::io_write_bytes`]), and may lock the buffers freely (the
/// compute loop has moved on). Output buffers and tile buffers are recycled
/// through rings, so the steady state allocates nothing.
pub fn run_stream_with<R, F, W>(
    rt: &Runtime,
    cfg: &Config,
    sc: &StreamConfig,
    input: &TileStore,
    f: F,
    write: W,
) -> Result<StreamRun<R>, StreamError>
where
    F: Fn(&mut Ctx, &[u8], &mut Vec<u8>) -> R + Sync,
    R: Send,
    W: FnMut(&TileMeta, &[Mutex<Vec<u8>>]) -> io::Result<u64> + Send,
{
    let start = Instant::now();
    let plan = sc.plan(input.len());
    let ntiles = plan.len();
    let ring = sc.ring.clamp(2, 3);
    let p = cfg.nprocs;
    let mut tile_cfg = cfg.clone();

    let mut agg = RunStats {
        nprocs: p,
        ..RunStats::default()
    };
    let mut tiles_out: Vec<Vec<R>> = Vec::with_capacity(ntiles);
    let mut prefetch_wait = Duration::ZERO;

    // Ring plumbing. Tile buffers cycle main → reader → main; output-buffer
    // sets cycle main → writer → main. Both rings are primed here and only
    // recycled afterwards.
    let (free_tx, free_rx) = mpsc::channel::<Vec<u8>>();
    let (loaded_tx, loaded_rx) = mpsc::sync_channel::<io::Result<(TileMeta, Vec<u8>)>>(ring);
    let (wsend_tx, wsend_rx) = mpsc::channel::<(TileMeta, Vec<Mutex<Vec<u8>>>)>();
    let (wfree_tx, wfree_rx) = mpsc::channel::<Vec<Mutex<Vec<u8>>>>();
    for _ in 0..ring {
        free_tx.send(Vec::new()).expect("fresh channel");
    }
    for _ in 0..2 {
        wfree_tx
            .send((0..p).map(|_| Mutex::new(Vec::new())).collect())
            .expect("fresh channel");
    }

    let plan_ref = &plan;
    std::thread::scope(|s| -> Result<StreamRun<R>, StreamError> {
        // Reader: prefetch tiles in order into recycled buffers. Exits when
        // the plan is exhausted, on I/O error (forwarded through the loaded
        // channel), or when the driver hangs up early.
        let reader = s.spawn(move || -> u64 {
            let mut read = 0u64;
            for meta in plan_ref {
                let Ok(mut buf) = free_rx.recv() else { break };
                buf.resize(meta.len, 0);
                match input.read_at(meta.offset, &mut buf) {
                    Ok(()) => {
                        read += meta.len as u64;
                        if loaded_tx.send(Ok((*meta, buf))).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = loaded_tx.send(Err(e));
                        break;
                    }
                }
            }
            read
        });
        // Writer: drain completed tiles' output sets through the caller's
        // write-back stage, then recycle the buffers (capacity kept).
        let writer = s.spawn(move || -> io::Result<u64> {
            let mut write = write;
            let mut wrote = 0u64;
            while let Ok((meta, set)) = wsend_rx.recv() {
                wrote += write(&meta, &set)?;
                for m in &set {
                    m.lock().unwrap().clear();
                }
                // The driver drops its recycle endpoint as soon as the
                // compute loop ends, usually while the last tile is still
                // queued here — a failed recycle must not abort the drain.
                let _ = wfree_tx.send(set);
            }
            Ok(wrote)
        });

        // Compute loop: the only place the driver can stall is the two
        // `recv`s, and only the loaded-channel one is prefetch starvation.
        let mut compute = || -> Result<(), StreamError> {
            for _ in 0..ntiles {
                // Tile-boundary cancellation point (see DESIGN.md §15): a
                // fired token stops the run between tiles — completed tiles'
                // write-backs drain normally below.
                if let Some(tok) = &tile_cfg.control {
                    if tok.is_cancelled() {
                        return Err(StreamError::Bsp(BspError::Cancelled { pid: 0, step: 0 }));
                    }
                    if tok.deadline_exceeded() {
                        return Err(StreamError::Bsp(BspError::DeadlineExceeded {
                            pid: 0,
                            step: 0,
                        }));
                    }
                }
                let t0 = Instant::now();
                let msg = loaded_rx.recv().map_err(|_| {
                    StreamError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream reader exited before the plan was exhausted",
                    ))
                })?;
                prefetch_wait += t0.elapsed();
                let (meta, data) = msg?;
                let Ok(outs) = wfree_rx.recv() else {
                    // Writer died on an I/O error; surfaced after the joins.
                    return Ok(());
                };
                tile_cfg.tile = Some(meta);
                let out = rt
                    .try_run(&tile_cfg, |ctx| {
                        let pid = ctx.pid();
                        let mut ob = outs[pid].lock().unwrap();
                        f(ctx, &data, &mut ob)
                    })
                    .map_err(StreamError::Bsp)?;
                agg.absorb_tile(&out.stats);
                tiles_out.push(out.results);
                if wsend_tx.send((meta, outs)).is_err() {
                    return Ok(()); // writer died; its error wins below
                }
                let _ = free_tx.send(data); // reader may already be done
            }
            Ok(())
        };
        let run_res = compute();

        // Hang up our ring endpoints so both I/O threads drain and exit,
        // then collect their byte counts (or the writer's error).
        drop(wsend_tx);
        drop(free_tx);
        drop(loaded_rx);
        drop(wfree_rx);
        // A panic escaping either I/O thread (ordinary errors come back as
        // values) is surfaced as a structured error, not re-thrown into the
        // driver: the caller of `run_stream_with` gets a `Result` either way.
        let io_read = match reader.join() {
            Ok(n) => n,
            Err(payload) => {
                return Err(StreamError::Bsp(crate::runner::payload_to_error(
                    0, payload,
                )))
            }
        };
        let wrote = match writer.join() {
            Ok(res) => res,
            Err(payload) => {
                return Err(StreamError::Bsp(crate::runner::payload_to_error(
                    0, payload,
                )))
            }
        };
        run_res?;
        let io_write = wrote?;

        agg.io_read_bytes = io_read;
        agg.io_write_bytes = io_write;
        agg.prefetch_wait = prefetch_wait;
        debug_assert_eq!(agg.tiles as usize, ntiles);
        Ok(StreamRun {
            tiles: tiles_out,
            stats: agg,
            wall: start.elapsed(),
        })
    })
}

/// Stream `input` through BSP tile jobs, writing each tile's output —
/// the job's per-process output buffers concatenated in pid order —
/// sequentially to `output` (or discarding it when `output` is `None`).
///
/// This is the common geometry: a run over `T` tiles produces `output` as
/// the in-order concatenation of every tile's output, which for
/// length-preserving kernels (e.g. a stencil sweep) lands each tile's bytes
/// at the offset it was read from.
pub fn run_stream<R, F>(
    rt: &Runtime,
    cfg: &Config,
    sc: &StreamConfig,
    input: &TileStore,
    output: Option<&TileStore>,
    f: F,
) -> Result<StreamRun<R>, StreamError>
where
    F: Fn(&mut Ctx, &[u8], &mut Vec<u8>) -> R + Sync,
    R: Send,
{
    let mut cursor = 0u64;
    run_stream_with(rt, cfg, sc, input, f, move |_meta, outs| {
        let Some(store) = output else { return Ok(0) };
        let mut wrote = 0u64;
        for m in outs {
            let buf = m.lock().unwrap();
            if !buf.is_empty() {
                store.write_at(cursor, &buf)?;
                cursor += buf.len() as u64;
                wrote += buf.len() as u64;
            }
        }
        Ok(wrote)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "green-bsp-stream-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn plan_tiles_are_record_aligned_and_cover() {
        let sc = StreamConfig::new(100).record(8);
        let plan = sc.plan(8 * 33); // 33 records, 12 per tile
        assert_eq!(plan.len(), 3);
        assert_eq!(plan[0].len, 96);
        assert_eq!(plan[1].offset, 96);
        assert_eq!(plan[2].len, 8 * 33 - 2 * 96);
        let total: usize = plan.iter().map(|t| t.len).sum();
        assert_eq!(total, 8 * 33);
        assert!(plan.iter().all(|t| t.len % 8 == 0 && t.tiles == 3));
        // Budget below one record still plans one-record tiles.
        assert_eq!(StreamConfig::new(3).record(8).plan(24).len(), 3);
        // Empty input plans zero tiles.
        assert!(sc.plan(0).is_empty());
    }

    #[test]
    fn shard_partitions_tile_records() {
        let meta = TileMeta {
            index: 0,
            tiles: 1,
            offset: 0,
            len: 10 * 8,
            record: 8,
        };
        let mut covered = 0;
        for pid in 0..4 {
            let r = meta.shard(pid, 4);
            assert_eq!(r.start % 8, 0);
            assert_eq!(r.len() % 8, 0);
            covered += r.len();
        }
        assert_eq!(covered, 80);
        // A short tile leaves trailing shards empty, never panics.
        assert!(meta.shard(63, 64).is_empty());
    }

    #[test]
    fn tile_store_positioned_io_round_trips() {
        let dir = tmpdir("store");
        let store = TileStore::create_in(&dir, "t.dat").unwrap();
        store.write_all(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(store.len(), 8);
        let mut buf = [0u8; 4];
        store.read_at(2, &mut buf).unwrap();
        assert_eq!(buf, [3, 4, 5, 6]);
        let off = store.append(&[9, 9]).unwrap();
        assert_eq!(off, 8);
        assert_eq!(store.len(), 10);
        let reopened = TileStore::open(store.path()).unwrap();
        assert_eq!(reopened.len(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_copy_is_identity_and_counts_io() {
        // Each proc copies its shard of every tile; the output store must
        // equal the input bit-for-bit, across an uneven final tile.
        let dir = tmpdir("copy");
        let n = 1000usize; // records of 8 bytes
        let bytes: Vec<u8> = (0..n as u64).flat_map(|i| (i * 7).to_le_bytes()).collect();
        let input = TileStore::create_in(&dir, "in.dat").unwrap();
        input.write_all(&bytes).unwrap();
        let output = TileStore::create_in(&dir, "out.dat").unwrap();
        let sc = StreamConfig::new(8 * 192).record(8).spill_dir(&dir);
        let rt = Runtime::new();
        let cfg = Config::new(3);
        let run = run_stream(&rt, &cfg, &sc, &input, Some(&output), |ctx, data, out| {
            let meta = ctx.tile().expect("tile meta visible in job");
            let shard = meta.shard(ctx.pid(), ctx.nprocs());
            out.extend_from_slice(&data[shard]);
            ctx.sync();
            meta.index
        })
        .unwrap();
        assert_eq!(run.stats.tiles, 6); // 1000 records / 192 per tile
        assert_eq!(run.stats.io_read_bytes, bytes.len() as u64);
        assert_eq!(run.stats.io_write_bytes, bytes.len() as u64);
        assert_eq!(run.tiles.len(), 6);
        for (i, per_proc) in run.tiles.iter().enumerate() {
            assert!(per_proc.iter().all(|&idx| idx == i));
        }
        assert_eq!(output.read_to_vec().unwrap(), bytes);
        // The warm path reused one leased fabric across tiles.
        assert!(rt.arena_hits() >= 5, "hits {}", rt.arena_hits());
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_read_failure_surfaces_structured_io_error() {
        // The reader thread hits the injected fault on tile 2; the error
        // must come back through `run_stream`'s result, not a panic/hang.
        let dir = tmpdir("readfail");
        let bytes = vec![7u8; 8 * 64];
        let input = TileStore::create_in(&dir, "in.dat").unwrap();
        input.write_all(&bytes).unwrap();
        input.fail_reads_after(1);
        let rt = Runtime::new();
        let err = run_stream(
            &rt,
            &Config::new(2),
            &StreamConfig::new(128).record(8).spill_dir(&dir),
            &input,
            None,
            |ctx, _data, _out| ctx.sync(),
        )
        .unwrap_err();
        assert!(
            matches!(&err, StreamError::Io(e) if e.to_string().contains("injected")),
            "{err:?}"
        );
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_input_surfaces_short_read() {
        // The backing file is cut down behind the store's back (a deleted
        // or truncated spill file): the reader's exact read fails and the
        // run reports a structured I/O error instead of panicking.
        let dir = tmpdir("shortread");
        let input = TileStore::create_in(&dir, "in.dat").unwrap();
        input.write_all(&vec![3u8; 8 * 64]).unwrap();
        OpenOptions::new()
            .write(true)
            .open(input.path())
            .unwrap()
            .set_len(8 * 20)
            .unwrap();
        let rt = Runtime::new();
        let err = run_stream(
            &rt,
            &Config::new(2),
            &StreamConfig::new(128).record(8).spill_dir(&dir),
            &input,
            None,
            |ctx, _data, _out| ctx.sync(),
        )
        .unwrap_err();
        assert!(
            matches!(&err, StreamError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{err:?}"
        );
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_write_failure_surfaces_structured_io_error() {
        // The writer thread fails on the second tile's write-back; the
        // driver must drain and report it, never hang on the ring.
        let dir = tmpdir("writefail");
        let bytes = vec![1u8; 8 * 64];
        let input = TileStore::create_in(&dir, "in.dat").unwrap();
        input.write_all(&bytes).unwrap();
        let output = TileStore::create_in(&dir, "out.dat").unwrap();
        output.fail_writes_after(1);
        let rt = Runtime::new();
        let err = run_stream(
            &rt,
            &Config::new(2),
            &StreamConfig::new(128).record(8).spill_dir(&dir),
            &input,
            Some(&output),
            |ctx, data, out| {
                let shard = ctx.tile().unwrap().shard(ctx.pid(), ctx.nprocs());
                out.extend_from_slice(&data[shard]);
                ctx.sync();
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, StreamError::Io(e) if e.to_string().contains("injected")),
            "{err:?}"
        );
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cancelled_stream_stops_at_tile_boundary() {
        // Cancel before launch: the compute loop must observe the token at
        // its first tile boundary and return `Cancelled` without running
        // any tile job.
        let dir = tmpdir("cancel");
        let input = TileStore::create_in(&dir, "in.dat").unwrap();
        input.write_all(&vec![2u8; 8 * 64]).unwrap();
        let rt = Runtime::new();
        let tok = crate::exec::CancelToken::new();
        tok.cancel();
        let err = run_stream(
            &rt,
            &Config::new(2).cancel_token(&tok),
            &StreamConfig::new(128).record(8).spill_dir(&dir),
            &input,
            None,
            |ctx, _data, _out| ctx.sync(),
        )
        .unwrap_err();
        assert!(
            matches!(&err, StreamError::Bsp(BspError::Cancelled { .. })),
            "{err:?}"
        );
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_input_streams_zero_tiles() {
        let dir = tmpdir("empty");
        let input = TileStore::create_in(&dir, "in.dat").unwrap();
        let rt = Runtime::new();
        let run = run_stream(
            &rt,
            &Config::new(2),
            &StreamConfig::new(1024).record(8).spill_dir(&dir),
            &input,
            None,
            |ctx, _data, _out| {
                ctx.sync();
                0u32
            },
        )
        .unwrap();
        assert_eq!(run.stats.tiles, 0);
        assert!(run.tiles.is_empty());
        assert_eq!(run.stats.io_read_bytes, 0);
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checked_streaming_run_reports_clean() {
        let dir = tmpdir("checked");
        let bytes: Vec<u8> = (0..64u64).flat_map(|i| i.to_le_bytes()).collect();
        let input = TileStore::create_in(&dir, "in.dat").unwrap();
        input.write_all(&bytes).unwrap();
        let rt = Runtime::new();
        let run = run_stream(
            &rt,
            &Config::new(2).checked(),
            &StreamConfig::new(128).record(8).spill_dir(&dir),
            &input,
            None,
            |ctx, data, _out| {
                // A real exchange per tile so the checker has traffic to
                // audit: ship the shard sums around a ring.
                let meta = ctx.tile().unwrap();
                let shard = meta.shard(ctx.pid(), ctx.nprocs());
                let sum: u64 = data[shard]
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                    .sum();
                let next = (ctx.pid() + 1) % ctx.nprocs();
                ctx.send_bytes(next, &sum.to_le_bytes());
                ctx.sync();
                let (_, payload) = ctx.recv_bytes().expect("ring message");
                u64::from_le_bytes(payload.try_into().unwrap())
            },
        )
        .unwrap();
        assert_eq!(run.stats.tiles, 4);
        assert!(
            run.stats.check_reports.is_empty(),
            "diagnostics: {:?}",
            run.stats.check_reports
        );
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

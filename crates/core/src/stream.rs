//! Streaming supersteps: tiled out-of-core execution with double-buffered
//! prefetch on the persistent executor (DESIGN.md §14).
//!
//! The paper's efficiency argument assumes the problem fits in memory; this
//! layer removes that assumption without changing the programming model. A
//! dataset living in a spill-directory [`TileStore`] is partitioned into
//! fixed-budget tiles ([`StreamConfig::plan`]), and a streamed pass runs as
//! **one** BSP job ([`crate::exec::Runtime`]) in which each tile is a
//! hyperstep: every process runs the tiles in order, each starting in the
//! superstep after the previous tile's last `sync`, with no barrier between
//! tiles. A **reader thread** loads tile `N+1` into a buffer from a ring of
//! 2–3 while tile `N` computes; a **tile board** hands each loaded tile to
//! every process (the first process to reach a tile decides whether the
//! pass runs it, and its wait for the reader is
//! [`crate::RunStats::prefetch_wait`]), and the last process to finish a
//! tile returns its buffer to the ring. Each process writes its own output
//! back as soon as its `f` returns.
//!
//! The store is positioned-`pread`/`pwrite` backed (`FileExt`); an `mmap`
//! window would need a platform crate this workspace does not link, and the
//! OS page cache provides most of its benefit. Inside a tile,
//! [`crate::Ctx::tile`] gives the tile's [`TileMeta`], and
//! [`TileMeta::shard`] the conventional contiguous split of its records.

use crate::backend::BackendKind;
use crate::context::Ctx;
use crate::exec::Runtime;
use crate::fault::BspError;
use crate::runner::Config;
use crate::stats::RunStats;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
    /// Tile buffers in flight (reader-owned + computing). Clamped to
    /// `2..=3`: 2 is classic double buffering, 3 lets a process run a tile
    /// ahead of its slowest peer while the reader still prefetches.
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
    /// boundary through the middle of a record cannot be computed on
    /// ([`run_stream_with`] reports such a store as an error instead).
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
/// and writes, safe to share across the prefetcher's reader thread and the
/// processes writing back (`&self` everywhere; the logical length is an
/// atomic).
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
        let mut opts = OpenOptions::new();
        opts.create(true).truncate(true);
        TileStore::with(path, opts)
    }

    /// Create (or truncate) `dir/name`, creating `dir` if needed.
    pub fn create_in(dir: impl AsRef<Path>, name: &str) -> io::Result<TileStore> {
        std::fs::create_dir_all(dir.as_ref())?;
        TileStore::create(dir.as_ref().join(name))
    }

    /// Open an existing store read-write; the logical length starts at the
    /// file's current size.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<TileStore> {
        TileStore::with(path.into(), OpenOptions::new())
    }

    /// Open `path` read-write with `opts`, the logical length at the file's size.
    fn with(path: PathBuf, mut opts: OpenOptions) -> io::Result<TileStore> {
        let file = opts.read(true).write(true).open(&path)?;
        let len = AtomicU64::new(file.metadata()?.len());
        let (reads_left, writes_left) = (AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX));
        Ok(TileStore {
            file,
            path,
            len,
            reads_left,
            writes_left,
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

    /// Charge one operation against an injection budget, in one atomic
    /// step, so concurrent writers never both spend the last unit.
    /// `u64::MAX` means injection is off and the counter never moves (the
    /// steady-state cost is one load).
    fn charge(counter: &AtomicU64, what: &str) -> io::Result<()> {
        let spend = |left: u64| (left != u64::MAX && left > 0).then(|| left - 1);
        match counter.fetch_update(Ordering::AcqRel, Ordering::Acquire, spend) {
            Ok(_) | Err(u64::MAX) => Ok(()),
            Err(_) => Err(io::Error::other(format!("injected spill {what} failure"))),
        }
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
    /// The pass's BSP job failed, or a token ended it at a tile boundary.
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
    /// Per-tile, per-process results of `f`, in tile order.
    pub tiles: Vec<Vec<R>>,
    /// The pass job's statistics plus the streaming-only fields
    /// ([`RunStats::io_read_bytes`], [`RunStats::io_write_bytes`],
    /// [`RunStats::prefetch_wait`], [`RunStats::tiles`]).
    pub stats: RunStats,
    /// Wall-clock duration of the whole streaming run.
    pub wall: Duration,
}

/// The tile board of one streamed pass. No critical section under its
/// lock can panic, so a poisoned lock still guards a whole board.
struct Board<R> {
    st: Mutex<Shelf<R>>,
    /// Signalled on every change a process or the reader may wait for.
    cv: Condvar,
}

struct Shelf<R> {
    /// Empty ring buffers, and the loaded tiles `first..first + held.len()`:
    /// a tile stays until every process has finished it, so a relaunched
    /// incarnation finds it again.
    free: Vec<Arc<Vec<u8>>>,
    held: VecDeque<Arc<Vec<u8>>>,
    first: usize,
    /// Every process runs tiles `0..go`; the pass ends at `stop`.
    go: usize,
    stop: Option<usize>,
    err: Option<StreamError>,
    /// Per process, its result for each tile it finished (computed and
    /// written back), and the incarnations of the pass job it entered.
    results: Vec<Vec<R>>,
    entered: Vec<usize>,
    /// The newest incarnation in which a process failed.
    failed: usize,
    /// The streaming counters.
    stats: RunStats,
}

impl<R> Board<R> {
    fn lock(&self) -> MutexGuard<'_, Shelf<R>> {
        self.st.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// End the pass at tile `at` at the latest (no process has started a
    /// tile at or after it), keeping the first error.
    fn halt(&self, st: &mut Shelf<R>, at: usize, err: Option<StreamError>) {
        st.stop = Some(st.stop.map_or(at, |s| s.min(at)));
        st.err = st.err.take().or(err);
        self.cv.notify_all();
    }

    /// The reader thread: load the plan's tiles in order into free ring
    /// buffers until the plan ends, the pass stops before the next tile,
    /// or a read fails. Returns the bytes read.
    fn read(&self, plan: &[TileMeta], input: &TileStore) -> u64 {
        let mut read = 0;
        for meta in plan {
            let mut st = self.lock();
            let mut buf = loop {
                if st.stop.is_some_and(|s| meta.index >= s) {
                    return read;
                }
                match st.free.pop() {
                    Some(buf) => break buf,
                    None => st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
                }
            };
            drop(st);
            // Every process dropped its view before the buffer came back,
            // so this never copies.
            let bytes = Arc::make_mut(&mut buf);
            bytes.resize(meta.len, 0);
            let res = input.read_at(meta.offset, bytes);
            let mut st = self.lock();
            if let Err(e) = res {
                self.halt(&mut st, meta.index, Some(StreamError::Io(e)));
                return read;
            }
            st.held.push_back(buf);
            read += meta.len as u64;
            self.cv.notify_all();
        }
        read
    }

    /// Hand tile `*t` to a process of incarnation `inc` — moved past the
    /// tiles every process has finished, which only a relaunch meets — or
    /// `None` when the pass ends before it. The first process to reach a
    /// tile decides whether the pass runs it (the tile-boundary
    /// cancellation point), so every process leaves after the same tile.
    fn take(&self, ctx: &Ctx, tiles: usize, inc: usize, t: &mut usize) -> Option<Arc<Vec<u8>>> {
        let mut st = self.lock();
        let mut decided = None;
        loop {
            *t = (*t).max(st.first);
            if st.failed >= inc || st.stop.is_some_and(|s| *t >= s) {
                return None;
            }
            if *t == st.go {
                let fired = ctx.control_error();
                if *t == tiles || fired.is_some() {
                    let at = *t;
                    self.halt(&mut st, at, fired.map(StreamError::Bsp));
                    return None;
                }
                st.go += 1;
                decided = Some(Instant::now());
            }
            if let Some(buf) = st.held.get(*t - st.first).cloned() {
                // Only the deciding process's wait is a prefetch stall; the
                // others wait for the same load.
                st.stats.prefetch_wait += decided.map_or(Duration::ZERO, |t0| t0.elapsed());
                return Some(buf);
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Process `pid` finished its next tile, wrote it back and sent
    /// `stray`: keep its result, and return every tile all processes have
    /// finished to the ring.
    fn finish(&self, pid: usize, r: R, stray: (u64, u64), wrote: io::Result<u64>) {
        let mut st = self.lock();
        match wrote {
            Ok(n) => st.stats.io_write_bytes += n,
            Err(e) => {
                let at = st.go;
                self.halt(&mut st, at, Some(StreamError::Io(e)));
            }
        }
        st.stats.undelivered_pkts += stray.0;
        st.stats.undelivered_bytes += stray.1;
        st.results[pid].push(r);
        let done = st.results.iter().map(Vec::len).min().unwrap_or(0);
        while st.first < done {
            let buf = st.held.pop_front();
            st.free.extend(buf);
            st.first += 1;
            self.cv.notify_all();
        }
    }

    /// One process's share of the pass: every tile the board hands out,
    /// from the oldest one some process has not finished.
    fn pass<F, W>(&self, ctx: &mut Ctx, plan: &[TileMeta], serial: bool, f: &F, write: &W)
    where
        F: Fn(&mut Ctx, &[u8], &mut Vec<u8>) -> R,
        W: Fn(&TileMeta, usize, &[u8]) -> io::Result<u64>,
    {
        let pid = ctx.pid();
        let (inc, mut t) = {
            let mut st = self.lock();
            st.entered[pid] += 1;
            (st.entered[pid], st.first)
        };
        // A relaunch resumes from the board, never from a snapshot `f` saved.
        let _ = ctx.restore_checkpoint();
        let mut out = Vec::new();
        let tiles = catch_unwind(AssertUnwindSafe(|| {
            while let Some(data) = self.take(ctx, plan.len(), inc, &mut t) {
                let meta = plan[t];
                ctx.tile = Some(meta);
                out.clear();
                let r = f(ctx, &data, &mut out);
                drop(data);
                let stray = ctx.end_tile();
                // A relaunch may run a tile this process already finished.
                if self.lock().results[pid].len() == t {
                    self.finish(pid, r, stray, write(&meta, pid, &out));
                }
                if serial {
                    ctx.sync();
                }
                t += 1;
            }
        }));
        if let Err(payload) = tiles {
            // Peers waiting for a tile leave instead of waiting on buffers
            // this process will never finish.
            self.lock().failed = inc;
            self.cv.notify_all();
            resume_unwind(payload);
        }
    }
}

/// Stream `input` through one `cfg.nprocs`-process BSP job with a custom
/// write-back stage.
///
/// Every process runs `f` once per tile, in tile order, with [`Ctx::tile`]
/// set, the tile's bytes, and its own output buffer, empty on every entry.
/// Traffic staged after a tile's last `sync` never reaches the next tile:
/// it counts as undelivered ([`RunStats::undelivered_pkts`]); deliveries
/// left unread are dropped. When its `f` returns, the process calls
/// `write(meta, pid, buf)`, which returns the bytes it wrote. Cancellation,
/// deadlines and I/O errors end the pass after the same tile on every
/// process; a relaunch under a tolerant config resumes at the oldest tile
/// some process had not finished and writes no output twice. A store whose
/// length is not a multiple of the record size is `InvalidInput`.
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
    W: Fn(&TileMeta, usize, &[u8]) -> io::Result<u64> + Sync,
{
    let start = Instant::now();
    if !input.len().is_multiple_of(sc.record.max(1) as u64) {
        let msg = "store length is not a multiple of the record size";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg).into());
    }
    let plan = sc.plan(input.len());
    let p = cfg.nprocs;
    let board = Board {
        st: Mutex::new(Shelf {
            free: (0..sc.ring.clamp(2, 3)).map(|_| Arc::default()).collect(),
            held: VecDeque::new(),
            first: 0,
            go: 0,
            stop: None,
            err: None,
            results: (0..p).map(|_| Vec::new()).collect(),
            entered: vec![0; p],
            failed: 0,
            stats: RunStats::default(),
        }),
        cv: Condvar::new(),
    };
    // The sequential simulator runs one process at a time, and a process
    // waiting on the ring for peers that cannot run would wait forever;
    // there, each tile ends at a boundary.
    let serial = matches!(cfg.backend, BackendKind::SeqSim);
    let (read, job) = std::thread::scope(|s| {
        let reader = s.spawn(|| board.read(&plan, input));
        let job = rt.try_run(cfg, |ctx| board.pass(ctx, &plan, serial, &f, &write));
        board.halt(&mut board.lock(), 0, None); // the reader loads nothing more
        (reader.join(), job)
    });
    // A panic escaping the reader is a structured error, not re-thrown.
    let read = read.map_err(|payload| crate::runner::payload_to_error(0, payload))?;
    let mut stats = job?.stats;
    let shelf = board
        .st
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(err) = shelf.err {
        return Err(err);
    }
    let mut passed = shelf.stats;
    (passed.nprocs, passed.io_read_bytes) = (p, read);
    passed.tiles = shelf.first as u64;
    stats.absorb(&passed);
    // Each process's results in tile order, as each tile's in pid order.
    let mut per_proc: Vec<_> = shelf.results.into_iter().map(Vec::into_iter).collect();
    let tiles = (0..shelf.first)
        .map(|_| per_proc.iter_mut().filter_map(Iterator::next).collect())
        .collect();
    Ok(StreamRun {
        tiles,
        stats,
        wall: start.elapsed(),
    })
}

/// Stream `input` through one BSP job, writing process `pid`'s output of
/// each tile at `meta.offset + meta.shard(pid, p).start` in `output` (or
/// discarding it when `output` is `None`).
///
/// This is the common geometry: for length-preserving kernels, whose
/// processes each emit exactly their shard's bytes (e.g. a stencil sweep),
/// every tile's output lands at the offset it was read from.
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
    run_stream_with(rt, cfg, sc, input, f, |meta, pid, buf| {
        let Some(store) = output.filter(|_| !buf.is_empty()) else {
            return Ok(0);
        };
        let at = meta.offset + meta.shard(pid, cfg.nprocs).start as u64;
        store.write_at(at, buf)?;
        Ok(buf.len() as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::CheckKind;
    use crate::fault::{CheckpointPolicy, FaultTolerance};
    use crate::Packet;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

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
        let launches = || rt.arena_hits() + rt.arena_misses();
        let before = launches();
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
        // The whole pass is one job: one lease of the arena for six tiles.
        assert_eq!(launches(), before + 1, "one job per streamed pass");
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_relaunched_tile_job_writes_its_output_once() {
        // Under a tolerant config a failed pass job is relaunched. Here one
        // process panics inside `f` after the others wrote their shards;
        // the relaunch resumes at that tile and must still write each
        // tile's bytes exactly once.
        let dir = tmpdir("relaunch");
        let bytes: Vec<u8> = (0..400u64).flat_map(|i| (i * 3).to_le_bytes()).collect();
        let input = TileStore::create_in(&dir, "in.dat").unwrap();
        input.write_all(&bytes).unwrap();
        let output = TileStore::create_in(&dir, "out.dat").unwrap();
        let sc = StreamConfig::new(8 * 100).record(8).spill_dir(&dir);
        let rt = Runtime::new();
        let cfg = Config::new(3).tolerant(FaultTolerance {
            checkpoint: Some(CheckpointPolicy {
                every_supersteps: 1,
            }),
            max_rollbacks: 1,
            ..FaultTolerance::default()
        });
        let fired = AtomicBool::new(false);
        let run = run_stream(&rt, &cfg, &sc, &input, Some(&output), |ctx, data, out| {
            let meta = ctx.tile().expect("tile meta visible in job");
            out.extend_from_slice(&data[meta.shard(ctx.pid(), ctx.nprocs())]);
            if meta.index == 1 && ctx.pid() == 1 && !fired.swap(true, Ordering::Relaxed) {
                panic!("injected panic in tile 1");
            }
            ctx.sync();
        })
        .unwrap();
        assert!(fired.load(Ordering::Relaxed));
        assert_eq!(run.stats.faults.rolled_back, 1);
        assert_eq!(output.read_to_vec().unwrap(), bytes);
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
        // The second write-back fails on a process; the pass must end on
        // every process and report it, never hang on the ring.
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
        // Cancel before launch: the pass must observe the token before its
        // first tile and return `Cancelled` without running any tile.
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

    #[test]
    fn concurrent_writers_spend_an_injection_budget_exactly() {
        let dir = tmpdir("charge");
        let store = TileStore::create_in(&dir, "w.dat").unwrap();
        store.fail_writes_after(50);
        let ok = AtomicU32::new(0);
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let (store, ok) = (&store, &ok);
                s.spawn(move || {
                    for i in 0..100u64 {
                        if store.write_at((w * 100 + i) * 8, &i.to_le_bytes()).is_ok() {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(ok.load(Ordering::Relaxed), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_misaligned_store_is_an_invalid_input_error() {
        let dir = tmpdir("misaligned");
        let input = TileStore::create_in(&dir, "in.dat").unwrap();
        input.write_all(&[5u8; 8 * 10 + 3]).unwrap();
        let rt = Runtime::new();
        let err = run_stream(
            &rt,
            &Config::new(2),
            &StreamConfig::new(64).record(8).spill_dir(&dir),
            &input,
            None,
            |ctx, _data, _out| ctx.sync(),
        )
        .unwrap_err();
        assert!(
            matches!(&err, StreamError::Io(e) if e.kind() == io::ErrorKind::InvalidInput),
            "{err:?}"
        );
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_stray_send_is_reported_and_never_reaches_the_next_tile() {
        // Every tile sends one packet per process before its sync and one
        // stray after it; odd tiles also leave their delivery unread. The
        // next tile must start with an empty inbox and receive only its
        // own tile's packets, on plain and checked configs alike; checked
        // runs also report each stray.
        let dir = tmpdir("stray");
        let input = TileStore::create_in(&dir, "in.dat").unwrap();
        input.write_all(&[1u8; 8 * 40]).unwrap();
        let sc = StreamConfig::new(8 * 10).record(8).spill_dir(&dir);
        let rt = Runtime::new();
        for cfg in [Config::new(2), Config::new(2).checked()] {
            let run = run_stream(&rt, &cfg, &sc, &input, None, |ctx, _data, _out| {
                let t = ctx.tile().unwrap().index as u64;
                let peer = 1 - ctx.pid();
                let mut wrong = ctx.pkts_remaining() as u64;
                ctx.send_pkt(peer, Packet::two_u64(t, 0));
                ctx.sync();
                if t.is_multiple_of(2) {
                    while let Some(pkt) = ctx.get_pkt() {
                        wrong += u64::from(pkt.as_two_u64().0 != t);
                    }
                }
                ctx.send_pkt(peer, Packet::two_u64(t, 1)); // stray
                wrong
            })
            .unwrap();
            assert_eq!(run.stats.tiles, 4);
            assert!(
                run.tiles.iter().flatten().all(|&w| w == 0),
                "{:?}",
                run.tiles
            );
            assert_eq!(
                run.stats.undelivered_pkts, 8,
                "one stray per tile and process"
            );
            let kinds: Vec<_> = run.stats.check_reports.iter().map(|r| r.kind).collect();
            let reported = if cfg.check { 8 } else { 0 };
            assert_eq!(kinds, vec![CheckKind::UndeliveredSend; reported]);
            assert_eq!(
                run.stats.total_pkts(),
                8,
                "only the delivered packets count as sent"
            );
        }
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_token_fired_mid_pass_ends_it_after_the_same_tile_on_every_process() {
        // `f` has no sync, so only the tile boundary can see the token;
        // process 0 fires it in tile 2. Whatever the processes' lead over
        // each other, they must all leave after the same tile.
        let dir = tmpdir("midcancel");
        let input = TileStore::create_in(&dir, "in.dat").unwrap();
        input.write_all(&[4u8; 8 * 64]).unwrap();
        let rt = Runtime::new();
        let tok = crate::exec::CancelToken::new();
        let ran = [AtomicU32::new(0), AtomicU32::new(0)];
        let err = run_stream(
            &rt,
            &Config::new(2).cancel_token(&tok),
            &StreamConfig::new(8).record(8).spill_dir(&dir),
            &input,
            None,
            |ctx, _data, _out| {
                ran[ctx.pid()].fetch_add(1, Ordering::Relaxed);
                if ctx.pid() == 0 && ctx.tile().unwrap().index == 2 {
                    // Once process 1 is in the pass: a slot that starts
                    // after the cancel fails at launch instead.
                    while ran[1].load(Ordering::Relaxed) == 0 {
                        std::thread::yield_now();
                    }
                    tok.cancel();
                }
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, StreamError::Bsp(BspError::Cancelled { .. })),
            "{err:?}"
        );
        let ran = ran.map(|n| n.into_inner());
        assert_eq!(ran[0], ran[1]);
        assert!((3..64).contains(&ran[0]), "{ran:?}");
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! External (out-of-core) sample sort on the streaming executor.
//!
//! Sorts a [`TileStore`] of little-endian `u64` keys that need never fit
//! in memory, using the classic multi-pass external sample sort on top of
//! [`green_bsp::run_stream`] (DESIGN.md §14):
//!
//! 1. **Sample** — stream the input once; every process takes up to
//!    [`OVERSAMPLE`] evenly spaced raw keys from its shard of each tile.
//!    The driver sorts the pooled samples and picks `B − 1` bucket
//!    splitters, `B` sized so the *expected* bucket fits the tile budget
//!    with 2× slack.
//! 2. **Partition** — stream the input again; each tile is one superstep
//!    of the pass's BSP job that routes every key to the process owning its
//!    bucket (`bucket % p`), on either message lane. Receivers group keys
//!    by bucket and append each group to that bucket's spill file
//!    themselves; only a bucket's owner ever holds its groups, so each
//!    spill file fills in tile order.
//! 3. **Merge** — one BSP job over the buckets in splitter order: each
//!    process reads its shard of the bucket's spill file, and the job sorts
//!    the bucket in core with [`sample_sort_with`]; the last process to
//!    finish a bucket appends the `p` sorted slices to the output store in
//!    pid order. At most two buckets are in memory at a time.
//!
//! Buckets partition the key space, so concatenating the sorted buckets
//! in splitter order yields the globally sorted sequence — and because a
//! multiset of `u64` keys has exactly one sorted order, the output is
//! **bit-identical** to in-core [`sample_sort`](crate::sample_sort) over
//! the same data, whatever the tile budget or bucket boundaries did.
//!
//! Skew note: splitters come from a sample, so a bucket can exceed the
//! tile budget (pathologically: one repeated key). Pass 3 sorts each
//! bucket in core regardless — the budget shapes passes 1–2 and the
//! *expected* bucket size, it is not a hard memory cap. This is the same
//! trade the paper's sample sort makes with its `p · OVERSAMPLE` pool.

use crate::sample::{sample_sort_with, OVERSAMPLE};
use green_bsp::{
    run_stream, run_stream_with, Config, Ctx, Packet, RunStats, Runtime, StreamConfig, StreamError,
    TileStore,
};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Hard cap on the bucket count, so absurd budget/input ratios do not
/// explode into millions of spill files.
const MAX_BUCKETS: usize = 4096;

/// Outcome of an external sort.
#[derive(Debug)]
pub struct ExternalSort {
    /// Aggregate statistics over all three passes: supersteps concatenated
    /// in pass order, I/O and prefetch totals summed. `tiles` counts the
    /// streamed tiles of passes 1–2 (bucket-merge jobs are not tiles).
    pub stats: RunStats,
    /// Number of buckets the key space was split into.
    pub buckets: usize,
    /// Wall-clock duration of the whole sort.
    pub wall: Duration,
}

/// Pass 3's shared state: the oldest bucket not yet appended (where a
/// relaunch resumes), the sorted slices deposited for it by pid, and the
/// first I/O error.
#[derive(Default)]
struct Merge {
    next: usize,
    slices: Vec<Option<Vec<u8>>>,
    err: Option<io::Error>,
}

impl Merge {
    /// Deposit process `pid`'s sorted slice of bucket `b`; the `p`-th
    /// deposit takes all `p`, in pid order, to append. Deposits after an
    /// error, or of a bucket appended before a relaunch, are dropped.
    fn deposit(&mut self, b: usize, pid: usize, p: usize, slice: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        if b < self.next || self.err.is_some() {
            return None;
        }
        self.slices.resize(p, None);
        self.slices[pid] = Some(slice);
        if self.slices.iter().any(Option::is_none) {
            return None;
        }
        self.next = b + 1;
        self.slices.drain(..).collect()
    }
}

/// The pass-2 bucket spill files. They are removed when this drops, so no
/// exit from the sort — an I/O error, a failed or cancelled job — leaves
/// one behind in the spill directory.
struct Spills(Vec<TileStore>);

impl Drop for Spills {
    fn drop(&mut self) {
        for store in &self.0 {
            let _ = std::fs::remove_file(store.path());
        }
    }
}

/// The bucket a key belongs to — the in-core sample sort's convention
/// (`sample.rs`), so both sorts agree on ties.
#[inline]
fn bucket_of(splitters: &[u64], k: u64) -> usize {
    splitters.partition_point(|&s| s <= k)
}

/// External sample sort with the default byte lane. See
/// [`external_sample_sort_with`].
pub fn external_sample_sort(
    rt: &Runtime,
    cfg: &Config,
    sc: &StreamConfig,
    input: &TileStore,
    output: &TileStore,
) -> Result<ExternalSort, StreamError> {
    external_sample_sort_with(rt, cfg, sc, input, output, true)
}

/// External sample sort of `input` (little-endian `u64` keys) into
/// `output`, streaming in `sc.tile_bytes` tiles with `cfg.nprocs` BSP
/// processes per tile job; `byte_lane` selects the message lane for the
/// partition pass and the in-core bucket sorts.
///
/// `output` is truncated first. Spill files live in `sc.spill_dir` and are
/// removed before returning.
pub fn external_sample_sort_with(
    rt: &Runtime,
    cfg: &Config,
    sc: &StreamConfig,
    input: &TileStore,
    output: &TileStore,
    byte_lane: bool,
) -> Result<ExternalSort, StreamError> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let start = Instant::now();
    let p = cfg.nprocs;
    let total = input.len();
    assert_eq!(total % 8, 0, "input must hold whole u64 keys");
    output.write_all(&[])?;
    let mut agg = RunStats::default();
    agg.nprocs = p;

    // Pass 1: sample. Raw evenly spaced positions, not sorted-local
    // sampling — cheaper, and splitter quality only affects bucket
    // balance, never the sorted result.
    let sampled = run_stream(rt, cfg, sc, input, None, |ctx, data, _out| {
        let shard = &data[ctx.tile().expect("tile job").shard(ctx.pid(), ctx.nprocs())];
        let n = shard.len() / 8;
        let take = n.min(OVERSAMPLE);
        let mut samples = Vec::with_capacity(take);
        for s in 0..take {
            let at = (s * n / take.max(1)) * 8;
            samples.push(u64::from_le_bytes(shard[at..at + 8].try_into().unwrap()));
        }
        samples
    })?;
    agg.absorb(&sampled.stats);
    let mut pool: Vec<u64> = sampled.tiles.into_iter().flatten().flatten().collect();
    pool.sort_unstable();

    // B − 1 splitters for B buckets: expected bucket = half the tile
    // budget, so sampled skew still usually lands each bucket in core.
    let buckets = if total == 0 {
        1
    } else {
        (2 * total).div_ceil(sc.tile_bytes.max(8) as u64).max(1) as usize
    }
    .min(MAX_BUCKETS)
    .min(pool.len().max(1));
    let splitters: Vec<u64> = (1..buckets)
        .map(|i| pool[i * pool.len() / buckets])
        .collect();

    // Pass 2: partition to per-bucket spill files. Each process's output
    // buffer carries `[u64: bucket << 32 | count][count × u64 key]` groups,
    // and the process appends each group's keys to its bucket store.
    let run = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut spills = Spills(Vec::with_capacity(buckets));
    for b in 0..buckets {
        let name = format!("extsort-{}-{run}-b{b}.keys", std::process::id());
        spills.0.push(TileStore::create_in(&sc.spill_dir, &name)?);
    }

    let partitioned = run_stream_with(
        rt,
        cfg,
        sc,
        input,
        |ctx: &mut Ctx, data: &[u8], out: &mut Vec<u8>| {
            route_shard(ctx, data, &splitters, byte_lane, out);
            ctx.sync();
            receive_groups(ctx, out, buckets, byte_lane);
        },
        |_meta, _pid, buf| {
            let mut wrote = 0u64;
            let mut rest = buf;
            while rest.len() >= 8 {
                let hdr = u64::from_le_bytes(rest[..8].try_into().unwrap());
                let (b, count) = ((hdr >> 32) as usize, (hdr & 0xffff_ffff) as usize);
                let bytes = count * 8;
                spills.0[b].append(&rest[8..8 + bytes])?;
                wrote += bytes as u64;
                rest = &rest[8 + bytes..];
            }
            Ok(wrote)
        },
    )?;
    agg.absorb(&partitioned.stats);
    let spilled: u64 = spills.0.iter().map(|s| s.len()).sum();
    assert_eq!(
        spilled, total,
        "partition pass lost keys: {spilled} of {total} bytes spilled"
    );

    // Pass 3: one job sorts the buckets in splitter order, each process
    // reading its shard of a bucket from the spill file; the last process
    // to finish a bucket appends the `p` sorted slices in pid order. The
    // sort's supersteps do not depend on its keys, so every process runs
    // every bucket, and an I/O error only stops the appends.
    let merge = Mutex::new(Merge::default());
    let board = || merge.lock().unwrap_or_else(PoisonError::into_inner);
    let merged = rt.try_run(cfg, |ctx| {
        let (me, p) = (ctx.pid(), ctx.nprocs());
        let resume = board().next;
        for (b, store) in spills.0.iter().enumerate().skip(resume) {
            let keys = (store.len() / 8) as usize;
            if keys == 0 {
                continue;
            }
            let per = keys.div_ceil(p);
            let lo = (me * per).min(keys);
            let mut raw = vec![0u8; 8 * (((me + 1) * per).min(keys) - lo)];
            if let Err(e) = store.read_at(8 * lo as u64, &mut raw) {
                board().err.get_or_insert(e);
            }
            let shard = raw.as_chunks::<8>().0.iter();
            let sorted = sample_sort_with(
                ctx,
                shard.map(|&k| u64::from_le_bytes(k)).collect(),
                byte_lane,
            );
            let mut encoded = vec![0u8; sorted.len() * 8];
            for (slot, k) in encoded.as_chunks_mut::<8>().0.iter_mut().zip(sorted) {
                *slot = k.to_le_bytes();
            }
            let slices = board().deposit(b, me, p, encoded);
            for part in slices.into_iter().flatten() {
                if let Err(e) = output.append(&part) {
                    board().err.get_or_insert(e);
                }
            }
        }
    })?;
    let merge = merge.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = merge.err {
        return Err(e.into());
    }
    // Every spilled byte was read once and appended once.
    agg.absorb(&merged.stats);
    agg.io_read_bytes += total;
    agg.io_write_bytes += total;

    Ok(ExternalSort {
        stats: agg,
        buckets,
        wall: start.elapsed(),
    })
}

/// Serialize one `[header][keys]` group in the pass-2 spill format.
fn push_group(out: &mut Vec<u8>, b: usize, group: &[u64]) {
    out.extend_from_slice(&(((b as u64) << 32) | group.len() as u64).to_le_bytes());
    for &k in group {
        out.extend_from_slice(&k.to_le_bytes());
    }
}

/// Send every key of this process's shard to its bucket owner
/// (`bucket % p`) — grouped per bucket on the byte lane, keyed packets on
/// the packet lane. Self-owned groups go straight into `out`, never the
/// network (the in-core sort's idiom; the pairwise backends have no
/// self-loop channel).
fn route_shard(ctx: &mut Ctx, data: &[u8], splitters: &[u64], byte_lane: bool, out: &mut Vec<u8>) {
    let shard = &data[ctx.tile().expect("tile job").shard(ctx.pid(), ctx.nprocs())];
    let (me, p) = (ctx.pid(), ctx.nprocs());
    // On the packet lane only the self-owned groups ever fill.
    let mut groups: Vec<Vec<u64>> = vec![Vec::new(); splitters.len() + 1];
    for c in shard.chunks_exact(8) {
        let k = u64::from_le_bytes(c.try_into().unwrap());
        let b = bucket_of(splitters, k);
        if byte_lane || b % p == me {
            groups[b].push(k);
        } else {
            ctx.send_pkt(b % p, Packet::two_u64(k, b as u64));
        }
    }
    for (b, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        if b % p == me {
            push_group(out, b, group);
            continue;
        }
        let mut w = ctx.msg_writer(b % p);
        w.put_u64(((b as u64) << 32) | group.len() as u64);
        for &k in group {
            w.put_u64(k);
        }
    }
}

/// Drain this process's received keys into `out` as
/// `[header][keys]` groups (the pass-2 spill format).
fn receive_groups(ctx: &mut Ctx, out: &mut Vec<u8>, buckets: usize, byte_lane: bool) {
    if byte_lane {
        // Byte-lane messages already arrive grouped; copy them through.
        while let Some((_src, payload)) = ctx.recv_bytes() {
            out.extend_from_slice(payload);
        }
    } else {
        let mut groups: Vec<Vec<u64>> = vec![Vec::new(); buckets];
        while let Some(pkt) = ctx.get_pkt() {
            let (k, b) = pkt.as_two_u64();
            groups[b as usize].push(k);
        }
        for (b, group) in groups.iter().enumerate() {
            if !group.is_empty() {
                push_group(out, b, group);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_bsp::{CheckpointPolicy, FaultEvent, FaultKind, FaultPlan, FaultTolerance};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "green-bsp-extsort-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn key_bytes(keys: &[u64]) -> Vec<u8> {
        keys.iter().flat_map(|k| k.to_le_bytes()).collect()
    }

    /// The unique sorted image of the dataset — what any correct sort,
    /// in-core or external, must produce bit for bit.
    fn sorted_bytes(keys: &[u64]) -> Vec<u8> {
        let mut s = keys.to_vec();
        s.sort_unstable();
        key_bytes(&s)
    }

    fn check_external(keys: &[u64], tile_bytes: usize, byte_lane: bool, tag: &str) {
        let dir = tmpdir(tag);
        let input = TileStore::create_in(&dir, "input.keys").unwrap();
        input.write_all(&key_bytes(keys)).unwrap();
        let output = TileStore::create_in(&dir, "output.keys").unwrap();
        let rt = Runtime::new();
        let sc = StreamConfig::new(tile_bytes).record(8).spill_dir(&dir);
        let cfg = Config::new(3);
        let res = external_sample_sort_with(&rt, &cfg, &sc, &input, &output, byte_lane).unwrap();
        assert_eq!(output.read_to_vec().unwrap(), sorted_bytes(keys));
        // Both streamed passes read the whole dataset.
        assert!(res.stats.io_read_bytes >= 2 * input.len());
        assert_eq!(res.stats.tiles, 2 * sc.plan(input.len()).len() as u64);
        rt.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Run the external sort over `keys` in 64-byte tiles after `arm` has
    /// had its way with the stores; whatever the outcome, only the input
    /// and output stores may remain in the spill directory.
    fn sort_armed(
        keys: &[u64],
        cfg: &Config,
        tag: &str,
        arm: impl FnOnce(&TileStore, &TileStore),
        meanwhile: impl FnOnce(&std::path::Path) + Send,
    ) -> Result<ExternalSort, StreamError> {
        let dir = tmpdir(tag);
        let input = TileStore::create_in(&dir, "input.keys").unwrap();
        input.write_all(&key_bytes(keys)).unwrap();
        let output = TileStore::create_in(&dir, "output.keys").unwrap();
        arm(&input, &output);
        let rt = Runtime::new();
        let sc = StreamConfig::new(64).record(8).spill_dir(&dir);
        let res = std::thread::scope(|s| {
            let sort = s.spawn(|| external_sample_sort(&rt, cfg, &sc, &input, &output));
            meanwhile(&dir);
            sort.join().unwrap()
        });
        rt.shutdown();
        let mut left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, ["input.keys", "output.keys"], "{tag}: spills leaked");
        let _ = std::fs::remove_dir_all(&dir);
        res
    }

    fn spills_exist(dir: &std::path::Path) -> bool {
        std::fs::read_dir(dir).unwrap().any(|e| {
            e.unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("extsort-")
        })
    }

    #[test]
    fn failed_passes_leave_no_spill_files() {
        let keys: Vec<u64> = (0..800u64).map(|k| k.wrapping_mul(0x9E37_79B9)).collect();
        let cfg = Config::new(2);
        let tiles = 800 / 8;
        // Pass 1 reads every tile once; the next read is pass 2's first.
        let res = sort_armed(
            &keys,
            &cfg,
            "leak-read",
            |input, _| input.fail_reads_after(tiles + 3),
            |_| {},
        );
        assert!(matches!(res, Err(StreamError::Io(_))), "{res:?}");
        // Truncating the output is its first write; pass 3's appends follow.
        let res = sort_armed(
            &keys,
            &cfg,
            "leak-write",
            |_, output| output.fail_writes_after(3),
            |_| {},
        );
        assert!(matches!(res, Err(StreamError::Io(_))), "{res:?}");
        // And the clean exit removes them as before.
        assert!(sort_armed(&keys, &cfg, "leak-none", |_, _| {}, |_| {}).is_ok());
    }

    #[test]
    fn cancelled_sort_leaves_no_spill_files() {
        // 1000 tiles and 2000 buckets: once the spill files exist there are
        // ≥ 1000 tile boundaries and 2000 bucket jobs left to observe the
        // token at, so cancelling as soon as they appear always lands.
        let keys: Vec<u64> = (0..8000u64).map(|k| k.wrapping_mul(0x9E37_79B9)).collect();
        let tok = green_bsp::CancelToken::new();
        let cfg = Config::new(2).cancel_token(&tok);
        let res = sort_armed(
            &keys,
            &cfg,
            "leak-cancel",
            |_, _| {},
            |dir| {
                while !spills_exist(dir) {
                    std::thread::yield_now();
                }
                tok.cancel();
            },
        );
        assert!(
            matches!(
                res,
                Err(StreamError::Bsp(green_bsp::BspError::Cancelled { .. }))
            ),
            "{res:?}"
        );
    }

    #[test]
    fn a_panic_in_a_tolerant_sort_is_rolled_back_without_a_trace() {
        // Process 1 panics inside its fourth exchange. Pass 2 has one per
        // tile, so its job fails in tile 3; pass 3's merge job fails in
        // one of its first buckets. Each is relaunched where it stopped,
        // so every spilled group and every sorted bucket is written once.
        let keys: Vec<u64> = (0..800u64).map(|k| k.wrapping_mul(0x9E37_79B9)).collect();
        let panic = FaultEvent {
            pid: 1,
            step: 3,
            dest: 0,
            kind: FaultKind::Panic,
        };
        let cfg = Config::new(2)
            .faults(FaultPlan::new(0).with(panic))
            .tolerant(FaultTolerance {
                checkpoint: Some(CheckpointPolicy {
                    every_supersteps: 1,
                }),
                max_rollbacks: 1,
                ..FaultTolerance::default()
            });
        let dir = tmpdir("tolerant");
        let input = TileStore::create_in(&dir, "input.keys").unwrap();
        input.write_all(&key_bytes(&keys)).unwrap();
        let output = TileStore::create_in(&dir, "output.keys").unwrap();
        let rt = Runtime::new();
        let sc = StreamConfig::new(64).record(8).spill_dir(&dir);
        let res = external_sample_sort(&rt, &cfg, &sc, &input, &output)
            .expect("a rolled-back sort completes");
        assert_eq!(output.read_to_vec().unwrap(), sorted_bytes(&keys));
        assert_eq!(
            res.stats.faults.rolled_back, 2,
            "passes 2 and 3 roll back once each"
        );
        assert!(!spills_exist(&dir), "spills leaked");
        rt.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn external_sort_matches_the_unique_sorted_image() {
        let mut rng = StdRng::seed_from_u64(0x5eed_50f7);
        let keys: Vec<u64> = (0..5000).map(|_| rng.gen()).collect();
        // 8 tiles: input is 8× the tile budget.
        check_external(&keys, 5000 * 8 / 8, true, "main");
    }

    #[test]
    fn packet_lane_agrees_with_byte_lane() {
        let mut rng = StdRng::seed_from_u64(0xfeed);
        let keys: Vec<u64> = (0..2000).map(|_| rng.gen_range(0..500)).collect();
        check_external(&keys, 2000, false, "pkt");
    }

    #[test]
    fn tile_budget_smaller_than_one_bucket_still_sorts() {
        // 64-byte tiles (8 records) over 2000 keys: MAX-capped bucket count
        // forces buckets far larger than the tile budget; pass 3 must read
        // them whole.
        let mut rng = StdRng::seed_from_u64(7);
        let keys: Vec<u64> = (0..2000).map(|_| rng.gen()).collect();
        check_external(&keys, 64, true, "tiny");
    }

    #[test]
    fn empty_input_sorts_to_empty_output() {
        check_external(&[], 1 << 16, true, "empty");
    }

    #[test]
    fn duplicate_heavy_input_with_empty_buckets() {
        // Three distinct values over many buckets: most buckets are empty
        // and the repeated value overflows its bucket's expected size.
        let keys: Vec<u64> = (0..3000).map(|i| [7u64, 7, 9, 42][i % 4]).collect();
        check_external(&keys, 512, true, "dups");
    }
}

//! One-round parallel sample sort.
//!
//! Superstep structure (3 supersteps: 2 synchronizations + the final local
//! merge):
//!
//! 1. sort locally, pick `OVERSAMPLE` regular samples, all-gather them;
//! 2. every processor computes the same `p − 1` splitters from the
//!    gathered samples and routes each key to its bucket's owner (the
//!    all-to-all that dominates `H`). The local keys are sorted, so a
//!    bucket is a contiguous run of them: routing is `p − 1` binary
//!    searches and one bulk send per destination, and the run this
//!    processor keeps never leaves the key buffer;
//! 3. merge the received runs locally: every byte-lane payload is one
//!    sorted run from one source, merged into the kept run in place as it
//!    is read (`recv_bytes` lends one payload at a time); the packet lane
//!    interleaves its sources, so its arrivals are sorted once and merged
//!    the same way. No key is sorted twice.
//!
//! With regular sampling the largest bucket is at most `2·n/p + p·s` keys,
//! so the h-relation is balanced and the predicted time
//! `W + g·(n/p) + 2L` is sharp — the property §4 wants from a "simple
//! subroutine" — with `W` one local sort plus the merge.

use green_bsp::{collectives, Ctx, Packet};

/// Samples contributed per processor to the splitter pool.
pub const OVERSAMPLE: usize = 32;

/// Sort the union of all processors' keys. Returns this processor's
/// globally sorted slice (bucket `pid`: all its keys are ≥ every key on
/// lower-numbered processors and ≤ every key on higher ones).
///
/// Ships the sample pool and the bucket all-to-all on the zero-copy byte
/// lane (one bulk message per destination per superstep); see
/// [`sample_sort_with`] for the legacy one-packet-per-key discipline. Both
/// lanes produce bit-identical output.
pub fn sample_sort(ctx: &mut Ctx, keys: Vec<u64>) -> Vec<u64> {
    sample_sort_with(ctx, keys, true)
}

/// [`sample_sort`] with an explicit transport lane: `byte_lane = false`
/// routes every sample and key as its own 16-byte packet (the paper's
/// fixed-size discipline), `true` packs each destination's values into one
/// variable-length message. The superstep structure, splitters, and output
/// are identical either way — only the exchange fabric differs.
pub fn sample_sort_with(ctx: &mut Ctx, keys: Vec<u64>, byte_lane: bool) -> Vec<u64> {
    sample_sort_mode(ctx, keys, byte_lane, false)
}

/// [`sample_sort_with`] with split-phase synchronization (DESIGN.md §12):
/// `split_phase = true` opens each boundary with [`Ctx::sync_begin`], does
/// local work while the exchange is in flight, and collects with
/// [`Ctx::sync_end`]. The overlapped work is what needs no arrival: the
/// sample pool's allocation, then moving the kept run to the front of the
/// key buffer it is merged in. Output is bit-identical to the fused path
/// (a sorted multiset has one canonical order).
pub fn sample_sort_mode(
    ctx: &mut Ctx,
    mut keys: Vec<u64>,
    byte_lane: bool,
    split_phase: bool,
) -> Vec<u64> {
    let p = ctx.nprocs();
    keys.sort_unstable();
    if p == 1 {
        return keys;
    }
    ctx.charge((keys.len().max(1).ilog2() as u64) * keys.len() as u64);

    // Superstep 1: all-gather regular samples. The pool is assembled by
    // slot index, so arrival order never matters: packets carry their slot
    // explicitly, byte-lane messages derive it from the source pid and the
    // sender's in-message order.
    let me = ctx.pid();
    let samples: Vec<u64> = (0..OVERSAMPLE)
        .map(|s| {
            if keys.is_empty() {
                u64::MAX
            } else {
                keys[(s * keys.len()) / OVERSAMPLE]
            }
        })
        .collect();
    for dest in (0..p).filter(|&dest| dest != me) {
        if byte_lane {
            let mut w = ctx.msg_writer(dest);
            for &sample in &samples {
                w.put_u64(sample);
            }
        } else {
            for (s, &sample) in samples.iter().enumerate() {
                ctx.send_pkt(dest, Packet::two_u64((me * OVERSAMPLE + s) as u64, sample));
            }
        }
    }
    // (collectives are not used here because each proc sends OVERSAMPLE
    // values; the pool is assembled by slot index.)
    let mut pool = boundary(ctx, split_phase, || {
        let mut pool = vec![u64::MAX; p * OVERSAMPLE];
        pool[me * OVERSAMPLE..(me + 1) * OVERSAMPLE].copy_from_slice(&samples);
        pool
    });
    if byte_lane {
        while let Some((src, payload)) = ctx.recv_bytes() {
            for (s, chunk) in payload.chunks_exact(8).enumerate() {
                pool[src * OVERSAMPLE + s] = u64::from_le_bytes(chunk.try_into().unwrap());
            }
        }
    } else {
        while let Some(pkt) = ctx.get_pkt() {
            let (slot, v) = pkt.as_two_u64();
            pool[slot as usize] = v;
        }
    }
    pool.sort_unstable();

    // Superstep 2: route keys to their buckets (the all-to-all that
    // dominates H). Key `k` belongs to bucket `#{splitters ≤ k}`, and the
    // keys are sorted, so bucket `b` is the run `keys[cut[b]..cut[b + 1]]`.
    let mut cut = vec![0; p + 1];
    for b in 1..p {
        let splitter = pool[b * OVERSAMPLE];
        cut[b] = cut[b - 1] + keys[cut[b - 1]..].partition_point(|&k| k < splitter);
    }
    cut[p] = keys.len();
    for dest in (0..p).filter(|&dest| dest != me) {
        let run = &keys[cut[dest]..cut[dest + 1]];
        if byte_lane {
            if !run.is_empty() {
                let mut w = ctx.msg_writer(dest);
                for &k in run {
                    w.put_u64(k);
                }
            }
        } else {
            for &k in run {
                ctx.send_pkt(dest, Packet::two_u64(k, 0));
            }
        }
    }
    // Keep local keys out of the network: cut the key buffer down to the
    // kept run, which the arrivals are then merged into.
    boundary(ctx, split_phase, || {
        keys.truncate(cut[me + 1]);
        keys.drain(..cut[me]);
    });

    // Superstep 3: merge. One sorted run per byte-lane payload (a source
    // routes each bucket as one message), ascending source order.
    let mut moved = 0;
    if byte_lane {
        keys.reserve_exact(ctx.bytes_remaining() / 8);
        while let Some((_src, run)) = ctx.recv_bytes() {
            let (run, _) = run.as_chunks::<8>();
            merge_run(&mut keys, run.len(), |j| u64::from_le_bytes(run[j]));
            moved += keys.len();
        }
    } else {
        let mut recv = Vec::with_capacity(ctx.pkts_remaining());
        while let Some(pkt) = ctx.get_pkt() {
            recv.push(pkt.as_two_u64().0);
        }
        recv.sort_unstable();
        keys.reserve_exact(recv.len());
        merge_run(&mut keys, recv.len(), |j| recv[j]);
        moved = (recv.len().max(1).ilog2() as usize) * recv.len() + keys.len();
    }
    ctx.charge(moved as u64);
    keys
}

/// One superstep boundary with `local` work that needs nothing from it:
/// run while the exchange is in flight when `split_phase`, after it
/// otherwise.
fn boundary<T>(ctx: &mut Ctx, split_phase: bool, local: impl FnOnce() -> T) -> T {
    if split_phase {
        ctx.sync_begin();
        let done = local();
        ctx.sync_end();
        done
    } else {
        ctx.sync();
        local()
    }
}

/// Merge the sorted run `run(0..len)` into the sorted `acc`, in place and
/// from the back, so the one buffer is both source and destination (the
/// write position never passes the read position). The loop picks the
/// larger tail without branching on the comparison.
fn merge_run(acc: &mut Vec<u64>, len: usize, run: impl Fn(usize) -> u64) {
    let (mut i, mut j) = (acc.len(), len);
    acc.resize(i + j, 0);
    while i > 0 && j > 0 {
        let (a, b) = (acc[i - 1], run(j - 1));
        let from_acc = a > b;
        acc[i + j - 1] = if from_acc { a } else { b };
        i -= from_acc as usize;
        j -= !from_acc as usize;
    }
    // `acc[..i]` is already in place; what is left of the run goes below it.
    for (j, slot) in acc[..j].iter_mut().enumerate() {
        *slot = run(j);
    }
}

/// Verify a distributed sorted result: locally sorted, globally ordered
/// across processor boundaries, and the right total count. One superstep.
/// Returns true on every processor iff the order is valid.
pub fn verify_sorted(ctx: &mut Ctx, mine: &[u64], expected_total: u64) -> bool {
    assert!(mine.windows(2).all(|w| w[0] <= w[1]), "locally unsorted");
    // Exchange boundary keys: my min to the left-made check via allgather.
    let lo = mine.first().copied().unwrap_or(u64::MAX);
    let hi = mine.last().copied().unwrap_or(0);
    let los = collectives::allgather_u64(ctx, lo);
    let his = collectives::allgather_u64(ctx, hi);
    let count = collectives::sum_u64(ctx, mine.len() as u64);
    let mut ok = count == expected_total;
    let mut prev_hi = 0u64;
    for pid in 0..ctx.nprocs() {
        if los[pid] != u64::MAX {
            ok &= los[pid] >= prev_hi;
        }
        if his[pid] != 0 || los[pid] != u64::MAX {
            prev_hi = prev_hi.max(his[pid]);
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_bsp::{run, Config};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn keys_for(pid: usize, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed ^ (pid as u64) << 32);
        (0..n).map(|_| rng.gen()).collect()
    }

    fn check(p: usize, n_per: usize, seed: u64) {
        let out = run(&Config::new(p), |ctx| {
            let keys = keys_for(ctx.pid(), n_per, seed);
            let sorted = sample_sort(ctx, keys);
            let ok = verify_sorted(ctx, &sorted, (p * n_per) as u64);
            (sorted, ok)
        });
        // Everything verified in-program; double-check globally here.
        let mut all: Vec<u64> = Vec::new();
        for (sorted, ok) in &out.results {
            assert!(ok);
            all.extend_from_slice(sorted);
        }
        let mut expect: Vec<u64> = (0..p).flat_map(|pid| keys_for(pid, n_per, seed)).collect();
        expect.sort_unstable();
        assert_eq!(
            all, expect,
            "concatenation of buckets must be the sorted whole"
        );
    }

    #[test]
    fn merge_run_merges_in_place() {
        let cases: [(&[u64], &[u64]); 7] = [
            (&[], &[]),
            (&[1, 3, 5], &[]),
            (&[], &[2, 4]),
            (&[1, 3, 5], &[0, 0, 6]),
            (&[5, 5], &[5]),
            (&[10, 11], &[1, 2, 3]),
            (&[1, 2, 3], &[10, u64::MAX]),
        ];
        for (acc, run) in cases {
            let mut got = acc.to_vec();
            merge_run(&mut got, run.len(), |j| run[j]);
            let mut want = [acc, run].concat();
            want.sort_unstable();
            assert_eq!(got, want, "{acc:?} + {run:?}");
        }
    }

    #[test]
    fn sorts_across_processor_counts() {
        for p in [1usize, 2, 3, 4, 8] {
            check(p, 2000, 42);
        }
    }

    #[test]
    fn handles_skewed_and_duplicate_keys() {
        let p = 4;
        let out = run(&Config::new(p), |ctx| {
            // Heavily duplicated keys + one processor with none.
            let keys: Vec<u64> = if ctx.pid() == 2 {
                Vec::new()
            } else {
                (0..3000).map(|i| (i % 7) as u64 * 1000).collect()
            };
            let sorted = sample_sort(ctx, keys);
            verify_sorted(ctx, &sorted, 9000)
        });
        assert!(out.results.iter().all(|&ok| ok));
    }

    #[test]
    fn superstep_count_is_constant() {
        for p in [2usize, 4, 8] {
            let out = run(&Config::new(p), |ctx| {
                let keys = keys_for(ctx.pid(), 500, 7);
                sample_sort(ctx, keys).len()
            });
            // 2 syncs (samples, routing) + final = 3, plus verify's cost if
            // called; here: exactly 3.
            assert_eq!(out.stats.s(), 3, "p={p}");
        }
    }

    #[test]
    fn lanes_produce_identical_buckets() {
        // The byte-lane and packet-lane exchanges must agree bit for bit.
        for p in [2usize, 4, 7] {
            let bytes = run(&Config::new(p), |ctx| {
                sample_sort_with(ctx, keys_for(ctx.pid(), 1500, 99), true)
            });
            let pkts = run(&Config::new(p), |ctx| {
                sample_sort_with(ctx, keys_for(ctx.pid(), 1500, 99), false)
            });
            assert_eq!(bytes.results, pkts.results, "p={p}");
            assert!(bytes.stats.h_bytes_total() > 0, "byte lane unused");
            assert_eq!(bytes.stats.h_total(), 0, "no packets on the byte lane");
            assert_eq!(pkts.stats.h_bytes_total(), 0);
        }
    }

    #[test]
    fn split_phase_produces_identical_buckets() {
        // Split-phase boundaries overlap local sorting with the exchange
        // but never change the output: bit-identical on both lanes.
        for p in [2usize, 4, 7] {
            for byte_lane in [true, false] {
                let fused = run(&Config::new(p), move |ctx| {
                    sample_sort_mode(ctx, keys_for(ctx.pid(), 1500, 99), byte_lane, false)
                });
                let split = run(&Config::new(p), move |ctx| {
                    sample_sort_mode(ctx, keys_for(ctx.pid(), 1500, 99), byte_lane, true)
                });
                assert_eq!(fused.results, split.results, "p={p} byte_lane={byte_lane}");
                // A split boundary is still one synchronization.
                assert_eq!(fused.stats.s(), split.stats.s(), "p={p}");
            }
        }
    }

    #[test]
    fn buckets_are_balanced() {
        let p = 8;
        let n_per = 4000;
        let out = run(&Config::new(p), |ctx| {
            let keys = keys_for(ctx.pid(), n_per, 13);
            sample_sort(ctx, keys).len()
        });
        let max = *out.results.iter().max().unwrap();
        assert!(
            max < 2 * n_per + p * OVERSAMPLE,
            "regular sampling bound violated: max bucket {max}"
        );
    }

    #[test]
    fn h_relation_is_about_n_per_proc() {
        // Each processor sends at most its n keys plus samples: the
        // all-to-all h is Θ(n/p), which is what makes the predicted time
        // W + g·h + 2L sharp.
        let p = 4;
        let n_per = 3000;
        let out = run(&Config::new(p), |ctx| {
            let keys = keys_for(ctx.pid(), n_per, 23);
            sample_sort(ctx, keys).len()
        });
        let h = out.stats.h_total();
        assert!(
            h <= (n_per + p * OVERSAMPLE + 100) as u64 * 2,
            "H = {h} too large for n/p = {n_per}"
        );
    }
}

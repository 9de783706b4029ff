//! Property tests: both sorts must produce the globally sorted multiset for
//! arbitrary inputs — duplicates, skew, empty processors, any p.

use bsp_sort::{external_sample_sort_with, radix_sort, sample_sort, sample_sort_mode, OVERSAMPLE};
use green_bsp::{run, BackendKind, Config, NetSimParams, Runtime, StreamConfig, TileStore};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Every backend the external sort must agree with in-core sorting on;
/// NetSim with zeroed parameters so its modelled delays cost no wall time.
const BACKENDS: [BackendKind; 5] = [
    BackendKind::Shared,
    BackendKind::MsgPass,
    BackendKind::TcpSim,
    BackendKind::SeqSim,
    BackendKind::NetSim(NetSimParams {
        g_us: 0.0,
        l_us: 0.0,
        l_neigh_us: 0.0,
        time_scale: 0.0,
    }),
];

fn gather_sorted(
    p: usize,
    inputs: Vec<Vec<u64>>,
    which: fn(&mut green_bsp::Ctx, Vec<u64>) -> Vec<u64>,
) -> Vec<u64> {
    let out = run(&Config::new(p), |ctx| which(ctx, inputs[ctx.pid()].clone()));
    // Buckets concatenate in pid order into the global sorted sequence.
    out.results.into_iter().flatten().collect()
}

/// What each process must hold after the sample sort, computed without
/// BSP and without a merge: the algorithm's own splitters (regular samples
/// of the locally sorted inputs, `u64::MAX` for an empty process), every key
/// dealt to bucket `#{splitters ≤ key}`, every bucket sorted. A sorted
/// multiset has one image, so this is also what the re-sorting
/// implementation before the merge produced.
fn expected_buckets(inputs: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let p = inputs.len();
    let mut pool = Vec::new();
    for keys in inputs {
        let mut keys = keys.clone();
        keys.sort_unstable();
        pool.extend((0..OVERSAMPLE).map(|s| match keys.len() {
            0 => u64::MAX,
            n => keys[s * n / OVERSAMPLE],
        }));
    }
    pool.sort_unstable();
    let splitters: Vec<u64> = (1..p).map(|i| pool[i * OVERSAMPLE]).collect();
    let mut buckets = vec![Vec::new(); p];
    for &k in inputs.iter().flatten() {
        buckets[splitters.partition_point(|&s| s <= k)].push(k);
    }
    for b in &mut buckets {
        b.sort_unstable();
    }
    buckets
}

/// Byte lane, packet lane and both split-phase variants must leave exactly
/// `expected_buckets` on every process.
fn check_every_mode(name: &str, inputs: &[Vec<u64>]) {
    let p = inputs.len();
    let want = expected_buckets(inputs);
    for byte_lane in [true, false] {
        for split_phase in [false, true] {
            let got = run(&Config::new(p), |ctx| {
                sample_sort_mode(ctx, inputs[ctx.pid()].clone(), byte_lane, split_phase)
            })
            .results;
            assert_eq!(
                got, want,
                "{name}: p={p} byte_lane={byte_lane} split_phase={split_phase}"
            );
        }
    }
}

/// The run shapes the merge has to get right, at every process count: runs
/// that are missing (nothing kept, nothing received, nothing at all), runs
/// made of one repeated key, and inputs whose local order is already the
/// best or the worst case for the local sort.
#[test]
fn merge_handles_every_run_shape() {
    let mut x = 0x5eed_u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 16
    };
    for p in [1usize, 2, 3, 4, 7] {
        let n = 300;
        let random: Vec<Vec<u64>> = (0..p).map(|_| (0..n).map(|_| next()).collect()).collect();
        // Process i holds the i-th block of the global order: the splitters
        // fall on the block minima, so everyone keeps its whole input and
        // receives no run.
        let blocks: Vec<Vec<u64>> = (0..p)
            .map(|i| (0..n).map(|k| (i * n + k) as u64 * 3).collect())
            .collect();
        let cases: Vec<(&str, Vec<Vec<u64>>)> = vec![
            ("random", random.clone()),
            ("all processes empty", vec![Vec::new(); p]),
            (
                "odd processes empty",
                (0..p)
                    .map(|i| {
                        if i % 2 == 1 {
                            Vec::new()
                        } else {
                            random[i].clone()
                        }
                    })
                    .collect(),
            ),
            (
                "one process holds everything",
                (0..p)
                    .map(|i| {
                        if i == p / 2 {
                            random[i].clone()
                        } else {
                            Vec::new()
                        }
                    })
                    .collect(),
            ),
            ("all keys equal", vec![vec![42; n]; p]),
            (
                "three distinct values",
                (0..p)
                    .map(|i| (0..n).map(|k| [7u64, 9, u64::MAX][(i + k) % 3]).collect())
                    .collect(),
            ),
            ("globally sorted blocks: no run received", blocks.clone()),
            (
                "blocks dealt in reverse: no run kept",
                blocks.iter().rev().cloned().collect(),
            ),
            (
                "locally reverse-sorted",
                random
                    .iter()
                    .map(|keys| {
                        let mut keys = keys.clone();
                        keys.sort_unstable_by(|a, b| b.cmp(a));
                        keys
                    })
                    .collect(),
            ),
            (
                "locally sorted",
                random
                    .iter()
                    .map(|keys| {
                        let mut keys = keys.clone();
                        keys.sort_unstable();
                        keys
                    })
                    .collect(),
            ),
        ];
        for (name, inputs) in &cases {
            check_every_mode(name, inputs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sample_sort_sorts_anything(
        p in 1usize..6,
        mut inputs in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 0..400), 6),
    ) {
        inputs.truncate(p);
        while inputs.len() < p {
            inputs.push(Vec::new());
        }
        let mut expect: Vec<u64> = inputs.iter().flatten().copied().collect();
        expect.sort_unstable();
        let got = gather_sorted(p, inputs, sample_sort);
        prop_assert_eq!(got, expect);
    }

    /// Per-process output, not only the concatenation: every lane and sync
    /// mode leaves each process exactly its splitter bucket.
    #[test]
    fn every_mode_leaves_each_process_its_bucket(
        p in 1usize..8,
        mut inputs in prop::collection::vec(
            prop::collection::vec(0u64..50, 0..200), 8),
    ) {
        inputs.truncate(p);
        check_every_mode("arbitrary", &inputs);
    }

    #[test]
    fn radix_sort_sorts_anything(
        p in 1usize..6,
        mut inputs in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 0..400), 6),
    ) {
        inputs.truncate(p);
        while inputs.len() < p {
            inputs.push(Vec::new());
        }
        let mut expect: Vec<u64> = inputs.iter().flatten().copied().collect();
        expect.sort_unstable();
        let got = gather_sorted(p, inputs, radix_sort);
        prop_assert_eq!(got, expect);
    }

    /// The external sample sort over a spilled dataset is bit-identical to
    /// the in-core sample sort on every backend and both message lanes —
    /// including empty inputs (zero tiles), tile budgets smaller than one
    /// bucket, and budgets that leave trailing processes with empty shards.
    #[test]
    fn external_sort_matches_in_core_on_every_backend_and_lane(
        keys in prop::collection::vec(any::<u64>(), 0..400),
        budget_recs in 1usize..48,
    ) {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let p = 3;
        let dir = std::env::temp_dir().join(format!(
            "green-bsp-proptest-extsort-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();

        // The in-core reference: the same keys dealt round-robin across p
        // processes through `sample_sort`, gathered in pid order.
        let mut chunks: Vec<Vec<u64>> = vec![Vec::new(); p];
        for (i, &k) in keys.iter().enumerate() {
            chunks[i % p].push(k);
        }
        let in_core: Vec<u64> = run(&Config::new(p), |ctx| {
            sample_sort(ctx, chunks[ctx.pid()].clone())
        })
        .results
        .into_iter()
        .flatten()
        .collect();
        let want: Vec<u8> = in_core.iter().flat_map(|k| k.to_le_bytes()).collect();

        let input = TileStore::create_in(&dir, "in.keys").unwrap();
        input
            .write_all(&keys.iter().flat_map(|k| k.to_le_bytes()).collect::<Vec<u8>>())
            .unwrap();
        let sc = StreamConfig::new(budget_recs * 8).record(8).spill_dir(&dir);
        let rt = Runtime::new();
        for backend in BACKENDS {
            for byte_lane in [true, false] {
                let cfg = Config::new(p).backend(backend);
                let output = TileStore::create_in(&dir, "out.keys").unwrap();
                external_sample_sort_with(&rt, &cfg, &sc, &input, &output, byte_lane)
                    .expect("external sort failed");
                prop_assert_eq!(
                    &output.read_to_vec().unwrap(),
                    &want,
                    "backend {:?} byte_lane {}",
                    backend,
                    byte_lane
                );
            }
        }
        rt.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heavy_duplicates_are_fine(
        p in 2usize..5,
        value in any::<u64>(),
        n in 1usize..500,
    ) {
        // All processors hold n copies of the same key.
        let inputs: Vec<Vec<u64>> = (0..p).map(|_| vec![value; n]).collect();
        let got = gather_sorted(p, inputs, sample_sort);
        prop_assert_eq!(got, vec![value; p * n]);
    }
}

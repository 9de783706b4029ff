//! Stress tests for the persistent executor (DESIGN.md §11): many
//! simultaneous jobs with mixed backends and proc counts on one worker
//! pool must produce results bit-identical to serial spawn-per-run
//! executions, and concurrent checked jobs must raise zero cross-job
//! diagnostics — a leased slice never observes another job's packets.

mod common;

use common::backends;
use green_bsp::{run_unpooled, Config, Ctx, Packet, Runtime};
use proptest::prelude::*;

/// Backend `bi` of [`backends`] at `p` processes: `(name, config)`.
fn backend(bi: usize, p: usize) -> (&'static str, Config) {
    backends(p).swap_remove(bi)
}

/// Deterministic mini-app parameterized by `seed`: every proc sends a
/// seed-tagged batch to a few neighbours each superstep, drains its inbox
/// in delivery order, and folds the payloads into a digest. Any cross-job
/// packet leak corrupts the digest (wrong tags) or trips the checksum.
fn job_body(seed: u64, steps: usize) -> impl Fn(&mut Ctx) -> u64 + Send + Sync + 'static {
    move |ctx| {
        let p = ctx.nprocs();
        let me = ctx.pid();
        let mut digest = seed;
        for step in 0..steps {
            for k in 0..1 + (me + step) % 3 {
                let dest = (me + 1 + k) % p;
                let tag = seed
                    .wrapping_add((step as u64) << 32)
                    .wrapping_add((me as u64) << 16)
                    .wrapping_add(k as u64);
                ctx.send_pkt(dest, Packet::two_u64(tag, tag.wrapping_mul(0x9E37)));
            }
            ctx.sync();
            while let Some(pkt) = ctx.get_pkt() {
                let (tag, chk) = pkt.as_two_u64();
                assert_eq!(chk, tag.wrapping_mul(0x9E37), "payload corrupted");
                digest = (digest.rotate_left(21) ^ tag).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
        }
        digest
    }
}

/// Serial spawn-per-run reference for one job.
fn serial_reference(bi: usize, p: usize, seed: u64, steps: usize) -> Vec<u64> {
    run_unpooled(&backend(bi, p).1, job_body(seed, steps))
        .expect("serial reference run failed")
        .results
}

#[test]
fn ten_simultaneous_mixed_jobs_match_their_serial_runs() {
    // Two jobs per backend, proc counts 2..=4, distinct seeds: all ten are
    // submitted before any is joined, so they genuinely share the pool.
    let jobs: Vec<(usize, usize, u64)> = (0..backends(1).len())
        .flat_map(|i| {
            [
                (i, 2 + i % 3, 0x5EED_0000 + i as u64),
                (i, 4, 0xCAFE_0000 + i as u64),
            ]
        })
        .collect();
    let steps = 4;
    let refs: Vec<Vec<u64>> = jobs
        .iter()
        .map(|&(bi, p, seed)| serial_reference(bi, p, seed, steps))
        .collect();

    let rt = Runtime::new();
    let handles: Vec<_> = jobs
        .iter()
        .map(|&(bi, p, seed)| rt.submit(&backend(bi, p).1, job_body(seed, steps)))
        .collect();
    assert_eq!(handles.len(), 10);
    for (i, handle) in handles.into_iter().enumerate() {
        let (bi, p, _) = jobs[i];
        let name = backend(bi, p).0;
        let out = handle
            .join()
            .unwrap_or_else(|e| panic!("job {i} ({name}, p={p}) failed: {e}"));
        assert_eq!(
            out.results, refs[i],
            "job {i} ({name}, p={p}) diverged from its serial run"
        );
    }
    rt.shutdown();
}

#[test]
fn concurrent_checked_jobs_raise_no_cross_job_diagnostics() {
    // Eight simultaneous checked jobs on the deterministic backends: any
    // packet crossing between jobs (a stale arena slot, a mis-leased
    // slice) shows up as a phase-discipline or conservation diagnostic.
    let rt = Runtime::new();
    let handles: Vec<_> = (0..8u64)
        .map(|i| {
            let cfg = backend(i as usize % 4, 3).1.checked();
            rt.submit(&cfg, job_body(0x1000 + i, 3))
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let out = handle
            .join()
            .unwrap_or_else(|e| panic!("checked job {i} failed: {e}"));
        assert!(
            out.stats.check_reports.is_empty(),
            "checked job {i} raised cross-job diagnostics: {:?}",
            out.stats.check_reports
        );
        assert!(
            out.stats.faults.is_zero(),
            "checked job {i} shows phantom fault activity: {:?}",
            out.stats.faults
        );
    }
    rt.shutdown();
}

#[test]
fn job_spanning_the_whole_pool_queues_and_completes() {
    // p == pool size: the first job takes every worker; the second must
    // queue behind it (the scheduler only admits a job when p workers are
    // free) and still complete with correct results.
    let rt = Runtime::with_workers(4);
    let first = rt.submit(&Config::new(4), job_body(0xA, 6));
    let second = rt.submit(&Config::new(4), job_body(0xB, 6));
    let out2 = second.join().expect("queued job failed");
    let out1 = first.join().expect("pool-spanning job failed");
    assert_eq!(out1.results, serial_reference(0, 4, 0xA, 6));
    assert_eq!(out2.results, serial_reference(0, 4, 0xB, 6));
    rt.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random job mixes against a pool of random size: submissions
    /// interleave with completions, jobs whose `p` equals the entire pool
    /// ride alongside smaller ones, and anything wider than the pool
    /// forces on-demand growth — every job must match its serial run.
    #[test]
    fn random_job_mixes_match_serial(
        jobs in prop::collection::vec(
            (0..backends(1).len(), 1usize..=4, any::<u64>()),
            1..10,
        ),
        pool in 1usize..=4,
    ) {
        let rt = Runtime::with_workers(pool);
        let steps = 3;
        let refs: Vec<Vec<u64>> = jobs
            .iter()
            .map(|&(bi, p, seed)| serial_reference(bi, p, seed, steps))
            .collect();
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(bi, p, seed)| rt.submit(&backend(bi, p).1, job_body(seed, steps)))
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let out = handle.join().expect("submitted job failed");
            let (bi, p, _) = jobs[i];
            prop_assert_eq!(
                &out.results,
                &refs[i],
                "job {} ({}, p={}) diverged",
                i,
                backend(bi, p).0,
                p
            );
        }
        rt.shutdown();
    }
}

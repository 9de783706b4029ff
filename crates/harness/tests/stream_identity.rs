//! End-to-end streaming bit-identity at a configurable tile budget.
//!
//! CI's `stream` job runs this with `STREAM_TILE_BYTES=67108864` (64 MiB)
//! and `STREAM_SPILL_DIR` pointing at a job tmpdir, streaming an input
//! twice the budget through both out-of-core apps and comparing against
//! their in-core counterparts byte for byte. Without the env vars it runs
//! the same proof at a 1 MiB budget, quick enough for `cargo test`. Both
//! tests read one shared run of [`stream_identity`], the function behind
//! `report check`'s streamed rows.

use bsp_harness::oracle::stream_identity;
use green_bsp::{Config, RunStats, Runtime};
use std::path::PathBuf;
use std::sync::OnceLock;

fn tile_budget() -> usize {
    std::env::var("STREAM_TILE_BYTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1 << 20)
}

/// `(bit-identical, stats)` for external sort, then tiled ocean.
fn streamed() -> &'static [(bool, RunStats); 2] {
    static RUN: OnceLock<[(bool, RunStats); 2]> = OnceLock::new();
    RUN.get_or_init(|| {
        let base = std::env::var("STREAM_SPILL_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| std::env::temp_dir());
        let dir = base.join(format!("stream-identity-{}", std::process::id()));
        let rt = Runtime::new();
        let got = stream_identity(&rt, &Config::new(4), tile_budget(), &dir);
        rt.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        got
    })
}

#[test]
fn external_sort_is_bit_identical_at_the_configured_budget() {
    let (identical, stats) = &streamed()[0];
    let budget = tile_budget();
    assert!(
        identical,
        "external sort at a {budget}-byte tile budget is not bit-identical"
    );
    assert!(stats.tiles >= 2, "input did not exceed one tile");
}

#[test]
fn tiled_ocean_is_bit_identical_at_the_configured_budget() {
    let (identical, stats) = &streamed()[1];
    let budget = tile_budget();
    assert!(
        identical,
        "tiled ocean at a {budget}-byte tile budget is not bit-identical"
    );
    // Two sweeps, each over a grid larger than one tile.
    assert!(stats.tiles >= 4, "grid did not exceed one tile");
}

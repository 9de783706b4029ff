//! What one benchmark process accumulates: named metrics with units, and
//! the count of correctness checks attempted and failed.

use crate::host::Width;
use crate::json::Json;
use crate::quant::Summary;
use crate::scale::Scale;
use green_bsp::RunStats;
use std::path::PathBuf;

/// Everything a workload needs to know about this process's run.
pub struct Env {
    pub width: Width,
    pub seed: u64,
    pub scale: Scale,
    /// Scratch directory for spill files and stores, private to this
    /// process and removed when it exits.
    pub tmp: PathBuf,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Failure messages kept verbatim; the rest are only counted.
const MAX_NOTES: usize = 20;

#[derive(Default)]
pub struct Ledger {
    /// End-to-end metrics (meaningful from an untraced run only).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (a traced run fills all of them).
    pub layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Pass counts and similar facts for the results file.
    pub info: Vec<(String, Json)>,
}

fn put(list: &mut Vec<Metric>, name: &str, unit: &'static str, summary: Summary) {
    assert!(
        list.iter().all(|m| m.name != name),
        "metric {name} emitted twice"
    );
    list.push(Metric {
        name: name.to_string(),
        unit,
        summary,
    });
}

impl Ledger {
    pub fn e2e(&mut self, name: &str, unit: &'static str, summary: Summary) {
        put(&mut self.e2e, name, unit, summary);
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, summary: Summary) {
        put(&mut self.layer, name, unit, summary);
    }

    /// Median over per-pass samples as a layer metric; a layer nothing
    /// sampled reads 0.
    pub fn layer_of(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let s = if samples.is_empty() {
            Summary::single(0.0)
        } else {
            Summary::of(samples)
        };
        self.layer(name, unit, s);
    }

    /// Count one correctness check; a failed one is recorded and makes the
    /// process exit non-zero.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(what());
            }
        }
    }

    /// An operation that returned an error: attempted and failed.
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    /// Failed or wrong operations over attempted.
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Per-pass samples every workload reduces to the end-to-end metrics.
#[derive(Default)]
pub struct PassSamples {
    pub wall: Vec<f64>,
    pub wall_p1: Vec<f64>,
    pub pkts_per_s: Vec<f64>,
    pub bytes_per_s: Vec<f64>,
    pub jobs_per_s: Vec<f64>,
}

impl PassSamples {
    /// Emit the end-to-end metrics measured per pass. (`setup_s` and
    /// `peak_rss_mb` are per process; `main` adds them.)
    pub fn emit(&self, ledger: &mut Ledger) {
        ledger.e2e("wall_s", "s", Summary::of(&self.wall));
        ledger.e2e("wall_p1_s", "s", Summary::of(&self.wall_p1));
        ledger.e2e("pkts_per_s", "1/s", Summary::of(&self.pkts_per_s));
        ledger.e2e("bytes_per_s", "B/s", Summary::of(&self.bytes_per_s));
        ledger.e2e("jobs_per_s", "1/s", Summary::of(&self.jobs_per_s));
    }
}

/// Traffic a run delivered: 16-byte packets, and byte-lane bytes.
pub fn traffic(stats: &RunStats) -> (u64, u64) {
    (stats.total_pkts(), stats.total_bytes())
}

/// Packet equivalents: packets plus byte-lane bytes in 16-byte units, the
/// way the cost model charges the byte lane.
pub fn pkt_equivalents(pkts: u64, bytes: u64) -> u64 {
    pkts + bytes.div_ceil(16)
}

//! The repository's benchmark (see `perf/README.md`): six workloads, the
//! end-to-end metrics a user of the runtime would see, and per-module
//! attribution measured from outside through public API.

pub mod apps;
pub mod bench;
pub mod cli;
pub mod gen;
pub mod host;
pub mod json;
pub mod ledger;
pub mod probes;
pub mod quant;
pub mod report;
pub mod scale;
pub mod trace;
pub mod wl_apps;
pub mod wl_exchange;
pub mod wl_jobs;
pub mod wl_stream;

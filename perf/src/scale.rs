//! Problem sizes and pass policy. `Scale::full` is the benchmark;
//! `Scale::smoke` is the same code at sizes a debug build finishes in
//! seconds, for the package's own tests.

use std::time::Instant;

/// Every size the workloads and probes use, in one place.
#[derive(Clone, Debug)]
pub struct Scale {
    pub smoke: bool,
    // apps-coarse
    pub nbody_n: usize,
    pub graph_n: usize,
    pub msp_sources: usize,
    pub matmul_n: usize,
    // apps-fine: `fine_reps` × [ocean, sp, mst] per pass
    pub ocean_size: usize,
    pub fine_reps: usize,
    // exchange-pkt
    pub xpkt_steps: usize,
    pub xpkt_sends: usize,
    // exchange-bytes: `(count, size)` classes sent per process per superstep
    pub xbytes_steps: usize,
    pub xbytes_mix: [(usize, usize); 3],
    // jobs
    pub jobs_seq: usize,
    pub jobs_windowed: usize,
    pub jobs_small: usize,
    // stream
    pub sort_keys: usize,
    pub jacobi_n: usize,
    pub jacobi_sweeps: usize,
    // layer probes
    pub barrier_steps: usize,
    pub collective_reps: usize,
    pub io_probe_bytes: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            smoke: false,
            nbody_n: 16_000,
            graph_n: 40_000,
            msp_sources: 25,
            matmul_n: 576,
            ocean_size: 258,
            fine_reps: 4,
            xpkt_steps: 128,
            xpkt_sends: 50_000,
            xbytes_steps: 16,
            xbytes_mix: [(16_384, 64), (1_024, 1_024), (32, 65_536)],
            jobs_seq: 500,
            jobs_windowed: 4_000,
            jobs_small: 500,
            sort_keys: 1 << 21,
            jacobi_n: 768,
            jacobi_sweeps: 8,
            barrier_steps: 20_000,
            collective_reps: 2_000,
            io_probe_bytes: 32 << 20,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            smoke: true,
            nbody_n: 300,
            graph_n: 600,
            msp_sources: 3,
            matmul_n: 48,
            ocean_size: 34,
            fine_reps: 1,
            xpkt_steps: 4,
            xpkt_sends: 600,
            xbytes_steps: 2,
            xbytes_mix: [(48, 64), (6, 1_024), (2, 65_536)],
            jobs_seq: 20,
            jobs_windowed: 32,
            jobs_small: 6,
            sort_keys: 1 << 12,
            jacobi_n: 32,
            jacobi_sweeps: 2,
            barrier_steps: 200,
            collective_reps: 20,
            io_probe_bytes: 1 << 20,
        }
    }
}

/// How many passes a workload makes. The measuring phase — discarded
/// warm-up passes, then timed passes — lasts `seconds`; a timing metric is
/// the median over the timed passes.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub seconds: f64,
    /// Warm-up passes, cut short once they have used a quarter of
    /// `seconds` (passes are cut before problem sizes are).
    pub warmup: usize,
    pub min_timed: usize,
    pub max_timed: usize,
}

impl Budget {
    pub fn timed(seconds: f64) -> Budget {
        Budget {
            seconds,
            warmup: 3,
            min_timed: 5,
            max_timed: 100_000,
        }
    }

    /// A light round for workloads a traced run measures on the side.
    pub fn light(seconds: f64) -> Budget {
        Budget {
            seconds,
            warmup: 1,
            min_timed: 2,
            max_timed: 100_000,
        }
    }

    /// Exactly two passes and no warm-up (the smoke mode).
    pub fn smoke() -> Budget {
        Budget {
            seconds: 0.0,
            warmup: 0,
            min_timed: 2,
            max_timed: 2,
        }
    }

    /// Drive `pass(timed)` through warm-up and timed passes; returns the
    /// number of timed passes made.
    pub fn drive(&self, mut pass: impl FnMut(bool)) -> usize {
        let start = Instant::now();
        let spent = || start.elapsed().as_secs_f64();
        for _ in 0..self.warmup {
            pass(false);
            if spent() > 0.25 * self.seconds {
                break;
            }
        }
        let mut n = 0;
        while n < self.max_timed && (n < self.min_timed || spent() < self.seconds) {
            pass(true);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_counts_passes() {
        let (mut warm, mut timed) = (0, 0);
        let n = Budget::smoke().drive(|t| if t { timed += 1 } else { warm += 1 });
        assert_eq!((n, warm, timed), (2, 0, 2));
        let (mut warm, mut timed) = (0, 0);
        let b = Budget {
            seconds: 0.0,
            warmup: 3,
            min_timed: 4,
            max_timed: 9,
        };
        let n = b.drive(|t| if t { timed += 1 } else { warm += 1 });
        // Zero seconds: one warm-up pass, then the minimum of timed ones.
        assert_eq!((n, warm, timed), (4, 1, 4));
    }
}

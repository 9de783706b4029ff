//! Machine emulation: shared-memory execution plus injected superstep
//! delays `g·h_i + L` modelling a target platform's communication and
//! synchronization cost.
//!
//! This is the stand-in for the paper's physical testbeds (DESIGN.md §2):
//! the program's local computation, message counts, and superstep structure
//! are real; only the per-superstep communication time is replaced by the
//! BSP cost model's own term, using the `g` and `L` the paper measured for
//! the machine being emulated. The current h-relation size `h_i` is computed
//! on line with a shared fetch-max cell, so irregular programs are charged
//! their true per-superstep `h_i`, not an average.

use super::super::barrier::Barrier;
use super::super::context::ProcTransport;
use super::super::packet::{Packet, PACKET_SIZE};
use super::shared::{SharedProc, SharedState};
use super::NetSimParams;
use crate::relax::SyncMode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) struct NetSimState {
    /// Per-parity fetch-max cells holding the superstep's largest
    /// max(sent, recv) over all processes.
    slots: [AtomicU64; 2],
    /// Second barrier separating the h read from the cell reset.
    barrier2: Box<dyn Barrier>,
}

impl NetSimState {
    pub(crate) fn new(barrier2: Box<dyn Barrier>) -> Arc<Self> {
        Arc::new(NetSimState {
            slots: [AtomicU64::new(0), AtomicU64::new(0)],
            barrier2,
        })
    }
}

/// Per-process endpoint: a [`SharedProc`] plus delay injection.
pub(crate) struct NetSimProc {
    inner: SharedProc,
    st: Arc<NetSimState>,
    params: NetSimParams,
    sent_this_step: u64,
    /// Latency charged at a neighborhood boundary: `params.l_neigh_us` if
    /// set, else `l_us · (1 + max_degree) / p` — the fraction of the full
    /// barrier's fan-in a pairwise rendezvous actually pays for.
    l_neigh_us: f64,
}

impl NetSimProc {
    pub(crate) fn new(
        shared: Arc<SharedState>,
        st: Arc<NetSimState>,
        pid: usize,
        params: NetSimParams,
    ) -> Self {
        let l_neigh_us = if params.l_neigh_us > 0.0 {
            params.l_neigh_us
        } else {
            let p = shared.nprocs().max(1);
            let deg = shared
                .relax
                .as_ref()
                .map(|rx| rx.graph.max_degree())
                .unwrap_or(0);
            params.l_us * (1.0 + deg as f64) / p as f64
        };
        NetSimProc {
            inner: SharedProc::new(shared, pid),
            st,
            params,
            sent_this_step: 0,
            l_neigh_us,
        }
    }
}

/// Sleep for `us` microseconds with sub-millisecond fidelity: OS sleep for
/// the bulk, then a short spin for the remainder.
fn precise_delay(us: f64) {
    if us <= 0.0 {
        return;
    }
    let target = Duration::from_secs_f64(us * 1e-6);
    let start = Instant::now();
    if target > Duration::from_millis(2) {
        std::thread::sleep(target - Duration::from_millis(1));
    }
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

impl ProcTransport for NetSimProc {
    fn send_batch(&mut self, dest: usize, pkts: &[Packet]) {
        self.sent_this_step += pkts.len() as u64;
        self.inner.send_batch(dest, pkts);
    }

    fn send_bytes(&mut self, dest: usize, buf: &mut Vec<u8>) {
        // Charge the byte lane in packet-equivalents so the emulated g·h
        // delay reflects the true wire volume. ceil(len/16) slightly
        // over-charges short records — a documented approximation (DESIGN §9).
        self.sent_this_step += buf.len().div_ceil(PACKET_SIZE) as u64;
        self.inner.send_bytes(dest, buf);
    }

    fn exchange_begin(&mut self, step: usize, mode: SyncMode) {
        // Contribute the send count now: the h cell must be fed before this
        // process's rendezvous arrival, and no sends are legal between
        // `sync_begin` and `sync_end`. (`exchange` re-contributes a
        // harmless zero via fetch_max.)
        let par = step & 1;
        self.st.slots[par].fetch_max(self.sent_this_step, Ordering::AcqRel);
        self.sent_this_step = 0;
        self.inner.exchange_begin(step, mode);
    }

    fn exchange(
        &mut self,
        step: usize,
        mode: SyncMode,
        inbox: &mut Vec<Packet>,
        byte_inbox: &mut [Vec<u8>],
    ) {
        let par = step & 1;
        let pid = self.inner.pid;
        // Record how much this process received: the packet inbox grows
        // across the inner exchange, the byte segments are replaced by it.
        let before = inbox.len();
        // Contribute our send count before the inner barrier...
        self.st.slots[par].fetch_max(self.sent_this_step, Ordering::AcqRel);
        self.sent_this_step = 0;
        self.inner.exchange(step, mode, inbox, byte_inbox);
        // ...and our receive count before the second barrier. (recv counts
        // are only known after delivery, so h is finalized here.) Byte-lane
        // receives are charged in packet-equivalents, like sends.
        let byte_recvd: usize = byte_inbox.iter().map(Vec::len).sum();
        let recvd = (inbox.len() - before) as u64 + byte_recvd.div_ceil(PACKET_SIZE) as u64;
        self.st.slots[par].fetch_max(recvd, Ordering::AcqRel);
        self.st.barrier2.wait(pid);
        if self.st.barrier2.is_poisoned() {
            std::panic::panic_any(crate::fault::BspError::PeerFailed {
                pid,
                step,
                detail: "a peer process panicked before the h-relation barrier".to_string(),
            });
        }
        let h = self.st.slots[par].load(Ordering::Acquire);
        self.st.barrier2.wait(pid);
        if pid == 0 {
            self.st.slots[par].store(0, Ordering::Release);
        }
        // A neighborhood boundary pays the (smaller) pairwise-rendezvous
        // latency; the h term is unchanged — relaxed synchronization spares
        // the barrier, not the traffic.
        let l_us = match mode {
            SyncMode::Full => self.params.l_us,
            SyncMode::Neighborhood => self.l_neigh_us,
        };
        let delay_us = self.params.time_scale * (self.params.g_us * h as f64 + l_us);
        precise_delay(delay_us);
    }

    fn finish(&mut self) {}

    fn counters(&self) -> crate::stats::TransportCounters {
        self.inner.counters()
    }

    fn poison(&mut self) {
        self.inner.poison();
        self.st.barrier2.poison();
    }

    fn reset(&mut self) -> bool {
        if self.st.barrier2.is_poisoned() || !self.inner.reset() {
            return false;
        }
        self.sent_this_step = 0;
        // A clean run leaves both parity cells at zero (pid 0 clears each
        // after its second barrier); clear defensively anyway — no job is
        // running on this state during an arena reset.
        if self.inner.pid == 0 {
            self.st.slots[0].store(0, Ordering::Relaxed);
            self.st.slots[1].store(0, Ordering::Relaxed);
        }
        true
    }
}

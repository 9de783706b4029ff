//! `report resilience` — adversarial sweep over the resilient job kernel
//! (DESIGN.md §15).
//!
//! Five scenarios, each of which must end in a structured error or a healed
//! retry — never a hang (every join is bounded; the CI job adds a hard
//! process timeout on top):
//!
//! 1. **worker-abort**: an injected thread-abort kills a pool worker
//!    mid-job; the job fails structurally, the slot is quarantined, a
//!    replacement spawns, and the next job on the healed pool is
//!    bit-identical to a serial reference. Reports the recovery latency.
//! 2. **hang-with-deadline**: a job that supersteps forever is submitted
//!    with a deadline on both lanes; it must resolve `DeadlineExceeded`.
//! 3. **cancel-storm**: a batch of forever-jobs is cancelled at once; every
//!    handle must resolve `Cancelled` promptly.
//! 4. **queue-overload**: admission beyond the watermark refuses with
//!    `QueueFull` while admitted jobs complete; a second phase measures the
//!    queue-wait distribution through a saturated single-worker pool.
//! 5. **retry-heal**: a transient injected panic is healed by the per-job
//!    retry policy on attempt 2.
//!
//! Whether the resilience machinery taxes the plain lease/run/release path
//! is not judged here: launch latency is gated by `perf compare` on the
//! `jobs` workload (`exec.launch_p50_us`, `runner.setup_us`).
//!
//! `report resilience` writes the whole document to `BENCH_resilience.json`
//! and exits non-zero if any scenario fails.

use green_bsp::{
    run_unpooled, BspError, Config, Ctx, FaultEvent, FaultKind, FaultPlan, Packet, RetryPolicy,
    Runtime, SubmitOpts,
};
use std::time::{Duration, Instant};

/// Bound on every scenario join: far above any healthy resolution, far
/// below CI's hard timeout.
const JOIN_BOUND: Duration = Duration::from_secs(30);

/// One sweep scenario's verdict.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario label (`"worker_abort"`, `"hang_with_deadline"`, ...).
    pub name: &'static str,
    /// Did every assertion in the scenario hold?
    pub pass: bool,
    /// Wall-clock seconds the scenario took.
    pub secs: f64,
    /// Human-readable outcome line (also printed to stderr).
    pub detail: String,
}

/// Queue-wait distribution over the saturation phase, microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct WaitDist {
    pub min_us: f64,
    pub mean_us: f64,
    pub p95_us: f64,
    pub max_us: f64,
}

/// Aggregate result of the resilience sweep.
#[derive(Clone, Debug)]
pub struct ResilienceBench {
    /// Per-scenario verdicts, in sweep order.
    pub scenarios: Vec<Scenario>,
    /// Time from the worker-abort failure to a fully healed pool.
    pub recovery_latency_ms: f64,
    /// Respawns observed by the worker-abort scenario.
    pub respawns: u64,
    /// Attempts the retry-heal job needed (2 = healed on first retry).
    pub retry_attempts: u64,
    /// Jobs in the cancel storm.
    pub storm_jobs: usize,
    /// Slowest handle resolution in the cancel storm.
    pub storm_max_resolve_ms: f64,
    /// `QueueFull` refusals observed at the watermark.
    pub queue_full_rejections: usize,
    /// Queue-wait distribution through the saturated pool.
    pub queue_wait: WaitDist,
    /// All scenarios passed.
    pub all_pass: bool,
}

/// Forever-job bounded by a wall-clock escape hatch: if the control plane
/// is broken the job still ends (failing its scenario's assertion) instead
/// of wedging the sweep.
fn spin(bytes: bool) -> impl Fn(&mut Ctx) -> u32 + Send + Sync + Clone + 'static {
    move |ctx: &mut Ctx| {
        let start = Instant::now();
        let next = (ctx.pid() + 1) % ctx.nprocs();
        while start.elapsed() < Duration::from_secs(60) {
            if bytes {
                ctx.send_bytes(next, &[0x5A; 16]);
            } else {
                ctx.send_pkt(next, Packet::two_u64(1, 1));
            }
            ctx.sync();
            while ctx.get_pkt().is_some() {}
            while ctx.recv_bytes().is_some() {}
            std::thread::sleep(Duration::from_micros(200));
        }
        0
    }
}

/// Deterministic reference job: total exchange, sorted sources back.
fn exchange(ctx: &mut Ctx) -> Vec<u64> {
    let me = ctx.pid() as u64;
    for dest in 0..ctx.nprocs() {
        for i in 0..32u64 {
            ctx.send_pkt(dest, Packet::two_u64(me * 100 + i, 0));
        }
    }
    ctx.sync();
    let mut seen: Vec<u64> = Vec::new();
    while let Some(p) = ctx.get_pkt() {
        seen.push(p.as_two_u64().0);
    }
    seen.sort_unstable();
    seen
}

fn scenario(name: &'static str, f: impl FnOnce() -> (bool, String)) -> Scenario {
    let start = Instant::now();
    let (pass, detail) = f();
    let secs = start.elapsed().as_secs_f64();
    eprintln!(
        "  {} {name}: {detail} ({secs:.2}s)",
        if pass { "PASS" } else { "FAIL" }
    );
    Scenario {
        name,
        pass,
        secs,
        detail,
    }
}

/// Scenario 1: worker-abort → quarantine → respawn → healed, bit-identical.
fn worker_abort() -> (bool, String, f64, u64) {
    let rt = Runtime::new();
    if rt
        .try_run(&Config::new(2), |ctx| {
            ctx.sync();
            ctx.pid() as u64
        })
        .is_err()
    {
        rt.shutdown();
        return (false, "warm-up run failed".into(), 0.0, 0);
    }
    let plan = FaultPlan::new(3).with(FaultEvent {
        pid: 1,
        step: 0,
        dest: 0,
        kind: FaultKind::WorkerAbort,
    });
    let failed_at = Instant::now();
    let res = rt.try_run(&Config::new(2).faults(plan), |ctx| {
        ctx.sync();
        0u64
    });
    if !matches!(res, Err(BspError::ProcPanicked { .. })) {
        rt.shutdown();
        return (false, format!("expected ProcPanicked, got {res:?}"), 0.0, 0);
    }
    // Poll until the pool reports a respawned replacement.
    let deadline = Instant::now() + JOIN_BOUND;
    let healed = loop {
        let h = rt.pool_health();
        if h.respawns >= 1 && h.live_workers == 2 {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let latency_ms = failed_at.elapsed().as_secs_f64() * 1e3;
    let health = rt.pool_health();
    if !healed {
        rt.shutdown();
        return (
            false,
            format!("pool never healed: {health:?}"),
            latency_ms,
            0,
        );
    }
    let reference = run_unpooled(&Config::new(2), exchange)
        .expect("serial reference")
        .results;
    let again = rt.try_run(&Config::new(2), exchange);
    rt.shutdown();
    match again {
        Ok(out) if out.results == reference => (
            true,
            format!(
                "healed in {latency_ms:.1} ms (quarantined {}, respawns {}), post-heal run bit-identical",
                health.quarantined, health.respawns
            ),
            latency_ms,
            health.respawns,
        ),
        Ok(_) => (
            false,
            "post-heal run diverged from serial reference".into(),
            latency_ms,
            health.respawns,
        ),
        Err(e) => (
            false,
            format!("post-heal run failed: {e:?}"),
            latency_ms,
            health.respawns,
        ),
    }
}

/// Scenario 2: a hanging job with a deadline must resolve, both lanes.
fn hang_with_deadline() -> (bool, String) {
    let rt = Runtime::new();
    for bytes in [false, true] {
        let opts = SubmitOpts {
            deadline: Some(Duration::from_millis(25)),
            ..SubmitOpts::default()
        };
        let h = rt.submit_with(&Config::new(2), opts, spin(bytes));
        match h.join_timeout(JOIN_BOUND) {
            Some(Err(BspError::DeadlineExceeded { .. })) => {}
            Some(other) => {
                rt.shutdown();
                return (
                    false,
                    format!("bytes={bytes}: expected DeadlineExceeded, got {other:?}"),
                );
            }
            None => {
                rt.shutdown();
                return (false, format!("bytes={bytes}: overdue job hung"));
            }
        }
    }
    rt.shutdown();
    (true, "both lanes resolved DeadlineExceeded".into())
}

/// Scenario 3: cancel a storm of forever-jobs; every handle resolves.
fn cancel_storm(jobs: usize) -> (bool, String, f64) {
    let rt = Runtime::new();
    let handles: Vec<_> = (0..jobs)
        .map(|i| rt.submit(&Config::new(2), spin(i % 2 == 1)))
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    for h in &handles {
        h.cancel();
    }
    let mut max_resolve_ms = 0.0f64;
    for (i, h) in handles.into_iter().enumerate() {
        let t = Instant::now();
        match h.join_timeout(JOIN_BOUND) {
            Some(Err(BspError::Cancelled { .. })) => {
                max_resolve_ms = max_resolve_ms.max(t.elapsed().as_secs_f64() * 1e3);
            }
            Some(other) => {
                rt.shutdown();
                return (
                    false,
                    format!("job {i}: expected Cancelled, got {other:?}"),
                    0.0,
                );
            }
            None => {
                rt.shutdown();
                return (false, format!("job {i} hung after cancel"), 0.0);
            }
        }
    }
    rt.shutdown();
    (
        true,
        format!("{jobs} jobs cancelled, slowest resolve {max_resolve_ms:.1} ms"),
        max_resolve_ms,
    )
}

/// Scenario 4: watermark refusals plus the queue-wait distribution through
/// a saturated single-worker pool.
fn queue_overload(waiters: usize) -> (bool, String, usize, WaitDist) {
    let rt = Runtime::new();
    rt.set_queue_limit(2);
    let blocker = |ctx: &mut Ctx| {
        std::thread::sleep(Duration::from_millis(40));
        ctx.sync();
    };
    let a = rt.submit(&Config::new(1), blocker);
    let b = rt.submit(&Config::new(1), blocker);
    let mut rejections = 0;
    for _ in 0..4 {
        if rt
            .try_submit(&Config::new(1), SubmitOpts::default(), blocker)
            .is_err()
        {
            rejections += 1;
        }
    }
    let drained = a.join_timeout(JOIN_BOUND).is_some() && b.join_timeout(JOIN_BOUND).is_some();
    if !drained || rejections == 0 {
        rt.shutdown();
        return (
            false,
            format!("drained={drained}, rejections={rejections}"),
            rejections,
            WaitDist::default(),
        );
    }

    // Saturation phase: a wide-open queue, one worker, measurable waits.
    rt.set_queue_limit(waiters + 4);
    let handles: Vec<_> = (0..waiters)
        .map(|_| {
            rt.submit(&Config::new(1), |ctx: &mut Ctx| {
                std::thread::sleep(Duration::from_millis(5));
                ctx.sync();
            })
        })
        .collect();
    let mut waits_us: Vec<f64> = Vec::with_capacity(waiters);
    for (i, h) in handles.into_iter().enumerate() {
        match h.join_timeout(JOIN_BOUND) {
            Some(Ok(out)) => waits_us.push(out.stats.queue_wait.as_secs_f64() * 1e6),
            Some(Err(e)) => {
                rt.shutdown();
                return (
                    false,
                    format!("saturation job {i} failed: {e:?}"),
                    rejections,
                    WaitDist::default(),
                );
            }
            None => {
                rt.shutdown();
                return (
                    false,
                    format!("saturation job {i} hung"),
                    rejections,
                    WaitDist::default(),
                );
            }
        }
    }
    rt.shutdown();
    waits_us.sort_by(|x, y| x.total_cmp(y));
    let dist = WaitDist {
        min_us: waits_us.first().copied().unwrap_or(0.0),
        mean_us: waits_us.iter().sum::<f64>() / waits_us.len().max(1) as f64,
        p95_us: waits_us[(waits_us.len() * 95 / 100).min(waits_us.len() - 1)],
        max_us: waits_us.last().copied().unwrap_or(0.0),
    };
    (
        true,
        format!(
            "{rejections} QueueFull refusals; wait mean {:.0} us, p95 {:.0} us over {waiters} jobs",
            dist.mean_us, dist.p95_us
        ),
        rejections,
        dist,
    )
}

/// Scenario 5: transient injected panic healed by the retry policy.
fn retry_heal() -> (bool, String, u64) {
    let rt = Runtime::new();
    let plan = FaultPlan::new(5).with(FaultEvent {
        pid: 0,
        step: 0,
        dest: 0,
        kind: FaultKind::Panic,
    });
    let opts = SubmitOpts {
        retry: Some(RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            resume_from_checkpoint: false,
        }),
        ..SubmitOpts::default()
    };
    let h = rt.submit_with(&Config::new(2).faults(plan), opts, exchange);
    let res = h.join_timeout(JOIN_BOUND);
    rt.shutdown();
    match res {
        Some(Ok(out)) => {
            let reference = run_unpooled(&Config::new(2), exchange)
                .expect("serial reference")
                .results;
            let attempts = out.stats.attempts;
            if out.results != reference {
                (
                    false,
                    "healed result diverged from reference".into(),
                    attempts,
                )
            } else if attempts != 2 {
                (
                    false,
                    format!("expected 2 attempts, saw {attempts}"),
                    attempts,
                )
            } else {
                (true, "transient panic healed on attempt 2".into(), attempts)
            }
        }
        Some(Err(e)) => (false, format!("retry did not heal: {e:?}"), 0),
        None => (false, "retried job hung".into(), 0),
    }
}

/// Run the full sweep. `full` scales the storm width and the saturation
/// depth.
pub fn sweep_resilience(full: bool) -> ResilienceBench {
    let (storm, waiters) = if full { (24, 64) } else { (12, 24) };

    let mut recovery_latency_ms = 0.0;
    let mut respawns = 0;
    let s1 = scenario("worker_abort", || {
        let (pass, detail, lat, spawns) = worker_abort();
        recovery_latency_ms = lat;
        respawns = spawns;
        (pass, detail)
    });
    let s2 = scenario("hang_with_deadline", hang_with_deadline);
    let mut storm_max_resolve_ms = 0.0;
    let s3 = scenario("cancel_storm", || {
        let (pass, detail, max_ms) = cancel_storm(storm);
        storm_max_resolve_ms = max_ms;
        (pass, detail)
    });
    let mut queue_full_rejections = 0;
    let mut queue_wait = WaitDist::default();
    let s4 = scenario("queue_overload", || {
        let (pass, detail, rej, dist) = queue_overload(waiters);
        queue_full_rejections = rej;
        queue_wait = dist;
        (pass, detail)
    });
    let mut retry_attempts = 0;
    let s5 = scenario("retry_heal", || {
        let (pass, detail, attempts) = retry_heal();
        retry_attempts = attempts;
        (pass, detail)
    });

    let scenarios = vec![s1, s2, s3, s4, s5];
    let all_pass = scenarios.iter().all(|s| s.pass);
    ResilienceBench {
        scenarios,
        recovery_latency_ms,
        respawns,
        retry_attempts,
        storm_jobs: storm,
        storm_max_resolve_ms,
        queue_full_rejections,
        queue_wait,
        all_pass,
    }
}

/// Serialize the sweep as the `BENCH_resilience.json` document.
pub fn to_json(b: &ResilienceBench) -> String {
    let mut s = String::from("{\n  \"bench\": \"resilience\",\n");
    s.push_str("  \"scenarios\": [\n");
    for (i, sc) in b.scenarios.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"pass\": {}, \"secs\": {:.3}, \"detail\": \"{}\"}}{}\n",
            sc.name,
            sc.pass,
            sc.secs,
            sc.detail.replace('"', "'"),
            if i + 1 < b.scenarios.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"recovery_latency_ms\": {:.2},\n  \"respawns\": {},\n  \"retry_attempts\": {},\n",
        b.recovery_latency_ms, b.respawns, b.retry_attempts
    ));
    s.push_str(&format!(
        "  \"cancel_storm\": {{\"jobs\": {}, \"max_resolve_ms\": {:.2}}},\n",
        b.storm_jobs, b.storm_max_resolve_ms
    ));
    s.push_str(&format!(
        "  \"queue\": {{\"full_rejections\": {}, \"wait_us\": {{\"min\": {:.1}, \"mean\": {:.1}, \
         \"p95\": {:.1}, \"max\": {:.1}}}}},\n",
        b.queue_full_rejections,
        b.queue_wait.min_us,
        b.queue_wait.mean_us,
        b.queue_wait.p95_us,
        b.queue_wait.max_us
    ));
    s.push_str(&format!("  \"all_pass\": {}\n}}\n", b.all_pass));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_passes_and_serializes() {
        let b = sweep_resilience(false);
        assert!(b.all_pass, "{:#?}", b.scenarios);
        assert_eq!(b.scenarios.len(), 5);
        assert!(b.respawns >= 1);
        assert_eq!(b.retry_attempts, 2);
        assert!(b.queue_full_rejections >= 1);
        let j = to_json(&b);
        assert!(j.starts_with('{') && j.ends_with("}\n"));
        assert!(j.contains("\"recovery_latency_ms\""));
        assert!(j.contains("\"all_pass\": true"));
    }
}

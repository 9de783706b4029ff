//! What the core corpora share: one list of library implementations and
//! wrapper stacks, and one check that a program runs on each of them
//! exactly as on the sequential simulator.
// Each test binary uses only part of this module.
#![allow(dead_code)]

use green_bsp::{run, BackendKind, Config, Ctx, NetSimParams, RunOutput};
use std::fmt::Debug;

/// The five library implementations at `p` processes.
pub fn backends(p: usize) -> Vec<(&'static str, Config)> {
    vec![
        ("shared", Config::new(p)),
        ("msgpass", Config::new(p).backend(BackendKind::MsgPass)),
        ("tcpsim", Config::new(p).backend(BackendKind::TcpSim)),
        ("seqsim", Config::new(p).backend(BackendKind::SeqSim)),
        (
            "netsim",
            Config::new(p).backend(BackendKind::NetSim(NetSimParams {
                g_us: 0.001,
                l_us: 0.5,
                l_neigh_us: 0.0,
                time_scale: 1.0,
            })),
        ),
    ]
}

/// The five backends, then the wrapped stacks: the checker, hardening on
/// the shared and channel transports, and both at once.
pub fn stacks(p: usize) -> Vec<(&'static str, Config)> {
    let mut stacks = backends(p);
    stacks.extend([
        ("shared+checked", Config::new(p).checked()),
        ("shared+hardened", Config::new(p).hardened()),
        (
            "tcpsim+hardened",
            Config::new(p).backend(BackendKind::TcpSim).hardened(),
        ),
        (
            "msgpass+hardened+checked",
            Config::new(p)
                .backend(BackendKind::MsgPass)
                .hardened()
                .checked(),
        ),
    ]);
    stacks
}

/// Run `program` on the sequential simulator and on every one of
/// [`stacks`]`(p)`, each configuration passed through `tweak` first, and
/// assert that every stack returns the simulator's results and packet,
/// byte and h-relation totals, with no checker report and no fault
/// activity. Returns the simulator's run.
pub fn matches_seqsim<R, F>(p: usize, tweak: impl Fn(Config) -> Config, program: F) -> RunOutput<R>
where
    R: Send + PartialEq + Debug,
    F: Fn(&mut Ctx) -> R + Sync,
{
    let counts = |out: &RunOutput<R>| {
        let s = &out.stats;
        (
            s.total_pkts(),
            s.total_bytes(),
            s.h_total(),
            s.h_bytes_total(),
        )
    };
    let want = run(
        &tweak(Config::new(p).backend(BackendKind::SeqSim)),
        &program,
    );
    for (name, cfg) in stacks(p) {
        let got = run(&tweak(cfg), &program);
        let s = &got.stats;
        assert_eq!(got.results, want.results, "{name} p={p}: results");
        assert_eq!(counts(&got), counts(&want), "{name} p={p}: counts");
        assert!(
            s.check_reports.is_empty(),
            "{name} p={p}: {:?}",
            s.check_reports
        );
        assert!(s.faults.is_zero(), "{name} p={p}: {:?}", s.faults);
    }
    want
}

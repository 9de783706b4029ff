//! `report check` and `report faults`: one identity matrix over the paper's
//! applications and the variants beside them (DESIGN.md §8, §10).
//!
//! The claim under test is the paper's portability claim — one BSP program
//! gives the same answer on every library implementation — extended to every
//! wrapper stack the runtime offers. A row is (program, backend, stack,
//! expectation). An [`Expect::Identical`] row passes only when every
//! process's digest equals the digest of the program's canonical form
//! ([`Variant::canonical`]) on the sequential simulator at the same `p`,
//! the run filed no checker diagnostic, and its fault counters show exactly
//! what the stack did: nothing, a healed fault, or a rollback. The reference
//! is computed once per program and cached for the sweep. An
//! [`Expect::Fails`] row passes only on its exact structured error. The
//! streamed rows compare the out-of-core result with the in-core one
//! instead ([`stream_identity`]).
//!
//! `report check` runs the families that add the checker or change a
//! transport choice, `report faults` the ones that harden or inject. Adding
//! or deleting a mode adds or deletes rows in [`Family::rows`].

use crate::apps::{prepare, App, Program, Variant};
use crate::ALL_BACKENDS;
use bsp_ocean::tiled::{initial_grid, jacobi_in_core, tiled_jacobi};
use bsp_sort::external_sample_sort;
use green_bsp::{
    global, try_run, BackendKind, BspError, CheckpointPolicy, Config, FaultEvent, FaultKind,
    FaultPlan, FaultTolerance, JobHandle, RunOutput, RunStats, Runtime, StreamConfig, TileStore,
    TransportErrorKind,
};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::time::Duration;

/// Submitted rows kept in flight at once (DESIGN.md §11): enough to overlap
/// one job's merge/teardown with the next ones' compute, small enough that
/// `WINDOW × p` runnable threads do not thrash the host.
const WINDOW: usize = 4;

/// Straggler detection threshold: well above a healthy data round at the
/// sweep sizes, well below the injected 80 ms straggler sleep.
const STRAGGLER_DEADLINE: Duration = Duration::from_millis(30);

/// Tile budget of the streamed rows: each input is twice this.
const STREAM_BUDGET: usize = 16 << 10;

/// The streamed applications, in [`stream_identity`]'s order.
const STREAMED: [&str; 2] = ["extsort", "tiled-ocean"];

/// What a row runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Subject {
    App(App),
    Variant(Variant),
    /// One of the [`STREAMED`] applications.
    Streamed(&'static str),
}

impl Subject {
    fn name(self) -> String {
        match self {
            Subject::App(app) => app.name().to_string(),
            Subject::Variant(v) => v.name(),
            Subject::Streamed(name) => name.to_string(),
        }
    }

    /// The program whose seqsim digest this one must reproduce.
    fn canonical(self) -> Subject {
        match self {
            Subject::Variant(v) => Subject::Variant(v.canonical()),
            other => other,
        }
    }

    fn config(self, p: usize) -> Config {
        match self {
            Subject::Variant(v) => v.config(p),
            _ => Config::new(p),
        }
    }
}

/// What a row wraps its backend in. Every injected event is at superstep 1
/// (2 for the rollback) from process 1 toward process 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stack {
    Bare,
    Checked,
    Hardened,
    /// One injected event of this class, unhardened.
    Inject(FaultKind),
    /// One injected event of this class under default hardening, with a
    /// superstep deadline for the straggler class.
    Heal(FaultKind),
    /// Corruption of every batch on the pair, with a retry budget of 2.
    PersistentCorrupt,
    /// A transient panic under a checkpoint every 2 supersteps.
    Rollback,
}

impl Stack {
    fn name(self) -> String {
        match self {
            Stack::Inject(kind) => format!("inject {kind:?}"),
            Stack::Heal(kind) => format!("heal {kind:?}"),
            Stack::PersistentCorrupt => "persistent corrupt".to_string(),
            other => format!("{other:?}").to_lowercase(),
        }
    }

    /// Fault-injected rows run one at a time: the straggler class detects
    /// by a wall-clock deadline, and co-scheduled jobs could push a healthy
    /// data round past it.
    fn injects(self) -> bool {
        !matches!(self, Stack::Bare | Stack::Checked | Stack::Hardened)
    }

    fn apply(self, cfg: Config) -> Config {
        let event = |step, kind| {
            FaultPlan::new(0xFA17).with(FaultEvent {
                pid: 1,
                step,
                dest: 2,
                kind,
            })
        };
        let tol = FaultTolerance::default();
        match self {
            Stack::Bare => cfg,
            Stack::Checked => cfg.checked(),
            Stack::Hardened => cfg.hardened(),
            Stack::Inject(kind) => cfg.faults(event(1, kind)),
            Stack::Heal(kind) => cfg.faults(event(1, kind)).tolerant(FaultTolerance {
                superstep_deadline: (kind == FaultKind::Straggler).then_some(STRAGGLER_DEADLINE),
                ..tol
            }),
            Stack::PersistentCorrupt => cfg
                .faults(event(1, FaultKind::Corrupt).persistent())
                .tolerant(FaultTolerance {
                    max_retries: 2,
                    ..tol
                }),
            Stack::Rollback => cfg
                .faults(event(2, FaultKind::Panic))
                .tolerant(FaultTolerance {
                    checkpoint: Some(CheckpointPolicy {
                        every_supersteps: 2,
                    }),
                    ..tol
                }),
        }
    }
}

/// What a row's fault counters must show.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Faults {
    /// No fault activity at all: a detection here is a false positive.
    Zero,
    /// The fault was injected and detected.
    Healed,
    /// The run rolled back at least once.
    RolledBack,
}

/// The structured error a row must end in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Failure {
    /// `ProcPanicked { pid: 1 }`: the injected process, not a peer.
    Panicked,
    /// `Transport(RetryExhausted)`.
    RetryExhausted,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    /// The seqsim reference digest, zero check reports, these counters.
    Identical(Faults),
    Fails(Failure),
}

#[derive(Clone, Copy, Debug)]
struct Row {
    subject: Subject,
    backend: (&'static str, BackendKind),
    stack: Stack,
    expect: Expect,
}

impl Row {
    fn config(&self, p: usize) -> Config {
        self.stack
            .apply(self.subject.config(p).backend(self.backend.1))
    }
}

/// Every combination of `subjects × backends × stacks`, in that nesting.
fn cross(
    subjects: &[Subject],
    backends: &[(&'static str, BackendKind)],
    stacks: &[Stack],
    expect: Expect,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &subject in subjects {
        for &backend in backends {
            for &stack in stacks {
                rows.push(Row {
                    subject,
                    backend,
                    stack,
                    expect,
                });
            }
        }
    }
    rows
}

/// A group of rows with one heading and one row count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    /// Every application under the checker on the four deterministic
    /// backends (NetSim shares the shared-memory delivery path and only
    /// adds modelled delays, which the checker does not observe).
    Checked,
    /// The byte-lane-converted programs on the packet lane.
    Lane,
    /// Both streamed applications under the checker.
    Streamed,
    /// The relaxed ocean and the split-phase sort under the checker.
    SyncMode,
    Bare,
    Hardened,
    /// Every application × backend × recoverable fault class.
    Recoverable,
    /// The relaxed ocean through every recoverable class (hardening gates
    /// its neighborhood boundaries to Full, DESIGN.md §12).
    RelaxedRecoverable,
    /// An injected panic and a persistent corruption on every backend.
    Unrecoverable,
    /// A transient panic rolled back from a checkpoint.
    Rollback,
}

impl Family {
    const CHECK: [Family; 4] = [
        Family::Checked,
        Family::Lane,
        Family::Streamed,
        Family::SyncMode,
    ];
    const FAULTS: [Family; 6] = [
        Family::Bare,
        Family::Hardened,
        Family::Recoverable,
        Family::RelaxedRecoverable,
        Family::Unrecoverable,
        Family::Rollback,
    ];

    fn rows(self) -> Vec<Row> {
        let all = &ALL_BACKENDS[..];
        let (deterministic, shared) = (&all[..4], &all[..1]);
        let apps = App::ALL.map(Subject::App);
        let sp = [Subject::App(App::Sp)];
        let variants = |vs: &[Variant]| vs.iter().map(|&v| Subject::Variant(v)).collect::<Vec<_>>();
        let relaxed = variants(&[Variant::Ocean { relaxed: true }]);
        let heal = FaultKind::RECOVERABLE.map(Stack::Heal);
        let zero = Expect::Identical(Faults::Zero);
        let healed = Expect::Identical(Faults::Healed);
        match self {
            Family::Checked => cross(&apps, deterministic, &[Stack::Checked], zero),
            Family::Lane => {
                let packets = variants(&[
                    Variant::Nbody { bytes: false },
                    Variant::Sort {
                        bytes: false,
                        split: false,
                    },
                    Variant::Ghost { bytes: false },
                ]);
                cross(&packets, deterministic, &[Stack::Bare], zero)
            }
            Family::Streamed => {
                let streamed = STREAMED.map(Subject::Streamed);
                cross(&streamed, shared, &[Stack::Checked], zero)
            }
            Family::SyncMode => {
                let split = Variant::Sort {
                    bytes: true,
                    split: true,
                };
                let relaxed_and_split = variants(&[Variant::Ocean { relaxed: true }, split]);
                cross(&relaxed_and_split, deterministic, &[Stack::Checked], zero)
            }
            Family::Bare => cross(&apps, all, &[Stack::Bare], zero),
            Family::Hardened => cross(&apps, all, &[Stack::Hardened], zero),
            Family::Recoverable => cross(&apps, all, &heal, healed),
            Family::RelaxedRecoverable => cross(&relaxed, shared, &heal, healed),
            Family::Unrecoverable => {
                let (panicked, exhausted) = (Failure::Panicked, Failure::RetryExhausted);
                let panic = [Stack::Inject(FaultKind::Panic)];
                let mut rows = cross(&sp, all, &panic, Expect::Fails(panicked));
                let persist = [Stack::PersistentCorrupt];
                rows.extend(cross(&sp, all, &persist, Expect::Fails(exhausted)));
                rows
            }
            Family::Rollback => {
                let both = [Subject::App(App::Nbody), Subject::App(App::Ocean)];
                let rolled_back = Expect::Identical(Faults::RolledBack);
                cross(&both, &all[..3], &[Stack::Rollback], rolled_back)
            }
        }
    }
}

/// A row's run: whether it reproduced its reference, and its statistics.
type Outcome = Result<(bool, RunStats), BspError>;

/// The one verdict: `Ok(summary)` when the row holds, `Err(why)` when not.
fn verdict(expect: Expect, outcome: &Outcome) -> Result<String, String> {
    match (expect, outcome) {
        (Expect::Identical(want), Ok((identical, stats))) => {
            let f = &stats.faults;
            let counters = format!("faults {}/{}/{}", f.injected, f.detected, f.rolled_back);
            let shown = match want {
                Faults::Zero => f.is_zero(),
                Faults::Healed => f.injected >= 1 && f.detected >= 1,
                Faults::RolledBack => f.rolled_back >= 1,
            };
            if !identical {
                Err(format!("DIGEST DIFFERS from seqsim ({counters})"))
            } else if !stats.check_reports.is_empty() {
                let reports: Vec<String> =
                    stats.check_reports.iter().map(|r| r.to_string()).collect();
                Err(format!(
                    "{} DIAGNOSTIC(S): {}",
                    reports.len(),
                    reports.join("; ")
                ))
            } else if !shown {
                Err(format!("counters do not show {want:?}: {f:?}"))
            } else {
                Ok(format!("identical, {} supersteps, {counters}", stats.s()))
            }
        }
        (Expect::Identical(_), Err(e)) => Err(format!("FAILED: {e}")),
        (Expect::Fails(want), Err(e)) => {
            let right = match want {
                Failure::Panicked => matches!(e, BspError::ProcPanicked { pid: 1, .. }),
                Failure::RetryExhausted => matches!(
                    e,
                    BspError::Transport(t) if matches!(t.kind, TransportErrorKind::RetryExhausted)
                ),
            };
            if right {
                Ok(format!("failed as expected: {e}"))
            } else {
                Err(format!("WRONG ERROR: {e}"))
            }
        }
        (Expect::Fails(want), Ok(_)) => Err(format!("SUCCEEDED where {want:?} was due")),
    }
}

/// Programs and their seqsim references at one width, each built once and
/// shared by every row of a sweep.
struct Oracle {
    p: usize,
    full: bool,
    programs: HashMap<Subject, Program>,
    references: HashMap<Subject, Option<Vec<u64>>>,
}

impl Oracle {
    fn new(p: usize, full: bool) -> Oracle {
        Oracle {
            p,
            full,
            programs: HashMap::new(),
            references: HashMap::new(),
        }
    }

    fn program(&mut self, subject: Subject) -> Program {
        let (p, full) = (self.p, self.full);
        let program = self
            .programs
            .entry(subject)
            .or_insert_with(|| match subject {
                Subject::App(app) => app.program(&prepare(app, app.sweep_size(full)), p),
                Subject::Variant(v) => v.program(p, full),
                Subject::Streamed(_) => unreachable!("streamed rows run through stream_identity"),
            });
        program.clone()
    }

    /// Per-process digests of `subject`'s canonical form on the sequential
    /// simulator; `None` (reported once) when that run fails.
    fn reference(&mut self, subject: Subject) -> Option<Vec<u64>> {
        let canonical = subject.canonical();
        if let Some(reference) = self.references.get(&canonical) {
            return reference.clone();
        }
        let program = self.program(canonical);
        let cfg = canonical.config(self.p).backend(BackendKind::SeqSim);
        let reference = match try_run(&cfg, &*program) {
            Ok(out) => Some(out.results),
            Err(e) => {
                eprintln!("  {} seqsim reference FAILED: {e}", canonical.name());
                None
            }
        };
        self.references.insert(canonical, reference.clone());
        reference
    }

    /// Run `rows` (all program rows, or all streamed rows), returning their
    /// outcomes in row order. Fault-free program rows go through the global
    /// runtime's `submit`, [`WINDOW`] at a time; injected ones run alone.
    fn run(&mut self, rows: &[Row]) -> Vec<Outcome> {
        let rt = global();
        if let Some(Subject::Streamed(_)) = rows.first().map(|r| r.subject) {
            let dir = std::env::temp_dir().join(format!("green-bsp-oracle-{}", std::process::id()));
            let got = stream_identity(rt, &rows[0].config(self.p), STREAM_BUDGET, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            return got.into_iter().map(Ok).take(rows.len()).collect();
        }
        let join = |(handle, reference): (JobHandle<u64>, Option<Vec<u64>>)| {
            judge(handle.join(), &reference)
        };
        let mut outcomes = Vec::with_capacity(rows.len());
        let mut pending = VecDeque::new();
        for row in rows {
            let program = self.program(row.subject);
            let reference = self.reference(row.subject);
            let cfg = row.config(self.p);
            if row.stack.injects() {
                outcomes.extend(pending.drain(..).map(join));
                outcomes.push(judge(try_run(&cfg, &*program), &reference));
            } else {
                pending.push_back((rt.submit(&cfg, move |ctx| program(ctx)), reference));
                if pending.len() >= WINDOW {
                    outcomes.extend(pending.pop_front().map(join));
                }
            }
        }
        outcomes.extend(pending.drain(..).map(join));
        outcomes
    }
}

/// Whether a run reproduced `reference` bit for bit, and its statistics.
fn judge(out: Result<RunOutput<u64>, BspError>, reference: &Option<Vec<u64>>) -> Outcome {
    out.map(|o| (reference.as_ref() == Some(&o.results), o.stats))
}

/// Run `families` at p = 4, one line per row; `true` when every row holds.
fn run_families(families: &[Family], full: bool) -> bool {
    let p = 4;
    let mut oracle = Oracle::new(p, full);
    let (mut total, mut failed) = (0, 0);
    let (mut injected, mut detected, mut rolled_back) = (0, 0, 0);
    for &family in families {
        let rows = family.rows();
        eprintln!("== {family:?} ({} rows, p = {p}) ==", rows.len());
        for (row, outcome) in rows.iter().zip(oracle.run(&rows)) {
            if let Ok((_, stats)) = &outcome {
                injected += stats.faults.injected;
                detected += stats.faults.detected;
                rolled_back += stats.faults.rolled_back;
            }
            let line = verdict(row.expect, &outcome).unwrap_or_else(|why| {
                failed += 1;
                format!("FAIL: {why}")
            });
            eprintln!(
                "  {:16} {:8} {:18} {line}",
                row.subject.name(),
                row.backend.0,
                row.stack.name()
            );
        }
        total += rows.len();
    }
    eprintln!(
        "{total} rows, {failed} failed; faults injected {injected}, detected {detected}, \
         rolled back {rolled_back}"
    );
    failed == 0
}

/// `report check`: every program under the checker or with a changed
/// transport choice, and the streamed applications under the checker.
pub fn run_check(full: bool) -> bool {
    run_families(&Family::CHECK, full)
}

/// `report faults`: every program bare, hardened, healing each recoverable
/// class and rolling back a transient panic, plus the unrecoverable classes.
pub fn run_faults(full: bool) -> bool {
    // Injected faults panic by design (that is how the transport layers
    // unwind); without this filter every expected failure spews a backtrace
    // and the sweep's actual verdict drowns. Real application panics (plain
    // string payloads) still print. Left installed: this process exits
    // right after the sweep.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let expected = payload.downcast_ref::<BspError>().is_some()
            || payload
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected fault"))
            || payload
                .downcast_ref::<&str>()
                .is_some_and(|s| s.starts_with("injected fault"));
        if !expected {
            default_hook(info);
        }
    }));
    run_families(&Family::FAULTS, full)
}

/// Run both streamed applications at tile budget `budget`, each on an input
/// twice the budget spilled under `dir`, and compare every output byte with
/// the in-core result: `(bit-identical, stats)` per application, in
/// [`STREAMED`] order (external sample sort, then two tiled Jacobi sweeps).
pub fn stream_identity(
    rt: &Runtime,
    cfg: &Config,
    budget: usize,
    dir: &Path,
) -> [(bool, RunStats); 2] {
    let keys: Vec<u64> = (0..(2 * budget / 8) as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let input = TileStore::create_in(dir, "sort-in.keys").expect("create sort input");
    let key_bytes: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
    input.write_all(&key_bytes).expect("write sort input");
    let output = TileStore::create_in(dir, "sort-out.keys").expect("create sort output");
    let sc = StreamConfig::new(budget).record(8).spill_dir(dir);
    let sorted = external_sample_sort(rt, cfg, &sc, &input, &output).expect("streamed sort");
    let mut want = keys;
    want.sort_unstable();
    let want: Vec<u8> = want.iter().flat_map(|k| k.to_le_bytes()).collect();
    let sort = (
        output.read_to_vec().expect("read sorted keys") == want,
        sorted.stats,
    );

    let n = ((2 * budget / 8) as f64).sqrt().ceil() as usize;
    let u0 = initial_grid(n);
    let ping = TileStore::create_in(dir, "ocean-ping.grid").expect("create ping grid");
    let grid_bytes: Vec<u8> = u0.iter().flat_map(|v| v.to_le_bytes()).collect();
    ping.write_all(&grid_bytes).expect("write ping grid");
    let pong = TileStore::create_in(dir, "ocean-pong.grid").expect("create pong grid");
    pong.write_all(&vec![0u8; n * n * 8])
        .expect("write pong grid");
    let sc = StreamConfig::new(budget).spill_dir(dir);
    let relaxed = tiled_jacobi(rt, cfg, &sc, n, &ping, &pong, 2).expect("streamed ocean");
    let mut want = u0;
    jacobi_in_core(n, &mut want, 2);
    let want: Vec<u8> = want.iter().flat_map(|v| v.to_le_bytes()).collect();
    let got = if relaxed.result_in_pong { &pong } else { &ping };
    let ocean = (
        got.read_to_vec().expect("read relaxed grid") == want,
        relaxed.stats,
    );
    [sort, ocean]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_row_of_every_family_holds() {
        let mut oracle = Oracle::new(4, false);
        for family in Family::CHECK.into_iter().chain(Family::FAULTS) {
            let rows = family.rows();
            let row = rows[0];
            let outcome = oracle.run(&rows[..1]).remove(0);
            let held = verdict(row.expect, &outcome);
            assert!(held.is_ok(), "{family:?} {row:?}: {held:?}");
        }
    }

    #[test]
    fn the_verdict_cannot_pass_vacuously() {
        let mut oracle = Oracle::new(4, false);
        let sort = Subject::Variant(Variant::Sort {
            bytes: true,
            split: false,
        });
        // An unhardened drop of process 1's bucket batch to process 2 loses
        // keys: neither the digest nor the checker can let that through.
        let dropped = Row {
            subject: sort,
            backend: ALL_BACKENDS[0],
            stack: Stack::Inject(FaultKind::Drop),
            expect: Expect::Identical(Faults::Zero),
        };
        let outcome = oracle.run(&[dropped]).remove(0);
        assert!(verdict(dropped.expect, &outcome).is_err(), "{outcome:?}");

        // A clean row holds against its reference and fails against the
        // same reference with one bit flipped.
        let clean = Row {
            stack: Stack::Bare,
            ..dropped
        };
        let outcome = oracle.run(&[clean]).remove(0);
        assert!(verdict(clean.expect, &outcome).is_ok(), "{outcome:?}");
        let reference = oracle.references.get_mut(&sort).expect("cached reference");
        reference.as_mut().expect("seqsim reference ran")[0] ^= 1;
        let outcome = oracle.run(&[clean]).remove(0);
        assert!(verdict(clean.expect, &outcome).is_err(), "{outcome:?}");
    }
}

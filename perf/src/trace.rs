//! In-memory spans recorded by the benchmark's own code around its calls
//! into the library, written at exit as Chrome trace-event JSON.
//!
//! A span is `(name, start, end, parent, pid)`. The driving thread opens
//! and closes spans on a stack; BSP closures record into a private
//! [`ProcSpans`] (no sharing on the measured path) that is returned with
//! the closure's result and attached under the `run` span afterwards.
//! With tracing off nothing is recorded and the closures take no
//! timestamps at all.

use crate::json::Json;
use green_bsp::RunStats;
use std::path::Path;
use std::time::{Duration, Instant};

/// `pid` of spans recorded on the driving (submitting) thread.
pub const DRIVER: u32 = u32::MAX;

/// Spans kept per run; later ones are counted in `dropped` instead, so a
/// long run cannot grow the trace file without bound.
const MAX_SPANS: usize = 20_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pid: u32,
    /// Laid out from totals in `RunStats`, not observed as an interval.
    pub synthesised: bool,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

/// Handle of an open driver-thread span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Open a span on the driving thread, nested under the innermost open
    /// one. A no-op handle when tracing is off.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = self.ns(Instant::now());
        let parent = self.open.last().copied();
        let id = self.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            pid: DRIVER,
            synthesised: false,
        });
        if let Some(i) = id {
            self.open.push(i);
        }
        SpanId(id)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        let now = self.ns(Instant::now());
        self.spans[i].end_ns = now;
        if let Some(pos) = self.open.iter().rposition(|&o| o == i) {
            self.open.truncate(pos);
        }
    }

    /// Attach what one BSP process recorded inside its closure under
    /// `parent`.
    pub fn attach(&mut self, parent: SpanId, pid: usize, spans: &ProcSpans) {
        if parent.0.is_none() {
            return;
        }
        for &(name, start, end) in &spans.spans {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent: parent.0,
                pid: pid as u32,
                synthesised: false,
            });
        }
    }

    /// Lay `parts` (name, duration) end to end from the start of `parent`
    /// as children on `pid`: the per-process totals a `RunStats` reports
    /// have no timeline of their own.
    pub fn synthesise(&mut self, parent: SpanId, pid: usize, parts: &[(&str, Duration)]) {
        let Some(p) = parent.0 else { return };
        let mut at = self.spans[p].start_ns;
        for (name, d) in parts {
            let end = at + d.as_nanos() as u64;
            self.push(Span {
                name: (*name).to_string(),
                start_ns: at,
                end_ns: end,
                parent: Some(p),
                pid: pid as u32,
                synthesised: true,
            });
            at = end;
        }
    }

    /// Lay a run's `RunStats` totals out as children of its span, one row
    /// per process: launch, compute, boundary wait, tear-down.
    pub fn synthesise_run(&mut self, span: SpanId, stats: &RunStats) {
        for pid in 0..stats.nprocs {
            let compute = stats.per_proc_compute.get(pid).copied().unwrap_or_default();
            let wait = stats
                .per_proc_sync_wait
                .get(pid)
                .copied()
                .unwrap_or_default();
            self.synthesise(
                span,
                pid,
                &[
                    ("runner.setup", stats.setup),
                    ("compute", compute),
                    ("sync_wait", wait),
                    ("runner.teardown", stats.teardown),
                ],
            );
        }
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children (on any process) cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let a = a.clamp(reach, s.end_ns);
                    let b = b.clamp(reach, s.end_ns);
                    covered += b - a;
                    reach = reach.max(b);
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Write the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): complete events with microsecond timestamps; the parent
    /// index and self time ride along in `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times_ns();
        let events: Vec<Json> = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(i, (s, own))| {
                let mut args = vec![
                    ("id".to_string(), Json::Num(i as f64)),
                    ("self_us".to_string(), Json::Num(own as f64 / 1e3)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Json::Num(p as f64)));
                }
                if s.synthesised {
                    args.push(("synthesised".to_string(), Json::Bool(true)));
                }
                Json::obj([
                    ("name", Json::str(s.name.as_str())),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(0.0)),
                    // Chrome groups rows by tid: row 0 is the driver,
                    // row 1 + pid a BSP process.
                    (
                        "tid",
                        Json::Num(if s.pid == DRIVER {
                            0.0
                        } else {
                            f64::from(s.pid) + 1.0
                        }),
                    ),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            ("droppedSpans", Json::Num(self.dropped as f64)),
        ]);
        std::fs::write(path, doc.render())
    }
}

/// Spans one BSP process records inside its closure. Created disabled
/// when tracing is off, and then [`ProcSpans::time`] runs its body with no
/// clock reads.
#[derive(Debug, Default)]
pub struct ProcSpans {
    on: bool,
    spans: Vec<(&'static str, Instant, Instant)>,
}

impl ProcSpans {
    pub fn new(on: bool) -> ProcSpans {
        ProcSpans {
            on,
            spans: Vec::new(),
        }
    }

    /// Run `f`, recording it as a span named `name` when tracing is on.
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.spans.push((name, start, Instant::now()));
        out
    }

    /// Total time recorded under `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, a, b)| b.duration_since(*a))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let span = |name: &str, a, b, parent, pid| Span {
            name: name.to_string(),
            start_ns: a,
            end_ns: b,
            parent,
            pid,
            synthesised: false,
        };
        t.spans.push(span("run", 0, 100, None, DRIVER));
        // Two processes overlap on [20, 50]; the union covers [10, 60].
        t.spans.push(span("sync", 10, 50, Some(0), 0));
        t.spans.push(span("sync", 20, 60, Some(0), 1));
        t.spans.push(span("drain", 90, 120, Some(0), 0)); // clipped to parent
        assert_eq!(t.self_times_ns(), vec![40, 40, 40, 30]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("run");
        t.synthesise(id, 0, &[("compute", Duration::from_millis(1))]);
        t.end(id);
        assert!(t.spans().is_empty());
        let mut p = ProcSpans::new(false);
        assert_eq!(p.time("send", || 7), 7);
        assert_eq!(p.total("send"), Duration::ZERO);
    }

    #[test]
    fn driver_spans_nest_and_children_attach() {
        let mut t = Tracer::new(true);
        let outer = t.begin("pass");
        let inner = t.begin("run");
        let mut p = ProcSpans::new(true);
        p.time("send", || std::hint::black_box(1 + 1));
        t.attach(inner, 3, &p);
        t.end(inner);
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(
            (s[2].parent, s[2].pid, s[2].name.as_str()),
            (Some(1), 3, "send")
        );
        assert!(s[0].end_ns >= s[1].end_ns);
    }
}

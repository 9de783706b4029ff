//! One benchmark process: set a workload up, measure it, check it, and
//! reduce it to named metrics.
//!
//! An untraced run (`--trace 0`) measures one workload and yields every
//! end-to-end metric. A traced run (`--trace 1`) yields every per-layer
//! metric: it measures the named workload traced (and, for the tracing
//! overhead, untraced), makes a light round of the other five so that
//! their layers' numbers are measured too, then runs the layer probes.

use crate::host::{self, Width};
use crate::json::Json;
use crate::ledger::{Env, Ledger, Metric};
use crate::probes::Probes;
use crate::quant::Summary;
use crate::scale::{Budget, Scale};
use crate::trace::Tracer;
use crate::wl_apps::{self, Apps, TuneRow};
use crate::wl_exchange::{self, Exchange};
use crate::wl_jobs::Jobs;
use crate::wl_stream::Stream;
use green_bsp::Runtime;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AppsCoarse,
    AppsFine,
    ExchangePkt,
    ExchangeBytes,
    Jobs,
    Stream,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::AppsCoarse,
        Workload::AppsFine,
        Workload::ExchangePkt,
        Workload::ExchangeBytes,
        Workload::Jobs,
        Workload::Stream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AppsCoarse => "apps-coarse",
            Workload::AppsFine => "apps-fine",
            Workload::ExchangePkt => "exchange-pkt",
            Workload::ExchangeBytes => "exchange-bytes",
            Workload::Jobs => "jobs",
            Workload::Stream => "stream",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Directory for results, traces and this process's scratch files.
    pub out: PathBuf,
}

/// What one process measured.
pub struct Outcome {
    pub ledger: Ledger,
    pub host: Vec<(String, Json)>,
    pub trace_file: Option<PathBuf>,
}

/// A set-up workload, whichever it is.
enum Module {
    Apps(Apps),
    Exchange(Exchange),
    Jobs(Jobs),
    Stream(Box<Stream>),
}

impl Module {
    fn setup(w: Workload, env: &Env, ledger: &mut Ledger, tracer: &mut Tracer) -> Option<Module> {
        Some(match w {
            Workload::AppsCoarse => {
                Module::Apps(Apps::setup(env, wl_apps::Kind::Coarse, ledger, tracer)?)
            }
            Workload::AppsFine => {
                Module::Apps(Apps::setup(env, wl_apps::Kind::Fine, ledger, tracer)?)
            }
            Workload::ExchangePkt => {
                Module::Exchange(Exchange::setup(env, wl_exchange::Kind::Pkt, ledger, tracer))
            }
            Workload::ExchangeBytes => Module::Exchange(Exchange::setup(
                env,
                wl_exchange::Kind::Bytes,
                ledger,
                tracer,
            )),
            Workload::Jobs => Module::Jobs(Jobs::setup(env, tracer)),
            Workload::Stream => Module::Stream(Box::new(Stream::setup(env, ledger, tracer)?)),
        })
    }

    fn measure(&mut self, budget: &Budget, ledger: &mut Ledger, tracer: &mut Tracer) {
        match self {
            Module::Apps(m) => m.measure(budget, ledger, tracer),
            Module::Exchange(m) => m.measure(budget, ledger, tracer),
            Module::Jobs(m) => m.measure(budget, ledger, tracer),
            Module::Stream(m) => m.measure(budget, ledger, tracer),
        }
    }

    /// The layer probes that need this workload's state.
    fn probe(&mut self, w: Workload, env: &Env, ledger: &mut Ledger, tracer: &mut Tracer) {
        match self {
            Module::Apps(m) if w == Workload::AppsFine => m.probe_backends(env, ledger, tracer),
            Module::Apps(_) | Module::Jobs(_) => {}
            Module::Exchange(m) => m.probe_layers(ledger, tracer),
            Module::Stream(m) => m.probe_io(env, ledger, tracer),
        }
    }

    fn tune_rows(&self) -> Vec<TuneRow> {
        match self {
            Module::Apps(m) => m.tune_rows(),
            _ => Vec::new(),
        }
    }

    fn finish(self) {
        match self {
            Module::Apps(m) => m.finish(),
            Module::Exchange(m) => m.finish(),
            Module::Jobs(m) => m.finish(),
            Module::Stream(m) => m.finish(),
        }
    }
}

/// Set-up is repeated so that `setup_s` is a median: at least seven times
/// (the first one is colder than the rest, and with seven the quartiles
/// leave it out) and for a second (a sub-millisecond set-up needs many
/// samples to be steady), but never past four seconds in total — the
/// heavy set-ups are long enough to be steady on their own.
fn setup_again(done: usize, spent_s: f64) -> bool {
    done == 0 || (done < 200 && spent_s < 4.0 && (done < 7 || spent_s < 1.0))
}

/// Removes the process's scratch directory when dropped — also on a
/// panic that unwinds through `run`.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn budget_for(opts: &Opts, seconds: f64, light: bool) -> Budget {
    if opts.smoke {
        Budget::smoke()
    } else if light {
        Budget::light(seconds)
    } else {
        Budget::timed(seconds)
    }
}

/// Run one benchmark process.
pub fn run(opts: &Opts) -> std::io::Result<Outcome> {
    let width = Width::detect();
    std::fs::create_dir_all(&opts.out)?;
    let tmp = opts.out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp)?;
    let _scratch = Scratch(tmp.clone());
    // The tuner caches calibrations on disk; keep that file in our scratch
    // directory, not in the system's temp directory.
    std::env::set_var("GREEN_BSP_CAL_CACHE", tmp.join("calibration-cache"));

    let env = Env {
        width,
        seed: opts.seed,
        scale: if opts.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        },
        tmp,
    };
    let mut host = host::fingerprint(width, opts.seed);
    host.push(("seconds".into(), Json::Num(opts.seconds)));
    host.push(("smoke".into(), Json::Bool(opts.smoke)));

    let mut tracer = Tracer::new(opts.trace);
    let mut ledger = Ledger::default();
    if opts.trace {
        run_traced(opts, &env, &mut ledger, &mut tracer);
    } else {
        run_untraced(opts, &env, &mut ledger, &mut tracer);
    }

    let trace_file = if opts.trace {
        let path = opts
            .out
            .join(format!("trace-{}.json", opts.workload.name()));
        tracer.write_chrome(&path)?;
        Some(path)
    } else {
        None
    };
    host.push((
        "loadavg_end".into(),
        Json::Arr(host::loadavg().into_iter().map(Json::Num).collect()),
    ));
    Ok(Outcome {
        ledger,
        host,
        trace_file,
    })
}

fn run_untraced(opts: &Opts, env: &Env, ledger: &mut Ledger, tracer: &mut Tracer) {
    let w = opts.workload;
    let mut setups = Vec::new();
    let mut module = None;
    let started = Instant::now();
    // (The smoke mode sets up once.)
    while (setups.is_empty() || !opts.smoke)
        && setup_again(setups.len(), started.elapsed().as_secs_f64())
    {
        if let Some(m) = module.take() {
            Module::finish(m);
        }
        let t0 = Instant::now();
        module = Module::setup(w, env, ledger, tracer);
        setups.push(t0.elapsed().as_secs_f64());
        if module.is_none() {
            break;
        }
    }
    let Some(mut module) = module else {
        ledger.fail(format!("{}: set-up failed", w.name()));
        return;
    };
    module.measure(&budget_for(opts, opts.seconds, false), ledger, tracer);
    module.finish();
    ledger.e2e("setup_s", "s", Summary::of(&setups));
    ledger.e2e("peak_rss_mb", "MiB", Summary::single(host::peak_rss_mb()));
    ledger.note("setup_repeats", Json::Num(setups.len() as f64));
    // Per-layer numbers come from traced runs only.
    ledger.layer.clear();
}

fn run_traced(opts: &Opts, env: &Env, ledger: &mut Ledger, tracer: &mut Tracer) {
    let mut rows = Vec::new();
    // The named workload first (while the host is as it was for the
    // untraced runs), then a light round of the others.
    let order = std::iter::once(opts.workload)
        .chain(Workload::ALL.into_iter().filter(|&w| w != opts.workload));
    for w in order {
        let named = w == opts.workload;
        let span = tracer.begin(&format!("workload {}", w.name()));
        let mut own = Ledger::default();
        if let Some(mut module) = Module::setup(w, env, &mut own, tracer) {
            if named {
                // The same passes with tracing off: the base of
                // `trace.overhead_ratio`.
                let mut base = Ledger::default();
                let mut off = Tracer::new(false);
                module.measure(
                    &budget_for(opts, opts.seconds / 4.0, true),
                    &mut base,
                    &mut off,
                );
                module.measure(
                    &budget_for(opts, opts.seconds / 2.0, false),
                    &mut own,
                    tracer,
                );
                let wall = |l: &Ledger| {
                    l.e2e
                        .iter()
                        .find(|m| m.name == "wall_s")
                        .map(|m| m.summary.value)
                };
                let ratio = match (wall(&own), wall(&base)) {
                    (Some(t), Some(b)) if b > 0.0 => t / b,
                    _ => 0.0,
                };
                own.layer("trace.overhead_ratio", "ratio", Summary::single(ratio));
                own.attempted += base.attempted;
                own.failed += base.failed;
                own.notes.append(&mut base.notes);
            } else {
                module.measure(
                    &budget_for(opts, opts.seconds / 10.0, true),
                    &mut own,
                    tracer,
                );
            }
            module.probe(w, env, &mut own, tracer);
            rows.extend(module.tune_rows());
            module.finish();
        } else {
            own.fail(format!("{}: set-up failed", w.name()));
        }
        tracer.end(span);
        absorb(ledger, own);
    }

    let span = tracer.begin("probes");
    let rt = Runtime::new();
    let probes = Probes { env, rt: &rt };
    probes.sync_costs(ledger, tracer);
    probes.shims(ledger, tracer);
    probes.cost_model(&rows, ledger, tracer);
    rt.shutdown();
    tracer.end(span);
    // End-to-end numbers come from untraced runs only.
    ledger.e2e.clear();
}

fn absorb(into: &mut Ledger, from: Ledger) {
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.notes.extend(from.notes);
    into.info.extend(from.info);
    for Metric {
        name,
        unit,
        summary,
    } in from.layer
    {
        into.layer(&name, unit, summary);
    }
}

fn metric_json(m: &Metric, full: bool) -> (String, Json) {
    let mut fields = vec![
        ("value".to_string(), Json::Num(m.summary.value)),
        ("unit".to_string(), Json::str(m.unit)),
    ];
    if full {
        fields.push(("n".to_string(), Json::Num(m.summary.n as f64)));
        fields.push(("p25".to_string(), Json::Num(m.summary.p25)));
        fields.push(("p75".to_string(), Json::Num(m.summary.p75)));
    }
    (m.name.clone(), Json::Obj(fields))
}

impl Outcome {
    fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.ledger.layer
        } else {
            &self.ledger.e2e
        }
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, trace: bool) -> String {
        Json::obj([
            ("correct", Json::Bool(self.ledger.failed == 0)),
            ("attempted", Json::Num(self.ledger.attempted.max(1) as f64)),
            ("failed", Json::Num(self.ledger.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics(trace)
                        .iter()
                        .map(|m| metric_json(m, false))
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// The results file: the same numbers with their quartiles and pass
    /// counts, the host fingerprint and the failure notes.
    pub fn results_file(&self, opts: &Opts) -> Json {
        let l = &self.ledger;
        Json::obj([
            ("workload", Json::str(opts.workload.name())),
            ("trace", Json::Num(f64::from(u8::from(opts.trace)))),
            ("host", Json::Obj(self.host.clone())),
            ("info", Json::Obj(l.info.clone())),
            ("correct", Json::Bool(l.failed == 0)),
            ("attempted", Json::Num(l.attempted as f64)),
            ("failed", Json::Num(l.failed as f64)),
            ("fail_share", Json::Num(l.fail_share())),
            (
                "failures",
                Json::Arr(l.notes.iter().map(|s| Json::str(s.as_str())).collect()),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics(opts.trace)
                        .iter()
                        .map(|m| metric_json(m, true))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Where a run's results file goes.
pub fn results_path(out: &Path, workload: Workload, trace: bool) -> PathBuf {
    out.join(format!("{}.trace{}.json", workload.name(), u8::from(trace)))
}

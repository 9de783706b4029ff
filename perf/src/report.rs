//! Reading results back: merging the per-run files of one set of runs
//! into `results.json`, printing them as a table, and `perf compare`.

use crate::bench::{results_path, Workload};
use crate::json::{self, Json};
use crate::quant::Summary;
use std::path::Path;

/// The workload whose traced run a per-layer metric is taken from when a
/// set of runs is merged: the one that spends its budget on that layer.
/// (Every traced run measures every layer; the others do so in a light
/// round.) `trace.overhead_ratio` belongs to each workload itself.
pub fn owner(metric: &str) -> Option<Workload> {
    let starts = |p: &str| metric.starts_with(p);
    Some(
        if starts("nbody.")
            || starts("graph.msp.")
            || starts("matmul.")
            || starts("cost.")
            || starts("tune.")
        {
            Workload::AppsCoarse
        } else if starts("ocean.")
            || starts("graph.sp.")
            || starts("graph.mst.")
            || metric.ends_with(".fine_wall_s")
            || starts("barrier.")
            || starts("relax.")
            || starts("collectives.")
            || starts("message.")
            || starts("drma.")
        {
            Workload::AppsFine
        } else if starts("context.send_bytes")
            || metric == "context.recv_bytes_ns"
            || metric.ends_with(".bytes_per_s")
            || metric == "backend.bytes_moved"
        {
            Workload::ExchangeBytes
        } else if starts("context.") || starts("backend.") || starts("fault.") || starts("check.") {
            Workload::ExchangePkt
        } else if starts("exec.") || starts("runner.") {
            Workload::Jobs
        } else if starts("stream.") || starts("sort.") {
            Workload::Stream
        } else {
            return None;
        },
    )
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Merge the twelve per-run files under `out` into one document: per
/// workload its end-to-end metrics (untraced run) and the per-layer
/// metrics it owns (traced run), plus the first run's host fingerprint.
pub fn merge(out: &Path) -> Result<Json, String> {
    let mut host = Json::Null;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let untraced = read_json(&results_path(out, w, false))?;
        let traced = read_json(&results_path(out, w, true))?;
        if host == Json::Null {
            host = untraced.get("host").cloned().unwrap_or(Json::Null);
        }
        let layers: Vec<(String, Json)> = traced
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .filter(|(name, _)| owner(name).is_none_or(|o| o == w))
            .cloned()
            .collect();
        let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let attempted = num(&untraced, "attempted") + num(&traced, "attempted");
        let failed = num(&untraced, "failed") + num(&traced, "failed");
        let mut failures = Vec::new();
        for doc in [&untraced, &traced] {
            failures.extend_from_slice(
                doc.get("failures")
                    .and_then(Json::as_arr)
                    .unwrap_or_default(),
            );
        }
        workloads.push((
            w.name().to_string(),
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                (
                    "fail_share",
                    Json::Num(if attempted > 0.0 {
                        failed / attempted
                    } else {
                        0.0
                    }),
                ),
                ("failures", Json::Arr(failures)),
                ("info", untraced.get("info").cloned().unwrap_or(Json::Null)),
                (
                    "end_to_end",
                    untraced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                ("per_layer", Json::Obj(layers)),
            ]),
        ));
    }
    Ok(Json::obj([
        ("host", host),
        ("workloads", Json::Obj(workloads)),
    ]))
}

/// One metric read back from a results document.
struct Read {
    summary: Summary,
    unit: String,
}

fn read_metric(doc: &Json) -> Option<Read> {
    let value = doc.get("value")?.as_f64()?;
    let f = |k: &str| doc.get(k).and_then(Json::as_f64);
    Some(Read {
        summary: Summary {
            value,
            p25: f("p25").unwrap_or(value),
            p75: f("p75").unwrap_or(value),
            n: f("n").unwrap_or(1.0) as usize,
        },
        unit: doc
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
    })
}

fn section<'a>(merged: &'a Json, workload: &str, section: &str) -> &'a [(String, Json)] {
    merged
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(section))
        .and_then(Json::as_obj)
        .unwrap_or_default()
}

/// Significant digits enough to tell runs apart, few enough to read.
fn num(x: f64) -> String {
    let a = x.abs();
    if a == 0.0 {
        "0".to_string()
    } else if a >= 1e6 {
        format!("{x:.4e}")
    } else if a >= 100.0 {
        format!("{x:.1}")
    } else if a >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.5}")
    }
}

/// The merged document as a plain-text table, one row per metric.
pub fn table(merged: &Json) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<15} {:<34} {:>12} {:<6} {:>12} {:>12} {:>5}\n",
        "workload", "metric", "median", "unit", "p25", "p75", "n"
    ));
    for w in Workload::ALL {
        for (sec, mark) in [("end_to_end", ""), ("per_layer", "  ")] {
            for (name, doc) in section(merged, w.name(), sec) {
                let Some(m) = read_metric(doc) else { continue };
                out.push_str(&format!(
                    "{:<15} {:<34} {:>12} {:<6} {:>12} {:>12} {:>5}\n",
                    w.name(),
                    format!("{mark}{name}"),
                    num(m.summary.value),
                    m.unit,
                    num(m.summary.p25),
                    num(m.summary.p75),
                    m.summary.n
                ));
            }
        }
        let fail = merged
            .get("workloads")
            .and_then(|x| x.get(w.name()))
            .and_then(|x| x.get("fail_share"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        out.push_str(&format!(
            "{:<15} {:<34} {:>12}\n",
            w.name(),
            "fail_share",
            num(fail)
        ));
    }
    out
}

/// A declared end-to-end metric: direction and regression bound.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared(benchmark: &Json) -> Result<Vec<Declared>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// Layer metrics that count work: two runs of one commit and seed must
/// report the same number.
fn is_exact_count(name: &str) -> bool {
    name.ends_with(".S")
        || name.ends_with(".H")
        || matches!(
            name,
            "backend.pkts_moved"
                | "backend.bytes_moved"
                | "stream.tiles"
                | "stream.io_read_bytes"
                | "stream.io_write_bytes"
        )
}

#[derive(Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    pub regressed: usize,
    pub unresolved: usize,
    pub failed_checks: usize,
    pub count_mismatches: usize,
}

impl Verdict {
    pub fn clean(&self) -> bool {
        self.regressed == 0 && self.failed_checks == 0 && self.count_mismatches == 0
    }
}

/// Compare two merged results documents (`a` the base, `b` the candidate)
/// under the bounds `benchmark` declares. Returns the table and verdict.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<(String, Verdict), String> {
    let decl = declared(benchmark)?;
    let mut v = Verdict::default();
    let mut out = format!(
        "{:<15} {:<16} {:>12} {:>21} {:>12} {:>21} {:>8} {:>6}  {}\n",
        "workload",
        "metric",
        "a median",
        "a [p25, p75]",
        "b median",
        "b [p25, p75]",
        "worse by",
        "bound",
        "verdict"
    );
    for w in Workload::ALL {
        let (ea, eb) = (
            section(a, w.name(), "end_to_end"),
            section(b, w.name(), "end_to_end"),
        );
        for d in &decl {
            let find = |s: &[(String, Json)]| {
                s.iter()
                    .find(|(n, _)| *n == d.name)
                    .and_then(|(_, m)| read_metric(m))
            };
            let (Some(ma), Some(mb)) = (find(ea), find(eb)) else {
                return Err(format!(
                    "{} is missing {} in one of the files",
                    w.name(),
                    d.name
                ));
            };
            let (x, y) = (ma.summary.value, mb.summary.value);
            let worse = if d.lower_is_better {
                (y - x) / x
            } else {
                (x - y) / x
            };
            let spread = ma.summary.spread().max(mb.summary.spread());
            // A spread wider than the bound cannot tell "unchanged" from
            // "regressed": say so rather than pass it.
            let verdict = if spread > d.bound {
                v.unresolved += 1;
                "unresolved"
            } else if worse > d.bound {
                v.regressed += 1;
                "REGRESSED"
            } else {
                "ok"
            };
            let band = |s: &Summary| format!("[{}, {}]", num(s.p25), num(s.p75));
            out.push_str(&format!(
                "{:<15} {:<16} {:>12} {:>21} {:>12} {:>21} {:>7.1}% {:>5.0}%  {}\n",
                w.name(),
                d.name,
                num(x),
                band(&ma.summary),
                num(y),
                band(&mb.summary),
                worse * 100.0,
                d.bound * 100.0,
                verdict
            ));
        }
        for (side, doc) in [("a", a), ("b", b)] {
            let share = doc
                .get("workloads")
                .and_then(|x| x.get(w.name()))
                .and_then(|x| x.get("fail_share"))
                .and_then(Json::as_f64)
                .unwrap_or(1.0);
            if share != 0.0 {
                v.failed_checks += 1;
                out.push_str(&format!(
                    "{:<15} fail_share = {share} in {side}: must stay 0\n",
                    w.name()
                ));
            }
        }
    }

    // Exact counts bind only between runs of one commit and seed.
    let key = |doc: &Json, k: &str| doc.get("host").and_then(|h| h.get(k)).cloned();
    let same_inputs =
        key(a, "git_commit") == key(b, "git_commit") && key(a, "seed") == key(b, "seed");
    for w in Workload::ALL {
        let lb = section(b, w.name(), "per_layer");
        for (name, ma) in section(a, w.name(), "per_layer") {
            if !is_exact_count(name) {
                continue;
            }
            let x = ma.get("value").and_then(Json::as_f64);
            let y = lb
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, m)| m.get("value"))
                .and_then(Json::as_f64);
            if x != y {
                if same_inputs {
                    v.count_mismatches += 1;
                }
                out.push_str(&format!(
                    "{:<15} {name}: {x:?} in a, {y:?} in b{}\n",
                    w.name(),
                    if same_inputs {
                        " — counts of one commit and seed must be equal"
                    } else {
                        " (other commit or seed)"
                    }
                ));
            }
        }
    }
    out.push_str(&format!(
        "{} regressed, {} unresolved, {} with failed checks, {} count mismatches\n",
        v.regressed, v.unresolved, v.failed_checks, v.count_mismatches
    ));
    Ok((out, v))
}

/// `perf compare a.json b.json`: read, compare, print.
pub fn compare_files(a: &Path, b: &Path, benchmark: &Path) -> Result<(String, Verdict), String> {
    compare(&read_json(a)?, &read_json(b)?, &read_json(benchmark)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(wall: (f64, f64, f64), fails: f64, h: f64) -> Json {
        let metric = |(v, lo, hi): (f64, f64, f64)| {
            Json::obj([
                ("value", Json::Num(v)),
                ("unit", Json::str("s")),
                ("n", Json::Num(9.0)),
                ("p25", Json::Num(lo)),
                ("p75", Json::Num(hi)),
            ])
        };
        let wl = Json::obj([
            ("fail_share", Json::Num(fails)),
            ("end_to_end", Json::obj([("wall_s", metric(wall))])),
            ("per_layer", Json::obj([("nbody.H", metric((h, h, h)))])),
        ]);
        Json::obj([
            (
                "host",
                Json::obj([("git_commit", Json::str("abc")), ("seed", Json::Num(1.0))]),
            ),
            (
                "workloads",
                Json::Obj(
                    Workload::ALL
                        .iter()
                        .map(|w| (w.name().to_string(), wl.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    fn bench() -> Json {
        json::parse(r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}"#)
            .unwrap()
    }

    #[test]
    fn compare_applies_bounds_and_reports_unresolved() {
        let base = doc((1.0, 0.98, 1.02), 0.0, 5.0);
        let (_, v) = compare(&base, &doc((1.05, 1.0, 1.08), 0.0, 5.0), &bench()).unwrap();
        assert_eq!(v, Verdict::default());
        let (_, v) = compare(&base, &doc((1.2, 1.18, 1.22), 0.0, 5.0), &bench()).unwrap();
        assert_eq!((v.regressed, v.unresolved), (6, 0));
        // A spread wider than the bound is unresolved, not unchanged.
        let (text, v) = compare(&base, &doc((1.0, 0.9, 1.1), 0.0, 5.0), &bench()).unwrap();
        assert_eq!((v.regressed, v.unresolved), (0, 6));
        assert!(text.contains("unresolved") && v.clean());
        let (_, v) = compare(&base, &doc((1.0, 0.98, 1.02), 0.01, 6.0), &bench()).unwrap();
        assert_eq!((v.failed_checks, v.count_mismatches), (6, 6));
        assert!(!v.clean());
    }

    #[test]
    fn every_layer_prefix_has_an_owner() {
        for (name, w) in [
            ("nbody.S", Workload::AppsCoarse),
            ("tune.pick_p", Workload::AppsCoarse),
            ("graph.mst.H", Workload::AppsFine),
            ("backend.tcpsim.fine_wall_s", Workload::AppsFine),
            ("barrier.flag.sync_us", Workload::AppsFine),
            ("context.send_pkts_ns", Workload::ExchangePkt),
            ("backend.shared.boundary_us", Workload::ExchangePkt),
            ("context.send_bytes_64_ns", Workload::ExchangeBytes),
            ("backend.msgpass.bytes_per_s", Workload::ExchangeBytes),
            ("runner.setup_us", Workload::Jobs),
            ("sort.sample.wall_s", Workload::Stream),
        ] {
            assert_eq!(owner(name), Some(w), "{name}");
        }
        assert_eq!(owner("trace.overhead_ratio"), None);
    }
}

//! The benchmark checked against its own declaration: `BENCHMARK.json`
//! must be well formed, and a smoke run of all six workloads, untraced and
//! traced, must emit exactly the names and units it declares.

use perf::bench::Workload;
use perf::json::{self, Json};
use std::collections::BTreeSet;
use std::path::PathBuf;

const BENCHMARK: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

fn keys(obj: &Json) -> Vec<&str> {
    obj.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn text<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} must be a string"))
}

/// `(name, unit)` of every entry of one metric list.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

#[test]
fn benchmark_json_meets_the_contract() {
    assert!(BENCHMARK.len() <= 64 << 10);
    let doc = json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = doc.get("command").and_then(Json::as_arr).unwrap();
    assert!((1..=32).contains(&command.len()));
    assert!(command.iter().all(|c| c
        .as_str()
        .is_some_and(|s| s.len() <= 200 && !s.starts_with('/') && !s.contains(".."))));
    let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
    assert_eq!(paths, [Json::str("perf")]);
    let secs = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));

    let mut names = BTreeSet::new();
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(
        workloads
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Vec<_>>(),
        Workload::ALL.map(Workload::name)
    );
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {}",
            text(w, "name")
        );
        assert!(is_name(text(w, "name")) && names.insert(text(w, "name")));
    }

    let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", text(m, "name"));
    }
    let setup = e2e
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let widest = e2e
        .iter()
        .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").and_then(Json::as_f64),
        Some(widest),
        "setup_s has the largest bound"
    );

    let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert!((1..=128).contains(&layers.len()));
    for m in layers {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    for m in e2e.iter().chain(layers) {
        assert!(
            is_name(text(m, "name")) && names.insert(text(m, "name")),
            "name {}",
            text(m, "name")
        );
        assert!(is_unit(text(m, "unit")), "unit of {}", text(m, "name"));
        assert!(matches!(text(m, "better"), "lower" | "higher"));
    }
}

#[test]
fn smoke_run_emits_exactly_the_declared_metrics() {
    let doc = json::parse(BENCHMARK).unwrap();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let started = std::time::Instant::now();
    let runs = perf::cli::smoke(out.clone()).expect("the smoke run completes");
    assert_eq!(runs.len(), 12);
    for (w, traced, outcome) in &runs {
        let what = format!("{} --trace {}", w.name(), u8::from(*traced));
        assert_eq!(
            outcome.ledger.failed, 0,
            "{what}: {:?}",
            outcome.ledger.notes
        );
        assert!(outcome.ledger.attempted >= 1, "{what}");
        let line = json::parse(&outcome.result_line(*traced)).unwrap();
        assert_eq!(
            keys(&line),
            ["correct", "attempted", "failed", "metrics"],
            "{what}"
        );
        let emitted: Vec<(String, String)> = line
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(name, m)| {
                assert_eq!(keys(m), ["value", "unit"], "{what}: {name}");
                assert!(
                    m.get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite),
                    "{what}: {name}"
                );
                (name.clone(), text(m, "unit").to_string())
            })
            .collect();
        let sorted = |mut v: Vec<(String, String)>| {
            v.sort();
            v
        };
        let list = if *traced { "per_layer" } else { "end_to_end" };
        assert_eq!(
            sorted(emitted.clone()),
            sorted(declared(&doc, list)),
            "{what}"
        );
        for (name, unit) in &emitted {
            assert!(is_name(name) && is_unit(unit), "{what}: {name} [{unit}]");
        }
        if *traced {
            // Per app, the four shares account for the whole wall.
            let value = |name: String| {
                line.get("metrics")
                    .and_then(|m| m.get(&name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap()
            };
            for app in [
                "nbody",
                "graph.msp",
                "matmul",
                "ocean",
                "graph.sp",
                "graph.mst",
            ] {
                let sum: f64 = ["compute", "sync_wait", "launch", "other"]
                    .iter()
                    .map(|part| value(format!("{app}.{part}_share")))
                    .sum();
                assert!(
                    (sum - 1.0).abs() <= 0.01,
                    "{what}: {app} shares sum to {sum}"
                );
            }
            assert!(
                outcome.trace_file.as_ref().is_some_and(|p| p.exists()),
                "{what}: trace file"
            );
        } else {
            // End-to-end metrics are never 0.
            for (name, m) in line.get("metrics").and_then(Json::as_obj).unwrap() {
                assert!(
                    m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                    "{what}: {name} is 0"
                );
            }
        }
    }
    // No scratch directory outlives its run.
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
    // The twelve results files merge into one document and one table.
    let merged = perf::report::merge(&out).expect("results merge");
    let table = perf::report::table(&merged);
    for w in Workload::ALL {
        assert!(table.contains(w.name()));
    }
    let (_, verdict) = perf::report::compare(&merged, &merged, &doc).unwrap();
    assert_eq!(
        (
            verdict.regressed,
            verdict.failed_checks,
            verdict.count_mismatches
        ),
        (0, 0, 0)
    );
    assert!(
        started.elapsed().as_secs() < 60,
        "the smoke mode is meant to take seconds"
    );
}

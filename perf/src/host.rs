//! Host fingerprint and noise record written into every results file, and
//! the sizing rule that follows from the core count.

use crate::json::Json;
use std::process::Command;

/// How many BSP processes the workloads run at, derived from the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Width {
    /// Cores the process may run on (`available_parallelism`).
    pub nproc: usize,
    /// `P = min(nproc, 4)`: never more BSP processes than cores, because
    /// with `P > nproc` wall-clock scaling is scheduler noise.
    pub p: usize,
    /// `Q`: the largest perfect square ≤ `P` (Cannon needs a square grid).
    pub q: usize,
}

impl Width {
    pub fn detect() -> Width {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Width::for_cores(nproc)
    }

    pub fn for_cores(nproc: usize) -> Width {
        let p = nproc.clamp(1, 4);
        let side = (1..=p).take_while(|s| s * s <= p).last().unwrap_or(1);
        Width {
            nproc,
            p,
            q: side * side,
        }
    }

    /// More BSP processes than cores: parallel efficiency is then omitted.
    pub fn oversubscribed(&self) -> bool {
        self.p > self.nproc
    }
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The 1-, 5- and 15-minute load averages, or empty where `/proc` has none.
pub fn loadavg() -> Vec<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| {
            s.split_whitespace()
                .take(3)
                .filter_map(|x| x.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc`
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything about the host and build a reader needs to judge whether
/// two results files are comparable. Taken at start; the caller adds the
/// load average at the end.
pub fn fingerprint(w: Width, seed: u64) -> Vec<(String, Json)> {
    let load: Vec<Json> = loadavg().into_iter().map(Json::Num).collect();
    vec![
        ("nproc".into(), Json::Num(w.nproc as f64)),
        ("cpu_model".into(), Json::Str(cpu_model())),
        (
            "rustc".into(),
            Json::Str(first_line_of("rustc", &["--version"])),
        ),
        (
            "git_commit".into(),
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile".into(),
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("P".into(), Json::Num(w.p as f64)),
        ("Q".into(), Json::Num(w.q as f64)),
        ("seed".into(), Json::Num(seed as f64)),
        ("oversubscribed".into(), Json::Bool(w.oversubscribed())),
        ("loadavg_start".into(), Json::Arr(load)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_rule() {
        let w = |n| {
            let w = Width::for_cores(n);
            (w.p, w.q)
        };
        assert_eq!(w(1), (1, 1));
        assert_eq!(w(2), (2, 1));
        assert_eq!(w(3), (3, 1));
        assert_eq!(w(4), (4, 4));
        assert_eq!(w(64), (4, 4));
        assert!(!Width::for_cores(2).oversubscribed());
    }
}

//! `report lint` — sweep the six paper applications through the static
//! superstep-plan analyzer ([`green_bsp::lint`]).
//!
//! Each application's plan is recorded once on the checked sequential
//! simulator and cross-analyzed: boundary-skeleton congruence
//! (plan-deadlock), sync-graph discipline, split-window hygiene, and
//! checkpoint placement, plus everything the runtime checker files. The
//! applications are correct BSP programs, so *any* finding is an analyzer
//! false positive or a library bug — both failures. The relaxed-converted
//! apps run a second cell with their relaxed plan (ocean over its ghost
//! graph with neighborhood boundaries, sample sort split-phase) so the
//! analyzer is proven false-positive-free on non-bulk skeletons too, and
//! the sweep prints each plan's `T_i = w_i + g·h_i + L` prediction on the
//! paper's SGI machine.

use crate::apps::{prepare, App, Variant};
use green_bsp::{lint, BspError, Config, PlanReport, SGI};

/// Print one sweep cell's verdict; returns `false` on any finding.
fn report_cell(name: &str, variant: &str, report: Result<PlanReport, BspError>) -> bool {
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("  {name:8} {variant:8}: recording run FAILED: {e}");
            return false;
        }
    };
    let neigh = report.boundaries.iter().filter(|b| b.neigh).count();
    let split = report.boundaries.iter().filter(|b| b.split).count();
    if report.is_clean() {
        eprintln!(
            "  {name:8} {variant:8}: clean — {} supersteps ({} neigh, {} split), \
             predicted T {:.1}us (comm {:.0}%)",
            report.steps.len(),
            neigh,
            split,
            report.predicted.total() * 1e6,
            report.predicted.comm_fraction() * 100.0,
        );
        true
    } else {
        eprintln!(
            "  {name:8} {variant:8}: {} FINDING(S)",
            report.findings.len()
        );
        for r in &report.findings {
            eprintln!("    {r}");
        }
        false
    }
}

/// Run the full plan-analysis sweep; returns `true` when every plan is
/// clean.
pub fn run_lint(full: bool) -> bool {
    let mut clean = true;
    let p = 4;
    let machine = &SGI;

    // Measured pricing (ROADMAP item 5): probe the local executor's actual
    // g/L once (cached per process) so the plan tables can be priced with
    // parameters this host exhibits, next to the paper's published SGI
    // numbers.
    let cal = green_bsp::calibrate(green_bsp::BackendKind::Shared);
    let local = cal.machine("local");
    eprintln!(
        "calibrated local machine (shared backend, p = {}): g = {:.3} us/pkt, \
         L = {:.1} us/superstep",
        cal.nprocs, cal.g_us, cal.l_us
    );

    eprintln!(
        "== superstep-plan analysis (six apps, p = {p}, machine {}) ==",
        machine.name
    );
    for app in App::ALL {
        let program = app.program(&prepare(app, app.sweep_size(full)), p);
        let report = lint(&Config::new(p), machine, &*program);
        clean &= report_cell(app.name(), "bulk", report);
    }

    eprintln!("== relaxed plans (neighborhood / split-phase skeletons) ==");
    // Ocean with every eligible boundary relaxed over the ghost graph: the
    // plan's neighborhood boundaries must be congruent and every send must
    // respect the graph. Sample sort with split-phase boundaries: the split
    // windows must pair up and stay free of sends.
    let relaxed = [
        (Variant::Ocean { relaxed: true }, "relaxed"),
        (
            Variant::Sort {
                bytes: true,
                split: true,
            },
            "split",
        ),
    ];
    for (v, label) in relaxed {
        let report = lint(&v.config(p), machine, &*v.program(p, full));
        clean &= report_cell(&v.canonical().name(), label, report);
    }

    // Cost showcase: the full per-superstep table for Cannon's algorithm,
    // whose regular skeleton (2√p − 1 supersteps, fixed block h-relation)
    // makes the W / gH / LS split easy to eyeball.
    {
        let size = App::Matmult.sweep_size(full);
        let program = App::Matmult.program(&prepare(App::Matmult, size), p);
        if let Ok(report) = lint(&Config::new(p), machine, &*program) {
            eprintln!("== matmult (size {size}) plan on {} ==", machine.name);
            eprint!("{report}");
        }
        // The same plan priced with the measured local parameters: the
        // skeleton (W, h, S per step) is identical; only g and L differ.
        if let Ok(report) = lint(&Config::new(p), &local, &*program) {
            eprintln!(
                "== matmult (size {size}) plan on calibrated local (g = {:.3}, L = {:.1}) ==",
                cal.g_us, cal.l_us
            );
            eprint!("{report}");
        }
    }

    if clean {
        eprintln!("lint: all plans clean");
    } else {
        eprintln!("lint: FINDINGS (see above)");
    }
    clean
}

//! Bit pins for the ocean's multigrid kernels (`stencil.rs`).
//!
//! The kernels promise that every cell's expression and operand order are
//! fixed (see the module doc of `bsp_ocean::stencil`). These pins hold them
//! to it end to end: each row below was recorded from the index-form
//! kernels, and any rewrite of `rb_half_sweep`, `residual`,
//! `residual_norm2_local`, `restrict_to`, `prolong_add` or
//! `vorticity_step` must reproduce it exactly — the ψ bits of every block, the kinetic energy and ψ
//! integral bits, the V-cycle count, and the superstep count `S` and
//! traffic `H` (a cycle more or less in the adaptive mode shows in all
//! three).
//!
//! All fourteen runs take well under a second even in a debug build, so
//! none is `#[ignore]`d; CI also runs the file in release, the profile the
//! benchmark builds.

use bsp_ocean::{ocean_run, CycleMode, MgParams, OceanConfig};
use green_bsp::{run, Config};

/// One pinned run of `ocean_run` at paper size `size` on `p` processes:
/// `(size, p, ψ digest, kinetic-energy bits, ψ-integral bits, V-cycles, S,
/// packet-lane H, byte-lane H in bytes)`. The ψ digest is FNV-1a over every
/// process's block coordinates and ψ bits, in pid order; packet-lane `H`
/// is the coarse gather/scatter and the reductions, byte-lane `H` the ghost
/// strips.
type Pin = (usize, usize, u64, u64, u64, u64, u64, u64, u64);

const ADAPTIVE: CycleMode = CycleMode::Adaptive {
    rel_tol: 1e-5,
    max: 10,
};
const FIXED: CycleMode = CycleMode::Fixed(3);

#[rustfmt::skip]
const ADAPTIVE_66: &[Pin] = &[
    (66, 1, 13282488134837670894, 4518098465847312536, 4405573854679744512, 15, 387, 1920, 0),
    (66, 2, 15037348967368067926, 4518098465847312530, 4405573849433063424, 15, 387, 1940, 104832),
    (66, 4, 11358780140462005006, 4518098465847312536, 4405573848238391296, 15, 387, 1980, 120960),
    (66, 8, 5085464316884123502, 4518098465847312534, 4405573851459616768, 15, 387, 2060, 161616),
    (66, 16, 1245999056226977814, 4518098465847312534, 4405573843138117632, 15, 387, 2220, 162624),
];

#[rustfmt::skip]
const FIXED_66: &[Pin] = &[
    (66, 1, 6732592829183470442, 4518097908903721371, 4442943827789951232, 9, 225, 1152, 0),
    (66, 2, 16949636690770482662, 4518097908903721380, 4442943827603523328, 9, 225, 1154, 64176),
    (66, 4, 8705544677577440474, 4518097908903721380, 4442943827619086336, 9, 225, 1158, 73968),
    (66, 8, 10389712765568237442, 4518097908903721379, 4442943827719749632, 9, 225, 1166, 98784),
    (66, 16, 4796681861072760074, 4518097908903721380, 4442943827687243776, 9, 225, 1182, 99264),
];

#[rustfmt::skip]
const ADAPTIVE_258: &[Pin] = &[
    (258, 1, 8033045418709339806, 4500097110909085110, 4387747507656750080, 15, 597, 1920, 0),
    (258, 2, 15542319385617922450, 4500097110909085090, 4387748046201836544, 15, 597, 1940, 440808),
];

#[rustfmt::skip]
const FIXED_258: &[Pin] = &[
    (258, 1, 11465758424863756580, 4500096534545833032, 4425131063033140942, 9, 351, 1152, 0),
    (258, 2, 9702947033228720316, 4500096534545833068, 4425131065331453952, 9, 351, 1154, 269448),
];

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn observe(size: usize, p: usize, mode: CycleMode) -> Pin {
    let cfg = OceanConfig {
        mg: MgParams {
            mode,
            ..MgParams::default()
        },
        ..OceanConfig::new(size - 2)
    };
    let out = run(&Config::new(p), move |ctx| ocean_run(ctx, &cfg));
    let mut digest = 0xCBF2_9CE4_8422_2325;
    for o in &out.results {
        let (r0, c0, rows, cols, block) = &o.psi_block;
        for v in [*r0, *c0, *rows, *cols] {
            fnv(&mut digest, v as u64);
        }
        for v in block {
            fnv(&mut digest, v.to_bits());
        }
    }
    let o = &out.results[0];
    let reduced = |r: &bsp_ocean::OceanOut| {
        (
            r.kinetic_energy.to_bits(),
            r.psi_integral.to_bits(),
            r.cycles,
        )
    };
    assert!(
        out.results.iter().all(|r| reduced(r) == reduced(o)),
        "size {size} p={p}: processes disagree on the reduced diagnostics"
    );
    let (ke, psi, cycles) = reduced(o);
    let st = &out.stats;
    let (s, h_pkts, h_bytes) = (st.s(), st.h_total(), st.h_bytes_total());
    (size, p, digest, ke, psi, cycles, s, h_pkts, h_bytes)
}

fn check(mode: CycleMode, pins: &[Pin]) {
    let mut bad = Vec::new();
    for want in pins {
        let got = observe(want.0, want.1, mode);
        if got != *want {
            bad.push(format!("{mode:?}\n  want {want:?}\n  got  {got:?}"));
        }
    }
    assert!(bad.is_empty(), "kernel pins moved:\n{}", bad.join("\n"));
}

#[test]
fn paper_size_66_adaptive() {
    check(ADAPTIVE, ADAPTIVE_66);
}

#[test]
fn paper_size_66_fixed() {
    check(FIXED, FIXED_66);
}

#[test]
fn paper_size_258_adaptive() {
    check(ADAPTIVE, ADAPTIVE_258);
}

#[test]
fn paper_size_258_fixed() {
    check(FIXED, FIXED_258);
}

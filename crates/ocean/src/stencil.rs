//! Local stencil operations on a block: red-black Gauss-Seidel relaxation,
//! residual, cell-centered restriction and bilinear prolongation, and the
//! advection operators of the vorticity equation.
//!
//! All functions are pure local computation; ghost freshness is the
//! caller's contract (see [`crate::multigrid`]).
//!
//! **Arithmetic contract.** The five multigrid kernels and
//! `vorticity_step` walk exact-length row slices rather than indexing the
//! field once per neighbour, but each cell's expression and the order of
//! its operands are fixed: the five-point sums read up, down, left, right,
//! then centre, and the prolongation weighs `(9 c + 3 ch + 3 cv + cd) / 16`.
//! `residual_norm2_local` is one serial row-major `s += r * r`: the
//! adaptive cycle test compares that sum, so it is never split into lanes
//! or partial sums. No kernel may reassociate, call `mul_add`, or be built
//! with flags that let `a * b + c` contract into an FMA. This keeps every
//! output bit equal to the index-form kernels, which survive only as the
//! `#[cfg(test)]` reference below; `tests/kernel_pins.rs` enforces the
//! contract end to end, pinning ψ, the diagnostics, `S` and `H`.

use crate::grid::Level;

/// One half-sweep of red-black Gauss-Seidel for `∇²u = f`:
/// updates the cells with global parity `color` from their neighbours.
/// Requires fresh ghosts of the *other* colour.
pub fn rb_half_sweep(l: &Level, u: &mut [f64], f: &[f64], color: usize) {
    let h2 = l.h * l.h;
    let w = l.cols + 2;
    for i in 1..=l.rows {
        // First interior column with the right global parity.
        let first = 1 + (color + l.r0 + i - 1 + l.c0) % 2;
        // Cells of one colour read only the other colour, so updating
        // `mid` in place while reading its neighbours is order-free.
        let (above, rest) = u[(i - 1) * w..(i + 2) * w].split_at_mut(w);
        let (mid, below) = rest.split_at_mut(w);
        let f = &f[i * w..][..w];
        // A `while` over `j + 1 < w` rather than `step_by`: the bound
        // covers every read, so the loop carries no bounds checks.
        let mut j = first;
        while j + 1 < w {
            mid[j] = 0.25 * (above[j] + below[j] + mid[j - 1] + mid[j + 1] - h2 * f[j]);
            j += 2;
        }
    }
}

/// Row `i`'s five-point operands as exact-length slices: the interior
/// cells of the rows above and below, and row `i` with both ghosts, so
/// interior cell `j` (0-based) reads `up[j]`, `dn[j]`, `row[j..j + 3]`.
#[inline]
fn stencil_rows<'a>(l: &Level, u: &'a [f64], i: usize) -> (&'a [f64], &'a [f64], &'a [f64]) {
    let w = l.cols + 2;
    (
        &u[(i - 1) * w + 1..][..l.cols],
        &u[(i + 1) * w + 1..][..l.cols],
        &u[i * w..][..w],
    )
}

/// Residual `r = f − ∇²u` on the interior. Requires fresh ghosts of `u`.
pub fn residual(l: &Level, u: &[f64], f: &[f64], r: &mut [f64]) {
    let inv_h2 = 1.0 / (l.h * l.h);
    let w = l.cols + 2;
    for i in 1..=l.rows {
        let (up, dn, row) = stencil_rows(l, u, i);
        let f = &f[i * w + 1..][..l.cols];
        let r = &mut r[i * w + 1..][..l.cols];
        for j in 0..l.cols {
            let lap = (up[j] + dn[j] + row[j] + row[j + 2] - 4.0 * row[j + 1]) * inv_h2;
            r[j] = f[j] - lap;
        }
    }
}

/// Local sum of squared residual entries (for the global norm): one
/// serial row-major sum, see the module doc.
pub fn residual_norm2_local(l: &Level, u: &[f64], f: &[f64]) -> f64 {
    let inv_h2 = 1.0 / (l.h * l.h);
    let w = l.cols + 2;
    let mut s = 0.0;
    for i in 1..=l.rows {
        let (up, dn, row) = stencil_rows(l, u, i);
        let f = &f[i * w + 1..][..l.cols];
        for j in 0..l.cols {
            let lap = (up[j] + dn[j] + row[j] + row[j + 2] - 4.0 * row[j + 1]) * inv_h2;
            let r = f[j] - lap;
            s += r * r;
        }
    }
    s
}

/// Cell-centered restriction: each coarse cell is the average of its four
/// fine children. Purely local thanks to the aligned partition.
pub fn restrict_to(fine: &Level, coarse: &Level, r_fine: &[f64], f_coarse: &mut [f64]) {
    debug_assert_eq!(coarse.rows * 2, fine.rows);
    debug_assert_eq!(coarse.cols * 2, fine.cols);
    let wf = fine.cols + 2;
    let wc = coarse.cols + 2;
    for ii in 1..=coarse.rows {
        let fi = 2 * ii - 1;
        let top = &r_fine[fi * wf + 1..][..fine.cols];
        let bot = &r_fine[(fi + 1) * wf + 1..][..fine.cols];
        let out = &mut f_coarse[ii * wc + 1..][..coarse.cols];
        for ((o, t), b) in out
            .iter_mut()
            .zip(top.chunks_exact(2))
            .zip(bot.chunks_exact(2))
        {
            *o = 0.25 * (t[0] + t[1] + b[0] + b[1]);
        }
    }
}

/// Cell-centered bilinear prolongation, accumulated into the fine grid:
/// `u_fine += P(u_coarse)` with the standard (9, 3, 3, 1)/16 weights.
/// Requires fresh coarse ghosts *including corners*.
///
/// Assumes the aligned partition of [`crate::grid`] (asserted in debug
/// builds): the fine block starts at twice the coarse block's origin, so
/// fine rows and columns `2k − 1` and `2k` (1-based) are the children of
/// coarse row or column `k`, and a child's global parity is its local one.
pub fn prolong_add(coarse: &Level, fine: &Level, u_coarse: &[f64], u_fine: &mut [f64]) {
    debug_assert_eq!(coarse.rows * 2, fine.rows);
    debug_assert_eq!(coarse.cols * 2, fine.cols);
    debug_assert_eq!((fine.r0, fine.c0), (2 * coarse.r0, 2 * coarse.c0));
    let wf = fine.cols + 2;
    let wc = coarse.cols + 2;
    let weigh = |c: f64, ch: f64, cv: f64, cd: f64| (9.0 * c + 3.0 * ch + 3.0 * cv + cd) / 16.0;
    for fi in 1..=fine.rows {
        // The parent row, and its vertical neighbour on this child's side:
        // above for the first child (even global row), below for the second.
        let ci = (fi - 1) / 2 + 1;
        let cvi = if fi % 2 == 1 { ci - 1 } else { ci + 1 };
        let crow = &u_coarse[ci * wc..][..wc];
        let vrow = &u_coarse[cvi * wc..][..wc];
        let frow = &mut u_fine[fi * wf + 1..][..fine.cols];
        // Per coarse column k, `c` and `v` are columns k − 1, k, k + 1.
        for ((pair, c), v) in frow
            .chunks_exact_mut(2)
            .zip(crow.windows(3))
            .zip(vrow.windows(3))
        {
            // Child 2k − 1 (even global column) leans left, child 2k right.
            pair[0] += weigh(c[1], c[0], v[1], v[0]);
            pair[1] += weigh(c[1], c[2], v[1], v[2]);
        }
    }
}

/// The explicit vorticity tendency of the barotropic (β-plane) model:
///
/// `dζ/dt = −J(ψ, ζ) − β ψ_x + wind(y) − μ ζ + ν ∇²ζ`
///
/// with the Jacobian in central differences. Requires fresh ghosts of both
/// `psi` and `zeta`; writes the *updated* vorticity into `out`
/// (`out = ζ + dt · tendency`).
#[allow(clippy::too_many_arguments)]
pub fn vorticity_step(
    l: &Level,
    psi: &[f64],
    zeta: &[f64],
    out: &mut [f64],
    dt: f64,
    beta: f64,
    wind_amp: f64,
    mu: f64,
    nu: f64,
) {
    let w = l.cols + 2;
    let inv2h = 1.0 / (2.0 * l.h);
    let inv_h2 = 1.0 / (l.h * l.h);
    for i in 1..=l.rows {
        let y = (l.r0 + i - 1) as f64 * l.h + 0.5 * l.h;
        // Munk gyre wind-stress curl.
        let wind = -wind_amp * (std::f64::consts::PI * y).cos();
        let (p_up, p_dn, p_row) = stencil_rows(l, psi, i);
        let (z_up, z_dn, z_row) = stencil_rows(l, zeta, i);
        let out = &mut out[i * w + 1..][..l.cols];
        for j in 0..l.cols {
            let z = z_row[j + 1];
            let psi_x = (p_row[j + 2] - p_row[j]) * inv2h;
            let psi_y = (p_dn[j] - p_up[j]) * inv2h;
            let zeta_x = (z_row[j + 2] - z_row[j]) * inv2h;
            let zeta_y = (z_dn[j] - z_up[j]) * inv2h;
            let jac = psi_x * zeta_y - psi_y * zeta_x;
            let lap_zeta = (z_up[j] + z_dn[j] + z_row[j] + z_row[j + 2] - 4.0 * z) * inv_h2;
            let tend = -jac - beta * psi_x + wind - mu * z + nu * lap_zeta;
            out[j] = z + dt * tend;
        }
    }
}

/// Local kinetic-energy contribution `½ Σ |∇ψ|² h²` (central differences;
/// fresh ψ ghosts required).
pub fn kinetic_energy_local(l: &Level, psi: &[f64]) -> f64 {
    let w = l.cols + 2;
    let inv2h = 1.0 / (2.0 * l.h);
    let mut ke = 0.0;
    for i in 1..=l.rows {
        for j in 1..=l.cols {
            let idx = i * w + j;
            let u = -(psi[idx + w] - psi[idx - w]) * inv2h;
            let v = (psi[idx + 1] - psi[idx - 1]) * inv2h;
            ke += 0.5 * (u * u + v * v);
        }
    }
    ke * l.h * l.h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Hierarchy;

    /// The index-form kernels the row-slice kernels replaced: the bit
    /// reference for the property tests below.
    mod reference {
        use crate::grid::Level;

        pub fn rb_half_sweep(l: &Level, u: &mut [f64], f: &[f64], color: usize) {
            let h2 = l.h * l.h;
            let w = l.cols + 2;
            for i in 1..=l.rows {
                let gi = l.r0 + i - 1;
                let gj0 = l.c0;
                let off = (color + gi + gj0) % 2;
                let mut j = 1 + off;
                while j <= l.cols {
                    let idx = i * w + j;
                    u[idx] =
                        0.25 * (u[idx - w] + u[idx + w] + u[idx - 1] + u[idx + 1] - h2 * f[idx]);
                    j += 2;
                }
            }
        }

        pub fn residual(l: &Level, u: &[f64], f: &[f64], r: &mut [f64]) {
            let inv_h2 = 1.0 / (l.h * l.h);
            let w = l.cols + 2;
            for i in 1..=l.rows {
                for j in 1..=l.cols {
                    let idx = i * w + j;
                    let lap =
                        (u[idx - w] + u[idx + w] + u[idx - 1] + u[idx + 1] - 4.0 * u[idx]) * inv_h2;
                    r[idx] = f[idx] - lap;
                }
            }
        }

        pub fn residual_norm2_local(l: &Level, u: &[f64], f: &[f64]) -> f64 {
            let inv_h2 = 1.0 / (l.h * l.h);
            let w = l.cols + 2;
            let mut s = 0.0;
            for i in 1..=l.rows {
                for j in 1..=l.cols {
                    let idx = i * w + j;
                    let lap =
                        (u[idx - w] + u[idx + w] + u[idx - 1] + u[idx + 1] - 4.0 * u[idx]) * inv_h2;
                    let r = f[idx] - lap;
                    s += r * r;
                }
            }
            s
        }

        pub fn restrict_to(fine: &Level, coarse: &Level, r_fine: &[f64], f_coarse: &mut [f64]) {
            let wf = fine.cols + 2;
            let wc = coarse.cols + 2;
            for ii in 1..=coarse.rows {
                for jj in 1..=coarse.cols {
                    let fi = 2 * ii - 1;
                    let fj = 2 * jj - 1;
                    let base = fi * wf + fj;
                    f_coarse[ii * wc + jj] = 0.25
                        * (r_fine[base]
                            + r_fine[base + 1]
                            + r_fine[base + wf]
                            + r_fine[base + wf + 1]);
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        pub fn vorticity_step(
            l: &Level,
            psi: &[f64],
            zeta: &[f64],
            out: &mut [f64],
            dt: f64,
            beta: f64,
            wind_amp: f64,
            mu: f64,
            nu: f64,
        ) {
            let w = l.cols + 2;
            let inv2h = 1.0 / (2.0 * l.h);
            let inv_h2 = 1.0 / (l.h * l.h);
            for i in 1..=l.rows {
                let y = (l.r0 + i - 1) as f64 * l.h + 0.5 * l.h;
                let wind = -wind_amp * (std::f64::consts::PI * y).cos();
                for j in 1..=l.cols {
                    let idx = i * w + j;
                    let psi_x = (psi[idx + 1] - psi[idx - 1]) * inv2h;
                    let psi_y = (psi[idx + w] - psi[idx - w]) * inv2h;
                    let zeta_x = (zeta[idx + 1] - zeta[idx - 1]) * inv2h;
                    let zeta_y = (zeta[idx + w] - zeta[idx - w]) * inv2h;
                    let jac = psi_x * zeta_y - psi_y * zeta_x;
                    let lap_zeta = (zeta[idx - w] + zeta[idx + w] + zeta[idx - 1] + zeta[idx + 1]
                        - 4.0 * zeta[idx])
                        * inv_h2;
                    let tend = -jac - beta * psi_x + wind - mu * zeta[idx] + nu * lap_zeta;
                    out[idx] = zeta[idx] + dt * tend;
                }
            }
        }

        pub fn prolong_add(coarse: &Level, fine: &Level, u_coarse: &[f64], u_fine: &mut [f64]) {
            let wf = fine.cols + 2;
            let wc = coarse.cols + 2;
            for fi in 1..=fine.rows {
                let gfi = fine.r0 + fi - 1;
                let ci = gfi / 2 - coarse.r0 + 1;
                let di: isize = if gfi.is_multiple_of(2) { -1 } else { 1 };
                for fj in 1..=fine.cols {
                    let gfj = fine.c0 + fj - 1;
                    let cj = gfj / 2 - coarse.c0 + 1;
                    let dj: isize = if gfj.is_multiple_of(2) { -1 } else { 1 };
                    let c = u_coarse[ci * wc + cj];
                    let ch = u_coarse[ci * wc + (cj as isize + dj) as usize];
                    let cv = u_coarse[(ci as isize + di) as usize * wc + cj];
                    let cd =
                        u_coarse[(ci as isize + di) as usize * wc + (cj as isize + dj) as usize];
                    u_fine[fi * wf + fj] += (9.0 * c + 3.0 * ch + 3.0 * cv + cd) / 16.0;
                }
            }
        }
    }

    /// A field of `len` values in [−1, 1) from a splitmix64 stream, ghosts
    /// included, so every kernel reads non-trivial neighbours everywhere.
    fn random_field(len: usize, seed: &mut u64) -> Vec<f64> {
        (0..len)
            .map(|_| {
                *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn row_kernels_match_index_reference_bit_for_bit() {
        // Every parity of the block origin, both colours, odd and even
        // block shapes down to a single cell.
        let mut seed = 1;
        for (r0, c0) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            for (rows, cols) in [(1, 1), (1, 4), (3, 5), (6, 4), (7, 7)] {
                let l = Level {
                    n: 16,
                    r0,
                    rows,
                    c0,
                    cols,
                    h: 1.0 / 16.0,
                };
                let u0 = random_field(l.field_len(), &mut seed);
                let f = random_field(l.field_len(), &mut seed);
                let at = format!("r0={r0} c0={c0} {rows}x{cols}");
                for color in 0..2 {
                    let (mut a, mut b) = (u0.clone(), u0.clone());
                    rb_half_sweep(&l, &mut a, &f, color);
                    reference::rb_half_sweep(&l, &mut b, &f, color);
                    assert_eq!(bits(&a), bits(&b), "{at} colour {color}");
                }
                let r0_field = random_field(l.field_len(), &mut seed);
                let (mut a, mut b) = (r0_field.clone(), r0_field);
                residual(&l, &u0, &f, &mut a);
                reference::residual(&l, &u0, &f, &mut b);
                assert_eq!(bits(&a), bits(&b), "{at} residual");
                assert_eq!(
                    residual_norm2_local(&l, &u0, &f).to_bits(),
                    reference::residual_norm2_local(&l, &u0, &f).to_bits(),
                    "{at} norm"
                );
                let z0 = random_field(l.field_len(), &mut seed);
                let (mut a, mut b) = (z0.clone(), z0);
                let (dt, beta, wind, mu, nu) = (0.0125, 5.0, 2.0, 0.3, 2e-4);
                vorticity_step(&l, &u0, &f, &mut a, dt, beta, wind, mu, nu);
                reference::vorticity_step(&l, &u0, &f, &mut b, dt, beta, wind, mu, nu);
                assert_eq!(bits(&a), bits(&b), "{at} vorticity");
            }
        }
    }

    #[test]
    fn transfers_match_index_reference_on_real_hierarchies() {
        // Every level pair of every block for p up to 8, so blocks start at
        // non-zero (and, on coarse levels, odd) offsets.
        let mut seed = 2;
        for p in [1usize, 2, 4, 8] {
            for pid in 0..p {
                let h = Hierarchy::new(pid, p, 64, 4);
                for (k, pair) in h.levels.windows(2).enumerate() {
                    let (fine, coarse) = (pair[0], pair[1]);
                    let at = format!("p={p} pid={pid} level {k}");
                    let r = random_field(fine.field_len(), &mut seed);
                    let fc0 = random_field(coarse.field_len(), &mut seed);
                    let (mut a, mut b) = (fc0.clone(), fc0);
                    restrict_to(&fine, &coarse, &r, &mut a);
                    reference::restrict_to(&fine, &coarse, &r, &mut b);
                    assert_eq!(bits(&a), bits(&b), "{at} restrict");
                    let uc = random_field(coarse.field_len(), &mut seed);
                    let uf0 = random_field(fine.field_len(), &mut seed);
                    let (mut a, mut b) = (uf0.clone(), uf0);
                    prolong_add(&coarse, &fine, &uc, &mut a);
                    reference::prolong_add(&coarse, &fine, &uc, &mut b);
                    assert_eq!(bits(&a), bits(&b), "{at} prolong");
                }
            }
        }
    }

    fn single_level(n: usize) -> Level {
        Hierarchy::new(0, 1, n, n).levels[0]
    }

    /// Fill ghosts by Dirichlet reflection for a single-proc level.
    fn reflect(l: &Level, u: &mut [f64]) {
        let w = l.cols + 2;
        for j in 1..=l.cols {
            u[j] = -u[w + j];
            u[(l.rows + 1) * w + j] = -u[l.rows * w + j];
        }
        for i in 1..=l.rows {
            u[i * w] = -u[i * w + 1];
            u[i * w + l.cols + 1] = -u[i * w + l.cols];
        }
        u[0] = u[w + 1];
        u[l.cols + 1] = u[w + l.cols];
        u[(l.rows + 1) * w] = u[l.rows * w + 1];
        u[(l.rows + 1) * w + l.cols + 1] = u[l.rows * w + l.cols];
    }

    #[test]
    fn gauss_seidel_reduces_residual() {
        let l = single_level(16);
        let mut u = l.zeros();
        let mut f = l.zeros();
        for i in 1..=l.rows {
            for j in 1..=l.cols {
                f[l.at(i, j)] = ((i * 7 + j * 13) % 5) as f64 - 2.0;
            }
        }
        reflect(&l, &mut u);
        let before = residual_norm2_local(&l, &u, &f);
        for _ in 0..50 {
            rb_half_sweep(&l, &mut u, &f, 0);
            reflect(&l, &mut u);
            rb_half_sweep(&l, &mut u, &f, 1);
            reflect(&l, &mut u);
        }
        let after = residual_norm2_local(&l, &u, &f);
        assert!(after < before * 1e-2, "GS stalled: {before} -> {after}");
    }

    #[test]
    fn residual_zero_for_exact_discrete_solution() {
        // If u solves the 5-point system exactly, the residual vanishes.
        let l = single_level(8);
        let mut u = l.zeros();
        let mut f = l.zeros();
        for i in 1..=l.rows {
            for j in 1..=l.cols {
                u[l.at(i, j)] = (i * j) as f64;
            }
        }
        reflect(&l, &mut u);
        // Manufacture f = ∇²u discretely.
        let w = l.cols + 2;
        let inv_h2 = 1.0 / (l.h * l.h);
        for i in 1..=l.rows {
            for j in 1..=l.cols {
                let idx = i * w + j;
                f[idx] =
                    (u[idx - w] + u[idx + w] + u[idx - 1] + u[idx + 1] - 4.0 * u[idx]) * inv_h2;
            }
        }
        assert!(residual_norm2_local(&l, &u, &f) < 1e-18);
    }

    #[test]
    fn restriction_averages_children() {
        let h = Hierarchy::new(0, 1, 8, 4);
        let (fine, coarse) = (h.levels[0], h.levels[1]);
        let mut r = fine.zeros();
        for i in 1..=fine.rows {
            for j in 1..=fine.cols {
                r[fine.at(i, j)] = 1.0; // constant field
            }
        }
        let mut fc = coarse.zeros();
        restrict_to(&fine, &coarse, &r, &mut fc);
        for i in 1..=coarse.rows {
            for j in 1..=coarse.cols {
                assert_eq!(fc[coarse.at(i, j)], 1.0, "constant preserved");
            }
        }
    }

    #[test]
    fn prolongation_reproduces_linear_fields() {
        // Bilinear prolongation must reproduce an affine function exactly
        // (away from the reflected boundary ghosts).
        let h = Hierarchy::new(0, 1, 16, 8);
        let (fine, coarse) = (h.levels[0], h.levels[1]);
        let mut uc = coarse.zeros();
        let lin = |x: f64, y: f64| 2.0 * x - 0.5 * y + 0.25;
        // Fill coarse interior AND ghosts with the linear field (bypassing
        // reflection, to test pure interpolation).
        for i in 0..=coarse.rows + 1 {
            for j in 0..=coarse.cols + 1 {
                let x = (i as f64 - 0.5) * coarse.h;
                let y = (j as f64 - 0.5) * coarse.h;
                uc[coarse.at(i, j)] = lin(x, y);
            }
        }
        let mut uf = fine.zeros();
        prolong_add(&coarse, &fine, &uc, &mut uf);
        for i in 1..=fine.rows {
            for j in 1..=fine.cols {
                let x = (i as f64 - 0.5) * fine.h;
                let y = (j as f64 - 0.5) * fine.h;
                let expect = lin(x, y);
                assert!(
                    (uf[fine.at(i, j)] - expect).abs() < 1e-12,
                    "({i},{j}): {} vs {}",
                    uf[fine.at(i, j)],
                    expect
                );
            }
        }
    }

    #[test]
    fn vorticity_tendency_of_rest_state_is_wind() {
        // ψ = ζ = 0: tendency is exactly the wind forcing.
        let l = single_level(8);
        let psi = l.zeros();
        let zeta = l.zeros();
        let mut out = l.zeros();
        vorticity_step(&l, &psi, &zeta, &mut out, 0.1, 5.0, 2.0, 0.3, 0.01);
        for i in 1..=l.rows {
            let y = (i as f64 - 0.5) * l.h;
            let wind = -2.0 * (std::f64::consts::PI * y).cos();
            for j in 1..=l.cols {
                assert!((out[l.at(i, j)] - 0.1 * wind).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn kinetic_energy_of_uniform_flow() {
        // ψ = y gives u = -1, v = 0 -> KE = ½ per unit area. Use interior
        // cells away from boundary reflection.
        let l = single_level(32);
        let mut psi = l.zeros();
        for i in 0..=l.rows + 1 {
            for j in 0..=l.cols + 1 {
                psi[l.at(i, j)] = (i as f64 - 0.5) * l.h; // ψ = y (row axis)
            }
        }
        let ke = kinetic_energy_local(&l, &psi);
        assert!((ke - 0.5).abs() < 1e-9, "KE {ke}");
    }
}

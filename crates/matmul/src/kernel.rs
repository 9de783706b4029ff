//! Dense matrices and the sequential blocked multiplication kernel.
//!
//! The paper's local computation is "a sequential blocked matrix
//! multiplication algorithm"; this is the same kernel used both as the
//! 1-processor baseline and as the per-block multiply inside Cannon.
//!
//! **Arithmetic contract.** [`blocked_matmul_acc`] packs slabs of `B` and
//! strips of `A` and holds 4×4 tiles of `C` in locals, but every `c[i][j]`
//! still receives `a[i][kk] * b[kk][j]` for ascending `kk`, as one multiply
//! then one add, on top of its previous value. No kernel may reassociate,
//! split a sum into partial sums, call `mul_add`, or be built with flags
//! that let `a * b + c` contract into an FMA. This keeps every output bit
//! equal to [`matmul_naive`] and to the i-k-j loop in 32³ cache blocks it
//! replaced, which survives as the `#[cfg(test)]` reference below;
//! `tests/cannon_pins.rs` enforces the contract end to end, pinning every
//! process's Cannon block to the naive loop in Cannon's round order.

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major data, `rows * cols` entries.
    pub data: Vec<f64>,
}

impl Mat {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a generator function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Mat {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Mat { rows, cols, data }
    }

    /// Pseudo-random matrix with entries in `[-1, 1)`, deterministic in `seed`.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Mat {
        // A tiny splitmix64 keeps this crate free of heavyweight deps in the
        // hot path and bit-reproducible across platforms.
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Mat::from_fn(rows, cols, |_, _| {
            (next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
    }

    /// Entry accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable entry accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// Extract the `(bi, bj)` block of size `b × b` (requires `b` divides
    /// both dimensions).
    pub fn block(&self, bi: usize, bj: usize, b: usize) -> Mat {
        let mut out = Mat::zeros(b, b);
        for r in 0..b {
            let src = (bi * b + r) * self.cols + bj * b;
            out.data[r * b..(r + 1) * b].copy_from_slice(&self.data[src..src + b]);
        }
        out
    }

    /// Largest absolute difference against another matrix of equal shape.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Rows of `C` in one register tile.
const MR: usize = 4;
/// Columns of `C` in one register tile.
const NR: usize = 4;
/// Depth of one packed slab of `k`: a slab of `B` is `KC × m` entries
/// (576 KiB at `m` = 576), and a strip of `A` is `KC × MR` (4 KiB).
const KC: usize = 128;

/// Blocked sequential multiply-accumulate: `c += a · b`.
///
/// For each `KC`-deep slab of `k`, `B` is packed into `NR`-column panels
/// stored k-major and each `MR`-row strip of `A` is packed k-major, so the
/// tile loop reads both with unit stride. Each `MR × NR` tile of `C` stays
/// in locals for the whole slab, loaded once and stored once; the rows and
/// columns past the last whole tile take the plain i-k-j loop.
pub fn blocked_matmul_acc(c: &mut Mat, a: &Mat, b: &Mat) {
    assert_eq!(a.cols, b.rows);
    assert_eq!((c.rows, c.cols), (a.rows, b.cols));
    let (n, m, k) = (a.rows, b.cols, a.cols);
    let (ni, nj) = (n - n % MR, m - m % NR);
    let mut b_pack = vec![0.0; KC.min(k) * nj];
    let mut a_pack = vec![0.0; KC.min(k) * MR];
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        let b_pack = &mut b_pack[..kc * nj];
        for (jp, panel) in b_pack.chunks_exact_mut(kc * NR).enumerate() {
            for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                let src = (k0 + kk) * m + jp * NR;
                dst.copy_from_slice(&b.data[src..src + NR]);
            }
        }
        let a_pack = &mut a_pack[..kc * MR];
        for i0 in (0..ni).step_by(MR) {
            for (kk, dst) in a_pack.chunks_exact_mut(MR).enumerate() {
                for (r, v) in dst.iter_mut().enumerate() {
                    *v = a.data[(i0 + r) * k + k0 + kk];
                }
            }
            for (jp, panel) in b_pack.chunks_exact(kc * NR).enumerate() {
                tile(&mut c.data[i0 * m + jp * NR..], m, a_pack, panel);
            }
        }
        plain(c, a, b, (0, ni), (nj, m), (k0, k0 + kc));
        plain(c, a, b, (ni, n), (0, m), (k0, k0 + kc));
    }
}

/// `c[r][s] += a[kk][r] * b[kk][s]` for ascending `kk`, where `c` starts at
/// the tile's top-left entry with row stride `m`, and `a`/`b` are a packed
/// strip and panel of equal depth. The tile lives in 16 locals; under the
/// default x86-64 target the loop body is 8 `mulpd` and 8 `addpd`.
#[inline(always)]
fn tile(c: &mut [f64], m: usize, a: &[f64], b: &[f64]) {
    let mut t = [[0.0; NR]; MR];
    for (r, row) in t.iter_mut().enumerate() {
        row.copy_from_slice(&c[r * m..r * m + NR]);
    }
    for (a, b) in a.as_chunks::<MR>().0.iter().zip(b.as_chunks::<NR>().0) {
        for (row, &ar) in t.iter_mut().zip(a) {
            for (v, &bs) in row.iter_mut().zip(b) {
                *v += ar * bs;
            }
        }
    }
    for (r, row) in t.iter().enumerate() {
        c[r * m..r * m + NR].copy_from_slice(row);
    }
}

/// The plain i-k-j loop, `c += a · b` restricted to rows `i0..i1`,
/// columns `j0..j1` and depths `k0..k1`.
fn plain(
    c: &mut Mat,
    a: &Mat,
    b: &Mat,
    (i0, i1): (usize, usize),
    (j0, j1): (usize, usize),
    (k0, k1): (usize, usize),
) {
    let (m, k) = (b.cols, a.cols);
    for i in i0..i1 {
        for kk in k0..k1 {
            let aik = a.data[i * k + kk];
            let brow = &b.data[kk * m + j0..kk * m + j1];
            let crow = &mut c.data[i * m + j0..i * m + j1];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += aik * bv;
            }
        }
    }
}

/// Blocked sequential multiply: `a · b`.
pub fn blocked_matmul(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.rows, b.cols);
    blocked_matmul_acc(&mut c, a, b);
    c
}

/// Triple-loop reference multiply (for validating the blocked kernel).
pub fn matmul_naive(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.cols, b.rows);
    let mut c = Mat::zeros(a.rows, b.cols);
    for i in 0..a.rows {
        for kk in 0..a.cols {
            let aik = a.at(i, kk);
            for j in 0..b.cols {
                *c.at_mut(i, j) += aik * b.at(kk, j);
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The i-k-j loop in 32³ cache blocks that the packed kernel replaced:
    /// the oracle for its bits.
    fn reference(c: &mut Mat, a: &Mat, b: &Mat) {
        const BLOCK: usize = 32;
        let (n, m, k) = (a.rows, b.cols, a.cols);
        for i0 in (0..n).step_by(BLOCK) {
            for k0 in (0..k).step_by(BLOCK) {
                for j0 in (0..m).step_by(BLOCK) {
                    let i1 = (i0 + BLOCK).min(n);
                    let k1 = (k0 + BLOCK).min(k);
                    let j1 = (j0 + BLOCK).min(m);
                    for i in i0..i1 {
                        for kk in k0..k1 {
                            let aik = a.data[i * k + kk];
                            let brow = &b.data[kk * m + j0..kk * m + j1];
                            let crow = &mut c.data[i * m + j0..i * m + j1];
                            for (cv, bv) in crow.iter_mut().zip(brow) {
                                *cv += aik * bv;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Index of the first entry whose bits differ, if any.
    fn first_diff(x: &Mat, y: &Mat) -> Option<usize> {
        assert_eq!((x.rows, x.cols), (y.rows, y.cols));
        x.data
            .iter()
            .zip(&y.data)
            .position(|(u, v)| u.to_bits() != v.to_bits())
    }

    /// `c0 + a · b` by the packed kernel and by the reference must agree
    /// bit for bit; from a zero `c0` both must also equal `matmul_naive`.
    fn check_exact(c0: &Mat, a: &Mat, b: &Mat) {
        let shape = (a.rows, a.cols, b.cols);
        let mut got = c0.clone();
        blocked_matmul_acc(&mut got, a, b);
        let mut want = c0.clone();
        reference(&mut want, a, b);
        assert_eq!(first_diff(&got, &want), None, "{shape:?}: vs reference");
        if c0.data.iter().all(|&v| v == 0.0) {
            let naive = matmul_naive(a, b);
            assert_eq!(first_diff(&got, &naive), None, "{shape:?}: vs naive");
        }
    }

    #[test]
    fn blocked_matches_naive() {
        for n in [1usize, 2, 3, 4, 5, 7, 31, 32, 33, 64, 100, 130] {
            let a = Mat::random(n, n, 1);
            let b = Mat::random(n, n, 2);
            check_exact(&Mat::zeros(n, n), &a, &b);
        }
    }

    #[test]
    fn rectangular_shapes() {
        // Every row and column remainder of the 4×4 tile, against slab
        // depths on both sides of 128 and past two slab boundaries.
        for n in 1..=8 {
            for m in [1usize, 2, 3, 4, 9, 10, 11, 12] {
                for k in [1usize, 127, 128, 129, 257] {
                    let a = Mat::random(n, k, (n * 1000 + m * 10) as u64);
                    let b = Mat::random(k, m, k as u64);
                    check_exact(&Mat::zeros(n, m), &a, &b);
                    check_exact(&Mat::random(n, m, 7), &a, &b);
                }
            }
        }
        let c = blocked_matmul(&Mat::random(13, 40, 3), &Mat::random(40, 9, 4));
        assert_eq!((c.rows, c.cols), (13, 9));
    }

    #[test]
    fn identity_multiplication() {
        let n = 48;
        let a = Mat::random(n, n, 5);
        let id = Mat::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(blocked_matmul(&a, &id).max_abs_diff(&a), 0.0);
        assert_eq!(blocked_matmul(&id, &a).max_abs_diff(&a), 0.0);
    }

    #[test]
    fn block_extraction() {
        let m = Mat::from_fn(6, 6, |r, c| (r * 10 + c) as f64);
        let blk = m.block(1, 2, 2);
        assert_eq!(blk.data, vec![24.0, 25.0, 34.0, 35.0]);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Mat::random(20, 20, 9);
        let b = Mat::random(20, 20, 9);
        assert_eq!(a, b);
        assert!(a.data.iter().all(|v| (-1.0..1.0).contains(v)));
        assert_ne!(a, Mat::random(20, 20, 10));
    }

    #[test]
    fn accumulate_adds_to_existing() {
        for (n, k) in [(16, 16), (18, 129), (21, 257)] {
            let a = Mat::random(n, k, 11);
            let b = Mat::random(k, n, 12);
            check_exact(&Mat::from_fn(n, n, |_, _| 1.0), &a, &b);
            check_exact(&Mat::random(n, n, 13), &a, &b);
            check_exact(&Mat::zeros(n, n), &a, &b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn any_shape_is_bit_exact(
            (n, m, k) in (1usize..=70, 1usize..=70, 1usize..=70),
            seed in any::<u64>(),
            zero_start in any::<bool>(),
        ) {
            let a = Mat::random(n, k, seed);
            let b = Mat::random(k, m, seed ^ 1);
            let c0 = if zero_start {
                Mat::zeros(n, m)
            } else {
                Mat::random(n, m, seed ^ 2)
            };
            check_exact(&c0, &a, &b);
        }
    }
}

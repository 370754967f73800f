//! The symmetric eigensolver behind the count trainer: the leading
//! positive eigenvectors of a sparse symmetric matrix, in scalar `f64`.
//!
//! Block subspace iteration from a seeded start converges a block of
//! `dim + OVERSAMPLE` orthonormal columns onto the dominant invariant
//! subspace; one Rayleigh–Ritz step then diagonalises the matrix restricted
//! to that block with cyclic Jacobi rotations. Every loop runs in a fixed
//! order with plain multiplies and adds (no `mul_add`, no lane dispatch), so
//! the result is the same bits on every ISA and at every thread count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Block columns beyond `dim`: directions the iteration carries to sharpen
/// the wanted ones, and slack for negative eigenvalues of large magnitude,
/// which the block also converges onto and the trainer then drops.
const OVERSAMPLE: usize = 8;

/// Subspace iterations. Each costs one sparse block product and one
/// orthonormalisation.
const ITERATIONS: usize = 40;

/// Cap on cyclic Jacobi sweeps; a block converges in well under ten.
const MAX_SWEEPS: usize = 60;

/// A symmetric `n × n` matrix in compressed sparse rows, both triangles
/// stored: row `r`'s entries are `cols[offsets[r]..offsets[r + 1]]` with
/// values `vals[…]`, columns ascending.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SparseSymmetric {
    pub(crate) offsets: Vec<usize>,
    pub(crate) cols: Vec<u32>,
    pub(crate) vals: Vec<f64>,
}

impl SparseSymmetric {
    /// Rows (and columns).
    pub(crate) fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `y = M x` for an `n × b` row-major block `x`.
    fn mul_block(&self, x: &[f64], b: usize, y: &mut [f64]) {
        y.fill(0.0);
        for (r, out) in y.chunks_exact_mut(b).enumerate() {
            let span = self.offsets[r]..self.offsets[r + 1];
            for (&c, &v) in self.cols[span.clone()].iter().zip(&self.vals[span]) {
                let row = &x[c as usize * b..][..b];
                for (o, &xi) in out.iter_mut().zip(row) {
                    *o += v * xi;
                }
            }
        }
    }
}

/// The eigenvectors of the `dim` largest positive eigenvalues of `m`, as an
/// `n × dim` row-major matrix: column `k` is the unit eigenvector of the
/// `k`-th largest, its sign fixed so its largest-magnitude entry (the first,
/// on ties) is positive. Columns without a positive eigenvalue — all of
/// them for a matrix with none, and those past its rank — are zero. `seed`
/// draws the start block.
pub(crate) fn top_positive_eigenvectors(m: &SparseSymmetric, dim: usize, seed: u64) -> Vec<f64> {
    let n = m.n();
    let mut out = vec![0.0; n * dim];
    let b = n.min(dim + OVERSAMPLE);
    if b == 0 {
        return out;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x: Vec<f64> = (0..n * b).map(|_| rng.gen::<f64>() - 0.5).collect();
    let mut y = vec![0.0; n * b];
    orthonormalize(&mut x, b);
    iterate(m, 0.0, &mut x, &mut y, b);
    let (mut theta, mut w) = rayleigh_ritz(m, &x, &mut y, b);
    // The block converges onto the eigenvalues largest in magnitude. When
    // negative ones crowd wanted positive ones out of it, iterate on with
    // `M − λ_low·I`, `λ_low` the lowest Ritz value: that shift makes the
    // largest eigenvalues of `M` the dominant ones.
    let lowest = theta.iter().copied().fold(0.0, f64::min);
    if b < n && lowest < 0.0 && theta.iter().filter(|&&t| t > 0.0).count() < dim {
        iterate(m, -lowest, &mut x, &mut y, b);
        (theta, w) = rayleigh_ritz(m, &x, &mut y, b);
    }
    let mut order: Vec<usize> = (0..b).filter(|&k| theta[k] > 0.0).collect();
    order.sort_by(|&p, &q| theta[q].total_cmp(&theta[p]).then(p.cmp(&q)));
    order.truncate(dim);

    // Ritz vectors U = X W for the kept eigenvalues.
    let mut u = vec![0.0; n];
    for (slot, &k) in order.iter().enumerate() {
        for (ur, xr) in u.iter_mut().zip(x.chunks_exact(b)) {
            *ur = xr
                .iter()
                .enumerate()
                .map(|(l, &xl)| xl * w[l * b + k])
                .sum();
        }
        let lead = u.iter().fold(
            0.0f64,
            |best, &v| if v.abs() > best.abs() { v } else { best },
        );
        let sign = if lead < 0.0 { -1.0 } else { 1.0 };
        for (r, &v) in u.iter().enumerate() {
            out[r * dim + slot] = sign * v;
        }
    }
    out
}

/// [`ITERATIONS`] steps of `X ← orth((M + shift·I) X)` on the `n × b`
/// block `x`, with `y` as scratch.
fn iterate(m: &SparseSymmetric, shift: f64, x: &mut Vec<f64>, y: &mut Vec<f64>, b: usize) {
    for _ in 0..ITERATIONS {
        m.mul_block(x, b, y);
        if shift != 0.0 {
            for (yi, &xi) in y.iter_mut().zip(x.iter()) {
                *yi += shift * xi;
            }
        }
        std::mem::swap(x, y);
        orthonormalize(x, b);
    }
}

/// Rayleigh–Ritz on the orthonormal block `x`: diagonalises `T = Xᵀ M X`
/// (symmetrised) and returns its eigenvalues and its `b × b` row-major
/// eigenvector matrix. `y` is scratch.
fn rayleigh_ritz(m: &SparseSymmetric, x: &[f64], y: &mut [f64], b: usize) -> (Vec<f64>, Vec<f64>) {
    m.mul_block(x, b, y);
    let mut t = vec![0.0; b * b];
    for (xr, yr) in x.chunks_exact(b).zip(y.chunks_exact(b)) {
        for (k, &xk) in xr.iter().enumerate() {
            for (l, &yl) in yr.iter().enumerate() {
                t[k * b + l] += xk * yl;
            }
        }
    }
    for k in 0..b {
        for l in k + 1..b {
            let s = 0.5 * (t[k * b + l] + t[l * b + k]);
            t[k * b + l] = s;
            t[l * b + k] = s;
        }
    }
    let w = jacobi_eigen(&mut t, b);
    ((0..b).map(|k| t[k * b + k]).collect(), w)
}

/// Orthonormalises the columns of the `n × b` row-major block `x` in order,
/// by classical Gram–Schmidt applied twice ("twice is enough"). A column
/// that loses nearly all its norm to its predecessors lies in their span;
/// it becomes zero and stays out of the basis.
fn orthonormalize(x: &mut [f64], b: usize) {
    let mut h = vec![0.0; b];
    for k in 0..b {
        let before = column_norm(x, b, k);
        for _ in 0..2 {
            h[..k].fill(0.0);
            for row in x.chunks_exact(b) {
                let xk = row[k];
                for (hl, &xl) in h[..k].iter_mut().zip(&row[..k]) {
                    *hl += xl * xk;
                }
            }
            for row in x.chunks_exact_mut(b) {
                let proj: f64 = row[..k].iter().zip(&h[..k]).map(|(&xl, &hl)| xl * hl).sum();
                row[k] -= proj;
            }
        }
        let norm = column_norm(x, b, k);
        let scale = if norm > 1e-10 * before {
            1.0 / norm
        } else {
            0.0
        };
        for row in x.chunks_exact_mut(b) {
            row[k] *= scale;
        }
    }
}

fn column_norm(x: &[f64], b: usize, k: usize) -> f64 {
    x.chunks_exact(b)
        .map(|row| row[k] * row[k])
        .sum::<f64>()
        .sqrt()
}

/// Diagonalises the symmetric `b × b` row-major matrix `a` in place by
/// cyclic Jacobi rotations: on return its diagonal holds the eigenvalues,
/// and the returned `b × b` row-major matrix holds the matching unit
/// eigenvectors as columns. Sweeps stop once the off-diagonal mass is
/// negligible against the whole.
fn jacobi_eigen(a: &mut [f64], b: usize) -> Vec<f64> {
    let mut v = vec![0.0; b * b];
    for k in 0..b {
        v[k * b + k] = 1.0;
    }
    let total: f64 = a.iter().map(|x| x * x).sum();
    for _ in 0..MAX_SWEEPS {
        let off: f64 = (0..b)
            .flat_map(|p| (p + 1..b).map(move |q| (p, q)))
            .map(|(p, q)| a[p * b + q] * a[p * b + q])
            .sum();
        if off <= 1e-30 * total {
            break;
        }
        for p in 0..b {
            for q in p + 1..b {
                let apq = a[p * b + q];
                if apq == 0.0 {
                    continue;
                }
                let theta = (a[q * b + q] - a[p * b + p]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                rotate_columns(a, b, p, q, c, s);
                rotate_columns(&mut v, b, p, q, c, s);
                for k in 0..b {
                    let (apk, aqk) = (a[p * b + k], a[q * b + k]);
                    a[p * b + k] = c * apk - s * aqk;
                    a[q * b + k] = s * apk + c * aqk;
                }
                a[p * b + q] = 0.0;
                a[q * b + p] = 0.0;
            }
        }
    }
    v
}

/// Columns `p` and `q` of the `b`-wide row-major `m` become
/// `c·p − s·q` and `s·p + c·q`.
fn rotate_columns(m: &mut [f64], b: usize, p: usize, q: usize, c: f64, s: f64) {
    for row in m.chunks_exact_mut(b) {
        let (mp, mq) = (row[p], row[q]);
        row[p] = c * mp - s * mq;
        row[q] = s * mp + c * mq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dense symmetric matrix, stored sparse (exact zeros dropped).
    fn sparse(n: usize, dense: &[f64]) -> SparseSymmetric {
        let mut offsets = vec![0];
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for r in 0..n {
            for c in 0..n {
                if dense[r * n + c] != 0.0 {
                    cols.push(c as u32);
                    vals.push(dense[r * n + c]);
                }
            }
            offsets.push(cols.len());
        }
        SparseSymmetric {
            offsets,
            cols,
            vals,
        }
    }

    #[test]
    fn jacobi_diagonalises_a_symmetric_matrix() {
        let b = 4;
        let a0 = [
            4.0, 1.0, -2.0, 0.5, //
            1.0, 3.0, 0.0, 1.5, //
            -2.0, 0.0, -1.0, 2.0, //
            0.5, 1.5, 2.0, 0.25,
        ];
        let mut a = a0.to_vec();
        let v = jacobi_eigen(&mut a, b);
        for p in 0..b {
            for q in 0..b {
                // Vᵀ V = I and V Λ Vᵀ = A.
                let vtv: f64 = (0..b).map(|k| v[k * b + p] * v[k * b + q]).sum();
                assert!((vtv - f64::from(u8::from(p == q))).abs() < 1e-12);
                let back: f64 = (0..b)
                    .map(|k| v[p * b + k] * a[k * b + k] * v[q * b + k])
                    .sum();
                assert!((back - a0[p * b + q]).abs() < 1e-12, "({p}, {q})");
                if p != q {
                    assert!(a[p * b + q].abs() < 1e-12);
                }
            }
        }
    }

    /// Block diagonal: `[[2, 1], [1, 3]]` (eigenvalues (5 ± √5) / 2), then
    /// 5, −4 and 0 on the diagonal. The positive eigenvalues in order are 5,
    /// 3.62 and 1.38; −4 and 0 give no column, so the last two are zero.
    #[test]
    fn keeps_the_positive_eigenvectors_in_descending_order() {
        let n = 5;
        let mut dense = vec![0.0; n * n];
        dense[0] = 2.0;
        dense[1] = 1.0;
        dense[n] = 1.0;
        dense[n + 1] = 3.0;
        dense[2 * n + 2] = 5.0;
        dense[3 * n + 3] = -4.0;
        let dim = 5;
        let u = top_positive_eigenvectors(&sparse(n, &dense), dim, 3);
        let column = |k: usize| (0..n).map(|r| u[r * dim + k]).collect::<Vec<_>>();
        // (1, φ) and (φ, −1) normalised, φ the golden ratio; each sign
        // makes the larger entry positive.
        let phi = (1.0 + 5f64.sqrt()) / 2.0;
        let norm = (1.0 + phi * phi).sqrt();
        let (a, b) = (1.0 / norm, phi / norm);
        let want = [
            vec![0.0, 0.0, 1.0, 0.0, 0.0],
            vec![a, b, 0.0, 0.0, 0.0],
            vec![b, -a, 0.0, 0.0, 0.0],
            vec![0.0; 5],
            vec![0.0; 5],
        ];
        for (k, want) in want.iter().enumerate() {
            for (got, want) in column(k).iter().zip(want) {
                assert!((got - want).abs() < 1e-9, "column {k}: {:?}", column(k));
            }
        }
    }

    /// Twelve negative eigenvalues larger in magnitude than any positive
    /// one fill the first round's block of 9; the shifted round must still
    /// find the two largest positive eigenvalues, 8 and 7.
    #[test]
    fn negative_eigenvalues_do_not_crowd_out_the_positive_ones() {
        let n = 20;
        let mut dense = vec![0.0; n * n];
        for i in 0..12 {
            dense[i * n + i] = -10.0 - i as f64;
        }
        for i in 12..n {
            dense[i * n + i] = (i - 11) as f64;
        }
        let dim = 2;
        let u = top_positive_eigenvectors(&sparse(n, &dense), dim, 5);
        for (k, want) in [(0, 19), (1, 18)] {
            for r in 0..n {
                let e = if r == want { 1.0 } else { 0.0 };
                assert!((u[r * dim + k] - e).abs() < 1e-9, "column {k}, row {r}");
            }
        }
    }

    /// A rank-one matrix has one positive eigenvalue. The iteration
    /// collapses the block's other columns onto it, orthonormalisation
    /// zeroes them, and the null space gives zero columns, not noise.
    #[test]
    fn a_rank_deficient_matrix_gives_zero_columns_past_its_rank() {
        let n = 6;
        let v: Vec<f64> = (0..n).map(|i| 0.3 + 0.1 * i as f64).collect();
        let dense: Vec<f64> = (0..n * n).map(|k| v[k / n] * v[k % n]).collect();
        let dim = 4;
        let u = top_positive_eigenvectors(&sparse(n, &dense), dim, 2);
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        for r in 0..n {
            assert!((u[r * dim] - v[r] / norm).abs() < 1e-9, "row {r}");
            assert_eq!(&u[r * dim + 1..(r + 1) * dim], &[0.0; 3], "row {r}");
        }
    }

    #[test]
    fn a_matrix_without_positive_eigenvalues_gives_zero_vectors() {
        let n = 3;
        let dense = [-2.0, 1.0, 0.0, 1.0, -2.0, 1.0, 0.0, 1.0, -2.0];
        let u = top_positive_eigenvectors(&sparse(n, &dense), 4, 1);
        assert_eq!(u, vec![0.0; n * 4]);
        let empty = sparse(3, &[0.0; 9]);
        assert_eq!(top_positive_eigenvectors(&empty, 2, 1), vec![0.0; 6]);
        assert!(top_positive_eigenvectors(&sparse(0, &[]), 2, 1).is_empty());
    }
}

//! Symmetric eigendecomposition: Householder tridiagonalization followed by
//! implicit-shift QL.
//!
//! PCA (the paper's Algorithm 1) needs the full spectrum of an `M × M`
//! covariance/Gram matrix, with `M` up to 500 on LeNet's `fc1` and growing
//! with the network. The solver is the classic two-phase one (`tred2` +
//! `tql2` of EISPACK): Householder reflections reduce the matrix to
//! tridiagonal form while accumulating the orthogonal transform, then QL
//! iterations with Wilkinson-style implicit shifts deflate one eigenvalue at
//! a time, folding every plane rotation into the transform. The cost is a
//! fixed ~`4n³/3` for the reduction plus a few rotation passes per
//! eigenvalue, against Jacobi-style sweeps whose count grows with `n`.
//!
//! The transform is stored **transposed** (`w[j][k]` holds `Q[k][j]`): the
//! reduction's inner loops then walk rows, and each QL rotation mixes two
//! contiguous rows — unit-stride streams the compiler vectorizes. All
//! arithmetic is `f64` in one fixed serial order, so results are
//! deterministic; the public API converts from/to the workspace's `f32`
//! [`Matrix`].

use crate::error::{LinalgError, Result};
use crate::Matrix;

/// Maximum QL iterations spent on any one eigenvalue before reporting
/// non-convergence (one to three is typical).
const MAX_QL_ITERS: usize = 64;

/// Result of a symmetric eigendecomposition: `A = V · diag(λ) · Vᵀ`.
///
/// Eigenvalues are sorted in descending order; `vectors` holds the matching
/// eigenvectors as columns.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column, same order as `values`.
    pub vectors: Matrix,
}

impl SymEig {
    /// Reconstructs `V · diag(λ) · Vᵀ` (mainly useful in tests).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.vectors.rows();
        let k = self.values.len();
        let mut scaled = self.vectors.clone();
        for j in 0..k {
            let lam = self.values[j] as f32;
            for i in 0..n {
                scaled[(i, j)] *= lam;
            }
        }
        scaled.matmul_nt(&self.vectors)
    }
}

/// Computes the eigendecomposition of a symmetric matrix.
///
/// Symmetry is enforced by averaging `A` with `Aᵀ`; callers passing an
/// asymmetric matrix get the decomposition of `(A + Aᵀ)/2`.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] for non-square input and
/// [`LinalgError::NoConvergence`] if some eigenvalue has not deflated within
/// the QL iteration cap (does not happen for finite input).
///
/// # Examples
///
/// ```
/// use scissor_linalg::{sym_eig, Matrix};
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let eig = sym_eig(&a)?;
/// assert!((eig.values[0] - 3.0).abs() < 1e-9);
/// assert!((eig.values[1] - 1.0).abs() < 1e-9);
/// # Ok::<(), scissor_linalg::LinalgError>(())
/// ```
pub fn sym_eig(a: &Matrix) -> Result<SymEig> {
    if a.rows() != a.cols() {
        return Err(LinalgError::ShapeMismatch {
            expected: (a.rows(), a.rows()),
            actual: a.shape(),
            op: "sym_eig",
        });
    }
    let n = a.rows();
    let mut buf = vec![0.0_f64; n * n];
    for i in 0..n {
        for j in 0..n {
            buf[i * n + j] = 0.5 * (a[(i, j)] as f64 + a[(j, i)] as f64);
        }
    }
    let (values, vectors) = sym_eig_f64(&mut buf, n)?;
    Ok(SymEig { values, vectors: Matrix::from_f64_vec(n, n, &vectors) })
}

/// Eigendecomposition over a raw `f64` buffer: `a` is a row-major,
/// symmetric `n × n` matrix (only its upper triangle is read) and is
/// destroyed. Returns `(eigenvalues desc, eigenvectors)`, the eigenvectors
/// as the columns of a row-major `n × n` matrix.
pub(crate) fn sym_eig_f64(a: &mut [f64], n: usize) -> Result<(Vec<f64>, Vec<f64>)> {
    if n <= 1 {
        return Ok((a.to_vec(), vec![1.0; n]));
    }
    let mut d = vec![0.0_f64; n];
    let mut e = vec![0.0_f64; n];
    tridiagonalize(a, n, &mut d, &mut e);
    tridiagonal_ql(a, n, &mut d, &mut e)?;

    // Descending order; row `old` of the transposed transform is the
    // eigenvector of `d[old]`.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
    let values = order.iter().map(|&i| d[i]).collect();
    let mut vectors = vec![0.0_f64; n * n];
    for (col, &old) in order.iter().enumerate() {
        for (row, &x) in a[old * n..old * n + n].iter().enumerate() {
            vectors[row * n + col] = x;
        }
    }
    Ok((values, vectors))
}

/// Householder reduction to tridiagonal form (`tred2`), in place: on return
/// `d` is the diagonal, `e[1..]` the sub-diagonal (`e[0] = 0`) and `w` the
/// transposed orthogonal transform `Qᵀ` with `A = Q·T·Qᵀ`.
fn tridiagonalize(w: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    for j in 0..n {
        d[j] = w[j * n + n - 1];
    }
    for i in (1..n).rev() {
        // Reflect row i of the active block onto its sub-diagonal; `d[..i]`
        // holds that row on entry.
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
                w[i * n + j] = 0.0;
            }
        } else {
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);

            // e = A·u over the active block (u = d[..i]), keeping u in row i.
            for j in 0..i {
                let f = d[j];
                w[i * n + j] = f;
                let row = &w[j * n..j * n + i];
                let mut g = e[j] + row[j] * f;
                for k in j + 1..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            // Rank-2 update A -= u·eᵀ + e·uᵀ of the active block.
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                for (k, x) in w[j * n + j..j * n + i].iter_mut().enumerate() {
                    *x -= f * e[j + k] + g * d[j + k];
                }
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate the reflections into Qᵀ (row i+1 holds reflection i+1's
    // vector; column n-1 temporarily parks the diagonal).
    for i in 0..n - 1 {
        w[i * n + n - 1] = w[i * n + i];
        w[i * n + i] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            let (head, tail) = w.split_at_mut((i + 1) * n);
            let u = &tail[..=i];
            for (dk, &uk) in d[..=i].iter_mut().zip(u) {
                *dk = uk / h;
            }
            for j in 0..=i {
                let row = &mut head[j * n..j * n + i + 1];
                let g: f64 = u.iter().zip(row.iter()).map(|(a, b)| a * b).sum();
                for (x, &dk) in row.iter_mut().zip(&d[..=i]) {
                    *x -= g * dk;
                }
            }
        }
        w[(i + 1) * n..(i + 1) * n + i + 1].fill(0.0);
    }
    for j in 0..n {
        d[j] = w[j * n + n - 1];
        w[j * n + n - 1] = 0.0;
    }
    w[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal `(d, e)` from [`tridiagonalize`]
/// (`tql2`): on return `d` holds the eigenvalues (unsorted) and row `j` of
/// `w` the eigenvector of `d[j]`.
fn tridiagonal_ql(w: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) -> Result<()> {
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut f = 0.0_f64;
    let mut tst1 = 0.0_f64;
    for l in 0..n {
        // Find the first negligible sub-diagonal element at or after l.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let tol = f64::EPSILON * tst1;
        // NaN is never negligible, so non-finite input ends in the error.
        let negligible = |x: f64| x.abs() <= tol;
        let mut m = l;
        while m < n - 1 && !negligible(e[m]) {
            m += 1;
        }
        // m > l implies e[l] is not negligible, so this runs at least once
        // when m > l and then repeats until e[l] deflates.
        let mut iters = 0;
        while m > l && !negligible(e[l]) {
            iters += 1;
            if iters > MAX_QL_ITERS {
                return Err(LinalgError::NoConvergence {
                    solver: "tridiagonal QL eigensolver",
                    sweeps: MAX_QL_ITERS,
                });
            }
            // Shift from the leading 2×2 block.
            let g = d[l];
            let p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for x in &mut d[l + 2..] {
                *x -= h;
            }
            f += h;

            // Chase the bulge from m up to l with plane rotations.
            let mut p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * e[i];
                let h = c * p;
                let r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                let (head, tail) = w.split_at_mut((i + 1) * n);
                for (x, y) in head[i * n..].iter_mut().zip(&mut tail[..n]) {
                    let h = *y;
                    *y = s * *x + c * h;
                    *x = c * *x - s * h;
                }
            }
            p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows)
    }

    /// Solves the `f64` matrix `g` and asserts the solver's contract: the
    /// residual `‖GV − VΛ‖_F ≤ 1e-12·‖G‖_F`, `max|VᵀV − I| ≤ 1e-12`,
    /// `Σλ = trace` and descending eigenvalues. Returns the eigenvalues.
    fn solve_and_check(g: &[f64], n: usize) -> Vec<f64> {
        let (values, v) = sym_eig_f64(&mut g.to_vec(), n).unwrap();
        assert_eq!((values.len(), v.len()), (n, n * n));
        let frob = g.iter().map(|x| x * x).sum::<f64>().sqrt();
        let mut residual = 0.0_f64;
        for i in 0..n {
            for j in 0..n {
                let gv: f64 = (0..n).map(|k| g[i * n + k] * v[k * n + j]).sum();
                residual += (gv - v[i * n + j] * values[j]).powi(2);
            }
        }
        assert!(residual.sqrt() <= 1e-12 * frob, "residual {} vs ‖G‖ {frob}", residual.sqrt());
        let mut worst = 0.0_f64;
        for i in 0..n {
            for j in 0..n {
                let dot: f64 = (0..n).map(|k| v[k * n + i] * v[k * n + j]).sum();
                worst = worst.max((dot - if i == j { 1.0 } else { 0.0 }).abs());
            }
        }
        assert!(worst <= 1e-12, "max|VᵀV − I| = {worst}");
        let trace: f64 = (0..n).map(|i| g[i * n + i]).sum();
        let sum: f64 = values.iter().sum();
        assert!((sum - trace).abs() <= 1e-12 * frob.max(1.0), "Σλ = {sum}, trace = {trace}");
        assert!(values.windows(2).all(|p| p[0] >= p[1]), "eigenvalues not descending");
        values
    }

    /// A deterministic dense `rows × cols` matrix with no special structure.
    fn dense(rows: usize, cols: usize, seed: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            ((i * 13 + j * 29 + seed * 7) % 31) as f32 * 0.11 - 1.6
                + ((i + 2 * j + seed) as f32 * 0.25).sin()
        })
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = mat(&[&[1.0, 0.0, 0.0], &[0.0, 5.0, 0.0], &[0.0, 0.0, 3.0]]);
        let e = sym_eig(&a).unwrap();
        assert_eq!(e.values.len(), 3);
        assert!((e.values[0] - 5.0).abs() < 1e-10);
        assert!((e.values[1] - 3.0).abs() < 1e-10);
        assert!((e.values[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn two_by_two_known_spectrum() {
        let a = mat(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = sym_eig(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-9);
        assert!((e.values[1] - 1.0).abs() < 1e-9);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = e.vectors.col(0);
        assert!((v0[0].abs() - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-5);
        assert!((v0[0] - v0[1]).abs() < 1e-5);
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = mat(&[
            &[4.0, 1.0, -2.0, 0.5],
            &[1.0, 3.0, 0.0, 1.5],
            &[-2.0, 0.0, 5.0, -1.0],
            &[0.5, 1.5, -1.0, 2.0],
        ]);
        let e = sym_eig(&a).unwrap();
        let r = e.reconstruct();
        assert!(a.relative_error(&r) < 1e-9, "relative error {}", a.relative_error(&r));
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Matrix::from_fn(12, 12, |i, j| {
            let x = ((i * 7 + j * 3) % 13) as f32 - 6.0;
            let y = ((j * 7 + i * 3) % 13) as f32 - 6.0;
            0.5 * (x + y)
        });
        let e = sym_eig(&a).unwrap();
        let vtv = e.vectors.matmul_tn(&e.vectors);
        for i in 0..12 {
            for j in 0..12 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expect).abs() < 1e-4, "V'V[{i},{j}]={}", vtv[(i, j)]);
            }
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_fn(9, 9, |i, j| {
            let v = ((i * j + i + j) % 5) as f32;
            if i == j {
                v + 4.0
            } else {
                v * 0.5
            }
        });
        let sym = a.add(&a.transpose()).map(|v| v * 0.5);
        let e = sym_eig(&sym).unwrap();
        let trace: f64 = (0..9).map(|i| sym[(i, i)] as f64).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-6);
    }

    #[test]
    fn psd_gram_has_nonnegative_spectrum() {
        let w = Matrix::from_fn(20, 8, |i, j| ((i * 5 + j * 11) % 17) as f32 * 0.1 - 0.8);
        let g = w.gram_f64();
        let gm = Matrix::from_f64_vec(8, 8, &g);
        let e = sym_eig(&gm).unwrap();
        for &v in &e.values {
            assert!(v > -1e-6, "negative eigenvalue {v} for a Gram matrix");
        }
        // descending
        for pair in e.values.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-9);
        }
    }

    #[test]
    fn rejects_non_square() {
        assert!(matches!(sym_eig(&Matrix::zeros(2, 3)), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn zero_matrix_and_tiny_sizes() {
        let e = sym_eig(&Matrix::zeros(4, 4)).unwrap();
        assert!(e.values.iter().all(|&v| v == 0.0));
        let e1 = sym_eig(&Matrix::filled(1, 1, 7.0)).unwrap();
        assert_eq!(e1.values, vec![7.0]);
        assert_eq!(e1.vectors, Matrix::filled(1, 1, 1.0));
        let e0 = sym_eig(&Matrix::zeros(0, 0)).unwrap();
        assert!(e0.values.is_empty());
        // The same inputs meet the full contract, orthonormal basis included.
        solve_and_check(&[0.0; 16], 4);
        solve_and_check(&[7.0], 1);
        solve_and_check(&[], 0);
    }

    #[test]
    fn non_finite_input_reports_no_convergence() {
        let mut a = vec![1.0, f64::NAN, 0.5, f64::NAN, 2.0, 0.0, 0.5, 0.0, 3.0];
        assert!(matches!(sym_eig_f64(&mut a, 3), Err(LinalgError::NoConvergence { .. })));
    }

    /// A well-conditioned symmetric test matrix at an order well past the
    /// small hand-checked cases.
    fn large_symmetric(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let x = ((i * 7 + j * 3) % 29) as f32 - 14.0;
            let y = ((j * 7 + i * 3) % 29) as f32 - 14.0;
            let diag = if i == j { n as f32 } else { 0.0 };
            0.25 * (x + y) + diag
        })
    }

    #[test]
    fn order_80_reconstructs_input() {
        let a = large_symmetric(80);
        let e = sym_eig(&a).unwrap();
        let r = e.reconstruct();
        assert!(a.relative_error(&r) < 1e-6, "relative error {}", a.relative_error(&r));
    }

    #[test]
    fn order_66_eigenvectors_are_orthonormal() {
        let n = 66;
        let a = large_symmetric(n);
        let e = sym_eig(&a).unwrap();
        let vtv = e.vectors.matmul_tn(&e.vectors);
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expect).abs() < 1e-4, "V'V[{i},{j}]={}", vtv[(i, j)]);
            }
        }
    }

    #[test]
    fn odd_order_67_keeps_trace_and_reconstructs() {
        // Odd order: the reduction's last reflection and the QL chase both
        // end on an unpaired index.
        let n = 67;
        let a = large_symmetric(n);
        let e = sym_eig(&a).unwrap();
        let trace: f64 = (0..n).map(|i| a[(i, i)] as f64).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-5 * trace.abs().max(1.0));
        let r = e.reconstruct();
        assert!(a.relative_error(&r) < 1e-6);
    }

    #[test]
    fn gram_of_order_128_spectrum_is_nonnegative_and_sums_to_frobenius() {
        // Eigenvalues of WᵀW are the squared singular values: nonnegative,
        // summing to ‖W‖²_F.
        let n = 128;
        let w = Matrix::from_fn(3 * n, n, |i, j| ((i * 5 + j * 11) % 23) as f32 * 0.1 - 1.1);
        let gm = Matrix::from_f64_vec(n, n, &w.gram_f64());
        let e = sym_eig(&gm).unwrap();
        let frob_sq = w.frobenius_norm_sq();
        for &lam in &e.values {
            assert!(lam > -1e-9 * frob_sq, "Gram matrix eigenvalue {lam} below zero");
        }
        let sum: f64 = e.values.iter().sum();
        assert!((sum - frob_sq).abs() <= 1e-8 * frob_sq, "Σλ = {sum} but ‖W‖²_F = {frob_sq}");
    }

    #[test]
    fn asymmetric_input_is_symmetrized() {
        let a = mat(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let e = sym_eig(&a).unwrap();
        // Spectrum of [[1,1],[1,1]] is {2, 0}.
        assert!((e.values[0] - 2.0).abs() < 1e-9);
        assert!(e.values[1].abs() < 1e-9);
    }

    #[test]
    fn fc1_gram_of_order_500() {
        // LeNet fc1's shape: the largest solve of a LeNet compression pass.
        let g = dense(800, 500, 1).gram_f64();
        let values = solve_and_check(&g, 500);
        assert!(values[499] > -1e-12 * values[0], "Gram spectrum dips below zero");
    }

    #[test]
    fn nearly_diagonal_gram_of_a_clip_step() {
        // The clip-step input: U = W·V for V from a prior fit of W, so UᵀU
        // is diagonal up to round-off (plus an f32 perturbation, as after
        // a few training iterations).
        let w = dense(300, 120, 2);
        let n = w.cols();
        let (_, v) = sym_eig_f64(&mut w.gram_f64(), n).unwrap();
        let u = w.matmul(&Matrix::from_f64_vec(n, n, &v));
        let u = Matrix::from_fn(u.rows(), n, |i, j| u[(i, j)] + 1e-3 * ((i * j) as f32).cos());
        solve_and_check(&u.gram_f64(), n);
    }

    #[test]
    fn repeated_eigenvalues() {
        let n = 40;
        let identity: Vec<f64> =
            (0..n * n).map(|i| if i % (n + 1) == 0 { 1.0 } else { 0.0 }).collect();
        let values = solve_and_check(&identity, n);
        assert!(values.iter().all(|&v| v == 1.0), "identity spectrum {values:?}");

        // Two diagonal blocks with the same spectrum: every eigenvalue
        // appears (at least) twice.
        let b = 20;
        let block = dense(30, b, 3).gram_f64();
        let mut g = vec![0.0_f64; n * n];
        for i in 0..b {
            for j in 0..b {
                g[i * n + j] = block[i * b + j];
                g[(i + b) * n + j + b] = block[i * b + j];
            }
        }
        let values = solve_and_check(&g, n);
        for pair in values.chunks(2) {
            assert!((pair[0] - pair[1]).abs() <= 1e-12 * values[0], "unpaired {pair:?}");
        }
    }

    #[test]
    fn rank_deficient_gram() {
        // N < M: a 25×50 matrix has a 50×50 Gram of rank at most 25.
        let values = solve_and_check(&dense(25, 50, 4).gram_f64(), 50);
        assert!(values[24] > 1e-6 * values[0], "the leading 25 are well separated from zero");
        assert!(values[25..].iter().all(|v| v.abs() <= 1e-12 * values[0]), "{values:?}");
    }
}

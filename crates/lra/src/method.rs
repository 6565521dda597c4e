//! Low-rank-approximation back-ends: PCA (the paper's default) and SVD
//! (evaluated as inferior in §3.1 — crossbar area 32.97 % vs 13.62 % on
//! LeNet).

use serde::{Deserialize, Serialize};

use scissor_linalg::{svd, LinalgError, Matrix, Pca};

/// Which LRA technique rank clipping uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LraMethod {
    /// Principal components analysis (Algorithm 1) — the paper's choice.
    #[default]
    Pca,
    /// Singular value decomposition with √σ-balanced factors.
    Svd,
}

impl LraMethod {
    /// Smallest rank whose reconstruction error (Eq. 3) is at most `eps`.
    ///
    /// # Errors
    ///
    /// Propagates solver convergence failures (not observed for finite
    /// layer-sized inputs).
    pub fn min_rank_for_error(&self, w: &Matrix, eps: f64) -> Result<usize, LinalgError> {
        match self {
            LraMethod::Pca => Ok(Pca::fit(w)?.min_rank_for_error(eps)),
            LraMethod::Svd => Ok(svd(w)?.min_rank_for_error(eps)),
        }
    }

    /// Rank-`k` factor pair `(U, V)` with `w ≈ U·Vᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidRank`] when `k` exceeds the matrix's
    /// column count, or a convergence failure from the solver.
    pub fn factorize(&self, w: &Matrix, k: usize) -> Result<(Matrix, Matrix), LinalgError> {
        match self {
            LraMethod::Pca => Pca::fit(w)?.factors(w, k),
            LraMethod::Svd => {
                let d = svd(w)?;
                let k = k.min(d.sigma.len());
                d.factors(k)
            }
        }
    }

    /// Both of the above in one pass: picks the minimum rank for `eps` and
    /// returns `(rank, U, V)`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn clip(&self, w: &Matrix, eps: f64) -> Result<(usize, Matrix, Matrix), LinalgError> {
        self.clip_below(w, eps, usize::MAX)
            .map(|clipped| clipped.expect("every rank is below usize::MAX"))
    }

    /// [`clip`](Self::clip) from one solve, factorizing only when the
    /// chosen rank is below `rank`: `None` means `w` admits no clip under
    /// `eps` (rank clipping's per-layer step).
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn clip_below(
        &self,
        w: &Matrix,
        eps: f64,
        rank: usize,
    ) -> Result<Option<(usize, Matrix, Matrix)>, LinalgError> {
        match self {
            LraMethod::Pca => {
                let pca = Pca::fit(w)?;
                let k = pca.min_rank_for_error(eps);
                if k >= rank {
                    return Ok(None);
                }
                let (u, v) = pca.factors(w, k)?;
                Ok(Some((k, u, v)))
            }
            LraMethod::Svd => {
                let d = svd(w)?;
                let k = d.min_rank_for_error(eps);
                if k >= rank {
                    return Ok(None);
                }
                let (u, v) = d.factors(k)?;
                Ok(Some((k, u, v)))
            }
        }
    }
}

impl std::fmt::Display for LraMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LraMethod::Pca => write!(f, "PCA"),
            LraMethod::Svd => write!(f, "SVD"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn low_rank_matrix(n: usize, m: usize, rank: usize) -> Matrix {
        let u = Matrix::from_fn(n, rank, |i, j| ((i * 13 + j * 7) % 11) as f32 * 0.2 - 1.0);
        let v = Matrix::from_fn(m, rank, |i, j| ((i * 17 + j * 5) % 13) as f32 * 0.15 - 0.9);
        u.matmul_nt(&v)
    }

    #[test]
    fn both_methods_find_true_rank() {
        let w = low_rank_matrix(30, 12, 4);
        assert_eq!(LraMethod::Pca.min_rank_for_error(&w, 1e-8).unwrap(), 4);
        assert_eq!(LraMethod::Svd.min_rank_for_error(&w, 1e-8).unwrap(), 4);
    }

    #[test]
    fn factorizations_reconstruct_within_eps() {
        let w = low_rank_matrix(20, 10, 6);
        for method in [LraMethod::Pca, LraMethod::Svd] {
            let (k, u, v) = method.clip(&w, 0.05).unwrap();
            assert!(k <= 6);
            let err = w.relative_error(&u.matmul_nt(&v));
            assert!(err <= 0.05 + 1e-6, "{method}: err {err}");
        }
    }

    #[test]
    fn clip_below_factorizes_only_under_the_bound() {
        let w = low_rank_matrix(20, 10, 6);
        for method in [LraMethod::Pca, LraMethod::Svd] {
            let clipped = method.clip(&w, 1e-6).unwrap();
            assert!(method.clip_below(&w, 1e-6, clipped.0).unwrap().is_none(), "{method}");
            let below = method.clip_below(&w, 1e-6, clipped.0 + 1).unwrap();
            assert_eq!(below, Some(clipped), "{method}: same solve, same factors");
        }
    }

    #[test]
    fn svd_factors_are_balanced() {
        let w = low_rank_matrix(16, 8, 3);
        let (u, v) = LraMethod::Svd.factorize(&w, 3).unwrap();
        // √σ balancing keeps both factor norms within a modest ratio.
        let ru = u.frobenius_norm();
        let rv = v.frobenius_norm();
        assert!(ru / rv < 10.0 && rv / ru < 10.0, "unbalanced factors {ru} vs {rv}");
    }

    #[test]
    fn invalid_rank_rejected() {
        let w = low_rank_matrix(6, 4, 2);
        assert!(LraMethod::Pca.factorize(&w, 9).is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(LraMethod::Pca.to_string(), "PCA");
        assert_eq!(LraMethod::Svd.to_string(), "SVD");
        assert_eq!(LraMethod::default(), LraMethod::Pca);
    }
}

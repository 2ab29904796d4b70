//! Conjugate-gradient least-squares (CGLS) baseline solver.
//!
//! The paper measures `error = objective(w) − baseline` where the baseline is
//! obtained from a long Mllib SGD run. We instead compute the minimizer of
//! the (optionally ridge-regularized) least-squares objective directly with
//! CGLS, which is both faster and far more precise, and works for dense and
//! CSR data alike. CGLS applies conjugate gradients to the normal equations
//! `(AᵀA + λI) w = Aᵀy` without ever forming `AᵀA`.

use crate::dense;
use crate::matrix::Matrix;
use crate::parallel::{par_matvec, par_matvec_t, ParallelismCfg};

/// Convergence report for a [`cgls`] solve.
#[derive(Debug, Clone)]
pub struct CglsResult {
    /// The approximate minimizer.
    pub w: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final squared norm of the normal-equation residual `‖Aᵀr − λw‖²`.
    pub normal_residual_sq: f64,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
}

/// Solves `min_w ‖A·w − y‖² + λ‖w‖²` with CGLS.
///
/// `tol` bounds the relative normal-equation residual
/// `‖Aᵀr − λw‖ / ‖Aᵀy‖`; `max_iter` caps the iteration count.
///
/// # Panics
/// Panics if `y.len() != a.nrows()` or `λ < 0`.
pub fn cgls(
    cfg: ParallelismCfg,
    a: &Matrix,
    y: &[f64],
    lambda: f64,
    tol: f64,
    max_iter: usize,
) -> CglsResult {
    assert_eq!(y.len(), a.nrows(), "cgls: y dim mismatch");
    assert!(lambda >= 0.0, "cgls: negative ridge parameter");
    let n = a.nrows();
    let d = a.ncols();

    let mut w = vec![0.0; d];
    // r = y − A·w = y at w = 0.
    let mut r = y.to_vec();
    // s = Aᵀr − λw.
    let mut s = vec![0.0; d];
    par_matvec_t(cfg, a, &r, &mut s);
    let s0_sq = dense::norm2_sq(&s);
    if s0_sq == 0.0 {
        return CglsResult {
            w,
            iterations: 0,
            normal_residual_sq: 0.0,
            converged: true,
        };
    }
    let mut p = s.clone();
    let mut gamma = s0_sq;
    let threshold = tol * tol * s0_sq;

    let mut q = vec![0.0; n];
    let mut iterations = 0;
    let mut converged = false;
    for _ in 0..max_iter {
        iterations += 1;
        // q = A·p
        par_matvec(cfg, a, &p, &mut q);
        let denom = dense::norm2_sq(&q) + lambda * dense::norm2_sq(&p);
        if denom == 0.0 {
            break;
        }
        let alpha = gamma / denom;
        dense::axpy(alpha, &p, &mut w);
        dense::axpy(-alpha, &q, &mut r);
        // s = Aᵀr − λw
        par_matvec_t(cfg, a, &r, &mut s);
        dense::axpy(-lambda, &w, &mut s);
        let gamma_new = dense::norm2_sq(&s);
        if gamma_new <= threshold {
            gamma = gamma_new;
            converged = true;
            break;
        }
        let beta = gamma_new / gamma;
        gamma = gamma_new;
        // p = s + β p
        for i in 0..d {
            p[i] = s[i] + beta * p[i];
        }
    }
    CglsResult {
        w,
        iterations,
        normal_residual_sq: gamma,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::dense_mat::DenseMatrix;

    #[test]
    fn solves_identity_system() {
        // A = I₃, y = [1,2,3] → w = y exactly.
        let a = Matrix::Sparse(
            CsrMatrix::from_triplets(&[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)], 3, 3).unwrap(),
        );
        let res = cgls(
            ParallelismCfg::sequential(),
            &a,
            &[1.0, 2.0, 3.0],
            0.0,
            1e-12,
            50,
        );
        assert!(res.converged);
        for (wi, yi) in res.w.iter().zip([1.0, 2.0, 3.0]) {
            assert!((wi - yi).abs() < 1e-10);
        }
    }

    #[test]
    fn solves_overdetermined_system() {
        // Least squares fit of y = 2x + 1 on points x = 0..5 (columns [x, 1]).
        let rows: Vec<Vec<f64>> = (0..5).map(|x| vec![x as f64, 1.0]).collect();
        let a = Matrix::Dense(DenseMatrix::from_rows(&rows).unwrap());
        let y: Vec<f64> = (0..5).map(|x| 2.0 * x as f64 + 1.0).collect();
        let res = cgls(ParallelismCfg::sequential(), &a, &y, 0.0, 1e-12, 100);
        assert!(res.converged);
        assert!((res.w[0] - 2.0).abs() < 1e-8, "slope {}", res.w[0]);
        assert!((res.w[1] - 1.0).abs() < 1e-8, "intercept {}", res.w[1]);
    }

    #[test]
    fn ridge_shrinks_solution() {
        let rows: Vec<Vec<f64>> = (0..8).map(|x| vec![x as f64 + 1.0]).collect();
        let a = Matrix::Dense(DenseMatrix::from_rows(&rows).unwrap());
        let y: Vec<f64> = (0..8).map(|x| 3.0 * (x as f64 + 1.0)).collect();
        let plain = cgls(ParallelismCfg::sequential(), &a, &y, 0.0, 1e-12, 100);
        let ridge = cgls(ParallelismCfg::sequential(), &a, &y, 50.0, 1e-12, 100);
        assert!(ridge.w[0] < plain.w[0]);
        assert!(ridge.w[0] > 0.0);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = Matrix::Dense(DenseMatrix::zeros(3, 2));
        let res = cgls(ParallelismCfg::sequential(), &a, &[0.0; 3], 0.0, 1e-10, 10);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert_eq!(res.w, vec![0.0; 2]);
    }
}

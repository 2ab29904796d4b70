//! Full-dataset evaluation kernels and the contiguous range splitter.
//!
//! The driver-side work in the reproduction (objective evaluation over the
//! full dataset, baseline solves) runs on the calling thread, one row after
//! the other: every byte-gated number (`final_error`, ASAGA's
//! `full_grad`-seeded history mean, the `optimum` baselines) is a sum of
//! f64 partials, and splitting the rows over threads regroups that sum.

use crate::matrix::Matrix;

/// An inert token: evaluation is sequential and nothing reads this. It
/// stays because the frozen `benchmark/` package passes
/// `ParallelismCfg::sequential()` to `Objective::{full_grad, full_objective,
/// optimum}`; the next re-freeze drops it from those signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelismCfg;

impl ParallelismCfg {
    /// The only value there is.
    pub const fn sequential() -> Self {
        Self
    }
}

/// Splits `0..len` into `parts` contiguous, nearly equal ranges (the first
/// `len % parts` ranges get one extra element). Empty ranges are omitted.
pub fn split_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts.min(len));
    let mut start = 0;
    for i in 0..parts {
        let sz = base + usize::from(i < extra);
        if sz == 0 {
            continue;
        }
        out.push(start..start + sz);
        start += sz;
    }
    out
}

/// `‖A·w − y‖²`, summed in row order — the least-squares residual used for
/// objective evaluation. `y.len()` must equal `A.nrows()` and `w.len()`
/// `A.ncols()`.
pub fn par_residual_sq(_cfg: ParallelismCfg, a: &Matrix, w: &[f64], y: &[f64]) -> f64 {
    assert_eq!(y.len(), a.nrows(), "par_residual_sq: y dim mismatch");
    assert_eq!(w.len(), a.ncols(), "par_residual_sq: w dim mismatch");
    let mut acc = 0.0;
    for i in 0..a.nrows() {
        let e = a.row_dot(i, w) - y[i];
        acc += e * e;
    }
    acc
}

/// `out = A·w` ([`Matrix::matvec`]). `out.len()` must equal `A.nrows()`.
pub fn par_matvec(_cfg: ParallelismCfg, a: &Matrix, w: &[f64], out: &mut [f64]) {
    a.matvec(w, out);
}

/// `out = Aᵀ·v` (overwrites `out`): one `row_axpy` per row, in row order,
/// accumulating into `+0.0`. `v.len()` must equal `A.nrows()` and
/// `out.len()` `A.ncols()`.
pub fn par_matvec_t(_cfg: ParallelismCfg, a: &Matrix, v: &[f64], out: &mut [f64]) {
    crate::dense::zero(out);
    a.matvec_t_acc(v, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::dense_mat::DenseMatrix;

    const SEQ: ParallelismCfg = ParallelismCfg::sequential();

    /// The same 40×7 entries as CSR and as dense storage.
    fn mats() -> [Matrix; 2] {
        let triplets: Vec<_> = (0..40)
            .map(|i| (i, (i % 7) as u32, (i as f64) * 0.5 + 1.0))
            .collect();
        let mut dense = vec![0.0; 40 * 7];
        for &(r, c, v) in &triplets {
            dense[r * 7 + c as usize] = v as f32;
        }
        [
            Matrix::Sparse(CsrMatrix::from_triplets(&triplets, 40, 7).unwrap()),
            Matrix::Dense(DenseMatrix::from_flat(dense, 40, 7).unwrap()),
        ]
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn split_ranges_covers_everything() {
        for len in [0usize, 1, 5, 16, 17] {
            for parts in [1usize, 2, 3, 8, 100] {
                let rs = split_ranges(len, parts);
                let total: usize = rs.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len={len} parts={parts}");
                // Contiguity.
                let mut expect = 0;
                for r in &rs {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
            }
        }
    }

    #[test]
    fn par_matvec_matches_serial() {
        let w: Vec<f64> = (0..7).map(|i| i as f64 - 3.0).collect();
        for a in mats() {
            let reference: Vec<f64> = (0..40).map(|i| a.row_dot(i, &w)).collect();
            let mut out = vec![f64::NAN; 40];
            par_matvec(SEQ, &a, &w, &mut out);
            assert_eq!(bits(&out), bits(&reference));
        }
    }

    #[test]
    fn par_matvec_t_matches_serial() {
        let v: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        for a in mats() {
            let mut reference = vec![0.0; 7];
            for i in 0..40 {
                a.row_axpy(i, v[i], &mut reference);
            }
            // `out` is overwritten, not accumulated into.
            let mut out = vec![f64::NAN; 7];
            par_matvec_t(SEQ, &a, &v, &mut out);
            assert_eq!(bits(&out), bits(&reference));
        }
    }

    #[test]
    fn par_residual_matches_direct() {
        let w: Vec<f64> = vec![0.25; 7];
        let y: Vec<f64> = (0..40).map(|i| i as f64 * 0.1).collect();
        for a in mats() {
            let mut av = vec![0.0; 40];
            a.matvec(&w, &mut av);
            let direct: f64 = av.iter().zip(&y).map(|(p, t)| (p - t) * (p - t)).sum();
            let got = par_residual_sq(SEQ, &a, &w, &y);
            assert!((got - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_matrix_is_fine() {
        let a = Matrix::Sparse(CsrMatrix::from_rows(&[], 4).unwrap());
        assert_eq!(par_residual_sq(SEQ, &a, &[0.0; 4], &[]), 0.0);
    }
}

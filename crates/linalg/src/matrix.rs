//! Storage-agnostic matrix wrapper.
//!
//! Optimization code operates on [`Matrix`] so the same gradient kernels run
//! on dense (mnist8m/epsilon-like) and sparse (rcv1-like) datasets.

use crate::csr::CsrMatrix;
use crate::dense_mat::DenseMatrix;

/// Either a dense row-major matrix or a CSR sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum Matrix {
    /// Dense row-major storage.
    Dense(DenseMatrix),
    /// Compressed sparse row storage.
    Sparse(CsrMatrix),
}

impl Matrix {
    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        match self {
            Matrix::Dense(m) => m.nrows(),
            Matrix::Sparse(m) => m.nrows(),
        }
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        match self {
            Matrix::Dense(m) => m.ncols(),
            Matrix::Sparse(m) => m.ncols(),
        }
    }

    /// Number of stored entries (dense: `nrows*ncols`).
    #[inline]
    pub fn nnz(&self) -> usize {
        match self {
            Matrix::Dense(m) => m.nrows() * m.ncols(),
            Matrix::Sparse(m) => m.nnz(),
        }
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        match self {
            Matrix::Dense(m) => m.ncols(),
            Matrix::Sparse(m) => m.row_nnz(i),
        }
    }

    /// `xᵢᵀw` for row `i`.
    #[inline]
    pub fn row_dot(&self, i: usize, w: &[f64]) -> f64 {
        match self {
            Matrix::Dense(m) => crate::dense::dot(m.row(i), w),
            Matrix::Sparse(m) => m.row_dot(i, w),
        }
    }

    /// Batched scoring: margins `⟨xᵣ, w⟩` for each row in `rows`, appended
    /// into `out` after clearing it — the serving read path's kernel.
    /// Allocation-free once `out`'s capacity covers the batch; dispatches
    /// to the CSR fast path for sparse storage.
    pub fn rows_dot_into(&self, rows: &[u32], w: &[f64], out: &mut Vec<f64>) {
        match self {
            Matrix::Dense(m) => m.rows_dot_into(rows, w, out),
            Matrix::Sparse(m) => m.rows_dot_into(rows, w, out),
        }
    }

    /// `out += a * xᵢ` for row `i`.
    #[inline]
    pub fn row_axpy(&self, i: usize, a: f64, out: &mut [f64]) {
        match self {
            Matrix::Dense(m) => crate::dense::axpy(a, m.row(i), out),
            Matrix::Sparse(m) => m.row_axpy(i, a, out),
        }
    }

    /// Squared Euclidean norm of row `i`.
    #[inline]
    pub fn row_norm2_sq(&self, i: usize) -> f64 {
        match self {
            Matrix::Dense(m) => crate::dense::norm2_sq(m.row(i)),
            Matrix::Sparse(m) => m.row_norm2_sq(i),
        }
    }

    /// `out = A·x`.
    pub fn matvec(&self, x: &[f64], out: &mut [f64]) {
        match self {
            Matrix::Dense(m) => m.matvec(x, out),
            Matrix::Sparse(m) => m.matvec(x, out),
        }
    }

    /// `out += Aᵀ·y`.
    pub fn matvec_t_acc(&self, y: &[f64], out: &mut [f64]) {
        match self {
            Matrix::Dense(m) => m.matvec_t_acc(y, out),
            Matrix::Sparse(m) => m.matvec_t_acc(y, out),
        }
    }

    /// Rows `[start, end)` as a window over the same buffers; no row is copied.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        match self {
            Matrix::Dense(m) => Matrix::Dense(m.slice_rows(start, end)),
            Matrix::Sparse(m) => Matrix::Sparse(m.slice_rows(start, end)),
        }
    }

    /// Total stored entries across the given rows — the work-unit count of
    /// one mini-batch gradient over them (dense rows count all `ncols`).
    pub fn rows_nnz(&self, rows: &[u32]) -> u64 {
        match self {
            Matrix::Dense(m) => (rows.len() * m.ncols()) as u64,
            Matrix::Sparse(m) => m.rows_nnz(rows),
        }
    }

    /// The matrix as dense row-major storage: a CSR matrix is rebuilt, a
    /// dense one is returned as another handle on the same buffer.
    pub fn densified(&self) -> Matrix {
        match self {
            Matrix::Dense(m) => Matrix::Dense(m.clone()),
            Matrix::Sparse(m) => Matrix::Dense(m.to_dense()),
        }
    }

    /// The matrix as CSR storage: a dense matrix is rebuilt, dropping exact
    /// zeros; a sparse one is returned as another handle on the same
    /// buffers. With [`Matrix::densified`] this lets one logical dataset run
    /// through both gradient paths for comparison.
    pub fn sparsified(&self) -> Matrix {
        match self {
            Matrix::Sparse(m) => Matrix::Sparse(m.clone()),
            Matrix::Dense(m) => {
                let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
                for i in 0..m.nrows() {
                    for (j, &v) in m.row(i).iter().enumerate() {
                        if v != 0.0 {
                            indices.push(j as u32);
                            data.push(v);
                        }
                    }
                    indptr.push(indices.len());
                }
                Matrix::Sparse(
                    CsrMatrix::new(indptr, indices, data, m.nrows(), m.ncols())
                        .expect("dense rows yield valid CSR parts"),
                )
            }
        }
    }

    /// Bytes of the visible rows, not of the buffers a window shares.
    #[inline]
    pub fn bytes(&self) -> u64 {
        match self {
            Matrix::Dense(m) => m.bytes(),
            Matrix::Sparse(m) => m.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> (Matrix, Matrix) {
        let sparse =
            CsrMatrix::from_triplets(&[(0, 0, 1.0), (0, 2, 2.0), (1, 1, -1.0)], 2, 3).unwrap();
        let dense = sparse.to_dense();
        (Matrix::Sparse(sparse), Matrix::Dense(dense))
    }

    #[test]
    fn row_ops_agree_across_storage() {
        let (s, d) = both();
        let w = [1.0, 2.0, 3.0];
        for i in 0..2 {
            assert!((s.row_dot(i, &w) - d.row_dot(i, &w)).abs() < 1e-15);
            assert!((s.row_norm2_sq(i) - d.row_norm2_sq(i)).abs() < 1e-15);
            let mut a = [0.0; 3];
            let mut b = [0.0; 3];
            s.row_axpy(i, 2.0, &mut a);
            d.row_axpy(i, 2.0, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn matvec_agrees_across_storage() {
        let (s, d) = both();
        let x = [1.0, -1.0, 0.5];
        let mut so = [0.0; 2];
        let mut dd = [0.0; 2];
        s.matvec(&x, &mut so);
        d.matvec(&x, &mut dd);
        assert_eq!(so, dd);
    }

    #[test]
    fn storage_conversions_round_trip() {
        let (s, d) = both();
        let s2 = d.sparsified();
        assert!(matches!(s2, Matrix::Sparse(_)));
        assert_eq!(s2.nnz(), s.nnz());
        let d2 = s.densified();
        assert!(matches!(d2, Matrix::Dense(_)));
        let w = [1.0, 2.0, 3.0];
        for i in 0..2 {
            assert!((s2.row_dot(i, &w) - s.row_dot(i, &w)).abs() < 1e-15);
            assert!((d2.row_dot(i, &w) - d.row_dot(i, &w)).abs() < 1e-15);
        }
    }

    #[test]
    fn rows_dot_into_matches_row_dot_on_both_storages() {
        let (s, d) = both();
        let w = [1.0, 2.0, 3.0];
        let mut out = Vec::new();
        for m in [&s, &d] {
            m.rows_dot_into(&[1, 0, 1], &w, &mut out);
            assert_eq!(
                out,
                vec![m.row_dot(1, &w), m.row_dot(0, &w), m.row_dot(1, &w)],
                "batch margins must equal per-row dots"
            );
        }
        // The buffer is cleared, not appended to, across calls.
        s.rows_dot_into(&[0], &w, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn rows_nnz_counts_batch_work() {
        let (s, d) = both();
        assert_eq!(s.rows_nnz(&[0, 1]), 3);
        assert_eq!(s.rows_nnz(&[0, 0]), 4);
        assert_eq!(d.rows_nnz(&[0, 1]), 6);
    }

    #[test]
    fn shape_reporting() {
        let (s, d) = both();
        assert_eq!(s.nnz(), 3);
        assert_eq!(d.nnz(), 6);
        assert_eq!(s.nrows(), d.nrows());
        assert!(matches!(s, Matrix::Sparse(_)));
        assert!(matches!(d, Matrix::Dense(_)));
    }
}

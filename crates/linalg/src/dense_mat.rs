//! Row-major dense matrices.

use std::sync::Arc;

use crate::dense;
use crate::{Error, Result};

/// A row-major dense matrix. Rows are training examples in this codebase,
/// so row access is the hot path.
///
/// The matrix is a window of `nrows` rows over reference-counted storage:
/// [`DenseMatrix::slice_rows`] and `clone` share the buffer, and equality
/// compares the visible window. Values are stored as `f32` and widened to
/// `f64` by every kernel that reads them (see [`dense::Element`]).
#[derive(Debug, Clone)]
pub struct DenseMatrix {
    data: Arc<Vec<f32>>,
    /// Index in `data` of the window's first element.
    first: usize,
    nrows: usize,
    ncols: usize,
}

impl PartialEq for DenseMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows && self.ncols == other.ncols && self.as_flat() == other.as_flat()
    }
}

impl DenseMatrix {
    /// Builds from a flat row-major buffer of stored values.
    pub fn from_flat(data: Vec<f32>, nrows: usize, ncols: usize) -> Result<Self> {
        if nrows.checked_mul(ncols) != Some(data.len()) {
            return Err(Error::InvalidStructure(format!(
                "flat buffer length {} != {nrows}x{ncols}",
                data.len()
            )));
        }
        Ok(Self {
            data: Arc::new(data),
            first: 0,
            nrows,
            ncols,
        })
    }

    /// Builds from row slices; all rows must share a length. Each value is
    /// rounded to the nearest `f32`; a finite value beyond `f32`'s range
    /// would become infinite and is refused with `Err`.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(Error::InvalidStructure(format!(
                    "row {i} has length {} but row 0 has {ncols}",
                    r.len()
                )));
            }
            crate::extend_narrowed(&mut data, r)?;
        }
        Self::from_flat(data, rows.len(), ncols)
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= nrows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.nrows, "row {i} out of range ({} rows)", self.nrows);
        let lo = self.first + i * self.ncols;
        &self.data[lo..lo + self.ncols]
    }

    /// The window's rows as one flat row-major slice.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data[self.first..self.first + self.nrows * self.ncols]
    }

    /// `out = A·x`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matvec(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec: x dim mismatch");
        assert_eq!(out.len(), self.nrows, "matvec: out dim mismatch");
        for i in 0..self.nrows {
            out[i] = dense::dot(self.row(i), x);
        }
    }

    /// `out += Aᵀ·y` (accumulating transpose product).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matvec_t_acc(&self, y: &[f64], out: &mut [f64]) {
        assert_eq!(y.len(), self.nrows, "matvec_t: y dim mismatch");
        assert_eq!(out.len(), self.ncols, "matvec_t: out dim mismatch");
        self.rows_axpy::<0>(self.nrows, |i| i, |_| [], |i, []| y[i], out);
    }

    /// Margins `⟨xᵣ, w⟩` for each row in `rows`, in `out` after clearing it:
    /// four gathered rows per [`dense::dot4`], the rest by [`dense::dot`], so
    /// `dot`'s bits. (`matvec` keeps one `dot` per row: adjacent rows stream.)
    pub fn rows_dot_into(&self, rows: &[u32], w: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(rows.len(), 0.0);
        let (quads, rest) = rows.as_chunks::<4>();
        for (q, o) in quads.iter().zip(out.chunks_exact_mut(4)) {
            o.copy_from_slice(&dense::dot4(q.map(|r| self.row(r as usize)), [w; 4]));
        }
        let tail = out.len() - rest.len();
        for (&r, o) in rest.iter().zip(&mut out[tail..]) {
            *o = dense::dot(self.row(r as usize), w);
        }
    }

    /// `out += Σₖ coef(k, zₖ)·x_{row(k)}` over `k < n`, with margins
    /// `zₖ[m] = x_{row(k)}ᵀ ws(k)[m]` (`M` = 1 for a gradient, 2 for SAGA, 0
    /// for `Aᵀ·y`): per quad, margins by [`dense::dot4`], then in L1 the
    /// update by [`dense::axpy4`] — the bits of a `dot` per margin and an
    /// `axpy` per row in `k` order, which the last `n % 4` rows run.
    ///
    /// # Panics
    /// Panics if a row is out of range or a length differs from `ncols`.
    pub fn rows_axpy<'w, const M: usize>(
        &self,
        n: usize,
        row: impl Fn(usize) -> usize,
        ws: impl Fn(usize) -> [&'w [f64]; M],
        mut coef: impl FnMut(usize, [f64; M]) -> f64,
        out: &mut [f64],
    ) {
        let full = n - n % 4;
        for k in (0..full).step_by(4) {
            let ks = [k, k + 1, k + 2, k + 3];
            let x = ks.map(|i| self.row(row(i)));
            let w = ks.map(&ws);
            let z: [[f64; 4]; M] = std::array::from_fn(|m| dense::dot4(x, w.map(|wi| wi[m])));
            let a = std::array::from_fn(|j| coef(k + j, std::array::from_fn(|m| z[m][j])));
            dense::axpy4(a, x, out);
        }
        for i in full..n {
            let x = self.row(row(i));
            dense::axpy(coef(i, ws(i).map(|wm| dense::dot(x, wm))), x, out);
        }
    }

    /// Rows `[start, end)` as a window over the same storage: no copy.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or reversed.
    pub fn slice_rows(&self, start: usize, end: usize) -> DenseMatrix {
        assert!(
            start <= end && end <= self.nrows,
            "slice_rows: bad range {start}..{end}"
        );
        DenseMatrix {
            data: Arc::clone(&self.data),
            first: self.first + start * self.ncols,
            nrows: end - start,
            ncols: self.ncols,
        }
    }

    /// Bytes of the visible window's rows, not of the buffer behind it.
    #[inline]
    pub fn bytes(&self) -> u64 {
        (self.nrows * self.ncols * std::mem::size_of::<f32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap()
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn from_rows_rounds_and_refuses_what_would_overflow() {
        let a = DenseMatrix::from_rows(&[vec![0.1, 1e-50, -3.0, 3.4e38]]).unwrap();
        assert_eq!(a.row(0), &[0.1f32, 0.0, -3.0, 3.4e38]);
        assert_eq!(a.bytes(), 4 * 4);
        for v in [3.5e38, -1e300, f64::MAX] {
            assert!(DenseMatrix::from_rows(&[vec![1.0, v]]).is_err(), "{v:e}");
        }
        // Non-finite values are not an overflow: they are stored as given.
        let odd = DenseMatrix::from_rows(&[vec![f64::NEG_INFINITY, f64::NAN]]).unwrap();
        assert_eq!(odd.row(0)[0], f32::NEG_INFINITY);
        assert!(odd.row(0)[1].is_nan());
    }

    #[test]
    fn from_flat_validates_len() {
        assert!(DenseMatrix::from_flat(vec![0.0; 5], 2, 3).is_err());
        assert!(DenseMatrix::from_flat(vec![0.0; 6], 2, 3).is_ok());
    }

    #[test]
    fn from_flat_refuses_a_shape_whose_element_count_overflows() {
        // 2^(BITS-1) · 2 wraps to 0 in `usize`, the empty buffer's length.
        let half = 1usize << (usize::BITS - 1);
        let err = DenseMatrix::from_flat(Vec::new(), half, 2).unwrap_err();
        assert!(matches!(err, Error::InvalidStructure(_)), "{err:?}");
        assert!(DenseMatrix::from_flat(vec![0.0; 6], usize::MAX, 3).is_err());
    }

    #[test]
    fn rows_round_trip() {
        let a = m();
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 2);
    }

    #[test]
    fn matvec_works() {
        let a = m();
        let mut out = [0.0; 3];
        a.matvec(&[1.0, -1.0], &mut out);
        assert_eq!(out, [-1.0, -1.0, -1.0]);
    }

    #[test]
    fn matvec_t_accumulates() {
        let a = m();
        let mut out = [10.0, 10.0];
        a.matvec_t_acc(&[1.0, 0.0, 1.0], &mut out);
        assert_eq!(out, [16.0, 18.0]);
    }

    #[test]
    fn slice_rows_extracts() {
        let a = m();
        let s = a.slice_rows(1, 3);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.row(0), &[3.0, 4.0]);
    }

    #[test]
    fn empty_matrix() {
        let a = DenseMatrix::from_flat(Vec::new(), 0, 4).unwrap();
        assert_eq!(a.nrows(), 0);
        let mut out: [f64; 0] = [];
        a.matvec(&[0.0; 4], &mut out);
    }
}

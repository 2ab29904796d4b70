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
        if data.len() != nrows * ncols {
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
        for i in 0..self.nrows {
            dense::axpy(y[i], self.row(i), out);
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

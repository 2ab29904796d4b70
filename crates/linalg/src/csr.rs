//! Compressed sparse row (CSR) matrices.
//!
//! CSR blocks are the storage format for sparse datasets (rcv1-like): the
//! whole partition's rows live in three contiguous arrays, which keeps
//! per-mini-batch gradient evaluation cache-friendly.

use std::sync::Arc;

use crate::dense::{self, Element};
use crate::sparse::SparseVec;
use crate::{Error, Result};

/// A CSR matrix: row `i` occupies `indices[indptr[i]..indptr[i+1]]` /
/// `data[indptr[i]..indptr[i+1]]`, with column indices strictly increasing
/// within each row.
///
/// The matrix is a window of `nrows` rows from storage row `first_row` over
/// three reference-counted buffers; `indptr` stays absolute, so
/// [`CsrMatrix::slice_rows`] and `clone` copy nothing. Equality compares the
/// visible window. Values are stored as `f32` and widened to `f64` by every
/// kernel that reads them (see [`dense::Element`]).
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    indptr: Arc<Vec<usize>>,
    indices: Arc<Vec<u32>>,
    data: Arc<Vec<f32>>,
    first_row: usize,
    nrows: usize,
    ncols: usize,
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        (self.nrows, self.ncols) == (other.nrows, other.ncols)
            && (0..self.nrows).all(|i| self.row(i) == other.row(i))
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts (values in the stored type),
    /// validating all invariants.
    pub fn new(
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<f32>,
        nrows: usize,
        ncols: usize,
    ) -> Result<Self> {
        if indptr.len() != nrows + 1 {
            return Err(Error::InvalidStructure(format!(
                "indptr length {} != nrows+1 = {}",
                indptr.len(),
                nrows + 1
            )));
        }
        if indptr.first() != Some(&0) || *indptr.last().expect("nonempty indptr") != indices.len() {
            return Err(Error::InvalidStructure(
                "indptr must start at 0 and end at nnz".to_string(),
            ));
        }
        if indices.len() != data.len() {
            return Err(Error::InvalidStructure(format!(
                "indices/data length mismatch: {} vs {}",
                indices.len(),
                data.len()
            )));
        }
        for w in indptr.windows(2) {
            if w[0] > w[1] {
                return Err(Error::InvalidStructure(
                    "indptr must be nondecreasing".to_string(),
                ));
            }
        }
        for r in 0..nrows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(Error::InvalidStructure(format!(
                        "row {r}: column indices not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= ncols {
                    return Err(Error::InvalidStructure(format!(
                        "row {r}: column {last} out of range for ncols {ncols}"
                    )));
                }
            }
        }
        Ok(Self {
            indptr: Arc::new(indptr),
            indices: Arc::new(indices),
            data: Arc::new(data),
            first_row: 0,
            nrows,
            ncols,
        })
    }

    /// Builds from a list of sparse rows, all with dimension `ncols`. Each
    /// value is rounded to the nearest `f32`; a finite value beyond `f32`'s
    /// range would become infinite and is refused with `Err`.
    pub fn from_rows(rows: &[SparseVec], ncols: usize) -> Result<Self> {
        let nnz: usize = rows.iter().map(SparseVec::nnz).sum();
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut data = Vec::with_capacity(nnz);
        indptr.push(0);
        for r in rows {
            if r.dim() != ncols {
                return Err(Error::DimensionMismatch {
                    op: "CsrMatrix::from_rows",
                    expected: ncols,
                    got: r.dim(),
                });
            }
            indices.extend_from_slice(r.indices());
            crate::extend_narrowed(&mut data, r.values())?;
            indptr.push(indices.len());
        }
        Self::new(indptr, indices, data, rows.len(), ncols)
    }

    /// Builds from `(row, col, value)` triplets; duplicates are summed in
    /// `f64`, then stored as [`CsrMatrix::from_rows`] stores them.
    pub fn from_triplets(
        triplets: &[(usize, u32, f64)],
        nrows: usize,
        ncols: usize,
    ) -> Result<Self> {
        let mut per_row: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nrows];
        for &(r, c, v) in triplets {
            if r >= nrows {
                return Err(Error::InvalidStructure(format!(
                    "triplet row {r} out of range"
                )));
            }
            per_row[r].push((c, v));
        }
        let rows = per_row
            .into_iter()
            .map(|p| SparseVec::from_pairs(p, ncols))
            .collect::<Result<Vec<_>>>()?;
        Self::from_rows(&rows, ncols)
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

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        let (indptr, ..) = self.parts();
        indptr[self.nrows] - indptr[0]
    }

    /// The window as plain slices (its `nrows + 1` row pointers, the two
    /// entry buffers they index): a kernel's row loop reads the three `Arc`s
    /// once, not per row. Indexing past the pointers is the row-range panic.
    #[inline]
    fn parts(&self) -> (&[usize], &[u32], &[f32]) {
        let rows = self.first_row..=self.first_row + self.nrows;
        (&self.indptr[rows], &self.indices, &self.data)
    }

    /// Column indices and values of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= nrows`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        row_of(self.parts(), i)
    }

    /// Number of nonzeros in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        let (indptr, ..) = self.parts();
        indptr[i + 1] - indptr[i]
    }

    /// Dot product of row `i` with a dense vector `w` (`xᵢᵀw`).
    ///
    /// # Panics
    /// Panics if `w.len() != ncols`.
    #[inline]
    pub fn row_dot(&self, i: usize, w: &[f64]) -> f64 {
        assert_eq!(w.len(), self.ncols, "row_dot: dim mismatch");
        entries_dot(self.row(i), w)
    }

    /// `out += a * rowᵢ`, scattered into a dense buffer.
    ///
    /// # Panics
    /// Panics if `out.len() != ncols`.
    #[inline]
    pub fn row_axpy(&self, i: usize, a: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.ncols, "row_axpy: dim mismatch");
        entries_axpy(self.row(i), a, out);
    }

    /// `out = A·x`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matvec(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec: x dim mismatch");
        assert_eq!(out.len(), self.nrows, "matvec: out dim mismatch");
        for i in 0..self.nrows {
            out[i] = self.row_dot(i, x);
        }
    }

    /// `out += Aᵀ·y`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matvec_t_acc(&self, y: &[f64], out: &mut [f64]) {
        assert_eq!(y.len(), self.nrows, "matvec_t: y dim mismatch");
        assert_eq!(out.len(), self.ncols, "matvec_t: out dim mismatch");
        for i in 0..self.nrows {
            self.row_axpy(i, y[i], out);
        }
    }

    /// Mini-batch gather kernel: `Σₖ coefs[k] · x_{rows[k]}` as a
    /// [`SparseVec`] over the union of the sampled rows' supports — the
    /// backward half of a mini-batch gradient, computed without ever
    /// materializing a dense `ncols`-length buffer. Cost is
    /// `O(B·passes)` in the total sampled nonzeros `B`, with one radix pass
    /// per byte of `ncols − 1` — the fast path for rcv1-shaped data (47k
    /// dims, ~73 nnz). This is [`CsrMatrix::gather_axpy_into`] on fresh
    /// buffers: same kernel, same values.
    ///
    /// # Panics
    /// Panics if `rows.len() != coefs.len()` or any row is out of range.
    pub fn gather_axpy(&self, rows: &[u32], coefs: &[f64]) -> SparseVec {
        let (mut pairs, mut idx, mut val) = (Vec::new(), Vec::new(), Vec::new());
        self.gather_axpy_into(rows, coefs, &mut pairs, &mut idx, &mut val);
        SparseVec::new(idx, val, self.ncols)
            .expect("gather_axpy: the kernel's output is strictly increasing and in range")
    }

    /// Mini-batch margin kernel: `out[k] = x_{rows[k]}ᵀ·w` for each sampled
    /// row, in one pass over the CSR arrays — the forward half of a
    /// mini-batch gradient evaluation. `out` is cleared and refilled, so a
    /// warm buffer makes it allocation-free.
    ///
    /// # Panics
    /// Panics if `w.len() != ncols` or any row index is out of range.
    pub fn rows_dot_into(&self, rows: &[u32], w: &[f64], out: &mut Vec<f64>) {
        assert_eq!(w.len(), self.ncols, "rows_dot_into: dim mismatch");
        out.clear();
        let parts = self.parts();
        let dot = |&r: &u32| entries_dot(row_of(parts, r as usize), w);
        out.extend(rows.iter().map(dot));
    }

    /// [`CsrMatrix::gather_axpy`] into caller-owned buffers: `pairs` is the
    /// gather scratch, `out_idx`/`out_val` receive the merged result with
    /// strictly increasing indices. The outputs are cleared and refilled;
    /// `pairs` grows to twice the batch's nonzeros and is never shrunk or
    /// re-zeroed, so warm buffers make the gather kernel allocation-free.
    ///
    /// The `(col, coef·val)` pairs are sorted by column with a stable LSD
    /// radix sort (one counting pass per byte of `ncols − 1`), so a column
    /// several sampled rows share is summed in **batch row order**: the
    /// value is `((c₁·v₁ + c₂·v₂) + c₃·v₃) + …` over those rows as they
    /// appear in `rows`.
    ///
    /// # Panics
    /// Panics if `rows.len() != coefs.len()` or any row is out of range.
    pub fn gather_axpy_into(
        &self,
        rows: &[u32],
        coefs: &[f64],
        pairs: &mut Vec<(u32, f64)>,
        out_idx: &mut Vec<u32>,
        out_val: &mut Vec<f64>,
    ) {
        let parts = self.parts();
        let row = |r: usize| row_of(parts, r);
        gather_into(row, self.ncols, rows, coefs, pairs, out_idx, out_val);
    }

    /// Total stored nonzeros across the given rows — the work-unit count of
    /// one sparse mini-batch gradient over them.
    pub fn rows_nnz(&self, rows: &[u32]) -> u64 {
        rows.iter().map(|&r| self.row_nnz(r as usize) as u64).sum()
    }

    /// Rows `[start, end)` as a window over the same three buffers: no copy.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or reversed.
    pub fn slice_rows(&self, start: usize, end: usize) -> CsrMatrix {
        assert!(
            start <= end && end <= self.nrows,
            "slice_rows: bad range {start}..{end}"
        );
        CsrMatrix {
            indptr: Arc::clone(&self.indptr),
            indices: Arc::clone(&self.indices),
            data: Arc::clone(&self.data),
            first_row: self.first_row + start,
            nrows: end - start,
            ncols: self.ncols,
        }
    }

    /// Densifies into a [`crate::DenseMatrix`]; intended for tests.
    pub fn to_dense(&self) -> crate::DenseMatrix {
        let mut flat = vec![0.0; self.nrows * self.ncols];
        for i in 0..self.nrows {
            let (idx, val) = self.row(i);
            for (c, v) in idx.iter().zip(val.iter()) {
                flat[i * self.ncols + *c as usize] = *v;
            }
        }
        crate::DenseMatrix::from_flat(flat, self.nrows, self.ncols)
            .expect("densified buffer has exact size")
    }

    /// Squared Euclidean norm of row `i`.
    #[inline]
    pub fn row_norm2_sq(&self, i: usize) -> f64 {
        let (_, val) = self.row(i);
        dense::norm2_sq(val)
    }

    /// Bytes of the visible window in all three arrays, not of the buffers.
    #[inline]
    pub fn bytes(&self) -> u64 {
        ((self.nrows + 1) * std::mem::size_of::<usize>()
            + self.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<f32>())) as u64
    }
}

/// Row `i` of the slices [`CsrMatrix::parts`] returned.
#[inline]
fn row_of<'a>(parts: (&[usize], &'a [u32], &'a [f32]), i: usize) -> (&'a [u32], &'a [f32]) {
    let (indptr, indices, data) = parts;
    let (lo, hi) = (indptr[i], indptr[i + 1]);
    (&indices[lo..hi], &data[lo..hi])
}

/// `Σ val[k] · w[idx[k]]`, summed in stored order: the row kernel of
/// [`CsrMatrix::row_dot`], [`CsrMatrix::rows_dot_into`] and
/// [`CsrMatrix::matvec`].
#[inline]
pub fn entries_dot<T: Element>((idx, val): (&[u32], &[T]), w: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (c, v) in idx.iter().zip(val.iter()) {
        acc += v.widen() * w[*c as usize];
    }
    acc
}

/// `out[idx[k]] += a · val[k]` in stored order: the row kernel of
/// [`CsrMatrix::row_axpy`], [`CsrMatrix::matvec_t_acc`] and
/// [`SparseVec::axpy_into_dense`].
#[inline]
pub fn entries_axpy<T: Element>((idx, val): (&[u32], &[T]), a: f64, out: &mut [f64]) {
    for (c, v) in idx.iter().zip(val.iter()) {
        out[*c as usize] += a * v.widen();
    }
}

/// The kernel of [`CsrMatrix::gather_axpy_into`] over any row source:
/// `row(r)` is row `r`'s strictly increasing columns (below `ncols`) and
/// values. Same buffers, order and panics as the method.
pub fn gather_into<'a, T: Element + 'a>(
    row: impl Fn(usize) -> (&'a [u32], &'a [T]),
    ncols: usize,
    rows: &[u32],
    coefs: &[f64],
    pairs: &mut Vec<(u32, f64)>,
    out_idx: &mut Vec<u32>,
    out_val: &mut Vec<f64>,
) {
    assert_eq!(
        rows.len(),
        coefs.len(),
        "gather_into: rows/coefs length mismatch"
    );
    let nnz: usize = rows.iter().map(|&r| row(r as usize).0.len()).sum();
    assert!(
        u32::try_from(nnz).is_ok(),
        "gather_into: batch of {nnz} nonzeros overflows the u32 digit counts"
    );
    if pairs.len() < 2 * nnz {
        pairs.resize(2 * nnz, (0, 0.0));
    }
    // The lower half receives the gathered pairs, the upper half is the
    // sort's ping-pong buffer.
    let (mut src, mut dst) = pairs[..2 * nnz].split_at_mut(nnz);
    // Digit `p` of a column is its byte `p`; bytes above the top byte of
    // `ncols − 1` are zero in every column and need no pass.
    let max_col = u32::try_from(ncols.saturating_sub(1)).unwrap_or(u32::MAX);
    let passes = (32 - max_col.leading_zeros()).div_ceil(8) as usize;
    let mut counts = [[0u32; 256]; 4];
    let mut n = 0;
    for (&r, &a) in rows.iter().zip(coefs.iter()) {
        let (idx, val) = row(r as usize);
        for ((slot, &c), &v) in src[n..n + idx.len()].iter_mut().zip(idx).zip(val) {
            *slot = (c, a * v.widen());
            for (p, digit_counts) in counts[..passes].iter_mut().enumerate() {
                digit_counts[(c >> (8 * p)) as usize & 0xff] += 1;
            }
        }
        n += idx.len();
    }
    for (p, digit_counts) in counts[..passes].iter_mut().enumerate() {
        // Counts become each digit value's first output slot.
        let mut next = 0u32;
        for count in digit_counts.iter_mut() {
            let first_slot = next;
            next += *count;
            *count = first_slot;
        }
        for &(c, v) in src.iter() {
            let slot = &mut digit_counts[(c >> (8 * p)) as usize & 0xff];
            dst[*slot as usize] = (c, v);
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    out_idx.clear();
    out_val.clear();
    for &(i, v) in src.iter() {
        if out_idx.last() == Some(&i) {
            *out_val.last_mut().expect("parallel to out_idx") += v;
        } else {
            out_idx.push(i);
            out_val.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        CsrMatrix::from_triplets(&[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)], 3, 3)
            .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(CsrMatrix::new(vec![0, 1], vec![0], vec![1.0], 2, 3).is_err()); // bad indptr len
        assert!(CsrMatrix::new(vec![0, 2], vec![1, 0], vec![1.0, 1.0], 1, 3).is_err()); // unsorted
        assert!(CsrMatrix::new(vec![0, 1], vec![5], vec![1.0], 1, 3).is_err()); // col range
        assert!(CsrMatrix::new(vec![0, 1], vec![0], vec![1.0], 1, 3).is_ok());
    }

    #[test]
    fn f64_constructors_round_and_refuse_what_would_overflow() {
        let rows = [SparseVec::new(vec![0, 2], vec![0.1, -1e-50], 3).unwrap()];
        let a = CsrMatrix::from_rows(&rows, 3).unwrap();
        assert_eq!(a.row(0), (&[0u32, 2][..], &[0.1f32, -0.0][..]));
        // Duplicates are summed in f64, then rounded once.
        let t = CsrMatrix::from_triplets(&[(0, 1, 0.1), (0, 1, 0.2)], 1, 3).unwrap();
        assert_eq!(t.row(0).1, &[(0.1f64 + 0.2) as f32]);
        let big = [SparseVec::new(vec![1], vec![1e39], 3).unwrap()];
        assert!(CsrMatrix::from_rows(&big, 3).is_err());
        assert!(CsrMatrix::from_triplets(&[(0, 0, 3e38), (0, 0, 3e38)], 1, 3).is_err());
    }

    #[test]
    fn rows_and_nnz() {
        let a = sample();
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.row_nnz(1), 0);
        let (idx, val) = a.row(2);
        assert_eq!(idx, &[0, 1]);
        assert_eq!(val, &[3.0, 4.0]);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample();
        let x = [1.0, 2.0, 3.0];
        let mut out = [0.0; 3];
        a.matvec(&x, &mut out);
        let dense_a = a.to_dense();
        let mut out_d = [0.0; 3];
        dense_a.matvec(&x, &mut out_d);
        assert_eq!(out, out_d);
    }

    #[test]
    fn matvec_t_matches_dense() {
        let a = sample();
        let y = [1.0, 5.0, -1.0];
        let mut out = [0.0; 3];
        a.matvec_t_acc(&y, &mut out);
        let mut out_d = [0.0; 3];
        a.to_dense().matvec_t_acc(&y, &mut out_d);
        assert_eq!(out, out_d);
    }

    #[test]
    fn slice_rows_preserves_content() {
        let a = sample();
        let s = a.slice_rows(1, 3);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.row_nnz(0), 0);
        let (idx, val) = s.row(1);
        assert_eq!(idx, &[0, 1]);
        assert_eq!(val, &[3.0, 4.0]);
    }

    #[test]
    fn row_dot_and_axpy() {
        let a = sample();
        let w = [1.0, 1.0, 1.0];
        assert_eq!(a.row_dot(0, &w), 3.0);
        let mut acc = [0.0; 3];
        a.row_axpy(0, 2.0, &mut acc);
        assert_eq!(acc, [2.0, 0.0, 4.0]);
    }

    #[test]
    fn gather_axpy_matches_dense_reference() {
        let a = sample();
        let rows = [0u32, 2, 0];
        let coefs = [2.0, -1.0, 0.5];
        let got = a.gather_axpy(&rows, &coefs);
        let mut want = vec![0.0; 3];
        for (&r, &c) in rows.iter().zip(coefs.iter()) {
            a.row_axpy(r as usize, c, &mut want);
        }
        assert_eq!(got.to_dense(), want);
        assert_eq!(a.rows_nnz(&rows), 2 + 2 + 2);
    }

    #[test]
    fn gather_axpy_of_empty_batch_is_empty() {
        let a = sample();
        let g = a.gather_axpy(&[], &[]);
        assert_eq!(g.nnz(), 0);
        assert_eq!(g.dim(), 3);
    }

    #[test]
    fn into_variants_match_allocating_kernels_bitwise() {
        let a = sample();
        let rows = [0u32, 2, 0, 2];
        let coefs = [2.0, -1.0, 0.5, 0.25];
        let w = [1.0, -2.0, 3.0];
        let mut margins = Vec::new();
        a.rows_dot_into(&rows, &w, &mut margins);
        let per_row: Vec<f64> = rows.iter().map(|&r| a.row_dot(r as usize, &w)).collect();
        assert_eq!(margins, per_row);
        let (mut pairs, mut idx, mut val) = (Vec::new(), Vec::new(), Vec::new());
        // Run twice so the second pass exercises warm (reused) buffers.
        for _ in 0..2 {
            a.gather_axpy_into(&rows, &coefs, &mut pairs, &mut idx, &mut val);
            let reference = a.gather_axpy(&rows, &coefs);
            assert_eq!(idx.as_slice(), reference.indices());
            assert_eq!(val.as_slice(), reference.values());
        }
        // Empty batch clears the outputs.
        a.gather_axpy_into(&[], &[], &mut pairs, &mut idx, &mut val);
        assert!(idx.is_empty() && val.is_empty());
    }

    #[test]
    fn gather_sums_a_shared_column_in_batch_row_order() {
        // Column 300 (a two-pass sort) is shared by three rows whose sum
        // depends on the order: 1e16 absorbs a 1.0 added to it.
        let a = CsrMatrix::from_triplets(&[(0, 300, 1e16), (1, 300, 1.0), (2, 300, -1e16)], 3, 301)
            .unwrap();
        let ones = [1.0; 3];
        assert_eq!(a.gather_axpy(&[0, 1, 2], &ones).values(), &[0.0]);
        assert_eq!(a.gather_axpy(&[0, 2, 1], &ones).values(), &[1.0]);
    }

    #[test]
    fn rows_dot_matches_per_row_dots() {
        let a = sample();
        let w = [1.0, -2.0, 3.0];
        let mut z = Vec::new();
        a.rows_dot_into(&[2, 0], &w, &mut z);
        assert_eq!(z, vec![a.row_dot(2, &w), a.row_dot(0, &w)]);
    }

    #[test]
    fn empty_rows_matrix() {
        let a = CsrMatrix::from_rows(&[], 7).unwrap();
        assert_eq!(a.nrows(), 0);
        assert_eq!(a.nnz(), 0);
    }
}

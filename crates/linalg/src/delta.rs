//! Gradient deltas: the dense-or-sparse update currency of the engine.
//!
//! A worker's mini-batch gradient over a CSR partition has support bounded
//! by the union of the sampled rows' nonzeros — for rcv1-shaped data a few
//! thousand entries embedded in a 47k-dimensional space. [`GradDelta`] lets
//! tasks return (and broadcasts carry) that gradient in whichever
//! representation is cheapest, and lets the driver apply it to the dense
//! model without densifying: the sparse arm scatters onto the support only.

use crate::sparse::SparseVec;

/// A gradient (or model-update) vector in dense or sparse representation.
///
/// Produced worker-side by the mini-batch kernels, shipped back as the task
/// result, and applied driver-side with [`GradDelta::axpy_into`]. Its wire
/// format (and the modeled cost the solvers account) is defined once, by
/// the `Payload` impl in the `sparklet` crate: sparse deltas ship only
/// their support.
#[derive(Debug, Clone, PartialEq)]
pub enum GradDelta {
    /// Dense storage: one `f64` per model coordinate.
    Dense(Vec<f64>),
    /// Sparse storage: only the touched coordinates travel.
    Sparse(SparseVec),
}

impl GradDelta {
    /// A zero delta of dimension `dim` with an empty sparse support.
    pub fn zero_sparse(dim: usize) -> Self {
        GradDelta::Sparse(SparseVec::new(Vec::new(), Vec::new(), dim).expect("empty is valid"))
    }

    /// The embedding dimension.
    pub fn dim(&self) -> usize {
        match self {
            GradDelta::Dense(v) => v.len(),
            GradDelta::Sparse(s) => s.dim(),
        }
    }

    /// Stored entries (dense: the full dimension).
    pub fn nnz(&self) -> usize {
        match self {
            GradDelta::Dense(v) => v.len(),
            GradDelta::Sparse(s) => s.nnz(),
        }
    }

    /// True when stored sparsely.
    pub fn is_sparse(&self) -> bool {
        matches!(self, GradDelta::Sparse(_))
    }

    /// `out += a * self`, touching only the stored support in the sparse
    /// arm — the "apply without densifying" half of the fast path.
    ///
    /// # Panics
    /// Panics if `out.len() != self.dim()`.
    pub fn axpy_into(&self, a: f64, out: &mut [f64]) {
        match self {
            GradDelta::Dense(v) => crate::dense::axpy(a, v, out),
            GradDelta::Sparse(s) => s.axpy_into_dense(a, out),
        }
    }

    /// Scales the delta in place.
    pub fn scale(&mut self, a: f64) {
        match self {
            GradDelta::Dense(v) => crate::dense::scal(a, v),
            GradDelta::Sparse(s) => s.scale(a),
        }
    }

    /// Densifies (copying in the dense arm).
    pub fn to_dense(&self) -> Vec<f64> {
        match self {
            GradDelta::Dense(v) => v.clone(),
            GradDelta::Sparse(s) => s.to_dense(),
        }
    }
}

/// A reusable fold accumulator for [`GradDelta`] streams.
///
/// Holds ping-pong index/value buffers for sparse–sparse union merges plus
/// a lazily allocated dense buffer; once warm, folding performs **zero
/// heap allocations** as long as buffer capacities suffice (capacity only
/// grows, so a steady-state workload stops allocating after the first few
/// folds). Ownership rule: the accumulator owns its buffers for its whole
/// life — callers [`DeltaFold::clear`] it between logical sums instead of
/// recreating it.
///
/// No solver folds deltas: the server applies one result per update. The
/// only non-test caller is the frozen `benchmark/` harness's
/// `linalg.delta_fold_ns_per_entry` microbenchmark, and the type goes when
/// that harness is re-frozen (ROADMAP item 10).
#[derive(Debug, Clone)]
pub struct DeltaFold {
    dim: usize,
    /// Current sparse accumulation (strictly increasing indices).
    idx: Vec<u32>,
    val: Vec<f64>,
    /// Merge scratch: the other half of the ping-pong pair.
    merge_idx: Vec<u32>,
    merge_val: Vec<f64>,
    /// Dense accumulation, used once any dense delta is folded.
    dense: Vec<f64>,
    is_dense: bool,
}

impl DeltaFold {
    /// An empty accumulator for deltas of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            idx: Vec::new(),
            val: Vec::new(),
            merge_idx: Vec::new(),
            merge_val: Vec::new(),
            dense: Vec::new(),
            is_dense: false,
        }
    }

    /// The embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Resets to the empty sum, keeping every buffer's capacity. Also
    /// re-dimensions the accumulator (one accumulator can serve models of
    /// different sizes across runs).
    pub fn clear(&mut self, dim: usize) {
        self.dim = dim;
        self.idx.clear();
        self.val.clear();
        self.is_dense = false;
        // The dense buffer is re-zeroed lazily when the dense path is next
        // taken; truncating here keeps `clear` O(1).
        self.dense.clear();
    }

    /// True once the accumulation fell back to dense storage.
    pub fn is_dense(&self) -> bool {
        self.is_dense
    }

    /// Stored entries (dense: the full dimension).
    pub fn nnz(&self) -> usize {
        if self.is_dense {
            self.dim
        } else {
            self.idx.len()
        }
    }

    /// The accumulated sparse support (empty when dense).
    pub fn indices(&self) -> &[u32] {
        if self.is_dense {
            &[]
        } else {
            &self.idx
        }
    }

    /// The accumulated sparse values, parallel to [`DeltaFold::indices`].
    pub fn values(&self) -> &[f64] {
        if self.is_dense {
            &[]
        } else {
            &self.val
        }
    }

    /// `self += a * d`.
    ///
    /// # Panics
    /// Panics if `d.dim() != self.dim()`.
    pub fn fold_scaled(&mut self, a: f64, d: &GradDelta) {
        assert_eq!(d.dim(), self.dim, "DeltaFold: dim mismatch");
        match d {
            GradDelta::Sparse(s) if !self.is_dense => {
                self.merge_entries(a, s.indices(), s.values())
            }
            _ => {
                self.ensure_dense();
                d.axpy_into(a, &mut self.dense);
            }
        }
    }

    /// `out += a * self` — applies the accumulated sum to a dense target.
    ///
    /// # Panics
    /// Panics if `out.len() != self.dim()`.
    pub fn axpy_into(&self, a: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim, "DeltaFold::axpy_into: dim mismatch");
        if self.is_dense {
            crate::dense::axpy(a, &self.dense, out);
        } else {
            for (i, v) in self.idx.iter().zip(self.val.iter()) {
                out[*i as usize] += a * *v;
            }
        }
    }

    /// Snapshots the accumulated sum as an owned [`GradDelta`] (allocates;
    /// intended for tests and cold paths).
    pub fn to_delta(&self) -> GradDelta {
        if self.is_dense {
            GradDelta::Dense(self.dense.clone())
        } else {
            GradDelta::Sparse(
                SparseVec::new(self.idx.clone(), self.val.clone(), self.dim)
                    .expect("fold maintains strictly increasing indices"),
            )
        }
    }

    fn ensure_dense(&mut self) {
        if self.is_dense {
            return;
        }
        self.dense.clear();
        self.dense.resize(self.dim, 0.0);
        for (i, v) in self.idx.iter().zip(self.val.iter()) {
            self.dense[*i as usize] += *v;
        }
        self.idx.clear();
        self.val.clear();
        self.is_dense = true;
    }

    /// Union-merge of the sorted accumulation with sorted incoming entries
    /// into the ping-pong scratch, then swap — no allocation once the
    /// scratch capacities cover the union.
    fn merge_entries(&mut self, a: f64, oi: &[u32], ov: &[f64]) {
        if oi.is_empty() {
            return;
        }
        if self.idx.is_empty() {
            self.idx.clear();
            self.idx.extend_from_slice(oi);
            self.val.clear();
            self.val.extend(ov.iter().map(|v| a * v));
            return;
        }
        self.merge_idx.clear();
        self.merge_val.clear();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.idx.len() && j < oi.len() {
            let (si, sj) = (self.idx[i], oi[j]);
            if si == sj {
                self.merge_idx.push(si);
                self.merge_val.push(self.val[i] + a * ov[j]);
                i += 1;
                j += 1;
            } else if si < sj {
                self.merge_idx.push(si);
                self.merge_val.push(self.val[i]);
                i += 1;
            } else {
                self.merge_idx.push(sj);
                self.merge_val.push(a * ov[j]);
                j += 1;
            }
        }
        self.merge_idx.extend_from_slice(&self.idx[i..]);
        self.merge_val.extend_from_slice(&self.val[i..]);
        self.merge_idx.extend_from_slice(&oi[j..]);
        self.merge_val.extend(ov[j..].iter().map(|v| a * v));
        std::mem::swap(&mut self.idx, &mut self.merge_idx);
        std::mem::swap(&mut self.val, &mut self.merge_val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f64)], dim: usize) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec(), dim).unwrap()
    }

    #[test]
    fn axpy_into_agrees_across_arms() {
        let s = sv(&[(1, 2.0), (3, -1.0)], 5);
        let dense = GradDelta::Dense(s.to_dense());
        let sparse = GradDelta::Sparse(s);
        let mut a = vec![1.0; 5];
        let mut b = vec![1.0; 5];
        dense.axpy_into(0.5, &mut a);
        sparse.axpy_into(0.5, &mut b);
        assert_eq!(a, b);
        assert_eq!(dense.to_dense(), sparse.to_dense());
    }

    #[test]
    fn shape_and_storage_reporting() {
        let sparse = GradDelta::Sparse(sv(&[(0, 1.0)], 10));
        assert!(sparse.is_sparse());
        assert_eq!(sparse.dim(), 10);
        assert_eq!(sparse.nnz(), 1);
        let dense = GradDelta::Dense(vec![0.0; 10]);
        assert!(!dense.is_sparse());
        assert_eq!(dense.nnz(), 10);
        assert_eq!(GradDelta::zero_sparse(7).nnz(), 0);
    }

    #[test]
    fn fold_into_sparse_stream_matches_dense_reference() {
        let deltas = [
            GradDelta::Sparse(sv(&[(1, 2.0), (3, -1.0)], 6)),
            GradDelta::Sparse(sv(&[(0, 0.5), (3, 4.0), (5, 1.0)], 6)),
            GradDelta::Sparse(sv(&[(2, -2.0)], 6)),
        ];
        let mut acc = DeltaFold::new(6);
        let mut reference = vec![0.0; 6];
        for (k, d) in deltas.iter().enumerate() {
            let a = 1.0 + k as f64;
            acc.fold_scaled(a, d);
            d.axpy_into(a, &mut reference);
        }
        assert!(!acc.is_dense());
        assert_eq!(acc.to_delta().to_dense(), reference);
        let mut out = vec![1.0; 6];
        acc.axpy_into(2.0, &mut out);
        for (o, r) in out.iter().zip(&reference) {
            assert!((o - (1.0 + 2.0 * r)).abs() < 1e-14);
        }
    }

    #[test]
    fn fold_into_goes_dense_on_dense_delta_and_stays() {
        let mut acc = DeltaFold::new(4);
        acc.fold_scaled(1.0, &GradDelta::Sparse(sv(&[(1, 1.0)], 4)));
        acc.fold_scaled(0.5, &GradDelta::Dense(vec![1.0, 0.0, 2.0, 0.0]));
        assert!(acc.is_dense());
        assert_eq!(acc.nnz(), 4);
        acc.fold_scaled(1.0, &GradDelta::Sparse(sv(&[(3, 2.0)], 4)));
        assert_eq!(acc.to_delta().to_dense(), vec![0.5, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn fold_clear_resets_and_redimensions() {
        let mut acc = DeltaFold::new(3);
        acc.fold_scaled(1.0, &GradDelta::Dense(vec![1.0; 3]));
        acc.clear(5);
        assert_eq!(acc.dim(), 5);
        assert!(!acc.is_dense());
        assert_eq!(acc.nnz(), 0);
        acc.fold_scaled(1.0, &GradDelta::Sparse(sv(&[(4, 7.0)], 5)));
        assert_eq!(acc.indices(), &[4]);
        assert_eq!(acc.values(), &[7.0]);
    }

    #[test]
    fn fold_is_allocation_stable_once_warm() {
        // After folding one shape of delta, refolding the same shapes must
        // not grow any buffer (capacities are retained across clears).
        let mut acc = DeltaFold::new(100);
        let a = GradDelta::Sparse(sv(&[(1, 1.0), (50, 2.0)], 100));
        let b = GradDelta::Sparse(sv(&[(2, 1.0), (50, -1.0), (99, 3.0)], 100));
        acc.fold_scaled(1.0, &a);
        acc.fold_scaled(1.0, &b);
        let caps = (acc.idx.capacity(), acc.merge_idx.capacity());
        for _ in 0..10 {
            acc.clear(100);
            acc.fold_scaled(1.0, &a);
            acc.fold_scaled(1.0, &b);
        }
        assert_eq!(caps, (acc.idx.capacity(), acc.merge_idx.capacity()));
    }

    #[test]
    fn scale_applies_to_both_arms() {
        let mut a = GradDelta::Dense(vec![2.0, 4.0]);
        let mut b = GradDelta::Sparse(sv(&[(0, 2.0), (1, 4.0)], 2));
        a.scale(0.5);
        b.scale(0.5);
        assert_eq!(a.to_dense(), vec![1.0, 2.0]);
        assert_eq!(b.to_dense(), vec![1.0, 2.0]);
    }
}

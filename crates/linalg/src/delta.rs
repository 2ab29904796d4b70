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

    /// Range-restricted [`GradDelta::axpy_into`]: `out` is the shard slice
    /// covering coordinates `start .. start + out.len()` of the embedding,
    /// and only the delta's entries inside that window are applied. The
    /// per-coordinate operations (and their order) are exactly those of
    /// the full-width apply, so sharding a delta across disjoint windows
    /// is bit-identical to applying it whole.
    ///
    /// # Panics
    /// Panics if the window extends past `self.dim()`.
    pub fn axpy_into_range(&self, a: f64, out: &mut [f64], start: usize) {
        assert!(
            start + out.len() <= self.dim(),
            "axpy_into_range: window out of bounds"
        );
        match self {
            GradDelta::Dense(v) => crate::dense::axpy(a, &v[start..start + out.len()], out),
            GradDelta::Sparse(s) => {
                let (idx, val) = (s.indices(), s.values());
                let lo = idx.partition_point(|&i| (i as usize) < start);
                let hi = idx.partition_point(|&i| (i as usize) < start + out.len());
                for (i, v) in idx[lo..hi].iter().zip(&val[lo..hi]) {
                    out[*i as usize - start] += a * *v;
                }
            }
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

    /// Folds `a * self` into a reusable accumulator: the allocation-free
    /// way to sum a stream of deltas (e.g. aggregating several collected
    /// gradients before one model application). Sparse deltas merge
    /// supports in-place inside the accumulator's ping-pong buffers; a
    /// dense delta (or an accumulator that already went dense) takes the
    /// dense path. Checked out of `async-optim`'s `ScratchPool` via
    /// `checkout_fold`; the broadcast ring unions bare index supports with
    /// [`crate::sparse::BitmapUnion`] instead.
    pub fn fold_into(&self, a: f64, acc: &mut DeltaFold) {
        acc.fold_scaled(a, self);
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
    /// re-dimensions the accumulator (a pool can serve models of different
    /// sizes across runs).
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
                self.merge_entries(a, s.indices(), s.values(), 0)
            }
            _ => {
                self.ensure_dense();
                d.axpy_into(a, &mut self.dense);
            }
        }
    }

    /// Shard-local fold: `self += a * d[range]`, with the accumulator
    /// living in the shard's **local** coordinates (`self.dim()` must be
    /// `range.len()`; folded index `i` is stored as `i − range.start`).
    /// This is how the sharded server folds one wave of deltas into
    /// per-shard accumulators: each shard folds only its window, and the
    /// concatenation of the shards' supports (offset back by their range
    /// starts) is the wave's global change support.
    ///
    /// # Panics
    /// Panics if `self.dim() != range.len()` or the range extends past
    /// `d.dim()`.
    pub fn fold_scaled_range(&mut self, a: f64, d: &GradDelta, range: std::ops::Range<usize>) {
        assert_eq!(
            self.dim,
            range.len(),
            "fold_scaled_range: accumulator must have the shard's dimension"
        );
        assert!(
            range.end <= d.dim(),
            "fold_scaled_range: window out of bounds"
        );
        match d {
            GradDelta::Sparse(s) if !self.is_dense => {
                let (idx, val) = (s.indices(), s.values());
                let lo = idx.partition_point(|&i| (i as usize) < range.start);
                let hi = idx.partition_point(|&i| (i as usize) < range.end);
                self.merge_entries(a, &idx[lo..hi], &val[lo..hi], range.start as u32);
            }
            _ => {
                self.ensure_dense();
                d.axpy_into_range(a, &mut self.dense, range.start);
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
    /// scratch capacities cover the union. Incoming index `oi[j]` is
    /// stored as `oi[j] − offset` (0 for whole-vector folds, the shard's
    /// range start for [`DeltaFold::fold_scaled_range`]).
    fn merge_entries(&mut self, a: f64, oi: &[u32], ov: &[f64], offset: u32) {
        if oi.is_empty() {
            return;
        }
        if self.idx.is_empty() {
            self.idx.clear();
            self.idx.extend(oi.iter().map(|i| i - offset));
            self.val.clear();
            self.val.extend(ov.iter().map(|v| a * v));
            return;
        }
        self.merge_idx.clear();
        self.merge_val.clear();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.idx.len() && j < oi.len() {
            let (si, sj) = (self.idx[i], oi[j] - offset);
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
        self.merge_idx.extend(oi[j..].iter().map(|i| i - offset));
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
            d.fold_into(a, &mut acc);
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
        GradDelta::Sparse(sv(&[(1, 1.0)], 4)).fold_into(1.0, &mut acc);
        GradDelta::Dense(vec![1.0, 0.0, 2.0, 0.0]).fold_into(0.5, &mut acc);
        assert!(acc.is_dense());
        assert_eq!(acc.nnz(), 4);
        GradDelta::Sparse(sv(&[(3, 2.0)], 4)).fold_into(1.0, &mut acc);
        assert_eq!(acc.to_delta().to_dense(), vec![0.5, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn fold_clear_resets_and_redimensions() {
        let mut acc = DeltaFold::new(3);
        GradDelta::Dense(vec![1.0; 3]).fold_into(1.0, &mut acc);
        acc.clear(5);
        assert_eq!(acc.dim(), 5);
        assert!(!acc.is_dense());
        assert_eq!(acc.nnz(), 0);
        GradDelta::Sparse(sv(&[(4, 7.0)], 5)).fold_into(1.0, &mut acc);
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
        a.fold_into(1.0, &mut acc);
        b.fold_into(1.0, &mut acc);
        let caps = (acc.idx.capacity(), acc.merge_idx.capacity());
        for _ in 0..10 {
            acc.clear(100);
            a.fold_into(1.0, &mut acc);
            b.fold_into(1.0, &mut acc);
        }
        assert_eq!(caps, (acc.idx.capacity(), acc.merge_idx.capacity()));
    }

    #[test]
    fn range_apply_shards_bit_identically() {
        let dim = 23;
        let deltas = [
            GradDelta::Sparse(sv(&[(0, 1.0), (7, -2.0), (11, 0.5), (22, 3.0)], dim)),
            GradDelta::Dense((0..dim).map(|i| (i as f64).sin()).collect()),
        ];
        for d in &deltas {
            let mut whole = vec![0.25; dim];
            d.axpy_into(-1.5, &mut whole);
            for parts in [1usize, 2, 3, 5] {
                let mut sharded = vec![0.25; dim];
                for r in crate::parallel::split_ranges(dim, parts) {
                    d.axpy_into_range(-1.5, &mut sharded[r.clone()], r.start);
                }
                assert_eq!(sharded, whole, "parts={parts}");
            }
        }
    }

    #[test]
    fn range_fold_concatenates_to_the_whole_fold() {
        let dim = 17;
        let deltas = [
            GradDelta::Sparse(sv(&[(1, 2.0), (8, -1.0), (16, 4.0)], dim)),
            GradDelta::Sparse(sv(&[(0, 0.5), (8, 1.0), (9, -3.0)], dim)),
        ];
        let mut whole = DeltaFold::new(dim);
        for (k, d) in deltas.iter().enumerate() {
            d.fold_into(1.0 + k as f64, &mut whole);
        }
        for parts in [2usize, 4] {
            let mut out = vec![0.0; dim];
            let mut support = Vec::new();
            for r in crate::parallel::split_ranges(dim, parts) {
                let mut f = DeltaFold::new(r.len());
                for (k, d) in deltas.iter().enumerate() {
                    f.fold_scaled_range(1.0 + k as f64, d, r.clone());
                }
                f.axpy_into(1.0, &mut out[r.clone()]);
                support.extend(f.indices().iter().map(|i| i + r.start as u32));
            }
            assert_eq!(out, whole.to_delta().to_dense(), "parts={parts}");
            assert_eq!(support, whole.indices(), "parts={parts}");
        }
    }

    #[test]
    fn range_fold_takes_the_dense_arm_for_dense_deltas() {
        let d = GradDelta::Dense(vec![1.0, 2.0, 3.0, 4.0]);
        let mut f = DeltaFold::new(2);
        f.fold_scaled_range(0.5, &d, 2..4);
        assert!(f.is_dense());
        let mut out = vec![0.0; 2];
        f.axpy_into(1.0, &mut out);
        assert_eq!(out, vec![1.5, 2.0]);
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

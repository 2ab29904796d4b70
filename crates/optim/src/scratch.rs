//! The [`ScratchPool`]: checkout/return buffer recycling for the solver
//! hot path.
//!
//! Every steady-state solver iteration needs the same transient buffers —
//! sampled row indices, mini-batch margins, per-row loss coefficients, the
//! gather scratch, and the index/value arrays of the resulting
//! [`GradDelta`]. Allocating them per task is pure overhead; the pool
//! hands warm buffers to task closures ([`ScratchPool::checkout`]) and
//! takes them back after the server absorbs the result
//! ([`ScratchPool::give_back`], [`ScratchPool::recycle_delta`]), so the
//! iteration loop performs **zero heap allocations** once warm — the
//! property the `alloc_zero` counting-allocator test verifies.
//!
//! Ownership rules:
//!
//! * a [`TaskScratch`] is owned by exactly one task from checkout to
//!   give-back; the pool is shared (`Arc` + mutex) so worker threads and
//!   the server side exchange buffers safely;
//! * the buffers inside a produced [`GradDelta`] *travel with the result*
//!   (worker → server); the server returns them via
//!   [`ScratchPool::recycle_delta`] after folding the update into the
//!   model;
//! * dense buffers (gradients, velocities) cycle through
//!   [`ScratchPool::checkout_dense`] / the dense arm of `recycle_delta`.

use std::sync::{Arc, Mutex};

use async_linalg::{DeltaFold, GradDelta};

/// Per-task transient buffers. See the module docs for ownership rules.
#[derive(Debug, Default)]
pub struct TaskScratch {
    /// Sampled (block-local) row indices, strictly increasing.
    pub rows: Vec<u32>,
    /// Mini-batch margins `x_iᵀw`, parallel to `rows`.
    pub margins: Vec<f64>,
    /// Per-row loss-derivative coefficients, parallel to `rows`.
    pub coefs: Vec<f64>,
    /// Gather scratch for the sparse backward kernel: the gathered pairs
    /// and, behind them, the radix sort's second buffer.
    pub pairs: Vec<(u32, f64)>,
    /// Global row ids (SAGA's table-update message), parallel to `rows`.
    pub ids: Vec<u64>,
    /// ASAGA: each row's history version; each distinct one, in first-need
    /// order; each row's position in that list; the models of `distinct`
    /// (emptied by [`ScratchPool::give_back`]: a parked scratch pins none).
    pub(crate) versions: Vec<u64>,
    pub(crate) distinct: Vec<u64>,
    pub(crate) slots: Vec<u32>,
    pub(crate) history: Vec<Arc<Vec<f64>>>,
}

impl TaskScratch {
    /// Fills `distinct` and `slots` from `versions`.
    pub(crate) fn group_versions(&mut self) {
        self.distinct.clear();
        self.slots.clear();
        for &v in &self.versions {
            let fresh = self.distinct.len();
            let slot = self.distinct.iter().position(|&d| d == v).unwrap_or(fresh);
            if slot == fresh {
                self.distinct.push(v);
            }
            self.slots.push(slot as u32);
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    scratch: Vec<TaskScratch>,
    sparse: Vec<(Vec<u32>, Vec<f64>)>,
    dense: Vec<Vec<f64>>,
    folds: Vec<DeltaFold>,
}

/// Most buffers of one kind the pool parks. Far above what a wave keeps in
/// flight (a few per worker), so a closed checkout/return cycle never hits
/// it; it exists for *open* cycles — on the remote engine gradients are
/// computed worker-side and every decoded response delta is recycled into
/// the driver's pool without a matching checkout, which would otherwise
/// grow it by one buffer per step for the whole run. (The worker-side pool
/// of `worker_registry` is a closed cycle: a handler's delta goes back to
/// the pool it was checked out of once it is encoded.)
const MAX_PARKED: usize = 64;

/// Parks `item` unless its list is full (then it is simply dropped).
fn park<T>(list: &mut Vec<T>, item: T) {
    if list.len() < MAX_PARKED {
        list.push(item);
    }
}

/// A shared pool of reusable solver buffers. Cheap to clone (clones share
/// the pool); empty pools grow on demand up to a fixed depth per kind, so
/// a fixed workload stops allocating after its first few iterations.
#[derive(Debug, Clone, Default)]
pub struct ScratchPool {
    inner: Arc<Mutex<Inner>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("scratch pool poisoned")
    }

    /// Checks out a per-task scratch (warm if one was given back).
    pub fn checkout(&self) -> TaskScratch {
        self.lock().scratch.pop().unwrap_or_default()
    }

    /// Returns a per-task scratch to the pool.
    pub fn give_back(&self, mut s: TaskScratch) {
        s.history.clear();
        park(&mut self.lock().scratch, s);
    }

    /// Checks out an index/value buffer pair for a sparse delta.
    pub fn checkout_sparse(&self) -> (Vec<u32>, Vec<f64>) {
        self.lock().sparse.pop().unwrap_or_default()
    }

    /// Checks out a dense buffer of exactly `dim` zeros (a gradient or a
    /// velocity), reusing a returned buffer's capacity.
    pub fn checkout_dense(&self, dim: usize) -> Vec<f64> {
        let mut buf = self.lock().dense.pop().unwrap_or_default();
        buf.clear();
        buf.resize(dim, 0.0);
        buf
    }

    /// Returns a dense buffer to the pool.
    pub fn give_back_dense(&self, buf: Vec<f64>) {
        park(&mut self.lock().dense, buf);
    }

    /// Checks out a [`DeltaFold`] accumulator cleared to dimension `dim`.
    pub fn checkout_fold(&self, dim: usize) -> DeltaFold {
        let mut f = self
            .lock()
            .folds
            .pop()
            .unwrap_or_else(|| DeltaFold::new(dim));
        f.clear(dim);
        f
    }

    /// Returns a fold accumulator to the pool.
    pub fn give_back_fold(&self, f: DeltaFold) {
        park(&mut self.lock().folds, f);
    }

    /// Tears a consumed delta apart and returns its backing buffers to the
    /// pool — the server-side half of the zero-allocation cycle.
    pub fn recycle_delta(&self, delta: GradDelta) {
        match delta {
            GradDelta::Sparse(s) => {
                let (idx, val, _) = s.into_parts();
                park(&mut self.lock().sparse, (idx, val));
            }
            GradDelta::Dense(v) => self.give_back_dense(v),
        }
    }

    /// Returns a SAGA id buffer to the pool (rides the scratch list via a
    /// fresh [`TaskScratch`] when none is checked out — ids travel with
    /// results, detached from their original scratch). A buffer that never
    /// allocated (the SGD family ships no ids) has nothing to return.
    pub fn recycle_ids(&self, ids: Vec<u64>) {
        if ids.capacity() == 0 {
            return;
        }
        let mut inner = self.lock();
        match inner.scratch.iter_mut().find(|s| s.ids.capacity() == 0) {
            Some(s) => s.ids = ids,
            None => park(
                &mut inner.scratch,
                TaskScratch {
                    ids,
                    ..TaskScratch::default()
                },
            ),
        }
    }

    /// Buffers currently parked in the pool, by kind:
    /// `(scratch, sparse pairs, dense, folds)`. Test instrumentation.
    pub fn depth(&self) -> (usize, usize, usize, usize) {
        let i = self.lock();
        (
            i.scratch.len(),
            i.sparse.len(),
            i.dense.len(),
            i.folds.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_linalg::SparseVec;

    #[test]
    fn checkout_reuses_returned_buffers() {
        let pool = ScratchPool::new();
        let mut s = pool.checkout();
        s.rows.reserve(100);
        let cap = s.rows.capacity();
        pool.give_back(s);
        let s2 = pool.checkout();
        assert!(s2.rows.capacity() >= cap, "warm buffer must come back");
        assert_eq!(pool.depth().0, 0);
        pool.give_back(s2);
        assert_eq!(pool.depth().0, 1);
    }

    #[test]
    fn sparse_delta_cycle_preserves_capacity() {
        let pool = ScratchPool::new();
        let (mut idx, mut val) = pool.checkout_sparse();
        idx.extend_from_slice(&[1, 5, 9]);
        val.extend_from_slice(&[1.0, -2.0, 0.5]);
        let caps = (idx.capacity(), val.capacity());
        let delta = GradDelta::Sparse(SparseVec::new(idx, val, 16).unwrap());
        pool.recycle_delta(delta);
        let (idx2, val2) = pool.checkout_sparse();
        assert_eq!((idx2.capacity(), val2.capacity()), caps);
        // Recycled buffers come back dirty; kernels clear them first.
        assert_eq!(idx2.len(), 3);
        assert_eq!(val2.len(), 3);
    }

    #[test]
    fn dense_checkout_is_zeroed_to_dim() {
        let pool = ScratchPool::new();
        let mut d = pool.checkout_dense(8);
        d[3] = 7.0;
        pool.give_back_dense(d);
        let d2 = pool.checkout_dense(5);
        assert_eq!(d2, vec![0.0; 5]);
        pool.recycle_delta(GradDelta::Dense(d2));
        assert_eq!(pool.checkout_dense(10), vec![0.0; 10]);
    }

    #[test]
    fn fold_checkout_clears_state() {
        let pool = ScratchPool::new();
        let mut f = pool.checkout_fold(4);
        GradDelta::Dense(vec![1.0; 4]).fold_into(1.0, &mut f);
        pool.give_back_fold(f);
        let f2 = pool.checkout_fold(6);
        assert_eq!(f2.dim(), 6);
        assert_eq!(f2.nnz(), 0);
        assert!(!f2.is_dense());
    }

    #[test]
    fn unmatched_recycling_cannot_grow_the_pool() {
        // The remote engine's shape: deltas arrive decoded (never checked
        // out of this pool) and are recycled every step.
        let pool = ScratchPool::new();
        for step in 0..10 * MAX_PARKED {
            pool.recycle_delta(GradDelta::Dense(vec![step as f64; 8]));
            pool.recycle_delta(GradDelta::Sparse(
                SparseVec::new(vec![1], vec![1.0], 8).unwrap(),
            ));
            pool.recycle_ids(vec![step as u64]);
            pool.give_back_fold(DeltaFold::new(8));
        }
        assert_eq!(
            pool.depth(),
            (MAX_PARKED, MAX_PARKED, MAX_PARKED, MAX_PARKED)
        );
    }

    #[test]
    fn ids_recycle_round_trips() {
        let pool = ScratchPool::new();
        let mut ids = Vec::with_capacity(64);
        ids.push(7u64);
        pool.recycle_ids(ids);
        let s = pool.checkout();
        assert!(s.ids.capacity() >= 64);
    }
}

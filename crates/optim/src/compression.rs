//! Gradient compression for the worker → server wire: configuration
//! ([`CompressCfg`]) and the shared per-partition error-feedback state
//! ([`CompressorBank`]) the solvers route their deltas through.
//!
//! With compression on, each task's raw gradient is folded into its
//! partition's [`EfState`] residual, the top-k largest-magnitude
//! coordinates of the accumulated signal are selected, their values are
//! quantized to the configured wire format, and the **dequantized**
//! selection ships as a sparse [`GradDelta`] — so the server applies
//! exactly what a remote worker's decoded frame would reconstruct, and
//! the unshipped remainder stays in the residual for the next round
//! (error feedback). [`CompressCfg::Off`] bypasses all of it and is
//! bit-identical to a build without this module.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use async_linalg::{EfState, GradDelta, Quant, SparseVec};
use sparklet::Payload;

use crate::scratch::ScratchPool;

/// What the solvers do to a gradient delta before it ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompressCfg {
    /// Ship deltas uncompressed — bit-identical to builds predating the
    /// compression layer (the default).
    #[default]
    Off,
    /// Error-feedback top-k sparsification: accumulate each raw gradient
    /// into the partition's residual, ship the `k` largest-magnitude
    /// coordinates of the accumulated signal in the `quant` wire format,
    /// and carry the rest forward.
    TopK {
        /// Coordinates shipped per delta (must be ≥ 1; `usize::MAX` with
        /// [`Quant::Exact`] is a lossless passthrough).
        k: usize,
        /// Wire format of the shipped values.
        quant: Quant,
    },
}

impl CompressCfg {
    /// True when deltas ship unmodified.
    pub fn is_off(&self) -> bool {
        matches!(self, CompressCfg::Off)
    }
}

/// The per-partition error-feedback accumulators of one solver run,
/// shared (`Arc`) between the driver and every task closure. Cheap to
/// clone; clones address the same states, which is how tests inject a
/// tracked bank and inspect residuals after the run.
#[derive(Clone, Default)]
pub struct CompressorBank {
    inner: Arc<Mutex<HashMap<usize, EfState>>>,
    rejected: Arc<AtomicU64>,
    track: bool,
}

impl std::fmt::Debug for CompressorBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressorBank")
            .field("track", &self.track)
            .field("rejected", &self.rejected.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl CompressorBank {
    /// An empty bank; partition states materialize on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty bank whose states record the telescoping sums
    /// (`Σ raw` and `Σ shipped` per coordinate) for invariant tests.
    pub fn with_tracking() -> Self {
        Self {
            inner: Arc::default(),
            rejected: Arc::default(),
            track: true,
        }
    }

    /// What a task ships for its raw delta under `cfg`, with its modeled
    /// wire bytes: the delta's own encoding when compression is off, else
    /// [`CompressorBank::compress`].
    pub(crate) fn ship(
        &self,
        cfg: CompressCfg,
        part: usize,
        g: GradDelta,
        pool: &ScratchPool,
    ) -> (GradDelta, u64) {
        match cfg {
            CompressCfg::Off => {
                let wire = g.encoded_len();
                (g, wire)
            }
            CompressCfg::TopK { k, quant } => self.compress(part, g, k, quant, pool),
        }
    }

    /// Compresses one task's raw delta for `part`: folds it into the
    /// partition's residual, selects and quantizes the top `k`
    /// coordinates, recycles the raw delta's buffers into `pool`, and
    /// returns the dequantized selection as a sparse delta plus its
    /// modeled wire bytes (the [`async_linalg::CompressedDelta`] frame
    /// size a remote worker would ship).
    ///
    /// A delta carrying a non-finite coordinate (a diverging task) is
    /// rejected by [`EfState::try_compress`] **before** it can poison the
    /// residual; the frame then falls back to shipping the raw delta
    /// unmodified (charged as an `Exact` compressed frame) and bumps
    /// [`CompressorBank::rejected_frames`], while the partition's
    /// error-feedback state stays intact for subsequent finite deltas.
    pub fn compress(
        &self,
        part: usize,
        g: GradDelta,
        k: usize,
        quant: Quant,
        pool: &ScratchPool,
    ) -> (GradDelta, u64) {
        let dim = g.dim();
        let mut map = self.inner.lock().expect("compressor bank poisoned");
        let ef = map.entry(part).or_insert_with(|| {
            let s = EfState::new(dim);
            if self.track {
                s.with_tracking()
            } else {
                s
            }
        });
        if ef.try_compress(&g, k, quant).is_err() {
            drop(map);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            // Exact passthrough: compressed-frame tag + GradDelta payload.
            let wire = 1 + g.encoded_len();
            return (g, wire);
        }
        let (mut idx, mut val) = pool.checkout_sparse();
        idx.clear();
        val.clear();
        idx.extend_from_slice(ef.shipped_indices());
        val.extend_from_slice(ef.shipped_values());
        let wire = ef.wire_bytes();
        drop(map);
        pool.recycle_delta(g);
        let delta = GradDelta::Sparse(
            SparseVec::new(idx, val, dim).expect("top-k selection is sorted and in range"),
        );
        (delta, wire)
    }

    /// Partitions with materialized state, ascending.
    pub fn parts(&self) -> Vec<usize> {
        let map = self.inner.lock().expect("compressor bank poisoned");
        let mut parts: Vec<usize> = map.keys().copied().collect();
        parts.sort_unstable();
        parts
    }

    /// Runs `f` against `part`'s error-feedback state (residuals,
    /// tracked sums), if the partition ever compressed a delta.
    pub fn with_part<R>(&self, part: usize, f: impl FnOnce(&EfState) -> R) -> Option<R> {
        let map = self.inner.lock().expect("compressor bank poisoned");
        map.get(&part).map(f)
    }

    /// Number of partitions with materialized error-feedback state.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("compressor bank poisoned").len()
    }

    /// True when no partition has compressed anything yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Frames rejected (and shipped raw) because the delta carried a
    /// non-finite coordinate.
    pub fn rejected_frames(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Snapshot of every partition's error-feedback residual, sorted by
    /// partition — the checkpointable face of the bank
    /// ([`crate::Checkpoint::residuals`]). Empty for an uncompressed run.
    pub fn export_residuals(&self) -> Vec<(u64, Vec<f64>)> {
        let map = self.inner.lock().expect("compressor bank poisoned");
        let mut out: Vec<(u64, Vec<f64>)> = map
            .iter()
            .map(|(&part, ef)| (part as u64, ef.residual().to_vec()))
            .collect();
        out.sort_unstable_by_key(|&(part, _)| part);
        out
    }

    /// Rebuilds the bank's partition states from checkpointed residuals
    /// (the inverse of [`CompressorBank::export_residuals`]), discarding
    /// whatever states existed before. Compression resumed from a restored
    /// bank is bit-identical to continuing the original one
    /// ([`EfState::from_residual`]).
    pub fn restore_residuals(&self, residuals: &[(u64, Vec<f64>)]) {
        let mut map = self.inner.lock().expect("compressor bank poisoned");
        map.clear();
        for (part, residual) in residuals {
            let s = EfState::from_residual(residual.clone());
            let s = if self.track { s.with_tracking() } else { s };
            map.insert(*part as usize, s);
        }
    }

    /// Keeps only partitions `< nparts`, dropping state for anything
    /// beyond the run's partition universe. Solvers call this at run
    /// start so a bank reused across runs (or a run with fewer
    /// partitions after churn re-keying) cannot grow without bound —
    /// within one run the key space is already bounded because dead
    /// workers' partitions are re-dealt over the alive set, not
    /// re-keyed.
    pub fn retain_parts_below(&self, nparts: usize) {
        self.inner
            .lock()
            .expect("compressor bank poisoned")
            .retain(|&p, _| p < nparts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_the_default_and_reports_itself() {
        assert!(CompressCfg::default().is_off());
        assert!(!CompressCfg::TopK {
            k: 4,
            quant: Quant::Exact
        }
        .is_off());
    }

    #[test]
    fn bank_compresses_per_partition_and_recycles_buffers() {
        let bank = CompressorBank::with_tracking();
        let pool = ScratchPool::new();
        let g = GradDelta::Dense(vec![3.0, -0.5, 0.25, -4.0]);
        let (d, wire) = bank.compress(0, g, 2, Quant::Exact, &pool);
        match &d {
            GradDelta::Sparse(s) => {
                assert_eq!(s.indices(), &[0, 3]);
                assert_eq!(s.values(), &[3.0, -4.0]);
            }
            GradDelta::Dense(_) => panic!("compressed deltas are sparse"),
        }
        assert_eq!(
            wire,
            async_linalg::CompressedDelta::Exact(d.clone()).encoded_len(),
            "charged as the frame a remote worker would ship"
        );
        // The raw delta's dense buffer went back to the pool.
        assert_eq!(pool.depth().2, 1);
        // The unshipped coordinates wait in the residual.
        let resid = bank
            .with_part(0, |ef| ef.residual().to_vec())
            .expect("part 0 materialized");
        assert_eq!(resid, vec![0.0, -0.5, 0.25, 0.0]);
        assert_eq!(bank.parts(), vec![0]);
        assert!(bank.with_part(7, |_| ()).is_none());
        // A clone addresses the same states.
        assert_eq!(bank.clone().parts(), vec![0]);
    }

    #[test]
    fn non_finite_frames_fall_back_to_exact_and_spare_the_residual() {
        let bank = CompressorBank::with_tracking();
        let pool = ScratchPool::new();
        bank.compress(
            0,
            GradDelta::Dense(vec![1.0, 0.0, 0.0, -2.0]),
            1,
            Quant::I8,
            &pool,
        );
        let resid_before = bank.with_part(0, |ef| ef.residual().to_vec()).unwrap();
        // A divergent task hands in a NaN: the frame ships raw (Exact)
        // instead of poisoning partition 0's error-feedback state.
        let bad = GradDelta::Dense(vec![0.5, f64::NAN, 0.0, 0.0]);
        let bad_wire = 1 + sparklet::Payload::encoded_len(&bad);
        let (d, wire) = bank.compress(0, bad, 1, Quant::I8, &pool);
        match &d {
            GradDelta::Dense(v) => assert!(v[1].is_nan(), "raw frame passes through"),
            GradDelta::Sparse(_) => panic!("fallback ships the unmodified delta"),
        }
        assert_eq!(wire, bad_wire, "charged as an Exact compressed frame");
        assert_eq!(bank.rejected_frames(), 1);
        let resid_after = bank.with_part(0, |ef| ef.residual().to_vec()).unwrap();
        assert_eq!(
            resid_after, resid_before,
            "residual untouched by the poison"
        );
        assert!(resid_after.iter().all(|v| v.is_finite()));
        // Finite compression keeps working against intact state.
        let (_, _) = bank.compress(
            0,
            GradDelta::Dense(vec![0.0, 1.0, 0.0, 0.0]),
            1,
            Quant::I8,
            &pool,
        );
        assert!(bank
            .with_part(0, |ef| ef.residual().iter().all(|v| v.is_finite()))
            .unwrap());
    }

    #[test]
    fn exported_residuals_restore_bit_identically() {
        // Drive a bank, export, restore into a fresh bank, and continue
        // both over the same stream: shipped selections and residuals must
        // stay bitwise equal — the durable-resume contract.
        let bank = CompressorBank::new();
        let pool = ScratchPool::new();
        let stream = |k: u32, part: usize| {
            GradDelta::Dense(vec![
                1.5 * f64::from(k),
                -0.25,
                f64::from(k * k) * 0.125,
                -3.0 + f64::from(part as u32),
            ])
        };
        for k in 0..3 {
            for part in [0usize, 2] {
                bank.compress(part, stream(k, part), 2, Quant::I8, &pool);
            }
        }
        let exported = bank.export_residuals();
        assert_eq!(exported.len(), 2);
        assert!(exported.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        let restored = CompressorBank::new();
        restored.restore_residuals(&exported);
        assert_eq!(restored.parts(), vec![0, 2]);
        for k in 3..6 {
            for part in [0usize, 2] {
                let (a, wa) = bank.compress(part, stream(k, part), 2, Quant::I8, &pool);
                let (b, wb) = restored.compress(part, stream(k, part), 2, Quant::I8, &pool);
                assert_eq!(a, b, "k={k} part={part}");
                assert_eq!(wa, wb);
            }
        }
        assert_eq!(bank.export_residuals(), restored.export_residuals());
    }

    #[test]
    fn bank_prunes_retired_partitions() {
        let bank = CompressorBank::new();
        let pool = ScratchPool::new();
        for part in [0usize, 1, 5, 9] {
            bank.compress(
                part,
                GradDelta::Dense(vec![1.0, 2.0]),
                1,
                Quant::Exact,
                &pool,
            );
        }
        assert_eq!(bank.len(), 4);
        assert!(!bank.is_empty());
        // A rerun with a smaller partition universe drops the stragglers.
        bank.retain_parts_below(2);
        assert_eq!(bank.parts(), vec![0, 1]);
        assert_eq!(bank.len(), 2);
        bank.retain_parts_below(0);
        assert!(bank.is_empty());
    }
}

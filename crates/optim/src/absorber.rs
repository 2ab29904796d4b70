//! The [`ShardedAbsorber`]: shard-parallel, optionally batched server-side
//! absorption of gradient deltas.
//!
//! The coordinator is the engine's serialization point: every collected
//! delta is folded into the model by the driver thread, one dense pass at
//! a time, so once the workers are fast the *server* becomes the
//! throughput wall. The absorber cures that along two independent axes:
//!
//! * **Sharding** (`server_threads`): the model is partitioned into
//!   contiguous coordinate shards ([`async_linalg::parallel::split_ranges`])
//!   and every apply pass runs shard-parallel on a persistent
//!   [`ShardPool`] — no per-call thread spawns. Because the shards are
//!   disjoint and each coordinate sees exactly the serial sequence of f64
//!   operations, a sharded apply is **bit-identical** to the serial apply
//!   for any thread count.
//! * **Batching** (`absorb_batch`): a wave of collected deltas is folded
//!   first — per shard, through the existing [`DeltaFold`] accumulators —
//!   and applied with **one** fused axpy+ridge-shrink pass per shard,
//!   instead of one full pass per delta. Folding reorders the f64
//!   arithmetic (the fused coefficients are exact in ℝ, not in f64), so
//!   batched waves are *value-equivalent, not bit-identical*, to applying
//!   the same deltas one at a time; the byte-gated benches therefore pin
//!   `absorb_batch = 1`.
//!
//! Ownership rules: the absorber owns the shard pool, one fold
//! accumulator per shard, and the wave-coefficient/support buffers for its
//! whole life — a steady-state wave performs **zero heap allocations**
//! (proven by the batched arm of `tests/alloc_zero.rs`). Model vectors are
//! borrowed per call and carved into disjoint shard views via
//! [`DisjointSlices`]; the wave closures never touch coordinates outside
//! their shard.

use std::ops::Range;

use async_linalg::parallel::split_ranges;
use async_linalg::{dense, DeltaFold, DisjointSlices, GradDelta, ShardPool};

/// One shard's state: its coordinate range and its reusable fold
/// accumulator (dimensioned to the range, with shard-local indices).
struct Shard {
    range: Range<usize>,
    fold: DeltaFold,
}

/// Shard-parallel server absorption. See the module docs.
pub struct ShardedAbsorber {
    pool: ShardPool,
    shards: Vec<Shard>,
    /// Fused per-delta coefficients of the current wave.
    coefs: Vec<f64>,
    /// Global change support of the last sparse wave (concatenated shard
    /// supports, ascending).
    support: Vec<u32>,
    dim: usize,
}

impl ShardedAbsorber {
    /// An absorber over models of dimension `dim`, applying with
    /// `server_threads` pool participants (clamped to at least 1; one
    /// shard per participant). With one thread every pass runs inline on
    /// the caller — the serial code path.
    pub fn new(dim: usize, server_threads: usize) -> Self {
        let threads = server_threads.max(1);
        let shards = split_ranges(dim, threads)
            .into_iter()
            .map(|range| Shard {
                fold: DeltaFold::new(range.len()),
                range,
            })
            .collect();
        Self {
            pool: ShardPool::new(threads),
            shards,
            coefs: Vec::new(),
            support: Vec::new(),
            dim,
        }
    }

    /// Model dimension the absorber shards.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of coordinate shards (≤ the requested thread count; empty
    /// ranges are dropped for tiny models).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The persistent shard pool (also used for shard-parallel broadcast
    /// snapshot pushes).
    pub fn pool(&self) -> &ShardPool {
        &self.pool
    }

    /// Global change support of the last [`ShardedAbsorber::asgd_wave`]
    /// that returned `true` (ascending coordinate indices).
    pub fn wave_support(&self) -> &[u32] {
        &self.support
    }

    /// One exact ASGD update, shard-parallel: `w ← w − a·(g + λ·w)` with
    /// `a = γ·damp`. The per-coordinate expressions are exactly the serial
    /// solver's (dense arm: the fused three-term update; sparse arm: ridge
    /// shrink — skipped when it is an exact no-op — then a support-only
    /// scatter), so the result is bit-identical to the serial apply for
    /// any thread count. Returns `true` when the update's change support
    /// is exactly `g`'s sparse support (λ = 0 sparse arm), the
    /// precondition for an incremental-broadcast diff push.
    ///
    /// # Panics
    /// Panics if `w.len()` or `g.dim()` differ from the absorber's
    /// dimension.
    pub fn asgd_step(&mut self, w: &mut [f64], g: &GradDelta, a: f64, lambda: f64) -> bool {
        self.check_dims(w.len(), g.dim());
        let view = DisjointSlices::new(w);
        match g {
            GradDelta::Dense(gv) => {
                self.pool.for_each(&mut self.shards, |_, sh| {
                    // SAFETY: shard ranges are disjoint by construction.
                    let chunk = unsafe { view.range(sh.range.clone()) };
                    for (wi, gi) in chunk.iter_mut().zip(&gv[sh.range.clone()]) {
                        *wi -= a * (*gi + lambda * *wi);
                    }
                });
                false
            }
            GradDelta::Sparse(_) => {
                let shrink = a * lambda;
                self.pool.for_each(&mut self.shards, |_, sh| {
                    // SAFETY: shard ranges are disjoint by construction.
                    let chunk = unsafe { view.range(sh.range.clone()) };
                    if shrink != 0.0 {
                        for wi in chunk.iter_mut() {
                            *wi -= shrink * *wi;
                        }
                    }
                    g.axpy_into_range(-a, chunk, sh.range.start);
                });
                shrink == 0.0
            }
        }
    }

    /// One fused ASGD wave: folds deltas `0..n` (looked up through
    /// `delta`) per shard with the exact fused coefficients of the serial
    /// recurrence `w ← (1 − γ·dₖ·λ)·w − γ·dₖ·gₖ`, then applies one
    /// shrink+axpy pass per shard:
    ///
    /// ```text
    /// w ← S·w − Σₖ cₖ·gₖ,   S = Πₖ sₖ,  sₖ = 1 − γ·dₖ·λ,  cₖ = γ·dₖ·Πⱼ₍ⱼ₎₌ₖ₊₁ sⱼ
    /// ```
    ///
    /// which equals the delta-at-a-time application in exact arithmetic —
    /// the f64 reordering is why batched waves are value-equivalent, not
    /// bit-identical. All-sparse waves fold through the per-shard
    /// [`DeltaFold`] accumulators (one scatter per shard); a wave with any
    /// dense delta applies the fused coefficients delta-sequentially per
    /// shard. Returns `true` when the wave's change support is exactly the
    /// folded sparse support (λ = 0, all deltas sparse), available from
    /// [`ShardedAbsorber::wave_support`].
    ///
    /// # Panics
    /// Panics on a dimension mismatch or when `damps.len() != n`.
    pub fn asgd_wave<'d>(
        &mut self,
        w: &mut [f64],
        n: usize,
        delta: impl Fn(usize) -> &'d GradDelta + Sync,
        damps: &[f64],
        step: f64,
        lambda: f64,
    ) -> bool {
        assert_eq!(damps.len(), n, "asgd_wave: damps/delta count mismatch");
        self.check_wave_dims(w.len(), n, &delta);
        // Fused coefficients: cₖ carries the shrink factors of every
        // *later* delta; S is the total shrink.
        self.coefs.clear();
        self.coefs.resize(n, 0.0);
        let mut total_shrink = 1.0;
        for k in (0..n).rev() {
            self.coefs[k] = step * damps[k] * total_shrink;
            total_shrink *= 1.0 - step * damps[k] * lambda;
        }
        let all_sparse = (0..n).all(|k| delta(k).is_sparse());
        let view = DisjointSlices::new(w);
        let coefs = &self.coefs;
        if all_sparse {
            self.pool.for_each(&mut self.shards, |_, sh| {
                // SAFETY: shard ranges are disjoint by construction.
                let chunk = unsafe { view.range(sh.range.clone()) };
                sh.fold.clear(sh.range.len());
                for (k, c) in coefs.iter().enumerate() {
                    sh.fold.fold_scaled_range(*c, delta(k), sh.range.clone());
                }
                if total_shrink != 1.0 {
                    dense::scal(total_shrink, chunk);
                }
                sh.fold.axpy_into(-1.0, chunk);
            });
        } else {
            self.pool.for_each(&mut self.shards, |_, sh| {
                // SAFETY: shard ranges are disjoint by construction.
                let chunk = unsafe { view.range(sh.range.clone()) };
                if total_shrink != 1.0 {
                    dense::scal(total_shrink, chunk);
                }
                for (k, c) in coefs.iter().enumerate() {
                    delta(k).axpy_into_range(-c, chunk, sh.range.start);
                }
            });
        }
        let sparse_support = all_sparse && lambda == 0.0;
        if sparse_support {
            self.support.clear();
            for sh in &self.shards {
                self.support
                    .extend(sh.fold.indices().iter().map(|i| i + sh.range.start as u32));
            }
        }
        sparse_support
    }

    /// One exact staleness-damped momentum update, shard-parallel:
    /// `u ← β·u + g + λ·w; w ← w − γ·u` with the serial solver's exact
    /// per-coordinate expressions (dense arm fused, sparse arm as decay +
    /// support scatter + step) — the `n = 1` [`ShardedAbsorber::msgd_wave`].
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn msgd_step(
        &mut self,
        w: &mut [f64],
        u: &mut [f64],
        g: &GradDelta,
        beta: f64,
        gamma: f64,
        lambda: f64,
    ) {
        self.msgd_wave(w, u, 1, |_| g, &[beta], &[gamma], lambda);
    }

    /// One momentum wave: the batch's updates applied delta-sequentially
    /// *within* each shard (momentum's velocity recurrence couples every
    /// coordinate to every delta, so there is no fold form — the wave's
    /// win is one shard dispatch and one snapshot push per batch). The
    /// per-coordinate recurrence is exactly the serial one, so a wave is
    /// bit-identical to applying its deltas one at a time with the same
    /// `(βₖ, γₖ)` sequence.
    ///
    /// # Panics
    /// Panics on a dimension mismatch or when `betas`/`gammas` don't have
    /// `n` entries.
    #[allow(clippy::too_many_arguments)]
    pub fn msgd_wave<'d>(
        &mut self,
        w: &mut [f64],
        u: &mut [f64],
        n: usize,
        delta: impl Fn(usize) -> &'d GradDelta + Sync,
        betas: &[f64],
        gammas: &[f64],
        lambda: f64,
    ) {
        assert_eq!(betas.len(), n, "msgd_wave: betas/delta count mismatch");
        assert_eq!(gammas.len(), n, "msgd_wave: gammas/delta count mismatch");
        self.check_wave_dims(w.len(), n, &delta);
        assert_eq!(u.len(), self.dim, "msgd_wave: velocity dim mismatch");
        let wv = DisjointSlices::new(w);
        let uv = DisjointSlices::new(u);
        self.pool.for_each(&mut self.shards, |_, sh| {
            // SAFETY: shard ranges are disjoint by construction.
            let (wc, uc) = unsafe { (wv.range(sh.range.clone()), uv.range(sh.range.clone())) };
            for k in 0..n {
                msgd_apply_range(
                    wc,
                    uc,
                    delta(k),
                    betas[k],
                    gammas[k],
                    lambda,
                    sh.range.start,
                );
            }
        });
    }

    /// One exact ASAGA update, shard-parallel: the SAGA estimator step
    /// `w ← w − a·(δ + ᾱ + λ·w)` (with `δ` scattered on its support in the
    /// sparse arm) followed by the table-mean absorption
    /// `ᾱ ← ᾱ + scale·δ`, in the serial solver's exact per-coordinate
    /// order — the `n = 1` [`ShardedAbsorber::asaga_wave`]. `a = γ·damp`;
    /// `scale` is the batch fraction `b/n` of the telescoping delta.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn asaga_step(
        &mut self,
        w: &mut [f64],
        alpha_bar: &mut [f64],
        delta: &GradDelta,
        a: f64,
        lambda: f64,
        scale: f64,
    ) {
        self.asaga_wave(w, alpha_bar, 1, |_| delta, &[1.0], a, lambda, &[scale]);
    }

    /// One ASAGA wave: the batch's updates applied delta-sequentially
    /// within each shard (each estimator step must read the ᾱ produced by
    /// the previous table update — that ordering is what keeps SAGA
    /// unbiased, so it is preserved inside the wave). Bit-identical to
    /// applying the deltas one at a time with the same coefficient
    /// sequences; the wave's win is one dispatch and one snapshot push.
    ///
    /// # Panics
    /// Panics on a dimension mismatch or when `damps`/`scales` don't have
    /// `n` entries.
    #[allow(clippy::too_many_arguments)]
    pub fn asaga_wave<'d>(
        &mut self,
        w: &mut [f64],
        alpha_bar: &mut [f64],
        n: usize,
        delta: impl Fn(usize) -> &'d GradDelta + Sync,
        damps: &[f64],
        step: f64,
        lambda: f64,
        scales: &[f64],
    ) {
        assert_eq!(damps.len(), n, "asaga_wave: damps/delta count mismatch");
        assert_eq!(scales.len(), n, "asaga_wave: scales/delta count mismatch");
        self.check_wave_dims(w.len(), n, &delta);
        assert_eq!(alpha_bar.len(), self.dim, "asaga_wave: ᾱ dim mismatch");
        let wv = DisjointSlices::new(w);
        let av = DisjointSlices::new(alpha_bar);
        self.pool.for_each(&mut self.shards, |_, sh| {
            // SAFETY: shard ranges are disjoint by construction.
            let (wc, ac) = unsafe { (wv.range(sh.range.clone()), av.range(sh.range.clone())) };
            for k in 0..n {
                asaga_apply_range(
                    wc,
                    ac,
                    delta(k),
                    step * damps[k],
                    lambda,
                    scales[k],
                    sh.range.start,
                );
            }
        });
    }

    /// Validates every delta of a wave (not just the first), upholding
    /// the wave methods' panic-on-dimension-mismatch contract.
    fn check_wave_dims<'d>(&self, w_len: usize, n: usize, delta: &impl Fn(usize) -> &'d GradDelta) {
        assert_eq!(w_len, self.dim, "absorber: model dim mismatch");
        for k in 0..n {
            assert_eq!(delta(k).dim(), self.dim, "absorber: delta {k} dim mismatch");
        }
    }

    fn check_dims(&self, w_len: usize, delta_dim: usize) {
        assert_eq!(w_len, self.dim, "absorber: model dim mismatch");
        assert_eq!(delta_dim, self.dim, "absorber: delta dim mismatch");
    }
}

impl std::fmt::Debug for ShardedAbsorber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedAbsorber")
            .field("dim", &self.dim)
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// The serial momentum recurrence on one shard's coordinate window.
fn msgd_apply_range(
    wc: &mut [f64],
    uc: &mut [f64],
    g: &GradDelta,
    beta: f64,
    gamma: f64,
    lambda: f64,
    start: usize,
) {
    match g {
        GradDelta::Dense(gv) => {
            let gw = &gv[start..start + wc.len()];
            for i in 0..wc.len() {
                uc[i] = beta * uc[i] + gw[i] + lambda * wc[i];
                wc[i] -= gamma * uc[i];
            }
        }
        GradDelta::Sparse(_) => {
            for i in 0..wc.len() {
                uc[i] = beta * uc[i] + lambda * wc[i];
            }
            g.axpy_into_range(1.0, uc, start);
            for i in 0..wc.len() {
                wc[i] -= gamma * uc[i];
            }
        }
    }
}

/// The serial SAGA estimator step + table absorption on one shard's
/// coordinate window.
fn asaga_apply_range(
    wc: &mut [f64],
    ac: &mut [f64],
    delta: &GradDelta,
    a: f64,
    lambda: f64,
    scale: f64,
    start: usize,
) {
    match delta {
        GradDelta::Dense(dv) => {
            let dw = &dv[start..start + wc.len()];
            for i in 0..wc.len() {
                let g = dw[i] + ac[i] + lambda * wc[i];
                wc[i] -= a * g;
            }
        }
        GradDelta::Sparse(_) => {
            for i in 0..wc.len() {
                wc[i] -= a * (ac[i] + lambda * wc[i]);
            }
            delta.axpy_into_range(-a, wc, start);
        }
    }
    delta.axpy_into_range(scale, ac, start);
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_linalg::SparseVec;

    fn sv(pairs: &[(u32, f64)], dim: usize) -> GradDelta {
        GradDelta::Sparse(SparseVec::from_pairs(pairs.to_vec(), dim).unwrap())
    }

    fn deltas(dim: usize) -> Vec<GradDelta> {
        vec![
            sv(&[(1, 2.0), (7, -1.0), (30, 0.5)], dim),
            GradDelta::Dense(
                (0..dim)
                    .map(|i| ((i * 13 % 7) as f64) * 0.1 - 0.3)
                    .collect(),
            ),
            sv(&[(0, -0.25), (7, 4.0), (31, 1.0)], dim),
        ]
    }

    /// The serial reference: exactly the historical solver expressions.
    fn asgd_serial(w: &mut [f64], g: &GradDelta, a: f64, lambda: f64) {
        match g {
            GradDelta::Dense(gv) => {
                for i in 0..w.len() {
                    w[i] -= a * (gv[i] + lambda * w[i]);
                }
            }
            GradDelta::Sparse(_) => {
                let shrink = a * lambda;
                if shrink != 0.0 {
                    for wi in w.iter_mut() {
                        *wi -= shrink * *wi;
                    }
                }
                g.axpy_into(-a, w);
            }
        }
    }

    #[test]
    fn asgd_step_is_bit_identical_across_thread_counts() {
        let dim = 97;
        for threads in [1usize, 2, 3, 8] {
            let mut ab = ShardedAbsorber::new(dim, threads);
            let mut w: Vec<f64> = (0..dim).map(|i| (i as f64).sin()).collect();
            let mut reference = w.clone();
            for (k, g) in deltas(dim).iter().enumerate() {
                let a = 0.1 + 0.05 * k as f64;
                let sparse = ab.asgd_step(&mut w, g, a, 1e-3);
                asgd_serial(&mut reference, g, a, 1e-3);
                assert!(!sparse, "λ>0 never declares a sparse support");
            }
            assert_eq!(w, reference, "threads={threads}");
        }
    }

    #[test]
    fn asgd_step_declares_sparse_support_only_without_ridge() {
        let dim = 32;
        let mut ab = ShardedAbsorber::new(dim, 2);
        let mut w = vec![0.5; dim];
        assert!(ab.asgd_step(&mut w, &sv(&[(3, 1.0)], dim), 0.1, 0.0));
        assert!(!ab.asgd_step(&mut w, &sv(&[(3, 1.0)], dim), 0.1, 0.01));
        assert!(!ab.asgd_step(&mut w, &GradDelta::Dense(vec![0.1; dim]), 0.1, 0.0));
    }

    #[test]
    fn asgd_wave_matches_sequential_within_1e9() {
        let dim = 64;
        for threads in [1usize, 4] {
            let mut ab = ShardedAbsorber::new(dim, threads);
            let ds = deltas(dim);
            let damps = [1.0, 0.5, 0.25];
            for lambda in [0.0, 1e-2] {
                let mut batched: Vec<f64> = (0..dim).map(|i| 0.01 * i as f64).collect();
                let mut sequential = batched.clone();
                ab.asgd_wave(&mut batched, ds.len(), |k| &ds[k], &damps, 0.2, lambda);
                for (k, g) in ds.iter().enumerate() {
                    asgd_serial(&mut sequential, g, 0.2 * damps[k], lambda);
                }
                for (b, s) in batched.iter().zip(&sequential) {
                    assert!(
                        (b - s).abs() <= 1e-9 * s.abs().max(1.0),
                        "λ={lambda}: {b} vs {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_sparse_wave_reports_the_folded_support() {
        let dim = 40;
        let mut ab = ShardedAbsorber::new(dim, 3);
        let ds = [
            sv(&[(1, 1.0), (20, 2.0)], dim),
            sv(&[(5, -1.0), (20, 1.0)], dim),
        ];
        let mut w = vec![0.0; dim];
        let sparse = ab.asgd_wave(&mut w, 2, |k| &ds[k], &[1.0, 1.0], 0.1, 0.0);
        assert!(sparse);
        assert_eq!(ab.wave_support(), &[1, 5, 20]);
        // Untouched coordinates really are untouched.
        assert_eq!(w[0], 0.0);
        assert!((w[20] + 0.1 * 3.0).abs() < 1e-15);
    }

    #[test]
    fn msgd_step_and_wave_are_bit_identical_to_serial() {
        let dim = 53;
        let ds = deltas(dim);
        let betas = [0.9, 0.45, 0.3];
        let gammas = [0.1, 0.1, 0.05];
        // Serial reference via a 1-thread absorber (the serial expressions
        // themselves), stepped one delta at a time.
        let mut serial = ShardedAbsorber::new(dim, 1);
        let mut w_ref: Vec<f64> = (0..dim).map(|i| (i as f64) * 0.01).collect();
        let mut u_ref = vec![0.0; dim];
        for (k, g) in ds.iter().enumerate() {
            serial.msgd_step(&mut w_ref, &mut u_ref, g, betas[k], gammas[k], 1e-3);
        }
        for threads in [2usize, 5] {
            // Stepped, sharded.
            let mut ab = ShardedAbsorber::new(dim, threads);
            let mut w: Vec<f64> = (0..dim).map(|i| (i as f64) * 0.01).collect();
            let mut u = vec![0.0; dim];
            for (k, g) in ds.iter().enumerate() {
                ab.msgd_step(&mut w, &mut u, g, betas[k], gammas[k], 1e-3);
            }
            assert_eq!(w, w_ref, "stepped threads={threads}");
            assert_eq!(u, u_ref, "stepped threads={threads}");
            // One wave.
            let mut w = (0..dim).map(|i| (i as f64) * 0.01).collect::<Vec<_>>();
            let mut u = vec![0.0; dim];
            ab.msgd_wave(&mut w, &mut u, ds.len(), |k| &ds[k], &betas, &gammas, 1e-3);
            assert_eq!(w, w_ref, "wave threads={threads}");
            assert_eq!(u, u_ref, "wave threads={threads}");
        }
    }

    #[test]
    fn asaga_step_and_wave_are_bit_identical_to_serial() {
        let dim = 41;
        let ds = deltas(dim);
        let damps = [1.0, 0.5, 1.0];
        let scales = [0.05, 0.1, 0.05];
        let mut serial = ShardedAbsorber::new(dim, 1);
        let mut w_ref: Vec<f64> = (0..dim).map(|i| (i as f64).cos()).collect();
        let mut a_ref: Vec<f64> = (0..dim).map(|i| (i as f64) * 0.02 - 0.3).collect();
        for (k, d) in ds.iter().enumerate() {
            serial.asaga_step(&mut w_ref, &mut a_ref, d, 0.3 * damps[k], 1e-3, scales[k]);
        }
        for threads in [2usize, 7] {
            let mut ab = ShardedAbsorber::new(dim, threads);
            let mut w: Vec<f64> = (0..dim).map(|i| (i as f64).cos()).collect();
            let mut a: Vec<f64> = (0..dim).map(|i| (i as f64) * 0.02 - 0.3).collect();
            for (k, d) in ds.iter().enumerate() {
                ab.asaga_step(&mut w, &mut a, d, 0.3 * damps[k], 1e-3, scales[k]);
            }
            assert_eq!(w, w_ref, "stepped threads={threads}");
            assert_eq!(a, a_ref, "stepped threads={threads}");
            let mut w: Vec<f64> = (0..dim).map(|i| (i as f64).cos()).collect();
            let mut a: Vec<f64> = (0..dim).map(|i| (i as f64) * 0.02 - 0.3).collect();
            ab.asaga_wave(
                &mut w,
                &mut a,
                ds.len(),
                |k| &ds[k],
                &damps,
                0.3,
                1e-3,
                &scales,
            );
            assert_eq!(w, w_ref, "wave threads={threads}");
            assert_eq!(a, a_ref, "wave threads={threads}");
        }
    }

    #[test]
    fn tiny_models_drop_empty_shards() {
        let ab = ShardedAbsorber::new(3, 8);
        assert_eq!(ab.shards(), 3);
        assert_eq!(ab.dim(), 3);
    }
}

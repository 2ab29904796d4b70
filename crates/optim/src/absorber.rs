//! The [`ShardedAbsorber`]: server-side absorption of gradient deltas on
//! the calling thread, one delta per model update.
//!
//! The coordinator is the engine's serialization point: every collected
//! delta is applied to the model by the coordinator's thread, as the
//! paper's server is Spark's single driver thread. There is one code path
//! per rule, the whole-vector loop, with the serial solver's exact
//! per-coordinate expressions.
//!
//! There are no server threads: a [`ShardPool`] wave dispatch costs several
//! times the whole absorb it would split (ARCHITECTURE.md, "Server
//! absorption"). The name, [`ShardedAbsorber::new`]'s thread count and
//! [`ShardedAbsorber::pool`] remain because the frozen `benchmark/` harness
//! calls them; they go when it is re-frozen (ROADMAP item 9(b)).
//!
//! The absorber holds no buffers: model vectors are borrowed per call, and
//! an absorb allocates nothing.

use async_linalg::{GradDelta, ShardPool};

/// Single-threaded server absorption. See the module docs.
pub struct ShardedAbsorber {
    /// A one-thread pool: no threads, kept for [`ShardedAbsorber::pool`].
    pool: ShardPool,
    dim: usize,
}

impl ShardedAbsorber {
    /// An absorber over models of dimension `dim`. The thread count is
    /// ignored — absorption runs on the caller; the parameter is kept for
    /// the frozen `benchmark/` harness and goes with ROADMAP item 9(b).
    pub fn new(dim: usize, _threads: usize) -> Self {
        Self {
            pool: ShardPool::new(1),
            dim,
        }
    }

    /// Model dimension the absorber serves.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// A one-thread [`ShardPool`], for
    /// `async_core::AsyncBcast::push_snapshot_sharded`, which ignores it.
    /// Kept for the frozen `benchmark/` harness; goes with ROADMAP item
    /// 9(b).
    pub fn pool(&self) -> &ShardPool {
        &self.pool
    }

    /// One exact ASGD update: `w ← w − a·(g + λ·w)` with `a = γ·damp`.
    /// The per-coordinate expressions are the serial solver's (dense arm:
    /// the fused three-term update; sparse arm: ridge shrink — skipped
    /// when it is an exact no-op — then a support-only scatter). Returns
    /// `true` when the update's change support is exactly `g`'s sparse
    /// support (λ = 0 sparse arm), the precondition for an
    /// incremental-broadcast diff push.
    ///
    /// # Panics
    /// Panics if `w.len()` or `g.dim()` differ from the absorber's
    /// dimension.
    pub fn asgd_step(&mut self, w: &mut [f64], g: &GradDelta, a: f64, lambda: f64) -> bool {
        self.check_dims(w.len(), g.dim());
        match g {
            GradDelta::Dense(gv) => {
                for (wi, gi) in w.iter_mut().zip(gv) {
                    *wi -= a * (*gi + lambda * *wi);
                }
                false
            }
            GradDelta::Sparse(_) => {
                let shrink = a * lambda;
                if shrink != 0.0 {
                    for wi in w.iter_mut() {
                        *wi -= shrink * *wi;
                    }
                }
                g.axpy_into(-a, w);
                shrink == 0.0
            }
        }
    }

    /// One momentum update, `u ← β·u + g + λ·w; w ← w − γ·u`, with the
    /// serial solver's exact per-coordinate expressions (dense arm fused,
    /// sparse arm as decay + support scatter + step).
    ///
    /// # Panics
    /// Panics if `w`, `u` or `g` differ from the absorber's dimension.
    pub fn msgd_step(
        &mut self,
        w: &mut [f64],
        u: &mut [f64],
        g: &GradDelta,
        beta: f64,
        gamma: f64,
        lambda: f64,
    ) {
        self.check_dims(w.len(), g.dim());
        assert_eq!(u.len(), self.dim, "msgd_step: velocity dim mismatch");
        match g {
            GradDelta::Dense(gv) => {
                let gv = &gv[..w.len()];
                for i in 0..w.len() {
                    u[i] = beta * u[i] + gv[i] + lambda * w[i];
                    w[i] -= gamma * u[i];
                }
            }
            GradDelta::Sparse(_) => {
                for i in 0..w.len() {
                    u[i] = beta * u[i] + lambda * w[i];
                }
                g.axpy_into(1.0, u);
                for i in 0..w.len() {
                    w[i] -= gamma * u[i];
                }
            }
        }
    }

    /// One exact ASAGA update: the SAGA estimator step
    /// `w ← w − a·(δ + ᾱ + λ·w)` (with `δ` scattered on its support in the
    /// sparse arm) followed by the table-mean absorption
    /// `ᾱ ← ᾱ + scale·δ`, in the serial solver's exact per-coordinate
    /// order. `a = γ·damp`; `scale` is the batch fraction `b/n` of the
    /// telescoping delta.
    ///
    /// # Panics
    /// Panics if `w`, `alpha_bar` or `delta` differ from the absorber's
    /// dimension.
    pub fn asaga_step(
        &mut self,
        w: &mut [f64],
        alpha_bar: &mut [f64],
        delta: &GradDelta,
        a: f64,
        lambda: f64,
        scale: f64,
    ) {
        self.check_dims(w.len(), delta.dim());
        assert_eq!(alpha_bar.len(), self.dim, "asaga_step: ᾱ dim mismatch");
        match delta {
            GradDelta::Dense(dv) => {
                let dv = &dv[..w.len()];
                for i in 0..w.len() {
                    let g = dv[i] + alpha_bar[i] + lambda * w[i];
                    w[i] -= a * g;
                }
            }
            GradDelta::Sparse(_) => {
                for i in 0..w.len() {
                    w[i] -= a * (alpha_bar[i] + lambda * w[i]);
                }
                delta.axpy_into(-a, w);
            }
        }
        delta.axpy_into(scale, alpha_bar);
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
            .finish()
    }
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

    /// The serial momentum recurrence, densified: the sparse arm's
    /// support scatter adds `g` after the decay, as a dense add would.
    fn msgd_serial(
        w: &mut [f64],
        u: &mut [f64],
        g: &GradDelta,
        beta: f64,
        gamma: f64,
        lambda: f64,
    ) {
        let gv = g.to_dense();
        for i in 0..w.len() {
            u[i] = match g {
                GradDelta::Dense(_) => beta * u[i] + gv[i] + lambda * w[i],
                GradDelta::Sparse(_) => beta * u[i] + lambda * w[i] + gv[i],
            };
            w[i] -= gamma * u[i];
        }
    }

    /// The serial SAGA step then table absorption, densified the same way.
    fn asaga_serial(w: &mut [f64], ac: &mut [f64], d: &GradDelta, a: f64, lambda: f64, scale: f64) {
        let dv = d.to_dense();
        for i in 0..w.len() {
            match d {
                GradDelta::Dense(_) => w[i] -= a * (dv[i] + ac[i] + lambda * w[i]),
                GradDelta::Sparse(_) => {
                    w[i] -= a * (ac[i] + lambda * w[i]);
                    w[i] += -a * dv[i];
                }
            }
            ac[i] += scale * dv[i];
        }
    }

    #[test]
    fn asgd_step_is_bit_identical_to_the_serial_expressions() {
        let dim = 97;
        let mut ab = ShardedAbsorber::new(dim, 1);
        let mut w: Vec<f64> = (0..dim).map(|i| (i as f64).sin()).collect();
        let mut reference = w.clone();
        for (k, g) in deltas(dim).iter().enumerate() {
            let a = 0.1 + 0.05 * k as f64;
            let sparse = ab.asgd_step(&mut w, g, a, 1e-3);
            asgd_serial(&mut reference, g, a, 1e-3);
            assert!(!sparse, "λ>0 never declares a sparse support");
        }
        assert_eq!(w, reference);
    }

    #[test]
    fn asgd_step_declares_sparse_support_only_without_ridge() {
        let dim = 32;
        let mut ab = ShardedAbsorber::new(dim, 1);
        let mut w = vec![0.5; dim];
        assert!(ab.asgd_step(&mut w, &sv(&[(3, 1.0)], dim), 0.1, 0.0));
        assert!(!ab.asgd_step(&mut w, &sv(&[(3, 1.0)], dim), 0.1, 0.01));
        assert!(!ab.asgd_step(&mut w, &GradDelta::Dense(vec![0.1; dim]), 0.1, 0.0));
    }

    #[test]
    fn msgd_step_is_bit_identical_to_serial() {
        let dim = 53;
        let betas = [0.9, 0.45, 0.3];
        let gammas = [0.1, 0.1, 0.05];
        let mut ab = ShardedAbsorber::new(dim, 1);
        let mut w: Vec<f64> = (0..dim).map(|i| (i as f64) * 0.01).collect();
        let mut u = vec![0.0; dim];
        let (mut w_ref, mut u_ref) = (w.clone(), u.clone());
        for (k, g) in deltas(dim).iter().enumerate() {
            ab.msgd_step(&mut w, &mut u, g, betas[k], gammas[k], 1e-3);
            msgd_serial(&mut w_ref, &mut u_ref, g, betas[k], gammas[k], 1e-3);
        }
        assert_eq!(w, w_ref);
        assert_eq!(u, u_ref);
    }

    #[test]
    fn asaga_step_is_bit_identical_to_serial() {
        let dim = 41;
        let damps = [1.0, 0.5, 1.0];
        let scales = [0.05, 0.1, 0.05];
        let mut ab = ShardedAbsorber::new(dim, 1);
        let mut w: Vec<f64> = (0..dim).map(|i| (i as f64).cos()).collect();
        let mut a: Vec<f64> = (0..dim).map(|i| (i as f64) * 0.02 - 0.3).collect();
        let (mut w_ref, mut a_ref) = (w.clone(), a.clone());
        for (k, d) in deltas(dim).iter().enumerate() {
            ab.asaga_step(&mut w, &mut a, d, 0.3 * damps[k], 1e-3, scales[k]);
            asaga_serial(&mut w_ref, &mut a_ref, d, 0.3 * damps[k], 1e-3, scales[k]);
        }
        assert_eq!(w, w_ref);
        assert_eq!(a, a_ref);
    }
}

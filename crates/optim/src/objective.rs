//! The optimization objectives of the paper's evaluation (§2, §6).
//!
//! Both are finite sums `F(w) = (1/n) Σⱼ f(xⱼᵀw, yⱼ) + (λ/2)‖w‖²` over the
//! rows of a dataset, which is the shape every solver in this crate
//! exploits: a mini-batch gradient is a mean of per-row terms
//! `f'(xⱼᵀw, yⱼ)·xⱼ`, and the ridge term is applied server-side so tasks
//! never double-count it.

use async_data::{Block, Dataset};
use async_linalg::parallel::{par_matvec, par_matvec_t, par_residual_sq};
use async_linalg::{dense, GradDelta, Matrix, ParallelismCfg, SparseVec};

use crate::scratch::{ScratchPool, TaskScratch};

/// A row-separable regularized objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// `(1/n)‖A·w − y‖² + (λ/2)‖w‖²` — the paper's evaluation metric
    /// objective.
    LeastSquares {
        /// Ridge coefficient λ ≥ 0.
        lambda: f64,
    },
    /// `(1/n) Σ ln(1 + exp(−yⱼ·xⱼᵀw)) + (λ/2)‖w‖²` with labels in {−1, +1}
    /// — the paper's logistic-regression workload (eq. 2).
    Logistic {
        /// Ridge coefficient λ ≥ 0.
        lambda: f64,
    },
}

impl Objective {
    /// The ridge coefficient.
    pub fn lambda(&self) -> f64 {
        match *self {
            Objective::LeastSquares { lambda } | Objective::Logistic { lambda } => lambda,
        }
    }

    /// Per-row loss at margin `z = xᵀw` with label `y`.
    pub fn loss(&self, z: f64, y: f64) -> f64 {
        match self {
            Objective::LeastSquares { .. } => {
                let e = z - y;
                e * e
            }
            Objective::Logistic { .. } => {
                // ln(1 + e^m) computed stably for m = −y·z.
                let m = -y * z;
                m.max(0.0) + (-m.abs()).exp().ln_1p()
            }
        }
    }

    /// Maps a raw margin `z = xᵀw` to the quantity a serving layer hands
    /// back to callers: the identity for regression, the positive-class
    /// probability `σ(z)` for logistic classification (stable on both
    /// tails).
    pub fn predict(&self, z: f64) -> f64 {
        match self {
            Objective::LeastSquares { .. } => z,
            Objective::Logistic { .. } => {
                if z >= 0.0 {
                    1.0 / (1.0 + (-z).exp())
                } else {
                    let e = z.exp();
                    e / (1.0 + e)
                }
            }
        }
    }

    /// Derivative of the per-row loss with respect to the margin `z`.
    pub fn dloss(&self, z: f64, y: f64) -> f64 {
        match self {
            Objective::LeastSquares { .. } => 2.0 * (z - y),
            Objective::Logistic { .. } => {
                // −y·σ(−y·z), computed without overflow on either tail.
                let t = y * z;
                let s = if t >= 0.0 {
                    let e = (-t).exp();
                    e / (1.0 + e)
                } else {
                    1.0 / (1.0 + t.exp())
                };
                -y * s
            }
        }
    }

    /// Mini-batch data gradient over the batch `scratch.rows` of `block`,
    /// as a [`GradDelta`]: `(1/|rows|) Σ f'(xᵢᵀw, yᵢ)·xᵢ` (no ridge term —
    /// the server adds `λ·w` when applying the update). CSR blocks take the
    /// sparse fast path — margins via
    /// [`async_linalg::CsrMatrix::rows_dot_into`], then one
    /// [`async_linalg::CsrMatrix::gather_axpy_into`] over the per-row loss
    /// derivatives — so the gradient's cost and size scale with the batch's
    /// stored nonzeros, never with the feature dimension. Dense rows go four
    /// per pass ([`async_linalg::DenseMatrix::rows_axpy`]).
    ///
    /// Allocation-free once warm: the batch is `scratch.rows` (sampled
    /// there by the caller), the margin/coefficient buffers come from
    /// `scratch`, and the returned delta's backing arrays come from `pool`
    /// — returned to it via [`ScratchPool::recycle_delta`] once the delta
    /// is absorbed (in process) or encoded (on a remote worker).
    pub fn minibatch_grad_delta_pooled(
        &self,
        block: &Block,
        w: &[f64],
        scratch: &mut TaskScratch,
        pool: &ScratchPool,
    ) -> GradDelta {
        let TaskScratch {
            rows,
            margins,
            coefs,
            pairs,
            ..
        } = scratch;
        let labels = block.labels();
        let scale = 1.0 / rows.len() as f64;
        match block.features() {
            Matrix::Sparse(csr) => {
                if rows.is_empty() {
                    return GradDelta::zero_sparse(block.cols());
                }
                csr.rows_dot_into(rows, w, margins);
                coefs.clear();
                coefs.extend(
                    rows.iter()
                        .zip(margins.iter())
                        .map(|(&r, &z)| scale * self.dloss(z, labels[r as usize])),
                );
                let (mut idx, mut val) = pool.checkout_sparse();
                csr.gather_axpy_into(rows, coefs, pairs, &mut idx, &mut val);
                GradDelta::Sparse(
                    SparseVec::new(idx, val, block.cols())
                        .expect("gather kernel produces valid sparse output"),
                )
            }
            Matrix::Dense(m) => {
                let mut g = pool.checkout_dense(block.cols());
                let row = |k: usize| rows[k] as usize;
                let coef = |k: usize, [z]: [f64; 1]| scale * self.dloss(z, labels[row(k)]);
                m.rows_axpy(rows.len(), row, |_| [w], coef, &mut g);
                GradDelta::Dense(g)
            }
        }
    }

    /// Full-dataset gradient `(1/n) Σ f'(xⱼᵀw, yⱼ)·xⱼ` (no ridge term),
    /// evaluated driver-side. Used to seed SAGA's gradient table average.
    pub fn full_grad(&self, cfg: ParallelismCfg, dataset: &Dataset, w: &[f64], out: &mut [f64]) {
        let n = dataset.rows();
        if n == 0 {
            dense::zero(out);
            return;
        }
        let mut z = vec![0.0; n];
        par_matvec(cfg, dataset.features(), w, &mut z);
        let labels = dataset.labels();
        for i in 0..n {
            z[i] = self.dloss(z[i], labels[i]) / n as f64;
        }
        par_matvec_t(cfg, dataset.features(), &z, out);
    }

    /// The full objective `F(w)` over the dataset.
    pub fn full_objective(&self, cfg: ParallelismCfg, dataset: &Dataset, w: &[f64]) -> f64 {
        let n = dataset.rows().max(1) as f64;
        let reg = 0.5 * self.lambda() * dense::norm2_sq(w);
        match self {
            Objective::LeastSquares { .. } => {
                par_residual_sq(cfg, dataset.features(), w, dataset.labels()) / n + reg
            }
            Objective::Logistic { .. } => {
                let mut z = vec![0.0; dataset.rows()];
                par_matvec(cfg, dataset.features(), w, &mut z);
                let labels = dataset.labels();
                let total: f64 = z
                    .iter()
                    .zip(labels)
                    .map(|(&zi, &yi)| self.loss(zi, yi))
                    .sum();
                total / n + reg
            }
        }
    }

    /// High-precision optimum of the **least-squares** objective via CGLS
    /// (the baseline the paper subtracts from convergence curves). Returns
    /// `None` for objectives without a direct solver.
    pub fn optimum(&self, cfg: ParallelismCfg, dataset: &Dataset) -> Option<f64> {
        match self {
            Objective::LeastSquares { lambda } => {
                // min (1/n)‖Aw−y‖² + (λ/2)‖w‖² ⇔ min ‖Aw−y‖² + (nλ/2)‖w‖².
                let n = dataset.rows().max(1) as f64;
                let res = async_linalg::solve::cgls(
                    cfg,
                    dataset.features(),
                    dataset.labels(),
                    n * lambda / 2.0,
                    1e-12,
                    10 * dataset.cols().max(100),
                );
                Some(self.full_objective(cfg, dataset, &res.w))
            }
            Objective::Logistic { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_data::SynthSpec;

    fn dataset() -> Dataset {
        SynthSpec::dense("obj", 60, 8, 11).generate().unwrap().0
    }

    /// The delta kernel over an explicit batch, from cold buffers.
    fn grad_delta(o: &Objective, block: &Block, rows: &[u32], w: &[f64]) -> GradDelta {
        let mut scratch = TaskScratch {
            rows: rows.to_vec(),
            ..TaskScratch::default()
        };
        o.minibatch_grad_delta_pooled(block, w, &mut scratch, &ScratchPool::new())
    }

    #[test]
    fn least_squares_loss_and_derivative_agree() {
        let o = Objective::LeastSquares { lambda: 0.0 };
        let (z, y) = (1.5, 0.5);
        assert!((o.loss(z, y) - 1.0).abs() < 1e-15);
        // Numerical derivative check.
        let h = 1e-6;
        let num = (o.loss(z + h, y) - o.loss(z - h, y)) / (2.0 * h);
        assert!((o.dloss(z, y) - num).abs() < 1e-6);
    }

    #[test]
    fn logistic_loss_is_stable_and_consistent() {
        let o = Objective::Logistic { lambda: 0.0 };
        for &(z, y) in &[
            (0.0, 1.0),
            (3.0, -1.0),
            (-40.0, 1.0),
            (40.0, 1.0),
            (700.0, -1.0),
            (-700.0, -1.0),
        ] {
            let l = o.loss(z, y);
            assert!(l.is_finite() && l >= 0.0, "loss({z},{y}) = {l}");
            let h = 1e-5;
            let num = (o.loss(z + h, y) - o.loss(z - h, y)) / (2.0 * h);
            assert!(
                (o.dloss(z, y) - num).abs() < 1e-4,
                "dloss mismatch at ({z},{y})"
            );
        }
        // Correct classification with big margin → tiny loss.
        assert!(o.loss(40.0, 1.0) < 1e-15);
    }

    #[test]
    fn minibatch_grad_matches_full_grad_on_full_batch() {
        let d = dataset();
        let o = Objective::Logistic { lambda: 0.3 };
        let w: Vec<f64> = (0..d.cols()).map(|i| (i as f64 - 3.0) * 0.1).collect();
        let blocks = d.partition(1);
        let rows: Vec<u32> = (0..d.rows() as u32).collect();
        let mb = grad_delta(&o, &blocks[0], &rows, &w).to_dense();
        let mut full = vec![0.0; d.cols()];
        o.full_grad(ParallelismCfg::sequential(), &d, &w, &mut full);
        for (a, b) in mb.iter().zip(&full) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn dense_minibatch_grad_is_the_row_at_a_time_loop_bit_for_bit() {
        // Batches of 0..=9 rows — two quads and every leftover count — with
        // repeated rows, against one `dot` and one `axpy` per row in batch
        // order.
        let d = dataset();
        let block = &d.partition(1)[0];
        let features = block.features();
        let w: Vec<f64> = (0..d.cols()).map(|i| (i as f64 - 3.5) * 0.3).collect();
        let picks = [7u32, 3, 7, 59, 0, 3, 3, 41, 12];
        for o in [
            Objective::Logistic { lambda: 0.0 },
            Objective::LeastSquares { lambda: 0.0 },
        ] {
            for b in 0..=picks.len() {
                let rows = &picks[..b];
                let got = grad_delta(&o, block, rows, &w).to_dense();
                let mut want = vec![0.0; d.cols()];
                let scale = 1.0 / b as f64;
                for &r in rows {
                    let i = r as usize;
                    let z = features.row_dot(i, &w);
                    features.row_axpy(i, scale * o.dloss(z, block.labels()[i]), &mut want);
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{o:?}, batch of {b}");
            }
        }
    }

    #[test]
    fn sparse_grad_delta_matches_dense_kernel() {
        // One logical dataset, both storages: the sparse gather path must
        // agree with the dense reference kernel on every sampled batch.
        let (sd, _) = SynthSpec::sparse("obj-sp", 80, 300, 12, 17)
            .generate()
            .unwrap();
        let dd = sd.densified();
        for o in [
            Objective::Logistic { lambda: 0.1 },
            Objective::LeastSquares { lambda: 0.1 },
        ] {
            let w: Vec<f64> = (0..sd.cols())
                .map(|i| ((i % 7) as f64 - 3.0) * 0.05)
                .collect();
            let sparse_blocks = sd.partition(3);
            let dense_blocks = dd.partition(3);
            for (sb, db) in sparse_blocks.iter().zip(&dense_blocks) {
                let rows: Vec<u32> = (0..sb.rows() as u32).step_by(2).collect();
                let gs = grad_delta(&o, sb, &rows, &w);
                let gd = grad_delta(&o, db, &rows, &w);
                assert!(matches!(gs, GradDelta::Sparse(_)) && matches!(gd, GradDelta::Dense(_)));
                let (a, b) = (gs.to_dense(), gd.to_dense());
                for (x, y) in a.iter().zip(&b) {
                    assert!((x - y).abs() < 1e-12, "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn empty_batch_gives_zero_delta() {
        let (sd, _) = SynthSpec::sparse("obj-sp0", 10, 50, 4, 3)
            .generate()
            .unwrap();
        let b = &sd.partition(1)[0];
        let o = Objective::Logistic { lambda: 0.0 };
        let g = grad_delta(&o, b, &[], &vec![0.0; 50]);
        assert_eq!(g.nnz(), 0);
        assert_eq!(g.dim(), 50);
    }

    #[test]
    fn gradient_descends_the_full_objective() {
        let d = dataset();
        for o in [
            Objective::LeastSquares { lambda: 0.1 },
            Objective::Logistic { lambda: 0.1 },
        ] {
            let cfg = ParallelismCfg::sequential();
            let mut w = vec![0.0; d.cols()];
            let f0 = o.full_objective(cfg, &d, &w);
            let mut g = vec![0.0; d.cols()];
            for _ in 0..50 {
                o.full_grad(cfg, &d, &w, &mut g);
                dense::axpy(o.lambda(), &w, &mut g);
                dense::axpy(-0.05, &g, &mut w);
            }
            let f1 = o.full_objective(cfg, &d, &w);
            assert!(f1 < f0, "{o:?}: {f1} !< {f0}");
        }
    }

    #[test]
    fn cgls_optimum_lower_bounds_descent() {
        let d = dataset();
        let o = Objective::LeastSquares { lambda: 0.2 };
        let best = o.optimum(ParallelismCfg::sequential(), &d).unwrap();
        let at_zero = o.full_objective(ParallelismCfg::sequential(), &d, &vec![0.0; d.cols()]);
        assert!(best <= at_zero + 1e-9);
        assert!(Objective::Logistic { lambda: 0.1 }
            .optimum(ParallelismCfg::sequential(), &d)
            .is_none());
    }
}

//! Asynchronous SAGA with history broadcast — the paper's Listing 4 /
//! Algorithm 4, the workload that motivates the `ASYNCbroadcaster`.
//!
//! SAGA's update needs, for every sampled row `j`, the gradient of `fⱼ` at
//! the model `φⱼ` as it was when `j` was *last* sampled. Shipping the table
//! of past models with every task is the overhead the paper calls out;
//! instead:
//!
//! * the server keeps the model history in an [`async_core::AsyncBcast`]
//!   and ships only **version IDs** (8 bytes per sample) with each task;
//! * the task reads its batch's version IDs under one table lock, then
//!   resolves `w_current` and each *distinct* `w_{φⱼ}` once, in first-need
//!   order, through its worker's local cache (fetching misses once);
//! * a dense row is read once: both margins, then its axpy into the delta;
//! * on consumption the server records the batch at the task's version
//!   (`record_use` — SAGA's "update table" step), which also drives
//!   reference-count pruning of history no sample can need again;
//! * versions with in-flight tasks are pinned from submission to
//!   consumption (with lost tasks' pins released at run end), so on the
//!   deterministic simulated engine — where task closures execute at
//!   submission, i.e. when the server attaches the version IDs — pruning
//!   can never invalidate a running task. On the threaded engine a
//!   worker's historical reads race later `record_use` calls; ASAGA is
//!   specified against `SimEngine`.
//!
//! The running table average `ᾱ = (1/n) Σⱼ f'ⱼ(φⱼ)·xⱼ` lives server-side,
//! seeded with one full-gradient pass at `w₀` (consistent with every row's
//! implicit initial version 0), and updated incrementally from each task's
//! telescoping delta.

use std::convert::Infallible;
use std::sync::Arc;

use async_core::{AsyncBcast, AsyncContext, SubmitOpts, Tagged};
use async_data::{Block, Dataset};
use async_linalg::{dense, GradDelta, Matrix};
use sparklet::WorkerCtx;

use crate::absorber::ShardedAbsorber;
use crate::checkpoint::{Checkpoint, SolverHistory};
use crate::compression::CompressorBank;
use crate::objective::Objective;
use crate::scratch::{ScratchPool, TaskScratch};
use crate::server_loop::{step_damp, BatchSpec, GradMsg, ServerLoop, UpdateRule, WaveEnv, EVAL};
use crate::solver::{AsyncSolver, RunReport, SolverCfg, SolverError};

/// Asynchronous SAGA with server-side history.
#[derive(Debug, Clone)]
pub struct Asaga {
    /// The objective being minimized.
    pub objective: Objective,
    server: ServerLoop,
}

impl Asaga {
    /// An ASAGA solver for `objective`.
    pub fn new(objective: Objective) -> Self {
        Self {
            objective,
            server: ServerLoop::default(),
        }
    }

    /// Injects the [`CompressorBank`] the next run's tasks compress
    /// through (only consulted when [`crate::SolverCfg::compress`] is on);
    /// by default each run builds its own.
    pub fn with_compressor_bank(mut self, bank: CompressorBank) -> Self {
        self.server.bank = Some(bank);
        self
    }

    /// Seeds the next run from a checkpoint. The server model restores
    /// bit-identically; the SAGA table is *re-based* at the restored model
    /// — every sample's `φⱼ` becomes `w`, and ᾱ is recomputed as the full
    /// gradient at `w`, which is exactly consistent with that table (see
    /// the crate's checkpoint docs for why the pre-crash running ᾱ cannot
    /// be reused).
    ///
    /// Validated against the dataset at run time: a solver, dimension or
    /// history mismatch is a [`SolverError`].
    pub fn resume_from(mut self, ckpt: Checkpoint) -> Self {
        self.server.resume = Some(ckpt);
        self
    }
}

impl AsyncSolver for Asaga {
    fn name(&self) -> &'static str {
        AsagaRule::NAME
    }

    fn try_run(
        &mut self,
        ctx: &mut AsyncContext,
        dataset: &Dataset,
        cfg: &SolverCfg,
    ) -> Result<RunReport, SolverError> {
        let rule = AsagaRule {
            objective: self.objective,
            rows: dataset.rows(),
            alpha_bar: Vec::new(),
        };
        self.server.run(rule, ctx, dataset, cfg)
    }
}

/// The submission-instant half of an ASAGA task, shared by the in-process
/// closure and the remote `build`: samples `part`'s batch into
/// `scratch.rows` and reads, under one table lock, the version each row
/// last saw into `scratch.versions`.
pub(crate) fn sample_batch(
    batch: BatchSpec,
    block: &Block,
    part: usize,
    table: &AsyncBcast<Vec<f64>>,
    scratch: &mut TaskScratch,
) {
    batch.sample_into(block, part, &mut scratch.rows);
    let ids = scratch.rows.iter().map(|&r| block.global_row(r as usize));
    table.versions_for_indices(ids, &mut scratch.versions);
}

/// The body of one ASAGA task, run by the in-process closure and by the
/// remote worker's handler alike: the telescoping difference
/// `(1/b) Σⱼ (f'ⱼ(w_cur) − f'ⱼ(w_{φⱼ}))·xⱼ` over `scratch.rows` (last seen
/// at `scratch.versions`), the entries it touched, and the global row ids
/// in `scratch.ids`. `resolve(v)` yields `w_v`, once per *distinct* version
/// in first-need order. A dense row is one pass ([`dense::dot2`], then its
/// axpy in L1), CSR rows are gathered; batch order either way, so the delta
/// is bit-identical to a per-row resolve. Buffers come from `pool`.
pub(crate) fn saga_difference<E>(
    objective: Objective,
    block: &Block,
    w_cur: &[f64],
    scratch: &mut TaskScratch,
    pool: &ScratchPool,
    mut resolve: impl FnMut(u64) -> Result<Arc<Vec<f64>>, E>,
) -> Result<(GradDelta, u64), E> {
    scratch.group_versions();
    scratch.history.clear();
    for &v in &scratch.distinct {
        scratch.history.push(resolve(v)?);
    }
    let ids = scratch.rows.iter().map(|&r| block.global_row(r as usize));
    scratch.ids.clear();
    scratch.ids.extend(ids);
    let scale = 1.0 / scratch.rows.len().max(1) as f64;
    let labels = block.labels();
    let coef = |i: usize, m_new: f64, m_old: f64| {
        scale * (objective.dloss(m_new, labels[i]) - objective.dloss(m_old, labels[i]))
    };
    let (rows, slots, history) = (&scratch.rows, &scratch.slots, &scratch.history);
    let features = block.features();
    let delta = match features {
        Matrix::Sparse(csr) => {
            scratch.coefs.clear();
            for (&r, &slot) in rows.iter().zip(slots) {
                let (i, w_old) = (r as usize, &history[slot as usize]);
                let c = coef(i, csr.row_dot(i, w_cur), csr.row_dot(i, w_old));
                scratch.coefs.push(c);
            }
            let (mut idx, mut val) = pool.checkout_sparse();
            let pairs = &mut scratch.pairs;
            csr.gather_axpy_into(rows, &scratch.coefs, pairs, &mut idx, &mut val);
            GradDelta::Sparse(
                async_linalg::SparseVec::new(idx, val, block.cols())
                    .expect("gather kernel produces valid sparse output"),
            )
        }
        Matrix::Dense(m) => {
            let mut d = pool.checkout_dense(block.cols());
            for (&r, &slot) in rows.iter().zip(slots) {
                let (i, x) = (r as usize, m.row(r as usize));
                let (m_new, m_old) = dense::dot2(x, w_cur, &history[slot as usize]);
                dense::axpy(coef(i, m_new, m_old), x, &mut d);
            }
            GradDelta::Dense(d)
        }
    };
    // Two gradient evaluations per sampled row.
    Ok((delta, 2 * features.rows_nnz(rows)))
}

/// The SAGA estimator step `w ← w − γ·d·(δ + ᾱ + λ·w)` followed by the
/// table-mean absorption `ᾱ ← ᾱ + (b/n)·δ`.
struct AsagaRule {
    objective: Objective,
    /// Dataset rows `n`: the sample universe of the version table.
    rows: usize,
    /// ᾱ, the mean table gradient.
    alpha_bar: Vec<f64>,
}

impl UpdateRule for AsagaRule {
    const NAME: &'static str = "asaga";

    fn objective(&self) -> Objective {
        self.objective
    }

    fn universe(&self) -> u64 {
        self.rows as u64
    }

    /// Every row's implicit initial version is the broadcast base — w₀ on
    /// a cold start, the re-based restored model on resume — so seeding ᾱ
    /// with one full-gradient pass at that model is exactly consistent
    /// with the version table either way.
    fn restore(
        &mut self,
        history: Option<SolverHistory>,
        dataset: &Dataset,
        w: &[f64],
    ) -> Result<(), &'static str> {
        if !matches!(history, None | Some(SolverHistory::Saga { .. })) {
            return Err("a SAGA history");
        }
        self.alpha_bar = vec![0.0; w.len()];
        self.objective
            .full_grad(EVAL, dataset, w, &mut self.alpha_bar);
        Ok(())
    }

    fn submit(&self, ctx: &mut AsyncContext, env: &WaveEnv<'_>) -> Vec<usize> {
        let (rdd, bcast, cfg) = (env.rdd, env.bcast, env.cfg);
        let handle = bcast.handle();
        let server_table = bcast.clone();
        let version = ctx.version();
        let obj = self.objective;
        let batch = env.batch(version);
        let compress = cfg.compress;
        let pool = env.pool.clone();
        let bank = env.bank.clone();
        let task = move |wctx: &mut WorkerCtx, data: Vec<Block>, part: usize| {
            let block = &data[0];
            let w_cur = handle.value(wctx);
            let mut scratch = pool.checkout();
            // The IDs of the model versions the rows last saw — attached by
            // the server at submission (the simulated engine runs this
            // closure at exactly that instant).
            sample_batch(batch, block, part, &server_table, &mut scratch);
            let resolve = |v| Ok::<_, Infallible>(handle.value_at(wctx, v));
            let Ok((delta, entries)) =
                saga_difference(obj, block, &w_cur, &mut scratch, &pool, resolve);
            // `ids` travels with the result and is recycled server-side
            // after the table update.
            let indices = std::mem::take(&mut scratch.ids);
            pool.give_back(scratch);
            // The telescoping difference compresses like any other delta;
            // the table-update row ids always travel exact.
            let (g, wire_bytes) = bank.ship(compress, part, delta, &pool);
            GradMsg {
                g,
                indices,
                entries,
                wire_bytes,
            }
        };
        let opts = SubmitOpts {
            // One version ID per sample plus the current model's ID.
            extra_bytes: AsyncBcast::<Vec<f64>>::id_ship_bytes(env.minibatch_hint as usize),
            // Two gradient evaluations per sampled row.
            cost_scale: 4.0 * batch.fraction,
            minibatch: env.minibatch_hint,
        };
        // The wire form for the remote backend: sampling and version
        // lookup run driver-side in `build` (the submission instant — the
        // same moment the simulator runs the closure above), and the
        // worker runs the same `saga_difference` on what they produced.
        // In-process engines ignore it.
        let routine = crate::remote::asaga_routine(env, obj, version, self.rows);
        ctx.async_reduce_wired(rdd, &cfg.barrier, opts, task, Some(&routine))
    }

    /// SAGA's table update: the batch is now recorded at the version the
    /// task computed against (which also drives history pruning).
    fn consume(&mut self, bcast: &AsyncBcast<Vec<f64>>, task: &Tagged<GradMsg>) {
        bcast.record_use(&task.value.indices, task.attrs.issued_version);
    }

    fn absorb(
        &mut self,
        server: &mut ShardedAbsorber,
        w: &mut [f64],
        t: &Tagged<GradMsg>,
        _ctx: &AsyncContext,
        cfg: &SolverCfg,
    ) -> bool {
        // SAGA's estimator uses ᾱ *before* the delta's own table
        // absorption: E[f'ⱼ(φⱼ)] over the pre-update table equals ᾱ_old,
        // which is what keeps g unbiased — the absorber steps, then
        // absorbs.
        let a = cfg.step * step_damp(cfg, t.attrs.staleness);
        let scale = t.value.indices.len() as f64 / self.rows.max(1) as f64;
        let lambda = self.objective.lambda();
        server.asaga_step(w, &mut self.alpha_bar, &t.value.g, a, lambda, scale);
        false
    }

    fn history(&self) -> SolverHistory {
        SolverHistory::Saga {
            alpha_bar: self.alpha_bar.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_data::SynthSpec;

    #[test]
    fn saga_difference_resolves_each_distinct_version_once_in_first_need_order() {
        // Partition 1 of a 40-row dataset holds global rows 20..40. Rows
        // `j % 5 == v` last saw version `v` (v = 1..=3), the others the
        // base, so the batch below needs versions [2, 3, 0, 0, 3, 1, 2, 1, 0]
        // row by row: first-need order 2, 3, 0, 1.
        let rows: Vec<u32> = vec![2, 3, 4, 5, 8, 11, 12, 16, 19];
        let obj = Objective::LeastSquares { lambda: 0.0 };
        for dense_storage in [true, false] {
            let spec = if dense_storage {
                SynthSpec::dense("saga-resolve", 40, 6, 3)
            } else {
                SynthSpec::sparse("saga-resolve", 40, 12, 3, 3)
            };
            let (d, _) = spec.generate().unwrap();
            let (cols, block) = (d.cols(), &d.partition(2)[1]);
            let bcast = AsyncBcast::new(9, vec![0.0; cols], 40);
            for v in 1..=3u64 {
                bcast.push(
                    (0..cols)
                        .map(|c| 0.1 * v as f64 - 0.01 * c as f64)
                        .collect(),
                );
                let ids: Vec<u64> = (0..40).filter(|j| j % 5 == v).collect();
                bcast.record_use(&ids, v);
            }
            bcast.push(vec![0.3; cols]);
            let handle = bcast.handle();
            let pool = ScratchPool::new();
            let (mut fused, mut per_row) = (WorkerCtx::new(0), WorkerCtx::new(0));

            let w_cur = handle.value(&mut fused);
            let mut scratch = pool.checkout();
            scratch.rows = rows.clone();
            let ids = rows.iter().map(|&r| block.global_row(r as usize));
            bcast.versions_for_indices(ids, &mut scratch.versions);
            let mut calls = Vec::new();
            let resolve = |v| {
                calls.push(v);
                Ok::<_, Infallible>(handle.value_at(&mut fused, v))
            };
            let Ok((delta, entries)) =
                saga_difference(obj, block, &w_cur, &mut scratch, &pool, resolve);
            assert_eq!(calls, [2, 3, 0, 1], "dense storage: {dense_storage}");

            // The per-row path it replaced: one `value_at` per sampled row,
            // both margins, then the batch's axpys in batch order.
            handle.value(&mut per_row);
            let (f, labels) = (block.features(), block.labels());
            let scale = 1.0 / rows.len() as f64;
            let mut want = vec![0.0; cols];
            for &r in &rows {
                let i = r as usize;
                let j = block.global_row(i);
                let w_old = handle.value_at(&mut per_row, bcast.version_for_index(j));
                let d_new = obj.dloss(f.row_dot(i, &w_cur), labels[i]);
                let d_old = obj.dloss(f.row_dot(i, &w_old), labels[i]);
                f.row_axpy(i, scale * (d_new - d_old), &mut want);
            }
            assert_eq!(fused.take_charges(), per_row.take_charges());
            assert_eq!(fused.cache_len(), per_row.cache_len());
            for v in 0..=4 {
                let key = (9, v);
                assert_eq!(
                    fused.cache_get(key).is_some(),
                    per_row.cache_get(key).is_some()
                );
            }
            assert_eq!(entries, 2 * f.rows_nnz(&rows));
            let got = delta.to_dense();
            if dense_storage {
                // One fused pass per row is the two-pass arithmetic.
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want));
            } else {
                assert!(got.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-12));
            }

            // The resolved models go with the scratch's return to the pool.
            assert_eq!(scratch.history.len(), 4);
            pool.give_back(scratch);
            assert!(pool.checkout().history.is_empty());
        }
    }
}

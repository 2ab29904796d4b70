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
//! * the task resolves `w_current` and each `w_{φⱼ}` through its worker's
//!   local cache, fetching misses once;
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

use std::sync::Arc;

use async_core::{AsyncBcast, AsyncContext, SubmitOpts, Tagged};
use async_data::{Block, Dataset};
use async_linalg::{GradDelta, Matrix};
use sparklet::WorkerCtx;

use crate::absorber::ShardedAbsorber;
use crate::checkpoint::{Checkpoint, SolverHistory};
use crate::compression::CompressorBank;
use crate::objective::Objective;
use crate::scratch::{ScratchPool, TaskScratch};
use crate::server_loop::{step_damp, GradMsg, ServerLoop, UpdateRule, WaveEnv, EVAL};
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
            damps: Vec::new(),
            scales: Vec::new(),
        };
        self.server.run(rule, ctx, dataset, cfg)
    }
}

/// The body of one ASAGA task, run by the in-process closure and by the
/// remote worker's handler alike: the telescoping difference
/// `(1/b) Σⱼ (f'ⱼ(w_cur) − f'ⱼ(w_{φⱼ}))·xⱼ` over the batch in
/// `scratch.rows` (gathered sparsely on CSR partitions, scattered densely
/// otherwise) and the stored entries it touched. `old_model(k, j)` resolves
/// `w_{φⱼ}` for batch position `k`, global row `j` — once per row, in batch
/// order. The batch's global row ids (SAGA's table-update message) are left
/// in `scratch.ids`; every buffer comes from `pool`.
pub(crate) fn saga_difference(
    objective: Objective,
    block: &Block,
    w_cur: &[f64],
    scratch: &mut TaskScratch,
    pool: &ScratchPool,
    mut old_model: impl FnMut(usize, u64) -> Arc<Vec<f64>>,
) -> (GradDelta, u64) {
    let scale = 1.0 / scratch.rows.len().max(1) as f64;
    let labels = block.labels();
    let features = block.features();
    scratch.ids.clear();
    scratch.coefs.clear();
    for (k, &r) in scratch.rows.iter().enumerate() {
        let i = r as usize;
        let j = block.global_row(i);
        let w_old = old_model(k, j);
        let d_new = objective.dloss(features.row_dot(i, w_cur), labels[i]);
        let d_old = objective.dloss(features.row_dot(i, &w_old), labels[i]);
        scratch.coefs.push(scale * (d_new - d_old));
        scratch.ids.push(j);
    }
    let delta = match features {
        Matrix::Sparse(csr) => {
            let (mut idx, mut val) = pool.checkout_sparse();
            csr.gather_axpy_into(
                &scratch.rows,
                &scratch.coefs,
                &mut scratch.pairs,
                &mut idx,
                &mut val,
            );
            GradDelta::Sparse(
                async_linalg::SparseVec::new(idx, val, block.cols())
                    .expect("gather kernel produces valid sparse output"),
            )
        }
        Matrix::Dense(_) => {
            let mut d = pool.checkout_dense(block.cols());
            for (&r, &a) in scratch.rows.iter().zip(scratch.coefs.iter()) {
                features.row_axpy(r as usize, a, &mut d);
            }
            GradDelta::Dense(d)
        }
    };
    // Two gradient evaluations per sampled row.
    (delta, 2 * features.rows_nnz(&scratch.rows))
}

/// The SAGA estimator step `w ← w − γ·d·(δ + ᾱ + λ·w)` followed by the
/// table-mean absorption `ᾱ ← ᾱ + (b/n)·δ`.
struct AsagaRule {
    objective: Objective,
    /// Dataset rows `n`: the sample universe of the version table.
    rows: usize,
    /// ᾱ, the mean table gradient.
    alpha_bar: Vec<f64>,
    damps: Vec<f64>,
    scales: Vec<f64>,
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
            batch.sample_into(block, part, &mut scratch.rows);
            // The ID of the model version row j last saw — attached by the
            // server at submission (the simulated engine runs this closure
            // at exactly that instant).
            let old = |_, j| handle.value_at(wctx, server_table.version_for_index(j));
            let (delta, entries) = saga_difference(obj, block, &w_cur, &mut scratch, &pool, old);
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
        let routine = crate::remote::asaga_routine(env, obj, version);
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
        wave: &[Tagged<GradMsg>],
        _ctx: &AsyncContext,
        cfg: &SolverCfg,
    ) -> bool {
        self.damps.clear();
        self.scales.clear();
        for t in wave {
            self.damps.push(step_damp(cfg, t.attrs.staleness));
            self.scales
                .push(t.value.indices.len() as f64 / self.rows.max(1) as f64);
        }
        // SAGA's estimator uses ᾱ *before* each delta's own table
        // absorption: E[f'ⱼ(φⱼ)] over the pre-update table equals ᾱ_old,
        // which is what keeps g unbiased — the absorber preserves that
        // step/absorb interleaving per delta within each shard,
        // bit-identical to stepping the batch one delta at a time.
        let delta = |k: usize| &wave[k].value.g;
        let (lambda, n) = (self.objective.lambda(), wave.len());
        let (damps, scales) = (&self.damps, &self.scales);
        server.asaga_wave(
            w,
            &mut self.alpha_bar,
            n,
            delta,
            damps,
            cfg.step,
            lambda,
            scales,
        );
        false
    }

    fn history(&self) -> SolverHistory {
        SolverHistory::Saga {
            alpha_bar: self.alpha_bar.clone(),
        }
    }
}

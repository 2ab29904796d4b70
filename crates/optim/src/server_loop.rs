//! The one server loop under every solver — the paper's Listings 3–4:
//! submit a wave, collect, update, rebroadcast — and the [`UpdateRule`]
//! seam where [`crate::Asgd`], [`crate::AsyncMsgd`] and [`crate::Asaga`]
//! differ.
//!
//! [`ServerLoop::run`] owns everything that is not the update itself:
//! durable store and resume precedence, the lineage budget, version
//! re-seating, the history broadcast, compressor residuals, serving,
//! supervision (degrade policy, retries, stall restarts), pin bookkeeping,
//! evaluation and checkpoint cadences, the end-of-run discard and the
//! [`RunReport`]. A rule supplies its auxiliary state, its task, and its
//! per-wave coefficients and absorber call; dispatch is static and every
//! per-wave buffer is reused, so the loop allocates nothing per step.

use async_cluster::ConvergenceTrace;
use async_core::{AsyncBcast, AsyncContext, SubmitOpts, Tagged, WaveDirective};
use async_data::{sampler, Block, Dataset};
use async_linalg::{GradDelta, ParallelismCfg};
use sparklet::{Rdd, WorkerCtx};

use crate::absorber::ShardedAbsorber;
use crate::checkpoint::{Checkpoint, CheckpointError, SolverHistory};
use crate::compression::{CompressCfg, CompressorBank};
use crate::durable::{CheckpointJob, CheckpointStore, DurableSession};
use crate::objective::Objective;
use crate::scratch::ScratchPool;
use crate::serving::PublishedModel;
use crate::solver::{block_rdd, RunReport, SolverCfg, SolverError};

/// Driver-side objective evaluations run on the calling thread.
pub(crate) const EVAL: ParallelismCfg = ParallelismCfg::sequential();

/// What one task returns to the server.
pub(crate) struct GradMsg {
    /// The task's delta, sparse over CSR partitions: the mini-batch
    /// gradient `(1/b) Σ f'(xᵢᵀw, yᵢ)·xᵢ` (no ridge term) for the SGD
    /// family, the telescoping difference `(1/b) Σⱼ (f'ⱼ(w_cur) −
    /// f'ⱼ(w_{φⱼ}))·xⱼ` for ASAGA. With compression on this is the
    /// dequantized top-k selection, not the raw delta.
    pub g: GradDelta,
    /// Global row ids of the batch, for ASAGA's table update (never
    /// compressed: the table must record every sampled row); empty for the
    /// SGD family.
    pub indices: Vec<u64>,
    /// Stored feature entries the gradient kernel touched.
    pub entries: u64,
    /// Modeled wire bytes of the delta: its own encoding when compression
    /// is off, the compressed frame size otherwise.
    pub wire_bytes: u64,
}

/// What a rule's task submission reads of the run.
pub(crate) struct WaveEnv<'a> {
    pub rdd: &'a Rdd<Block>,
    pub bcast: &'a AsyncBcast<Vec<f64>>,
    pub cfg: &'a SolverCfg,
    /// Expected rows per task, for the engine's cost model.
    pub minibatch_hint: u64,
    pub pool: &'a ScratchPool,
    pub bank: &'a CompressorBank,
}

/// What distinguishes one solver from another under [`ServerLoop::run`].
pub(crate) trait UpdateRule {
    /// Solver name: reports, error messages, the checkpoint header.
    const NAME: &'static str;
    /// Whether an update can have a sparse change support, so that
    /// [`SolverCfg::bcast_ring`] and patch quantisation apply. Momentum
    /// and SAGA's ᾱ term mix every coordinate into every update.
    const SPARSE_UPDATES: bool = false;

    /// The objective being minimized.
    fn objective(&self) -> Objective;

    /// Size of the history broadcast's sample universe: 0 when no
    /// per-sample history is kept, so superseded versions prune as soon as
    /// no task needs them.
    fn universe(&self) -> u64 {
        0
    }

    /// Installs the auxiliary state for a run starting at model `w`: from
    /// a checkpoint's history, or cold (`None`). `Err` names the history
    /// the rule needs when the checkpoint carries another.
    fn restore(
        &mut self,
        history: Option<SolverHistory>,
        dataset: &Dataset,
        w: &[f64],
    ) -> Result<(), &'static str>;

    /// Submits one task per barrier-admitted worker at the current model
    /// version and returns the workers submitted to. The default is the
    /// SGD family's mini-batch gradient task.
    fn submit(&self, ctx: &mut AsyncContext, env: &WaveEnv<'_>) -> Vec<usize> {
        submit_grad_wave(ctx, env, self.objective())
    }

    /// Per consumed task, before its submission pin is released.
    fn consume(&mut self, _bcast: &AsyncBcast<Vec<f64>>, _task: &Tagged<GradMsg>) {}

    /// Folds one collected wave into `w` (and the auxiliary state) with the
    /// rule's per-task coefficients. Returns `true` when the update's
    /// change support is exactly the wave's sparse support — the
    /// precondition for declaring a sparse version diff to the broadcast.
    fn absorb(
        &mut self,
        server: &mut ShardedAbsorber,
        w: &mut [f64],
        wave: &[Tagged<GradMsg>],
        ctx: &AsyncContext,
        cfg: &SolverCfg,
    ) -> bool;

    /// The auxiliary state as a checkpoint records it.
    fn history(&self) -> SolverHistory;
}

/// The delay-adaptive damping factor `1/(1 + staleness)`.
pub(crate) fn staleness_damp(staleness: u64) -> f64 {
    1.0 / (1.0 + staleness as f64)
}

/// The step's damping: [`staleness_damp`] under
/// [`SolverCfg::staleness_damping`], else none.
pub(crate) fn step_damp(cfg: &SolverCfg, staleness: u64) -> f64 {
    if cfg.staleness_damping {
        staleness_damp(staleness)
    } else {
        1.0
    }
}

/// The inputs of a task's mini-batch draw: with the partition they
/// determine the batch, so a networked worker re-derives the driver's.
#[derive(Clone, Copy)]
pub(crate) struct BatchSpec {
    pub seed: u64,
    /// Model version the task was issued at.
    pub version: u64,
    pub fraction: f64,
}

impl BatchSpec {
    /// Samples `fraction` of `block` (partition `part`) into `rows`.
    pub fn sample_into(self, block: &Block, part: usize, rows: &mut Vec<u32>) {
        let mut rng = sampler::derive_rng(self.seed, self.version, part as u64);
        sampler::sample_fraction_into(&mut rng, block.rows(), self.fraction, rows);
    }
}

impl WaveEnv<'_> {
    /// The draw of a wave submitted at model `version`.
    pub fn batch(&self, version: u64) -> BatchSpec {
        BatchSpec {
            seed: self.cfg.seed,
            version,
            fraction: self.cfg.batch_fraction,
        }
    }
}

/// The body of one mini-batch gradient task, run by the in-process closure
/// and by the remote worker's handler alike: draw the batch, run the pooled
/// kernel at `w`, count the stored entries it touched.
pub(crate) fn grad_task(
    objective: Objective,
    block: &Block,
    w: &[f64],
    batch: BatchSpec,
    part: usize,
    pool: &ScratchPool,
) -> (GradDelta, u64) {
    let mut scratch = pool.checkout();
    batch.sample_into(block, part, &mut scratch.rows);
    let g = objective.minibatch_grad_delta_pooled(block, w, &mut scratch, pool);
    let entries = block.features().rows_nnz(&scratch.rows);
    pool.give_back(scratch);
    (g, entries)
}

/// Submits one mini-batch gradient wave: only the current model's 8-byte
/// version ID as task payload and a cost of ~2 work units per sampled
/// nonzero (one fused margins-plus-gather pass).
///
/// Tasks resolve the model through the incremental path
/// (`value_incremental`, which is exactly the plain fetch when the
/// broadcast's ring is disabled) and run [`grad_task`].
fn submit_grad_wave(ctx: &mut AsyncContext, env: &WaveEnv<'_>, objective: Objective) -> Vec<usize> {
    let handle = env.bcast.handle();
    let version = ctx.version();
    let batch = env.batch(version);
    let compress = env.cfg.compress;
    let pool = env.pool.clone();
    let bank = env.bank.clone();
    let task = move |wctx: &mut WorkerCtx, data: Vec<Block>, part: usize| {
        let w = handle.value_incremental(wctx);
        let (g, entries) = grad_task(objective, &data[0], &w, batch, part, &pool);
        let (g, wire_bytes) = bank.ship(compress, part, g, &pool);
        GradMsg {
            g,
            indices: Vec::new(),
            entries,
            wire_bytes,
        }
    };
    let opts = SubmitOpts {
        extra_bytes: AsyncBcast::<Vec<f64>>::id_ship_bytes(0),
        cost_scale: 2.0 * batch.fraction,
        minibatch: env.minibatch_hint,
    };
    // The wire form for the remote backend: the request ships the model's
    // wire plan plus the batch draw, and the worker runs the same
    // `grad_task` on them. In-process engines ignore it.
    let routine = crate::remote::grad_routine(env, objective, version);
    ctx.async_reduce_wired(env.rdd, &env.cfg.barrier, opts, task, Some(&routine))
}

/// The policy gate at every wave boundary: `Proceed` falls through,
/// `Wait` blocks toward the engine's next scheduled recovery, `Halt` (or
/// a wait nothing can satisfy) ends the run. With the default policy and a
/// non-empty alive set this is a pure read.
fn wave_admitted(ctx: &mut AsyncContext) -> bool {
    match ctx.degrade_directive() {
        WaveDirective::Proceed => true,
        WaveDirective::Halt => false,
        WaveDirective::Wait => ctx.await_recovery(),
    }
}

/// The stall decision after a fresh submission admitted nobody: wait for a
/// scheduled recovery unless the policy already says halt. Returns `true`
/// when the caller should retry the wave. When nothing is scheduled,
/// `await_recovery` returns immediately and the run gives up.
fn stalled_should_wait(ctx: &mut AsyncContext) -> bool {
    !matches!(ctx.degrade_directive(), WaveDirective::Halt) && ctx.await_recovery()
}

/// The history-broadcast pins held for in-flight tasks: one entry of the
/// submission version per task, so a queued task can never see its model
/// version pruned (and `record_use` at consumption finds it alive). Which
/// worker a result comes back from is irrelevant — a retried task completes
/// on another than it was submitted to. Lost and drained tasks are never
/// consumed; their entries are what [`Pins::release_rest`] unpins at run end.
#[derive(Default)]
struct Pins(Vec<u64>);

impl Pins {
    fn pin_wave(&mut self, bcast: &AsyncBcast<Vec<f64>>, version: u64, tasks: usize) {
        for _ in 0..tasks {
            bcast.pin(version);
            self.0.push(version);
        }
    }

    /// Releases the pin of a task submitted at `version` whose result
    /// arrived.
    fn release(&mut self, bcast: &AsyncBcast<Vec<f64>>, version: u64) {
        bcast.unpin(version);
        if let Some(i) = self.0.iter().position(|&v| v == version) {
            self.0.swap_remove(i);
        }
    }

    fn release_rest(self, bcast: &AsyncBcast<Vec<f64>>) {
        for version in self.0 {
            bcast.unpin(version);
        }
    }
}

/// True when `now` crossed a multiple of `every` that `prev` had not yet
/// reached (never, for `every == 0`) — the wave-aware `now % every == 0`:
/// identical for unit steps, and still firing once per crossed multiple
/// when a batched wave advances `updates` by more than one.
fn crossed_multiple(prev: u64, now: u64, every: u64) -> bool {
    every > 0 && now / every > prev / every
}

/// What a caller may inject into a solver's next run (each is consumed by
/// it), and the loop that runs it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ServerLoop {
    /// Checkpoint to resume from; takes precedence over a durable store's.
    pub resume: Option<Checkpoint>,
    /// Error-feedback compressors, when a test wants to inspect them.
    pub bank: Option<CompressorBank>,
    /// Buffer pool, when a test wants to inspect it.
    pub pool: Option<ScratchPool>,
}

impl ServerLoop {
    /// Runs `rule` to `cfg.max_updates` model updates on `ctx`.
    pub fn run<R: UpdateRule>(
        &mut self,
        mut rule: R,
        ctx: &mut AsyncContext,
        dataset: &Dataset,
        cfg: &SolverCfg,
    ) -> Result<RunReport, SolverError> {
        let solver = R::NAME;
        cfg.validate()
            .map_err(|source| SolverError::Cfg { solver, source })?;
        if ctx.pending() != 0 {
            let pending = ctx.pending();
            return Err(SolverError::BusyContext { solver, pending });
        }
        // Durability: open the store (and its background writer) when
        // configured. An explicit `resume_from` takes precedence over the
        // store's newest valid generation, which is then not even read; a
        // durable auto-resume completes the crashed run's lineage budget
        // instead of adding a fresh one.
        let explicit = self.resume.take();
        let from_store = explicit.is_none();
        let opened = cfg
            .durable_dir
            .as_deref()
            .map(|dir| DurableSession::with_store(CheckpointStore::open(dir)?, from_store))
            .transpose();
        let (durable, stored) = opened
            .map_err(|source| SolverError::Store { solver, source })?
            .unzip();
        let resume = explicit.or(stored.flatten());

        let dim = dataset.cols();
        let mut w = vec![0.0; dim];
        let (mut base_updates, mut version) = (0, ctx.version());
        let (mut history, mut residuals) = (None, None);
        if let Some(ckpt) = resume {
            ckpt.validate_for(solver, dim)
                .map_err(|source| SolverError::Checkpoint { solver, source })?;
            (w, base_updates, version) = (ckpt.w, ckpt.updates, ckpt.version);
            (history, residuals) = (Some(ckpt.history), ckpt.residuals);
        }
        let budget = if from_store && history.is_some() {
            cfg.max_updates.saturating_sub(base_updates)
        } else {
            cfg.max_updates
        };
        rule.restore(history, dataset, &w).map_err(|expected| {
            let source = CheckpointError::HistoryMismatch { expected };
            SolverError::Checkpoint { solver, source }
        })?;

        // Nothing below can fail. Continue the checkpoint's version
        // numbering: per-task RNG streams key on (seed, version, part), so
        // re-seating the counter — and seating the broadcast's base version
        // with it — is what lines a resumed trajectory up with the
        // uninterrupted one. A cold start seats at the context's version.
        ctx.reseat_version(version);
        ctx.set_degrade_policy(cfg.degrade);
        ctx.set_retry_lost(cfg.retry_lost);
        let counts0 = ctx.task_counts();
        let bytes0 = ctx.driver().total_bytes_shipped();
        let waits0 = ctx.driver().wait_recorder().totals();
        let (blocks, rdd) = block_rdd(ctx, dataset, cfg);
        let nparts = blocks.len().max(1);
        let mean_rows = dataset.rows() / nparts;
        let minibatch_hint = ((mean_rows as f64 * cfg.batch_fraction).ceil() as u64).max(1);

        let bcast = ctx.async_broadcast_at(w.clone(), rule.universe(), version);
        if R::SPARSE_UPDATES && cfg.bcast_ring > 0 {
            bcast.enable_incremental(cfg.bcast_ring);
            // With compression on, the same wire format also applies to
            // the driver → worker version-diff patches: codes carry the
            // target−base difference per changed coordinate.
            if let CompressCfg::TopK { quant, .. } = cfg.compress {
                bcast.set_patch_quant(quant);
            }
        }
        // Steady-state buffer recycling: gradients, sampling buffers, and
        // the result deltas all cycle through the pool.
        let pool = self.pool.take().unwrap_or_default();
        let bank = self.bank.take().unwrap_or_default();
        // A resumed run reloads the crashed run's error-feedback residuals
        // so compression continues bit-identically instead of restarting
        // cold.
        if let Some(residuals) = &residuals {
            bank.restore_residuals(residuals);
        }
        // A bank reused across runs (or re-keyed after churn) keeps only
        // this run's partition universe — stale entries cannot accrete.
        bank.retain_parts_below(nparts);
        let objective = rule.objective();
        if let Some(feed) = cfg.serve_feed.as_ref() {
            feed.publish(PublishedModel {
                bcast: bcast.clone(),
                objective,
                dim,
            });
        }

        let mut trace = ConvergenceTrace::new();
        let f0 = objective.full_objective(EVAL, dataset, &w);
        trace.push(ctx.now(), f0 - cfg.baseline);

        let env = WaveEnv {
            rdd: &rdd,
            bcast: &bcast,
            cfg,
            minibatch_hint,
            pool: &pool,
            bank: &bank,
        };
        let mut pinned = Pins::default();
        let submit = |rule: &R, ctx: &mut AsyncContext, pinned: &mut Pins| {
            let version = ctx.version();
            let workers = rule.submit(ctx, &env);
            pinned.pin_wave(&bcast, version, workers.len());
            !workers.is_empty()
        };
        // The one capture: the just-pushed snapshot rides to the background
        // writer as a read pin — no hot-path model clone — as generation
        // `updates`, the lineage's update count.
        let save = |session: &DurableSession, rule: &R, updates: u64, version: u64| {
            if let Some(w) = bcast.try_pin_read_at(version) {
                session.submit(CheckpointJob {
                    solver,
                    updates,
                    version,
                    w,
                    history: rule.history(),
                    residuals: bank.export_residuals(),
                });
            }
        };
        submit(&rule, ctx, &mut pinned);

        // The server absorbs on this thread; with absorb_batch > 1 a wave
        // of ready deltas is absorbed with one fused pass and one push.
        let mut server = ShardedAbsorber::new(dim, 1);
        let mut wave: Vec<Tagged<GradMsg>> = Vec::new();

        let mut updates = 0u64;
        let mut max_staleness = 0u64;
        let mut grad_entries = 0u64;
        let mut result_bytes = 0u64;
        let mut wall_clock = ctx.now();
        while updates < budget {
            // The degrade-policy gate: FailFast halts on any observed
            // death, Quorum/BestEffort wait toward scheduled recoveries
            // when the alive set is too thin to proceed.
            if !wave_admitted(ctx) {
                break;
            }
            // Block for one result, then drain up to the absorb batch
            // (capped at the remaining budget) of already-arrived ones.
            wave.clear();
            let want = cfg.absorb_batch.min((budget - updates) as usize);
            ctx.collect_up_to_into(want, &mut wave);
            if wave.is_empty() {
                // Total stall: every in-flight task was lost to failures.
                // If chaos has since revived or joined workers, a fresh
                // wave restarts the run; otherwise wait for a scheduled
                // recovery (supervised respawn, scripted revival) — and
                // only when none exists is the cluster truly dead.
                if submit(&rule, ctx, &mut pinned) || stalled_should_wait(ctx) {
                    continue;
                }
                break;
            }
            for t in &wave {
                max_staleness = max_staleness.max(t.attrs.staleness);
                grad_entries += t.value.entries;
                result_bytes += t.value.wire_bytes;
                rule.consume(&bcast, t);
                pinned.release(&bcast, t.attrs.issued_version);
            }
            let sparse = rule.absorb(&mut server, &mut w, &wave, ctx, cfg);
            let prev_updates = updates;
            updates += wave.len() as u64;
            // One model version (and one snapshot push) per wave: with
            // absorb_batch = 1 this is the version-per-delta cadence. A
            // sparse change's support is the lone delta's own, or the
            // absorber's fold support for a fused wave.
            ctx.advance_version();
            let support = match (&wave[..], sparse) {
                (_, false) => None,
                ([t], true) => match &t.value.g {
                    GradDelta::Sparse(s) => Some(s.indices()),
                    GradDelta::Dense(_) => None,
                },
                (_, true) => Some(server.wave_support()),
            };
            bcast.push_snapshot_sharded(&w, support, server.pool());
            for t in wave.drain(..) {
                pool.recycle_ids(t.value.indices);
                pool.recycle_delta(t.value.g);
            }
            wall_clock = ctx.now();
            if crossed_multiple(prev_updates, updates, cfg.eval_every) {
                let f = objective.full_objective(EVAL, dataset, &w);
                trace.push(wall_clock, f - cfg.baseline);
            }
            if crossed_multiple(prev_updates, updates, cfg.checkpoint_every) {
                if let Some(session) = &durable {
                    save(session, &rule, base_updates + updates, ctx.version());
                }
            }
            submit(&rule, ctx, &mut pinned);
        }

        let final_objective = objective.full_objective(EVAL, dataset, &w);
        trace.push(wall_clock, final_objective - cfg.baseline);

        // Final durable save (skipped by the writer when the run ended on a
        // cadence boundary whose save committed), then drain the writer
        // before reporting.
        let durable_stats = durable.map(|session| {
            save(&session, &rule, base_updates + updates, ctx.version());
            session.finish()
        });

        // Leave the context and the broadcast clean for the next run: queued
        // retries are lost, tasks still in flight are drained unapplied, and
        // every pin is released. The run's task counters are ledger deltas;
        // its bytes and waits are deltas of the driver's totals.
        ctx.discard_in_flight();
        pinned.release_rest(&bcast);
        let counts = ctx.task_counts();

        let serve = cfg.serve_feed.as_ref().map(|feed| {
            feed.mark_done();
            feed.counters()
        });

        Ok(RunReport {
            trace,
            updates,
            tasks_completed: counts.delivered - counts0.delivered,
            max_staleness,
            wall_clock,
            mean_wait: ctx.driver().wait_recorder().mean_since(waits0),
            bytes_shipped: ctx.driver().total_bytes_shipped() - bytes0,
            grad_entries,
            result_bytes,
            worker_clocks: ctx.stat().workers.iter().map(|s| s.clock).collect(),
            final_w: w,
            final_objective,
            serve: serve.unwrap_or_default(),
            lost_tasks: counts.lost - counts0.lost,
            retried_tasks: counts.retried - counts0.retried,
            durable: durable_stats.unwrap_or_default(),
        })
    }
}

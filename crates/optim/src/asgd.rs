//! Asynchronous SGD — the paper's Listing 3 walk-through.
//!
//! Workers compute mini-batch gradients against the model version captured
//! at task submission; the server applies each collected gradient as soon
//! as it arrives (plus the ridge term), bumps the model version, pushes
//! the new model through the history broadcast (only the 8-byte version ID
//! travels with later tasks; workers fetch-and-cache values on miss), and
//! refills whichever workers the barrier filter admits.
//!
//! Gradients travel as [`GradDelta`]s: over CSR partitions the task runs
//! the sparse gather kernel and ships only the batch support, which the
//! server scatters onto the model without densifying — the sparse fast
//! path. Dense partitions use the dense kernel, bit-identical to the
//! original implementation. The task shape and wave/pin machinery are
//! shared with [`crate::AsyncMsgd`] in [`crate::solver`].

use async_cluster::ConvergenceTrace;
use async_core::{AsyncContext, Tagged};
use async_data::Dataset;
use async_linalg::GradDelta;

use crate::absorber::ShardedAbsorber;
use crate::checkpoint::{Checkpoint, SolverHistory};
use crate::compression::{CompressCfg, CompressorBank};
use crate::durable::{DurableSession, DurableStats};
use crate::objective::Objective;
use crate::scratch::ScratchPool;
use crate::serving::{PublishedModel, ServeCounters};
use crate::solver::{
    begin_supervised, block_rdd, collect_wave, crossed_multiple, drain_grad_tasks,
    stalled_should_wait, submit_grad_wave, wave_admitted, AsyncSolver, GradMsg, PinLedger,
    RunReport, SolverCfg,
};

/// Asynchronous stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Asgd {
    /// The objective being minimized.
    pub objective: Objective,
    resume: Option<Checkpoint>,
    bank: Option<CompressorBank>,
    pool: Option<ScratchPool>,
}

impl Asgd {
    /// An ASGD solver for `objective`.
    pub fn new(objective: Objective) -> Self {
        Self {
            objective,
            resume: None,
            bank: None,
            pool: None,
        }
    }

    /// Injects the [`ScratchPool`] the next run recycles its buffers
    /// through, so a test can inspect [`ScratchPool::depth`] after the
    /// run; by default each run builds its own.
    pub fn with_scratch_pool(mut self, pool: ScratchPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Injects the [`CompressorBank`] the next run's tasks compress
    /// through (only consulted when [`crate::SolverCfg::compress`] is on).
    /// Tests inject a tracked bank here and inspect the error-feedback
    /// residuals after the run; by default each run builds its own.
    pub fn with_compressor_bank(mut self, bank: CompressorBank) -> Self {
        self.bank = Some(bank);
        self
    }

    /// Seeds the next [`AsyncSolver::run`] from a checkpoint: the server
    /// model restores bit-identically and newly captured checkpoints keep
    /// counting updates from the checkpoint's total.
    ///
    /// Validated against the dataset at `run` time, which panics on a
    /// solver/dimension/history mismatch.
    pub fn resume_from(mut self, ckpt: Checkpoint) -> Self {
        self.resume = Some(ckpt);
        self
    }
}

impl AsyncSolver for Asgd {
    fn name(&self) -> &'static str {
        "asgd"
    }

    fn run(&mut self, ctx: &mut AsyncContext, dataset: &Dataset, cfg: &SolverCfg) -> RunReport {
        assert_eq!(ctx.pending(), 0, "asgd: context has in-flight tasks");
        let (lost0, retried0) = begin_supervised(ctx, cfg);
        let (blocks, rdd) = block_rdd(ctx, dataset, cfg);
        let dcols = dataset.cols();
        let mean_rows = dataset.rows() / blocks.len().max(1);
        let minibatch_hint = ((mean_rows as f64 * cfg.batch_fraction).ceil() as u64).max(1);

        // Durability: open the store (and its background writer) when
        // configured. An explicit `resume_from` takes precedence over the
        // store's newest valid generation; a durable auto-resume completes
        // the crashed run's lineage budget instead of adding a fresh one.
        let mut durable = cfg.durable_dir.as_deref().map(|dir| {
            DurableSession::open(dir).expect("asgd: cannot open durable checkpoint store")
        });
        let explicit = self.resume.take();
        let from_store = explicit.is_none();
        let resume = explicit.or_else(|| durable.as_mut().and_then(DurableSession::take_resume));

        // Resume from a checkpoint when one is installed: the server model
        // restores bit-identically; plain ASGD has no auxiliary history.
        let (mut w, base_updates, resumed) = match resume {
            Some(ckpt) => {
                ckpt.validate_for("asgd", dcols)
                    .expect("asgd: incompatible resume checkpoint");
                assert!(
                    matches!(ckpt.history, SolverHistory::None),
                    "asgd: checkpoint carries foreign solver history"
                );
                for warning in cfg.lint_resume(&ckpt) {
                    eprintln!("asgd resume: {warning}");
                }
                // Continue the crashed run's version numbering: per-task
                // RNG streams key on (seed, version, part), so re-seating
                // is what makes the resumed trajectory line up with the
                // uninterrupted one.
                ctx.reseat_version(ckpt.version);
                (ckpt.w, ckpt.updates, Some((ckpt.version, ckpt.residuals)))
            }
            None => (vec![0.0; dcols], 0, None),
        };
        let budget = if from_store && resumed.is_some() {
            cfg.max_updates.saturating_sub(base_updates)
        } else {
            cfg.max_updates
        };
        // No per-sample history in plain ASGD: the sample universe is
        // empty, so superseded model versions prune as soon as no task
        // needs them. A resumed run seats the ring at the checkpoint's
        // version so broadcast IDs keep the crashed run's numbering.
        let bcast = match &resumed {
            Some((version, _)) => ctx.async_broadcast_at(w.clone(), 0, *version),
            None => ctx.async_broadcast(w.clone(), 0),
        };
        if cfg.bcast_ring > 0 {
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
        // cold (see `SolverCfg::lint_resume` for the legacy case).
        if let Some((_, Some(residuals))) = &resumed {
            bank.restore_residuals(residuals);
        }
        // A bank reused across runs (or re-keyed after churn) keeps only
        // this run's partition universe — stale entries cannot accrete.
        bank.retain_parts_below(blocks.len().max(1));
        if let Some(feed) = cfg.serve_feed.as_ref() {
            feed.publish(PublishedModel {
                bcast: bcast.clone(),
                objective: self.objective,
                dim: dcols,
            });
        }

        let mut trace = ConvergenceTrace::new();
        let f0 = self.objective.full_objective(cfg.eval_threads, dataset, &w);
        trace.push(ctx.now(), f0 - cfg.baseline);

        // In-flight pin bookkeeping: entries cleared on consumption;
        // leftovers (tasks lost to worker failure) released at run end.
        let mut pinned = PinLedger::new(ctx.workers());
        let mut checkpoints = Vec::new();

        let v0 = ctx.version();
        let ws = submit_grad_wave(
            ctx,
            &rdd,
            &bcast,
            cfg,
            minibatch_hint,
            self.objective,
            &pool,
            &bank,
        );
        pinned.record_wave(v0, &ws);

        // The sharded server: apply passes (and snapshot memcpys) run
        // shard-parallel on its persistent pool; with absorb_batch > 1 a
        // wave of ready deltas is folded per shard and applied fused.
        let mut server = ShardedAbsorber::new(dcols, cfg.server_threads);
        let absorb_batch = cfg.absorb_batch.max(1);
        let mut wave: Vec<Tagged<GradMsg>> = Vec::new();
        let mut damps: Vec<f64> = Vec::new();

        let mut updates = 0u64;
        let mut tasks_completed = 0u64;
        let mut max_staleness = 0u64;
        let mut grad_entries = 0u64;
        let mut result_bytes = 0u64;
        let mut wall_clock = ctx.now();
        let lambda = self.objective.lambda();
        while updates < budget {
            // The degrade-policy gate: FailFast halts on any observed
            // death, Quorum/BestEffort wait toward scheduled recoveries
            // when the alive set is too thin to proceed.
            if !wave_admitted(ctx) {
                break;
            }
            let want = absorb_batch.min((budget - updates) as usize);
            collect_wave(ctx, want, &mut wave);
            if wave.is_empty() {
                // Total stall: every in-flight task was lost to failures.
                // If chaos has since revived or joined workers, a fresh
                // wave restarts the run; otherwise wait for a scheduled
                // recovery (supervised respawn, scripted revival) — and
                // only when none exists is the cluster truly dead.
                let v = ctx.version();
                let ws = submit_grad_wave(
                    ctx,
                    &rdd,
                    &bcast,
                    cfg,
                    minibatch_hint,
                    self.objective,
                    &pool,
                    &bank,
                );
                if ws.is_empty() {
                    if stalled_should_wait(ctx) {
                        continue;
                    }
                    break;
                }
                pinned.record_wave(v, &ws);
                continue;
            }
            damps.clear();
            for t in &wave {
                tasks_completed += 1;
                max_staleness = max_staleness.max(t.attrs.staleness);
                grad_entries += t.value.entries;
                result_bytes += t.value.wire_bytes;
                bcast.unpin(t.attrs.issued_version);
                pinned.consume(t.attrs.worker, t.attrs.issued_version);
                damps.push(if cfg.staleness_damping {
                    1.0 / (1.0 + t.attrs.staleness as f64)
                } else {
                    1.0
                });
            }
            // Single-delta waves take the exact serial expressions
            // (sharded — bit-identical for any thread count); larger
            // waves take the fused fold-then-apply pass. Either way the
            // returned flag marks an update whose change support is
            // exactly the gradients' sparse support — the precondition
            // for declaring a sparse version diff to the incremental
            // broadcast.
            let sparse_support = if wave.len() == 1 {
                server.asgd_step(&mut w, &wave[0].value.g, cfg.step * damps[0], lambda)
            } else {
                let n = wave.len();
                let deltas = &wave;
                server.asgd_wave(&mut w, n, |k| &deltas[k].value.g, &damps, cfg.step, lambda)
            };
            let prev_updates = updates;
            updates += wave.len() as u64;
            // One model version (and one snapshot push) per wave: with
            // absorb_batch = 1 this is exactly the historical
            // version-per-delta cadence.
            ctx.advance_version();
            let support = if !sparse_support {
                None
            } else if wave.len() == 1 {
                match &wave[0].value.g {
                    GradDelta::Sparse(s) => Some(s.indices()),
                    GradDelta::Dense(_) => None,
                }
            } else {
                Some(server.wave_support())
            };
            bcast.push_snapshot_sharded(&w, support, server.pool());
            for t in wave.drain(..) {
                pool.recycle_delta(t.value.g);
            }
            wall_clock = ctx.now();
            if cfg.eval_every > 0 && crossed_multiple(prev_updates, updates, cfg.eval_every) {
                let f = self.objective.full_objective(cfg.eval_threads, dataset, &w);
                trace.push(wall_clock, f - cfg.baseline);
            }
            if cfg.checkpoint_every > 0
                && crossed_multiple(prev_updates, updates, cfg.checkpoint_every)
            {
                let lineage = base_updates + updates;
                let version = ctx.version();
                checkpoints.push(Checkpoint {
                    solver: "asgd".to_string(),
                    updates: lineage,
                    version,
                    w: w.clone(),
                    history: SolverHistory::None,
                    residuals: Some(bank.export_residuals()),
                });
                if let Some(session) = durable.as_mut() {
                    // The just-pushed snapshot rides to the background
                    // writer as a read pin — no hot-path model clone.
                    if let Some(pin) = bcast.try_pin_read_at(version) {
                        session.submit(
                            lineage,
                            "asgd",
                            lineage,
                            version,
                            pin,
                            SolverHistory::None,
                            bank.export_residuals(),
                        );
                    }
                }
            }
            let v = ctx.version();
            let ws = submit_grad_wave(
                ctx,
                &rdd,
                &bcast,
                cfg,
                minibatch_hint,
                self.objective,
                &pool,
                &bank,
            );
            pinned.record_wave(v, &ws);
        }

        let final_objective = self.objective.full_objective(cfg.eval_threads, dataset, &w);
        trace.push(wall_clock, final_objective - cfg.baseline);

        // Final durable save (deduplicated when the run ended exactly on a
        // cadence boundary), then drain the writer before reporting.
        let durable_stats = match durable {
            Some(mut session) => {
                let lineage = base_updates + updates;
                if let Some(pin) = bcast.try_pin_read_at(ctx.version()) {
                    session.submit(
                        lineage,
                        "asgd",
                        lineage,
                        ctx.version(),
                        pin,
                        SolverHistory::None,
                        bank.export_residuals(),
                    );
                }
                session.finish()
            }
            None => DurableStats::default(),
        };

        drain_grad_tasks(ctx, &bcast, pinned);

        let serve = match cfg.serve_feed.as_ref() {
            Some(feed) => {
                feed.mark_done();
                feed.counters()
            }
            None => ServeCounters::default(),
        };

        RunReport {
            trace,
            updates,
            tasks_completed,
            max_staleness,
            wall_clock,
            mean_wait: ctx.driver().wait_recorder().overall_mean(),
            bytes_shipped: ctx.driver().total_bytes_shipped(),
            grad_entries,
            result_bytes,
            worker_clocks: ctx.stat().workers.iter().map(|s| s.clock).collect(),
            final_w: w,
            final_objective,
            checkpoints,
            serve,
            lost_tasks: ctx.lost_tasks() - lost0,
            retried_tasks: ctx.retried_tasks() - retried0,
            durable: durable_stats,
        }
    }
}

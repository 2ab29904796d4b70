//! The reference loop: the paper's Listings 3 (ASGD) and 4 (ASAGA) written
//! only against the public Table-1 API — `async_reduce`, `collect`, the
//! history broadcast — with a span around each call into a layer.
//!
//! It submits exactly what the solvers submit (same sampling streams, cost
//! hints and payload sizes), so on the simulator it follows the solver's
//! schedule and ends on the solver's final objective, which the traced run
//! checks. What it leaves out is what a healthy simulated run never takes:
//! retries, degrade policies, checkpoints, compression.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use async_core::{AsyncBcast, AsyncContext, HistoryStats, SubmitOpts};
use async_data::{sampler, Block};
use async_linalg::{GradDelta, Matrix, ParallelismCfg};
use async_optim::{
    block_rdd, Objective, PublishedModel, ScratchPool, ServeFeed, ShardedAbsorber, SolverCfg,
};
use sparklet::{Rdd, WorkerCtx};

use crate::trace::{self, Span};
use crate::workloads::{read_until_done, EngineSel, Prepared, SolverKind, Workload};

/// Spans one traced step can record (submit with its three children per
/// admitted worker, collect, absorb, push, history), with headroom.
const SPANS_PER_STEP: usize = 12;
/// Reader spans kept per traced run; a reader outpacing it is counted in
/// `dropped_spans`.
const READER_SPANS: usize = 400_000;

/// What the loop's gradient tasks send back.
struct GradMsg {
    g: GradDelta,
    /// SAGA's table-update message; empty for ASGD.
    ids: Vec<u64>,
    entries: u64,
}

/// One run of the reference loop.
pub struct LoopRun {
    pub steps: u64,
    /// Tasks submitted (consumed plus drained at the end).
    pub tasks: u64,
    /// Wall time of the whole loop, objective evaluations included — what
    /// `solver.run` covers.
    pub wall_s: f64,
    pub final_objective: f64,
    /// Staleness of each consumed result.
    pub staleness: Vec<u64>,
    /// Stored feature entries the consumed gradient tasks touched.
    pub entries: u64,
    pub history: HistoryStats,
    pub spans: Vec<Span>,
    pub reader_spans: Vec<Span>,
    pub dropped_spans: u64,
}

struct Submitter {
    rdd: Rdd<Block>,
    bcast: AsyncBcast<Vec<f64>>,
    cfg: SolverCfg,
    kind: SolverKind,
    objective: Objective,
    pool: ScratchPool,
    minibatch: u64,
    submitted: u64,
}

impl Submitter {
    /// One `ASYNCreduce` wave at the current model version, pinning that
    /// version once per task placed.
    fn submit(&mut self, ctx: &mut AsyncContext) {
        let version = ctx.version();
        let fraction = self.cfg.batch_fraction;
        let (ids_shipped, evals_per_row) = match self.kind {
            SolverKind::Asgd => (0, 2.0),
            SolverKind::Asaga => (self.minibatch as usize, 4.0),
        };
        let opts = SubmitOpts {
            extra_bytes: AsyncBcast::<Vec<f64>>::id_ship_bytes(ids_shipped),
            cost_scale: evals_per_row * fraction,
            minibatch: self.minibatch,
            ..SubmitOpts::default()
        };
        let task = grad_task(
            self.kind,
            self.bcast.clone(),
            self.objective,
            self.pool.clone(),
            self.cfg.seed,
            version,
            fraction,
        );
        let placed = trace::span(trace::SUBMIT, || {
            ctx.async_reduce(&self.rdd, &self.cfg.barrier, opts, task)
        });
        for _ in &placed {
            self.bcast.pin(version);
        }
        self.submitted += placed.len() as u64;
    }
}

/// The worker-side task: resolve the model, sample a mini-batch, run the
/// gradient kernel. On the simulator it runs inside `async_reduce`, so its
/// spans nest under `core.submit`.
fn grad_task(
    kind: SolverKind,
    bcast: AsyncBcast<Vec<f64>>,
    objective: Objective,
    pool: ScratchPool,
    seed: u64,
    version: u64,
    fraction: f64,
) -> impl Fn(&mut WorkerCtx, Vec<Block>, usize) -> GradMsg + Send + Sync + Clone + 'static {
    let handle = bcast.handle();
    move |wctx: &mut WorkerCtx, data: Vec<Block>, part: usize| {
        let block = &data[0];
        let features = block.features();
        let w_cur = trace::span(trace::BCAST_RESOLVE, || match kind {
            SolverKind::Asgd => handle.value_incremental(wctx),
            SolverKind::Asaga => handle.value(wctx),
        });
        let mut scratch = pool.checkout();
        trace::span(trace::SAMPLE, || {
            let mut rng = sampler::derive_rng(seed, version, part as u64);
            sampler::sample_fraction_into(&mut rng, block.rows(), fraction, &mut scratch.rows);
        });
        let (g, evals_per_row) = match kind {
            SolverKind::Asgd => {
                let g = trace::span(trace::GRAD_KERNEL, || {
                    objective.minibatch_grad_delta_pooled(block, &w_cur, &mut scratch, &pool)
                });
                (g, 1)
            }
            SolverKind::Asaga => {
                // The history lookups — which model version each sampled
                // row last saw, and that model's value — are resolved
                // first, so their cost shows apart from the arithmetic.
                scratch.ids.clear();
                let olds: Vec<Arc<Vec<f64>>> = trace::span(trace::HISTORY, || {
                    scratch
                        .rows
                        .iter()
                        .map(|&r| {
                            let j = block.global_row(r as usize);
                            scratch.ids.push(j);
                            handle.value_at(wctx, bcast.version_for_index(j))
                        })
                        .collect()
                });
                let g = trace::span(trace::GRAD_KERNEL, || {
                    let labels = block.labels();
                    let scale = 1.0 / scratch.rows.len().max(1) as f64;
                    scratch.coefs.clear();
                    for (&r, w_old) in scratch.rows.iter().zip(&olds) {
                        let i = r as usize;
                        let d_new = objective.dloss(features.row_dot(i, &w_cur), labels[i]);
                        let d_old = objective.dloss(features.row_dot(i, w_old), labels[i]);
                        scratch.coefs.push(scale * (d_new - d_old));
                    }
                    match features {
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
                            for (&r, &a) in scratch.rows.iter().zip(&scratch.coefs) {
                                features.row_axpy(r as usize, a, &mut d);
                            }
                            GradDelta::Dense(d)
                        }
                    }
                });
                (g, 2)
            }
        };
        let entries = evals_per_row * features.rows_nnz(&scratch.rows);
        let ids = std::mem::take(&mut scratch.ids);
        pool.give_back(scratch);
        GradMsg { g, ids, entries }
    }
}

/// Runs the reference loop of `w` for the workload's update budget on the
/// simulator, recording spans when `traced`.
pub fn run(w: &Workload, prep: &Prepared, traced: bool) -> LoopRun {
    let steps = prep.cfg.max_updates;
    assert_eq!(
        w.engine,
        EngineSel::Sim,
        "the reference loop runs on the simulator"
    );
    let origin = Instant::now();
    let feed = w.reader.then(ServeFeed::new);
    let reader = feed.clone().map(|feed| {
        let data = Arc::clone(&prep.data);
        let record = traced.then_some((origin, READER_SPANS));
        thread::spawn(move || read_until_done(&feed, &data, record))
    });
    if traced {
        trace::start(origin, steps as usize * SPANS_PER_STEP + 256);
    }

    let mut ctx = w.context(EngineSel::Sim);
    let data = &*prep.data;
    let cfg = &prep.cfg;
    let seq = ParallelismCfg::sequential();
    let (lambda, n, dim) = (w.objective.lambda(), data.rows(), data.cols());
    let mut staleness = Vec::with_capacity(steps as usize);
    let mut entries = 0u64;

    let t0 = Instant::now();
    let (final_objective, history, tasks) = trace::span(trace::LOOP, || {
        let (blocks, rdd) = block_rdd(&ctx, data, cfg);
        let mean_rows = n / blocks.len().max(1);
        let minibatch = ((mean_rows as f64 * cfg.batch_fraction).ceil() as u64).max(1);
        let mut model = vec![0.0; dim];
        let universe = match w.solver {
            SolverKind::Asgd => 0,
            SolverKind::Asaga => n as u64,
        };
        let bcast = ctx.async_broadcast(model.clone(), universe);
        if cfg.bcast_ring > 0 {
            bcast.enable_incremental(cfg.bcast_ring);
        }
        if let Some(feed) = &feed {
            feed.publish(PublishedModel {
                bcast: bcast.clone(),
                objective: w.objective,
                dim,
            });
        }
        // SAGA's running table mean, seeded with one full gradient at w0;
        // like the solvers, the loop also evaluates f(w0) and f(w_final).
        let mut alpha_bar = vec![0.0; dim];
        trace::span(trace::EVAL_OBJECTIVE, || {
            if w.solver == SolverKind::Asaga {
                w.objective.full_grad(seq, data, &model, &mut alpha_bar);
            }
            w.objective.full_objective(seq, data, &model)
        });

        let mut sub = Submitter {
            rdd,
            bcast: bcast.clone(),
            cfg: cfg.clone(),
            kind: w.solver,
            objective: w.objective,
            pool: ScratchPool::new(),
            minibatch,
            submitted: 0,
        };
        let mut server = ShardedAbsorber::new(dim, 1);
        sub.submit(&mut ctx);
        let mut updates = 0u64;
        while updates < steps {
            trace::set_step(updates as u32);
            let Some(t) = trace::span(trace::COLLECT, || ctx.collect::<GradMsg>()) else {
                break;
            };
            staleness.push(t.attrs.staleness);
            entries += t.value.entries;
            let issued = t.attrs.issued_version;
            let sparse_support = match w.solver {
                SolverKind::Asgd => {
                    bcast.unpin(issued);
                    trace::span(trace::ABSORB, || {
                        server.asgd_step(&mut model, &t.value.g, cfg.step, lambda)
                    })
                }
                SolverKind::Asaga => {
                    trace::span(trace::HISTORY, || bcast.record_use(&t.value.ids, issued));
                    bcast.unpin(issued);
                    let scale = t.value.ids.len() as f64 / n.max(1) as f64;
                    trace::span(trace::ABSORB, || {
                        server.asaga_step(
                            &mut model,
                            &mut alpha_bar,
                            &t.value.g,
                            cfg.step,
                            lambda,
                            scale,
                        );
                    });
                    false
                }
            };
            updates += 1;
            ctx.advance_version();
            let support = match &t.value.g {
                GradDelta::Sparse(s) if sparse_support => Some(s.indices()),
                _ => None,
            };
            trace::span(trace::PUSH_SNAPSHOT, || {
                bcast.push_snapshot_sharded(&model, support, server.pool())
            });
            sub.pool.recycle_ids(t.value.ids);
            sub.pool.recycle_delta(t.value.g);
            sub.submit(&mut ctx);
        }
        let final_objective = trace::span(trace::EVAL_OBJECTIVE, || {
            w.objective.full_objective(seq, data, &model)
        });
        while let Some(t) = ctx.collect::<GradMsg>() {
            bcast.unpin(t.attrs.issued_version);
        }
        if let Some(feed) = &feed {
            feed.mark_done();
        }
        (final_objective, bcast.stats(), sub.submitted)
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let (spans, mut dropped_spans) = trace::finish();
    let (_, reader_spans, reader_dropped) = reader.map_or_else(Default::default, |h| {
        h.join().expect("reader thread panicked")
    });
    dropped_spans += reader_dropped;
    LoopRun {
        steps: staleness.len() as u64,
        tasks,
        wall_s,
        final_objective,
        staleness,
        entries,
        history,
        spans,
        reader_spans,
        dropped_spans,
    }
}

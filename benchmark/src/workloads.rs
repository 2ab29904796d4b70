//! The four named workloads: what each runs, how its inputs are made from
//! the seed, one timed repetition, and the correctness checks.
//!
//! Every workload drives a solver of `async-optim` through its public
//! `AsyncSolver::run`; the seed reaches the program under test only as the
//! generated dataset and `SolverCfg::seed`.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use async_cluster::{ClusterSpec, CommModel, DelayModel, VDur};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_linalg::ParallelismCfg;
use async_optim::{Asaga, Asgd, AsyncSolver, Objective, RunReport, ServeFeed, SolverCfg};
use async_serve::{ServeCfg, Server};
use sparklet::{Driver, EngineBuilder};

use crate::host;
use crate::trace::{self, Span};

/// Rows scored per `predict_rows_into` call by the serving reader.
pub const READ_BATCH_ROWS: usize = 64;
/// Freshness bound of the serving reader; also the bound the check holds
/// `ServeCounters::max_version_lag` to.
pub const MAX_VERSION_LAG: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    Asgd,
    Asaga,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSel {
    /// Deterministic simulator, on the caller's thread.
    Sim,
    /// Remote engine, one loopback-TCP worker thread per cluster worker.
    RemoteLoopback,
}

/// How converged a repetition must end to count as correct.
#[derive(Debug, Clone, Copy)]
pub enum Accept {
    /// `final_objective <= share * f(0)` (no closed-form optimum).
    ObjectiveShare(f64),
    /// `final_objective - f* <= share * (f(0) - f*)`.
    GapShare(f64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// Tiny shapes and budgets for `smoke` and `cargo test`: every code
    /// path and check of `Full`, seconds instead of minutes.
    Smoke,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Threads runnable at once (driver, workers, reader); a workload is
    /// refused on a host with fewer cores.
    pub threads: usize,
    pub solver: SolverKind,
    pub objective: Objective,
    pub rows: usize,
    pub cols: usize,
    /// `Some(k)`: CSR features with ~k nonzeros per row and ±1 labels.
    pub nnz_per_row: Option<usize>,
    pub engine: EngineSel,
    pub cluster: ClusterSpec,
    /// Solver configuration; `seed`, `baseline` and `serve_feed` are
    /// filled in per run.
    pub cfg: SolverCfg,
    /// One closed-loop serving reader beside the trainer.
    pub reader: bool,
    pub accept: Accept,
}

fn free_cluster(workers: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(workers, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO)
}

/// The four workloads, in the order every table lists them.
pub fn all(scale: Scale) -> Vec<Workload> {
    let full = scale == Scale::Full;
    let pick = |f: usize, s: usize| if full { f } else { s };
    vec![
        Workload {
            name: "sparse_ring_sim",
            why: "Model (512 KB) far larger than a gradient's support: broadcast ring/patch resolution, CSR kernels and sparse scatter do the work; dense kernels and transport none.",
            threads: 1,
            solver: SolverKind::Asgd,
            objective: Objective::Logistic { lambda: 0.0 },
            rows: pick(8192, 1024),
            cols: pick(65_536, 4096),
            nnz_per_row: Some(20),
            engine: EngineSel::Sim,
            cluster: free_cluster(4),
            cfg: SolverCfg {
                step: 0.5,
                batch_fraction: 0.05,
                barrier: BarrierFilter::Asp,
                max_updates: pick(3000, 600) as u64,
                bcast_ring: 16,
                ..SolverCfg::default()
            },
            reader: false,
            accept: Accept::ObjectiveShare(if full { 0.45 } else { 0.60 }),
        },
        Workload {
            name: "dense_saga_straggler_sim",
            why: "The paper's experiment: ASAGA history under an SSP barrier with one straggler; dense kernels, the SAGA table, history pins and STAT/barrier dominate; sparse and ring paths are bypassed.",
            threads: 1,
            solver: SolverKind::Asaga,
            objective: Objective::LeastSquares { lambda: 1e-3 },
            rows: pick(8192, 1024),
            cols: pick(256, 32),
            nnz_per_row: None,
            engine: EngineSel::Sim,
            cluster: ClusterSpec::homogeneous(
                8,
                DelayModel::ControlledDelay {
                    worker: 7,
                    intensity: 1.0,
                },
            )
            .with_comm(CommModel {
                per_msg: VDur::from_micros(100),
                ns_per_byte: 1.0,
            })
            .with_sched_overhead(VDur::from_micros(50)),
            cfg: SolverCfg {
                step: 0.05,
                batch_fraction: 0.1,
                barrier: BarrierFilter::Ssp { slack: 4 },
                max_updates: pick(8000, 3000) as u64,
                ..SolverCfg::default()
            },
            reader: false,
            accept: Accept::GapShare(0.01),
        },
        Workload {
            name: "small_task_remote",
            why: "Per-task overhead: ~20-row tasks over two loopback-TCP workers, so frame/payload codecs, sockets, thread hand-offs and the result pump do the work and linalg almost none.",
            threads: 2,
            solver: SolverKind::Asgd,
            objective: Objective::LeastSquares { lambda: 1e-3 },
            rows: pick(4096, 1024),
            cols: pick(64, 16),
            nnz_per_row: None,
            engine: EngineSel::RemoteLoopback,
            cluster: free_cluster(2),
            cfg: SolverCfg {
                step: 0.02,
                batch_fraction: 0.02,
                barrier: BarrierFilter::Asp,
                max_updates: pick(30_000, 2000) as u64,
                partitions: 4,
                ..SolverCfg::default()
            },
            reader: false,
            accept: Accept::GapShare(0.01),
        },
        Workload {
            name: "serve_while_train",
            why: "The same MVCC broadcast ring used differently: one reader pins model versions beside the trainer's snapshot pushes, so a push-side gain that costs readers (or the reverse) shows.",
            threads: 2,
            solver: SolverKind::Asgd,
            objective: Objective::LeastSquares { lambda: 0.01 },
            rows: pick(4096, 1024),
            cols: pick(256, 32),
            nnz_per_row: None,
            engine: EngineSel::Sim,
            cluster: free_cluster(4),
            cfg: SolverCfg {
                step: 0.02,
                batch_fraction: 0.1,
                barrier: BarrierFilter::Asp,
                max_updates: pick(25_000, 2000) as u64,
                ..SolverCfg::default()
            },
            reader: true,
            accept: Accept::GapShare(0.01),
        },
    ]
}

pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    all(scale).into_iter().find(|w| w.name == name)
}

/// Everything a repetition needs that is built once per set-up.
pub struct Prepared {
    pub data: Arc<Dataset>,
    /// `f(0)`: every solver starts from the zero model.
    pub f0: f64,
    /// `f*` for least squares; `None` for logistic.
    pub optimum: Option<f64>,
    pub cfg: SolverCfg,
}

impl Prepared {
    /// `f(0) - f*`, or `f(0)` itself without a closed-form optimum.
    pub fn gap0(&self) -> f64 {
        self.f0 - self.optimum.unwrap_or(0.0)
    }
}

/// What one reader thread observed over one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReaderStats {
    pub reads: u64,
    pub rows: u64,
    /// Reads with a non-finite prediction or a version that went back.
    pub bad_reads: u64,
}

/// One repetition: the solver's report plus host-side accounting around
/// `solver.run` only (engine boot and teardown are outside).
pub struct Rep {
    pub report: RunReport,
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    /// Time the calling (driver) thread was neither running nor runnable:
    /// the solver loop only blocks waiting for results in `collect`.
    pub blocked_s: f64,
    pub reader: ReaderStats,
}

impl Workload {
    /// Generates the dataset and the baselines from `seed`.
    pub fn prepare(&self, seed: u64) -> Prepared {
        let spec = match self.nnz_per_row {
            Some(k) => SynthSpec::sparse(self.name, self.rows, self.cols, k, seed),
            None => SynthSpec::dense(self.name, self.rows, self.cols, seed),
        };
        let (data, _) = match self.objective {
            Objective::Logistic { .. } => spec.generate_classification(),
            Objective::LeastSquares { .. } => spec.generate(),
        }
        .expect("synthetic generation cannot fail on a valid shape");
        let seq = ParallelismCfg::sequential();
        let f0 = self
            .objective
            .full_objective(seq, &data, &vec![0.0; data.cols()]);
        let optimum = self.objective.optimum(seq, &data);
        let cfg = SolverCfg {
            seed,
            baseline: optimum.unwrap_or(0.0),
            ..self.cfg.clone()
        };
        Prepared {
            data: Arc::new(data),
            f0,
            optimum,
            cfg,
        }
    }

    /// A fresh context on this workload's engine. Each repetition gets its
    /// own, so model versions (which key the per-task RNG streams) restart
    /// at 0 and simulated repetitions are bit-identical.
    pub fn context(&self, engine: EngineSel) -> AsyncContext {
        match engine {
            EngineSel::Sim => AsyncContext::sim(self.cluster.clone()),
            EngineSel::RemoteLoopback => {
                let engine = EngineBuilder::remote()
                    .spec(self.cluster.clone())
                    .time_scale(0.0)
                    .loopback_workers(Arc::new(async_optim::worker_registry))
                    .build()
                    .expect("loopback workers connect over 127.0.0.1");
                AsyncContext::new(Driver::from_engine(engine))
            }
        }
    }

    fn solve(&self, ctx: &mut AsyncContext, data: &Dataset, cfg: &SolverCfg) -> RunReport {
        match self.solver {
            SolverKind::Asgd => Asgd::new(self.objective).run(ctx, data, cfg),
            SolverKind::Asaga => Asaga::new(self.objective).run(ctx, data, cfg),
        }
    }

    /// Runs the solver once on `engine` with `cfg`, untimed; used for the
    /// simulator oracle and the time-to-target repetition.
    pub fn run_plain(&self, prep: &Prepared, engine: EngineSel, cfg: &SolverCfg) -> RunReport {
        let mut ctx = self.context(engine);
        self.solve(&mut ctx, &prep.data, cfg)
    }

    /// One timed repetition of the workload's update budget.
    pub fn run_rep(&self, prep: &Prepared) -> Rep {
        let mut cfg = prep.cfg.clone();
        let reader = self.reader.then(|| {
            let feed = ServeFeed::new();
            cfg.serve_feed = Some(feed.clone());
            let data = Arc::clone(&prep.data);
            thread::spawn(move || read_until_done(&feed, &data, None).0)
        });
        let mut ctx = self.context(self.engine);
        let (user0, sys0) = host::cpu_seconds();
        let (run0, queued0) = host::thread_sched_seconds();
        let t0 = Instant::now();
        let mut report = self.solve(&mut ctx, &prep.data, &cfg);
        let wall_s = t0.elapsed().as_secs_f64();
        let (run1, queued1) = host::thread_sched_seconds();
        let (user1, sys1) = host::cpu_seconds();
        // Repetitions are kept until the run ends; without the model each
        // is a few hundred bytes, so peak memory does not grow with their
        // number.
        report.final_w = Vec::new();
        let reader = reader.map_or_else(ReaderStats::default, |h| {
            h.join().expect("reader thread panicked")
        });
        Rep {
            report,
            wall_s,
            user_s: user1 - user0,
            sys_s: sys1 - sys0,
            blocked_s: (wall_s - (run1 - run0) - (queued1 - queued0)).max(0.0),
            reader,
        }
    }

    /// The per-repetition correctness checks; returns one line per
    /// violated check (empty = correct).
    pub fn check_rep(&self, prep: &Prepared, rep: &Rep) -> Vec<String> {
        let r = &rep.report;
        let mut bad = Vec::new();
        if r.updates != prep.cfg.max_updates {
            bad.push(format!(
                "updates {} != budget {}",
                r.updates, prep.cfg.max_updates
            ));
        }
        if r.lost_tasks != 0 {
            bad.push(format!("{} tasks lost", r.lost_tasks));
        }
        if !r.final_objective.is_finite() {
            bad.push("final objective is not finite".to_string());
        }
        let (reached, allowed, what) = match self.accept {
            Accept::ObjectiveShare(s) => (r.final_objective, s * prep.f0, "objective"),
            Accept::GapShare(s) => (
                r.final_objective - prep.optimum.unwrap_or(0.0),
                s * prep.gap0(),
                "gap",
            ),
        };
        // A NaN objective is already reported above as not finite.
        if reached > allowed {
            bad.push(format!(
                "final {what} {reached:.6e} above allowed {allowed:.6e}"
            ));
        }
        if self.reader {
            if rep.reader.reads == 0 {
                bad.push("reader served nothing".to_string());
            }
            if rep.reader.bad_reads != 0 {
                bad.push(format!(
                    "{} reads were non-finite or went back a version",
                    rep.reader.bad_reads
                ));
            }
            if r.serve.max_version_lag > MAX_VERSION_LAG {
                bad.push(format!(
                    "served lag {} above bound {MAX_VERSION_LAG}",
                    r.serve.max_version_lag
                ));
            }
        }
        bad
    }

    /// True when repetitions of one set-up must repeat bit for bit: the
    /// trainer runs on the simulator (a reader thread beside it only pins
    /// versions and cannot change what is trained).
    pub fn deterministic(&self) -> bool {
        self.engine == EngineSel::Sim
    }
}

/// Bit-identity of two simulated repetitions in what the ISSUE names.
pub fn same_outputs(a: &RunReport, b: &RunReport) -> bool {
    a.final_objective.to_bits() == b.final_objective.to_bits()
        && a.bytes_shipped == b.bytes_shipped
        && a.max_staleness == b.max_staleness
}

/// The serving reader: a closed loop of batched predictions against the
/// live run, from publication until the trainer marks the feed done. With
/// `record = (origin, capacity)` each prediction is a `serve.predict` span
/// in this thread's own buffer; returns `(stats, spans, spans dropped)`.
pub fn read_until_done(
    feed: &ServeFeed,
    data: &Dataset,
    record: Option<(Instant, usize)>,
) -> (ReaderStats, Vec<Span>, u64) {
    let mut stats = ReaderStats::default();
    let cfg = ServeCfg {
        max_version_lag: MAX_VERSION_LAG,
        log_queries: false,
    };
    let Some(server) = Server::connect(feed, cfg) else {
        return (stats, Vec::new(), 0);
    };
    if let Some((origin, capacity)) = record {
        trace::start(origin, capacity);
    }
    let mut predictor = server.predictor();
    let rows: Vec<u32> = (0..READ_BATCH_ROWS.min(data.rows()) as u32).collect();
    let mut out = Vec::new();
    let mut last_version = predictor.version();
    while !server.training_done() {
        trace::span(trace::PREDICT, || {
            predictor.predict_rows_into(data.features(), &rows, &mut out);
        });
        let version = predictor.version();
        stats.reads += 1;
        stats.rows += rows.len() as u64;
        if version < last_version || !out.iter().all(|p| p.is_finite()) {
            stats.bad_reads += 1;
        }
        last_version = version;
    }
    let (spans, dropped) = trace::finish();
    (stats, spans, dropped)
}

//! The [`AsyncSolver`] interface: configuration, report and errors.
//!
//! A solver drives an [`AsyncContext`] with gradient tasks under a
//! [`BarrierFilter`] and applies collected updates server-side — the shape
//! of the paper's Listings 3–4, written once in `server_loop`.
//! Everything a run produces (convergence trace, staleness extremes,
//! wait/byte accounting) lands in a [`RunReport`] so benches and tests read
//! one structure.

use async_cluster::{ConvergenceTrace, VDur, VTime};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Block, Dataset};
use sparklet::Rdd;

use crate::checkpoint::CheckpointError;
use crate::compression::CompressCfg;
use crate::durable::DurableStats;
use crate::serving::{ServeCounters, ServeFeed};

/// Configuration shared by all solvers.
#[derive(Debug, Clone)]
pub struct SolverCfg {
    /// Step size γ.
    pub step: f64,
    /// If true, scale each applied step by `1/(1 + staleness)` — the
    /// bounded-staleness damping rule the paper discusses for ASGD.
    pub staleness_damping: bool,
    /// Mini-batch fraction `b` of each partition per task (eq. 5).
    pub batch_fraction: f64,
    /// Barrier-control strategy admitting workers to new tasks.
    pub barrier: BarrierFilter,
    /// Stop after this many server model updates.
    pub max_updates: u64,
    /// Record a convergence sample every this many updates (0 = only the
    /// initial and final points).
    pub eval_every: u64,
    /// Baseline objective subtracted in the trace (the paper's
    /// `objective − baseline` error metric).
    pub baseline: f64,
    /// Number of data partitions (0 = one per worker).
    pub partitions: usize,
    /// Sampling seed; runs are pure functions of `(cfg, cluster spec)`.
    pub seed: u64,
    /// Cadence of the durable store: commit a [`crate::Checkpoint`] of the
    /// server state to [`SolverCfg::durable_dir`] every this many updates
    /// (0 = only at run end). Without a `durable_dir` nothing is captured.
    pub checkpoint_every: u64,
    /// Capacity of the incremental-broadcast ring (0 = disabled, the
    /// default): when > 0, the model broadcast keeps the change supports
    /// of this many recent versions and ships version-diff patches to
    /// workers instead of dense snapshots wherever a patch is smaller and
    /// bit-exact (see `async_core::AsyncBcast::enable_incremental`). The
    /// ASGD update has a sparse change support only when the objective has
    /// no ridge term (λ = 0); with λ > 0 every version declares a dense
    /// change and resolution falls back to full snapshots.
    pub bcast_ring: usize,
    /// Worker → server delta compression ([`CompressCfg::Off`], the
    /// default, ships raw deltas bit-identically to builds predating the
    /// compression layer). With [`CompressCfg::TopK`], every solver routes
    /// its deltas through a per-partition error-feedback compressor
    /// ([`crate::CompressorBank`]): the shipped message carries only the `k`
    /// largest-magnitude coordinates of the accumulated gradient signal in
    /// the configured wire format, and [`RunReport::result_bytes`] counts
    /// the compressed frame sizes. On ASGD with an incremental broadcast
    /// ring, a non-exact `quant` also quantizes the driver → worker
    /// version-diff patches (`async_core::AsyncBcast::set_patch_quant`).
    pub compress: CompressCfg,
    /// Serving rendezvous (`None`, the default, is bit-identical to builds
    /// predating the serving layer). When set, the solver publishes its
    /// live model broadcast through the feed right after creating it —
    /// concurrent readers (`async-serve`) pin snapshot versions from the
    /// same MVCC ring the training loop pushes into — and folds the feed's
    /// serving counters into [`RunReport::serve`] at run end.
    pub serve_feed: Option<ServeFeed>,
    /// Re-submission bound for tasks lost to worker failures (0, the
    /// default, disables retries). A lost gradient task is re-issued to a
    /// surviving worker at its *original* model version — staleness
    /// accounting and broadcast pins stay honest — up to this many times
    /// before it counts in [`RunReport::lost_tasks`]. Only while the loop
    /// runs: a task that dies after the last update is drained, never
    /// re-issued.
    pub retry_lost: u32,
    /// Directory of the run's durable checkpoint store (`None`, the
    /// default, is bit-identical to builds predating the durability
    /// layer). When set, the solver opens a
    /// [`crate::durable::CheckpointStore`] there, **auto-resumes** from
    /// the newest valid generation it finds (model, solver history,
    /// error-feedback residuals, model version, and update budget — the
    /// run completes the crashed run's `max_updates` total), and commits
    /// a checkpoint every [`SolverCfg::checkpoint_every`] updates and at
    /// run end through a background writer thread, off the training hot
    /// path. An explicit `resume_from` on the solver takes precedence over
    /// the store's contents. The store is also where a checkpoint is read
    /// back from ([`crate::CheckpointStore::latest_valid`] or
    /// [`crate::CheckpointStore::read`], then
    /// [`crate::Checkpoint::from_bytes`]). The run's durability outcome
    /// lands in [`RunReport::durable`].
    pub durable_dir: Option<std::path::PathBuf>,
}

impl Default for SolverCfg {
    fn default() -> Self {
        Self {
            step: 0.05,
            staleness_damping: false,
            batch_fraction: 0.1,
            barrier: BarrierFilter::Asp,
            max_updates: 200,
            eval_every: 0,
            baseline: 0.0,
            partitions: 0,
            seed: 42,
            checkpoint_every: 0,
            bcast_ring: 0,
            compress: CompressCfg::Off,
            serve_feed: None,
            retry_lost: 0,
            durable_dir: None,
        }
    }
}

/// Why [`SolverCfg::validate`] refused a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverCfgError {
    /// `batch_fraction` outside `(0, 1]` — a task would sample nothing or
    /// more than its partition.
    BatchFraction(f64),
    /// `compress` is [`CompressCfg::TopK`] with `k == 0` — every shipped
    /// delta would be empty and the residual would grow forever.
    ZeroTopK,
}

impl std::fmt::Display for SolverCfgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverCfgError::BatchFraction(b) => {
                write!(f, "batch_fraction must lie in (0, 1], got {b}")
            }
            SolverCfgError::ZeroTopK => write!(f, "top-k compression must keep at least 1 entry"),
        }
    }
}

impl std::error::Error for SolverCfgError {}

impl SolverCfg {
    /// Refuses the contradictions that would otherwise surface mid-run (a
    /// top-0 compressor panics inside the first gradient task). Every run
    /// passes through here first: `ServerLoop::run` calls it before it
    /// touches the context, and [`AsyncSolver::try_run`] returns the
    /// refusal as [`SolverError::Cfg`].
    pub fn validate(&self) -> Result<(), SolverCfgError> {
        if !(self.batch_fraction > 0.0 && self.batch_fraction <= 1.0) {
            return Err(SolverCfgError::BatchFraction(self.batch_fraction));
        }
        if matches!(self.compress, CompressCfg::TopK { k: 0, .. }) {
            return Err(SolverCfgError::ZeroTopK);
        }
        Ok(())
    }
}

/// Everything one solver run produces.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// `(virtual time, objective − baseline)` samples.
    pub trace: ConvergenceTrace,
    /// Server model updates applied.
    pub updates: u64,
    /// Gradient tasks whose results were consumed (the ledger's
    /// `delivered` over the run).
    pub tasks_completed: u64,
    /// Maximum staleness observed across consumed results.
    pub max_staleness: u64,
    /// Virtual instant of the last applied update (the run's wall clock).
    pub wall_clock: VTime,
    /// Mean worker wait time over the run (§6.3's metric): the waits the
    /// context's recorder closed during this run, not over its lifetime.
    pub mean_wait: VDur,
    /// Bytes shipped to workers over the run: the driver's total after the
    /// run less its total before, so a context hosting successive runs
    /// reports each run's own bytes.
    pub bytes_shipped: u64,
    /// Stored feature entries touched by consumed gradient tasks — the
    /// deterministic work measure of the gradient hot path (dense blocks
    /// count the full row; CSR blocks only their nonzeros).
    pub grad_entries: u64,
    /// Modeled wire bytes of the consumed gradient-result messages
    /// (sparse deltas ship only their support).
    pub result_bytes: u64,
    /// Per-worker task clocks at the end of the run (one entry per worker
    /// the cluster ended with — mid-run joins appear at the tail).
    pub worker_clocks: Vec<u64>,
    /// The final model.
    pub final_w: Vec<f64>,
    /// Final objective value (not baseline-subtracted).
    pub final_objective: f64,
    /// Serving counters accumulated by readers attached through
    /// [`SolverCfg::serve_feed`] from the run's publish to its end (all
    /// zeros without one; a reused feed counts this run only).
    pub serve: ServeCounters,
    /// Tasks lost over the run (the ledger's `lost`): their worker died
    /// with no attempt left under [`SolverCfg::retry_lost`]. A task in
    /// flight or queued for a retry when the loop stops is drained
    /// unapplied, not lost, even if it then dies.
    pub lost_tasks: u64,
    /// Re-submissions of lost tasks to surviving workers over the run (the
    /// ledger's `retried`; always 0 with retries off).
    pub retried_tasks: u64,
    /// Durability outcome under [`SolverCfg::durable_dir`]: the generation
    /// the run auto-resumed from (if any) and the store's write counters
    /// (all defaults without a durable store).
    pub durable: DurableStats,
}

/// Why a run refused to start: every way configuration (as opposed to a
/// bug in this crate) can stop the server loop, detected before the first
/// task is submitted.
#[derive(Debug)]
pub enum SolverError {
    /// The configuration contradicts itself ([`SolverCfg::validate`]).
    Cfg {
        /// Solver attempting the run.
        solver: &'static str,
        /// The contradiction.
        source: SolverCfgError,
    },
    /// The context still has tasks in flight from an earlier use.
    BusyContext {
        /// Solver attempting the run.
        solver: &'static str,
        /// Tasks in flight.
        pending: usize,
    },
    /// [`SolverCfg::durable_dir`] could not be opened as a checkpoint store.
    Store {
        /// Solver attempting the run.
        solver: &'static str,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// The resume checkpoint does not fit this solver: another solver's,
    /// another model dimension, a foreign [`crate::SolverHistory`], or an
    /// error-feedback residual of another width or with a non-finite value.
    Checkpoint {
        /// Solver attempting the resume.
        solver: &'static str,
        /// What did not match.
        source: CheckpointError,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::Cfg { solver, source } => {
                write!(f, "{solver}: invalid configuration: {source}")
            }
            SolverError::BusyContext { solver, pending } => {
                write!(f, "{solver}: context has {pending} in-flight tasks")
            }
            SolverError::Store { solver, source } => {
                write!(
                    f,
                    "{solver}: cannot open durable checkpoint store: {source}"
                )
            }
            SolverError::Checkpoint { solver, source } => {
                write!(f, "{solver}: incompatible resume checkpoint: {source}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// An asynchronous optimization algorithm runnable on an [`AsyncContext`].
pub trait AsyncSolver {
    /// Short name for reports ("asgd", "asaga", ...).
    fn name(&self) -> &'static str;

    /// Runs the algorithm to `cfg.max_updates` model updates. The context
    /// must have no in-flight tasks; the solver drains its own outstanding
    /// tasks before returning. Errors come back before anything is
    /// submitted.
    fn try_run(
        &mut self,
        ctx: &mut AsyncContext,
        dataset: &Dataset,
        cfg: &SolverCfg,
    ) -> Result<RunReport, SolverError>;

    /// [`AsyncSolver::try_run`] for callers that treat a refused run as
    /// fatal.
    ///
    /// # Panics
    /// Panics with the [`SolverError`]'s message.
    fn run(&mut self, ctx: &mut AsyncContext, dataset: &Dataset, cfg: &SolverCfg) -> RunReport {
        self.try_run(ctx, dataset, cfg)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Partitions `dataset` into `cfg.partitions` blocks (default: one per
/// worker) and wraps them in a one-block-per-partition RDD whose cost
/// hints are the blocks' nonzero counts.
pub fn block_rdd(
    ctx: &AsyncContext,
    dataset: &Dataset,
    cfg: &SolverCfg,
) -> (Vec<Block>, Rdd<Block>) {
    let nparts = if cfg.partitions == 0 {
        ctx.workers()
    } else {
        cfg.partitions
    };
    let blocks = dataset.partition(nparts);
    let costs: Vec<f64> = blocks.iter().map(|b| b.nnz() as f64).collect();
    let rdd = Rdd::parallelize_with_cost(blocks.iter().map(|b| vec![b.clone()]).collect(), costs);
    (blocks, rdd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_cluster::{ClusterSpec, CommModel, DelayModel};
    use async_data::SynthSpec;
    use async_linalg::Matrix;

    #[test]
    fn validate_rejects_contradictions() {
        assert_eq!(SolverCfg::default().validate(), Ok(()));
        for bad in [0.0, -0.1, 1.5, f64::NAN] {
            let cfg = SolverCfg {
                batch_fraction: bad,
                ..SolverCfg::default()
            };
            assert!(matches!(
                cfg.validate(),
                Err(SolverCfgError::BatchFraction(_))
            ));
        }
        let cfg = SolverCfg {
            compress: CompressCfg::TopK {
                k: 0,
                quant: async_linalg::Quant::I8,
            },
            ..SolverCfg::default()
        };
        assert_eq!(cfg.validate(), Err(SolverCfgError::ZeroTopK));
    }

    #[test]
    fn block_rdd_defaults_to_one_partition_per_worker() {
        let ctx = AsyncContext::sim(
            ClusterSpec::homogeneous(4, DelayModel::None).with_comm(CommModel::free()),
        );
        let (d, _) = SynthSpec::dense("t", 40, 4, 1).generate().unwrap();
        let (blocks, rdd) = block_rdd(&ctx, &d, &SolverCfg::default());
        assert_eq!(blocks.len(), 4);
        assert_eq!(rdd.num_partitions(), 4);
        let total: usize = blocks.iter().map(|b| b.rows()).sum();
        assert_eq!(total, 40);
        // Cost hints reflect block nonzeros (dense: rows × cols).
        assert_eq!(rdd.cost_hint(0), (blocks[0].rows() * 4) as f64);
        // What a task computes on is a window of `d`: local row `i` of
        // partition `p` is global row `row_offset + i`, in place.
        for p in 0..4 {
            let b = &rdd.compute(p)[0];
            let g = b.row_offset();
            assert_eq!(b.global_row(3), (g + 3) as u64);
            assert_eq!(b.labels().as_ptr(), d.labels()[g..].as_ptr());
            let (Matrix::Dense(rows), Matrix::Dense(all)) = (b.features(), d.features()) else {
                panic!("a dense dataset partitions into dense blocks");
            };
            assert_eq!(rows.row(3).as_ptr(), all.row(g + 3).as_ptr());
        }
    }
}

//! The sparse-fast-path benchmark: dense vs CSR gradient paths on one
//! logical high-dimension/low-nnz (rcv1-shaped) workload, plus a
//! staleness-adaptive momentum (AsyncMsgd) ASP-vs-SSP datapoint.
//!
//! Two claims are measured, both deterministically (the JSON is
//! byte-reproducible for a fixed configuration):
//!
//! 1. **Fast path** — the same logistic-regression problem, stored dense
//!    and as CSR, driven by the same ASGD configuration. The sparse run
//!    must beat the dense run on gradient work (stored entries touched),
//!    result-message bytes, and modeled wall clock (task cost scales with
//!    stored nonzeros).
//! 2. **AsyncMsgd** — the momentum solver under ASP vs SSP against one
//!    controlled-delay straggler on the sparse storage: the convergence
//!    datapoint for the paper's second solver scenario. These runs use
//!    free communication (like the e2e suites) so the straggler and the
//!    barrier — not the modeled wire — set the pace; the sparse fast path
//!    makes tasks so cheap that any per-message cost would otherwise
//!    drown the asynchrony effect being measured.

use async_cluster::{ClusterSpec, CommModel, DelayModel, VDur};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_optim::{Asgd, AsyncMsgd, AsyncSolver, Objective, SolverCfg};

use crate::doc::{bench_doc, BenchDoc, ReportField};
use crate::workload::{modeled_cluster, LabeledRun};

/// Configuration of the sparse-fast-path benchmark.
#[derive(Debug, Clone)]
pub struct SparseFastpathCfg {
    /// Cluster size.
    pub workers: usize,
    /// Dataset rows.
    pub rows: usize,
    /// Feature dimension (high, rcv1-like).
    pub cols: usize,
    /// Mean stored nonzeros per row (low).
    pub nnz_per_row: usize,
    /// Server update budget per run.
    pub updates: u64,
    /// Mini-batch fraction per task.
    pub batch_fraction: f64,
    /// Step size (logistic).
    pub step: f64,
    /// Base momentum β₀ for the AsyncMsgd datapoint.
    pub momentum: f64,
    /// Straggler intensity for the AsyncMsgd ASP-vs-SSP comparison.
    pub intensity: f64,
    /// Per-message latency in µs (plus 1 ns/byte on payloads).
    pub per_msg_us: u64,
    /// Sampling/generation seed.
    pub seed: u64,
}

impl Default for SparseFastpathCfg {
    fn default() -> Self {
        Self {
            workers: 4,
            rows: 1_024,
            cols: 8_192,
            nnz_per_row: 24,
            updates: 200,
            batch_fraction: 0.1,
            step: 0.5,
            momentum: 0.9,
            intensity: 1.0,
            per_msg_us: 20,
            seed: 2025,
        }
    }
}

/// The benchmark outcome: the four runs plus the headline ratios.
#[derive(Debug, Clone)]
pub struct SparseFastpath {
    /// The configuration measured.
    pub cfg: SparseFastpathCfg,
    /// ASGD on dense storage (no straggler).
    pub dense: LabeledRun,
    /// ASGD on CSR storage, same logical data (no straggler).
    pub sparse: LabeledRun,
    /// AsyncMsgd under ASP on CSR storage, one straggler.
    pub msgd_asp: LabeledRun,
    /// AsyncMsgd under SSP(2) on CSR storage, one straggler.
    pub msgd_ssp: LabeledRun,
    /// `dense.grad_entries / sparse.grad_entries` — kernel-work ratio.
    pub entries_ratio: f64,
    /// `dense.result_bytes / sparse.result_bytes` — result-wire ratio.
    pub result_bytes_ratio: f64,
    /// `dense.wall_clock / sparse.wall_clock` — modeled time speedup.
    pub wall_clock_speedup: f64,
    /// `msgd_ssp.wall_clock / msgd_asp.wall_clock` under the straggler.
    pub msgd_asp_speedup: f64,
}

/// The ±1-labelled logistic problem in both storages (labels from the
/// planted linear model, shared between the two datasets).
fn paired_datasets(cfg: &SparseFastpathCfg) -> (Dataset, Dataset) {
    let (sparse, _) = SynthSpec::sparse("fastpath", cfg.rows, cfg.cols, cfg.nnz_per_row, cfg.seed)
        .generate_classification()
        .expect("synthetic generation");
    let dense = sparse.densified();
    (sparse, dense)
}

fn ctx(cfg: &SparseFastpathCfg, delay: DelayModel) -> AsyncContext {
    AsyncContext::sim(modeled_cluster(cfg.workers, delay, cfg.per_msg_us, 1.0))
}

fn solver_cfg(cfg: &SparseFastpathCfg, barrier: BarrierFilter) -> SolverCfg {
    SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier,
        max_updates: cfg.updates,
        eval_every: (cfg.updates / 8).max(1),
        seed: cfg.seed,
        ..SolverCfg::default()
    }
}

/// Runs the four measurements.
pub fn run_sparse_fastpath(cfg: SparseFastpathCfg) -> SparseFastpath {
    let objective = Objective::Logistic { lambda: 1e-3 };
    let (sparse_d, dense_d) = paired_datasets(&cfg);

    let asgd = |label, d: &Dataset| {
        let mut c = ctx(&cfg, DelayModel::None);
        let report = Asgd::new(objective).run(&mut c, d, &solver_cfg(&cfg, BarrierFilter::Asp));
        LabeledRun { label, report }
    };
    let dense = asgd("dense", &dense_d);
    let sparse = asgd("sparse", &sparse_d);
    // Free comms for the momentum comparison: the straggler stretches
    // compute, and compute must set the pace for the barrier choice to
    // matter on fast sparse tasks.
    let msgd = |label, barrier| {
        let straggler = DelayModel::ControlledDelay {
            worker: cfg.workers - 1,
            intensity: cfg.intensity,
        };
        let mut c = AsyncContext::sim(
            ClusterSpec::homogeneous(cfg.workers, straggler)
                .with_comm(CommModel::free())
                .with_sched_overhead(VDur::ZERO),
        );
        let report = AsyncMsgd::new(objective).with_momentum(cfg.momentum).run(
            &mut c,
            &sparse_d,
            &solver_cfg(&cfg, barrier),
        );
        LabeledRun { label, report }
    };
    let msgd_asp = msgd("msgd_asp", BarrierFilter::Asp);
    let msgd_ssp = msgd("msgd_ssp", BarrierFilter::Ssp { slack: 2 });

    let entries_ratio = dense.report.grad_entries as f64 / sparse.report.grad_entries.max(1) as f64;
    let result_bytes_ratio =
        dense.report.result_bytes as f64 / sparse.report.result_bytes.max(1) as f64;
    let wall_clock_speedup = dense.report.wall_clock.as_micros() as f64
        / sparse.report.wall_clock.as_micros().max(1) as f64;
    let msgd_asp_speedup = msgd_ssp.report.wall_clock.as_micros() as f64
        / msgd_asp.report.wall_clock.as_micros().max(1) as f64;

    eprintln!(
        "sparse_fastpath: {entries_ratio:.1}x less gradient work, {result_bytes_ratio:.1}x smaller results, {wall_clock_speedup:.2}x modeled speedup; msgd ASP {msgd_asp_speedup:.2}x over SSP",
    );
    SparseFastpath {
        cfg,
        dense,
        sparse,
        msgd_asp,
        msgd_ssp,
        entries_ratio,
        result_bytes_ratio,
        wall_clock_speedup,
        msgd_asp_speedup,
    }
}

const DESCRIPTION: &str = "CSR vs dense gradient path on one logical high-dim/low-nnz logistic workload (ASGD), plus AsyncMsgd staleness-adaptive momentum under ASP vs SSP with one controlled-delay straggler";

const RUN_FIELDS: [ReportField; 10] = [
    ReportField::WallClockMs,
    ReportField::Updates,
    ReportField::TasksCompleted,
    ReportField::MaxStaleness,
    ReportField::GradEntries,
    ReportField::ResultBytes,
    ReportField::BytesShipped,
    ReportField::FinalObjective,
    ReportField::WorkerClocks,
    ReportField::TraceMsObjective,
];

impl SparseFastpath {
    /// The `BENCH_sparse_fastpath.json` document; every byte is
    /// deterministic.
    pub fn doc(&self) -> BenchDoc {
        let c = &self.cfg;
        let run = |r: &LabeledRun| r.doc("run", &RUN_FIELDS);
        let dataset = format!(
            "sparse synthetic {}x{} (~{} nnz/row), logistic +-1 labels",
            c.rows, c.cols, c.nnz_per_row
        );
        bench_doc! {
            "benchmark": "sparse_fastpath",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": c.workers,
                "dataset": dataset,
                "updates": c.updates,
                "batch_fraction": c.batch_fraction,
                "step": c.step,
                "momentum": c.momentum,
                "straggler_intensity": c.intensity,
                "per_msg_us": c.per_msg_us,
                "seed": c.seed,
            },
            "dense": run(&self.dense),
            "sparse": run(&self.sparse),
            "msgd_asp": run(&self.msgd_asp),
            "msgd_ssp": run(&self.msgd_ssp),
            "grad_entries_ratio_dense_over_sparse": self.entries_ratio,
            "result_bytes_ratio_dense_over_sparse": self.result_bytes_ratio,
            "wall_clock_speedup_sparse_over_dense": self.wall_clock_speedup,
            "wall_clock_speedup_msgd_asp_over_ssp": self.msgd_asp_speedup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SparseFastpathCfg {
        SparseFastpathCfg {
            rows: 200,
            cols: 1_000,
            nnz_per_row: 12,
            updates: 60,
            per_msg_us: 0,
            ..SparseFastpathCfg::default()
        }
    }

    #[test]
    fn sparse_beats_dense_on_every_fastpath_metric() {
        let b = run_sparse_fastpath(small_cfg());
        assert_eq!(b.dense.report.updates, 60);
        assert_eq!(b.sparse.report.updates, 60);
        assert!(
            b.entries_ratio > 10.0,
            "kernel-work ratio {}",
            b.entries_ratio
        );
        assert!(
            b.result_bytes_ratio > 2.0,
            "wire ratio {}",
            b.result_bytes_ratio
        );
        assert!(
            b.wall_clock_speedup > 2.0,
            "modeled speedup {}",
            b.wall_clock_speedup
        );
    }

    #[test]
    fn msgd_converges_and_asp_outruns_ssp() {
        let b = run_sparse_fastpath(small_cfg());
        // Both momentum runs converge well below the ln(2) start.
        let ln2 = std::f64::consts::LN_2;
        eprintln!(
            "msgd finals: asp {} ssp {} speedup {}",
            b.msgd_asp.report.final_objective,
            b.msgd_ssp.report.final_objective,
            b.msgd_asp_speedup
        );
        // ASP trades per-update progress for wall clock: it sees far more
        // staleness, so it lands higher than SSP but still descends.
        assert!(b.msgd_asp.report.final_objective < 0.85 * ln2);
        assert!(b.msgd_ssp.report.final_objective < 0.6 * ln2);
        // Under a straggler, ASP reaches the budget first.
        assert!(
            b.msgd_asp_speedup > 1.0,
            "ASP-MSGD speedup {}",
            b.msgd_asp_speedup
        );
    }

    #[test]
    fn fastpath_json_is_deterministic_and_well_formed() {
        let run = || run_sparse_fastpath(small_cfg()).doc();
        crate::doc::oracle::check(run, "sparse_fastpath", &["dense", "msgd_ssp"]);
    }
}

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

use async_cluster::DelayModel;
use async_core::BarrierFilter;
use async_data::SynthSpec;
use async_optim::{AsyncMsgd, AsyncSolver, Objective, SolverCfg};

use crate::doc::{bench_doc, BenchDoc, ReportField};
use crate::workload::{modeled_cluster, LabeledRun, Scenario};

/// The committed workload: ASGD on a high-dimension, low-nnz
/// (rcv1-shaped) logistic problem, four workers behind a 20 µs message
/// latency plus 1 ns/byte.
pub fn scenario() -> Scenario {
    Scenario {
        data: SynthSpec::sparse("fastpath", 1_024, 8_192, 24, 2025),
        objective: Objective::Logistic { lambda: 1e-3 },
        cluster: modeled_cluster(4, DelayModel::None, 20, 1.0),
        solver: SolverCfg {
            step: 0.5,
            batch_fraction: 0.1,
            max_updates: 200,
            eval_every: 25,
            seed: 2025,
            ..SolverCfg::default()
        },
    }
}

/// What this bench varies beyond its [`Scenario`]: the AsyncMsgd
/// datapoint's solver and straggler.
#[derive(Debug, Clone)]
pub struct Params {
    /// Base momentum β₀.
    pub momentum: f64,
    /// Controlled-delay straggler intensity of the last worker.
    pub intensity: f64,
}

/// The committed parameters.
pub const PARAMS: Params = Params {
    momentum: 0.9,
    intensity: 1.0,
};

/// The benchmark outcome: the four runs plus the headline ratios.
#[derive(Debug, Clone)]
pub struct SparseFastpath {
    /// The scenario measured.
    pub scenario: Scenario,
    /// The parameters measured.
    pub params: Params,
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

/// Runs the four measurements.
pub fn run_sparse_fastpath(mut s: Scenario, params: Params) -> SparseFastpath {
    // The same ±1-labelled problem in both storages.
    let sparse_d = s.generate();
    let dense = s.run("dense", &sparse_d.densified());
    let sparse = s.run("sparse", &sparse_d);
    // A free wire for the momentum comparison: the straggler stretches
    // compute, and compute must set the pace for the barrier choice to
    // matter on fast sparse tasks.
    let msgd = |label, barrier| {
        let arm = s.arm(|a| {
            let straggler = DelayModel::ControlledDelay {
                worker: a.cluster.workers - 1,
                intensity: params.intensity,
            };
            a.cluster = modeled_cluster(a.cluster.workers, straggler, 0, 0.0);
            a.solver.barrier = barrier;
        });
        let report = AsyncMsgd::new(arm.objective)
            .with_momentum(params.momentum)
            .run(&mut arm.context(), &sparse_d, &arm.solver);
        LabeledRun { label, report }
    };
    let msgd_asp = msgd("msgd_asp", BarrierFilter::Asp);
    let msgd_ssp = msgd("msgd_ssp", BarrierFilter::Ssp { slack: 2 });

    let (d, sp) = (&dense.report, &sparse.report);
    let entries_ratio = d.grad_entries as f64 / sp.grad_entries.max(1) as f64;
    let result_bytes_ratio = d.result_bytes as f64 / sp.result_bytes.max(1) as f64;
    let wall_clock_speedup =
        d.wall_clock.as_micros() as f64 / sp.wall_clock.as_micros().max(1) as f64;
    let msgd_asp_speedup = msgd_ssp.report.wall_clock.as_micros() as f64
        / msgd_asp.report.wall_clock.as_micros().max(1) as f64;
    SparseFastpath {
        scenario: s,
        params,
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
        let s = &self.scenario;
        let run = |r: &LabeledRun| r.doc("run", &RUN_FIELDS);
        bench_doc! {
            "benchmark": "sparse_fastpath",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": s.cluster.workers,
                "dataset": s.data_label(),
                "updates": s.solver.max_updates,
                "batch_fraction": s.solver.batch_fraction,
                "step": s.solver.step,
                "momentum": self.params.momentum,
                "straggler_intensity": self.params.intensity,
                "per_msg_us": s.cluster.comm.per_msg.as_micros(),
                "seed": s.solver.seed,
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
    use crate::workload::small;

    fn small_run() -> SparseFastpath {
        let mut s = small(scenario(), 200, 1_000, 60);
        s.data.nnz_per_row = Some(12);
        s.cluster = modeled_cluster(4, DelayModel::None, 0, 1.0);
        run_sparse_fastpath(s, PARAMS)
    }

    #[test]
    fn sparse_beats_dense_on_every_fastpath_metric() {
        let b = small_run();
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
        let b = small_run();
        // Both momentum runs converge well below the ln(2) start.
        let ln2 = std::f64::consts::LN_2;
        let (asp, ssp) = (&b.msgd_asp.report, &b.msgd_ssp.report);
        let finals = format!(
            "msgd finals: asp {} ssp {}",
            asp.final_objective, ssp.final_objective
        );
        // ASP trades per-update progress for wall clock: it sees far more
        // staleness, so it lands higher than SSP but still descends.
        assert!(asp.final_objective < 0.85 * ln2, "{finals}");
        assert!(ssp.final_objective < 0.6 * ln2, "{finals}");
        // Under a straggler, ASP reaches the budget first.
        assert!(
            b.msgd_asp_speedup > 1.0,
            "ASP-MSGD speedup {}",
            b.msgd_asp_speedup
        );
    }

    #[test]
    fn fastpath_json_is_deterministic_and_well_formed() {
        let run = || small_run().doc();
        crate::doc::oracle::check(run, "sparse_fastpath", &["dense", "msgd_ssp"]);
    }
}

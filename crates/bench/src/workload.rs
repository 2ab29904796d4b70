//! Workload pieces shared by three or more benches: the modeled cluster,
//! the labeled run, the wall-clock arm, the sim-arm field list, and the
//! one-problem-on-both-engines runner.

use std::time::Instant;

use async_cluster::{ClusterSpec, CommModel, DelayModel, VDur};
use async_core::AsyncContext;
use async_data::Dataset;
use async_optim::{Asgd, AsyncSolver, Objective, RunReport, SolverCfg};

use crate::doc::{BenchDoc, ReportField};

/// A homogeneous cluster with a modeled wire: `per_msg_us` latency per
/// message plus `ns_per_byte` on payloads, and half the message latency as
/// scheduling overhead. Task compute must dominate `per_msg_us` for
/// straggler effects to show (a delay factor stretches compute only).
pub fn modeled_cluster(
    workers: usize,
    delay: DelayModel,
    per_msg_us: u64,
    ns_per_byte: f64,
) -> ClusterSpec {
    ClusterSpec::homogeneous(workers, delay)
        .with_comm(CommModel {
            per_msg: VDur::from_micros(per_msg_us),
            ns_per_byte,
        })
        .with_sched_overhead(VDur::from_micros(per_msg_us / 2))
}

/// What a simulated arm of `hotpath`, `comm_compress`, `server_scaling`
/// and `remote_engine` prints, after its own label.
pub const SIM_ARM_FIELDS: [ReportField; 9] = [
    ReportField::Updates,
    ReportField::TasksCompleted,
    ReportField::MaxStaleness,
    ReportField::BytesShipped,
    ReportField::ResultBytes,
    ReportField::GradEntries,
    ReportField::WallClockMs,
    ReportField::FinalObjective,
    ReportField::TraceMsObjective,
];

/// One simulated (deterministic) run and the name its bench gives it.
#[derive(Debug, Clone)]
pub struct LabeledRun {
    /// The arm, mode or run name the document prints.
    pub label: &'static str,
    /// Full run report.
    pub report: RunReport,
}

impl LabeledRun {
    /// `key: label`, then `fields` of the report.
    pub fn doc(&self, key: &str, fields: &[ReportField]) -> BenchDoc {
        BenchDoc::new()
            .put(key, self.label)
            .report(&self.report, fields)
    }
}

/// One run timed on the host clock (threaded or remote engine): every
/// number in it varies run to run, so it is emitted under `wc_` keys only.
#[derive(Debug, Clone)]
pub struct WallClockArm {
    /// The run's report.
    pub report: RunReport,
    /// Host seconds the run took.
    pub elapsed_secs: f64,
    /// Server updates per second of host time.
    pub steps_per_sec: f64,
}

impl WallClockArm {
    /// Times `run` on the host clock.
    pub fn time(run: impl FnOnce() -> RunReport) -> Self {
        let t0 = Instant::now();
        let report = run();
        let elapsed_secs = t0.elapsed().as_secs_f64();
        Self {
            steps_per_sec: report.updates as f64 / elapsed_secs.max(1e-9),
            elapsed_secs,
            report,
        }
    }

    /// `label`, then the speed pair, then `fields` of the report — all
    /// under `wc_` keys.
    pub fn doc(&self, label: BenchDoc, fields: &[ReportField]) -> BenchDoc {
        label
            .put("wc_steps_per_sec", self.steps_per_sec)
            .put("wc_elapsed_secs", self.elapsed_secs)
            .report_under("wc_", &self.report, fields)
    }
}

/// One ASGD problem run on both engines — the simulator for the gated
/// numbers, the threaded engine for the `wc_` ones — as `hotpath`,
/// `comm_compress` and `server_scaling` do.
pub struct TwoEngineAsgd {
    /// The training set.
    pub data: Dataset,
    /// The cluster both engines model.
    pub cluster: ClusterSpec,
    /// What ASGD minimizes.
    pub objective: Objective,
}

impl TwoEngineAsgd {
    /// One deterministic run on the simulator.
    pub fn sim(&self, cfg: &SolverCfg) -> RunReport {
        let mut ctx = AsyncContext::sim(self.cluster.clone());
        Asgd::new(self.objective).run(&mut ctx, &self.data, cfg)
    }

    /// One timed run on the threaded engine, where `time_scale` turns
    /// modeled transfer time into real sleep. Mid-run objective
    /// evaluations are off: the wall clock should measure the iteration
    /// loop, not the trace.
    pub fn threaded(&self, time_scale: f64, cfg: &SolverCfg) -> WallClockArm {
        let mut ctx = AsyncContext::threaded(self.cluster.clone(), time_scale);
        let cfg = SolverCfg {
            eval_every: 0,
            ..cfg.clone()
        };
        WallClockArm::time(|| Asgd::new(self.objective).run(&mut ctx, &self.data, &cfg))
    }
}

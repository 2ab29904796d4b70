//! What every bench is made of: a [`Scenario`] and its one run path, the
//! modeled cluster, the labeled run and the sim-arm field list.

use async_cluster::{ClusterSpec, CommModel, DelayModel, VDur};
use async_core::AsyncContext;
use async_data::{Dataset, SynthSpec};
use async_linalg::ParallelismCfg;
use async_optim::{Asgd, AsyncSolver, Objective, RunReport, SolverCfg};

use crate::doc::{BenchDoc, ReportField};

/// One bench workload: the data, the loss, the simulated cluster and the
/// solver configuration every arm starts from. A bench's `scenario()`
/// returns its committed one; an arm ([`Scenario::arm`]) overrides only
/// what it varies.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The synthetic dataset; a logistic objective trains on its ±1 labels.
    pub data: SynthSpec,
    /// The loss.
    pub objective: Objective,
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// The solver configuration; [`Scenario::generate`] fills `baseline`.
    pub solver: SolverCfg,
}

impl Scenario {
    /// Generates the data — ±1 labels exactly when the objective is
    /// logistic — and, for a least-squares run that records a trace
    /// (`eval_every > 0`), solves the CGLS optimum into `solver.baseline`,
    /// so the trace reads as the error `objective − optimum`.
    pub fn generate(&mut self) -> Dataset {
        let least_squares = matches!(self.objective, Objective::LeastSquares { .. });
        let (data, _) = if least_squares {
            self.data.generate()
        } else {
            self.data.generate_classification()
        }
        .expect("synthetic generation");
        if least_squares && self.solver.eval_every > 0 {
            self.solver.baseline = self
                .objective
                .optimum(ParallelismCfg::sequential(), &data)
                .expect("least-squares baseline");
        }
        data
    }

    /// A copy with `vary` applied: one arm of the bench.
    pub fn arm(&self, vary: impl FnOnce(&mut Scenario)) -> Scenario {
        let mut arm = self.clone();
        vary(&mut arm);
        arm
    }

    /// A fresh simulated context on the scenario's cluster.
    pub fn context(&self) -> AsyncContext {
        AsyncContext::sim(self.cluster.clone())
    }

    /// ASGD on the scenario's objective and solver configuration in `ctx`:
    /// for an arm that injects faults into its context first, or reads the
    /// driver after.
    pub fn asgd(&self, ctx: &mut AsyncContext, data: &Dataset) -> RunReport {
        Asgd::new(self.objective).run(ctx, data, &self.solver)
    }

    /// ASGD in a fresh context, under the name its bench prints.
    pub fn run(&self, label: &'static str, data: &Dataset) -> LabeledRun {
        let report = self.asgd(&mut self.context(), data);
        LabeledRun { label, report }
    }

    /// The data as the documents name it: shape, sparsity, and the ±1
    /// labels of a logistic objective.
    pub fn data_label(&self) -> String {
        let d = &self.data;
        let mut label = match d.nnz_per_row {
            None => format!("dense synthetic {}x{}", d.rows, d.cols),
            Some(k) => format!("sparse synthetic {}x{} (~{k} nnz/row)", d.rows, d.cols),
        };
        if let Objective::Logistic { .. } = self.objective {
            label.push_str(", logistic +-1 labels");
        }
        label
    }
}

/// A homogeneous cluster with a modeled wire: `per_msg_us` latency per
/// message plus `ns_per_byte` on payloads, and half the message latency as
/// scheduling overhead (`0, 0.0` is a free wire). Task compute must
/// dominate `per_msg_us` for straggler effects to show (a delay factor
/// stretches compute only).
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

/// What a simulated arm of `hotpath`, `comm_compress` and
/// `server_scaling` prints, after the arm's label where it has one.
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

#[cfg(test)]
/// `s` at test scale: four workers, `rows × cols` data and an `updates`
/// budget, the trace cadence scaled with it. The wire, the delay model,
/// the seeds and everything else stay.
pub(crate) fn small(mut s: Scenario, rows: usize, cols: usize, updates: u64) -> Scenario {
    let c = &s.cluster;
    s.cluster = ClusterSpec::homogeneous(4, c.delay.clone())
        .with_comm(c.comm.clone())
        .with_sched_overhead(c.sched_overhead);
    s.data.rows = rows;
    s.data.cols = cols;
    s.solver.eval_every = s.solver.eval_every * updates / s.solver.max_updates;
    s.solver.max_updates = updates;
    s
}

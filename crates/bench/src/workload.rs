//! Workload pieces shared by three or more benches: the modeled cluster,
//! the labeled run and the sim-arm field list.

use async_cluster::{ClusterSpec, CommModel, DelayModel, VDur};
use async_optim::RunReport;

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

/// What a simulated arm of `hotpath`, `comm_compress` and
/// `server_scaling` prints, after its own label.
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

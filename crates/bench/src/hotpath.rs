//! The hot-path benchmark: dense-full vs incremental (version-diffed)
//! broadcast on one high-dimensional sparse ASGD workload.
//!
//! Every number is modeled and deterministic (byte-gated in CI): the two
//! arms on the simulated engine — bytes shipped to workers (the broadcast
//! wire), result bytes, updates, final objective, trace. The incremental
//! arm must cut the broadcast bytes-on-wire by a large factor: it ships
//! sparse version-diff patches (final values on the union of the gap's
//! change supports) instead of the dense model.
//!
//! The workload uses a ridge-free logistic objective: without the λ·w
//! shrink the ASGD update's change support is exactly the sparse
//! gradient's support, which is what makes version diffs exact (the e2e
//! suite proves bit-identity against the dense arm under free comms).

use async_cluster::DelayModel;
use async_data::SynthSpec;
use async_optim::{Objective, SolverCfg};

use crate::doc::{bench_doc, BenchDoc};
use crate::workload::{modeled_cluster, LabeledRun, Scenario, SIM_ARM_FIELDS};

/// The committed workload: ridge-free ASGD on a high-dimensional sparse
/// logistic problem, where the dense model is the expensive wire
/// (1 ns/byte beside a 50 µs message latency).
pub fn scenario() -> Scenario {
    Scenario {
        data: SynthSpec::sparse("hotpath", 2_048, 65_536, 20, 2026),
        objective: Objective::Logistic { lambda: 0.0 },
        cluster: modeled_cluster(4, DelayModel::None, 50, 1.0),
        solver: SolverCfg {
            step: 0.5,
            batch_fraction: 0.1,
            max_updates: 300,
            eval_every: 50,
            seed: 2026,
            ..SolverCfg::default()
        },
    }
}

/// What this bench varies beyond its [`Scenario`].
#[derive(Debug, Clone)]
pub struct Params {
    /// Incremental ring capacity of the diff arm.
    pub ring: usize,
}

/// The committed parameters.
pub const PARAMS: Params = Params { ring: 16 };

/// The benchmark outcome: both arms and the headline ratio.
#[derive(Debug, Clone)]
pub struct Hotpath {
    /// The scenario measured.
    pub scenario: Scenario,
    /// The parameters measured.
    pub params: Params,
    /// Simulated dense-full-broadcast arm, "dense_full" (deterministic).
    pub sim_dense: LabeledRun,
    /// Simulated incremental arm, "incremental" (deterministic).
    pub sim_incremental: LabeledRun,
    /// `sim_dense.bytes_shipped / sim_incremental.bytes_shipped` — the
    /// broadcast bytes-on-wire reduction.
    pub bytes_ratio: f64,
}

/// Runs both arms on the simulator.
pub fn run_hotpath(mut s: Scenario, params: Params) -> Hotpath {
    let data = s.generate();
    let arm = |label, ring| s.arm(|a| a.solver.bcast_ring = ring).run(label, &data);
    let sim_dense = arm("dense_full", 0);
    let sim_incremental = arm("incremental", params.ring);
    let bytes_ratio =
        sim_dense.report.bytes_shipped as f64 / sim_incremental.report.bytes_shipped.max(1) as f64;
    Hotpath {
        scenario: s,
        params,
        sim_dense,
        sim_incremental,
        bytes_ratio,
    }
}

const DESCRIPTION: &str = "dense-full vs incremental (version-diffed) broadcast for ASGD on a high-dim sparse logistic workload; modeled bytes on the simulator";

impl Hotpath {
    /// The `BENCH_hotpath.json` document.
    pub fn doc(&self) -> BenchDoc {
        let s = &self.scenario;
        let sim = |a: &LabeledRun| a.doc("arm", &SIM_ARM_FIELDS);
        let dataset = format!("{}, lambda {}", s.data_label(), s.objective.lambda());
        bench_doc! {
            "benchmark": "hotpath",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": s.cluster.workers,
                "dataset": dataset,
                "updates": s.solver.max_updates,
                "batch_fraction": s.solver.batch_fraction,
                "step": s.solver.step,
                "ring": self.params.ring,
                "per_msg_us": s.cluster.comm.per_msg.as_micros(),
                "ns_per_byte": s.cluster.comm.ns_per_byte,
                "seed": s.solver.seed,
            },
            "sim_dense_full": sim(&self.sim_dense),
            "sim_incremental": sim(&self.sim_incremental),
            "broadcast_bytes_ratio_dense_over_incremental": self.bytes_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::small;

    fn small_run() -> Hotpath {
        run_hotpath(small(scenario(), 256, 4_096, 60), PARAMS)
    }

    #[test]
    fn incremental_slashes_modeled_broadcast_bytes() {
        let h = small_run();
        assert_eq!(h.sim_dense.report.updates, 60);
        assert_eq!(h.sim_incremental.report.updates, 60);
        assert!(
            h.bytes_ratio > 4.0,
            "diff arm must ship far fewer bytes even at test scale: {}",
            h.bytes_ratio
        );
        // Both arms converge below the ln(2) start.
        let ln2 = std::f64::consts::LN_2;
        assert!(h.sim_dense.report.final_objective < ln2);
        assert!(h.sim_incremental.report.final_objective < ln2);
    }

    #[test]
    fn modeled_numbers_are_deterministic() {
        let run = || small_run().doc();
        let probes = ["sim_incremental", "sim_dense_full.bytes_shipped"];
        crate::doc::oracle::check(run, "hotpath", &probes);
    }
}

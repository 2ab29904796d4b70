//! The server-scaling benchmark: server absorption on one server-bound
//! ASGD workload.
//!
//! After the zero-allocation hot path, the coordinator's apply loop — one
//! ridge-shrink pass, one gradient scatter, and one snapshot memcpy over a
//! high-dimensional dense model per collected delta — is the throughput
//! wall. This benchmark runs that workload on the simulated engine
//! (modeled, deterministic, byte-gated in CI), one model update per
//! collected result. The simulator charges nothing for server work, so
//! what the apply loop costs in host time is the `benchmark/` harness's
//! question (`optim.absorb_us_per_step`), not this file's.

use async_cluster::DelayModel;
use async_data::SynthSpec;
use async_optim::{Objective, RunReport, SolverCfg};

use crate::doc::{bench_doc, BenchDoc, Value};
use crate::workload::{modeled_cluster, Scenario, SIM_ARM_FIELDS};

/// The committed workload: a 98 304-wide model (the dense server passes
/// are the wall) trained from cheap low-nnz rows, with a ridge λ > 0 that
/// forces the dense shrink pass on every update.
pub fn scenario() -> Scenario {
    Scenario {
        data: SynthSpec::sparse("server-scaling", 2_048, 98_304, 16, 2027),
        objective: Objective::Logistic { lambda: 1e-3 },
        cluster: modeled_cluster(4, DelayModel::None, 20, 0.05),
        solver: SolverCfg {
            step: 0.5,
            batch_fraction: 0.1,
            max_updates: 240,
            eval_every: 40,
            seed: 2027,
            ..SolverCfg::default()
        },
    }
}

/// The benchmark outcome.
#[derive(Debug, Clone)]
pub struct ServerScaling {
    /// The scenario measured.
    pub scenario: Scenario,
    /// The simulated (deterministic) run's report.
    pub sim: RunReport,
}

/// Runs the workload on the simulator.
pub fn run_server_scaling(mut s: Scenario) -> ServerScaling {
    let data = s.generate();
    let sim = s.asgd(&mut s.context(), &data);
    ServerScaling { scenario: s, sim }
}

const DESCRIPTION: &str = "server absorption for ASGD on a server-bound high-dim sparse logistic workload, on the simulator: one model update, one version and one snapshot push per collected result";

impl ServerScaling {
    /// The `BENCH_server_scaling.json` document.
    pub fn doc(&self) -> BenchDoc {
        let s = &self.scenario;
        let sim = BenchDoc::new().report(&self.sim, &SIM_ARM_FIELDS);
        let dataset = format!("{}, lambda {:.6}", s.data_label(), s.objective.lambda());
        bench_doc! {
            "benchmark": "server_scaling",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": s.cluster.workers,
                "dataset": dataset,
                "updates": s.solver.max_updates,
                "batch_fraction": s.solver.batch_fraction,
                "step": s.solver.step,
                "per_msg_us": s.cluster.comm.per_msg.as_micros(),
                "seed": s.solver.seed,
            },
            "sim_arms": Value::block([sim]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::small;

    fn small_run() -> ServerScaling {
        run_server_scaling(small(scenario(), 256, 8_192, 48))
    }

    #[test]
    fn every_arm_spends_its_budget_and_descends() {
        let s = small_run();
        assert_eq!(s.sim.updates, 48);
        assert_eq!(s.sim.tasks_completed, 48);
        assert!(s.sim.final_objective < std::f64::consts::LN_2);
    }

    #[test]
    fn modeled_numbers_are_deterministic() {
        let run = || small_run().doc();
        let probes = ["sim_arms.0.final_objective"];
        crate::doc::oracle::check(run, "server_scaling", &probes);
    }
}

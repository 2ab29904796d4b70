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
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_optim::{Asgd, AsyncSolver, Objective, RunReport, SolverCfg};

use crate::doc::{bench_doc, BenchDoc, Value};
use crate::workload::{modeled_cluster, SIM_ARM_FIELDS};

/// Configuration of the server-scaling benchmark.
#[derive(Debug, Clone)]
pub struct ServerScalingCfg {
    /// Cluster size (gradient workers).
    pub workers: usize,
    /// Dataset rows.
    pub rows: usize,
    /// Feature dimension (high — the dense server passes are the wall).
    pub cols: usize,
    /// Mean stored nonzeros per row (low — workers stay cheap).
    pub nnz_per_row: usize,
    /// Ridge coefficient (> 0 forces the dense shrink pass per update).
    pub lambda: f64,
    /// Server update budget.
    pub updates: u64,
    /// Mini-batch fraction per task.
    pub batch_fraction: f64,
    /// Step size.
    pub step: f64,
    /// Per-message latency in µs.
    pub per_msg_us: u64,
    /// Sampling/generation seed.
    pub seed: u64,
}

impl Default for ServerScalingCfg {
    fn default() -> Self {
        Self {
            workers: 4,
            rows: 2_048,
            cols: 98_304,
            nnz_per_row: 16,
            lambda: 1e-3,
            updates: 240,
            batch_fraction: 0.1,
            step: 0.5,
            per_msg_us: 20,
            seed: 2027,
        }
    }
}

/// The benchmark outcome.
#[derive(Debug, Clone)]
pub struct ServerScaling {
    /// The configuration measured.
    pub cfg: ServerScalingCfg,
    /// The simulated (deterministic) run's report.
    pub sim: RunReport,
}

fn dataset(cfg: &ServerScalingCfg) -> Dataset {
    SynthSpec::sparse(
        "server-scaling",
        cfg.rows,
        cfg.cols,
        cfg.nnz_per_row,
        cfg.seed,
    )
    .generate_classification()
    .expect("synthetic generation")
    .0
}

fn solver_cfg(cfg: &ServerScalingCfg) -> SolverCfg {
    SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier: BarrierFilter::Asp,
        max_updates: cfg.updates,
        eval_every: (cfg.updates / 6).max(1),
        seed: cfg.seed,
        ..SolverCfg::default()
    }
}

/// Runs the workload on the simulator.
pub fn run_server_scaling(cfg: ServerScalingCfg) -> ServerScaling {
    let data = dataset(&cfg);
    let cluster = modeled_cluster(cfg.workers, DelayModel::None, cfg.per_msg_us, 0.05);
    let mut ctx = AsyncContext::sim(cluster);
    let sim = Asgd::new(Objective::Logistic { lambda: cfg.lambda }).run(
        &mut ctx,
        &data,
        &solver_cfg(&cfg),
    );
    eprintln!("server_scaling: final objective {:.6}", sim.final_objective);
    ServerScaling { cfg, sim }
}

const DESCRIPTION: &str = "server absorption for ASGD on a server-bound high-dim sparse logistic workload, on the simulator: one model update, one version and one snapshot push per collected result";

impl ServerScaling {
    /// The `BENCH_server_scaling.json` document.
    pub fn doc(&self) -> BenchDoc {
        let c = &self.cfg;
        let sim = BenchDoc::new().report(&self.sim, &SIM_ARM_FIELDS);
        let dataset = format!(
            "sparse synthetic {}x{} (~{} nnz/row), logistic +-1 labels, lambda {:.6}",
            c.rows, c.cols, c.nnz_per_row, c.lambda
        );
        bench_doc! {
            "benchmark": "server_scaling",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": c.workers,
                "dataset": dataset,
                "updates": c.updates,
                "batch_fraction": c.batch_fraction,
                "step": c.step,
                "per_msg_us": c.per_msg_us,
                "seed": c.seed,
            },
            "sim_arms": Value::block([sim]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServerScalingCfg {
        ServerScalingCfg {
            rows: 256,
            cols: 8_192,
            updates: 48,
            ..ServerScalingCfg::default()
        }
    }

    #[test]
    fn every_arm_spends_its_budget_and_descends() {
        let s = run_server_scaling(small_cfg());
        assert_eq!(s.sim.updates, 48);
        assert_eq!(s.sim.tasks_completed, 48);
        assert!(s.sim.final_objective < std::f64::consts::LN_2);
    }

    #[test]
    fn modeled_numbers_are_deterministic() {
        let run = || run_server_scaling(small_cfg()).doc();
        let probes = ["sim_arms.0.final_objective"];
        crate::doc::oracle::check(run, "server_scaling", &probes);
    }
}

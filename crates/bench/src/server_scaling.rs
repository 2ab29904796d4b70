//! The server-scaling benchmark: server absorption vs `absorb_batch` on
//! one server-bound ASGD workload.
//!
//! After the zero-allocation hot path, the coordinator's apply loop — one
//! ridge-shrink pass, one gradient scatter, and one snapshot memcpy over a
//! high-dimensional dense model per collected delta — is the throughput
//! wall. Batching folds a wave of ready deltas into one fused pass and one
//! snapshot push; this benchmark sweeps `absorb_batch` on the simulated
//! engine (modeled, deterministic, byte-gated in CI). The batched arms are
//! deterministic but value-level different from the per-delta arm (their
//! fold-then-apply pass reorders f64 arithmetic and advances one model
//! version per wave). What batching buys in host time is the `benchmark/`
//! harness's question (`optim.absorb_us_per_step`), not this file's.

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
    /// Server update budget per arm.
    pub updates: u64,
    /// Mini-batch fraction per task.
    pub batch_fraction: f64,
    /// Step size.
    pub step: f64,
    /// Per-message latency in µs.
    pub per_msg_us: u64,
    /// `absorb_batch` arms swept.
    pub arms: Vec<usize>,
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
            arms: vec![1, 4],
            seed: 2027,
        }
    }
}

/// One simulated (deterministic) arm's measurements.
#[derive(Debug, Clone)]
pub struct SimArm {
    /// Wave size cap of this arm.
    pub absorb_batch: usize,
    /// Full run report.
    pub report: RunReport,
}

/// The benchmark outcome: every arm.
#[derive(Debug, Clone)]
pub struct ServerScaling {
    /// The configuration measured.
    pub cfg: ServerScalingCfg,
    /// Simulated arms, in `cfg.arms` order.
    pub sim: Vec<SimArm>,
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

fn solver_cfg(cfg: &ServerScalingCfg, absorb_batch: usize) -> SolverCfg {
    SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier: BarrierFilter::Asp,
        max_updates: cfg.updates,
        eval_every: (cfg.updates / 6).max(1),
        seed: cfg.seed,
        absorb_batch,
        ..SolverCfg::default()
    }
}

/// Runs every arm on the simulator.
pub fn run_server_scaling(cfg: ServerScalingCfg) -> ServerScaling {
    let data = dataset(&cfg);
    let cluster = modeled_cluster(cfg.workers, DelayModel::None, cfg.per_msg_us, 0.05);
    let run_sim = |&absorb_batch: &usize| {
        let mut ctx = AsyncContext::sim(cluster.clone());
        let report = Asgd::new(Objective::Logistic { lambda: cfg.lambda }).run(
            &mut ctx,
            &data,
            &solver_cfg(&cfg, absorb_batch),
        );
        SimArm {
            absorb_batch,
            report,
        }
    };
    let sim: Vec<SimArm> = cfg.arms.iter().map(run_sim).collect();
    for a in &sim {
        eprintln!(
            "server_scaling: absorb_batch {}: final objective {:.6}",
            a.absorb_batch, a.report.final_objective
        );
    }
    ServerScaling { cfg, sim }
}

const DESCRIPTION: &str = "server absorption across absorb_batch for ASGD on a server-bound high-dim sparse logistic workload, on the simulator: the batched arms are deterministic but value-level different from absorb_batch 1";

impl ServerScaling {
    /// The `BENCH_server_scaling.json` document.
    pub fn doc(&self) -> BenchDoc {
        let c = &self.cfg;
        let sim = |a: &SimArm| {
            bench_doc! { "absorb_batch": a.absorb_batch }.report(&a.report, &SIM_ARM_FIELDS)
        };
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
            "sim_arms": Value::block(self.sim.iter().map(sim)),
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
        assert_eq!(s.sim.len(), 2);
        for a in &s.sim {
            assert_eq!(a.report.updates, 48, "absorb_batch {}", a.absorb_batch);
            assert!(a.report.final_objective < std::f64::consts::LN_2);
        }
    }

    #[test]
    fn modeled_numbers_are_deterministic() {
        let run = || run_server_scaling(small_cfg()).doc();
        let probes = ["sim_arms.1.absorb_batch"];
        crate::doc::oracle::check(run, "server_scaling", &probes);
    }
}

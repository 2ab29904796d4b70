//! The server-scaling benchmark: absorption throughput vs
//! `server_threads × absorb_batch` on one server-bound ASGD workload.
//!
//! After the zero-allocation hot path, the coordinator's apply loop — one
//! ridge-shrink pass, one gradient scatter, and one snapshot memcpy over a
//! high-dimensional dense model per collected delta — is the throughput
//! wall. The sharded server attacks it on two axes, and this benchmark
//! sweeps both on the simulated engine, across `(server_threads,
//! absorb_batch)` arms (modeled, deterministic, byte-gated in CI). The
//! headline is the **bit-identity contract**: the `(4, 1)` arm must
//! reproduce the `(1, 1)` arm *bit-exactly* (the JSON carries the
//! verdict), while the batched arms are deterministic but value-level
//! different (their fold-then-apply pass reorders f64 arithmetic and
//! advances one model version per wave). What the two axes buy in host
//! time is the `benchmark/` harness's question
//! (`linalg.shard_pool_wave_us`, `optim.absorb_us_per_step`), not this
//! file's.

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
    /// `(server_threads, absorb_batch)` arms swept.
    pub arms: Vec<(usize, usize)>,
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
            arms: vec![(1, 1), (4, 1), (1, 4), (4, 4)],
            seed: 2027,
        }
    }
}

/// One simulated (deterministic) arm's measurements.
#[derive(Debug, Clone)]
pub struct SimArm {
    /// Absorption threads of this arm.
    pub server_threads: usize,
    /// Wave size cap of this arm.
    pub absorb_batch: usize,
    /// Full run report.
    pub report: RunReport,
}

/// The benchmark outcome: every arm and the headline verdict.
#[derive(Debug, Clone)]
pub struct ServerScaling {
    /// The configuration measured.
    pub cfg: ServerScalingCfg,
    /// Simulated arms, in `cfg.arms` order.
    pub sim: Vec<SimArm>,
    /// Bit-identity verdict: every simulated `absorb_batch = 1` arm
    /// reproduced the `(1, 1)` arm's final model bit-exactly.
    pub sharding_bit_identical: bool,
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

fn solver_cfg(cfg: &ServerScalingCfg, arm: (usize, usize)) -> SolverCfg {
    SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier: BarrierFilter::Asp,
        max_updates: cfg.updates,
        eval_every: (cfg.updates / 6).max(1),
        seed: cfg.seed,
        server_threads: arm.0,
        absorb_batch: arm.1,
        ..SolverCfg::default()
    }
}

/// Runs every arm on the simulator and checks the bit-identity contract.
pub fn run_server_scaling(cfg: ServerScalingCfg) -> ServerScaling {
    let data = dataset(&cfg);
    let cluster = modeled_cluster(cfg.workers, DelayModel::None, cfg.per_msg_us, 0.05);
    let run_sim = |&arm: &(usize, usize)| {
        let mut ctx = AsyncContext::sim(cluster.clone());
        let report = Asgd::new(Objective::Logistic { lambda: cfg.lambda }).run(
            &mut ctx,
            &data,
            &solver_cfg(&cfg, arm),
        );
        SimArm {
            server_threads: arm.0,
            absorb_batch: arm.1,
            report,
        }
    };
    let sim: Vec<SimArm> = cfg.arms.iter().map(run_sim).collect();
    // Every absorb_batch = 1 arm must reproduce the serial server
    // bit-exactly, whatever its thread count.
    let serial = sim
        .iter()
        .find(|a| a.server_threads == 1 && a.absorb_batch == 1)
        .expect("cfg.arms must include the (1, 1) baseline");
    let sharding_bit_identical = sim.iter().filter(|a| a.absorb_batch == 1).all(|a| {
        a.report
            .final_w
            .iter()
            .zip(&serial.report.final_w)
            .all(|(x, y)| x.to_bits() == y.to_bits())
            && a.report.bytes_shipped == serial.report.bytes_shipped
            && a.report.updates == serial.report.updates
    });
    eprintln!("server_scaling: sharding bit-identical: {sharding_bit_identical}");
    ServerScaling {
        cfg,
        sim,
        sharding_bit_identical,
    }
}

/// `"4x1"`: an arm as `server_threads x absorb_batch`.
fn arm_label(arm: &(usize, usize)) -> String {
    format!("{}x{}", arm.0, arm.1)
}

const DESCRIPTION: &str = "sharded-server absorption across server_threads x absorb_batch for ASGD on a server-bound high-dim sparse logistic workload, on the simulator: the 4x1 arm must equal 1x1 bit-exactly, the batched arms are deterministic but value-level different";

impl ServerScaling {
    /// The `BENCH_server_scaling.json` document.
    pub fn doc(&self) -> BenchDoc {
        let c = &self.cfg;
        let sim = |a: &SimArm| {
            bench_doc! { "server_threads": a.server_threads, "absorb_batch": a.absorb_batch }
                .report(&a.report, &SIM_ARM_FIELDS)
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
                "arms": Value::inline(c.arms.iter().map(arm_label)),
                "seed": c.seed,
            },
            "sim_arms": Value::block(self.sim.iter().map(sim)),
            "sharding_bit_identical_to_serial": self.sharding_bit_identical,
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
    fn sharded_arms_reproduce_serial_bit_exactly() {
        let s = run_server_scaling(small_cfg());
        assert!(s.sharding_bit_identical);
        for a in &s.sim {
            assert_eq!(
                a.report.updates, 48,
                "{}x{}",
                a.server_threads, a.absorb_batch
            );
            assert!(a.report.final_objective < std::f64::consts::LN_2);
        }
    }

    #[test]
    fn modeled_numbers_are_deterministic() {
        let run = || run_server_scaling(small_cfg()).doc();
        let probes = [
            "sim_arms.3.absorb_batch",
            "sharding_bit_identical_to_serial",
        ];
        crate::doc::oracle::check(run, "server_scaling", &probes);
    }
}

//! The server-scaling benchmark: absorption throughput vs
//! `server_threads × absorb_batch` on one server-bound ASGD workload.
//!
//! After the zero-allocation hot path, the coordinator's apply loop — one
//! ridge-shrink pass, one gradient scatter, and one snapshot memcpy over a
//! high-dimensional dense model per collected delta — is the throughput
//! wall. The sharded server attacks it on two axes, and this benchmark
//! sweeps both:
//!
//! 1. **Modeled, deterministic** (byte-gated in CI): the simulated engine
//!    across `(server_threads, absorb_batch)` arms. The headline here is
//!    the **bit-identity contract**: the `(4, 1)` arm must reproduce the
//!    `(1, 1)` arm *bit-exactly* (the JSON carries the verdict), while the
//!    batched arms are deterministic but value-level different (their
//!    fold-then-apply pass reorders f64 arithmetic and advances one model
//!    version per wave).
//! 2. **Wall-clock, host-dependent** (reported, *not* gated; every key
//!    carries a `wc_` prefix): the same arms on the threaded engine with
//!    real compute, measuring genuine absorbed deltas per second. The
//!    thread axis needs physical cores to pay off — on a single-core
//!    builder the shard dispatch is pure overhead and the *batching* axis
//!    (one fused pass and one snapshot push per wave instead of per
//!    delta) carries the speedup; on multi-core hosts the two compound.

use async_cluster::DelayModel;
use async_core::BarrierFilter;
use async_data::SynthSpec;
use async_optim::{Objective, RunReport, SolverCfg};

use crate::doc::{bench_doc, BenchDoc, ReportField, Value};
use crate::workload::{modeled_cluster, TwoEngineAsgd, WallClockArm, SIM_ARM_FIELDS};

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
    /// Server update budget for the simulated (gated) runs.
    pub updates: u64,
    /// Server update budget for the threaded (wall-clock) runs.
    pub wc_updates: u64,
    /// Mini-batch fraction per task.
    pub batch_fraction: f64,
    /// Step size.
    pub step: f64,
    /// Per-message latency in µs (modeled arms).
    pub per_msg_us: u64,
    /// `(server_threads, absorb_batch)` arms swept on both engines.
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
            wc_updates: 600,
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

/// The benchmark outcome: both engines, every arm, headline verdicts.
#[derive(Debug, Clone)]
pub struct ServerScaling {
    /// The configuration measured.
    pub cfg: ServerScalingCfg,
    /// Simulated arms, in `cfg.arms` order (deterministic, gated).
    pub sim: Vec<SimArm>,
    /// Bit-identity verdict: every simulated `absorb_batch = 1` arm
    /// reproduced the `(1, 1)` arm's final model bit-exactly.
    pub sharding_bit_identical: bool,
    /// Threaded arms, in `cfg.arms` order (wall clock, not gated).
    pub wc: Vec<WallClockArm>,
    /// `steps/s` of the last wall-clock arm over the first — the headline
    /// `server_threads × absorb_batch` scaling number.
    pub wc_speedup_max_over_serial: f64,
}

fn workload(cfg: &ServerScalingCfg) -> TwoEngineAsgd {
    let data = SynthSpec::sparse(
        "server-scaling",
        cfg.rows,
        cfg.cols,
        cfg.nnz_per_row,
        cfg.seed,
    )
    .generate_classification()
    .expect("synthetic generation")
    .0;
    TwoEngineAsgd {
        data,
        cluster: modeled_cluster(cfg.workers, DelayModel::None, cfg.per_msg_us, 0.05),
        objective: Objective::Logistic { lambda: cfg.lambda },
    }
}

fn solver_cfg(cfg: &ServerScalingCfg, updates: u64, arm: (usize, usize)) -> SolverCfg {
    SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier: BarrierFilter::Asp,
        max_updates: updates,
        eval_every: (updates / 6).max(1),
        seed: cfg.seed,
        server_threads: arm.0,
        absorb_batch: arm.1,
        ..SolverCfg::default()
    }
}

/// Runs every arm on both engines and checks the bit-identity contract.
pub fn run_server_scaling(cfg: ServerScalingCfg) -> ServerScaling {
    let w = workload(&cfg);
    let run_sim = |&arm: &(usize, usize)| SimArm {
        server_threads: arm.0,
        absorb_batch: arm.1,
        report: w.sim(&solver_cfg(&cfg, cfg.updates, arm)),
    };
    // time_scale 0: no modeled-time sleeps — the threaded run measures the
    // real compute pipeline, which this workload makes server-bound.
    let run_threaded =
        |&arm: &(usize, usize)| w.threaded(0.0, &solver_cfg(&cfg, cfg.wc_updates, arm));
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
    let wc: Vec<WallClockArm> = cfg.arms.iter().map(run_threaded).collect();
    let wc_speedup_max_over_serial = wc.last().map_or(1.0, |last| {
        last.steps_per_sec / wc[0].steps_per_sec.max(1e-9)
    });
    eprintln!(
        "server_scaling: sharding bit-identical: {}; wall-clock {:.0} steps/s at {} vs {:.0} serial ({:.2}x)",
        sharding_bit_identical,
        wc.last().map_or(0.0, |a| a.steps_per_sec),
        cfg.arms.last().map_or_else(String::new, arm_label),
        wc[0].steps_per_sec,
        wc_speedup_max_over_serial,
    );
    ServerScaling {
        cfg,
        sim,
        sharding_bit_identical,
        wc,
        wc_speedup_max_over_serial,
    }
}

/// `"4x1"`: an arm as `server_threads x absorb_batch`.
fn arm_label(arm: &(usize, usize)) -> String {
    format!("{}x{}", arm.0, arm.1)
}

const DESCRIPTION: &str = "sharded-server absorption throughput vs server_threads x absorb_batch for ASGD on a server-bound high-dim sparse logistic workload; simulated arms are deterministic and byte-gated (the 4x1 arm must equal 1x1 bit-exactly), wc_ arms are real threaded-engine steps/sec (host-dependent, ungated; the thread axis needs physical cores — single-core builders see the batching axis carry the speedup)";

const WC_FIELDS: [ReportField; 2] = [ReportField::Updates, ReportField::FinalObjective];

impl ServerScaling {
    /// The `BENCH_server_scaling.json` document; lines under `wc_` keys
    /// are host observations outside the byte gate (the contract:
    /// [`crate::doc`]).
    pub fn doc(&self) -> BenchDoc {
        let c = &self.cfg;
        let sim = |a: &SimArm| {
            bench_doc! { "server_threads": a.server_threads, "absorb_batch": a.absorb_batch }
                .report(&a.report, &SIM_ARM_FIELDS)
        };
        let wc = |(arm, t): (&(usize, usize), &WallClockArm)| {
            t.doc(bench_doc! { "arm": arm_label(arm) }, &WC_FIELDS)
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
                "wc_updates": c.wc_updates,
                "batch_fraction": c.batch_fraction,
                "step": c.step,
                "per_msg_us": c.per_msg_us,
                "arms": Value::inline(c.arms.iter().map(arm_label)),
                "seed": c.seed,
            },
            "sim_arms": Value::block(self.sim.iter().map(sim)),
            "sharding_bit_identical_to_serial": self.sharding_bit_identical,
            "wc_threaded_arms": Value::block(c.arms.iter().zip(&self.wc).map(wc)),
            "wc_steps_per_sec_speedup_max_arm_over_serial": self.wc_speedup_max_over_serial,
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
            wc_updates: 48,
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
        let probes = ["sim_arms.3.absorb_batch", "wc_threaded_arms.3.wc_updates"];
        crate::doc::oracle::check(run, "server_scaling", &probes);
    }

    #[test]
    fn threaded_arms_complete_their_budget() {
        let s = run_server_scaling(small_cfg());
        for (arm, a) in s.cfg.arms.iter().zip(&s.wc) {
            assert_eq!(a.report.updates, 48, "{}", arm_label(arm));
            assert!(a.steps_per_sec > 0.0);
        }
    }
}

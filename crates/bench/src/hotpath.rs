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

use async_cluster::{ClusterSpec, DelayModel};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_optim::{Asgd, AsyncSolver, Objective, SolverCfg};

use crate::doc::{bench_doc, BenchDoc};
use crate::workload::{modeled_cluster, LabeledRun, SIM_ARM_FIELDS};

/// Configuration of the hot-path benchmark.
#[derive(Debug, Clone)]
pub struct HotpathCfg {
    /// Cluster size.
    pub workers: usize,
    /// Dataset rows.
    pub rows: usize,
    /// Feature dimension (high — the dense model is the expensive wire).
    pub cols: usize,
    /// Mean stored nonzeros per row (low).
    pub nnz_per_row: usize,
    /// Server update budget per run.
    pub updates: u64,
    /// Mini-batch fraction per task.
    pub batch_fraction: f64,
    /// Step size (ridge-free logistic).
    pub step: f64,
    /// Incremental ring capacity for the diff arm.
    pub ring: usize,
    /// Per-message latency in µs.
    pub per_msg_us: u64,
    /// Modeled wire cost in ns/byte (this is what the diff arm saves).
    pub ns_per_byte: f64,
    /// Sampling/generation seed.
    pub seed: u64,
}

impl Default for HotpathCfg {
    fn default() -> Self {
        Self {
            workers: 4,
            rows: 2_048,
            cols: 65_536,
            nnz_per_row: 20,
            updates: 300,
            batch_fraction: 0.1,
            step: 0.5,
            ring: 16,
            per_msg_us: 50,
            ns_per_byte: 1.0,
            seed: 2026,
        }
    }
}

/// The benchmark outcome: both arms and the headline ratio.
#[derive(Debug, Clone)]
pub struct Hotpath {
    /// The configuration measured.
    pub cfg: HotpathCfg,
    /// Simulated dense-full-broadcast arm, "dense_full" (deterministic).
    pub sim_dense: LabeledRun,
    /// Simulated incremental arm, "incremental" (deterministic).
    pub sim_incremental: LabeledRun,
    /// `sim_dense.bytes_shipped / sim_incremental.bytes_shipped` — the
    /// broadcast bytes-on-wire reduction.
    pub bytes_ratio: f64,
}

/// The ridge-free sparse logistic problem: λ = 0 keeps the ASGD change
/// support sparse, which is the workload the incremental broadcast targets.
fn workload(cfg: &HotpathCfg) -> (Dataset, ClusterSpec) {
    let data = SynthSpec::sparse("hotpath", cfg.rows, cfg.cols, cfg.nnz_per_row, cfg.seed)
        .generate_classification()
        .expect("synthetic generation")
        .0;
    let cluster = modeled_cluster(
        cfg.workers,
        DelayModel::None,
        cfg.per_msg_us,
        cfg.ns_per_byte,
    );
    (data, cluster)
}

fn solver_cfg(cfg: &HotpathCfg, ring: usize) -> SolverCfg {
    SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier: BarrierFilter::Asp,
        max_updates: cfg.updates,
        eval_every: (cfg.updates / 6).max(1),
        seed: cfg.seed,
        bcast_ring: ring,
        ..SolverCfg::default()
    }
}

/// Runs both arms on the simulator.
pub fn run_hotpath(cfg: HotpathCfg) -> Hotpath {
    let (data, cluster) = workload(&cfg);
    let run_sim = |label, ring| {
        let mut ctx = AsyncContext::sim(cluster.clone());
        let report = Asgd::new(Objective::Logistic { lambda: 0.0 }).run(
            &mut ctx,
            &data,
            &solver_cfg(&cfg, ring),
        );
        LabeledRun { label, report }
    };
    let sim_dense = run_sim("dense_full", 0);
    let sim_incremental = run_sim("incremental", cfg.ring);
    let bytes_ratio =
        sim_dense.report.bytes_shipped as f64 / sim_incremental.report.bytes_shipped.max(1) as f64;
    eprintln!("hotpath: modeled broadcast bytes {bytes_ratio:.1}x smaller");
    Hotpath {
        cfg,
        sim_dense,
        sim_incremental,
        bytes_ratio,
    }
}

const DESCRIPTION: &str = "dense-full vs incremental (version-diffed) broadcast for ASGD on a high-dim sparse logistic workload; modeled bytes on the simulator";

impl Hotpath {
    /// The `BENCH_hotpath.json` document.
    pub fn doc(&self) -> BenchDoc {
        let c = &self.cfg;
        let sim = |a: &LabeledRun| a.doc("arm", &SIM_ARM_FIELDS);
        let dataset = format!(
            "sparse synthetic {}x{} (~{} nnz/row), logistic +-1 labels, lambda 0",
            c.rows, c.cols, c.nnz_per_row
        );
        bench_doc! {
            "benchmark": "hotpath",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": c.workers,
                "dataset": dataset,
                "updates": c.updates,
                "batch_fraction": c.batch_fraction,
                "step": c.step,
                "ring": c.ring,
                "per_msg_us": c.per_msg_us,
                "ns_per_byte": c.ns_per_byte,
                "seed": c.seed,
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

    fn small_cfg() -> HotpathCfg {
        HotpathCfg {
            rows: 256,
            cols: 4_096,
            updates: 60,
            ..HotpathCfg::default()
        }
    }

    #[test]
    fn incremental_slashes_modeled_broadcast_bytes() {
        let h = run_hotpath(small_cfg());
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
        let run = || run_hotpath(small_cfg()).doc();
        let probes = ["sim_incremental", "sim_dense_full.bytes_shipped"];
        crate::doc::oracle::check(run, "hotpath", &probes);
    }
}

//! The compressed-communication benchmark: uncompressed vs top-k vs
//! top-k + int8 gradient shipping on one high-dimensional sparse ASGD
//! workload, with quantized version-diff patches riding the incremental
//! broadcast in the quantized arm.
//!
//! Every number is modeled and deterministic (byte-gated in CI): three
//! arms on the simulated engine — worker → server result bytes (what
//! compression shrinks), driver → worker broadcast bytes, updates, final
//! objective, trace — plus the headline ratios and a
//! `within_loss_tolerance` verdict per compressed arm: the byte reduction
//! only counts if the arm lands within 10% of the uncompressed arm's
//! closed optimality gap.
//!
//! The workload is the ridge-free sparse logistic of the hot-path bench:
//! λ = 0 keeps gradients (and therefore top-k selections and broadcast
//! diffs) sparse, which is exactly the configuration `SolverCfg::lint`
//! steers compression users to.

use async_cluster::{ClusterSpec, DelayModel};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_linalg::Quant;
use async_optim::{Asgd, AsyncSolver, CompressCfg, Objective, SolverCfg};

use crate::doc::{bench_doc, BenchDoc};
use crate::workload::{modeled_cluster, LabeledRun, SIM_ARM_FIELDS};

/// Configuration of the compressed-communication benchmark.
#[derive(Debug, Clone)]
pub struct CommCompressCfg {
    /// Cluster size.
    pub workers: usize,
    /// Dataset rows.
    pub rows: usize,
    /// Feature dimension.
    pub cols: usize,
    /// Mean stored nonzeros per row.
    pub nnz_per_row: usize,
    /// Coordinates shipped per compressed delta.
    pub k: usize,
    /// Server update budget per run.
    pub updates: u64,
    /// Mini-batch fraction per task.
    pub batch_fraction: f64,
    /// Step size (ridge-free logistic).
    pub step: f64,
    /// Incremental ring capacity (all arms; the quantized arm also
    /// quantizes its patches).
    pub ring: usize,
    /// Per-message latency in µs.
    pub per_msg_us: u64,
    /// Modeled wire cost in ns/byte (what compression saves).
    pub ns_per_byte: f64,
    /// Sampling/generation seed.
    pub seed: u64,
}

impl Default for CommCompressCfg {
    fn default() -> Self {
        Self {
            workers: 4,
            rows: 2_048,
            cols: 65_536,
            nnz_per_row: 20,
            k: 256,
            updates: 300,
            batch_fraction: 0.1,
            step: 0.5,
            ring: 16,
            per_msg_us: 50,
            ns_per_byte: 50.0,
            seed: 2026,
        }
    }
}

/// The benchmark outcome: three simulated arms, ratios and verdicts.
#[derive(Debug, Clone)]
pub struct CommCompress {
    /// The configuration measured.
    pub cfg: CommCompressCfg,
    /// Simulated uncompressed arm, "off" (deterministic, the reference).
    pub sim_off: LabeledRun,
    /// Simulated top-k (exact values) arm, "topk".
    pub sim_topk: LabeledRun,
    /// Simulated top-k + int8 arm, "topk_i8".
    pub sim_topk_i8: LabeledRun,
    /// `sim_off.result_bytes / sim_topk.result_bytes`.
    pub result_bytes_ratio_topk: f64,
    /// `sim_off.result_bytes / sim_topk_i8.result_bytes` — the headline.
    pub result_bytes_ratio_topk_i8: f64,
    /// `sim_off.bytes_shipped / sim_topk_i8.bytes_shipped` (the quantized
    /// arm also shrinks the driver → worker patches).
    pub bcast_bytes_ratio_topk_i8: f64,
    /// True when the top-k arm's final gap is within 10% of uncompressed.
    pub topk_within_loss_tolerance: bool,
    /// True when the int8 arm's final gap is within 10% of uncompressed.
    pub topk_i8_within_loss_tolerance: bool,
}

/// The ridge-free sparse logistic problem: λ = 0 keeps the gradient
/// support — and so the top-k candidate set and the broadcast diffs —
/// sparse.
fn workload(cfg: &CommCompressCfg) -> (Dataset, ClusterSpec) {
    let data = SynthSpec::sparse(
        "comm-compress",
        cfg.rows,
        cfg.cols,
        cfg.nnz_per_row,
        cfg.seed,
    )
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

fn solver_cfg(cfg: &CommCompressCfg, compress: CompressCfg) -> SolverCfg {
    SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier: BarrierFilter::Asp,
        max_updates: cfg.updates,
        eval_every: (cfg.updates / 6).max(1),
        seed: cfg.seed,
        bcast_ring: cfg.ring,
        compress,
        ..SolverCfg::default()
    }
}

fn arms(cfg: &CommCompressCfg) -> [(&'static str, CompressCfg); 3] {
    [
        ("off", CompressCfg::Off),
        (
            "topk",
            CompressCfg::TopK {
                k: cfg.k,
                quant: Quant::Exact,
            },
        ),
        (
            "topk_i8",
            CompressCfg::TopK {
                k: cfg.k,
                quant: Quant::I8,
            },
        ),
    ]
}

/// A compressed arm is "within tolerance" when it closes at least 90% of
/// the optimality gap the uncompressed arm closes (both start from ln 2 on
/// ±1 logistic labels at w = 0).
fn within_tolerance(off_final: f64, comp_final: f64) -> bool {
    let f0 = std::f64::consts::LN_2;
    comp_final - off_final <= 0.10 * (f0 - off_final)
}

/// Runs the three arms on the simulator.
pub fn run_comm_compress(cfg: CommCompressCfg) -> CommCompress {
    let (data, cluster) = workload(&cfg);
    let run_sim = |(label, compress)| {
        let mut ctx = AsyncContext::sim(cluster.clone());
        let report = Asgd::new(Objective::Logistic { lambda: 0.0 }).run(
            &mut ctx,
            &data,
            &solver_cfg(&cfg, compress),
        );
        LabeledRun { label, report }
    };
    let [off, topk, topk_i8] = arms(&cfg);
    let sim_off = run_sim(off);
    let sim_topk = run_sim(topk);
    let sim_topk_i8 = run_sim(topk_i8);
    let off_bytes = sim_off.report.result_bytes as f64;
    let result_bytes_ratio_topk = off_bytes / sim_topk.report.result_bytes.max(1) as f64;
    let result_bytes_ratio_topk_i8 = off_bytes / sim_topk_i8.report.result_bytes.max(1) as f64;
    let bcast_bytes_ratio_topk_i8 =
        sim_off.report.bytes_shipped as f64 / sim_topk_i8.report.bytes_shipped.max(1) as f64;
    let topk_within_loss_tolerance = within_tolerance(
        sim_off.report.final_objective,
        sim_topk.report.final_objective,
    );
    let topk_i8_within_loss_tolerance = within_tolerance(
        sim_off.report.final_objective,
        sim_topk_i8.report.final_objective,
    );
    eprintln!(
        "comm_compress: modeled result bytes {result_bytes_ratio_topk:.1}x (topk) / {result_bytes_ratio_topk_i8:.1}x (topk+i8) smaller",
    );
    CommCompress {
        cfg,
        sim_off,
        sim_topk,
        sim_topk_i8,
        result_bytes_ratio_topk,
        result_bytes_ratio_topk_i8,
        bcast_bytes_ratio_topk_i8,
        topk_within_loss_tolerance,
        topk_i8_within_loss_tolerance,
    }
}

const DESCRIPTION: &str = "uncompressed vs top-k vs top-k+int8 gradient shipping (error feedback; quantized incremental-broadcast patches in the int8 arm) for ASGD on a high-dim sparse logistic workload; modeled bytes and loss verdicts on the simulator";

impl CommCompress {
    /// The `BENCH_comm_compress.json` document.
    pub fn doc(&self) -> BenchDoc {
        let c = &self.cfg;
        let sim = |a: &LabeledRun| a.doc("arm", &SIM_ARM_FIELDS);
        let dataset = format!(
            "sparse synthetic {}x{} (~{} nnz/row), logistic +-1 labels, lambda 0",
            c.rows, c.cols, c.nnz_per_row
        );
        bench_doc! {
            "benchmark": "comm_compress",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": c.workers,
                "dataset": dataset,
                "k": c.k,
                "updates": c.updates,
                "batch_fraction": c.batch_fraction,
                "step": c.step,
                "ring": c.ring,
                "per_msg_us": c.per_msg_us,
                "ns_per_byte": c.ns_per_byte,
                "seed": c.seed,
            },
            "sim_off": sim(&self.sim_off),
            "sim_topk": sim(&self.sim_topk),
            "sim_topk_i8": sim(&self.sim_topk_i8),
            "result_bytes_ratio_off_over_topk": self.result_bytes_ratio_topk,
            "result_bytes_ratio_off_over_topk_i8": self.result_bytes_ratio_topk_i8,
            "bcast_bytes_ratio_off_over_topk_i8": self.bcast_bytes_ratio_topk_i8,
            "topk_within_loss_tolerance": self.topk_within_loss_tolerance,
            "topk_i8_within_loss_tolerance": self.topk_i8_within_loss_tolerance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CommCompressCfg {
        CommCompressCfg {
            rows: 256,
            cols: 4_096,
            k: 32,
            updates: 200,
            ..CommCompressCfg::default()
        }
    }

    #[test]
    fn compression_slashes_result_bytes_within_loss_tolerance() {
        let b = run_comm_compress(small_cfg());
        assert_eq!(b.sim_off.report.updates, 200);
        assert_eq!(b.sim_topk.report.updates, 200);
        assert_eq!(b.sim_topk_i8.report.updates, 200);
        assert!(
            b.result_bytes_ratio_topk_i8 >= 5.0,
            "int8 top-k must cut result bytes >=5x even at test scale: {}",
            b.result_bytes_ratio_topk_i8
        );
        // An exact entry costs its index varint plus 8 value bytes, an int8
        // entry the same varint plus 1: at most 4.5x apart, so most of the
        // int8 arm's ratio is already there without quantization.
        assert!(
            b.result_bytes_ratio_topk > b.result_bytes_ratio_topk_i8 / 4.5,
            "exact top-k already sparsifies: {} vs {}",
            b.result_bytes_ratio_topk,
            b.result_bytes_ratio_topk_i8
        );
        assert!(
            b.topk_within_loss_tolerance,
            "top-k arm out of tolerance: off {} topk {} i8 {}",
            b.sim_off.report.final_objective,
            b.sim_topk.report.final_objective,
            b.sim_topk_i8.report.final_objective
        );
        assert!(
            b.topk_i8_within_loss_tolerance,
            "top-k+i8 arm out of tolerance"
        );
        // Both compressed arms still land below the ln(2) start.
        let ln2 = std::f64::consts::LN_2;
        assert!(b.sim_topk.report.final_objective < ln2);
        assert!(b.sim_topk_i8.report.final_objective < ln2);
    }

    #[test]
    fn json_is_stable_and_filters_wall_clock_keys() {
        let run = || run_comm_compress(small_cfg()).doc();
        let probes = [
            "result_bytes_ratio_off_over_topk_i8",
            "topk_i8_within_loss_tolerance",
            "sim_off.result_bytes",
        ];
        crate::doc::oracle::check(run, "comm_compress", &probes);
    }
}

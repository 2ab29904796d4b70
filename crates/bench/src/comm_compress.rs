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

use async_cluster::DelayModel;
use async_data::SynthSpec;
use async_linalg::Quant;
use async_optim::{CompressCfg, Objective, SolverCfg};

use crate::doc::{bench_doc, BenchDoc};
use crate::workload::{modeled_cluster, LabeledRun, Scenario, SIM_ARM_FIELDS};

/// The committed workload: the hot-path bench's ridge-free sparse
/// logistic ASGD behind a 50 ns/byte wire (what compression saves), with
/// the incremental broadcast ring on in every arm. λ = 0 keeps the
/// gradient support — and so the top-k candidate set and the broadcast
/// diffs — sparse.
pub fn scenario() -> Scenario {
    Scenario {
        data: SynthSpec::sparse("comm-compress", 2_048, 65_536, 20, 2026),
        objective: Objective::Logistic { lambda: 0.0 },
        cluster: modeled_cluster(4, DelayModel::None, 50, 50.0),
        solver: SolverCfg {
            step: 0.5,
            batch_fraction: 0.1,
            max_updates: 300,
            eval_every: 50,
            seed: 2026,
            bcast_ring: 16,
            ..SolverCfg::default()
        },
    }
}

/// What this bench varies beyond its [`Scenario`].
#[derive(Debug, Clone)]
pub struct Params {
    /// Coordinates shipped per compressed delta.
    pub k: usize,
}

/// The committed parameters.
pub const PARAMS: Params = Params { k: 256 };

/// The benchmark outcome: three simulated arms, ratios and verdicts.
#[derive(Debug, Clone)]
pub struct CommCompress {
    /// The scenario measured.
    pub scenario: Scenario,
    /// The parameters measured.
    pub params: Params,
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

/// A compressed arm is "within tolerance" when it closes at least 90% of
/// the optimality gap the uncompressed arm closes (both start from ln 2 on
/// ±1 logistic labels at w = 0).
fn within_tolerance(off_final: f64, comp_final: f64) -> bool {
    let f0 = std::f64::consts::LN_2;
    comp_final - off_final <= 0.10 * (f0 - off_final)
}

/// Runs the three arms on the simulator.
pub fn run_comm_compress(mut s: Scenario, params: Params) -> CommCompress {
    let data = s.generate();
    let arm = |label, compress| s.arm(|a| a.solver.compress = compress).run(label, &data);
    let topk = |quant| CompressCfg::TopK { k: params.k, quant };
    let sim_off = arm("off", CompressCfg::Off);
    let sim_topk = arm("topk", topk(Quant::Exact));
    let sim_topk_i8 = arm("topk_i8", topk(Quant::I8));
    let (off, tk, i8) = (&sim_off.report, &sim_topk.report, &sim_topk_i8.report);
    let result_bytes_ratio_topk = off.result_bytes as f64 / tk.result_bytes.max(1) as f64;
    let result_bytes_ratio_topk_i8 = off.result_bytes as f64 / i8.result_bytes.max(1) as f64;
    let bcast_bytes_ratio_topk_i8 = off.bytes_shipped as f64 / i8.bytes_shipped.max(1) as f64;
    let topk_within_loss_tolerance = within_tolerance(off.final_objective, tk.final_objective);
    let topk_i8_within_loss_tolerance = within_tolerance(off.final_objective, i8.final_objective);
    CommCompress {
        scenario: s,
        params,
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
        let s = &self.scenario;
        let sim = |a: &LabeledRun| a.doc("arm", &SIM_ARM_FIELDS);
        let dataset = format!("{}, lambda {}", s.data_label(), s.objective.lambda());
        bench_doc! {
            "benchmark": "comm_compress",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": s.cluster.workers,
                "dataset": dataset,
                "k": self.params.k,
                "updates": s.solver.max_updates,
                "batch_fraction": s.solver.batch_fraction,
                "step": s.solver.step,
                "ring": s.solver.bcast_ring,
                "per_msg_us": s.cluster.comm.per_msg.as_micros(),
                "ns_per_byte": s.cluster.comm.ns_per_byte,
                "seed": s.solver.seed,
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
    use crate::workload::small;

    fn small_run() -> CommCompress {
        run_comm_compress(small(scenario(), 256, 4_096, 200), Params { k: 32 })
    }

    #[test]
    fn compression_slashes_result_bytes_within_loss_tolerance() {
        let b = small_run();
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
        let run = || small_run().doc();
        let probes = [
            "result_bytes_ratio_off_over_topk_i8",
            "topk_i8_within_loss_tolerance",
            "sim_off.result_bytes",
        ];
        crate::doc::oracle::check(run, "comm_compress", &probes);
    }
}

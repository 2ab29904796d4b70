//! The §6.3 controlled-delay-straggler ablation, the first datapoint of
//! the performance trajectory: ASGD under ASP vs BSP, same update budget,
//! one straggler — ASP's wall clock (virtual time) and worker wait times
//! must undercut BSP's, which is the paper's headline effect
//! (Figures 3–4).

use async_cluster::DelayModel;
use async_core::BarrierFilter;
use async_data::SynthSpec;
use async_optim::{Objective, SolverCfg};

use crate::doc::{bench_doc, BenchDoc, ReportField};
use crate::workload::{modeled_cluster, LabeledRun, Scenario};

/// The committed workload: ASGD on dense least squares (epsilon-like shape
/// at small scale), eight workers behind a 100 µs message latency that
/// task compute dominates, as in the paper, where tasks run for seconds.
pub fn scenario() -> Scenario {
    Scenario {
        data: SynthSpec::dense("bench-dense", 8_192, 256, 2024),
        objective: Objective::LeastSquares { lambda: 1e-3 },
        cluster: modeled_cluster(8, DelayModel::None, 100, 1.0),
        solver: SolverCfg {
            step: 0.05,
            batch_fraction: 0.25,
            max_updates: 400,
            eval_every: 50,
            seed: 2024,
            ..SolverCfg::default()
        },
    }
}

/// What this bench varies beyond its [`Scenario`].
#[derive(Debug, Clone)]
pub struct Params {
    /// Controlled-delay straggler intensity of the last worker (1.0 = half
    /// speed).
    pub intensity: f64,
}

/// The committed parameters.
pub const PARAMS: Params = Params { intensity: 1.0 };

/// The ablation outcome: both modes plus the headline ratios.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// The scenario measured.
    pub scenario: Scenario,
    /// The parameters measured.
    pub params: Params,
    /// ASP run, "asp".
    pub asp: LabeledRun,
    /// BSP run, "bsp".
    pub bsp: LabeledRun,
    /// `bsp.wall_clock / asp.wall_clock` — >1 means asynchrony wins.
    pub wall_clock_speedup: f64,
    /// `bsp.mean_wait / asp.mean_wait` at µs resolution. When ASP never
    /// waits (its mean rounds to 0 µs — the paper's Figure-4 outcome) this
    /// is `f64::INFINITY` if BSP waited and `0.0` if neither did; the JSON
    /// rendering serializes non-finite values as `null`.
    pub wait_ratio: f64,
}

/// Runs the ablation: the same ASGD workload under ASP and BSP on
/// identical clusters with one controlled-delay straggler.
pub fn run_async_vs_bsp(mut s: Scenario, params: Params) -> Ablation {
    s.cluster.delay = DelayModel::ControlledDelay {
        worker: s.cluster.workers - 1,
        intensity: params.intensity,
    };
    let data = s.generate();
    let mode = |label, barrier| s.arm(|a| a.solver.barrier = barrier).run(label, &data);
    let asp = mode("asp", BarrierFilter::Asp);
    let bsp = mode("bsp", BarrierFilter::Bsp);
    let (a, b) = (&asp.report, &bsp.report);
    let wall_clock_speedup =
        b.wall_clock.as_micros() as f64 / a.wall_clock.as_micros().max(1) as f64;
    let wait_ratio = if a.mean_wait.as_micros() == 0 {
        if b.mean_wait.as_micros() == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        b.mean_wait.as_micros() as f64 / a.mean_wait.as_micros() as f64
    };
    Ablation {
        scenario: s,
        params,
        asp,
        bsp,
        wall_clock_speedup,
        wait_ratio,
    }
}

const DESCRIPTION: &str = "ASGD wall-clock (virtual) under ASP vs BSP with one controlled-delay straggler (paper §6.3, Figures 3-4)";

const MODE_FIELDS: [ReportField; 9] = [
    ReportField::WallClockMs,
    ReportField::MeanWaitMs,
    ReportField::Updates,
    ReportField::TasksCompleted,
    ReportField::MaxStaleness,
    ReportField::BytesShipped,
    ReportField::FinalError,
    ReportField::WorkerClocks,
    ReportField::TraceMsError,
];

impl Ablation {
    /// The `BENCH_async_vs_bsp.json` document; every byte is deterministic.
    pub fn doc(&self) -> BenchDoc {
        let s = &self.scenario;
        bench_doc! {
            "benchmark": "async_vs_bsp",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": s.cluster.workers,
                "straggler_intensity": self.params.intensity,
                "dataset": s.data_label(),
                "updates": s.solver.max_updates,
                "batch_fraction": s.solver.batch_fraction,
                "step": s.solver.step,
                "per_msg_us": s.cluster.comm.per_msg.as_micros(),
                "seed": s.solver.seed,
            },
            "asp": self.asp.doc("mode", &MODE_FIELDS),
            "bsp": self.bsp.doc("mode", &MODE_FIELDS),
            "wall_clock_speedup_asp_over_bsp": self.wall_clock_speedup,
            "mean_wait_ratio_bsp_over_asp": self.wait_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::oracle;
    use crate::workload::small;

    fn small_run() -> Ablation {
        let mut s = small(scenario(), 256, 32, 60);
        // No message latency, so compute (and therefore the straggler)
        // dominates even at test scale.
        s.cluster = modeled_cluster(4, DelayModel::None, 0, 1.0);
        run_async_vs_bsp(s, PARAMS)
    }

    #[test]
    fn asp_beats_bsp_under_straggler() {
        let a = small_run();
        assert_eq!(a.asp.report.updates, 60);
        assert_eq!(a.bsp.report.updates, 60);
        assert!(
            a.wall_clock_speedup > 1.0,
            "ASP must reach the update budget sooner: speedup {}",
            a.wall_clock_speedup
        );
        assert!(a.bsp.report.mean_wait > a.asp.report.mean_wait);
    }

    #[test]
    fn ablation_is_deterministic() {
        let run = || small_run().doc();
        oracle::check(run, "async_vs_bsp", &[]);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let a = small_run();
        oracle::well_formed(&a.doc(), "async_vs_bsp", &["asp", "bsp"]);
    }
}

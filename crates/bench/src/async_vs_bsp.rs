//! The §6.3 controlled-delay-straggler ablation, the first datapoint of
//! the performance trajectory: ASGD under ASP vs BSP, same update budget,
//! one straggler — ASP's wall clock (virtual time) and worker wait times
//! must undercut BSP's, which is the paper's headline effect
//! (Figures 3–4).

use async_cluster::DelayModel;
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_linalg::ParallelismCfg;
use async_optim::{Asgd, AsyncSolver, Objective, RunReport, SolverCfg};

use crate::doc::{bench_doc, BenchDoc, ReportField};
use crate::workload::{modeled_cluster, LabeledRun};

/// Configuration of the ASP-vs-BSP straggler ablation.
#[derive(Debug, Clone)]
pub struct AblationCfg {
    /// Cluster size.
    pub workers: usize,
    /// Controlled-delay straggler intensity (1.0 = half speed).
    pub intensity: f64,
    /// Dataset rows (dense synthetic, epsilon-like shape at small scale).
    pub rows: usize,
    /// Dataset feature dimension.
    pub cols: usize,
    /// Server update budget per mode.
    pub updates: u64,
    /// Mini-batch fraction per task.
    pub batch_fraction: f64,
    /// Step size.
    pub step: f64,
    /// Per-message latency in µs. Task compute must dominate this for
    /// straggler effects to be visible (the delay factor stretches compute,
    /// not communication — as in the paper, where tasks run for seconds).
    pub per_msg_us: u64,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for AblationCfg {
    fn default() -> Self {
        Self {
            workers: 8,
            intensity: 1.0,
            rows: 8_192,
            cols: 256,
            updates: 400,
            batch_fraction: 0.25,
            step: 0.05,
            per_msg_us: 100,
            seed: 2024,
        }
    }
}

/// The ablation outcome: both modes plus the headline ratios.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// The configuration measured.
    pub cfg: AblationCfg,
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

fn run_mode(
    cfg: &AblationCfg,
    dataset: &Dataset,
    baseline: f64,
    barrier: BarrierFilter,
) -> RunReport {
    let straggler = DelayModel::ControlledDelay {
        worker: cfg.workers - 1,
        intensity: cfg.intensity,
    };
    let mut ctx = AsyncContext::sim(modeled_cluster(cfg.workers, straggler, cfg.per_msg_us, 1.0));
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let solver_cfg = SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier,
        max_updates: cfg.updates,
        eval_every: cfg.updates / 8,
        baseline,
        seed: cfg.seed,
        ..SolverCfg::default()
    };
    Asgd::new(objective).run(&mut ctx, dataset, &solver_cfg)
}

/// Runs the ablation: the same ASGD workload under ASP and BSP on
/// identical clusters with one controlled-delay straggler.
pub fn run_async_vs_bsp(cfg: AblationCfg) -> Ablation {
    let (dataset, _) = SynthSpec::dense("bench-dense", cfg.rows, cfg.cols, cfg.seed)
        .generate()
        .unwrap();
    // The CGLS baseline is identical for both modes; solve once.
    let baseline = Objective::LeastSquares { lambda: 1e-3 }
        .optimum(ParallelismCfg::sequential(), &dataset)
        .expect("least-squares baseline");
    let asp = run_mode(&cfg, &dataset, baseline, BarrierFilter::Asp);
    let bsp = run_mode(&cfg, &dataset, baseline, BarrierFilter::Bsp);
    let wall_clock_speedup =
        bsp.wall_clock.as_micros() as f64 / asp.wall_clock.as_micros().max(1) as f64;
    let wait_ratio = if asp.mean_wait.as_micros() == 0 {
        if bsp.mean_wait.as_micros() == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        bsp.mean_wait.as_micros() as f64 / asp.mean_wait.as_micros() as f64
    };
    eprintln!(
        "async_vs_bsp: wall-clock speedup {wall_clock_speedup:.3}x (ASP {} vs BSP {}), mean wait {} vs {}",
        asp.wall_clock, bsp.wall_clock, asp.mean_wait, bsp.mean_wait,
    );
    Ablation {
        cfg,
        asp: LabeledRun {
            label: "asp",
            report: asp,
        },
        bsp: LabeledRun {
            label: "bsp",
            report: bsp,
        },
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
        let c = &self.cfg;
        bench_doc! {
            "benchmark": "async_vs_bsp",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": c.workers,
                "straggler_intensity": c.intensity,
                "dataset": format!("dense synthetic {}x{}", c.rows, c.cols),
                "updates": c.updates,
                "batch_fraction": c.batch_fraction,
                "step": c.step,
                "per_msg_us": c.per_msg_us,
                "seed": c.seed,
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

    fn small_cfg() -> AblationCfg {
        // Free comms so compute (and therefore the straggler) dominates
        // even at test scale.
        AblationCfg {
            workers: 4,
            rows: 256,
            cols: 32,
            updates: 60,
            per_msg_us: 0,
            ..AblationCfg::default()
        }
    }

    #[test]
    fn asp_beats_bsp_under_straggler() {
        let a = run_async_vs_bsp(small_cfg());
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
        let run = || run_async_vs_bsp(small_cfg()).doc();
        oracle::check(run, "async_vs_bsp", &[]);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let a = run_async_vs_bsp(small_cfg());
        oracle::well_formed(&a.doc(), "async_vs_bsp", &["asp", "bsp"]);
    }
}

//! The fault-recovery benchmark: what the supervision layer buys when
//! workers die without warning and *nothing scripted ever brings them
//! back*.
//!
//! Unlike [`crate::elastic_chaos`] — where the churn script revives every
//! casualty itself — the kills here are one-way: a staggered burst takes
//! out part of the fleet mid-run and only the driver's supervisor
//! ([`sparklet::SuperviseCfg`]: exponential backoff, jitter, crash-loop
//! circuit breaker) can restore them, while the [`AsyncContext`] retry
//! layer re-places the tasks that died with them. The same ASGD workload
//! runs three ways on the simulated cluster (all byte-gated):
//!
//! 1. **baseline** — no faults; the reference wall clock and loss.
//! 2. **unsupervised** — the kill burst with no supervisor and no retry:
//!    in-flight tasks on the casualties surface as permanent losses and
//!    the survivors carry the budget alone.
//! 3. **supervised** — the same burst with the supervisor and bounded
//!    retry on: every casualty is respawned after a backed-off delay,
//!    every stranded task is re-placed, and the run ends with zero losses.
//!
//! The same stack over real loopback-TCP workers with frames dropped on
//! the live connections is `supervision_e2e`'s subject, not this file's.

use async_cluster::{ClusterSpec, DelayModel, VTime};
use async_core::{AsyncContext, BarrierFilter};
use async_data::SynthSpec;
use async_linalg::ParallelismCfg;
use async_optim::{Asgd, AsyncSolver, Objective, RunReport, SolverCfg};
use sparklet::SuperviseCfg;

use crate::doc::{bench_doc, BenchDoc, ReportField, Value};
use crate::workload::modeled_cluster;

/// Configuration of the fault-recovery benchmark.
#[derive(Debug, Clone)]
pub struct FaultRecoveryCfg {
    /// Cluster size.
    pub workers: usize,
    /// Workers killed mid-run (one-way; only the supervisor revives).
    pub kills: usize,
    /// Dataset rows (dense synthetic).
    pub rows: usize,
    /// Dataset feature dimension.
    pub cols: usize,
    /// Server update budget per run.
    pub updates: u64,
    /// Mini-batch fraction per task.
    pub batch_fraction: f64,
    /// Step size.
    pub step: f64,
    /// Per-message latency in µs (plus 1 ns/byte on payloads).
    pub per_msg_us: u64,
    /// First kill lands at this fraction of the baseline wall clock;
    /// later kills are staggered after it.
    pub kill_at_fraction: f64,
    /// Supervisor backoff base as a fraction of the baseline wall clock
    /// (scales the respawn delay to the workload's own pace).
    pub backoff_fraction: f64,
    /// Retry budget per lost task in the supervised arm.
    pub retry_lost: u32,
    /// Seed for data, sampling and supervisor jitter.
    pub seed: u64,
}

impl Default for FaultRecoveryCfg {
    fn default() -> Self {
        Self {
            workers: 8,
            kills: 3,
            rows: 2_048,
            cols: 64,
            updates: 320,
            batch_fraction: 0.2,
            step: 0.05,
            per_msg_us: 20,
            kill_at_fraction: 0.25,
            backoff_fraction: 0.05,
            retry_lost: 3,
            seed: 2029,
        }
    }
}

/// One simulated arm's outcome.
#[derive(Debug, Clone)]
pub struct SimArm {
    /// "baseline", "unsupervised" or "supervised".
    pub name: &'static str,
    /// Full run report (includes the loss/retry counters).
    pub report: RunReport,
    /// Supervised respawns the driver performed during the run.
    pub respawns: u64,
}

/// The benchmark outcome: three simulated arms and the headline ratios.
#[derive(Debug, Clone)]
pub struct FaultRecovery {
    /// The configuration measured.
    pub cfg: FaultRecoveryCfg,
    /// Virtual kill instants (identical across the faulty arms).
    pub kill_schedule: Vec<(usize, VTime)>,
    /// `[baseline, unsupervised, supervised]`.
    pub arms: Vec<SimArm>,
    /// `supervised.wall_clock / baseline.wall_clock`.
    pub recovery_slowdown: f64,
    /// `supervised.final_error / baseline.final_error`.
    pub error_ratio: f64,
}

fn spec(cfg: &FaultRecoveryCfg) -> ClusterSpec {
    modeled_cluster(cfg.workers, DelayModel::None, cfg.per_msg_us, 1.0)
}

fn solver_cfg(cfg: &FaultRecoveryCfg, retry: u32, baseline: f64) -> SolverCfg {
    SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier: BarrierFilter::Asp,
        max_updates: cfg.updates,
        eval_every: (cfg.updates / 8).max(1),
        baseline,
        seed: cfg.seed,
        retry_lost: retry,
        ..SolverCfg::default()
    }
}

/// Kill instants: the burst starts at `kill_at_fraction` of the baseline
/// wall clock and staggers one casualty per 5% after it. Workers `1..`
/// die (worker 0 always survives, so the run can never fully stall).
fn kill_schedule(cfg: &FaultRecoveryCfg, horizon: VTime) -> Vec<(usize, VTime)> {
    let span = horizon.as_micros() as f64;
    (0..cfg.kills.min(cfg.workers.saturating_sub(1)))
        .map(|k| {
            let frac = cfg.kill_at_fraction + 0.05 * k as f64;
            (k + 1, VTime::from_micros((span * frac).max(1.0) as u64))
        })
        .collect()
}

/// Runs the benchmark: baseline, unsupervised kills, supervised kills.
pub fn run_fault_recovery(cfg: FaultRecoveryCfg) -> FaultRecovery {
    let (dataset, _) = SynthSpec::dense("fault-recovery", cfg.rows, cfg.cols, cfg.seed)
        .generate()
        .expect("synthetic generation");
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let baseline = objective
        .optimum(ParallelismCfg::sequential(), &dataset)
        .expect("least-squares baseline");

    let clean = {
        let mut ctx = AsyncContext::sim(spec(&cfg));
        let report = Asgd::new(objective).run(&mut ctx, &dataset, &solver_cfg(&cfg, 0, baseline));
        SimArm {
            name: "baseline",
            report,
            respawns: 0,
        }
    };
    let schedule = kill_schedule(&cfg, clean.report.wall_clock);

    let unsupervised = {
        let mut ctx = AsyncContext::sim(spec(&cfg));
        for &(w, at) in &schedule {
            ctx.driver_mut().schedule_failure(w, at);
        }
        let report = Asgd::new(objective).run(&mut ctx, &dataset, &solver_cfg(&cfg, 0, baseline));
        SimArm {
            name: "unsupervised",
            report,
            respawns: ctx.driver().supervised_respawns(),
        }
    };

    let supervised = {
        let mut ctx = AsyncContext::sim(spec(&cfg));
        for &(w, at) in &schedule {
            ctx.driver_mut().schedule_failure(w, at);
        }
        let base = clean
            .report
            .wall_clock
            .saturating_since(VTime::ZERO)
            .mul_f64(cfg.backoff_fraction);
        ctx.driver_mut().supervise(SuperviseCfg {
            backoff_base: base,
            backoff_max: base.mul_f64(8.0),
            seed: cfg.seed,
            ..SuperviseCfg::default()
        });
        let report = Asgd::new(objective).run(
            &mut ctx,
            &dataset,
            &solver_cfg(&cfg, cfg.retry_lost, baseline),
        );
        SimArm {
            name: "supervised",
            report,
            respawns: ctx.driver().supervised_respawns(),
        }
    };

    let recovery_slowdown = supervised.report.wall_clock.as_micros() as f64
        / clean.report.wall_clock.as_micros().max(1) as f64;
    let error_ratio = supervised.report.trace.final_error().unwrap_or(f64::NAN)
        / clean.report.trace.final_error().unwrap_or(f64::NAN);
    eprintln!(
        "fault_recovery: supervised run lost {} / retried {} / respawned {} \
         (unsupervised lost {}), slowdown {recovery_slowdown:.3}x",
        supervised.report.lost_tasks,
        supervised.report.retried_tasks,
        supervised.respawns,
        unsupervised.report.lost_tasks,
    );
    FaultRecovery {
        cfg,
        kill_schedule: schedule,
        arms: vec![clean, unsupervised, supervised],
        recovery_slowdown,
        error_ratio,
    }
}

const DESCRIPTION: &str = "ASGD through a one-way kill burst (no scripted revivals): unsupervised, the casualties' in-flight tasks are lost for good; supervised, backed-off respawn plus bounded retry restores the fleet and the run ends with zero losses";

/// What a simulated arm prints; `supervised_respawns` (the driver's count,
/// not the report's) goes between the first five and the rest.
const RUN_FIELDS: [ReportField; 10] = [
    ReportField::WallClockMs,
    ReportField::Updates,
    ReportField::TasksCompleted,
    ReportField::LostTasks,
    ReportField::RetriedTasks,
    ReportField::MaxStaleness,
    ReportField::BytesShipped,
    ReportField::FinalError,
    ReportField::WorkerClocks,
    ReportField::TraceMsError,
];

impl FaultRecovery {
    /// The `BENCH_fault_recovery.json` document.
    pub fn doc(&self) -> BenchDoc {
        let c = &self.cfg;
        let kill = |&(worker, at): &(usize, VTime)| {
            bench_doc! { "worker": worker, "at_ms": at.as_millis_f64() }
        };
        let mut doc = bench_doc! {
            "benchmark": "fault_recovery",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": c.workers,
                "kills": c.kills,
                "dataset": format!("dense synthetic {}x{}", c.rows, c.cols),
                "updates": c.updates,
                "batch_fraction": c.batch_fraction,
                "step": c.step,
                "per_msg_us": c.per_msg_us,
                "kill_at_fraction": c.kill_at_fraction,
                "backoff_fraction": c.backoff_fraction,
                "retry_lost": c.retry_lost,
                "seed": c.seed,
            },
            "kill_schedule": Value::inline(self.kill_schedule.iter().map(kill)),
        };
        for a in &self.arms {
            let run = bench_doc! { "run": a.name }
                .report(&a.report, &RUN_FIELDS[..5])
                .put("supervised_respawns", a.respawns)
                .report(&a.report, &RUN_FIELDS[5..]);
            doc = doc.put(a.name, run);
        }
        doc.put(
            "wall_clock_slowdown_supervised_over_baseline",
            self.recovery_slowdown,
        )
        .put(
            "final_error_ratio_supervised_over_baseline",
            self.error_ratio,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::oracle;

    fn small_cfg() -> FaultRecoveryCfg {
        FaultRecoveryCfg {
            workers: 4,
            kills: 2,
            rows: 256,
            cols: 24,
            updates: 80,
            per_msg_us: 0,
            ..FaultRecoveryCfg::default()
        }
    }

    #[test]
    fn supervision_converts_losses_into_retries() {
        let b = run_fault_recovery(small_cfg());
        let [base, unsup, sup] = &b.arms[..] else {
            panic!("three simulated arms");
        };
        assert_eq!(base.report.updates, 80);
        assert_eq!(base.report.lost_tasks, 0);
        // Without a supervisor the one-way kills permanently lose the
        // casualties' in-flight tasks; the survivors still spend the
        // budget (BestEffort keeps the run alive on a shrunken fleet).
        assert_eq!(unsup.report.updates, 80);
        assert!(
            unsup.report.lost_tasks >= 1,
            "one-way kills must lose tasks: {}",
            unsup.report.lost_tasks
        );
        assert_eq!(unsup.respawns, 0);
        // Supervised: every casualty respawns, every stranded task is
        // re-placed, nothing is lost.
        assert_eq!(sup.report.updates, 80);
        assert_eq!(sup.report.lost_tasks, 0, "retry must re-place every loss");
        assert!(sup.report.retried_tasks >= 1);
        assert!(
            sup.respawns >= b.kill_schedule.len() as u64,
            "every kill must be answered by a respawn: {} < {}",
            sup.respawns,
            b.kill_schedule.len()
        );
        assert!(b.error_ratio.is_finite() && b.error_ratio < 10.0);
    }

    #[test]
    fn gated_portion_is_deterministic() {
        let run = || run_fault_recovery(small_cfg()).doc();
        oracle::check(run, "fault_recovery", &[]);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let probes = [
            "baseline",
            "unsupervised",
            "supervised.supervised_respawns",
            "kill_schedule",
        ];
        let doc = run_fault_recovery(small_cfg()).doc();
        oracle::well_formed(&doc, "fault_recovery", &probes);
    }
}

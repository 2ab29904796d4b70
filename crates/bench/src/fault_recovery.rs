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
//! A fourth arm (`wc_` keys, host-dependent, not gated) runs the
//! supervised stack against real loopback-TCP workers with a seeded
//! [`FaultPlan`] dropping frames on the live connections — end-to-end
//! steps/s through heartbeats, task deadlines, retry, and respawn.

use std::sync::Arc;
use std::time::Duration;

use async_cluster::{ClusterSpec, DelayModel, VDur, VTime};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_linalg::ParallelismCfg;
use async_optim::{Asgd, AsyncSolver, Objective, RunReport, SolverCfg};
use sparklet::{Driver, EngineBuilder, FaultPlan, SuperviseCfg};

use crate::doc::{bench_doc, BenchDoc, ReportField, Value};
use crate::workload::{modeled_cluster, WallClockArm};

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
    /// Server update budget per simulated run.
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
    /// Retry budget per lost task in the supervised arms.
    pub retry_lost: u32,
    /// Server update budget for the loopback wall-clock arm.
    pub wc_updates: u64,
    /// Frame-drop probability on the loopback arm's wire.
    pub wc_drop: f64,
    /// Seed for data, sampling, supervisor jitter, and wire faults.
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
            wc_updates: 400,
            wc_drop: 0.02,
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

/// The loopback wall-clock arm (host-dependent, `wc_` keys only).
#[derive(Debug, Clone)]
pub struct WcArm {
    /// The timed run; its report carries the updates applied, the tasks
    /// permanently lost (must be zero for a recovered run) and the tasks
    /// re-placed by the retry layer.
    pub run: WallClockArm,
    /// Workers the supervisor respawned.
    pub respawns: u64,
    /// The acceptance verdict: full budget spent and nothing lost.
    pub recovered: bool,
}

/// The benchmark outcome: three gated simulated arms plus the wall-clock
/// loopback arm.
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
    /// Loopback wall-clock arm (not gated).
    pub wc_loopback: WcArm,
}

fn spec(cfg: &FaultRecoveryCfg) -> ClusterSpec {
    modeled_cluster(cfg.workers, DelayModel::None, cfg.per_msg_us, 1.0)
}

fn solver_cfg(cfg: &FaultRecoveryCfg, updates: u64, retry: u32, baseline: f64) -> SolverCfg {
    SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier: BarrierFilter::Asp,
        max_updates: updates,
        eval_every: (updates / 8).max(1),
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

/// Runs the benchmark: baseline, unsupervised kills, supervised kills,
/// then the loopback wall-clock arm.
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
        let report = Asgd::new(objective).run(
            &mut ctx,
            &dataset,
            &solver_cfg(&cfg, cfg.updates, 0, baseline),
        );
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
        let report = Asgd::new(objective).run(
            &mut ctx,
            &dataset,
            &solver_cfg(&cfg, cfg.updates, 0, baseline),
        );
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
            &solver_cfg(&cfg, cfg.updates, cfg.retry_lost, baseline),
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
    let wc_loopback = run_wc_loopback(&cfg, &dataset, baseline);
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
        wc_loopback,
    }
}

/// The wall-clock arm: the full supervision stack over loopback-TCP
/// workers with frames randomly dropped on the live connections.
fn run_wc_loopback(cfg: &FaultRecoveryCfg, dataset: &Dataset, baseline: f64) -> WcArm {
    let engine = EngineBuilder::remote()
        .spec(spec(cfg))
        .time_scale(0.0)
        .loopback_workers(Arc::new(async_optim::worker_registry))
        .heartbeat(Duration::from_millis(3))
        .liveness(Duration::from_millis(150))
        .task_deadline(Duration::from_millis(80))
        .fault(FaultPlan {
            seed: cfg.seed,
            drop: cfg.wc_drop,
            ..FaultPlan::none()
        })
        .build()
        .expect("loopback workers need no binary");
    let mut ctx = AsyncContext::new(Driver::from_engine(engine));
    ctx.driver_mut().supervise(SuperviseCfg {
        backoff_base: VDur::from_millis(4),
        backoff_max: VDur::from_millis(40),
        max_crashes: 50,
        crash_window: VDur::from_millis(50),
        seed: cfg.seed,
        ..SuperviseCfg::default()
    });
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let run = WallClockArm::time(|| {
        Asgd::new(objective).run(
            &mut ctx,
            dataset,
            &solver_cfg(cfg, cfg.wc_updates, cfg.retry_lost, baseline),
        )
    });
    WcArm {
        respawns: ctx.driver().supervised_respawns(),
        recovered: run.report.updates == cfg.wc_updates && run.report.lost_tasks == 0,
        run,
    }
}

const DESCRIPTION: &str = "ASGD through a one-way kill burst (no scripted revivals): unsupervised, the casualties' in-flight tasks are lost for good; supervised, backed-off respawn plus bounded retry restores the fleet and the run ends with zero losses. The wc_ arm replays the supervised stack over loopback TCP with dropped frames (host-dependent, ungated)";

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

const WC_FIELDS: [ReportField; 3] = [
    ReportField::Updates,
    ReportField::LostTasks,
    ReportField::RetriedTasks,
];

impl FaultRecovery {
    /// The `BENCH_fault_recovery.json` document; lines under `wc_` keys
    /// are host observations outside the byte gate (the contract:
    /// [`crate::doc`]).
    pub fn doc(&self) -> BenchDoc {
        let c = &self.cfg;
        let wc = &self.wc_loopback;
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
                "wc_updates": c.wc_updates,
                "wc_drop": c.wc_drop,
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
        .put(
            "wc_loopback",
            wc.run
                .doc(BenchDoc::new(), &WC_FIELDS)
                .put("wc_supervised_respawns", wc.respawns)
                .put("wc_recovered", wc.recovered),
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
            wc_updates: 80,
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
    fn the_loopback_arm_recovers() {
        let b = run_fault_recovery(small_cfg());
        assert!(
            b.wc_loopback.recovered,
            "loopback arm lost {} of {} updates",
            b.wc_loopback.run.report.lost_tasks, b.wc_loopback.run.report.updates
        );
    }

    #[test]
    fn gated_portion_is_deterministic() {
        let a = run_fault_recovery(small_cfg());
        let b = run_fault_recovery(small_cfg());
        oracle::gated_lines_agree(&a.doc(), &b.doc());
    }

    #[test]
    fn json_is_well_formed_enough() {
        let probes = [
            "baseline",
            "unsupervised",
            "supervised.supervised_respawns",
            "kill_schedule",
            "wc_loopback.wc_recovered",
        ];
        let doc = run_fault_recovery(small_cfg()).doc();
        oracle::well_formed(&doc, "fault_recovery", &probes);
    }
}

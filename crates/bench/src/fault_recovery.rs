//! The fault-recovery benchmark: what the supervision layer buys when
//! workers die without warning and *nothing scripted ever brings them
//! back*.
//!
//! Unlike [`crate::elastic_chaos`] — where the churn script revives every
//! casualty itself — the kills here are one-way: a staggered burst takes
//! out part of the fleet mid-run and only the driver's supervisor
//! ([`sparklet::SuperviseCfg`]: exponential backoff, jitter, crash-loop
//! circuit breaker) can restore them, while the
//! [`async_core::AsyncContext`] retry layer re-places the tasks that died
//! with them. The same ASGD workload runs three ways on the simulated
//! cluster (all byte-gated):
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

use async_cluster::{DelayModel, VTime};
use async_data::SynthSpec;
use async_optim::{Objective, RunReport, SolverCfg};
use sparklet::SuperviseCfg;

use crate::doc::{bench_doc, BenchDoc, ReportField, Value};
use crate::workload::{modeled_cluster, Scenario};

/// The committed workload: ASGD on dense least squares, eight workers
/// behind a 20 µs message latency plus 1 ns/byte, with the supervised
/// arm's retry budget (three re-placements per lost task); the baseline
/// and unsupervised arms turn retry off. The seed also seeds the
/// supervisor's jitter.
pub fn scenario() -> Scenario {
    Scenario {
        data: SynthSpec::dense("fault-recovery", 2_048, 64, 2029),
        objective: Objective::LeastSquares { lambda: 1e-3 },
        cluster: modeled_cluster(8, DelayModel::None, 20, 1.0),
        solver: SolverCfg {
            step: 0.05,
            batch_fraction: 0.2,
            max_updates: 320,
            eval_every: 40,
            seed: 2029,
            retry_lost: 3,
            ..SolverCfg::default()
        },
    }
}

/// What this bench varies beyond its [`Scenario`]: the kill burst and the
/// supervisor's pace.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workers killed mid-run (one-way; only the supervisor revives).
    pub kills: usize,
    /// First kill lands at this fraction of the baseline wall clock;
    /// later kills are staggered after it.
    pub kill_at_fraction: f64,
    /// Supervisor backoff base as a fraction of the baseline wall clock
    /// (scales the respawn delay to the workload's own pace).
    pub backoff_fraction: f64,
}

/// The committed parameters.
pub const PARAMS: Params = Params {
    kills: 3,
    kill_at_fraction: 0.25,
    backoff_fraction: 0.05,
};

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
    /// The scenario measured.
    pub scenario: Scenario,
    /// The parameters measured.
    pub params: Params,
    /// Virtual kill instants (identical across the faulty arms).
    pub kill_schedule: Vec<(usize, VTime)>,
    /// `[baseline, unsupervised, supervised]`.
    pub arms: Vec<SimArm>,
    /// `supervised.wall_clock / baseline.wall_clock`.
    pub recovery_slowdown: f64,
    /// `supervised.final_error / baseline.final_error`.
    pub error_ratio: f64,
}

/// Kill instants: the burst starts at `kill_at_fraction` of the baseline
/// wall clock and staggers one casualty per 5% after it. Workers `1..`
/// die (worker 0 always survives, so the run can never fully stall).
fn kill_schedule(p: &Params, workers: usize, horizon: VTime) -> Vec<(usize, VTime)> {
    let span = horizon.as_micros() as f64;
    (0..p.kills.min(workers.saturating_sub(1)))
        .map(|k| {
            let frac = p.kill_at_fraction + 0.05 * k as f64;
            (k + 1, VTime::from_micros((span * frac).max(1.0) as u64))
        })
        .collect()
}

/// Runs the benchmark: baseline, unsupervised kills, supervised kills.
pub fn run_fault_recovery(mut s: Scenario, params: Params) -> FaultRecovery {
    let dataset = s.generate();
    let retry_off = s.arm(|a| a.solver.retry_lost = 0);

    let clean = SimArm {
        name: "baseline",
        report: retry_off.asgd(&mut retry_off.context(), &dataset),
        respawns: 0,
    };
    let schedule = kill_schedule(&params, s.cluster.workers, clean.report.wall_clock);
    // A context on the scenario's cluster with the kill burst scheduled.
    let doomed = |arm: &Scenario| {
        let mut ctx = arm.context();
        for &(w, at) in &schedule {
            ctx.driver_mut().schedule_failure(w, at);
        }
        ctx
    };

    let unsupervised = {
        let mut ctx = doomed(&retry_off);
        let report = retry_off.asgd(&mut ctx, &dataset);
        SimArm {
            name: "unsupervised",
            report,
            respawns: ctx.driver().supervised_respawns(),
        }
    };

    let supervised = {
        let mut ctx = doomed(&s);
        let base = clean
            .report
            .wall_clock
            .saturating_since(VTime::ZERO)
            .mul_f64(params.backoff_fraction);
        ctx.driver_mut().supervise(SuperviseCfg {
            backoff_base: base,
            backoff_max: base.mul_f64(8.0),
            seed: s.solver.seed,
            ..SuperviseCfg::default()
        });
        let report = s.asgd(&mut ctx, &dataset);
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
    FaultRecovery {
        scenario: s,
        params,
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
        let (s, p) = (&self.scenario, &self.params);
        let kill = |&(worker, at): &(usize, VTime)| {
            bench_doc! { "worker": worker, "at_ms": at.as_millis_f64() }
        };
        let mut doc = bench_doc! {
            "benchmark": "fault_recovery",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": s.cluster.workers,
                "kills": p.kills,
                "dataset": s.data_label(),
                "updates": s.solver.max_updates,
                "batch_fraction": s.solver.batch_fraction,
                "step": s.solver.step,
                "per_msg_us": s.cluster.comm.per_msg.as_micros(),
                "kill_at_fraction": p.kill_at_fraction,
                "backoff_fraction": p.backoff_fraction,
                "retry_lost": s.solver.retry_lost,
                "seed": s.solver.seed,
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
    use crate::workload::small;

    fn small_run() -> FaultRecovery {
        let mut s = small(scenario(), 256, 24, 80);
        s.cluster = modeled_cluster(4, DelayModel::None, 0, 1.0);
        run_fault_recovery(s, Params { kills: 2, ..PARAMS })
    }

    #[test]
    fn supervision_converts_losses_into_retries() {
        let b = small_run();
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
        let run = || small_run().doc();
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
        let doc = small_run().doc();
        oracle::well_formed(&doc, "fault_recovery", &probes);
    }
}

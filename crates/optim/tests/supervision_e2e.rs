//! Wire-level fault-injection acceptance for the supervision layer: every
//! solver × barrier cell runs against loopback remote workers while a
//! seeded [`FaultPlan`] drops, delays, duplicates, and tears frames on the
//! live connections — unscripted failures the engine only survives through
//! heartbeats, task deadlines, bounded retry, and supervised respawn.
//!
//! The contract mirrors `remote_e2e`: the deterministic simulator is the
//! oracle, and a supervised run under faults must (a) spend its full
//! update budget and (b) land at a final loss that agrees with the clean
//! sim run. A supervision-off cell demonstrates the counterfactual —
//! the same fault family visibly loses tasks and strands the run short.

use std::sync::Arc;
use std::time::Duration;

use async_cluster::{ClusterSpec, CommModel, DelayModel, VDur};
use async_core::{AsyncContext, BarrierFilter, DegradePolicy};
use async_data::{Dataset, SynthSpec};
use async_linalg::ParallelismCfg;
use async_optim::{Asaga, Asgd, AsyncMsgd, AsyncSolver, Objective, RunReport, SolverCfg};
use sparklet::{Driver, EngineBuilder, FaultPlan, SuperviseCfg};

const WORKERS: usize = 4;

fn quiet_spec() -> ClusterSpec {
    ClusterSpec::homogeneous(WORKERS, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO)
}

fn dataset() -> Dataset {
    SynthSpec::dense("supervision-e2e", 160, 10, 3)
        .generate()
        .unwrap()
        .0
}

fn cfg(barrier: BarrierFilter, budget: u64, retry: u32) -> SolverCfg {
    SolverCfg {
        step: 0.04,
        batch_fraction: 0.25,
        barrier,
        max_updates: budget,
        seed: 11,
        retry_lost: retry,
        ..SolverCfg::default()
    }
}

/// A loopback remote context with the full supervision stack on:
/// heartbeats every 3 ms, a 120 ms liveness deadline, a 60 ms per-task
/// deadline, the given fault plan on the wire, and a driver supervisor
/// respawning dead workers with fast exponential backoff.
fn supervised_ctx(fault: FaultPlan) -> AsyncContext {
    let engine = EngineBuilder::remote()
        .spec(quiet_spec())
        .time_scale(0.0)
        .loopback_workers(Arc::new(async_optim::worker_registry))
        .heartbeat(Duration::from_millis(3))
        .liveness(Duration::from_millis(120))
        .task_deadline(Duration::from_millis(60))
        .fault(fault)
        .build()
        .expect("loopback workers need no binary");
    let mut ctx = AsyncContext::new(Driver::from_engine(engine));
    ctx.driver_mut().supervise(SuperviseCfg {
        backoff_base: VDur::from_millis(4),
        backoff_max: VDur::from_millis(40),
        // Fault-heavy cells kill workers often and young; keep the
        // crash-loop breaker out of the way of legitimate recovery.
        max_crashes: 50,
        crash_window: VDur::from_millis(50),
        ..SuperviseCfg::default()
    });
    ctx
}

/// A loopback remote context with NO supervision: no heartbeats, no
/// deadlines, no supervisor — only the fault plan.
fn unsupervised_ctx(fault: FaultPlan) -> AsyncContext {
    let engine = EngineBuilder::remote()
        .spec(quiet_spec())
        .time_scale(0.0)
        .loopback_workers(Arc::new(async_optim::worker_registry))
        .fault(fault)
        .build()
        .expect("loopback workers need no binary");
    AsyncContext::new(Driver::from_engine(engine))
}

/// Runs `solver` on `ctx`; however the faults land, the engine's every
/// notification must match a task the coordinator knows.
fn run(
    solver: &mut dyn AsyncSolver,
    ctx: &mut AsyncContext,
    d: &Dataset,
    cfg: &SolverCfg,
) -> RunReport {
    let r = solver.run(ctx, d, cfg);
    assert_eq!(ctx.task_counts().violations, 0, "every notification placed");
    r
}

type SolverFactory = Box<dyn Fn() -> Box<dyn AsyncSolver>>;

fn solvers(objective: Objective) -> Vec<(&'static str, SolverFactory)> {
    vec![
        ("asgd", Box::new(move || Box::new(Asgd::new(objective)))),
        ("asaga", Box::new(move || Box::new(Asaga::new(objective)))),
        (
            "async-msgd",
            Box::new(move || Box::new(AsyncMsgd::new(objective).with_momentum(0.5))),
        ),
    ]
}

/// The three fault mixes the grid rotates through. Every mix is survivable
/// only with supervision on: dropped frames need the task deadline,
/// torn/reset streams need respawn + retry, and jitter needs the epoch and
/// duplicate guards.
fn fault_mixes(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "drop",
            FaultPlan {
                seed,
                drop: 0.04,
                ..FaultPlan::none()
            },
        ),
        (
            "jitter",
            FaultPlan {
                seed,
                delay: 0.3,
                max_delay: Duration::from_micros(300),
                duplicate: 0.05,
                ..FaultPlan::none()
            },
        ),
        (
            "tear",
            FaultPlan {
                seed,
                truncate: 0.02,
                reset: 0.02,
                ..FaultPlan::none()
            },
        ),
    ]
}

#[test]
fn supervised_grid_survives_faults_and_agrees_with_clean_sim() {
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let baseline = objective.optimum(ParallelismCfg::sequential(), &d).unwrap();
    let f0 = objective.full_objective(ParallelismCfg::sequential(), &d, &vec![0.0; d.cols()]);
    let gap0 = f0 - baseline;
    let budget = 120;
    let barriers = [
        ("asp", BarrierFilter::Asp),
        ("bsp", BarrierFilter::Bsp),
        ("ssp", BarrierFilter::Ssp { slack: 2 }),
    ];
    for (si, (sname, make)) in solvers(objective).iter().enumerate() {
        for (bi, (bname, barrier)) in barriers.iter().enumerate() {
            // Clean oracle: the deterministic simulator, same cfg.
            let mut sim_ctx = AsyncContext::sim(quiet_spec());
            let sim = run(
                make().as_mut(),
                &mut sim_ctx,
                &d,
                &cfg(barrier.clone(), budget, 0),
            );
            assert_eq!(sim.updates, budget, "{sname}/{bname}: sim spends budget");
            let sim_gap = sim.final_objective - baseline;

            // Faulty cell: rotate the mix so all three appear across the
            // grid without tripling it; seed per cell for coverage.
            let mixes = fault_mixes(0xFA17 + (si * 3 + bi) as u64);
            let (mname, fault) = &mixes[(si + bi) % mixes.len()];
            let mut ctx = supervised_ctx(fault.clone());
            // Supervision converts losses into retries given a retry
            // budget above the fault rate. `tear` tears or resets 4 % of
            // frames each way, heartbeats included, so an attempt is lost
            // with probability ≈ 0.1: `retry_lost = 3` abandons a task
            // after four straight losses, ≈ 1e-4 per task × 360 tasks in
            // the three tear cells — a failure every 10–25 runs; 8 puts
            // nine straight losses at ≈ 1e-9 per task.
            let r = run(
                make().as_mut(),
                &mut ctx,
                &d,
                &cfg(barrier.clone(), budget, 8),
            );
            assert_eq!(
                r.updates, budget,
                "{sname}/{bname}/{mname}: a supervised run must spend its \
                 full budget despite wire faults"
            );
            assert_eq!(
                r.lost_tasks, 0,
                "{sname}/{bname}/{mname}: supervision converts losses into \
                 retries (retried {})",
                r.retried_tasks
            );
            let gap = r.final_objective - baseline;
            assert!(
                gap < 0.2 * gap0,
                "{sname}/{bname}/{mname}: faulty run must converge: \
                 gap {gap} / {gap0}"
            );
            assert!(
                (sim_gap - gap).abs() <= 0.15 * gap0,
                "{sname}/{bname}/{mname}: faulty gap {gap} disagrees with \
                 clean sim gap {sim_gap} (gap0 {gap0})"
            );
        }
    }
}

#[test]
fn unscripted_hang_is_detected_and_the_task_reassigned() {
    // Worker 1 hangs without warning after its 5th response: its beat
    // thread goes silent and its in-flight task never answers. Only the
    // deadlines notice; the supervisor respawns it and the retry layer
    // re-places the stranded task. No fault probabilities — the hang is the
    // single unscripted event. BSP makes the loop wait on worker 1 until it
    // is condemned, so the retry lands inside the run and is applied.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let baseline = objective.optimum(ParallelismCfg::sequential(), &d).unwrap();
    let f0 = objective.full_objective(ParallelismCfg::sequential(), &d, &vec![0.0; d.cols()]);
    let fault = FaultPlan {
        hang_worker: Some(1),
        hang_after: 5,
        ..FaultPlan::none()
    };
    let budget = 120;
    let mut ctx = supervised_ctx(fault);
    let r = run(
        &mut Asgd::new(objective),
        &mut ctx,
        &d,
        &cfg(BarrierFilter::Bsp, budget, 3),
    );
    assert_eq!(r.updates, budget, "the run survives the silent hang");
    assert_eq!(r.lost_tasks, 0, "the stranded task was re-placed");
    assert!(
        r.retried_tasks >= 1,
        "the hung worker's in-flight task must have been retried"
    );
    assert!(
        ctx.driver().supervised_respawns() >= 1,
        "the supervisor must have respawned the hung worker"
    );
    let gap = r.final_objective - baseline;
    assert!(
        gap < 0.2 * (f0 - baseline),
        "hang-recovery run should still converge: gap {gap}"
    );
}

#[test]
fn fail_fast_policy_halts_on_the_first_death() {
    // Reset-heavy faults with FailFast: the first torn connection ends the
    // run at the next wave boundary instead of degrading.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let fault = FaultPlan {
        seed: 0xDEAD,
        reset: 0.1,
        ..FaultPlan::none()
    };
    let budget = 400;
    let mut ctx = supervised_ctx(fault);
    let cfg = SolverCfg {
        step: 0.04,
        batch_fraction: 0.25,
        max_updates: budget,
        seed: 11,
        degrade: DegradePolicy::FailFast,
        ..SolverCfg::default()
    };
    let r = run(&mut Asgd::new(objective), &mut ctx, &d, &cfg);
    assert!(
        r.updates < budget,
        "FailFast must halt early under tears (got {} updates)",
        r.updates
    );
}

#[test]
fn without_supervision_the_same_faults_lose_tasks() {
    // The counterfactual cell: identical tear faults, but no heartbeats,
    // no deadlines, no supervisor, no retry. Torn connections permanently
    // kill workers and their in-flight tasks are gone — the run visibly
    // bleeds tasks and cannot spend a long budget.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let fault = FaultPlan {
        seed: 0x0FF,
        reset: 0.05,
        truncate: 0.02,
        ..FaultPlan::none()
    };
    let budget = 600;
    let mut ctx = unsupervised_ctx(fault);
    let r = run(
        &mut Asgd::new(objective),
        &mut ctx,
        &d,
        &cfg(BarrierFilter::Asp, budget, 0),
    );
    assert!(
        r.lost_tasks >= 1,
        "unsupervised tears must visibly lose tasks"
    );
    assert!(
        r.updates < budget,
        "with every worker torn down and nothing respawning them, the run \
         cannot spend its budget (got {})",
        r.updates
    );
    assert_eq!(r.retried_tasks, 0, "retry is off in the counterfactual");
}

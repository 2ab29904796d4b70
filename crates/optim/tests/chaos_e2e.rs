//! End-to-end elasticity: every solver × every classic barrier under
//! seeded kill / revive / join chaos schedules, plus checkpoint/restore —
//! the "cloud engine" scenarios where executors die, come back, and new
//! capacity joins mid-run.

use async_cluster::{ChaosSchedule, ClusterSpec, CommModel, DelayModel, VDur, VTime};
use async_core::{AsyncContext, BarrierFilter, SubmitOpts};
use async_data::{Dataset, SynthSpec};
use async_linalg::ParallelismCfg;
use async_optim::{
    Asaga, Asgd, AsyncMsgd, AsyncSolver, Checkpoint, CheckpointError, CheckpointStore,
    DurableStats, Objective, RunReport, SolverCfg, SolverHistory,
};
use sparklet::WorkerCtx;

const WORKERS: usize = 4;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("async-chaos-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quiet_spec(delay: DelayModel) -> ClusterSpec {
    ClusterSpec::homogeneous(WORKERS, delay)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO)
}

fn sim_ctx() -> AsyncContext {
    AsyncContext::sim(quiet_spec(DelayModel::None))
}

fn dataset() -> Dataset {
    SynthSpec::dense("chaos-e2e", 240, 12, 7)
        .generate()
        .unwrap()
        .0
}

fn cfg(barrier: BarrierFilter, max_updates: u64, seed: u64) -> SolverCfg {
    SolverCfg {
        step: 0.04,
        batch_fraction: 0.25,
        barrier,
        max_updates,
        seed,
        ..SolverCfg::default()
    }
}

/// A schedule with ≥1 kill, ≥1 revival, and ≥1 join, timed to land inside
/// a ~150-update run on the quiet 4-worker sim cluster (tasks take ~2µs of
/// virtual time there; the full budget spans roughly 100–200µs).
fn mixed_chaos() -> ChaosSchedule {
    ChaosSchedule::new()
        .kill(VTime::from_micros(20), 1)
        .kill(VTime::from_micros(35), 3)
        .revive(VTime::from_micros(60), 1)
        .join(VTime::from_micros(80))
        .revive(VTime::from_micros(100), 3)
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

fn run_solver(
    solver: &mut dyn AsyncSolver,
    d: &Dataset,
    barrier: BarrierFilter,
    chaos: Option<&ChaosSchedule>,
    max_updates: u64,
) -> (RunReport, AsyncContext) {
    let mut ctx = sim_ctx();
    if let Some(s) = chaos {
        ctx.driver_mut().install_chaos(s);
    }
    let r = solver.run(&mut ctx, d, &cfg(barrier, max_updates, 11));
    assert_eq!(ctx.task_counts().violations, 0, "every notification placed");
    (r, ctx)
}

/// Tasks with no fate yet — in flight, unconsumed or queued for a retry.
fn live_tasks(ctx: &AsyncContext) -> u64 {
    let c = ctx.task_counts();
    c.issued - c.delivered - c.lost - c.drained
}

#[test]
fn every_solver_and_barrier_survives_mixed_chaos() {
    // The acceptance grid: {ASGD, ASAGA, MSGD} × {ASP, BSP, SSP}, each
    // under a schedule with kills, revivals, and a join. Every run must
    // reach its full update budget and converge to the same tolerance as
    // its static-cluster twin.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let baseline = objective.optimum(ParallelismCfg::sequential(), &d).unwrap();
    let f0 = objective.full_objective(ParallelismCfg::sequential(), &d, &vec![0.0; d.cols()]);
    let gap0 = f0 - baseline;
    let solvers = solvers(objective);
    let barriers = [
        BarrierFilter::Asp,
        BarrierFilter::Bsp,
        BarrierFilter::Ssp { slack: 2 },
    ];
    let chaos = mixed_chaos();
    for (name, make) in &solvers {
        for barrier in &barriers {
            let budget = 150;
            let (static_run, _) = run_solver(make().as_mut(), &d, barrier.clone(), None, budget);
            let (chaos_run, ctx) =
                run_solver(make().as_mut(), &d, barrier.clone(), Some(&chaos), budget);
            assert_eq!(
                chaos_run.updates, budget,
                "{name}/{barrier:?}: chaos run must reach the full budget"
            );
            let static_gap = static_run.final_objective - baseline;
            let chaos_gap = chaos_run.final_objective - baseline;
            // Same tolerance as the static twin: the chaos run closes the
            // optimality gap essentially as far (stochastic paths differ,
            // so allow slack around the static landing point).
            let tol = (2.0 * static_gap).max(0.05 * gap0);
            assert!(
                chaos_gap < tol,
                "{name}/{barrier:?}: chaos gap {chaos_gap} vs static {static_gap} (gap0 {gap0})"
            );
            // Final membership: 4 original workers (all revived) + 1 join.
            let snap = ctx.stat();
            assert_eq!(snap.workers.len(), WORKERS + 1, "{name}/{barrier:?}");
            assert_eq!(snap.alive_count(), WORKERS + 1, "{name}/{barrier:?}");
            // The joined worker did real work.
            assert!(
                chaos_run.worker_clocks.len() == WORKERS + 1,
                "{name}/{barrier:?}: clocks {:?}",
                chaos_run.worker_clocks
            );
        }
    }
}

#[test]
fn no_stale_epoch_result_is_applied_after_revival() {
    // Drive the context directly with long tasks: worker 1 is killed with
    // a task in flight, then revived. Epoch guarding must drop the dead
    // incarnation's result — every surfaced result from worker 1 must have
    // been issued after the revival instant.
    let mut ctx = sim_ctx();
    let kill_at = VTime::from_micros(500_000);
    let revive_at = VTime::from_micros(700_000);
    ctx.driver_mut().schedule_failure(1, kill_at);
    ctx.driver_mut().schedule_revival(1, revive_at);
    // 1-second tasks: the first wave is in flight across the kill.
    let rdd = sparklet::Rdd::parallelize_with_cost(
        (0..WORKERS).map(|p| vec![p as i64]).collect(),
        vec![2e8; WORKERS],
    );
    let task = |_w: &mut WorkerCtx, data: Vec<i64>, _p: usize| data[0];
    let mut collected = Vec::new();
    for _round in 0..6 {
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), task);
        while let Some(t) = ctx.collect::<i64>() {
            collected.push(t.attrs);
        }
    }
    let from_w1: Vec<_> = collected.iter().filter(|a| a.worker == 1).collect();
    assert!(!from_w1.is_empty(), "revived worker produced results");
    for a in &from_w1 {
        assert!(
            a.issued_at >= revive_at,
            "stale pre-revival result surfaced: issued at {}, revived at {revive_at}",
            a.issued_at
        );
    }
    // Exactly one task (worker 1's first) was lost to the kill.
    let done_w1_before_kill = collected
        .iter()
        .filter(|a| a.worker == 1 && a.issued_at < kill_at)
        .count();
    assert_eq!(
        done_w1_before_kill, 0,
        "the in-flight task died with its worker"
    );
}

#[test]
fn asaga_rebuilds_history_for_revived_workers() {
    // ASAGA across a kill + revival: the rejoined worker's history cache
    // is gone (fresh executor), so it re-fetches what it needs and the run
    // still converges with an unpoisoned table.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let baseline = objective.optimum(ParallelismCfg::sequential(), &d).unwrap();
    let chaos = ChaosSchedule::new()
        .kill(VTime::from_micros(30), 2)
        .revive(VTime::from_micros(90), 2);
    let mut solver = Asaga::new(objective);
    let (r, ctx) = run_solver(&mut solver, &d, BarrierFilter::Asp, Some(&chaos), 400);
    assert_eq!(r.updates, 400);
    let f0 = objective.full_objective(ParallelismCfg::sequential(), &d, &vec![0.0; d.cols()]);
    let gap = r.final_objective - baseline;
    assert!(
        gap < 0.05 * (f0 - baseline),
        "ASAGA under churn should still close the gap: {gap}"
    );
    // The revived worker kept working after its return.
    let snap = ctx.stat();
    assert!(snap.workers[2].alive);
    assert!(
        snap.workers[2].completed > 0,
        "revived worker completed tasks in its second life"
    );
}

#[test]
fn pcs_churn_preset_runs_all_barriers() {
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let chaos = ChaosSchedule::pcs_churn(5, WORKERS, VTime::from_micros(150));
    let (kills, revives, joins) = chaos.counts();
    assert!(kills >= 1 && revives == kills && joins == 1);
    for barrier in [
        BarrierFilter::Asp,
        BarrierFilter::Bsp,
        BarrierFilter::Ssp { slack: 1 },
    ] {
        let mut solver = Asgd::new(objective);
        let (r, _) = run_solver(&mut solver, &d, barrier.clone(), Some(&chaos), 150);
        assert_eq!(r.updates, 150, "{barrier:?} under pcs_churn");
        assert!(r.final_objective.is_finite());
    }
}

#[test]
fn checkpoint_restores_bit_identical_server_state() {
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    // Each run leaves its checkpoints, as stored bytes, in its own store.
    let run = |tag: &str| {
        let dir = scratch_dir(tag);
        let mut c = cfg(BarrierFilter::Asp, 120, 31);
        c.checkpoint_every = 40;
        c.durable_dir = Some(dir.clone());
        Asgd::new(objective).run(&mut sim_ctx(), &d, &c);
        let store = CheckpointStore::open(&dir).unwrap();
        let gens = store.generations().unwrap();
        let payloads: Vec<Vec<u8>> = gens.iter().map(|&g| store.read(g).unwrap()).collect();
        let _ = std::fs::remove_dir_all(&dir);
        (gens, payloads)
    };
    let (gens, a) = run("restore-a");
    assert_eq!(gens, [40, 80, 120], "one checkpoint per 40 updates");
    // Serialization round-trips the mid-run server state bit-for-bit.
    for (bytes, generation) in a.iter().zip(gens) {
        let ckpt = Checkpoint::from_bytes(bytes).unwrap();
        assert_eq!(ckpt.updates, generation);
        let restored = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(restored, ckpt);
        for (x, y) in ckpt.w.iter().zip(restored.w.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(&ckpt.to_bytes(), bytes);
    }
    // And the checkpointed state is itself deterministic.
    assert_eq!(run("restore-b").1, a);

    // The cadence is the store's: without a `durable_dir` nothing is
    // captured and no store exists to report on.
    let mut c = cfg(BarrierFilter::Asp, 120, 31);
    c.checkpoint_every = 40;
    let storeless = Asgd::new(objective).run(&mut sim_ctx(), &d, &c);
    assert_eq!(storeless.durable, DurableStats::default());
}

#[test]
fn driver_crash_resumes_from_checkpoint_instead_of_restarting() {
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let baseline = objective.optimum(ParallelismCfg::sequential(), &d).unwrap();
    let f0 = objective.full_objective(ParallelismCfg::sequential(), &d, &vec![0.0; d.cols()]);
    let gap0 = f0 - baseline;
    let total_budget = 400u64;

    for solver_name in ["asgd", "asaga", "async-msgd"] {
        // Phase 1: the "crashing" driver checkpoints every 100 updates and
        // dies after 200 (simulated by just stopping there).
        let mut ctx = sim_ctx();
        let dir = scratch_dir(solver_name);
        let mut c = cfg(BarrierFilter::Ssp { slack: 2 }, 200, 13);
        c.checkpoint_every = 100;
        c.durable_dir = Some(dir.clone());
        let phase1 = match solver_name {
            "asgd" => Asgd::new(objective).run(&mut ctx, &d, &c),
            "asaga" => Asaga::new(objective).run(&mut ctx, &d, &c),
            _ => AsyncMsgd::new(objective).run(&mut ctx, &d, &c),
        };
        let (generation, ckpt_bytes) = CheckpointStore::open(&dir)
            .unwrap()
            .latest_valid()
            .expect("the crashed driver's last checkpoint");
        let _ = std::fs::remove_dir_all(&dir);

        // Phase 2: a brand-new driver + context restores from the stored
        // bytes and continues to the total budget.
        let ckpt = Checkpoint::from_bytes(&ckpt_bytes).unwrap();
        assert_eq!(generation, 200);
        assert_eq!(ckpt.updates, 200);
        assert_eq!(ckpt.solver, solver_name);
        let mut ctx2 = sim_ctx();
        let c2 = cfg(BarrierFilter::Ssp { slack: 2 }, total_budget - 200, 14);
        let resumed = match solver_name {
            "asgd" => Asgd::new(objective)
                .resume_from(ckpt.clone())
                .run(&mut ctx2, &d, &c2),
            "asaga" => Asaga::new(objective)
                .resume_from(ckpt.clone())
                .run(&mut ctx2, &d, &c2),
            _ => AsyncMsgd::new(objective)
                .resume_from(ckpt.clone())
                .run(&mut ctx2, &d, &c2),
        };
        assert_eq!(resumed.updates, 200);
        // The restored run starts exactly where the crash left off (both
        // traces are raw objectives: cfg.baseline is 0 here)…
        let resumed_start = resumed.trace.points()[0].1;
        let crash_end = phase1.final_objective;
        assert!(
            (resumed_start - crash_end).abs() < 1e-12,
            "{solver_name}: resume must start from the checkpointed model"
        );
        // …and finishes at least as converged as a cold 200-update run,
        // i.e. the checkpoint's progress was not thrown away.
        let mut ctx3 = sim_ctx();
        let cold = match solver_name {
            "asgd" => Asgd::new(objective).run(
                &mut ctx3,
                &d,
                &cfg(BarrierFilter::Ssp { slack: 2 }, 200, 14),
            ),
            "asaga" => Asaga::new(objective).run(
                &mut ctx3,
                &d,
                &cfg(BarrierFilter::Ssp { slack: 2 }, 200, 14),
            ),
            _ => AsyncMsgd::new(objective).run(
                &mut ctx3,
                &d,
                &cfg(BarrierFilter::Ssp { slack: 2 }, 200, 14),
            ),
        };
        let resumed_gap = resumed.final_objective - baseline;
        let cold_gap = cold.final_objective - baseline;
        assert!(
            resumed_gap <= cold_gap * 1.05 + 1e-9 * gap0,
            "{solver_name}: resumed gap {resumed_gap} should beat cold-start gap {cold_gap}"
        );
    }
}

#[test]
fn a_task_that_dies_in_the_final_drain_is_discarded_not_lost() {
    // The loop refills its workers after the last update and then drains
    // them unapplied. Kill the whole cluster inside that drain: the
    // context sees tasks die with nowhere to retry them, but the run had
    // spent its budget and lost nothing it was going to apply.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let mut c = cfg(BarrierFilter::Asp, 60, 11);
    c.retry_lost = 3;
    let clean = Asgd::new(objective).run(&mut sim_ctx(), &d, &c);
    let in_the_drain = clean.wall_clock + VDur::from_micros(1);
    let chaos = (0..WORKERS).fold(ChaosSchedule::new(), |s, w| s.kill(in_the_drain, w));
    let mut ctx = sim_ctx();
    ctx.driver_mut().install_chaos(&chaos);
    let r = Asgd::new(objective).run(&mut ctx, &d, &c);
    assert_eq!(r.updates, 60);
    assert_eq!(r.final_w, clean.final_w, "the kills land after the run");
    let c = ctx.task_counts();
    assert!(
        c.drained >= 1,
        "the tasks in flight at the stop were drained"
    );
    assert_eq!((c.lost, c.violations, live_tasks(&ctx)), (0, 0, 0));
    assert_eq!(r.lost_tasks, 0);
}

#[test]
fn checkpoint_mismatches_are_typed_errors() {
    let ckpt = Checkpoint {
        solver: "asgd".into(),
        updates: 10,
        version: 10,
        w: vec![0.0; 12],
        history: SolverHistory::None,
        residuals: None,
    };
    assert!(matches!(
        ckpt.validate_for("asaga", 12),
        Err(CheckpointError::SolverMismatch { .. })
    ));
    assert!(matches!(
        ckpt.validate_for("asgd", 13),
        Err(CheckpointError::DimensionMismatch { .. })
    ));
    assert!(ckpt.validate_for("asgd", 12).is_ok());
}

#[test]
#[should_panic(expected = "incompatible resume checkpoint")]
fn resuming_with_a_foreign_checkpoint_panics() {
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let ckpt = Checkpoint {
        solver: "asaga".into(),
        updates: 5,
        version: 5,
        w: vec![0.0; d.cols()],
        history: SolverHistory::Saga {
            alpha_bar: vec![0.0; d.cols()],
        },
        residuals: None,
    };
    let mut ctx = sim_ctx();
    let _ =
        Asgd::new(objective)
            .resume_from(ckpt)
            .run(&mut ctx, &d, &cfg(BarrierFilter::Asp, 10, 1));
}

#[test]
fn total_cluster_death_then_revival_restarts_the_run() {
    // Every worker dies mid-run; two revive later. The solver's stall
    // restart must pick the run back up and still hit the full budget.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let chaos = ChaosSchedule::new()
        .kill(VTime::from_micros(20), 0)
        .kill(VTime::from_micros(20), 1)
        .kill(VTime::from_micros(20), 2)
        .kill(VTime::from_micros(20), 3)
        .revive(VTime::from_micros(50), 0)
        .revive(VTime::from_micros(50), 2);
    let mut solver = Asgd::new(objective);
    let (r, ctx) = run_solver(&mut solver, &d, BarrierFilter::Asp, Some(&chaos), 120);
    assert_eq!(r.updates, 120, "run restarted after the blackout");
    assert_eq!(ctx.stat().alive_count(), 2);
    assert!(r.final_objective.is_finite());
}

#[test]
fn chaos_asgd_converges_on_the_threaded_engine() {
    // The same elastic scenario on real OS threads: kill, revive, join at
    // real elapsed instants. time_scale=1 maps the modeled microseconds
    // onto real microseconds, so the schedule lands mid-run.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let baseline = objective.optimum(ParallelismCfg::sequential(), &d).unwrap();
    let f0 = objective.full_objective(ParallelismCfg::sequential(), &d, &vec![0.0; d.cols()]);
    let chaos = ChaosSchedule::new()
        .kill(VTime::from_micros(200), 1)
        .revive(VTime::from_micros(600), 1)
        .join(VTime::from_micros(900));
    let mut ctx = AsyncContext::threaded(quiet_spec(DelayModel::None), 1.0);
    ctx.driver_mut().install_chaos(&chaos);
    let r = Asgd::new(objective).run(&mut ctx, &d, &cfg(BarrierFilter::Asp, 200, 17));
    assert_eq!(r.updates, 200);
    let gap = r.final_objective - baseline;
    assert!(
        gap < 0.2 * (f0 - baseline),
        "threaded chaos run should converge: gap {gap}"
    );
    // The join took effect on the threaded engine too. next() does not
    // block on future chaos, so wait past the horizon and poll once in
    // case the run drained before the join's instant.
    std::thread::sleep(std::time::Duration::from_millis(2));
    let _ = ctx.collect_all::<()>();
    assert_eq!(ctx.workers(), WORKERS + 1);
}

#[test]
fn a_run_leaves_the_context_clean_for_a_different_solver() {
    // Every worker dies mid-run with nothing scheduled to bring one back,
    // under bounded retry: the in-flight tasks are lost, their retries
    // queue with nobody to place them on, and the run gives up short of
    // its budget. The end-of-run drain must abandon those retries —
    // nothing in flight, nothing queued — or the next run on the context
    // would be handed another solver's messages. After two workers come
    // back, a *different* solver then runs to completion on the same
    // context (its broadcast seated at the version the first run reached).
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let solvers = solvers(objective);
    let blackout = ChaosSchedule::new()
        .kill(VTime::from_micros(20), 0)
        .kill(VTime::from_micros(20), 1)
        .kill(VTime::from_micros(21), 2)
        .kill(VTime::from_micros(21), 3);
    let budget = 60;
    let cfg = SolverCfg {
        retry_lost: 3,
        ..cfg(BarrierFilter::Asp, budget, 11)
    };
    for (i, (name, make)) in solvers.iter().enumerate() {
        let (next_name, make_next) = &solvers[(i + 1) % solvers.len()];
        let mut ctx = sim_ctx();
        ctx.driver_mut().install_chaos(&blackout);
        let first = make().run(&mut ctx, &d, &cfg);
        assert!(first.updates < budget, "{name}: the blackout ends the run");
        assert_eq!(
            (ctx.pending(), live_tasks(&ctx)),
            (0, 0),
            "{name}: drained context"
        );
        let back = ctx.now() + VDur::from_micros(5);
        ctx.driver_mut()
            .install_chaos(&ChaosSchedule::new().revive(back, 0).revive(back, 2));
        let second = make_next().run(&mut ctx, &d, &cfg);
        assert_eq!(second.updates, budget, "{name} then {next_name}");
        assert!(
            second.final_objective.is_finite(),
            "{name} then {next_name}"
        );
        assert_eq!(
            (ctx.pending(), live_tasks(&ctx)),
            (0, 0),
            "{name} then {next_name}: drained context"
        );
        assert_eq!(
            first.bytes_shipped + second.bytes_shipped,
            ctx.driver().total_bytes_shipped(),
            "{name} then {next_name}: each run reports its own bytes"
        );
    }
}

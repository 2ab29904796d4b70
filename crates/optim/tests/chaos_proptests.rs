//! Property tests for elasticity: the simulated engine must stay *bit*
//! deterministic under arbitrary chaos schedules, and the threaded engine
//! must agree with the simulator on where a fixed chaos script lands.

use async_cluster::{ChaosCfg, ChaosSchedule, ClusterSpec, CommModel, DelayModel, VDur, VTime};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_linalg::ParallelismCfg;
use async_optim::{Asgd, AsyncSolver, Objective, RunReport, SolverCfg};
use proptest::prelude::*;

const WORKERS: usize = 4;

fn quiet_spec() -> ClusterSpec {
    ClusterSpec::homogeneous(WORKERS, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO)
}

fn dataset() -> Dataset {
    SynthSpec::dense("chaos-prop", 160, 10, 3)
        .generate()
        .unwrap()
        .0
}

fn run_sim_chaos(d: &Dataset, chaos: &ChaosSchedule, barrier: BarrierFilter) -> RunReport {
    run_sim_chaos_on(&mut AsyncContext::sim(quiet_spec()), d, chaos, barrier)
}

fn run_sim_chaos_on(
    ctx: &mut AsyncContext,
    d: &Dataset,
    chaos: &ChaosSchedule,
    barrier: BarrierFilter,
) -> RunReport {
    ctx.driver_mut().install_chaos(chaos);
    let cfg = SolverCfg {
        step: 0.05,
        batch_fraction: 0.25,
        barrier,
        max_updates: 80,
        seed: 9,
        ..SolverCfg::default()
    };
    Asgd::new(Objective::LeastSquares { lambda: 1e-3 }).run(ctx, d, &cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sim_runs_are_bit_identical_under_arbitrary_chaos(seed in 0u64..1_000_000, slack in 0u64..4) {
        // Same seed ⇒ same schedule ⇒ identical completion order (clocks,
        // task counts, trace instants) and bit-identical final iterate.
        let d = dataset();
        let chaos = ChaosSchedule::random(
            seed,
            WORKERS,
            VTime::from_micros(100),
            &ChaosCfg { events: 8, ..ChaosCfg::default() },
        );
        let barrier = BarrierFilter::Ssp { slack };
        let a = run_sim_chaos(&d, &chaos, barrier.clone());
        let b = run_sim_chaos(&d, &chaos, barrier);
        prop_assert_eq!(a.updates, b.updates);
        prop_assert_eq!(a.tasks_completed, b.tasks_completed);
        prop_assert_eq!(a.worker_clocks.clone(), b.worker_clocks.clone());
        prop_assert_eq!(a.wall_clock, b.wall_clock);
        prop_assert_eq!(a.max_staleness, b.max_staleness);
        // Bit identity of the final iterate and the whole trace.
        prop_assert_eq!(a.final_w.len(), b.final_w.len());
        for (x, y) in a.final_w.iter().zip(b.final_w.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        prop_assert_eq!(a.trace.points(), b.trace.points());
        prop_assert_eq!(
            a.final_objective.to_bits(),
            b.final_objective.to_bits()
        );
    }

    #[test]
    fn random_chaos_never_stops_the_run_short(seed in 0u64..1_000_000) {
        // Valid schedules keep ≥1 worker alive at all times, so the full
        // update budget must always be reached.
        let d = dataset();
        let chaos = ChaosSchedule::random(
            seed,
            WORKERS,
            VTime::from_micros(80),
            &ChaosCfg { events: 10, ..ChaosCfg::default() },
        );
        let mut ctx = AsyncContext::sim(quiet_spec());
        let r = run_sim_chaos_on(&mut ctx, &d, &chaos, BarrierFilter::Asp);
        prop_assert_eq!(r.updates, 80);
        prop_assert!(r.final_objective.is_finite());
        // The ledger balances: every issued task met exactly one fate,
        // nothing is in flight or queued, and every notification was placed.
        let c = ctx.task_counts();
        prop_assert_eq!(c.issued, c.delivered + c.lost + c.drained);
        prop_assert_eq!(ctx.pending(), 0);
        prop_assert!(!ctx.has_next());
        prop_assert_eq!(c.violations, 0);
    }
}

#[test]
fn sim_and_threaded_agree_on_a_fixed_chaos_script() {
    // The same script — kill w1 early, revive it, join a worker — runs on
    // both engines. Completion interleaving differs (real scheduling vs
    // virtual clock), so the iterates differ, but both must converge to
    // the same neighborhood: identical budgets, losses within tolerance.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let baseline = objective.optimum(ParallelismCfg::sequential(), &d).unwrap();
    let f0 = objective.full_objective(ParallelismCfg::sequential(), &d, &vec![0.0; d.cols()]);
    let gap0 = f0 - baseline;
    let chaos = ChaosSchedule::new()
        .kill(VTime::from_micros(100), 1)
        .revive(VTime::from_micros(400), 1)
        .join(VTime::from_micros(700));
    let cfg = SolverCfg {
        step: 0.05,
        batch_fraction: 0.25,
        barrier: BarrierFilter::Asp,
        max_updates: 160,
        seed: 21,
        ..SolverCfg::default()
    };

    let mut sim_ctx = AsyncContext::sim(quiet_spec());
    sim_ctx.driver_mut().install_chaos(&chaos);
    let sim = Asgd::new(objective).run(&mut sim_ctx, &d, &cfg);

    let mut thr_ctx = AsyncContext::threaded(quiet_spec(), 1.0);
    thr_ctx.driver_mut().install_chaos(&chaos);
    let thr = Asgd::new(objective).run(&mut thr_ctx, &d, &cfg);

    assert_eq!(
        sim.updates, thr.updates,
        "same update budget on both engines"
    );
    let sim_gap = sim.final_objective - baseline;
    let thr_gap = thr.final_objective - baseline;
    assert!(
        sim_gap < 0.15 * gap0 && thr_gap < 0.15 * gap0,
        "both engines converge: sim {sim_gap}, threaded {thr_gap}, gap0 {gap0}"
    );
    assert!(
        (sim_gap - thr_gap).abs() <= 0.10 * gap0,
        "final losses agree within tolerance: sim {sim_gap} vs threaded {thr_gap}"
    );
    // Both engines applied the join (the threaded engine applies chaos
    // only when polled, so wait past the horizon and poll once in case
    // the run drained before the join's instant).
    assert_eq!(sim_ctx.workers(), WORKERS + 1);
    std::thread::sleep(std::time::Duration::from_millis(2));
    let _ = thr_ctx.collect_all::<()>();
    assert_eq!(thr_ctx.workers(), WORKERS + 1);
}

//! Cross-process acceptance for the remote engine: every solver runs
//! against real worker OS processes over loopback TCP and must land where
//! the deterministic simulator lands. This mirrors the sim-vs-threaded
//! agreement suite — the simulator stays the byte-gated oracle, and the
//! remote backend has to reproduce its convergence behaviour through the
//! wire protocol (shipped blocks, `WirePlan` model resolution, worker-side
//! minibatch recompute).

use std::sync::Arc;

use async_cluster::{ChaosSchedule, ClusterSpec, CommModel, DelayModel, VDur, VTime};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_linalg::{ParallelismCfg, Quant};
use async_optim::{
    Asaga, Asgd, AsyncMsgd, AsyncSolver, CompressCfg, Objective, RunReport, ScratchPool, SolverCfg,
};
use sparklet::{Driver, EngineBuilder};

const WORKERS: usize = 4;

fn quiet_spec() -> ClusterSpec {
    ClusterSpec::homogeneous(WORKERS, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO)
}

fn dataset() -> Dataset {
    SynthSpec::dense("remote-e2e", 160, 10, 3)
        .generate()
        .unwrap()
        .0
}

/// Runs `solver` on `ctx`: every engine notification must match a task the
/// coordinator knows.
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

fn cfg(max_updates: u64, seed: u64) -> SolverCfg {
    SolverCfg {
        step: 0.04,
        batch_fraction: 0.25,
        barrier: BarrierFilter::Asp,
        max_updates,
        seed,
        ..SolverCfg::default()
    }
}

/// A remote context over real worker processes: the `async_worker` binary
/// built from this crate, one process per worker, loopback TCP.
fn remote_ctx(time_scale: f64, chaos: Option<ChaosSchedule>) -> AsyncContext {
    let mut b = EngineBuilder::remote()
        .spec(quiet_spec())
        .time_scale(time_scale)
        .worker_bin(env!("CARGO_BIN_EXE_async_worker"));
    if let Some(s) = chaos {
        b = b.chaos(s);
    }
    let engine = b.build().expect("spawn workers over loopback TCP");
    AsyncContext::new(Driver::from_engine(engine))
}

#[test]
fn sim_and_remote_agree_on_final_loss_for_every_solver() {
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let baseline = objective.optimum(ParallelismCfg::sequential(), &d).unwrap();
    let f0 = objective.full_objective(ParallelismCfg::sequential(), &d, &vec![0.0; d.cols()]);
    let gap0 = f0 - baseline;
    type SolverFactory = Box<dyn Fn() -> Box<dyn AsyncSolver>>;
    let solvers: Vec<(&str, SolverFactory)> = vec![
        ("asgd", Box::new(move || Box::new(Asgd::new(objective)))),
        ("asaga", Box::new(move || Box::new(Asaga::new(objective)))),
        (
            "async-msgd",
            Box::new(move || Box::new(AsyncMsgd::new(objective).with_momentum(0.5))),
        ),
    ];
    let budget = 150;
    for (name, make) in &solvers {
        let mut sim_ctx = AsyncContext::sim(quiet_spec());
        let sim = run(make().as_mut(), &mut sim_ctx, &d, &cfg(budget, 11));
        let mut rem_ctx = remote_ctx(0.0, None);
        let rem = run(make().as_mut(), &mut rem_ctx, &d, &cfg(budget, 11));
        assert_eq!(sim.updates, budget, "{name}: sim must spend the budget");
        assert_eq!(rem.updates, budget, "{name}: remote must spend the budget");
        let sim_gap = sim.final_objective - baseline;
        let rem_gap = rem.final_objective - baseline;
        // Both engines close the optimality gap, and they agree on where
        // the run lands (stochastic completion orders differ, so exact
        // bit-equality is a sim-only property — agreement is the contract).
        assert!(sim_gap < 0.15 * gap0, "{name}: sim gap {sim_gap} / {gap0}");
        assert!(
            rem_gap < 0.15 * gap0,
            "{name}: remote gap {rem_gap} / {gap0}"
        );
        assert!(
            (sim_gap - rem_gap).abs() <= 0.10 * gap0,
            "{name}: sim gap {sim_gap} and remote gap {rem_gap} disagree (gap0 {gap0})"
        );
    }
}

#[test]
fn remote_chaos_kills_real_processes_and_recovers() {
    // The elastic scenario on real processes: the kill actually terminates
    // worker 1's OS process mid-run (its in-flight task surfaces as a lost
    // completion), the revival spawns a fresh process with a bumped epoch,
    // and the join adds a brand-new worker process.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let baseline = objective.optimum(ParallelismCfg::sequential(), &d).unwrap();
    let f0 = objective.full_objective(ParallelismCfg::sequential(), &d, &vec![0.0; d.cols()]);
    let chaos = ChaosSchedule::new()
        .kill(VTime::from_micros(200), 1)
        .revive(VTime::from_micros(600), 1)
        .join(VTime::from_micros(900));
    let mut ctx = remote_ctx(1.0, Some(chaos));
    let r = run(&mut Asgd::new(objective), &mut ctx, &d, &cfg(200, 17));
    assert_eq!(r.updates, 200, "run survives the kill/revive/join schedule");
    let gap = r.final_objective - baseline;
    assert!(
        gap < 0.2 * (f0 - baseline),
        "chaos run should still converge: gap {gap}"
    );
    // The join took effect: a fifth worker process is part of the cluster.
    // next() does not block on future chaos, so wait past the horizon and
    // poll once in case the run drained before the join's instant.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let _ = ctx.collect_all::<()>();
    assert_eq!(ctx.workers(), WORKERS + 1);
}

#[test]
fn loopback_workers_run_the_full_solver_stack_without_processes() {
    // The loopback transport (worker event loops on in-process threads,
    // same wire protocol) exercises every codec without process spawns —
    // the configuration CI uses where spawning children is restricted.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let baseline = objective.optimum(ParallelismCfg::sequential(), &d).unwrap();
    let f0 = objective.full_objective(ParallelismCfg::sequential(), &d, &vec![0.0; d.cols()]);
    let mut ctx = loopback_ctx(quiet_spec());
    let r = run(&mut Asaga::new(objective), &mut ctx, &d, &cfg(150, 7));
    assert_eq!(r.updates, 150);
    let gap = r.final_objective - baseline;
    assert!(
        gap < 0.15 * (f0 - baseline),
        "loopback ASAGA should converge: gap {gap}"
    );
}

/// A loopback remote context: worker event loops on in-process threads,
/// the same wire protocol as real worker processes.
fn loopback_ctx(spec: ClusterSpec) -> AsyncContext {
    let engine = EngineBuilder::remote()
        .spec(spec)
        .time_scale(0.0)
        .loopback_workers(Arc::new(async_optim::worker_registry))
        .build()
        .expect("loopback workers need no binary");
    AsyncContext::new(Driver::from_engine(engine))
}

#[test]
fn scratch_pool_stays_bounded_over_a_long_remote_run() {
    // On the remote engine gradients are computed worker-side, so the
    // driver recycles one decoded delta per step into a pool nothing ever
    // checks out of. The parked lists must stay bounded by a constant, not
    // grow with the step count (they used to: ~0.5 KB retained per step).
    let d = dataset();
    let spec = ClusterSpec::homogeneous(2, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO);
    let depth_after = |updates: u64| {
        let pool = ScratchPool::new();
        let mut ctx = loopback_ctx(spec.clone());
        let r = Asgd::new(Objective::LeastSquares { lambda: 1e-3 })
            .with_scratch_pool(pool.clone())
            .run(&mut ctx, &d, &cfg(updates, 5));
        assert_eq!(r.updates, updates);
        pool.depth()
    };
    let short = depth_after(500);
    let long = depth_after(10_000);
    assert_eq!(short, long, "pool depth must not depend on the step count");
    let (scratch, sparse, dense) = long;
    assert!(
        scratch.max(sparse).max(dense) <= 64,
        "parked lists exceed the fixed bound: {long:?}"
    );
}

#[test]
fn sparse_ring_run_ships_identical_bytes_on_sim_and_loopback() {
    // The wire-size contract: the simulator charges `encoded_len` of every
    // sparse payload and the remote engine mirrors those charges while
    // shipping the real encodings, so a sparse incremental-broadcast run
    // reports the same traffic on both. One worker and a zero-cost cluster
    // pin the completion order, so the two trajectories are the same run.
    let (d, _) = SynthSpec::sparse("remote-bytes", 256, 5_000, 12, 9)
        .generate()
        .unwrap();
    let spec = ClusterSpec::homogeneous(1, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO);
    let ring_cfg = SolverCfg {
        step: 0.5,
        batch_fraction: 0.1,
        barrier: BarrierFilter::Asp,
        bcast_ring: 8,
        max_updates: 300,
        seed: 23,
        ..SolverCfg::default()
    };
    let objective = Objective::Logistic { lambda: 0.0 };
    let mut sim_ctx = AsyncContext::sim(spec.clone());
    let sim = Asgd::new(objective).run(&mut sim_ctx, &d, &ring_cfg);
    let mut rem_ctx = loopback_ctx(spec);
    let rem = Asgd::new(objective).run(&mut rem_ctx, &d, &ring_cfg);
    assert_eq!((sim.updates, rem.updates), (300, 300));
    assert_eq!(sim.final_objective.to_bits(), rem.final_objective.to_bits());
    assert_eq!(sim.bytes_shipped, rem.bytes_shipped);
    assert_eq!(sim.result_bytes, rem.result_bytes);
    assert!(sim.result_bytes > 0 && sim.bytes_shipped > sim.result_bytes);
}

#[test]
fn every_task_body_and_resolve_path_is_bit_identical_on_sim_and_loopback() {
    // The contract of the shared task bodies and the shared resolve
    // decision, as one table: the same pinned-worker drill as the test
    // above, over every routine (gradient, SAGA difference), both storages,
    // both compressor paths and both resolve paths (plain fetch, exact and
    // quantized ring patches). A row that drifts is a twin that diverged.
    let dense = dataset();
    let (csr, _) = SynthSpec::sparse("remote-parity", 256, 2_000, 12, 9)
        .generate()
        .unwrap();
    let ridge = Objective::LeastSquares { lambda: 1e-3 };
    let logistic = Objective::Logistic { lambda: 0.0 };
    let asgd = |o| Box::new(Asgd::new(o)) as Box<dyn AsyncSolver>;
    let msgd = |o| Box::new(AsyncMsgd::new(o).with_momentum(0.5)) as Box<dyn AsyncSolver>;
    let asaga = |o| Box::new(Asaga::new(o)) as Box<dyn AsyncSolver>;
    let base = || cfg(200, 23);
    let topk = |k, quant| CompressCfg::TopK { k, quant };
    type Make = dyn Fn(Objective) -> Box<dyn AsyncSolver>;
    let rows: [(&str, &Dataset, Objective, &Make, SolverCfg); 6] = [
        ("asgd dense", &dense, ridge, &asgd, base()),
        ("msgd dense", &dense, ridge, &msgd, base()),
        ("asaga dense", &dense, ridge, &asaga, base()),
        (
            "asaga csr",
            &csr,
            logistic,
            &asaga,
            SolverCfg {
                step: 0.5,
                batch_fraction: 0.1,
                ..base()
            },
        ),
        (
            "asgd dense + top-k i8",
            &dense,
            ridge,
            &asgd,
            SolverCfg {
                compress: topk(4, Quant::I8),
                ..base()
            },
        ),
        (
            "asgd csr + ring + top-k i8 (quantized patches)",
            &csr,
            logistic,
            &asgd,
            SolverCfg {
                step: 0.5,
                batch_fraction: 0.1,
                bcast_ring: 8,
                compress: topk(32, Quant::I8),
                ..base()
            },
        ),
    ];
    let spec = ClusterSpec::homogeneous(1, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO);
    for (name, d, objective, make, cfg) in rows {
        let sim = make(objective).run(&mut AsyncContext::sim(spec.clone()), d, &cfg);
        let rem = make(objective).run(&mut loopback_ctx(spec.clone()), d, &cfg);
        assert_eq!((sim.updates, rem.updates), (200, 200), "{name}");
        assert_eq!(
            sim.final_objective.to_bits(),
            rem.final_objective.to_bits(),
            "{name}: {} vs {}",
            sim.final_objective,
            rem.final_objective
        );
        assert_eq!(sim.bytes_shipped, rem.bytes_shipped, "{name}");
        assert_eq!(sim.result_bytes, rem.result_bytes, "{name}");
    }
}

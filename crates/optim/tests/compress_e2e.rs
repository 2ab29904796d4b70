//! Convergence acceptance for compressed communication: a reusable
//! {solver × barrier × compression} grid on the deterministic simulator,
//! the error-feedback telescoping identity, the lossless-passthrough
//! bit-identity contract, and one remote arm proving quantized frames
//! cross real process boundaries.

use async_cluster::{ChaosSchedule, ClusterSpec, CommModel, DelayModel, VDur, VTime};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_linalg::{ParallelismCfg, Quant};
use async_optim::{
    Asaga, Asgd, AsyncMsgd, AsyncSolver, CompressCfg, CompressorBank, Objective, RunReport,
    SolverCfg,
};
use sparklet::{Driver, EngineBuilder};

const WORKERS: usize = 4;

fn quiet_spec() -> ClusterSpec {
    ClusterSpec::homogeneous(WORKERS, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO)
}

fn dataset() -> Dataset {
    SynthSpec::dense("compress-e2e", 160, 10, 3)
        .generate()
        .unwrap()
        .0
}

fn cfg(barrier: BarrierFilter, compress: CompressCfg) -> SolverCfg {
    SolverCfg {
        step: 0.04,
        batch_fraction: 0.25,
        barrier,
        max_updates: 150,
        seed: 11,
        compress,
        ..SolverCfg::default()
    }
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

/// Runs one `(solver, barrier, compression)` cell on the simulator.
fn run_sim(make: &SolverFactory, barrier: BarrierFilter, compress: CompressCfg) -> RunReport {
    let d = dataset();
    let mut ctx = AsyncContext::sim(quiet_spec());
    make().run(&mut ctx, &d, &cfg(barrier, compress))
}

/// The reusable convergence grid: every cell must spend its full update
/// budget and close the optimality gap, and each compressed cell must land
/// within tolerance of its uncompressed twin. Returns the per-cell gaps
/// for callers that assert more.
fn assert_convergence_grid(
    objective: Objective,
    barriers: &[(&str, BarrierFilter)],
    levels: &[(&str, CompressCfg)],
    gap_frac: f64,
    agree_frac: f64,
) {
    let d = dataset();
    let baseline = objective.optimum(ParallelismCfg::sequential(), &d).unwrap();
    let f0 = objective.full_objective(ParallelismCfg::sequential(), &d, &vec![0.0; d.cols()]);
    let gap0 = f0 - baseline;
    for (sname, make) in &solvers(objective) {
        for (bname, barrier) in barriers {
            let mut off_gap = None;
            for (lname, compress) in levels {
                let r = run_sim(make, barrier.clone(), *compress);
                let cell = format!("{sname}/{bname}/{lname}");
                assert_eq!(r.updates, 150, "{cell}: must spend the update budget");
                let gap = r.final_objective - baseline;
                assert!(gap < gap_frac * gap0, "{cell}: gap {gap} vs initial {gap0}");
                match off_gap {
                    // The first level of every grid row is the
                    // uncompressed reference.
                    None => {
                        assert!(compress.is_off(), "grid rows must start with Off");
                        off_gap = Some(gap);
                    }
                    Some(off) => assert!(
                        (gap - off).abs() <= agree_frac * gap0,
                        "{cell}: compressed gap {gap} vs uncompressed {off} (gap0 {gap0})"
                    ),
                }
            }
        }
    }
}

#[test]
fn compression_grid_converges_within_tolerance_of_uncompressed() {
    let barriers: &[(&str, BarrierFilter)] = &[
        ("asp", BarrierFilter::Asp),
        ("bsp", BarrierFilter::Bsp),
        ("ssp", BarrierFilter::Ssp { slack: 2 }),
    ];
    let levels: &[(&str, CompressCfg)] = &[
        ("off", CompressCfg::Off),
        (
            "topk",
            CompressCfg::TopK {
                k: 4,
                quant: Quant::Exact,
            },
        ),
        (
            "topk-i8",
            CompressCfg::TopK {
                k: 4,
                quant: Quant::I8,
            },
        ),
    ];
    assert_convergence_grid(
        Objective::LeastSquares { lambda: 0.0 },
        barriers,
        levels,
        0.25,
        0.15,
    );
}

#[test]
fn lossless_passthrough_is_bit_identical_to_off() {
    // k = usize::MAX with exact values ships every coordinate of every
    // delta: the residual never holds anything and the server must see
    // bit-for-bit the arithmetic it sees with compression off. The
    // supported configuration is the sparse fast path with λ = 0 —
    // exactly what `SolverCfg::lint` steers to. (The dense apply kernels
    // fuse their term sums, so re-expressing a *dense* delta as sparse
    // shifts results by ulps; compression always ships sparse.)
    let (d, _) = SynthSpec::sparse("compress-passthrough", 160, 400, 12, 7)
        .generate()
        .unwrap();
    let objective = Objective::LeastSquares { lambda: 0.0 };
    let passthrough = CompressCfg::TopK {
        k: usize::MAX,
        quant: Quant::Exact,
    };
    let run = |make: &SolverFactory, compress: CompressCfg| {
        let mut ctx = AsyncContext::sim(quiet_spec());
        make().run(&mut ctx, &d, &cfg(BarrierFilter::Asp, compress))
    };
    for (name, make) in &solvers(objective) {
        let off = run(make, CompressCfg::Off);
        let on = run(make, passthrough);
        assert_eq!(
            off.final_objective.to_bits(),
            on.final_objective.to_bits(),
            "{name}: passthrough changed the final objective"
        );
        for (i, (a, b)) in off.final_w.iter().zip(on.final_w.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name}: passthrough changed w[{i}]: {a} vs {b}"
            );
        }
        assert_eq!(off.updates, on.updates, "{name}: update counts diverged");
    }
}

#[test]
fn error_feedback_telescopes_exactly_for_every_solver() {
    // The invariant that makes top-k lossy-but-unbiased-in-the-limit:
    // everything ever dropped is still in the residual, so per coordinate
    // Σ raw = Σ shipped + residual up to f64 accumulation error.
    let objective = Objective::LeastSquares { lambda: 0.0 };
    let compress = CompressCfg::TopK {
        k: 3,
        quant: Quant::I8,
    };
    let d = dataset();
    type BankedFactory = Box<dyn Fn(CompressorBank) -> Box<dyn AsyncSolver>>;
    let banked: Vec<(&str, BankedFactory)> = vec![
        (
            "asgd",
            Box::new(move |b| Box::new(Asgd::new(objective).with_compressor_bank(b))),
        ),
        (
            "asaga",
            Box::new(move |b| Box::new(Asaga::new(objective).with_compressor_bank(b))),
        ),
        (
            "async-msgd",
            Box::new(move |b| {
                Box::new(
                    AsyncMsgd::new(objective)
                        .with_momentum(0.5)
                        .with_compressor_bank(b),
                )
            }),
        ),
    ];
    for (name, make) in &banked {
        let bank = CompressorBank::with_tracking();
        let mut ctx = AsyncContext::sim(quiet_spec());
        let r = make(bank.clone()).run(&mut ctx, &d, &cfg(BarrierFilter::Asp, compress));
        assert_eq!(r.updates, 150, "{name}: must spend the update budget");
        let parts = bank.parts();
        assert!(!parts.is_empty(), "{name}: no partition ever compressed");
        for part in parts {
            bank.with_part(part, |ef| {
                let (raw, shipped) = ef.tracking().expect("bank was built tracking");
                let residual = ef.residual();
                for i in 0..raw.len() {
                    let drift = (raw[i] - (shipped[i] + residual[i])).abs();
                    assert!(
                        drift <= 1e-9,
                        "{name}: part {part} coordinate {i} telescoping drift {drift}"
                    );
                }
            })
            .expect("partition state exists");
        }
    }
}

#[test]
fn quantized_frames_cross_real_process_boundaries() {
    // One remote arm: the same compressed configuration runs on real
    // worker processes over loopback TCP, so CompressedDelta frames and
    // worker-side error-feedback state are exercised end to end. The
    // stochastic completion order differs from the simulator's, so the
    // contract is final-loss agreement, not bit-equality.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 0.0 };
    let baseline = objective.optimum(ParallelismCfg::sequential(), &d).unwrap();
    let f0 = objective.full_objective(ParallelismCfg::sequential(), &d, &vec![0.0; d.cols()]);
    let gap0 = f0 - baseline;
    let compress = CompressCfg::TopK {
        k: 4,
        quant: Quant::I8,
    };

    let mut sim_ctx = AsyncContext::sim(quiet_spec());
    let sim = Asgd::new(objective).run(&mut sim_ctx, &d, &cfg(BarrierFilter::Asp, compress));

    let engine = EngineBuilder::remote()
        .spec(quiet_spec())
        .time_scale(0.0)
        .worker_bin(env!("CARGO_BIN_EXE_async_worker"))
        .build()
        .expect("spawn workers over loopback TCP");
    let mut rem_ctx = AsyncContext::new(Driver::from_engine(engine));
    let rem = Asgd::new(objective).run(&mut rem_ctx, &d, &cfg(BarrierFilter::Asp, compress));

    assert_eq!(sim.updates, 150, "sim must spend the budget");
    assert_eq!(rem.updates, 150, "remote must spend the budget");
    let sim_gap = sim.final_objective - baseline;
    let rem_gap = rem.final_objective - baseline;
    assert!(sim_gap < 0.25 * gap0, "sim gap {sim_gap} / {gap0}");
    assert!(rem_gap < 0.25 * gap0, "remote gap {rem_gap} / {gap0}");
    assert!(
        (sim_gap - rem_gap).abs() <= 0.10 * gap0,
        "sim gap {sim_gap} and remote gap {rem_gap} disagree (gap0 {gap0})"
    );
    // Compression actually engaged on the wire: 150 tasks of a dense
    // 10-dim objective would ship ≥ 97 bytes each uncompressed; the top-4
    // i8 frame is 45 bytes.
    assert!(
        rem.result_bytes < 150 * 97,
        "remote result bytes {} look uncompressed",
        rem.result_bytes
    );
}

#[test]
fn compressor_bank_stays_bounded_under_churn_and_prunes_on_reuse() {
    // The churn leak regression: under a long kill/revive/join schedule,
    // dead workers' partitions are re-dealt over the alive set and a
    // joined worker (id past the starting cluster size) starts pulling
    // tasks, yet every task is keyed by its rdd partition — so the bank's
    // error-feedback map must never exceed the run's partition universe no
    // matter how the membership thrashes. Partitions are pinned explicitly
    // because the sim assigns join ids at scheduling time, which would
    // otherwise grow the default (= worker count) universe.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 0.0 };
    let compress = CompressCfg::TopK {
        k: 4,
        quant: Quant::I8,
    };
    let bank = CompressorBank::new();
    let mut ctx = AsyncContext::sim(quiet_spec());
    let chaos = ChaosSchedule::pcs_churn(5, WORKERS, VTime::from_micros(150));
    ctx.driver_mut().install_chaos(&chaos);
    let mut churned = cfg(BarrierFilter::Asp, compress);
    churned.partitions = WORKERS;
    let r = Asgd::new(objective)
        .with_compressor_bank(bank.clone())
        .run(&mut ctx, &d, &churned);
    assert_eq!(r.updates, 150, "churn run must spend the budget");
    assert!(
        bank.len() <= WORKERS,
        "bank grew past the partition universe: {} parts for {} partitions",
        bank.len(),
        WORKERS
    );
    assert!(bank.parts().iter().all(|&p| p < WORKERS));
    assert_eq!(bank.rejected_frames(), 0, "finite deltas never reject");

    // Reusing the bank on a smaller partition universe prunes the
    // stragglers at run start instead of accreting them forever.
    let before = bank.len();
    let mut ctx2 = AsyncContext::sim(quiet_spec());
    let mut small = cfg(BarrierFilter::Asp, compress);
    small.partitions = 2;
    let r2 = Asgd::new(objective)
        .with_compressor_bank(bank.clone())
        .run(&mut ctx2, &d, &small);
    assert_eq!(r2.updates, 150);
    assert!(
        bank.len() <= 2,
        "rerun with 2 partitions must prune the {before}-part bank down, got {}",
        bank.len()
    );
}

//! What the one server loop owns, asserted once for every update rule:
//! resume precedence and the lineage budget, checkpoint lineage, the final
//! durable generation, serving hand-off, compressor residual restoration —
//! and configuration errors that come back as values instead of panics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use async_cluster::{ClusterSpec, CommModel, DelayModel, VDur};
use async_core::{AsyncContext, BarrierFilter, SubmitOpts};
use async_data::{Dataset, SynthSpec};
use async_linalg::Quant;
use async_optim::{
    Asaga, Asgd, AsyncMsgd, AsyncSolver, Checkpoint, CheckpointError, CheckpointStore, CompressCfg,
    CompressorBank, Objective, RunReport, ServeFeed, SolverCfg, SolverCfgError, SolverError,
    SolverHistory,
};
use sparklet::{Rdd, WorkerCtx};

const WORKERS: usize = 4;
const HALF: u64 = 16;
const FULL: u64 = 32;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("async-loop-e2e-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sim_ctx() -> AsyncContext {
    AsyncContext::sim(
        ClusterSpec::homogeneous(WORKERS, DelayModel::None)
            .with_comm(CommModel::free())
            .with_sched_overhead(VDur::ZERO),
    )
}

fn dataset() -> Dataset {
    SynthSpec::dense("loop-e2e", 240, 12, 7)
        .generate()
        .unwrap()
        .0
}

/// BSP waves of `WORKERS` tasks keep every multiple-of-8 checkpoint on a
/// round boundary — the consistent cut bit-identical resumption needs.
/// Top-k compression keeps error-feedback residuals in play.
fn cfg(max_updates: u64, durable_dir: Option<&Path>) -> SolverCfg {
    SolverCfg {
        step: 0.04,
        batch_fraction: 0.25,
        barrier: BarrierFilter::Bsp,
        max_updates,
        checkpoint_every: 8,
        seed: 17,
        compress: CompressCfg::TopK {
            k: 3,
            quant: Quant::Exact,
        },
        serve_feed: Some(ServeFeed::new()),
        durable_dir: durable_dir.map(Path::to_path_buf),
        ..SolverCfg::default()
    }
}

/// Runs on a fresh context; every run must hand its serving feed off.
fn run(solver: &mut dyn AsyncSolver, d: &Dataset, c: &SolverCfg) -> RunReport {
    let r = solver.run(&mut sim_ctx(), d, c);
    assert!(c.serve_feed.as_ref().unwrap().is_done(), "feed marked done");
    r
}

fn stored(dir: &Path, generation: u64) -> Checkpoint {
    let store = CheckpointStore::open(dir).unwrap();
    let bytes = store.read(generation).expect("a valid generation");
    let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
    assert_eq!(ckpt.updates, generation, "a generation is its update count");
    ckpt
}

/// `(updates, version)` of every checkpoint a run that started at lineage
/// count `from` left in `dir`.
fn lineage(dir: &Path, from: u64) -> Vec<(u64, u64)> {
    let gens = CheckpointStore::open(dir).unwrap().generations().unwrap();
    gens.into_iter()
        .filter(|&g| g > from)
        .map(|g| (g, stored(dir, g).version))
        .collect()
}

fn newest(dir: &Path) -> (u64, Checkpoint) {
    let store = CheckpointStore::open(dir).unwrap();
    let (generation, bytes) = store.latest_valid().expect("a valid generation");
    (generation, Checkpoint::from_bytes(&bytes).unwrap())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

type Make = Box<dyn Fn(Option<Checkpoint>, CompressorBank) -> Box<dyn AsyncSolver>>;

fn with_resume<S>(solver: S, resume: fn(S, Checkpoint) -> S, ckpt: Option<Checkpoint>) -> S {
    match ckpt {
        Some(ckpt) => resume(solver, ckpt),
        None => solver,
    }
}

/// Every rule, built with an optional explicit resume point and an
/// injected compressor bank; the flag says whether a resumed trajectory is
/// bit-identical to the uninterrupted one (ASAGA re-bases its table).
fn rules(objective: Objective) -> Vec<(&'static str, bool, Make)> {
    vec![
        (
            "asgd",
            true,
            Box::new(move |ckpt, bank| {
                let s = Asgd::new(objective).with_compressor_bank(bank);
                Box::new(with_resume(s, Asgd::resume_from, ckpt))
            }),
        ),
        (
            "async-msgd",
            true,
            Box::new(move |ckpt, bank| {
                let s = AsyncMsgd::new(objective)
                    .with_momentum(0.5)
                    .with_compressor_bank(bank);
                Box::new(with_resume(s, AsyncMsgd::resume_from, ckpt))
            }),
        ),
        (
            "asaga",
            false,
            Box::new(move |ckpt, bank| {
                let s = Asaga::new(objective).with_compressor_bank(bank);
                Box::new(with_resume(s, Asaga::resume_from, ckpt))
            }),
        ),
    ]
}

#[test]
fn the_loop_owns_budget_lineage_durability_serving_and_residuals_for_every_rule() {
    let d = dataset();
    let nobody = || BarrierFilter::custom(|_, _| false);
    for (name, exact_resume, make) in rules(Objective::LeastSquares { lambda: 1e-3 }) {
        // Cold start: the whole budget, a checkpoint per cadence boundary
        // (one version per update), the last one also the newest durable
        // generation; an injected bank that admits no task stays empty.
        let cold_dir = scratch_dir(name);
        let cold = run(
            make(None, CompressorBank::new()).as_mut(),
            &d,
            &cfg(FULL, Some(&cold_dir)),
        );
        assert_eq!(cold.updates, FULL, "{name} cold");
        assert_eq!(
            lineage(&cold_dir, 0),
            [(8, 8), (16, 16), (24, 24), (32, 32)],
            "{name} cold"
        );
        assert_eq!(cold.durable.resumed_from, None, "{name} cold");
        assert_eq!(newest(&cold_dir).0, FULL, "{name} cold");
        let bank = CompressorBank::new();
        let idle = SolverCfg {
            barrier: nobody(),
            ..cfg(FULL, None)
        };
        assert_eq!(run(make(None, bank.clone()).as_mut(), &d, &idle).updates, 0);
        assert!(bank.is_empty(), "{name} cold: nothing to restore");

        // Explicit resume, beside a store holding another lineage: the
        // explicit checkpoint wins, `max_updates` is a fresh budget, and
        // checkpoints and generations continue the checkpoint's count.
        let at_half = stored(&cold_dir, HALF);
        let residuals = at_half.residuals.clone().expect("captured residuals");
        assert!(residuals.iter().any(|(_, r)| r.iter().any(|&x| x != 0.0)));
        let other_dir = scratch_dir(name);
        run(
            make(None, CompressorBank::new()).as_mut(),
            &d,
            &cfg(8, Some(&other_dir)),
        );
        let explicit = run(
            make(Some(at_half.clone()), CompressorBank::new()).as_mut(),
            &d,
            &cfg(HALF, Some(&other_dir)),
        );
        assert_eq!(explicit.updates, HALF, "{name} explicit: fresh budget");
        assert_eq!(
            lineage(&other_dir, HALF),
            [(24, 24), (32, 32)],
            "{name} explicit"
        );
        assert_eq!(explicit.durable.resumed_from, None, "{name} explicit");
        assert_eq!(newest(&other_dir).0, HALF + explicit.updates, "{name}");
        let bank = CompressorBank::new();
        run(
            make(Some(at_half), bank.clone()).as_mut(),
            &d,
            &SolverCfg {
                barrier: nobody(),
                ..cfg(HALF, None)
            },
        );
        assert_eq!(bank.export_residuals(), residuals, "{name} explicit");

        // Durable auto-resume: the store's newest generation seeds the run
        // and only the lineage's remaining budget is spent.
        let dir = scratch_dir(name);
        run(
            make(None, CompressorBank::new()).as_mut(),
            &d,
            &cfg(HALF, Some(&dir)),
        );
        let auto = run(
            make(None, CompressorBank::new()).as_mut(),
            &d,
            &cfg(FULL, Some(&dir)),
        );
        assert_eq!(auto.updates, FULL - HALF, "{name} auto: remaining budget");
        assert_eq!(lineage(&dir, HALF), [(24, 24), (32, 32)], "{name} auto");
        assert_eq!(auto.durable.resumed_from, Some(HALF), "{name} auto");
        let (generation, last) = newest(&dir);
        assert_eq!(generation, HALF + auto.updates, "{name} auto");
        let bank = CompressorBank::new();
        let spent = run(
            make(None, bank.clone()).as_mut(),
            &d,
            &SolverCfg {
                barrier: nobody(),
                ..cfg(FULL, Some(&dir))
            },
        );
        assert_eq!(spent.updates, 0, "{name} auto: lineage budget is spent");
        assert_eq!(Some(bank.export_residuals()), last.residuals, "{name} auto");

        // Version re-seating plus residual restoration is what makes a
        // resumed trajectory the uninterrupted one.
        for resumed in [&explicit, &auto] {
            assert!(resumed.final_objective.is_finite());
            if exact_resume {
                assert_eq!(bits(&resumed.final_w), bits(&cold.final_w), "{name}");
            }
        }
        for dir in [cold_dir, other_dir, dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn refusal(r: Result<RunReport, SolverError>) -> SolverError {
    r.expect_err("the run must be refused")
}

#[test]
fn configuration_errors_come_back_from_try_run() {
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let plain = SolverCfg {
        max_updates: 8,
        ..SolverCfg::default()
    };
    let momentum = |solver: &str| Checkpoint {
        solver: solver.into(),
        updates: 5,
        version: 5,
        w: vec![0.0; d.cols()],
        history: SolverHistory::Momentum(vec![0.0; d.cols()]),
        residuals: None,
    };
    let mut ctx = sim_ctx();

    // A momentum checkpoint cannot seed ASGD: it names another solver...
    let e = refusal(
        Asgd::new(objective)
            .resume_from(momentum("async-msgd"))
            .try_run(&mut ctx, &d, &plain),
    );
    assert!(matches!(
        e,
        SolverError::Checkpoint {
            solver: "asgd",
            source: CheckpointError::SolverMismatch { .. }
        }
    ));
    assert!(e.to_string().contains("incompatible resume checkpoint"));
    // ...and relabelled it still carries a history ASGD does not have,
    let e = refusal(
        Asgd::new(objective)
            .resume_from(momentum("asgd"))
            .try_run(&mut ctx, &d, &plain),
    );
    assert!(matches!(
        e,
        SolverError::Checkpoint {
            source: CheckpointError::HistoryMismatch { .. },
            ..
        }
    ));
    // as MSGD refuses a velocity of the wrong dimension.
    let mut short = momentum("async-msgd");
    short.history = SolverHistory::Momentum(vec![0.0; d.cols() - 1]);
    let e = refusal(
        AsyncMsgd::new(objective)
            .resume_from(short)
            .try_run(&mut ctx, &d, &plain),
    );
    assert!(e.to_string().contains("incompatible resume checkpoint"));

    // A durable_dir that is a regular file is not a store.
    let file = scratch_dir("not-a-dir");
    std::fs::write(&file, b"occupied").unwrap();
    let blocked = SolverCfg {
        durable_dir: Some(file.clone()),
        ..plain.clone()
    };
    for solver in [
        &mut Asgd::new(objective) as &mut dyn AsyncSolver,
        &mut AsyncMsgd::new(objective),
        &mut Asaga::new(objective),
    ] {
        let e = refusal(solver.try_run(&mut ctx, &d, &blocked));
        assert!(matches!(e, SolverError::Store { .. }), "{e}");
    }
    let _ = std::fs::remove_file(file);

    // A configuration that contradicts itself is refused before the first
    // task is built (a top-0 compressor used to panic inside it).
    let top0 = CompressCfg::TopK {
        k: 0,
        quant: Quant::Exact,
    };
    let contradictions = [
        (
            SolverCfg {
                compress: top0,
                ..plain.clone()
            },
            SolverCfgError::ZeroTopK,
        ),
        (
            SolverCfg {
                batch_fraction: 0.0,
                ..plain.clone()
            },
            SolverCfgError::BatchFraction(0.0),
        ),
        (
            SolverCfg {
                absorb_batch: 0,
                ..plain.clone()
            },
            SolverCfgError::ZeroAbsorbBatch,
        ),
        (
            SolverCfg {
                server_threads: 0,
                ..plain.clone()
            },
            SolverCfgError::ZeroServerThreads,
        ),
    ];
    for (bad, why) in contradictions {
        let e = refusal(Asgd::new(objective).try_run(&mut ctx, &d, &bad));
        assert!(
            matches!(&e, SolverError::Cfg { solver: "asgd", source } if *source == why),
            "{e}"
        );
        assert!(e.to_string().contains("invalid configuration"));
    }

    // A refused run left the context untouched, so it still runs...
    assert_eq!((ctx.version(), ctx.pending()), (0, 0));
    let ok = Asgd::new(objective).try_run(&mut ctx, &d, &plain).unwrap();
    assert_eq!(ok.updates, 8);
    // ...but not while someone else's tasks are in flight.
    let rdd = Rdd::parallelize((0..WORKERS).map(|i| vec![i]).collect());
    let task = |_: &mut WorkerCtx, _: Vec<usize>, part: usize| part;
    ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), task);
    let e = refusal(Asgd::new(objective).try_run(&mut ctx, &d, &plain));
    assert!(
        matches!(e, SolverError::BusyContext { pending: 4, .. }),
        "{e}"
    );
}

/// The hot-path options under genuinely concurrent workers: the
/// incremental ring, the shared `CompressorBank` and the sharded/batched
/// server each take a lock or a pool that the simulator (one thread) never
/// contends. Completion order is the host's, so the contract is the
/// budget, no loss, a drained context, and final-loss agreement with the
/// same cell on the simulator — not bit-equality. SSP, not ASP: on a busy
/// host ASP lets one scheduled thread take most of the budget, and a model
/// trained on one partition of this data misses the simulator's loss by
/// several tolerances (0.49 against 0.17 seen under four CPU hogs); slack 2
/// keeps the partitions' shares even whatever the host does, and the four
/// threads still run and collide for real.
#[test]
fn hot_path_options_complete_on_real_threads() {
    // λ = 0 sparse logistic: the workload whose change supports stay
    // sparse, which is what the ring and top-k compression are for.
    let d = SynthSpec::sparse("hot-path-threads", 256, 4_096, 20, 2026)
        .generate_classification()
        .unwrap()
        .0;
    let spec = || {
        ClusterSpec::homogeneous(WORKERS, DelayModel::None)
            .with_comm(CommModel::free())
            .with_sched_overhead(VDur::ZERO)
    };
    let f0 = std::f64::consts::LN_2;
    let topk_i8 = CompressCfg::TopK {
        k: 32,
        quant: Quant::I8,
    };
    for bcast_ring in [0, 16] {
        for compress in [CompressCfg::Off, topk_i8] {
            for (server_threads, absorb_batch) in [(1, 1), (4, 4)] {
                let cell =
                    format!("ring {bcast_ring}, {compress:?}, {server_threads}x{absorb_batch}");
                let c = SolverCfg {
                    step: 0.5,
                    batch_fraction: 0.1,
                    barrier: BarrierFilter::Ssp { slack: 2 },
                    max_updates: 60,
                    eval_every: 0,
                    seed: 2026,
                    bcast_ring,
                    compress,
                    server_threads,
                    absorb_batch,
                    ..SolverCfg::default()
                };
                let solver = || Asgd::new(Objective::Logistic { lambda: 0.0 });
                let sim = solver().run(&mut AsyncContext::sim(spec()), &d, &c);
                let mut ctx = AsyncContext::threaded(spec(), 0.0);
                let real = solver().run(&mut ctx, &d, &c);
                assert_eq!(real.updates, 60, "{cell}: must spend the budget");
                assert_eq!(real.lost_tasks, 0, "{cell}");
                assert_eq!(ctx.pending(), 0, "{cell}: context drained");
                assert!(real.final_objective < f0, "{cell}: no progress");
                // compress_e2e's sim-vs-remote tolerance: a tenth of the
                // closable gap (a logistic loss is bounded below by 0).
                assert!(
                    (real.final_objective - sim.final_objective).abs() <= 0.10 * f0,
                    "{cell}: threads {} vs simulator {}",
                    real.final_objective,
                    sim.final_objective
                );
            }
        }
    }
}

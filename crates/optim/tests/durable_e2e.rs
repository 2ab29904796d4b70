//! End-to-end durability: kill-the-driver-and-resume runs over the
//! crash-consistent checkpoint store.
//!
//! The headline contract: an ASGD run that "crashes" (stops at a cadence
//! boundary) and auto-resumes from its durable store finishes **bit
//! identically** to an uninterrupted run of the same total budget — model
//! version numbering, per-task RNG streams, and error-feedback residuals
//! all re-seat exactly. Recovery also survives torn and bit-rotted
//! generations (falling back to the newest valid one, which moves the cut
//! earlier but keeps the bits exact), and the full
//! {ASGD, ASAGA, MSGD} × {ASP, BSP, SSP} grid resumes and descends under
//! worker chaos.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use async_cluster::{ChaosSchedule, ClusterSpec, CommModel, DelayModel, VDur, VTime};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_linalg::{ParallelismCfg, Quant};
use async_optim::{
    Asaga, Asgd, AsyncMsgd, AsyncSolver, Checkpoint, CheckpointError, CheckpointStore, CompressCfg,
    DiskFault, DiskFaultPlan, Objective, RunReport, ServeFeed, SolverCfg, SolverError,
    SolverHistory,
};

const WORKERS: usize = 4;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "async-durable-e2e-{tag}-{}-{n}",
        std::process::id()
    ));
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
    SynthSpec::dense("durable-e2e", 240, 12, 7)
        .generate()
        .unwrap()
        .0
}

fn cfg(max_updates: u64) -> SolverCfg {
    SolverCfg {
        step: 0.04,
        batch_fraction: 0.25,
        // BSP waves of `WORKERS` tasks keep a `checkpoint_every` that is a
        // multiple of the worker count on round boundaries — the
        // consistent cut the bit-identity contract needs.
        barrier: BarrierFilter::Bsp,
        max_updates,
        checkpoint_every: 8,
        seed: 17,
        ..SolverCfg::default()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn run_asgd(objective: Objective, d: &Dataset, c: &SolverCfg) -> RunReport {
    let mut ctx = sim_ctx();
    Asgd::new(objective).run(&mut ctx, d, c)
}

/// One interrupted-and-resumed ASGD lineage against its uninterrupted
/// twin, parameterized over the compression arm (the compressor's
/// error-feedback residuals are part of the crash state).
fn assert_resume_bit_identical(tag: &str, compress: CompressCfg, lambda: f64) {
    let d = dataset();
    let objective = Objective::LeastSquares { lambda };
    let dir = scratch_dir(tag);

    let uninterrupted = run_asgd(
        objective,
        &d,
        &SolverCfg {
            compress,
            ..cfg(64)
        },
    );

    // "Crash" at update 40: the driver stops after a cadence save and the
    // process is gone — everything the resumed run knows is on disk.
    let crashed = run_asgd(
        objective,
        &d,
        &SolverCfg {
            compress,
            durable_dir: Some(dir.clone()),
            ..cfg(40)
        },
    );
    assert_eq!(crashed.updates, 40);
    assert_eq!(crashed.durable.resumed_from, None);
    // Cadence saves at lineage 8, 16, 24, 32, 40; the final save lands on
    // the 40 boundary and deduplicates.
    assert_eq!(crashed.durable.store.saves_ok, 5);
    assert_eq!(crashed.durable.store.saves_failed, 0);
    assert!(crashed.durable.store.bytes_written > 0);

    // A brand-new driver process: fresh solver, fresh context, same store.
    let resumed = run_asgd(
        objective,
        &d,
        &SolverCfg {
            compress,
            durable_dir: Some(dir.clone()),
            ..cfg(64)
        },
    );
    assert_eq!(resumed.durable.resumed_from, Some(40), "{tag}");
    // The lineage budget: 24 updates complete the crashed run's 64.
    assert_eq!(resumed.updates, 24, "{tag}");
    assert_eq!(
        bits(&resumed.final_w),
        bits(&uninterrupted.final_w),
        "{tag}: resumed run must finish bit-identically to the uninterrupted one"
    );
    assert_eq!(
        resumed.final_objective.to_bits(),
        uninterrupted.final_objective.to_bits(),
        "{tag}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_is_bit_identical_to_an_uninterrupted_run() {
    assert_resume_bit_identical("plain", CompressCfg::Off, 1e-3);
}

#[test]
fn kill_and_resume_with_top_k_restores_residuals_bit_identically() {
    // The compressed arm: the error-feedback residuals at the cut are part
    // of the crash state — a cold compressor would diverge immediately.
    assert_resume_bit_identical(
        "topk",
        CompressCfg::TopK {
            k: 6,
            quant: Quant::Exact,
        },
        0.0,
    );
}

#[test]
fn torn_and_rotted_generations_fall_back_to_the_newest_valid_cut() {
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let dir = scratch_dir("fallback");

    let uninterrupted = run_asgd(objective, &d, &cfg(64));
    let crashed = run_asgd(
        objective,
        &d,
        &SolverCfg {
            durable_dir: Some(dir.clone()),
            ..cfg(40)
        },
    );
    assert_eq!(crashed.updates, 40);

    // Disk havoc after the crash: a torn write lands a half-baked newer
    // generation (rename durability without data durability), and the
    // last good generation bit-rots on the platter.
    let mut store = CheckpointStore::open(&dir)
        .unwrap()
        .with_fault_plan(DiskFaultPlan::scripted(&[(
            0,
            DiskFault::TornWrite { keep_bytes: 9 },
        )]));
    store.save(48, &vec![0xAB; 512]).unwrap();
    let gen40 = dir.join("gen-000000000040.ckpt");
    let mut payload = std::fs::read(&gen40).unwrap();
    payload[21] ^= 0x40;
    std::fs::write(&gen40, payload).unwrap();

    // Recovery skips gen 48 (torn) and gen 40 (checksum), landing on 32.
    let store = CheckpointStore::open(&dir).unwrap();
    assert_eq!(store.latest_valid().map(|(g, _)| g), Some(32));

    let resumed = run_asgd(
        objective,
        &d,
        &SolverCfg {
            durable_dir: Some(dir.clone()),
            ..cfg(64)
        },
    );
    assert_eq!(resumed.durable.resumed_from, Some(32));
    // The cut moved earlier — 32 more updates instead of 24 — but the
    // bits still match the uninterrupted run.
    assert_eq!(resumed.updates, 32);
    assert_eq!(
        bits(&resumed.final_w),
        bits(&uninterrupted.final_w),
        "fallback resume must still finish bit-identically"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_start_on_an_empty_store_runs_the_full_budget() {
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let dir = scratch_dir("cold");
    let r = run_asgd(
        objective,
        &d,
        &SolverCfg {
            durable_dir: Some(dir.clone()),
            ..cfg(24)
        },
    );
    assert_eq!(r.durable.resumed_from, None);
    assert_eq!(r.updates, 24);
    // Cadence saves at 8, 16, 24 — the store is ready for a future resume.
    assert_eq!(r.durable.store.saves_ok, 3);
    assert_eq!(
        CheckpointStore::open(&dir)
            .unwrap()
            .latest_valid()
            .map(|(g, _)| g),
        Some(24)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_completed_lineage_resumes_without_issuing_a_task() {
    // The second driver finds the lineage's whole budget spent: it
    // resumes, applies nothing, and issues, ships and drains nothing.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let dir = scratch_dir("completed");
    let c = SolverCfg {
        durable_dir: Some(dir.clone()),
        ..cfg(40)
    };
    assert_eq!(run_asgd(objective, &d, &c).updates, 40);
    let mut ctx = sim_ctx();
    let before = ctx.task_counts();
    let r = Asgd::new(objective).run(&mut ctx, &d, &c);
    assert_eq!(r.durable.resumed_from, Some(40));
    assert_eq!(ctx.task_counts().issued, before.issued);
    assert_eq!(r.bytes_shipped, 0);
    assert_eq!((r.updates, r.tasks_completed), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_resume_from_takes_precedence_over_the_store() {
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let dir = scratch_dir("precedence");
    let first = run_asgd(
        objective,
        &d,
        &SolverCfg {
            durable_dir: Some(dir.clone()),
            ..cfg(16)
        },
    );
    assert_eq!(first.updates, 16);

    // An explicit checkpoint outranks the store's newest generation: the
    // run resumes from it with the per-run budget semantics, and the
    // store keeps receiving this lineage's saves.
    let ckpt = Checkpoint {
        solver: "asgd".into(),
        updates: 100,
        version: 100,
        w: first.final_w.clone(),
        history: SolverHistory::None,
        residuals: Some(vec![]),
    };
    let mut ctx = sim_ctx();
    let r = Asgd::new(objective).resume_from(ckpt).run(
        &mut ctx,
        &d,
        &SolverCfg {
            durable_dir: Some(dir.clone()),
            ..cfg(8)
        },
    );
    assert_eq!(r.durable.resumed_from, None, "store was not consulted");
    assert_eq!(r.updates, 8, "explicit resume keeps the per-run budget");
    // The saves continued the explicit lineage: generations 108, 116.
    assert_eq!(
        CheckpointStore::open(&dir)
            .unwrap()
            .latest_valid()
            .map(|(g, _)| g),
        Some(108)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An ASGD resume checkpoint over model `w` with one hand-made
/// error-feedback residual for partition 0.
fn with_residual(w: &[f64], residual: Vec<f64>) -> Checkpoint {
    Checkpoint {
        solver: "asgd".into(),
        updates: 16,
        version: 16,
        w: w.to_vec(),
        history: SolverHistory::None,
        residuals: Some(vec![(0, residual)]),
    }
}

#[test]
fn a_resume_residual_of_another_width_is_refused_not_panicked() {
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let w = vec![0.0; d.cols()];
    let mut ctx = sim_ctx();
    let refused = Asgd::new(objective)
        .resume_from(with_residual(&w, vec![0.0; 3]))
        .try_run(
            &mut ctx,
            &d,
            &SolverCfg {
                compress: CompressCfg::TopK {
                    k: 4,
                    quant: Quant::I8,
                },
                ..cfg(8)
            },
        );
    assert!(
        matches!(
            refused,
            Err(SolverError::Checkpoint {
                source: CheckpointError::DimensionMismatch {
                    found: 3,
                    expected: 12
                },
                ..
            })
        ),
        "{refused:?}"
    );
    assert_eq!(
        ctx.pending(),
        0,
        "a refused run leaves the context untouched"
    );
}

#[test]
fn a_non_finite_resume_residual_is_refused() {
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let w = vec![0.0; d.cols()];
    let mut residual = vec![0.0; d.cols()];
    residual[5] = f64::NAN;
    let refused = Asgd::new(objective)
        .resume_from(with_residual(&w, residual))
        .try_run(
            &mut sim_ctx(),
            &d,
            &SolverCfg {
                compress: CompressCfg::TopK {
                    k: 4,
                    quant: Quant::Exact,
                },
                ..cfg(8)
            },
        );
    let err = refused.expect_err("a NaN residual must refuse the resume");
    assert!(
        matches!(
            err,
            SolverError::Checkpoint {
                source: CheckpointError::NonFiniteResidual {
                    partition: 0,
                    coordinate: 5
                },
                ..
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("partition 0"), "{err}");
}

#[test]
fn crash_resume_grid_completes_and_descends_under_chaos() {
    // {ASGD, ASAGA, MSGD} × {ASP, BSP, SSP}: phase 1 runs half the budget
    // under worker kills/revivals and crashes; phase 2 auto-resumes from
    // the store under the same chaos and completes the lineage. Every
    // resumed run picks up exactly where the crash left off and the full
    // lineage descends. (ASAGA re-bases its table at the restored model,
    // so the grid asserts completion and descent, not bit-identity.)
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let f0 = objective.full_objective(ParallelismCfg::sequential(), &d, &vec![0.0; d.cols()]);
    let chaos = ChaosSchedule::new()
        .kill(VTime::from_micros(8), 1)
        .revive(VTime::from_micros(25), 1);
    type SolverFactory = Box<dyn Fn() -> Box<dyn AsyncSolver>>;
    let solvers: Vec<(&str, SolverFactory)> = vec![
        ("asgd", Box::new(move || Box::new(Asgd::new(objective)))),
        ("asaga", Box::new(move || Box::new(Asaga::new(objective)))),
        (
            "async-msgd",
            Box::new(move || Box::new(AsyncMsgd::new(objective).with_momentum(0.5))),
        ),
    ];
    let barriers = [
        BarrierFilter::Asp,
        BarrierFilter::Bsp,
        BarrierFilter::Ssp { slack: 2 },
    ];
    for (name, make) in &solvers {
        for barrier in &barriers {
            let dir = scratch_dir(&format!("grid-{name}"));
            let phase_cfg = |max_updates: u64| SolverCfg {
                step: 0.04,
                batch_fraction: 0.25,
                barrier: barrier.clone(),
                max_updates,
                checkpoint_every: 10,
                seed: 23,
                durable_dir: Some(dir.clone()),
                ..SolverCfg::default()
            };
            let mut ctx1 = sim_ctx();
            ctx1.driver_mut().install_chaos(&chaos);
            let r1 = make().run(&mut ctx1, &d, &phase_cfg(30));
            assert_eq!(r1.updates, 30, "{name}/{barrier:?}: phase 1");

            let mut ctx2 = sim_ctx();
            ctx2.driver_mut().install_chaos(&chaos);
            let r2 = make().run(&mut ctx2, &d, &phase_cfg(60));
            assert_eq!(
                r2.durable.resumed_from,
                Some(30),
                "{name}/{barrier:?}: phase 2 must auto-resume"
            );
            assert_eq!(r2.updates, 30, "{name}/{barrier:?}: lineage budget");
            // The resumed trace starts exactly at the crashed model…
            let resumed_start = r2.trace.points()[0].1;
            assert!(
                (resumed_start - r1.final_objective).abs() < 1e-12,
                "{name}/{barrier:?}: resume must start from the stored model"
            );
            // …and the full lineage descends.
            assert!(
                r2.final_objective.is_finite() && r2.final_objective < f0,
                "{name}/{barrier:?}: lineage must descend ({} vs f0 {f0})",
                r2.final_objective
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn resumed_run_republishes_through_a_reused_serve_feed() {
    // A serving stack that outlives the driver: the feed is marked done
    // when the crashed run ends, and the resumed run's publish must re-arm
    // it so readers rendezvous again instead of seeing a finished feed.
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let dir = scratch_dir("feed");
    let feed = ServeFeed::new();
    let r1 = run_asgd(
        objective,
        &d,
        &SolverCfg {
            durable_dir: Some(dir.clone()),
            serve_feed: Some(feed.clone()),
            ..cfg(16)
        },
    );
    assert_eq!(r1.updates, 16);
    assert!(feed.is_done(), "crashed run marked the feed done");

    let mut ctx = sim_ctx();
    let mut solver = Asgd::new(objective);
    let r2 = solver.run(
        &mut ctx,
        &d,
        &SolverCfg {
            durable_dir: Some(dir.clone()),
            serve_feed: Some(feed.clone()),
            ..cfg(32)
        },
    );
    assert_eq!(r2.durable.resumed_from, Some(16));
    assert!(
        feed.is_done(),
        "resumed run re-marked the feed done at its end"
    );
    // The republished model is the live one: readers that rendezvous now
    // see the resumed run's final broadcast, not a stale phase-1 handle.
    let model = feed.try_model().expect("model stays published");
    assert_eq!(model.bcast.latest_version(), 32);
    let _ = std::fs::remove_dir_all(&dir);
}

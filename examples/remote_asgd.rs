//! End-to-end demo: **ASGD on the multi-process remote engine** — the same
//! solver code that runs on the simulator, now driving real worker OS
//! processes over loopback TCP behind the unified [`EngineBuilder`] API.
//! Data blocks ship to each worker once per incarnation, the model arrives
//! as `WirePlan`s (cached / snapshot / patch), and every minibatch gradient
//! is recomputed worker-side from the shipped bytes.
//!
//! Run: `cargo run --release --example remote_asgd`
//!
//! The process transport needs the `async_worker` binary (built by
//! `cargo build --release -p async-optim`, discovered next to the current
//! executable or via `ASYNC_WORKER_BIN`). When it is missing the demo
//! falls back to the loopback transport: the same wire protocol served by
//! in-process threads, so the run always completes.

use std::sync::Arc;

use async_engine::prelude::*;

fn main() {
    let (dataset, _) = SynthSpec::dense("remote-demo", 400, 12, 9)
        .generate_classification()
        .unwrap();

    let spec = ClusterSpec::homogeneous(4, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO);

    // Prefer real worker processes; fall back to loopback threads speaking
    // the identical wire protocol if no worker binary is discoverable.
    let engine = match EngineBuilder::remote()
        .spec(spec.clone())
        .time_scale(0.0)
        .build()
    {
        Ok(e) => {
            println!("transport: one OS process per worker over loopback TCP");
            e
        }
        Err(e) => {
            println!("transport: loopback threads (no async_worker binary: {e})");
            EngineBuilder::remote()
                .spec(spec)
                .time_scale(0.0)
                .loopback_workers(Arc::new(worker_registry))
                .build()
                .expect("loopback transport needs no binary")
        }
    };
    let mut ctx = AsyncContext::new(Driver::from_engine(engine));

    let objective = Objective::Logistic { lambda: 1e-3 };
    let cfg = SolverCfg {
        step: 0.8,
        batch_fraction: 0.3,
        barrier: BarrierFilter::Asp,
        max_updates: 400,
        eval_every: 100,
        seed: 5,
        ..SolverCfg::default()
    };

    let initial = objective.full_objective(ParallelismCfg::sequential(), &dataset, &[0.0; 12]);
    let report = Asgd::new(objective).run(&mut ctx, &dataset, &cfg);

    println!("objective: ln(2) start = {initial:.4}");
    for (t, e) in report.trace.points() {
        println!("  t = {t:>10}  loss = {e:.5}");
    }
    println!(
        "final loss {:.5} after {} updates; {} bytes shipped to workers, {} result bytes back",
        report.final_objective, report.updates, report.bytes_shipped, report.result_bytes,
    );
    assert_eq!(report.updates, 400);
    assert!(
        report.final_objective < 0.35 * initial,
        "did not converge: {} vs {}",
        report.final_objective,
        initial
    );
    println!("converged across process boundaries: loss dropped below 35% of the initial value");
}

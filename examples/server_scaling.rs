//! Runnable demo: **the sharded parameter server** — sweeping
//! `server_threads × absorb_batch` on the real-thread engine and printing
//! absorbed deltas per second.
//!
//! The workload is built to be *server-bound*: a high-dimensional sparse
//! logistic problem where each worker gradient is a few hundred nonzeros
//! but every server update is two dense passes (ridge shrink + snapshot
//! memcpy) over the full model. Sharding spreads those passes over a
//! persistent thread pool; batching folds a wave of ready deltas into one
//! fused pass and one snapshot push.
//!
//! Run: `cargo run --release --example server_scaling`
//!
//! Expected output: a table of wall-clock steps/s per arm (host-dependent)
//! and one invariant that holds everywhere — every arm finishes its full
//! update budget with a finite, healthy model. (The *bit-identity* of
//! sharded vs serial absorption is a statement about absorbing the same
//! delta stream; the threaded engine's completion order is host-dependent,
//! so it is proven exactly on the simulated engine by
//! `tests/sharded_proptests.rs` and the byte-gated
//! `BENCH_server_scaling.json` sim arms, not here.) On multi-core hosts
//! the thread axis compounds with the batching axis; on a single-core
//! host expect the batching arms to carry the speedup.

use std::time::Instant;

use async_engine::prelude::*;

fn main() {
    let (dataset, _) = SynthSpec::sparse("server-demo", 1_024, 65_536, 16, 3)
        .generate_classification()
        .unwrap();
    let objective = Objective::Logistic { lambda: 1e-3 };

    println!("sharded-server sweep: 1024x65536 sparse logistic, 4 workers, 300 updates/arm");
    println!(
        "{:>6} {:>6} {:>12} {:>12}",
        "shard", "batch", "steps/s", "loss"
    );
    for &(server_threads, absorb_batch) in &[(1usize, 1usize), (2, 1), (4, 1), (1, 4), (4, 4)] {
        let spec = ClusterSpec::homogeneous(4, DelayModel::None);
        let mut ctx = AsyncContext::threaded(spec, 0.0);
        let cfg = SolverCfg {
            step: 0.5,
            batch_fraction: 0.1,
            barrier: BarrierFilter::Asp,
            max_updates: 300,
            seed: 3,
            server_threads,
            absorb_batch,
            ..SolverCfg::default()
        };
        let t0 = Instant::now();
        let report = Asgd::new(objective).run(&mut ctx, &dataset, &cfg);
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        println!(
            "{:>6} {:>6} {:>12.0} {:>12.5}",
            server_threads,
            absorb_batch,
            report.updates as f64 / secs,
            report.final_objective
        );
        assert_eq!(report.updates, 300, "every arm must finish its budget");
        assert!(
            report.final_w.iter().all(|v| v.is_finite()),
            "{server_threads}x{absorb_batch}: non-finite coordinates"
        );
    }
    println!("all arms finished 300/300 updates with finite, healthy models");
    println!("(bit-identity of sharded vs serial absorption is proven exactly on the");
    println!(" simulated engine: `cargo test -p async-optim --test sharded_proptests`)");
}

//! Property tests for the server's batched absorption.
//!
//! The contract, straight from the absorber's documentation:
//! **value-equivalence of fused waves** — folding a batch of deltas and
//! applying it with one fused shrink+axpy pass equals the delta-at-a-time
//! application in exact arithmetic; in f64 the two differ only by rounding
//! reorder, bounded here at 1e-9 relative. End-to-end, `absorb_batch > 1`
//! runs (including under churn) must complete their budget and descend the
//! objective, and a batch that can never hold more than one result stays
//! bit-identical to the per-delta server.

use async_cluster::{ChaosCfg, ChaosSchedule, ClusterSpec, CommModel, DelayModel, VDur, VTime};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_linalg::{GradDelta, SparseVec};
use async_optim::{
    Asaga, Asgd, AsyncMsgd, AsyncSolver, Objective, RunReport, ShardedAbsorber, SolverCfg,
};
use proptest::prelude::*;

const WORKERS: usize = 4;

fn quiet_spec() -> ClusterSpec {
    ClusterSpec::homogeneous(WORKERS, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO)
}

fn sparse_dataset() -> Dataset {
    SynthSpec::sparse("shard-prop-sp", 120, 400, 12, 7)
        .generate()
        .unwrap()
        .0
}

fn base_cfg(barrier: BarrierFilter, absorb_batch: usize) -> SolverCfg {
    SolverCfg {
        step: 0.05,
        batch_fraction: 0.25,
        barrier,
        max_updates: 60,
        seed: 11,
        absorb_batch,
        ..SolverCfg::default()
    }
}

fn run_solver(which: u8, d: &Dataset, cfg: &SolverCfg, chaos: Option<&ChaosSchedule>) -> RunReport {
    let mut ctx = AsyncContext::sim(quiet_spec());
    if let Some(c) = chaos {
        ctx.driver_mut().install_chaos(c);
    }
    let objective = Objective::Logistic { lambda: 1e-3 };
    match which % 3 {
        0 => Asgd::new(objective).run(&mut ctx, d, cfg),
        1 => AsyncMsgd::new(objective).run(&mut ctx, d, cfg),
        _ => Asaga::new(objective).run(&mut ctx, d, cfg),
    }
}

fn bits(w: &[f64]) -> Vec<u64> {
    w.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fused_waves_match_sequential_application_within_1e9(
        wave_len in 2usize..6,
        lambda_idx in 0usize..3,
        seed in 0u64..10_000,
    ) {
        // The fold-then-apply pass vs the same deltas applied one at a
        // time with the serial kernels: exact in ℝ, ≤ 1e-9 relative in
        // f64 across random sparse/dense mixes and damp factors.
        let lambda = [0.0, 1e-3, 1e-2][lambda_idx];
        let dim = 80usize;
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0
        };
        let deltas: Vec<GradDelta> = (0..wave_len)
            .map(|k| {
                if k % 2 == 0 {
                    let pairs: Vec<(u32, f64)> = (0..8)
                        .map(|j| ((j * 9 + k as u32 * 3) % dim as u32, next()))
                        .collect();
                    GradDelta::Sparse(SparseVec::from_pairs(pairs, dim).unwrap())
                } else {
                    GradDelta::Dense((0..dim).map(|_| next() * 0.1).collect())
                }
            })
            .collect();
        let damps: Vec<f64> = (0..wave_len).map(|k| 1.0 / (1.0 + k as f64)).collect();
        let mut batched: Vec<f64> = (0..dim).map(|_| next()).collect();
        let mut sequential = batched.clone();
        let mut ab = ShardedAbsorber::new(dim, 1);
        ab.asgd_wave(&mut batched, wave_len, |k| &deltas[k], &damps, 0.1, lambda);
        for (k, g) in deltas.iter().enumerate() {
            ab.asgd_step(&mut sequential, g, 0.1 * damps[k], lambda);
        }
        for (b, s) in batched.iter().zip(&sequential) {
            prop_assert!(
                (b - s).abs() <= 1e-9 * s.abs().max(1.0),
                "lambda={} : {} vs {}", lambda, b, s
            );
        }
    }

    #[test]
    fn batched_runs_complete_and_descend_under_churn(
        batch in 2usize..5,
        solver in 0u8..3,
        chaos_seed in 0u64..100_000,
    ) {
        // absorb_batch > 1 is value-equivalent, not bit-identical — but it
        // must still honor the update budget, converge below the ln 2
        // start, and keep every report statistic coherent under churn.
        let d = sparse_dataset();
        let chaos = ChaosSchedule::random(
            chaos_seed,
            WORKERS,
            VTime::from_micros(100),
            &ChaosCfg { events: 5, ..ChaosCfg::default() },
        );
        let r = run_solver(
            solver,
            &d,
            &base_cfg(BarrierFilter::Asp, batch),
            Some(&chaos),
        );
        prop_assert!(r.updates <= 60);
        prop_assert!(r.tasks_completed >= r.updates);
        prop_assert!(r.final_objective.is_finite());
        if r.updates == 60 {
            prop_assert!(
                r.final_objective < std::f64::consts::LN_2,
                "batched run must descend: {}", r.final_objective
            );
        }
    }
}

/// A singleton-wave configuration (one worker, BSP) can never batch more
/// than one ready result, so `absorb_batch > 1` degenerates to the exact
/// per-delta path and must stay bit-identical to the serial server.
#[test]
fn degenerate_batches_stay_bit_identical() {
    let d = sparse_dataset();
    let spec = ClusterSpec::homogeneous(1, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO);
    let objective = Objective::Logistic { lambda: 0.0 };
    let run = |batch: usize| {
        let mut ctx = AsyncContext::sim(spec.clone());
        let cfg = SolverCfg {
            max_updates: 40,
            ..base_cfg(BarrierFilter::Bsp, batch)
        };
        Asgd::new(objective).run(&mut ctx, &d, &cfg)
    };
    let serial = run(1);
    let batched = run(4);
    assert_eq!(bits(&serial.final_w), bits(&batched.final_w));
    assert_eq!(serial.updates, batched.updates);
}

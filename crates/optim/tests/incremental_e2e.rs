//! End-to-end equivalence of the incremental (version-diffed) broadcast:
//! an ASGD run with the ring enabled must produce **bit-identical** models
//! and traces to the dense-full-broadcast run — only the bytes on the wire
//! may differ — across pin gaps (stragglers), ring evictions (tiny rings),
//! and churn-revived workers forced onto the full-snapshot fallback.
//!
//! All comparisons run with free communication so the simulator's event
//! order cannot depend on message sizes; that isolates exactly the claim
//! under test (the *values* are unaffected by the wire representation).

use async_cluster::{ChaosCfg, ChaosSchedule, ClusterSpec, CommModel, DelayModel, VDur, VTime};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_optim::{Asgd, AsyncSolver, Objective, RunReport, SolverCfg};
use proptest::prelude::*;

fn sparse_dataset(seed: u64) -> Dataset {
    SynthSpec::sparse("incr-e2e", 240, 3_000, 16, seed)
        .generate_classification()
        .expect("synthetic generation")
        .0
}

fn ctx(workers: usize, delay: DelayModel) -> AsyncContext {
    AsyncContext::sim(
        ClusterSpec::homogeneous(workers, delay)
            .with_comm(CommModel::free())
            .with_sched_overhead(VDur::ZERO),
    )
}

/// ASGD with no ridge term: the per-version change support is exactly the
/// sparse gradient's support, which is what makes version diffs exact.
fn run(
    dataset: &Dataset,
    delay: DelayModel,
    ring: usize,
    chaos: Option<&ChaosSchedule>,
) -> RunReport {
    let mut c = ctx(4, delay);
    if let Some(schedule) = chaos {
        c.driver_mut().install_chaos(schedule);
    }
    let cfg = SolverCfg {
        step: 0.4,
        batch_fraction: 0.15,
        barrier: BarrierFilter::Asp,
        max_updates: 120,
        eval_every: 30,
        seed: 7,
        bcast_ring: ring,
        ..SolverCfg::default()
    };
    Asgd::new(Objective::Logistic { lambda: 0.0 }).run(&mut c, dataset, &cfg)
}

fn assert_value_identical(dense: &RunReport, incr: &RunReport) {
    assert_eq!(dense.final_w, incr.final_w, "models must be bit-identical");
    assert_eq!(
        dense.final_objective.to_bits(),
        incr.final_objective.to_bits()
    );
    assert_eq!(dense.updates, incr.updates);
    assert_eq!(dense.tasks_completed, incr.tasks_completed);
    assert_eq!(dense.max_staleness, incr.max_staleness);
    assert_eq!(dense.wall_clock, incr.wall_clock);
    assert_eq!(dense.trace.points(), incr.trace.points());
    assert_eq!(dense.grad_entries, incr.grad_entries);
}

#[test]
fn incremental_matches_dense_and_saves_bytes() {
    let d = sparse_dataset(11);
    let dense = run(&d, DelayModel::None, 0, None);
    let incr = run(&d, DelayModel::None, 16, None);
    assert_value_identical(&dense, &incr);
    assert!(
        incr.bytes_shipped * 2 < dense.bytes_shipped,
        "version diffs must at least halve the shipped bytes here: {} vs {}",
        incr.bytes_shipped,
        dense.bytes_shipped
    );
}

#[test]
fn straggler_pin_gaps_stay_exact() {
    // A 9x straggler piles up staleness, so fast workers span multi-version
    // gaps and the straggler occasionally outruns the ring.
    let d = sparse_dataset(13);
    let delay = DelayModel::ControlledDelay {
        worker: 3,
        intensity: 9.0,
    };
    for ring in [1, 3, 32] {
        let dense = run(&d, delay.clone(), 0, None);
        let incr = run(&d, delay.clone(), ring, None);
        assert_value_identical(&dense, &incr);
        assert!(incr.bytes_shipped <= dense.bytes_shipped);
    }
}

#[test]
fn churn_revived_workers_fall_back_and_stay_exact() {
    // Kills wipe worker caches; revived executors have no patch base and
    // must take the full-snapshot fallback, then re-enter the diff path.
    let d = sparse_dataset(17);
    let chaos = ChaosSchedule::new()
        .kill(VTime::from_micros(300_000), 1)
        .revive(VTime::from_micros(900_000), 1)
        .kill(VTime::from_micros(1_500_000), 2)
        .revive(VTime::from_micros(2_000_000), 2)
        .join(VTime::from_micros(2_400_000));
    let dense = run(&d, DelayModel::None, 0, Some(&chaos));
    let incr = run(&d, DelayModel::None, 8, Some(&chaos));
    assert_value_identical(&dense, &incr);
    assert!(incr.bytes_shipped <= dense.bytes_shipped);
}

#[test]
fn ridge_objective_forces_dense_supports_but_stays_exact() {
    // With λ > 0 every update touches every coordinate, so the ring only
    // ever records dense supports and resolution always falls back — the
    // run must still be value-identical (and ship the same bytes).
    let d = sparse_dataset(19);
    let mut c0 = ctx(4, DelayModel::None);
    let mut c1 = ctx(4, DelayModel::None);
    let mk = |ring| SolverCfg {
        step: 0.4,
        batch_fraction: 0.15,
        barrier: BarrierFilter::Asp,
        max_updates: 60,
        seed: 7,
        bcast_ring: ring,
        ..SolverCfg::default()
    };
    let dense = Asgd::new(Objective::Logistic { lambda: 1e-3 }).run(&mut c0, &d, &mk(0));
    let incr = Asgd::new(Objective::Logistic { lambda: 1e-3 }).run(&mut c1, &d, &mk(16));
    assert_value_identical(&dense, &incr);
    assert_eq!(dense.bytes_shipped, incr.bytes_shipped);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn incremental_is_bit_identical_under_arbitrary_churn(
        chaos_seed in 0u64..10_000,
        data_seed in 0u64..1_000,
        ring in 1usize..24,
        intensity in 0.0..6.0f64,
    ) {
        let d = sparse_dataset(data_seed);
        let delay = DelayModel::ControlledDelay { worker: 0, intensity };
        // A random membership-churn script over the run's horizon: kills,
        // revivals, and joins at arbitrary instants.
        let chaos = ChaosSchedule::random(
            chaos_seed,
            4,
            VTime::from_micros(3_000_000),
            &ChaosCfg::default(),
        );
        let dense = run(&d, delay.clone(), 0, Some(&chaos));
        let incr = run(&d, delay, ring, Some(&chaos));
        prop_assert_eq!(&dense.final_w, &incr.final_w);
        prop_assert_eq!(dense.trace.points(), incr.trace.points());
        prop_assert_eq!(dense.updates, incr.updates);
        prop_assert!(incr.bytes_shipped <= dense.bytes_shipped);
    }
}

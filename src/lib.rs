//! # async-engine
//!
//! A from-scratch Rust reproduction of **ASYNC: A Cloud Engine with
//! Asynchrony and History for Distributed Machine Learning** (IPDPS 2020),
//! grown toward a production-scale asynchronous ML engine.
//!
//! This umbrella crate re-exports the whole workspace. The paper-section →
//! module map:
//!
//! | paper | module |
//! |-------|--------|
//! | §4.1 bookkeeping (`STAT`, task attributes) | [`core::stat`], [`core::context::TaskAttrs`] |
//! | §4.2 `ASYNCcoordinator` (result pump)      | [`core::context::AsyncContext`] |
//! | §4.3 `ASYNCbroadcaster` (history)          | [`core::broadcast::AsyncBcast`] |
//! | §4.4 `ASYNCscheduler` (barrier control)    | [`core::barrier::BarrierFilter`] |
//! | §5 Table 1 programming model               | [`core::context`] methods |
//! | §5 Listing 3 (ASGD)                        | [`optim::asgd::Asgd`] |
//! | §5 Listing 4 / Alg. 4 (ASAGA + history)    | [`optim::asaga::Asaga`] |
//! | §5 staleness-adaptive momentum SGD         | [`optim::msgd::AsyncMsgd`] |
//! | sparse fast path (CSR gather, `GradDelta`) | [`linalg::csr`], [`linalg::delta`] |
//! | §6 cluster + straggler models              | [`cluster`] |
//! | Spark substrate (partitioned RDDs, engines, driver; no scheduler of its own) | [`sparklet`] |
//! | datasets (Table 2 analogues)               | [`data`] |
//! | BLAS slice + CGLS baselines                | [`linalg`] |
//! | serving read path (pins, freshness)        | [`serve`] |
//! | experiment harnesses (Figures 3–4, fast path) | `async-bench` (`crates/bench`) |

/// Cluster substrate: virtual time, stragglers, cost models, metrics.
pub use async_cluster as cluster;
/// The ASYNC framework: context, STAT, barriers, history broadcast.
pub use async_core as core;
/// Datasets, synthetic generators, LIBSVM IO, mini-batch sampling.
pub use async_data as data;
/// Dense/sparse kernels and the CGLS baseline solver.
pub use async_linalg as linalg;
/// Optimization algorithms: ASGD and history-enabled ASAGA.
pub use async_optim as optim;
/// The serve-while-training prediction read path.
pub use async_serve as serve;
/// The in-process Spark slice the engine builds on.
pub use sparklet;

/// The commonly-used surface in one import.
pub mod prelude {
    pub use async_cluster::{
        ChaosAction, ChaosCfg, ChaosEvent, ChaosSchedule, ClusterSpec, CommModel, DelayModel,
        PcsConfig, VDur, VTime,
    };
    pub use async_core::{
        AsyncBcast, AsyncContext, BarrierFilter, StatSnapshot, SubmitOpts, Tagged, TaskAttrs,
    };
    pub use async_data::{Block, Dataset, SynthSpec};
    pub use async_linalg::{GradDelta, Matrix, ParallelismCfg, SparseVec};
    pub use async_optim::{
        worker_registry, Asaga, Asgd, AsyncMsgd, AsyncSolver, Checkpoint, CheckpointError,
        CheckpointStore, DiskFault, DiskFaultPlan, DurableStats, Objective, RunReport, ServeFeed,
        SolverCfg, SolverCfgError, SolverHistory,
    };
    pub use async_serve::{Predictor, ServeCfg, Server};
    pub use sparklet::{Driver, EngineBuilder, EngineKind, Rdd};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn prelude_drives_an_end_to_end_run() {
        let (dataset, _) = SynthSpec::dense("umbrella", 60, 6, 1).generate().unwrap();
        let mut ctx = AsyncContext::sim(
            ClusterSpec::homogeneous(2, DelayModel::None).with_comm(CommModel::free()),
        );
        let cfg = SolverCfg {
            barrier: BarrierFilter::Ssp { slack: 1 },
            max_updates: 30,
            ..SolverCfg::default()
        };
        let report =
            Asgd::new(Objective::LeastSquares { lambda: 0.01 }).run(&mut ctx, &dataset, &cfg);
        assert_eq!(report.updates, 30);
        assert!(report.final_objective.is_finite());
    }
}

//! # async-optim
//!
//! Distributed optimization algorithms on the ASYNC engine (§5 of the
//! paper): an [`AsyncSolver`] abstraction over one server loop — submit,
//! collect, update, rebroadcast, written once — and the update rules that
//! plug into it: the two solvers the paper implements in its Listings and
//! a delay-adaptive third —
//!
//! * [`Asgd`] — asynchronous mini-batch SGD (Listing 3): collect a
//!   gradient, apply it, rebroadcast, refill whichever workers the barrier
//!   admits;
//! * [`Asaga`] — asynchronous SAGA with history (Listing 4 / Algorithm 4):
//!   variance reduction against per-sample historical models, shipped as
//!   version IDs through the `ASYNCbroadcaster` instead of full tables —
//!   in the spirit of the semi-stochastic history methods of Zhang et al.;
//! * [`AsyncMsgd`] — momentum SGD that queries the `STAT` table on every
//!   consumed result and damps momentum (and optionally the step) by the
//!   observed staleness, the delay-adaptive rule the asynchrony literature
//!   recommends against stale heavy-ball divergence.
//!
//! All solvers run under ASP, BSP, SSP or custom barriers
//! ([`async_core::BarrierFilter`]) and evaluate gradients through the
//! dense-or-sparse [`async_linalg::GradDelta`] path: CSR partitions use
//! the sparse gather kernels and ship only the batch support. ASGD and
//! MSGD work on either engine backend; ASAGA's history semantics (version
//! IDs attached at submission) are specified against the deterministic
//! `SimEngine` — see the note in [`asaga`]. `tests/barrier_e2e.rs`,
//! `tests/msgd_e2e.rs` and `tests/sparse_e2e.rs` have end-to-end runs.
//!
//! All three solvers absorb server-side on the coordinator's thread, as
//! the paper's server runs on Spark's driver ([`absorber::ShardedAbsorber`],
//! whose name the frozen `benchmark/` harness still imports): each
//! collected result is one whole-vector apply pass, one model version and
//! one snapshot push.
//!
//! The solvers are *elastic*: they keep running through worker kills,
//! revivals, and mid-run joins (see `async_cluster::chaos` for churn
//! scripts), and a [`checkpoint`] of the server state — bit-identical
//! serialize/restore plus per-solver `resume_from` — lets a crashed
//! driver resume instead of restarting. `tests/chaos_e2e.rs` and
//! `tests/chaos_proptests.rs` exercise all of it end to end.
//!
//! A run's checkpoints live in one place, its [`durable`] store
//! ([`SolverCfg::durable_dir`]): an atomic on-disk generation store (temp
//! file + fsync + rename, checksummed manifests), written by a background
//! checkpointer that takes each [`SolverCfg::checkpoint_every`] capture
//! as a read pin and encodes it off the hot path, and read back with
//! [`CheckpointStore::latest_valid`] / [`CheckpointStore::read`]. A
//! restarted driver auto-resumes: it picks up the newest valid
//! generation, re-seats the broadcast ring at the crashed run's model
//! version, and continues bit-identically. [`durable::DiskFaultPlan`]
//! injects torn writes, failed fsyncs, bit rot, and dropped manifests to
//! prove the recovery paths; `tests/durable_e2e.rs` and
//! `tests/durable_proptests.rs` drive it.

#![deny(missing_docs)]

pub mod absorber;
pub mod asaga;
pub mod asgd;
pub mod checkpoint;
pub mod compression;
pub mod durable;
pub mod msgd;
pub mod objective;
pub mod remote;
pub mod scratch;
mod server_loop;
pub mod serving;
pub mod solver;

pub use absorber::ShardedAbsorber;
pub use asaga::Asaga;
pub use asgd::Asgd;
pub use checkpoint::{Checkpoint, CheckpointError, SolverHistory};
pub use compression::{CompressCfg, CompressorBank};
pub use durable::{CheckpointStore, DiskFault, DiskFaultPlan, DurableStats, StoreCounters};
pub use msgd::AsyncMsgd;
pub use objective::Objective;
pub use remote::{worker_registry, EF_NS, ROUTINE_ASAGA, ROUTINE_GRAD};
pub use scratch::{ScratchPool, TaskScratch};
pub use serving::{PublishedModel, ServeCounters, ServeFeed, ServeStats};
pub use solver::{block_rdd, AsyncSolver, RunReport, SolverCfg, SolverCfgError, SolverError};

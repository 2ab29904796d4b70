//! # sparklet
//!
//! A from-scratch, in-process reimplementation of the slice of Apache Spark
//! that the ASYNC paper builds on. Spark itself is JVM-scale machinery; the
//! paper's contribution only relies on a small, well-defined core, all of
//! which is implemented (not mocked) here:
//!
//! * **Partitioned RDDs** ([`rdd`]): immutable partitioned collections
//!   with per-partition cost hints; any partition can be materialized again
//!   on any worker, which is what makes fault tolerance work.
//! * **Execution engines** ([`engine`], [`sim`], [`threaded`], [`remote`]):
//!   a cluster of workers that run opaque tasks. The *simulated* engine
//!   executes task closures eagerly and schedules their completions on a
//!   deterministic virtual clock (discrete-event style) so experiments are
//!   exactly reproducible; the *threaded* engine runs one OS thread per
//!   worker with real queues and real sleeps for injected straggler
//!   delays; the *remote* engine runs one OS *process* per worker over
//!   TCP with length-prefixed [`frame`]s. [`builder::EngineBuilder`]
//!   constructs any of them behind one API.
//! * **A driver** ([`driver`]): cluster membership and chaos scripts,
//!   partition ownership, per-worker wait-time bookkeeping, supervised
//!   respawn, and one submission/completion API.
//!
//! The asynchronous layer of the paper (`ASYNCcontext` and friends) lives in
//! the `async-core` crate and is the only scheduler: it decides which
//! worker runs which partition, retries lost tasks and ships the model
//! (`AsyncBcast`, the only broadcast) through [`driver::Driver`]. A
//! synchronous job is the same loop under `BarrierFilter::Bsp`.

pub mod builder;
pub mod driver;
pub mod engine;
pub mod fault;
pub mod frame;
pub mod payload;
pub mod rdd;
pub mod remote;
pub mod sim;
pub mod threaded;
pub mod worker;

pub use builder::{EngineBuilder, EngineKind};
pub use driver::{Driver, SuperviseCfg};
pub use engine::{Completion, Engine, EngineError, Task, TaskDone, TaskFn, WireTask};
pub use fault::{FaultAction, FaultDir, FaultInjector, FaultPlan};
pub use payload::{DecodeError, Payload, Reader};
pub use rdd::Rdd;
pub use remote::{RemoteConfig, RemoteEngine, RoutineRegistry, WorkerOpts};
pub use worker::WorkerCtx;

/// Identifies one worker, dense from 0 (re-exported from async-cluster).
pub type WorkerId = async_cluster::WorkerId;

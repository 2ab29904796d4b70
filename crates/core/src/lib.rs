//! # async-core
//!
//! The ASYNC framework itself — the paper's primary contribution, built on
//! top of the `sparklet` engine exactly as the original is built on Spark.
//!
//! The paper introduces three components plus bookkeeping (§4):
//!
//! * **Bookkeeping structures** (§4.1): per-task worker id / staleness /
//!   mini-batch size and the per-worker `STAT` table (staleness,
//!   average-task-completion time, availability) — [`stat`].
//! * **ASYNCcoordinator** (§4.2): tags task results with worker attributes
//!   and maintains `STAT` — implemented inside [`context::AsyncContext`]'s
//!   result pump.
//! * **ASYNCbroadcaster** (§4.3): versioned broadcast that ships only IDs
//!   of previously broadcast model parameters; workers cache values locally
//!   and fetch misses from the server — [`broadcast`].
//! * **ASYNCscheduler** (§4.4): barrier control — a user-controllable
//!   filter over `STAT` deciding which available workers receive tasks
//!   (ASP, BSP, SSP, and custom strategies) — [`barrier`].
//!
//! The programming model (§5, Table 1) maps as:
//!
//! | paper                  | here                                            |
//! |------------------------|-------------------------------------------------|
//! | `ASYNCcontext`         | [`context::AsyncContext`]                       |
//! | `ASYNCreduce(f, AC)`   | [`context::AsyncContext::async_reduce`]         |
//! | `ASYNCaggregate`       | [`context::AsyncContext::async_aggregate`]      |
//! | `ASYNCbarrier(f,STAT)` | [`barrier::BarrierFilter`] passed to the above  |
//! | `ASYNCcollect()`       | [`context::AsyncContext::collect`]              |
//! | `ASYNCcollectAll()`    | [`context::AsyncContext::collect_all`]          |
//! | `ASYNCbroadcast(T)`    | [`context::AsyncContext::async_broadcast`]      |
//! | `AC.STAT`              | [`context::AsyncContext::stat`]                 |
//! | `AC.hasNext()`         | [`context::AsyncContext::has_next`]             |

#![deny(missing_docs)]

pub mod barrier;
pub mod broadcast;
pub mod context;
pub mod stat;

pub use barrier::BarrierFilter;
pub use broadcast::{AsyncBcast, HistoryHandle, HistoryStats, ReadPin, WirePlan};
pub use context::{
    AsyncContext, RemoteRoutine, SubmitOpts, Tagged, TaskAttrs, TaskCounts, WaveDirective,
};
pub use stat::{StatSnapshot, WorkerStat};

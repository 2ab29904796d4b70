//! The execution-engine abstraction.
//!
//! An [`Engine`] is a cluster of workers that execute opaque [`Task`]s.
//! The driver submits a task to a specific (available) worker and later
//! receives a [`Completion`]. Three implementations exist:
//!
//! * [`crate::sim::SimEngine`] — deterministic virtual-time simulation;
//! * [`crate::threaded::ThreadedEngine`] — real OS threads and real delays;
//! * [`crate::remote::RemoteEngine`] — one OS process per worker over TCP.
//!
//! All keep their workers' membership and one-slot state in one
//! crate-private roster, whose transitions are the only way to change it.
//!
//! All give the *same semantics*: a task conceptually begins executing
//! against the state captured at submission (exactly like a Spark task
//! shipping with its broadcast snapshot) and its result arrives after the
//! modelled/real duration. Asynchronous algorithms built on top observe
//! stale results precisely as they would on a real cluster.

use std::any::Any;

use async_cluster::{ClusterSpec, VDur, VTime, WorkerId};

use crate::payload::DecodeError;
use crate::worker::WorkerCtx;

mod roster;

pub(crate) use roster::{PendingChaos, Roster};

/// Type-erased task result.
pub type TaskOutput = Box<dyn Any + Send>;

/// The closure a task runs on its worker.
pub type TaskFn = Box<dyn FnOnce(&mut WorkerCtx) -> TaskOutput + Send>;

/// A unit of work bound for one worker.
pub struct Task {
    /// Caller-chosen tag (e.g. partition index) echoed back in the
    /// completion; used to resubmit lost work.
    pub tag: u64,
    /// Abstract compute cost in work units (≈ matrix nonzeros touched).
    pub cost: f64,
    /// Bytes shipped *with* the task (its payload, e.g. history-broadcast
    /// version IDs); on-demand fetches are charged during execution.
    pub bytes_in: u64,
    /// The work itself.
    pub run: TaskFn,
}

/// A successfully finished task.
pub struct TaskDone {
    /// Worker that executed the task.
    pub worker: WorkerId,
    /// Tag from the submitted [`Task`].
    pub tag: u64,
    /// The closure's output.
    pub output: TaskOutput,
    /// When the task was submitted.
    pub issued_at: VTime,
    /// When the result reached the server.
    pub finished_at: VTime,
    /// Modelled (or measured) execution duration, including injected
    /// straggler delay and communication.
    pub service_time: VDur,
    /// Total bytes shipped to the worker for this task (task payload plus
    /// on-demand fetches charged during execution).
    pub bytes_in: u64,
}

/// What the engine reports back to the driver.
pub enum Completion {
    /// Task finished normally.
    Done(TaskDone),
    /// The worker died while this task was in flight; the task is lost and
    /// should be resubmitted elsewhere (Spark semantics: its partition can
    /// be materialized again on any survivor).
    Lost {
        /// The failed worker.
        worker: WorkerId,
        /// Tag of the lost task.
        tag: u64,
    },
    /// A worker died while idle.
    WorkerDown {
        /// The failed worker.
        worker: WorkerId,
    },
    /// A worker came (back) up: a dead worker was revived, or a brand-new
    /// worker joined (its id is then one past the previous worker count).
    /// Either way the worker is a *fresh* executor: empty caches, no
    /// broadcast state — the driver rebuilds its bookkeeping on receipt.
    WorkerUp {
        /// The revived or newly joined worker.
        worker: WorkerId,
    },
}

/// Submission errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The target worker is already executing a task.
    WorkerBusy(WorkerId),
    /// The target worker has failed.
    WorkerDead(WorkerId),
    /// The target worker is already alive (bad revival request).
    WorkerAlive(WorkerId),
    /// Every worker in the cluster has failed; no task can be placed and
    /// no partition has an owner until a revival or join.
    NoAliveWorkers,
    /// A transport-level I/O failure (remote backend): the operation could
    /// not reach the worker process. Carries the OS error kind so faults
    /// are diagnosable, not panics.
    Io(std::io::ErrorKind),
    /// The worker's connection dropped mid-operation. The worker is marked
    /// dead and its in-flight task (if any) surfaces as
    /// [`Completion::Lost`] through the completion stream.
    Disconnected(WorkerId),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::WorkerBusy(w) => write!(f, "worker {w} is busy"),
            EngineError::WorkerDead(w) => write!(f, "worker {w} is dead"),
            EngineError::WorkerAlive(w) => write!(f, "worker {w} is already alive"),
            EngineError::NoAliveWorkers => write!(f, "no alive workers in the cluster"),
            EngineError::Io(kind) => write!(f, "transport i/o failure: {kind}"),
            EngineError::Disconnected(w) => write!(f, "worker {w} disconnected"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Refuses a cluster no engine can run — a spec that fails
/// [`ClusterSpec::validate`], or a negative or NaN `time_scale` — as
/// `Io(InvalidInput)`, the error every other misconfiguration gets.
pub(crate) fn check_cluster(spec: &ClusterSpec, time_scale: f64) -> Result<(), EngineError> {
    if spec.validate().is_err() || time_scale.is_nan() || time_scale < 0.0 {
        return Err(EngineError::Io(std::io::ErrorKind::InvalidInput));
    }
    Ok(())
}

/// The wire form of a task, for engines whose workers live in other OS
/// processes and therefore cannot run [`Task::run`] (a closure does not
/// cross a socket).
///
/// `build` runs **driver-side** at submission against the engine's mirror
/// of the worker's cache state, exactly when the simulator would run the
/// task closure — so version resolution and byte accounting happen at the
/// same instant in both backends. `decode` turns the worker's response
/// bytes back into the typed [`TaskOutput`] the driver expects.
pub struct WireTask {
    /// Routine id the worker process dispatches on.
    pub routine: u32,
    /// Builds the request bytes against the worker's mirrored cache state,
    /// charging fetched bytes to the mirror (drained by the engine into
    /// the task's `bytes_in`).
    #[allow(clippy::type_complexity)]
    pub build: Box<dyn FnOnce(&mut WorkerCtx) -> Vec<u8> + Send>,
    /// Decodes the worker's response bytes into the task output.
    #[allow(clippy::type_complexity)]
    pub decode: Box<dyn Fn(&[u8]) -> Result<TaskOutput, DecodeError> + Send>,
}

/// A cluster of workers executing tasks. One task per worker at a time
/// (one executor slot, as in the paper's per-worker executors).
pub trait Engine: Send {
    /// Total workers, dead or alive.
    fn workers(&self) -> usize;

    /// Current engine time (virtual for the simulator, real-elapsed for
    /// the threaded and remote backends).
    fn now(&self) -> VTime;

    /// True when `w` is alive, idle, and named by no completion still
    /// queued undelivered.
    fn available(&self, w: WorkerId) -> bool;

    /// True when `w` has not failed.
    fn alive(&self, w: WorkerId) -> bool;

    /// Submits a task to worker `w`.
    fn submit(&mut self, w: WorkerId, task: Task) -> Result<(), EngineError>;

    /// Submits a task together with its wire form. In-process engines run
    /// the closure and ignore the wire form (the default); engines with
    /// out-of-process workers override this to ship `wire` instead of
    /// executing `task.run`.
    fn submit_wired(&mut self, w: WorkerId, task: Task, wire: WireTask) -> Result<(), EngineError> {
        drop(wire);
        self.submit(w, task)
    }

    /// Waits for the next completion, advancing the clock. Returns `None`
    /// when nothing is in flight.
    fn next(&mut self) -> Option<Completion>;

    /// Returns a completion only if one is ready *without advancing time*:
    /// in the simulator "ready" means scheduled at or before the current
    /// clock; in the threaded backend, already sitting in the result queue.
    fn try_next(&mut self) -> Option<Completion>;

    /// Number of tasks in flight.
    fn pending(&self) -> usize;

    /// Immediately fails a worker (its in-flight task, if any, is lost and
    /// will surface as [`Completion::Lost`]).
    fn kill_worker(&mut self, w: WorkerId);

    /// Brings a dead worker back as a *fresh* executor (empty caches; any
    /// still-undelivered result of its pre-failure life is epoch-guarded
    /// and dropped). The change surfaces as [`Completion::WorkerUp`]
    /// through the normal completion stream so driver-side bookkeeping
    /// stays ordered with task results.
    ///
    /// Returns [`EngineError::WorkerAlive`] if `w` has not failed. A fresh
    /// incarnation that fails to start (a thread or process that cannot be
    /// spawned, a handshake that times out) died at birth: it surfaces as
    /// [`Completion::WorkerUp`] then [`Completion::WorkerDown`], and the
    /// failure is returned as [`EngineError::Io`].
    fn revive_worker(&mut self, w: WorkerId) -> Result<(), EngineError>;

    /// Adds a brand-new worker with the next dense id and returns that id.
    /// Also surfaces as [`Completion::WorkerUp`] (followed by
    /// [`Completion::WorkerDown`] when it fails to start, as for a
    /// revival); the worker takes tasks once that notification is read.
    fn add_worker(&mut self) -> WorkerId;

    /// Schedules a failure at a future instant of engine time. The
    /// simulator fires it at that exact virtual instant in its event queue;
    /// the threaded and remote engines apply it once elapsed real time
    /// passes it, checked whenever they are polled. The default, for an
    /// engine with no schedule, is a no-op.
    fn schedule_failure(&mut self, _w: WorkerId, _at: VTime) {}

    /// Schedules a revival of `w` at a future instant (see
    /// [`Engine::schedule_failure`] for backend semantics). Reviving an
    /// alive worker is a no-op at fire time.
    fn schedule_revival(&mut self, _w: WorkerId, _at: VTime) {}

    /// Schedules a brand-new worker to join at a future instant; the new
    /// id surfaces via [`Completion::WorkerUp`]. Backends may allocate the
    /// id eagerly (the simulator grows `workers()` at scheduling time,
    /// keeping the worker dead until its instant) or lazily at fire time
    /// (the threaded and remote backends).
    fn schedule_join(&mut self, _at: VTime) {}

    /// The instant of the earliest still-scheduled membership event
    /// (failure/revival/join), or `None` when nothing is scheduled.
    ///
    /// Recovery-aware callers use this to decide whether waiting is
    /// worthwhile: `next()` on the wall-clock backends returns `None` as
    /// soon as nothing is *in flight*, even when a revival is scheduled in
    /// the future — a supervisor that knows a worker is coming back can
    /// sleep toward this horizon instead of giving up.
    fn next_event_at(&self) -> Option<VTime> {
        None
    }
}

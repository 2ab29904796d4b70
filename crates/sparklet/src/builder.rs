//! Unified engine construction.
//!
//! Three backends implement [`Engine`] — the deterministic simulator, the
//! in-process threaded engine, and the multi-process remote engine — and
//! before this module each call site (driver constructors, benches,
//! examples, e2e tests) wired its backend up by hand. [`EngineBuilder`]
//! centralizes that: pick an [`EngineKind`], set the cluster spec, time
//! scale, chaos schedule, and (for the remote backend) transport options,
//! and get a `Box<dyn Engine>` back. Adding backend #4 is one enum variant
//! and one `build` arm.
//!
//! ```
//! use async_cluster::{ClusterSpec, DelayModel};
//! use sparklet::{EngineBuilder, EngineKind};
//!
//! let engine = EngineBuilder::new(EngineKind::Sim)
//!     .spec(ClusterSpec::homogeneous(4, DelayModel::None))
//!     .build()
//!     .expect("sim construction is infallible");
//! assert_eq!(engine.workers(), 4);
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use async_cluster::{ChaosAction, ChaosSchedule, ClusterSpec, DelayModel};

use crate::engine::{Engine, EngineError};
use crate::fault::FaultPlan;
use crate::remote::{
    default_worker_bin, RemoteConfig, RemoteEngine, RoutineRegistry, WorkerLauncher,
};
use crate::sim::SimEngine;
use crate::threaded::ThreadedEngine;

/// Which [`Engine`] backend to construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Deterministic virtual-time simulation ([`SimEngine`]) — the
    /// byte-gated oracle.
    Sim,
    /// One OS thread per worker ([`ThreadedEngine`]).
    Threaded,
    /// One OS process per worker over TCP ([`RemoteEngine`]).
    Remote,
}

/// Builds any backend behind one API. See the module docs.
pub struct EngineBuilder {
    kind: EngineKind,
    spec: ClusterSpec,
    time_scale: f64,
    chaos: Option<ChaosSchedule>,
    addr: String,
    worker_bin: Option<PathBuf>,
    worker_args: Vec<String>,
    loopback: Option<Arc<dyn Fn() -> RoutineRegistry + Send + Sync>>,
    handshake_timeout: Option<Duration>,
    heartbeat: Option<Duration>,
    liveness: Option<Duration>,
    task_deadline: Option<Duration>,
    max_inflight: Option<usize>,
    fault: Option<FaultPlan>,
}

impl EngineBuilder {
    /// A builder for `kind` with a 1-worker default spec, `time_scale`
    /// 0.01, no chaos, and loopback transport defaults.
    pub fn new(kind: EngineKind) -> Self {
        Self {
            kind,
            spec: ClusterSpec::homogeneous(1, DelayModel::None),
            time_scale: 0.01,
            chaos: None,
            addr: "127.0.0.1:0".to_string(),
            worker_bin: None,
            worker_args: Vec::new(),
            loopback: None,
            handshake_timeout: None,
            heartbeat: None,
            liveness: None,
            task_deadline: None,
            max_inflight: None,
            fault: None,
        }
    }

    /// Shorthand for `EngineBuilder::new(EngineKind::Sim)`.
    pub fn sim() -> Self {
        Self::new(EngineKind::Sim)
    }

    /// Shorthand for `EngineBuilder::new(EngineKind::Threaded)`.
    pub fn threaded() -> Self {
        Self::new(EngineKind::Threaded)
    }

    /// Shorthand for `EngineBuilder::new(EngineKind::Remote)`.
    pub fn remote() -> Self {
        Self::new(EngineKind::Remote)
    }

    /// Cluster spec: worker count, speed profiles, straggler model,
    /// communication model.
    pub fn spec(mut self, spec: ClusterSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Real-time scale for modelled durations (threaded and remote
    /// backends; the simulator ignores it).
    pub fn time_scale(mut self, scale: f64) -> Self {
        self.time_scale = scale;
        self
    }

    /// Installs `schedule`'s kill/revive/join events on the built engine.
    /// On the simulator they fire at exact virtual instants; on the
    /// threaded and remote backends at elapsed real time — for the remote
    /// backend that means actual process kills and respawns.
    pub fn chaos(mut self, schedule: ChaosSchedule) -> Self {
        self.chaos = Some(schedule);
        self
    }

    /// Listen address for the remote backend (default `127.0.0.1:0`).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Worker executable for the remote backend. Defaults to
    /// [`default_worker_bin`] (the `ASYNC_WORKER_BIN` environment
    /// variable, or an `async_worker` binary near the current executable).
    pub fn worker_bin(mut self, bin: impl Into<PathBuf>) -> Self {
        self.worker_bin = Some(bin.into());
        self
    }

    /// Extra arguments passed to the worker executable before the
    /// `--connect ..` triple.
    pub fn worker_args(mut self, args: Vec<String>) -> Self {
        self.worker_args = args;
        self
    }

    /// Runs remote workers as in-process loopback threads with `registry`
    /// routines instead of spawning processes (tests).
    pub fn loopback_workers(
        mut self,
        registry: Arc<dyn Fn() -> RoutineRegistry + Send + Sync>,
    ) -> Self {
        self.loopback = Some(registry);
        self
    }

    /// Handshake deadline for freshly spawned remote workers (default
    /// 10 s).
    pub fn handshake_timeout(mut self, d: Duration) -> Self {
        self.handshake_timeout = Some(d);
        self
    }

    /// Remote worker heartbeat period (default: no heartbeats).
    pub fn heartbeat(mut self, period: Duration) -> Self {
        self.heartbeat = Some(period);
        self
    }

    /// Remote liveness deadline: a worker silent for this long is declared
    /// dead. Requires [`EngineBuilder::heartbeat`].
    pub fn liveness(mut self, deadline: Duration) -> Self {
        self.liveness = Some(deadline);
        self
    }

    /// Remote per-task deadline: an unanswered submission older than this
    /// kills the worker incarnation and surfaces the task as lost.
    pub fn task_deadline(mut self, deadline: Duration) -> Self {
        self.task_deadline = Some(deadline);
        self
    }

    /// Bound on in-flight tasks per remote worker (default 1).
    pub fn max_inflight(mut self, bound: usize) -> Self {
        self.max_inflight = Some(bound);
        self
    }

    /// Wire-level fault injection plan for the remote backend (default:
    /// zero faults).
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Constructs the engine. Sim and threaded construction cannot fail
    /// (spec validation panics, as their constructors always have);
    /// remote construction returns [`EngineError::Io`] on bind, spawn, or
    /// handshake failure — including a missing worker binary.
    pub fn build(self) -> Result<Box<dyn Engine>, EngineError> {
        let mut engine: Box<dyn Engine> = match self.kind {
            EngineKind::Sim => Box::new(SimEngine::new(self.spec)),
            EngineKind::Threaded => Box::new(ThreadedEngine::new(self.spec, self.time_scale)),
            EngineKind::Remote => {
                let launcher = match self.loopback {
                    Some(registry) => WorkerLauncher::Loopback(registry),
                    None => {
                        let program = match self.worker_bin.or_else(default_worker_bin) {
                            Some(p) => p,
                            None => return Err(EngineError::Io(std::io::ErrorKind::NotFound)),
                        };
                        WorkerLauncher::Process {
                            program,
                            args: self.worker_args,
                        }
                    }
                };
                let defaults = RemoteConfig::process(PathBuf::new());
                let cfg = RemoteConfig {
                    addr: self.addr,
                    launcher,
                    handshake_timeout: self.handshake_timeout.unwrap_or(defaults.handshake_timeout),
                    heartbeat: self.heartbeat,
                    liveness: self.liveness,
                    task_deadline: self.task_deadline,
                    max_inflight: self.max_inflight.unwrap_or(defaults.max_inflight),
                    fault: self.fault.unwrap_or_default(),
                };
                Box::new(RemoteEngine::new(self.spec, self.time_scale, cfg)?)
            }
        };
        if let Some(schedule) = self.chaos {
            for ev in schedule.events() {
                match ev.action {
                    ChaosAction::Kill(w) => engine.schedule_failure(w, ev.at),
                    ChaosAction::Revive(w) => engine.schedule_revival(w, ev.at),
                    ChaosAction::Join => engine.schedule_join(ev.at),
                }
            }
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_cluster::VTime;

    #[test]
    fn builds_each_in_process_backend() {
        let sim = EngineBuilder::sim()
            .spec(ClusterSpec::homogeneous(3, DelayModel::None))
            .build()
            .unwrap();
        assert_eq!(sim.workers(), 3);
        let thr = EngineBuilder::threaded()
            .spec(ClusterSpec::homogeneous(2, DelayModel::None))
            .time_scale(0.0)
            .build()
            .unwrap();
        assert_eq!(thr.workers(), 2);
    }

    #[test]
    fn remote_without_a_worker_binary_is_a_diagnosable_error() {
        // An explicit path overrides any discovery, so this cannot
        // accidentally find a real binary.
        let err = match EngineBuilder::remote()
            .worker_bin("/nonexistent/async_worker")
            .build()
        {
            Err(e) => e,
            Ok(_) => panic!("expected spawn failure"),
        };
        assert!(matches!(err, EngineError::Io(_)), "got {err}");
    }

    #[test]
    fn chaos_schedule_installs_on_the_built_engine() {
        let schedule = ChaosSchedule::new()
            .kill(VTime::from_micros(10), 1)
            .revive(VTime::from_micros(20), 1)
            .join(VTime::from_micros(30));
        let mut sim = EngineBuilder::sim()
            .spec(ClusterSpec::homogeneous(2, DelayModel::None))
            .chaos(schedule)
            .build()
            .unwrap();
        // The sim applies scheduled events when the clock reaches them;
        // with nothing in flight, next() drains the membership stream.
        let mut downs = 0;
        let mut ups = 0;
        while let Some(c) = sim.next() {
            match c {
                crate::engine::Completion::WorkerDown { .. } => downs += 1,
                crate::engine::Completion::WorkerUp { .. } => ups += 1,
                _ => {}
            }
        }
        assert_eq!((downs, ups), (1, 2));
        assert_eq!(sim.workers(), 3);
    }
}

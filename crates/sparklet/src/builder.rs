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

use crate::engine::{check_cluster, Engine, EngineError};
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
    /// The remote backend's configuration. Its launcher starts as a
    /// process launcher with no program (the default worker binary, looked
    /// up at build); loopback workers replace it.
    remote: RemoteConfig,
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
            remote: RemoteConfig::process(PathBuf::new()),
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
        self.remote.addr = addr.into();
        self
    }

    /// Worker executable for the remote backend. Defaults to
    /// [`default_worker_bin`] (the `ASYNC_WORKER_BIN` environment
    /// variable, or an `async_worker` binary near the current executable).
    /// Loopback workers, once set, take precedence over it.
    pub fn worker_bin(mut self, bin: impl Into<PathBuf>) -> Self {
        if let WorkerLauncher::Process { program, .. } = &mut self.remote.launcher {
            *program = bin.into();
        }
        self
    }

    /// Extra arguments passed to the worker executable before the
    /// `--connect ..` triple.
    pub fn worker_args(mut self, worker_args: Vec<String>) -> Self {
        if let WorkerLauncher::Process { args, .. } = &mut self.remote.launcher {
            *args = worker_args;
        }
        self
    }

    /// Runs remote workers as in-process loopback threads with `registry`
    /// routines instead of spawning processes (tests).
    pub fn loopback_workers(
        mut self,
        registry: Arc<dyn Fn() -> RoutineRegistry + Send + Sync>,
    ) -> Self {
        self.remote.launcher = WorkerLauncher::Loopback(registry);
        self
    }

    /// Remote worker heartbeat period (default: no heartbeats).
    pub fn heartbeat(mut self, period: Duration) -> Self {
        self.remote.heartbeat = Some(period);
        self
    }

    /// Remote liveness deadline: a worker silent for this long is declared
    /// dead. Requires [`EngineBuilder::heartbeat`].
    pub fn liveness(mut self, deadline: Duration) -> Self {
        self.remote.liveness = Some(deadline);
        self
    }

    /// Remote per-task deadline: an unanswered submission older than this
    /// kills the worker incarnation and surfaces the task as lost.
    pub fn task_deadline(mut self, deadline: Duration) -> Self {
        self.remote.task_deadline = Some(deadline);
        self
    }

    /// Wire-level fault injection plan for the remote backend (default:
    /// zero faults).
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.remote.fault = plan;
        self
    }

    /// Constructs the engine.
    ///
    /// # Errors
    /// On every backend, a spec that fails [`ClusterSpec::validate`] or a
    /// negative or NaN `time_scale` is `Io(InvalidInput)`; sim and threaded
    /// construction cannot fail otherwise. Remote construction also returns
    /// [`EngineError::Io`] on bind, spawn, or handshake failure — including
    /// a missing worker binary.
    pub fn build(self) -> Result<Box<dyn Engine>, EngineError> {
        check_cluster(&self.spec, self.time_scale)?;
        let mut engine: Box<dyn Engine> = match self.kind {
            EngineKind::Sim => Box::new(SimEngine::new(self.spec)),
            EngineKind::Threaded => Box::new(ThreadedEngine::new(self.spec, self.time_scale)),
            EngineKind::Remote => {
                let mut cfg = self.remote;
                if let WorkerLauncher::Process { program, .. } = &mut cfg.launcher {
                    if program.as_os_str().is_empty() {
                        *program = default_worker_bin()
                            .ok_or(EngineError::Io(std::io::ErrorKind::NotFound))?;
                    }
                }
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
    use crate::engine::{Completion, Task, TaskOutput, WireTask};
    use async_cluster::VTime;

    const KINDS: [EngineKind; 3] = [EngineKind::Sim, EngineKind::Threaded, EngineKind::Remote];

    /// Routine 1 answers after `HOLD`, so a worker handed one is busy.
    const HOLD: Duration = Duration::from_millis(60);

    fn holding_registry() -> RoutineRegistry {
        let mut reg = RoutineRegistry::new();
        reg.register(1, |_ctx, req| {
            std::thread::sleep(HOLD);
            Ok(req.to_vec())
        });
        reg
    }

    fn two_workers(kind: EngineKind) -> Box<dyn Engine> {
        EngineBuilder::new(kind)
            .spec(ClusterSpec::homogeneous(2, DelayModel::None))
            .time_scale(0.0)
            .loopback_workers(Arc::new(holding_registry))
            .build()
            .expect("engine starts")
    }

    /// A task that holds its worker for `HOLD` on every backend: the
    /// closure for the in-process engines, routine 1 for the remote one.
    fn holding(tag: u64) -> (Task, WireTask) {
        let task = Task {
            tag,
            cost: 1.0,
            bytes_in: 0,
            run: Box::new(|_| {
                std::thread::sleep(HOLD);
                Box::new(())
            }),
        };
        let wire = WireTask {
            routine: 1,
            build: Box::new(|_| Vec::new()),
            decode: Box::new(|_| Ok(Box::new(()) as TaskOutput)),
        };
        (task, wire)
    }

    #[test]
    fn one_slot_per_worker_on_every_backend() {
        for kind in KINDS {
            let mut e = two_workers(kind);
            let (task, wire) = holding(7);
            e.submit_wired(0, task, wire).unwrap();
            assert!(!e.available(0) && e.available(1), "{kind:?}");
            // (i) A busy worker takes no second task.
            let (task, wire) = holding(8);
            assert_eq!(
                e.submit_wired(0, task, wire).unwrap_err(),
                EngineError::WorkerBusy(0),
                "{kind:?}"
            );
            assert_eq!(e.pending(), 1, "{kind:?}");
            // (ii) Killing it loses exactly the one task it held.
            e.kill_worker(0);
            assert!(
                matches!(e.next(), Some(Completion::Lost { worker: 0, tag: 7 })),
                "{kind:?}"
            );
            assert_eq!(e.pending(), 0, "{kind:?}");
            // (iii) Killing an idle worker reports the worker, not a task.
            e.kill_worker(1);
            assert!(
                matches!(e.next(), Some(Completion::WorkerDown { worker: 1 })),
                "{kind:?}"
            );
            let (task, wire) = holding(9);
            assert_eq!(
                e.submit_wired(1, task, wire).unwrap_err(),
                EngineError::WorkerDead(1),
                "{kind:?}"
            );
            // Nothing else surfaces, the dying incarnation's late answer
            // included.
            std::thread::sleep(2 * HOLD);
            assert!(e.try_next().is_none() && e.next().is_none(), "{kind:?}");
        }
    }

    #[test]
    fn invalid_spec_is_refused_on_every_backend() {
        for kind in KINDS {
            let mut spec = ClusterSpec::homogeneous(2, DelayModel::None);
            spec.profiles.pop();
            let built = EngineBuilder::new(kind)
                .spec(spec)
                .loopback_workers(Arc::new(holding_registry))
                .build();
            assert_eq!(
                built.err(),
                Some(EngineError::Io(std::io::ErrorKind::InvalidInput)),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn negative_or_nan_time_scale_is_refused_on_every_backend() {
        for kind in KINDS {
            for time_scale in [-0.5, f64::NAN] {
                let built = EngineBuilder::new(kind)
                    .time_scale(time_scale)
                    .loopback_workers(Arc::new(holding_registry))
                    .build();
                assert_eq!(
                    built.err(),
                    Some(EngineError::Io(std::io::ErrorKind::InvalidInput)),
                    "{kind:?} at {time_scale}"
                );
            }
        }
    }

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

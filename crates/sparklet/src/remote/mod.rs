//! Remote engine: workers as separate OS processes over TCP.
//!
//! The third [`Engine`] backend. Where the simulator models a cluster and
//! the threaded engine runs one in-process thread per worker, this engine
//! makes "cloud engine" literal: each worker is its own process, connected
//! to the driver over a length-prefixed TCP framing ([`crate::frame`]), and
//! every task, gradient delta, and broadcast patch actually crosses a
//! socket in the same [`Payload`] encodings the in-process engines merely
//! account.
//!
//! ## Shipping tasks without shipping closures
//!
//! A [`Task`]'s closure cannot cross a process boundary, so the remote
//! engine is driven through [`Engine::submit_wired`]: alongside the (never
//! executed) closure it receives a [`WireTask`] — a routine id the worker
//! dispatches on, a `build` function producing the request bytes, and a
//! `decode` function for the response. `build` runs **driver-side at
//! submission** against a per-worker *mirror* [`WorkerCtx`] tracking
//! exactly which broadcast versions that worker incarnation holds; this is
//! the same instant the simulator runs task closures, so version
//! resolution, history reads, and byte accounting agree with the
//! deterministic oracle. The mirror's fetch charges (model snapshots,
//! patches, shipped partitions) fold into the task's `bytes_in` just as a
//! worker-side cache miss would on the simulator.
//!
//! ## Failures are real — scripted and unscripted
//!
//! The epoch-guard + chaos machinery maps onto real connection drops:
//!
//! * [`Engine::kill_worker`] kills the worker *process* (socket shutdown +
//!   SIGKILL) and surfaces its in-flight task as [`Completion::Lost`];
//! * a spontaneously dropped socket is detected by the (unix-only,
//!   `poll(2)`) result pump and handled identically — lost task, dead worker;
//! * [`Engine::revive_worker`] / [`Engine::add_worker`] spawn a fresh
//!   process at a bumped epoch; any result a dying incarnation managed to
//!   flush is dropped by the same epoch check the threaded engine uses;
//! * a [`ChaosSchedule`](async_cluster::ChaosSchedule) installed through
//!   the driver therefore drives actual process kills and respawns.
//!
//! On top of the scripted paths sits the **supervision layer**, which
//! catches failures nobody scheduled:
//!
//! * **Heartbeats** ([`RemoteConfig::heartbeat`]): each worker incarnation
//!   beats from a dedicated thread; the driver tracks the last frame seen
//!   per worker (beats *and* completions count) and, past the
//!   [`RemoteConfig::liveness`] deadline of silence, declares the worker
//!   dead exactly as if its socket had dropped — which catches a hung
//!   process or a one-way partition that keeps the TCP session open.
//! * **Task deadlines** ([`RemoteConfig::task_deadline`]): a submission
//!   whose completion does not arrive in time kills the incarnation (epoch
//!   bump) and surfaces the task as [`Completion::Lost`], so a worker that
//!   still beats but stopped producing results cannot wedge a wave. Late
//!   results from the killed incarnation are dropped by the epoch guard
//!   like any stale completion.
//! * **Fault injection** ([`RemoteConfig::fault`]): a seeded
//!   [`FaultPlan`](crate::fault::FaultPlan) drops/delays/duplicates/
//!   truncates/resets frames on either direction, which is how the
//!   supervision paths are proven — see [`crate::fault`].
//!
//! All supervision knobs default *off*; a default-configured engine is
//! byte-for-byte the pre-supervision engine.
//!
//! ## One slot per worker
//!
//! A worker holds one task at a time, as on the simulator and the threaded
//! engine: [`Engine::available`] is "alive and idle", a submission to a
//! busy worker is [`EngineError::WorkerBusy`], and a death loses at most
//! one task. The coordinator above schedules by that rule (`AC.STAT` keeps
//! one in-flight row per worker), so there is no pipeline depth to
//! configure here.
//!
//! Straggler delays are computed driver-side from the cluster spec
//! (modelled cost + communication time, scaled by `time_scale` and the
//! worker's delay factor) and shipped in the submission; the worker sleeps
//! them after computing, plus the factor-stretch of its measured compute
//! time — the threaded engine's formula, across a socket.
//!
//! [`Payload`]: crate::payload::Payload

mod launcher;
mod liveness;
mod transport;
mod worker;

use std::io;
use std::net::TcpListener;
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use async_cluster::straggler::DelayAssignment;
use async_cluster::{ClusterSpec, VTime, WorkerId, WorkerProfile};

use crate::engine::{
    check_cluster, Completion, Engine, EngineError, PendingChaos, Roster, Task, TaskDone,
    TaskOutput, WireTask,
};
use crate::frame::Msg;
use crate::payload::DecodeError;
use crate::worker::WorkerCtx;

pub use launcher::{default_worker_bin, RemoteConfig, WorkerLauncher};
pub use worker::{run_worker_with, worker_main, RoutineFn, RoutineRegistry, WorkerOpts};

use launcher::Conn;
use transport::{send, wait_readable, Frame, WireEvent, READ_CHUNK};

/// What a worker's seat holds beside the task's tag: response decoding,
/// the bytes the task shipped, and the real instant its deadline counts
/// from.
struct Wired {
    #[allow(clippy::type_complexity)]
    decode: Box<dyn Fn(&[u8]) -> Result<TaskOutput, DecodeError> + Send>,
    bytes_in: u64,
    issued_real: Instant,
}

/// Everything the driver keeps per worker beside its roster row.
struct Link {
    /// The current incarnation's connection; `None` while it is down.
    conn: Option<Conn>,
    /// Driver-side mirror of the incarnation's cache: which
    /// `(broadcast, version)` keys (and shipped partitions) it holds.
    /// Reset to empty on revive/join, exactly like the real cache.
    mirror: WorkerCtx,
    /// Last instant the worker proved it was alive (handshake, beat, or
    /// completion).
    last_beat: Instant,
}

impl Link {
    fn new(w: WorkerId) -> Self {
        Self {
            conn: None,
            mirror: WorkerCtx::new(w),
            last_beat: Instant::now(),
        }
    }
}

/// The remote multi-process engine. See the module docs.
pub struct RemoteEngine {
    spec: ClusterSpec,
    assignment: DelayAssignment,
    time_scale: f64,
    start: Instant,
    listener: TcpListener,
    local_addr: String,
    cfg: RemoteConfig,
    links: Vec<Link>,
    /// What one `read` off a connection lands in before its inbox.
    read_buf: Vec<u8>,
    /// Membership, one slot per worker, queued completions, and scheduled
    /// membership events.
    roster: Roster<Wired>,
}

impl RemoteEngine {
    /// Binds the driver listener and spawns one worker process (or
    /// loopback thread) per cluster worker, waiting for each to connect
    /// and greet.
    ///
    /// # Errors
    /// Transport failures (bind, spawn, handshake) return
    /// [`EngineError::Io`] with the OS error kind. A misconfiguration is
    /// `Io(InvalidInput)`: a spec that fails validation, a negative or NaN
    /// `time_scale`, or a liveness deadline without a heartbeat period
    /// (silent workers would all be declared dead).
    pub fn new(spec: ClusterSpec, time_scale: f64, cfg: RemoteConfig) -> Result<Self, EngineError> {
        check_cluster(&spec, time_scale)?;
        if cfg.liveness.is_some() && cfg.heartbeat.is_none() {
            return Err(EngineError::Io(io::ErrorKind::InvalidInput));
        }
        let n = spec.workers;
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| EngineError::Io(e.kind()))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| EngineError::Io(e.kind()))?
            .to_string();
        let mut engine = Self {
            assignment: spec.delay.assign(n),
            spec,
            time_scale,
            start: Instant::now(),
            listener,
            local_addr,
            cfg,
            links: (0..n).map(Link::new).collect(),
            read_buf: vec![0; READ_CHUNK],
            roster: Roster::new(n),
        };
        for w in 0..n {
            engine
                .spawn_worker(w)
                .map_err(|e| EngineError::Io(e.kind()))?;
        }
        Ok(engine)
    }

    /// The address workers connect back to (useful when binding port 0).
    pub fn addr(&self) -> &str {
        &self.local_addr
    }

    fn accept(&mut self, ev: WireEvent) -> Option<Completion> {
        let WireEvent {
            worker,
            epoch,
            frame,
        } = ev;
        if !self.roster.current(worker, epoch) {
            // A result, beat or drop of an incarnation already torn down
            // (a flushed orphan's loss was reported with the kill).
            return None;
        }
        let (tag, response) = match frame {
            Frame::Done { tag, response } => (tag, response),
            Frame::Beat => {
                self.links[worker].last_beat = Instant::now();
                return None;
            }
            Frame::Gone => {
                // A real, uncommanded connection drop: lost task, dead
                // worker (revivable like any other death).
                self.kill_worker(worker);
                return None;
            }
        };
        // Any frame proves liveness.
        self.links[worker].last_beat = Instant::now();
        let finished_at = self.now();
        // An unsolicited completion — a duplicated frame or a protocol
        // violation — answers no seat: nothing is owed for it.
        let seat = self.roster.seat_of(worker).filter(|s| s.tag == tag)?;
        match (seat.payload.decode)(&response) {
            Ok(output) => {
                let seat = self.roster.finish(worker, epoch, tag)?;
                Some(Completion::Done(TaskDone {
                    worker,
                    tag,
                    output,
                    issued_at: seat.issued_at,
                    finished_at,
                    service_time: finished_at.saturating_since(seat.issued_at),
                    bytes_in: seat.payload.bytes_in,
                }))
            }
            Err(_) => {
                // A response this driver cannot decode means the
                // incarnation is not speaking the protocol — treat it like
                // a crashed worker, whose still-seated task is lost.
                self.kill_worker(worker);
                None
            }
        }
    }

    /// One pump step: waits up to `wait` (`None`: no limit) for live
    /// connections to turn readable, accepts what one `read` of each
    /// brings, then applies due membership events, then deadlines — after
    /// the drain, so liveness verdicts see the freshest beats. `None` when
    /// `poll(2)` fails.
    fn pump(&mut self, wait: Option<Duration>) -> Option<()> {
        let live: Vec<(WorkerId, RawFd)> = (0..self.links.len())
            .filter_map(|w| Some((w, self.links[w].conn.as_ref()?.stream.as_raw_fd())))
            .collect();
        let ready = wait_readable(live.iter().map(|&(_, fd)| fd), wait).ok()?;
        let mut events = Vec::new();
        for (w, _) in ready.into_iter().map(|i| live[i]) {
            let id = (w, self.roster.epoch(w));
            if let Some(conn) = self.links[w].conn.as_mut() {
                conn.inbox
                    .receive(&mut conn.stream, &mut self.read_buf, id, &mut events);
            }
        }
        for ev in events {
            if let Some(c) = self.accept(ev) {
                self.roster.notify(c);
            }
        }
        PendingChaos::apply_due(self, |e| &mut e.roster);
        self.enforce_deadlines();
        Some(())
    }
}

impl Engine for RemoteEngine {
    fn workers(&self) -> usize {
        self.roster.workers()
    }

    fn now(&self) -> VTime {
        VTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn available(&self, w: WorkerId) -> bool {
        self.roster.available(w)
    }

    fn alive(&self, w: WorkerId) -> bool {
        self.roster.alive(w)
    }

    /// Closure-only submissions cannot cross a process boundary; the
    /// remote engine accepts work only through [`Engine::submit_wired`].
    fn submit(&mut self, _w: WorkerId, _task: Task) -> Result<(), EngineError> {
        Err(EngineError::Io(io::ErrorKind::Unsupported))
    }

    fn submit_wired(&mut self, w: WorkerId, task: Task, wire: WireTask) -> Result<(), EngineError> {
        self.roster.check(w)?;
        let seq = self.roster.next_seq(w);
        let link = &mut self.links[w];
        // Build the request against the worker's mirrored cache — the
        // remote analogue of the simulator running the closure at
        // submission. Fetch charges (snapshots, patches, shipped blocks)
        // fold into the task's bytes exactly as worker-side misses would.
        let request = (wire.build)(&mut link.mirror);
        let total_bytes = task.bytes_in + link.mirror.take_charges();
        let factor = self.assignment.factor(w, seq);
        let modelled =
            self.spec.profiles[w].exec_time(task.cost) + self.spec.comm.transfer_time(total_bytes);
        let sleep_us = (modelled.as_micros() as f64 * self.time_scale * factor) as u64;
        let msg = Msg::Submit {
            tag: task.tag,
            epoch: self.roster.epoch(w),
            routine: wire.routine,
            sleep_us,
            slow_factor: (factor - 1.0).max(0.0),
            request,
        };
        let sent = link
            .conn
            .as_mut()
            .map(|c| send(&mut c.stream, &msg, c.injector.as_mut()));
        if !matches!(sent, Some(Ok(()))) {
            // The process died under us between completions (or fault
            // injection reset the connection): surface the death now. The
            // task was never seated, so no loss is queued for it.
            self.kill_worker(w);
            return Err(EngineError::Disconnected(w));
        }
        let wired = Wired {
            decode: wire.decode,
            bytes_in: total_bytes,
            issued_real: Instant::now(),
        };
        let now = self.now();
        self.roster.seat(w, task.tag, now, wired);
        Ok(())
    }

    fn next(&mut self) -> Option<Completion> {
        // The first pass only drains what already arrived.
        let mut wait = Some(Duration::ZERO);
        loop {
            self.pump(wait)?;
            if let Some(c) = self.roster.pop() {
                return Some(c);
            }
            if self.roster.pending() == 0 {
                // Nothing in flight: return rather than block real time
                // until a *future* scheduled membership event (same
                // divergence from the simulator as the threaded backend —
                // see `ThreadedEngine::next`).
                return None;
            }
            wait = self.wait_limit();
        }
    }

    fn try_next(&mut self) -> Option<Completion> {
        let _ = self.pump(Some(Duration::ZERO));
        self.roster.pop()
    }

    fn pending(&self) -> usize {
        self.roster.pending()
    }

    fn kill_worker(&mut self, w: WorkerId) {
        if self.roster.kill(w) {
            self.teardown_conn(w);
        }
    }

    fn revive_worker(&mut self, w: WorkerId) -> Result<(), EngineError> {
        if self.roster.alive(w) {
            return Err(EngineError::WorkerAlive(w));
        }
        let started = self.spawn_worker(w);
        self.roster.revive(w, started)
    }

    fn add_worker(&mut self) -> WorkerId {
        let w = self.roster.join();
        self.spec.profiles.push(WorkerProfile::default_speed());
        self.links.push(Link::new(w));
        // A joiner that fails to start died at birth: the roster reports
        // it up, then down.
        let started = self.spawn_worker(w);
        let _ = self.roster.revive(w, started);
        w
    }

    fn schedule_failure(&mut self, w: WorkerId, at: VTime) {
        self.roster.schedule(at, PendingChaos::Fail(w));
    }

    fn schedule_revival(&mut self, w: WorkerId, at: VTime) {
        self.roster.schedule(at, PendingChaos::Revive(w));
    }

    fn schedule_join(&mut self, at: VTime) {
        self.roster.schedule(at, PendingChaos::Join);
    }

    fn next_event_at(&self) -> Option<VTime> {
        self.roster.next_event_at()
    }
}

impl Drop for RemoteEngine {
    fn drop(&mut self) {
        for w in 0..self.links.len() {
            self.teardown_conn(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::net::TcpStream;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::Duration;

    use async_cluster::{CommModel, DelayModel, VDur};
    use bytes::BytesMut;

    use super::*;
    use crate::fault::{FaultDir, FaultPlan};
    use crate::frame::{encode_frame, write_frame};
    use crate::payload::Payload;

    fn spec(workers: usize) -> ClusterSpec {
        ClusterSpec::homogeneous(workers, DelayModel::None)
            .with_comm(CommModel::free())
            .with_sched_overhead(VDur::ZERO)
    }

    /// Routine 1: interpret the request as a `u64`, return it doubled.
    fn doubling_registry() -> RoutineRegistry {
        let mut reg = RoutineRegistry::new();
        reg.register(1, |_ctx, req| {
            let (x, _) = u64::decode(req)?;
            let mut buf = BytesMut::new();
            (2 * x).encode(&mut buf);
            Ok(buf.into_vec())
        });
        reg
    }

    fn loopback_engine(workers: usize) -> RemoteEngine {
        RemoteEngine::new(
            spec(workers),
            0.0,
            RemoteConfig::loopback(Arc::new(doubling_registry)),
        )
        .expect("engine starts")
    }

    fn wired(tag: u64, x: u64) -> (Task, WireTask) {
        let task = Task {
            tag,
            cost: 0.0,
            bytes_in: 0,
            run: Box::new(|_| Box::new(())),
        };
        let wire = WireTask {
            routine: 1,
            build: Box::new(move |_mirror| {
                let mut buf = BytesMut::new();
                x.encode(&mut buf);
                buf.into_vec()
            }),
            decode: Box::new(|resp| {
                let (y, _) = u64::decode(resp)?;
                Ok(Box::new(y) as TaskOutput)
            }),
        };
        (task, wire)
    }

    #[test]
    fn round_trips_tasks_across_real_sockets() {
        let mut e = loopback_engine(3);
        for w in 0..3 {
            let (task, wire) = wired(w as u64, 100 + w as u64);
            e.submit_wired(w, task, wire).unwrap();
        }
        let mut seen = std::collections::HashMap::new();
        while let Some(c) = e.next() {
            match c {
                Completion::Done(d) => {
                    seen.insert(d.tag, *d.output.downcast::<u64>().unwrap());
                }
                other => panic!("unexpected completion: {:?}", completion_kind(&other)),
            }
        }
        assert_eq!(seen.len(), 3);
        for w in 0..3u64 {
            assert_eq!(seen[&w], 2 * (100 + w));
        }
        assert_eq!(e.pending(), 0);
    }

    fn completion_kind(c: &Completion) -> &'static str {
        match c {
            Completion::Done(_) => "Done",
            Completion::Lost { .. } => "Lost",
            Completion::WorkerDown { .. } => "WorkerDown",
            Completion::WorkerUp { .. } => "WorkerUp",
        }
    }

    #[test]
    fn plain_submit_is_rejected() {
        let mut e = loopback_engine(1);
        let err = e
            .submit(
                0,
                Task {
                    tag: 0,
                    cost: 0.0,
                    bytes_in: 0,
                    run: Box::new(|_| Box::new(())),
                },
            )
            .unwrap_err();
        assert_eq!(err, EngineError::Io(io::ErrorKind::Unsupported));
    }

    #[test]
    fn kill_closes_the_connection_and_reports_lost() {
        let mut e = loopback_engine(2);
        let (task, wire) = wired(9, 1);
        e.submit_wired(0, task, wire).unwrap();
        e.kill_worker(0);
        match e.next() {
            Some(Completion::Lost { worker: 0, tag: 9 }) => {}
            other => panic!(
                "expected Lost, got {:?}",
                other.as_ref().map(completion_kind)
            ),
        }
        assert!(!e.alive(0));
        let (task, wire) = wired(1, 1);
        assert_eq!(
            e.submit_wired(0, task, wire).unwrap_err(),
            EngineError::WorkerDead(0)
        );
        // The orphaned completion (if the worker flushed one before the
        // socket died) must never surface.
        std::thread::sleep(Duration::from_millis(20));
        assert!(e.try_next().is_none());
        assert!(e.next().is_none());
    }

    #[test]
    fn revival_spawns_a_fresh_incarnation_with_an_empty_mirror() {
        let mut e = loopback_engine(1);
        let (task, wire) = wired(1, 5);
        e.submit_wired(0, task, wire).unwrap();
        while matches!(e.next(), Some(Completion::Done(_))) {}
        // Seed the mirror, then kill: the revived incarnation must not
        // remember the key.
        e.links[0].mirror.cache_put_local((7, 0), Arc::new(()));
        e.kill_worker(0);
        assert!(matches!(
            e.next(),
            Some(Completion::WorkerDown { worker: 0 })
        ));
        e.revive_worker(0).unwrap();
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 0 })));
        assert_eq!(e.links[0].mirror.cache_len(), 0);
        let (task, wire) = wired(2, 21);
        e.submit_wired(0, task, wire).unwrap();
        match e.next() {
            Some(Completion::Done(d)) => {
                assert_eq!(d.tag, 2);
                assert_eq!(*d.output.downcast::<u64>().unwrap(), 42);
            }
            other => panic!(
                "expected Done, got {:?}",
                other.as_ref().map(completion_kind)
            ),
        }
    }

    #[test]
    fn worker_crash_surfaces_as_lost_via_connection_drop() {
        // Routine 2 aborts the worker mid-task: the driver must observe
        // the dropped socket and report the task lost.
        let registry = Arc::new(|| {
            let mut reg = doubling_registry();
            reg.register(2, |_ctx, _req| {
                Err(DecodeError::Invalid {
                    at: 0,
                    what: "simulated worker crash",
                })
            });
            reg
        });
        let mut e = RemoteEngine::new(spec(1), 0.0, RemoteConfig::loopback(registry))
            .expect("engine starts");
        let task = Task {
            tag: 3,
            cost: 0.0,
            bytes_in: 0,
            run: Box::new(|_| Box::new(())),
        };
        let wire = WireTask {
            routine: 2,
            build: Box::new(|_| Vec::new()),
            decode: Box::new(|_| Ok(Box::new(()) as TaskOutput)),
        };
        e.submit_wired(0, task, wire).unwrap();
        match e.next() {
            Some(Completion::Lost { worker: 0, tag: 3 }) => {}
            other => panic!(
                "expected Lost, got {:?}",
                other.as_ref().map(completion_kind)
            ),
        }
        assert!(!e.alive(0));
        // And the worker is revivable after a real crash.
        e.revive_worker(0).unwrap();
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 0 })));
        let (task, wire) = wired(4, 8);
        e.submit_wired(0, task, wire).unwrap();
        match e.next() {
            Some(Completion::Done(d)) => assert_eq!(*d.output.downcast::<u64>().unwrap(), 16),
            other => panic!(
                "expected Done, got {:?}",
                other.as_ref().map(completion_kind)
            ),
        }
    }

    #[test]
    fn undecodable_response_is_one_death_and_one_lost_task() {
        let mut e = loopback_engine(1);
        let (task, mut wire) = wired(5, 1);
        wire.decode = Box::new(|_| {
            Err(DecodeError::Invalid {
                at: 0,
                what: "not what this driver asked for",
            })
        });
        e.submit_wired(0, task, wire).unwrap();
        assert!(matches!(
            e.next(),
            Some(Completion::Lost { worker: 0, tag: 5 })
        ));
        assert!(!e.alive(0));
        assert_eq!(e.pending(), 0);
        assert!(e.next().is_none(), "the death was already reported");
    }

    #[test]
    fn add_worker_joins_over_the_wire() {
        let mut e = loopback_engine(1);
        let w = e.add_worker();
        assert_eq!(w, 1);
        assert_eq!(e.workers(), 2);
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 1 })));
        let (task, wire) = wired(7, 35);
        e.submit_wired(1, task, wire).unwrap();
        match e.next() {
            Some(Completion::Done(d)) => {
                assert_eq!((d.worker, d.tag), (1, 7));
                assert_eq!(*d.output.downcast::<u64>().unwrap(), 70);
            }
            other => panic!(
                "expected Done, got {:?}",
                other.as_ref().map(completion_kind)
            ),
        }
    }

    #[test]
    fn mirror_charges_fold_into_task_bytes() {
        let mut e = loopback_engine(1);
        let task = Task {
            tag: 0,
            cost: 0.0,
            bytes_in: 10,
            run: Box::new(|_| Box::new(())),
        };
        let wire = WireTask {
            routine: 1,
            build: Box::new(|mirror| {
                // A build that ships 90 bytes of model state.
                mirror.cache_put_fetched((1, 0), Arc::new(()), 90);
                let mut buf = BytesMut::new();
                4u64.encode(&mut buf);
                buf.into_vec()
            }),
            decode: Box::new(|resp| {
                let (y, _) = u64::decode(resp)?;
                Ok(Box::new(y) as TaskOutput)
            }),
        };
        e.submit_wired(0, task, wire).unwrap();
        match e.next() {
            Some(Completion::Done(d)) => assert_eq!(d.bytes_in, 100),
            other => panic!(
                "expected Done, got {:?}",
                other.as_ref().map(completion_kind)
            ),
        }
    }

    #[test]
    fn scheduled_chaos_kills_and_respawns_real_connections() {
        let mut e = loopback_engine(2);
        e.schedule_failure(1, VTime::from_micros(1_000));
        e.schedule_revival(1, VTime::from_micros(5_000));
        e.schedule_join(VTime::from_micros(8_000));
        std::thread::sleep(Duration::from_millis(10));
        assert!(matches!(
            e.next(),
            Some(Completion::WorkerDown { worker: 1 })
        ));
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 1 })));
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 2 })));
        assert!(e.next().is_none());
        assert_eq!(e.workers(), 3);
        assert!((0..3).all(|w| e.alive(w)));
        // All three (re)spawned workers serve tasks.
        for w in 0..3 {
            let (task, wire) = wired(w as u64, w as u64);
            e.submit_wired(w, task, wire).unwrap();
        }
        let mut done = 0;
        while let Some(Completion::Done(_)) = e.next() {
            done += 1;
        }
        assert_eq!(done, 3);
    }

    // ---------------------------------------------------------------
    // Supervision: heartbeats, deadlines, fault paths
    // ---------------------------------------------------------------

    fn supervised_cfg(cfg: RemoteConfig) -> RemoteConfig {
        RemoteConfig {
            heartbeat: Some(Duration::from_millis(2)),
            liveness: Some(Duration::from_millis(60)),
            ..cfg
        }
    }

    #[test]
    fn liveness_without_heartbeat_is_rejected() {
        let cfg = RemoteConfig {
            liveness: Some(Duration::from_millis(10)),
            ..RemoteConfig::loopback(Arc::new(doubling_registry))
        };
        match RemoteEngine::new(spec(1), 0.0, cfg).map(|_| ()) {
            Err(EngineError::Io(io::ErrorKind::InvalidInput)) => {}
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn invalid_spec_and_time_scale_are_rejected_not_panics() {
        let mut short = spec(2);
        short.profiles.pop();
        for (spec, time_scale) in [(short, 0.0), (spec(1), -1.0), (spec(1), f64::NAN)] {
            let cfg = RemoteConfig::loopback(Arc::new(doubling_registry));
            match RemoteEngine::new(spec, time_scale, cfg).map(|_| ()) {
                Err(EngineError::Io(io::ErrorKind::InvalidInput)) => {}
                other => panic!("time_scale {time_scale}: expected InvalidInput, got {other:?}"),
            }
        }
    }

    #[test]
    fn liveness_deadline_declares_a_partitioned_worker_dead() {
        // hang_after = 0: worker 0 greets, then every outbound frame
        // (completions and beats) vanishes — a one-way partition. No chaos
        // script kills it; only the liveness deadline can.
        let cfg = RemoteConfig {
            fault: FaultPlan {
                hang_worker: Some(0),
                hang_after: 0,
                ..FaultPlan::default()
            },
            ..supervised_cfg(RemoteConfig::loopback(Arc::new(doubling_registry)))
        };
        let mut e = RemoteEngine::new(spec(1), 0.0, cfg).expect("engine starts");
        let (task, wire) = wired(5, 4);
        e.submit_wired(0, task, wire).unwrap();
        let t0 = Instant::now();
        match e.next() {
            Some(Completion::Lost { worker: 0, tag: 5 }) => {}
            other => panic!(
                "expected Lost, got {:?}",
                other.as_ref().map(completion_kind)
            ),
        }
        assert!(!e.alive(0), "silent worker must be declared dead");
        assert!(
            t0.elapsed() >= Duration::from_millis(55),
            "death must wait out the liveness deadline, not fire early"
        );
        // The partitioned worker is revivable like any other casualty; the
        // fresh incarnation gets a fresh injector state, but the plan still
        // says worker 0 hangs from frame zero — so don't submit to it, just
        // confirm the respawn handshake works.
        e.revive_worker(0).unwrap();
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 0 })));
    }

    #[test]
    fn heartbeats_keep_a_slow_worker_alive_past_the_liveness_deadline() {
        // Routine 9 takes ~3x the liveness deadline to answer. Without
        // heartbeats the driver would declare the worker dead; with them
        // the completion must arrive as a normal Done.
        let registry = Arc::new(|| {
            let mut reg = doubling_registry();
            reg.register(9, |_ctx, req| {
                std::thread::sleep(Duration::from_millis(180));
                Ok(req.to_vec())
            });
            reg
        });
        let cfg = supervised_cfg(RemoteConfig::loopback(registry));
        let mut e = RemoteEngine::new(spec(1), 0.0, cfg).expect("engine starts");
        let task = Task {
            tag: 1,
            cost: 0.0,
            bytes_in: 0,
            run: Box::new(|_| Box::new(())),
        };
        let wire = WireTask {
            routine: 9,
            build: Box::new(|_| Vec::new()),
            decode: Box::new(|_| Ok(Box::new(()) as TaskOutput)),
        };
        e.submit_wired(0, task, wire).unwrap();
        match e.next() {
            Some(Completion::Done(d)) => assert_eq!(d.tag, 1),
            other => panic!(
                "expected Done, got {:?}",
                other.as_ref().map(completion_kind)
            ),
        }
        assert!(e.alive(0), "a beating worker must not be declared dead");
    }

    #[test]
    fn task_deadline_kills_a_worker_that_beats_but_never_answers() {
        // Routine 9 sleeps far past the task deadline while the beat
        // thread keeps the liveness check satisfied: only the per-task
        // deadline can reclaim the submission.
        let registry = Arc::new(|| {
            let mut reg = doubling_registry();
            reg.register(9, |_ctx, req| {
                std::thread::sleep(Duration::from_millis(400));
                Ok(req.to_vec())
            });
            reg
        });
        let cfg = RemoteConfig {
            task_deadline: Some(Duration::from_millis(50)),
            ..supervised_cfg(RemoteConfig::loopback(registry))
        };
        let mut e = RemoteEngine::new(spec(1), 0.0, cfg).expect("engine starts");
        let task = Task {
            tag: 8,
            cost: 0.0,
            bytes_in: 0,
            run: Box::new(|_| Box::new(())),
        };
        let wire = WireTask {
            routine: 9,
            build: Box::new(|_| Vec::new()),
            decode: Box::new(|_| Ok(Box::new(()) as TaskOutput)),
        };
        let t0 = Instant::now();
        e.submit_wired(0, task, wire).unwrap();
        match e.next() {
            Some(Completion::Lost { worker: 0, tag: 8 }) => {}
            other => panic!(
                "expected Lost, got {:?}",
                other.as_ref().map(completion_kind)
            ),
        }
        assert!(!e.alive(0));
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(45) && waited < Duration::from_millis(350),
            "deadline fired at {waited:?}, expected ~50ms"
        );
        // The late completion from the killed incarnation must be dropped
        // by the epoch guard once it finally flushes.
        e.revive_worker(0).unwrap();
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 0 })));
        std::thread::sleep(Duration::from_millis(400));
        let (task, wire) = wired(2, 3);
        e.submit_wired(0, task, wire).unwrap();
        match e.next() {
            Some(Completion::Done(d)) => assert_eq!(d.tag, 2),
            other => panic!(
                "expected Done, got {:?}",
                other.as_ref().map(completion_kind)
            ),
        }
    }

    #[test]
    fn truncate_fault_tears_the_stream_and_surfaces_lost() {
        // Worker→driver truncation probability 1: the first completion is
        // torn mid-frame and the connection shut down; the reader must
        // surface a lost task, never a mangled Done.
        let cfg = RemoteConfig {
            fault: FaultPlan {
                seed: 7,
                truncate: 1.0,
                only: Some(FaultDir::WorkerToDriver),
                ..FaultPlan::default()
            },
            ..RemoteConfig::loopback(Arc::new(doubling_registry))
        };
        let mut e = RemoteEngine::new(spec(1), 0.0, cfg).expect("engine starts");
        let (task, wire) = wired(6, 2);
        e.submit_wired(0, task, wire).unwrap();
        match e.next() {
            Some(Completion::Lost { worker: 0, tag: 6 }) => {}
            other => panic!(
                "expected Lost, got {:?}",
                other.as_ref().map(completion_kind)
            ),
        }
        assert!(!e.alive(0));
    }

    #[test]
    fn handshake_timeout_is_configurable_and_fires() {
        // `sh -c 'sleep 30'` spawns fine but never connects: the
        // configured (short) handshake deadline must fire, not the old
        // hardcoded 10 s.
        let cfg = RemoteConfig {
            handshake_timeout: Duration::from_millis(80),
            ..RemoteConfig::process(PathBuf::from("sh"))
        };
        let cfg = RemoteConfig {
            launcher: WorkerLauncher::Process {
                program: PathBuf::from("sh"),
                args: vec!["-c".into(), "sleep 30".into(), "sh".into()],
            },
            ..cfg
        };
        let t0 = Instant::now();
        match RemoteEngine::new(spec(1), 0.0, cfg).map(|_| ()) {
            Err(EngineError::Io(io::ErrorKind::TimedOut)) => {}
            other => panic!("expected TimedOut, got {other:?}"),
        }
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(75) && waited < Duration::from_secs(5),
            "handshake timeout honored the configured deadline: {waited:?}"
        );
    }

    #[test]
    fn worker_exiting_before_connecting_is_a_refused_spawn() {
        let cfg = RemoteConfig {
            launcher: WorkerLauncher::Process {
                program: PathBuf::from("sh"),
                args: vec!["-c".into(), "exit 0".into(), "sh".into()],
            },
            ..RemoteConfig::process(PathBuf::from("sh"))
        };
        match RemoteEngine::new(spec(1), 0.0, cfg).map(|_| ()) {
            Err(EngineError::Io(io::ErrorKind::ConnectionRefused)) => {}
            other => panic!("expected ConnectionRefused, got {other:?}"),
        }
    }

    #[test]
    fn mid_handshake_disconnects_are_dropped_not_fatal() {
        // A rogue peer hammers the driver's port while the cluster forms:
        // it connects, writes a torn frame (or a stale greeting), and
        // disconnects. The handshake loop must discard every such
        // connection and still complete the real workers' handshakes.
        // The rogue starts once the driver listens — a connect to the
        // probed port before the bind could open a connection to itself
        // and hold the port — and the first worker waits for its first
        // visit.
        let addr = probed_addr();
        let (bound_tx, bound_rx) = mpsc::channel::<()>();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let gate = Mutex::new(Some((bound_tx, go_rx)));
        let registry = Arc::new(move || {
            if let Some((bound, go)) = gate.lock().unwrap().take() {
                bound.send(()).unwrap();
                go.recv().unwrap();
            }
            doubling_registry()
        });
        let stop = Arc::new(AtomicBool::new(false));
        let rogue = {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                bound_rx.recv().unwrap();
                let mut go = Some(go_tx);
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    if let Ok(mut s) = TcpStream::connect(&addr) {
                        if i.is_multiple_of(2) {
                            // A torn frame: length prefix promising 3 bytes,
                            // then EOF.
                            let _ = s.write_all(&[3, 0, 0, 0]);
                        } else {
                            // A stale greeting from a foreign incarnation.
                            let _ = write_frame(
                                &mut s,
                                &Msg::WorkerUp {
                                    worker: 99,
                                    epoch: 77,
                                },
                            );
                        }
                        drop(s);
                    }
                    if let Some(go) = go.take() {
                        go.send(()).unwrap();
                    }
                    i += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        let cfg = RemoteConfig {
            addr: addr.clone(),
            ..RemoteConfig::loopback(registry)
        };
        let mut e = RemoteEngine::new(spec(2), 0.0, cfg).expect("cluster forms despite rogues");
        for w in 0..2 {
            let (task, wire) = wired(w as u64, 50 + w as u64);
            e.submit_wired(w, task, wire).unwrap();
        }
        let mut done = 0;
        while let Some(c) = e.next() {
            if matches!(c, Completion::Done(_)) {
                done += 1;
            }
        }
        assert_eq!(done, 2);
        stop.store(true, Ordering::SeqCst);
        rogue.join().unwrap();
    }

    #[test]
    fn an_explicit_revival_whose_spawn_fails_is_reported_up_then_down() {
        // The loopback factory's second start panics before connecting, so
        // the revival's handshake times out: the caller gets the error and
        // the stream gets the incarnation that died at birth.
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let registry = Arc::new(move || {
            let call = calls.fetch_add(1, Ordering::SeqCst);
            assert_ne!(call, 1, "the second worker start fails");
            doubling_registry()
        });
        let cfg = RemoteConfig {
            handshake_timeout: Duration::from_millis(100),
            ..RemoteConfig::loopback(registry)
        };
        let mut e = RemoteEngine::new(spec(1), 0.0, cfg).expect("engine starts");
        e.kill_worker(0);
        assert!(matches!(
            e.next(),
            Some(Completion::WorkerDown { worker: 0 })
        ));
        assert_eq!(
            e.revive_worker(0).unwrap_err(),
            EngineError::Io(io::ErrorKind::TimedOut)
        );
        assert!(!e.alive(0) && !e.available(0));
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 0 })));
        assert!(matches!(
            e.next(),
            Some(Completion::WorkerDown { worker: 0 })
        ));
        assert!(e.next().is_none());
        e.revive_worker(0).unwrap();
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 0 })));
        let (task, wire) = wired(1, 4);
        e.submit_wired(0, task, wire).unwrap();
        match e.next() {
            Some(Completion::Done(d)) => assert_eq!(*d.output.downcast::<u64>().unwrap(), 8),
            other => panic!(
                "expected Done, got {:?}",
                other.as_ref().map(completion_kind)
            ),
        }
    }

    #[test]
    fn next_event_at_reports_the_chaos_horizon() {
        let mut e = loopback_engine(1);
        assert_eq!(e.next_event_at(), None);
        e.schedule_revival(0, VTime::from_micros(50_000));
        e.schedule_failure(0, VTime::from_micros(10_000));
        assert_eq!(e.next_event_at(), Some(VTime::from_micros(10_000)));
    }

    #[test]
    fn silent_peers_cannot_hold_the_handshake() {
        // Three peers connect to the driver's port ahead of every worker and
        // never write a byte. Each would cost a whole handshake timeout if
        // the handshake read one accepted connection at a time; every worker
        // must still greet within one timeout in all.
        let addr = probed_addr();
        let (bound_tx, bound_rx) = mpsc::channel::<()>();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let gate = Mutex::new(Some((bound_tx, go_rx)));
        let registry = Arc::new(move || {
            // The first worker start: the driver listens, and the silent
            // peers connect before this worker does.
            if let Some((bound, go)) = gate.lock().unwrap().take() {
                bound.send(()).unwrap();
                go.recv().unwrap();
            }
            doubling_registry()
        });
        let silent = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                bound_rx.recv().unwrap();
                let peers: Vec<TcpStream> =
                    (0..3).map(|_| TcpStream::connect(&addr).unwrap()).collect();
                go_tx.send(()).unwrap();
                peers
            })
        };
        let timeout = Duration::from_millis(300);
        let cfg = RemoteConfig {
            addr,
            handshake_timeout: timeout,
            ..RemoteConfig::loopback(registry)
        };
        let t0 = Instant::now();
        let mut e = RemoteEngine::new(spec(3), 0.0, cfg).expect("every worker greets");
        let waited = t0.elapsed();
        let peers = silent.join().unwrap();
        assert_eq!(peers.len(), 3);
        assert!(waited < timeout, "the handshake took {waited:?}");
        for w in 0..3 {
            let (task, wire) = wired(w as u64, w as u64);
            e.submit_wired(w, task, wire).unwrap();
        }
        let mut done = 0;
        while let Some(Completion::Done(_)) = e.next() {
            done += 1;
        }
        assert_eq!(done, 3);
    }

    /// A free loopback port, for an engine whose address a peer must know
    /// before the engine listens.
    fn probed_addr() -> String {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    }

    /// A one-worker engine whose worker is the test itself. The launched
    /// process never connects: it writes the address it was given to a
    /// file and sleeps. A thread reads the address, connects in its place
    /// and greets as incarnation 0 of worker 0. Returns the engine and the
    /// worker's end of the connection.
    fn scripted_worker() -> (RemoteEngine, TcpStream) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let note = std::env::temp_dir().join(format!(
            "sparklet-scripted-worker-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::SeqCst)
        ));
        let greeter = {
            let note = note.clone();
            std::thread::spawn(move || {
                let t0 = Instant::now();
                // The newline ends a whole address.
                let addr = loop {
                    let written = std::fs::read_to_string(&note).unwrap_or_default();
                    if let Some(addr) = written.strip_suffix('\n') {
                        break addr.to_string();
                    }
                    assert!(t0.elapsed() < Duration::from_secs(5), "no address");
                    std::thread::sleep(Duration::from_millis(1));
                };
                std::fs::remove_file(&note).unwrap();
                let mut s = TcpStream::connect(&addr).unwrap();
                s.set_nodelay(true).unwrap();
                write_frame(
                    &mut s,
                    &Msg::WorkerUp {
                        worker: 0,
                        epoch: 0,
                    },
                )
                .unwrap();
                s
            })
        };
        // `sh -c SCRIPT NOTE --connect ADDR ..`: `$0` is the note, `$2`
        // the address.
        let script = r#"printf '%s\n' "$2" > "$0"; exec sleep 30"#;
        let cfg = RemoteConfig {
            launcher: WorkerLauncher::Process {
                program: PathBuf::from("sh"),
                args: vec!["-c".into(), script.into(), note.display().to_string()],
            },
            ..RemoteConfig::process(PathBuf::from("sh"))
        };
        let e = RemoteEngine::new(spec(1), 0.0, cfg).expect("the test greets");
        (e, greeter.join().unwrap())
    }

    /// The frame bytes of `msgs`, back to back.
    fn frames(msgs: &[Msg]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        for m in msgs {
            encode_frame(m, &mut buf);
        }
        buf.into_vec()
    }

    /// Worker 0's answer to `wired(tag, x)`.
    fn answer(tag: u64, x: u64) -> Msg {
        let mut response = BytesMut::new();
        (2 * x).encode(&mut response);
        Msg::Completion {
            tag,
            epoch: 0,
            response: response.into_vec(),
        }
    }

    const BEAT: Msg = Msg::Heartbeat {
        worker: 0,
        epoch: 0,
    };

    /// Pumps without waiting until worker 0's inbox holds `n` unread bytes.
    fn pump_until_held(e: &mut RemoteEngine, n: usize) -> (usize, usize) {
        let t0 = Instant::now();
        loop {
            assert!(e.try_next().is_none(), "no whole frame has arrived");
            let held = e.links[0].conn.as_ref().expect("connected").inbox.held();
            if held.0 == n || t0.elapsed() > Duration::from_secs(5) {
                return held;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_completion_written_a_byte_at_a_time_is_one_done() {
        let (mut e, mut peer) = scripted_worker();
        let (task, wire) = wired(4, 21);
        e.submit_wired(0, task, wire).unwrap();
        let bytes = frames(&[answer(4, 21)]);
        let (last, head) = bytes.split_last().unwrap();
        for (i, b) in head.iter().enumerate() {
            peer.write_all(std::slice::from_ref(b)).unwrap();
            assert_eq!(pump_until_held(&mut e, i + 1).0, i + 1);
        }
        peer.write_all(std::slice::from_ref(last)).unwrap();
        match e.next() {
            Some(Completion::Done(d)) => {
                assert_eq!(d.tag, 4);
                assert_eq!(*d.output.downcast::<u64>().unwrap(), 42);
            }
            other => panic!(
                "expected Done, got {:?}",
                other.as_ref().map(completion_kind)
            ),
        }
        assert!(e.alive(0) && e.available(0));
        assert!(e.next().is_none());
    }

    #[test]
    fn frames_sharing_one_write_are_all_accepted_in_order() {
        // Two completions for the one seated task with heartbeats between,
        // in one write. Read in order, the first is the task's Done and the
        // second — whose response no decoder accepts — finds no seat and
        // changes nothing. Read the other way round, the worker would die.
        let (mut e, mut peer) = scripted_worker();
        let (task, wire) = wired(7, 5);
        e.submit_wired(0, task, wire).unwrap();
        let garbled = Msg::Completion {
            tag: 7,
            epoch: 0,
            response: Vec::new(),
        };
        let before = e.links[0].last_beat;
        peer.write_all(&frames(&[BEAT, answer(7, 5), BEAT, garbled, BEAT]))
            .unwrap();
        match e.next() {
            Some(Completion::Done(d)) => {
                assert_eq!(d.tag, 7);
                assert_eq!(*d.output.downcast::<u64>().unwrap(), 10);
            }
            other => panic!(
                "expected Done, got {:?}",
                other.as_ref().map(completion_kind)
            ),
        }
        assert!(e.try_next().is_none());
        assert!(e.alive(0) && e.available(0));
        assert!(e.links[0].last_beat > before);
        let conn = e.links[0].conn.as_ref().expect("still connected");
        assert_eq!(conn.inbox.held().0, 0, "every frame was consumed");
    }

    #[test]
    fn end_of_stream_mid_frame_is_one_lost_task_and_a_dead_worker() {
        let (mut e, mut peer) = scripted_worker();
        let (task, wire) = wired(2, 3);
        e.submit_wired(0, task, wire).unwrap();
        let bytes = frames(&[answer(2, 3)]);
        peer.write_all(&bytes[..bytes.len() / 2]).unwrap();
        drop(peer);
        assert!(matches!(
            e.next(),
            Some(Completion::Lost { worker: 0, tag: 2 })
        ));
        assert!(!e.alive(0));
        assert!(e.next().is_none(), "one loss, reported once");
    }

    #[test]
    fn a_refused_length_prefix_is_one_lost_task_before_any_growth() {
        for prefix in [u32::MAX, 0] {
            let (mut e, mut peer) = scripted_worker();
            let (task, wire) = wired(3, 1);
            e.submit_wired(0, task, wire).unwrap();
            let bytes = prefix.to_le_bytes();
            // Half the prefix: held as it arrived, nothing sized by it.
            peer.write_all(&bytes[..2]).unwrap();
            let (unread, allocated) = pump_until_held(&mut e, 2);
            assert_eq!(unread, 2, "prefix {prefix:#x}");
            assert!(allocated < 64, "prefix {prefix:#x}: {allocated} bytes");
            peer.write_all(&bytes[2..]).unwrap();
            assert!(matches!(
                e.next(),
                Some(Completion::Lost { worker: 0, tag: 3 })
            ));
            assert!(!e.alive(0), "prefix {prefix:#x}");
            assert!(e.next().is_none());
        }
    }

    #[test]
    fn next_with_every_worker_dead_returns_none_without_blocking() {
        let mut e = loopback_engine(2);
        e.kill_worker(0);
        e.kill_worker(1);
        // A timer armed far ahead gives the pump a reason to wait, were it
        // to wait without a connection to wait on.
        e.schedule_revival(0, VTime::from_micros(60_000_000));
        let mut downs = 0;
        while let Some(Completion::WorkerDown { .. }) = e.next() {
            downs += 1;
        }
        assert_eq!(downs, 2);
        let t0 = Instant::now();
        assert!(e.next().is_none());
        assert!(e.try_next().is_none());
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn worker_args_roundtrip_through_the_command_line() {
        let fault = FaultPlan {
            seed: 3,
            drop: 0.25,
            hang_worker: Some(1),
            hang_after: 4,
            only: Some(FaultDir::WorkerToDriver),
            ..FaultPlan::default()
        };
        for (heartbeat, fault) in [
            (None, FaultPlan::none()),
            (Some(Duration::from_micros(2_500)), fault),
        ] {
            let args = launcher::WorkerArgs {
                addr: "127.0.0.1:4242".into(),
                worker: 7,
                epoch: 12,
                opts: WorkerOpts { heartbeat, fault },
            };
            // The launcher's own arguments lead the command line.
            let line = strings(&["-v", "--threads", "2"])
                .into_iter()
                .chain(args.to_args());
            let back = launcher::WorkerArgs::parse(line).expect("a written line parses");
            assert_eq!(
                (back.addr.as_str(), back.worker, back.epoch),
                (args.addr.as_str(), args.worker, args.epoch)
            );
            assert_eq!(back.opts.heartbeat, args.opts.heartbeat);
            assert_eq!(back.opts.fault, args.opts.fault);
        }
    }

    #[test]
    fn malformed_worker_flags_are_refused() {
        let base = ["--connect", "127.0.0.1:1", "--worker", "0"];
        for bad in [
            &["--epoch", "x"][..],
            &["--beat-us", "-1"],
            &["--worker", "w"],
            &["--fault", "drop=lots"],
            &["--epoch"],
        ] {
            let line = strings(&base).into_iter().chain(strings(bad));
            let err = launcher::WorkerArgs::parse(line).expect_err("malformed flag");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad:?}");
            assert!(err.to_string().contains("usage:"), "{bad:?}: {err}");
        }
        let missing = launcher::WorkerArgs::parse(strings(&["--connect", "127.0.0.1:1"]));
        assert_eq!(missing.unwrap_err().kind(), io::ErrorKind::InvalidInput);
    }
}

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
//! * a spontaneously dropped socket is detected by the per-connection
//!   reader thread and handled identically — lost task, dead worker;
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
//!   [`FaultPlan`] drops/delays/duplicates/truncates/resets frames on
//!   either direction, which is how the supervision paths are proven —
//!   see [`crate::fault`].
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

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::BytesMut;

use async_cluster::straggler::DelayAssignment;
use async_cluster::{ClusterSpec, CommModel, VTime, WorkerId, WorkerProfile};

use crate::engine::{
    check_cluster, Completion, Engine, EngineError, PendingChaos, Roster, Task, TaskDone,
    TaskOutput, WireTask,
};
use crate::fault::{FaultAction, FaultDir, FaultInjector, FaultPlan};
use crate::frame::{encode_frame, read_frame, write_frame, Msg};
use crate::payload::DecodeError;
use crate::worker::WorkerCtx;

/// Default for [`RemoteConfig::handshake_timeout`].
const DEFAULT_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Upper bound on how long the result pump blocks per wait *while a timer
/// is armed* (scheduled chaos, liveness, or task deadlines): it waits
/// until the earliest deadline, capped by this, the historical poll
/// cadence. With no timers armed it parks on a blocking receive and burns
/// no cycles.
const DEFAULT_POLL_INTERVAL: Duration = Duration::from_micros(500);

/// How a [`RemoteEngine`] starts worker incarnations.
pub enum WorkerLauncher {
    /// Spawn `program args.. --connect <addr> --worker <id> --epoch <e>`
    /// (plus `--beat-us <n>` / `--fault <spec>` when heartbeats or fault
    /// injection are configured) as a child process. The program is
    /// expected to call [`worker_main`] (or [`run_worker_with`]) with its
    /// routine registry.
    Process {
        /// Worker executable.
        program: PathBuf,
        /// Extra arguments placed before the `--connect ..` triple.
        args: Vec<String>,
    },
    /// Run [`run_worker_with`] on an in-process thread — still a real TCP
    /// connection through the loopback interface, just without the
    /// process-management half. Used by tests that exercise the wire
    /// protocol, epoch guard, and disconnect handling in isolation.
    Loopback(Arc<dyn Fn() -> RoutineRegistry + Send + Sync>),
}

/// Configuration for [`RemoteEngine::new`]. Everything beyond `addr` and
/// `launcher` defaults to the unsupervised engine: generous handshake
/// timeout, no heartbeats, no deadlines, zero-fault transport. There is no
/// pipeline depth: a worker holds one task at a time (module docs, "One
/// slot per worker").
pub struct RemoteConfig {
    /// Address the driver listens on; workers connect back to it.
    /// `127.0.0.1:0` (any free loopback port) by default.
    pub addr: String,
    /// How worker processes are started.
    pub launcher: WorkerLauncher,
    /// How long to wait for a freshly spawned worker process to connect
    /// and greet before declaring the spawn failed (default 10 s).
    pub handshake_timeout: Duration,
    /// Worker heartbeat period. `None` (default) disables heartbeats.
    pub heartbeat: Option<Duration>,
    /// Liveness deadline: a worker whose frames (beats or completions)
    /// stop arriving for this long is declared dead. Requires `heartbeat`.
    /// `None` (default) disables the check.
    pub liveness: Option<Duration>,
    /// Per-task deadline: an in-flight submission older than this kills
    /// the worker incarnation and surfaces the task as lost. `None`
    /// (default) disables the check.
    pub task_deadline: Option<Duration>,
    /// Wire-level fault injection plan (default zero — no faults).
    pub fault: FaultPlan,
}

impl RemoteConfig {
    pub(crate) fn with_launcher(launcher: WorkerLauncher) -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            launcher,
            handshake_timeout: DEFAULT_HANDSHAKE_TIMEOUT,
            heartbeat: None,
            liveness: None,
            task_deadline: None,
            fault: FaultPlan::none(),
        }
    }

    /// Process-launching config using `program` as the worker binary.
    pub fn process(program: PathBuf) -> Self {
        Self::with_launcher(WorkerLauncher::Process {
            program,
            args: Vec::new(),
        })
    }

    /// Loopback-thread config (tests); `registry` builds each worker
    /// incarnation's routine table.
    pub fn loopback(registry: Arc<dyn Fn() -> RoutineRegistry + Send + Sync>) -> Self {
        Self::with_launcher(WorkerLauncher::Loopback(registry))
    }
}

/// Locates the conventional worker binary (`async_worker`): the
/// `ASYNC_WORKER_BIN` environment variable if set, otherwise a file named
/// `async_worker` next to (or in an ancestor target directory of) the
/// current executable — which finds `target/<profile>/async_worker` from
/// test binaries, benches, and examples alike.
pub fn default_worker_bin() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("ASYNC_WORKER_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    for dir in exe.ancestors().skip(1) {
        let candidate = dir.join("async_worker");
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

/// One worker incarnation's driver-side connection state.
struct WorkerConn {
    /// Write half (a dup of the reader thread's stream).
    stream: TcpStream,
    /// The child process, when launched as one.
    child: Option<Child>,
}

/// What the per-connection reader threads report.
enum WireEvent {
    /// A completion frame arrived.
    Done {
        worker: WorkerId,
        epoch: u64,
        tag: u64,
        response: Vec<u8>,
    },
    /// A heartbeat frame arrived.
    Beat { worker: WorkerId, epoch: u64 },
    /// The connection dropped (EOF, reset, or a malformed frame).
    Gone { worker: WorkerId, epoch: u64 },
}

/// What a worker's seat holds beside the task's tag: response decoding,
/// the bytes the task shipped, and the real instant its deadline counts
/// from.
struct Wired {
    #[allow(clippy::type_complexity)]
    decode: Box<dyn Fn(&[u8]) -> Result<TaskOutput, DecodeError> + Send>,
    bytes_in: u64,
    issued_real: Instant,
}

/// The remote multi-process engine. See the module docs.
pub struct RemoteEngine {
    spec: ClusterSpec,
    assignment: Arc<DelayAssignment>,
    comm: CommModel,
    time_scale: f64,
    start: Instant,
    listener: TcpListener,
    local_addr: String,
    launcher: WorkerLauncher,
    handshake_timeout: Duration,
    heartbeat: Option<Duration>,
    liveness: Option<Duration>,
    task_deadline: Option<Duration>,
    fault: FaultPlan,
    conns: Vec<Option<WorkerConn>>,
    readers: Vec<Option<std::thread::JoinHandle<()>>>,
    results_tx: Sender<WireEvent>,
    results_rx: Receiver<WireEvent>,
    /// Driver-side mirror of each worker incarnation's cache: which
    /// `(broadcast, version)` keys (and shipped partitions) it holds.
    /// Reset to empty on revive/join, exactly like the real cache.
    mirrors: Vec<WorkerCtx>,
    /// Membership, one slot per worker, queued completions, and scheduled
    /// membership events.
    roster: Roster<Wired>,
    /// Last instant each worker proved it was alive (handshake, beat, or
    /// completion).
    last_beat: Vec<Instant>,
    /// Driver→worker fault injectors, one per live incarnation when the
    /// plan is non-zero.
    injectors: Vec<Option<FaultInjector>>,
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
        let assignment = Arc::new(spec.delay.assign(n));
        let comm = spec.comm.clone();
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| EngineError::Io(e.kind()))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| EngineError::Io(e.kind()))?
            .to_string();
        let (res_tx, res_rx) = channel::<WireEvent>();
        let now = Instant::now();
        let mut engine = Self {
            spec,
            assignment,
            comm,
            time_scale,
            start: now,
            listener,
            local_addr,
            launcher: cfg.launcher,
            handshake_timeout: cfg.handshake_timeout,
            heartbeat: cfg.heartbeat,
            liveness: cfg.liveness,
            task_deadline: cfg.task_deadline,
            fault: cfg.fault,
            conns: (0..n).map(|_| None).collect(),
            readers: (0..n).map(|_| None).collect(),
            results_tx: res_tx,
            results_rx: res_rx,
            mirrors: (0..n).map(WorkerCtx::new).collect(),
            roster: Roster::new(n),
            last_beat: vec![now; n],
            injectors: (0..n).map(|_| None).collect(),
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

    /// Launches worker `w`'s current incarnation and completes the
    /// connection handshake.
    fn spawn_worker(&mut self, w: WorkerId) -> io::Result<()> {
        let epoch = self.roster.epoch(w);
        let opts = WorkerOpts {
            heartbeat: self.heartbeat,
            fault: self.fault.clone(),
        };
        let mut child = match &self.launcher {
            WorkerLauncher::Process { program, args } => {
                let mut cmd = Command::new(program);
                cmd.args(args)
                    .arg("--connect")
                    .arg(&self.local_addr)
                    .arg("--worker")
                    .arg(w.to_string())
                    .arg("--epoch")
                    .arg(epoch.to_string());
                if let Some(beat) = opts.heartbeat {
                    cmd.arg("--beat-us").arg(beat.as_micros().to_string());
                }
                if !opts.fault.is_zero() {
                    cmd.arg("--fault").arg(opts.fault.to_spec());
                }
                Some(cmd.stdin(Stdio::null()).spawn()?)
            }
            WorkerLauncher::Loopback(factory) => {
                let addr = self.local_addr.clone();
                let factory = Arc::clone(factory);
                std::thread::Builder::new()
                    .name(format!("remote-loopback-{w}-e{epoch}"))
                    .spawn(move || {
                        let _ = run_worker_with(&addr, w as u32, epoch, factory(), opts);
                    })?;
                None
            }
        };
        let stream = match self.await_hello(w, epoch, child.as_mut()) {
            Ok(s) => s,
            Err(e) => {
                if let Some(mut c) = child {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(e);
            }
        };
        let reader_stream = stream.try_clone()?;
        self.conns[w] = Some(WorkerConn { stream, child });
        self.last_beat[w] = Instant::now();
        self.injectors[w] = self
            .fault
            .applies(FaultDir::DriverToWorker)
            .then(|| self.fault.injector(w, epoch, FaultDir::DriverToWorker));
        let tx = self.results_tx.clone();
        let handle = std::thread::Builder::new()
            .name(format!("remote-reader-{w}-e{epoch}"))
            .spawn(move || reader_loop(w, epoch, reader_stream, tx))?;
        if let Some(old) = self.readers[w].replace(handle) {
            let _ = old.join();
        }
        Ok(())
    }

    /// Accepts connections until incarnation `epoch` of worker `w` greets,
    /// dropping stale or foreign greetings, with a deadline.
    fn await_hello(
        &self,
        w: WorkerId,
        epoch: u64,
        mut child: Option<&mut Child>,
    ) -> io::Result<TcpStream> {
        let timeout = self.handshake_timeout;
        let deadline = Instant::now() + timeout;
        self.listener.set_nonblocking(true)?;
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_read_timeout(Some(timeout))?;
                    match read_frame(&mut stream) {
                        Ok(Msg::WorkerUp {
                            worker,
                            epoch: greeted,
                        }) if worker as WorkerId == w && greeted == epoch => {
                            stream.set_read_timeout(None)?;
                            stream.set_nodelay(true)?;
                            return Ok(stream);
                        }
                        // A greeting from a stale incarnation or unexpected
                        // worker, a torn frame from a peer that dropped
                        // mid-handshake, or outright garbage: close it and
                        // keep waiting for ours.
                        _ => {
                            let _ = stream.shutdown(Shutdown::Both);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if let Some(c) = child.as_deref_mut() {
                        if let Some(status) = c.try_wait()? {
                            return Err(io::Error::new(
                                io::ErrorKind::ConnectionRefused,
                                format!("worker {w} exited before connecting: {status}"),
                            ));
                        }
                    }
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("worker {w} did not connect within {timeout:?}"),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn elapsed(&self) -> VTime {
        VTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    /// Tears down worker `w`'s current incarnation: socket shutdown, child
    /// kill + reap, injector dropped. The reader thread exits on the
    /// dropped connection and its `Gone` event is epoch-filtered.
    fn teardown_conn(&mut self, w: WorkerId) {
        self.injectors[w] = None;
        if let Some(mut conn) = self.conns[w].take() {
            let _ = write_frame(&mut conn.stream, &Msg::Shutdown);
            let _ = conn.stream.shutdown(Shutdown::Both);
            if let Some(mut child) = conn.child {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    /// The instant `w` is declared dead unless a frame (or its task's
    /// result) arrives first: the earlier of its liveness and task
    /// deadlines, where configured. `None` for a dead worker.
    fn deadline(&self, w: WorkerId) -> Option<Instant> {
        if !self.roster.alive(w) {
            return None;
        }
        let silent = self.liveness.map(|liv| self.last_beat[w] + liv);
        let overdue = self
            .task_deadline
            .zip(self.roster.seat_of(w))
            .map(|(dl, s)| s.payload.issued_real + dl);
        silent.into_iter().chain(overdue).min()
    }

    /// Declares workers dead for missed liveness or task deadlines. Runs
    /// in every pump iteration; both checks are no-ops unless configured.
    fn enforce_deadlines(&mut self) {
        if self.liveness.is_none() && self.task_deadline.is_none() {
            return;
        }
        let now = Instant::now();
        let victims: Vec<WorkerId> = (0..self.roster.workers())
            .filter(|&w| self.deadline(w).is_some_and(|d| d < now))
            .collect();
        for w in victims {
            self.kill_worker(w);
        }
    }

    /// Time until the earliest armed timer (scheduled chaos, liveness
    /// deadline, task deadline), or `None` when no timer is armed and the
    /// pump can park indefinitely.
    fn wait_horizon(&self) -> Option<Duration> {
        let now = Instant::now();
        let chaos = self
            .roster
            .next_event_at()
            .map(|at| Duration::from_micros(at.saturating_since(self.elapsed()).as_micros()));
        (0..self.roster.workers())
            .filter_map(|w| self.deadline(w))
            .map(|d| d.saturating_duration_since(now))
            .chain(chaos)
            .min()
    }

    /// One deadline-aware wait on the result channel: parks indefinitely
    /// when no timer is armed, otherwise until the earliest deadline
    /// (capped by [`DEFAULT_POLL_INTERVAL`]).
    fn wait_event(&self) -> Result<WireEvent, RecvTimeoutError> {
        match self.wait_horizon() {
            None => self
                .results_rx
                .recv()
                .map_err(|_| RecvTimeoutError::Disconnected),
            Some(d) => self.results_rx.recv_timeout(d.min(DEFAULT_POLL_INTERVAL)),
        }
    }

    fn accept(&mut self, ev: WireEvent) -> Option<Completion> {
        match ev {
            WireEvent::Done {
                worker,
                epoch,
                tag,
                response,
            } => {
                if !self.roster.current(worker, epoch) {
                    // Orphaned result flushed by a killed incarnation
                    // before its socket died: its loss was already
                    // reported.
                    return None;
                }
                // Any frame proves liveness.
                self.last_beat[worker] = Instant::now();
                let finished_at = self.elapsed();
                // An unsolicited completion — a duplicated frame or a
                // protocol violation — answers no seat: nothing is owed
                // for it.
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
                        // incarnation is not speaking the protocol — treat
                        // it like a crashed worker, whose still-seated
                        // task is lost.
                        self.kill_worker(worker);
                        None
                    }
                }
            }
            WireEvent::Beat { worker, epoch } => {
                if self.roster.current(worker, epoch) {
                    self.last_beat[worker] = Instant::now();
                }
                None
            }
            WireEvent::Gone { worker, epoch } => {
                // A real, uncommanded connection drop: dropped socket →
                // lost tasks, dead worker (revivable like any other death).
                // A stale one is expected: we tore that connection down.
                if self.roster.current(worker, epoch) {
                    self.kill_worker(worker);
                }
                None
            }
        }
    }

    /// One pump step without waiting: drains every event already sitting
    /// in the result channel into the roster's queue, applies the due
    /// membership events, then enforces deadlines — after the drain, so
    /// liveness verdicts see the freshest beats (a driver that slept
    /// between pump calls must not declare a dutifully beating worker dead
    /// on stale bookkeeping).
    fn poll(&mut self) {
        while let Ok(ev) = self.results_rx.try_recv() {
            if let Some(c) = self.accept(ev) {
                self.roster.notify(c);
            }
        }
        PendingChaos::apply_due(self, |e| &mut e.roster);
        self.enforce_deadlines();
    }
}

/// Writes one frame through a fault injector: delivers, drops, delays,
/// duplicates, truncates (torn frame + shutdown), or resets per the
/// injector's deterministic stream. Truncate and reset return an error —
/// the connection is gone, exactly like a peer dying mid-write.
fn write_with_faults(stream: &mut TcpStream, msg: &Msg, inj: &mut FaultInjector) -> io::Result<()> {
    let mut buf = BytesMut::new();
    encode_frame(msg, &mut buf);
    match inj.next_action(buf.len()) {
        FaultAction::Deliver => {
            stream.write_all(&buf)?;
            stream.flush()
        }
        FaultAction::Drop => Ok(()),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            stream.write_all(&buf)?;
            stream.flush()
        }
        FaultAction::Duplicate => {
            stream.write_all(&buf)?;
            stream.write_all(&buf)?;
            stream.flush()
        }
        FaultAction::Truncate(n) => {
            let _ = stream.write_all(&buf[..n]);
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "fault injection: torn frame",
            ))
        }
        FaultAction::Reset => {
            let _ = stream.shutdown(Shutdown::Both);
            Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "fault injection: connection reset",
            ))
        }
    }
}

fn reader_loop(w: WorkerId, epoch: u64, mut stream: TcpStream, tx: Sender<WireEvent>) {
    loop {
        match read_frame(&mut stream) {
            Ok(Msg::Completion {
                tag,
                epoch: e,
                response,
            }) => {
                if tx
                    .send(WireEvent::Done {
                        worker: w,
                        epoch: e,
                        tag,
                        response,
                    })
                    .is_err()
                {
                    break; // engine dropped
                }
            }
            Ok(Msg::Heartbeat { epoch: e, .. }) => {
                // Trust the connection's identity over the frame's worker
                // field, like completions; the epoch still guards staleness.
                if tx
                    .send(WireEvent::Beat {
                        worker: w,
                        epoch: e,
                    })
                    .is_err()
                {
                    break;
                }
            }
            Ok(_) => continue,
            Err(_) => {
                let _ = tx.send(WireEvent::Gone { worker: w, epoch });
                break;
            }
        }
    }
}

impl Engine for RemoteEngine {
    fn workers(&self) -> usize {
        self.roster.workers()
    }

    fn now(&self) -> VTime {
        self.elapsed()
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
        // Build the request against the worker's mirrored cache — the
        // remote analogue of the simulator running the closure at
        // submission. Fetch charges (snapshots, patches, shipped blocks)
        // fold into the task's bytes exactly as worker-side misses would.
        let request = (wire.build)(&mut self.mirrors[w]);
        let (extra_bytes, extra_time) = self.mirrors[w].take_charges();
        let total_bytes = task.bytes_in + extra_bytes;
        let factor = self.assignment.factor(w, seq);
        let modelled = self.spec.profiles[w].exec_time(task.cost)
            + self.comm.transfer_time(total_bytes)
            + extra_time;
        let sleep_us = (modelled.as_micros() as f64 * self.time_scale * factor) as u64;
        let msg = Msg::Submit {
            tag: task.tag,
            epoch: self.roster.epoch(w),
            routine: wire.routine,
            sleep_us,
            slow_factor: (factor - 1.0).max(0.0),
            request,
        };
        let conn = self.conns[w]
            .as_mut()
            .expect("alive worker has a connection");
        let written = match self.injectors[w].as_mut() {
            Some(inj) => write_with_faults(&mut conn.stream, &msg, inj),
            None => write_frame(&mut conn.stream, &msg),
        };
        if written.is_err() {
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
        let now = self.elapsed();
        self.roster.seat(w, task.tag, now, wired);
        Ok(())
    }

    fn next(&mut self) -> Option<Completion> {
        loop {
            self.poll();
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
            match self.wait_event() {
                Ok(ev) => {
                    if let Some(c) = self.accept(ev) {
                        return Some(c);
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    fn try_next(&mut self) -> Option<Completion> {
        self.poll();
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
        // A fresh incarnation: new process, new connection, and an empty
        // mirror — the next wired submission re-ships whatever it needs.
        self.mirrors[w] = WorkerCtx::new(w);
        let started = self.spawn_worker(w);
        self.roster.revive(w, started)
    }

    fn add_worker(&mut self) -> WorkerId {
        let w = self.roster.join();
        self.spec.profiles.push(WorkerProfile::default_speed());
        self.mirrors.push(WorkerCtx::new(w));
        self.last_beat.push(Instant::now());
        self.injectors.push(None);
        self.conns.push(None);
        self.readers.push(None);
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
        for w in 0..self.conns.len() {
            self.teardown_conn(w);
        }
        for h in self.readers.iter_mut() {
            if let Some(h) = h.take() {
                let _ = h.join();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker-process side
// ---------------------------------------------------------------------------

/// A worker-side request handler: decode the request bytes, compute
/// against the worker's local cache, encode the response bytes.
pub type RoutineFn = Box<dyn Fn(&mut WorkerCtx, &[u8]) -> Result<Vec<u8>, DecodeError>>;

/// Maps routine ids to handlers; each worker incarnation owns one.
#[derive(Default)]
pub struct RoutineRegistry {
    handlers: HashMap<u32, RoutineFn>,
}

impl RoutineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `f` as routine `id`, replacing any previous handler.
    pub fn register(
        &mut self,
        id: u32,
        f: impl Fn(&mut WorkerCtx, &[u8]) -> Result<Vec<u8>, DecodeError> + 'static,
    ) {
        self.handlers.insert(id, Box::new(f));
    }
}

/// Worker-side runtime options: the heartbeat period the driver asked for
/// and the transport fault plan this endpoint applies to its own writes.
/// Defaults are "no beats, no faults" — the pre-supervision worker.
#[derive(Clone, Debug, Default)]
pub struct WorkerOpts {
    /// Heartbeat period (`--beat-us` on a worker command line).
    pub heartbeat: Option<Duration>,
    /// Fault plan for worker→driver frames (`--fault <spec>`).
    pub fault: FaultPlan,
}

/// The generic worker-process loop: connect back to the driver, greet,
/// then serve submissions until shutdown or disconnect. [`run_worker`] is
/// the options-free shorthand.
///
/// A request naming an unregistered routine, or one whose handler reports
/// a decode error, terminates the worker with an error — the driver
/// observes the dropped connection and reports the in-flight task lost,
/// which is exactly the fault model for a crashed executor.
///
/// With a heartbeat period set, a dedicated thread beats over the same
/// connection (writes are mutex-serialized with completions) so a
/// long-running routine never silences the worker. With a non-zero fault
/// plan, completion and heartbeat writes pass through this worker's
/// deterministic [`FaultInjector`]; the greeting is exempt (see
/// [`crate::fault`]). A hang-faulted worker keeps computing but stops
/// writing anything — the driver-side liveness deadline is the only way
/// to notice.
pub fn run_worker_with(
    addr: &str,
    worker: u32,
    epoch: u64,
    registry: RoutineRegistry,
    opts: WorkerOpts,
) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let write = Arc::new(Mutex::new(stream.try_clone()?));
    let mut read = stream;
    {
        let mut wh = write.lock().expect("fresh write lock");
        write_frame(&mut *wh, &Msg::WorkerUp { worker, epoch })?;
    }
    let mut inj = opts.fault.applies(FaultDir::WorkerToDriver).then(|| {
        opts.fault
            .injector(worker as usize, epoch, FaultDir::WorkerToDriver)
    });
    let hung = Arc::new(AtomicBool::new(false));
    if inj.as_ref().is_some_and(|i| i.hang_reached()) {
        hung.store(true, Ordering::SeqCst);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let beat_handle = opts.heartbeat.map(|period| {
        let write = Arc::clone(&write);
        let hung = Arc::clone(&hung);
        let stop = Arc::clone(&stop);
        // The beat thread gets its own injector stream, decorrelated from
        // the completion stream by flipping the epoch's top bit; the hang
        // verdict is shared through the flag so "hung" silences both.
        let mut binj = opts.fault.applies(FaultDir::WorkerToDriver).then(|| {
            opts.fault
                .injector(worker as usize, epoch | (1 << 63), FaultDir::WorkerToDriver)
        });
        std::thread::Builder::new()
            .name(format!("worker-beat-{worker}-e{epoch}"))
            .spawn(move || loop {
                std::thread::sleep(period);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if hung.load(Ordering::SeqCst) {
                    continue;
                }
                let msg = Msg::Heartbeat { worker, epoch };
                let res = {
                    let mut s = write.lock().expect("beat write lock");
                    match binj.as_mut() {
                        Some(i) => write_with_faults(&mut s, &msg, i),
                        None => write_frame(&mut *s, &msg),
                    }
                };
                if res.is_err() {
                    break; // connection gone; the serve loop will see it too
                }
            })
            .expect("spawn beat thread")
    });
    let served = (|| -> io::Result<()> {
        let mut ctx = WorkerCtx::new(worker as WorkerId);
        loop {
            match read_frame(&mut read)? {
                Msg::Submit {
                    tag,
                    epoch: e,
                    routine,
                    sleep_us,
                    slow_factor,
                    request,
                } => {
                    let handler = registry.handlers.get(&routine).ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!("unregistered routine {routine}"),
                        )
                    })?;
                    let t0 = Instant::now();
                    let response = handler(&mut ctx, &request)
                        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
                    let measured = t0.elapsed();
                    // Byte charges are accounted by the driver-side mirror;
                    // drain the local ones so they never accumulate.
                    let _ = ctx.take_charges();
                    // The modelled (pre-scaled) delay shipped by the driver,
                    // plus the straggler stretch of real compute time — the
                    // threaded engine's sleep, across a socket.
                    let sleep = sleep_us as f64 + measured.as_secs_f64() * 1e6 * slow_factor;
                    if sleep >= 1.0 {
                        std::thread::sleep(Duration::from_micros(sleep as u64));
                    }
                    if hung.load(Ordering::SeqCst) {
                        // Hang fault: keep serving, write nothing.
                        continue;
                    }
                    let msg = Msg::Completion {
                        tag,
                        epoch: e,
                        response,
                    };
                    {
                        let mut s = write.lock().expect("completion write lock");
                        match inj.as_mut() {
                            Some(i) => write_with_faults(&mut s, &msg, i)?,
                            None => write_frame(&mut *s, &msg)?,
                        }
                    }
                    if inj.as_ref().is_some_and(|i| i.hang_reached()) {
                        hung.store(true, Ordering::SeqCst);
                    }
                }
                Msg::Shutdown => return Ok(()),
                // Nothing else is driver→worker; ignore rather than die.
                _ => continue,
            }
        }
    })();
    stop.store(true, Ordering::SeqCst);
    if let Some(h) = beat_handle {
        let _ = h.join();
    }
    served
}

/// [`run_worker_with`] with default options (no heartbeats, no faults) —
/// the original worker loop.
pub fn run_worker(
    addr: &str,
    worker: u32,
    epoch: u64,
    registry: RoutineRegistry,
) -> io::Result<()> {
    run_worker_with(addr, worker, epoch, registry, WorkerOpts::default())
}

/// Entry point for worker binaries: parses `--connect <addr> --worker <id>
/// --epoch <e>` (plus the optional `--beat-us <n>` heartbeat period and
/// `--fault <spec>` plan) from `std::env::args` and runs
/// [`run_worker_with`]. A worker binary is three lines: build a registry,
/// call this, exit.
pub fn worker_main(registry: RoutineRegistry) -> io::Result<()> {
    let mut addr = None;
    let mut worker = None;
    let mut epoch = 0u64;
    let mut opts = WorkerOpts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--connect" => addr = args.next(),
            "--worker" => worker = args.next().and_then(|v| v.parse::<u32>().ok()),
            "--epoch" => epoch = args.next().and_then(|v| v.parse().ok()).unwrap_or(0),
            "--beat-us" => {
                opts.heartbeat = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .map(Duration::from_micros)
            }
            "--fault" => {
                let spec = args.next().unwrap_or_default();
                opts.fault = FaultPlan::from_spec(&spec)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
            }
            _ => {}
        }
    }
    let (addr, worker) = match (addr, worker) {
        (Some(a), Some(w)) => (a, w),
        _ => return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "usage: --connect <addr> --worker <id> [--epoch <e>] [--beat-us <n>] [--fault <spec>]",
        )),
    };
    run_worker_with(&addr, worker, epoch, registry, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_cluster::{CommModel, DelayModel, VDur};
    use bytes::BytesMut;

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
        e.mirrors[0].cache_put_local((7, 0), Arc::new(()));
        e.kill_worker(0);
        assert!(matches!(
            e.next(),
            Some(Completion::WorkerDown { worker: 0 })
        ));
        e.revive_worker(0).unwrap();
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 0 })));
        assert_eq!(e.mirrors[0].cache_len(), 0);
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
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let stop = Arc::new(AtomicBool::new(false));
        let rogue = {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
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
                    i += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        let cfg = RemoteConfig {
            addr: addr.clone(),
            ..RemoteConfig::loopback(Arc::new(doubling_registry))
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
}

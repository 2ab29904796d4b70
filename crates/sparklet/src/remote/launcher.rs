//! The launcher: how a worker incarnation is started (a process or a
//! loopback thread), the command line it is started with, the handshake
//! that seats its connection, and the teardown that ends it.

use std::io;
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::str::FromStr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use async_cluster::WorkerId;

use super::transport::{injector, reader_loop, send};
use super::{run_worker_with, Link, RemoteEngine, RoutineRegistry, WorkerOpts};
use crate::fault::{FaultDir, FaultInjector, FaultPlan};
use crate::frame::{read_frame, Msg};

/// Default for [`RemoteConfig::handshake_timeout`].
const DEFAULT_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// How a [`RemoteEngine`] starts worker incarnations.
pub enum WorkerLauncher {
    /// Spawn `program args.. --connect <addr> --worker <id> --epoch <e>`
    /// (plus `--beat-us <n>` / `--fault <spec>` when heartbeats or fault
    /// injection are configured) as a child process. The program is
    /// expected to call [`worker_main`](super::worker_main) (or
    /// [`run_worker_with`]) with its routine registry.
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
    fn with_launcher(launcher: WorkerLauncher) -> Self {
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

const USAGE: &str =
    "usage: --connect <addr> --worker <id> [--epoch <e>] [--beat-us <n>] [--fault <spec>]";

/// A worker incarnation's command line: `--connect <addr> --worker <id>
/// --epoch <e>`, plus `--beat-us <n>` and `--fault <spec>` when heartbeats
/// or fault injection are configured. The launcher writes it and
/// [`worker_main`](super::worker_main) parses it back.
#[derive(Debug)]
pub(super) struct WorkerArgs {
    pub(super) addr: String,
    pub(super) worker: u32,
    pub(super) epoch: u64,
    pub(super) opts: WorkerOpts,
}

impl WorkerArgs {
    pub(super) fn to_args(&self) -> Vec<String> {
        let beat = self
            .opts
            .heartbeat
            .map(|b| ("--beat-us", b.as_micros().to_string()));
        let fault = (!self.opts.fault.is_zero()).then(|| ("--fault", self.opts.fault.to_spec()));
        [
            ("--connect", self.addr.clone()),
            ("--worker", self.worker.to_string()),
            ("--epoch", self.epoch.to_string()),
        ]
        .into_iter()
        .chain(beat)
        .chain(fault)
        .flat_map(|(flag, value)| [flag.to_string(), value])
        .collect()
    }

    /// Runs [`run_worker_with`] as this command line asks.
    pub(super) fn run(self, registry: RoutineRegistry) -> io::Result<()> {
        run_worker_with(&self.addr, self.worker, self.epoch, registry, self.opts)
    }

    /// Parses a command line [`WorkerArgs::to_args`] wrote. Arguments that
    /// are not its flags are skipped: they are the launcher's own leading
    /// `args`. A flag without a well-formed value is the usage error, as is
    /// a missing `--connect` or `--worker`; `--epoch` defaults to 0.
    pub(super) fn parse(args: impl IntoIterator<Item = String>) -> io::Result<Self> {
        fn usage(what: &str) -> io::Error {
            io::Error::new(io::ErrorKind::InvalidInput, format!("{what}; {USAGE}"))
        }
        fn value<V: FromStr>(flag: &str, v: Option<String>) -> io::Result<V> {
            v.and_then(|v| v.parse().ok())
                .ok_or_else(|| usage(&format!("{flag}: missing or malformed value")))
        }
        let (mut addr, mut worker, mut epoch) = (None, None, 0);
        let mut opts = WorkerOpts::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--connect" => addr = Some(value::<String>(&flag, args.next())?),
                "--worker" => worker = Some(value(&flag, args.next())?),
                "--epoch" => epoch = value(&flag, args.next())?,
                "--beat-us" => {
                    opts.heartbeat = Some(Duration::from_micros(value(&flag, args.next())?));
                }
                "--fault" => {
                    let spec = value::<String>(&flag, args.next())?;
                    opts.fault = FaultPlan::from_spec(&spec).map_err(|e| usage(&e))?;
                }
                _ => {}
            }
        }
        match (addr, worker) {
            (Some(addr), Some(worker)) => Ok(Self {
                addr,
                worker,
                epoch,
                opts,
            }),
            _ => Err(usage("--connect and --worker are required")),
        }
    }
}

/// One worker incarnation's driver-side connection.
pub(super) struct Conn {
    /// Write half (a dup of the reader thread's stream).
    pub(super) stream: TcpStream,
    /// The child process, when launched as one.
    child: Option<Child>,
    /// Driver→worker fault injector, when the plan applies to that
    /// direction.
    pub(super) injector: Option<FaultInjector>,
    /// The thread forwarding this connection's frames to the engine.
    reader: JoinHandle<()>,
}

impl RemoteEngine {
    /// Launches worker `w`'s current incarnation and completes the
    /// connection handshake.
    pub(super) fn spawn_worker(&mut self, w: WorkerId) -> io::Result<()> {
        let epoch = self.roster.epoch(w);
        let args = WorkerArgs {
            addr: self.local_addr.clone(),
            worker: w as u32,
            epoch,
            opts: WorkerOpts {
                heartbeat: self.cfg.heartbeat,
                fault: self.cfg.fault.clone(),
            },
        };
        let mut child = match &self.cfg.launcher {
            WorkerLauncher::Process { program, args: own } => {
                let mut cmd = Command::new(program);
                cmd.args(own).args(args.to_args()).stdin(Stdio::null());
                Some(cmd.spawn()?)
            }
            WorkerLauncher::Loopback(factory) => {
                let factory = Arc::clone(factory);
                std::thread::Builder::new()
                    .name(format!("remote-loopback-{w}-e{epoch}"))
                    .spawn(move || {
                        let _ = args.run(factory());
                    })?;
                None
            }
        };
        let tx = self.results_tx.clone();
        let seated = self
            .await_hello(w, epoch, child.as_mut())
            .and_then(|stream| {
                let reader_stream = stream.try_clone()?;
                let reader = std::thread::Builder::new()
                    .name(format!("remote-reader-{w}-e{epoch}"))
                    .spawn(move || reader_loop(w, epoch, reader_stream, tx))?;
                Ok((stream, reader))
            });
        let (stream, reader) = match seated {
            Ok(seated) => seated,
            Err(e) => {
                reap(child);
                return Err(e);
            }
        };
        // A fresh incarnation: new connection and an empty mirror — the
        // next wired submission re-ships whatever it needs.
        self.links[w] = Link {
            conn: Some(Conn {
                stream,
                child,
                injector: injector(&self.cfg.fault, w, epoch, FaultDir::DriverToWorker),
                reader,
            }),
            ..Link::new(w)
        };
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
        let timeout = self.cfg.handshake_timeout;
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

    /// Tears down worker `w`'s current incarnation: socket shutdown, child
    /// kill + reap, injector dropped, reader joined. The reader thread
    /// exits on the dropped connection and its `Gone` event is
    /// epoch-filtered.
    pub(super) fn teardown_conn(&mut self, w: WorkerId) {
        if let Some(mut conn) = self.links[w].conn.take() {
            let _ = send(&mut conn.stream, &Msg::Shutdown, None);
            let _ = conn.stream.shutdown(Shutdown::Both);
            reap(conn.child);
            let _ = conn.reader.join();
        }
    }
}

/// Kills and waits for an incarnation's process, when it has one.
fn reap(child: Option<Child>) {
    if let Some(mut child) = child {
        let _ = child.kill();
        let _ = child.wait();
    }
}

//! The launcher: how a worker incarnation is started (a process or a
//! loopback thread), the command line it is started with, the handshake
//! that seats its connection, and the teardown that ends it.

use std::io;
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use async_cluster::WorkerId;

use super::transport::{injector, send, wait_readable, Inbox};
use super::{run_worker_with, Link, RemoteEngine, RoutineRegistry, WorkerOpts};
use crate::fault::{FaultDir, FaultInjector, FaultPlan};
use crate::frame::Msg;

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
    /// The socket, written by submissions and read by the pump.
    pub(super) stream: TcpStream,
    pub(super) inbox: Inbox,
    /// The child process, when launched as one.
    child: Option<Child>,
    /// Driver→worker fault injector, when the plan applies to that
    /// direction.
    pub(super) injector: Option<FaultInjector>,
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
        let (stream, inbox) = match self.await_hello(w, epoch, child.as_mut()) {
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
                inbox,
                child,
                injector: injector(&self.cfg.fault, w, epoch, FaultDir::DriverToWorker),
            }),
            ..Link::new(w)
        };
        Ok(())
    }

    /// Accepts connections until incarnation `epoch` of worker `w` greets,
    /// dropping stale or foreign greetings, with a deadline. One `poll(2)`
    /// waits on the listener and every peer yet to greet, so a silent peer
    /// holds up no other. Returns the connection and its inbox.
    fn await_hello(
        &self,
        w: WorkerId,
        epoch: u64,
        mut child: Option<&mut Child>,
    ) -> io::Result<(TcpStream, Inbox)> {
        let timeout = self.cfg.handshake_timeout;
        let deadline = Instant::now() + timeout;
        self.listener.set_nonblocking(true)?;
        let mut peers: Vec<(TcpStream, Inbox)> = Vec::new();
        let mut buf = [0u8; 256];
        loop {
            if let Some(c) = child.as_deref_mut() {
                if let Some(status) = c.try_wait()? {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        format!("worker {w} exited before connecting: {status}"),
                    ));
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("worker {w} did not connect within {timeout:?}"),
                ));
            }
            // A child process is checked for an early exit every 2 ms.
            let wait = child
                .as_ref()
                .map_or(left, |_| left.min(Duration::from_millis(2)));
            let fds = std::iter::once(self.listener.as_raw_fd())
                .chain(peers.iter().map(|(s, _)| s.as_raw_fd()));
            // Highest position first, so a dropped peer moves none still to
            // be read, and the listener's new peers join after the reads.
            for i in wait_readable(fds, Some(wait))?.into_iter().rev() {
                let Some(p) = i.checked_sub(1) else {
                    // One per wakeup: more queued keep the listener readable.
                    match self.listener.accept() {
                        Ok((stream, _)) => peers.push((stream, Inbox::default())),
                        Err(e) if e.kind() != io::ErrorKind::WouldBlock => return Err(e),
                        Err(_) => {}
                    }
                    continue;
                };
                let (stream, inbox) = &mut peers[p];
                let greeting = match inbox.read_from(stream, &mut buf) {
                    Ok(true) => inbox.next_frame().map_err(drop),
                    _ => Err(()),
                };
                match greeting {
                    Ok(None) => {}
                    Ok(Some(Msg::WorkerUp { worker, epoch: e }))
                        if worker as WorkerId == w && e == epoch =>
                    {
                        let (stream, inbox) = peers.swap_remove(p);
                        stream.set_nonblocking(false)?;
                        stream.set_nodelay(true)?;
                        return Ok((stream, inbox));
                    }
                    // A greeting from a stale incarnation or unexpected
                    // worker, a torn frame from a peer that dropped
                    // mid-handshake, or outright garbage: close it and
                    // keep waiting for ours.
                    _ => {
                        let _ = peers.swap_remove(p).0.shutdown(Shutdown::Both);
                    }
                }
            }
        }
    }

    /// Tears down worker `w`'s current incarnation: socket shutdown, child
    /// kill + reap, injector and unread inbox dropped.
    pub(super) fn teardown_conn(&mut self, w: WorkerId) {
        if let Some(mut conn) = self.links[w].conn.take() {
            let _ = send(&mut conn.stream, &Msg::Shutdown, None);
            let _ = conn.stream.shutdown(Shutdown::Both);
            reap(conn.child);
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

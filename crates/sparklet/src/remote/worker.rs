//! The worker-process side: the routine table a worker dispatches on and
//! the loop that connects back to the driver and serves submissions.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use async_cluster::WorkerId;

use super::launcher::WorkerArgs;
use super::transport::{injector, send};
use crate::fault::{FaultDir, FaultInjector, FaultPlan};
use crate::frame::{read_frame, Msg};
use crate::payload::DecodeError;
use crate::worker::WorkerCtx;

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

/// [`send`] over the write half the serve loop and the beat thread share.
/// A poisoned lock still guards a usable stream.
fn send_shared(
    write: &Mutex<TcpStream>,
    msg: &Msg,
    inj: Option<&mut FaultInjector>,
) -> io::Result<()> {
    send(
        &mut write.lock().unwrap_or_else(PoisonError::into_inner),
        msg,
        inj,
    )
}

/// The generic worker-process loop: connect back to the driver, greet,
/// then serve submissions until shutdown or disconnect.
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
    let mut read = BufReader::new(stream); // one `read` takes a whole `Submit`
    send_shared(&write, &Msg::WorkerUp { worker, epoch }, None)?;
    let id = worker as WorkerId;
    let mut inj = injector(&opts.fault, id, epoch, FaultDir::WorkerToDriver);
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
        let mut binj = injector(&opts.fault, id, epoch | (1 << 63), FaultDir::WorkerToDriver);
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
                if send_shared(&write, &msg, binj.as_mut()).is_err() {
                    break; // connection gone; the serve loop will see it too
                }
            })
    });
    let beat_handle = beat_handle.transpose()?;
    let served = (|| -> io::Result<()> {
        let mut ctx = WorkerCtx::new(id);
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
                    send_shared(&write, &msg, inj.as_mut())?;
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

/// Entry point for worker binaries: parses `--connect <addr> --worker <id>
/// --epoch <e>` (plus the optional `--beat-us <n>` heartbeat period and
/// `--fault <spec>` plan) from `std::env::args` and runs
/// [`run_worker_with`]. A malformed value of any of these flags is refused
/// with the usage error. A worker binary is three lines: build a registry,
/// call this, exit.
pub fn worker_main(registry: RoutineRegistry) -> io::Result<()> {
    WorkerArgs::parse(std::env::args().skip(1))?.run(registry)
}

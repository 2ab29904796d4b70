//! The transport: every frame either side writes goes through [`send`],
//! the one place a fault plan can touch it, and every frame the driver
//! reads arrives through a connection's [`reader_loop`].

use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::Sender;

use async_cluster::WorkerId;
use bytes::BytesMut;

use crate::fault::{FaultAction, FaultDir, FaultInjector, FaultPlan};
use crate::frame::{encode_frame, read_frame, Msg};

/// What a connection's reader thread reports: a frame (or the drop) of
/// incarnation `epoch` of `worker`.
pub(super) struct WireEvent {
    pub(super) worker: WorkerId,
    pub(super) epoch: u64,
    pub(super) frame: Frame,
}

pub(super) enum Frame {
    /// A completion frame arrived.
    Done { tag: u64, response: Vec<u8> },
    /// A heartbeat frame arrived.
    Beat,
    /// The connection dropped (EOF, reset, or a malformed frame).
    Gone,
}

/// The injector for `plan`'s faults on one direction of one worker
/// incarnation's writes; `None` when the plan never touches that
/// direction, so [`send`] writes plainly.
pub(super) fn injector(
    plan: &FaultPlan,
    worker: WorkerId,
    epoch: u64,
    dir: FaultDir,
) -> Option<FaultInjector> {
    plan.applies(dir).then(|| plan.injector(worker, epoch, dir))
}

/// Writes one frame. Without an injector it is delivered; with one it is
/// delivered, dropped, delayed, duplicated, truncated (torn frame +
/// shutdown) or reset per the injector's deterministic stream. Truncate
/// and reset return an error — the connection is gone, exactly like a peer
/// dying mid-write.
pub(super) fn send(
    stream: &mut TcpStream,
    msg: &Msg,
    inj: Option<&mut FaultInjector>,
) -> io::Result<()> {
    let mut buf = BytesMut::new();
    encode_frame(msg, &mut buf);
    match inj.map_or(FaultAction::Deliver, |i| i.next_action(buf.len())) {
        FaultAction::Deliver => {}
        FaultAction::Drop => return Ok(()),
        FaultAction::Delay(d) => std::thread::sleep(d),
        FaultAction::Duplicate => stream.write_all(&buf)?,
        FaultAction::Truncate(n) => {
            let _ = stream.write_all(&buf[..n]);
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "fault injection: torn frame",
            ));
        }
        FaultAction::Reset => {
            let _ = stream.shutdown(Shutdown::Both);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "fault injection: connection reset",
            ));
        }
    }
    stream.write_all(&buf)?;
    stream.flush()
}

/// Forwards worker `w`'s completions and heartbeats (incarnation `epoch`)
/// to the engine until the connection drops, which it reports as `Gone`.
pub(super) fn reader_loop(w: WorkerId, epoch: u64, mut stream: TcpStream, tx: Sender<WireEvent>) {
    let event = |epoch, frame| WireEvent {
        worker: w,
        epoch,
        frame,
    };
    loop {
        // Trust the connection's identity over a frame's worker field; the
        // frame's epoch still guards staleness.
        let ev = match read_frame(&mut stream) {
            Ok(Msg::Completion {
                tag,
                epoch: e,
                response,
            }) => event(e, Frame::Done { tag, response }),
            Ok(Msg::Heartbeat { epoch: e, .. }) => event(e, Frame::Beat),
            Ok(_) => continue,
            Err(_) => {
                let _ = tx.send(event(epoch, Frame::Gone));
                break;
            }
        };
        if tx.send(ev).is_err() {
            break; // engine dropped
        }
    }
}

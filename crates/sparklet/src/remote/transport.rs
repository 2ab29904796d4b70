//! The transport: every frame either side writes goes through [`send`],
//! the one place a fault plan can touch it; the driver reads frames with
//! one `poll(2)` ([`wait_readable`]) and one `read` per readable connection.

use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::RawFd;
use std::time::Duration;

use async_cluster::WorkerId;
use bytes::BytesMut;

use crate::fault::{FaultAction, FaultDir, FaultInjector, FaultPlan};
use crate::frame::{decode_frame, encode_frame, Msg, MAX_FRAME_LEN};
use crate::payload::DecodeError;

/// What the pump reads off a connection: a frame (or the drop) of
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

/// Waits until one of `fds` is readable (a `read` will not block) or
/// `timeout` passes (`None`: never), rounded up to `poll(2)`'s whole ms;
/// returns the positions of the readable ones.
pub(super) fn wait_readable(
    fds: impl IntoIterator<Item = RawFd>,
    timeout: Option<Duration>,
) -> io::Result<Vec<usize>> {
    /// `struct pollfd` of `<poll.h>`: `fd`, `events`, `revents`.
    #[repr(C)]
    struct PollFd(c_int, c_short, c_short);
    const POLLIN: c_short = 0x1;
    extern "C" {
        // `nfds_t` is `unsigned long` on Linux.
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
    let mut set: Vec<PollFd> = fds.into_iter().map(|fd| PollFd(fd, POLLIN, 0)).collect();
    let ms = timeout.map_or(-1, |t| {
        t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as c_int
    });
    // SAFETY: `set` is a live, exclusively borrowed array of `set.len()`
    // `#[repr(C)]` records laid out as `struct pollfd`; `poll` writes only
    // their `revents` fields and keeps no pointer past the call.
    let n = unsafe { poll(set.as_mut_ptr(), set.len() as c_ulong, ms) };
    if n < 0 && io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
        return Err(io::Error::last_os_error());
    }
    Ok((0..set.len()).filter(|&i| set[i].2 != 0).collect())
}

/// The most one `read` takes off a connection.
pub(super) const READ_CHUNK: usize = 64 * 1024;

/// The bytes a connection has delivered that no frame has consumed yet. It
/// grows only by bytes that arrived, never by what a length prefix claims.
#[derive(Default)]
pub(super) struct Inbox {
    buf: Vec<u8>,
    /// Where the first unconsumed byte of `buf` sits.
    head: usize,
}

impl Inbox {
    /// One `read` (which the caller knows will not block) through `buf`
    /// into the inbox. `Ok(false)` at the end of the stream.
    pub(super) fn read_from(&mut self, stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<bool> {
        self.buf.drain(..self.head);
        self.head = 0;
        if self.buf.is_empty() && self.buf.capacity() > READ_CHUNK {
            self.buf = Vec::new(); // an idle connection keeps no large buffer
        }
        let n = loop {
            match stream.read(buf) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                read => break read?,
            }
        };
        self.buf.extend_from_slice(&buf[..n]);
        Ok(n > 0)
    }

    /// The next whole frame; `None` until all its bytes are in. A prefix of
    /// 0 or above [`MAX_FRAME_LEN`] is refused as soon as it is in.
    pub(super) fn next_frame(&mut self) -> Result<Option<Msg>, DecodeError> {
        let rest = &self.buf[self.head..];
        let Some(&prefix) = rest.first_chunk::<4>() else {
            return Ok(None);
        };
        // `decode_frame` refuses a prefix out of range before it reads on.
        let len = u32::from_le_bytes(prefix);
        if (1..=MAX_FRAME_LEN).contains(&len) && rest.len() < 4 + len as usize {
            return Ok(None);
        }
        let (msg, used) = decode_frame(rest)?;
        self.head += used;
        Ok(Some(msg))
    }

    /// One read of worker `w`'s `stream` (incarnation `epoch`), then each
    /// whole frame's event onto `out`, and `Gone` if the connection ended.
    pub(super) fn receive(
        &mut self,
        stream: &mut TcpStream,
        buf: &mut [u8],
        (w, epoch): (WorkerId, u64),
        out: &mut Vec<WireEvent>,
    ) {
        // Trust the connection's identity over a frame's worker field; the
        // frame's epoch still guards staleness.
        let event = |epoch, frame| WireEvent {
            worker: w,
            epoch,
            frame,
        };
        if !matches!(self.read_from(stream, buf), Ok(true)) {
            return out.push(event(epoch, Frame::Gone));
        }
        loop {
            match self.next_frame() {
                Ok(None) => return,
                Ok(Some(Msg::Completion {
                    tag,
                    epoch: e,
                    response,
                })) => out.push(event(e, Frame::Done { tag, response })),
                Ok(Some(Msg::Heartbeat { epoch: e, .. })) => out.push(event(e, Frame::Beat)),
                Ok(Some(_)) => {}
                Err(_) => return out.push(event(epoch, Frame::Gone)),
            }
        }
    }

    /// Bytes not yet consumed, and the buffer's allocation.
    #[cfg(test)]
    pub(super) fn held(&self) -> (usize, usize) {
        (self.buf.len() - self.head, self.buf.capacity())
    }
}

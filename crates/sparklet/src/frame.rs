//! Length-prefixed message frames for the remote engine.
//!
//! Every message on a driver↔worker connection is one frame:
//!
//! ```text
//! ┌────────────┬───────┬──────────────────────────┐
//! │ u32 LE len │ u8 tag│ payload (len − 1 bytes)  │
//! └────────────┴───────┴──────────────────────────┘
//! ```
//!
//! The length covers the tag byte plus the payload, so a reader needs
//! two reads per frame: 4 bytes of length, then `len` bytes of body (past
//! 64 KiB, in chunks that grow with what arrived — [`read_frame`]).
//! Payload fields are little-endian, matching [`crate::payload`] — a
//! `GradDelta` or model patch encoded by the [`Payload`] trait travels
//! inside a frame byte-for-byte as the in-process engines account it.
//!
//! Decoding is fully fallible: torn frames report *where* they tore
//! ([`DecodeError::Truncated`]), unknown tags report the offending byte
//! ([`DecodeError::BadTag`]), and a hostile length prefix is rejected
//! before any allocation it would size ([`DecodeError::LengthOverflow`]).
//!
//! [`Payload`]: crate::payload::Payload

use std::io::{Read, Write};

use bytes::{BufMut, BytesMut};

use crate::payload::{DecodeError, Reader};

/// Upper bound on one frame's body (tag + payload). Generous for model
/// snapshots, small enough that a corrupt length prefix cannot drive a
/// multi-gigabyte allocation.
pub const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

/// One driver↔worker message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → driver, once per connection: "incarnation `epoch` of
    /// worker `worker` is up and ready for submissions".
    WorkerUp {
        /// The worker announcing itself.
        worker: u32,
        /// The incarnation the driver assigned when spawning the process;
        /// echoed back so the driver can drop greetings from stale
        /// processes that outlived their kill.
        epoch: u64,
    },
    /// Driver → worker: run routine `routine` on `request`, then sleep the
    /// modelled straggler delay before responding.
    Submit {
        /// Caller-chosen task tag, echoed in the completion.
        tag: u64,
        /// Worker incarnation this submission targets.
        epoch: u64,
        /// Routine id the worker dispatches on.
        routine: u32,
        /// Modelled execution + communication time in microseconds
        /// (already scaled by the engine's time scale and the worker's
        /// straggler factor); the worker sleeps this after computing.
        sleep_us: u64,
        /// Extra sleep as a multiple of *measured* compute time —
        /// `(straggler factor − 1)`, zero for non-delayed workers — so
        /// injected slowdowns also scale real work, exactly like the
        /// threaded backend.
        slow_factor: f64,
        /// Routine-specific request bytes.
        request: Vec<u8>,
    },
    /// Worker → driver: the result of `Submit` with the same `tag`.
    Completion {
        /// Tag of the completed task.
        tag: u64,
        /// Incarnation that executed it (stale epochs are dropped).
        epoch: u64,
        /// Routine-specific response bytes.
        response: Vec<u8>,
    },
    /// Driver → worker: exit cleanly.
    Shutdown,
    /// Worker → driver, periodic: "incarnation `epoch` of worker `worker`
    /// is still alive". Sent from a dedicated thread so a long-running
    /// routine does not silence the worker; the driver's liveness deadline
    /// declares a worker dead when beats stop arriving.
    Heartbeat {
        /// The worker beating.
        worker: u32,
        /// The incarnation beating (stale epochs are dropped).
        epoch: u64,
    },
}

const TAG_WORKER_UP: u8 = 0;
const TAG_SUBMIT: u8 = 1;
const TAG_COMPLETION: u8 = 2;
const TAG_SHUTDOWN: u8 = 3;
const TAG_HEARTBEAT: u8 = 4;

/// Appends the frame encoding of `msg` to `buf`.
pub fn encode_frame(msg: &Msg, buf: &mut BytesMut) {
    let start = buf.len();
    buf.put_u32_le(0); // length back-patched below
    match msg {
        Msg::WorkerUp { worker, epoch } => {
            buf.put_u8(TAG_WORKER_UP);
            buf.put_u32_le(*worker);
            buf.put_u64_le(*epoch);
        }
        Msg::Submit {
            tag,
            epoch,
            routine,
            sleep_us,
            slow_factor,
            request,
        } => {
            buf.put_u8(TAG_SUBMIT);
            buf.put_u64_le(*tag);
            buf.put_u64_le(*epoch);
            buf.put_u32_le(*routine);
            buf.put_u64_le(*sleep_us);
            buf.put_f64_le(*slow_factor);
            buf.put_slice(request);
        }
        Msg::Completion {
            tag,
            epoch,
            response,
        } => {
            buf.put_u8(TAG_COMPLETION);
            buf.put_u64_le(*tag);
            buf.put_u64_le(*epoch);
            buf.put_slice(response);
        }
        Msg::Shutdown => {
            buf.put_u8(TAG_SHUTDOWN);
        }
        Msg::Heartbeat { worker, epoch } => {
            buf.put_u8(TAG_HEARTBEAT);
            buf.put_u32_le(*worker);
            buf.put_u64_le(*epoch);
        }
    }
    let body = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&body.to_le_bytes());
}

/// Decodes one frame from the front of `bytes`, returning the message and
/// the total bytes consumed (length prefix included).
pub fn decode_frame(bytes: &[u8]) -> Result<(Msg, usize), DecodeError> {
    let r = &mut Reader::new(bytes);
    let len = r.u32()?;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(DecodeError::LengthOverflow {
            at: 0,
            len: len as u64,
        });
    }
    // The body's last field runs to the end of the frame, not of `bytes`.
    let r = &mut r.within(len as usize)?;
    let msg = match r.u8()? {
        TAG_WORKER_UP => Msg::WorkerUp {
            worker: r.u32()?,
            epoch: r.u64()?,
        },
        TAG_SUBMIT => {
            let (tag, epoch, routine, sleep_us) = (r.u64()?, r.u64()?, r.u32()?, r.u64()?);
            let at = r.at();
            // The worker sleeps this multiple of its measured compute: a
            // negative or non-finite one would sleep for ever.
            let slow_factor = r.f64()?;
            if !slow_factor.is_finite() || slow_factor < 0.0 {
                return Err(DecodeError::Invalid {
                    at,
                    what: "straggler slow factor not finite and non-negative",
                });
            }
            Msg::Submit {
                tag,
                epoch,
                routine,
                sleep_us,
                slow_factor,
                request: r.rest().to_vec(),
            }
        }
        TAG_COMPLETION => Msg::Completion {
            tag: r.u64()?,
            epoch: r.u64()?,
            response: r.rest().to_vec(),
        },
        TAG_SHUTDOWN => Msg::Shutdown,
        TAG_HEARTBEAT => Msg::Heartbeat {
            worker: r.u32()?,
            epoch: r.u64()?,
        },
        tag => return Err(DecodeError::BadTag { at: 4, tag }),
    };
    Ok((msg, 4 + len as usize))
}

/// Writes one frame to `w` with one `write_all`: the frame is assembled in
/// one buffer first.
pub fn write_frame(w: &mut impl Write, msg: &Msg) -> std::io::Result<()> {
    let mut buf = BytesMut::new();
    encode_frame(msg, &mut buf);
    w.write_all(&buf)?;
    w.flush()
}

/// The most [`read_frame`] allocates on a length prefix's word alone; past
/// it, a body grows to at most eight times the bytes already received.
const FIRST_READ_MAX: usize = 64 * 1024;

/// Reads one complete frame from `r`. A malformed frame surfaces as
/// [`std::io::ErrorKind::InvalidData`] wrapping the positioned
/// [`DecodeError`]; a cleanly closed connection, or a body shorter than its
/// prefix claims, as `UnexpectedEof`. A frame up to 64 KiB is one
/// `read_exact` after the prefix; a longer one takes one more per
/// eightfold growth. The frame is decoded whole, prefix included, so its
/// errors carry the positions [`decode_frame`] reports.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Msg> {
    let invalid = |e| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let mut frame = vec![0u8; 4];
    r.read_exact(&mut frame)?;
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(invalid(DecodeError::LengthOverflow {
            at: 0,
            len: len as u64,
        }));
    }
    let total = 4 + len as usize;
    while frame.len() < total {
        let have = frame.len();
        // Eightfold: a growth may copy, briefly holding the bytes so far twice.
        frame.resize(total.min((have * 8).max(FIRST_READ_MAX)), 0);
        r.read_exact(&mut frame[have..])?;
    }
    decode_frame(&frame).map(|(msg, _)| msg).map_err(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Msg) {
        let mut buf = BytesMut::new();
        encode_frame(msg, &mut buf);
        let (back, used) = decode_frame(buf.as_slice()).expect("decodes");
        assert_eq!(&back, msg);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        roundtrip(&Msg::WorkerUp {
            worker: 3,
            epoch: 17,
        });
        roundtrip(&Msg::Submit {
            tag: 9,
            epoch: 2,
            routine: 1,
            sleep_us: 1500,
            slow_factor: 2.5,
            request: vec![1, 2, 3, 4, 5],
        });
        roundtrip(&Msg::Completion {
            tag: 9,
            epoch: 2,
            response: vec![],
        });
        roundtrip(&Msg::Shutdown);
        roundtrip(&Msg::Heartbeat {
            worker: 7,
            epoch: 23,
        });
    }

    #[test]
    fn heartbeat_torn_at_every_cut_reports_position() {
        let mut buf = BytesMut::new();
        encode_frame(
            &Msg::Heartbeat {
                worker: 2,
                epoch: 5,
            },
            &mut buf,
        );
        for cut in 0..buf.len() {
            let err = decode_frame(&buf.as_slice()[..cut]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated { at, .. } if at <= cut),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn frames_are_self_delimiting_back_to_back() {
        let msgs = [
            Msg::Shutdown,
            Msg::WorkerUp {
                worker: 0,
                epoch: 0,
            },
            Msg::Completion {
                tag: 1,
                epoch: 1,
                response: vec![0xFF; 32],
            },
        ];
        let mut buf = BytesMut::new();
        for m in &msgs {
            encode_frame(m, &mut buf);
        }
        let mut at = 0;
        for m in &msgs {
            let (back, used) = decode_frame(&buf.as_slice()[at..]).expect("decodes");
            assert_eq!(&back, m);
            at += used;
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn torn_and_malformed_frames_report_positions() {
        let mut buf = BytesMut::new();
        encode_frame(
            &Msg::Submit {
                tag: 1,
                epoch: 1,
                routine: 0,
                sleep_us: 0,
                slow_factor: 0.0,
                request: vec![7; 16],
            },
            &mut buf,
        );
        for cut in 0..buf.len() {
            let err = decode_frame(&buf.as_slice()[..cut]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated { at, .. } if at <= cut),
                "cut {cut}: {err}"
            );
        }
        // Unknown tag: positioned at the tag byte (offset 4, past the
        // length prefix).
        let mut bad = BytesMut::new();
        bad.put_u32_le(1);
        bad.put_u8(0xEE);
        assert_eq!(
            decode_frame(bad.as_slice()),
            Err(DecodeError::BadTag { at: 4, tag: 0xEE })
        );
        // Hostile length prefix: rejected before allocation.
        let mut huge = BytesMut::new();
        huge.put_u32_le(u32::MAX);
        huge.put_u8(TAG_SHUTDOWN);
        assert!(matches!(
            decode_frame(huge.as_slice()),
            Err(DecodeError::LengthOverflow { at: 0, .. })
        ));
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let msgs = vec![
            Msg::WorkerUp {
                worker: 1,
                epoch: 4,
            },
            Msg::Submit {
                tag: 42,
                epoch: 4,
                routine: 7,
                sleep_us: 10,
                slow_factor: 1.0,
                request: vec![9; 100],
            },
            Msg::Shutdown,
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            write_frame(&mut wire, m).expect("write");
        }
        let mut r = wire.as_slice();
        for m in &msgs {
            assert_eq!(&read_frame(&mut r).expect("read"), m);
        }
        // Stream exhausted: clean EOF.
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn torn_frame_mid_stream_after_valid_traffic() {
        // A peer that dies mid-write leaves a prefix of its last frame on
        // the wire. Every earlier frame must still decode, and the torn
        // tail must surface as UnexpectedEof no matter where the tear is —
        // inside the length prefix or inside the body.
        let good = Msg::Completion {
            tag: 3,
            epoch: 1,
            response: vec![0xAB; 24],
        };
        let torn = Msg::Submit {
            tag: 4,
            epoch: 1,
            routine: 2,
            sleep_us: 5,
            slow_factor: 1.5,
            request: vec![0xCD; 40],
        };
        let mut prefix = Vec::new();
        write_frame(&mut prefix, &good).expect("write");
        let mut tail = Vec::new();
        write_frame(&mut tail, &torn).expect("write");
        for cut in 0..tail.len() {
            let mut wire = prefix.clone();
            wire.extend_from_slice(&tail[..cut]);
            let mut r = wire.as_slice();
            assert_eq!(&read_frame(&mut r).expect("valid prefix"), &good);
            assert_eq!(
                read_frame(&mut r).unwrap_err().kind(),
                std::io::ErrorKind::UnexpectedEof,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn every_frame_kind_survives_every_cut_and_bit_flip() {
        let msgs = [
            Msg::WorkerUp {
                worker: 3,
                epoch: 17,
            },
            Msg::Submit {
                tag: 9,
                epoch: 2,
                routine: 1,
                sleep_us: 1500,
                slow_factor: 2.5,
                request: vec![1, 2, 3],
            },
            Msg::Completion {
                tag: 9,
                epoch: 2,
                response: vec![4, 5],
            },
            Msg::Shutdown,
            Msg::Heartbeat {
                worker: 7,
                epoch: 23,
            },
        ];
        for msg in &msgs {
            let mut buf = BytesMut::new();
            encode_frame(msg, &mut buf);
            crate::payload::tests::every_cut_and_flip(buf.as_slice(), decode_frame);
            crate::payload::tests::every_cut_and_flip(buf.as_slice(), |b| read_frame(&mut &b[..]));
        }
    }

    #[test]
    fn a_slow_factor_that_is_negative_or_not_finite_is_refused_at_its_field() {
        // The worker sleeps `slow_factor` times its measured compute: an
        // infinite factor would sleep for ever.
        for slow_factor in [f64::INFINITY, f64::NAN, -1.0] {
            let submit = Msg::Submit {
                tag: 1,
                epoch: 1,
                routine: 0,
                sleep_us: 0,
                slow_factor,
                request: vec![7; 4],
            };
            let mut buf = BytesMut::new();
            encode_frame(&submit, &mut buf);
            // Past the prefix, the tag, `tag`, `epoch`, `routine` and `sleep_us`.
            let at = 4 + 1 + 8 + 8 + 4 + 8;
            assert!(matches!(
                decode_frame(buf.as_slice()),
                Err(DecodeError::Invalid { at: a, .. }) if a == at
            ));
            let err = read_frame(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }
}

//! Frame-codec properties: roundtrip over generated messages, and torn /
//! truncated frames always decoding to positioned errors, never panics or
//! wrong values. The remote engine trusts this codec with every byte that
//! crosses a socket, so the properties run over all four message kinds,
//! arbitrary body bytes, arbitrary cut points, and back-to-back streams.

use bytes::{BufMut, BytesMut};
use proptest::prelude::*;
use sparklet::frame::{decode_frame, encode_frame, read_frame, write_frame, Msg, MAX_FRAME_LEN};
use sparklet::DecodeError;

/// Builds one of the four frame kinds from generated primitives. `kind`
/// selects the variant; the other fields are used where the variant needs
/// them, so one generated tuple covers the whole enum.
fn msg_from(kind: u8, ids: (u64, u64, u32), sleep_us: u64, slow_factor: f64, body: Vec<u8>) -> Msg {
    let (tag, epoch, routine) = ids;
    match kind % 4 {
        0 => Msg::WorkerUp {
            worker: routine,
            epoch,
        },
        1 => Msg::Submit {
            tag,
            epoch,
            routine,
            sleep_us,
            slow_factor,
            request: body,
        },
        2 => Msg::Completion {
            tag,
            epoch,
            response: body,
        },
        _ => Msg::Shutdown,
    }
}

proptest! {
    #[test]
    fn frames_roundtrip(
        kind in 0u8..4,
        ids in (0u64..u64::MAX, 0u64..u64::MAX, 0u32..u32::MAX),
        sleep_us in 0u64..10_000_000,
        slow in 0.0..8.0f64,
        body in proptest::collection::vec(0u8..255, 0..256usize),
    ) {
        let msg = msg_from(kind, ids, sleep_us, slow, body);
        let mut buf = BytesMut::new();
        encode_frame(&msg, &mut buf);
        let (back, used) = match decode_frame(buf.as_slice()) {
            Ok(ok) => ok,
            Err(e) => return Err(format!("well-formed frame failed to decode: {e}")),
        };
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(used, buf.len());
        // With trailing garbage the same prefix decodes to the same frame:
        // frames are self-delimiting.
        let mut longer = buf.clone().into_vec();
        longer.extend_from_slice(&[0x5A; 9]);
        let (back2, used2) = match decode_frame(&longer) {
            Ok(ok) => ok,
            Err(e) => return Err(format!("decode failed with trailing bytes: {e}")),
        };
        prop_assert_eq!(&back2, &msg);
        prop_assert_eq!(used2, used);
    }

    #[test]
    fn torn_frames_report_positioned_truncation(
        kind in 0u8..4,
        ids in (0u64..u64::MAX, 0u64..u64::MAX, 0u32..u32::MAX),
        body in proptest::collection::vec(0u8..255, 0..128usize),
        frac in 0.0..1.0f64,
    ) {
        let msg = msg_from(kind, ids, 1000, 0.0, body);
        let mut buf = BytesMut::new();
        encode_frame(&msg, &mut buf);
        let cut = ((buf.len() as f64) * frac) as usize; // in [0, len)
        let err = match decode_frame(&buf.as_slice()[..cut]) {
            Err(e) => e,
            Ok(_) => return Err(format!("torn frame decoded at cut {cut}")),
        };
        let positioned = matches!(
            err,
            DecodeError::Truncated { at, needed } if at <= cut && needed > 0
        );
        prop_assert!(positioned, "cut {}: unexpected error {}", cut, err);
    }

    #[test]
    fn frame_streams_roundtrip_back_to_back(
        kinds in proptest::collection::vec(0u8..4, 1..8usize),
        ids in (0u64..u64::MAX, 0u64..u64::MAX, 0u32..u32::MAX),
        body in proptest::collection::vec(0u8..255, 0..64usize),
    ) {
        let msgs: Vec<Msg> = kinds
            .iter()
            .map(|&k| msg_from(k, ids, 42, 1.5, body.clone()))
            .collect();
        let mut wire = Vec::new();
        for m in &msgs {
            write_frame(&mut wire, m).expect("in-memory write");
        }
        // The stream reader recovers each frame in order and stops cleanly.
        let mut r = wire.as_slice();
        for m in &msgs {
            prop_assert_eq!(&read_frame(&mut r).expect("stream read"), m);
        }
        prop_assert!(r.is_empty());
        // The flat decoder agrees with the stream reader frame-for-frame.
        let mut at = 0;
        for m in &msgs {
            let (back, used) = decode_frame(&wire[at..]).expect("flat decode");
            prop_assert_eq!(&back, m);
            at += used;
        }
        prop_assert_eq!(at, wire.len());
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(0u8..255, 0..64usize),
    ) {
        // Any outcome is fine except a panic; on success the consumed
        // length must be in bounds and at least a header's worth.
        if let Ok((_, used)) = decode_frame(&bytes) {
            prop_assert!(used <= bytes.len());
            prop_assert!(used >= 5);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_sparse_payload_decoders(
        tag in 0u8..4,
        nnz in 0u64..40,
        dim in 0u64..5_000,
        body in proptest::collection::vec(0u8..255, 0..96usize),
    ) {
        // What a Completion frame's response body is handed to. The bytes
        // are shaped like a sparse section (small count, small dimension)
        // so the index and slab decoders are actually reached; any result
        // but a panic or an out-of-bounds `used` is acceptable.
        use async_linalg::{CompressedDelta, GradDelta, SparseVec};
        use sparklet::Payload;
        let mut section = BytesMut::new();
        section.put_u64_le(nnz);
        section.put_u64_le(dim);
        section.put_slice(&body);
        if let Ok((sv, used)) = SparseVec::decode(section.as_slice()) {
            prop_assert!(used <= section.len());
            prop_assert_eq!(sv.nnz() as u64, nnz);
        }
        let mut tagged = vec![tag];
        tagged.extend_from_slice(section.as_slice());
        if let Ok((_, used)) = GradDelta::decode(&tagged) {
            prop_assert!(used <= tagged.len());
        }
        if let Ok((cd, used)) = CompressedDelta::decode(&tagged) {
            prop_assert!(used <= tagged.len());
            // A frame that decoded is safe to dequantize and apply.
            let g = cd.clone().into_delta_buffers(Vec::new(), Vec::new());
            prop_assert_eq!(g.dim(), cd.dim());
        }
    }

    #[test]
    fn hostile_length_prefixes_are_rejected(over in 1u32..1_000_000) {
        // Lengths past MAX_FRAME_LEN (or zero) are LengthOverflow at
        // offset 0, checked before any allocation.
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAX_FRAME_LEN + over);
        buf.put_u8(3);
        prop_assert!(matches!(
            decode_frame(buf.as_slice()),
            Err(DecodeError::LengthOverflow { at: 0, .. })
        ));
        let mut zero = BytesMut::new();
        zero.put_u32_le(0);
        prop_assert!(matches!(
            decode_frame(zero.as_slice()),
            Err(DecodeError::LengthOverflow { at: 0, len: 0 })
        ));
    }
}

/// A `Read` over fixed bytes that records the largest buffer it is asked
/// to fill.
struct Recording<'a> {
    bytes: &'a [u8],
    largest: usize,
}

impl std::io::Read for Recording<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.largest = self.largest.max(buf.len());
        self.bytes.read(buf)
    }
}

/// A peer that claims a `MAX_FRAME_LEN` body and then sends 10 bytes costs
/// the reader what it sent, not what it claimed: the read fails with
/// `UnexpectedEof`, and no buffer handed to the source is over 64 KiB.
#[test]
fn a_claimed_length_costs_what_arrived_not_what_was_claimed() {
    let mut wire = MAX_FRAME_LEN.to_le_bytes().to_vec();
    wire.extend_from_slice(&[2; 10]);
    let mut peer = Recording {
        bytes: &wire,
        largest: 0,
    };
    let err = read_frame(&mut peer).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(
        peer.largest <= 64 * 1024,
        "asked to fill {} bytes",
        peer.largest
    );
}

/// Bodies on both sides of the 64 KiB first read, and well past it, read
/// back whole; one byte short, each is `UnexpectedEof`.
#[test]
fn bodies_past_the_first_read_roundtrip_and_tear_as_eof() {
    // A Completion body is 17 bytes of header plus the response.
    for response_len in [65_518, 65_519, 65_520, 200_000, 600_000] {
        let msg = Msg::Completion {
            tag: 7,
            epoch: 1,
            response: (0..response_len).map(|i| i as u8).collect(),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &msg).expect("in-memory write");
        assert_eq!(read_frame(&mut wire.as_slice()).expect("whole frame"), msg);
        let torn = &wire[..wire.len() - 1];
        let err = read_frame(&mut &torn[..]).unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof,
            "{response_len}"
        );
    }
}

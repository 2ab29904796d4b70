//! Encode/decode roundtrip properties for every [`Payload`] impl.
//!
//! The wire format is the ground truth of the engines' byte accounting:
//! `encoded_len` must equal the bytes `encode` writes, and `decode` must
//! reproduce the original value from exactly those bytes. These properties
//! are checked over generated values for every payload shape the workspace
//! ships — scalars, dense slabs (owned and `Arc`-shared), sparse vectors,
//! gradient deltas, tuples, and keyed tables — and, underneath the sparse
//! shapes, for the delta-varint index codec itself, including hostile
//! index blocks.

use std::sync::Arc;

use async_linalg::{index_codec, CompressedDelta, GradDelta, SparseVec};
use bytes::BytesMut;
use proptest::prelude::*;
use sparklet::{DecodeError, Payload};

fn assert_roundtrip<P: Payload + PartialEq + std::fmt::Debug>(p: &P) -> Result<(), String> {
    let mut buf = BytesMut::new();
    p.encode(&mut buf);
    prop_assert_eq!(buf.len() as u64, p.encoded_len());
    let (back, used) = match P::decode(buf.as_slice()) {
        Ok(ok) => ok,
        Err(e) => return Err(format!("decode failed for {p:?}: {e}")),
    };
    prop_assert_eq!(&back, p);
    prop_assert_eq!(used, buf.len());
    // Decoding must also succeed (and consume the same prefix) with
    // trailing garbage appended — payloads are self-delimiting.
    let mut longer = buf.into_vec();
    longer.extend_from_slice(&[0xAB; 7]);
    let (back2, used2) = match P::decode(&longer) {
        Ok(ok) => ok,
        Err(e) => return Err(format!("decode failed with trailing bytes: {e}")),
    };
    prop_assert_eq!(&back2, p);
    prop_assert_eq!(used2, used);
    Ok(())
}

fn gen_sparse(rng_vals: &[(u32, f64)], dim: usize) -> SparseVec {
    SparseVec::from_pairs(rng_vals.to_vec(), dim).expect("pairs within dim")
}

/// A strictly increasing index set from a first index and a gap list
/// (`next = prev + 1 + gap`), cut short where `u32` would overflow.
fn indices_from(first: u32, gaps: &[u32]) -> Vec<u32> {
    let mut out = vec![first];
    for &g in gaps {
        match out[out.len() - 1]
            .checked_add(1)
            .and_then(|v| v.checked_add(g))
        {
            Some(next) => out.push(next),
            None => break,
        }
    }
    out
}

fn index_block(indices: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    index_codec::encode(indices, |b| out.extend_from_slice(b));
    out
}

proptest! {
    #[test]
    fn index_sets_roundtrip_at_their_encoded_len(
        first in prop_oneof![1 => Just(0u32), 1 => 0u32..100_000],
        gaps in proptest::collection::vec(
            // Mostly the one-byte gaps of real supports, with every wider
            // varint width mixed in — up to gaps past 2^28 (five bytes).
            prop_oneof![
                8 => 0u32..128,
                2 => 128u32..20_000,
                1 => 20_000u32..3_000_000,
                1 => (1u32 << 28)..(1u32 << 30),
            ],
            0..300usize,
        ),
        empty in 0u8..8,
        slack in 0usize..1000,
    ) {
        let idx = if empty == 0 { Vec::new() } else { indices_from(first, &gaps) };
        let bytes = index_block(&idx);
        prop_assert_eq!(bytes.len(), index_codec::encoded_len(&idx));
        // `dim − 1` itself (slack 0) must be accepted.
        let dim = idx.last().map_or(0, |&l| l as usize + 1) + slack;
        let (back, used) = match index_codec::decode(&bytes, idx.len(), dim) {
            Ok(ok) => ok,
            Err(e) => return Err(format!("well-formed block failed to decode: {e}")),
        };
        prop_assert_eq!(&back, &idx);
        prop_assert_eq!(used, bytes.len());
        // Truncation at every offset is a positioned error, never a panic.
        for cut in 0..bytes.len() {
            let err = index_codec::decode(&bytes[..cut], idx.len(), dim).unwrap_err();
            let positioned = matches!(
                err,
                DecodeError::Truncated { at, needed } if at <= cut && needed > 0
            );
            prop_assert!(positioned, "cut {}: unexpected error {}", cut, err);
        }
        // One below the last index is out of dimension.
        if let Some(&last) = idx.last() {
            prop_assert!(matches!(
                index_codec::decode(&bytes, idx.len(), last as usize),
                Err(DecodeError::Invalid { .. })
            ));
        }
    }

    #[test]
    fn arbitrary_index_blocks_never_panic_and_decode_sorted(
        bytes in proptest::collection::vec(0u8..255, 0..64usize),
        nnz in 0usize..80,
        dim in 0usize..100_000,
    ) {
        if let Ok((idx, used)) = index_codec::decode(&bytes, nnz, dim) {
            prop_assert_eq!(idx.len(), nnz);
            prop_assert!(used <= bytes.len());
            prop_assert!(idx.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(idx.last().is_none_or(|&l| (l as usize) < dim));
            // Canonical: re-encoding reproduces the consumed bytes.
            let again = index_block(&idx);
            prop_assert_eq!(again.as_slice(), &bytes[..used]);
        }
    }

    #[test]
    fn scalars_roundtrip(x in -1e9..1e9f64, n in 0u64..u64::MAX) {
        assert_roundtrip(&x)?;
        assert_roundtrip(&n)?;
    }

    #[test]
    fn dense_slabs_roundtrip(vals in proptest::collection::vec(-1e6..1e6f64, 0..200)) {
        assert_roundtrip(&vals)?;
        assert_roundtrip(&Arc::new(vals.clone()))?;
        assert_roundtrip(&GradDelta::Dense(vals))?;
    }

    #[test]
    fn sparse_and_deltas_roundtrip(
        pairs in proptest::collection::vec((0u32..500, -100.0..100.0f64), 0..64),
        extra in 500usize..2000,
        stretch in 1u32..100_000,
    ) {
        let sv = gen_sparse(&pairs, extra);
        assert_roundtrip(&sv)?;
        assert_roundtrip(&GradDelta::Sparse(sv))?;
        // The same support spread out, so gaps need multi-byte varints.
        let wide: Vec<(u32, f64)> = pairs.iter().map(|&(i, v)| (i * stretch, v)).collect();
        assert_roundtrip(&gen_sparse(&wide, 500 * stretch as usize))?;
    }

    #[test]
    fn tuples_and_tables_roundtrip(
        x in -10.0..10.0f64,
        vals in proptest::collection::vec(-10.0..10.0f64, 0..16),
        keys in proptest::collection::vec(0u64..1000, 0..8),
    ) {
        assert_roundtrip(&(x, vals.clone()))?;
        let table: Vec<(u64, Vec<f64>)> =
            keys.iter().map(|&k| (k, vals.clone())).collect();
        assert_roundtrip(&table)?;
        let nested: Vec<(u64, (f64, Vec<f64>))> =
            keys.iter().map(|&k| (k, (x, vals.clone()))).collect();
        assert_roundtrip(&nested)?;
    }

    #[test]
    fn truncated_input_never_decodes(vals in proptest::collection::vec(-1.0..1.0f64, 1..32)) {
        let mut buf = BytesMut::new();
        vals.encode(&mut buf);
        for cut in 0..buf.len() {
            let err = Vec::<f64>::decode(&buf.as_slice()[..cut]).unwrap_err();
            // Positioned truncation: the reported offset is inside the cut.
            let truncated_in_range = matches!(
                err,
                sparklet::DecodeError::Truncated { at, needed } if at <= cut && needed > 0
            );
            prop_assert!(truncated_in_range, "cut {}: unexpected error {}", cut, err);
        }
    }
}

/// Hostile index blocks: each is rejected with an error positioned at the
/// offending varint, without panicking and without sizing an allocation
/// from the claimed count.
#[test]
fn hostile_index_blocks_are_rejected_with_positions() {
    let invalid_at =
        |bytes: &[u8], nnz: usize, dim: usize| match index_codec::decode(bytes, nnz, dim) {
            Err(DecodeError::Invalid { at, .. }) => at,
            other => panic!("want Invalid, got {other:?}"),
        };
    // Overlong: index 0 spelled in two bytes, and 5 spelled in three.
    assert_eq!(invalid_at(&[0x80, 0x00], 1, 10), 0);
    assert_eq!(invalid_at(&[3, 0x85, 0x80, 0x00], 2, 100), 1);
    // Fifth byte past the top four bits of a u32, or continuing.
    assert_eq!(
        invalid_at(&[0xff, 0xff, 0xff, 0xff, 0x10], 1, usize::MAX),
        0
    );
    assert_eq!(
        invalid_at(&[0xff, 0xff, 0xff, 0xff, 0x8f, 0x00], 1, usize::MAX),
        0
    );
    // u32::MAX itself is fine; a successor to it cannot exist.
    let max = [0xff, 0xff, 0xff, 0xff, 0x0f];
    assert_eq!(
        index_codec::decode(&max, 1, usize::MAX),
        Ok((vec![u32::MAX], 5))
    );
    assert_eq!(
        invalid_at(&[0xff, 0xff, 0xff, 0xff, 0x0f, 0x00], 2, usize::MAX),
        5
    );
    // Index == dim, reached by the first index and by a gap.
    assert_eq!(invalid_at(&[10], 1, 10), 0);
    assert_eq!(invalid_at(&[4, 4, 0], 3, 10), 2);
    // A count larger than the remaining input: every index needs a byte,
    // so these fail before anything is allocated for them.
    for nnz in [4usize, 1 << 40, usize::MAX] {
        assert_eq!(
            index_codec::decode(&[1, 1, 1], nnz, 100),
            Err(DecodeError::Truncated {
                at: 3,
                needed: nnz - 3
            })
        );
    }
}

/// `encode(x).len() == x.encoded_len()` for one value of every [`Payload`]
/// impl — the identity that makes the simulator's modeled bytes the bytes
/// a socket would carry. (The `Patch`/`QPatch` sections of a wire plan are
/// the `SparseVec` and `CompressedDelta` rows; `async-optim` checks the
/// plan framing around them.)
#[test]
fn every_payload_encodes_to_its_encoded_len() {
    fn len<P: Payload + ?Sized>(p: &P) -> (u64, u64) {
        let mut buf = BytesMut::new();
        p.encode(&mut buf);
        (buf.len() as u64, p.encoded_len())
    }
    let dense = vec![1.0, -2.5, 3.25];
    // Gaps of every varint width, first index 0, last index dim − 1.
    let idx = vec![0, 1, 130, 20_000, 3_000_000, 400_000_000, u32::MAX - 1];
    let sv = SparseVec::new(idx.clone(), vec![0.5; idx.len()], u32::MAX as usize).unwrap();
    let empty = SparseVec::new(vec![], vec![], 7).unwrap();
    let i8d = CompressedDelta::I8 {
        dim: u32::MAX as usize,
        scale: 2.0,
        indices: idx,
        codes: vec![-127, 0, 1, 2, 3, 64, 127],
    };
    let rows: Vec<(&str, (u64, u64))> = vec![
        ("f64", len(&1.5f64)),
        ("u64", len(&7u64)),
        ("Vec<f64>", len(&dense)),
        ("[f64]", len(dense.as_slice())),
        ("Arc<Vec<f64>>", len(&Arc::new(dense.clone()))),
        ("SparseVec", len(&sv)),
        ("SparseVec (empty)", len(&empty)),
        ("GradDelta::Dense", len(&GradDelta::Dense(dense.clone()))),
        ("GradDelta::Sparse", len(&GradDelta::Sparse(sv.clone()))),
        (
            "CompressedDelta::Exact(Dense)",
            len(&CompressedDelta::Exact(GradDelta::Dense(dense.clone()))),
        ),
        (
            "CompressedDelta::Exact(Sparse)",
            len(&CompressedDelta::Exact(GradDelta::Sparse(sv.clone()))),
        ),
        ("CompressedDelta::I8", len(&i8d)),
        ("(f64, SparseVec)", len(&(2.0f64, sv.clone()))),
        (
            "Vec<(u64, GradDelta)>",
            len(&vec![(3u64, GradDelta::Sparse(sv))]),
        ),
    ];
    for (name, (written, modeled)) in rows {
        assert_eq!(written, modeled, "{name}");
    }
}

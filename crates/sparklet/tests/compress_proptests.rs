//! Compression-codec properties: quantization roundtrips stay within each
//! wire format's error bound, the top-k selector agrees with a naive
//! sort oracle, and [`CompressedDelta`] frames roundtrip bit-exactly while
//! torn or hostile frames always decode to positioned errors — never
//! panics, never wrong values. The remote engine trusts this codec with
//! every compressed gradient that crosses a socket.

use async_linalg::{
    dequantize_i8, quantize_i8, select_top_k, CompressedDelta, GradDelta, SparseVec,
};
use bytes::BytesMut;
use proptest::prelude::*;
use sparklet::{DecodeError, Payload};

/// Deduplicated, strictly increasing coordinate support paired with the
/// generated values (truncated to the shorter of the two).
fn support(raw_idx: Vec<u32>, vals: Vec<f64>) -> (Vec<u32>, Vec<f64>) {
    let mut idx = raw_idx;
    idx.sort_unstable();
    idx.dedup();
    let n = idx.len().min(vals.len());
    (idx[..n].to_vec(), vals[..n].to_vec())
}

/// The per-message scale the compressor uses: `max|v|` over shipped values.
fn scale_of(vals: &[f64]) -> f64 {
    vals.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// Builds either wire variant from generated primitives.
fn delta_from(quantized: bool, idx: Vec<u32>, vals: Vec<f64>, dim: usize) -> CompressedDelta {
    if !quantized {
        return CompressedDelta::Exact(GradDelta::Sparse(
            SparseVec::new(idx, vals, dim).expect("sorted support"),
        ));
    }
    let scale = scale_of(&vals);
    let codes = vals.iter().map(|&v| quantize_i8(v, scale)).collect();
    CompressedDelta::I8 {
        dim,
        scale,
        indices: idx,
        codes,
    }
}

proptest! {
    #[test]
    fn i8_roundtrip_stays_within_half_a_step(
        vals in proptest::collection::vec(-1000.0..1000.0f64, 1..64usize),
    ) {
        // 127 signed levels against scale = max|v|: round-to-nearest can
        // miss by at most half a step, scale/254.
        let scale = scale_of(&vals);
        let bound = scale / 254.0 * (1.0 + 1e-12);
        for &v in &vals {
            let back = dequantize_i8(quantize_i8(v, scale), scale);
            prop_assert!(
                (back - v).abs() <= bound,
                "i8 roundtrip of {v} against {scale} came back {back}"
            );
        }
    }

    #[test]
    fn top_k_matches_the_naive_sort_oracle(
        raw_idx in proptest::collection::vec(0u32..10_000, 0..96usize),
        raw_vals in proptest::collection::vec(-100.0..100.0f64, 0..96usize),
        k in 0usize..96,
    ) {
        let (idx, vals) = support(raw_idx, raw_vals);

        // The oracle: full sort by (magnitude desc, index asc), keep k,
        // re-sort the survivors by coordinate.
        let mut order: Vec<usize> = (0..idx.len()).collect();
        order.sort_by(|&a, &b| {
            vals[b].abs().total_cmp(&vals[a].abs()).then(a.cmp(&b))
        });
        order.truncate(k);
        order.sort_unstable();
        let want_idx: Vec<u32> = order.iter().map(|&p| idx[p]).collect();
        let want_val: Vec<f64> = order.iter().map(|&p| vals[p]).collect();

        let mut scratch = Vec::new();
        let mut got_idx = Vec::new();
        let mut got_val = Vec::new();
        select_top_k(&idx, &vals, k, &mut scratch, &mut got_idx, &mut got_val);
        prop_assert_eq!(got_idx, want_idx);
        // Values must match bit-for-bit — the selector moves entries, it
        // never recomputes them.
        prop_assert_eq!(
            got_val.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want_val.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn top_k_is_total_and_oracle_consistent_under_nan_and_inf(
        raw_idx in proptest::collection::vec(0u32..10_000, 0..96usize),
        raw_vals in proptest::collection::vec(
            prop_oneof![
                4 => -100.0..100.0f64,
                1 => Just(f64::NAN),
                1 => Just(f64::INFINITY),
                1 => Just(f64::NEG_INFINITY),
                1 => Just(-f64::NAN),
            ],
            0..96usize,
        ),
        k in 0usize..96,
    ) {
        // Hostile magnitudes: the comparator must stay a total order
        // (`total_cmp` on |v| — NaN sorts above +inf), so selection
        // neither panics nor diverges from the full-sort oracle.
        let (idx, vals) = support(raw_idx, raw_vals);

        let mut order: Vec<usize> = (0..idx.len()).collect();
        order.sort_by(|&a, &b| {
            vals[b].abs().total_cmp(&vals[a].abs()).then(a.cmp(&b))
        });
        order.truncate(k);
        order.sort_unstable();
        let want_idx: Vec<u32> = order.iter().map(|&p| idx[p]).collect();
        let want_val: Vec<f64> = order.iter().map(|&p| vals[p]).collect();

        let mut scratch = Vec::new();
        let mut got_idx = Vec::new();
        let mut got_val = Vec::new();
        select_top_k(&idx, &vals, k, &mut scratch, &mut got_idx, &mut got_val);
        prop_assert_eq!(got_idx.len(), k.min(idx.len()));
        prop_assert_eq!(got_idx, want_idx);
        prop_assert_eq!(
            got_val.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want_val.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn compressed_frames_roundtrip_and_charge_their_own_length(
        quantized in 0u8..2,
        raw_idx in proptest::collection::vec(0u32..50_000, 0..64usize),
        raw_vals in proptest::collection::vec(-100.0..100.0f64, 0..64usize),
    ) {
        let (idx, vals) = support(raw_idx, raw_vals);
        let cd = delta_from(quantized == 1, idx, vals, 50_000);

        let mut buf = BytesMut::new();
        cd.encode(&mut buf);
        // The simulator's modeled byte accounting is the encoder's actual
        // output length — one source of truth.
        prop_assert_eq!(buf.len() as u64, cd.encoded_len());

        let bytes = buf.into_vec();
        let (back, used) = match CompressedDelta::decode(&bytes) {
            Ok(ok) => ok,
            Err(e) => return Err(format!("well-formed frame failed to decode: {e}")),
        };
        prop_assert_eq!(&back, &cd);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn torn_compressed_frames_report_positioned_truncation(
        quantized in 0u8..2,
        raw_idx in proptest::collection::vec(0u32..50_000, 1..64usize),
        raw_vals in proptest::collection::vec(-100.0..100.0f64, 1..64usize),
        frac in 0.0..1.0f64,
    ) {
        let (mut idx, mut vals) = support(raw_idx, raw_vals);
        if idx.is_empty() {
            idx = vec![3];
            vals = vec![1.5];
        }
        let cd = delta_from(quantized == 1, idx, vals, 50_000);
        let mut buf = BytesMut::new();
        cd.encode(&mut buf);
        let cut = ((buf.len() as f64) * frac) as usize; // in [0, len)
        let err = match CompressedDelta::decode(&buf.as_slice()[..cut]) {
            Ok(_) => return Err("torn frame decoded".to_string()),
            Err(e) => e,
        };
        prop_assert!(
            err.at() <= cut,
            "error position {} past the cut {cut}",
            err.at()
        );
    }
}

/// A frame whose quantized body claims more entries than its bytes can
/// hold must be rejected before any allocation is sized from the claim.
#[test]
fn hostile_counts_cannot_size_allocations() {
    let mut buf = BytesMut::new();
    bytes::BufMut::put_u8(&mut buf, 1);
    bytes::BufMut::put_u64_le(&mut buf, u64::MAX); // claimed nnz
    bytes::BufMut::put_u64_le(&mut buf, 8); // dim
    bytes::BufMut::put_f64_le(&mut buf, 1.0); // scale
    bytes::BufMut::put_u8(&mut buf, 0); // one lonely index
    let bytes = buf.into_vec();
    let err = CompressedDelta::decode(&bytes).expect_err("hostile count must fail");
    // Every index needs a byte: the input is short by the rest of them.
    assert!(
        matches!(err, DecodeError::Truncated { at: 26, .. }),
        "want Truncated at the end of input, got {err:?}"
    );
}

/// A shipped frame's size is what the compressor said it would be before
/// materializing it — the number the simulator charges per result.
#[test]
fn ef_state_wire_bytes_is_the_shipped_frames_encoded_len() {
    use async_linalg::{EfState, Quant};
    let dim = 70_000;
    // Candidates far enough apart that selected gaps need 1-3 byte varints.
    let pairs: Vec<(u32, f64)> = (0..300u32)
        .map(|i| (i * 233, f64::from(i % 17) - 8.0))
        .collect();
    let g = GradDelta::Sparse(SparseVec::from_pairs(pairs, dim).unwrap());
    for quant in [Quant::Exact, Quant::I8] {
        for k in [1, 7, 64, usize::MAX] {
            let mut ef = EfState::new(dim);
            ef.compress(&g, k, quant);
            let cd = ef.to_compressed();
            let mut buf = BytesMut::new();
            cd.encode(&mut buf);
            assert_eq!(ef.wire_bytes(), buf.len() as u64, "{quant:?} k={k}");
            assert_eq!(ef.wire_bytes(), cd.encoded_len(), "{quant:?} k={k}");
        }
    }
}

/// Unknown variant tags — the retired half-precision tag 2 among them —
/// are rejected with the position of the tag byte.
#[test]
fn unknown_tags_are_rejected_at_position_zero() {
    for tag in [2u8, 7] {
        let err = CompressedDelta::decode(&[tag, 0, 0]).expect_err("bad tag must fail");
        assert_eq!(err, DecodeError::BadTag { at: 0, tag });
    }
}

//! Payload sizing and wire encoding for broadcast values.
//!
//! The simulated engine charges communication time per byte, so every
//! broadcastable value reports its encoded size. [`Payload::encode`] writes
//! the actual little-endian wire format and [`Payload::decode`] reads it
//! back; the engines only need [`Payload::encoded_len`], but the remote
//! backend ships these encodings over real sockets, so decoding is fallible
//! with *positioned* errors ([`DecodeError`]) — a torn frame reports where
//! it tore, not just that it tore. Every implementor reads through the one
//! [`Reader`] ([`Payload::read`]), so a nested value's error is positioned
//! in the outermost buffer.
//!
//! Dense `f64` slabs are encoded with **one** byte-slice extend (on
//! little-endian targets the in-memory representation *is* the wire
//! encoding), not a per-element `put_f64_le` loop — the encode cost of a
//! model snapshot is a single `memcpy`.

use std::sync::Arc;

use async_linalg::{index_codec, sparse_wire_len, CompressedDelta, GradDelta, Quant, SparseVec};
pub use async_linalg::{DecodeError, Reader};
use bytes::{BufMut, BytesMut};

/// Decode result: the value plus the bytes consumed.
pub type DecodeResult<T> = Result<(T, usize), DecodeError>;

/// Appends `xs` as little-endian `f64`s in one slice extend.
fn put_f64s_le(buf: &mut BytesMut, xs: &[f64]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `f64` has no padding bytes and, on a little-endian
        // target, its in-memory byte order is exactly the LE wire order;
        // the view covers `xs.len() * 8` initialized bytes.
        let bytes = unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), xs.len() * 8) };
        buf.put_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for v in xs {
        buf.put_f64_le(*v);
    }
}

/// A value that can be broadcast: knows its wire size and representation.
pub trait Payload {
    /// Exact encoded size in bytes.
    fn encoded_len(&self) -> u64;

    /// Appends the wire encoding to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Reads one value at `r`'s position, advancing past it. Errors carry
    /// the offset where decoding failed.
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError>
    where
        Self: Sized;

    /// Decodes one value from the front of `bytes`, returning it and the
    /// number of bytes consumed.
    fn decode(bytes: &[u8]) -> DecodeResult<Self>
    where
        Self: Sized,
    {
        let mut r = Reader::new(bytes);
        let value = Self::read(&mut r)?;
        Ok((value, r.at()))
    }
}

impl Payload for f64 {
    fn encoded_len(&self) -> u64 {
        8
    }
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f64_le(*self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.f64()
    }
}

impl Payload for u64 {
    fn encoded_len(&self) -> u64 {
        8
    }
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u64()
    }
}

impl Payload for Vec<f64> {
    /// Length prefix plus the raw entries, written as one slice extend.
    fn encoded_len(&self) -> u64 {
        8 + 8 * self.len() as u64
    }
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.len() as u64);
        put_f64s_le(buf, self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.u64()? as usize;
        r.f64s(n)
    }
}

impl Payload for [f64] {
    /// Identical wire shape to `Vec<f64>` — a borrowed dense slab costs
    /// the same bytes as an owned one.
    fn encoded_len(&self) -> u64 {
        8 + 8 * self.len() as u64
    }
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.len() as u64);
        put_f64s_le(buf, self);
    }
}

/// Shared payloads encode exactly like their contents: broadcasting an
/// `Arc` snapshot costs the same wire bytes while making driver-side
/// cloning free. This is what lets the engines hold one model snapshot per
/// version instead of one owned `Vec<f64>` per worker per round.
impl<T: Payload> Payload for Arc<T> {
    fn encoded_len(&self) -> u64 {
        (**self).encoded_len()
    }
    fn encode(&self, buf: &mut BytesMut) {
        (**self).encode(buf);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        T::read(r).map(Arc::new)
    }
}

/// Writes the head of a sparse section: the `nnz | dim` header, the scale
/// of a quantized section, and the delta-varint index block. The caller
/// appends the value slab.
fn put_sparse_head(buf: &mut BytesMut, indices: &[u32], dim: usize, scale: Option<f64>) {
    buf.put_u64_le(indices.len() as u64);
    buf.put_u64_le(dim as u64);
    if let Some(scale) = scale {
        buf.put_f64_le(scale);
    }
    index_codec::encode(indices, |b| buf.put_slice(b));
}

/// Reads the head [`put_sparse_head`] wrote for a section of `quant`
/// values, returning `(indices, dim, scale)`; `scale` is 0 for an `Exact`
/// section. The untrusted count sizes nothing until the index block has
/// been checked against the input.
fn read_sparse_head(
    r: &mut Reader<'_>,
    quant: Quant,
) -> Result<(Vec<u32>, usize, f64), DecodeError> {
    let nnz = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
    let dim = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
    let mut scale = 0.0;
    if quant != Quant::Exact {
        let at = r.at();
        scale = r.f64()?;
        if !scale.is_finite() || scale < 0.0 {
            return Err(DecodeError::Invalid {
                at,
                what: "quantization scale not finite and non-negative",
            });
        }
    }
    Ok((r.indices(nnz, dim)?, dim, scale))
}

/// Appends the [`SparseVec`] wire shape for borrowed parts — how a CSR row
/// ships without materializing a vector. `indices` must be strictly
/// increasing and below `dim`.
pub fn encode_sparse(buf: &mut BytesMut, indices: &[u32], values: &[f64], dim: usize) {
    put_sparse_head(buf, indices, dim, None);
    put_f64s_le(buf, values);
}

impl Payload for SparseVec {
    /// `nnz | dim` header, delta-varint index block, `f64` value slab — the
    /// wire shape of a sparse gradient delta.
    fn encoded_len(&self) -> u64 {
        sparse_wire_len(Quant::Exact, self.indices())
    }
    fn encode(&self, buf: &mut BytesMut) {
        encode_sparse(buf, self.indices(), self.values(), self.dim());
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let at = r.at();
        let (indices, dim, _) = read_sparse_head(r, Quant::Exact)?;
        let values = r.f64s(indices.len())?;
        SparseVec::new(indices, values, dim).map_err(|_| DecodeError::Invalid {
            at,
            what: "sparse indices rejected",
        })
    }
}

impl Payload for GradDelta {
    /// One tag byte plus the payload of whichever arm is stored. For
    /// rcv1-shaped gradients (tens of nonzeros in tens of thousands of
    /// dims) the sparse arm is orders of magnitude smaller — the reason
    /// broadcast payloads and task results carry deltas in this type.
    fn encoded_len(&self) -> u64 {
        1 + match self {
            GradDelta::Dense(v) => v.encoded_len(),
            GradDelta::Sparse(s) => s.encoded_len(),
        }
    }
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            GradDelta::Dense(v) => {
                buf.put_u8(0);
                v.encode(buf);
            }
            GradDelta::Sparse(s) => {
                buf.put_u8(1);
                s.encode(buf);
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let at = r.at();
        match r.u8()? {
            0 => Vec::<f64>::read(r).map(GradDelta::Dense),
            1 => SparseVec::read(r).map(GradDelta::Sparse),
            tag => Err(DecodeError::BadTag { at, tag }),
        }
    }
}

impl Payload for CompressedDelta {
    /// One tag byte plus either the exact `GradDelta` payload or a
    /// quantized sparse section (`nnz | dim | scale` header, index block,
    /// then one code byte per entry).
    fn encoded_len(&self) -> u64 {
        match self {
            CompressedDelta::Exact(g) => 1 + g.encoded_len(),
            CompressedDelta::I8 { indices, .. } => {
                CompressedDelta::sparse_frame_len(Quant::I8, indices)
            }
        }
    }
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            CompressedDelta::Exact(g) => {
                buf.put_u8(0);
                g.encode(buf);
            }
            CompressedDelta::I8 {
                dim,
                scale,
                indices,
                codes,
            } => {
                buf.put_u8(1);
                put_sparse_head(buf, indices, *dim, Some(*scale));
                for c in codes {
                    buf.put_i8(*c);
                }
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let at = r.at();
        match r.u8()? {
            0 => GradDelta::read(r).map(CompressedDelta::Exact),
            1 => {
                let (indices, dim, scale) = read_sparse_head(r, Quant::I8)?;
                let codes = r.bytes(indices.len())?.iter().map(|&b| b as i8).collect();
                Ok(CompressedDelta::I8 {
                    dim,
                    scale,
                    indices,
                    codes,
                })
            }
            tag => Err(DecodeError::BadTag { at, tag }),
        }
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn encoded_len(&self) -> u64 {
        self.0.encoded_len() + self.1.encoded_len()
    }
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::read(r)?, B::read(r)?))
    }
}

impl<T: Payload> Payload for Vec<(u64, T)> {
    /// A keyed table: length prefix, then `key, value` pairs. This is the
    /// shape of the naive SAGA "model parameter table" broadcast that the
    /// paper calls out as impractically large (§5.2, Algorithm 3).
    fn encoded_len(&self) -> u64 {
        8 + self.iter().map(|(_, v)| 8 + v.encoded_len()).sum::<u64>()
    }
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.len() as u64);
        for (k, v) in self {
            buf.put_u64_le(*k);
            v.encode(buf);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let at = r.at();
        let n64 = r.u64()?;
        // Every entry needs at least its 8-byte key, so the remaining
        // input bounds the plausible count — a corrupt prefix, reported at
        // the prefix, must not size an allocation.
        let n = r
            .count(n64, 8)
            .map_err(|_| DecodeError::LengthOverflow { at, len: n64 });
        (0..n?).map(|_| Ok((r.u64()?, T::read(r)?))).collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn encoded_bytes<P: Payload + ?Sized>(p: &P) -> usize {
        let mut buf = BytesMut::new();
        p.encode(&mut buf);
        buf.len()
    }

    fn roundtrip<P: Payload + PartialEq + std::fmt::Debug>(p: &P) {
        let mut buf = BytesMut::new();
        p.encode(&mut buf);
        assert_eq!(buf.len() as u64, p.encoded_len());
        let (back, used) = P::decode(buf.as_slice()).expect("decodes");
        assert_eq!(&back, p);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn scalar_sizes_match_encoding() {
        assert_eq!(encoded_bytes(&1.5f64) as u64, 1.5f64.encoded_len());
        assert_eq!(encoded_bytes(&7u64) as u64, 7u64.encoded_len());
        roundtrip(&-1.25f64);
        roundtrip(&u64::MAX);
    }

    #[test]
    fn vec_size_matches_encoding_and_roundtrips() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(encoded_bytes(&v) as u64, v.encoded_len());
        assert_eq!(v.encoded_len(), 8 + 800);
        roundtrip(&v);
        roundtrip(&Vec::<f64>::new());
    }

    #[test]
    fn arc_and_slice_payloads_match_owned_encoding() {
        let v: Vec<f64> = vec![1.0, -2.5, 3.25];
        assert_eq!(v.as_slice().encoded_len(), v.encoded_len());
        assert_eq!(encoded_bytes(v.as_slice()), encoded_bytes(&v));
        let shared = Arc::new(v.clone());
        assert_eq!(shared.encoded_len(), v.encoded_len());
        assert_eq!(encoded_bytes(&shared), encoded_bytes(&v));
        roundtrip(&shared);
    }

    #[test]
    fn table_size_matches_encoding_and_grows() {
        let small: Vec<(u64, Vec<f64>)> = vec![(0, vec![1.0; 10])];
        let big: Vec<(u64, Vec<f64>)> = (0..50).map(|k| (k, vec![1.0; 10])).collect();
        assert_eq!(encoded_bytes(&small) as u64, small.encoded_len());
        assert_eq!(encoded_bytes(&big) as u64, big.encoded_len());
        assert!(big.encoded_len() > 40 * small.encoded_len());
        roundtrip(&small);
        roundtrip(&big);
    }

    #[test]
    fn sparse_payload_sizes_match_encoding() {
        let s = SparseVec::from_pairs(vec![(3, 1.5), (9, -2.0), (40, 0.25)], 64).unwrap();
        assert_eq!(encoded_bytes(&s) as u64, s.encoded_len());
        // Header, three one-byte index varints, three f64 values.
        assert_eq!(s.encoded_len(), 16 + 3 + 8 * 3);
        roundtrip(&s);
        // Borrowed parts (a CSR row) write the identical bytes.
        let (mut owned, mut borrowed) = (BytesMut::new(), BytesMut::new());
        s.encode(&mut owned);
        encode_sparse(&mut borrowed, s.indices(), s.values(), s.dim());
        assert_eq!(owned.as_slice(), borrowed.as_slice());
        let gd = GradDelta::Sparse(s);
        assert_eq!(encoded_bytes(&gd) as u64, gd.encoded_len());
        roundtrip(&gd);
        let dd = GradDelta::Dense(vec![1.0; 64]);
        assert_eq!(encoded_bytes(&dd) as u64, dd.encoded_len());
        roundtrip(&dd);
        // The sparse arm is the cheaper wire shape at this density.
        assert!(gd.encoded_len() < dd.encoded_len() / 5);
    }

    #[test]
    fn compressed_delta_sizes_match_encoding_and_roundtrip() {
        let exact = CompressedDelta::Exact(GradDelta::Sparse(
            SparseVec::from_pairs(vec![(3, 1.5), (9, -2.0)], 32).unwrap(),
        ));
        let i8d = CompressedDelta::I8 {
            dim: 32,
            scale: 2.0,
            indices: vec![1, 5, 30],
            codes: vec![-127, 64, 3],
        };
        // Tag + nnz/dim/scale header, then 1 index byte + 1 code byte per
        // entry.
        assert_eq!(i8d.encoded_len(), 25 + 2 * 3);
        for cd in [&exact, &i8d] {
            assert_eq!(encoded_bytes(cd) as u64, cd.encoded_len());
            roundtrip(cd);
        }
        // Quantized forms undercut the exact sparse wire at equal support.
        let exact3 = CompressedDelta::Exact(GradDelta::Sparse(
            SparseVec::from_pairs(vec![(1, 1.0), (5, 1.0), (30, 1.0)], 32).unwrap(),
        ));
        assert!(i8d.encoded_len() < exact3.encoded_len());
    }

    #[test]
    fn compressed_delta_decode_rejects_hostile_frames() {
        // Unknown tags, the retired half-precision tag 2 among them.
        for tag in [2u8, 7] {
            assert_eq!(
                CompressedDelta::decode(&[tag, 0, 0]),
                Err(DecodeError::BadTag { at: 0, tag })
            );
        }
        // Hostile count prefixes must not size an allocation.
        for n in [u64::MAX, 1u64 << 61, 1u64 << 40] {
            let mut buf = BytesMut::new();
            buf.put_u8(1);
            buf.put_u64_le(n);
            buf.put_u64_le(10);
            buf.put_f64_le(1.0);
            assert!(CompressedDelta::decode(buf.as_slice()).is_err(), "n={n}");
        }
        // Non-finite scale is structurally valid bytes, semantically not.
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u64_le(0);
        buf.put_u64_le(4);
        buf.put_f64_le(f64::NAN);
        assert!(matches!(
            CompressedDelta::decode(buf.as_slice()),
            Err(DecodeError::Invalid { at: 17, .. })
        ));
        // Support past the dimension: gaps 5 then 4 land on indices 5, 10,
        // and the error points at the second index's varint.
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u64_le(2);
        buf.put_u64_le(10);
        buf.put_f64_le(1.0);
        buf.put_slice(&[5, 4, 1, 1]);
        assert!(matches!(
            CompressedDelta::decode(buf.as_slice()),
            Err(DecodeError::Invalid { at: 26, .. })
        ));
        // Truncation positions point at the cut.
        let full = CompressedDelta::I8 {
            dim: 16,
            scale: 1.0,
            indices: vec![2, 7],
            codes: vec![10, -10],
        };
        let mut buf = BytesMut::new();
        full.encode(&mut buf);
        for cut in 0..buf.len() {
            let err = CompressedDelta::decode(&buf.as_slice()[..cut]).unwrap_err();
            assert!(err.at() <= cut, "cut={cut} at={}", err.at());
        }
    }

    #[test]
    fn tuple_composes() {
        let p = (2.0f64, vec![1.0f64, 2.0]);
        assert_eq!(p.encoded_len(), 8 + (8 + 16));
        assert_eq!(encoded_bytes(&p) as u64, p.encoded_len());
        roundtrip(&p);
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let v: Vec<f64> = vec![1.0, 2.0, 3.0];
        let mut buf = BytesMut::new();
        v.encode(&mut buf);
        assert!(matches!(
            Vec::<f64>::decode(&buf.as_slice()[..buf.len() - 1]),
            Err(DecodeError::Truncated { .. })
        ));
        assert_eq!(
            f64::decode(&[0u8; 4]),
            Err(DecodeError::Truncated { at: 4, needed: 4 })
        );
        assert_eq!(
            GradDelta::decode(&[9u8, 0, 0]),
            Err(DecodeError::BadTag { at: 0, tag: 9 })
        );
        // The index block cannot express an unsorted support (gaps are
        // unsigned); an index past the dimension is what is left to reject.
        let mut bad = BytesMut::new();
        bad.put_u64_le(2);
        bad.put_u64_le(10);
        bad.put_slice(&[5, 4]);
        bad.put_f64_le(1.0);
        bad.put_f64_le(1.0);
        assert!(matches!(
            SparseVec::decode(bad.as_slice()),
            Err(DecodeError::Invalid { at: 17, .. })
        ));
    }

    #[test]
    fn decode_errors_carry_positions() {
        // A truncated second tuple element reports a position past the
        // first element's bytes, not a zero offset.
        let p = (2.0f64, vec![1.0f64, 2.0, 3.0]);
        let mut buf = BytesMut::new();
        p.encode(&mut buf);
        let cut = buf.len() - 3;
        let err = <(f64, Vec<f64>)>::decode(&buf.as_slice()[..cut]).unwrap_err();
        assert!(
            err.at() >= 8,
            "position {} not re-based past element 0",
            err.at()
        );
        // A bad GradDelta arm inside a keyed table is positioned inside
        // the table, past the length prefix and first key.
        let table: Vec<(u64, GradDelta)> = vec![(7, GradDelta::Dense(vec![1.0]))];
        let mut buf = BytesMut::new();
        table.encode(&mut buf);
        let mut bytes = buf.to_vec();
        bytes[16] = 9; // corrupt entry 0's GradDelta tag byte
        let err = Vec::<(u64, GradDelta)>::decode(&bytes).unwrap_err();
        assert_eq!(err, DecodeError::BadTag { at: 16, tag: 9 });
    }

    #[test]
    fn hostile_length_prefixes_are_rejected_without_allocating() {
        // A count prefix of 2^61 would wrap `n * 8` to 0 under unchecked
        // arithmetic and be silently accepted; a huge-but-unwrapped count
        // must also not size an allocation before validation.
        for n in [u64::MAX, 1u64 << 61, 1u64 << 40] {
            let mut buf = BytesMut::new();
            buf.put_u64_le(n);
            buf.put_f64_le(1.0);
            assert!(Vec::<f64>::decode(buf.as_slice()).is_err(), "n={n}");
            let mut table = BytesMut::new();
            table.put_u64_le(n);
            table.put_u64_le(7);
            assert!(
                matches!(
                    Vec::<(u64, f64)>::decode(table.as_slice()),
                    Err(DecodeError::LengthOverflow { at: 0, .. })
                ),
                "n={n}"
            );
            let mut sv = BytesMut::new();
            sv.put_u64_le(n);
            sv.put_u64_le(10);
            assert!(SparseVec::decode(sv.as_slice()).is_err(), "n={n}");
        }
    }

    /// Feeds `decode` every strict prefix of `bytes`, each of which must be
    /// refused, and every single-bit flip of it, which may decode or be
    /// refused — what none of them may do is panic.
    pub(crate) fn every_cut_and_flip<T, E>(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, E>) {
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut flipped = bytes.to_vec();
        for bit in 0..8 * bytes.len() {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    fn cut_and_flip<P: Payload>(p: &P) {
        let mut buf = BytesMut::new();
        p.encode(&mut buf);
        every_cut_and_flip(buf.as_slice(), P::decode);
    }

    #[test]
    fn every_payload_survives_every_cut_and_bit_flip() {
        let sparse = SparseVec::from_pairs(vec![(3, 1.5), (9, -2.0), (400, 0.25)], 500).unwrap();
        cut_and_flip(&-1.25f64);
        cut_and_flip(&7u64);
        cut_and_flip(&vec![1.0f64, -2.5, 3.25]);
        cut_and_flip(&sparse);
        cut_and_flip(&GradDelta::Dense(vec![0.5, -0.5]));
        cut_and_flip(&GradDelta::Sparse(sparse.clone()));
        cut_and_flip(&CompressedDelta::Exact(GradDelta::Sparse(sparse)));
        cut_and_flip(&CompressedDelta::I8 {
            dim: 300,
            scale: 2.0,
            indices: vec![1, 5, 200],
            codes: vec![-127, 64, 3],
        });
        cut_and_flip(&(2.0f64, vec![1.0f64, 2.0]));
        cut_and_flip(&vec![(7u64, vec![1.0f64]), (9, vec![])]);
    }
}

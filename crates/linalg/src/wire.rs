//! The sorted-index wire codec shared by every sparse payload.
//!
//! Every sparse value this workspace ships — a [`SparseVec`] gradient, the
//! quantized arms of a [`CompressedDelta`], a version-diff patch, a CSR row
//! of a shipped block — has one wire shape:
//!
//! ```text
//! header (nnz u64 | dim u64 [| scale f64])  |  index block  |  value slab
//! ```
//!
//! The indices are strictly increasing, so the **index block**
//! ([`index_codec`]) stores LEB128 varints of the first index and then of
//! each `gap − 1`: one byte per index while gaps stay under 128, instead of
//! a fixed four. The value slab is the values' little-endian bytes, written
//! in one slice extend. [`sparse_wire_len`] is the size of that shape and
//! the **only** place it is computed: the payload codecs emit exactly that
//! many bytes and the simulator charges exactly that many, so modeled and
//! real socket bytes cannot drift apart.
//!
//! Every decoder of outside bytes — frames, payloads, remote requests and
//! responses, checkpoints, checkpoint manifests — reads through one
//! positioned [`Reader`]. Its positions are absolute from the start of the
//! buffer the outermost call received, so a nested decoder's error points
//! into that buffer without any re-basing, and every claimed count is
//! checked against the bytes remaining before it sizes anything.
//!
//! [`SparseVec`]: crate::SparseVec
//! [`CompressedDelta`]: crate::CompressedDelta

use crate::compress::Quant;

/// Why a wire decode failed, with the byte offset where it did.
///
/// Every variant carries `at`, the offset at which the decoder gave up.
/// Offsets are absolute: they count from the start of the buffer handed to
/// the outermost decode call, because every decoder reads through one
/// [`Reader`] over that buffer — the error from a keyed table points into
/// the table's bytes, not into one entry's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before a fixed-size field or counted body: `needed`
    /// more bytes were required at offset `at`.
    Truncated {
        /// Offset at which the input ran out.
        at: usize,
        /// Bytes still required at that offset.
        needed: usize,
    },
    /// A discriminant byte named no known variant.
    BadTag {
        /// Offset of the offending tag byte.
        at: usize,
        /// The unrecognized tag value.
        tag: u8,
    },
    /// A length prefix that cannot be honest: it overflows size arithmetic
    /// or exceeds any plausible buffer. Checked *before* any allocation it
    /// would size, so a hostile prefix cannot drive memory growth.
    LengthOverflow {
        /// Offset of the offending length prefix.
        at: usize,
        /// The claimed length.
        len: u64,
    },
    /// Structurally well-formed bytes that violate a value invariant (e.g.
    /// a sparse index outside its dimension).
    Invalid {
        /// Offset of the value whose invariant failed.
        at: usize,
        /// Which invariant failed.
        what: &'static str,
    },
}

impl DecodeError {
    /// The offset where decoding failed.
    pub fn at(&self) -> usize {
        match *self {
            DecodeError::Truncated { at, .. }
            | DecodeError::BadTag { at, .. }
            | DecodeError::LengthOverflow { at, .. }
            | DecodeError::Invalid { at, .. } => at,
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { at, needed } => {
                write!(
                    f,
                    "truncated input at byte {at}: {needed} more bytes needed"
                )
            }
            DecodeError::BadTag { at, tag } => write!(f, "bad tag {tag:#04x} at byte {at}"),
            DecodeError::LengthOverflow { at, len } => {
                write!(f, "implausible length {len} at byte {at}")
            }
            DecodeError::Invalid { at, what } => write!(f, "invalid value at byte {at}: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A positioned cursor over outside bytes — the one reader every decoder
/// uses. Each read advances past what it consumed; each failure reports
/// the absolute offset where it happened. Fixed-width values come off the
/// front with `first_chunk`, so no read can index out of bounds, and a
/// short input is [`DecodeError::Truncated`] at its end, short by exactly
/// the bytes missing.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// The offset of the next byte to be read.
    pub fn at(&self) -> usize {
        self.pos
    }

    /// The bytes not yet read.
    pub fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    fn truncated(&self, n: usize) -> DecodeError {
        DecodeError::Truncated {
            at: self.bytes.len(),
            needed: n - self.rest().len(),
        }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let out = self.rest().get(..n).ok_or_else(|| self.truncated(n))?;
        self.pos += n;
        Ok(out)
    }

    /// The next `n` bytes as a reader of their own, at the same positions
    /// — a counted body whose last field runs to the body's end.
    pub fn within(&mut self, n: usize) -> Result<Reader<'a>, DecodeError> {
        let start = self.pos;
        self.bytes(n)?;
        Ok(Reader {
            bytes: &self.bytes[..self.pos],
            pos: start,
        })
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let out = *self
            .rest()
            .first_chunk::<N>()
            .ok_or_else(|| self.truncated(N))?;
        self.pos += N;
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// One little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// One little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// One little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Validates an untrusted element count against the bytes remaining:
    /// every element takes at least `min_bytes`, so a `claimed` count the
    /// input cannot hold is [`DecodeError::LengthOverflow`] before it sizes
    /// any allocation.
    pub fn count(&self, claimed: u64, min_bytes: usize) -> Result<usize, DecodeError> {
        let n = usize::try_from(claimed).unwrap_or(usize::MAX);
        match n.checked_mul(min_bytes) {
            Some(need) if need <= self.rest().len() => Ok(n),
            _ => Err(DecodeError::LengthOverflow {
                at: self.pos,
                len: claimed,
            }),
        }
    }

    /// The next `n` values of `width` bytes; a count whose size overflows
    /// is [`DecodeError::LengthOverflow`].
    fn slab(&mut self, n: usize, width: usize) -> Result<&'a [u8], DecodeError> {
        let at = self.pos;
        let len = n.checked_mul(width);
        self.bytes(len.ok_or(DecodeError::LengthOverflow { at, len: n as u64 })?)
    }

    /// `n` little-endian `f64`s — one byte copy on little-endian targets.
    /// The count is untrusted: its size is checked arithmetic and the
    /// input is bounds-checked before anything is allocated.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, DecodeError> {
        let slab = self.slab(n, 8)?;
        #[cfg(target_endian = "little")]
        {
            let mut out = vec![0.0f64; n];
            // SAFETY: `out` owns `n` initialized `f64`s, i.e. `slab.len() =
            // 8 n` writable bytes; every bit pattern is a valid `f64`, and on
            // a little-endian target the wire order is the in-memory order.
            let dst = unsafe {
                std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u8>(), slab.len())
            };
            dst.copy_from_slice(slab);
            Ok(out)
        }
        #[cfg(not(target_endian = "little"))]
        {
            let mut slab = Reader::new(slab);
            (0..n).map(|_| slab.f64()).collect()
        }
    }

    /// `n` little-endian `f32`s, checked like [`Reader::f64s`].
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, DecodeError> {
        let value = |b: &[u8]| f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        Ok(self.slab(n, 4)?.chunks_exact(4).map(value).collect())
    }

    /// An index block of `nnz` strictly increasing indices below `dim`
    /// ([`index_codec`]). Every index takes at least one byte, so `nnz` is
    /// checked against the input **before** it sizes the output.
    pub fn indices(&mut self, nnz: usize, dim: usize) -> Result<Vec<u32>, DecodeError> {
        if nnz > self.rest().len() {
            return Err(self.truncated(nnz));
        }
        let mut out = Vec::with_capacity(nnz);
        // One past the largest index the list may hold.
        let limit = (dim as u64).min(1 << 32);
        // The smallest value the next index may take; reaches `limit` at
        // the latest once `u32::MAX` itself was decoded.
        let mut floor = 0u64;
        for _ in 0..nnz {
            let at = self.pos;
            // One-byte varints (gaps under 128) are nearly all of a real
            // support; everything else, truncation included, goes the long
            // way.
            let (v, next) = match self.bytes.get(at) {
                Some(&b) if b < 0x80 => (u32::from(b), at + 1),
                _ => index_codec::read_varint(self.bytes, at)?,
            };
            let index = floor + u64::from(v);
            if index >= limit {
                return Err(DecodeError::Invalid {
                    at,
                    what: "sparse index out of dimension",
                });
            }
            out.push(index as u32);
            floor = index + 1;
            self.pos = next;
        }
        Ok(out)
    }
}

/// Bytes of one sparse wire section over the support `indices` with values
/// in the `quant` format: the `nnz | dim` header (plus the `f64` scale of a
/// quantized section), the index block, and the value slab.
pub fn sparse_wire_len(quant: Quant, indices: &[u32]) -> u64 {
    let header = if quant == Quant::Exact { 16 } else { 24 };
    (header + index_codec::encoded_len(indices) + quant.value_bytes() * indices.len()) as u64
}

/// Delta-varint coding of a strictly increasing `u32` index list.
///
/// Each index is stored as the LEB128 varint of its distance from the
/// smallest value it could legally take: the first index from 0, every
/// later one from its predecessor plus one (`gap − 1`). The count and the
/// dimension travel in the enclosing header, not in the block.
pub mod index_codec {
    use super::{DecodeError, Reader};

    /// Bytes the LEB128 varint of `v` needs beyond its first, as a sum of
    /// comparisons: no branch and a `u32` result, so the sizing pass over a
    /// patch support vectorizes.
    #[inline]
    pub(crate) fn extra_varint_bytes(v: u32) -> u32 {
        u32::from(v >= 1 << 7)
            + u32::from(v >= 1 << 14)
            + u32::from(v >= 1 << 21)
            + u32::from(v >= 1 << 28)
    }

    /// Exact size in bytes of the block [`encode`] writes for `indices`
    /// (strictly increasing). One allocation-free pass.
    pub fn encoded_len(indices: &[u32]) -> usize {
        let Some(&first) = indices.first() else {
            return 0;
        };
        // A `u32` sum cannot overflow: a strictly increasing `u32` list has
        // fewer than 2^25 gaps of 128 or more, each worth at most 4.
        let mut extra = extra_varint_bytes(first);
        for w in indices.windows(2) {
            extra += extra_varint_bytes(w[1].wrapping_sub(w[0]).wrapping_sub(1));
        }
        indices.len() + extra as usize
    }

    /// Writes the block for `indices` (strictly increasing) through `sink`,
    /// a slice-append such as `|b| buf.extend_from_slice(b)`. The varints
    /// are staged in a stack buffer, so the sink runs once per 64 indices,
    /// not once per byte.
    pub fn encode(indices: &[u32], mut sink: impl FnMut(&[u8])) {
        const GROUP: usize = 64;
        let mut staged = [0u8; GROUP * 5];
        // The smallest value the next index may take.
        let mut floor = 0u32;
        for group in indices.chunks(GROUP) {
            let mut n = 0;
            for &i in group {
                let mut v = i.wrapping_sub(floor);
                floor = i.wrapping_add(1);
                while v >= 0x80 {
                    staged[n] = v as u8 | 0x80;
                    v >>= 7;
                    n += 1;
                }
                staged[n] = v as u8;
                n += 1;
            }
            sink(&staged[..n]);
        }
    }

    /// Reads one canonical LEB128 `u32` at offset `start`, returning it and
    /// the offset past it: the last byte of a multi-byte varint must be
    /// nonzero, and a fifth byte holds only the top four bits and must end
    /// the varint.
    pub(super) fn read_varint(bytes: &[u8], start: usize) -> Result<(u32, usize), DecodeError> {
        let invalid = |what| Err(DecodeError::Invalid { at: start, what });
        let rest = bytes.get(start..).unwrap_or(&[]);
        let mut v = 0u32;
        for (k, &b) in rest.iter().take(5).enumerate() {
            v |= u32::from(b & 0x7f) << (7 * k);
            if b < 0x80 {
                if k > 0 && b == 0 {
                    return invalid("overlong index varint");
                }
                if k == 4 && b > 0x0f {
                    return invalid("index varint overflows u32");
                }
                return Ok((v, start + k + 1));
            }
        }
        if rest.len() >= 5 {
            return invalid("index varint overflows u32");
        }
        Err(DecodeError::Truncated {
            at: bytes.len(),
            needed: 1,
        })
    }

    /// Decodes `nnz` indices from the front of `bytes`, returning them and
    /// the bytes consumed. The result is strictly increasing and below
    /// `dim` by construction; anything else in the input is a positioned
    /// error: a varint that is overlong (non-canonical) or overflows
    /// `u32`, an index at or past `dim`, or input that ends early. Every
    /// index takes at least one byte, so `nnz` is checked against the input
    /// length **before** it sizes the output.
    pub fn decode(bytes: &[u8], nnz: usize, dim: usize) -> Result<(Vec<u32>, usize), DecodeError> {
        let mut r = Reader::new(bytes);
        Ok((r.indices(nnz, dim)?, r.at()))
    }
}

#[cfg(test)]
mod tests {
    use super::index_codec::{decode, encode, encoded_len};
    use super::*;

    fn block(indices: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        encode(indices, |b| out.extend_from_slice(b));
        out
    }

    #[test]
    fn small_gaps_cost_one_byte_each() {
        let idx: Vec<u32> = (0..500).map(|i| i * 100 + 7).collect();
        let bytes = block(&idx);
        assert_eq!(bytes.len(), 500, "gap-1 = 99 < 128 everywhere");
        assert_eq!(encoded_len(&idx), 500);
        assert_eq!(decode(&bytes, 500, 50_000), Ok((idx, 500)));
    }

    #[test]
    fn boundaries_roundtrip() {
        for idx in [
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![0, 1, 2, 3],
            vec![
                0,
                128,
                129,
                1 << 14,
                (1 << 14) + (1 << 21) + 1,
                u32::MAX - 1,
                u32::MAX,
            ],
            vec![127, 255, 256 + (1 << 28), u32::MAX],
        ] {
            let bytes = block(&idx);
            assert_eq!(bytes.len(), encoded_len(&idx), "{idx:?}");
            let dim = idx.last().map_or(0, |&l| l as usize + 1);
            assert_eq!(
                decode(&bytes, idx.len(), dim),
                Ok((idx.clone(), bytes.len()))
            );
            if let Some(&last) = idx.last() {
                // One short of the last index: out of dimension, positioned
                // at that index's varint.
                let err = decode(&bytes, idx.len(), last as usize).unwrap_err();
                assert!(matches!(err, DecodeError::Invalid { .. }), "{idx:?}: {err}");
            }
        }
    }

    #[test]
    fn sparse_wire_len_adds_header_and_slab() {
        let idx = [3u32, 9, 40];
        assert_eq!(sparse_wire_len(Quant::Exact, &idx), 16 + 3 + 8 * 3);
        assert_eq!(sparse_wire_len(Quant::I8, &idx), 24 + 3 + 3);
        assert_eq!(sparse_wire_len(Quant::Exact, &[]), 16);
    }
}

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
//! [`SparseVec`]: crate::SparseVec
//! [`CompressedDelta`]: crate::CompressedDelta

use crate::compress::Quant;

/// Why a wire decode failed, with the byte offset where it did.
///
/// Every variant carries `at`, the offset (from the start of the buffer
/// handed to the outermost decode call) at which the decoder gave up.
/// Nested decoders re-base child errors with [`DecodeError::shifted`] so
/// positions stay end-to-end meaningful — the error from a keyed table
/// points into the table's bytes, not into one entry's.
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

    /// The same error re-based `base` bytes later — how composite decoders
    /// keep child error positions meaningful in the parent's frame.
    #[must_use]
    pub fn shifted(self, base: usize) -> Self {
        match self {
            DecodeError::Truncated { at, needed } => DecodeError::Truncated {
                at: at + base,
                needed,
            },
            DecodeError::BadTag { at, tag } => DecodeError::BadTag { at: at + base, tag },
            DecodeError::LengthOverflow { at, len } => {
                DecodeError::LengthOverflow { at: at + base, len }
            }
            DecodeError::Invalid { at, what } => DecodeError::Invalid {
                at: at + base,
                what,
            },
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
    use super::DecodeError;

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
    fn read_varint(bytes: &[u8], start: usize) -> Result<(u32, usize), DecodeError> {
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
        if nnz > bytes.len() {
            return Err(DecodeError::Truncated {
                at: bytes.len(),
                needed: nnz - bytes.len(),
            });
        }
        let mut out = Vec::with_capacity(nnz);
        // One past the largest index the list may hold.
        let limit = (dim as u64).min(1 << 32);
        // The smallest value the next index may take; reaches `limit` at
        // the latest once `u32::MAX` itself was decoded.
        let mut floor = 0u64;
        let mut at = 0usize;
        for _ in 0..nnz {
            // One-byte varints (gaps under 128) are nearly all of a real
            // support; everything else, truncation included, goes the long
            // way.
            let (v, next) = match bytes.get(at) {
                Some(&b) if b < 0x80 => (u32::from(b), at + 1),
                _ => read_varint(bytes, at)?,
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
            at = next;
        }
        Ok((out, at))
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
        assert_eq!(sparse_wire_len(Quant::F16, &idx), 24 + 3 + 2 * 3);
        assert_eq!(sparse_wire_len(Quant::Exact, &[]), 16);
    }
}

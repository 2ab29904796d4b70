//! Sparse vectors in coordinate (index/value) form.
//!
//! A [`SparseVec`] is the natural representation of a single high-dimensional
//! training example (e.g. one rcv1 document: dimension 47k, ~70 nonzeros).

use crate::wire::index_codec;
use crate::{Error, Result};

/// A sparse vector: strictly increasing `indices` paired with `values`,
/// embedded in a space of dimension `dim`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec {
    indices: Vec<u32>,
    values: Vec<f64>,
    dim: usize,
}

impl SparseVec {
    /// Builds a sparse vector, validating that indices are strictly
    /// increasing and within `dim`.
    pub fn new(indices: Vec<u32>, values: Vec<f64>, dim: usize) -> Result<Self> {
        if indices.len() != values.len() {
            return Err(Error::InvalidStructure(format!(
                "indices/values length mismatch: {} vs {}",
                indices.len(),
                values.len()
            )));
        }
        for w in indices.windows(2) {
            if w[0] >= w[1] {
                return Err(Error::InvalidStructure(format!(
                    "indices not strictly increasing at {} >= {}",
                    w[0], w[1]
                )));
            }
        }
        if let Some(&last) = indices.last() {
            if last as usize >= dim {
                return Err(Error::InvalidStructure(format!(
                    "index {last} out of range for dim {dim}"
                )));
            }
        }
        Ok(Self {
            indices,
            values,
            dim,
        })
    }

    /// Builds from possibly-unsorted `(index, value)` pairs; duplicate
    /// indices are summed, in an unspecified order (the sort is unstable):
    /// three or more duplicates of one index may round differently from a
    /// left-to-right sum.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>, dim: usize) -> Result<Self> {
        pairs.sort_unstable_by_key(|p| p.0);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values: Vec<f64> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if indices.last() == Some(&i) {
                *values
                    .last_mut()
                    .expect("values nonempty when indices nonempty") += v;
            } else {
                indices.push(i);
                values.push(v);
            }
        }
        Self::new(indices, values, dim)
    }

    /// The embedding dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The stored indices (strictly increasing).
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The stored values, parallel to [`Self::indices`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `out += a * self` scattered into a dense buffer.
    ///
    /// # Panics
    /// Panics if `out.len() != self.dim()`.
    #[inline]
    pub fn axpy_into_dense(&self, a: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim, "axpy_into_dense: dim mismatch");
        crate::csr::entries_axpy((&self.indices, &self.values), a, out);
    }

    /// Squared Euclidean norm of the sparse vector.
    #[inline]
    pub fn norm2_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Scales every stored value in place: `self *= a`.
    #[inline]
    pub fn scale(&mut self, a: f64) {
        for v in self.values.iter_mut() {
            *v *= a;
        }
    }

    /// In-place sparse–sparse axpy `self += a * other`, merging the two
    /// supports (the union of stored indices). Entries that cancel to an
    /// exact 0.0 are kept, so the support only grows — which is what a
    /// gradient accumulator wants (no re-sorting churn on near-cancellation).
    ///
    /// # Panics
    /// Panics if `other.dim() != self.dim()`.
    pub fn axpy(&mut self, a: f64, other: &SparseVec) {
        assert_eq!(other.dim, self.dim, "SparseVec::axpy: dim mismatch");
        if other.nnz() == 0 {
            return;
        }
        if self.nnz() == 0 {
            self.indices = other.indices.clone();
            self.values = other.values.iter().map(|v| a * v).collect();
            return;
        }
        let mut indices = Vec::with_capacity(self.nnz() + other.nnz());
        let mut values = Vec::with_capacity(self.nnz() + other.nnz());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.indices.len() || j < other.indices.len() {
            match (self.indices.get(i), other.indices.get(j)) {
                (Some(&si), Some(&oj)) if si == oj => {
                    indices.push(si);
                    values.push(self.values[i] + a * other.values[j]);
                    i += 1;
                    j += 1;
                }
                (Some(&si), Some(&oj)) if si < oj => {
                    indices.push(si);
                    values.push(self.values[i]);
                    i += 1;
                }
                (Some(_), Some(&oj)) => {
                    indices.push(oj);
                    values.push(a * other.values[j]);
                    j += 1;
                }
                (Some(&si), None) => {
                    indices.push(si);
                    values.push(self.values[i]);
                    i += 1;
                }
                (None, Some(&oj)) => {
                    indices.push(oj);
                    values.push(a * other.values[j]);
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        self.indices = indices;
        self.values = values;
    }

    /// Densifies into a `Vec<f64>` of length `dim`.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        for (i, v) in self.indices.iter().zip(self.values.iter()) {
            out[*i as usize] = *v;
        }
        out
    }

    /// Decomposes into `(indices, values, dim)`, handing the backing
    /// buffers back to the caller — the return half of a buffer-pool
    /// checkout (see `async-optim`'s `ScratchPool`).
    pub fn into_parts(self) -> (Vec<u32>, Vec<f64>, usize) {
        (self.indices, self.values, self.dim)
    }
}

/// `out[indices[k]] = values[k]` — scatter-assign of absolute values onto a
/// dense buffer. This is the apply step of a version-diff patch: the patch
/// carries the *final* values of every changed coordinate, so assignment
/// (not accumulation) reconstructs the target exactly.
///
/// # Panics
/// Panics if the slices have different lengths or an index is out of range.
#[inline]
pub fn scatter_assign(indices: &[u32], values: &[f64], out: &mut [f64]) {
    assert_eq!(
        indices.len(),
        values.len(),
        "scatter_assign: length mismatch"
    );
    for (i, v) in indices.iter().zip(values.iter()) {
        out[*i as usize] = *v;
    }
}

/// Reusable `u64`-bitmap scratch for the sorted union of several strictly
/// increasing index lists — the broadcast ring's support union (the union
/// of a gap's per-version change supports is the patch support).
///
/// Each entry sets one bit; the union is then read back in order over the
/// touched word range only — as a list with `trailing_zeros`
/// ([`BitmapUnion::union_into`]) or, when only its wire size is wanted, as
/// a per-word count ([`BitmapUnion::union_index_len`]) — so a call costs
/// O(entries + touched words) however many lists there are, with none of
/// a merge's unpredictable per-entry compare branches. Words are zeroed
/// as they are read: the bitmap is all-zero between calls and never needs
/// a separate clear.
#[derive(Debug, Default)]
pub struct BitmapUnion {
    words: Vec<u64>,
}

impl BitmapUnion {
    /// Writes the sorted union of `lists` into `out` (cleared first). The
    /// result equals folding the lists with [`merge_union_u32`].
    ///
    /// Each list must be strictly increasing.
    pub fn union_into<'a>(
        &mut self,
        lists: impl IntoIterator<Item = &'a [u32]>,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let mut lists = lists.into_iter();
        let Some(first) = lists.next() else { return };
        let Some(second) = lists.next() else {
            // One list is its own union.
            out.extend_from_slice(first);
            return;
        };
        for w in self.mark([first, second].into_iter().chain(lists)) {
            let mut bits = std::mem::take(&mut self.words[w]);
            while bits != 0 {
                out.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// The size of the union of `lists` without building it: its entry
    /// count, and the bytes of its [`index_codec`] block — exactly
    /// `(union.len(), index_codec::encoded_len(&union))` for the `union`
    /// that [`BitmapUnion::union_into`] would write.
    ///
    /// Entries are one `count_ones` per word. Every index costs one block
    /// byte plus the extra bytes of a varint of 128 or more, and only a
    /// word's *first* set bit can follow a gap that wide (two bits of one
    /// word are less than 64 apart), so the surcharge is taken once per
    /// non-zero word.
    ///
    /// Each list must be strictly increasing.
    pub fn union_index_len<'a>(
        &mut self,
        lists: impl IntoIterator<Item = &'a [u32]>,
    ) -> (usize, usize) {
        let (mut entries, mut extra) = (0usize, 0u32);
        // The smallest value the next index may take, as in `encode`.
        let mut floor = 0u32;
        for w in self.mark(lists.into_iter()) {
            let bits = std::mem::take(&mut self.words[w]);
            if bits != 0 {
                let base = (w * 64) as u32;
                entries += bits.count_ones() as usize;
                extra += index_codec::extra_varint_bytes(base + bits.trailing_zeros() - floor);
                floor = base.wrapping_add(64 - bits.leading_zeros());
            }
        }
        (entries, entries + extra as usize)
    }

    /// Sets the bit of every entry of `lists` and returns the touched word
    /// range. Each list must be strictly increasing; the bitmap grows to
    /// cover the largest index seen and keeps that size for later calls.
    /// The caller reads the range back, zeroing each word it reads.
    fn mark<'a>(&mut self, lists: impl Iterator<Item = &'a [u32]>) -> std::ops::Range<usize> {
        // Half-open; sortedness makes each list's first and last entry its
        // extremes.
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for list in lists {
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "BitmapUnion: list not strictly increasing"
            );
            let (Some(&min), Some(&max)) = (list.first(), list.last()) else {
                continue;
            };
            lo = lo.min(min as usize / 64);
            hi = hi.max(max as usize / 64 + 1);
            if hi > self.words.len() {
                self.words.resize(hi, 0);
            }
            for &i in list {
                self.words[i as usize / 64] |= 1u64 << (i % 64);
            }
        }
        lo..hi
    }
}

/// Union-merge of two strictly increasing index lists into `out` (cleared
/// first) — the two-way fold the error-feedback compressor grows its
/// residual support with.
#[inline]
pub fn merge_union_u32(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (ai, bj) = (a[i], b[j]);
        if ai == bj {
            out.push(ai);
            i += 1;
            j += 1;
        } else if ai < bj {
            out.push(ai);
            i += 1;
        } else {
            out.push(bj);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f64)], dim: usize) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec(), dim).unwrap()
    }

    #[test]
    fn new_validates_ordering() {
        assert!(SparseVec::new(vec![2, 1], vec![1.0, 1.0], 5).is_err());
        assert!(SparseVec::new(vec![1, 1], vec![1.0, 1.0], 5).is_err());
        assert!(SparseVec::new(vec![0, 4], vec![1.0, 1.0], 5).is_ok());
    }

    #[test]
    fn new_validates_range_and_len() {
        assert!(SparseVec::new(vec![5], vec![1.0], 5).is_err());
        assert!(SparseVec::new(vec![0], vec![], 5).is_err());
    }

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = sv(&[(3, 1.0), (1, 2.0), (3, 4.0)], 5);
        assert_eq!(v.indices(), &[1, 3]);
        assert_eq!(v.values(), &[2.0, 5.0]);
    }

    #[test]
    fn dot_dense_matches_dense() {
        let v = sv(&[(0, 2.0), (3, -1.0)], 4);
        let w = [1.0, 10.0, 100.0, 5.0];
        let dot = crate::csr::entries_dot((v.indices(), v.values()), &w);
        assert!((dot - (2.0 - 5.0)).abs() < 1e-15);
        let dense = v.to_dense();
        assert!((crate::dense::dot(&dense, &w) - dot).abs() < 1e-15);
    }

    #[test]
    fn axpy_scatters() {
        let v = sv(&[(1, 3.0)], 3);
        let mut out = [1.0, 1.0, 1.0];
        v.axpy_into_dense(2.0, &mut out);
        assert_eq!(out, [1.0, 7.0, 1.0]);
    }

    #[test]
    fn scale_multiplies_values_in_place() {
        let mut v = sv(&[(0, 2.0), (3, -1.0)], 4);
        v.scale(-0.5);
        assert_eq!(v.values(), &[-1.0, 0.5]);
        assert_eq!(v.indices(), &[0, 3]);
    }

    #[test]
    fn sparse_axpy_merges_supports() {
        let mut x = sv(&[(1, 1.0), (3, 2.0)], 6);
        let y = sv(&[(0, 5.0), (3, 1.0), (5, -2.0)], 6);
        x.axpy(2.0, &y);
        assert_eq!(x.indices(), &[0, 1, 3, 5]);
        assert_eq!(x.values(), &[10.0, 1.0, 4.0, -4.0]);
    }

    #[test]
    fn sparse_axpy_matches_dense_reference() {
        let mut x = sv(&[(2, 1.5), (4, -3.0)], 8);
        let y = sv(&[(0, 1.0), (2, 2.0), (7, 4.0)], 8);
        let mut dense_ref = x.to_dense();
        y.axpy_into_dense(-1.5, &mut dense_ref);
        x.axpy(-1.5, &y);
        for (i, want) in dense_ref.iter().enumerate() {
            let got = x
                .indices()
                .iter()
                .position(|&c| c as usize == i)
                .map_or(0.0, |p| x.values()[p]);
            assert!((got - want).abs() < 1e-15, "coord {i}: {got} vs {want}");
        }
    }

    #[test]
    fn sparse_axpy_with_empty_operands() {
        let mut x = SparseVec::new(vec![], vec![], 4).unwrap();
        let y = sv(&[(1, 3.0)], 4);
        x.axpy(2.0, &y);
        assert_eq!(x.indices(), &[1]);
        assert_eq!(x.values(), &[6.0]);
        let empty = SparseVec::new(vec![], vec![], 4).unwrap();
        x.axpy(1.0, &empty);
        assert_eq!(x.nnz(), 1);
    }

    #[test]
    fn scatter_assign_overwrites_only_support() {
        let mut out = [1.0, 2.0, 3.0, 4.0];
        scatter_assign(&[1, 3], &[-5.0, 9.0], &mut out);
        assert_eq!(out, [1.0, -5.0, 3.0, 9.0]);
    }

    #[test]
    fn merge_union_merges_sorted_lists() {
        let mut out = Vec::new();
        merge_union_u32(&[1, 4, 7], &[0, 4, 9], &mut out);
        assert_eq!(out, vec![0, 1, 4, 7, 9]);
        merge_union_u32(&[], &[2, 3], &mut out);
        assert_eq!(out, vec![2, 3]);
        merge_union_u32(&[5], &[], &mut out);
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn bitmap_union_sorts_dedups_and_leaves_the_bitmap_clear() {
        let mut bitmap = BitmapUnion::default();
        let mut out = vec![99];
        bitmap.union_into([], &mut out);
        assert!(out.is_empty());
        bitmap.union_into([&[3u32, 64, 200][..]], &mut out);
        assert_eq!(out, vec![3, 64, 200], "one list is copied through");
        let lists: [&[u32]; 4] = [&[1, 4, 63, 64], &[0, 4, 129], &[], &[64, 127, 128]];
        bitmap.union_into(lists, &mut out);
        assert_eq!(out, vec![0, 1, 4, 63, 64, 127, 128, 129]);
        assert!(
            bitmap.words.iter().all(|&w| w == 0),
            "words read are zeroed"
        );
    }

    #[test]
    fn into_parts_round_trips() {
        let v = sv(&[(2, 1.0), (5, -2.0)], 8);
        let (idx, val, dim) = v.clone().into_parts();
        assert_eq!(SparseVec::new(idx, val, dim).unwrap(), v);
    }

    #[test]
    fn empty_vector_ok() {
        let v = SparseVec::new(vec![], vec![], 10).unwrap();
        assert_eq!(v.nnz(), 0);
        assert_eq!(
            crate::csr::entries_dot((v.indices(), v.values()), &[1.0; 10]),
            0.0
        );
        assert_eq!(v.norm2_sq(), 0.0);
    }
}

//! Gradient compression: top-k sparsification with error feedback, plus
//! scale-normalized int8 value quantization.
//!
//! The compressor keeps the k largest-magnitude coordinates of each delta
//! and folds everything it drops into a per-partition residual
//! ([`EfState`]) that is added back into the *next* delta before
//! selection — the error-feedback scheme ASAP-style approximate
//! communication relies on. Shipped values can additionally be quantized
//! to 8-bit codes against a per-message scale, and the residual absorbs
//! the quantization error too: the telescoping identity
//!
//! ```text
//! Σₜ shippedₜ + residual_T = Σₜ rawₜ        (per coordinate, residual₀ = 0)
//! ```
//!
//! holds to floating-point accumulation error, so nothing the compressor
//! drops is ever lost — only delayed.
//!
//! Everything here is deterministic: selection uses a total order
//! (magnitude descending, index ascending on ties), quantization is pure
//! per-value arithmetic against an `f64` scale, and dequantization of a
//! code vector reproduces the exact same bits whether it runs in the
//! simulator's task closure or in a remote worker process. That is what
//! lets compressed runs stay byte-gated on the simulated engine.

use crate::delta::GradDelta;
use crate::sparse::{merge_union_u32, SparseVec};
use crate::wire::sparse_wire_len;

/// Value quantization applied to shipped (top-k selected) coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Quant {
    /// Ship full `f64` values (sparsification only).
    #[default]
    Exact,
    /// Scale-normalized 8-bit codes: `v ≈ round(v·127/s)·s/127`; error ≤
    /// `s / 254` per value.
    I8,
}

impl Quant {
    /// Wire bytes of one shipped value in this format.
    pub fn value_bytes(self) -> usize {
        match self {
            Quant::Exact => 8,
            Quant::I8 => 1,
        }
    }
}

/// Quantizes `v` against `scale` to a signed 8-bit code in `[-127, 127]`.
/// A non-finite scale (the signature of a NaN/inf coordinate upstream)
/// maps every value to the zero code instead of poisoning the whole frame
/// (`NaN as i8` is 0, but `v / inf` silently flushing all magnitudes to
/// zero *codes* while the header still advertised an infinite scale would
/// decode to NaN/inf).
#[inline]
pub fn quantize_i8(v: f64, scale: f64) -> i8 {
    if scale == 0.0 || !scale.is_finite() {
        0
    } else {
        (v / scale * 127.0).round().clamp(-127.0, 127.0) as i8
    }
}

/// Dequantizes an 8-bit code produced by [`quantize_i8`].
#[inline]
pub fn dequantize_i8(code: i8, scale: f64) -> f64 {
    code as f64 * scale / 127.0
}

/// Selects the `k` largest-magnitude entries of a sparse pairing under a
/// deterministic total order (magnitude descending, index ascending on
/// ties) and appends them to `out_idx`/`out_val` **sorted by index**.
/// `order` is position scratch reused across calls; with `k ≥ idx.len()`
/// every entry is kept. Allocation-free once the scratch and output
/// capacities cover the inputs.
pub fn select_top_k(
    idx: &[u32],
    val: &[f64],
    k: usize,
    order: &mut Vec<u32>,
    out_idx: &mut Vec<u32>,
    out_val: &mut Vec<f64>,
) {
    debug_assert_eq!(idx.len(), val.len());
    if k == 0 {
        return;
    }
    if idx.len() <= k {
        out_idx.extend_from_slice(idx);
        out_val.extend_from_slice(val);
        return;
    }
    order.clear();
    order.extend(0..idx.len() as u32);
    let by_magnitude = |&a: &u32, &b: &u32| {
        val[b as usize]
            .abs()
            .total_cmp(&val[a as usize].abs())
            .then(a.cmp(&b))
    };
    order.select_nth_unstable_by(k - 1, by_magnitude);
    order.truncate(k);
    // Positions ascend together with indices, so sorting positions sorts
    // the selection by coordinate.
    order.sort_unstable();
    for &p in order.iter() {
        out_idx.push(idx[p as usize]);
        out_val.push(val[p as usize]);
    }
}

/// A compressed gradient delta in wire form: the shipped support plus
/// either exact values or quantization codes with their scale. This is
/// what remote workers actually put on the TCP socket (via the `sparklet`
/// payload codec); the simulator models the identical byte count via
/// [`CompressedDelta::sparse_frame_len`] without materializing codes.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressedDelta {
    /// Unquantized (sparsification-only) passthrough.
    Exact(GradDelta),
    /// 8-bit codes against a per-message scale.
    I8 {
        /// Embedding dimension.
        dim: usize,
        /// Per-message scale (`max|v|` over shipped values).
        scale: f64,
        /// Shipped support, strictly increasing.
        indices: Vec<u32>,
        /// Codes parallel to `indices`.
        codes: Vec<i8>,
    },
}

impl CompressedDelta {
    /// The embedding dimension.
    pub fn dim(&self) -> usize {
        match self {
            CompressedDelta::Exact(g) => g.dim(),
            CompressedDelta::I8 { dim, .. } => *dim,
        }
    }

    /// Shipped entries.
    pub fn nnz(&self) -> usize {
        match self {
            CompressedDelta::Exact(g) => g.nnz(),
            CompressedDelta::I8 { indices, .. } => indices.len(),
        }
    }

    /// Wire size of the frame carrying a sparse selection over `indices`
    /// in the `quant` format, without materializing it: the frame tag, then
    /// either the tagged sparse [`GradDelta`] payload (`Exact`) or a
    /// quantized sparse section. This is what the payload codec emits for
    /// such a frame and what the simulator charges for it.
    pub fn sparse_frame_len(quant: Quant, indices: &[u32]) -> u64 {
        let tags = if quant == Quant::Exact { 2 } else { 1 };
        tags + sparse_wire_len(quant, indices)
    }

    /// `out[i] += value` for every shipped entry, dequantizing on the fly
    /// — how a quantized version-diff patch moves a cached model forward.
    ///
    /// # Panics
    /// Panics if `out.len() != self.dim()`.
    pub fn add_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim(), "add_into: dimension mismatch");
        match self {
            CompressedDelta::Exact(g) => g.axpy_into(1.0, out),
            CompressedDelta::I8 {
                scale,
                indices,
                codes,
                ..
            } => {
                for (&i, &c) in indices.iter().zip(codes) {
                    out[i as usize] += dequantize_i8(c, *scale);
                }
            }
        }
    }

    /// Dequantizes into caller-provided buffers (cleared first) and builds
    /// the sparse [`GradDelta`] the server applies — bit-identical to the
    /// values the compressing side recorded in its residual update.
    ///
    /// # Panics
    /// Panics if the stored indices violate the sparse invariant (cannot
    /// happen for values produced by [`EfState`] or the validated decoder).
    pub fn into_delta_buffers(self, mut idx: Vec<u32>, mut val: Vec<f64>) -> GradDelta {
        idx.clear();
        val.clear();
        match self {
            CompressedDelta::Exact(g) => g,
            CompressedDelta::I8 {
                dim,
                scale,
                indices,
                codes,
            } => {
                idx.extend_from_slice(&indices);
                val.extend(codes.iter().map(|&c| dequantize_i8(c, scale)));
                GradDelta::Sparse(
                    SparseVec::new(idx, val, dim).expect("compressed support is sorted"),
                )
            }
        }
    }
}

/// A gradient delta carried a non-finite (NaN/±inf) coordinate.
///
/// Error feedback cannot absorb such a frame: `residual += g` would plant
/// the poison, and because `NaN - NaN = NaN` no later subtraction can ever
/// remove it — the telescoping identity is destroyed permanently, not
/// delayed. [`EfState::try_compress`] therefore rejects the frame *before*
/// touching any state, naming the first offending coordinate so the caller
/// can log it and fall back to shipping the raw delta uncompressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonFiniteDelta {
    /// First coordinate (embedding index) holding a non-finite value.
    pub coordinate: u32,
    /// The offending value (NaN, `inf`, or `-inf`).
    pub value: f64,
}

impl std::fmt::Display for NonFiniteDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "non-finite gradient delta: coordinate {} is {}",
            self.coordinate, self.value
        )
    }
}

impl std::error::Error for NonFiniteDelta {}

/// Scans a delta for its first non-finite coordinate.
fn first_non_finite(g: &GradDelta) -> Option<NonFiniteDelta> {
    match g {
        GradDelta::Sparse(s) => s
            .indices()
            .iter()
            .zip(s.values())
            .find(|(_, v)| !v.is_finite())
            .map(|(&i, &v)| NonFiniteDelta {
                coordinate: i,
                value: v,
            }),
        GradDelta::Dense(d) => d
            .iter()
            .enumerate()
            .find(|(_, v)| !v.is_finite())
            .map(|(i, &v)| NonFiniteDelta {
                coordinate: i as u32,
                value: v,
            }),
    }
}

/// Per-coordinate raw/shipped running sums for the telescoping-identity
/// test rig.
#[derive(Debug, Clone)]
struct TrackSums {
    raw: Vec<f64>,
    shipped: Vec<f64>,
}

/// Per-partition error-feedback compressor state.
///
/// One `EfState` lives wherever one partition's gradient stream is
/// produced — keyed by partition in the driver-side bank for simulated and
/// threaded runs, or in the worker-process cache for remote runs. Each
/// [`EfState::compress`] call accumulates the raw delta into the residual,
/// selects the top-k coordinates of the *accumulated* vector, quantizes
/// them, and subtracts the **dequantized** shipped values back out — so
/// the residual carries both the sparsification and the quantization
/// error forward. All buffers are retained across calls; once warm the
/// per-step work performs no heap allocation.
#[derive(Debug, Clone)]
pub struct EfState {
    dim: usize,
    residual: Vec<f64>,
    /// Sorted coordinates where `residual` may be nonzero (sparse mode).
    support: Vec<u32>,
    /// Once any dense delta arrives, candidate gathering scans the full
    /// dimension instead of the support set.
    dense: bool,
    merge_tmp: Vec<u32>,
    cand_idx: Vec<u32>,
    cand_val: Vec<f64>,
    order: Vec<u32>,
    sel_idx: Vec<u32>,
    sel_val: Vec<f64>,
    codes_i8: Vec<i8>,
    scale: f64,
    quant: Quant,
    track: Option<Box<TrackSums>>,
}

impl EfState {
    /// Fresh (zero-residual) state for deltas of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            residual: vec![0.0; dim],
            support: Vec::new(),
            dense: false,
            merge_tmp: Vec::new(),
            cand_idx: Vec::new(),
            cand_val: Vec::new(),
            order: Vec::new(),
            sel_idx: Vec::new(),
            sel_val: Vec::new(),
            codes_i8: Vec::new(),
            scale: 0.0,
            quant: Quant::Exact,
            track: None,
        }
    }

    /// State seeded from a previously accumulated `residual` — the
    /// durable-resume path: a checkpointed run serializes each partition's
    /// residual and a restarted run rebuilds its compressor states from
    /// them, so the error-feedback telescoping picks up exactly where the
    /// crashed run stopped. The support is recovered as the residual's
    /// nonzero coordinates; compression from a restored state is
    /// bit-identical to continuing the original one.
    pub fn from_residual(residual: Vec<f64>) -> Self {
        let support: Vec<u32> = residual
            .iter()
            .enumerate()
            .filter(|(_, &r)| r != 0.0)
            .map(|(i, _)| i as u32)
            .collect();
        let mut s = Self::new(0);
        s.dim = residual.len();
        s.residual = residual;
        s.support = support;
        s
    }

    /// Enables per-coordinate raw/shipped sum tracking (test rig for the
    /// telescoping identity; costs two dense vectors).
    #[must_use]
    pub fn with_tracking(mut self) -> Self {
        self.track = Some(Box::new(TrackSums {
            raw: vec![0.0; self.dim],
            shipped: vec![0.0; self.dim],
        }));
        self
    }

    /// The embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// One compression step: accumulate `g` into the residual, select the
    /// top-`k` magnitudes of the accumulated vector, quantize, and leave
    /// the un-shipped remainder (plus quantization error) in the residual.
    /// The shipped message is exposed through the accessors until the next
    /// call.
    ///
    /// # Panics
    /// Panics if `g.dim() != self.dim()`, `k == 0`, or `g` carries a
    /// non-finite coordinate (use [`EfState::try_compress`] to handle that
    /// case as a recoverable, positioned error instead).
    pub fn compress(&mut self, g: &GradDelta, k: usize, quant: Quant) {
        if let Err(e) = self.try_compress(g, k, quant) {
            panic!("EfState::compress: {e}");
        }
    }

    /// Fallible twin of [`EfState::compress`]: rejects a delta carrying a
    /// NaN/inf coordinate with a positioned [`NonFiniteDelta`] **before
    /// mutating anything** — the residual, support, tracking sums, and the
    /// previously shipped message are all left exactly as they were, so
    /// the caller can ship the raw frame uncompressed (or drop it) and
    /// keep compressing subsequent finite deltas against intact state.
    ///
    /// # Panics
    /// Panics if `g.dim() != self.dim()` or `k == 0`.
    pub fn try_compress(
        &mut self,
        g: &GradDelta,
        k: usize,
        quant: Quant,
    ) -> Result<(), NonFiniteDelta> {
        assert_eq!(g.dim(), self.dim, "EfState: delta dimension mismatch");
        assert!(k > 0, "EfState: top-k needs k >= 1");
        // Poison check first: once `residual += g` runs with a NaN inside,
        // `NaN - NaN = NaN` makes the state unrecoverable forever.
        if let Some(e) = first_non_finite(g) {
            return Err(e);
        }
        if let Some(t) = self.track.as_deref_mut() {
            g.axpy_into(1.0, &mut t.raw);
        }
        // Residual += g, tracking the support while everything is sparse.
        match g {
            GradDelta::Sparse(s) if !self.dense => {
                s.axpy_into_dense(1.0, &mut self.residual);
                self.merge_tmp.clear();
                merge_union_u32(&self.support, s.indices(), &mut self.merge_tmp);
                std::mem::swap(&mut self.support, &mut self.merge_tmp);
            }
            _ => {
                g.axpy_into(1.0, &mut self.residual);
                self.dense = true;
            }
        }
        // Gather nonzero candidates; the rebuilt support drops coordinates
        // that cancelled to exactly zero so it cannot grow stale entries.
        self.cand_idx.clear();
        self.cand_val.clear();
        if self.dense {
            for (i, &v) in self.residual.iter().enumerate() {
                if v != 0.0 {
                    self.cand_idx.push(i as u32);
                    self.cand_val.push(v);
                }
            }
        } else {
            for &i in self.support.iter() {
                let v = self.residual[i as usize];
                if v != 0.0 {
                    self.cand_idx.push(i);
                    self.cand_val.push(v);
                }
            }
            self.support.clear();
            self.support.extend_from_slice(&self.cand_idx);
        }
        self.sel_idx.clear();
        self.sel_val.clear();
        select_top_k(
            &self.cand_idx,
            &self.cand_val,
            k,
            &mut self.order,
            &mut self.sel_idx,
            &mut self.sel_val,
        );
        // Quantize in place: sel_val becomes the *dequantized* shipped
        // values, the code buffers hold the wire form.
        self.quant = quant;
        self.scale = self.sel_val.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        self.codes_i8.clear();
        match quant {
            Quant::Exact => {}
            Quant::I8 => {
                for v in self.sel_val.iter_mut() {
                    let c = quantize_i8(*v, self.scale);
                    self.codes_i8.push(c);
                    *v = dequantize_i8(c, self.scale);
                }
            }
        }
        // Residual -= shipped (dequantized), so it carries exactly what
        // the wire did not.
        for (&i, &v) in self.sel_idx.iter().zip(self.sel_val.iter()) {
            self.residual[i as usize] -= v;
        }
        if let Some(t) = self.track.as_deref_mut() {
            for (&i, &v) in self.sel_idx.iter().zip(self.sel_val.iter()) {
                t.shipped[i as usize] += v;
            }
        }
        Ok(())
    }

    /// Shipped support of the last [`EfState::compress`] call.
    pub fn shipped_indices(&self) -> &[u32] {
        &self.sel_idx
    }

    /// Shipped (dequantized) values, parallel to
    /// [`EfState::shipped_indices`].
    pub fn shipped_values(&self) -> &[f64] {
        &self.sel_val
    }

    /// Wire bytes of the last shipped message: the encoded size of
    /// [`EfState::to_compressed`], computed without materializing it.
    pub fn wire_bytes(&self) -> u64 {
        CompressedDelta::sparse_frame_len(self.quant, &self.sel_idx)
    }

    /// Materializes the last shipped message as an owned wire value (the
    /// remote worker's response body; allocates).
    pub fn to_compressed(&self) -> CompressedDelta {
        match self.quant {
            Quant::Exact => CompressedDelta::Exact(GradDelta::Sparse(
                SparseVec::new(self.sel_idx.clone(), self.sel_val.clone(), self.dim)
                    .expect("selection keeps indices sorted"),
            )),
            Quant::I8 => CompressedDelta::I8 {
                dim: self.dim,
                scale: self.scale,
                indices: self.sel_idx.clone(),
                codes: self.codes_i8.clone(),
            },
        }
    }

    /// The current residual (what has been dropped so far and will be
    /// added back before the next selection).
    pub fn residual(&self) -> &[f64] {
        &self.residual
    }

    /// Per-coordinate `(Σ raw, Σ shipped)` sums when tracking is enabled —
    /// the telescoping identity is `raw[i] = shipped[i] + residual[i]` up
    /// to floating-point accumulation error.
    pub fn tracking(&self) -> Option<(&[f64], &[f64])> {
        self.track
            .as_deref()
            .map(|t| (t.raw.as_slice(), t.shipped.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(pairs: &[(u32, f64)], dim: usize) -> GradDelta {
        GradDelta::Sparse(SparseVec::from_pairs(pairs.to_vec(), dim).unwrap())
    }

    #[test]
    fn restored_residual_continues_compression_bit_identically() {
        // Two states walk the same delta stream; one is torn down after
        // two steps and rebuilt from its serialized residual. The shipped
        // messages and residuals of the remaining steps must agree bitwise.
        let dim = 64;
        let mut orig = EfState::new(dim);
        let stream: Vec<GradDelta> = (0..5u32)
            .map(|k| sparse(&[(k % 7, 1.5 + f64::from(k)), (11 + k, -0.25)], dim))
            .collect();
        for g in &stream[..2] {
            orig.compress(g, 2, Quant::I8);
        }
        let mut restored = EfState::from_residual(orig.residual().to_vec());
        for g in &stream[2..] {
            orig.compress(g, 2, Quant::I8);
            restored.compress(g, 2, Quant::I8);
            assert_eq!(orig.shipped_indices(), restored.shipped_indices());
            assert_eq!(orig.shipped_values(), restored.shipped_values());
            assert_eq!(orig.scale.to_bits(), restored.scale.to_bits());
            assert_eq!(orig.residual(), restored.residual());
        }
    }

    #[test]
    fn from_residual_recovers_dim_and_support() {
        let mut r = vec![0.0; 10];
        r[3] = 1.0;
        r[7] = -2.0;
        let s = EfState::from_residual(r.clone());
        assert_eq!(s.dim(), 10);
        assert_eq!(s.residual(), r.as_slice());
    }

    #[test]
    fn i8_codes_are_exact_on_their_own_grid_and_bounded_elsewhere() {
        let scale = 3.0;
        for c in -127i32..=127 {
            let v = dequantize_i8(c as i8, scale);
            assert_eq!(quantize_i8(v, scale), c as i8);
        }
        let mut x = -3.0f64;
        while x <= 3.0 {
            let dq = dequantize_i8(quantize_i8(x, scale), scale);
            assert!((dq - x).abs() <= scale / 254.0 + 1e-12, "x={x}");
            x += 0.000_739;
        }
        assert_eq!(quantize_i8(1.0, 0.0), 0);
    }

    #[test]
    fn top_k_matches_naive_sort_oracle() {
        let idx: Vec<u32> = (0..200).map(|i| i * 3).collect();
        let val: Vec<f64> = (0..200)
            .map(|i| ((i * 2_654_435_761u64 % 1_000) as f64 - 500.0) / 97.0)
            .collect();
        for k in [1usize, 5, 50, 199, 200, 500] {
            let mut order = Vec::new();
            let (mut oi, mut ov) = (Vec::new(), Vec::new());
            select_top_k(&idx, &val, k, &mut order, &mut oi, &mut ov);
            // Oracle: full sort by (|v| desc, idx asc), take k, re-sort by index.
            let mut all: Vec<(u32, f64)> = idx.iter().copied().zip(val.iter().copied()).collect();
            all.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
            all.truncate(k);
            all.sort_by_key(|e| e.0);
            assert_eq!(oi, all.iter().map(|e| e.0).collect::<Vec<_>>(), "k={k}");
            assert_eq!(ov, all.iter().map(|e| e.1).collect::<Vec<_>>(), "k={k}");
        }
    }

    #[test]
    fn error_feedback_telescopes_per_coordinate() {
        let dim = 40;
        let mut ef = EfState::new(dim).with_tracking();
        let mut state = 1u64;
        for step in 0..50 {
            let pairs: Vec<(u32, f64)> = (0..dim as u32)
                .filter_map(|i| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    ((state >> 60) < 6)
                        .then(|| (i, ((state >> 20) as f64 / (1u64 << 43) as f64) - 1.0))
                })
                .collect();
            if pairs.is_empty() {
                continue;
            }
            let g = sparse(&pairs, dim);
            let quant = [Quant::Exact, Quant::I8][step % 2];
            ef.compress(&g, 3, quant);
        }
        let (raw, shipped) = ef.tracking().unwrap();
        for i in 0..dim {
            let drift = (raw[i] - shipped[i] - ef.residual()[i]).abs();
            assert!(drift <= 1e-9, "coordinate {i} drifts by {drift}");
        }
    }

    #[test]
    fn exact_unbounded_k_is_a_passthrough_with_zero_residual() {
        let dim = 16;
        let mut ef = EfState::new(dim);
        let g = sparse(&[(1, 0.5), (7, -2.0), (15, 1.25)], dim);
        ef.compress(&g, usize::MAX, Quant::Exact);
        assert_eq!(ef.shipped_indices(), &[1, 7, 15]);
        assert_eq!(ef.shipped_values(), &[0.5, -2.0, 1.25]);
        assert!(ef.residual().iter().all(|&r| r == 0.0));
        // And again: the residual stayed exactly zero, so the next ship is
        // again exactly the raw delta.
        ef.compress(&g, usize::MAX, Quant::Exact);
        assert_eq!(ef.shipped_values(), &[0.5, -2.0, 1.25]);
    }

    #[test]
    fn dropped_mass_returns_on_later_steps() {
        let dim = 8;
        let mut ef = EfState::new(dim);
        ef.compress(
            &sparse(&[(0, 1.0), (1, 0.4), (2, 0.3)], dim),
            1,
            Quant::Exact,
        );
        assert_eq!(ef.shipped_indices(), &[0]);
        assert_eq!(ef.residual()[1], 0.4);
        // Next step ships the accumulated coordinate 1 (0.4 + 0.4 = 0.8
        // beats the fresh 0.5 at coordinate 3).
        ef.compress(&sparse(&[(1, 0.4), (3, 0.5)], dim), 1, Quant::Exact);
        assert_eq!(ef.shipped_indices(), &[1]);
        assert_eq!(ef.shipped_values(), &[0.8]);
        assert_eq!(ef.residual()[3], 0.5);
    }

    #[test]
    fn dense_deltas_switch_to_dense_candidate_scan() {
        let dim = 6;
        let mut ef = EfState::new(dim);
        ef.compress(
            &GradDelta::Dense(vec![0.1, -0.9, 0.0, 0.4, 0.0, 0.2]),
            2,
            Quant::Exact,
        );
        assert_eq!(ef.shipped_indices(), &[1, 3]);
        ef.compress(&sparse(&[(2, 0.05)], dim), 2, Quant::Exact);
        // Residual 0.2 at index 5 still wins over the fresh 0.05.
        assert_eq!(ef.shipped_indices(), &[0, 5]);
    }

    #[test]
    fn wire_bytes_beat_exact_encoding() {
        let dim = 1000;
        let pairs: Vec<(u32, f64)> = (0..200).map(|i| (i, 1.0 + i as f64)).collect();
        let mut ef = EfState::new(dim);
        ef.compress(&sparse(&pairs, dim), 32, Quant::I8);
        // Tag + nnz/dim/scale header + index block + one code byte each.
        let index_block = crate::index_codec::encoded_len(ef.shipped_indices()) as u64;
        assert!(index_block <= 33, "top-32 of 200 adjacent candidates");
        assert_eq!(ef.wire_bytes(), 25 + index_block + 32);
        assert_eq!(ef.to_compressed().nnz(), 32);
        // >20x smaller than the exact sparse wire of the raw delta.
        let all: Vec<u32> = (0..200).collect();
        assert!(CompressedDelta::sparse_frame_len(Quant::Exact, &all) > 20 * ef.wire_bytes());
    }

    #[test]
    fn compressed_delta_dequantizes_to_shipped_values_bitwise() {
        let dim = 64;
        let pairs: Vec<(u32, f64)> = (0..40).map(|i| (i, (i as f64 - 20.0) / 7.0)).collect();
        for quant in [Quant::Exact, Quant::I8] {
            let mut ef = EfState::new(dim);
            ef.compress(&sparse(&pairs, dim), 10, quant);
            let g = ef
                .to_compressed()
                .into_delta_buffers(Vec::new(), Vec::new());
            match &g {
                GradDelta::Sparse(s) => {
                    assert_eq!(s.indices(), ef.shipped_indices());
                    assert_eq!(s.values(), ef.shipped_values(), "{quant:?}");
                }
                GradDelta::Dense(_) => panic!("compressed deltas are sparse"),
            }
        }
    }

    #[test]
    fn compress_is_allocation_stable_once_warm() {
        let dim = 128;
        let mut ef = EfState::new(dim);
        let a = sparse(
            &(0..60)
                .map(|i| (i * 2, i as f64 - 30.0))
                .collect::<Vec<_>>(),
            dim,
        );
        let b = sparse(
            &(0..50)
                .map(|i| (i * 2 + 1, 25.0 - i as f64))
                .collect::<Vec<_>>(),
            dim,
        );
        // Two full rounds warm the support/merge ping-pong pair (their
        // capacities alternate by swap parity until both cover the union).
        for _ in 0..2 {
            ef.compress(&a, 8, Quant::I8);
            ef.compress(&b, 8, Quant::I8);
        }
        let caps = (
            ef.support.capacity(),
            ef.merge_tmp.capacity(),
            ef.cand_idx.capacity(),
            ef.order.capacity(),
            ef.sel_idx.capacity(),
            ef.codes_i8.capacity(),
        );
        for _ in 0..20 {
            ef.compress(&a, 8, Quant::I8);
            ef.compress(&b, 8, Quant::I8);
        }
        let after = (
            ef.support.capacity(),
            ef.merge_tmp.capacity(),
            ef.cand_idx.capacity(),
            ef.order.capacity(),
            ef.sel_idx.capacity(),
            ef.codes_i8.capacity(),
        );
        assert_eq!(caps, after);
    }

    #[test]
    fn non_finite_scale_quantizes_to_zero_codes() {
        for scale in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0] {
            assert_eq!(quantize_i8(1.0, scale), 0, "scale={scale}");
            assert_eq!(quantize_i8(f64::NAN, scale), 0, "scale={scale}");
        }
    }

    #[test]
    fn try_compress_rejects_non_finite_with_position_and_no_mutation() {
        let mut ef = EfState::new(8).with_tracking();
        ef.try_compress(&sparse(&[(1, 1.0), (5, -3.0)], 8), 1, Quant::I8)
            .unwrap();
        let residual_before = ef.residual().to_vec();
        let shipped_before: Vec<u32> = ef.shipped_indices().to_vec();
        let (raw_before, sh_before) = {
            let (r, s) = ef.tracking().unwrap();
            (r.to_vec(), s.to_vec())
        };
        // Sparse frame with a NaN mid-support.
        let bad = sparse(&[(0, 2.0), (3, f64::NAN), (6, 1.0)], 8);
        let err = ef.try_compress(&bad, 1, Quant::I8).unwrap_err();
        assert_eq!(err.coordinate, 3);
        assert!(err.value.is_nan());
        assert!(err.to_string().contains("coordinate 3"), "{err}");
        // Dense frame with an inf names its index too.
        let mut d = vec![0.0; 8];
        d[5] = f64::INFINITY;
        let err = ef
            .try_compress(&GradDelta::Dense(d), 1, Quant::Exact)
            .unwrap_err();
        assert_eq!((err.coordinate, err.value), (5, f64::INFINITY));
        // Nothing moved: residual, last shipped message, tracking sums.
        assert_eq!(ef.residual(), residual_before.as_slice());
        assert_eq!(ef.shipped_indices(), shipped_before.as_slice());
        let (raw_after, sh_after) = ef.tracking().unwrap();
        assert_eq!(raw_after, raw_before.as_slice());
        assert_eq!(sh_after, sh_before.as_slice());
        assert!(
            !ef.dense,
            "a rejected dense frame must not flip the scan mode"
        );
    }

    #[test]
    fn telescoping_identity_stays_finite_across_rejected_frames() {
        // A hostile stream: every third frame carries a NaN or inf. The
        // caller's contract is to drop/ship-raw rejected frames; the
        // identity Σraw = Σshipped + residual over the *accepted* frames
        // must keep holding with entirely finite state.
        let mut ef = EfState::new(6).with_tracking();
        let mut rejected = 0;
        for step in 0..30 {
            let g = match step % 3 {
                0 => sparse(&[(0, 1.0 + step as f64), (4, -0.5)], 6),
                1 => sparse(&[(2, 0.25 * step as f64), (5, 3.0)], 6),
                _ => {
                    let v = if step % 2 == 0 {
                        f64::NAN
                    } else {
                        f64::INFINITY
                    };
                    sparse(&[(1, v)], 6)
                }
            };
            if ef.try_compress(&g, 1, Quant::I8).is_err() {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 10);
        let (raw, shipped) = ef.tracking().unwrap();
        for i in 0..6 {
            assert!(raw[i].is_finite() && shipped[i].is_finite());
            assert!(ef.residual()[i].is_finite());
            let drift = (raw[i] - shipped[i] - ef.residual()[i]).abs();
            assert!(drift < 1e-9, "coordinate {i} telescopes: drift {drift}");
        }
    }

    #[test]
    fn compress_panics_on_non_finite_frames() {
        let mut ef = EfState::new(4);
        let bad = sparse(&[(2, f64::NAN)], 4);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ef.compress(&bad, 1, Quant::Exact)
        }));
        assert!(res.is_err(), "panicking wrapper surfaces the poison");
    }

    #[test]
    fn select_top_k_is_total_under_nan_and_inf() {
        // `total_cmp` orders NaN above +inf, so hostile magnitudes are
        // picked deterministically and the comparator never violates the
        // strict-weak-ordering contract `select_nth_unstable_by` needs.
        let idx: Vec<u32> = (0..8).collect();
        let val = vec![
            1.0,
            f64::NAN,
            -2.0,
            f64::INFINITY,
            0.5,
            -f64::NAN,
            3.0,
            f64::NEG_INFINITY,
        ];
        let mut order = Vec::new();
        let (mut oi, mut ov) = (Vec::new(), Vec::new());
        select_top_k(&idx, &val, 4, &mut order, &mut oi, &mut ov);
        // NaNs (|·| = NaN sorts greatest) then the infinities.
        assert_eq!(oi, vec![1, 3, 5, 7]);
        assert_eq!(ov.len(), 4);
    }
}

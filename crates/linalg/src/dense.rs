//! Level-1 dense kernels: `f64` arithmetic over `f32` or `f64` slices.
//!
//! These are the hot inner loops of every optimization step. They iterate
//! equal-length slices in `chunks_exact` blocks or zipped, after an explicit
//! length assert, so LLVM vectorizes them without bounds checks.
//!
//! The row kernels ([`dot`], [`dot2`], [`axpy`], [`norm2_sq`]) read their row
//! operand as any [`Element`]: `f32` feature rows and `f64` model vectors go
//! through one body. Widening `f32` to `f64` is exact, so on `f32` data a
//! kernel performs the `f64` operations, in the order, of its `f64`
//! instantiation on the widened copy — bit for bit, the contract
//! `f32_storage_is_the_f64_kernel_on_widened_values` proptests.
//!
//! **Vector width.** On x86-64 each row kernel's body is compiled twice —
//! for the baseline (SSE2, two `f64` lanes) and as `dot_avx2`, `dot2_avx2`
//! and `axpy_avx2` with AVX2 (four lanes) — and the public kernel runs the
//! wide one when `is_x86_feature_detected!("avx2")`; other targets compile
//! the body only. The lane contract makes the two bit-identical
//! (`avx2_instantiation_is_the_baseline_bit_for_bit`): the four
//! accumulators of [`dot`] and [`dot2`] are the four lanes, [`axpy`] is
//! elementwise, and Rust neither contracts `a * b + c` nor reassociates.
//! Hence `avx2` only: FMA rounds once where the body rounds twice, and
//! AVX-512's eight lanes would be eight accumulators — a different sum.

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// A value a kernel reads: `f32` in feature matrices, `f64` in models,
/// deltas and every other vector. Arithmetic is always `f64`.
pub trait Element: sealed::Sealed + Copy {
    /// The value as `f64` — exact for both implementations.
    fn widen(self) -> f64;
}

impl Element for f32 {
    #[inline(always)]
    fn widen(self) -> f64 {
        f64::from(self)
    }
}

impl Element for f64 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self
    }
}

/// `(s₀ + s₁) + (s₂ + s₃)`, the lane reduction of [`dot`] and [`dot2`].
///
/// Out of line on purpose. To pass them, a caller stores its four
/// accumulators as one consecutive group, and a store group is where LLVM's
/// SLP vectorizer seeds its lanes: pairs (0, 1) and (2, 3), which match
/// the contiguous loads, so a block is two widening loads, two multiplies
/// and two adds. Inlined, the reduction tree seeds pairs (0, 2) and (1, 3)
/// instead and every load is shuffled into place, which on `f32` rows cost
/// more than the halved row bytes saved. In the AVX2 instantiations the
/// group is one four-lane register — a block is one load (widening on
/// `f32` rows), one multiply and one add per accumulator set — and this
/// baseline function reduces it after the call. The sum itself is unchanged.
#[inline(never)]
fn sum4(acc: &[f64; 4]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Dot product `xᵀy`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot<X: Element, Y: Element>(x: &[X], y: &[Y]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `dot_avx2` needs AVX2, which the line above detected.
        return unsafe { dot_avx2(x, y) };
    }
    dot_body(x, y)
}

/// [`dot`]'s body compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_avx2<X: Element, Y: Element>(x: &[X], y: &[Y]) -> f64 {
    dot_body(x, y)
}

#[inline(always)]
fn dot_body<X: Element, Y: Element>(x: &[X], y: &[Y]) -> f64 {
    // Four-way unrolled accumulation: breaks the sequential FP dependency
    // chain, which matters for long vectors (d up to ~47k in rcv1-like data).
    let (mut acc0, mut acc1, mut acc2, mut acc3) = (0.0, 0.0, 0.0, 0.0);
    let (xc, yc) = (x.chunks_exact(4), y.chunks_exact(4));
    let (x_tail, y_tail) = (xc.remainder(), yc.remainder());
    for (xb, yb) in xc.zip(yc) {
        acc0 += xb[0].widen() * yb[0].widen();
        acc1 += xb[1].widen() * yb[1].widen();
        acc2 += xb[2].widen() * yb[2].widen();
        acc3 += xb[3].widen() * yb[3].widen();
    }
    let mut rest = 0.0;
    for (xi, yi) in x_tail.iter().zip(y_tail) {
        rest += xi.widen() * yi.widen();
    }
    sum4(&[acc0, acc1, acc2, acc3]) + rest
}

/// `(xᵀa, xᵀb)` in one pass over `x`, each bit-identical to [`dot`] (its
/// accumulators, tail and summation order): a row read from memory once
/// serves both margins and, still in L1, the caller's [`axpy`].
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot2<T: Element>(x: &[T], a: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), a.len(), "dot2: length mismatch");
    assert_eq!(x.len(), b.len(), "dot2: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `dot2_avx2` needs AVX2, which the line above detected.
        return unsafe { dot2_avx2(x, a, b) };
    }
    dot2_body(x, a, b)
}

/// [`dot2`]'s body compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot2_avx2<T: Element>(x: &[T], a: &[f64], b: &[f64]) -> (f64, f64) {
    dot2_body(x, a, b)
}

#[inline(always)]
fn dot2_body<T: Element>(x: &[T], a: &[f64], b: &[f64]) -> (f64, f64) {
    let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
    let (mut b0, mut b1, mut b2, mut b3) = (0.0, 0.0, 0.0, 0.0);
    let (xc, ac, bc) = (x.chunks_exact(4), a.chunks_exact(4), b.chunks_exact(4));
    let tail = (xc.remainder(), ac.remainder(), bc.remainder());
    for ((xk, ak), bk) in xc.zip(ac).zip(bc) {
        let (x0, x1, x2, x3) = (xk[0].widen(), xk[1].widen(), xk[2].widen(), xk[3].widen());
        a0 += x0 * ak[0];
        a1 += x1 * ak[1];
        a2 += x2 * ak[2];
        a3 += x3 * ak[3];
        b0 += x0 * bk[0];
        b1 += x1 * bk[1];
        b2 += x2 * bk[2];
        b3 += x3 * bk[3];
    }
    let (mut rest_a, mut rest_b) = (0.0, 0.0);
    for ((xi, ai), bi) in tail.0.iter().zip(tail.1).zip(tail.2) {
        rest_a += xi.widen() * ai;
        rest_b += xi.widen() * bi;
    }
    let (ma, mb) = (sum4(&[a0, a1, a2, a3]), sum4(&[b0, b1, b2, b3]));
    (ma + rest_a, mb + rest_b)
}

/// `y += a * x` (BLAS `axpy`).
///
/// A plain zipped loop: no bounds checks, and on `f32` rows it vectorizes
/// to one widening load per pair of lanes, where width-4 blocking made LLVM
/// shuffle the widened lanes back into place. Each entry is one independent
/// `y + a·x`, so any blocking gives the same bits.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy<T: Element>(a: f64, x: &[T], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `axpy_avx2` needs AVX2, which the line above detected.
        return unsafe { axpy_avx2(a, x, y) };
    }
    axpy_body(a, x, y)
}

/// [`axpy`]'s body compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn axpy_avx2<T: Element>(a: f64, x: &[T], y: &mut [f64]) {
    axpy_body(a, x, y)
}

#[inline(always)]
fn axpy_body<T: Element>(a: f64, x: &[T], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi.widen();
    }
}

/// `x *= a` (BLAS `scal`), processed in width-4 `chunks_exact` blocks so
/// release builds see constant-trip inner loops with no tail bounds checks;
/// elementwise, so bit-identical to the naive loop.
#[inline]
pub fn scal(a: f64, x: &mut [f64]) {
    let mut xc = x.chunks_exact_mut(4);
    for xb in &mut xc {
        xb[0] *= a;
        xb[1] *= a;
        xb[2] *= a;
        xb[3] *= a;
    }
    for xi in xc.into_remainder() {
        *xi *= a;
    }
}

/// Elementwise `y = x` copy.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "copy: length mismatch");
    y.copy_from_slice(x);
}

/// `y += x`, blocked like [`scal`].
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    assert_eq!(x.len(), y.len(), "add_assign: length mismatch");
    let mut yc = y.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (yb, xb) in (&mut yc).zip(&mut xc) {
        yb[0] += xb[0];
        yb[1] += xb[1];
        yb[2] += xb[2];
        yb[3] += xb[3];
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += *xi;
    }
}

/// `y -= x`, blocked like [`scal`].
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn sub_assign(y: &mut [f64], x: &[f64]) {
    assert_eq!(x.len(), y.len(), "sub_assign: length mismatch");
    let mut yc = y.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (yb, xb) in (&mut yc).zip(&mut xc) {
        yb[0] -= xb[0];
        yb[1] -= xb[1];
        yb[2] -= xb[2];
        yb[3] -= xb[3];
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi -= *xi;
    }
}

/// Squared Euclidean norm `‖x‖²`.
#[inline]
pub fn norm2_sq<T: Element>(x: &[T]) -> f64 {
    dot(x, x)
}

/// Squared Euclidean distance `‖x − y‖²`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dist2_sq(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist2_sq: length mismatch");
    let mut acc = 0.0;
    for (xi, yi) in x.iter().zip(y.iter()) {
        let d = *xi - *yi;
        acc += d * d;
    }
    acc
}

/// Fill `x` with zeros.
#[inline]
pub fn zero(x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi = 0.0;
    }
}

/// `out = a*x + b*y`, overwriting `out`; blocked like [`scal`].
///
/// # Panics
/// Panics if any slice length differs.
#[inline]
pub fn lincomb(a: f64, x: &[f64], b: f64, y: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "lincomb: length mismatch");
    assert_eq!(x.len(), out.len(), "lincomb: output length mismatch");
    let mut oc = out.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact(4);
    for ((ob, xb), yb) in (&mut oc).zip(&mut xc).zip(&mut yc) {
        ob[0] = a * xb[0] + b * yb[0];
        ob[1] = a * xb[1] + b * yb[1];
        ob[2] = a * xb[2] + b * yb[2];
        ob[3] = a * xb[3] + b * yb[3];
    }
    for ((oi, xi), yi) in oc
        .into_remainder()
        .iter_mut()
        .zip(xc.remainder())
        .zip(yc.remainder())
    {
        *oi = a * *xi + b * *yi;
    }
}

/// Arithmetic mean of the entries; 0 for the empty slice.
#[inline]
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..17).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..17).map(|i| (i * 2) as f64).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-12);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot::<f64, f64>(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot::<f64, f64>(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn scal_scales() {
        let mut x = [1.0, -2.0, 4.0];
        scal(-0.5, &mut x);
        assert_eq!(x, [-0.5, 1.0, -2.0]);
    }

    #[test]
    fn norms_agree() {
        let x = [3.0, 4.0];
        assert!((norm2_sq(&x).sqrt() - 5.0).abs() < 1e-15);
        assert!((norm2_sq(&x) - 25.0).abs() < 1e-15);
    }

    #[test]
    fn dist2_sq_is_norm_of_difference() {
        let x = [1.0, 2.0, 3.0];
        let y = [0.0, 0.0, 0.0];
        assert!((dist2_sq(&x, &y) - 14.0).abs() < 1e-15);
    }

    #[test]
    fn lincomb_combines() {
        let x = [1.0, 0.0];
        let y = [0.0, 1.0];
        let mut out = [0.0; 2];
        lincomb(2.0, &x, 3.0, &y, &mut out);
        assert_eq!(out, [2.0, 3.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = [1.5, -2.5, 0.5];
        let mut y = [1.0, 1.0, 1.0];
        add_assign(&mut y, &x);
        sub_assign(&mut y, &x);
        assert_eq!(y, [1.0, 1.0, 1.0]);
    }

    #[test]
    fn blocked_kernels_match_naive_on_all_tail_lengths() {
        // chunks_exact blocking must be bit-identical to the scalar loop
        // for every remainder length 0..4.
        for n in 0..13usize {
            let x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.3 - 1.0).collect();
            let y0: Vec<f64> = (0..n).map(|i| 2.0 - (i as f64) * 0.7).collect();
            let a = -1.75;
            let mut got = y0.clone();
            axpy(a, &x, &mut got);
            let want: Vec<f64> = y0.iter().zip(&x).map(|(yi, xi)| yi + a * xi).collect();
            assert_eq!(got, want, "axpy n={n}");

            let mut got = x.clone();
            scal(a, &mut got);
            let want: Vec<f64> = x.iter().map(|xi| xi * a).collect();
            assert_eq!(got, want, "scal n={n}");

            let mut got = y0.clone();
            add_assign(&mut got, &x);
            let want: Vec<f64> = y0.iter().zip(&x).map(|(yi, xi)| yi + xi).collect();
            assert_eq!(got, want, "add_assign n={n}");

            let mut got = y0.clone();
            sub_assign(&mut got, &x);
            let want: Vec<f64> = y0.iter().zip(&x).map(|(yi, xi)| yi - xi).collect();
            assert_eq!(got, want, "sub_assign n={n}");

            let mut got = vec![0.0; n];
            lincomb(a, &x, 0.5, &y0, &mut got);
            let want: Vec<f64> = x
                .iter()
                .zip(&y0)
                .map(|(xi, yi)| a * xi + 0.5 * yi)
                .collect();
            assert_eq!(got, want, "lincomb n={n}");
        }
    }

    /// The row kernels on row `x` through each instantiation, as bits —
    /// `[AVX2, baseline]`: `dot` against `a`, `dot2` against `a` and `b`,
    /// `norm2_sq`, and `a + c·x`.
    #[cfg(target_arch = "x86_64")]
    fn avx2_and_baseline<T: Element>(x: &[T], a: &[f64], b: &[f64], c: f64) -> [Vec<u64>; 2] {
        let (mut y_wide, mut y_base) = (a.to_vec(), a.to_vec());
        assert!(is_x86_feature_detected!("avx2"));
        // SAFETY: the line above asserted AVX2, which all three need.
        let wide = unsafe {
            axpy_avx2(c, x, &mut y_wide);
            (dot_avx2(x, a), dot2_avx2(x, a, b), dot_avx2(x, x))
        };
        axpy_body(c, x, &mut y_base);
        let base = (dot_body(x, a), dot2_body(x, a, b), dot_body(x, x));
        let bits = |(d, (m, n), sq): (f64, (f64, f64), f64), y: &[f64]| -> Vec<u64> {
            [d, m, n, sq].iter().chain(y).map(|v| v.to_bits()).collect()
        };
        [bits(wide, &y_wide), bits(base, &y_base)]
    }

    /// The lane contract (module docs): each row kernel's AVX2 instantiation
    /// returns its baseline's bits. `f64` rows and their `f32` narrowing,
    /// lengths 0..=67 (the four-wide blocks and every tail), with signed
    /// zeros, both types' subnormals, `±f32::MAX` and mixed magnitudes. On a
    /// CPU without AVX2 there is nothing to compare, and the test says so.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_instantiation_is_the_baseline_bit_for_bit() {
        use proptest::prelude::*;
        if !is_x86_feature_detected!("avx2") {
            eprintln!(
                "avx2_instantiation_is_the_baseline_bit_for_bit: SKIPPED, no AVX2 on this CPU"
            );
            return;
        }
        let value = || {
            prop_oneof![
                4 => -100.0..100.0f64,
                1 => Just(-0.0),
                1 => Just(0.0),
                1 => -1.2e-38..1.2e-38f64,
                1 => -1e-310..1e-310f64,
                1 => Just(f64::from(f32::MAX)),
                1 => Just(f64::from(-f32::MAX)),
                1 => 1e290..1e300f64,
                1 => -1e6..1e6f64,
            ]
        };
        for n in 0..=67usize {
            let strat = (
                proptest::collection::vec(value(), n),
                proptest::collection::vec(value(), n),
                proptest::collection::vec(value(), n),
                -5.0..5.0f64,
            );
            proptest!(|((x, a, b, c) in strat)| {
                let narrow: Vec<f32> = x.iter().map(|&v| v as f32).collect();
                let [wide, base] = avx2_and_baseline(&x, &a, &b, c);
                prop_assert!(wide == base, "f64 row, n={}: {:?} != {:?}", n, wide, base);
                let [wide, base] = avx2_and_baseline(&narrow, &a, &b, c);
                prop_assert!(wide == base, "f32 row, n={}: {:?} != {:?}", n, wide, base);
            });
        }
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-15);
    }
}

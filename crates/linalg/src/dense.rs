//! Level-1 dense kernels: `f64` arithmetic over `f32` or `f64` slices.
//!
//! These are the hot inner loops of every optimization step. They iterate
//! equal-length slices in `chunks_exact` blocks or zipped, after an explicit
//! length assert, so LLVM vectorizes them without bounds checks.
//!
//! The row kernels ([`dot`], [`dot4`], [`axpy`], [`axpy4`], [`norm2_sq`])
//! read their row operand as any [`Element`]: `f32` feature rows and `f64`
//! model vectors go through one body. Widening `f32` to `f64` is exact, so
//! on `f32` data a kernel performs the `f64` operations, in the order, of
//! its `f64` instantiation on the widened copy — bit for bit, the contract
//! `f32_storage_is_the_f64_kernel_on_widened_values` proptests.
//!
//! **Four rows per pass.** [`dot4`] and [`axpy4`] serve the dense row
//! loops (`DenseMatrix::{rows_dot_into, rows_axpy}`) four rows at a time.
//! Lane `k` of [`dot4`] is [`dot`] on row `k`, and [`axpy4`] adds its terms
//! to each `yⱼ` in row order as four [`axpy`]s would — the one-row kernels'
//! bits (`dot4_and_axpy4_are_four_dots_and_axpys_bit_for_bit`), from four
//! independent chains and one pass over `y` per quad.
//!
//! **Vector width.** On x86-64 each row kernel's body is compiled twice —
//! for the baseline (SSE2, two `f64` lanes) and as `dot_avx2`, `dot4_avx2`,
//! `axpy_avx2` and `axpy4_avx2` with AVX2 (four lanes) — and the public
//! kernel runs the wide one when `is_x86_feature_detected!("avx2")`; other
//! targets compile the body only. The lane contract makes the two
//! bit-identical (`avx2_instantiation_is_the_baseline_bit_for_bit`): the
//! four accumulators of a row in [`dot`] and [`dot4`] are the four lanes,
//! [`axpy`] and [`axpy4`] are elementwise, and Rust neither contracts
//! `a * b + c` nor reassociates. Hence `avx2` only: FMA rounds once where
//! the body rounds twice, and AVX-512's eight lanes would be eight
//! accumulators — a different sum.

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

/// `(s₀ + s₁) + (s₂ + s₃)`, the lane reduction of [`dot`] and [`dot4`].
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
    let mut acc = (0.0, 0.0, 0.0, 0.0);
    let (xc, yc) = (x.chunks_exact(4), y.chunks_exact(4));
    let (x_tail, y_tail) = (xc.remainder(), yc.remainder());
    for (xb, yb) in xc.zip(yc) {
        acc = block(acc, xb, yb);
    }
    finish(acc, x_tail, y_tail)
}

/// Four dot products in one pass: lane `k` is `x[k]ᵀy[k]`, bit-identical to
/// [`dot`] (its accumulators, tail and `sum4` order), from four
/// independent chains. Rows and `y`s may alias each other.
///
/// # Panics
/// Panics if the eight slices do not share one length.
#[inline]
pub fn dot4<T: Element>(x: [&[T]; 4], y: [&[f64]; 4]) -> [f64; 4] {
    let n = x[0].len();
    let same = x.iter().all(|r| r.len() == n) && y.iter().all(|r| r.len() == n);
    assert!(same, "dot4: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `dot4_avx2` needs AVX2, which the line above detected.
        return unsafe { dot4_avx2(x, y) };
    }
    dot4_body(x, y)
}

/// [`dot4`]'s body compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot4_avx2<T: Element>(x: [&[T]; 4], y: [&[f64]; 4]) -> [f64; 4] {
    dot4_body(x, y)
}

#[inline(always)]
fn dot4_body<T: Element>(x: [&[T]; 4], y: [&[f64]; 4]) -> [f64; 4] {
    // One group of four accumulators per row, as in `dot_body`: LLVM
    // vectorises each group into one register. Held in arrays, they came
    // out as scalar chains beside two-lane pairs.
    let zero = (0.0, 0.0, 0.0, 0.0);
    let (mut a, mut b, mut c, mut d) = (zero, zero, zero, zero);
    let (xc, yc) = (x.map(|r| r.chunks_exact(4)), y.map(|r| r.chunks_exact(4)));
    let xt = xc.clone().map(|c| c.remainder());
    let yt = yc.clone().map(|c| c.remainder());
    let [x0, x1, x2, x3] = xc;
    let [y0, y1, y2, y3] = yc;
    let blocks = x0.zip(y0).zip(x1.zip(y1)).zip(x2.zip(y2)).zip(x3.zip(y3));
    for ((((xa, ya), (xb, yb)), (xc, yc)), (xd, yd)) in blocks {
        (a, b, c, d) = (
            block(a, xa, ya),
            block(b, xb, yb),
            block(c, xc, yc),
            block(d, xd, yd),
        );
    }
    let [ta, tb, tc, td] = xt;
    [
        finish(a, ta, yt[0]),
        finish(b, tb, yt[1]),
        finish(c, tc, yt[2]),
        finish(d, td, yt[3]),
    ]
}

/// One four-wide block of one row: each accumulator adds its lane's product.
#[inline(always)]
fn block<X: Element, Y: Element>(s: Acc4, x: &[X], y: &[Y]) -> Acc4 {
    let p = |k: usize| x[k].widen() * y[k].widen();
    (s.0 + p(0), s.1 + p(1), s.2 + p(2), s.3 + p(3))
}

/// A row's four accumulators, one per lane.
type Acc4 = (f64, f64, f64, f64);

/// A row's ending in [`dot`] and [`dot4`]: the tail summed in order, then
/// `sum4(acc) + tail`.
#[inline(always)]
fn finish<X: Element, Y: Element>(acc: Acc4, x_tail: &[X], y_tail: &[Y]) -> f64 {
    let mut rest = 0.0;
    for (xi, yi) in x_tail.iter().zip(y_tail) {
        rest += xi.widen() * yi.widen();
    }
    sum4(&[acc.0, acc.1, acc.2, acc.3]) + rest
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

/// `yⱼ = (((yⱼ + a₀x₀ⱼ) + a₁x₁ⱼ) + a₂x₂ⱼ) + a₃x₃ⱼ`: per coordinate the
/// operations of four [`axpy`]s in row order, so their bits, with one pass
/// over `y`. Rows may alias each other.
///
/// # Panics
/// Panics if the five slices do not share one length.
#[inline]
pub fn axpy4<T: Element>(a: [f64; 4], x: [&[T]; 4], y: &mut [f64]) {
    let same = x.iter().all(|r| r.len() == y.len());
    assert!(same, "axpy4: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `axpy4_avx2` needs AVX2, which the line above detected.
        return unsafe { axpy4_avx2(a, x, y) };
    }
    axpy4_body(a, x, y)
}

/// [`axpy4`]'s body compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn axpy4_avx2<T: Element>(a: [f64; 4], x: [&[T]; 4], y: &mut [f64]) {
    axpy4_body(a, x, y)
}

#[inline(always)]
fn axpy4_body<T: Element>(a: [f64; 4], x: [&[T]; 4], y: &mut [f64]) {
    let [x0, x1, x2, x3] = x;
    for ((((yj, p), q), r), t) in y.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
        *yj = (((*yj + a[0] * p.widen()) + a[1] * q.widen()) + a[2] * r.widen()) + a[3] * t.widen();
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

/// Squared Euclidean norm `‖x‖²`.
#[inline]
pub fn norm2_sq<T: Element>(x: &[T]) -> f64 {
    dot(x, x)
}

/// Fill `x` with zeros.
#[inline]
pub fn zero(x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi = 0.0;
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
        }
    }

    /// The row kernels through each instantiation, as bits — `[AVX2,
    /// baseline]`: `dot` of `x[0]` against `a`, `norm2_sq` of `x[0]`,
    /// `a + c₀·x[0]`, `dot4` of `x` against `[a, b, a, b]` and
    /// `a + Σₖ cₖ·x[k]` through `axpy4`.
    #[cfg(target_arch = "x86_64")]
    fn avx2_and_baseline<T: Element>(
        x: [&[T]; 4],
        a: &[f64],
        b: &[f64],
        c: [f64; 4],
    ) -> [Vec<u64>; 2] {
        let ys = [a, b, a, b];
        let (mut y_wide, mut y_base) = (a.to_vec(), a.to_vec());
        let (mut y4_wide, mut y4_base) = (a.to_vec(), a.to_vec());
        assert!(is_x86_feature_detected!("avx2"));
        // SAFETY: the line above asserted AVX2, which all four need.
        let wide = unsafe {
            axpy_avx2(c[0], x[0], &mut y_wide);
            axpy4_avx2(c, x, &mut y4_wide);
            let [d0, d1, d2, d3] = dot4_avx2(x, ys);
            [dot_avx2(x[0], a), dot_avx2(x[0], x[0]), d0, d1, d2, d3]
        };
        axpy_body(c[0], x[0], &mut y_base);
        axpy4_body(c, x, &mut y4_base);
        let [d0, d1, d2, d3] = dot4_body(x, ys);
        let base = [dot_body(x[0], a), dot_body(x[0], x[0]), d0, d1, d2, d3];
        let bits = |d: [f64; 6], y: &[f64], y4: &[f64]| -> Vec<u64> {
            d.iter().chain(y).chain(y4).map(|v| v.to_bits()).collect()
        };
        [bits(wide, &y_wide, &y4_wide), bits(base, &y_base, &y4_base)]
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
                proptest::collection::vec(proptest::collection::vec(value(), n), 4),
                proptest::collection::vec(value(), n),
                proptest::collection::vec(value(), n),
                proptest::collection::vec(-5.0..5.0f64, 4),
            );
            proptest!(|((x, a, b, c) in strat)| {
                let c = [c[0], c[1], c[2], c[3]];
                let x: [&[f64]; 4] = [&x[0], &x[1], &x[2], &x[3]];
                let narrow: Vec<Vec<f32>> =
                    x.iter().map(|r| r.iter().map(|&v| v as f32).collect()).collect();
                let [wide, base] = avx2_and_baseline(x, &a, &b, c);
                prop_assert!(wide == base, "f64 rows, n={}: {:?} != {:?}", n, wide, base);
                let narrow = [&narrow[0][..], &narrow[1], &narrow[2], &narrow[3]];
                let [wide, base] = avx2_and_baseline(narrow, &a, &b, c);
                prop_assert!(wide == base, "f32 rows, n={}: {:?} != {:?}", n, wide, base);
            });
        }
    }
}

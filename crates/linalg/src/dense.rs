//! Level-1 dense kernels over `&[f64]` slices.
//!
//! These are the hot inner loops of every optimization step. They are written
//! as plain indexed loops over equal-length slices so LLVM can vectorize them;
//! debug builds keep the bounds checks, release builds elide them after the
//! explicit length asserts.

/// Dot product `xᵀy`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    // Four-way unrolled accumulation: breaks the sequential FP dependency
    // chain, which matters for long vectors (d up to ~47k in rcv1-like data).
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let b = i * 4;
        acc0 += x[b] * y[b];
        acc1 += x[b + 1] * y[b + 1];
        acc2 += x[b + 2] * y[b + 2];
        acc3 += x[b + 3] * y[b + 3];
    }
    let mut tail = chunks * 4;
    let mut rest = 0.0;
    while tail < x.len() {
        rest += x[tail] * y[tail];
        tail += 1;
    }
    (acc0 + acc1) + (acc2 + acc3) + rest
}

/// `(xᵀa, xᵀb)` in one pass over `x`, each bit-identical to [`dot`] (its
/// accumulators, tail and summation order): a row read from memory once
/// serves both margins and, still in L1, the caller's [`axpy`].
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot2(x: &[f64], a: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), a.len(), "dot2: length mismatch");
    assert_eq!(x.len(), b.len(), "dot2: length mismatch");
    let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
    let (mut b0, mut b1, mut b2, mut b3) = (0.0, 0.0, 0.0, 0.0);
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let k = i * 4;
        a0 += x[k] * a[k];
        a1 += x[k + 1] * a[k + 1];
        a2 += x[k + 2] * a[k + 2];
        a3 += x[k + 3] * a[k + 3];
        b0 += x[k] * b[k];
        b1 += x[k + 1] * b[k + 1];
        b2 += x[k + 2] * b[k + 2];
        b3 += x[k + 3] * b[k + 3];
    }
    let (mut rest_a, mut rest_b) = (0.0, 0.0);
    for k in chunks * 4..x.len() {
        rest_a += x[k] * a[k];
        rest_b += x[k] * b[k];
    }
    let (ma, mb) = ((a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3));
    (ma + rest_a, mb + rest_b)
}

/// `y += a * x` (BLAS `axpy`).
///
/// Processed in width-4 `chunks_exact` blocks so release builds see
/// constant-trip inner loops with no tail bounds checks; the scalar
/// remainder handles the last `len % 4` entries. Elementwise order is
/// unchanged, so results are bit-identical to the naive loop.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    let mut yc = y.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (yb, xb) in (&mut yc).zip(&mut xc) {
        yb[0] += a * xb[0];
        yb[1] += a * xb[1];
        yb[2] += a * xb[2];
        yb[3] += a * xb[3];
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += a * *xi;
    }
}

/// `x *= a` (BLAS `scal`), blocked like [`axpy`].
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

/// `y += x`, blocked like [`axpy`].
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

/// `y -= x`, blocked like [`axpy`].
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
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Euclidean norm `‖x‖`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    norm2_sq(x).sqrt()
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

/// `out = a*x + b*y`, overwriting `out`; blocked like [`axpy`].
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
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
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
        assert!((norm2(&x) - 5.0).abs() < 1e-15);
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

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-15);
    }
}

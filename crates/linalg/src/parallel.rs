//! Chunked multi-threaded kernels on crossbeam scoped threads.
//!
//! The driver-side work in the reproduction (objective evaluation over the
//! full dataset, baseline solves) is embarrassingly parallel over row
//! chunks. Rather than pulling in a full work-stealing runtime we split the
//! index space into one contiguous chunk per thread — the kernels are
//! memory-bandwidth-bound, so static partitioning is the right tool.

use crate::matrix::Matrix;

/// How many threads driver-side parallel kernels may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelismCfg {
    threads: usize,
}

impl ParallelismCfg {
    /// Use exactly `threads` threads (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Use all available hardware parallelism.
    pub fn auto() -> Self {
        let t = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self { threads: t }
    }

    /// Sequential execution (one thread).
    pub const fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// Configured thread count.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for ParallelismCfg {
    fn default() -> Self {
        Self::auto()
    }
}

/// Splits `0..len` into `parts` contiguous, nearly equal ranges (the first
/// `len % parts` ranges get one extra element). Empty ranges are omitted.
pub fn split_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts.min(len));
    let mut start = 0;
    for i in 0..parts {
        let sz = base + usize::from(i < extra);
        if sz == 0 {
            continue;
        }
        out.push(start..start + sz);
        start += sz;
    }
    out
}

/// Maps each range of `0..len` to a partial result on its own thread, then
/// folds the partials with `reduce`. Returns `init` when `len == 0`.
pub fn par_map_reduce<T, M, R>(cfg: ParallelismCfg, len: usize, init: T, map: M, reduce: R) -> T
where
    T: Send,
    M: Fn(std::ops::Range<usize>) -> T + Sync,
    R: Fn(T, T) -> T,
{
    let ranges = split_ranges(len, cfg.threads());
    if ranges.is_empty() {
        return init;
    }
    if ranges.len() == 1 {
        return reduce(init, map(ranges.into_iter().next().expect("one range")));
    }
    let partials: Vec<T> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = ranges.into_iter().map(|r| s.spawn(|_| map(r))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel kernel panicked"))
            .collect()
    })
    .expect("crossbeam scope failed");
    partials.into_iter().fold(init, reduce)
}

/// Parallel `‖A·w − y‖²` — the least-squares residual used for objective
/// evaluation. `y.len()` must equal `A.nrows()` and `w.len()` `A.ncols()`.
pub fn par_residual_sq(cfg: ParallelismCfg, a: &Matrix, w: &[f64], y: &[f64]) -> f64 {
    assert_eq!(y.len(), a.nrows(), "par_residual_sq: y dim mismatch");
    assert_eq!(w.len(), a.ncols(), "par_residual_sq: w dim mismatch");
    par_map_reduce(
        cfg,
        a.nrows(),
        0.0,
        |r| {
            let mut acc = 0.0;
            for i in r {
                let e = a.row_dot(i, w) - y[i];
                acc += e * e;
            }
            acc
        },
        |x, y| x + y,
    )
}

/// Parallel `out = A·w`. `out.len()` must equal `A.nrows()`.
pub fn par_matvec(cfg: ParallelismCfg, a: &Matrix, w: &[f64], out: &mut [f64]) {
    assert_eq!(out.len(), a.nrows(), "par_matvec: out dim mismatch");
    assert_eq!(w.len(), a.ncols(), "par_matvec: w dim mismatch");
    let ranges = split_ranges(a.nrows(), cfg.threads());
    if ranges.len() <= 1 {
        a.matvec(w, out);
        return;
    }
    // Split the output buffer to match the row ranges so each thread writes
    // its own disjoint chunk.
    crossbeam::thread::scope(|s| {
        let mut rest = out;
        for r in ranges {
            let (chunk, tail) = rest.split_at_mut(r.len());
            rest = tail;
            s.spawn(move |_| {
                for (k, i) in r.enumerate() {
                    chunk[k] = a.row_dot(i, w);
                }
            });
        }
    })
    .expect("crossbeam scope failed");
}

/// Process-wide pool of per-thread partial buffers for [`par_matvec_t`].
/// The transpose kernel needs one `ncols`-sized accumulator per thread per
/// call; recycling them here means driver-side objective evaluation stops
/// allocating O(threads·d) on every eval once the pool is warm (buffers
/// only grow, never shrink).
static PARTIAL_POOL: std::sync::Mutex<Vec<Vec<f64>>> = std::sync::Mutex::new(Vec::new());

/// Checks a zeroed `dim`-length partial out of the pool (warm when one was
/// returned before; its capacity is reused).
fn checkout_partial(dim: usize) -> Vec<f64> {
    let mut buf = PARTIAL_POOL
        .lock()
        .expect("partial pool poisoned")
        .pop()
        .unwrap_or_default();
    buf.clear();
    buf.resize(dim, 0.0);
    buf
}

fn give_back_partial(buf: Vec<f64>) {
    PARTIAL_POOL
        .lock()
        .expect("partial pool poisoned")
        .push(buf);
}

/// Parallel `out = Aᵀ·v` (overwrites `out`). Each thread accumulates into a
/// private buffer drawn from a process-wide pool (no O(threads·d)
/// allocation once warm); buffers are summed into `out` in range order,
/// which is the exact operation order of the historical fold — for a
/// given thread count, results are bit-identical to the old
/// implementation regardless of pool warmth. (Changing the thread count
/// regroups the f64 partial sums and so changes the bits, exactly as it
/// always has.) `v.len()` must equal `A.nrows()` and `out.len()`
/// `A.ncols()`.
pub fn par_matvec_t(cfg: ParallelismCfg, a: &Matrix, v: &[f64], out: &mut [f64]) {
    assert_eq!(v.len(), a.nrows(), "par_matvec_t: v dim mismatch");
    assert_eq!(out.len(), a.ncols(), "par_matvec_t: out dim mismatch");
    let ranges = split_ranges(a.nrows(), cfg.threads());
    let mut partials: Vec<Vec<f64>> = ranges.iter().map(|_| checkout_partial(a.ncols())).collect();
    if ranges.len() > 1 {
        crossbeam::thread::scope(|s| {
            for (r, buf) in ranges.iter().zip(partials.iter_mut()) {
                let r = r.clone();
                s.spawn(move |_| {
                    for i in r {
                        a.row_axpy(i, v[i], buf);
                    }
                });
            }
        })
        .expect("crossbeam scope failed");
    } else if let (Some(r), Some(buf)) = (ranges.first(), partials.first_mut()) {
        for i in r.clone() {
            a.row_axpy(i, v[i], buf);
        }
    }
    // Zero-init plus in-order adds: the same f64 sequence as folding the
    // partials into a fresh accumulator, so values are unchanged.
    crate::dense::zero(out);
    for buf in partials {
        crate::dense::add_assign(out, &buf);
        give_back_partial(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;

    fn mat() -> Matrix {
        Matrix::Sparse(
            CsrMatrix::from_triplets(
                &(0..40)
                    .map(|i| (i, (i % 7) as u32, (i as f64) * 0.5 + 1.0))
                    .collect::<Vec<_>>(),
                40,
                7,
            )
            .unwrap(),
        )
    }

    #[test]
    fn split_ranges_covers_everything() {
        for len in [0usize, 1, 5, 16, 17] {
            for parts in [1usize, 2, 3, 8, 100] {
                let rs = split_ranges(len, parts);
                let total: usize = rs.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len={len} parts={parts}");
                // Contiguity.
                let mut expect = 0;
                for r in &rs {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
            }
        }
    }

    #[test]
    fn par_map_reduce_sums() {
        let cfg = ParallelismCfg::with_threads(4);
        let s = par_map_reduce(cfg, 1000, 0u64, |r| r.map(|i| i as u64).sum(), |a, b| a + b);
        assert_eq!(s, 499_500);
    }

    #[test]
    fn par_matvec_matches_serial() {
        let a = mat();
        let w: Vec<f64> = (0..7).map(|i| i as f64 - 3.0).collect();
        let mut serial = vec![0.0; 40];
        a.matvec(&w, &mut serial);
        for t in [1usize, 2, 3, 8] {
            let mut par = vec![0.0; 40];
            par_matvec(ParallelismCfg::with_threads(t), &a, &w, &mut par);
            assert_eq!(par, serial, "threads={t}");
        }
    }

    #[test]
    fn par_matvec_t_matches_serial() {
        let a = mat();
        let v: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        let mut serial = vec![0.0; 7];
        a.matvec_t_acc(&v, &mut serial);
        for t in [1usize, 3, 8] {
            let mut par = vec![0.0; 7];
            par_matvec_t(ParallelismCfg::with_threads(t), &a, &v, &mut par);
            for (p, s) in par.iter().zip(serial.iter()) {
                assert!((p - s).abs() < 1e-9, "threads={t}");
            }
        }
    }

    #[test]
    fn par_residual_matches_direct() {
        let a = mat();
        let w: Vec<f64> = vec![0.25; 7];
        let y: Vec<f64> = (0..40).map(|i| i as f64 * 0.1).collect();
        let mut av = vec![0.0; 40];
        a.matvec(&w, &mut av);
        let direct: f64 = av.iter().zip(&y).map(|(p, t)| (p - t) * (p - t)).sum();
        let par = par_residual_sq(ParallelismCfg::with_threads(3), &a, &w, &y);
        assert!((par - direct).abs() < 1e-9);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let a = Matrix::Sparse(CsrMatrix::from_rows(&[], 4).unwrap());
        assert_eq!(
            par_residual_sq(ParallelismCfg::auto(), &a, &[0.0; 4], &[]),
            0.0
        );
    }
}

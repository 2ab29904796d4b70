//! Property-based tests for the linear-algebra kernels.

use async_linalg::dense::{self, Element};
use async_linalg::parallel::{self, ParallelismCfg};
use async_linalg::{csr, CsrMatrix, DenseMatrix, Matrix, SparseVec};
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0..100.0f64, len)
}

fn sparse_triplets(nrows: usize, ncols: usize) -> impl Strategy<Value = Vec<(usize, u32, f64)>> {
    proptest::collection::vec(
        (0..nrows, 0..ncols as u32, -10.0..10.0f64),
        0..(nrows * ncols).min(64),
    )
}

proptest! {
    #[test]
    fn dot_is_commutative(n in 0usize..64) {
        let strat = (finite_vec(n), finite_vec(n));
        proptest!(|((x, y) in strat)| {
            let a = dense::dot(&x, &y);
            let b = dense::dot(&y, &x);
            prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()));
        });
    }

    #[test]
    fn axpy_is_linear(x in finite_vec(16), y in finite_vec(16), a in -5.0..5.0f64) {
        // axpy(a,x,y) == y + a*x elementwise
        let mut got = y.clone();
        dense::axpy(a, &x, &mut got);
        for i in 0..16 {
            prop_assert!((got[i] - (y[i] + a * x[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn norm_triangle_inequality(x in finite_vec(24), y in finite_vec(24)) {
        let mut sum = x.clone();
        dense::add_assign(&mut sum, &y);
        let lhs = dense::norm2_sq(&sum).sqrt();
        let rhs = dense::norm2_sq(&x).sqrt() + dense::norm2_sq(&y).sqrt();
        prop_assert!(lhs <= rhs + 1e-9);
    }

    #[test]
    fn csr_round_trips_via_dense(trips in sparse_triplets(8, 6)) {
        let csr = CsrMatrix::from_triplets(&trips, 8, 6).unwrap();
        let dense_m = csr.to_dense();
        // Every kernel must agree between the two storages.
        let w: Vec<f64> = (0..6).map(|i| (i as f64) - 2.5).collect();
        for i in 0..8 {
            let a = csr.row_dot(i, &w);
            let b = dense::dot(dense_m.row(i), &w);
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn csr_matvec_t_is_adjoint(trips in sparse_triplets(8, 6), x in finite_vec(6), y in finite_vec(8)) {
        // <A x, y> == <x, Aᵀ y>
        let csr = CsrMatrix::from_triplets(&trips, 8, 6).unwrap();
        let mut ax = vec![0.0; 8];
        csr.matvec(&x, &mut ax);
        let mut aty = vec![0.0; 6];
        csr.matvec_t_acc(&y, &mut aty);
        let lhs = dense::dot(&ax, &y);
        let rhs = dense::dot(&x, &aty);
        prop_assert!((lhs - rhs).abs() <= 1e-7 * (1.0 + lhs.abs()));
    }

    #[test]
    fn sparse_vec_dot_matches_dense(pairs in proptest::collection::vec((0u32..32, -10.0..10.0f64), 0..20), w in finite_vec(32)) {
        let sv = SparseVec::from_pairs(pairs, 32).unwrap();
        let dense_v = sv.to_dense();
        let a = sv.dot_dense(&w);
        let b = dense::dot(&dense_v, &w);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn gather_axpy_matches_dense_reference(
        trips in sparse_triplets(10, 12),
        rows in proptest::collection::vec(0u32..10, 0..16),
        coefs_seed in -5.0..5.0f64,
    ) {
        // The CSR mini-batch gather kernel must equal the dense
        // scatter-accumulate reference on every batch, including repeated
        // rows and empty batches.
        let csr = CsrMatrix::from_triplets(&trips, 10, 12).unwrap();
        let coefs: Vec<f64> = (0..rows.len())
            .map(|k| coefs_seed + k as f64 * 0.25)
            .collect();
        let got = csr.gather_axpy(&rows, &coefs);
        let mut want = vec![0.0; 12];
        for (&r, &a) in rows.iter().zip(coefs.iter()) {
            csr.row_axpy(r as usize, a, &mut want);
        }
        let got_dense = got.to_dense();
        for i in 0..12 {
            prop_assert!((got_dense[i] - want[i]).abs() < 1e-9,
                "coord {i}: {} vs {}", got_dense[i], want[i]);
        }
        // The kernel's support never exceeds the batch's stored entries.
        prop_assert!(got.nnz() as u64 <= csr.rows_nnz(&rows));
    }

    #[test]
    fn rows_dot_matches_dense_margins(
        trips in sparse_triplets(8, 6),
        rows in proptest::collection::vec(0u32..8, 0..12),
        w in finite_vec(6),
    ) {
        let csr = CsrMatrix::from_triplets(&trips, 8, 6).unwrap();
        let dense_m = csr.to_dense();
        let got = csr.rows_dot(&rows, &w);
        for (k, &r) in rows.iter().enumerate() {
            let want = dense::dot(dense_m.row(r as usize), &w);
            prop_assert!((got[k] - want).abs() < 1e-9);
        }
    }

    #[test]
    fn sparse_axpy_matches_dense_axpy(
        xs in proptest::collection::vec((0u32..24, -10.0..10.0f64), 0..12),
        ys in proptest::collection::vec((0u32..24, -10.0..10.0f64), 0..12),
        a in -4.0..4.0f64,
    ) {
        // In-place sparse-sparse merge vs the dense reference.
        let mut x = SparseVec::from_pairs(xs, 24).unwrap();
        let y = SparseVec::from_pairs(ys, 24).unwrap();
        let mut dense_ref = x.to_dense();
        y.axpy_into_dense(a, &mut dense_ref);
        x.axpy(a, &y);
        let got = x.to_dense();
        for i in 0..24 {
            prop_assert!((got[i] - dense_ref[i]).abs() < 1e-9);
        }
        // Result indices stay strictly increasing (SparseVec invariant).
        let reconstructed = SparseVec::new(
            x.indices().to_vec(), x.values().to_vec(), 24);
        prop_assert!(reconstructed.is_ok());
    }

    #[test]
    fn grad_delta_apply_agrees_across_arms(
        pairs in proptest::collection::vec((0u32..16, -10.0..10.0f64), 0..10),
        base in finite_vec(16),
        a in -3.0..3.0f64,
    ) {
        use async_linalg::GradDelta;
        let sv = SparseVec::from_pairs(pairs, 16).unwrap();
        let dense_arm = GradDelta::Dense(sv.to_dense());
        let sparse_arm = GradDelta::Sparse(sv);
        let mut out_d = base.clone();
        let mut out_s = base.clone();
        dense_arm.axpy_into(a, &mut out_d);
        sparse_arm.axpy_into(a, &mut out_s);
        for i in 0..16 {
            prop_assert!((out_d[i] - out_s[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn split_ranges_partition_property(len in 0usize..200, parts in 1usize..17) {
        let rs = parallel::split_ranges(len, parts);
        let covered: usize = rs.iter().map(|r| r.len()).sum();
        prop_assert_eq!(covered, len);
        for w in rs.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
            // Balanced to within one element.
            prop_assert!(w[0].len().abs_diff(w[1].len()) <= 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cgls_recovers_planted_solution(seed in 0u64..50) {
        // Plant w*, build consistent y = A w*, and require near-zero residual.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let nrows = 20;
        let ncols = 6;
        let rows: Vec<Vec<f64>> =
            (0..nrows).map(|_| (0..ncols).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let a = Matrix::Dense(DenseMatrix::from_rows(&rows).unwrap());
        let w_star: Vec<f64> = (0..ncols).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut y = vec![0.0; nrows];
        a.matvec(&w_star, &mut y);
        let res = async_linalg::solve::cgls(
            ParallelismCfg::sequential(), &a, &y, 0.0, 1e-12, 200);
        let mut pred = vec![0.0; nrows];
        a.matvec(&res.w, &mut pred);
        let resid: f64 = pred.iter().zip(&y).map(|(p, t)| (p - t) * (p - t)).sum();
        prop_assert!(resid < 1e-8, "residual {resid}");
    }
}

/// The fused two-margin kernel is two [`dense::dot`]s, bit for bit: on every
/// length across the four-wide blocking and its tail (0..=67), with values
/// drawn to include signed zeros, subnormals and magnitudes whose products
/// overflow.
#[test]
fn dot2_is_two_dots_bit_for_bit() {
    let value = || {
        prop_oneof![
            4 => -100.0..100.0f64,
            1 => Just(-0.0),
            1 => Just(0.0),
            1 => -1e-310..1e-310f64,
            1 => Just(-5e-324),
            1 => 1e290..1e300f64,
            1 => -1e300..-1e290f64,
        ]
    };
    for n in 0..=67usize {
        let strat = (
            proptest::collection::vec(value(), n),
            proptest::collection::vec(value(), n),
            proptest::collection::vec(value(), n),
        );
        proptest!(|((x, a, b) in strat)| {
            let (got_a, got_b) = dense::dot2(&x, &a, &b);
            let (want_a, want_b) = (dense::dot(&x, &a), dense::dot(&x, &b));
            prop_assert!(
                (got_a.to_bits(), got_b.to_bits()) == (want_a.to_bits(), want_b.to_bits()),
                "n={}: dot2 gave ({:e}, {:e}), dot gives ({:e}, {:e})",
                n, got_a, got_b, want_a, want_b
            );
        });
    }
}

/// The widening contract: each kernel that reads `f32` storage returns, bit
/// for bit, what its `f64` instantiation returns on the widened copy — dense
/// and CSR rows, batches with repeated rows, `A·x`, `Aᵀ·y` and `to_dense`.
/// Lengths cover the four-wide blocking and its tail (0..=67); stored values
/// include signed zeros, subnormals, `±f32::MAX` and mixed magnitudes, and
/// both storages are built from those `f32`s directly, so nothing rounds.
#[test]
fn f32_storage_is_the_f64_kernel_on_widened_values() {
    fn parts(sv: &SparseVec) -> (&[u32], &[f64]) {
        (sv.indices(), sv.values())
    }
    // Drawn as `f64` and narrowed once below, so the `f32` subnormal range
    // (below 1.2e-38) is covered densely.
    let stored = || {
        prop_oneof![
            4 => -100.0..100.0f64,
            1 => Just(-0.0),
            1 => Just(0.0),
            1 => -1.2e-38..1.2e-38f64,
            1 => Just(-f64::from(f32::from_bits(1))),
            1 => Just(f64::from(f32::MAX)),
            1 => Just(f64::from(-f32::MAX)),
            1 => 1e30..3e38f64,
            1 => -1e-20..-1e-30f64,
        ]
    };
    let model = || {
        prop_oneof![
            4 => -100.0..100.0f64,
            1 => Just(-0.0),
            1 => 1e-310..1e-300f64,
            1 => -1e6..1e6f64,
        ]
    };
    for n in 0..=67usize {
        // Up to four rows of (value, kept in the CSR copy) entries.
        let rows =
            proptest::collection::vec(proptest::collection::vec((stored(), 0u8..2), n), 0usize..5);
        let vecs = (
            proptest::collection::vec(model(), n),
            proptest::collection::vec(model(), n),
            proptest::collection::vec(model(), n),
            proptest::collection::vec(model(), 4),
        );
        let batch = proptest::collection::vec((0usize..64, -5.0..5.0f64), 0usize..12);
        proptest!(|((rows, (w, a, b, ys), batch) in (rows, vecs, batch))| {
            let rows: Vec<Vec<(f32, bool)>> = rows
                .iter()
                .map(|r| r.iter().map(|&(v, keep)| (v as f32, keep == 1)).collect())
                .collect();
            let nrows = rows.len();
            let wide: Vec<Vec<f64>> = rows
                .iter()
                .map(|r| r.iter().map(|&(v, _)| f64::from(v)).collect())
                .collect();
            let flat: Vec<f32> = rows.iter().flatten().map(|&(v, _)| v).collect();
            let dense_m = DenseMatrix::from_flat(flat, nrows, n).unwrap();
            let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
            let mut sparse_rows = Vec::new();
            for r in &rows {
                let kept: Vec<(u32, f32)> = (0..n as u32)
                    .zip(r)
                    .filter(|(_, &(_, keep))| keep)
                    .map(|(j, &(v, _))| (j, v))
                    .collect();
                indices.extend(kept.iter().map(|&(j, _)| j));
                data.extend(kept.iter().map(|&(_, v)| v));
                indptr.push(indices.len());
                let (idx, val) = kept.iter().map(|&(j, v)| (j, f64::from(v))).unzip();
                sparse_rows.push(SparseVec::new(idx, val, n).unwrap());
            }
            let csr_m = CsrMatrix::new(indptr, indices, data, nrows, n).unwrap();

            for (i, (x64, sv)) in wide.iter().zip(&sparse_rows).enumerate() {
                let x = dense_m.row(i);
                prop_assert_eq!(dense::dot(x, &w).to_bits(), dense::dot(x64, &w).to_bits());
                let (ga, gb) = dense::dot2(x, &a, &b);
                let (wa, wb) = dense::dot2(x64, &a, &b);
                prop_assert_eq!((ga.to_bits(), gb.to_bits()), (wa.to_bits(), wb.to_bits()));
                prop_assert_eq!(dense::norm2_sq(x).to_bits(), dense::norm2_sq(x64).to_bits());
                let (mut got, mut want) = (a.clone(), a.clone());
                dense::axpy(-1.5, x, &mut got);
                dense::axpy(-1.5, x64, &mut want);
                prop_assert_eq!(bits(&got), bits(&want));

                let want_dot = csr::entries_dot(parts(sv), &w);
                prop_assert_eq!(csr_m.row_dot(i, &w).to_bits(), want_dot.to_bits());
                let want_norm = dense::norm2_sq(sv.values());
                prop_assert_eq!(csr_m.row_norm2_sq(i).to_bits(), want_norm.to_bits());
                let (mut got, mut want) = (b.clone(), b.clone());
                csr_m.row_axpy(i, 0.75, &mut got);
                csr::entries_axpy(parts(sv), 0.75, &mut want);
                prop_assert_eq!(bits(&got), bits(&want));
            }

            // A·x and Aᵀ·y on both storages.
            let mut got = vec![0.0; nrows];
            dense_m.matvec(&w, &mut got);
            let want: Vec<f64> = wide.iter().map(|x| dense::dot(x, &w)).collect();
            prop_assert_eq!(bits(&got), bits(&want));
            csr_m.matvec(&w, &mut got);
            let want: Vec<f64> = sparse_rows.iter().map(|sv| csr::entries_dot(parts(sv), &w)).collect();
            prop_assert_eq!(bits(&got), bits(&want));
            let (mut got, mut want) = (a.clone(), a.clone());
            dense_m.matvec_t_acc(&ys[..nrows], &mut got);
            for (x, &y) in wide.iter().zip(&ys) {
                dense::axpy(y, x, &mut want);
            }
            prop_assert_eq!(bits(&got), bits(&want));
            let (mut got, mut want) = (a.clone(), a.clone());
            csr_m.matvec_t_acc(&ys[..nrows], &mut got);
            for (sv, &y) in sparse_rows.iter().zip(&ys) {
                csr::entries_axpy(parts(sv), y, &mut want);
            }
            prop_assert_eq!(bits(&got), bits(&want));

            // Batches with repeated rows; an empty matrix takes the empty batch.
            let picks: Vec<u32> = batch
                .iter()
                .filter(|_| nrows > 0)
                .map(|&(r, _)| (r % nrows.max(1)) as u32)
                .collect();
            let coefs: Vec<f64> = batch.iter().take(picks.len()).map(|&(_, c)| c).collect();
            let mut got = Vec::new();
            Matrix::Dense(dense_m.clone()).rows_dot_into(&picks, &w, &mut got);
            let want: Vec<f64> = picks.iter().map(|&r| dense::dot(&wide[r as usize], &w)).collect();
            prop_assert_eq!(bits(&got), bits(&want));
            csr_m.rows_dot_into(&picks, &w, &mut got);
            let want: Vec<f64> = picks
                .iter()
                .map(|&r| csr::entries_dot(parts(&sparse_rows[r as usize]), &w))
                .collect();
            prop_assert_eq!(bits(&got), bits(&want));
            let (mut pairs, mut gi, mut gv, mut wi, mut wv) = Default::default();
            csr_m.gather_axpy_into(&picks, &coefs, &mut pairs, &mut gi, &mut gv);
            let row = |r: usize| parts(&sparse_rows[r]);
            csr::gather_into(row, n, &picks, &coefs, &mut pairs, &mut wi, &mut wv);
            prop_assert_eq!(gi, wi);
            prop_assert_eq!(bits(&gv), bits(&wv));

            let want: Vec<f64> = sparse_rows.iter().flat_map(SparseVec::to_dense).collect();
            prop_assert_eq!(bits(csr_m.to_dense().as_flat()), bits(&want));
        });
    }
}

/// The broadcast ring's support-union kernel against a `BTreeSet` oracle,
/// with **one** scratch reused across every case: a probe spanning the
/// whole index range shows the bitmap all-zero on entry each time —
/// including right after a call whose result the caller threw away (the
/// ring's "patch would not undercut the snapshot" fallback).
#[test]
fn bitmap_union_equals_btreeset_union_with_one_reused_scratch() {
    use async_linalg::sparse::BitmapUnion;
    use std::collections::BTreeSet;

    const MAX_DIM: u32 = 64 * 12;
    let mut bitmap = BitmapUnion::default();
    let (mut out, mut discarded) = (Vec::new(), Vec::new());
    let raw_lists = proptest::collection::vec(
        proptest::collection::vec(0u32..u32::MAX, 0usize..48),
        1usize..17,
    );
    // `dim = 64 * words + rem` is never a multiple of 64; `pin_last` picks
    // the list (if it exists) that receives the index `dim - 1`.
    let strat = ((0u32..11, 1u32..64), raw_lists, 0usize..20, 0u8..2);
    proptest!(|(((words, rem), raw, pin_last, discard) in strat)| {
        let dim = 64 * words + rem;
        let mut lists: Vec<Vec<u32>> = raw
            .into_iter()
            .map(|l| l.into_iter().map(|i| i % dim).collect())
            .collect();
        if let Some(l) = lists.get_mut(pin_last) {
            l.push(dim - 1);
        }
        for l in lists.iter_mut() {
            l.sort_unstable();
            l.dedup();
        }
        if discard == 1 {
            bitmap.union_into(lists.iter().rev().map(Vec::as_slice), &mut discarded);
        }
        bitmap.union_into([&[0u32][..], &[MAX_DIM - 1][..]], &mut out);
        prop_assert_eq!(&out, &vec![0, MAX_DIM - 1]);

        bitmap.union_into(lists.iter().map(Vec::as_slice), &mut out);
        let oracle: BTreeSet<u32> = lists.iter().flatten().copied().collect();
        prop_assert_eq!(&out, &oracle.into_iter().collect::<Vec<u32>>());
    });
}

/// The radix gather's contract, **bit for bit**: per output column, the
/// contributions `coef·val` are added in batch row order. Columns come from
/// three narrow windows (bottom, somewhere, top of the column range), so
/// ≥ 3-way duplicates are the norm while every radix digit still has to
/// order something; `ncols` sits on each pass-count boundary. One set of
/// buffers is reused throughout, so `pairs` always enters holding the
/// previous case's garbage.
#[test]
fn gather_axpy_into_sums_duplicates_in_batch_row_order_bitwise() {
    use std::collections::BTreeMap;

    const NCOLS: [usize; 7] = [1, 7, 256, 257, 65_536, 65_537, (1 << 24) + 1];
    let (mut pairs, mut idx, mut val) = (Vec::new(), Vec::new(), Vec::new());
    // Raw matrix rows (0–7 entries each, empty rows included) and the batch
    // as (row pick, coefficient), empty batches included.
    let raw_rows = proptest::collection::vec(
        proptest::collection::vec((0u32..u32::MAX, -10.0..10.0f64), 0usize..8),
        1usize..10,
    );
    let batch = proptest::collection::vec((0usize..64, -5.0..5.0f64), 0usize..24);
    let strat = (
        (0usize..NCOLS.len(), 1u32..12, 0u32..u32::MAX),
        raw_rows,
        batch,
    );
    proptest!(|(((pick, width, offset), raw_rows, batch) in strat)| {
        let ncols = NCOLS[pick];
        let width = width.min(ncols as u32);
        let top = ncols as u32 - width;
        let windows = [0, offset % (top + 1), top];
        let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
        for raw in &raw_rows {
            let row: BTreeMap<u32, f64> = raw
                .iter()
                .map(|&(r, v)| (windows[r as usize % 3] + (r / 3) % width, v))
                .collect();
            indices.extend(row.keys());
            data.extend(row.values().map(|&v| v as f32));
            indptr.push(indices.len());
        }
        let csr = CsrMatrix::new(indptr, indices, data, raw_rows.len(), ncols).unwrap();
        let rows: Vec<u32> = batch.iter().map(|&(r, _)| (r % raw_rows.len()) as u32).collect();
        let coefs: Vec<f64> = batch.iter().map(|&(_, a)| a).collect();

        // The sum starts from the first product, not from 0.0 (which would
        // turn a lone -0.0 into +0.0).
        let mut oracle: BTreeMap<u32, f64> = BTreeMap::new();
        for (&r, &a) in rows.iter().zip(&coefs) {
            let (cols, vals) = csr.row(r as usize);
            for (&c, v) in cols.iter().zip(vals.iter().map(|&v| f64::from(v))) {
                oracle.entry(c).and_modify(|sum| *sum += a * v).or_insert(a * v);
            }
        }

        csr.gather_axpy_into(&rows, &coefs, &mut pairs, &mut idx, &mut val);
        prop_assert_eq!(&idx, &oracle.keys().copied().collect::<Vec<u32>>());
        prop_assert_eq!(bits(&val), bits(&oracle.values().copied().collect::<Vec<f64>>()));
        // The allocating form is the same kernel.
        let allocating = csr.gather_axpy(&rows, &coefs);
        prop_assert_eq!(allocating.indices(), idx.as_slice());
        prop_assert_eq!(bits(allocating.values()), bits(&val));
    });
}

/// The size-only read-back against the union it does not build: for lists
/// drawn as overlapping subsets of one strictly increasing pool — first
/// index 0, small or large; gaps of 1, under 128, right on the 128 and
/// 16 384 varint boundaries, and well past them — `union_index_len`
/// returns the built union's length and its index-block bytes. **One**
/// scratch serves every case and both read-backs; the full-range probe
/// shows every word it touched was left zero.
#[test]
fn bitmap_union_index_len_equals_the_built_unions_size() {
    use async_linalg::index_codec;
    use async_linalg::sparse::BitmapUnion;
    use std::collections::BTreeSet;

    const GAP_BASE: [u32; 6] = [1, 1, 127, 128, 16_383, 16_384];
    const GAP_SPAN: [u32; 6] = [1, 127, 4, 2_000, 4, 40_000];
    // Past anything a pool of 60 entries reaches from the largest start.
    const MAX_INDEX: u32 = (1 << 22) + 60 * 60_000;
    let mut bitmap = BitmapUnion::default();
    let mut out = Vec::new();
    let pool_gaps = proptest::collection::vec((0usize..6, 0u32..u32::MAX), 0usize..60);
    // Each list keeps the pool entries whose bit is set in its mask.
    let masks = proptest::collection::vec(0u64..u64::MAX, 0usize..6);
    let strat = ((0usize..3, 0u32..1 << 22), pool_gaps, masks);
    proptest!(|(((start_kind, start), pool_gaps, masks) in strat)| {
        let mut next = [0, start % 128, start][start_kind];
        let pool: Vec<u32> = pool_gaps
            .iter()
            .map(|&(class, raw)| {
                let index = next;
                next += GAP_BASE[class] + raw % GAP_SPAN[class];
                index
            })
            .collect();
        let lists: Vec<Vec<u32>> = masks
            .iter()
            .map(|mask| {
                pool.iter()
                    .enumerate()
                    .filter(|(k, _)| mask >> (k % 64) & 1 == 1)
                    .map(|(_, &i)| i)
                    .collect()
            })
            .collect();
        let union: Vec<u32> = lists
            .iter()
            .flatten()
            .copied()
            .collect::<BTreeSet<u32>>()
            .into_iter()
            .collect();

        let sized = bitmap.union_index_len(lists.iter().map(Vec::as_slice));
        prop_assert_eq!(sized, (union.len(), index_codec::encoded_len(&union)));
        bitmap.union_into([&[0u32][..], &[MAX_INDEX][..]], &mut out);
        prop_assert_eq!(&out, &vec![0, MAX_INDEX]);
        // The list read-back over the same marking pass agrees.
        bitmap.union_into(lists.iter().map(Vec::as_slice), &mut out);
        prop_assert_eq!(&out, &union);
    });
}

/// Rows `[start, end)` of `m` rebuilt from copies of its rows — what
/// `slice_rows` used to return, and the oracle for the window it returns
/// now.
fn copied_rows(m: &Matrix, start: usize, end: usize) -> Matrix {
    match m {
        Matrix::Dense(d) => {
            let flat = (start..end).flat_map(|i| d.row(i).to_vec()).collect();
            Matrix::Dense(DenseMatrix::from_flat(flat, end - start, d.ncols()).unwrap())
        }
        Matrix::Sparse(c) => {
            let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
            for i in start..end {
                let (idx, val) = c.row(i);
                indices.extend_from_slice(idx);
                data.extend_from_slice(val);
                indptr.push(indices.len());
            }
            Matrix::Sparse(CsrMatrix::new(indptr, indices, data, end - start, c.ncols()).unwrap())
        }
    }
}

/// The bits of each value as `f64`: for stored `f32`s, the widened bits.
fn bits<T: Element>(vals: &[T]) -> Vec<u64> {
    vals.iter().map(|v| v.widen().to_bits()).collect()
}

/// Everything a reader can ask of `view` answers as `copy` does, bit for
/// bit. `batch` is (row pick, coefficient) pairs, repeated rows included.
fn assert_view_is_copy(
    view: &Matrix,
    copy: &Matrix,
    batch: &[(usize, f64)],
    w: &[f64],
    y: &[f64],
) -> Result<(), String> {
    prop_assert_eq!(view, copy);
    let n = view.nrows();
    prop_assert_eq!((n, view.ncols()), (copy.nrows(), copy.ncols()));
    prop_assert_eq!(view.nnz(), copy.nnz());
    prop_assert_eq!(view.bytes(), copy.bytes());
    for i in 0..n {
        prop_assert_eq!(view.row_nnz(i), copy.row_nnz(i));
        prop_assert_eq!(view.row_dot(i, w).to_bits(), copy.row_dot(i, w).to_bits());
        prop_assert_eq!(
            view.row_norm2_sq(i).to_bits(),
            copy.row_norm2_sq(i).to_bits()
        );
        let (mut a, mut b) = (w.to_vec(), w.to_vec());
        view.row_axpy(i, -1.5, &mut a);
        copy.row_axpy(i, -1.5, &mut b);
        prop_assert_eq!(bits(&a), bits(&b));
        match (view, copy) {
            (Matrix::Dense(v), Matrix::Dense(c)) => prop_assert_eq!(bits(v.row(i)), bits(c.row(i))),
            (Matrix::Sparse(v), Matrix::Sparse(c)) => {
                prop_assert_eq!(v.row(i).0, c.row(i).0);
                prop_assert_eq!(bits(v.row(i).1), bits(c.row(i).1));
            }
            _ => prop_assert!(false, "storage kinds differ"),
        }
    }
    let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
    view.matvec(w, &mut a);
    copy.matvec(w, &mut b);
    prop_assert_eq!(bits(&a), bits(&b));
    let (mut a, mut b) = (w.to_vec(), w.to_vec());
    view.matvec_t_acc(&y[..n], &mut a);
    copy.matvec_t_acc(&y[..n], &mut b);
    prop_assert_eq!(bits(&a), bits(&b));

    // An empty window takes the empty batch.
    let rows: Vec<u32> = batch
        .iter()
        .filter(|_| n > 0)
        .map(|&(r, _)| (r % n.max(1)) as u32)
        .collect();
    let coefs: Vec<f64> = batch.iter().take(rows.len()).map(|&(_, a)| a).collect();
    prop_assert_eq!(view.rows_nnz(&rows), copy.rows_nnz(&rows));
    let (mut a, mut b) = (Vec::new(), Vec::new());
    view.rows_dot_into(&rows, w, &mut a);
    copy.rows_dot_into(&rows, w, &mut b);
    prop_assert_eq!(bits(&a), bits(&b));
    if let (Matrix::Sparse(v), Matrix::Sparse(c)) = (view, copy) {
        let (mut pairs, mut vi, mut vv, mut ci, mut cv) = Default::default();
        v.gather_axpy_into(&rows, &coefs, &mut pairs, &mut vi, &mut vv);
        c.gather_axpy_into(&rows, &coefs, &mut pairs, &mut ci, &mut cv);
        prop_assert_eq!(vi, ci);
        prop_assert_eq!(bits(&vv), bits(&cv));
        prop_assert_eq!(v.to_dense(), c.to_dense());
    }
    Ok(())
}

proptest! {
    /// `slice_rows` is a window over shared storage; it must be
    /// indistinguishable from the copy it replaced — on both storages, for
    /// every `start <= end` (empty windows and `start == nrows` included),
    /// and a window of a window is the window of the composed range.
    #[test]
    fn a_row_window_is_the_copy_of_its_rows_bit_for_bit(
        trips in sparse_triplets(9, 7),
        cuts in (0usize..100, 0usize..100, 0usize..100, 0usize..100),
        batch in proptest::collection::vec((0usize..64, -5.0..5.0f64), 0..12),
        w in finite_vec(7),
        y in finite_vec(9),
    ) {
        let csr = CsrMatrix::from_triplets(&trips, 9, 7).unwrap();
        for m in [Matrix::Dense(csr.to_dense()), Matrix::Sparse(csr)] {
            let start = cuts.0 % 10;
            let end = start + cuts.1 % (10 - start);
            let view = m.slice_rows(start, end);
            assert_view_is_copy(&view, &copied_rows(&m, start, end), &batch, &w, &y)?;
            let len = end - start;
            let inner_start = cuts.2 % (len + 1);
            let inner_end = inner_start + cuts.3 % (len + 1 - inner_start);
            let inner = view.slice_rows(inner_start, inner_end);
            let composed = copied_rows(&m, start + inner_start, start + inner_end);
            assert_view_is_copy(&inner, &composed, &batch, &w, &y)?;
            let at_end = m.slice_rows(9, 9);
            assert_view_is_copy(&at_end, &copied_rows(&m, 9, 9), &batch, &w, &y)?;
            // Windows of different rows are different matrices.
            prop_assert_eq!(m.slice_rows(0, 9), m.clone());
        }
    }
}

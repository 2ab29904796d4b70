//! Property tests of the incremental (version-diffed) broadcast: whatever
//! the gap pattern, ring size, mix of sparse/dense updates, or worker
//! churn, a resolved model must be **bit-identical** to the server's dense
//! snapshot of that version — the incremental path may only change the
//! bytes on the wire, never the values. In process an exact resolve goes
//! further: it returns the server's snapshot itself, not a reconstruction,
//! while a quantized patch must land on a model of the worker's own.

use async_core::AsyncBcast;
use async_linalg::{GradDelta, Quant, SparseVec};
use proptest::prelude::*;
use sparklet::{Payload, WorkerCtx};

const DIM: usize = 400;

/// One generated step of the broadcast's life.
#[derive(Debug)]
enum Step {
    /// Push a sparse update touching these coordinates.
    Sparse(Vec<(u32, f64)>),
    /// Push a full-support update (forces the snapshot fallback over it).
    Dense(f64),
    /// Worker `w` resolves the latest version.
    Fetch(usize),
    /// Worker `w` loses its cache (a churn revival's fresh executor).
    Wipe(usize),
}

fn apply_update(w: &mut [f64], u: &GradDelta) {
    u.axpy_into(1.0, w);
}

fn run_schedule(ring: usize, quant: Quant, steps: &[Step]) -> Result<(), String> {
    let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(0, vec![0.0; DIM], 0);
    b.enable_incremental(ring);
    b.set_patch_quant(quant);
    let mut server_w = vec![0.0; DIM];
    let mut workers: Vec<WorkerCtx> = (0..3).map(WorkerCtx::new).collect();
    for step in steps {
        match step {
            Step::Sparse(pairs) => {
                let u = GradDelta::Sparse(
                    SparseVec::from_pairs(pairs.clone(), DIM).expect("pairs within DIM"),
                );
                apply_update(&mut server_w, &u);
                b.push_snapshot_diff(&server_w, &u);
            }
            Step::Dense(a) => {
                let u = GradDelta::Dense(vec![*a; DIM]);
                apply_update(&mut server_w, &u);
                b.push_snapshot_diff(&server_w, &u);
            }
            Step::Fetch(w) => {
                let patches = b.stats().incremental_fetches;
                let got = b.handle().value_incremental(&mut workers[*w]);
                let patched = b.stats().incremental_fetches > patches;
                let pin = b
                    .try_pin_read_at(b.latest_version())
                    .expect("the latest version is live");
                let shared = got.as_ptr() == pin.value().as_ptr();
                if quant != Quant::Exact {
                    // The worker's model now carries quantization error:
                    // it cannot be the server's snapshot.
                    prop_assert!(!(patched && shared), "quantized patch aliases the server");
                    continue;
                }
                prop_assert!(shared, "worker {} holds a copy, not the snapshot", w);
                prop_assert!(
                    got.as_slice() == server_w.as_slice(),
                    "worker {} diverged at version {}",
                    w,
                    b.latest_version()
                );
            }
            Step::Wipe(w) => {
                workers[*w] = WorkerCtx::new(*w);
            }
        }
    }
    if quant != Quant::Exact {
        return Ok(());
    }
    // Every worker converges on a final fetch, whatever its history.
    for w in workers.iter_mut() {
        let got = b.handle().value_incremental(w);
        prop_assert_eq!(got.as_slice(), server_w.as_slice());
    }
    // Sanity: the machinery actually exercised both arms across the run
    // is not asserted per-case (some schedules are all-fallback), but the
    // stats must be internally consistent.
    let s = b.stats();
    prop_assert!(s.incremental_fetches <= s.fetches);
    prop_assert!(s.incremental_bytes <= s.fetched_bytes);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn any_gap_pattern_reconstructs_bit_identically(
        ring in 1usize..12,
        raw in proptest::collection::vec(
            (0u8..10, 0usize..3, proptest::collection::vec((0u32..DIM as u32, -2.0..2.0f64), 1..12), -1.0..1.0f64),
            1..60,
        ),
    ) {
        let steps: Vec<Step> = raw
            .into_iter()
            .map(|(kind, w, pairs, a)| match kind {
                // Sparse pushes dominate so patches actually happen.
                0..=5 => Step::Sparse(pairs),
                6 => Step::Dense(a),
                7 => Step::Wipe(w),
                _ => Step::Fetch(w),
            })
            .collect();
        for quant in [Quant::Exact, Quant::I8] {
            run_schedule(ring, quant, &steps)?;
        }
    }

    #[test]
    fn steady_one_step_gaps_patch_incrementally(ring in 2usize..8, rounds in 5usize..40) {
        // The solver steady state: one sparse update, then a fetch, looped.
        // Every fetch after the first must take the incremental path.
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(0, vec![0.0; DIM], 0);
        b.enable_incremental(ring);
        let mut server_w = vec![0.0; DIM];
        let mut ctx = WorkerCtx::new(0);
        b.handle().value_incremental(&mut ctx);
        let mut patch_bytes = 0u64;
        for r in 0..rounds {
            let i = (r * 37 % DIM) as u32;
            let support = SparseVec::from_pairs(vec![(i, 1.0 + r as f64)], DIM).expect("in range");
            // A one-coordinate patch is that coordinate's sparse payload.
            patch_bytes += support.encoded_len();
            let u = GradDelta::Sparse(support);
            apply_update(&mut server_w, &u);
            b.push_snapshot_diff(&server_w, &u);
            let got = b.handle().value_incremental(&mut ctx);
            prop_assert_eq!(got.as_slice(), server_w.as_slice());
        }
        let s = b.stats();
        prop_assert_eq!(s.incremental_fetches, rounds as u64);
        // 25 or 26 bytes each (one or two index bytes) vs a 3208-byte
        // snapshot.
        prop_assert_eq!(s.incremental_bytes, patch_bytes);
        prop_assert!(patch_bytes <= 26 * rounds as u64);
    }
}

//! The zero-allocation proof for the solver hot path.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! pass fills the [`ScratchPool`]'s buffers to their steady-state
//! capacities, the measured loop — sample a mini-batch, evaluate the
//! pooled gradient kernel, absorb the delta into the model, fold it into a
//! [`DeltaFold`] accumulator, recycle the buffers — must perform **zero**
//! heap allocations per iteration.
//!
//! Scope: this is the per-iteration compute-and-absorb cycle the
//! `ScratchPool` exists for. Engine-side costs outside it (boxing a task
//! closure, the 1-allocation `Arc` cell of a broadcast snapshot push) are
//! bounded separately by `snapshot_push_is_allocation_bounded`; the
//! worker-side model resolve through the version-diff ring is held to zero
//! by `incremental_resolve_allocates_nothing_once_warm`, and the remote
//! driver's plan of it to the two vectors it ships.
//!
//! The counter is **per thread**: each test measures the thread that drives
//! its loop, so sibling tests and the harness cannot pollute a window and
//! the suite holds under any `--test-threads`. The server absorbs on the
//! calling thread, so every absorb is inside the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use async_core::{AsyncBcast, WirePlan};
use async_data::{sampler, Dataset, SynthSpec};
use async_linalg::{DeltaFold, GradDelta, Matrix};
use async_optim::{Objective, ScratchPool};
use sparklet::WorkerCtx;

struct CountingAlloc;

thread_local! {
    // Per-thread, so sibling tests (and the harness's own bookkeeping
    // thread) running in parallel cannot pollute a measured window. `Cell`
    // of a `u64` has no destructor and a const initializer: touching it
    // from inside the allocator neither allocates nor outlives the thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation to `System`, only adding a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations performed so far **by the calling thread**.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

fn sparse_dataset() -> Dataset {
    let (base, _) = SynthSpec::sparse("alloc-zero", 400, 8_000, 24, 5)
        .generate()
        .expect("synthetic generation");
    base
}

/// One steady-state iteration: sample → pooled gradient → absorb → fold →
/// recycle. `iter` keys the RNG so warm-up and measurement sample the very
/// same batches (capacities proven sufficient by construction).
fn iteration(
    objective: &Objective,
    dataset_block: &async_data::Block,
    w: &mut [f64],
    grad_sum: &mut [f64],
    fold: &mut DeltaFold,
    pool: &ScratchPool,
    iter: u64,
) {
    let mut scratch = pool.checkout();
    let mut rng = sampler::derive_rng(42, iter, 0);
    sampler::sample_fraction_into(&mut rng, dataset_block.rows(), 0.1, &mut scratch.rows);
    let g = objective.minibatch_grad_delta_pooled(dataset_block, w, &mut scratch, pool);
    pool.give_back(scratch);
    // Server-side absorption: scatter the update onto the model, fold it
    // into a reusable accumulator, apply the folded sum to a running
    // gradient aggregate, and hand the buffers back.
    g.axpy_into(-0.05, w);
    fold.clear(w.len());
    fold.fold_scaled(1.0, &g);
    fold.axpy_into(0.5, grad_sum);
    pool.recycle_delta(g);
}

#[test]
fn steady_state_iterations_allocate_nothing() {
    let dataset = sparse_dataset();
    let blocks = dataset.partition(1);
    let block = &blocks[0];
    let objective = Objective::Logistic { lambda: 1e-3 };
    let pool = ScratchPool::new();
    let mut w = vec![0.05; dataset.cols()];
    let mut grad_sum = vec![0.0; dataset.cols()];
    let mut fold = DeltaFold::new(dataset.cols());

    const ROUNDS: u64 = 40;
    // Warm-up: every buffer reaches the capacity this exact iteration
    // sequence needs (measurement replays the same RNG keys).
    for i in 0..ROUNDS {
        iteration(
            &objective,
            block,
            &mut w,
            &mut grad_sum,
            &mut fold,
            &pool,
            i,
        );
    }
    // The gather scratch holds the pairs and the radix sort's ping-pong
    // half: twice the largest batch so far, the last one included.
    let gather_scratch = || {
        let scratch = pool.checkout();
        let last_batch_nnz = match block.features() {
            Matrix::Sparse(csr) => csr.rows_nnz(&scratch.rows) as usize,
            Matrix::Dense(_) => unreachable!("the dataset is sparse"),
        };
        let sizes = (scratch.pairs.len(), scratch.pairs.capacity());
        pool.give_back(scratch);
        assert!(last_batch_nnz > 0 && sizes.0 >= 2 * last_batch_nnz);
        sizes
    };
    let warm = gather_scratch();

    let before = allocations();
    for i in 0..ROUNDS {
        iteration(
            &objective,
            block,
            &mut w,
            &mut grad_sum,
            &mut fold,
            &pool,
            i,
        );
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state solver iterations must not allocate ({} allocations over {} rounds)",
        after - before,
        ROUNDS
    );
    assert_eq!(
        gather_scratch(),
        warm,
        "the gather scratch stops growing once warm"
    );
}

#[test]
fn dense_arm_is_also_allocation_free_once_warm() {
    let dataset = sparse_dataset().densified();
    let blocks = dataset.partition(1);
    let block = &blocks[0];
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let pool = ScratchPool::new();
    let mut w = vec![0.0; dataset.cols()];
    let mut grad_sum = vec![0.0; dataset.cols()];
    let mut fold = DeltaFold::new(dataset.cols());
    for i in 0..10 {
        iteration(
            &objective,
            block,
            &mut w,
            &mut grad_sum,
            &mut fold,
            &pool,
            i,
        );
    }
    let before = allocations();
    for i in 0..10 {
        iteration(
            &objective,
            block,
            &mut w,
            &mut grad_sum,
            &mut fold,
            &pool,
            i,
        );
    }
    assert_eq!(allocations() - before, 0, "dense arm allocated");
}

#[test]
fn sharded_snapshot_push_is_allocation_bounded() {
    // A push through a multi-thread pool is the plain push: the pool is
    // ignored, so it allocates exactly what `push_snapshot` allocates.
    let dim = 8_000;
    let pool = async_linalg::ShardPool::new(4);
    let w = vec![1.0; dim];
    const PUSHES: u64 = 25;
    let allocs_per_run = |push: &dyn Fn(&AsyncBcast<Vec<f64>>)| {
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(0, vec![0.0; dim], 0);
        for _ in 0..10 {
            push(&b);
        }
        let before = allocations();
        for _ in 0..PUSHES {
            push(&b);
        }
        let allocs = allocations() - before;
        assert!(b.stats().recycled_buffers >= 30);
        allocs
    };
    let plain = allocs_per_run(&|b| {
        b.push_snapshot(&w);
    });
    let sharded = allocs_per_run(&|b| {
        b.push_snapshot_sharded(&w, Some(&[3, 77]), &pool);
    });
    assert_eq!(
        sharded, plain,
        "{PUSHES} pushes through a 4-thread pool vs plain pushes"
    );
}

#[test]
fn snapshot_push_is_allocation_bounded() {
    // A broadcast snapshot push recycles pruned buffers: its only
    // steady-state allocation is the new version's `Arc` cell (one per
    // push), never an O(dim) buffer.
    let dim = 8_000;
    let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(0, vec![0.0; dim], 0);
    b.enable_incremental(8);
    let w = vec![1.0; dim];
    let support = GradDelta::Sparse(
        async_linalg::SparseVec::from_pairs(vec![(3, 1.0), (77, -1.0)], dim).unwrap(),
    );
    for _ in 0..10 {
        b.push_snapshot_diff(&w, &support);
    }
    let before = allocations();
    const PUSHES: u64 = 25;
    for _ in 0..PUSHES {
        b.push_snapshot_diff(&w, &support);
    }
    let per_push = (allocations() - before) as f64 / PUSHES as f64;
    assert!(
        per_push <= 2.0,
        "snapshot push should cost O(1) small allocations, got {per_push} per push"
    );
    assert!(b.stats().recycled_buffers >= 30);
}

/// A strictly increasing ~2 000-entry change support over `dim` = 65 536:
/// one coordinate out of every 32-wide stripe, chosen by `round`.
fn striped_support(round: u64, support: &mut Vec<u32>) {
    support.clear();
    support.extend((0..2048u64).map(|stripe| {
        let pick = (stripe.wrapping_mul(0x9E37_79B9) ^ round.wrapping_mul(0x85EB_CA6B)) % 32;
        (stripe * 32 + pick) as u32
    }));
}

/// Applies one round's update to `w` and publishes it with its support.
fn push_striped(b: &AsyncBcast<Vec<f64>>, w: &mut [f64], support: &mut Vec<u32>, round: u64) {
    striped_support(round, support);
    for &i in support.iter() {
        w[i as usize] += 1.0 + round as f64;
    }
    b.push_snapshot_sharded(w, Some(support), &async_linalg::ShardPool::new(1));
}

#[test]
fn incremental_resolve_allocates_nothing_once_warm() {
    // The sparse_ring_sim steady state: four workers take turns resolving
    // the latest version, each four versions behind. An exact patch is a
    // bitmap union in a pooled scratch plus a cache swap onto the server's
    // shared snapshot — no allocation — and every base a worker lets go of
    // returns to the server, so the pushes keep recycling buffers.
    let dim = 65_536;
    let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(0, vec![0.0; dim], 0);
    b.enable_incremental(16);
    let mut workers: Vec<WorkerCtx> = (0..4).map(WorkerCtx::new).collect();
    let mut w = vec![0.0; dim];
    let mut support = Vec::new();
    const PUSHES: u64 = 400;
    let mut resolve_allocs = 0;
    for round in 0..PUSHES {
        push_striped(&b, &mut w, &mut support, round);
        let handle = b.handle();
        let before = allocations();
        let got = handle.value_incremental(&mut workers[(round % 4) as usize]);
        if round >= 100 {
            resolve_allocs += allocations() - before;
        }
        assert_eq!(got[support[0] as usize], w[support[0] as usize]);
    }
    let s = b.stats();
    assert_eq!(
        s.incremental_fetches,
        PUSHES - 4,
        "all but the cold fetches patch"
    );
    assert_eq!(
        resolve_allocs, 0,
        "warm incremental resolves must not allocate (over the last 300)"
    );
    assert!(
        s.recycled_buffers >= 390,
        "released patch bases must keep snapshot pushes recycling: {s:?}"
    );
}

#[test]
fn exact_wire_plan_allocates_only_the_patch_it_ships() {
    // The remote driver's mirror shares its cached base with the version
    // table. While a reader still pins that version the base cannot be
    // taken by value — and an exact plan has no use for it: planning must
    // cost the shipped patch's index and value vectors, never a model copy.
    let dim = 65_536;
    let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(0, vec![0.0; dim], 0);
    b.enable_incremental(16);
    let mut mirror = WorkerCtx::new(0);
    let mut w = vec![0.0; dim];
    let mut support = Vec::new();
    for round in 0..3 {
        // Round 0 is the cold snapshot plan, round 1 warms the scratch.
        let base_pin = b.pin_read();
        assert!(matches!(
            b.handle().wire_plan(&mut mirror),
            WirePlan::Cached { .. } | WirePlan::Snapshot { .. }
        ));
        for step in 0..4 {
            push_striped(&b, &mut w, &mut support, round * 4 + step);
        }
        let handle = b.handle();
        let before = allocations();
        let plan = handle.wire_plan(&mut mirror);
        let allocs = allocations() - before;
        let WirePlan::Patch { base, patch, .. } = plan else {
            panic!("a four-version gap inside the ring plans a patch");
        };
        assert_eq!(base, base_pin.version(), "planned against the pinned base");
        assert!(patch.nnz() > 2048, "union of four supports");
        if round == 2 {
            assert_eq!(allocs, 2, "exactly the patch's indices and values");
        }
    }
}

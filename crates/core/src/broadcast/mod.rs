//! The `ASYNCbroadcaster` (§4.3): history broadcast.
//!
//! Variance-reduced methods (SAGA/ASAGA) need, for every sampled row `j`,
//! the model parameters as they were when `j` was *last* sampled. Classic
//! Spark broadcast would have to ship an ever-growing table of past model
//! vectors with every task — the overhead the paper calls out as the reason
//! Mllib has no SAGA. The `ASYNCbroadcaster` instead:
//!
//! * keeps the *server-side* history of broadcast versions;
//! * ships only version **IDs** with each task (8 bytes per sample);
//! * lets workers resolve IDs against their local cache, fetching a missed
//!   version from the server once and caching it;
//! * reference-counts versions through a flat per-sample version table
//!   (read a batch at a time) and prunes history that no sample can
//!   reference any more, bounding memory on the server and (via eviction
//!   watermarks) on the workers.
//!
//! [`AsyncBcast::push`] is the paper's `AC.ASYNCbroadcast(w)`;
//! [`HistoryHandle::value`] is `w_br.value` and
//! [`HistoryHandle::value_at`] is `w_br.value(index)` from Algorithm 4.
//!
//! # Incremental (version-diffed) broadcast
//!
//! With [`AsyncBcast::enable_incremental`] the server additionally keeps a
//! **bounded ring of per-version change supports**: for every pushed
//! version, the set of coordinates that version's update modified
//! (declared by the optimizer through
//! [`AsyncBcast::push_snapshot_diff`]). When a worker whose newest cached
//! model is version `v` resolves version `cur`, the server unions the
//! supports of `v+1..=cur` and ships a **sparse patch** — the changed
//! coordinates with their *final* values at `cur` — instead of the dense
//! vector. Scatter-assigning the patch onto the cached base reconstructs
//! the server model **bit-exactly**: changed coordinates receive the
//! server's exact values, untouched coordinates were by definition never
//! modified. Resolution falls back to the full dense snapshot when the gap
//! outruns the ring, any spanned version declared a dense (unknown-support)
//! change, the worker has no cached base (fresh executors, churn
//! revivals), or the patch would not undercut the dense wire size.
//!
//! Who performs the scatter depends on the engine and on the patch's value
//! format ([`AsyncBcast::set_patch_quant`]):
//!
//! * **In process** (simulator, threaded engine), exact patches: nobody.
//!   The reconstruction *is* the target version, so
//!   [`HistoryHandle::value_incremental`] charges the patch's wire bytes
//!   — sized from the support bitmap, the patch itself is never built —
//!   caches and returns the server's own `Arc` of the target snapshot (as
//!   every dense fetch does), and hands the base it lets go of back to the
//!   server's recycled-buffer pool when the worker was its last owner.
//! * **In process**, quantized patches: the worker's model legitimately
//!   differs from the target, so it keeps a private copy and moves each
//!   changed coordinate by the dequantized difference.
//! * **Remote** workers hold their own memory: the driver runs the same
//!   resolve against a cache mirror ([`HistoryHandle::wire_plan`], which is
//!   also the only place patch values are gathered) and the worker replays
//!   [`WirePlan::Patch`] / [`WirePlan::QPatch`] with [`WirePlan::apply`].
//!
//! Both are views of one private decision (`HistoryHandle::resolve`), so
//! what the simulator charges and what the remote engine ships cannot
//! drift apart.

mod pin;
mod resolve;
mod store;
mod wire;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use async_linalg::{GradDelta, Quant};
use sparklet::Payload;

pub use pin::ReadPin;
pub use resolve::HistoryHandle;
pub use wire::WirePlan;

use resolve::Counters;
use store::{ChangeSupport, VersionTable};

/// Counters describing a history broadcast's traffic and memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistoryStats {
    /// Versions pushed so far.
    pub versions_pushed: u64,
    /// Versions currently retained on the server.
    pub versions_live: u64,
    /// Slots the server's version table holds: one per version from the
    /// oldest live one to the latest, so memory follows the live span, not
    /// the number of pushes.
    pub version_slots: u64,
    /// Bytes currently retained on the server.
    pub live_bytes: u64,
    /// Worker cache misses served by the server.
    pub fetches: u64,
    /// Bytes shipped to workers for those misses.
    pub fetched_bytes: u64,
    /// Fetches served as version-diff patches instead of full snapshots.
    pub incremental_fetches: u64,
    /// Bytes shipped for those patches (included in `fetched_bytes`).
    pub incremental_bytes: u64,
    /// Snapshot buffers recycled from pruned versions by
    /// [`AsyncBcast::push_snapshot`] (a steady-state push performs a copy,
    /// not an allocation).
    pub recycled_buffers: u64,
}

/// What a broadcast's clones, its handles and its read pins share: its
/// id, the version store and the traffic counters.
struct Shared<T> {
    id: u64,
    table: Table<T>,
    counters: Counters,
}

/// The version store behind its lock; `read` and `write` hand out the
/// guard directly.
struct Table<T>(RwLock<VersionTable<T>>);

impl<T> Table<T> {
    fn read(&self) -> RwLockReadGuard<'_, VersionTable<T>> {
        // invariant: the lock is poisoned only by a panic mid-publish or
        // mid-pin, after which the table's counts cannot be trusted.
        self.0.read().expect("broadcast version table poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, VersionTable<T>> {
        // invariant: as for `read`.
        self.0.write().expect("broadcast version table poisoned")
    }
}

/// A versioned history broadcast. Cheap to clone; clones share the store.
pub struct AsyncBcast<T: Payload + Send + Sync + 'static> {
    shared: Arc<Shared<T>>,
}

impl<T: Payload + Send + Sync + 'static> Clone for AsyncBcast<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Payload + Send + Sync + 'static> AsyncBcast<T> {
    /// Creates the broadcast with its base value (version 0). `n_indices`
    /// is the sample universe size (`n` in SAGA; one 8-byte table slot
    /// each): it controls when version 0 stops being implicitly referenced.
    pub fn new(id: u64, initial: T, n_indices: u64) -> Self {
        Self::new_at(id, initial, n_indices, 0)
    }

    /// Creates the broadcast with its base value seated at version `base`
    /// instead of 0 — the resume path: a solver restoring a checkpoint
    /// taken at model version `v` re-seats its broadcast at `base = v`, so
    /// pushed versions continue the crashed run's numbering and samples
    /// whose history was never recorded implicitly reference the restored
    /// model. With `base = 0` this is exactly [`AsyncBcast::new`].
    pub fn new_at(id: u64, initial: T, n_indices: u64, base: u64) -> Self {
        let shared = Shared {
            id,
            table: Table(RwLock::new(VersionTable::new(initial, n_indices, base))),
            counters: Counters::default(),
        };
        Self {
            shared: Arc::new(shared),
        }
    }

    /// Turns on incremental (version-diffed) resolution with a ring of
    /// `ring_capacity` recent per-version change supports. See the module
    /// docs; with capacity 0 the broadcast behaves exactly as before.
    pub fn enable_incremental(&self, ring_capacity: usize) {
        self.shared.table.write().ring_capacity = ring_capacity;
    }

    /// Quantizes shipped patch values to `quant` codes (int8) against a
    /// per-patch scale. The codes carry the **difference** between the
    /// target version and the worker's cached base at each changed
    /// coordinate, so the scale is update-sized and the
    /// per-coordinate error is bounded by one quantization step of that
    /// difference — never a fraction of the model's largest weight — and
    /// re-quantizing against the fresh base on the next patch keeps it
    /// from accumulating. `Quant::Exact` (the default) restores today's
    /// bit-exact patches. Only meaningful together with
    /// [`AsyncBcast::enable_incremental`].
    pub fn set_patch_quant(&self, quant: Quant) {
        self.shared.table.write().patch_quant = quant;
    }

    /// This broadcast's id (unique within one context).
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Publishes a new version of the value; returns its version number.
    /// Only the 8-byte version ID travels with subsequent tasks. With
    /// incremental resolution enabled, a version pushed this way records a
    /// dense (unknown) change support: gaps spanning it fall back to full
    /// snapshots. Use [`AsyncBcast::push_snapshot_diff`] to declare the
    /// changed coordinates.
    pub fn push(&self, value: T) -> u64 {
        self.shared
            .table
            .write()
            .publish(value, ChangeSupport::Dense)
    }

    /// Latest version number.
    pub fn latest_version(&self) -> u64 {
        self.shared.table.read().latest()
    }

    /// The version sample `idx` last saw (the table's base version — 0 for
    /// a fresh run — if never recorded) — the paper's "ID of the
    /// previously broadcast variable for the specified index".
    pub fn version_for_index(&self, idx: u64) -> u64 {
        self.shared.table.read().version_of(idx)
    }

    /// [`AsyncBcast::version_for_index`] of every sample in `indices`, in
    /// order, into the cleared `out` — one table lock for the whole batch.
    pub fn versions_for_indices(&self, indices: impl IntoIterator<Item = u64>, out: &mut Vec<u64>) {
        let t = self.shared.table.read();
        out.clear();
        out.extend(indices.into_iter().map(|idx| t.version_of(idx)));
    }

    /// Records that samples `indices` have now been processed at `version`
    /// (SAGA's `update table` step), updating reference counts and pruning
    /// versions that no sample references any more.
    pub fn record_use(&self, indices: &[u64], version: u64) {
        let mut t = self.shared.table.write();
        debug_assert!(version <= t.latest(), "recording unknown version");
        for &idx in indices {
            t.record(idx, version);
        }
    }

    /// Pins `version` against pruning while a task computed at it is in
    /// flight. Call at submission; pair with [`AsyncBcast::unpin`] when the
    /// task's result is consumed (or known lost).
    ///
    /// # Panics
    /// Panics if `version` is unknown or already pruned.
    pub fn pin(&self, version: u64) {
        if self.shared.table.write().pin(version).is_none() {
            panic!("pin: history version {version} already pruned");
        }
    }

    /// Releases one pin on `version`, pruning it if nothing references it
    /// any more.
    pub fn unpin(&self, version: u64) {
        self.shared.table.write().unpin(version);
    }

    /// Bytes of version-ID metadata shipped with a task carrying `samples`
    /// sampled rows (one 8-byte ID each, plus the current version ID).
    pub fn id_ship_bytes(samples: usize) -> u64 {
        8 * (samples as u64 + 1)
    }

    /// A handle capturing the latest version and the live watermark, for
    /// capture in task closures.
    pub fn handle(&self) -> HistoryHandle<T> {
        let t = self.shared.table.read();
        HistoryHandle {
            version: t.latest(),
            min_live: t.min_live,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Pins the **latest** version for a reader and returns a [`ReadPin`]
    /// guard resolving to its value — the serving-side read primitive.
    ///
    /// Version resolution and the pin increment happen under one table
    /// lock, so the returned version can never be pruned (nor its snapshot
    /// buffer recycled) between "pick latest" and "pin it". Unlike
    /// [`HistoryHandle::value_at`], this touches no worker cache and has no
    /// eviction side effects: it is safe to call from reader threads that
    /// are not part of the cluster at all. The pin is released when the
    /// guard drops.
    pub fn pin_read(&self) -> ReadPin<T> {
        ReadPin::take(&self.shared, None).expect("latest version is always live")
    }

    /// Pins a **specific** version for a reader, if it is still live.
    /// Returns `None` when `version` is unknown or already pruned — the
    /// non-panicking twin of [`AsyncBcast::pin`] for read paths that race
    /// the pruner.
    pub fn try_pin_read_at(&self, version: u64) -> Option<ReadPin<T>> {
        ReadPin::take(&self.shared, Some(version))
    }

    /// Current traffic/memory counters.
    pub fn stats(&self) -> HistoryStats {
        let c = &self.shared.counters;
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        HistoryStats {
            fetches: load(&c.fetches),
            fetched_bytes: load(&c.fetched_bytes),
            incremental_fetches: load(&c.incremental_fetches),
            incremental_bytes: load(&c.incremental_bytes),
            ..self.shared.table.read().stats()
        }
    }
}

impl AsyncBcast<Vec<f64>> {
    /// Publishes a new version by *copying* `w` into a snapshot buffer —
    /// recycling the buffer of a pruned version when one is free, so a
    /// steady-state push is a `memcpy`, not an allocation. Identical
    /// version/pruning semantics (and identical values) to
    /// `push(w.to_vec())`.
    pub fn push_snapshot(&self, w: &[f64]) -> u64 {
        self.push_snapshot_inner(w, None)
    }

    /// Like [`AsyncBcast::push_snapshot`], additionally declaring which
    /// coordinates this version's update changed: the support of `changed`
    /// enters the incremental ring, making the version spannable by
    /// version-diff patches.
    ///
    /// **Contract:** every coordinate where the new model differs from the
    /// previous version must be in `changed`'s support (a dense `changed`
    /// records an unknown support, forcing the snapshot fallback). The
    /// optimizer upholds this by passing exactly the update it applied.
    pub fn push_snapshot_diff(&self, w: &[f64], changed: &GradDelta) -> u64 {
        let sparse_support = match changed {
            GradDelta::Sparse(s) => Some(s.indices()),
            GradDelta::Dense(_) => None,
        };
        self.push_snapshot_inner(w, sparse_support)
    }

    /// Like [`AsyncBcast::push_snapshot_diff`], but the change support
    /// arrives as a bare sorted index slice — the shape the server's
    /// batched absorption produces (its fold support); `None` declares a
    /// dense (unknown) change. `pool` is ignored: the copy runs on the
    /// caller. The parameter is kept for the frozen `benchmark/` harness
    /// and goes with ROADMAP item 10.
    pub fn push_snapshot_sharded(
        &self,
        w: &[f64],
        support: Option<&[u32]>,
        _pool: &async_linalg::ShardPool,
    ) -> u64 {
        self.push_snapshot_inner(w, support)
    }

    fn push_snapshot_inner(&self, w: &[f64], sparse_support: Option<&[u32]>) -> u64 {
        let mut t = self.shared.table.write();
        let value = t.snapshot_of(w);
        let support = t.change_support(sparse_support);
        t.publish(value, support)
    }
}

#[cfg(test)]
mod tests {
    use async_linalg::CompressedDelta;
    use sparklet::WorkerCtx;

    use super::resolve::patch_wire_len;
    use super::*;

    fn bcast(n: u64) -> AsyncBcast<Vec<f64>> {
        AsyncBcast::new(0, vec![0.0; 4], n)
    }

    #[test]
    fn push_advances_versions() {
        let b = bcast(10);
        assert_eq!(b.latest_version(), 0);
        assert_eq!(b.push(vec![1.0; 4]), 1);
        assert_eq!(b.push(vec![2.0; 4]), 2);
        assert_eq!(b.latest_version(), 2);
        assert_eq!(b.stats().versions_pushed, 3);
    }

    #[test]
    fn index_versions_default_to_base() {
        let b = bcast(10);
        assert_eq!(b.version_for_index(7), 0);
        b.push(vec![1.0; 4]);
        b.record_use(&[7], 1);
        assert_eq!(b.version_for_index(7), 1);
        assert_eq!(b.version_for_index(3), 0);
    }

    #[test]
    fn worker_cache_hit_after_first_fetch() {
        let b = bcast(10);
        b.push(vec![1.0; 4]);
        let h = b.handle();
        let mut ctx = WorkerCtx::new(0);
        let v1 = h.value(&mut ctx);
        assert_eq!(v1[0], 1.0);
        assert_eq!(b.stats().fetches, 1);
        let _v2 = h.value(&mut ctx);
        assert_eq!(
            b.stats().fetches,
            1,
            "second access must hit the worker cache"
        );
        let charged = ctx.take_charges();
        assert_eq!(charged, (vec![1.0f64; 4]).encoded_len());
    }

    #[test]
    fn historical_versions_resolvable_until_released() {
        let b = bcast(4);
        b.push(vec![1.0; 4]); // v1
        b.record_use(&[0, 1], 1);
        b.push(vec![2.0; 4]); // v2
        let h = b.handle();
        let mut ctx = WorkerCtx::new(0);
        // Sample 0 last saw v1; sample 2 still implicitly at v0.
        assert_eq!(h.value_at(&mut ctx, b.version_for_index(0))[0], 1.0);
        assert_eq!(h.value_at(&mut ctx, b.version_for_index(2))[0], 0.0);
    }

    #[test]
    fn pruning_drops_unreferenced_versions() {
        let b = bcast(2);
        b.push(vec![1.0; 4]); // v1
        b.record_use(&[0, 1], 1); // all indices explicit: v0 released
        assert_eq!(b.stats().versions_live, 1, "only v1 lives: {:?}", b.stats());
        b.push(vec![2.0; 4]); // v2
                              // v1 still referenced by both indices.
        assert_eq!(b.stats().versions_live, 2);
        b.record_use(&[0], 2);
        // v1 still referenced by index 1.
        assert_eq!(b.stats().versions_live, 2);
        b.record_use(&[1], 2);
        // Now v1 unreferenced and not latest: pruned.
        assert_eq!(b.stats().versions_live, 1);
    }

    #[test]
    fn base_stays_pinned_while_universe_incomplete() {
        let b = bcast(3);
        b.push(vec![1.0; 4]);
        b.record_use(&[0, 1], 1); // index 2 never recorded: v0 pinned
        assert_eq!(b.stats().versions_live, 2);
        let h = b.handle();
        let mut ctx = WorkerCtx::new(0);
        assert_eq!(h.value_at(&mut ctx, 0)[0], 0.0);
    }

    #[test]
    fn latest_is_never_pruned() {
        let b = bcast(1);
        b.record_use(&[0], 0);
        for i in 0..5 {
            let v = b.push(vec![i as f64; 4]);
            b.record_use(&[0], v);
            let s = b.stats();
            assert_eq!(s.versions_live, 1, "only latest should live");
        }
    }

    #[test]
    fn eviction_watermark_trims_worker_caches() {
        let b = bcast(1);
        let mut ctx = WorkerCtx::new(0);
        // Fetch v0 into the cache.
        b.handle().value_at(&mut ctx, 0);
        assert_eq!(ctx.cache_len(), 1);
        b.record_use(&[0], 0);
        let v1 = b.push(vec![1.0; 4]);
        b.record_use(&[0], v1); // v0 pruned on the server
                                // A new handle carries the advanced watermark; resolving evicts v0.
        let h = b.handle();
        h.value(&mut ctx);
        assert_eq!(ctx.cache_len(), 1, "stale v0 evicted, v1 cached");
    }

    #[test]
    fn pins_protect_inflight_versions() {
        let b = bcast(1);
        b.record_use(&[0], 0);
        let v1 = b.push(vec![1.0; 4]);
        b.pin(v1);
        b.record_use(&[0], v1);
        let v2 = b.push(vec![2.0; 4]);
        // Index 0 moves on to v2: v1's rc drops to 0, but the pin keeps it.
        b.record_use(&[0], v2);
        assert_eq!(b.stats().versions_live, 2, "pinned v1 must survive");
        b.unpin(v1);
        assert_eq!(b.stats().versions_live, 1, "unpinning releases v1");
    }

    #[test]
    fn read_pin_resolves_latest_without_fetch_side_effects() {
        let b = bcast(1);
        b.push(vec![1.0; 4]);
        let pin = b.pin_read();
        assert_eq!(pin.version(), 1);
        assert_eq!(pin[0], 1.0, "guard derefs to the snapshot");
        assert_eq!(pin.value()[3], 1.0);
        let s = b.stats();
        assert_eq!(
            s.fetches, 0,
            "pin_read is server-side: no worker fetch, no cache traffic"
        );
    }

    #[test]
    fn pinned_read_version_never_recycled_while_training_advances() {
        // The serving contract: a reader pins a version, then training
        // pushes many new versions and retires all sample references to
        // the pinned one. The reader's snapshot must stay live and
        // bit-identical until the guard drops.
        let b = bcast(1);
        b.record_use(&[0], 0);
        let v1 = b.push(vec![1.0; 4]);
        b.record_use(&[0], v1);
        let pin = b.pin_read();
        assert_eq!(pin.version(), v1);
        for i in 2..30 {
            let v = b.push(vec![i as f64; 4]);
            b.record_use(&[0], v); // rc on v1 long gone; only the pin holds it
            assert_eq!(
                b.stats().versions_live,
                2,
                "pinned v1 + latest must both live at step {i}"
            );
            assert_eq!(*pin.value(), vec![1.0; 4], "snapshot bit-identical");
        }
        drop(pin);
        assert_eq!(
            b.stats().versions_live,
            1,
            "dropping the last reader reclaims the version at once"
        );
        // And the reclaimed buffer is recyclable: the next snapshot push
        // reuses it instead of allocating.
        let before = b.stats().recycled_buffers;
        b.push_snapshot(&[9.0; 4]);
        assert_eq!(b.stats().recycled_buffers, before + 1);
    }

    #[test]
    fn try_pin_read_at_rejects_pruned_and_unknown_versions() {
        let b = bcast(1);
        b.record_use(&[0], 0);
        let v1 = b.push(vec![1.0; 4]);
        b.record_use(&[0], v1); // v0 pruned and its slot trimmed
        b.pin(v1);
        let v2 = b.push(vec![2.0; 4]);
        b.record_use(&[0], v2);
        let v3 = b.push(vec![3.0; 4]);
        b.record_use(&[0], v3); // v2 pruned; the pinned v1 keeps its slot
        assert_eq!(b.stats().version_slots, 3, "v1..=v3, v2 empty");
        assert!(b.try_pin_read_at(v2).is_none(), "pruned version");
        assert!(b.try_pin_read_at(0).is_none(), "trimmed version");
        assert!(b.try_pin_read_at(99).is_none(), "unknown version");
        let pin = b.try_pin_read_at(v3).expect("latest is live");
        assert_eq!(pin[0], 3.0);
        b.unpin(v1);
        assert_eq!(b.stats().version_slots, 1, "v1 and v2 trimmed");
        assert!(b.try_pin_read_at(v1).is_none(), "trimmed version");
    }

    #[test]
    fn version_slots_stay_bounded_by_the_live_span() {
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(0, vec![0.0; 4], 0);
        for k in 0..10_000 {
            b.push_snapshot(&[k as f64; 4]);
        }
        let s = b.stats();
        assert_eq!((s.versions_pushed, s.versions_live), (10_001, 1));
        assert!(
            s.version_slots <= 2,
            "{} slots for one live version",
            s.version_slots
        );
        // A trimmed version reads as pruned: unpinning it does nothing.
        b.unpin(0);
        assert_eq!(b.stats(), s);
    }

    #[test]
    #[should_panic(expected = "already pruned")]
    fn pinning_a_trimmed_version_panics() {
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(0, vec![0.0; 4], 0);
        b.push_snapshot(&[1.0; 4]);
        b.pin(0);
    }

    #[test]
    fn concurrent_read_pins_share_a_version_safely() {
        let b = bcast(1);
        b.record_use(&[0], 0);
        let v1 = b.push(vec![1.0; 4]);
        b.record_use(&[0], v1);
        let p1 = b.pin_read();
        let p2 = b.try_pin_read_at(v1).expect("pinned version stays live");
        let v2 = b.push(vec![2.0; 4]);
        b.record_use(&[0], v2);
        drop(p1);
        assert_eq!(b.stats().versions_live, 2, "second pin still holds v1");
        assert_eq!(p2[0], 1.0);
        drop(p2);
        assert_eq!(b.stats().versions_live, 1);
    }

    #[test]
    fn id_ship_bytes_is_linear_in_batch() {
        assert_eq!(AsyncBcast::<Vec<f64>>::id_ship_bytes(0), 8);
        assert_eq!(AsyncBcast::<Vec<f64>>::id_ship_bytes(100), 808);
    }

    #[test]
    fn history_broadcast_ships_sparse_deltas() {
        // Broadcast payloads can carry sparse gradient deltas: the charged
        // fetch is the delta's sparse wire size (Payload::encoded_len),
        // not the embedding dimension.
        use async_linalg::{GradDelta, SparseVec};
        let sv = SparseVec::from_pairs(vec![(2, 1.0), (40, -2.0), (900, 0.5)], 1000).unwrap();
        let delta = GradDelta::Sparse(sv);
        let wire = delta.encoded_len();
        let b: AsyncBcast<GradDelta> = AsyncBcast::new(0, delta, 1);
        let h = b.handle();
        let mut ctx = WorkerCtx::new(0);
        let v = h.value(&mut ctx);
        assert!(matches!(*v, GradDelta::Sparse(_)));
        assert_eq!(v.nnz(), 3);
        let s = b.stats();
        assert_eq!(s.fetched_bytes, wire);
        assert!(
            s.fetched_bytes < 8 * 1000 / 10,
            "sparse payload ({} B) must undercut the dense encoding",
            s.fetched_bytes
        );
    }

    fn sparse_delta(pairs: &[(u32, f64)], dim: usize) -> GradDelta {
        GradDelta::Sparse(
            async_linalg::SparseVec::from_pairs(pairs.to_vec(), dim).expect("valid pairs"),
        )
    }

    /// An incremental model broadcast over `dim` dense coordinates with a
    /// ring of `cap` supports, pre-warmed into `ctx`'s cache at version 0.
    fn incr_bcast(dim: usize, cap: usize, ctx: &mut WorkerCtx) -> AsyncBcast<Vec<f64>> {
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(7, vec![0.0; dim], 0);
        b.enable_incremental(cap);
        b.handle().value_incremental(ctx); // cold full fetch of v0
        b
    }

    #[test]
    fn incremental_fetch_ships_patch_and_reconstructs_exactly() {
        let dim = 100;
        let mut ctx = WorkerCtx::new(0);
        let b = incr_bcast(dim, 8, &mut ctx);
        let dense_bytes = (vec![0.0f64; dim]).encoded_len();
        assert_eq!(b.stats().fetched_bytes, dense_bytes);
        // Three sparse updates; the worker skips two versions.
        let mut w = vec![0.0; dim];
        let updates = [
            sparse_delta(&[(3, 1.5), (40, -2.0)], dim),
            sparse_delta(&[(3, 0.25), (77, 9.0)], dim),
            sparse_delta(&[(12, -1.0)], dim),
        ];
        for u in &updates {
            u.axpy_into(1.0, &mut w);
            b.push_snapshot_diff(&w, u);
        }
        let got = b.handle().value_incremental(&mut ctx);
        assert_eq!(got.as_slice(), w.as_slice(), "bit-exact reconstruction");
        let s = b.stats();
        assert_eq!(s.incremental_fetches, 1);
        // Union support {3, 12, 40, 77}: header, four one-byte index
        // varints, four f64 values.
        assert_eq!(s.incremental_bytes, 16 + 4 + 8 * 4);
        assert_eq!(s.fetched_bytes, dense_bytes + 16 + 4 + 8 * 4);
        // The patched value is cached: resolving again is free.
        b.handle().value_incremental(&mut ctx);
        assert_eq!(b.stats().fetches, 2);
    }

    #[test]
    fn exact_resolve_shares_the_snapshot_and_hands_the_base_back() {
        let dim = 64;
        let mut ctx = WorkerCtx::new(0);
        let b = incr_bcast(dim, 8, &mut ctx);
        let base_ptr = b.handle().value_incremental(&mut ctx).as_ptr();
        let mut w = vec![0.0; dim];
        w[5] = 1.0;
        // The push prunes v0 while the worker's cache still shares it, so
        // the pruner cannot recycle its buffer.
        b.push_snapshot_diff(&w, &sparse_delta(&[(5, 1.0)], dim));
        let got = b.handle().value_incremental(&mut ctx);
        assert_eq!(b.stats().incremental_fetches, 1, "charged as a patch");
        assert_eq!(
            got.as_ptr(),
            b.pin_read().as_ptr(),
            "the worker holds the server's snapshot, not a copy"
        );
        assert_eq!(ctx.cache_len(), 1, "the base left the cache");
        // The worker was v0's last owner: its buffer is the next push's.
        w[9] = 2.0;
        b.push_snapshot_diff(&w, &sparse_delta(&[(9, 2.0)], dim));
        assert_eq!(b.stats().recycled_buffers, 1);
        assert_eq!(b.pin_read().as_ptr(), base_ptr);
    }

    #[test]
    fn fresh_worker_takes_the_full_snapshot_fallback() {
        let dim = 50;
        let mut warm = WorkerCtx::new(0);
        let b = incr_bcast(dim, 8, &mut warm);
        b.push_snapshot_diff(&vec![1.0; dim], &sparse_delta(&[(0, 1.0)], dim));
        // A worker with an empty cache (a churn revival) has no base.
        let mut fresh = WorkerCtx::new(1);
        let v = b.handle().value_incremental(&mut fresh);
        assert_eq!(v[1], 1.0);
        assert_eq!(b.stats().incremental_fetches, 0);
    }

    #[test]
    fn gap_beyond_ring_falls_back_to_snapshot() {
        let dim = 50;
        let mut ctx = WorkerCtx::new(0);
        let b = incr_bcast(dim, 2, &mut ctx);
        let mut w = vec![0.0; dim];
        for k in 0..5u32 {
            let u = sparse_delta(&[(k, 1.0)], dim);
            u.axpy_into(1.0, &mut w);
            b.push_snapshot_diff(&w, &u);
        }
        // Gap 0 -> 5 spans versions 1..=5 but the ring only holds {4, 5}.
        let got = b.handle().value_incremental(&mut ctx);
        assert_eq!(got.as_slice(), w.as_slice());
        assert_eq!(b.stats().incremental_fetches, 0);
        // From the now-cached v5, a one-step gap patches incrementally.
        let u = sparse_delta(&[(9, 2.0)], dim);
        u.axpy_into(1.0, &mut w);
        b.push_snapshot_diff(&w, &u);
        let got = b.handle().value_incremental(&mut ctx);
        assert_eq!(got.as_slice(), w.as_slice());
        assert_eq!(b.stats().incremental_fetches, 1);
    }

    #[test]
    fn dense_support_version_blocks_the_span() {
        let dim = 50;
        let mut ctx = WorkerCtx::new(0);
        let b = incr_bcast(dim, 8, &mut ctx);
        let mut w = vec![0.0; dim];
        w[0] = 1.0;
        b.push_snapshot_diff(&w, &sparse_delta(&[(0, 1.0)], dim));
        // A full-support update (e.g. a ridge shrink) declares dense.
        for wi in w.iter_mut() {
            *wi += 0.5;
        }
        b.push_snapshot_diff(&w, &GradDelta::Dense(vec![0.5; dim]));
        let got = b.handle().value_incremental(&mut ctx);
        assert_eq!(got.as_slice(), w.as_slice());
        assert_eq!(
            b.stats().incremental_fetches,
            0,
            "a dense-change version must force the snapshot fallback"
        );
    }

    #[test]
    fn oversized_patch_falls_back_to_snapshot() {
        // Patch wire (16 + 9·nnz here) must undercut the dense wire
        // (8 + 8·dim); with dim 10 and an 8-coordinate change it cannot.
        let dim = 10;
        let mut ctx = WorkerCtx::new(0);
        let b = incr_bcast(dim, 8, &mut ctx);
        let pairs: Vec<(u32, f64)> = (0..8).map(|i| (i as u32, 1.0)).collect();
        let u = sparse_delta(&pairs, dim);
        let mut w = vec![0.0; dim];
        u.axpy_into(1.0, &mut w);
        b.push_snapshot_diff(&w, &u);
        let got = b.handle().value_incremental(&mut ctx);
        assert_eq!(got.as_slice(), w.as_slice());
        assert_eq!(b.stats().incremental_fetches, 0);
    }

    #[test]
    fn support_slice_push_matches_delta_push() {
        let dim = 40;
        let a: AsyncBcast<Vec<f64>> = AsyncBcast::new(0, vec![0.0; dim], 0);
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(0, vec![0.0; dim], 0);
        a.enable_incremental(4);
        b.enable_incremental(4);
        let mut ctx_a = WorkerCtx::new(0);
        let mut ctx_b = WorkerCtx::new(0);
        a.handle().value_incremental(&mut ctx_a);
        b.handle().value_incremental(&mut ctx_b);
        let delta = sparse_delta(&[(3, 1.0), (17, -2.0)], dim);
        let mut w = vec![0.0; dim];
        delta.axpy_into(1.0, &mut w);
        a.push_snapshot_diff(&w, &delta);
        b.push_snapshot_sharded(&w, Some(&[3, 17]), &async_linalg::ShardPool::new(1));
        let va = a.handle().value_incremental(&mut ctx_a);
        let vb = b.handle().value_incremental(&mut ctx_b);
        assert_eq!(va.as_slice(), vb.as_slice());
        assert_eq!(a.stats().incremental_fetches, 1);
        assert_eq!(b.stats().incremental_fetches, 1);
    }

    #[test]
    fn push_snapshot_recycles_pruned_buffers() {
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(0, vec![0.0; 32], 0);
        // No samples pin history, so each push prunes its predecessor; the
        // pruned buffer must be reused from the third push on (the first
        // push finds no free buffer, the prune of v0 stocks the pool).
        for k in 0..6 {
            b.push_snapshot(&vec![k as f64; 32]);
        }
        let s = b.stats();
        assert_eq!(s.versions_live, 1);
        assert!(
            s.recycled_buffers >= 4,
            "pushes should recycle pruned snapshot buffers: {s:?}"
        );
    }

    #[test]
    fn incremental_disabled_behaves_exactly_like_value() {
        let dim = 20;
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(0, vec![0.0; dim], 0);
        let mut ctx = WorkerCtx::new(0);
        b.handle().value_incremental(&mut ctx);
        let mut w = vec![0.0; dim];
        w[3] = 2.0;
        b.push_snapshot_diff(&w, &sparse_delta(&[(3, 2.0)], dim));
        let got = b.handle().value_incremental(&mut ctx);
        assert_eq!(got.as_slice(), w.as_slice());
        let s = b.stats();
        assert_eq!(s.incremental_fetches, 0, "ring disabled: full fetches only");
        assert_eq!(s.fetches, 2);
        assert_eq!(s.fetched_bytes, 2 * (8 + 8 * dim as u64));
    }

    #[test]
    fn wire_plans_track_value_incremental_exactly() {
        // Two identically driven broadcasts: one resolved in process, one
        // planned against a driver-side mirror and applied on a "remote"
        // worker ctx. Values, traffic stats, and cache shapes must agree
        // at every step, and the plan kinds must follow the same
        // patch/snapshot decisions. The in-process side only *sizes* its
        // exact patches (from the bitmap) while the plans ship theirs, so
        // the second case resolves every other push (two-list unions) over
        // a support whose first index and gaps need 2- and 3-byte varints.
        type Update = fn(u32) -> Vec<(u32, f64)>;
        let near: Update = |k| vec![(k % 120, 1.0), (k * 7 % 120, -0.5)];
        let far: Update = |k| {
            vec![
                (130 + k, 1.0),
                (130 + 200 * (k + 1), -0.5),
                (20_000 + 17_000 * (k % 2), 0.25),
            ]
        };
        for (dim, stride, update) in [(120, 1, near), (40_000, 2, far)] {
            let local: AsyncBcast<Vec<f64>> = AsyncBcast::new(7, vec![0.0; dim], 0);
            let wired: AsyncBcast<Vec<f64>> = AsyncBcast::new(7, vec![0.0; dim], 0);
            local.enable_incremental(4);
            wired.enable_incremental(4);
            let mut ctx = WorkerCtx::new(0); // in-process worker
            let mut mirror = WorkerCtx::new(0); // driver-side mirror
            let mut remote = WorkerCtx::new(0); // networked worker
            let mut w = vec![0.0; dim];
            let mut saw_patch = false;
            let mut saw_snapshot = false;
            let mut saw_wide_gap = false;
            let mut mirror_charged = 0u64;
            for k in 0..6 * stride {
                let u = if k == 4 {
                    // One dense update mid-stream forces a snapshot fallback.
                    for wi in w.iter_mut() {
                        *wi += 0.25;
                    }
                    GradDelta::Dense(vec![0.25; dim])
                } else {
                    let u = sparse_delta(&update(k), dim);
                    u.axpy_into(1.0, &mut w);
                    u
                };
                local.push_snapshot_diff(&w, &u);
                wired.push_snapshot_diff(&w, &u);
                if (k + 1) % stride != 0 {
                    continue;
                }
                let expect = local.handle().value_incremental(&mut ctx);
                let plan = wired.handle().wire_plan(&mut mirror);
                // What the mirror was charged for this plan is what its
                // payload section encodes to on the remote engine's socket.
                let charged = mirror.take_charges();
                mirror_charged += charged;
                match &plan {
                    WirePlan::Patch { patch, .. } => {
                        saw_patch = true;
                        saw_wide_gap |=
                            async_linalg::index_codec::encoded_len(patch.indices()) > patch.nnz();
                        assert_eq!(charged, patch.encoded_len(), "push {k}");
                    }
                    WirePlan::Snapshot { values, .. } => {
                        saw_snapshot = true;
                        assert_eq!(charged, values.encoded_len(), "push {k}");
                    }
                    WirePlan::Cached { .. } => assert_eq!(charged, 0),
                    WirePlan::QPatch { .. } => panic!("quantization is off"),
                }
                let got = plan.apply(&mut remote, wired.id()).unwrap();
                assert_eq!(got.as_slice(), expect.as_slice(), "push {k}");
                assert_eq!(ctx.cache_len(), mirror.cache_len(), "push {k}");
                assert_eq!(ctx.cache_len(), remote.cache_len(), "push {k}");
                // Re-planning the same version is a cache hit on the mirror.
                let again = wired.handle().wire_plan(&mut mirror);
                assert!(matches!(again, WirePlan::Cached { .. }), "push {k}");
                assert_eq!(
                    again.apply(&mut remote, wired.id()).unwrap().as_slice(),
                    expect.as_slice()
                );
            }
            assert!(saw_patch && saw_snapshot, "both plan kinds exercised");
            assert_eq!(saw_wide_gap, dim > 120, "multi-byte index varints");
            let (a, b) = (local.stats(), wired.stats());
            assert_eq!(a.fetches, b.fetches);
            assert_eq!(a.fetched_bytes, b.fetched_bytes);
            assert_eq!(a.incremental_fetches, b.incremental_fetches);
            assert_eq!(a.incremental_bytes, b.incremental_bytes);
            // The mirror charged the same wire bytes the in-process worker did.
            assert_eq!(ctx.take_charges(), mirror_charged);
        }
    }

    #[test]
    fn quantized_patches_track_wire_plans_bitwise_and_stay_near_target() {
        // Same twin-broadcast drill as above, but with diff-quantized
        // patches: the in-process resolution, the driver mirror, and the
        // remote apply must still agree bitwise (on the *quantized*
        // trajectory), every patch counted must be a quantized plan, and the
        // reconstruction must stay within the per-patch error bound of the
        // exact model.
        let quant = Quant::I8;
        let dim = 120;
        let local: AsyncBcast<Vec<f64>> = AsyncBcast::new(7, vec![0.0; dim], 0);
        let wired: AsyncBcast<Vec<f64>> = AsyncBcast::new(7, vec![0.0; dim], 0);
        local.enable_incremental(4);
        wired.enable_incremental(4);
        local.set_patch_quant(quant);
        wired.set_patch_quant(quant);
        let mut ctx = WorkerCtx::new(0);
        let mut mirror = WorkerCtx::new(0);
        let mut remote = WorkerCtx::new(0);
        let mut w = vec![0.0; dim];
        let (mut qpatches, mut qpatch_bytes) = (0u64, 0u64);
        for k in 0..10u32 {
            let u = sparse_delta(
                &[
                    (k % dim as u32, 1.0 + f64::from(k)),
                    (k * 7 % dim as u32, -0.5),
                ],
                dim,
            );
            u.axpy_into(1.0, &mut w);
            local.push_snapshot_diff(&w, &u);
            wired.push_snapshot_diff(&w, &u);
            let expect = local.handle().value_incremental(&mut ctx);
            let plan = wired.handle().wire_plan(&mut mirror);
            let charged = mirror.take_charges();
            if let WirePlan::QPatch { ref delta, .. } = plan {
                qpatches += 1;
                qpatch_bytes += charged;
                let CompressedDelta::I8 { scale, .. } = delta else {
                    panic!("wrong frame for the configured quant: {delta:?}");
                };
                assert!(scale.is_finite() && *scale >= 0.0);
                assert_eq!(delta.dim(), dim);
                assert_eq!(charged, delta.encoded_len(), "{quant:?} push {k}");
            }
            let got = plan.apply(&mut remote, wired.id()).unwrap();
            assert_eq!(got.as_slice(), expect.as_slice(), "{quant:?} push {k}");
            // Per-coordinate error of the quantized trajectory vs the
            // exact model: bounded by the format's relative error times
            // each patch's scale; with these O(10) magnitudes a loose
            // absolute bound suffices and catches scale/code mixups.
            for (gi, wi) in got.iter().zip(w.iter()) {
                assert!((gi - wi).abs() <= 0.5, "{quant:?} push {k}: {gi} vs {wi}");
            }
        }
        assert!(qpatches > 0, "{quant:?}: quantized patches exercised");
        // Every patch either side shipped was one of the quantized plans.
        let (a, b) = (local.stats(), wired.stats());
        assert_eq!(
            (a.incremental_fetches, a.incremental_bytes),
            (qpatches, qpatch_bytes)
        );
        assert_eq!(
            (b.incremental_fetches, b.incremental_bytes),
            (qpatches, qpatch_bytes)
        );
        // Quantized patches are cheaper on the wire than exact ones
        // would have been (every patch here spans two coordinates).
        assert!(qpatch_bytes < qpatches * patch_wire_len(Quant::Exact, &[0, 1]));
        assert_eq!(a.fetched_bytes, b.fetched_bytes);
    }

    #[test]
    fn exact_patch_quant_is_the_default_and_changes_nothing() {
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(1, vec![0.0; 8], 0);
        b.enable_incremental(4);
        let mut ctx = WorkerCtx::new(0);
        let mut w = vec![0.0; 8];
        for k in 0..4u32 {
            let u = sparse_delta(&[(k % 8, 2.0)], 8);
            u.axpy_into(1.0, &mut w);
            b.push_snapshot_diff(&w, &u);
            let got = b.handle().value_incremental(&mut ctx);
            assert_eq!(got.as_slice(), w.as_slice());
        }
        // A cold snapshot fetch of v1, then one exact one-coordinate patch
        // per later push.
        let s = b.stats();
        assert_eq!(s.incremental_fetches, 3);
        let exact: u64 = (1..4).map(|k| patch_wire_len(Quant::Exact, &[k])).sum();
        assert_eq!(s.incremental_bytes, exact);
    }

    #[test]
    fn wire_plan_at_resolves_history_for_fresh_and_warm_workers() {
        let b = bcast(4);
        b.push(vec![1.0; 4]); // v1
        b.record_use(&[0, 1], 1);
        b.push(vec![2.0; 4]); // v2
        let h = b.handle();
        let mut mirror = WorkerCtx::new(0);
        let mut remote = WorkerCtx::new(0);
        // Fresh worker: historical v1 ships as a snapshot...
        let plan = h.wire_plan_at(&mut mirror, 1);
        assert!(matches!(plan, WirePlan::Snapshot { version: 1, .. }));
        assert_eq!(plan.apply(&mut remote, h.id()).unwrap()[0], 1.0);
        // ...and planning it again is a cache hit.
        let plan = h.wire_plan_at(&mut mirror, 1);
        assert!(matches!(plan, WirePlan::Cached { version: 1, .. }));
        assert_eq!(plan.apply(&mut remote, h.id()).unwrap()[0], 1.0);
        assert_eq!(b.stats().fetches, 1);
    }

    #[test]
    fn reseated_table_continues_version_numbering() {
        // The resume path: a broadcast seated at base 100 numbers its
        // versions from there, treats never-recorded samples as implicit
        // references to the base, and rejects reads below the base.
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new_at(0, vec![5.0; 4], 3, 100);
        assert_eq!(b.latest_version(), 100);
        assert_eq!(
            b.version_for_index(2),
            100,
            "implicit reference is the base"
        );
        let v = b.push(vec![6.0; 4]);
        assert_eq!(v, 101);
        b.record_use(&[0, 1], v);
        // Index 2 still implicitly references the base: it must stay live.
        assert_eq!(b.stats().versions_live, 2);
        let h = b.handle();
        let mut ctx = WorkerCtx::new(0);
        assert_eq!(h.value_at(&mut ctx, b.version_for_index(2))[0], 5.0);
        assert!(b.try_pin_read_at(99).is_none(), "below the base");
        let pin = b.pin_read();
        assert_eq!(pin.version(), 101);
        drop(pin);
        // Once the whole universe is explicit the base is reclaimed.
        b.record_use(&[2], v);
        assert_eq!(b.stats().versions_live, 1);
    }

    #[test]
    fn reseated_table_prunes_and_recycles_like_a_fresh_one() {
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new_at(0, vec![0.0; 32], 0, 40);
        for k in 0..6 {
            assert_eq!(b.push_snapshot(&vec![k as f64; 32]), 41 + k);
        }
        let s = b.stats();
        assert_eq!(s.versions_live, 1);
        assert!(s.recycled_buffers >= 4, "recycling survives the re-seat");
    }

    #[test]
    fn reseated_incremental_patches_reconstruct_exactly() {
        let dim = 100;
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new_at(7, vec![1.0; dim], 0, 64);
        b.enable_incremental(8);
        let mut ctx = WorkerCtx::new(0);
        b.handle().value_incremental(&mut ctx); // cold fetch of the base
        let mut w = vec![1.0; dim];
        for k in 0..3u32 {
            let u = sparse_delta(&[(3 + k, 0.5)], dim);
            u.axpy_into(1.0, &mut w);
            b.push_snapshot_diff(&w, &u);
        }
        let got = b.handle().value_incremental(&mut ctx);
        assert_eq!(got.as_slice(), w.as_slice(), "bit-exact across the base");
        assert_eq!(b.stats().incremental_fetches, 1);
    }

    #[test]
    #[should_panic(expected = "pruned")]
    fn resolving_pruned_version_panics() {
        let b = bcast(1);
        b.record_use(&[0], 0);
        b.push(vec![1.0; 4]);
        b.record_use(&[0], 1); // v0 pruned
        let mut ctx = WorkerCtx::new(0);
        b.handle().value_at(&mut ctx, 0);
    }
}

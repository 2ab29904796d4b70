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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use async_linalg::{
    compress, sparse, sparse_wire_len, CompressedDelta, GradDelta, Quant, SparseVec,
};
use parking_lot::RwLock;
use sparklet::{Payload, WorkerCtx};

/// Counters describing a history broadcast's traffic and memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistoryStats {
    /// Versions pushed so far.
    pub versions_pushed: u64,
    /// Versions currently retained on the server.
    pub versions_live: u64,
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
    /// Patches shipped with quantized (int8) values instead of full
    /// `f64`s (a subset of `incremental_fetches`).
    pub quantized_patches: u64,
    /// Bytes shipped for those quantized patches (included in both
    /// `fetched_bytes` and `incremental_bytes`).
    pub quantized_patch_bytes: u64,
}

struct Entry<T> {
    value: Arc<T>,
    bytes: u64,
    rc: u64,
    /// In-flight pins: tasks computing against this version hold a pin
    /// from submission to result consumption, so the version outlives the
    /// gap between issue and the `record_use` that references it.
    pins: u64,
}

/// The coordinates one pushed version changed relative to its predecessor.
enum ChangeSupport {
    /// Exactly these coordinates changed (strictly increasing).
    Sparse(Vec<u32>),
    /// Unknown or full-dimension change: any gap spanning this version
    /// must take the full-snapshot fallback.
    Dense,
}

/// An `index_version` slot never recorded: it reads as the base version.
const UNRECORDED: u64 = u64::MAX;

struct VersionTable<T> {
    versions: Vec<Option<Entry<T>>>,
    /// The version each sample last saw, indexed by sample id over the
    /// whole universe (`n` in SAGA); [`UNRECORDED`] reads as `base`.
    index_version: Vec<u64>,
    /// Samples with an explicit entry: once it reaches the universe size,
    /// the base version can no longer be implicitly referenced.
    recorded: u64,
    /// Version number of `versions[0]`. Zero for a fresh broadcast; a
    /// resumed run re-seats the table at the checkpoint's model version
    /// ([`AsyncBcast::new_at`]) so version IDs keep counting from where
    /// the crashed run left off instead of restarting at zero.
    base: u64,
    min_live: u64,
    live_count: u64,
    live_bytes: u64,
    /// Bounded ring of `(version, change support)` for recent pushes; empty
    /// ring / zero capacity means incremental resolution is disabled.
    ring: VecDeque<(u64, ChangeSupport)>,
    ring_capacity: usize,
    /// Value quantization applied to shipped patches (`Exact` = today's
    /// bit-exact full-precision patches).
    patch_quant: Quant,
    /// Recycled storage: snapshot buffers reclaimed from pruned versions
    /// and support buffers reclaimed from evicted ring slots.
    free_snapshots: Vec<T>,
    free_supports: Vec<Vec<u32>>,
    recycled: u64,
}

impl<T> VersionTable<T> {
    /// Slot index of version `v` (versions are stored offset by `base`).
    fn idx(&self, v: u64) -> usize {
        debug_assert!(v >= self.base, "version {v} precedes table base");
        (v - self.base) as usize
    }

    fn latest(&self) -> u64 {
        self.base + (self.versions.len() - 1) as u64
    }

    fn base_pinned(&self) -> bool {
        self.recorded < self.index_version.len() as u64
    }

    /// The version sample `idx` last saw (the base if never recorded).
    fn version_of(&self, idx: u64) -> u64 {
        match self.index_version.get(idx as usize) {
            Some(&v) if v != UNRECORDED => v,
            _ => self.base,
        }
    }

    fn prunable(&self, v: u64) -> bool {
        if v == self.latest() {
            return false;
        }
        if v == self.base && self.base_pinned() {
            return false;
        }
        match &self.versions[self.idx(v)] {
            Some(e) => e.rc == 0 && e.pins == 0,
            None => false,
        }
    }

    fn try_prune(&mut self, v: u64) {
        if self.prunable(v) {
            let i = self.idx(v);
            if let Some(e) = self.versions[i].take() {
                self.live_count -= 1;
                self.live_bytes -= e.bytes;
                self.reclaim(e.value);
            }
        }
        // Advance the live watermark past pruned slots.
        while ((self.min_live - self.base) as usize) < self.versions.len()
            && self.versions[(self.min_live - self.base) as usize].is_none()
        {
            self.min_live += 1;
        }
    }

    /// Keeps `value`'s buffer for a later `push_snapshot` when nothing else
    /// still shares it. Called by the pruner and by a worker letting go of
    /// a patch base: a snapshot a worker cache still referenced when it
    /// was pruned is reclaimed here by whichever owner drops it last.
    fn reclaim(&mut self, value: Arc<T>) {
        if self.free_snapshots.len() < 4 {
            if let Ok(value) = Arc::try_unwrap(value) {
                self.free_snapshots.push(value);
            }
        }
    }

    /// Records `support` for a freshly pushed `version` in the ring,
    /// evicting (and recycling) the oldest entry beyond capacity.
    fn ring_record(&mut self, version: u64, support: ChangeSupport) {
        if self.ring_capacity == 0 {
            return;
        }
        self.ring.push_back((version, support));
        while self.ring.len() > self.ring_capacity {
            if let Some((_, ChangeSupport::Sparse(buf))) = self.ring.pop_front() {
                if self.free_supports.len() < self.ring_capacity {
                    self.free_supports.push(buf);
                }
            }
        }
    }

    /// The sparse supports of versions `from..=to`, if every one of them is
    /// in the ring with a known sparse support.
    fn ring_supports(&self, from: u64, to: u64) -> Option<impl Iterator<Item = &[u32]>> {
        fn sparse(slot: &(u64, ChangeSupport)) -> Option<&[u32]> {
            match &slot.1 {
                ChangeSupport::Sparse(s) => Some(s),
                ChangeSupport::Dense => None,
            }
        }
        let &(lo, _) = self.ring.front()?;
        if from < lo || to < from {
            return None;
        }
        // Ring versions are contiguous, so a version's slot is its offset.
        let (a, b) = ((from - lo) as usize, (to - lo) as usize);
        if b >= self.ring.len() {
            return None;
        }
        debug_assert_eq!(self.ring[a].0, from, "ring versions are contiguous");
        let span = || self.ring.range(a..=b);
        span()
            .all(|slot| sparse(slot).is_some())
            .then(|| span().filter_map(sparse))
    }
}

/// Shared traffic counters of one history broadcast.
struct Counters {
    fetches: AtomicU64,
    fetched_bytes: AtomicU64,
    pushed: AtomicU64,
    incremental_fetches: AtomicU64,
    incremental_bytes: AtomicU64,
    quantized_patches: AtomicU64,
    quantized_patch_bytes: AtomicU64,
}

/// Reusable scratch for assembling a version-diff patch's support: the
/// bitmap the gap's change supports are unioned through and the sorted
/// union read back out of it (only for patches whose entries are visited:
/// an in-process exact patch is sized from the bitmap and leaves `union`
/// alone). Patch *values* are never staged here — the
/// in-process engines read them from the target snapshot, and
/// [`HistoryHandle::wire_plan`] gathers them straight into the plan it
/// ships. Scratches live in a checkout/return pool (see [`ScratchStore`])
/// so concurrent incremental fetches on the threaded engine never
/// serialize on one buffer, while a steady-state resolve performs no
/// allocations.
#[derive(Default)]
struct PatchScratch {
    bitmap: sparse::BitmapUnion,
    union: Vec<u32>,
}

/// Pool of patch scratches: the lock is held only for the pop/push, never
/// across patch assembly.
#[derive(Default)]
struct ScratchStore {
    free: RwLock<Vec<PatchScratch>>,
}

impl ScratchStore {
    fn checkout(&self) -> PatchScratch {
        self.free.write().pop().unwrap_or_default()
    }

    fn give_back(&self, s: PatchScratch) {
        self.free.write().push(s);
    }
}

/// A versioned history broadcast. Cheap to clone; clones share the store.
pub struct AsyncBcast<T: Payload + Send + Sync + 'static> {
    id: u64,
    table: Arc<RwLock<VersionTable<T>>>,
    counters: Arc<Counters>,
    patch_scratch: Arc<ScratchStore>,
}

impl<T: Payload + Send + Sync + 'static> Clone for AsyncBcast<T> {
    fn clone(&self) -> Self {
        Self {
            id: self.id,
            table: Arc::clone(&self.table),
            counters: Arc::clone(&self.counters),
            patch_scratch: Arc::clone(&self.patch_scratch),
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
        let bytes = initial.encoded_len();
        let table = VersionTable {
            versions: vec![Some(Entry {
                value: Arc::new(initial),
                bytes,
                rc: 0,
                pins: 0,
            })],
            index_version: vec![UNRECORDED; n_indices as usize],
            recorded: 0,
            base,
            min_live: base,
            live_count: 1,
            live_bytes: bytes,
            ring: VecDeque::new(),
            ring_capacity: 0,
            patch_quant: Quant::Exact,
            free_snapshots: Vec::new(),
            free_supports: Vec::new(),
            recycled: 0,
        };
        Self {
            id,
            table: Arc::new(RwLock::new(table)),
            counters: Arc::new(Counters {
                fetches: AtomicU64::new(0),
                fetched_bytes: AtomicU64::new(0),
                pushed: AtomicU64::new(1),
                incremental_fetches: AtomicU64::new(0),
                incremental_bytes: AtomicU64::new(0),
                quantized_patches: AtomicU64::new(0),
                quantized_patch_bytes: AtomicU64::new(0),
            }),
            patch_scratch: Arc::new(ScratchStore::default()),
        }
    }

    /// Turns on incremental (version-diffed) resolution with a ring of
    /// `ring_capacity` recent per-version change supports. See the module
    /// docs; with capacity 0 the broadcast behaves exactly as before.
    pub fn enable_incremental(&self, ring_capacity: usize) {
        self.table.write().ring_capacity = ring_capacity;
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
        self.table.write().patch_quant = quant;
    }

    /// This broadcast's id (unique within one context).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Publishes a new version of the value; returns its version number.
    /// Only the 8-byte version ID travels with subsequent tasks. With
    /// incremental resolution enabled, a version pushed this way records a
    /// dense (unknown) change support: gaps spanning it fall back to full
    /// snapshots. Use [`AsyncBcast::push_snapshot_diff`] to declare the
    /// changed coordinates.
    pub fn push(&self, value: T) -> u64 {
        let bytes = value.encoded_len();
        let mut t = self.table.write();
        let prev_latest = t.latest();
        t.versions.push(Some(Entry {
            value: Arc::new(value),
            bytes,
            rc: 0,
            pins: 0,
        }));
        t.live_count += 1;
        t.live_bytes += bytes;
        let v = t.latest();
        t.ring_record(v, ChangeSupport::Dense);
        // The previous latest loses its "latest" pin; prune if unreferenced.
        t.try_prune(prev_latest);
        self.counters.pushed.fetch_add(1, Ordering::Relaxed);
        v
    }

    /// Latest version number.
    pub fn latest_version(&self) -> u64 {
        self.table.read().latest()
    }

    /// The version sample `idx` last saw (the table's base version — 0 for
    /// a fresh run — if never recorded) — the paper's "ID of the
    /// previously broadcast variable for the specified index".
    pub fn version_for_index(&self, idx: u64) -> u64 {
        self.table.read().version_of(idx)
    }

    /// [`AsyncBcast::version_for_index`] of every sample in `indices`, in
    /// order, into the cleared `out` — one table lock for the whole batch.
    pub fn versions_for_indices(&self, indices: impl IntoIterator<Item = u64>, out: &mut Vec<u64>) {
        let t = self.table.read();
        out.clear();
        out.extend(indices.into_iter().map(|idx| t.version_of(idx)));
    }

    /// Records that samples `indices` have now been processed at `version`
    /// (SAGA's `update table` step), updating reference counts and pruning
    /// versions that no sample references any more.
    pub fn record_use(&self, indices: &[u64], version: u64) {
        let mut t = self.table.write();
        debug_assert!(
            version >= t.base && t.idx(version) < t.versions.len(),
            "recording unknown version"
        );
        let i = t.idx(version);
        for &idx in indices {
            // invariant: `idx` is inside the universe the table was sized to
            // (the remote decode refuses any other id), so an outside id is
            // a bug that panics here; it never grows the table.
            let old = std::mem::replace(&mut t.index_version[idx as usize], version);
            if let Some(e) = t.versions[i].as_mut() {
                e.rc += 1;
            }
            if old == UNRECORDED {
                // The index previously referenced the base version
                // implicitly; once the whole universe is explicit, the
                // base may go.
                t.recorded += 1;
                if !t.base_pinned() {
                    let b = t.base;
                    t.try_prune(b);
                }
            } else {
                let oi = t.idx(old);
                if let Some(e) = t.versions[oi].as_mut() {
                    e.rc -= 1;
                }
                t.try_prune(old);
            }
        }
    }

    /// Pins `version` against pruning while a task computed at it is in
    /// flight. Call at submission; pair with [`AsyncBcast::unpin`] when the
    /// task's result is consumed (or known lost).
    ///
    /// # Panics
    /// Panics if `version` is unknown or already pruned.
    pub fn pin(&self, version: u64) {
        let mut t = self.table.write();
        let i = t.idx(version);
        t.versions[i]
            .as_mut()
            .unwrap_or_else(|| panic!("pin: history version {version} already pruned"))
            .pins += 1;
    }

    /// Releases one pin on `version`, pruning it if nothing references it
    /// any more.
    pub fn unpin(&self, version: u64) {
        let mut t = self.table.write();
        let i = t.idx(version);
        if let Some(e) = t.versions[i].as_mut() {
            debug_assert!(
                e.pins > 0,
                "unpin without matching pin on version {version}"
            );
            e.pins = e.pins.saturating_sub(1);
        }
        t.try_prune(version);
    }

    /// Bytes of version-ID metadata shipped with a task carrying `samples`
    /// sampled rows (one 8-byte ID each, plus the current version ID).
    pub fn id_ship_bytes(samples: usize) -> u64 {
        8 * (samples as u64 + 1)
    }

    /// A handle capturing the latest version and the live watermark, for
    /// capture in task closures.
    pub fn handle(&self) -> HistoryHandle<T> {
        let t = self.table.read();
        HistoryHandle {
            bcast_id: self.id,
            version: t.latest(),
            min_live: t.min_live,
            table: Arc::clone(&self.table),
            counters: Arc::clone(&self.counters),
            patch_scratch: Arc::clone(&self.patch_scratch),
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
        let mut t = self.table.write();
        let version = t.latest();
        let i = t.idx(version);
        let e = t.versions[i]
            .as_mut()
            .expect("latest version is always live");
        e.pins += 1;
        let value = Some(Arc::clone(&e.value));
        ReadPin {
            version,
            value,
            table: Arc::clone(&self.table),
        }
    }

    /// Pins a **specific** version for a reader, if it is still live.
    /// Returns `None` when `version` is unknown or already pruned — the
    /// non-panicking twin of [`AsyncBcast::pin`] for read paths that race
    /// the pruner.
    pub fn try_pin_read_at(&self, version: u64) -> Option<ReadPin<T>> {
        let mut t = self.table.write();
        if version < t.base || (version - t.base) as usize >= t.versions.len() {
            return None;
        }
        let i = t.idx(version);
        let e = t.versions[i].as_mut()?;
        e.pins += 1;
        let value = Some(Arc::clone(&e.value));
        Some(ReadPin {
            version,
            value,
            table: Arc::clone(&self.table),
        })
    }

    /// Current traffic/memory counters.
    pub fn stats(&self) -> HistoryStats {
        let t = self.table.read();
        HistoryStats {
            versions_pushed: self.counters.pushed.load(Ordering::Relaxed),
            versions_live: t.live_count,
            live_bytes: t.live_bytes,
            fetches: self.counters.fetches.load(Ordering::Relaxed),
            fetched_bytes: self.counters.fetched_bytes.load(Ordering::Relaxed),
            incremental_fetches: self.counters.incremental_fetches.load(Ordering::Relaxed),
            incremental_bytes: self.counters.incremental_bytes.load(Ordering::Relaxed),
            recycled_buffers: t.recycled,
            quantized_patches: self.counters.quantized_patches.load(Ordering::Relaxed),
            quantized_patch_bytes: self.counters.quantized_patch_bytes.load(Ordering::Relaxed),
        }
    }
}

/// RAII read lease on one broadcast version, handed out by
/// [`AsyncBcast::pin_read`] / [`AsyncBcast::try_pin_read_at`].
///
/// While the guard lives, the pinned version cannot be pruned (its `pins`
/// count blocks the version table's prunability check) and its snapshot
/// buffer cannot
/// be recycled into the free pool (the guard's `Arc` clone keeps
/// `Arc::try_unwrap` failing). Dropping the guard releases the pin and
/// immediately re-attempts the prune, so an abandoned old version is
/// reclaimed the moment its last reader leaves.
///
/// The guard derefs to the snapshot value itself; reads are lock-free
/// after construction.
pub struct ReadPin<T: Payload + Send + Sync + 'static> {
    version: u64,
    /// `Some` for the guard's whole life; taken in `drop` *before* the
    /// prune attempt so the last reader's clone doesn't block snapshot
    /// buffer recycling.
    value: Option<Arc<T>>,
    table: Arc<RwLock<VersionTable<T>>>,
}

impl<T: Payload + Send + Sync + 'static> ReadPin<T> {
    /// The pinned version number.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The pinned snapshot value (same as `Deref`).
    pub fn value(&self) -> &T {
        self.value.as_ref().expect("ReadPin value lives until drop")
    }
}

impl<T: Payload + Send + Sync + 'static> std::ops::Deref for ReadPin<T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value()
    }
}

impl<T: Payload + Send + Sync + 'static> std::fmt::Debug for ReadPin<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadPin")
            .field("version", &self.version)
            .finish_non_exhaustive()
    }
}

impl<T: Payload + Send + Sync + 'static> Drop for ReadPin<T> {
    fn drop(&mut self) {
        // Release our share of the snapshot first: if we are the last
        // reader, the prune below can then reclaim the buffer into the
        // free pool instead of merely freeing it.
        drop(self.value.take());
        let mut t = self.table.write();
        let i = t.idx(self.version);
        if let Some(e) = t.versions[i].as_mut() {
            debug_assert!(e.pins > 0, "ReadPin drop without matching pin");
            e.pins = e.pins.saturating_sub(1);
        }
        t.try_prune(self.version);
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
    /// and goes with ROADMAP item 9(b).
    pub fn push_snapshot_sharded(
        &self,
        w: &[f64],
        support: Option<&[u32]>,
        _pool: &async_linalg::ShardPool,
    ) -> u64 {
        self.push_snapshot_inner(w, support)
    }

    fn push_snapshot_inner(&self, w: &[f64], sparse_support: Option<&[u32]>) -> u64 {
        let bytes = w.encoded_len();
        let mut t = self.table.write();
        let prev_latest = t.latest();
        let value = match t.free_snapshots.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.extend_from_slice(w);
                t.recycled += 1;
                buf
            }
            None => w.to_vec(),
        };
        t.versions.push(Some(Entry {
            value: Arc::new(value),
            bytes,
            rc: 0,
            pins: 0,
        }));
        t.live_count += 1;
        t.live_bytes += bytes;
        let v = t.latest();
        // The support is only copied when the ring will actually keep it:
        // with incremental resolution disabled a diff push costs exactly
        // what a plain snapshot push costs.
        if t.ring_capacity > 0 {
            let support = match sparse_support {
                Some(s) => {
                    let mut buf = t.free_supports.pop().unwrap_or_default();
                    buf.clear();
                    buf.extend_from_slice(s);
                    ChangeSupport::Sparse(buf)
                }
                None => ChangeSupport::Dense,
            };
            t.ring_record(v, support);
        }
        t.try_prune(prev_latest);
        self.counters.pushed.fetch_add(1, Ordering::Relaxed);
        v
    }
}

/// A worker-side view of an [`AsyncBcast`] at a fixed version, captured in
/// task closures. Resolution order: local cache, then a (charged) fetch
/// from the server store.
pub struct HistoryHandle<T: Payload + Send + Sync + 'static> {
    bcast_id: u64,
    version: u64,
    min_live: u64,
    table: Arc<RwLock<VersionTable<T>>>,
    counters: Arc<Counters>,
    patch_scratch: Arc<ScratchStore>,
}

impl<T: Payload + Send + Sync + 'static> Clone for HistoryHandle<T> {
    fn clone(&self) -> Self {
        Self {
            bcast_id: self.bcast_id,
            version: self.version,
            min_live: self.min_live,
            table: Arc::clone(&self.table),
            counters: Arc::clone(&self.counters),
            patch_scratch: Arc::clone(&self.patch_scratch),
        }
    }
}

impl<T: Payload + Send + Sync + 'static> HistoryHandle<T> {
    /// The version this handle was created at (the task's model version).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The owning broadcast's id — the worker-cache namespace every
    /// resolution of this handle reads and writes.
    pub fn id(&self) -> u64 {
        self.bcast_id
    }

    /// Resolves the handle's own version — `w_br.value` in Algorithm 4.
    pub fn value(&self, ctx: &mut WorkerCtx) -> Arc<T> {
        self.value_at(ctx, self.version)
    }

    /// Resolves an arbitrary historical `version` — `w_br.value(index)`
    /// in Algorithm 4, with the version looked up by the server at task
    /// submission.
    ///
    /// # Panics
    /// Panics if `version` was pruned, which means the caller failed to
    /// keep it referenced through [`AsyncBcast::record_use`].
    pub fn value_at(&self, ctx: &mut WorkerCtx, version: u64) -> Arc<T> {
        self.fetch_at(ctx, version).0
    }

    /// The plain resolve under [`HistoryHandle::value_at`] and
    /// [`HistoryHandle::wire_plan_at`]: `version` from `ctx`'s cache, else a
    /// charged fetch from the server store. Also says whether the cache
    /// already held it.
    fn fetch_at(&self, ctx: &mut WorkerCtx, version: u64) -> (Arc<T>, bool) {
        // Honour the server's watermark: cached versions below it can never
        // be requested again.
        ctx.cache_evict_below(self.bcast_id, self.min_live);
        let key = (self.bcast_id, version);
        if let Some(any) = ctx.cache_get(key) {
            let value = any.downcast::<T>().expect("history cache type mismatch");
            return (value, true);
        }
        let (value, bytes) = {
            let t = self.table.read();
            let entry = t.versions[t.idx(version)]
                .as_ref()
                .unwrap_or_else(|| panic!("history version {version} was pruned while in use"));
            (Arc::clone(&entry.value), entry.bytes)
        };
        self.counters.fetches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .fetched_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        ctx.cache_put_fetched(
            key,
            value.clone() as Arc<dyn std::any::Any + Send + Sync>,
            bytes,
        );
        (value, false)
    }
}

/// Wire size of a version-diff patch over `support`: the [`SparseVec`]
/// payload an exact patch ships as, the [`CompressedDelta`] frame a
/// quantized one does. The in-process engines charge this; the remote
/// engine's [`WirePlan`] sections encode to exactly this many bytes.
fn patch_wire_len(quant: Quant, support: &[u32]) -> u64 {
    match quant {
        Quant::Exact => sparse_wire_len(Quant::Exact, support),
        q => CompressedDelta::sparse_frame_len(q, support),
    }
}

/// [`patch_wire_len`] of an exact patch from its support's size alone —
/// `entries` indices in an index block of `index_bytes` — for the resolve
/// that sizes the support without building it. The header and the value
/// width are read off [`sparse_wire_len`] and [`Quant::value_bytes`], so
/// the section's shape stays defined there.
fn exact_patch_wire_len(entries: usize, index_bytes: usize) -> u64 {
    sparse_wire_len(Quant::Exact, &[]) + (index_bytes + Quant::Exact.value_bytes() * entries) as u64
}

/// Removes the cached model `version` — the base a patch supersedes — from
/// `ctx`; `None` when the cache holds no model there.
fn remove_cached_model(ctx: &mut WorkerCtx, bcast_id: u64, version: u64) -> Option<Arc<Vec<f64>>> {
    ctx.cache_remove((bcast_id, version))?
        .downcast::<Vec<f64>>()
        .ok()
}

/// Takes the cached model `version` out of `ctx` as a private vector to
/// patch forward — in place when the cache was its only owner, else via one
/// copy. For the paths whose result is not a server snapshot: quantized
/// patches and a remote worker's [`WirePlan::apply`].
fn take_cached_model(ctx: &mut WorkerCtx, bcast_id: u64, version: u64) -> Option<Vec<f64>> {
    let model = remove_cached_model(ctx, bcast_id, version)?;
    Some(Arc::try_unwrap(model).unwrap_or_else(|shared| shared.as_ref().clone()))
}

/// Why an in-process resolve may `expect` its patch base: the base is the
/// newest version it just found in the very cache it removes it from.
const BASE_IS_CACHED: &str = "the patch base was just found in this cache";

impl HistoryHandle<Vec<f64>> {
    /// Sizes the patch that takes a worker caching `base_version` to this
    /// handle's version, over the union of the gap's change supports.
    /// Returns the patch's wire bytes, its value format and the target
    /// snapshot (whose values on that support are the patch's values) — or
    /// `None` when resolution must fall back to the full snapshot: the gap
    /// outruns the ring, a spanned version declared a dense change, or the
    /// patch would not undercut the dense wire size.
    ///
    /// The support itself is left in `scratch.union` when the caller
    /// `needs_support` or the patch is quantized (its codes are computed
    /// per entry). An in-process exact patch is never built — the worker
    /// takes the target snapshot — so it is only sized, straight from the
    /// bitmap, and `scratch.union` is not written.
    fn assemble_patch(
        &self,
        base_version: u64,
        scratch: &mut PatchScratch,
        needs_support: bool,
    ) -> Option<(u64, Quant, Arc<Vec<f64>>)> {
        let PatchScratch { bitmap, union } = scratch;
        let t = self.table.read();
        let supports = t.ring_supports(base_version + 1, self.version)?;
        let bytes = if needs_support || t.patch_quant != Quant::Exact {
            bitmap.union_into(supports, union);
            patch_wire_len(t.patch_quant, union)
        } else {
            let (entries, index_bytes) = bitmap.union_index_len(supports);
            exact_patch_wire_len(entries, index_bytes)
        };
        let entry = t.versions[t.idx(self.version)]
            .as_ref()
            .unwrap_or_else(|| panic!("history version {} was pruned while in use", self.version));
        if bytes >= entry.bytes {
            return None;
        }
        Some((bytes, t.patch_quant, Arc::clone(&entry.value)))
    }

    /// Lets go of the cached base an exact patch supersedes. The cache
    /// shares its models with the version table, so a base the server
    /// pruned while this cache still held it could not be recycled then:
    /// when this was its last owner, its buffer goes back to the server's
    /// free pool now, keeping a steady-state `push_snapshot` a `memcpy`.
    fn release_base(&self, ctx: &mut WorkerCtx, base_version: u64) {
        let base = remove_cached_model(ctx, self.bcast_id, base_version).expect(BASE_IS_CACHED);
        // Checked first so a still-shared base costs no table lock.
        if Arc::strong_count(&base) == 1 {
            self.table.write().reclaim(base);
        }
    }

    /// Advances the traffic counters for one shipped patch of `bytes`.
    fn count_patch(&self, bytes: u64, quantized: bool) {
        let c = &self.counters;
        c.fetches.fetch_add(1, Ordering::Relaxed);
        c.fetched_bytes.fetch_add(bytes, Ordering::Relaxed);
        c.incremental_fetches.fetch_add(1, Ordering::Relaxed);
        c.incremental_bytes.fetch_add(bytes, Ordering::Relaxed);
        if quantized {
            c.quantized_patches.fetch_add(1, Ordering::Relaxed);
            c.quantized_patch_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Resolves the handle's version like [`HistoryHandle::value`], but —
    /// when the broadcast has incremental resolution enabled and the
    /// worker's cache holds an older model — is charged for a
    /// **version-diff patch** (the union of the gap's change supports with
    /// their final values) instead of the dense snapshot. An exact patch
    /// reconstructs the target bit for bit (see the module docs), so the
    /// worker simply swaps its cached base for the server's shared
    /// snapshot of the target: only the charged wire bytes differ from a
    /// dense fetch. A quantized patch is applied onto a private copy of
    /// the base. Falls back to the full snapshot when the gap outruns the
    /// ring, a spanned version has an unknown support, no cached base
    /// exists, or the patch would not be smaller.
    pub fn value_incremental(&self, ctx: &mut WorkerCtx) -> Arc<Vec<f64>> {
        self.resolve(ctx, false).0
    }

    /// Plans how to materialize this handle's version on a **networked**
    /// worker whose cache the driver tracks through `mirror`: runs the very
    /// resolve [`HistoryHandle::value_incremental`] runs, against the
    /// mirror, and ships what it did as a [`WirePlan`]. The mirror thereby
    /// receives the cache bookkeeping (evictions, fetched-entry insertions,
    /// byte charges) of a real resolution and the broadcast's traffic
    /// counters advance identically — so a remote run reports the same
    /// fetch/patch statistics as the simulator, and the next plan for the
    /// same worker sees the cache state this one left behind. The worker
    /// applies the plan with [`WirePlan::apply`], which reproduces the
    /// resolved value bit-exactly.
    pub fn wire_plan(&self, mirror: &mut WorkerCtx) -> WirePlan {
        self.resolve(mirror, true).1
    }

    /// Plans the materialization of an arbitrary historical `version` on a
    /// networked worker — [`HistoryHandle::value_at`] run against the
    /// mirror, with the same bookkeeping contract as
    /// [`HistoryHandle::wire_plan`].
    ///
    /// # Panics
    /// Panics if `version` was pruned (see [`HistoryHandle::value_at`]).
    pub fn wire_plan_at(&self, mirror: &mut WorkerCtx, version: u64) -> WirePlan {
        self.fetch_plan_at(mirror, version).1
    }

    /// [`HistoryHandle::fetch_at`], reported as the plan that repeats it on
    /// a networked worker: a hit is `Cached`, a fetch ships the `Snapshot`.
    fn fetch_plan_at(&self, ctx: &mut WorkerCtx, version: u64) -> (Arc<Vec<f64>>, WirePlan) {
        let (value, hit) = self.fetch_at(ctx, version);
        let evict_below = self.min_live;
        let plan = if hit {
            WirePlan::Cached {
                version,
                evict_below,
            }
        } else {
            WirePlan::Snapshot {
                version,
                values: Arc::clone(&value),
                evict_below,
            }
        };
        (value, plan)
    }

    /// The one resolve decision under [`HistoryHandle::value_incremental`]
    /// (`ctx` is the worker's cache) and [`HistoryHandle::wire_plan`] (`ctx`
    /// is the driver's mirror of it, `wire` set): brings `ctx` to this
    /// handle's version the cheapest way the ring allows, and reports what
    /// it did as the plan that repeats it on a networked worker. Only a
    /// `wire` resolve fills in the payload of the patch it charged for; in
    /// process a patch plan stays hollow, and an exact patch — merely sized
    /// — allocates nothing.
    fn resolve(&self, ctx: &mut WorkerCtx, wire: bool) -> (Arc<Vec<f64>>, WirePlan) {
        let version = self.version;
        if self.table.read().ring_capacity == 0 {
            // Ring disabled: the plain fetch, watermark eviction included.
            return self.fetch_plan_at(ctx, version);
        }
        // Unlike the watermark eviction of `value_at`, the worker keeps its
        // *newest* cached model even when the server pruned that version —
        // patching reads only the gap's supports (in the ring) and the
        // target's values, never the server-side base. Everything older is
        // evicted, bounding the cache at one model per broadcast; a plan
        // carries the watermark so the worker's cache evicts in lockstep.
        let newest = ctx.cache_newest_version(self.bcast_id);
        if let Some(newest) = newest {
            ctx.cache_evict_below(self.bcast_id, newest);
        }
        let evict_below = newest.unwrap_or(0);
        let key = (self.bcast_id, version);
        if let Some(any) = ctx.cache_get(key) {
            let value = any
                .downcast::<Vec<f64>>()
                .expect("history cache type mismatch");
            let plan = WirePlan::Cached {
                version,
                evict_below,
            };
            return (value, plan);
        }
        // A usable base is the worker's newest cached version *below* the
        // requested one (per-worker versions are nondecreasing, so this is
        // the common steady-state shape).
        let base = match newest {
            Some(v) if v < version => v,
            _ => return self.fetch_plan_at(ctx, version),
        };
        // The scratch is checked out of a pool (not locked for the whole
        // assembly), so concurrent fetches on other workers proceed.
        let mut scratch = self.patch_scratch.checkout();
        let Some((patch_bytes, quant, target)) = self.assemble_patch(base, &mut scratch, wire)
        else {
            self.patch_scratch.give_back(scratch);
            return self.fetch_plan_at(ctx, version);
        };
        // A shipped plan owns its index and value (or code) vectors: the
        // only allocations of an exact one.
        let indices = if wire {
            scratch.union.clone()
        } else {
            Vec::new()
        };
        let (value, plan) = if quant == Quant::Exact {
            // Scatter-assigning the target's values onto the base would
            // yield the target: share the server's snapshot instead.
            self.release_base(ctx, base);
            let values = indices.iter().map(|&i| target[i as usize]).collect();
            let patch = SparseVec::new(indices, values, target.len())
                .expect("a union of ring supports is sorted and within the model");
            let plan = WirePlan::Patch {
                base,
                version,
                patch,
                evict_below,
            };
            (target, plan)
        } else {
            // Quantized patch, against a per-patch scale of the largest
            // target−base difference. The base is `ctx`'s own — on a mirror
            // it carries the worker's accumulated quantization error, not
            // the exact history — and each entry moves by the dequantized
            // value of the very code a plan ships, so driver and worker
            // stay bitwise in lockstep though neither holds the target.
            let mut w = take_cached_model(ctx, self.bcast_id, base).expect(BASE_IS_CACHED);
            let scale = scratch.union.iter().fold(0.0f64, |m, &i| {
                m.max((target[i as usize] - w[i as usize]).abs())
            });
            // Only a plan keeps the codes.
            let mut codes = Vec::new();
            for &i in &scratch.union {
                let wi = &mut w[i as usize];
                let code = compress::quantize_i8(target[i as usize] - *wi, scale);
                if wire {
                    codes.push(code);
                }
                *wi += compress::dequantize_i8(code, scale);
            }
            let delta = CompressedDelta::I8 {
                dim: w.len(),
                scale,
                indices,
                codes,
            };
            let plan = WirePlan::QPatch {
                base,
                version,
                delta,
                evict_below,
            };
            (Arc::new(w), plan)
        };
        self.patch_scratch.give_back(scratch);
        self.count_patch(patch_bytes, quant != Quant::Exact);
        ctx.cache_put_fetched(
            key,
            Arc::clone(&value) as Arc<dyn std::any::Any + Send + Sync>,
            patch_bytes,
        );
        (value, plan)
    }
}

/// How a networked worker materializes one history-broadcast version: the
/// driver resolves each version against its per-worker cache **mirror**
/// ([`HistoryHandle::wire_plan`] — the in-process resolve itself, run on
/// the mirror) and ships what that resolve did inside the task request;
/// the worker replays it with [`WirePlan::apply`]. Because the plan is
/// chosen against the mirror, `Cached` never misses on the worker and
/// `Patch` always finds its base — as long as driver and worker process the
/// same task stream, which the remote engine's epoch guard enforces (a
/// reconnected worker gets a fresh mirror, so its first plans are
/// `Snapshot`s). A worker still checks: [`WirePlan::apply`] refuses a plan
/// its cache cannot honour instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum WirePlan {
    /// The worker already holds `version`; nothing crosses the wire.
    Cached {
        /// Version to resolve from the worker's cache.
        version: u64,
        /// Evict cached versions below this before resolving.
        evict_below: u64,
    },
    /// Full dense snapshot of `version`.
    Snapshot {
        /// Version the values belong to.
        version: u64,
        /// The complete model vector.
        values: Arc<Vec<f64>>,
        /// Evict cached versions below this before inserting.
        evict_below: u64,
    },
    /// Version-diff patch: scatter-assign `patch` onto the cached `base`
    /// to reconstruct `version` bit-exactly.
    Patch {
        /// Cached version the patch applies on top of.
        base: u64,
        /// Version the patched vector becomes.
        version: u64,
        /// The changed coordinates with their final values at `version`.
        patch: SparseVec,
        /// Evict cached versions below this before patching.
        evict_below: u64,
    },
    /// Quantized version-diff patch (see [`AsyncBcast::set_patch_quant`]):
    /// each changed coordinate moves by the dequantized `code · scale`
    /// difference instead of jumping to its exact target value. The driver
    /// computed the codes against its mirror of this worker's cache, so the
    /// apply reproduces the driver-side mirror entry bit-exactly.
    QPatch {
        /// Cached version the patch applies on top of.
        base: u64,
        /// Version the patched vector becomes.
        version: u64,
        /// Quantized `target − base` differences over the changed
        /// coordinates (an `I8` frame, scale = the largest difference).
        delta: CompressedDelta,
        /// Evict cached versions below this before patching.
        evict_below: u64,
    },
}

impl WirePlan {
    /// The version this plan materializes.
    pub fn version(&self) -> u64 {
        match *self {
            WirePlan::Cached { version, .. }
            | WirePlan::Snapshot { version, .. }
            | WirePlan::Patch { version, .. }
            | WirePlan::QPatch { version, .. } => version,
        }
    }

    /// Executes the plan against a worker's local cache, returning the
    /// materialized model vector and caching it for later plans.
    ///
    /// # Errors
    /// Names what the cache lacks when it diverged from the driver's mirror
    /// — a `Cached` miss, a missing `Patch` base, a patch of another
    /// dimension than its base. With the remote engine's epoch-guarded task
    /// stream that is a protocol violation by the peer; a plan is outside
    /// input, so it is refused rather than trusted.
    pub fn apply(self, ctx: &mut WorkerCtx, bcast_id: u64) -> Result<Arc<Vec<f64>>, &'static str> {
        const NO_BASE: &str = "wire plan patches a base the worker does not cache";
        const BAD_DIM: &str = "wire plan patch and its cached base differ in dimension";
        let version = self.version();
        let (value, bytes) = match self {
            WirePlan::Cached { evict_below, .. } => {
                ctx.cache_evict_below(bcast_id, evict_below);
                return ctx
                    .cache_get((bcast_id, version))
                    .and_then(|any| any.downcast::<Vec<f64>>().ok())
                    .ok_or("wire plan expects a model the worker does not cache");
            }
            WirePlan::Snapshot {
                values,
                evict_below,
                ..
            } => {
                ctx.cache_evict_below(bcast_id, evict_below);
                let bytes = values.encoded_len();
                (values, bytes)
            }
            WirePlan::Patch {
                base,
                patch,
                evict_below,
                ..
            } => {
                ctx.cache_evict_below(bcast_id, evict_below);
                let mut w = take_cached_model(ctx, bcast_id, base).ok_or(NO_BASE)?;
                if patch.dim() != w.len() {
                    return Err(BAD_DIM);
                }
                sparse::scatter_assign(patch.indices(), patch.values(), &mut w);
                (Arc::new(w), patch.encoded_len())
            }
            WirePlan::QPatch {
                base,
                delta,
                evict_below,
                ..
            } => {
                ctx.cache_evict_below(bcast_id, evict_below);
                let mut w = take_cached_model(ctx, bcast_id, base).ok_or(NO_BASE)?;
                if delta.dim() != w.len() {
                    return Err(BAD_DIM);
                }
                delta.add_into(&mut w);
                (Arc::new(w), delta.encoded_len())
            }
        };
        ctx.cache_put_fetched(
            (bcast_id, version),
            value.clone() as Arc<dyn std::any::Any + Send + Sync>,
            bytes,
        );
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
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
        let (charged, _) = ctx.take_charges();
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
        b.record_use(&[0], v1);
        let v2 = b.push(vec![2.0; 4]);
        b.record_use(&[0], v2); // v1 pruned
        assert!(b.try_pin_read_at(v1).is_none(), "pruned version");
        assert!(b.try_pin_read_at(99).is_none(), "unknown version");
        let pin = b.try_pin_read_at(v2).expect("latest is live");
        assert_eq!(pin[0], 2.0);
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
        assert!(v.is_sparse());
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
                let charged = mirror.take_charges().0;
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
            assert_eq!(ctx.take_charges().0, mirror_charged);
        }
    }

    #[test]
    fn quantized_patches_track_wire_plans_bitwise_and_stay_near_target() {
        // Same twin-broadcast drill as above, but with diff-quantized
        // patches: the in-process resolution, the driver mirror, and the
        // remote apply must still agree bitwise (on the *quantized*
        // trajectory), the quantized counters must advance, and the
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
        let mut saw_qpatch = false;
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
            let charged = mirror.take_charges().0;
            if let WirePlan::QPatch { ref delta, .. } = plan {
                saw_qpatch = true;
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
        assert!(saw_qpatch, "{quant:?}: quantized patches exercised");
        let (a, b) = (local.stats(), wired.stats());
        assert_eq!(a.quantized_patches, b.quantized_patches);
        assert_eq!(a.quantized_patch_bytes, b.quantized_patch_bytes);
        assert!(a.quantized_patches > 0);
        // Quantized patches are cheaper on the wire than exact ones
        // would have been (every patch here spans two coordinates).
        assert!(
            a.quantized_patch_bytes < a.quantized_patches * patch_wire_len(Quant::Exact, &[0, 1])
        );
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
        let s = b.stats();
        assert!(s.incremental_fetches > 0);
        assert_eq!(s.quantized_patches, 0);
        assert_eq!(s.quantized_patch_bytes, 0);
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

//! Resolution: how a worker's cache (or the driver's mirror of it) reaches
//! a broadcast version — a cache hit, a charged snapshot fetch, or a
//! version-diff patch — and the traffic counters each charge advances.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use async_linalg::{compress, sparse, sparse_wire_len, CompressedDelta, Quant, SparseVec};
use sparklet::{Payload, WorkerCtx};

use super::{Shared, WirePlan};

/// Shared traffic counters of one history broadcast.
#[derive(Default)]
pub(super) struct Counters {
    pub(super) fetches: AtomicU64,
    pub(super) fetched_bytes: AtomicU64,
    pub(super) incremental_fetches: AtomicU64,
    pub(super) incremental_bytes: AtomicU64,
}

impl Counters {
    /// Counts one fetch served with `bytes` on the wire, a version-diff
    /// patch when `patch`.
    fn count(&self, bytes: u64, patch: bool) {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.fetched_bytes.fetch_add(bytes, Ordering::Relaxed);
        if patch {
            self.incremental_fetches.fetch_add(1, Ordering::Relaxed);
            self.incremental_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }
}

/// Reusable scratch for assembling a version-diff patch's support: the
/// bitmap the gap's change supports are unioned through and the sorted
/// union read back out of it (only for patches whose entries are visited:
/// an in-process exact patch is sized from the bitmap and leaves `union`
/// alone). Patch *values* are never staged here — the
/// in-process engines read them from the target snapshot, and
/// [`HistoryHandle::wire_plan`] gathers them straight into the plan it
/// ships. Each thread keeps its own ([`SCRATCH`]), so concurrent
/// incremental fetches on the threaded engine never serialize on one
/// buffer, while a steady-state resolve performs no allocations.
#[derive(Default)]
struct PatchScratch {
    bitmap: sparse::BitmapUnion,
    union: Vec<u32>,
}

thread_local! {
    /// This thread's patch scratch, taken for one resolve and put back.
    static SCRATCH: RefCell<PatchScratch> = RefCell::default();
}

/// A worker-side view of an [`AsyncBcast`](super::AsyncBcast) at a fixed
/// version, captured in task closures. Resolution order: local cache, then
/// a (charged) fetch from the server store.
pub struct HistoryHandle<T: Payload + Send + Sync + 'static> {
    pub(super) version: u64,
    pub(super) min_live: u64,
    pub(super) shared: Arc<Shared<T>>,
}

impl<T: Payload + Send + Sync + 'static> Clone for HistoryHandle<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            ..*self
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
        self.shared.id
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
    /// keep it referenced through
    /// [`AsyncBcast::record_use`](super::AsyncBcast::record_use).
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
        ctx.cache_evict_below(self.id(), self.min_live);
        let key = (self.id(), version);
        if let Some(value) = cached(ctx, key) {
            return (value, true);
        }
        let (value, bytes) = {
            let t = self.shared.table.read();
            let entry = t.live(version);
            (Arc::clone(&entry.value), entry.bytes)
        };
        self.shared.counters.count(bytes, false);
        ctx.cache_put_fetched(key, value.clone(), bytes);
        (value, false)
    }
}

/// Wire size of a version-diff patch over `support`: the [`SparseVec`]
/// payload an exact patch ships as, the [`CompressedDelta`] frame a
/// quantized one does. The in-process engines charge this; the remote
/// engine's [`WirePlan`] sections encode to exactly this many bytes.
pub(super) fn patch_wire_len(quant: Quant, support: &[u32]) -> u64 {
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

/// The value `ctx` caches under `key`; `None` when it caches nothing of
/// type `T` there.
pub(super) fn cached<T: Send + Sync + 'static>(
    ctx: &mut WorkerCtx,
    key: (u64, u64),
) -> Option<Arc<T>> {
    ctx.cache_get(key)?.downcast().ok()
}

/// Removes the cached model `version` — the base a patch supersedes — from
/// `ctx`; `None` when the cache holds no model there.
fn remove_cached_model(ctx: &mut WorkerCtx, bcast_id: u64, version: u64) -> Option<Arc<Vec<f64>>> {
    ctx.cache_remove((bcast_id, version))?.downcast().ok()
}

/// Takes the cached model `version` out of `ctx` as a private vector to
/// patch forward — in place when the cache was its only owner, else via one
/// copy. For the paths whose result is not a server snapshot: quantized
/// patches and a remote worker's [`WirePlan::apply`].
pub(super) fn take_cached_model(
    ctx: &mut WorkerCtx,
    bcast_id: u64,
    version: u64,
) -> Option<Vec<f64>> {
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
        let t = self.shared.table.read();
        let supports = t.ring_supports(base_version + 1, self.version)?;
        let bytes = if needs_support || t.patch_quant != Quant::Exact {
            bitmap.union_into(supports, union);
            patch_wire_len(t.patch_quant, union)
        } else {
            let (entries, index_bytes) = bitmap.union_index_len(supports);
            exact_patch_wire_len(entries, index_bytes)
        };
        let entry = t.live(self.version);
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
        let base = remove_cached_model(ctx, self.id(), base_version).expect(BASE_IS_CACHED);
        // Checked first so a still-shared base costs no table lock.
        if Arc::strong_count(&base) == 1 {
            self.shared.table.write().reclaim(base);
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
        if self.shared.table.read().ring_capacity == 0 {
            // Ring disabled: the plain fetch, watermark eviction included.
            return self.fetch_plan_at(ctx, version);
        }
        // Unlike the watermark eviction of `value_at`, the worker keeps its
        // *newest* cached model even when the server pruned that version —
        // patching reads only the gap's supports (in the ring) and the
        // target's values, never the server-side base. Everything older is
        // evicted, bounding the cache at one model per broadcast; a plan
        // carries the watermark so the worker's cache evicts in lockstep.
        let newest = ctx.cache_newest_version(self.id());
        if let Some(newest) = newest {
            ctx.cache_evict_below(self.id(), newest);
        }
        let evict_below = newest.unwrap_or(0);
        let key = (self.id(), version);
        if let Some(value) = cached(ctx, key) {
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
        let mut scratch = SCRATCH.take();
        let Some((patch_bytes, quant, target)) = self.assemble_patch(base, &mut scratch, wire)
        else {
            SCRATCH.set(scratch);
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
            let mut w = take_cached_model(ctx, self.id(), base).expect(BASE_IS_CACHED);
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
        SCRATCH.set(scratch);
        self.shared.counters.count(patch_bytes, true);
        ctx.cache_put_fetched(key, value.clone(), patch_bytes);
        (value, plan)
    }
}

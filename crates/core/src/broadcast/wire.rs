//! The wire plan: what the driver ships so a networked worker repeats a
//! resolve against its own cache, and the worker-side replay of it.

use std::sync::Arc;

use async_linalg::{sparse, CompressedDelta, SparseVec};
use sparklet::{Payload, WorkerCtx};

use super::resolve::{cached, take_cached_model};

/// How a networked worker materializes one history-broadcast version: the
/// driver resolves each version against its per-worker cache **mirror**
/// ([`HistoryHandle::wire_plan`](super::HistoryHandle::wire_plan) — the
/// in-process resolve itself, run on the mirror) and ships what that resolve did inside the task request;
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
    /// Quantized version-diff patch (see
    /// [`AsyncBcast::set_patch_quant`](super::AsyncBcast::set_patch_quant)):
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
        let version = self.version();
        let (value, bytes) = match self {
            WirePlan::Cached { evict_below, .. } => {
                ctx.cache_evict_below(bcast_id, evict_below);
                return cached(ctx, (bcast_id, version))
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
                let mut w = patch_base(ctx, bcast_id, evict_below, base, patch.dim())?;
                sparse::scatter_assign(patch.indices(), patch.values(), &mut w);
                (Arc::new(w), patch.encoded_len())
            }
            WirePlan::QPatch {
                base,
                delta,
                evict_below,
                ..
            } => {
                let mut w = patch_base(ctx, bcast_id, evict_below, base, delta.dim())?;
                delta.add_into(&mut w);
                (Arc::new(w), delta.encoded_len())
            }
        };
        ctx.cache_put_fetched((bcast_id, version), value.clone(), bytes);
        Ok(value)
    }
}

/// The cached `base` a patch of dimension `dim` moves forward, taken out of
/// `ctx` after evicting below `evict_below`; refused when the cache lacks
/// it or holds it at another dimension.
fn patch_base(
    ctx: &mut WorkerCtx,
    bcast_id: u64,
    evict_below: u64,
    base: u64,
    dim: usize,
) -> Result<Vec<f64>, &'static str> {
    ctx.cache_evict_below(bcast_id, evict_below);
    match take_cached_model(ctx, bcast_id, base) {
        Some(w) if w.len() == dim => Ok(w),
        Some(_) => Err("wire plan patch and its cached base differ in dimension"),
        None => Err("wire plan patches a base the worker does not cache"),
    }
}

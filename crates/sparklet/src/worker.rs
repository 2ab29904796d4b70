//! Per-worker executor state.
//!
//! Each worker owns a [`WorkerCtx`]: a versioned value cache (the local
//! store behind the paper's `ASYNCbroadcast` — workers keep previously
//! received model parameters so the server can ship only IDs) and transfer
//! accounting that task closures use to charge on-demand fetches to the
//! task's duration.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use async_cluster::{VDur, WorkerId};

/// A cached, type-erased, shareable value.
pub type CachedValue = Arc<dyn Any + Send + Sync>;

/// Mutable per-worker state handed to every task closure.
pub struct WorkerCtx {
    worker: WorkerId,
    cache: HashMap<(u64, u64), CachedValue>,
    /// Per broadcast id, the highest watermark already evicted below.
    evicted_below: HashMap<u64, u64>,
    pending_bytes: u64,
    pending_time: VDur,
}

impl WorkerCtx {
    /// A fresh context for `worker`.
    pub fn new(worker: WorkerId) -> Self {
        Self {
            worker,
            cache: HashMap::new(),
            evicted_below: HashMap::new(),
            pending_bytes: 0,
            pending_time: VDur::ZERO,
        }
    }

    /// This worker's id.
    pub fn worker(&self) -> WorkerId {
        self.worker
    }

    /// Looks up a cached value by `(broadcast id, version)`.
    pub fn cache_get(&mut self, key: (u64, u64)) -> Option<CachedValue> {
        self.cache.get(&key).cloned()
    }

    /// Inserts a value fetched from the server, charging `bytes` of
    /// transfer to the currently running task.
    pub fn cache_put_fetched(&mut self, key: (u64, u64), value: CachedValue, bytes: u64) {
        self.pending_bytes += bytes;
        self.cache.insert(key, value);
    }

    /// Inserts without charging (e.g. a value the worker itself produced).
    pub fn cache_put_local(&mut self, key: (u64, u64), value: CachedValue) {
        self.cache.insert(key, value);
    }

    /// Removes and returns a cached entry — how incremental broadcast
    /// resolution retires the base a version-diff patch supersedes. In
    /// process, an exact patch's result is the server's shared snapshot of
    /// the target, cached in the base's place while the base's buffer goes
    /// back to the server for recycling; a quantized patch, and a remote
    /// worker applying a shipped `WirePlan::{Patch, QPatch}`, scatter onto
    /// the removed base (in place when uniquely owned) and reinsert it at
    /// the new version's key.
    pub fn cache_remove(&mut self, key: (u64, u64)) -> Option<CachedValue> {
        self.cache.remove(&key)
    }

    /// The newest cached version of `bcast_id`, if any — the base an
    /// incremental fetch patches forward from.
    pub fn cache_newest_version(&self, bcast_id: u64) -> Option<u64> {
        self.cache
            .keys()
            .filter(|&&(b, _)| b == bcast_id)
            .map(|&(_, v)| v)
            .max()
    }

    /// Evicts all versions of `bcast_id` strictly below `min_version` —
    /// called when the server's reference counts show old history can no
    /// longer be requested. The cache is scanned only when the watermark
    /// rose since `bcast_id`'s last eviction: callers repeat one watermark per
    /// sampled row, and a version below it is never asked for again.
    pub fn cache_evict_below(&mut self, bcast_id: u64, min_version: u64) {
        let evicted = self.evicted_below.entry(bcast_id).or_insert(0);
        if min_version > *evicted {
            *evicted = min_version;
            self.cache
                .retain(|&(b, v), _| b != bcast_id || v >= min_version);
        }
    }

    /// Number of cached entries (all broadcasts).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Charges additional virtual `time` to the running task (e.g. modelled
    /// disk reads).
    pub fn charge_time(&mut self, time: VDur) {
        self.pending_time += time;
    }

    /// Drains the pending per-task charges; called by the engine after each
    /// task to fold them into the task's duration.
    pub fn take_charges(&mut self) -> (u64, VDur) {
        let out = (self.pending_bytes, self.pending_time);
        self.pending_bytes = 0;
        self.pending_time = VDur::ZERO;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hit_and_miss_counting() {
        let mut ctx = WorkerCtx::new(3);
        assert_eq!(ctx.worker(), 3);
        assert!(ctx.cache_get((1, 0)).is_none());
        ctx.cache_put_fetched((1, 0), Arc::new(42u32), 100);
        let v = ctx.cache_get((1, 0)).expect("cached");
        assert_eq!(*v.downcast::<u32>().unwrap(), 42);
    }

    #[test]
    fn fetch_charges_accumulate_and_drain() {
        let mut ctx = WorkerCtx::new(0);
        ctx.cache_put_fetched((1, 0), Arc::new(()), 64);
        ctx.cache_put_fetched((1, 1), Arc::new(()), 36);
        ctx.charge_time(VDur::from_micros(500));
        let (b, t) = ctx.take_charges();
        assert_eq!(b, 100);
        assert_eq!(t, VDur::from_micros(500));
        assert_eq!(ctx.take_charges(), (0, VDur::ZERO));
    }

    #[test]
    fn local_puts_do_not_charge() {
        let mut ctx = WorkerCtx::new(0);
        ctx.cache_put_local((2, 5), Arc::new(1.0f64));
        assert_eq!(ctx.take_charges(), (0, VDur::ZERO));
    }

    #[test]
    fn newest_version_and_remove_track_cache_contents() {
        let mut ctx = WorkerCtx::new(0);
        assert_eq!(ctx.cache_newest_version(1), None);
        ctx.cache_put_local((1, 3), Arc::new(3u64));
        ctx.cache_put_local((1, 7), Arc::new(7u64));
        ctx.cache_put_local((2, 9), Arc::new(9u64));
        assert_eq!(ctx.cache_newest_version(1), Some(7));
        assert_eq!(ctx.cache_newest_version(2), Some(9));
        let v = ctx.cache_remove((1, 7)).expect("present");
        assert_eq!(*v.downcast::<u64>().unwrap(), 7);
        assert_eq!(ctx.cache_newest_version(1), Some(3));
        assert!(ctx.cache_remove((1, 7)).is_none());
    }

    #[test]
    fn eviction_respects_watermark_per_broadcast() {
        let mut ctx = WorkerCtx::new(0);
        for v in 0..5 {
            ctx.cache_put_local((1, v), Arc::new(v));
            ctx.cache_put_local((2, v), Arc::new(v));
        }
        ctx.cache_evict_below(1, 3);
        assert_eq!(ctx.cache_len(), 2 + 5);
        assert!(ctx.cache_get((1, 2)).is_none());
        assert!(ctx.cache_get((1, 3)).is_some());
        assert!(ctx.cache_get((2, 0)).is_some());
    }

    #[test]
    fn eviction_scans_only_when_the_watermark_rises() {
        let mut ctx = WorkerCtx::new(0);
        ctx.cache_put_local((1, 1), Arc::new(()));
        ctx.cache_evict_below(1, 3);
        assert!(ctx.cache_get((1, 1)).is_none());
        // Repeats at (or below) the watermark visit no entry: one put below
        // it afterwards is still there.
        ctx.cache_put_local((1, 2), Arc::new(()));
        for m in [3, 3, 2, 0, 3] {
            ctx.cache_evict_below(1, m);
            assert!(ctx.cache_get((1, 2)).is_some());
        }
        // Another broadcast's watermark is its own.
        ctx.cache_evict_below(2, 9);
        assert!(ctx.cache_get((1, 2)).is_some());
        ctx.cache_evict_below(1, 4);
        assert!(ctx.cache_get((1, 2)).is_none());
    }
}

//! The version store: one entry per live version, the per-sample table that
//! reference-counts them, the ring of recent change supports and the pools
//! pruned buffers are recycled through. A version is inserted, pinned,
//! released, looked up and pruned here and nowhere else.

use std::collections::VecDeque;
use std::sync::Arc;

use async_linalg::Quant;
use sparklet::Payload;

use super::HistoryStats;

/// One live version.
pub(super) struct Entry<T> {
    pub(super) value: Arc<T>,
    pub(super) bytes: u64,
    rc: u64,
    /// In-flight pins: tasks computing against this version hold a pin
    /// from submission to result consumption, so the version outlives the
    /// gap between issue and the `record_use` that references it.
    pins: u64,
}

/// The coordinates one pushed version changed relative to its predecessor.
pub(super) enum ChangeSupport {
    /// Exactly these coordinates changed (strictly increasing).
    Sparse(Vec<u32>),
    /// Unknown or full-dimension change: any gap spanning this version
    /// must take the full-snapshot fallback.
    Dense,
}

/// An `index_version` slot never recorded: it reads as the base version.
const UNRECORDED: u64 = u64::MAX;

pub(super) struct VersionTable<T> {
    /// The slots of versions `min_live..=latest`: a version pruned above
    /// the watermark leaves `None`, and the slots below the watermark are
    /// dropped, so the table holds the live span, not the whole history.
    versions: VecDeque<Option<Entry<T>>>,
    /// The version each sample last saw, indexed by sample id over the
    /// whole universe (`n` in SAGA); [`UNRECORDED`] reads as `base`.
    index_version: Vec<u64>,
    /// Samples with an explicit entry: once it reaches the universe size,
    /// the base version can no longer be implicitly referenced.
    recorded: u64,
    /// The first version. Zero for a fresh broadcast; a resumed run
    /// re-seats the table at the checkpoint's model version
    /// ([`AsyncBcast::new_at`](super::AsyncBcast::new_at)) so version IDs
    /// keep counting from where the crashed run left off.
    base: u64,
    /// The oldest live version: no version below it can be requested again.
    pub(super) min_live: u64,
    live_count: u64,
    live_bytes: u64,
    /// Bounded ring of `(version, change support)` for recent pushes; empty
    /// ring / zero capacity means incremental resolution is disabled.
    ring: VecDeque<(u64, ChangeSupport)>,
    pub(super) ring_capacity: usize,
    /// Value quantization applied to shipped patches (`Exact` = bit-exact
    /// full-precision patches).
    pub(super) patch_quant: Quant,
    /// Recycled storage: snapshot buffers reclaimed from pruned versions
    /// and support buffers reclaimed from evicted ring slots.
    free_snapshots: Vec<T>,
    free_supports: Vec<Vec<u32>>,
    recycled: u64,
}

impl<T: Payload> VersionTable<T> {
    /// A table holding `initial` as version `base`, for a sample universe
    /// of `n_indices`.
    pub(super) fn new(initial: T, n_indices: u64, base: u64) -> Self {
        let mut t = Self {
            versions: VecDeque::new(),
            index_version: vec![UNRECORDED; n_indices as usize],
            recorded: 0,
            base,
            min_live: base,
            live_count: 0,
            live_bytes: 0,
            ring: VecDeque::new(),
            ring_capacity: 0,
            patch_quant: Quant::Exact,
            free_snapshots: Vec::new(),
            free_supports: Vec::new(),
            recycled: 0,
        };
        t.insert(initial);
        t
    }

    fn insert(&mut self, value: T) -> u64 {
        let bytes = value.encoded_len();
        self.versions.push_back(Some(Entry {
            value: Arc::new(value),
            bytes,
            rc: 0,
            pins: 0,
        }));
        self.live_count += 1;
        self.live_bytes += bytes;
        self.latest()
    }

    /// Publishes `value` as the next version with the given change
    /// support; the previous latest loses its "latest" hold and is pruned
    /// if nothing else references it. Returns the new version.
    pub(super) fn publish(&mut self, value: T, support: ChangeSupport) -> u64 {
        let prev_latest = self.latest();
        let v = self.insert(value);
        self.ring_record(v, support);
        self.try_prune(prev_latest);
        v
    }
}

impl<T> VersionTable<T> {
    pub(super) fn latest(&self) -> u64 {
        self.min_live + self.versions.len() as u64 - 1
    }

    /// The slot index of version `v`; `None` below the watermark (pruned
    /// and trimmed) or above the latest (unknown).
    fn index(&self, v: u64) -> Option<usize> {
        let i = usize::try_from(v.checked_sub(self.min_live)?).ok()?;
        (i < self.versions.len()).then_some(i)
    }

    /// The entry of version `v`, if it is live.
    fn slot(&self, v: u64) -> Option<&Entry<T>> {
        self.versions[self.index(v)?].as_ref()
    }

    fn slot_mut(&mut self, v: u64) -> Option<&mut Entry<T>> {
        let i = self.index(v)?;
        self.versions[i].as_mut()
    }

    /// The entry of version `v`, which a task or handle still uses.
    ///
    /// # Panics
    /// Panics if `v` was pruned: its user failed to keep it referenced
    /// through `record_use` or a pin.
    pub(super) fn live(&self, v: u64) -> &Entry<T> {
        self.slot(v)
            .unwrap_or_else(|| panic!("history version {v} was pruned while in use"))
    }

    /// Takes one pin on version `v` and returns its value; `None` when `v`
    /// is unknown or already pruned.
    pub(super) fn pin(&mut self, v: u64) -> Option<&Arc<T>> {
        let e = self.slot_mut(v)?;
        e.pins += 1;
        Some(&e.value)
    }

    /// Releases one pin on version `v`, pruning it if nothing references
    /// it any more. A pruned version has no pin to release.
    pub(super) fn unpin(&mut self, v: u64) {
        if let Some(e) = self.slot_mut(v) {
            debug_assert!(e.pins > 0, "unpin without matching pin on version {v}");
            e.pins = e.pins.saturating_sub(1);
            self.try_prune(v);
        }
    }

    fn base_pinned(&self) -> bool {
        self.recorded < self.index_version.len() as u64
    }

    /// The version sample `idx` last saw (the base if never recorded).
    pub(super) fn version_of(&self, idx: u64) -> u64 {
        match self.index_version.get(idx as usize) {
            Some(&v) if v != UNRECORDED => v,
            _ => self.base,
        }
    }

    /// Records that sample `idx` has now been processed at `version`: its
    /// reference moves off the version it last saw, which is pruned if
    /// nothing else holds it.
    pub(super) fn record(&mut self, idx: u64, version: u64) {
        // invariant: `idx` is inside the universe the table was sized to
        // (the remote decode refuses any other id), so an outside id is
        // a bug that panics here; it never grows the table.
        let old = std::mem::replace(&mut self.index_version[idx as usize], version);
        if let Some(e) = self.slot_mut(version) {
            e.rc += 1;
        }
        if old == UNRECORDED {
            // The sample referenced the base implicitly; once the whole
            // universe is explicit, the base may go.
            self.recorded += 1;
            self.try_prune(self.base);
        } else {
            if let Some(e) = self.slot_mut(old) {
                e.rc -= 1;
            }
            self.try_prune(old);
        }
    }

    fn prunable(&self, v: u64) -> bool {
        v != self.latest()
            && !(v == self.base && self.base_pinned())
            && self.slot(v).is_some_and(|e| e.rc == 0 && e.pins == 0)
    }

    fn try_prune(&mut self, v: u64) {
        if !self.prunable(v) {
            return;
        }
        if let Some(e) = self.index(v).and_then(|i| self.versions[i].take()) {
            self.live_count -= 1;
            self.live_bytes -= e.bytes;
            self.reclaim(e.value);
        }
        // Advance the live watermark past pruned slots, dropping them.
        while self.versions.front().is_some_and(Option::is_none) {
            self.versions.pop_front();
            self.min_live += 1;
        }
    }

    /// Keeps `value`'s buffer for a later `push_snapshot` when nothing else
    /// still shares it. Called by the pruner and by a worker letting go of
    /// a patch base: a snapshot a worker cache still referenced when it
    /// was pruned is reclaimed here by whichever owner drops it last.
    pub(super) fn reclaim(&mut self, value: Arc<T>) {
        if self.free_snapshots.len() < 4 {
            if let Ok(value) = Arc::try_unwrap(value) {
                self.free_snapshots.push(value);
            }
        }
    }

    /// The change support to record for a push that declared
    /// `sparse_support` (`None`: dense). The support is only copied when
    /// the ring will keep it: with incremental resolution disabled a diff
    /// push costs exactly what a plain snapshot push costs.
    pub(super) fn change_support(&mut self, sparse_support: Option<&[u32]>) -> ChangeSupport {
        match sparse_support {
            Some(s) if self.ring_capacity > 0 => {
                let mut buf = self.free_supports.pop().unwrap_or_default();
                buf.clear();
                buf.extend_from_slice(s);
                ChangeSupport::Sparse(buf)
            }
            _ => ChangeSupport::Dense,
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
    pub(super) fn ring_supports(&self, from: u64, to: u64) -> Option<impl Iterator<Item = &[u32]>> {
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

    /// The table's part of [`HistoryStats`]; the traffic counters are zero.
    pub(super) fn stats(&self) -> HistoryStats {
        HistoryStats {
            versions_pushed: self.latest() - self.base + 1,
            versions_live: self.live_count,
            version_slots: self.versions.len() as u64,
            live_bytes: self.live_bytes,
            recycled_buffers: self.recycled,
            ..HistoryStats::default()
        }
    }
}

impl VersionTable<Vec<f64>> {
    /// A copy of `w` in the buffer of a pruned version when one is free, so
    /// a steady-state snapshot push is a `memcpy`, not an allocation.
    pub(super) fn snapshot_of(&mut self, w: &[f64]) -> Vec<f64> {
        match self.free_snapshots.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.extend_from_slice(w);
                self.recycled += 1;
                buf
            }
            None => w.to_vec(),
        }
    }
}

//! Read pins: the serving-side lease on one broadcast version.

use std::sync::Arc;

use sparklet::Payload;

use super::Shared;

/// RAII read lease on one broadcast version, handed out by
/// [`AsyncBcast::pin_read`](super::AsyncBcast::pin_read) /
/// [`AsyncBcast::try_pin_read_at`](super::AsyncBcast::try_pin_read_at).
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
    shared: Arc<Shared<T>>,
}

impl<T: Payload + Send + Sync + 'static> ReadPin<T> {
    /// Pins `version` (the latest when `None`) under one table lock, so the
    /// version can never be pruned between "pick it" and "pin it". `None`
    /// when `version` is unknown or already pruned.
    pub(super) fn take(shared: &Arc<Shared<T>>, version: Option<u64>) -> Option<Self> {
        let mut t = shared.table.write();
        let version = version.unwrap_or_else(|| t.latest());
        let value = Arc::clone(t.pin(version)?);
        Some(ReadPin {
            version,
            value: Some(value),
            shared: Arc::clone(shared),
        })
    }

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
        self.shared.table.write().unpin(self.version);
    }
}

//! The solver ↔ server seam of the serving read path.
//!
//! A [`ServeFeed`] is the rendezvous a running solver publishes its live
//! model broadcast through: serving threads (the `async-serve` crate)
//! block on [`ServeFeed::wait_model`] until the solver has created its
//! [`async_core::AsyncBcast`], then read pinned snapshots from it
//! concurrently with training — no copy of the model ever crosses the
//! seam, only a clone of the broadcast handle (readers and the trainer
//! share the same MVCC version table). The feed also carries the shared
//! [`ServeStats`] counters so the solver can fold a [`ServeCounters`]
//! snapshot into its [`crate::RunReport`] at run end.
//!
//! With [`crate::SolverCfg::serve_feed`] unset (the default) none of this
//! executes and every solver is bit-identical to builds predating the
//! serving layer.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use async_core::AsyncBcast;

use crate::objective::Objective;

/// What a solver exposes to readers: the live model broadcast plus the
/// metadata a predictor needs to score against it.
#[derive(Clone)]
pub struct PublishedModel {
    /// The solver's model broadcast — the same ring the training loop
    /// pushes snapshots into. Readers pin versions from it directly.
    pub bcast: AsyncBcast<Vec<f64>>,
    /// The objective being optimized (drives margin → prediction mapping).
    pub objective: Objective,
    /// Model dimension (features per row).
    pub dim: usize,
}

impl std::fmt::Debug for PublishedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublishedModel")
            .field("objective", &self.objective)
            .field("dim", &self.dim)
            .finish_non_exhaustive()
    }
}

/// Shared atomic serving counters, updated by predictors and snapshotted
/// into [`ServeCounters`] by the solver at run end.
#[derive(Debug, Default)]
pub struct ServeStats {
    reads: AtomicU64,
    rows: AtomicU64,
    refreshes: AtomicU64,
    max_lag: AtomicU64,
}

impl ServeStats {
    /// Records one predict call scoring `rows` rows at `lag` versions
    /// behind the live watermark.
    pub fn record_read(&self, rows: u64, lag: u64) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows, Ordering::Relaxed);
        self.max_lag.fetch_max(lag, Ordering::Relaxed);
    }

    /// Records one freshness-policy re-pin (the reader's snapshot fell
    /// behind `max_version_lag` and was swapped for the latest).
    pub fn record_refresh(&self) {
        self.refreshes.fetch_add(1, Ordering::Relaxed);
    }

    /// Zeroes the counters.
    fn reset(&self) {
        for c in [&self.reads, &self.rows, &self.refreshes, &self.max_lag] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshots the counters.
    pub fn counters(&self) -> ServeCounters {
        ServeCounters {
            reads: self.reads.load(Ordering::Relaxed),
            rows_scored: self.rows.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            max_version_lag: self.max_lag.load(Ordering::Relaxed),
        }
    }
}

/// Plain snapshot of the serving counters, reported in
/// [`crate::RunReport::serve`]. All zeros when no serving was attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeCounters {
    /// Predict calls served.
    pub reads: u64,
    /// Total rows scored across those calls.
    pub rows_scored: u64,
    /// Freshness-policy re-pins (snapshot swaps to the latest version).
    pub refreshes: u64,
    /// Largest version lag any served read observed at score time.
    pub max_version_lag: u64,
}

#[derive(Default)]
struct FeedInner {
    model: Mutex<Option<PublishedModel>>,
    ready: Condvar,
    done: AtomicBool,
    stats: ServeStats,
}

/// The rendezvous between one solver run and its serving layer. Cheap to
/// clone; clones address the same state. Hand one copy to
/// [`crate::SolverCfg::serve_feed`] and another to the server.
#[derive(Clone, Default)]
pub struct ServeFeed {
    inner: Arc<FeedInner>,
}

impl std::fmt::Debug for ServeFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeFeed")
            .field(
                "published",
                &self.inner.model.lock().expect("feed").is_some(),
            )
            .field("done", &self.inner.done.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ServeFeed {
    /// A fresh, unpublished feed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solver side: exposes the live model broadcast to readers. Called
    /// once, right after the run creates its broadcast; wakes every thread
    /// blocked in [`ServeFeed::wait_model`].
    pub fn publish(&self, model: PublishedModel) {
        // Re-arm the done flag while holding the model lock: a feed reused
        // across runs (a durable resume republishing after its first run's
        // `mark_done`) must let new readers rendezvous again instead of
        // observing a published model on a "finished" feed. Clearing under
        // the lock keeps the pair atomic for `wait_model`'s loop, which
        // reads `done` only while holding the same lock. The counters
        // restart too, so a run's report counts only its own reads.
        let mut m = self.inner.model.lock().expect("serve feed poisoned");
        self.inner.done.store(false, Ordering::SeqCst);
        self.inner.stats.reset();
        *m = Some(model);
        self.inner.ready.notify_all();
    }

    /// Blocks until a model is published, then returns a clone of it.
    /// Returns `None` if the run finishes (or was already finished)
    /// without ever publishing.
    pub fn wait_model(&self) -> Option<PublishedModel> {
        let mut m = self.inner.model.lock().expect("serve feed poisoned");
        loop {
            if let Some(model) = m.as_ref() {
                return Some(model.clone());
            }
            if self.inner.done.load(Ordering::SeqCst) {
                return None;
            }
            m = self.inner.ready.wait(m).expect("serve feed poisoned");
        }
    }

    /// Non-blocking model lookup.
    pub fn try_model(&self) -> Option<PublishedModel> {
        self.inner
            .model
            .lock()
            .expect("serve feed poisoned")
            .clone()
    }

    /// Solver side: marks the run finished. Readers keep working — the
    /// broadcast stays valid, frozen at its final version — but servers
    /// can use this to stop refresh loops and report final counters.
    pub fn mark_done(&self) {
        self.inner.done.store(true, Ordering::SeqCst);
        // Wake waiters so a run that never published cannot strand them.
        let _guard = self.inner.model.lock().expect("serve feed poisoned");
        self.inner.ready.notify_all();
    }

    /// True once the attached run finished.
    pub fn is_done(&self) -> bool {
        self.inner.done.load(Ordering::SeqCst)
    }

    /// The shared serving counters.
    pub fn stats(&self) -> &ServeStats {
        &self.inner.stats
    }

    /// Snapshot of the serving counters since the last
    /// [`ServeFeed::publish`] (what lands in [`crate::RunReport::serve`]).
    pub fn counters(&self) -> ServeCounters {
        self.inner.stats.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(dim: usize) -> PublishedModel {
        PublishedModel {
            bcast: AsyncBcast::new(0, vec![0.0; dim], 1),
            objective: Objective::LeastSquares { lambda: 0.0 },
            dim,
        }
    }

    #[test]
    fn publish_wakes_blocked_readers() {
        let feed = ServeFeed::new();
        let reader = feed.clone();
        let t = std::thread::spawn(move || reader.wait_model().map(|m| m.dim));
        std::thread::sleep(std::time::Duration::from_millis(10));
        feed.publish(model(3));
        assert_eq!(t.join().unwrap(), Some(3));
        assert!(feed.try_model().is_some());
    }

    #[test]
    fn done_without_publish_releases_waiters() {
        let feed = ServeFeed::new();
        let reader = feed.clone();
        let t = std::thread::spawn(move || reader.wait_model().is_none());
        std::thread::sleep(std::time::Duration::from_millis(10));
        feed.mark_done();
        assert!(t.join().unwrap());
        assert!(feed.is_done());
    }

    #[test]
    fn republish_after_done_rearms_the_rendezvous() {
        let feed = ServeFeed::new();
        feed.publish(model(2));
        feed.mark_done();
        assert!(feed.is_done());
        // A resumed run republishing through the same feed re-arms the
        // done flag, so fresh readers rendezvous instead of observing a
        // finished feed.
        feed.publish(model(5));
        assert!(!feed.is_done());
        assert_eq!(feed.wait_model().map(|m| m.dim), Some(5));
        feed.mark_done();
        assert!(feed.is_done());
    }

    #[test]
    fn stats_accumulate_and_snapshot() {
        let feed = ServeFeed::new();
        feed.stats().record_read(4, 2);
        feed.stats().record_read(1, 7);
        feed.stats().record_refresh();
        assert_eq!(
            feed.counters(),
            ServeCounters {
                reads: 2,
                rows_scored: 5,
                refreshes: 1,
                max_version_lag: 7,
            }
        );
    }
}

//! # async-serve
//!
//! Serve-while-training: a versioned prediction read path over the
//! engine's MVCC snapshot store.
//!
//! A training run owns an [`async_core::AsyncBcast`] — the multi-version
//! history ring the server pushes a snapshot into after every absorbed
//! wave. This crate turns that same ring into a **read path**: serving
//! threads pin a model version ([`async_core::ReadPin`]) straight out of
//! the version table and score queries against it while the solver keeps
//! absorbing gradients and pushing new versions. Readers never copy the
//! model, never touch the worker fetch/cache path (no eviction or
//! byte-accounting side effects), and a pinned version is guaranteed to
//! stay resident until its last reader drops — the prune sweep skips
//! pinned entries and reclaims them (recycling the buffer) the moment the
//! pin count returns to zero.
//!
//! The seam between the two sides is [`async_optim::ServeFeed`]: hand one
//! clone to [`async_optim::SolverCfg::serve_feed`] and one to
//! [`Server::connect`], which blocks until the run publishes its live
//! broadcast. Each [`Server::predictor`] call then yields an independent
//! [`Predictor`] for one serving thread.
//!
//! **Freshness contract.** A predictor holds its pin until the policy
//! says otherwise: before every scoring call it measures its version lag
//! (latest − pinned) and re-pins the latest version iff the lag exceeds
//! [`ServeCfg::max_version_lag`]. Every served read is therefore at most
//! `max_version_lag` versions stale *at score time* — and during a full
//! cluster blackout (no new versions) readers simply keep serving the
//! frozen-but-bounded snapshot. Versions observed by any single reader
//! are monotone non-decreasing: the ring's `latest` only grows, across
//! failures, revivals, and joins alike.
//!
//! Scoring rides the batch kernel [`async_linalg::Matrix::rows_dot_into`]
//! (CSR partitions take the sparse row-gather path) into a caller-owned
//! buffer, so a read loop that recycles its buffer allocates nothing.

#![deny(missing_docs)]

use async_core::{AsyncBcast, ReadPin};
use async_linalg::Matrix;
use async_optim::{Objective, PublishedModel, ServeCounters, ServeFeed};

/// Serving policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCfg {
    /// Freshness bound: a predictor re-pins the latest model version the
    /// moment its pinned snapshot falls more than this many versions
    /// behind the ring's watermark. `u64::MAX` disables refreshing — the
    /// reader keeps its original pin for its whole lifetime.
    pub max_version_lag: u64,
    /// Ignored: serving keeps no query log. The field stays because the
    /// frozen `benchmark/` harness sets it; it goes with ROADMAP item 10.
    pub log_queries: bool,
}

impl Default for ServeCfg {
    fn default() -> Self {
        Self {
            max_version_lag: 8,
            log_queries: false,
        }
    }
}

/// A serving endpoint bound to one (possibly still running) solver run.
///
/// Cheap to keep around: holds the published broadcast handle and the
/// feed.
pub struct Server {
    model: PublishedModel,
    feed: ServeFeed,
    cfg: ServeCfg,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("model", &self.model)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Blocks until the run attached to `feed` publishes its model
    /// broadcast, then returns a server over it. Returns `None` when the
    /// run finished (or had already finished) without publishing.
    pub fn connect(feed: &ServeFeed, cfg: ServeCfg) -> Option<Self> {
        let model = feed.wait_model()?;
        Some(Self {
            model,
            feed: feed.clone(),
            cfg,
        })
    }

    /// The serving policy.
    pub fn cfg(&self) -> ServeCfg {
        self.cfg
    }

    /// Model dimension (features per query row).
    pub fn dim(&self) -> usize {
        self.model.dim
    }

    /// The objective the served model was trained on.
    pub fn objective(&self) -> Objective {
        self.model.objective
    }

    /// The feed this server reads through.
    pub fn feed(&self) -> &ServeFeed {
        &self.feed
    }

    /// True once the attached training run finished (the broadcast stays
    /// valid, frozen at its final version — serving keeps working).
    pub fn training_done(&self) -> bool {
        self.feed.is_done()
    }

    /// Snapshot of the serving counters of the feed's current run: they
    /// count from the run's publish on, so a reused feed starts at zero.
    pub fn counters(&self) -> ServeCounters {
        self.feed.counters()
    }

    /// Spawns an independent predictor pinned to the latest model version.
    /// Each serving thread gets its own.
    pub fn predictor(&self) -> Predictor {
        Predictor {
            bcast: self.model.bcast.clone(),
            pin: self.model.bcast.pin_read(),
            objective: self.model.objective,
            dim: self.model.dim,
            cfg: self.cfg,
            feed: self.feed.clone(),
        }
    }
}

/// One serving thread's handle: a pinned model version plus the scoring
/// kernels and freshness policy around it.
///
/// The pin is the heart of the contract: as long as this predictor (or
/// any other reader) holds version `v`, the trainer's prune sweep will
/// not recycle `v`'s snapshot out from under it, no matter how far the
/// ring advances. Dropping the predictor releases the pin, and the
/// superseded snapshot is reclaimed (buffer recycled) immediately.
pub struct Predictor {
    bcast: AsyncBcast<Vec<f64>>,
    pin: ReadPin<Vec<f64>>,
    objective: Objective,
    dim: usize,
    cfg: ServeCfg,
    feed: ServeFeed,
}

impl std::fmt::Debug for Predictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Predictor")
            .field("version", &self.pin.version())
            .field("dim", &self.dim)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Predictor {
    /// The model version this predictor is currently pinned to.
    pub fn version(&self) -> u64 {
        self.pin.version()
    }

    /// The ring's live watermark (latest pushed version).
    pub fn latest_version(&self) -> u64 {
        self.bcast.latest_version()
    }

    /// How many versions behind the watermark the current pin is.
    pub fn lag(&self) -> u64 {
        self.bcast
            .latest_version()
            .saturating_sub(self.pin.version())
    }

    /// The pinned model coefficients.
    pub fn model(&self) -> &[f64] {
        self.pin.value()
    }

    /// Unconditionally re-pins the latest version (releasing the old pin)
    /// and returns the new pinned version.
    pub fn refresh(&mut self) -> u64 {
        self.pin = self.bcast.pin_read();
        self.feed.stats().record_refresh();
        self.pin.version()
    }

    /// The freshness policy, applied before every scoring call: re-pin
    /// iff the lag exceeds [`ServeCfg::max_version_lag`]. Returns the lag
    /// at score time — 0 after a refresh (the new pin *was* the watermark
    /// under the version-table lock), so the recorded lag never exceeds
    /// the configured bound.
    fn enforce_freshness(&mut self) -> u64 {
        let lag = self.lag();
        if lag > self.cfg.max_version_lag {
            self.refresh();
            return 0;
        }
        lag
    }

    /// Scores query rows `rows` of `m` into `out` (overwritten):
    /// `out[j] = predict(m[rows[j]] · w)` against the pinned model. CSR
    /// matrices take the sparse row-gather kernel; `out`'s capacity is
    /// reused, so a caller recycling its buffer allocates nothing.
    ///
    /// # Panics
    /// Panics when `m`'s column count differs from the model dimension.
    pub fn predict_rows_into(&mut self, m: &Matrix, rows: &[u32], out: &mut Vec<f64>) {
        assert_eq!(
            m.ncols(),
            self.dim,
            "predict: query matrix has {} columns, model has {}",
            m.ncols(),
            self.dim
        );
        let lag = self.enforce_freshness();
        m.rows_dot_into(rows, self.pin.value(), out);
        for z in out.iter_mut() {
            *z = self.objective.predict(*z);
        }
        self.feed.stats().record_read(rows.len() as u64, lag);
    }

    /// Scores a single sparse query: `predict(Σ vᵢ·w[iᵢ])` over strictly
    /// increasing `(coordinate, value)` pairs.
    ///
    /// # Panics
    /// Panics when a coordinate is out of the model's range.
    pub fn predict_query(&mut self, features: &[(u32, f64)]) -> f64 {
        let lag = self.enforce_freshness();
        let w = self.pin.value();
        let z: f64 = features
            .iter()
            .map(|&(i, v)| {
                assert!(
                    (i as usize) < self.dim,
                    "predict: coordinate {i} out of model range {}",
                    self.dim
                );
                v * w[i as usize]
            })
            .sum();
        self.feed.stats().record_read(1, lag);
        self.objective.predict(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_with_model(dim: usize, objective: Objective) -> (ServeFeed, AsyncBcast<Vec<f64>>) {
        let bcast = AsyncBcast::new(7, vec![0.0; dim], 0);
        let feed = ServeFeed::new();
        feed.publish(PublishedModel {
            bcast: bcast.clone(),
            objective,
            dim,
        });
        (feed, bcast)
    }

    #[test]
    fn connect_returns_none_when_run_never_publishes() {
        let feed = ServeFeed::new();
        feed.mark_done();
        assert!(Server::connect(&feed, ServeCfg::default()).is_none());
    }

    #[test]
    fn predictor_scores_against_its_pinned_version() {
        let (feed, bcast) = feed_with_model(3, Objective::LeastSquares { lambda: 0.0 });
        bcast.push_snapshot(&[1.0, -2.0, 0.5]);
        let srv = Server::connect(&feed, ServeCfg::default()).unwrap();
        let mut p = srv.predictor();
        assert_eq!(p.version(), 1);
        assert_eq!(p.model(), &[1.0, -2.0, 0.5]);
        assert_eq!(p.predict_query(&[(0, 2.0), (2, 4.0)]), 2.0 + 2.0);
        let c = srv.counters();
        assert_eq!(c.reads, 1);
        assert_eq!(c.rows_scored, 1);
        assert_eq!(c.max_version_lag, 0);
        // Row ids are local to the matrix in hand: over a row window, row 0
        // is the window's first row.
        let eye = [
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        let m = Matrix::Dense(async_linalg::DenseMatrix::from_rows(&eye).unwrap());
        let mut out = Vec::new();
        p.predict_rows_into(&m.slice_rows(1, 3), &[1, 0], &mut out);
        assert_eq!(out, [0.5, -2.0]);
    }

    #[test]
    fn logistic_predictions_are_probabilities() {
        let (feed, bcast) = feed_with_model(2, Objective::Logistic { lambda: 0.0 });
        bcast.push_snapshot(&[3.0, 0.0]);
        let srv = Server::connect(&feed, ServeCfg::default()).unwrap();
        let mut p = srv.predictor();
        let pos = p.predict_query(&[(0, 10.0)]);
        let neg = p.predict_query(&[(0, -10.0)]);
        assert!(pos > 0.999 && pos <= 1.0, "σ(30) ≈ 1, got {pos}");
        assert!((0.0..0.001).contains(&neg), "σ(−30) ≈ 0, got {neg}");
        assert_eq!(p.predict_query(&[(1, 5.0)]), 0.5, "zero margin is 0.5");
    }

    #[test]
    fn freshness_policy_repins_only_past_the_lag_bound() {
        let (feed, bcast) = feed_with_model(2, Objective::LeastSquares { lambda: 0.0 });
        let srv = Server::connect(
            &feed,
            ServeCfg {
                max_version_lag: 3,
                ..ServeCfg::default()
            },
        )
        .unwrap();
        let mut p = srv.predictor();
        assert_eq!(p.version(), 0);
        // Within the bound: the pin holds and the served lag is recorded.
        for k in 1..=3 {
            bcast.push_snapshot(&[k as f64, 0.0]);
        }
        assert_eq!(
            p.predict_query(&[(0, 1.0)]),
            0.0,
            "stale pin still serves v0"
        );
        assert_eq!(p.version(), 0);
        assert_eq!(srv.counters().refreshes, 0);
        assert_eq!(srv.counters().max_version_lag, 3);
        // Past the bound: the next read re-pins the watermark first.
        bcast.push_snapshot(&[9.0, 0.0]);
        assert_eq!(p.predict_query(&[(0, 1.0)]), 9.0);
        assert_eq!(p.version(), 4);
        let c = srv.counters();
        assert_eq!(c.refreshes, 1);
        assert_eq!(c.max_version_lag, 3, "served lag never exceeded the bound");
    }
}

//! Liveness and deadlines: when the driver declares a silent or overdue
//! worker dead, and how long the result pump may block before it must
//! look again.

use std::time::{Duration, Instant};

use async_cluster::WorkerId;

use super::RemoteEngine;
use crate::engine::Engine;

/// Upper bound on one pump's wait *while a timer is armed* (scheduled
/// chaos, liveness, or task deadlines); `poll(2)` rounds it up to 1 ms.
/// With no timer armed the pump waits without a timeout, burning nothing.
const DEFAULT_POLL_INTERVAL: Duration = Duration::from_micros(500);

impl RemoteEngine {
    /// The instant `w` is declared dead unless a frame (or its task's
    /// result) arrives first: the earlier of its liveness and task
    /// deadlines, where configured. `None` for a dead worker.
    fn deadline(&self, w: WorkerId) -> Option<Instant> {
        if !self.roster.alive(w) {
            return None;
        }
        let silent = self.cfg.liveness.map(|liv| self.links[w].last_beat + liv);
        let overdue = self
            .cfg
            .task_deadline
            .zip(self.roster.seat_of(w))
            .map(|(dl, s)| s.payload.issued_real + dl);
        silent.into_iter().chain(overdue).min()
    }

    /// Declares workers dead for missed liveness or task deadlines. Runs
    /// in every pump iteration; both checks are no-ops unless configured.
    pub(super) fn enforce_deadlines(&mut self) {
        if self.cfg.liveness.is_none() && self.cfg.task_deadline.is_none() {
            return;
        }
        let now = Instant::now();
        let victims: Vec<WorkerId> = (0..self.roster.workers())
            .filter(|&w| self.deadline(w).is_some_and(|d| d < now))
            .collect();
        for w in victims {
            self.kill_worker(w);
        }
    }

    /// How long one pump may wait for a frame: until the earliest armed
    /// timer (scheduled chaos, liveness or task deadline), capped by
    /// [`DEFAULT_POLL_INTERVAL`]; `None` (no limit) when no timer is armed.
    pub(super) fn wait_limit(&self) -> Option<Duration> {
        let now = Instant::now();
        let chaos = self
            .roster
            .next_event_at()
            .map(|at| Duration::from_micros(at.saturating_since(self.now()).as_micros()));
        (0..self.roster.workers())
            .filter_map(|w| self.deadline(w))
            .map(|d| d.saturating_duration_since(now))
            .chain(chaos)
            .min()
            .map(|d| d.min(DEFAULT_POLL_INTERVAL))
    }
}

//! Experiment instrumentation.
//!
//! Two quantities drive the paper's evaluation:
//!
//! * **Convergence traces** — `(time, error)` pairs behind every curve in
//!   Figures 2, 3, 5, 7 and 8 ([`ConvergenceTrace`]).
//! * **Wait time** — "the time from when a worker submits its task result
//!   to the server until it receives a new task" (§6.3), averaged per
//!   iteration; Figures 4, 6 and Table 3 ([`WaitTimeRecorder`]).

use crate::time::{VDur, VTime};
use crate::WorkerId;

/// Accumulates per-worker wait times.
#[derive(Debug, Clone)]
pub struct WaitTimeRecorder {
    sums: Vec<VDur>,
    counts: Vec<u64>,
    /// Last result-submission instant per worker, if a wait is open.
    open_since: Vec<Option<VTime>>,
}

impl WaitTimeRecorder {
    /// A recorder for `workers` workers.
    pub fn new(workers: usize) -> Self {
        Self {
            sums: vec![VDur::ZERO; workers],
            counts: vec![0; workers],
            open_since: vec![None; workers],
        }
    }

    /// Number of workers the recorder tracks.
    pub fn workers(&self) -> usize {
        self.sums.len()
    }

    /// Grows the recorder by one worker (a mid-run join) and returns the
    /// new worker's id.
    pub fn add_worker(&mut self) -> WorkerId {
        self.sums.push(VDur::ZERO);
        self.counts.push(0);
        self.open_since.push(None);
        self.sums.len() - 1
    }

    /// Worker `w` submitted a task result at `t`: its wait begins.
    pub fn result_submitted(&mut self, w: WorkerId, t: VTime) {
        self.open_since[w] = Some(t);
    }

    /// Worker `w` received a new task at `t`: closes the open wait, if any.
    pub fn task_received(&mut self, w: WorkerId, t: VTime) {
        if let Some(start) = self.open_since[w].take() {
            self.sums[w] += t.saturating_since(start);
            self.counts[w] += 1;
        }
    }

    /// Discards `w`'s open wait without recording it — called when the
    /// worker dies (and defensively on revival), so downtime between a
    /// death and the first post-revival task is never counted as barrier
    /// wait.
    pub fn cancel_open(&mut self, w: WorkerId) {
        self.open_since[w] = None;
    }

    /// Records an explicit wait interval (used by the threaded backend,
    /// which measures real time directly).
    pub fn record(&mut self, w: WorkerId, wait: VDur) {
        self.sums[w] += wait;
        self.counts[w] += 1;
    }

    /// Mean wait of worker `w` (zero if it never waited).
    pub fn mean_for(&self, w: WorkerId) -> VDur {
        self.sums[w]
            .as_micros()
            .checked_div(self.counts[w])
            .map_or(VDur::ZERO, VDur::from_micros)
    }

    /// The running totals: recorded wait in µs and the number of waits.
    pub fn totals(&self) -> (u64, u64) {
        (self.sums.iter().map(|d| d.as_micros()).sum(), self.count())
    }

    /// Mean wait across the intervals of all workers recorded since
    /// `earlier` [`totals`](Self::totals) were read — the paper's "average
    /// wait time per iteration" of one run; `(0, 0)` means all of them.
    pub fn mean_since(&self, earlier: (u64, u64)) -> VDur {
        let (total, n) = self.totals();
        let waited = total - earlier.0;
        waited
            .checked_div(n - earlier.1)
            .map_or(VDur::ZERO, VDur::from_micros)
    }

    /// Total number of recorded waits.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// A convergence trace: `(virtual time, error)` samples in time order.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceTrace {
    points: Vec<(VTime, f64)>,
}

impl ConvergenceTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample; `t` must be nondecreasing.
    pub fn push(&mut self, t: VTime, error: f64) {
        if let Some(&(last, _)) = self.points.last() {
            debug_assert!(t >= last, "trace times must be nondecreasing");
        }
        self.points.push((t, error));
    }

    /// The recorded samples.
    pub fn points(&self) -> &[(VTime, f64)] {
        &self.points
    }

    /// Final recorded error, if any samples exist.
    pub fn final_error(&self) -> Option<f64> {
        self.points.last().map(|&(_, e)| e)
    }

    /// Earliest time at which the error drops to `target` or below — the
    /// "time to target error" used for the paper's speedup claims.
    pub fn time_to_reach(&self, target: f64) -> Option<VTime> {
        self.points
            .iter()
            .find(|&&(_, e)| e <= target)
            .map(|&(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_recorder_basic_cycle() {
        let mut r = WaitTimeRecorder::new(2);
        r.result_submitted(0, VTime::from_micros(100));
        r.task_received(0, VTime::from_micros(400));
        assert_eq!(r.mean_for(0).as_micros(), 300);
        assert_eq!(r.mean_for(1), VDur::ZERO);
        assert_eq!(r.count(), 1);
    }

    #[test]
    fn task_received_without_open_wait_is_ignored() {
        let mut r = WaitTimeRecorder::new(1);
        r.task_received(0, VTime::from_micros(50));
        assert_eq!(r.count(), 0);
    }

    #[test]
    fn overall_mean_weights_by_count() {
        let mut r = WaitTimeRecorder::new(2);
        r.record(0, VDur::from_micros(100));
        r.record(0, VDur::from_micros(100));
        r.record(1, VDur::from_micros(400));
        assert_eq!(r.mean_since((0, 0)).as_micros(), 200);
        assert_eq!(r.mean_for(0).as_micros(), 100);
        assert_eq!(r.mean_for(1).as_micros(), 400);
    }

    #[test]
    fn trace_time_to_reach() {
        let mut t = ConvergenceTrace::new();
        t.push(VTime::from_micros(0), 10.0);
        t.push(VTime::from_micros(100), 1.0);
        t.push(VTime::from_micros(200), 0.1);
        assert_eq!(t.time_to_reach(1.0), Some(VTime::from_micros(100)));
        assert_eq!(t.time_to_reach(0.05), None);
        assert_eq!(t.final_error(), Some(0.1));
    }
}

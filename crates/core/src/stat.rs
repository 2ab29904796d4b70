//! The `STAT` table (§4.1).
//!
//! For each worker the server stores its most recent status: availability,
//! staleness, and average task-completion time. The table is maintained by
//! the coordinator (the result pump in [`crate::context::AsyncContext`])
//! and consumed by barrier-control filters through read-only
//! [`StatSnapshot`]s — the paper's `AC.STAT`.

use async_cluster::{VDur, VTime, WorkerId};

/// A task currently executing on a worker: its row in the coordinator's
/// task ledger while it runs (one task per worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// Engine tag (the partition index), echoed back by its completion.
    pub tag: u64,
    /// Model version (server update count) the task was *first* issued at;
    /// a retry keeps it.
    pub issued_version: u64,
    /// Submission instant.
    pub issued_at: VTime,
    /// Mini-batch size declared at submission.
    pub minibatch: u64,
    /// Re-submissions after losses so far (0 on first issue).
    pub attempts: u32,
}

/// One worker's row of the `STAT` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStat {
    /// False once the worker has failed.
    pub alive: bool,
    /// True when the worker is not executing a task (§4.1: "a worker is
    /// available if it is not executing a task").
    pub available: bool,
    /// The worker's SSP clock: advances by one per completed task, and is
    /// *seeded* at the cluster's minimum alive clock on revival/join so
    /// slack predicates stay meaningful under churn.
    pub clock: u64,
    /// Tasks completed in this worker's current life. Unlike
    /// [`WorkerStat::clock`] this is never seeded, so it is the honest
    /// "does this worker have completion history" signal.
    pub completed: u64,
    /// Running average of task service times (submission → result arrival)
    /// over this life's completions.
    pub avg_completion: VDur,
    /// The in-flight task, if any.
    pub inflight: Option<InFlight>,
    /// When the worker last submitted a result.
    pub last_result_at: Option<VTime>,
}

impl WorkerStat {
    fn new() -> Self {
        Self {
            alive: true,
            available: true,
            clock: 0,
            completed: 0,
            avg_completion: VDur::ZERO,
            inflight: None,
            last_result_at: None,
        }
    }

    /// Staleness of this worker's in-flight task as of `version`: how many
    /// model updates have happened since the task was issued.
    pub fn inflight_staleness(&self, version: u64) -> Option<u64> {
        self.inflight
            .map(|f| version.saturating_sub(f.issued_version))
    }
}

/// The mutable `STAT` table owned by the context.
#[derive(Debug, Clone)]
pub struct StatTable {
    workers: Vec<WorkerStat>,
}

impl StatTable {
    /// A table for `n` workers, all idle and alive.
    pub fn new(n: usize) -> Self {
        Self {
            workers: vec![WorkerStat::new(); n],
        }
    }

    /// Number of workers (rows).
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Row accessor.
    pub fn get(&self, w: WorkerId) -> &WorkerStat {
        &self.workers[w]
    }

    /// Marks `w` busy running `task`.
    pub fn task_issued(&mut self, w: WorkerId, task: InFlight) {
        let s = &mut self.workers[w];
        // invariant: the coordinator issues only to rows it read as alive
        // and available.
        debug_assert!(s.alive && s.available, "issuing to unavailable worker {w}");
        s.available = false;
        s.inflight = Some(task);
    }

    /// Marks `w` idle after a completion, folding `service` into its
    /// average completion time, and returns the task it ran. `None`, with
    /// the table untouched, when `w` has no running task.
    pub fn task_completed(&mut self, w: WorkerId, at: VTime, service: VDur) -> Option<InFlight> {
        let s = self.workers.get_mut(w)?;
        let inflight = s.inflight.take()?;
        s.available = true;
        s.last_result_at = Some(at);
        // Running mean: avg += (x − avg) / n, over this life's completions
        // (the clock may be seeded after a revival and would skew n).
        s.clock += 1;
        s.completed += 1;
        let n = s.completed;
        let delta = service.as_micros() as i64 - s.avg_completion.as_micros() as i64;
        let new_avg = s.avg_completion.as_micros() as i64 + delta / n as i64;
        s.avg_completion = VDur::from_micros(new_avg.max(0) as u64);
        Some(inflight)
    }

    /// Marks `w` dead and returns the task it was running, if any.
    pub fn worker_died(&mut self, w: WorkerId) -> Option<InFlight> {
        let s = &mut self.workers[w];
        s.alive = false;
        s.available = false;
        s.inflight.take()
    }

    /// The minimum SSP clock over alive rows, excluding `except` — the
    /// clock a (re)joining worker is seeded with so SSP-style predicates
    /// neither stall the cluster behind a zeroed rejoiner nor block the
    /// rejoiner itself.
    fn join_clock(&self, except: Option<WorkerId>) -> u64 {
        self.workers
            .iter()
            .enumerate()
            .filter(|&(i, s)| s.alive && Some(i) != except)
            .map(|(_, s)| s.clock)
            .min()
            .unwrap_or(0)
    }

    /// Resets `w`'s row for a revival: the worker returns as a fresh
    /// executor (no in-flight task, no completion history), alive and
    /// available, with its clock seeded at the current minimum alive clock
    /// (see [`StatTable::add_worker`] for why).
    pub fn worker_revived(&mut self, w: WorkerId) {
        let clock = self.join_clock(Some(w));
        self.workers[w] = WorkerStat {
            clock,
            ..WorkerStat::new()
        };
    }

    /// Appends a row for a brand-new worker (a mid-run join), seeded at
    /// the minimum alive clock: seeding at 0 would make SSP's slack bound
    /// stall every incumbent behind the newcomer, while seeding at the
    /// minimum admits it immediately without letting it run ahead.
    /// Returns the new worker's id.
    pub fn add_worker(&mut self) -> WorkerId {
        let clock = self.join_clock(None);
        self.workers.push(WorkerStat {
            clock,
            ..WorkerStat::new()
        });
        self.workers.len() - 1
    }

    /// Folds a [`sparklet::Completion::WorkerUp`]-style notification into
    /// the table: ids beyond the table are joins (rows are appended up to
    /// and including `w`), known ids are revivals.
    pub fn worker_up(&mut self, w: WorkerId) {
        if w < self.workers.len() {
            self.worker_revived(w);
        } else {
            while self.workers.len() <= w {
                self.add_worker();
            }
        }
    }

    /// An immutable snapshot for barrier filters (the paper's `AC.STAT`).
    pub fn snapshot(&self, now: VTime, version: u64) -> StatSnapshot {
        StatSnapshot {
            now,
            version,
            workers: self.workers.clone(),
        }
    }
}

/// A read-only view of the `STAT` table at a moment in time.
#[derive(Debug, Clone)]
pub struct StatSnapshot {
    /// Engine time of the snapshot.
    pub now: VTime,
    /// Server model version (update count) at the snapshot.
    pub version: u64,
    /// Worker rows, indexed by worker id.
    pub workers: Vec<WorkerStat>,
}

impl StatSnapshot {
    /// Number of alive workers.
    pub fn alive_count(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Number of available workers (the paper stores this on the server).
    pub fn available_count(&self) -> usize {
        self.workers.iter().filter(|w| w.available).count()
    }

    /// Maximum staleness over in-flight tasks (the paper's
    /// "maximum overall worker staleness"); 0 when nothing is in flight.
    pub fn max_staleness(&self) -> u64 {
        self.workers
            .iter()
            .filter_map(|w| w.inflight_staleness(self.version))
            .max()
            .unwrap_or(0)
    }

    /// Minimum SSP clock over alive workers; `None` if none alive.
    pub fn min_clock(&self) -> Option<u64> {
        self.workers
            .iter()
            .filter(|w| w.alive)
            .map(|w| w.clock)
            .min()
    }

    /// Median average-completion time over alive workers with completion
    /// history in their current life (revived workers start history-free).
    pub fn median_avg_completion(&self) -> Option<VDur> {
        let mut v: Vec<VDur> = self
            .workers
            .iter()
            .filter(|w| w.alive && w.completed > 0)
            .map(|w| w.avg_completion)
            .collect();
        if v.is_empty() {
            return None;
        }
        v.sort_unstable();
        Some(v[v.len() / 2])
    }

    /// Worker ids that are available (alive and idle).
    pub fn available_workers(&self) -> Vec<WorkerId> {
        (0..self.workers.len())
            .filter(|&w| self.workers[w].available)
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A first-issue running row at `version`, tagged with partition 0.
    pub(crate) fn running(version: u64, at: VTime, minibatch: u64) -> InFlight {
        InFlight {
            tag: 0,
            issued_version: version,
            issued_at: at,
            minibatch,
            attempts: 0,
        }
    }

    #[test]
    fn issue_and_complete_cycle() {
        let mut t = StatTable::new(2);
        assert!(t.get(0).available);
        t.task_issued(0, running(5, VTime::from_micros(10), 32));
        assert!(!t.get(0).available);
        let snap = t.snapshot(VTime::from_micros(10), 7);
        assert_eq!(snap.workers[0].inflight_staleness(7), Some(2));
        assert_eq!(snap.max_staleness(), 2);
        assert_eq!(snap.available_count(), 1);

        let inflight = t
            .task_completed(0, VTime::from_micros(50), VDur::from_micros(40))
            .unwrap();
        assert_eq!(inflight.issued_version, 5);
        assert_eq!(inflight.minibatch, 32);
        assert!(t.get(0).available);
        assert_eq!(t.get(0).clock, 1);
        assert_eq!(t.get(0).avg_completion, VDur::from_micros(40));
    }

    #[test]
    fn avg_completion_is_running_mean() {
        let mut t = StatTable::new(1);
        for (i, svc) in [100u64, 200, 300].iter().enumerate() {
            t.task_issued(0, running(i as u64, VTime::ZERO, 1));
            t.task_completed(0, VTime::from_micros(*svc), VDur::from_micros(*svc));
        }
        assert_eq!(t.get(0).avg_completion, VDur::from_micros(200));
        assert_eq!(t.get(0).completed, 3);
    }

    #[test]
    fn death_clears_state() {
        let mut t = StatTable::new(2);
        t.task_issued(1, running(0, VTime::ZERO, 1));
        t.worker_died(1);
        let s = t.snapshot(VTime::ZERO, 0);
        assert!(!s.workers[1].alive);
        assert!(!s.workers[1].available);
        assert_eq!(s.alive_count(), 1);
        assert_eq!(s.max_staleness(), 0);
    }

    #[test]
    fn snapshot_aggregates() {
        let mut t = StatTable::new(3);
        t.task_issued(0, running(0, VTime::ZERO, 1));
        t.task_completed(0, VTime::from_micros(10), VDur::from_micros(10));
        t.task_issued(1, running(1, VTime::ZERO, 1));
        t.task_completed(1, VTime::from_micros(30), VDur::from_micros(30));
        let s = t.snapshot(VTime::from_micros(30), 2);
        assert_eq!(s.min_clock(), Some(0)); // worker 2 has done nothing
        assert_eq!(s.median_avg_completion(), Some(VDur::from_micros(30)));
        assert_eq!(s.available_workers(), vec![0, 1, 2]);
    }

    #[test]
    fn revival_resets_the_row_cleanly() {
        let mut t = StatTable::new(2);
        // Worker 1 builds history, then dies mid-task.
        for v in 0..4 {
            t.task_issued(1, running(v, VTime::ZERO, 8));
            t.task_completed(1, VTime::from_micros(v + 1), VDur::from_micros(100));
        }
        t.task_issued(1, running(4, VTime::from_micros(10), 8));
        t.worker_died(1);
        t.worker_revived(1);
        let s = t.get(1);
        assert!(s.alive && s.available);
        assert_eq!(s.inflight, None, "no ghost in-flight task");
        assert_eq!(s.avg_completion, VDur::ZERO, "completion history reset");
        assert_eq!(s.last_result_at, None);
        // Clock seeds at the minimum over the *other* alive workers —
        // worker 0 has clock 0, so the rejoiner restarts at 0 here.
        assert_eq!(s.clock, 0);
    }

    #[test]
    fn rejoiner_clock_seeds_at_min_alive() {
        let mut t = StatTable::new(3);
        for w in 0..2 {
            for v in 0..5 {
                t.task_issued(w, running(v, VTime::ZERO, 1));
                t.task_completed(w, VTime::from_micros(v + 1), VDur::from_micros(1));
            }
        }
        // Worker 2 (clock 0) dies; survivors are at clock 5.
        t.worker_died(2);
        t.worker_revived(2);
        assert_eq!(
            t.get(2).clock,
            5,
            "rejoiner seeds at min alive clock so SSP neither stalls nor races"
        );
        // A join does the same.
        let w = t.add_worker();
        assert_eq!(w, 3);
        assert_eq!(t.get(3).clock, 5);
        assert!(t.get(3).alive && t.get(3).available);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn worker_up_dispatches_revive_vs_join() {
        let mut t = StatTable::new(2);
        t.worker_died(0);
        t.worker_up(0); // revival
        assert!(t.get(0).alive);
        assert_eq!(t.len(), 2);
        t.worker_up(3); // join (grows through 2 and 3)
        assert_eq!(t.len(), 4);
        assert!(t.get(2).alive && t.get(3).alive);
        let snap = t.snapshot(VTime::ZERO, 0);
        assert_eq!(snap.alive_count(), 4);
        assert_eq!(snap.available_workers(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn alive_set_transitions_update_aggregates() {
        let mut t = StatTable::new(3);
        for v in 0..3 {
            t.task_issued(0, running(v, VTime::ZERO, 1));
            t.task_completed(0, VTime::from_micros(v + 1), VDur::from_micros(10));
        }
        // The only zero-clock workers die: min_clock must follow the
        // alive set (this is what un-wedges SSP when the slowest dies).
        t.worker_died(1);
        t.worker_died(2);
        let s = t.snapshot(VTime::from_micros(10), 3);
        assert_eq!(s.alive_count(), 1);
        assert_eq!(s.min_clock(), Some(3));
        t.worker_revived(1);
        let s = t.snapshot(VTime::from_micros(10), 3);
        assert_eq!(s.alive_count(), 2);
        assert_eq!(s.min_clock(), Some(3), "rejoiner seeded at min alive");
    }

    #[test]
    fn staleness_saturates() {
        let s = WorkerStat {
            alive: true,
            available: false,
            clock: 0,
            completed: 0,
            avg_completion: VDur::ZERO,
            inflight: Some(running(9, VTime::ZERO, 1)),
            last_result_at: None,
        };
        assert_eq!(
            s.inflight_staleness(4),
            Some(0),
            "future-issued tasks clamp to 0"
        );
    }
}

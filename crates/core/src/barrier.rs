//! Barrier control (§3, §4.4, Listing 2).
//!
//! A [`BarrierFilter`] is the paper's `ASYNCbarrier` predicate: given the
//! current `STAT` snapshot it decides which *available* workers should
//! receive new tasks. The three classic strategies map directly:
//!
//! ```text
//! f: STAT.foreach(true)                      % ASP
//! f: STAT.foreach(Available_Workers == P)    % BSP
//! f: STAT.foreach(MAX_Staleness < s)         % SSP
//! ```
//!
//! plus the β-fraction rule the paper uses in its ASGD walk-through
//! ("submit only when the number of available workers is at least ⌊β·P⌋"),
//! a completion-time strategy in the spirit of adaptive-synchronous work
//! the paper cites, and fully custom user predicates.

use std::sync::Arc;

use async_cluster::WorkerId;

use crate::stat::StatSnapshot;

/// A user-supplied admission predicate over the `STAT` snapshot.
pub type BarrierPredicate = Arc<dyn Fn(&StatSnapshot, WorkerId) -> bool + Send + Sync>;

/// A barrier-control strategy. See the module docs.
#[derive(Clone)]
pub enum BarrierFilter {
    /// Asynchronous Parallel: every available worker proceeds immediately.
    Asp,
    /// Bulk Synchronous Parallel: workers proceed only when *all* alive
    /// workers are available (a full barrier between rounds).
    Bsp,
    /// Stale Synchronous Parallel with `slack`: a worker may proceed only
    /// while its task clock is within `slack` of the slowest alive worker.
    Ssp {
        /// Maximum allowed clock lead.
        slack: u64,
    },
    /// Proceed only when at least `⌊β · alive⌋` workers are available, then
    /// release all of them (the paper's bounded-staleness ASGD example).
    MinAvailableFraction {
        /// Required available fraction β ∈ (0, 1].
        beta: f64,
    },
    /// Exclude chronically slow workers: an available worker proceeds only
    /// if its average completion time is at most `factor` × the cluster
    /// median (workers with no history always proceed).
    CompletionTime {
        /// Slowness tolerance factor (≥ 1 makes sense).
        factor: f64,
    },
    /// Arbitrary user predicate over the snapshot and candidate worker.
    Custom(BarrierPredicate),
}

impl std::fmt::Debug for BarrierFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BarrierFilter::Asp => write!(f, "Asp"),
            BarrierFilter::Bsp => write!(f, "Bsp"),
            BarrierFilter::Ssp { slack } => write!(f, "Ssp({slack})"),
            BarrierFilter::MinAvailableFraction { beta } => write!(f, "MinAvail({beta})"),
            BarrierFilter::CompletionTime { factor } => write!(f, "CompletionTime({factor})"),
            BarrierFilter::Custom(_) => write!(f, "Custom"),
        }
    }
}

impl BarrierFilter {
    /// Convenience constructor for [`BarrierFilter::Custom`].
    pub fn custom(f: impl Fn(&StatSnapshot, WorkerId) -> bool + Send + Sync + 'static) -> Self {
        BarrierFilter::Custom(Arc::new(f))
    }

    /// The workers that should receive tasks now: always a subset of the
    /// snapshot's available workers.
    pub fn select(&self, snap: &StatSnapshot) -> Vec<WorkerId> {
        let available = snap.available_workers();
        match self {
            BarrierFilter::Asp => available,
            BarrierFilter::Bsp => {
                if snap.available_count() == snap.alive_count() && snap.alive_count() > 0 {
                    available
                } else {
                    Vec::new()
                }
            }
            BarrierFilter::Ssp { slack } => {
                let Some(min_clock) = snap.min_clock() else {
                    return Vec::new();
                };
                available
                    .into_iter()
                    .filter(|&w| snap.workers[w].clock.saturating_sub(min_clock) <= *slack)
                    .collect()
            }
            BarrierFilter::MinAvailableFraction { beta } => {
                let needed = ((snap.alive_count() as f64) * beta).floor().max(1.0) as usize;
                if snap.available_count() >= needed {
                    available
                } else {
                    Vec::new()
                }
            }
            BarrierFilter::CompletionTime { factor } => {
                let Some(median) = snap.median_avg_completion() else {
                    return available;
                };
                let cutoff = median.mul_f64(*factor);
                available
                    .into_iter()
                    .filter(|&w| {
                        snap.workers[w].completed == 0 || snap.workers[w].avg_completion <= cutoff
                    })
                    .collect()
            }
            BarrierFilter::Custom(f) => available.into_iter().filter(|&w| f(snap, w)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stat::tests::running;
    use crate::stat::StatTable;
    use async_cluster::{VDur, VTime};

    fn table(n: usize) -> StatTable {
        StatTable::new(n)
    }

    #[test]
    fn asp_selects_all_available() {
        let mut t = table(4);
        t.task_issued(2, running(0, VTime::ZERO, 1));
        let snap = t.snapshot(VTime::ZERO, 0);
        assert_eq!(BarrierFilter::Asp.select(&snap), vec![0, 1, 3]);
    }

    #[test]
    fn bsp_requires_everyone_idle() {
        let mut t = table(3);
        t.task_issued(0, running(0, VTime::ZERO, 1));
        let snap = t.snapshot(VTime::ZERO, 0);
        assert!(BarrierFilter::Bsp.select(&snap).is_empty());
        t.task_completed(0, VTime::from_micros(1), VDur::from_micros(1));
        let snap = t.snapshot(VTime::from_micros(1), 1);
        assert_eq!(BarrierFilter::Bsp.select(&snap), vec![0, 1, 2]);
    }

    #[test]
    fn bsp_ignores_dead_workers() {
        let mut t = table(3);
        t.worker_died(2);
        let snap = t.snapshot(VTime::ZERO, 0);
        assert_eq!(BarrierFilter::Bsp.select(&snap), vec![0, 1]);
    }

    #[test]
    fn ssp_bounds_clock_lead() {
        let mut t = table(2);
        // Worker 0 completes 3 tasks; worker 1 none.
        for v in 0..3 {
            t.task_issued(0, running(v, VTime::ZERO, 1));
            t.task_completed(0, VTime::from_micros(v + 1), VDur::from_micros(1));
        }
        let snap = t.snapshot(VTime::from_micros(10), 3);
        // Lead is 3: slack 2 blocks worker 0, slack 3 allows it.
        assert_eq!(BarrierFilter::Ssp { slack: 2 }.select(&snap), vec![1]);
        assert_eq!(BarrierFilter::Ssp { slack: 3 }.select(&snap), vec![0, 1]);
    }

    #[test]
    fn min_available_fraction_gates_release() {
        let mut t = table(4);
        t.task_issued(0, running(0, VTime::ZERO, 1));
        t.task_issued(1, running(0, VTime::ZERO, 1));
        let snap = t.snapshot(VTime::ZERO, 0);
        // 2 of 4 available; β = 0.75 needs 3.
        assert!(BarrierFilter::MinAvailableFraction { beta: 0.75 }
            .select(&snap)
            .is_empty());
        assert_eq!(
            BarrierFilter::MinAvailableFraction { beta: 0.5 }.select(&snap),
            vec![2, 3]
        );
    }

    #[test]
    fn completion_time_excludes_slowpokes() {
        let mut t = table(3);
        // Worker speeds: 0 fast (10µs), 1 medium (20µs), 2 slow (200µs).
        for (w, svc) in [(0u64, 10u64), (1, 20), (2, 200)] {
            t.task_issued(w as usize, running(0, VTime::ZERO, 1));
            t.task_completed(w as usize, VTime::from_micros(svc), VDur::from_micros(svc));
        }
        let snap = t.snapshot(VTime::from_micros(300), 3);
        // Median avg = 20µs; factor 2 → cutoff 40µs excludes worker 2.
        assert_eq!(
            BarrierFilter::CompletionTime { factor: 2.0 }.select(&snap),
            vec![0, 1]
        );
        // A worker with no history always passes.
        let mut t2 = table(2);
        t2.task_issued(0, running(0, VTime::ZERO, 1));
        t2.task_completed(0, VTime::from_micros(100), VDur::from_micros(100));
        let snap2 = t2.snapshot(VTime::from_micros(100), 1);
        assert_eq!(
            BarrierFilter::CompletionTime { factor: 1.0 }.select(&snap2),
            vec![0, 1]
        );
    }

    #[test]
    fn ssp_unblocks_when_the_slowest_worker_dies() {
        let mut t = table(2);
        // Worker 0 races ahead to clock 4; worker 1 stays at 0.
        for v in 0..4 {
            t.task_issued(0, running(v, VTime::ZERO, 1));
            t.task_completed(0, VTime::from_micros(v + 1), VDur::from_micros(1));
        }
        let snap = t.snapshot(VTime::from_micros(10), 4);
        assert_eq!(
            BarrierFilter::Ssp { slack: 1 }.select(&snap),
            vec![1],
            "only the laggard proceeds; the leader is blocked"
        );
        // The laggard dies: min_clock is now over the alive set only, so
        // the slack predicate must release the leader (no deadlock).
        t.worker_died(1);
        let snap = t.snapshot(VTime::from_micros(11), 4);
        assert_eq!(BarrierFilter::Ssp { slack: 1 }.select(&snap), vec![0]);
    }

    #[test]
    fn ssp_admits_a_rejoiner_without_stalling_incumbents() {
        let mut t = table(2);
        for v in 0..6 {
            t.task_issued(0, running(v, VTime::ZERO, 1));
            t.task_completed(0, VTime::from_micros(v + 1), VDur::from_micros(1));
        }
        t.worker_died(1);
        t.worker_revived(1); // clock seeds at 6, the min alive
        let snap = t.snapshot(VTime::from_micros(10), 6);
        assert_eq!(
            BarrierFilter::Ssp { slack: 2 }.select(&snap),
            vec![0, 1],
            "seeded rejoiner neither stalls the leader nor is blocked"
        );
    }

    #[test]
    fn bsp_barrier_follows_the_alive_set_through_churn() {
        let mut t = table(3);
        t.worker_died(2);
        let snap = t.snapshot(VTime::ZERO, 0);
        assert_eq!(BarrierFilter::Bsp.select(&snap), vec![0, 1]);
        // Revival makes the barrier require the rejoiner again…
        t.worker_revived(2);
        t.task_issued(2, running(0, VTime::ZERO, 1));
        let snap = t.snapshot(VTime::ZERO, 0);
        assert!(
            BarrierFilter::Bsp.select(&snap).is_empty(),
            "rejoiner is busy: full barrier must hold"
        );
        t.task_completed(2, VTime::from_micros(1), VDur::from_micros(1));
        // …and a joined worker counts toward the barrier too.
        let w = t.add_worker();
        let snap = t.snapshot(VTime::from_micros(1), 1);
        assert_eq!(BarrierFilter::Bsp.select(&snap), vec![0, 1, 2, w]);
    }

    #[test]
    fn beta_fraction_reevaluates_over_the_current_alive_set() {
        let mut t = table(4);
        t.task_issued(0, running(0, VTime::ZERO, 1));
        // 3 of 4 available; β = 0.8 needs ⌊0.8·4⌋ = 3: releases.
        let snap = t.snapshot(VTime::ZERO, 0);
        assert_eq!(
            BarrierFilter::MinAvailableFraction { beta: 0.8 }.select(&snap),
            vec![1, 2, 3]
        );
        // A death shrinks the alive set: ⌊0.8·3⌋ = 2 ≤ 2 available.
        t.worker_died(3);
        let snap = t.snapshot(VTime::ZERO, 0);
        assert_eq!(
            BarrierFilter::MinAvailableFraction { beta: 0.8 }.select(&snap),
            vec![1, 2]
        );
        // A join grows it again: ⌊0.8·4⌋ = 3 > 2+1? available = {1,2,new}
        // = 3 ≥ 3: releases, including the newcomer.
        let w = t.add_worker();
        let snap = t.snapshot(VTime::ZERO, 0);
        assert_eq!(
            BarrierFilter::MinAvailableFraction { beta: 0.8 }.select(&snap),
            vec![1, 2, w]
        );
    }

    #[test]
    fn completion_time_filter_admits_history_free_rejoiners() {
        let mut t = table(3);
        for (w, svc) in [(0usize, 10u64), (1, 20), (2, 21)] {
            t.task_issued(w, running(0, VTime::ZERO, 1));
            t.task_completed(w, VTime::from_micros(svc), VDur::from_micros(svc));
        }
        // Worker 2 dies and revives: its completion history is wiped, so
        // the completion-time filter must treat it as a fresh worker.
        t.worker_died(2);
        t.worker_revived(2);
        let snap = t.snapshot(VTime::from_micros(100), 3);
        assert_eq!(
            BarrierFilter::CompletionTime { factor: 1.0 }.select(&snap),
            vec![0, 1, 2],
            "history-free rejoiner always proceeds"
        );
    }

    #[test]
    fn asp_tracks_membership_changes() {
        let mut t = table(2);
        t.worker_died(0);
        let snap = t.snapshot(VTime::ZERO, 0);
        assert_eq!(BarrierFilter::Asp.select(&snap), vec![1]);
        t.worker_revived(0);
        let w = t.add_worker();
        let snap = t.snapshot(VTime::ZERO, 0);
        assert_eq!(BarrierFilter::Asp.select(&snap), vec![0, 1, w]);
    }

    #[test]
    fn custom_predicate_filters() {
        let t = table(4);
        let snap = t.snapshot(VTime::ZERO, 0);
        let even_only = BarrierFilter::custom(|_s, w| w % 2 == 0);
        assert_eq!(even_only.select(&snap), vec![0, 2]);
    }

    #[test]
    fn selection_is_subset_of_available() {
        // Property: whatever the filter, selected ⊆ available.
        let mut t = table(5);
        t.task_issued(1, running(0, VTime::ZERO, 1));
        t.worker_died(4);
        let snap = t.snapshot(VTime::ZERO, 0);
        for f in [
            BarrierFilter::Asp,
            BarrierFilter::Bsp,
            BarrierFilter::Ssp { slack: 1 },
            BarrierFilter::MinAvailableFraction { beta: 0.4 },
            BarrierFilter::CompletionTime { factor: 1.5 },
        ] {
            for w in f.select(&snap) {
                assert!(
                    snap.workers[w].available,
                    "{f:?} selected busy/dead worker {w}"
                );
            }
        }
    }
}

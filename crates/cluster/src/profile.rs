//! Worker and cluster cost models.
//!
//! The simulated backend turns a task's abstract *cost* (work units — in
//! practice the number of matrix nonzeros the task touches) into a virtual
//! duration: `duration = cost / speed × delay_factor + overheads`. These
//! types describe the `speed` and `overheads` parts; the delay factor comes
//! from [`crate::straggler`].

use crate::straggler::DelayModel;
use crate::time::VDur;

/// Communication cost model: a fixed per-message latency plus a bandwidth
/// term. Applied once per task dispatch and once per large payload shipped
/// (task payloads, history-broadcast cache misses).
#[derive(Debug, Clone, PartialEq)]
pub struct CommModel {
    /// Fixed latency per message (task dispatch, result submission).
    pub per_msg: VDur,
    /// Nanoseconds per payload byte (e.g. 1 Gb/s ≈ 8 ns/B).
    pub ns_per_byte: f64,
}

impl CommModel {
    /// A 0.5 ms round-trip, ~1 GB/s network — commodity-cluster flavour.
    pub fn commodity() -> Self {
        Self {
            per_msg: VDur::from_micros(500),
            ns_per_byte: 1.0,
        }
    }

    /// Zero-cost communication (isolate computation effects in tests).
    pub fn free() -> Self {
        Self {
            per_msg: VDur::ZERO,
            ns_per_byte: 0.0,
        }
    }

    /// Time to ship `bytes` in one message.
    pub fn transfer_time(&self, bytes: u64) -> VDur {
        self.per_msg + VDur::from_micros((bytes as f64 * self.ns_per_byte / 1_000.0) as u64)
    }
}

/// Per-worker execution profile.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerProfile {
    /// Work units (≈ nonzeros) processed per second of virtual time.
    pub speed: f64,
}

impl WorkerProfile {
    /// Homogeneous default: 200 M work units per second, roughly a couple
    /// of GFLOP/s of sparse AXPY per 2-core executor.
    pub fn default_speed() -> Self {
        Self { speed: 2.0e8 }
    }

    /// Virtual time to execute a task of `cost` work units (before
    /// straggler delay factors).
    pub fn exec_time(&self, cost: f64) -> VDur {
        assert!(self.speed > 0.0, "worker speed must be positive");
        VDur::from_secs_f64(cost.max(0.0) / self.speed)
    }
}

/// Everything the simulated backend needs to know about the cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of workers (the paper uses 8 and 32).
    pub workers: usize,
    /// Per-worker profiles; `profiles.len()` must equal `workers` (use
    /// [`ClusterSpec::homogeneous`] for the common case).
    pub profiles: Vec<WorkerProfile>,
    /// Straggler model applied on top of the profiles.
    pub delay: DelayModel,
    /// Communication cost model.
    pub comm: CommModel,
    /// Fixed scheduling overhead added between a task submission and its
    /// start (models driver bookkeeping; the paper's small constant async
    /// wait time comes from this).
    pub sched_overhead: VDur,
}

impl ClusterSpec {
    /// A homogeneous cluster of `workers` default-speed workers with the
    /// given delay model and commodity communication costs.
    pub fn homogeneous(workers: usize, delay: DelayModel) -> Self {
        assert!(workers > 0, "cluster must have at least one worker");
        Self {
            workers,
            profiles: vec![WorkerProfile::default_speed(); workers],
            delay,
            comm: CommModel::commodity(),
            sched_overhead: VDur::from_micros(200),
        }
    }

    /// Replaces the communication model (builder style).
    pub fn with_comm(mut self, comm: CommModel) -> Self {
        self.comm = comm;
        self
    }

    /// Replaces the scheduling overhead (builder style).
    pub fn with_sched_overhead(mut self, d: VDur) -> Self {
        self.sched_overhead = d;
        self
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.profiles.len() != self.workers {
            return Err(format!(
                "profiles length {} != workers {}",
                self.profiles.len(),
                self.workers
            ));
        }
        if self.profiles.iter().any(|p| p.speed <= 0.0) {
            return Err("worker speeds must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_time_scales_with_cost_and_speed() {
        let p = WorkerProfile { speed: 1e6 };
        assert_eq!(p.exec_time(1e6).as_micros(), 1_000_000);
        assert_eq!(p.exec_time(5e5).as_micros(), 500_000);
        assert_eq!(p.exec_time(0.0), VDur::ZERO);
        assert_eq!(p.exec_time(-3.0), VDur::ZERO);
    }

    #[test]
    fn transfer_time_includes_latency_and_bandwidth() {
        let c = CommModel {
            per_msg: VDur::from_micros(100),
            ns_per_byte: 10.0,
        };
        // 1 MB at 10 ns/B = 10 ms, plus 0.1 ms latency.
        let t = c.transfer_time(1_000_000);
        assert_eq!(t.as_micros(), 100 + 10_000);
        assert_eq!(CommModel::free().transfer_time(1 << 30), VDur::ZERO);
    }

    #[test]
    fn homogeneous_spec_validates() {
        let s = ClusterSpec::homogeneous(8, DelayModel::None);
        assert!(s.validate().is_ok());
        assert_eq!(s.profiles.len(), 8);
    }

    #[test]
    fn bad_spec_fails_validation() {
        let mut s = ClusterSpec::homogeneous(4, DelayModel::None);
        s.profiles.pop();
        assert!(s.validate().is_err());
        let mut s2 = ClusterSpec::homogeneous(2, DelayModel::None);
        s2.profiles[0].speed = 0.0;
        assert!(s2.validate().is_err());
    }
}

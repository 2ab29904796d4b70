//! Straggler delay models.
//!
//! Two models from the paper's evaluation plus hooks for custom patterns:
//!
//! * **Controlled Delay Straggler (CDS)**, §6.3: one designated worker is
//!   slowed by a fixed `intensity` — a delay of `intensity × task time`
//!   added to every task it runs ("a 100 % delay means the worker is
//!   executing jobs at half speed").
//! * **Production Cluster Stragglers (PCS)**: the empirical distribution
//!   reported for Microsoft Big and Google clusters — ~25 % of machines
//!   straggle; 80 % of stragglers have a uniformly random delay of
//!   150–250 % of the average task completion time; the remaining 20 % are
//!   *long-tail* workers delayed 250 % up to 10×. The paper instantiates
//!   this on 32 workers as 6 uniform stragglers + 2 long-tail workers, with
//!   the randomized delay seed fixed across repetitions; we reproduce that
//!   exactly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::WorkerId;

/// Configuration of the production-cluster straggler pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct PcsConfig {
    /// Fraction of workers that are stragglers (paper: 0.25).
    pub straggler_fraction: f64,
    /// Fraction of stragglers that are long-tail (paper: 0.20).
    pub long_tail_fraction: f64,
    /// Uniform stragglers draw a per-task delay factor in this range
    /// (paper: 1.5–2.5, i.e. 150–250 % of average task time).
    pub uniform_range: (f64, f64),
    /// Long-tail workers draw in this range (paper: 2.5–10.0).
    pub long_tail_range: (f64, f64),
    /// Seed for both the straggler assignment and per-task draws.
    pub seed: u64,
}

impl PcsConfig {
    /// The paper's configuration with the given seed.
    pub fn paper(seed: u64) -> Self {
        Self {
            straggler_fraction: 0.25,
            long_tail_fraction: 0.20,
            uniform_range: (1.5, 2.5),
            long_tail_range: (2.5, 10.0),
            seed,
        }
    }
}

/// How a worker's class affects its task durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StragglerClass {
    /// No injected delay.
    Normal,
    /// Uniform 150–250 % straggler.
    Uniform,
    /// Long-tail straggler (250 %–10×).
    LongTail,
}

/// A straggler delay model: maps `(worker, task sequence number)` to a
/// multiplicative *total* duration factor (`1.0` = no delay; `2.0` = task
/// takes twice as long).
#[derive(Debug, Clone, PartialEq)]
pub enum DelayModel {
    /// No stragglers.
    None,
    /// One worker delayed by a fixed intensity: factor `1 + intensity`.
    ControlledDelay {
        /// Which worker straggles.
        worker: WorkerId,
        /// Delay as a fraction of task time (1.0 = 100 % = half speed).
        intensity: f64,
    },
    /// Production-cluster pattern (see [`PcsConfig`]).
    ProductionCluster(PcsConfig),
    /// Explicit per-worker constant factors (index = worker id; factors
    /// must be ≥ 1). Workers beyond the vector length get factor 1.
    PerWorker(Vec<f64>),
}

impl DelayModel {
    /// Builds the concrete per-cluster assignment for `n_workers` workers.
    pub fn assign(&self, n_workers: usize) -> DelayAssignment {
        match self {
            DelayModel::None => DelayAssignment {
                classes: vec![StragglerClass::Normal; n_workers],
                cds: None,
                per_worker: None,
                pcs: None,
            },
            DelayModel::ControlledDelay { worker, intensity } => {
                assert!(*worker < n_workers, "CDS worker {worker} out of range");
                assert!(*intensity >= 0.0, "CDS intensity must be nonnegative");
                DelayAssignment {
                    classes: vec![StragglerClass::Normal; n_workers],
                    cds: Some((*worker, *intensity)),
                    per_worker: None,
                    pcs: None,
                }
            }
            DelayModel::PerWorker(factors) => {
                assert!(
                    factors.iter().all(|&f| f >= 1.0),
                    "per-worker factors must be >= 1"
                );
                DelayAssignment {
                    classes: vec![StragglerClass::Normal; n_workers],
                    cds: None,
                    per_worker: Some(factors.clone()),
                    pcs: None,
                }
            }
            DelayModel::ProductionCluster(cfg) => {
                let mut rng = SmallRng::seed_from_u64(cfg.seed);
                let n_straggle = (n_workers as f64 * cfg.straggler_fraction).round() as usize;
                let n_long = (n_straggle as f64 * cfg.long_tail_fraction).round() as usize;
                // Choose straggler ids deterministically from the seed.
                let mut ids: Vec<WorkerId> = (0..n_workers).collect();
                // Partial Fisher-Yates for the first n_straggle slots.
                for i in 0..n_straggle.min(n_workers) {
                    let j = rng.gen_range(i..n_workers);
                    ids.swap(i, j);
                }
                let mut classes = vec![StragglerClass::Normal; n_workers];
                for (k, &w) in ids.iter().take(n_straggle).enumerate() {
                    classes[w] = if k < n_long {
                        StragglerClass::LongTail
                    } else {
                        StragglerClass::Uniform
                    };
                }
                DelayAssignment {
                    classes,
                    cds: None,
                    per_worker: None,
                    pcs: Some(cfg.clone()),
                }
            }
        }
    }
}

/// The per-cluster realization of a [`DelayModel`]: stable worker classes
/// plus deterministic per-task factor draws.
#[derive(Debug, Clone)]
pub struct DelayAssignment {
    classes: Vec<StragglerClass>,
    cds: Option<(WorkerId, f64)>,
    per_worker: Option<Vec<f64>>,
    pcs: Option<PcsConfig>,
}

impl DelayAssignment {
    /// The class assigned to `worker`.
    pub fn class(&self, worker: WorkerId) -> StragglerClass {
        self.classes
            .get(worker)
            .copied()
            .unwrap_or(StragglerClass::Normal)
    }

    /// Total duration factor for the `task_seq`-th task executed by
    /// `worker`. Deterministic in `(model seed, worker, task_seq)`.
    pub fn factor(&self, worker: WorkerId, task_seq: u64) -> f64 {
        if let Some((w, intensity)) = self.cds {
            return if w == worker { 1.0 + intensity } else { 1.0 };
        }
        if let Some(ref f) = self.per_worker {
            return f.get(worker).copied().unwrap_or(1.0);
        }
        if let Some(ref cfg) = self.pcs {
            let (lo, hi) = match self.class(worker) {
                StragglerClass::Normal => return 1.0,
                StragglerClass::Uniform => cfg.uniform_range,
                StragglerClass::LongTail => cfg.long_tail_range,
            };
            // Per-task factor from a stream keyed by (seed, worker, seq):
            // independent across tasks, reproducible across runs.
            let key = cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((worker as u64) << 32)
                .wrapping_add(task_seq);
            let mut rng = SmallRng::seed_from_u64(key);
            return rng.gen_range(lo..hi);
        }
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_model_is_identity() {
        let a = DelayModel::None.assign(4);
        for w in 0..4 {
            assert_eq!(a.factor(w, 0), 1.0);
            assert_eq!(a.class(w), StragglerClass::Normal);
        }
    }

    #[test]
    fn cds_delays_only_target() {
        let a = DelayModel::ControlledDelay {
            worker: 2,
            intensity: 1.0,
        }
        .assign(8);
        assert_eq!(a.factor(2, 5), 2.0);
        for w in [0, 1, 3, 7] {
            assert_eq!(a.factor(w, 5), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cds_worker_out_of_range_panics() {
        DelayModel::ControlledDelay {
            worker: 8,
            intensity: 0.3,
        }
        .assign(8);
    }

    #[test]
    fn pcs_matches_paper_counts_on_32_workers() {
        let a = DelayModel::ProductionCluster(PcsConfig::paper(42)).assign(32);
        let uniform = (0..32)
            .filter(|&w| a.class(w) == StragglerClass::Uniform)
            .count();
        let long = (0..32)
            .filter(|&w| a.class(w) == StragglerClass::LongTail)
            .count();
        // Paper: 6 uniform + 2 long-tail on 32 workers.
        assert_eq!(uniform, 6);
        assert_eq!(long, 2);
    }

    #[test]
    fn pcs_factors_within_declared_ranges() {
        let a = DelayModel::ProductionCluster(PcsConfig::paper(7)).assign(32);
        for w in 0..32 {
            for seq in 0..50 {
                let f = a.factor(w, seq);
                match a.class(w) {
                    StragglerClass::Normal => assert_eq!(f, 1.0),
                    StragglerClass::Uniform => assert!((1.5..2.5).contains(&f), "{f}"),
                    StragglerClass::LongTail => assert!((2.5..10.0).contains(&f), "{f}"),
                }
            }
        }
    }

    #[test]
    fn pcs_is_deterministic_per_seed() {
        let a = DelayModel::ProductionCluster(PcsConfig::paper(9)).assign(32);
        let b = DelayModel::ProductionCluster(PcsConfig::paper(9)).assign(32);
        for w in 0..32 {
            assert_eq!(a.class(w), b.class(w));
            for seq in 0..10 {
                assert_eq!(a.factor(w, seq), b.factor(w, seq));
            }
        }
        let c = DelayModel::ProductionCluster(PcsConfig::paper(10)).assign(32);
        let same = (0..32).all(|w| a.class(w) == c.class(w));
        assert!(
            !same,
            "different seeds should move stragglers with overwhelming probability"
        );
    }

    #[test]
    fn pcs_factors_vary_across_tasks() {
        let a = DelayModel::ProductionCluster(PcsConfig::paper(11)).assign(32);
        let straggler = (0..32)
            .find(|&w| a.class(w) != StragglerClass::Normal)
            .expect("a straggler");
        let f0 = a.factor(straggler, 0);
        let distinct = (1..20).any(|s| a.factor(straggler, s) != f0);
        assert!(distinct, "per-task factors should vary");
    }

    #[test]
    fn per_worker_model() {
        let a = DelayModel::PerWorker(vec![1.0, 3.0]).assign(4);
        assert_eq!(a.factor(0, 0), 1.0);
        assert_eq!(a.factor(1, 0), 3.0);
        assert_eq!(a.factor(3, 0), 1.0); // beyond vector: no delay
    }
}

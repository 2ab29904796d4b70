//! The untraced run of one workload: set-ups, timed repetitions, checks,
//! and the end-to-end metrics.

use std::time::Instant;

use crate::host;
use crate::metrics::{Measured, CPU_US_PER_STEP, STEPS_PER_S};
use crate::workloads::{same_outputs, EngineSel, Prepared, Rep, Workload};

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Fewest timed repetitions, however short `--seconds` is.
pub const MIN_REPS: usize = 5;
/// Most timed repetitions (tiny smoke budgets would otherwise run away).
pub const MAX_REPS: usize = 400;

/// What one invocation measured on one workload.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub threads: usize,
    pub timed_reps: usize,
    pub warmup_reps: usize,
    /// Operations attempted: tasks consumed, reads served, repetitions.
    pub attempted: u64,
    /// Of those, failed: tasks lost, bad reads, repetitions failing a check.
    pub failed: u64,
    /// One line per violated check.
    pub failures: Vec<String>,
    /// What the result line carries: the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub metrics: Vec<Measured>,
    /// Measured and printed but not part of the result line: the speed
    /// figures of an untraced run (see [`crate::metrics::SPEED_BOUND`]).
    pub reported: Vec<Measured>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Refuses a workload whose thread need exceeds the host's cores: its
/// timings would measure time-slicing, not the program.
pub fn check_threads(w: &Workload) -> Result<(), String> {
    let cores = host::nproc();
    if w.threads > cores {
        return Err(format!(
            "workload {} needs {} runnable threads, host has {cores} cores",
            w.name, w.threads
        ));
    }
    Ok(())
}

/// True when the measuring window that opened at `t0` is spent: at least
/// `least` repetitions ran and the next one would overrun `seconds`.
pub fn window_spent(t0: Instant, reps: usize, least: usize, seconds: f64) -> bool {
    let elapsed = t0.elapsed().as_secs_f64();
    reps >= least && elapsed + elapsed / reps as f64 > seconds
}

/// One complete set-up: inputs from the seed, baselines, a fresh engine
/// and one untimed warm-up repetition (which fills the allocator pools and
/// page cache the timed repetitions then reuse).
pub fn set_up(w: &Workload, seed: u64) -> (Prepared, f64) {
    let t0 = Instant::now();
    let prep = w.prepare(seed);
    let _warm_up = w.run_rep(&prep);
    (prep, t0.elapsed().as_secs_f64())
}

/// The simulator-oracle contract of the remote engine (`remote_e2e`): the
/// remote run closes the optimality gap like a simulated run of the same
/// configuration, within 10 % of the initial gap.
fn oracle_gap(w: &Workload, prep: &Prepared) -> Option<f64> {
    (w.engine == EngineSel::RemoteLoopback).then(|| {
        let oracle = w.run_plain(prep, EngineSel::Sim, &prep.cfg);
        oracle.final_objective - prep.optimum.unwrap_or(0.0)
    })
}

/// Accumulates repetitions and their checks.
pub struct Ledger {
    pub reps: Vec<Rep>,
    pub failures: Vec<String>,
    failed_reps: u64,
}

impl Ledger {
    pub fn new() -> Self {
        Self {
            reps: Vec::new(),
            failures: Vec::new(),
            failed_reps: 0,
        }
    }

    /// Checks `rep` (against the first repetition too, where repetitions
    /// must repeat exactly) and records it.
    pub fn push(&mut self, w: &Workload, prep: &Prepared, oracle_gap: Option<f64>, rep: Rep) {
        let mut bad = w.check_rep(prep, &rep);
        if let Some(first) = self.reps.first() {
            if w.deterministic() && !same_outputs(&first.report, &rep.report) {
                bad.push("simulated repetition differs from the first".to_string());
            }
        }
        if let Some(oracle) = oracle_gap {
            let gap = rep.report.final_objective - prep.optimum.unwrap_or(0.0);
            if (gap - oracle).abs() > 0.10 * prep.gap0() {
                bad.push(format!(
                    "gap {gap:.3e} disagrees with simulator oracle {oracle:.3e}"
                ));
            }
        }
        if !bad.is_empty() {
            self.failed_reps += 1;
            let n = self.reps.len();
            self.failures
                .extend(bad.into_iter().map(|b| format!("rep {n}: {b}")));
        }
        self.reps.push(rep);
    }

    pub fn tasks(&self) -> u64 {
        self.reps.iter().map(|r| r.report.tasks_completed).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.tasks()
            + self.reps.iter().map(|r| r.reader.reads).sum::<u64>()
            + self.reps.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.reps
            .iter()
            .map(|r| r.report.lost_tasks + r.reader.bad_reads)
            .sum::<u64>()
            + self.failed_reps
    }

    /// The two speed figures, each the best repetition's.
    pub fn speeds(&self) -> Vec<Measured> {
        let per_rep = |f: &dyn Fn(&Rep) -> f64| self.reps.iter().map(f).collect::<Vec<f64>>();
        vec![
            Measured::best_of(
                STEPS_PER_S,
                per_rep(&|r| r.report.tasks_completed as f64 / r.wall_s),
            ),
            Measured::best_of(
                CPU_US_PER_STEP,
                per_rep(&|r| (r.user_s + r.sys_s) * 1e6 / r.report.tasks_completed as f64),
            ),
        ]
    }
}

/// Runs `w` untraced: [`SETUPS`] set-ups, then repetitions for `seconds`.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    check_threads(w)?;
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        // The previous set-up's inputs are dropped first, so the peak
        // resident set is that of one set-up, not of several.
        drop(prepared.take());
        let (prep, secs) = set_up(w, seed);
        setup_times.push(secs);
        prepared = Some(prep);
    }
    let prep = prepared.expect("at least one set-up ran");
    let oracle = oracle_gap(w, &prep);

    let mut ledger = Ledger::new();
    let t0 = Instant::now();
    while ledger.reps.len() < MAX_REPS {
        ledger.push(w, &prep, oracle, w.run_rep(&prep));
        if window_spent(t0, ledger.reps.len(), MIN_REPS, seconds) {
            break;
        }
    }

    let reps = &ledger.reps;
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let metrics = vec![
        Measured::median_of("setup_s", "s", setup_times),
        Measured::median_of(
            "wire_bytes_per_step",
            "B",
            per_rep(&|r| {
                (r.report.bytes_shipped + r.report.result_bytes) as f64
                    / r.report.tasks_completed as f64
            }),
        ),
        Measured::median_of(
            "final_objective",
            "loss",
            per_rep(&|r| r.report.final_objective),
        ),
        Measured::single("peak_rss_mb", "MB", host::peak_rss_mb()),
    ];
    Ok(Outcome {
        workload: w.name,
        seed,
        threads: w.threads,
        timed_reps: reps.len(),
        warmup_reps: SETUPS,
        attempted: ledger.attempted(),
        failed: ledger.failed(),
        reported: ledger.speeds(),
        failures: ledger.failures,
        metrics,
    })
}

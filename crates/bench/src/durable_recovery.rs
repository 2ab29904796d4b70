//! The durable-recovery benchmark: what the crash-consistent checkpoint
//! store costs while the run is healthy, and what it buys when the driver
//! dies.
//!
//! One ASGD lineage runs three ways on the simulated cluster (all
//! byte-gated):
//!
//! 1. **uninterrupted** — the full update budget in one run, no durability;
//!    the reference loss and the reference bits.
//! 2. **resumed** — the same lineage "crashes" at a cadence boundary
//!    halfway through (the driver process is gone; everything the
//!    successor knows is on disk) and auto-resumes from the store's newest
//!    generation. The gated acceptance: the resumed lineage finishes
//!    **bit-identically** to the uninterrupted run, and the store's write
//!    amplification (physical bytes written / one checkpoint payload) is
//!    exactly the cadence count plus manifest overhead.
//! 3. **faulted** — after the crash, the newest generation bit-rots and a
//!    torn half-write lands above it ([`DiskFault`] injection). Recovery
//!    falls back to the newest *valid* generation: the cut moves one
//!    cadence earlier, more updates re-run, and the bits still match.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use async_cluster::DelayModel;
use async_core::BarrierFilter;
use async_data::{Dataset, SynthSpec};
use async_optim::{CheckpointStore, DiskFault, DiskFaultPlan, Objective, RunReport, SolverCfg};

use crate::doc::{bench_doc, BenchDoc, ReportField};
use crate::workload::{modeled_cluster, Scenario};

/// The committed workload: ASGD on dense least squares under BSP with a
/// durable checkpoint every 16 updates, on a quiet, homogeneous cluster
/// with a free wire — the bit-identity acceptance needs the resumed run to
/// replay the exact completion order of the uninterrupted one. BSP waves
/// are as wide as the cluster, so the cadence is a multiple of the worker
/// count: saves land on round boundaries.
pub fn scenario() -> Scenario {
    Scenario {
        data: SynthSpec::dense("durable-recovery", 2_048, 64, 2031),
        objective: Objective::LeastSquares { lambda: 1e-3 },
        cluster: modeled_cluster(8, DelayModel::None, 0, 0.0),
        solver: SolverCfg {
            step: 0.05,
            batch_fraction: 0.2,
            barrier: BarrierFilter::Bsp,
            max_updates: 128,
            checkpoint_every: 16,
            seed: 2031,
            ..SolverCfg::default()
        },
    }
}

/// What this bench varies beyond its [`Scenario`].
#[derive(Debug, Clone)]
pub struct Params {
    /// The "crash": the first driver stops after this many updates.
    pub crash_at: u64,
}

/// The committed parameters.
pub const PARAMS: Params = Params { crash_at: 64 };

/// One recovery arm's outcome (`resumed` and `faulted`).
#[derive(Debug, Clone)]
pub struct RecoveryArm {
    /// "resumed" or "faulted".
    pub name: &'static str,
    /// Generation the successor run picked up.
    pub resumed_from: u64,
    /// Updates the successor re-ran to complete the lineage.
    pub replayed_updates: u64,
    /// Successful store commits across the whole lineage.
    pub saves_ok: u64,
    /// Failed store commits across the whole lineage.
    pub saves_failed: u64,
    /// Physical bytes the store wrote across the whole lineage.
    pub bytes_written: u64,
    /// `bytes_written / checkpoint_payload_bytes` — the durability
    /// protocol's write amplification over one checkpoint's worth of
    /// state.
    pub write_amplification: f64,
    /// The acceptance verdict: the lineage's final iterate is bit-equal
    /// to the uninterrupted run's.
    pub bit_identical: bool,
    /// Final objective of the completed lineage.
    pub final_objective: f64,
}

/// The benchmark outcome.
#[derive(Debug, Clone)]
pub struct DurableRecovery {
    /// The scenario measured.
    pub scenario: Scenario,
    /// The parameters measured.
    pub params: Params,
    /// The uninterrupted reference run.
    pub uninterrupted: RunReport,
    /// Serialized size of one checkpoint payload at the crash point.
    pub checkpoint_payload_bytes: u64,
    /// `[resumed, faulted]`.
    pub arms: Vec<RecoveryArm>,
}

/// One driver's run of the lineage: `max_updates` in all, resuming from
/// and saving to `dir` when there is one.
fn run(s: &Scenario, data: &Dataset, max_updates: u64, dir: Option<PathBuf>) -> RunReport {
    let driver = s.arm(|a| {
        a.solver.max_updates = max_updates;
        a.solver.durable_dir = dir;
    });
    driver.asgd(&mut driver.context(), data)
}

/// A fresh store directory, unique per call: concurrent benchmark runs in
/// one process (the unit tests below) must never share a checkpoint store.
fn scratch_dir(tag: &str) -> PathBuf {
    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "async-bench-durable-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs the benchmark: the uninterrupted reference, the clean
/// crash-and-resume lineage and the faulted-store lineage.
pub fn run_durable_recovery(mut s: Scenario, params: Params) -> DurableRecovery {
    let dataset = s.generate();
    let (updates, crash_at) = (s.solver.max_updates, params.crash_at);

    let uninterrupted = run(&s, &dataset, updates, None);

    // Arm 2: crash at the cadence boundary, resume from the store.
    let clean_dir = scratch_dir("clean");
    let crashed = run(&s, &dataset, crash_at, Some(clean_dir.clone()));
    let checkpoint_payload_bytes = CheckpointStore::open(&clean_dir)
        .expect("store")
        .latest_valid()
        .map(|(_, bytes)| bytes.len() as u64)
        .expect("crash left a valid generation");

    let resumed = run(&s, &dataset, updates, Some(clean_dir.clone()));
    let resumed_arm = recovery_arm(
        "resumed",
        &crashed,
        &resumed,
        checkpoint_payload_bytes,
        &uninterrupted,
    );
    let _ = std::fs::remove_dir_all(&clean_dir);

    // Arm 3: the same crash, then disk havoc — a torn half-write above the
    // newest generation and bit rot inside it. Recovery must fall back one
    // cadence and still land on the same bits.
    let faulted_dir = scratch_dir("faulted");
    let crashed_f = run(&s, &dataset, crash_at, Some(faulted_dir.clone()));
    let mut havoc = CheckpointStore::open(&faulted_dir)
        .expect("store")
        .with_fault_plan(DiskFaultPlan::scripted(&[(
            0,
            DiskFault::TornWrite { keep_bytes: 11 },
        )]));
    havoc
        .save(crash_at + s.solver.checkpoint_every, &vec![0xEE; 1024])
        .expect("torn writes believe they succeed");
    let newest = faulted_dir.join(format!("gen-{crash_at:012}.ckpt"));
    let mut payload = std::fs::read(&newest).expect("newest generation payload");
    let mid = payload.len() / 2;
    payload[mid] ^= 0x10;
    std::fs::write(&newest, payload).expect("inject bit rot");

    let resumed_f = run(&s, &dataset, updates, Some(faulted_dir.clone()));
    let faulted_arm = recovery_arm(
        "faulted",
        &crashed_f,
        &resumed_f,
        checkpoint_payload_bytes,
        &uninterrupted,
    );
    let _ = std::fs::remove_dir_all(&faulted_dir);

    DurableRecovery {
        scenario: s,
        params,
        uninterrupted,
        checkpoint_payload_bytes,
        arms: vec![resumed_arm, faulted_arm],
    }
}

fn recovery_arm(
    name: &'static str,
    crashed: &RunReport,
    resumed: &RunReport,
    checkpoint_payload_bytes: u64,
    uninterrupted: &RunReport,
) -> RecoveryArm {
    let saves_ok = crashed.durable.store.saves_ok + resumed.durable.store.saves_ok;
    let saves_failed = crashed.durable.store.saves_failed + resumed.durable.store.saves_failed;
    let bytes_written = crashed.durable.store.bytes_written + resumed.durable.store.bytes_written;
    RecoveryArm {
        name,
        resumed_from: resumed.durable.resumed_from.unwrap_or(0),
        replayed_updates: resumed.updates,
        saves_ok,
        saves_failed,
        bytes_written,
        write_amplification: bytes_written as f64 / checkpoint_payload_bytes.max(1) as f64,
        bit_identical: bits_equal(&resumed.final_w, &uninterrupted.final_w),
        final_objective: resumed.final_objective,
    }
}

const DESCRIPTION: &str = "One ASGD lineage three ways: uninterrupted; crashed at a cadence boundary and auto-resumed from the crash-consistent store (must finish bit-identically); and resumed through disk havoc — a torn half-write above the newest generation plus bit rot inside it — falling back to the newest valid generation";

const UNINTERRUPTED_FIELDS: [ReportField; 3] = [
    ReportField::Updates,
    ReportField::FinalObjective,
    ReportField::WallClockMs,
];

impl DurableRecovery {
    /// The `BENCH_durable_recovery.json` document.
    pub fn doc(&self) -> BenchDoc {
        let s = &self.scenario;
        let mut doc = bench_doc! {
            "benchmark": "durable_recovery",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": s.cluster.workers,
                "dataset": s.data_label(),
                "updates": s.solver.max_updates,
                "crash_at": self.params.crash_at,
                "checkpoint_every": s.solver.checkpoint_every,
                "batch_fraction": s.solver.batch_fraction,
                "step": s.solver.step,
                "seed": s.solver.seed,
            },
            "uninterrupted": BenchDoc::new().report(&self.uninterrupted, &UNINTERRUPTED_FIELDS),
            "checkpoint_payload_bytes": self.checkpoint_payload_bytes,
        };
        for a in &self.arms {
            let arm = bench_doc! {
                "run": a.name,
                "resumed_from_generation": a.resumed_from,
                "replayed_updates": a.replayed_updates,
                "saves_ok": a.saves_ok,
                "saves_failed": a.saves_failed,
                "bytes_written": a.bytes_written,
                "write_amplification": a.write_amplification,
                "bit_identical_to_uninterrupted": a.bit_identical,
                "final_objective": a.final_objective,
            };
            doc = doc.put(a.name, arm);
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::oracle;
    use crate::workload::small;

    fn small_run() -> DurableRecovery {
        let mut s = small(scenario(), 256, 24, 48);
        s.solver.checkpoint_every = 8;
        run_durable_recovery(s, Params { crash_at: 24 })
    }

    #[test]
    fn both_recovery_arms_finish_bit_identically() {
        let b = small_run();
        let [resumed, faulted] = &b.arms[..] else {
            panic!("two recovery arms");
        };
        assert_eq!(b.uninterrupted.updates, 48);
        // Clean resume picks up the crash-point generation and replays
        // exactly the missing half.
        assert_eq!(resumed.resumed_from, 24);
        assert_eq!(resumed.replayed_updates, 24);
        assert!(
            resumed.bit_identical,
            "clean resume must reproduce the bits"
        );
        // The faulted store falls back one cadence (gen 24 rotted, the
        // torn gen 32 never validated) and replays more — same bits.
        assert_eq!(faulted.resumed_from, 16);
        assert_eq!(faulted.replayed_updates, 32);
        assert!(
            faulted.bit_identical,
            "fallback resume must reproduce the bits"
        );
        assert!(
            faulted.saves_failed == 0,
            "havoc is injected outside the runs"
        );
        // Amplification: cadence saves both phases + manifests, measured
        // in units of one checkpoint payload.
        assert!(resumed.write_amplification > 1.0);
        assert!(resumed.write_amplification < 20.0);
    }

    #[test]
    fn gated_portion_is_deterministic() {
        let run = || small_run().doc();
        oracle::check(run, "durable_recovery", &[]);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let probes = [
            "resumed.write_amplification",
            "faulted.bit_identical_to_uninterrupted",
            "checkpoint_payload_bytes",
        ];
        let doc = small_run().doc();
        oracle::well_formed(&doc, "durable_recovery", &probes);
    }
}

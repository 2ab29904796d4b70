//! The hot-path benchmark: dense-full vs incremental (version-diffed)
//! broadcast on one high-dimensional sparse ASGD workload.
//!
//! Two kinds of numbers come out of it:
//!
//! 1. **Modeled, deterministic** (byte-gated in CI): the two arms on the
//!    simulated engine — bytes shipped to workers (the broadcast wire),
//!    result bytes, updates, final objective, trace. The incremental arm
//!    must cut the broadcast bytes-on-wire by a large factor: it ships
//!    sparse version-diff patches (final values on the union of the gap's
//!    change supports) instead of the dense model.
//! 2. **Wall-clock, host-dependent** (reported, *not* gated; every JSON
//!    key carries a `wc_` prefix so CI can filter them): the same two arms
//!    on the threaded engine, where modeled transfer time becomes real
//!    sleep (`time_scale`), measuring genuine steps/sec. Shipping ~10x
//!    fewer bytes turns directly into wall-clock throughput.
//!
//! The workload uses a ridge-free logistic objective: without the λ·w
//! shrink the ASGD update's change support is exactly the sparse
//! gradient's support, which is what makes version diffs exact (the e2e
//! suite proves bit-identity against the dense arm under free comms).

use async_cluster::DelayModel;
use async_core::BarrierFilter;
use async_data::SynthSpec;
use async_optim::{Objective, SolverCfg};

use crate::doc::{bench_doc, BenchDoc, ReportField};
use crate::workload::{modeled_cluster, LabeledRun, TwoEngineAsgd, WallClockArm, SIM_ARM_FIELDS};

/// Configuration of the hot-path benchmark.
#[derive(Debug, Clone)]
pub struct HotpathCfg {
    /// Cluster size.
    pub workers: usize,
    /// Dataset rows.
    pub rows: usize,
    /// Feature dimension (high — the dense model is the expensive wire).
    pub cols: usize,
    /// Mean stored nonzeros per row (low).
    pub nnz_per_row: usize,
    /// Server update budget for the simulated (gated) runs.
    pub updates: u64,
    /// Server update budget for the threaded (wall-clock) runs.
    pub wc_updates: u64,
    /// Mini-batch fraction per task.
    pub batch_fraction: f64,
    /// Step size (ridge-free logistic).
    pub step: f64,
    /// Incremental ring capacity for the diff arm.
    pub ring: usize,
    /// Per-message latency in µs.
    pub per_msg_us: u64,
    /// Modeled wire cost in ns/byte (this is what the diff arm saves).
    pub ns_per_byte: f64,
    /// Threaded-engine scale from modeled time to real sleep.
    pub time_scale: f64,
    /// Sampling/generation seed.
    pub seed: u64,
}

impl Default for HotpathCfg {
    fn default() -> Self {
        Self {
            workers: 4,
            rows: 2_048,
            cols: 65_536,
            nnz_per_row: 20,
            updates: 300,
            wc_updates: 400,
            batch_fraction: 0.1,
            step: 0.5,
            ring: 16,
            per_msg_us: 50,
            ns_per_byte: 1.0,
            time_scale: 2.0,
            seed: 2026,
        }
    }
}

/// The benchmark outcome: both engines, both arms, headline ratios.
#[derive(Debug, Clone)]
pub struct Hotpath {
    /// The configuration measured.
    pub cfg: HotpathCfg,
    /// Simulated dense-full-broadcast arm, "dense_full" (deterministic).
    pub sim_dense: LabeledRun,
    /// Simulated incremental arm, "incremental" (deterministic).
    pub sim_incremental: LabeledRun,
    /// `sim_dense.bytes_shipped / sim_incremental.bytes_shipped` — the
    /// broadcast bytes-on-wire reduction (deterministic, gated).
    pub bytes_ratio: f64,
    /// Threaded dense-full arm (wall clock, not gated; completion order
    /// makes even its byte counts host-dependent).
    pub wc_dense: WallClockArm,
    /// Threaded incremental arm (wall clock, not gated).
    pub wc_incremental: WallClockArm,
    /// `wc_incremental.steps_per_sec / wc_dense.steps_per_sec`.
    pub wc_speedup: f64,
}

/// The ridge-free sparse logistic problem: λ = 0 keeps the ASGD change
/// support sparse, which is the workload the incremental broadcast targets.
fn workload(cfg: &HotpathCfg) -> TwoEngineAsgd {
    let data = SynthSpec::sparse("hotpath", cfg.rows, cfg.cols, cfg.nnz_per_row, cfg.seed)
        .generate_classification()
        .expect("synthetic generation")
        .0;
    let cluster = modeled_cluster(
        cfg.workers,
        DelayModel::None,
        cfg.per_msg_us,
        cfg.ns_per_byte,
    );
    let objective = Objective::Logistic { lambda: 0.0 };
    TwoEngineAsgd {
        data,
        cluster,
        objective,
    }
}

fn solver_cfg(cfg: &HotpathCfg, updates: u64, ring: usize) -> SolverCfg {
    SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier: BarrierFilter::Asp,
        max_updates: updates,
        eval_every: (updates / 6).max(1),
        seed: cfg.seed,
        bcast_ring: ring,
        ..SolverCfg::default()
    }
}

/// Runs the four measurements (two simulated and gated, two threaded and
/// wall-clock).
pub fn run_hotpath(cfg: HotpathCfg) -> Hotpath {
    let w = workload(&cfg);
    let run_sim = |label, ring| {
        let report = w.sim(&solver_cfg(&cfg, cfg.updates, ring));
        LabeledRun { label, report }
    };
    let run_threaded = |ring| w.threaded(cfg.time_scale, &solver_cfg(&cfg, cfg.wc_updates, ring));
    let sim_dense = run_sim("dense_full", 0);
    let sim_incremental = run_sim("incremental", cfg.ring);
    let bytes_ratio =
        sim_dense.report.bytes_shipped as f64 / sim_incremental.report.bytes_shipped.max(1) as f64;
    let wc_dense = run_threaded(0);
    let wc_incremental = run_threaded(cfg.ring);
    let wc_speedup = wc_incremental.steps_per_sec / wc_dense.steps_per_sec.max(1e-9);
    eprintln!(
        "hotpath: modeled broadcast bytes {:.1}x smaller; wall-clock {:.0} vs {:.0} steps/s ({:.2}x) [profile: lto=thin, codegen-units=1, panic=abort bins]",
        bytes_ratio, wc_incremental.steps_per_sec, wc_dense.steps_per_sec, wc_speedup,
    );
    Hotpath {
        cfg,
        sim_dense,
        sim_incremental,
        bytes_ratio,
        wc_dense,
        wc_incremental,
        wc_speedup,
    }
}

const DESCRIPTION: &str = "dense-full vs incremental (version-diffed) broadcast for ASGD on a high-dim sparse logistic workload; modeled bytes on the simulator (gated), real steps/sec on the threaded engine (wc_, not gated); built with the tuned release profile (lto=thin, codegen-units=1, panic=abort for bins)";

const WC_FIELDS: [ReportField; 3] = [
    ReportField::BytesShipped,
    ReportField::Updates,
    ReportField::FinalObjective,
];

impl Hotpath {
    /// The `BENCH_hotpath.json` document; lines under `wc_` keys are host
    /// observations outside the byte gate (the contract: [`crate::doc`]).
    pub fn doc(&self) -> BenchDoc {
        let c = &self.cfg;
        let sim = |a: &LabeledRun| a.doc("arm", &SIM_ARM_FIELDS);
        let wc =
            |a: &LabeledRun, t: &WallClockArm| t.doc(bench_doc! { "arm": a.label }, &WC_FIELDS);
        let dataset = format!(
            "sparse synthetic {}x{} (~{} nnz/row), logistic +-1 labels, lambda 0",
            c.rows, c.cols, c.nnz_per_row
        );
        bench_doc! {
            "benchmark": "hotpath",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": c.workers,
                "dataset": dataset,
                "updates": c.updates,
                "wc_updates": c.wc_updates,
                "batch_fraction": c.batch_fraction,
                "step": c.step,
                "ring": c.ring,
                "per_msg_us": c.per_msg_us,
                "ns_per_byte": c.ns_per_byte,
                "time_scale": c.time_scale,
                "seed": c.seed,
            },
            "sim_dense_full": sim(&self.sim_dense),
            "sim_incremental": sim(&self.sim_incremental),
            "broadcast_bytes_ratio_dense_over_incremental": self.bytes_ratio,
            "wc_threaded_dense_full": wc(&self.sim_dense, &self.wc_dense),
            "wc_threaded_incremental": wc(&self.sim_incremental, &self.wc_incremental),
            "wc_steps_per_sec_speedup_incremental_over_dense": self.wc_speedup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> HotpathCfg {
        HotpathCfg {
            rows: 256,
            cols: 4_096,
            updates: 60,
            wc_updates: 60,
            time_scale: 0.2,
            ..HotpathCfg::default()
        }
    }

    #[test]
    fn incremental_slashes_modeled_broadcast_bytes() {
        let h = run_hotpath(small_cfg());
        assert_eq!(h.sim_dense.report.updates, 60);
        assert_eq!(h.sim_incremental.report.updates, 60);
        assert!(
            h.bytes_ratio > 4.0,
            "diff arm must ship far fewer bytes even at test scale: {}",
            h.bytes_ratio
        );
        // Both arms converge below the ln(2) start.
        let ln2 = std::f64::consts::LN_2;
        assert!(h.sim_dense.report.final_objective < ln2);
        assert!(h.sim_incremental.report.final_objective < ln2);
    }

    #[test]
    fn modeled_numbers_are_deterministic() {
        let run = || run_hotpath(small_cfg()).doc();
        let probes = ["sim_incremental", "wc_threaded_dense_full.wc_steps_per_sec"];
        crate::doc::oracle::check(run, "hotpath", &probes);
    }

    #[test]
    fn threaded_arms_complete_their_budget() {
        let h = run_hotpath(small_cfg());
        assert_eq!(h.wc_dense.report.updates, 60);
        assert_eq!(h.wc_incremental.report.updates, 60);
        assert!(h.wc_dense.steps_per_sec > 0.0);
        assert!(h.wc_incremental.steps_per_sec > 0.0);
    }
}

//! The compressed-communication benchmark: uncompressed vs top-k vs
//! top-k + int8 gradient shipping on one high-dimensional sparse ASGD
//! workload, with quantized version-diff patches riding the incremental
//! broadcast in the quantized arm.
//!
//! Two kinds of numbers come out of it:
//!
//! 1. **Modeled, deterministic** (byte-gated in CI): three arms on the
//!    simulated engine — worker → server result bytes (what compression
//!    shrinks), driver → worker broadcast bytes, updates, final
//!    objective, trace — plus the headline ratios and a deterministic
//!    `within_loss_tolerance` verdict per compressed arm: the byte
//!    reduction only counts if the arm lands within 10% of the
//!    uncompressed arm's closed optimality gap.
//! 2. **Wall-clock, host-dependent** (reported, *not* gated; keys carry
//!    the `wc_` prefix so CI can filter them): the uncompressed and
//!    quantized arms on the threaded engine, where modeled transfer time
//!    becomes real sleep — shipping ~10x fewer result bytes turns into
//!    steps/sec.
//!
//! The workload is the ridge-free sparse logistic of the hot-path bench:
//! λ = 0 keeps gradients (and therefore top-k selections and broadcast
//! diffs) sparse, which is exactly the configuration `SolverCfg::lint`
//! steers compression users to.

use std::time::Instant;

use async_cluster::{ClusterSpec, CommModel, DelayModel, VDur};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_linalg::Quant;
use async_optim::{Asgd, AsyncSolver, CompressCfg, Objective, RunReport, SolverCfg};

use crate::json_f64;

/// Configuration of the compressed-communication benchmark.
#[derive(Debug, Clone)]
pub struct CommCompressCfg {
    /// Cluster size.
    pub workers: usize,
    /// Dataset rows.
    pub rows: usize,
    /// Feature dimension.
    pub cols: usize,
    /// Mean stored nonzeros per row.
    pub nnz_per_row: usize,
    /// Coordinates shipped per compressed delta.
    pub k: usize,
    /// Server update budget for the simulated (gated) runs.
    pub updates: u64,
    /// Server update budget for the threaded (wall-clock) runs.
    pub wc_updates: u64,
    /// Mini-batch fraction per task.
    pub batch_fraction: f64,
    /// Step size (ridge-free logistic).
    pub step: f64,
    /// Incremental ring capacity (all arms; the quantized arm also
    /// quantizes its patches).
    pub ring: usize,
    /// Per-message latency in µs.
    pub per_msg_us: u64,
    /// Modeled wire cost in ns/byte (what compression saves).
    pub ns_per_byte: f64,
    /// Threaded-engine scale from modeled time to real sleep.
    pub time_scale: f64,
    /// Sampling/generation seed.
    pub seed: u64,
}

impl Default for CommCompressCfg {
    fn default() -> Self {
        Self {
            workers: 4,
            rows: 2_048,
            cols: 65_536,
            nnz_per_row: 20,
            k: 256,
            updates: 300,
            wc_updates: 400,
            batch_fraction: 0.1,
            step: 0.5,
            ring: 16,
            per_msg_us: 50,
            ns_per_byte: 50.0,
            time_scale: 2.0,
            seed: 2026,
        }
    }
}

/// One simulated (deterministic) run's measurements.
#[derive(Debug, Clone)]
pub struct SimArm {
    /// "off", "topk" or "topk_i8".
    pub label: &'static str,
    /// Full run report.
    pub report: RunReport,
}

/// One threaded (wall-clock) run's measurements.
#[derive(Debug, Clone)]
pub struct WallClockArm {
    /// "off" or "topk_i8".
    pub label: &'static str,
    /// Real steps (server updates) per second of host time.
    pub steps_per_sec: f64,
    /// Host seconds the run took.
    pub elapsed_secs: f64,
    /// Worker → server result bytes.
    pub result_bytes: u64,
    /// Updates actually applied.
    pub updates: u64,
    /// Final objective value.
    pub final_objective: f64,
}

/// The benchmark outcome: three simulated arms, ratios and verdicts, two
/// wall-clock arms.
#[derive(Debug, Clone)]
pub struct CommCompress {
    /// The configuration measured.
    pub cfg: CommCompressCfg,
    /// Simulated uncompressed arm (deterministic, the reference).
    pub sim_off: SimArm,
    /// Simulated top-k (exact values) arm.
    pub sim_topk: SimArm,
    /// Simulated top-k + int8 arm.
    pub sim_topk_i8: SimArm,
    /// `sim_off.result_bytes / sim_topk.result_bytes`.
    pub result_bytes_ratio_topk: f64,
    /// `sim_off.result_bytes / sim_topk_i8.result_bytes` — the headline.
    pub result_bytes_ratio_topk_i8: f64,
    /// `sim_off.bytes_shipped / sim_topk_i8.bytes_shipped` (the quantized
    /// arm also shrinks the driver → worker patches).
    pub bcast_bytes_ratio_topk_i8: f64,
    /// True when the top-k arm's final gap is within 10% of uncompressed.
    pub topk_within_loss_tolerance: bool,
    /// True when the int8 arm's final gap is within 10% of uncompressed.
    pub topk_i8_within_loss_tolerance: bool,
    /// Threaded uncompressed arm (wall clock, not gated).
    pub wc_off: WallClockArm,
    /// Threaded quantized arm (wall clock, not gated).
    pub wc_topk_i8: WallClockArm,
    /// `wc_topk_i8.steps_per_sec / wc_off.steps_per_sec`.
    pub wc_speedup: f64,
}

fn dataset(cfg: &CommCompressCfg) -> Dataset {
    let (base, w_star) = SynthSpec::sparse(
        "comm-compress",
        cfg.rows,
        cfg.cols,
        cfg.nnz_per_row,
        cfg.seed,
    )
    .generate()
    .expect("synthetic generation");
    let labels: Vec<f64> = (0..base.rows())
        .map(|i| {
            if base.features().row_dot(i, &w_star) >= 0.0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    Dataset::new("comm-compress-pm1", base.features().clone(), labels).expect("relabel")
}

fn cluster(cfg: &CommCompressCfg) -> ClusterSpec {
    ClusterSpec::homogeneous(cfg.workers, DelayModel::None)
        .with_comm(CommModel {
            per_msg: VDur::from_micros(cfg.per_msg_us),
            ns_per_byte: cfg.ns_per_byte,
        })
        .with_sched_overhead(VDur::from_micros(cfg.per_msg_us / 2))
}

fn solver_cfg(cfg: &CommCompressCfg, updates: u64, compress: CompressCfg) -> SolverCfg {
    SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier: BarrierFilter::Asp,
        max_updates: updates,
        eval_every: (updates / 6).max(1),
        seed: cfg.seed,
        bcast_ring: cfg.ring,
        compress,
        ..SolverCfg::default()
    }
}

/// The ridge-free logistic objective: λ = 0 keeps the gradient support —
/// and so the top-k candidate set and the broadcast diffs — sparse.
fn objective() -> Objective {
    Objective::Logistic { lambda: 0.0 }
}

fn arms(cfg: &CommCompressCfg) -> [(&'static str, CompressCfg); 3] {
    [
        ("off", CompressCfg::Off),
        (
            "topk",
            CompressCfg::TopK {
                k: cfg.k,
                quant: Quant::Exact,
            },
        ),
        (
            "topk_i8",
            CompressCfg::TopK {
                k: cfg.k,
                quant: Quant::I8,
            },
        ),
    ]
}

fn run_sim(
    cfg: &CommCompressCfg,
    data: &Dataset,
    compress: CompressCfg,
    label: &'static str,
) -> SimArm {
    let mut ctx = AsyncContext::sim(cluster(cfg));
    let report =
        Asgd::new(objective()).run(&mut ctx, data, &solver_cfg(cfg, cfg.updates, compress));
    SimArm { label, report }
}

fn run_threaded(
    cfg: &CommCompressCfg,
    data: &Dataset,
    compress: CompressCfg,
    label: &'static str,
) -> WallClockArm {
    let mut ctx = AsyncContext::threaded(cluster(cfg), cfg.time_scale);
    let mut solver_cfg = solver_cfg(cfg, cfg.wc_updates, compress);
    // No mid-run objective evaluations: the wall clock should measure the
    // iteration loop, not the trace.
    solver_cfg.eval_every = 0;
    let t0 = Instant::now();
    let report = Asgd::new(objective()).run(&mut ctx, data, &solver_cfg);
    let elapsed_secs = t0.elapsed().as_secs_f64();
    WallClockArm {
        label,
        steps_per_sec: report.updates as f64 / elapsed_secs.max(1e-9),
        elapsed_secs,
        result_bytes: report.result_bytes,
        updates: report.updates,
        final_objective: report.final_objective,
    }
}

/// A compressed arm is "within tolerance" when it closes at least 90% of
/// the optimality gap the uncompressed arm closes (both start from ln 2 on
/// ±1 logistic labels at w = 0).
fn within_tolerance(off_final: f64, comp_final: f64) -> bool {
    let f0 = std::f64::consts::LN_2;
    comp_final - off_final <= 0.10 * (f0 - off_final)
}

/// Runs the five measurements (three simulated and gated, two threaded
/// and wall-clock).
pub fn run_comm_compress(cfg: CommCompressCfg) -> CommCompress {
    let data = dataset(&cfg);
    let [(l0, c0), (l1, c1), (l2, c2)] = arms(&cfg);
    let sim_off = run_sim(&cfg, &data, c0, l0);
    let sim_topk = run_sim(&cfg, &data, c1, l1);
    let sim_topk_i8 = run_sim(&cfg, &data, c2, l2);
    let off_bytes = sim_off.report.result_bytes as f64;
    let result_bytes_ratio_topk = off_bytes / sim_topk.report.result_bytes.max(1) as f64;
    let result_bytes_ratio_topk_i8 = off_bytes / sim_topk_i8.report.result_bytes.max(1) as f64;
    let bcast_bytes_ratio_topk_i8 =
        sim_off.report.bytes_shipped as f64 / sim_topk_i8.report.bytes_shipped.max(1) as f64;
    let topk_within_loss_tolerance = within_tolerance(
        sim_off.report.final_objective,
        sim_topk.report.final_objective,
    );
    let topk_i8_within_loss_tolerance = within_tolerance(
        sim_off.report.final_objective,
        sim_topk_i8.report.final_objective,
    );
    let wc_off = run_threaded(&cfg, &data, c0, l0);
    let wc_topk_i8 = run_threaded(&cfg, &data, c2, l2);
    let wc_speedup = wc_topk_i8.steps_per_sec / wc_off.steps_per_sec.max(1e-9);
    eprintln!(
        "comm_compress: modeled result bytes {:.1}x (topk) / {:.1}x (topk+i8) smaller; wall-clock {:.0} vs {:.0} steps/s ({:.2}x) [profile: lto=thin, codegen-units=1, panic=abort bins]",
        result_bytes_ratio_topk,
        result_bytes_ratio_topk_i8,
        wc_topk_i8.steps_per_sec,
        wc_off.steps_per_sec,
        wc_speedup,
    );
    CommCompress {
        cfg,
        sim_off,
        sim_topk,
        sim_topk_i8,
        result_bytes_ratio_topk,
        result_bytes_ratio_topk_i8,
        bcast_bytes_ratio_topk_i8,
        topk_within_loss_tolerance,
        topk_i8_within_loss_tolerance,
        wc_off,
        wc_topk_i8,
        wc_speedup,
    }
}

fn sim_json(a: &SimArm, indent: &str) -> String {
    let r = &a.report;
    let trace: Vec<String> = r
        .trace
        .points()
        .iter()
        .map(|&(t, e)| format!("[{}, {}]", json_f64(t.as_millis_f64()), json_f64(e)))
        .collect();
    format!(
        "{{\n{i}  \"arm\": \"{}\",\n{i}  \"updates\": {},\n{i}  \"tasks_completed\": {},\n{i}  \"max_staleness\": {},\n{i}  \"bytes_shipped\": {},\n{i}  \"result_bytes\": {},\n{i}  \"grad_entries\": {},\n{i}  \"wall_clock_ms\": {},\n{i}  \"final_objective\": {},\n{i}  \"trace_ms_objective\": [{}]\n{i}}}",
        a.label,
        r.updates,
        r.tasks_completed,
        r.max_staleness,
        r.bytes_shipped,
        r.result_bytes,
        r.grad_entries,
        json_f64(r.wall_clock.as_millis_f64()),
        json_f64(r.final_objective),
        trace.join(", "),
        i = indent,
    )
}

fn wc_json(a: &WallClockArm, indent: &str) -> String {
    format!(
        "{{\n{i}  \"arm\": \"{}\",\n{i}  \"wc_steps_per_sec\": {},\n{i}  \"wc_elapsed_secs\": {},\n{i}  \"wc_result_bytes\": {},\n{i}  \"wc_updates\": {},\n{i}  \"wc_final_objective\": {}\n{i}}}",
        a.label,
        json_f64(a.steps_per_sec),
        json_f64(a.elapsed_secs),
        a.result_bytes,
        a.updates,
        json_f64(a.final_objective),
        i = indent,
    )
}

impl CommCompress {
    /// Renders the benchmark as a stable JSON document. Keys starting with
    /// `wc_` are host wall-clock observations and are excluded from the CI
    /// byte-reproduction gate (`grep -v wc_`); every other byte —
    /// including the loss-tolerance verdicts — is deterministic for a
    /// fixed configuration.
    pub fn to_json(&self) -> String {
        let c = &self.cfg;
        format!(
            "{{\n  \"benchmark\": \"comm_compress\",\n  \"description\": \"uncompressed vs top-k vs top-k+int8 gradient shipping (error feedback; quantized incremental-broadcast patches in the int8 arm) for ASGD on a high-dim sparse logistic workload; modeled bytes and loss verdicts on the simulator (gated), real steps/sec on the threaded engine (wc_, not gated); built with the tuned release profile (lto=thin, codegen-units=1, panic=abort bins)\",\n  \"config\": {{\n    \"workers\": {},\n    \"dataset\": \"sparse synthetic {}x{} (~{} nnz/row), logistic +-1 labels, lambda 0\",\n    \"k\": {},\n    \"updates\": {},\n    \"wc_updates\": {},\n    \"batch_fraction\": {},\n    \"step\": {},\n    \"ring\": {},\n    \"per_msg_us\": {},\n    \"ns_per_byte\": {},\n    \"time_scale\": {},\n    \"seed\": {}\n  }},\n  \"sim_off\": {},\n  \"sim_topk\": {},\n  \"sim_topk_i8\": {},\n  \"result_bytes_ratio_off_over_topk\": {},\n  \"result_bytes_ratio_off_over_topk_i8\": {},\n  \"bcast_bytes_ratio_off_over_topk_i8\": {},\n  \"topk_within_loss_tolerance\": {},\n  \"topk_i8_within_loss_tolerance\": {},\n  \"wc_threaded_off\": {},\n  \"wc_threaded_topk_i8\": {},\n  \"wc_steps_per_sec_speedup_topk_i8_over_off\": {}\n}}\n",
            c.workers,
            c.rows,
            c.cols,
            c.nnz_per_row,
            c.k,
            c.updates,
            c.wc_updates,
            json_f64(c.batch_fraction),
            json_f64(c.step),
            c.ring,
            c.per_msg_us,
            json_f64(c.ns_per_byte),
            json_f64(c.time_scale),
            c.seed,
            sim_json(&self.sim_off, "  "),
            sim_json(&self.sim_topk, "  "),
            sim_json(&self.sim_topk_i8, "  "),
            json_f64(self.result_bytes_ratio_topk),
            json_f64(self.result_bytes_ratio_topk_i8),
            json_f64(self.bcast_bytes_ratio_topk_i8),
            self.topk_within_loss_tolerance,
            self.topk_i8_within_loss_tolerance,
            wc_json(&self.wc_off, "  "),
            wc_json(&self.wc_topk_i8, "  "),
            json_f64(self.wc_speedup),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CommCompressCfg {
        CommCompressCfg {
            rows: 256,
            cols: 4_096,
            k: 32,
            updates: 200,
            wc_updates: 60,
            time_scale: 0.2,
            ..CommCompressCfg::default()
        }
    }

    #[test]
    fn compression_slashes_result_bytes_within_loss_tolerance() {
        let b = run_comm_compress(small_cfg());
        assert_eq!(b.sim_off.report.updates, 200);
        assert_eq!(b.sim_topk.report.updates, 200);
        assert_eq!(b.sim_topk_i8.report.updates, 200);
        assert!(
            b.result_bytes_ratio_topk_i8 >= 5.0,
            "int8 top-k must cut result bytes >=5x even at test scale: {}",
            b.result_bytes_ratio_topk_i8
        );
        // An exact entry costs its index varint plus 8 value bytes, an int8
        // entry the same varint plus 1: at most 4.5x apart, so most of the
        // int8 arm's ratio is already there without quantization.
        assert!(
            b.result_bytes_ratio_topk > b.result_bytes_ratio_topk_i8 / 4.5,
            "exact top-k already sparsifies: {} vs {}",
            b.result_bytes_ratio_topk,
            b.result_bytes_ratio_topk_i8
        );
        assert!(
            b.topk_within_loss_tolerance,
            "top-k arm out of tolerance: off {} topk {} i8 {}",
            b.sim_off.report.final_objective,
            b.sim_topk.report.final_objective,
            b.sim_topk_i8.report.final_objective
        );
        assert!(
            b.topk_i8_within_loss_tolerance,
            "top-k+i8 arm out of tolerance"
        );
        // Both compressed arms still land below the ln(2) start.
        let ln2 = std::f64::consts::LN_2;
        assert!(b.sim_topk.report.final_objective < ln2);
        assert!(b.sim_topk_i8.report.final_objective < ln2);
    }

    #[test]
    fn json_is_stable_and_filters_wall_clock_keys() {
        let b = run_comm_compress(small_cfg());
        let j1 = b.to_json();
        let j2 = b.to_json();
        assert_eq!(j1, j2, "rendering must be deterministic");
        for key in [
            "\"benchmark\": \"comm_compress\"",
            "\"result_bytes_ratio_off_over_topk_i8\"",
            "\"topk_i8_within_loss_tolerance\"",
            "\"wc_steps_per_sec\"",
        ] {
            assert!(j1.contains(key), "missing {key}");
        }
        // Every wall-clock observation lives under a wc_ key, so the CI
        // gate's grep -v '"wc_' filter drops them all.
        let gated: Vec<&str> = j1.lines().filter(|l| !l.contains("\"wc_")).collect();
        assert!(gated.iter().all(|l| !l.contains("steps_per_sec")));
        assert!(gated.iter().any(|l| l.contains("result_bytes")));
    }
}

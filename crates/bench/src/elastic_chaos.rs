//! The elastic-chaos benchmark: convergence-to-budget under membership
//! churn vs a static cluster, across ASP / BSP / SSP.
//!
//! For each barrier the same ASGD workload runs twice on the simulated
//! cluster: once with a fixed membership, and once under a
//! [`ChaosSchedule::pcs_churn`] script sized to the static run's wall
//! clock — ~25 % of the fleet is killed in a staggered burst, every
//! casualty is revived after a downtime window, and one new worker joins
//! at the midpoint. Both runs get the same update budget, so the chaos
//! column answers the question the cloud setting actually asks: *how much
//! wall clock and convergence does churn cost under each barrier?*
//! Asynchronous barriers should shrug (survivors keep streaming updates),
//! while BSP pays for every casualty at every barrier.
//!
//! Everything is deterministic; the JSON is byte-reproducible and diffed
//! in CI like the other two benchmark files.

use async_cluster::{ChaosAction, ChaosSchedule, DelayModel, VTime};
use async_core::{AsyncContext, BarrierFilter};
use async_data::SynthSpec;
use async_linalg::ParallelismCfg;
use async_optim::{Asgd, AsyncSolver, Objective, RunReport, SolverCfg};

use crate::doc::{bench_doc, BenchDoc, ReportField, Value};
use crate::workload::modeled_cluster;

/// Configuration of the elastic-chaos benchmark.
#[derive(Debug, Clone)]
pub struct ElasticChaosCfg {
    /// Starting cluster size (churn revives every casualty and adds one).
    pub workers: usize,
    /// Dataset rows (dense synthetic).
    pub rows: usize,
    /// Dataset feature dimension.
    pub cols: usize,
    /// Server update budget per run.
    pub updates: u64,
    /// Mini-batch fraction per task.
    pub batch_fraction: f64,
    /// Step size.
    pub step: f64,
    /// Per-message latency in µs (plus 1 ns/byte on payloads).
    pub per_msg_us: u64,
    /// Fraction of the *static* run's wall clock the churn script spans.
    pub chaos_horizon_fraction: f64,
    /// Seed for data, sampling, and the churn script.
    pub seed: u64,
}

impl Default for ElasticChaosCfg {
    fn default() -> Self {
        Self {
            workers: 8,
            rows: 2_048,
            cols: 64,
            updates: 320,
            batch_fraction: 0.2,
            step: 0.05,
            per_msg_us: 20,
            chaos_horizon_fraction: 0.6,
            seed: 2026,
        }
    }
}

/// One barrier's static-vs-chaos pair.
#[derive(Debug, Clone)]
pub struct BarrierOutcome {
    /// "asp", "bsp" or "ssp2".
    pub name: &'static str,
    /// The churn script this barrier ran under.
    pub chaos: ChaosSchedule,
    /// Fixed-membership run.
    pub static_run: RunReport,
    /// Same workload under the churn script.
    pub chaos_run: RunReport,
    /// `chaos.wall_clock / static.wall_clock` — the churn slowdown.
    pub wall_clock_slowdown: f64,
    /// `chaos.final_error / static.final_error` — the convergence cost.
    pub error_ratio: f64,
}

/// The benchmark outcome across barriers.
#[derive(Debug, Clone)]
pub struct ElasticChaos {
    /// The configuration measured.
    pub cfg: ElasticChaosCfg,
    /// Per-barrier outcomes (asp, bsp, ssp2).
    pub outcomes: Vec<BarrierOutcome>,
}

fn ctx(cfg: &ElasticChaosCfg) -> AsyncContext {
    AsyncContext::sim(modeled_cluster(
        cfg.workers,
        DelayModel::None,
        cfg.per_msg_us,
        1.0,
    ))
}

fn solver_cfg(cfg: &ElasticChaosCfg, barrier: BarrierFilter, baseline: f64) -> SolverCfg {
    SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier,
        max_updates: cfg.updates,
        eval_every: (cfg.updates / 8).max(1),
        baseline,
        seed: cfg.seed,
        ..SolverCfg::default()
    }
}

/// Runs the benchmark: three barriers × {static, churn}.
pub fn run_elastic_chaos(cfg: ElasticChaosCfg) -> ElasticChaos {
    let (dataset, _) = SynthSpec::dense("elastic-chaos", cfg.rows, cfg.cols, cfg.seed)
        .generate()
        .expect("synthetic generation");
    let objective = Objective::LeastSquares { lambda: 1e-3 };
    let baseline = objective
        .optimum(ParallelismCfg::sequential(), &dataset)
        .expect("least-squares baseline");

    let barriers: [(&'static str, BarrierFilter); 3] = [
        ("asp", BarrierFilter::Asp),
        ("bsp", BarrierFilter::Bsp),
        ("ssp2", BarrierFilter::Ssp { slack: 2 }),
    ];
    let mut outcomes = Vec::with_capacity(barriers.len());
    for (name, barrier) in barriers {
        let scfg = solver_cfg(&cfg, barrier, baseline);
        let static_run = {
            let mut c = ctx(&cfg);
            Asgd::new(objective).run(&mut c, &dataset, &scfg)
        };
        // Size the churn script to this barrier's own pace so the burst,
        // the revivals, and the join all land inside the run.
        let horizon = VTime::from_micros(
            ((static_run.wall_clock.as_micros() as f64) * cfg.chaos_horizon_fraction).max(1.0)
                as u64,
        );
        let chaos = ChaosSchedule::pcs_churn(cfg.seed, cfg.workers, horizon);
        let chaos_run = {
            let mut c = ctx(&cfg);
            c.driver_mut().install_chaos(&chaos);
            Asgd::new(objective).run(&mut c, &dataset, &scfg)
        };
        let wall_clock_slowdown = chaos_run.wall_clock.as_micros() as f64
            / static_run.wall_clock.as_micros().max(1) as f64;
        let error_ratio = chaos_run.trace.final_error().unwrap_or(f64::NAN)
            / static_run.trace.final_error().unwrap_or(f64::NAN);
        outcomes.push(BarrierOutcome {
            name,
            chaos,
            static_run,
            chaos_run,
            wall_clock_slowdown,
            error_ratio,
        });
    }
    for o in &outcomes {
        eprintln!(
            "elastic_chaos: {} churn slowdown {:.3}x, final-error ratio {:.3}",
            o.name, o.wall_clock_slowdown, o.error_ratio,
        );
    }
    ElasticChaos { cfg, outcomes }
}

const DESCRIPTION: &str = "ASGD convergence-to-budget under kill/revive/join churn (pcs_churn preset: ~25% of the fleet lost and replaced, one elastic join) vs a static cluster, across ASP/BSP/SSP barriers";

const RUN_FIELDS: [ReportField; 8] = [
    ReportField::WallClockMs,
    ReportField::Updates,
    ReportField::TasksCompleted,
    ReportField::MaxStaleness,
    ReportField::BytesShipped,
    ReportField::FinalError,
    ReportField::WorkerClocks,
    ReportField::TraceMsError,
];

/// One inline row per scripted event; a join has no worker yet (`-1`).
fn chaos_events(s: &ChaosSchedule) -> Value {
    Value::inline(s.events().iter().map(|e| {
        let (action, worker) = match e.action {
            ChaosAction::Kill(w) => ("kill", w as i64),
            ChaosAction::Revive(w) => ("revive", w as i64),
            ChaosAction::Join => ("join", -1),
        };
        bench_doc! { "at_ms": e.at.as_millis_f64(), "action": action, "worker": worker }
    }))
}

impl ElasticChaos {
    /// The `BENCH_elastic_chaos.json` document; every byte is
    /// deterministic.
    pub fn doc(&self) -> BenchDoc {
        let c = &self.cfg;
        let run = |label: &str, r: &RunReport| bench_doc! { "run": label }.report(r, &RUN_FIELDS);
        let mut doc = bench_doc! {
            "benchmark": "elastic_chaos",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": c.workers,
                "dataset": format!("dense synthetic {}x{}", c.rows, c.cols),
                "updates": c.updates,
                "batch_fraction": c.batch_fraction,
                "step": c.step,
                "per_msg_us": c.per_msg_us,
                "chaos_horizon_fraction": c.chaos_horizon_fraction,
                "seed": c.seed,
            },
        };
        for o in &self.outcomes {
            let (kills, revives, joins) = o.chaos.counts();
            let outcome = bench_doc! {
                "chaos_events": chaos_events(&o.chaos),
                "kills": kills,
                "revives": revives,
                "joins": joins,
                "static": run("static", &o.static_run),
                "chaos": run("chaos", &o.chaos_run),
                "wall_clock_slowdown_chaos_over_static": o.wall_clock_slowdown,
                "final_error_ratio_chaos_over_static": o.error_ratio,
            };
            doc = doc.put(o.name, outcome);
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::oracle;

    fn small_cfg() -> ElasticChaosCfg {
        ElasticChaosCfg {
            workers: 4,
            rows: 256,
            cols: 24,
            updates: 80,
            per_msg_us: 0,
            ..ElasticChaosCfg::default()
        }
    }

    #[test]
    fn chaos_runs_reach_the_budget_under_every_barrier() {
        let b = run_elastic_chaos(small_cfg());
        assert_eq!(b.outcomes.len(), 3);
        for o in &b.outcomes {
            assert_eq!(o.static_run.updates, 80, "{}", o.name);
            assert_eq!(
                o.chaos_run.updates, 80,
                "{}: churn must not eat the budget",
                o.name
            );
            let (kills, revives, joins) = o.chaos.counts();
            assert!(kills >= 1 && revives == kills && joins == 1, "{}", o.name);
            // The joined worker exists at run end.
            assert_eq!(
                o.chaos_run.worker_clocks.len(),
                b.cfg.workers + 1,
                "{}",
                o.name
            );
            assert!(o.chaos_run.trace.final_error().unwrap().is_finite());
            // Convergence under churn stays in the static run's
            // neighborhood (budget, not time, fixes progress).
            assert!(
                o.error_ratio < 10.0,
                "{}: error ratio {}",
                o.name,
                o.error_ratio
            );
        }
    }

    #[test]
    fn elastic_chaos_is_deterministic() {
        let run = || run_elastic_chaos(small_cfg()).doc();
        oracle::check(run, "elastic_chaos", &[]);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let probes = ["asp.chaos_events", "bsp.static", "ssp2.chaos"];
        let doc = run_elastic_chaos(small_cfg()).doc();
        oracle::well_formed(&doc, "elastic_chaos", &probes);
    }
}

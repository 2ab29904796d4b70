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
use async_core::BarrierFilter;
use async_data::SynthSpec;
use async_optim::{Objective, RunReport, SolverCfg};

use crate::doc::{bench_doc, BenchDoc, ReportField, Value};
use crate::workload::{modeled_cluster, Scenario};

/// The committed workload: ASGD on dense least squares, eight starting
/// workers (churn revives every casualty and adds one) behind a 20 µs
/// message latency plus 1 ns/byte. The seed also seeds the churn script.
pub fn scenario() -> Scenario {
    Scenario {
        data: SynthSpec::dense("elastic-chaos", 2_048, 64, 2026),
        objective: Objective::LeastSquares { lambda: 1e-3 },
        cluster: modeled_cluster(8, DelayModel::None, 20, 1.0),
        solver: SolverCfg {
            step: 0.05,
            batch_fraction: 0.2,
            max_updates: 320,
            eval_every: 40,
            seed: 2026,
            ..SolverCfg::default()
        },
    }
}

/// What this bench varies beyond its [`Scenario`].
#[derive(Debug, Clone)]
pub struct Params {
    /// Fraction of the *static* run's wall clock the churn script spans.
    pub chaos_horizon_fraction: f64,
}

/// The committed parameters.
pub const PARAMS: Params = Params {
    chaos_horizon_fraction: 0.6,
};

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
    /// The scenario measured.
    pub scenario: Scenario,
    /// The parameters measured.
    pub params: Params,
    /// Per-barrier outcomes (asp, bsp, ssp2).
    pub outcomes: Vec<BarrierOutcome>,
}

/// Runs the benchmark: three barriers × {static, churn}.
pub fn run_elastic_chaos(mut s: Scenario, params: Params) -> ElasticChaos {
    let dataset = s.generate();
    let barriers: [(&'static str, BarrierFilter); 3] = [
        ("asp", BarrierFilter::Asp),
        ("bsp", BarrierFilter::Bsp),
        ("ssp2", BarrierFilter::Ssp { slack: 2 }),
    ];
    let mut outcomes = Vec::with_capacity(barriers.len());
    for (name, barrier) in barriers {
        let arm = s.arm(|a| a.solver.barrier = barrier);
        let static_run = arm.asgd(&mut arm.context(), &dataset);
        // Size the churn script to this barrier's own pace so the burst,
        // the revivals, and the join all land inside the run.
        let horizon = VTime::from_micros(
            ((static_run.wall_clock.as_micros() as f64) * params.chaos_horizon_fraction).max(1.0)
                as u64,
        );
        let chaos = ChaosSchedule::pcs_churn(s.solver.seed, s.cluster.workers, horizon);
        let chaos_run = {
            let mut ctx = arm.context();
            ctx.driver_mut().install_chaos(&chaos);
            arm.asgd(&mut ctx, &dataset)
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
    ElasticChaos {
        scenario: s,
        params,
        outcomes,
    }
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
        let s = &self.scenario;
        let run = |label: &str, r: &RunReport| bench_doc! { "run": label }.report(r, &RUN_FIELDS);
        let mut doc = bench_doc! {
            "benchmark": "elastic_chaos",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": s.cluster.workers,
                "dataset": s.data_label(),
                "updates": s.solver.max_updates,
                "batch_fraction": s.solver.batch_fraction,
                "step": s.solver.step,
                "per_msg_us": s.cluster.comm.per_msg.as_micros(),
                "chaos_horizon_fraction": self.params.chaos_horizon_fraction,
                "seed": s.solver.seed,
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
    use crate::workload::small;

    fn small_run() -> ElasticChaos {
        let mut s = small(scenario(), 256, 24, 80);
        s.cluster = modeled_cluster(4, DelayModel::None, 0, 1.0);
        run_elastic_chaos(s, PARAMS)
    }

    #[test]
    fn chaos_runs_reach_the_budget_under_every_barrier() {
        let b = small_run();
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
                b.scenario.cluster.workers + 1,
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
        let run = || small_run().doc();
        oracle::check(run, "elastic_chaos", &[]);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let probes = ["asp.chaos_events", "bsp.static", "ssp2.chaos"];
        let doc = small_run().doc();
        oracle::well_formed(&doc, "elastic_chaos", &probes);
    }
}

//! The serve-while-training benchmark: the read path over the MVCC
//! snapshot ring, scripted.
//!
//! One simulated training run with a [`async_optim::ServeFeed`] attached,
//! followed by a *scripted* read sequence against the frozen ring — a
//! full-table scoring pass, then a staleness replay that pushes synthetic
//! versions and lets the freshness policy re-pin on schedule. The serve
//! counters (reads, rows, refreshes, recorded max lag) and a prediction
//! checksum are exact for a fixed configuration (byte-gated in CI). Read
//! throughput and what serving costs the trainer are host-time questions:
//! the `benchmark/` harness's `serve_while_train` workload measures them.

use async_cluster::DelayModel;
use async_data::SynthSpec;
use async_optim::{Objective, RunReport, ServeCounters, ServeFeed, SolverCfg};
use async_serve::{ServeCfg, Server};

use crate::doc::{bench_doc, BenchDoc, ReportField};
use crate::workload::{modeled_cluster, Scenario};

/// The committed workload: ASGD on dense least squares, four workers on a
/// free wire, no trace.
pub fn scenario() -> Scenario {
    Scenario {
        data: SynthSpec::dense("serve-qps", 4_096, 256, 2026),
        objective: Objective::LeastSquares { lambda: 0.01 },
        cluster: modeled_cluster(4, DelayModel::None, 0, 0.0),
        solver: SolverCfg {
            step: 0.05,
            batch_fraction: 0.1,
            max_updates: 400,
            seed: 2026,
            ..SolverCfg::default()
        },
    }
}

/// What this bench varies beyond its [`Scenario`]: the scripted reads.
#[derive(Debug, Clone)]
pub struct Params {
    /// Freshness bound handed to the predictor.
    pub max_version_lag: u64,
    /// Synthetic versions pushed by the scripted staleness replay.
    pub replay_pushes: usize,
}

/// The committed parameters.
pub const PARAMS: Params = Params {
    max_version_lag: 4,
    replay_pushes: 20,
};

/// The deterministic serving measurements over the frozen ring.
#[derive(Debug, Clone)]
pub struct SimServe {
    /// The training run the ring came from.
    pub report: RunReport,
    /// Serve counters after the scripted read sequence.
    pub counters: ServeCounters,
    /// Refreshes triggered by the staleness replay alone.
    pub replay_refreshes: u64,
    /// Sum of every prediction served by the scripted sequence.
    pub prediction_checksum: f64,
}

/// The benchmark outcome.
#[derive(Debug, Clone)]
pub struct ServeQps {
    /// The scenario measured.
    pub scenario: Scenario,
    /// The parameters measured.
    pub params: Params,
    /// The scripted serving arm.
    pub sim: SimServe,
}

/// Trains once on the simulator (single-threaded, exact), then scores a
/// scripted read sequence against the frozen ring — one full-table pass
/// plus a staleness replay exercising the freshness policy at a
/// deterministic cadence.
pub fn run_serve_qps(mut s: Scenario, params: Params) -> ServeQps {
    let data = s.generate();
    let feed = ServeFeed::new();
    let arm = s.arm(|a| a.solver.serve_feed = Some(feed.clone()));
    let report = arm.asgd(&mut arm.context(), &data);

    let cfg = ServeCfg {
        max_version_lag: params.max_version_lag,
        ..ServeCfg::default()
    };
    let srv = Server::connect(&feed, cfg).expect("run published its broadcast");
    let mut p = srv.predictor();
    let mut checksum = 0.0;
    let rows: Vec<u32> = (0..data.rows() as u32).collect();
    let mut out = Vec::new();
    p.predict_rows_into(data.features(), &rows, &mut out);
    checksum += out.iter().sum::<f64>();

    // Staleness replay: push synthetic versions onto the frozen ring and
    // read one query after each — the policy re-pins exactly every
    // `max_version_lag + 1` pushes.
    let before_replay = srv.counters().refreshes;
    let model = srv.feed().try_model().expect("published");
    let query = vec![(0u32, 1.0f64)];
    for k in 1..=params.replay_pushes {
        let w = vec![k as f64 / params.replay_pushes as f64; data.cols()];
        model.bcast.push_snapshot(&w);
        checksum += p.predict_query(&query);
    }
    let counters = srv.counters();
    let sim = SimServe {
        report,
        replay_refreshes: counters.refreshes - before_replay,
        counters,
        prediction_checksum: checksum,
    };
    ServeQps {
        scenario: s,
        params,
        sim,
    }
}

const DESCRIPTION: &str = "serve-while-training read path over the MVCC snapshot ring: a deterministic scripted read sequence (full-table scoring pass + staleness replay) against a simulated training run";

const SIM_FIELDS: [ReportField; 3] = [
    ReportField::Updates,
    ReportField::TasksCompleted,
    ReportField::FinalObjective,
];

impl ServeQps {
    /// The `BENCH_serve_qps.json` document.
    pub fn doc(&self) -> BenchDoc {
        let (s, p) = (&self.scenario, &self.params);
        let sc = &self.sim.counters;
        bench_doc! {
            "benchmark": "serve_qps",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": s.cluster.workers,
                "dataset": s.data_label(),
                "updates": s.solver.max_updates,
                "batch_fraction": s.solver.batch_fraction,
                "step": s.solver.step,
                "max_version_lag": p.max_version_lag,
                "replay_pushes": p.replay_pushes,
                "seed": s.solver.seed,
            },
            "sim": BenchDoc::new()
                .report(&self.sim.report, &SIM_FIELDS)
                .put("serve_reads", sc.reads)
                .put("serve_rows_scored", sc.rows_scored)
                .put("serve_refreshes", sc.refreshes)
                .put("serve_max_version_lag", sc.max_version_lag)
                .put("replay_refreshes", self.sim.replay_refreshes)
                .put("prediction_checksum", self.sim.prediction_checksum),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::small;

    fn small_run() -> ServeQps {
        run_serve_qps(small(scenario(), 256, 16, 120), PARAMS)
    }

    #[test]
    fn scripted_serving_is_deterministic_and_policy_paced() {
        let a = small_run();
        let b = small_run();
        assert_eq!(a.sim.report.updates, 120);
        // The scripted sequence: one full-table read + one query per
        // replay push, all on the books.
        assert_eq!(a.sim.counters.reads, 1 + PARAMS.replay_pushes as u64);
        assert_eq!(
            a.sim.counters.rows_scored,
            256 + PARAMS.replay_pushes as u64
        );
        // The freshness policy re-pins every (max_version_lag + 1)
        // pushes of the replay.
        let expect = PARAMS.replay_pushes as u64 / (PARAMS.max_version_lag + 1);
        assert_eq!(a.sim.replay_refreshes, expect);
        assert!(a.sim.counters.max_version_lag <= PARAMS.max_version_lag);
        assert_eq!(a.sim.prediction_checksum, b.sim.prediction_checksum);
        // Byte-stable across runs, and well-formed.
        let doc = a.doc();
        assert_eq!(doc.render(), b.doc().render());
        let probes = ["sim.serve_refreshes", "sim.prediction_checksum"];
        crate::doc::oracle::well_formed(&doc, "serve_qps", &probes);
    }
}

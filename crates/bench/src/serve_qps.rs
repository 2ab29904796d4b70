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

use async_cluster::{ClusterSpec, CommModel, DelayModel, VDur};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_optim::{Asgd, AsyncSolver, Objective, RunReport, ServeCounters, ServeFeed, SolverCfg};
use async_serve::{ServeCfg, Server};

use crate::doc::{bench_doc, BenchDoc, ReportField};

/// Configuration of the serve-while-training benchmark.
#[derive(Debug, Clone)]
pub struct ServeQpsCfg {
    /// Cluster size.
    pub workers: usize,
    /// Dataset rows.
    pub rows: usize,
    /// Feature dimension.
    pub cols: usize,
    /// Server update budget of the training run.
    pub updates: u64,
    /// Mini-batch fraction per task.
    pub batch_fraction: f64,
    /// Step size.
    pub step: f64,
    /// Freshness bound handed to the predictor.
    pub max_version_lag: u64,
    /// Synthetic versions pushed by the scripted staleness replay.
    pub replay_pushes: usize,
    /// Sampling/generation seed.
    pub seed: u64,
}

impl Default for ServeQpsCfg {
    fn default() -> Self {
        Self {
            workers: 4,
            rows: 4_096,
            cols: 256,
            updates: 400,
            batch_fraction: 0.1,
            step: 0.05,
            max_version_lag: 4,
            replay_pushes: 20,
            seed: 2026,
        }
    }
}

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
    /// The configuration measured.
    pub cfg: ServeQpsCfg,
    /// The scripted serving arm.
    pub sim: SimServe,
}

fn dataset(cfg: &ServeQpsCfg) -> Dataset {
    SynthSpec::dense("serve-qps", cfg.rows, cfg.cols, cfg.seed)
        .generate()
        .expect("synthetic generation")
        .0
}

fn cluster(cfg: &ServeQpsCfg) -> ClusterSpec {
    ClusterSpec::homogeneous(cfg.workers, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO)
}

fn solver_cfg(cfg: &ServeQpsCfg, feed: &ServeFeed) -> SolverCfg {
    SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier: BarrierFilter::Asp,
        max_updates: cfg.updates,
        eval_every: 0,
        seed: cfg.seed,
        serve_feed: Some(feed.clone()),
        ..SolverCfg::default()
    }
}

fn serve_cfg(cfg: &ServeQpsCfg) -> ServeCfg {
    ServeCfg {
        max_version_lag: cfg.max_version_lag,
        log_queries: false,
    }
}

/// The scripted arm: train on the simulator (single-threaded, exact), then
/// score a scripted read sequence against the frozen ring — one
/// full-table pass plus a staleness replay exercising the freshness
/// policy at a deterministic cadence.
fn run_sim(cfg: &ServeQpsCfg, data: &Dataset) -> SimServe {
    let feed = ServeFeed::new();
    let mut ctx = AsyncContext::sim(cluster(cfg));
    let report = Asgd::new(Objective::LeastSquares { lambda: 0.01 }).run(
        &mut ctx,
        data,
        &solver_cfg(cfg, &feed),
    );

    let srv = Server::connect(&feed, serve_cfg(cfg)).expect("run published its broadcast");
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
    for k in 1..=cfg.replay_pushes {
        let w = vec![k as f64 / cfg.replay_pushes as f64; data.cols()];
        model.bcast.push_snapshot(&w);
        checksum += p.predict_query(&query);
    }
    let counters = srv.counters();
    SimServe {
        report,
        replay_refreshes: counters.refreshes - before_replay,
        counters,
        prediction_checksum: checksum,
    }
}

/// Trains once on the simulator and replays the scripted read sequence.
pub fn run_serve_qps(cfg: ServeQpsCfg) -> ServeQps {
    let sim = run_sim(&cfg, &dataset(&cfg));
    eprintln!(
        "serve_qps: {} scripted reads, {} refreshes over {} replay pushes",
        sim.counters.reads, sim.replay_refreshes, cfg.replay_pushes,
    );
    ServeQps { cfg, sim }
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
        let c = &self.cfg;
        let sc = &self.sim.counters;
        bench_doc! {
            "benchmark": "serve_qps",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": c.workers,
                "dataset": format!("dense synthetic {}x{}", c.rows, c.cols),
                "updates": c.updates,
                "batch_fraction": c.batch_fraction,
                "step": c.step,
                "max_version_lag": c.max_version_lag,
                "replay_pushes": c.replay_pushes,
                "seed": c.seed,
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

    fn small_cfg() -> ServeQpsCfg {
        ServeQpsCfg {
            rows: 256,
            cols: 16,
            updates: 120,
            ..ServeQpsCfg::default()
        }
    }

    #[test]
    fn scripted_serving_is_deterministic_and_policy_paced() {
        let a = run_serve_qps(small_cfg());
        let b = run_serve_qps(small_cfg());
        assert_eq!(a.sim.report.updates, 120);
        // The scripted sequence: one full-table read + one query per
        // replay push, all on the books.
        assert_eq!(a.sim.counters.reads, 1 + small_cfg().replay_pushes as u64);
        assert_eq!(
            a.sim.counters.rows_scored,
            256 + small_cfg().replay_pushes as u64
        );
        // The freshness policy re-pins every (max_version_lag + 1)
        // pushes of the replay.
        let expect = small_cfg().replay_pushes as u64 / (small_cfg().max_version_lag + 1);
        assert_eq!(a.sim.replay_refreshes, expect);
        assert!(a.sim.counters.max_version_lag <= small_cfg().max_version_lag);
        assert_eq!(a.sim.prediction_checksum, b.sim.prediction_checksum);
        // Byte-stable across runs, and well-formed.
        let doc = a.doc();
        assert_eq!(doc.render(), b.doc().render());
        let probes = ["sim.serve_refreshes", "sim.prediction_checksum"];
        crate::doc::oracle::well_formed(&doc, "serve_qps", &probes);
    }
}

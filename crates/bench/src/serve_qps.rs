//! The serve-while-training benchmark: read throughput over the MVCC
//! snapshot ring, and what serving costs the trainer.
//!
//! Two kinds of numbers come out of it:
//!
//! 1. **Modeled, deterministic** (byte-gated in CI): one simulated
//!    training run with a [`async_optim::ServeFeed`] attached, followed
//!    by a *scripted* read sequence against the frozen ring — a full-table
//!    scoring pass, then a staleness replay that pushes synthetic
//!    versions and lets the freshness policy re-pin on schedule. The
//!    serve counters (reads, rows, refreshes, recorded max lag) and a
//!    prediction checksum are exact for a fixed configuration.
//! 2. **Wall-clock, host-dependent** (reported, *not* gated; `wc_`
//!    keys): the same training run solo vs with reader threads hammering
//!    batched predictions until the run finishes — saturating read QPS,
//!    trainer steps/sec in both modes, and the headline training
//!    slowdown ratio.

use std::sync::Arc;
use std::thread;

use async_cluster::{ClusterSpec, CommModel, DelayModel, VDur};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_optim::{Asgd, AsyncSolver, Objective, RunReport, ServeCounters, ServeFeed, SolverCfg};
use async_serve::{ServeCfg, Server};

use crate::doc::{bench_doc, BenchDoc, ReportField};
use crate::workload::WallClockArm;

/// Configuration of the serve-while-training benchmark.
#[derive(Debug, Clone)]
pub struct ServeQpsCfg {
    /// Cluster size.
    pub workers: usize,
    /// Dataset rows.
    pub rows: usize,
    /// Feature dimension.
    pub cols: usize,
    /// Server update budget for the simulated (gated) run.
    pub updates: u64,
    /// Server update budget for each wall-clock run.
    pub wc_updates: u64,
    /// Mini-batch fraction per task.
    pub batch_fraction: f64,
    /// Step size.
    pub step: f64,
    /// Serving threads in the wall-clock serving arm.
    pub readers: usize,
    /// Query rows per batched predict call.
    pub query_rows: usize,
    /// Freshness bound handed to every predictor.
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
            wc_updates: 4_000,
            batch_fraction: 0.1,
            step: 0.05,
            readers: 2,
            query_rows: 64,
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

/// One wall-clock training arm (trainer on the main thread, readers —
/// if any — on their own).
#[derive(Debug, Clone)]
pub struct WcArm {
    /// "solo" or "serving".
    pub label: &'static str,
    /// Trainer steps (server updates) per second of host time.
    pub train_steps_per_sec: f64,
    /// Host seconds the run took.
    pub elapsed_secs: f64,
    /// Batched predict calls served while training (0 in the solo arm).
    pub reads: u64,
    /// Rows scored while training (0 in the solo arm).
    pub rows_scored: u64,
    /// Served rows per second of host time (0 in the solo arm).
    pub read_qps: f64,
}

/// The benchmark outcome: the gated simulated arm plus the two
/// wall-clock arms and the slowdown headline.
#[derive(Debug, Clone)]
pub struct ServeQps {
    /// The configuration measured.
    pub cfg: ServeQpsCfg,
    /// Deterministic serving arm (byte-gated).
    pub sim: SimServe,
    /// Wall-clock trainer without readers.
    pub wc_solo: WcArm,
    /// Wall-clock trainer with `cfg.readers` serving threads attached.
    pub wc_serving: WcArm,
    /// `wc_solo.train_steps_per_sec / wc_serving.train_steps_per_sec` —
    /// >1 means serving slowed training down by that factor.
    pub wc_training_slowdown: f64,
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

fn solver_cfg(cfg: &ServeQpsCfg, updates: u64, feed: Option<&ServeFeed>) -> SolverCfg {
    let mut s = SolverCfg {
        step: cfg.step,
        batch_fraction: cfg.batch_fraction,
        barrier: BarrierFilter::Asp,
        max_updates: updates,
        eval_every: 0,
        seed: cfg.seed,
        ..SolverCfg::default()
    };
    s.serve_feed = feed.cloned();
    s
}

fn serve_cfg(cfg: &ServeQpsCfg) -> ServeCfg {
    ServeCfg {
        max_version_lag: cfg.max_version_lag,
        log_queries: false,
    }
}

/// The gated arm: train on the simulator (single-threaded, exact), then
/// score a scripted read sequence against the frozen ring — one
/// full-table pass plus a staleness replay exercising the freshness
/// policy at a deterministic cadence.
fn run_sim(cfg: &ServeQpsCfg, data: &Dataset) -> SimServe {
    let feed = ServeFeed::new();
    let mut ctx = AsyncContext::sim(cluster(cfg));
    let report = Asgd::new(Objective::LeastSquares { lambda: 0.01 }).run(
        &mut ctx,
        data,
        &solver_cfg(cfg, cfg.updates, Some(&feed)),
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

/// One wall-clock arm: the trainer runs on the calling thread; `readers`
/// serving threads batch-predict against the live ring until the run
/// finishes.
fn run_wc(cfg: &ServeQpsCfg, data: &Arc<Dataset>, readers: usize, label: &'static str) -> WcArm {
    let feed = ServeFeed::new();
    let handles: Vec<thread::JoinHandle<(u64, u64)>> = (0..readers)
        .map(|_| {
            let feed = feed.clone();
            let data = Arc::clone(data);
            let scfg = serve_cfg(cfg);
            let nrows = cfg.query_rows.min(data.rows()) as u32;
            thread::spawn(move || {
                let Some(srv) = Server::connect(&feed, scfg) else {
                    return (0, 0);
                };
                let mut p = srv.predictor();
                let rows: Vec<u32> = (0..nrows).collect();
                let mut out = Vec::new();
                let (mut reads, mut scored) = (0u64, 0u64);
                while !srv.training_done() {
                    p.predict_rows_into(data.features(), &rows, &mut out);
                    reads += 1;
                    scored += rows.len() as u64;
                }
                (reads, scored)
            })
        })
        .collect();

    let mut ctx = AsyncContext::sim(cluster(cfg));
    let trainer = WallClockArm::time(|| {
        Asgd::new(Objective::LeastSquares { lambda: 0.01 }).run(
            &mut ctx,
            data.as_ref(),
            &solver_cfg(cfg, cfg.wc_updates, Some(&feed)),
        )
    });

    let (mut reads, mut rows_scored) = (0u64, 0u64);
    for h in handles {
        let (r, s) = h.join().expect("reader thread");
        reads += r;
        rows_scored += s;
    }
    WcArm {
        label,
        train_steps_per_sec: trainer.steps_per_sec,
        elapsed_secs: trainer.elapsed_secs,
        reads,
        rows_scored,
        read_qps: rows_scored as f64 / trainer.elapsed_secs.max(1e-9),
    }
}

/// Runs the three measurements (one simulated and gated, two wall-clock).
pub fn run_serve_qps(cfg: ServeQpsCfg) -> ServeQps {
    let data = dataset(&cfg);
    let sim = run_sim(&cfg, &data);
    let data = Arc::new(data);
    let wc_solo = run_wc(&cfg, &data, 0, "solo");
    let wc_serving = run_wc(&cfg, &data, cfg.readers, "serving");
    let wc_training_slowdown =
        wc_solo.train_steps_per_sec / wc_serving.train_steps_per_sec.max(1e-9);
    eprintln!(
        "serve_qps: {:.0} rows/s served by {} readers; trainer {:.0} -> {:.0} steps/s ({:.2}x slowdown) [profile: lto=thin, codegen-units=1, panic=abort bins]",
        wc_serving.read_qps,
        cfg.readers,
        wc_solo.train_steps_per_sec,
        wc_serving.train_steps_per_sec,
        wc_training_slowdown,
    );
    ServeQps {
        cfg,
        sim,
        wc_solo,
        wc_serving,
        wc_training_slowdown,
    }
}

const DESCRIPTION: &str = "serve-while-training read path over the MVCC snapshot ring: a deterministic scripted read sequence (full-table scoring pass + staleness replay) on the simulator (gated), and solo-vs-serving trainer throughput with reader threads on the host (wc_, not gated); built with the tuned release profile (lto=thin, codegen-units=1, panic=abort bins)";

const SIM_FIELDS: [ReportField; 3] = [
    ReportField::Updates,
    ReportField::TasksCompleted,
    ReportField::FinalObjective,
];

impl ServeQps {
    /// The `BENCH_serve_qps.json` document; lines under `wc_` keys are host
    /// observations outside the byte gate (the contract: [`crate::doc`]),
    /// the scripted serve counters and prediction checksum are gated.
    pub fn doc(&self) -> BenchDoc {
        let c = &self.cfg;
        let sc = &self.sim.counters;
        let wc = |a: &WcArm| {
            bench_doc! {
                "arm": a.label,
                "wc_train_steps_per_sec": a.train_steps_per_sec,
                "wc_elapsed_secs": a.elapsed_secs,
                "wc_reads": a.reads,
                "wc_rows_scored": a.rows_scored,
                "wc_read_qps": a.read_qps,
            }
        };
        bench_doc! {
            "benchmark": "serve_qps",
            "description": DESCRIPTION,
            "config": bench_doc! {
                "workers": c.workers,
                "dataset": format!("dense synthetic {}x{}", c.rows, c.cols),
                "updates": c.updates,
                "wc_updates": c.wc_updates,
                "batch_fraction": c.batch_fraction,
                "step": c.step,
                "readers": c.readers,
                "query_rows": c.query_rows,
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
            "wc_solo": wc(&self.wc_solo),
            "wc_serving": wc(&self.wc_serving),
            "wc_training_slowdown_solo_over_serving": self.wc_training_slowdown,
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
            wc_updates: 300,
            readers: 2,
            query_rows: 32,
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
        // Byte-stable across runs (the gated half of the document).
        crate::doc::oracle::gated_lines_agree(&a.doc(), &b.doc());
        assert_eq!(a.sim.prediction_checksum, b.sim.prediction_checksum);
    }

    #[test]
    fn wall_clock_arms_train_to_budget_and_serve_reads() {
        let b = run_serve_qps(small_cfg());
        assert!(b.wc_solo.train_steps_per_sec > 0.0);
        assert!(b.wc_serving.train_steps_per_sec > 0.0);
        assert_eq!(b.wc_solo.reads, 0, "solo arm has no readers");
        assert!(b.wc_training_slowdown > 0.0);
        // Every host observation hides behind a wc_ key for the CI gate.
        let probes = [
            "sim.serve_refreshes",
            "sim.prediction_checksum",
            "wc_serving.wc_read_qps",
            "wc_training_slowdown_solo_over_serving",
        ];
        crate::doc::oracle::well_formed(&b.doc(), "serve_qps", &probes);
    }
}

//! Serve-while-training end-to-end: readers on their own OS threads pin
//! versions out of a live solver's MVCC snapshot ring and score queries
//! while the run absorbs gradients — plus the blackout/monotonicity and
//! per-run counter contracts.

use std::thread;

use async_cluster::{ChaosSchedule, ClusterSpec, CommModel, DelayModel, VDur, VTime};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_optim::{Asgd, AsyncSolver, Objective, RunReport, ServeFeed, SolverCfg};
use async_serve::{ServeCfg, Server};

const WORKERS: usize = 4;

fn quiet_spec() -> ClusterSpec {
    ClusterSpec::homogeneous(WORKERS, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO)
}

fn dataset() -> Dataset {
    SynthSpec::dense("serve-e2e", 160, 10, 3)
        .generate()
        .unwrap()
        .0
}

fn cfg(feed: &ServeFeed, max_updates: u64) -> SolverCfg {
    SolverCfg {
        step: 0.04,
        batch_fraction: 0.25,
        barrier: BarrierFilter::Asp,
        max_updates,
        seed: 11,
        serve_feed: Some(feed.clone()),
        ..SolverCfg::default()
    }
}

/// Spawns a solver run on its own thread, serving through `feed`.
fn spawn_run(
    feed: &ServeFeed,
    max_updates: u64,
    chaos: Option<ChaosSchedule>,
) -> thread::JoinHandle<RunReport> {
    let cfg = cfg(feed, max_updates);
    thread::spawn(move || {
        let d = dataset();
        let mut ctx = AsyncContext::sim(quiet_spec());
        if let Some(chaos) = &chaos {
            ctx.driver_mut().install_chaos(chaos);
        }
        Asgd::new(Objective::LeastSquares { lambda: 0.0 }).run(&mut ctx, &d, &cfg)
    })
}

#[test]
fn served_predictions_track_the_live_run_and_match_the_final_model() {
    let feed = ServeFeed::new();
    let solver = spawn_run(&feed, 2000, None);

    // connect() blocks until the run publishes its broadcast.
    let srv = Server::connect(&feed, ServeCfg::default()).expect("run publishes");
    assert_eq!(srv.dim(), 10);
    let d = dataset();
    let rows: Vec<u32> = (0..d.rows() as u32).collect();
    let mut p = srv.predictor();
    let mut out = Vec::new();
    let reads = 200;
    for _ in 0..reads {
        p.predict_rows_into(d.features(), &rows, &mut out);
        assert_eq!(out.len(), d.rows());
        assert!(out.iter().all(|v| v.is_finite()));
    }

    let r = solver.join().unwrap();
    assert_eq!(r.updates, 2000, "training ran to budget while serving");

    // After the run freezes the ring, a refreshed predictor must score
    // bit-identically to the reported final model.
    p.refresh();
    p.predict_rows_into(d.features(), &rows, &mut out);
    let mut expect = Vec::new();
    d.features().rows_dot_into(&rows, &r.final_w, &mut expect);
    assert_eq!(out, expect, "refreshed reads serve exactly final_w");

    // Counters: every read above is on the books; the RunReport snapshot
    // was taken at mark_done, so it can only have seen a prefix of them.
    let c = srv.counters();
    assert_eq!(c.reads, reads + 1);
    assert_eq!(c.rows_scored, (reads + 1) * d.rows() as u64);
    assert!(r.serve.reads <= c.reads);
    assert!(r.serve.rows_scored <= c.rows_scored);
}

#[test]
fn pinned_version_is_never_recycled_while_training_advances_the_ring() {
    let feed = ServeFeed::new();
    // max_version_lag = MAX: the reader keeps its original pin for the
    // whole concurrent run, however far the trainer advances.
    let hold = ServeCfg {
        max_version_lag: u64::MAX,
        ..ServeCfg::default()
    };
    let solver = spawn_run(&feed, 3000, None);
    let srv = Server::connect(&feed, hold).expect("run publishes");
    let mut p = srv.predictor();
    let v0 = p.version();
    let snapshot: Vec<f64> = p.model().to_vec();

    let d = dataset();
    let rows: Vec<u32> = (0..d.rows() as u32).collect();
    let mut out = Vec::new();
    let mut seen = Vec::new();
    loop {
        let done = srv.training_done();
        p.predict_rows_into(d.features(), &rows, &mut out);
        seen.push(p.latest_version());
        assert_eq!(p.version(), v0, "an unexpired pin never moves");
        if done {
            break;
        }
    }
    let r = solver.join().unwrap();
    assert_eq!(r.updates, 3000);

    // 3000 versions were pushed and pruned around the pin; the pinned
    // snapshot must still be bit-identical to its first read.
    assert_eq!(
        p.model(),
        snapshot.as_slice(),
        "pinned bytes survived churn"
    );
    assert_eq!(
        p.latest_version(),
        3000,
        "one version per absorbed wave lands on the frozen watermark"
    );
    assert!(
        p.latest_version() >= v0,
        "the pin is never ahead of the ring"
    );
    // The watermark any single reader observes is monotone.
    assert!(seen.windows(2).all(|w| w[0] <= w[1]));

    // Releasing the pin lets the ring reclaim the superseded version.
    drop(p);
    let fresh = srv.predictor();
    assert_eq!(
        fresh.version(),
        fresh.latest_version(),
        "a fresh pin lands on the frozen watermark"
    );
    assert_eq!(fresh.model(), r.final_w.as_slice());
}

#[test]
fn readers_serve_through_a_full_blackout_with_monotone_versions() {
    // Kill every worker mid-run, revive them later: training stalls, the
    // ring freezes, and readers keep serving the stale-but-bounded
    // snapshot; after revival the run finishes its budget and versions
    // observed by the reader never step backwards.
    let mut chaos = ChaosSchedule::new();
    for w in 0..WORKERS {
        chaos = chaos.kill(VTime::from_micros(40), w);
    }
    for w in 0..WORKERS {
        chaos = chaos.revive(VTime::from_micros(90), w);
    }
    let feed = ServeFeed::new();
    let solver = spawn_run(&feed, 2000, Some(chaos));

    let srv = Server::connect(
        &feed,
        ServeCfg {
            max_version_lag: 4,
            ..ServeCfg::default()
        },
    )
    .expect("run publishes");
    let d = dataset();
    let rows: Vec<u32> = (0..d.rows() as u32).collect();
    let mut p = srv.predictor();
    let mut out = Vec::new();
    let mut versions = Vec::new();
    loop {
        let done = srv.training_done();
        p.predict_rows_into(d.features(), &rows, &mut out);
        assert!(
            out.iter().all(|v| v.is_finite()),
            "reads never fail mid-blackout"
        );
        versions.push(p.version());
        if done {
            break;
        }
    }
    let r = solver.join().unwrap();
    assert_eq!(
        r.updates, 2000,
        "the run survives the blackout and spends its budget"
    );
    assert!(
        versions.windows(2).all(|w| w[0] <= w[1]),
        "served versions are monotone non-decreasing across kill/revive"
    );
    // The freshness policy kept every served read within its lag bound.
    assert!(srv.counters().max_version_lag <= 4);
}

#[test]
fn a_reused_feed_reports_only_its_own_runs_reads() {
    // A feed outlives its runs: a reader served between two runs on the
    // same feed must not show up in the second run's report.
    let feed = ServeFeed::new();
    let d = dataset();
    let objective = Objective::LeastSquares { lambda: 0.0 };
    let run =
        || Asgd::new(objective).run(&mut AsyncContext::sim(quiet_spec()), &d, &cfg(&feed, 50));
    let r1 = run();
    assert_eq!(r1.updates, 50);
    assert_eq!(r1.serve.reads, 0, "nobody read during the first run");

    let srv = Server::connect(&feed, ServeCfg::default()).expect("run published");
    let mut p = srv.predictor();
    for _ in 0..7 {
        assert!(p.predict_query(&[(0, 1.0)]).is_finite());
    }
    assert_eq!(srv.counters().reads, 7);

    let r2 = run();
    assert_eq!(r2.updates, 50);
    assert_eq!(
        r2.serve,
        Default::default(),
        "reads between runs are not the second run's"
    );
}

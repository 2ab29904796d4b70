//! Per-layer microbenchmarks: one public kernel or round trip each, timed
//! from outside its crate at the sizes the workloads use. They need no
//! workload, so the traced run of every workload reports them.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use async_cluster::{ClusterSpec, CommModel, DelayModel, VDur};
use async_core::{AsyncBcast, AsyncContext, BarrierFilter};
use async_data::{sampler, SynthSpec};
use async_linalg::{dense, select_top_k, DeltaFold, EfState, GradDelta, Matrix, Quant, ShardPool};
use async_optim::{
    Checkpoint, CheckpointStore, Objective, PublishedModel, ServeFeed, SolverHistory,
};
use async_serve::{ServeCfg, Server};
use bytes::BytesMut;
use sparklet::frame::{decode_frame, encode_frame, Msg};
use sparklet::{Engine, EngineBuilder, Payload, RoutineRegistry, Task, WireTask};

use crate::host::{self, TempDir};
use crate::stats;

/// Routine id of the benchmark's echo handler (the solvers' own routines
/// are 1 and 2).
const ROUTINE_ECHO: u32 = 0xEC40;

/// How long each kernel is timed.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Target duration of one timed batch of calls.
    batch_ns: f64,
    /// Batches per kernel; the median is reported.
    batches: usize,
    /// Round trips per engine, each timed on its own.
    round_trips: usize,
    /// Checkpoint commits (each one fsyncs).
    commits: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        batch_ns: 4e6,
        batches: 9,
        round_trips: 20_000,
        commits: 15,
    };
    pub const SMOKE: Effort = Effort {
        batch_ns: 1e5,
        batches: 3,
        round_trips: 200,
        commits: 3,
    };

    /// Median nanoseconds per call of `f`, over batches sized to last
    /// about `batch_ns`.
    pub fn ns_per_call(&self, mut f: impl FnMut()) -> f64 {
        let mut calls = 1u64;
        let time = |calls: u64, f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64
        };
        while calls < 1 << 28 {
            let ns = time(calls, &mut f);
            if ns >= self.batch_ns / 2.0 {
                break;
            }
            // Grow toward the target, at least doubling.
            calls = ((calls as f64 * self.batch_ns / ns.max(1.0)) as u64).max(calls * 2);
        }
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| time(calls, &mut f) / calls as f64)
            .collect();
        stats::median(&samples)
    }
}

fn free_spec(workers: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(workers, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO)
}

fn noop_task() -> Task {
    Task {
        tag: 0,
        cost: 1.0,
        bytes_in: 0,
        run: Box::new(|_| Box::new(())),
    }
}

/// Microseconds of each of `n` submit→next round trips of a no-op task.
fn round_trips_us(engine: &mut dyn Engine, n: usize, wire: Option<&[u8]>) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            match wire {
                None => engine.submit(0, noop_task()),
                Some(request) => {
                    let request = request.to_vec();
                    engine.submit_wired(
                        0,
                        noop_task(),
                        WireTask {
                            routine: ROUTINE_ECHO,
                            build: Box::new(move |_| request),
                            decode: Box::new(|bytes| Ok(Box::new(bytes.len()))),
                        },
                    )
                }
            }
            .expect("the single worker is idle");
            black_box(engine.next());
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect()
}

/// Runs every microbenchmark; returns `(metric name, value)` pairs. `dim`
/// is the workload's model dimension (the checkpoint size).
pub fn run(seed: u64, dim: usize, effort: Effort) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    // ---- data + linalg, on sparse_ring_sim's batches -------------------
    let (sparse, _) = SynthSpec::sparse("micro", 8192, 65_536, 20, seed)
        .generate_classification()
        .expect("synthetic generation");
    let block = sparse.partition(4).swap_remove(0);
    let Matrix::Sparse(csr) = block.features() else {
        unreachable!("sparse spec generates CSR");
    };
    let mut rows = Vec::new();
    let mut stream = 0u64;
    let ns = effort.ns_per_call(|| {
        stream += 1;
        let mut rng = sampler::derive_rng(seed, stream, 0);
        sampler::sample_fraction_into(&mut rng, block.rows(), 0.05, &mut rows);
    });
    out.push(("data.sample_ns_per_row", ns / rows.len() as f64));

    let nnz = csr.rows_nnz(&rows) as f64;
    let model = vec![0.01; block.cols()];
    let mut margins = Vec::new();
    let ns = effort.ns_per_call(|| csr.rows_dot_into(&rows, black_box(&model), &mut margins));
    out.push(("linalg.rows_dot_ns_per_nnz", ns / nnz));

    let coefs = vec![0.5; rows.len()];
    let (mut pairs, mut idx, mut val) = (Vec::new(), Vec::new(), Vec::new());
    let ns = effort.ns_per_call(|| {
        csr.gather_axpy_into(&rows, black_box(&coefs), &mut pairs, &mut idx, &mut val);
    });
    out.push(("linalg.gather_axpy_ns_per_nnz", ns / nnz));

    let delta = GradDelta::Sparse(csr.gather_axpy(&rows, &coefs));
    let entries = delta.nnz() as f64;
    let mut target = vec![0.0; block.cols()];
    let ns = effort.ns_per_call(|| delta.axpy_into(black_box(1e-3), &mut target));
    out.push(("linalg.sparse_axpy_ns_per_entry", ns / entries));

    let (x, mut y) = (vec![0.5; 256], vec![0.25; 256]);
    let ns = effort.ns_per_call(|| {
        black_box(dense::dot(black_box(&x), &y));
    });
    out.push(("linalg.dense_dot_ns_per_elem", ns / 256.0));
    let ns = effort.ns_per_call(|| dense::axpy(black_box(1e-9), &x, &mut y));
    out.push(("linalg.dense_axpy_ns_per_elem", ns / 256.0));

    let mut fold = DeltaFold::new(block.cols());
    let ns = effort.ns_per_call(|| {
        fold.clear(block.cols());
        fold.fold_scaled(black_box(0.5), &delta);
    });
    out.push(("linalg.delta_fold_ns_per_entry", ns / entries));

    let GradDelta::Sparse(sv) = &delta else {
        unreachable!("gather_axpy is sparse");
    };
    let (mut order, mut top_idx, mut top_val) = (Vec::new(), Vec::new(), Vec::new());
    let ns = effort.ns_per_call(|| {
        top_idx.clear();
        top_val.clear();
        select_top_k(
            sv.indices(),
            sv.values(),
            64,
            &mut order,
            &mut top_idx,
            &mut top_val,
        );
    });
    out.push(("linalg.select_top_k_ns_per_entry", ns / entries));

    let mut ef = EfState::new(block.cols());
    let ns = effort.ns_per_call(|| ef.compress(&delta, 64, Quant::I8));
    out.push(("linalg.ef_compress_ns_per_entry", ns / entries));

    let pool = ShardPool::new(2);
    let mut shards = [0u64; 2];
    let ns = effort.ns_per_call(|| pool.for_each(&mut shards, |_, s| *s += 1));
    out.push(("linalg.shard_pool_wave_us", ns / 1e3));
    drop(pool);

    // ---- sparklet codecs, at small_task_remote's and the sparse sizes --
    let submit = Msg::Submit {
        tag: 3,
        epoch: 1,
        routine: 1,
        sleep_us: 0,
        slow_factor: 0.0,
        request: vec![7u8; 64 * 8 + 40],
    };
    let mut framed = BytesMut::new();
    encode_frame(&submit, &mut framed);
    let frame_mb = framed.len() as f64 / 1e6;
    let ns = effort.ns_per_call(|| {
        let mut buf = BytesMut::with_capacity(framed.len());
        encode_frame(black_box(&submit), &mut buf);
        black_box(buf);
    });
    out.push(("sparklet.frame_encode_mb_per_s", frame_mb / (ns / 1e9)));
    let ns = effort.ns_per_call(|| {
        black_box(decode_frame(black_box(&framed)).expect("frame decodes"));
    });
    out.push(("sparklet.frame_decode_mb_per_s", frame_mb / (ns / 1e9)));

    let small = vec![0.125f64; 64];
    let (mut small_wire, mut delta_wire) = (BytesMut::new(), BytesMut::new());
    small.encode(&mut small_wire);
    delta.encode(&mut delta_wire);
    let payload_mb = (small_wire.len() + delta_wire.len()) as f64 / 1e6;
    let ns = effort.ns_per_call(|| {
        let mut a = BytesMut::with_capacity(small_wire.len());
        black_box(&small).encode(&mut a);
        let mut b = BytesMut::with_capacity(delta_wire.len());
        black_box(&delta).encode(&mut b);
        black_box((a, b));
    });
    out.push(("sparklet.payload_encode_mb_per_s", payload_mb / (ns / 1e9)));
    let ns = effort.ns_per_call(|| {
        black_box(<Vec<f64> as Payload>::decode(black_box(&small_wire)).expect("decodes"));
        black_box(GradDelta::decode(black_box(&delta_wire)).expect("decodes"));
    });
    out.push(("sparklet.payload_decode_mb_per_s", payload_mb / (ns / 1e9)));

    // ---- sparklet engines: one no-op task, submit -> next --------------
    let mut sim = EngineBuilder::sim()
        .spec(free_spec(1))
        .build()
        .expect("sim");
    let ns = effort.ns_per_call(|| {
        sim.submit(0, noop_task()).expect("idle worker");
        black_box(sim.next());
    });
    out.push(("sparklet.sim_task_us", ns / 1e3));

    let mut threaded = EngineBuilder::threaded()
        .spec(free_spec(1))
        .time_scale(0.0)
        .build()
        .expect("threaded");
    let trips = round_trips_us(threaded.as_mut(), effort.round_trips, None);
    out.push(("sparklet.threaded_roundtrip_us_p50", stats::median(&trips)));
    out.push((
        "sparklet.threaded_roundtrip_us_p99",
        stats::percentile(&trips, 99.0),
    ));
    drop(threaded);

    let mut remote = EngineBuilder::remote()
        .spec(free_spec(1))
        .time_scale(0.0)
        .loopback_workers(Arc::new(|| {
            let mut registry = RoutineRegistry::new();
            registry.register(ROUTINE_ECHO, |_, request| Ok(request.to_vec()));
            registry
        }))
        .build()
        .expect("loopback worker connects over 127.0.0.1");
    let (user0, sys0) = host::cpu_seconds();
    let trips = round_trips_us(remote.as_mut(), effort.round_trips, Some(&small_wire));
    let (user1, sys1) = host::cpu_seconds();
    out.push(("sparklet.remote_roundtrip_us_p50", stats::median(&trips)));
    out.push((
        "sparklet.remote_roundtrip_us_p99",
        stats::percentile(&trips, 99.0),
    ));
    let cpu = (user1 - user0) + (sys1 - sys0);
    let sys_share = if cpu > 0.0 { (sys1 - sys0) / cpu } else { 0.0 };
    out.push(("sparklet.remote_sys_cpu_share", sys_share));
    drop(remote);

    // ---- core: read pins and barrier admission -------------------------
    let bcast = AsyncBcast::new(0, vec![0.0f64; 256], 0);
    for k in 1..=4 {
        bcast.push_snapshot(&vec![f64::from(k); 256]);
    }
    let ns = effort.ns_per_call(|| {
        black_box(bcast.pin_read());
    });
    out.push(("core.pin_read_ns", ns));

    let snapshot = AsyncContext::sim(free_spec(8)).stat();
    let ssp = BarrierFilter::Ssp { slack: 4 };
    let ns = effort.ns_per_call(|| {
        black_box(ssp.select(black_box(&snapshot)));
    });
    out.push(("core.barrier_select_ns", ns));

    // ---- optim: checkpoint encoding and the durable commit -------------
    let ckpt = Checkpoint {
        solver: "asgd".to_string(),
        updates: 1,
        version: 1,
        w: vec![0.5; dim],
        history: SolverHistory::None,
        residuals: Some(Vec::new()),
    };
    let bytes = ckpt.to_bytes();
    let ns = effort.ns_per_call(|| {
        black_box(black_box(&ckpt).to_bytes());
    });
    out.push((
        "optim.ckpt_encode_mb_per_s",
        bytes.len() as f64 / 1e6 / (ns / 1e9),
    ));

    let dir = TempDir::new("ckpt").expect("scratch dir under out/");
    let mut store = CheckpointStore::open(dir.path()).expect("checkpoint store opens");
    let commits: Vec<f64> = (0..effort.commits as u64)
        .map(|generation| {
            let t0 = Instant::now();
            store.save(generation, &bytes).expect("checkpoint commits");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.push(("optim.ckpt_commit_ms_p50", stats::median(&commits)));
    let written = store.counters().bytes_written as f64;
    out.push((
        "optim.ckpt_write_amp",
        written / (bytes.len() * effort.commits) as f64,
    ));
    drop(dir);

    // ---- serve: scoring and re-pinning with no trainer -----------------
    let (queries, _) = SynthSpec::dense("micro-queries", 64, 256, seed)
        .generate()
        .expect("synthetic generation");
    let feed = ServeFeed::new();
    feed.publish(PublishedModel {
        bcast,
        objective: Objective::LeastSquares { lambda: 0.0 },
        dim: 256,
    });
    let server = Server::connect(&feed, ServeCfg::default()).expect("model is published");
    let mut predictor = server.predictor();
    let query_rows: Vec<u32> = (0..64).collect();
    let mut scores = Vec::new();
    let ns = effort.ns_per_call(|| {
        predictor.predict_rows_into(queries.features(), black_box(&query_rows), &mut scores);
    });
    out.push(("serve.predict_ns_per_row", ns / 64.0));
    let ns = effort.ns_per_call(|| {
        black_box(predictor.refresh());
    });
    out.push(("serve.refresh_us", ns / 1e3));

    out
}

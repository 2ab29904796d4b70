//! Wire routines for running the solvers on the multi-process
//! [`RemoteEngine`](sparklet::RemoteEngine).
//!
//! A remote worker cannot execute task closures, so each solver's gradient
//! task has a *wire form*: a [`RemoteRoutine`] whose `build` runs
//! driver-side at submission (against the worker's cache mirror — the same
//! instant the simulator runs closures, so model-version resolution and
//! byte accounting agree with the deterministic oracle) and whose routine
//! handler decodes the request and calls, inside the worker process, the
//! same task body the in-process closure calls — this module holds codecs,
//! no solver arithmetic. Two routines cover all three solvers:
//!
//! * [`ROUTINE_GRAD`] — the mini-batch gradient wave shared by ASGD and
//!   momentum SGD (`server_loop::grad_task`). The request ships only the
//!   objective, the batch draw's seed/version/fraction, and a [`WirePlan`]
//!   for the current model; the worker re-derives the batch from the pure
//!   sampling RNG.
//! * [`ROUTINE_ASAGA`] — the SAGA telescoping-difference wave
//!   (`asaga::saga_difference`). Batch rows and their per-sample historical
//!   versions **must** be resolved driver-side (the server attaches version
//!   IDs at submission), so the request carries the sampled rows, their
//!   versions, and one plan per distinct version.
//!
//! Each partition's data block crosses the wire **once per worker
//! incarnation**: the driver mirrors which blocks a worker holds under a
//! reserved cache namespace ([`BLOCKS_NS`]) and attaches the block only to
//! the first task that needs it; a revived worker gets a fresh mirror and
//! is re-shipped automatically. Shipped blocks are deliberately *not*
//! charged to the task's modelled bytes — the in-process engines
//! materialize partitions without charging either, and the sim-vs-remote
//! accounting contract is "identical bytes", not "more honest bytes".
//!
//! A request is outside input even when every byte of it decodes: a plan
//! the worker's cache cannot honour, or a model that does not fit its
//! block, is a `DecodeError` (a clean disconnect), not a kernel assert.
//!
//! [`worker_registry`] assembles the handler table; the `async_worker`
//! binary is `worker_main(worker_registry())`.

use std::sync::{Arc, Mutex};

use async_core::{RemoteRoutine, WirePlan};
use async_data::Block;
use async_linalg::{
    index_codec, CompressedDelta, CsrMatrix, DenseMatrix, EfState, GradDelta, Matrix, Quant,
    Reader, SparseVec,
};
use bytes::{BufMut, BytesMut};
use sparklet::payload::encode_sparse;
use sparklet::{DecodeError, Payload, RoutineRegistry, WorkerCtx};

use crate::asaga::{saga_difference, sample_batch};
use crate::compression::CompressCfg;
use crate::objective::Objective;
use crate::scratch::ScratchPool;
use crate::server_loop::{grad_task, BatchSpec, GradMsg, WaveEnv};

/// Routine id of the ASGD/MSGD mini-batch gradient task.
pub const ROUTINE_GRAD: u32 = 1;

/// Routine id of the ASAGA telescoping-difference task.
pub const ROUTINE_ASAGA: u32 = 2;

/// Reserved worker-cache namespace for shipped data blocks, keyed
/// `(BLOCKS_NS, partition)`. History broadcasts allocate ids from 0
/// upward, so the top of the id space cannot collide.
pub const BLOCKS_NS: u64 = u64::MAX - 1;

/// Reserved worker-cache namespace for per-partition error-feedback
/// compressor state, keyed `(EF_NS, partition)` — the worker-process twin
/// of the driver's [`crate::CompressorBank`]. Lives (and dies) with the
/// worker incarnation, exactly like its shipped blocks.
pub const EF_NS: u64 = u64::MAX - 2;

/// Sampled block-local rows: a count, then the index block of the (sorted,
/// distinct) row list.
fn put_rows(buf: &mut BytesMut, rows: &[u32]) {
    buf.put_u64_le(rows.len() as u64);
    index_codec::encode(rows, |b| buf.put_slice(b));
}

/// Reads the rows [`put_rows`] wrote; every row is below `block_rows`.
fn get_rows(r: &mut Reader, block_rows: usize) -> Result<Vec<u32>, DecodeError> {
    let n = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
    r.indices(n, block_rows)
}

fn put_u64s(buf: &mut BytesMut, vals: &[u64]) {
    buf.put_u64_le(vals.len() as u64);
    for &v in vals {
        buf.put_u64_le(v);
    }
}

fn get_u64s(r: &mut Reader) -> Result<Vec<u64>, DecodeError> {
    let n64 = r.u64()?;
    let n = r.count(n64, 8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64()?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Objective / block / plan codecs
// ---------------------------------------------------------------------------

fn encode_objective(o: &Objective, buf: &mut BytesMut) {
    match o {
        Objective::LeastSquares { lambda } => {
            buf.put_u8(0);
            buf.put_f64_le(*lambda);
        }
        Objective::Logistic { lambda } => {
            buf.put_u8(1);
            buf.put_f64_le(*lambda);
        }
    }
}

fn decode_objective(r: &mut Reader) -> Result<Objective, DecodeError> {
    let at = r.at();
    let kind = r.u8()?;
    let lambda = r.f64()?;
    match kind {
        0 => Ok(Objective::LeastSquares { lambda }),
        1 => Ok(Objective::Logistic { lambda }),
        tag => Err(DecodeError::BadTag { at, tag }),
    }
}

fn quant_byte(q: Quant) -> u8 {
    match q {
        Quant::Exact => 0,
        Quant::I8 => 1,
    }
}

fn decode_quant(r: &mut Reader) -> Result<Quant, DecodeError> {
    let at = r.at();
    match r.u8()? {
        0 => Ok(Quant::Exact),
        1 => Ok(Quant::I8),
        tag => Err(DecodeError::BadTag { at, tag }),
    }
}

fn encode_compress(c: &CompressCfg, buf: &mut BytesMut) {
    match c {
        CompressCfg::Off => buf.put_u8(0),
        CompressCfg::TopK { k, quant } => {
            buf.put_u8(1);
            buf.put_u64_le(*k as u64);
            buf.put_u8(quant_byte(*quant));
        }
    }
}

fn decode_compress(r: &mut Reader) -> Result<CompressCfg, DecodeError> {
    let at = r.at();
    match r.u8()? {
        0 => Ok(CompressCfg::Off),
        1 => {
            let k = r.u64()? as usize;
            let quant = decode_quant(r)?;
            if k == 0 {
                return Err(DecodeError::Invalid {
                    at,
                    what: "top-k compression with k = 0",
                });
            }
            Ok(CompressCfg::TopK { k, quant })
        }
        tag => Err(DecodeError::BadTag { at, tag }),
    }
}

/// Encodes a block for its once-per-incarnation shipment: geometry header,
/// feature storage (dense: a counted slab of the stored `f32`s; CSR: one
/// `SparseVec` wire shape per row, values widened to `f64`), labels.
fn encode_block(b: &Block, buf: &mut BytesMut) {
    buf.put_u64_le(b.row_offset() as u64);
    buf.put_u64_le(b.total_rows() as u64);
    buf.put_u64_le(b.part_id() as u64);
    match b.features() {
        Matrix::Dense(d) => {
            buf.put_u8(0);
            buf.put_u64_le(d.nrows() as u64);
            buf.put_u64_le(d.ncols() as u64);
            buf.put_u64_le(d.as_flat().len() as u64);
            for &v in d.as_flat() {
                buf.put_u32_le(v.to_bits());
            }
        }
        Matrix::Sparse(csr) => {
            buf.put_u8(1);
            buf.put_u64_le(csr.nrows() as u64);
            buf.put_u64_le(csr.ncols() as u64);
            let mut wide = Vec::new();
            for i in 0..csr.nrows() {
                // The `SparseVec` wire shape, written from the CSR row
                // without materializing a vector.
                let (idx, val) = csr.row(i);
                wide.clear();
                wide.extend(val.iter().map(|&v| f64::from(v)));
                encode_sparse(buf, idx, &wide, csr.ncols());
            }
        }
    }
    b.labels().encode(buf);
}

fn decode_block(r: &mut Reader) -> Result<Block, DecodeError> {
    let row_offset = r.u64()? as usize;
    let total_rows = r.u64()? as usize;
    let part_id = r.u64()? as usize;
    let at_kind = r.at();
    let kind = r.u8()?;
    let nrows64 = r.u64()?;
    let ncols = r.u64()? as usize;
    let features = match kind {
        0 => {
            let at = r.at();
            let expect = (nrows64 as usize)
                .checked_mul(ncols)
                .ok_or(DecodeError::LengthOverflow { at, len: nrows64 })?;
            if r.u64()? != expect as u64 {
                return Err(DecodeError::Invalid {
                    at,
                    what: "dense block storage does not match its shape",
                });
            }
            let flat = r.f32s(expect)?;
            let d = DenseMatrix::from_flat(flat, nrows64 as usize, ncols).map_err(|_| {
                DecodeError::Invalid {
                    at,
                    what: "dense block shape rejected",
                }
            })?;
            Matrix::Dense(d)
        }
        1 => {
            // Every encoded row carries at least its 16-byte header.
            let nrows = r.count(nrows64, 16)?;
            let at = r.at();
            // Rows go into the three CSR buffers as they are read: the only
            // transient is the row in hand. An entry takes at least 9 bytes
            // (index varint + value), so the input bounds the long buffers.
            // A value must narrow to the stored `f32` exactly: the encoder
            // widened it from one.
            let mut indptr = Vec::with_capacity(nrows + 1);
            let mut indices = Vec::with_capacity((r.rest().len() - 16 * nrows) / 9);
            let mut data = Vec::with_capacity(indices.capacity());
            indptr.push(0);
            for _ in 0..nrows {
                let at_row = r.at();
                let row = SparseVec::read(r)?;
                if row.dim() != ncols {
                    return Err(DecodeError::Invalid {
                        at: at_row,
                        what: "sparse block row of another dimension",
                    });
                }
                for &v in row.values() {
                    let x = v as f32;
                    if f64::from(x).to_bits() != v.to_bits() {
                        return Err(DecodeError::Invalid {
                            at: at_row,
                            what: "sparse block value that is not an f32",
                        });
                    }
                    data.push(x);
                }
                indices.extend_from_slice(row.indices());
                indptr.push(indices.len());
            }
            let csr = CsrMatrix::new(indptr, indices, data, nrows, ncols).map_err(|_| {
                DecodeError::Invalid {
                    at,
                    what: "sparse block rows rejected",
                }
            })?;
            Matrix::Sparse(csr)
        }
        tag => return Err(DecodeError::BadTag { at: at_kind, tag }),
    };
    let at = r.at();
    let labels = Vec::<f64>::read(r)?;
    let row_end = row_offset.checked_add(features.nrows());
    if labels.len() != features.nrows() || row_end.is_none_or(|end| end > total_rows) {
        return Err(DecodeError::Invalid {
            at,
            what: "block labels or row range inconsistent with its features",
        });
    }
    Ok(Block::from_parts(
        features, labels, row_offset, total_rows, part_id,
    ))
}

fn encode_plan(p: &WirePlan, buf: &mut BytesMut) {
    match p {
        WirePlan::Cached {
            version,
            evict_below,
        } => {
            buf.put_u8(0);
            buf.put_u64_le(*version);
            buf.put_u64_le(*evict_below);
        }
        WirePlan::Snapshot {
            version,
            values,
            evict_below,
        } => {
            buf.put_u8(1);
            buf.put_u64_le(*version);
            buf.put_u64_le(*evict_below);
            values.encode(buf);
        }
        WirePlan::Patch {
            base,
            version,
            patch,
            evict_below,
        } => {
            buf.put_u8(2);
            buf.put_u64_le(*base);
            buf.put_u64_le(*version);
            buf.put_u64_le(*evict_below);
            patch.encode(buf);
        }
        WirePlan::QPatch {
            base,
            version,
            delta,
            evict_below,
        } => {
            buf.put_u8(3);
            buf.put_u64_le(*base);
            buf.put_u64_le(*version);
            buf.put_u64_le(*evict_below);
            delta.encode(buf);
        }
    }
}

fn decode_plan(r: &mut Reader) -> Result<WirePlan, DecodeError> {
    let at = r.at();
    let kind = r.u8()?;
    match kind {
        0 => Ok(WirePlan::Cached {
            version: r.u64()?,
            evict_below: r.u64()?,
        }),
        1 => {
            let version = r.u64()?;
            let evict_below = r.u64()?;
            let values = Vec::<f64>::read(r)?;
            Ok(WirePlan::Snapshot {
                version,
                values: Arc::new(values),
                evict_below,
            })
        }
        2 => Ok(WirePlan::Patch {
            base: r.u64()?,
            version: r.u64()?,
            evict_below: r.u64()?,
            patch: SparseVec::read(r)?,
        }),
        3 => {
            let base = r.u64()?;
            let version = r.u64()?;
            let evict_below = r.u64()?;
            let at_delta = r.at();
            let delta = CompressedDelta::read(r)?;
            if matches!(delta, CompressedDelta::Exact(_)) {
                return Err(DecodeError::Invalid {
                    at: at_delta,
                    what: "quantized patch with an exact frame (use tag 2)",
                });
            }
            Ok(WirePlan::QPatch {
                base,
                version,
                delta,
                evict_below,
            })
        }
        tag => Err(DecodeError::BadTag { at, tag }),
    }
}

/// Worker-side: decodes the next plan and replays it against the worker's
/// cache, returning the version and model it materialized. Every model a
/// handler computes with enters here, so this is where a plan the cache
/// cannot honour, or a model of another width than `block`, is refused —
/// the kernels behind it assert on both.
fn resolve_model(
    ctx: &mut WorkerCtx,
    r: &mut Reader,
    bcast_id: u64,
    block: &Block,
) -> Result<(u64, Arc<Vec<f64>>), DecodeError> {
    let at = r.at();
    let plan = decode_plan(r)?;
    let version = plan.version();
    let w = plan
        .apply(ctx, bcast_id)
        .map_err(|what| DecodeError::Invalid { at, what })?;
    if w.len() != block.cols() {
        return Err(DecodeError::Invalid {
            at,
            what: "resolved model does not fit the block's columns",
        });
    }
    Ok((version, w))
}

// ---------------------------------------------------------------------------
// Block shipping (driver mirror + worker cache)
// ---------------------------------------------------------------------------

/// Driver-side: decides whether `part`'s block must travel with this task
/// (first task to `mirror`'s incarnation touching the partition) and
/// records the shipment in the mirror. Never charges bytes — see the
/// module docs.
fn ship_block_if_new(mirror: &mut WorkerCtx, part: usize, block: &Block, buf: &mut BytesMut) {
    let key = (BLOCKS_NS, part as u64);
    if mirror.cache_get(key).is_some() {
        buf.put_u8(0);
    } else {
        mirror.cache_put_local(key, Arc::new(()));
        buf.put_u8(1);
        encode_block(block, buf);
    }
}

/// Worker-side: materializes `part`'s block from the request (caching it)
/// or from the local cache of a previous task.
fn resolve_block(
    ctx: &mut WorkerCtx,
    part: usize,
    r: &mut Reader,
) -> Result<Arc<Block>, DecodeError> {
    let key = (BLOCKS_NS, part as u64);
    let at = r.at();
    if r.u8()? == 1 {
        let block = Arc::new(decode_block(r)?);
        ctx.cache_put_local(key, block.clone());
        return Ok(block);
    }
    let cached = ctx.cache_get(key).ok_or(DecodeError::Invalid {
        at,
        what: "task expects its block cached, but this incarnation never received it",
    })?;
    cached
        .downcast::<Block>()
        .map_err(|_| DecodeError::Invalid {
            at,
            what: "block cache entry has the wrong type",
        })
}

// ---------------------------------------------------------------------------
// Worker-side error-feedback state
// ---------------------------------------------------------------------------

/// Worker-side: the partition's error-feedback compressor, materialized on
/// first use and cached under [`EF_NS`] for the rest of the incarnation. A
/// revived worker starts with a zero residual — exactly like it starts
/// without its blocks — which perturbs *which* coordinates ship, never the
/// correctness of what the server applies.
fn worker_ef(ctx: &mut WorkerCtx, part: usize, dim: usize) -> Arc<Mutex<EfState>> {
    let key = (EF_NS, part as u64);
    if let Some(cached) = ctx.cache_get(key) {
        if let Ok(ef) = cached.downcast::<Mutex<EfState>>() {
            return ef;
        }
    }
    let ef = Arc::new(Mutex::new(EfState::new(dim)));
    ctx.cache_put_local(key, ef.clone());
    ef
}

/// Worker-side: compresses a computed delta per the request's
/// [`CompressCfg`] and encodes the response's delta section — the plain
/// [`GradDelta`] bytes when compression is off (bit-identical to builds
/// predating compression), a [`CompressedDelta`] frame otherwise.
///
/// A delta carrying a non-finite coordinate is rejected by
/// [`EfState::try_compress`] before it can poison the incarnation's
/// residual; the response then ships the raw delta as an
/// [`CompressedDelta::Exact`] frame (cold path: one clone) so the server
/// still sees exactly what the task computed.
fn encode_response_delta(
    ctx: &mut WorkerCtx,
    part: usize,
    g: &GradDelta,
    compress: CompressCfg,
    buf: &mut BytesMut,
) {
    match compress {
        CompressCfg::Off => g.encode(buf),
        CompressCfg::TopK { k, quant } => {
            let ef = worker_ef(ctx, part, g.dim());
            let mut ef = ef.lock().expect("worker ef state poisoned");
            if ef.try_compress(g, k, quant).is_err() {
                CompressedDelta::Exact(g.clone()).encode(buf);
            } else {
                ef.to_compressed().encode(buf);
            }
        }
    }
}

/// Driver-side: decodes a response's delta section per the submission's
/// [`CompressCfg`], returning the delta the server applies plus its
/// modeled wire bytes.
fn decode_response_delta(
    r: &mut Reader,
    compress: CompressCfg,
) -> Result<(GradDelta, u64), DecodeError> {
    if compress.is_off() {
        let g = GradDelta::read(r)?;
        let wire = g.encoded_len();
        Ok((g, wire))
    } else {
        let cd = CompressedDelta::read(r)?;
        let wire = cd.encoded_len();
        Ok((cd.into_delta_buffers(Vec::new(), Vec::new()), wire))
    }
}

// ---------------------------------------------------------------------------
// Routine: mini-batch gradient (ASGD / MSGD)
// ---------------------------------------------------------------------------

/// The wire form of one `submit_grad_wave` submission. `build` resolves
/// the model through [`async_core::HistoryHandle::wire_plan`] — the
/// closure's `value_incremental`, run against the mirror — and ships the
/// batch draw; the worker re-derives the identical batch.
pub(crate) fn grad_routine(env: &WaveEnv<'_>, objective: Objective, version: u64) -> RemoteRoutine {
    let (rdd, bcast) = (env.rdd.clone(), env.bcast);
    let (batch, compress) = (env.batch(version), env.cfg.compress);
    let handle = bcast.handle();
    let bcast_id = bcast.id();
    RemoteRoutine {
        routine: ROUTINE_GRAD,
        build: Arc::new(move |mirror: &mut WorkerCtx, part: usize| {
            let data = rdd.compute(part);
            let block = &data[0];
            // Model first, exactly like the closure: the plan's charges
            // are the bytes `value_incremental` charges.
            let plan = handle.wire_plan(mirror);
            let mut buf = BytesMut::new();
            encode_objective(&objective, &mut buf);
            buf.put_u64_le(batch.seed);
            buf.put_u64_le(batch.version);
            buf.put_u64_le(bcast_id);
            buf.put_f64_le(batch.fraction);
            encode_compress(&compress, &mut buf);
            buf.put_u64_le(part as u64);
            ship_block_if_new(mirror, part, block, &mut buf);
            encode_plan(&plan, &mut buf);
            buf.into_vec()
        }),
        decode: Arc::new(move |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            let (g, wire_bytes) = decode_response_delta(&mut r, compress)?;
            let entries = r.u64()?;
            Ok(Box::new(GradMsg {
                g,
                indices: Vec::new(),
                entries,
                wire_bytes,
            }))
        }),
    }
}

fn grad_handler(
    pool: &ScratchPool,
    ctx: &mut WorkerCtx,
    request: &[u8],
) -> Result<Vec<u8>, DecodeError> {
    let mut r = Reader::new(request);
    let objective = decode_objective(&mut r)?;
    let seed = r.u64()?;
    let version = r.u64()?;
    let bcast_id = r.u64()?;
    let fraction = r.f64()?;
    let compress = decode_compress(&mut r)?;
    let part = r.u64()? as usize;
    let block = resolve_block(ctx, part, &mut r)?;
    let (_, w) = resolve_model(ctx, &mut r, bcast_id, &block)?;
    let batch = BatchSpec {
        seed,
        version,
        fraction,
    };
    let (g, entries) = grad_task(objective, &block, &w, batch, part, pool);
    let mut buf = BytesMut::new();
    encode_response_delta(ctx, part, &g, compress, &mut buf);
    pool.recycle_delta(g);
    buf.put_u64_le(entries);
    Ok(buf.into_vec())
}

// ---------------------------------------------------------------------------
// Routine: ASAGA telescoping difference
// ---------------------------------------------------------------------------

/// The wire form of one ASAGA submission. Sampling and per-row version
/// lookup happen **driver-side in `build`** — the version table must be
/// read at the submission instant (the sim's semantics; the whole reason
/// ASAGA is specified against `SimEngine`) — and the request ships the
/// rows, their versions, and one [`WirePlan`] per distinct version in
/// first-need order. `rows` is the dataset's row count: a response naming
/// a row id outside it is refused.
pub(crate) fn asaga_routine(
    env: &WaveEnv<'_>,
    objective: Objective,
    version: u64,
    rows: usize,
) -> RemoteRoutine {
    let (rdd, bcast) = (env.rdd.clone(), env.bcast);
    let (batch, compress) = (env.batch(version), env.cfg.compress);
    let handle = bcast.handle();
    let server_table = bcast.clone();
    let bcast_id = bcast.id();
    let pool = env.pool.clone();
    RemoteRoutine {
        routine: ROUTINE_ASAGA,
        build: Arc::new(move |mirror: &mut WorkerCtx, part: usize| {
            let data = rdd.compute(part);
            let block = &data[0];
            // Same mirror sequence as the closure: current model, then one
            // plan per distinct row version in first-need order — the
            // resolves `saga_difference` asks for.
            let w_plan = handle.wire_plan_at(mirror, handle.version());
            let mut scratch = pool.checkout();
            sample_batch(batch, block, part, &server_table, &mut scratch);
            scratch.group_versions();
            let mut buf = BytesMut::new();
            encode_objective(&objective, &mut buf);
            buf.put_u64_le(bcast_id);
            encode_compress(&compress, &mut buf);
            buf.put_u64_le(part as u64);
            ship_block_if_new(mirror, part, block, &mut buf);
            encode_plan(&w_plan, &mut buf);
            put_rows(&mut buf, &scratch.rows);
            put_u64s(&mut buf, &scratch.versions);
            buf.put_u64_le(scratch.distinct.len() as u64);
            for &v in &scratch.distinct {
                encode_plan(&handle.wire_plan_at(mirror, v), &mut buf);
            }
            pool.give_back(scratch);
            buf.into_vec()
        }),
        decode: Arc::new(move |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            let (g, wire_bytes) = decode_response_delta(&mut r, compress)?;
            let at = r.at();
            let indices = get_u64s(&mut r)?;
            // The ids index the driver's version table: one outside the
            // dataset is refused, never recorded.
            if indices.iter().any(|&j| j >= rows as u64) {
                let what = "row id outside the dataset";
                return Err(DecodeError::Invalid { at, what });
            }
            let entries = r.u64()?;
            Ok(Box::new(GradMsg {
                g,
                indices,
                entries,
                wire_bytes,
            }))
        }),
    }
}

fn asaga_handler(
    pool: &ScratchPool,
    ctx: &mut WorkerCtx,
    request: &[u8],
) -> Result<Vec<u8>, DecodeError> {
    let mut r = Reader::new(request);
    let objective = decode_objective(&mut r)?;
    let bcast_id = r.u64()?;
    let compress = decode_compress(&mut r)?;
    let part = r.u64()? as usize;
    let block = resolve_block(ctx, part, &mut r)?;
    let (_, w_cur) = resolve_model(ctx, &mut r, bcast_id, &block)?;
    let rows = get_rows(&mut r, block.rows())?;
    let row_versions = get_u64s(&mut r)?;
    if row_versions.len() != rows.len() {
        return Err(DecodeError::Invalid {
            at: r.at(),
            what: "row versions not parallel to sampled rows",
        });
    }
    let nplans64 = r.u64()?;
    // A plan encoding is at least a tag byte and two u64s.
    let mut plans_left = r.count(nplans64, 17)?;
    let mut scratch = pool.checkout();
    scratch.rows = rows;
    scratch.versions = row_versions;
    // The plans follow in the order `saga_difference` resolves versions:
    // one per distinct row version, first need first.
    let resolve = |version: u64| {
        let at = r.at();
        let invalid = |what| DecodeError::Invalid { at, what };
        if plans_left == 0 {
            return Err(invalid("row version has no shipped plan"));
        }
        plans_left -= 1;
        let (shipped, w) = resolve_model(ctx, &mut r, bcast_id, &block)?;
        if shipped != version {
            return Err(invalid("history plan out of first-need order"));
        }
        Ok(w)
    };
    let (delta, entries) = saga_difference(objective, &block, &w_cur, &mut scratch, pool, resolve)?;
    if plans_left != 0 {
        let what = "more history plans than distinct row versions";
        return Err(DecodeError::Invalid { at: r.at(), what });
    }
    let mut buf = BytesMut::new();
    encode_response_delta(ctx, part, &delta, compress, &mut buf);
    pool.recycle_delta(delta);
    put_u64s(&mut buf, &scratch.ids);
    buf.put_u64_le(entries);
    pool.give_back(scratch);
    Ok(buf.into_vec())
}

/// The routine table a worker process serves: everything this crate's
/// solvers submit. The `async_worker` binary is
/// `sparklet::remote::worker_main(worker_registry())`. A registry serves one
/// worker incarnation, and so does the buffer pool its handlers share (a
/// response delta goes back to it once encoded).
pub fn worker_registry() -> RoutineRegistry {
    let mut reg = RoutineRegistry::new();
    let pool = ScratchPool::new();
    let grad_pool = pool.clone();
    reg.register(ROUTINE_GRAD, move |ctx, req| {
        grad_handler(&grad_pool, ctx, req)
    });
    reg.register(ROUTINE_ASAGA, move |ctx, req| {
        asaga_handler(&pool, ctx, req)
    });
    reg
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use async_data::SynthSpec;

    fn blocks(dense: bool) -> Vec<Block> {
        let (d, _) = if dense {
            SynthSpec::dense("wire-d", 24, 6, 5).generate().unwrap()
        } else {
            SynthSpec::sparse("wire-s", 24, 40, 4, 5)
                .generate()
                .unwrap()
        };
        d.partition(3)
    }

    fn roundtrip_block(b: &Block) -> Block {
        let mut buf = BytesMut::new();
        encode_block(b, &mut buf);
        let bytes = buf.into_vec();
        let mut r = Reader::new(&bytes);
        let back = decode_block(&mut r).expect("decodes");
        assert_eq!(r.at(), bytes.len(), "block decode consumed everything");
        back
    }

    #[test]
    fn blocks_roundtrip_bit_exactly() {
        // `blocks` are row windows over one dataset's storage. A window
        // ships its own rows and none of its neighbours': each encoded
        // length is what the copied block of the same rows used to take.
        // A dense block's 8×6 values ship as 4-byte `f32`s (505 bytes as
        // `f64`, less 4·48); a CSR row keeps the `SparseVec` wire shape.
        for (dense, lens) in [(true, [313, 313, 313]), (false, [493, 484, 538])] {
            for (b, len) in blocks(dense).into_iter().zip(lens) {
                let mut buf = BytesMut::new();
                encode_block(&b, &mut buf);
                assert_eq!(buf.into_vec().len(), len, "part {}", b.part_id());
                let back = roundtrip_block(&b);
                assert_eq!(back.rows(), b.rows());
                assert_eq!(back.cols(), b.cols());
                assert_eq!(back.part_id(), b.part_id());
                assert_eq!(back.total_rows(), b.total_rows());
                assert_eq!(back.labels(), b.labels());
                let w: Vec<f64> = (0..b.cols()).map(|i| 0.1 * (i as f64 + 1.0)).collect();
                for i in 0..b.rows() {
                    assert_eq!(back.global_row(i), b.global_row(i));
                    assert_eq!(
                        back.features().row_dot(i, &w).to_bits(),
                        b.features().row_dot(i, &w).to_bits()
                    );
                }
                // The decoded block owns its storage and is the same block.
                assert_eq!(back.features(), b.features());
                assert_eq!(roundtrip_block(&back).features(), b.features());
            }
        }
    }

    #[test]
    fn truncated_blocks_report_positions() {
        for dense in [false, true] {
            let b = &blocks(dense)[0];
            let mut buf = BytesMut::new();
            encode_block(b, &mut buf);
            let bytes = buf.into_vec();
            // Every prefix: inside the header, a row's index block, a value
            // slab, the labels.
            for cut in 0..bytes.len() {
                let mut r = Reader::new(&bytes[..cut]);
                let err = decode_block(&mut r).expect_err("truncation must fail");
                assert!(err.at() <= cut, "error at {} past cut {cut}", err.at());
            }
        }
    }

    #[test]
    fn plans_roundtrip() {
        let plans = vec![
            WirePlan::Cached {
                version: 7,
                evict_below: 3,
            },
            WirePlan::Snapshot {
                version: 9,
                values: Arc::new(vec![1.0, -2.5, 3.25]),
                evict_below: 9,
            },
            WirePlan::Patch {
                base: 4,
                version: 6,
                patch: SparseVec::new(vec![0, 3, 17], vec![0.5, -0.25, 8.0], 20).unwrap(),
                evict_below: 4,
            },
        ];
        for p in &plans {
            let mut buf = BytesMut::new();
            encode_plan(p, &mut buf);
            let bytes = buf.into_vec();
            let mut r = Reader::new(&bytes);
            assert_eq!(&decode_plan(&mut r).expect("decodes"), p);
            assert_eq!(r.at(), bytes.len());
        }
    }

    #[test]
    fn hostile_counts_cannot_size_allocations() {
        // A row list claiming u64::MAX entries with 4 bytes of body.
        let mut buf = BytesMut::new();
        buf.put_u64_le(u64::MAX);
        buf.put_u32_le(1);
        let bytes = buf.into_vec();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            get_rows(&mut r, 100),
            Err(DecodeError::Truncated { at: 12, .. })
        ));
        // Same for the u64 list behind it.
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            get_u64s(&mut r),
            Err(DecodeError::LengthOverflow { .. })
        ));
        // Rows round-trip, and a row past the block is refused.
        let mut buf = BytesMut::new();
        put_rows(&mut buf, &[0, 3, 200, 201]);
        let bytes = buf.into_vec();
        assert_eq!(
            get_rows(&mut Reader::new(&bytes), 202).unwrap(),
            vec![0, 3, 200, 201]
        );
        assert!(matches!(
            get_rows(&mut Reader::new(&bytes), 201),
            Err(DecodeError::Invalid { .. })
        ));
    }

    #[test]
    fn objective_codec_is_lossless() {
        for o in [
            Objective::LeastSquares { lambda: 1e-3 },
            Objective::Logistic { lambda: 0.0 },
        ] {
            let mut buf = BytesMut::new();
            encode_objective(&o, &mut buf);
            let bytes = buf.into_vec();
            let mut r = Reader::new(&bytes);
            assert_eq!(decode_objective(&mut r).unwrap(), o);
        }
    }

    #[test]
    fn block_ships_once_per_incarnation() {
        let b = &blocks(true)[0];
        let mut mirror = WorkerCtx::new(0);
        let mut first = BytesMut::new();
        ship_block_if_new(&mut mirror, 0, b, &mut first);
        let mut second = BytesMut::new();
        ship_block_if_new(&mut mirror, 0, b, &mut second);
        assert!(first.len() > 1, "first task carries the block");
        assert_eq!(second.into_vec(), vec![0], "second task ships nothing");
        // The worker side accepts both forms against its own cache.
        let mut ctx = WorkerCtx::new(0);
        let first = first.into_vec();
        let got = resolve_block(&mut ctx, 0, &mut Reader::new(&first)).unwrap();
        assert_eq!(got.rows(), b.rows());
        let cached = resolve_block(&mut ctx, 0, &mut Reader::new(&[0])).unwrap();
        assert_eq!(cached.rows(), b.rows());
        // A fresh incarnation without the shipment is a protocol error.
        let mut fresh = WorkerCtx::new(1);
        assert!(resolve_block(&mut fresh, 0, &mut Reader::new(&[0])).is_err());
    }

    fn qpatches() -> Vec<WirePlan> {
        vec![
            WirePlan::QPatch {
                base: 11,
                version: 13,
                delta: CompressedDelta::I8 {
                    dim: 64,
                    scale: 3.5,
                    indices: vec![2, 9, 40],
                    codes: vec![-127, 0, 64],
                },
                evict_below: 11,
            },
            WirePlan::QPatch {
                base: 5,
                version: 6,
                delta: CompressedDelta::I8 {
                    dim: 2,
                    scale: 0.0,
                    indices: vec![0, 1],
                    codes: vec![127, -127],
                },
                evict_below: 2,
            },
        ]
    }

    #[test]
    fn quantized_patch_plans_roundtrip() {
        for p in &qpatches() {
            let mut buf = BytesMut::new();
            encode_plan(p, &mut buf);
            let bytes = buf.into_vec();
            let mut r = Reader::new(&bytes);
            assert_eq!(&decode_plan(&mut r).expect("decodes"), p);
            assert_eq!(r.at(), bytes.len(), "plan decode consumed everything");
        }
    }

    #[test]
    fn patch_sections_encode_to_their_modeled_bytes() {
        // A plan is `tag | base | version | evict_below | section`; the
        // section is the payload the simulator charges for, so the bytes
        // on the socket past the 25-byte plan header equal the modeled
        // charge (`WirePlan::apply` bills `encoded_len` of the same value).
        let exact = WirePlan::Patch {
            base: 4,
            version: 6,
            patch: SparseVec::new(vec![0, 3, 400, 70_000], vec![0.5; 4], 70_001).unwrap(),
            evict_below: 4,
        };
        for p in qpatches().iter().chain([&exact]) {
            let modeled = match p {
                WirePlan::Patch { patch, .. } => patch.encoded_len(),
                WirePlan::QPatch { delta, .. } => delta.encoded_len(),
                _ => unreachable!(),
            };
            let mut buf = BytesMut::new();
            encode_plan(p, &mut buf);
            assert_eq!(buf.len() as u64 - 25, modeled, "{p:?}");
        }
    }

    #[test]
    fn hostile_quantized_patches_are_rejected_with_positions() {
        // A well-formed frame truncated at every prefix fails with an
        // error positioned at or before the cut.
        for p in &qpatches() {
            let mut buf = BytesMut::new();
            encode_plan(p, &mut buf);
            let bytes = buf.into_vec();
            for cut in 0..bytes.len() {
                let mut r = Reader::new(&bytes[..cut]);
                let err = decode_plan(&mut r).expect_err("truncation must fail");
                assert!(err.at() <= cut, "error at {} past cut {cut}", err.at());
            }
        }

        let head = |buf: &mut BytesMut| {
            buf.put_u8(3);
            buf.put_u64_le(1);
            buf.put_u64_le(2);
            buf.put_u64_le(0);
        };

        // A non-finite scale is invalid, positioned at the scale field.
        let mut buf = BytesMut::new();
        head(&mut buf);
        buf.put_u8(1);
        buf.put_u64_le(0);
        buf.put_u64_le(4);
        buf.put_f64_le(f64::NAN);
        let bytes = buf.into_vec();
        assert_eq!(
            decode_plan(&mut Reader::new(&bytes)).unwrap_err().at(),
            25 + 1 + 16
        );

        // Tag 3 carrying an exact frame is a protocol contradiction —
        // exact diffs travel as tag-2 plain patches.
        let mut buf = BytesMut::new();
        head(&mut buf);
        CompressedDelta::Exact(GradDelta::Dense(vec![1.0])).encode(&mut buf);
        let bytes = buf.into_vec();
        assert!(matches!(
            decode_plan(&mut Reader::new(&bytes)),
            Err(DecodeError::Invalid { at: 25, .. })
        ));

        // A hostile count cannot size the allocation.
        let mut buf = BytesMut::new();
        head(&mut buf);
        buf.put_u8(1);
        buf.put_u64_le(u64::MAX);
        buf.put_u64_le(4);
        buf.put_f64_le(1.0);
        let bytes = buf.into_vec();
        assert!(decode_plan(&mut Reader::new(&bytes)).is_err());
    }

    /// Broadcast id the handler-level requests below resolve models under.
    const BCAST: u64 = 3;

    /// A `ROUTINE_GRAD` request over `block` (shipped inline as partition
    /// 0) whose model resolves through `plan` under broadcast `bcast_id`.
    fn grad_request(block: &Block, bcast_id: u64, plan: &WirePlan) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode_objective(&Objective::Logistic { lambda: 0.0 }, &mut buf);
        buf.put_u64_le(7); // seed
        buf.put_u64_le(0); // version
        buf.put_u64_le(bcast_id);
        buf.put_f64_le(0.5);
        encode_compress(&CompressCfg::Off, &mut buf);
        buf.put_u64_le(0); // part
        buf.put_u8(1);
        encode_block(block, &mut buf);
        encode_plan(plan, &mut buf);
        buf.into_vec()
    }

    /// A `ROUTINE_ASAGA` request over rows 0 and 1 of `block`, both last
    /// seen at version 0, with `history` as its per-version plans.
    fn asaga_request(block: &Block, w_plan: &WirePlan, history: &[WirePlan]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode_objective(&Objective::Logistic { lambda: 0.0 }, &mut buf);
        buf.put_u64_le(BCAST);
        encode_compress(&CompressCfg::Off, &mut buf);
        buf.put_u64_le(0); // part
        buf.put_u8(1);
        encode_block(block, &mut buf);
        encode_plan(w_plan, &mut buf);
        put_rows(&mut buf, &[0, 1]);
        put_u64s(&mut buf, &[0, 0]);
        buf.put_u64_le(history.len() as u64);
        for p in history {
            encode_plan(p, &mut buf);
        }
        buf.into_vec()
    }

    #[test]
    fn well_formed_requests_the_worker_cannot_honour_are_refused_not_fatal() {
        // Every request below decodes cleanly, byte for byte; what is wrong
        // is what it asks of the worker's cache or of its block. Each used
        // to end in a panic (a `WirePlan::apply` expect, `add_into`'s or
        // `dense::dot`'s length assert) — an abort in a release worker, and
        // on loopback in the driver with it.
        let block = &blocks(true)[0];
        let cols = block.cols();
        let pool = ScratchPool::new();
        let snapshot = |version: u64, len: usize| WirePlan::Snapshot {
            version,
            values: Arc::new(vec![0.25; len]),
            evict_below: 0,
        };
        let cached = |version: u64| WirePlan::Cached {
            version,
            evict_below: 0,
        };
        let patch = |dim: usize| WirePlan::Patch {
            base: 1,
            version: 2,
            patch: SparseVec::new(vec![0], vec![1.0], dim).unwrap(),
            evict_below: 0,
        };
        let qpatch = |dim: usize| WirePlan::QPatch {
            base: 1,
            version: 2,
            delta: CompressedDelta::I8 {
                dim,
                scale: 1.0,
                indices: vec![0],
                codes: vec![5],
            },
            evict_below: 0,
        };
        let fresh = || WorkerCtx::new(0);
        // A worker that served an honest request and so caches version 1,
        // the base the patches name.
        let warm = || {
            let mut ctx = fresh();
            let honest = grad_request(block, BCAST, &snapshot(1, cols));
            grad_handler(&pool, &mut ctx, &honest).expect("an honest request is served");
            ctx
        };
        // Controls: the same builders with honest plans are served.
        let mut ctx = warm();
        let honest = grad_request(block, BCAST, &patch(cols));
        grad_handler(&pool, &mut ctx, &honest).expect("a patch over the cached base");
        let honest = asaga_request(block, &cached(2), &[snapshot(0, cols)]);
        asaga_handler(&pool, &mut ctx, &honest).expect("an honest request is served");
        type Handler = fn(&ScratchPool, &mut WorkerCtx, &[u8]) -> Result<Vec<u8>, DecodeError>;
        let grad = |plan: &WirePlan| (grad_handler as Handler, grad_request(block, BCAST, plan));
        let asaga = |w_plan: &WirePlan, history: &[WirePlan]| {
            (
                asaga_handler as Handler,
                asaga_request(block, w_plan, history),
            )
        };
        let hostile = [
            ("cached miss", fresh(), grad(&cached(999))),
            ("missing patch base", fresh(), grad(&patch(cols))),
            ("missing quantized-patch base", fresh(), grad(&qpatch(cols))),
            ("short snapshot", fresh(), grad(&snapshot(1, 3))),
            ("patch of another dimension", warm(), grad(&patch(cols + 3))),
            (
                "quantized patch of another dimension",
                warm(),
                grad(&qpatch(cols + 3)),
            ),
            (
                // After `resolve_block`, `(BLOCKS_NS, 0)` holds the block.
                "cached entry that is not a model",
                fresh(),
                (
                    grad_handler as Handler,
                    grad_request(block, BLOCKS_NS, &cached(0)),
                ),
            ),
            (
                "asaga: short current model",
                fresh(),
                asaga(&snapshot(1, 3), &[snapshot(0, cols)]),
            ),
            (
                "asaga: historical plan of another dimension",
                fresh(),
                asaga(&snapshot(1, cols), &[snapshot(0, 3)]),
            ),
            (
                "asaga: historical cached miss",
                fresh(),
                asaga(&snapshot(1, cols), &[cached(0)]),
            ),
            (
                "asaga: row version without a plan",
                fresh(),
                asaga(&snapshot(1, cols), &[snapshot(5, cols)]),
            ),
            (
                "asaga: a plan beyond the distinct row versions",
                fresh(),
                asaga(&snapshot(1, cols), &[snapshot(0, cols), snapshot(5, cols)]),
            ),
        ];
        for (name, mut ctx, (handler, request)) in hostile {
            let got = handler(&pool, &mut ctx, &request);
            assert!(
                matches!(got, Err(DecodeError::Invalid { .. })),
                "{name}: {got:?}"
            );
        }

        // A block whose row range overflows `usize` is refused by the
        // checked sum, not wrapped past the `total_rows` bound.
        let mut buf = BytesMut::new();
        encode_block(block, &mut buf);
        let mut bytes = buf.into_vec();
        bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_block(&mut Reader::new(&bytes)),
            Err(DecodeError::Invalid { .. })
        ));

        // A sparse block is checked row by row on its way into CSR storage:
        // a row of another dimension and a row cut short are both refused.
        let sparse_block = |row_dim: usize, cut: usize| {
            let mut buf = BytesMut::new();
            for geometry in [0, 2, 0] {
                buf.put_u64_le(geometry); // row_offset, total_rows, part_id
            }
            buf.put_u8(1);
            buf.put_u64_le(2); // nrows
            buf.put_u64_le(8); // ncols
            encode_sparse(&mut buf, &[1, 5], &[1.0, 2.0], 8);
            encode_sparse(&mut buf, &[0, 7], &[3.0, 4.0], row_dim);
            [0.0, 1.0][..].encode(&mut buf);
            let mut bytes = buf.into_vec();
            bytes.truncate(bytes.len() - cut);
            bytes
        };
        let decode = |bytes: Vec<u8>| decode_block(&mut Reader::new(&bytes));
        assert_eq!(decode(sparse_block(8, 0)).expect("honest").rows(), 2);
        assert!(matches!(
            decode(sparse_block(9, 0)),
            Err(DecodeError::Invalid {
                what: "sparse block row of another dimension",
                ..
            })
        ));
        // The 24 bytes of labels and half the second row's value slab gone.
        assert!(matches!(
            decode(sparse_block(8, 24 + 8)),
            Err(DecodeError::Truncated { .. })
        ));
        // A value no stored `f32` widens to: refused
        // at its row (the header is 41 bytes, the first row 16 + 2 + 16).
        let mut bytes = sparse_block(8, 0);
        let second_row = 41 + 34;
        let value_at = second_row + 16 + 2 + 8;
        bytes[value_at..value_at + 8].copy_from_slice(&0.1f64.to_le_bytes());
        assert!(matches!(
            decode(bytes),
            Err(DecodeError::Invalid {
                at,
                what: "sparse block value that is not an f32",
            }) if at == second_row
        ));

        // A dense block: `nrows | ncols | count`, then 4 bytes per value.
        let dense_block = |nrows: u64, ncols: u64, values: u64| {
            let mut buf = BytesMut::new();
            for geometry in [0, 2, 0] {
                buf.put_u64_le(geometry);
            }
            buf.put_u8(0);
            buf.put_u64_le(nrows);
            buf.put_u64_le(ncols);
            buf.put_u64_le(values);
            for v in 0..values {
                buf.put_u32_le((v as f32).to_bits());
            }
            [0.0, 1.0][..].encode(&mut buf);
            buf.into_vec()
        };
        assert_eq!(decode(dense_block(2, 3, 6)).expect("honest").rows(), 2);
        // A slab one value short of `nrows × ncols`.
        assert!(matches!(
            decode(dense_block(2, 3, 5)),
            Err(DecodeError::Invalid {
                at: 41,
                what: "dense block storage does not match its shape",
            })
        ));
        // A shape whose product overflows; nothing is sized from it.
        assert!(matches!(
            decode(dense_block(u64::MAX / 2, 3, 0)),
            Err(DecodeError::LengthOverflow { at: 41, .. })
        ));
    }

    /// The routine of an ASAGA submission at version 3 over a dense 40×6
    /// dataset in two partitions whose rows last saw the base and three
    /// later versions (row `j` at version `j % 4`), and its buffer pool.
    fn asaga_fixture() -> (RemoteRoutine, ScratchPool) {
        use crate::solver::{block_rdd, SolverCfg};
        use crate::CompressorBank;
        use async_cluster::{ClusterSpec, CommModel, DelayModel};
        use async_core::{AsyncBcast, AsyncContext};

        let ctx = AsyncContext::sim(
            ClusterSpec::homogeneous(2, DelayModel::None).with_comm(CommModel::free()),
        );
        let (d, _) = SynthSpec::dense("wire-asaga", 40, 6, 5).generate().unwrap();
        let cfg = SolverCfg {
            batch_fraction: 0.5,
            seed: 11,
            ..SolverCfg::default()
        };
        let (_, rdd) = block_rdd(&ctx, &d, &cfg);
        let bcast = AsyncBcast::new(0, vec![0.0; 6], 40);
        for v in 1..=3u64 {
            bcast.push(vec![0.1 * v as f64; 6]);
            let ids: Vec<u64> = (0..40).filter(|j| j % 4 == v).collect();
            bcast.record_use(&ids, v);
        }
        let (pool, bank) = (ScratchPool::new(), CompressorBank::new());
        let env = WaveEnv {
            rdd: &rdd,
            bcast: &bcast,
            cfg: &cfg,
            minibatch_hint: 10,
            pool: &pool,
            bank: &bank,
        };
        let routine = asaga_routine(&env, Objective::LeastSquares { lambda: 1e-3 }, 3, 40);
        (routine, pool)
    }

    /// The row ids an ASAGA response carries, decoded by `routine`.
    fn decoded_ids(routine: &RemoteRoutine, response: &[u8]) -> Result<Vec<u64>, DecodeError> {
        let msg = (routine.decode)(response)?.downcast::<GradMsg>();
        Ok(msg.expect("an ASAGA response decodes to a GradMsg").indices)
    }

    #[test]
    fn asaga_request_bytes_are_unchanged_by_the_distinct_version_resolve() {
        // Request lengths, mirror charges and batch ids as they were when
        // the build resolved one history plan per sampled row (repeats
        // shipping nothing): one plan per distinct version in first-need
        // order ships the same bytes. The second request (to partition 1
        // again) finds the block and every model cached.
        let (routine, pool) = asaga_fixture();
        let mut mirror = WorkerCtx::new(0);
        let first = (routine.build)(&mut mirror, 1);
        let second = (routine.build)(&mut mirror, 1);
        let charged = mirror.take_charges().0;
        // The first request ships partition 1's 20×6 dense block: 1627
        // bytes when its values went as `f64`, 4·120 fewer as `f32`.
        assert_eq!((first.len(), second.len(), charged), (1627 - 480, 226, 224));
        let response = asaga_handler(&pool, &mut WorkerCtx::new(0), &first);
        let ids = decoded_ids(&routine, &response.expect("an honest request"));
        assert_eq!(
            ids.expect("decodes"),
            [22, 23, 26, 27, 28, 29, 34, 35, 37, 38]
        );
    }

    #[test]
    fn asaga_response_row_ids_outside_the_dataset_are_refused() {
        // The ids index the driver's flat version table: a hostile one must
        // end as a decode error (the incarnation's teardown), never as an
        // index into — or a resize of — the table.
        let (routine, _) = asaga_fixture();
        let response = |ids: &[u64]| {
            let mut buf = BytesMut::new();
            GradDelta::Dense(vec![0.5; 3]).encode(&mut buf);
            put_u64s(&mut buf, ids);
            buf.put_u64_le(6);
            buf.into_vec()
        };
        let ok = decoded_ids(&routine, &response(&[0, 39]));
        assert_eq!(ok.expect("ids inside the dataset"), [0, 39]);
        for hostile in [40, u64::MAX] {
            assert!(matches!(
                decoded_ids(&routine, &response(&[3, hostile])),
                Err(DecodeError::Invalid {
                    what: "row id outside the dataset",
                    ..
                })
            ));
        }
    }

    #[test]
    fn compress_cfg_codec_roundtrips_and_rejects_k_zero() {
        for c in [
            CompressCfg::Off,
            CompressCfg::TopK {
                k: 16,
                quant: Quant::Exact,
            },
            CompressCfg::TopK {
                k: 1,
                quant: Quant::I8,
            },
            CompressCfg::TopK {
                k: 1 << 20,
                quant: Quant::I8,
            },
        ] {
            let mut buf = BytesMut::new();
            encode_compress(&c, &mut buf);
            let bytes = buf.into_vec();
            let mut r = Reader::new(&bytes);
            assert_eq!(decode_compress(&mut r).expect("decodes"), c);
            assert_eq!(r.at(), bytes.len());
        }

        // k = 0 would ship empty deltas forever; the decoder refuses it
        // so a hostile frame cannot wedge a worker.
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u64_le(0);
        buf.put_u8(1);
        let bytes = buf.into_vec();
        assert!(matches!(
            decode_compress(&mut Reader::new(&bytes)),
            Err(DecodeError::Invalid { .. })
        ));

        // Unknown cfg tags are rejected, not silently mapped to Off.
        assert!(matches!(
            decode_compress(&mut Reader::new(&[9])),
            Err(DecodeError::BadTag { .. })
        ));

        // So is quant byte 2, the retired half-precision format, at its
        // own offset past the cfg tag and k.
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u64_le(16);
        buf.put_u8(2);
        let bytes = buf.into_vec();
        assert_eq!(
            decode_compress(&mut Reader::new(&bytes)),
            Err(DecodeError::BadTag { at: 9, tag: 2 })
        );
    }

    #[test]
    fn worker_ef_state_persists_per_incarnation() {
        let mut ctx = WorkerCtx::new(0);
        let ef = worker_ef(&mut ctx, 2, 4);
        let g = GradDelta::Dense(vec![0.0, 0.5, 0.0, 2.0]);
        ef.lock().unwrap().compress(&g, 1, Quant::Exact);
        // Same incarnation, same partition: the residual survives across
        // lookups (top-1 shipped coordinate 3; coordinate 1 stays behind).
        let again = worker_ef(&mut ctx, 2, 4);
        assert_eq!(again.lock().unwrap().residual()[1], 0.5);
        // A different partition gets its own accumulator.
        let other = worker_ef(&mut ctx, 3, 4);
        assert_eq!(other.lock().unwrap().residual()[1], 0.0);
    }

    /// Feeds `decode` every strict prefix of `bytes`, each of which must be
    /// refused, and every single-bit flip of it, which may decode or be
    /// refused — what none of them may do is panic.
    pub(crate) fn every_cut_and_flip<T, E>(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, E>) {
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut flipped = bytes.to_vec();
        for bit in 0..8 * bytes.len() {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn every_request_and_response_decoder_survives_every_cut_and_bit_flip() {
        let encoded = |encode: &dyn Fn(&mut BytesMut)| {
            let mut buf = BytesMut::new();
            encode(&mut buf);
            buf.into_vec()
        };
        let snapshot = WirePlan::Snapshot {
            version: 9,
            values: Arc::new(vec![1.0, -2.5]),
            evict_below: 9,
        };
        let patch = WirePlan::Patch {
            base: 4,
            version: 6,
            patch: SparseVec::new(vec![0, 17], vec![0.5, 8.0], 20).unwrap(),
            evict_below: 4,
        };
        let cached = WirePlan::Cached {
            version: 7,
            evict_below: 3,
        };
        for plan in qpatches().iter().chain([&snapshot, &patch, &cached]) {
            let bytes = encoded(&|buf| encode_plan(plan, buf));
            every_cut_and_flip(&bytes, |b| decode_plan(&mut Reader::new(b)));
        }
        for dense in [true, false] {
            let bytes = encoded(&|buf| encode_block(&blocks(dense)[0], buf));
            every_cut_and_flip(&bytes, |b| decode_block(&mut Reader::new(b)));
        }
        let g = GradDelta::Sparse(SparseVec::new(vec![1, 5], vec![0.5, -1.0], 8).unwrap());
        let top2 = CompressCfg::TopK {
            k: 2,
            quant: Quant::I8,
        };
        for compress in [CompressCfg::Off, top2] {
            let bytes =
                encoded(&|buf| encode_response_delta(&mut WorkerCtx::new(0), 0, &g, compress, buf));
            every_cut_and_flip(&bytes, |b| {
                decode_response_delta(&mut Reader::new(b), compress)
            });
            let bytes = encoded(&|buf| encode_compress(&compress, buf));
            every_cut_and_flip(&bytes, |b| decode_compress(&mut Reader::new(b)));
        }
    }
}

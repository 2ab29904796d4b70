//! # async-linalg
//!
//! Dense and sparse linear-algebra kernels for the ASYNC reproduction.
//!
//! This crate stands in for the Breeze/netlib BLAS stack the paper uses on
//! Spark. It provides exactly the operations the distributed optimization
//! algorithms need:
//!
//! * level-1 kernels over `&[f64]` slices ([`dense`]): dot, axpy, their
//!   four-row forms, scal and norms — the row kernels generic over the
//!   stored [`dense::Element`];
//! * a row-major [`DenseMatrix`] and a compressed-sparse-row [`CsrMatrix`]
//!   with row access, `A·x`, and `Aᵀ·x` ([`dense_mat`], [`csr`]), storing
//!   `f32` values that every kernel widens to `f64`;
//! * a unified [`Matrix`] enum so downstream code is storage-agnostic;
//! * mini-batch gradient kernels over CSR ([`CsrMatrix::rows_dot_into`],
//!   [`CsrMatrix::gather_axpy`]) and the [`GradDelta`] dense-or-sparse
//!   update type they produce ([`delta`]), so gradients over sparse
//!   partitions never materialize a dense buffer;
//! * the full-dataset evaluation kernels and the contiguous range
//!   splitter ([`parallel`]);
//! * a persistent thread pool ([`shard`]), kept only for the frozen
//!   `benchmark/` harness's dispatch microbenchmark — the server absorbs
//!   on one thread;
//! * a conjugate-gradient least-squares solver ([`solve`]) used to compute
//!   high-precision baseline optima for the paper's error metric;
//! * gradient compression kernels ([`compress`]): deterministic top-k
//!   selection, a per-partition error-feedback residual ([`EfState`]), and
//!   scale-normalized int8 value quantization;
//! * the delta-varint sorted-index wire codec every sparse payload shares
//!   ([`wire`]), with the positioned [`DecodeError`] its decoder reports.
//!
//! All kernels are pure, allocation-conscious (callers pass output buffers
//! where it matters), and deterministic.

pub mod compress;
pub mod csr;
pub mod delta;
pub mod dense;
pub mod dense_mat;
pub mod matrix;
pub mod parallel;
pub mod shard;
pub mod solve;
pub mod sparse;
pub mod wire;

pub use compress::{
    dequantize_i8, quantize_i8, select_top_k, CompressedDelta, EfState, NonFiniteDelta, Quant,
};
pub use csr::CsrMatrix;
pub use delta::{DeltaFold, GradDelta};
pub use dense_mat::DenseMatrix;
pub use matrix::Matrix;
pub use parallel::ParallelismCfg;
pub use shard::ShardPool;
pub use sparse::SparseVec;
pub use wire::{index_codec, sparse_wire_len, DecodeError, Reader};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while constructing or validating matrices and vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Two operands had incompatible dimensions.
    DimensionMismatch {
        /// What was being attempted.
        op: &'static str,
        /// Dimension expected by the left/primary operand.
        expected: usize,
        /// Dimension actually provided.
        got: usize,
    },
    /// A sparse structure violated an invariant (unsorted or out-of-range
    /// indices, malformed indptr, ...).
    InvalidStructure(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::DimensionMismatch { op, expected, got } => {
                write!(
                    f,
                    "dimension mismatch in {op}: expected {expected}, got {got}"
                )
            }
            Error::InvalidStructure(msg) => write!(f, "invalid structure: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Appends `values` to `out` as stored feature values, each rounded to the
/// nearest `f32` — the rule of every `f64` matrix constructor, which refuses
/// a finite value that would round to infinity (non-finite values pass).
fn extend_narrowed(out: &mut Vec<f32>, values: &[f64]) -> Result<()> {
    for &v in values {
        let x = v as f32;
        if x.is_infinite() && v.is_finite() {
            let msg = format!("value {v:e} overflows f32 feature storage");
            return Err(Error::InvalidStructure(msg));
        }
        out.push(x);
    }
    Ok(())
}

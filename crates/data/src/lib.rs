//! # async-data
//!
//! Datasets for the ASYNC reproduction.
//!
//! The paper's evaluation (§6.1, Table 2) uses three LIBSVM datasets —
//! `rcv1_full.binary` (697k×47k, sparse), `mnist8m` (8.1M×784, dense) and
//! `epsilon` (400k×2000, dense). This crate provides:
//!
//! * [`Dataset`]: features (dense or CSR) + labels + provenance, with
//!   [`DatasetStats`] for the Table 2 columns;
//! * [`Block`]: a cheaply clonable row-range shard of a dataset — the unit
//!   stored in sparklet partitions;
//! * [`synth`]: seeded synthetic generators whose *shape* (dimension,
//!   sparsity, label model) matches the paper's datasets at configurable
//!   scale;
//! * [`libsvm`]: a LIBSVM text parser/writer so the real files can be
//!   dropped in unchanged;
//! * [`sampler`]: deterministic mini-batch index sampling, derived from
//!   `(seed, iteration, partition)` so every run is reproducible.

pub mod dataset;
pub mod libsvm;
pub mod sampler;
pub mod synth;

pub use dataset::{Block, Dataset, DatasetStats};
pub use synth::SynthSpec;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from dataset construction, IO, or parsing.
#[derive(Debug)]
pub enum Error {
    /// Underlying linear-algebra structure error.
    Linalg(async_linalg::Error),
    /// Malformed LIBSVM input.
    Parse { line: usize, msg: String },
    /// Filesystem error.
    Io(std::io::Error),
    /// Inconsistent dataset construction arguments.
    Invalid(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Linalg(e) => write!(f, "linalg: {e}"),
            Error::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
            Error::Io(e) => write!(f, "io: {e}"),
            Error::Invalid(msg) => write!(f, "invalid dataset: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Linalg(e) => Some(e),
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<async_linalg::Error> for Error {
    fn from(e: async_linalg::Error) -> Self {
        Error::Linalg(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

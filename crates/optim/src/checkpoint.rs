//! Server-state checkpoints: serialize the model, the iterate count, and
//! the solver's auxiliary history, and resume a crashed driver from them.
//!
//! A [`Checkpoint`] captures everything the *server* owns at an update
//! boundary — the model `w`, the total number of applied updates, and the
//! solver-specific history ([`SolverHistory`]): nothing for plain ASGD,
//! the heavy-ball velocity for momentum SGD, the running table-mean
//! gradient ᾱ for ASAGA. Worker-side state (caches, in-flight tasks) is
//! deliberately excluded: tasks in flight at the crash are simply lost, as
//! they would be on a real driver failure, and workers re-sync from the
//! history broadcast on their first post-restore task.
//!
//! The byte format is a small header followed by [`sparklet::Payload`]
//! sections — the dense vectors and the residual table are the encodings
//! the wire already has, written and read by the same codec — and
//! round-trips `f64`s **bit-identically** ([`Checkpoint::to_bytes`] /
//! [`Checkpoint::from_bytes`]), so a restored server model is exactly the
//! checkpointed one. A run captures checkpoints into its durable store
//! ([`crate::durable`]); whoever wants one in hand reads it from there.
//!
//! Resume semantics per solver (`resume_from` on each):
//!
//! * **ASGD** — `w` is restored; there is no auxiliary state.
//! * **AsyncMsgd** — `w` and the velocity `u` are restored.
//! * **ASAGA** — `w` is restored and the SAGA table is *re-based*: every
//!   sample's historical model `φⱼ` becomes the restored `w` (the history
//!   broadcast restarts at version 0 = `w`), and ᾱ is recomputed as the
//!   full gradient at `w`, which is exactly consistent with that table.
//!   The checkpointed running ᾱ is still serialized — it documents the
//!   pre-crash history and round-trips bit-identically — but it describes
//!   the *old* per-sample table, which died with the driver, so reusing it
//!   against the re-based table would bias the estimator.

use async_linalg::Reader;
use bytes::{BufMut, BytesMut};
use sparklet::{DecodeError, Payload};

/// Magic prefix of the checkpoint wire format.
const MAGIC: &[u8; 8] = b"ASYNCKPT";
/// The one format version written and parsed.
const FORMAT: u32 = 2;

/// Solver-specific auxiliary state captured alongside the model.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverHistory {
    /// Plain ASGD: the model is the whole server state.
    None,
    /// Momentum SGD: the heavy-ball velocity `u`.
    Momentum(Vec<f64>),
    /// ASAGA: the running table-mean gradient ᾱ at checkpoint time.
    Saga {
        /// `(1/n) Σⱼ f'ⱼ(φⱼ)·xⱼ` over the pre-crash per-sample table.
        alpha_bar: Vec<f64>,
    },
}

impl SolverHistory {
    fn tag(&self) -> u8 {
        match self {
            SolverHistory::None => 0,
            SolverHistory::Momentum(_) => 1,
            SolverHistory::Saga { .. } => 2,
        }
    }
}

/// A serialized-or-serializable snapshot of the server's solver state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Solver that produced it (`"asgd"`, `"asaga"`, `"async-msgd"`).
    pub solver: String,
    /// Total server model updates applied when the checkpoint was taken
    /// (across resumes: a resumed run keeps counting from here).
    pub updates: u64,
    /// Server model version at capture. Every update advances it by one,
    /// but a cold run starts at its context's version, so it need not
    /// equal `updates`; per-task RNG streams key on the version, so a
    /// resumed run re-seats its counter here, not at `updates`.
    pub version: u64,
    /// The server model.
    pub w: Vec<f64>,
    /// Solver-specific history.
    pub history: SolverHistory,
    /// Per-partition error-feedback residuals of the run's
    /// [`crate::CompressorBank`], sorted by partition. Every captured
    /// checkpoint records them (`Some(vec![])` with compression off); a
    /// hand-built `None` restores nothing, so the compressors restart cold.
    pub residuals: Option<Vec<(u64, Vec<f64>)>>,
}

/// Why a checkpoint failed to parse or apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream is not a checkpoint (bad magic or truncation).
    Malformed(&'static str),
    /// The format version is not the one this build reads.
    UnsupportedFormat(u32),
    /// The checkpoint was produced by a different solver.
    SolverMismatch {
        /// Solver the checkpoint names.
        found: String,
        /// Solver attempting the resume.
        expected: &'static str,
    },
    /// The model dimension, or an error-feedback residual's length, does
    /// not match the dataset.
    DimensionMismatch {
        /// Checkpointed model (or residual) length.
        found: usize,
        /// Dataset feature dimension.
        expected: usize,
    },
    /// The [`SolverHistory`] is not the kind (or the dimension) the
    /// resuming solver restores.
    HistoryMismatch {
        /// The history the solver needs.
        expected: &'static str,
    },
    /// An error-feedback residual holds a NaN or infinity, which no later
    /// compression step could ever subtract back out.
    NonFiniteResidual {
        /// Partition whose residual is poisoned.
        partition: u64,
        /// First non-finite coordinate.
        coordinate: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::UnsupportedFormat(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            CheckpointError::SolverMismatch { found, expected } => {
                write!(f, "checkpoint from solver {found:?}, expected {expected:?}")
            }
            CheckpointError::DimensionMismatch { found, expected } => {
                write!(
                    f,
                    "checkpoint dimension {found} != dataset dimension {expected}"
                )
            }
            CheckpointError::HistoryMismatch { expected } => {
                write!(f, "checkpoint history is not {expected}")
            }
            CheckpointError::NonFiniteResidual {
                partition,
                coordinate,
            } => write!(
                f,
                "checkpoint residual of partition {partition} is not finite at coordinate {coordinate}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The one encoder: the header, then `Payload` sections — the model, the
/// history's tag and vector, the residual flag and table. Takes the model
/// as a slice so the durable writer encodes straight from its read pin.
pub(crate) fn encode(
    solver: &str,
    updates: u64,
    version: u64,
    w: &[f64],
    history: &SolverHistory,
    residuals: Option<&Vec<(u64, Vec<f64>)>>,
) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(64 + 8 * w.len());
    out.put_slice(MAGIC);
    out.put_u32_le(FORMAT);
    out.put_u32_le(solver.len() as u32);
    out.put_slice(solver.as_bytes());
    out.put_u64_le(updates);
    out.put_u64_le(version);
    w.encode(&mut out);
    out.put_u8(history.tag());
    match history {
        SolverHistory::None => {}
        SolverHistory::Momentum(v) | SolverHistory::Saga { alpha_bar: v } => v.encode(&mut out),
    }
    match residuals {
        None => out.put_u8(0),
        Some(parts) => {
            out.put_u8(1);
            parts.encode(&mut out);
        }
    }
    out.into_vec()
}

/// The one map from a positioned [`DecodeError`] to the checkpoint's own:
/// a declared length that cannot be honest is `overflow`; anything else ran
/// off the end.
fn malformed(overflow: &'static str) -> impl Fn(DecodeError) -> CheckpointError {
    move |e| match e {
        DecodeError::LengthOverflow { .. } => CheckpointError::Malformed(overflow),
        _ => CheckpointError::Malformed("truncated"),
    }
}

impl Checkpoint {
    /// Serializes to the stable little-endian wire format. The `f64`
    /// payloads are written as raw bits, so
    /// `from_bytes(to_bytes(c)) == c` *bit-for-bit*.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(
            &self.solver,
            self.updates,
            self.version,
            &self.w,
            &self.history,
            self.residuals.as_ref(),
        )
    }

    /// Parses the wire format produced by [`Checkpoint::to_bytes`]; any
    /// other format version is [`CheckpointError::UnsupportedFormat`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(bytes);
        // Only a vector section can declare an impossible length.
        let cut = malformed("vector length overflows");
        if r.bytes(8).map_err(&cut)? != MAGIC {
            return Err(CheckpointError::Malformed("bad magic"));
        }
        let format = r.u32().map_err(&cut)?;
        if format != FORMAT {
            return Err(CheckpointError::UnsupportedFormat(format));
        }
        let name_len = r.u32().map_err(&cut)? as usize;
        let solver = std::str::from_utf8(r.bytes(name_len).map_err(&cut)?)
            .map_err(|_| CheckpointError::Malformed("solver name not utf-8"))?
            .to_string();
        let updates = r.u64().map_err(&cut)?;
        let version = r.u64().map_err(&cut)?;
        let w = Vec::read(&mut r).map_err(&cut)?;
        let history = match r.u8().map_err(&cut)? {
            0 => SolverHistory::None,
            1 => SolverHistory::Momentum(Vec::read(&mut r).map_err(&cut)?),
            2 => SolverHistory::Saga {
                alpha_bar: Vec::read(&mut r).map_err(&cut)?,
            },
            _ => return Err(CheckpointError::Malformed("unknown history tag")),
        };
        let residuals = match r.u8().map_err(&cut)? {
            0 => None,
            1 => {
                let parts: Vec<(u64, Vec<f64>)> =
                    Payload::read(&mut r).map_err(malformed("residual count overruns buffer"))?;
                if parts.windows(2).any(|p| p[0].0 >= p[1].0) {
                    return Err(CheckpointError::Malformed(
                        "residual partitions not strictly increasing",
                    ));
                }
                Some(parts)
            }
            _ => return Err(CheckpointError::Malformed("unknown residual flag")),
        };
        if !r.rest().is_empty() {
            return Err(CheckpointError::Malformed("trailing bytes"));
        }
        Ok(Self {
            solver,
            updates,
            version,
            w,
            history,
            residuals,
        })
    }

    /// Validates that this checkpoint can seed `expected` over a dataset of
    /// `dim` features: the solver's name, the model's width, and every
    /// error-feedback residual's width and finiteness.
    pub fn validate_for(&self, expected: &'static str, dim: usize) -> Result<(), CheckpointError> {
        if self.solver != expected {
            return Err(CheckpointError::SolverMismatch {
                found: self.solver.clone(),
                expected,
            });
        }
        if self.w.len() != dim {
            return Err(CheckpointError::DimensionMismatch {
                found: self.w.len(),
                expected: dim,
            });
        }
        for (partition, residual) in self.residuals.iter().flatten() {
            if residual.len() != dim {
                return Err(CheckpointError::DimensionMismatch {
                    found: residual.len(),
                    expected: dim,
                });
            }
            if let Some(coordinate) = residual.iter().position(|r| !r.is_finite()) {
                return Err(CheckpointError::NonFiniteResidual {
                    partition: *partition,
                    coordinate,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            solver: "async-msgd".to_string(),
            updates: 123,
            version: 123,
            // Awkward values: negative zero, subnormal, extremes.
            w: vec![-0.0, f64::MIN_POSITIVE / 2.0, 1.0e300, -3.5],
            history: SolverHistory::Momentum(vec![0.25, -1.75, 0.0, 9.0]),
            residuals: Some(vec![]),
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for ckpt in [
            sample(),
            Checkpoint {
                solver: "asgd".into(),
                updates: 0,
                version: 0,
                w: vec![],
                history: SolverHistory::None,
                residuals: None,
            },
            Checkpoint {
                solver: "asaga".into(),
                updates: u64::MAX,
                version: u64::MAX / 2,
                w: vec![1.0; 7],
                history: SolverHistory::Saga {
                    alpha_bar: vec![-2.0; 7],
                },
                residuals: Some(vec![
                    (0, vec![-0.0, 1.5e-308, 4.0]),
                    (3, vec![]),
                    (9, vec![7.25]),
                ]),
            },
        ] {
            let bytes = ckpt.to_bytes();
            let back = Checkpoint::from_bytes(&bytes).expect("round trip");
            assert_eq!(back, ckpt);
            // Bit-identity, not just float equality (−0.0 == 0.0 would
            // pass PartialEq; bits must too).
            for (a, b) in ckpt.w.iter().zip(back.w.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(back.to_bytes(), bytes, "re-serialization is stable");
        }
    }

    /// The header every format-2 checkpoint starts with.
    fn header(solver: &str, updates: u64, version: u64) -> Vec<u8> {
        let mut bytes = b"ASYNCKPT".to_vec();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&(solver.len() as u32).to_le_bytes());
        bytes.extend_from_slice(solver.as_bytes());
        bytes.extend_from_slice(&updates.to_le_bytes());
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes
    }

    /// A dense vector section: `u64` length, then raw little-endian bits.
    fn vector(bytes: &mut Vec<u8>, v: &[f64]) {
        bytes.extend_from_slice(&(v.len() as u64).to_le_bytes());
        for x in v {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    #[test]
    fn format_2_layout_is_pinned() {
        // Hand-assembled, so a codec change that moved the layout
        // symmetrically (and so kept every round trip green) fails here.
        let msgd = Checkpoint {
            solver: "async-msgd".into(),
            updates: 7,
            version: 5,
            w: vec![1.5, -2.0, 0.25],
            history: SolverHistory::Momentum(vec![0.5, -0.0, -1.0]),
            residuals: Some(vec![(0, vec![3.0, -0.5]), (3, vec![])]),
        };
        let mut expected = header("async-msgd", 7, 5);
        vector(&mut expected, &msgd.w);
        expected.push(1); // history tag: Momentum
        vector(&mut expected, &[0.5, -0.0, -1.0]);
        expected.push(1); // residual flag: recorded
        expected.extend_from_slice(&2u64.to_le_bytes()); // partitions
        expected.extend_from_slice(&0u64.to_le_bytes());
        vector(&mut expected, &[3.0, -0.5]);
        expected.extend_from_slice(&3u64.to_le_bytes());
        vector(&mut expected, &[]);
        assert_eq!(
            expected.len(),
            8 + 4 + 4 + 10 + 16 + 32 + 1 + 32 + 1 + 8 + 32 + 16
        );
        assert_eq!(msgd.to_bytes(), expected);
        assert_eq!(Checkpoint::from_bytes(&expected), Ok(msgd));

        let asgd = Checkpoint {
            solver: "asgd".into(),
            updates: 55,
            version: 9,
            w: vec![1.5, -2.0],
            history: SolverHistory::None,
            residuals: None,
        };
        let mut expected = header("asgd", 55, 9);
        vector(&mut expected, &asgd.w);
        expected.push(0); // history tag: None
        expected.push(0); // residual flag: not recorded
        assert_eq!(asgd.to_bytes(), expected);
        assert_eq!(Checkpoint::from_bytes(&expected), Ok(asgd));
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert_eq!(
            Checkpoint::from_bytes(b"not a checkpoint"),
            Err(CheckpointError::Malformed("bad magic"))
        );
        let mut bytes = sample().to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Malformed(_))
        ));
        let mut trailing = sample().to_bytes();
        trailing.push(0);
        assert_eq!(
            Checkpoint::from_bytes(&trailing),
            Err(CheckpointError::Malformed("trailing bytes"))
        );
        let mut future = sample().to_bytes();
        future[8] = 99; // format version
        assert_eq!(
            Checkpoint::from_bytes(&future),
            Err(CheckpointError::UnsupportedFormat(99))
        );
        let mut legacy = sample().to_bytes();
        legacy[8] = 1; // the residual-less format no build writes any more
        assert_eq!(
            Checkpoint::from_bytes(&legacy),
            Err(CheckpointError::UnsupportedFormat(1))
        );
    }

    #[test]
    fn hostile_residual_sections_are_rejected() {
        // `sample()` serializes an empty residual list: flag 1, count 0.
        // Strip the count and flip the flag to an unknown value.
        let mut bad_flag = sample().to_bytes();
        bad_flag.truncate(bad_flag.len() - 8);
        assert_eq!(bad_flag.pop(), Some(1), "sample records residuals");
        bad_flag.push(7);
        // Restore a count so only the flag is wrong.
        bad_flag.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&bad_flag),
            Err(CheckpointError::Malformed("unknown residual flag"))
        );
        // An absurd residual count must be rejected before allocating.
        let mut huge = sample().to_bytes();
        huge.truncate(huge.len() - 8);
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&huge),
            Err(CheckpointError::Malformed("residual count overruns buffer"))
        );
        // Out-of-order partitions are rejected.
        let mut ordered = sample();
        ordered.residuals = Some(vec![(2, vec![1.0]), (5, vec![2.0])]);
        assert!(Checkpoint::from_bytes(&ordered.to_bytes()).is_ok());
        let mut swapped = sample();
        swapped.residuals = Some(vec![(5, vec![2.0]), (2, vec![1.0])]);
        assert_eq!(
            Checkpoint::from_bytes(&swapped.to_bytes()),
            Err(CheckpointError::Malformed(
                "residual partitions not strictly increasing"
            ))
        );
    }

    #[test]
    fn huge_declared_length_does_not_allocate() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&FORMAT.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(b"asgd");
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd w length
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn validate_for_checks_solver_and_dims() {
        let c = sample();
        assert!(c.validate_for("async-msgd", 4).is_ok());
        assert!(matches!(
            c.validate_for("asgd", 4),
            Err(CheckpointError::SolverMismatch { .. })
        ));
        assert!(matches!(
            c.validate_for("async-msgd", 5),
            Err(CheckpointError::DimensionMismatch { .. })
        ));
        // Errors render.
        let e = c.validate_for("asgd", 4).unwrap_err();
        assert!(e.to_string().contains("asgd"));
    }
}

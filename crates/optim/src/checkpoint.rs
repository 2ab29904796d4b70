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
//! The wire format is hand-rolled little-endian (the build environment is
//! offline — no serde) and round-trips `f64`s **bit-identically**
//! ([`Checkpoint::to_bytes`] / [`Checkpoint::from_bytes`]), so a restored
//! server model is exactly the checkpointed one.
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

/// Magic prefix of the checkpoint wire format.
const MAGIC: &[u8; 8] = b"ASYNCKPT";
/// Format version written by [`Checkpoint::to_bytes`]. Format 1 (no model
/// version, no compressor residuals) is still parsed: see
/// [`Checkpoint::from_bytes`].
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
    /// Server model version at capture. Equals `updates` when every wave
    /// applies one update, but diverges under `absorb_batch > 1` (many
    /// updates per version); per-task RNG streams key on the version, so
    /// a resumed run re-seats its counter here, not at `updates`.
    pub version: u64,
    /// The server model.
    pub w: Vec<f64>,
    /// Solver-specific history.
    pub history: SolverHistory,
    /// Per-partition error-feedback residuals of the run's
    /// [`crate::CompressorBank`], sorted by partition. `Some(vec![])` for a
    /// run with compression off; `None` only for checkpoints parsed from
    /// the residual-less legacy format (see [`Checkpoint::has_residuals`]).
    pub residuals: Option<Vec<(u64, Vec<f64>)>>,
}

/// Why a checkpoint failed to parse or apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream is not a checkpoint (bad magic or truncation).
    Malformed(&'static str),
    /// The format version is newer than this build understands.
    UnsupportedFormat(u32),
    /// The checkpoint was produced by a different solver.
    SolverMismatch {
        /// Solver the checkpoint names.
        found: String,
        /// Solver attempting the resume.
        expected: &'static str,
    },
    /// The model dimension does not match the dataset.
    DimensionMismatch {
        /// Checkpointed model length.
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
        }
    }
}

impl std::error::Error for CheckpointError {}

fn put_f64s(out: &mut Vec<u8>, v: &[f64]) {
    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
    for x in v {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.pos + n > self.buf.len() {
            return Err(CheckpointError::Malformed("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64s(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let n = self.u64()? as usize;
        // Guard length against truncated buffers before allocating.
        let needed = n
            .checked_mul(8)
            .and_then(|b| b.checked_add(self.pos))
            .ok_or(CheckpointError::Malformed("vector length overflows"))?;
        if needed > self.buf.len() {
            return Err(CheckpointError::Malformed("vector length overruns buffer"));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().unwrap(),
            )));
        }
        Ok(v)
    }
}

impl Checkpoint {
    /// Serializes to the stable little-endian wire format. The `f64`
    /// payloads are written as raw bits, so
    /// `from_bytes(to_bytes(c)) == c` *bit-for-bit*.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 8 * self.w.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT.to_le_bytes());
        out.extend_from_slice(&(self.solver.len() as u32).to_le_bytes());
        out.extend_from_slice(self.solver.as_bytes());
        out.extend_from_slice(&self.updates.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        put_f64s(&mut out, &self.w);
        out.push(self.history.tag());
        match &self.history {
            SolverHistory::None => {}
            SolverHistory::Momentum(u) => put_f64s(&mut out, u),
            SolverHistory::Saga { alpha_bar } => put_f64s(&mut out, alpha_bar),
        }
        match &self.residuals {
            None => out.push(0),
            Some(parts) => {
                out.push(1);
                out.extend_from_slice(&(parts.len() as u64).to_le_bytes());
                for (part, residual) in parts {
                    out.extend_from_slice(&part.to_le_bytes());
                    put_f64s(&mut out, residual);
                }
            }
        }
        out
    }

    /// Parses the wire format produced by [`Checkpoint::to_bytes`].
    /// Accepts the current format and the residual-less legacy format 1,
    /// for which the model version defaults to the update count and
    /// `residuals` parses as `None` (see [`Checkpoint::has_residuals`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(8)? != MAGIC {
            return Err(CheckpointError::Malformed("bad magic"));
        }
        let format = r.u32()?;
        if format != 1 && format != FORMAT {
            return Err(CheckpointError::UnsupportedFormat(format));
        }
        let name_len = r.u32()? as usize;
        let solver = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| CheckpointError::Malformed("solver name not utf-8"))?
            .to_string();
        let updates = r.u64()?;
        let version = if format >= 2 { r.u64()? } else { updates };
        let w = r.f64s()?;
        let tag = r.take(1)?[0];
        let history = match tag {
            0 => SolverHistory::None,
            1 => SolverHistory::Momentum(r.f64s()?),
            2 => SolverHistory::Saga {
                alpha_bar: r.f64s()?,
            },
            _ => return Err(CheckpointError::Malformed("unknown history tag")),
        };
        let residuals = if format >= 2 {
            match r.take(1)?[0] {
                0 => None,
                1 => {
                    let count = r.u64()? as usize;
                    // Each entry is at least 16 bytes (part id + length);
                    // bound the count before allocating.
                    match count.checked_mul(16).and_then(|b| b.checked_add(r.pos)) {
                        Some(needed) if needed <= bytes.len() => {}
                        _ => {
                            return Err(CheckpointError::Malformed(
                                "residual count overruns buffer",
                            ))
                        }
                    }
                    let mut parts = Vec::with_capacity(count);
                    let mut prev: Option<u64> = None;
                    for _ in 0..count {
                        let part = r.u64()?;
                        if prev.is_some_and(|p| p >= part) {
                            return Err(CheckpointError::Malformed(
                                "residual partitions not strictly increasing",
                            ));
                        }
                        prev = Some(part);
                        parts.push((part, r.f64s()?));
                    }
                    Some(parts)
                }
                _ => return Err(CheckpointError::Malformed("unknown residual flag")),
            }
        } else {
            None
        };
        if r.pos != bytes.len() {
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

    /// Whether the error-feedback residual section was recorded at all —
    /// `false` only for checkpoints parsed from the legacy format, which
    /// predates residual capture. [`crate::SolverCfg::lint`] warns when a
    /// compressed run resumes from such a checkpoint: the restored bank
    /// starts with zero residuals, silently dropping the accumulated error
    /// feedback.
    pub fn has_residuals(&self) -> bool {
        self.residuals.is_some()
    }

    /// Validates that this checkpoint can seed `expected` over a dataset of
    /// `dim` features.
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
    }

    /// Hand-built legacy (format 1) bytes: no version field, no residual
    /// section — exactly what a pre-durability build serialized.
    fn legacy_bytes() -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(b"asgd");
        bytes.extend_from_slice(&55u64.to_le_bytes()); // updates
        bytes.extend_from_slice(&2u64.to_le_bytes()); // w length
        bytes.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(-2.0f64).to_bits().to_le_bytes());
        bytes.push(0); // history tag: None
        bytes
    }

    #[test]
    fn legacy_format_parses_without_version_or_residuals() {
        let ckpt = Checkpoint::from_bytes(&legacy_bytes()).expect("legacy parse");
        assert_eq!(ckpt.solver, "asgd");
        assert_eq!(ckpt.updates, 55);
        assert_eq!(ckpt.version, 55, "legacy version defaults to updates");
        assert_eq!(ckpt.w, vec![1.5, -2.0]);
        assert_eq!(ckpt.history, SolverHistory::None);
        assert!(!ckpt.has_residuals(), "legacy checkpoints lack residuals");
        // Re-serializing upgrades to the current format and round-trips.
        let upgraded = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("upgrade");
        assert_eq!(upgraded, ckpt);
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

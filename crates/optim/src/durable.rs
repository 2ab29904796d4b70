//! Crash-consistent checkpoint durability: an atomic on-disk generation
//! store, a background checkpointer that snapshots solver state off the
//! hot path, and deterministic disk fault injection for the recovery
//! paths.
//!
//! PR 9's supervision layer made the *cluster* survive worker failures;
//! this module covers the other half of elasticity: the driver process
//! itself dying. With [`crate::SolverCfg::durable_dir`] set, a solver
//! writes each cadence checkpoint ([`crate::SolverCfg::checkpoint_every`])
//! to disk through a [`CheckpointStore`], and on its next start finds the
//! newest **valid** generation and resumes from it — model, solver
//! history, error-feedback residuals, model version, and update budget
//! included. This is the only place a run captures checkpoints to: a
//! capture is pinned by the loop, encoded from the pin and committed by
//! the writer thread, which owns the store while the run lasts; a
//! checkpoint in hand is one read back from here
//! ([`CheckpointStore::latest_valid`], [`CheckpointStore::read`]).
//!
//! # The atomic-rename protocol
//!
//! A generation `g` is two files, committed strictly in order:
//!
//! ```text
//! gen-000000000042.ckpt     the serialized Checkpoint payload
//! gen-000000000042.mf       32-byte manifest: magic, g, payload length,
//!                           FNV-1a 64 checksum of the payload
//! ```
//!
//! Each file is written to a temp name, `fsync`ed, and renamed into
//! place; the directory is `fsync`ed after the renames. The payload
//! commits *before* the manifest, so a crash between the two leaves a
//! payload without a manifest — an invalid generation by construction,
//! never a manifest describing bytes that are not there. A torn or
//! bit-rotted payload under a committed manifest is caught at read time
//! by the manifest's length and checksum; [`CheckpointStore::latest_valid`]
//! walks generations newest-first and returns the first one that checks
//! out.
//!
//! # Fault injection
//!
//! A seeded [`DiskFaultPlan`] mirrors PR 9's wire `FaultPlan`: it scripts,
//! per save attempt, a torn payload write, a failed fsync, a post-commit
//! corrupted byte, or a dropped manifest — so every recovery path is
//! exercised deterministically (`tests/durable_proptests.rs` drives the
//! store through arbitrary schedules and checks that `latest_valid` never
//! returns a corrupt generation and never loses the last durably
//! committed one).

use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;

use async_core::ReadPin;
use async_linalg::Reader;

use crate::checkpoint::{self, Checkpoint, SolverHistory};

/// Magic prefix of a generation manifest.
const MANIFEST_MAGIC: &[u8; 8] = b"ASYNCMF1";
/// Manifest size on disk: magic + generation + payload length + checksum.
const MANIFEST_LEN: usize = 32;
/// Valid generations retained after a successful save (the newest valid
/// one is never deleted regardless).
const KEEP_GENERATIONS: usize = 4;

/// FNV-1a 64 over `bytes` — the manifest checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scripted disk misbehaviour, struck during a single save attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The payload write tears: only a strict prefix of `keep_bytes`
    /// reaches the file, but the rename (and the manifest) still land —
    /// the "rename durability without data durability" failure mode.
    /// The save *reports success*; only the manifest length check can
    /// tell at recovery time.
    TornWrite {
        /// Bytes of the payload that survive (clamped to a strict prefix).
        keep_bytes: usize,
    },
    /// The payload fsync fails: nothing is committed and the save returns
    /// an error, as a real `fsync` failure would.
    FailFsync,
    /// Silent bit rot after a fully successful commit: the byte at
    /// `offset` (mod payload length) is XORed with `xor`. The save
    /// reports success; only the manifest checksum can tell.
    CorruptByte {
        /// Byte offset into the payload (wrapped to its length).
        offset: usize,
        /// XOR mask applied to that byte (0 is promoted to 1).
        xor: u8,
    },
    /// The process dies between the payload commit and the manifest
    /// commit: the payload renames into place, the manifest never
    /// appears, and the save returns an error.
    DropManifest,
}

/// A deterministic per-save-attempt schedule of [`DiskFault`]s, mirroring
/// the wire `FaultPlan` of the supervision layer: the nth save attempt of
/// a store consults slot `n` of the schedule. The default plan is empty
/// and injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskFaultPlan {
    /// Fault (or `None`) per save attempt; attempts beyond the schedule's
    /// length run clean.
    pub faults: Vec<Option<DiskFault>>,
}

impl DiskFaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan striking exactly the listed `(attempt, fault)` pairs.
    pub fn scripted(entries: &[(usize, DiskFault)]) -> Self {
        let len = entries.iter().map(|&(i, _)| i + 1).max().unwrap_or(0);
        let mut faults = vec![None; len];
        for &(i, f) in entries {
            faults[i] = Some(f);
        }
        Self { faults }
    }

    /// A seeded random schedule over `attempts` save attempts: each slot
    /// independently draws a fault with probability ~1/2, uniformly over
    /// the four kinds. Deterministic in `seed` alone.
    pub fn random(seed: u64, attempts: usize) -> Self {
        let mut state = splitmix(seed ^ 0xD15C_FA17_0000_0001);
        let mut faults = Vec::with_capacity(attempts);
        for _ in 0..attempts {
            state = splitmix(state);
            let fault = match state % 8 {
                0 => Some(DiskFault::TornWrite {
                    keep_bytes: (splitmix(state) % 4096) as usize,
                }),
                1 => Some(DiskFault::FailFsync),
                2 => Some(DiskFault::CorruptByte {
                    offset: (splitmix(state) % 4096) as usize,
                    xor: (splitmix(state ^ 1) % 256) as u8,
                }),
                3 => Some(DiskFault::DropManifest),
                _ => None,
            };
            faults.push(fault);
        }
        Self { faults }
    }

    /// True when this plan can never inject a fault.
    pub fn is_zero(&self) -> bool {
        self.faults.iter().all(Option::is_none)
    }

    fn fault_for(&self, attempt: u64) -> Option<DiskFault> {
        self.faults.get(attempt as usize).copied().flatten()
    }
}

/// Running counters of one store's write traffic, folded into
/// [`DurableStats`] at run end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Save attempts that committed a (believed-)durable generation.
    pub saves_ok: u64,
    /// Save attempts that returned an error (failed fsync, dropped
    /// manifest).
    pub saves_failed: u64,
    /// Payload + manifest bytes physically written, across all attempts —
    /// the numerator of the write-amplification ratio.
    pub bytes_written: u64,
}

/// An atomic on-disk checkpoint store over one directory. See the module
/// docs for the commit protocol. Generation numbers are supplied by the
/// caller (solvers use the lineage-total update count, which is unique
/// and monotone).
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    plan: DiskFaultPlan,
    attempts: u64,
    counters: StoreCounters,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            plan: DiskFaultPlan::none(),
            attempts: 0,
            counters: StoreCounters::default(),
        })
    }

    /// Installs a [`DiskFaultPlan`] consulted on every subsequent save.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: DiskFaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Write-traffic counters so far.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    fn payload_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:012}.ckpt"))
    }

    fn manifest_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:012}.mf"))
    }

    /// Commits `bytes` as generation `generation`: payload then manifest,
    /// each temp-file + fsync + rename, directory fsync last, then prunes
    /// old generations (never the newest valid one). Returns `Err` when
    /// the commit is *known* not to have landed (injected fsync failure or
    /// manifest drop, or a real I/O error); silent faults (torn write,
    /// bit rot) return `Ok` exactly because the writer cannot tell.
    pub fn save(&mut self, generation: u64, bytes: &[u8]) -> io::Result<()> {
        let fault = self.plan.fault_for(self.attempts);
        self.attempts += 1;
        let result = self.save_inner(generation, bytes, fault);
        match &result {
            Ok(()) => self.counters.saves_ok += 1,
            Err(_) => self.counters.saves_failed += 1,
        }
        if result.is_ok() {
            self.prune();
        }
        result
    }

    fn save_inner(
        &mut self,
        generation: u64,
        bytes: &[u8],
        fault: Option<DiskFault>,
    ) -> io::Result<()> {
        // Manifest describes the *intended* payload; a torn write below
        // diverges the file from it, which is the point.
        let mut manifest = Vec::with_capacity(MANIFEST_LEN);
        manifest.extend_from_slice(MANIFEST_MAGIC);
        manifest.extend_from_slice(&generation.to_le_bytes());
        manifest.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        manifest.extend_from_slice(&fnv64(bytes).to_le_bytes());

        let payload_tmp = self.dir.join(format!("gen-{generation:012}.ckpt.tmp"));
        let written: &[u8] = match fault {
            Some(DiskFault::TornWrite { keep_bytes }) => {
                &bytes[..keep_bytes.min(bytes.len().saturating_sub(1))]
            }
            _ => bytes,
        };
        {
            let mut f = fs::File::create(&payload_tmp)?;
            f.write_all(written)?;
            if matches!(fault, Some(DiskFault::FailFsync)) {
                drop(f);
                let _ = fs::remove_file(&payload_tmp);
                self.counters.bytes_written += written.len() as u64;
                return Err(io::Error::other("injected fsync failure"));
            }
            f.sync_all()?;
        }
        self.counters.bytes_written += written.len() as u64;
        fs::rename(&payload_tmp, self.payload_path(generation))?;

        if matches!(fault, Some(DiskFault::DropManifest)) {
            // Crash between the two commits: payload landed, manifest
            // never will. The generation is invalid by construction.
            self.sync_dir()?;
            return Err(io::Error::other("injected crash before manifest commit"));
        }

        let manifest_tmp = self.dir.join(format!("gen-{generation:012}.mf.tmp"));
        {
            let mut f = fs::File::create(&manifest_tmp)?;
            f.write_all(&manifest)?;
            f.sync_all()?;
        }
        self.counters.bytes_written += manifest.len() as u64;
        fs::rename(&manifest_tmp, self.manifest_path(generation))?;
        self.sync_dir()?;

        if let Some(DiskFault::CorruptByte { offset, xor }) = fault {
            // Bit rot after the fact: flip one committed payload byte.
            let path = self.payload_path(generation);
            let mut f = fs::OpenOptions::new().read(true).write(true).open(&path)?;
            let len = f.metadata()?.len();
            if len > 0 {
                let pos = (offset as u64) % len;
                let mut b = [0u8; 1];
                f.seek(SeekFrom::Start(pos))?;
                f.read_exact(&mut b)?;
                b[0] ^= if xor == 0 { 1 } else { xor };
                f.seek(SeekFrom::Start(pos))?;
                f.write_all(&b)?;
                f.sync_all()?;
            }
        }
        Ok(())
    }

    fn sync_dir(&self) -> io::Result<()> {
        // Directory fsync makes the renames themselves durable. Some
        // platforms refuse to fsync a directory handle; that is not a
        // correctness problem for recovery, so it is best-effort.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Generation numbers with a committed manifest, ascending (validity
    /// not yet checked).
    pub fn generations(&self) -> io::Result<Vec<u64>> {
        let mut gens = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name
                .strip_prefix("gen-")
                .and_then(|rest| rest.strip_suffix(".mf"))
            {
                if let Ok(g) = num.parse::<u64>() {
                    gens.push(g);
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Whether generation `g` passes manifest validation.
    pub fn is_valid(&self, generation: u64) -> bool {
        self.read(generation).is_some()
    }

    /// The payload of generation `g`, if it passes manifest validation:
    /// the manifest parses, names `g`, and the payload matches its recorded
    /// length and checksum.
    pub fn read(&self, generation: u64) -> Option<Vec<u8>> {
        let manifest = fs::read(self.manifest_path(generation)).ok()?;
        let (gen, len, sum) = parse_manifest(&manifest)?;
        if gen != generation {
            return None;
        }
        let payload = fs::read(self.payload_path(generation)).ok()?;
        if payload.len() as u64 != len || fnv64(&payload) != sum {
            return None;
        }
        Some(payload)
    }

    /// The newest generation whose manifest, length, and checksum all
    /// verify, with its payload bytes — the recovery entry point. Torn,
    /// corrupted, or manifest-less generations are skipped; `None` when
    /// no generation survives.
    pub fn latest_valid(&self) -> Option<(u64, Vec<u8>)> {
        let gens = self.generations().ok()?;
        gens.iter()
            .rev()
            .find_map(|&g| self.read(g).map(|bytes| (g, bytes)))
    }

    /// Deletes generations beyond the retention window, keeping the
    /// newest [`KEEP_GENERATIONS`] *valid* generations (and never touching
    /// anything at or above the oldest of those).
    fn prune(&self) {
        let Ok(gens) = self.generations() else { return };
        let valid: Vec<u64> = gens.iter().copied().filter(|&g| self.is_valid(g)).collect();
        if valid.len() <= KEEP_GENERATIONS {
            return;
        }
        let cutoff = valid[valid.len() - KEEP_GENERATIONS];
        for &g in gens.iter().filter(|&&g| g < cutoff) {
            let _ = fs::remove_file(self.payload_path(g));
            let _ = fs::remove_file(self.manifest_path(g));
        }
    }
}

/// A manifest's `(generation, payload length, checksum)`, or `None` for
/// bytes that are not exactly one manifest.
fn parse_manifest(bytes: &[u8]) -> Option<(u64, u64, u64)> {
    let mut r = Reader::new(bytes);
    if bytes.len() != MANIFEST_LEN || r.bytes(8).ok()? != MANIFEST_MAGIC {
        return None;
    }
    Some((r.u64().ok()?, r.u64().ok()?, r.u64().ok()?))
}

/// Durability outcome of one solver run, reported in
/// [`crate::RunReport::durable`]. All-zero/`None` when
/// [`crate::SolverCfg::durable_dir`] is unset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Generation the run auto-resumed from, if the store held one.
    pub resumed_from: Option<u64>,
    /// Store write counters accumulated over the run.
    pub store: StoreCounters,
}

/// A checkpoint capture handed to the background writer: everything is
/// owned or pinned, so serialization and disk I/O happen entirely off the
/// solver's hot path. The model rides as a [`ReadPin`] — the wave loop
/// pays one pin increment, not an `O(dim)` clone.
pub(crate) struct CheckpointJob {
    pub solver: &'static str,
    /// Lineage-total update count: the generation it commits as.
    pub updates: u64,
    pub version: u64,
    pub w: ReadPin<Vec<f64>>,
    pub history: SolverHistory,
    pub residuals: Vec<(u64, Vec<f64>)>,
}

/// One solver run's durability session: the channel to the background
/// writer thread, which owns the [`CheckpointStore`] until
/// [`DurableSession::finish`] joins it. Opened by the server loop when
/// [`crate::SolverCfg::durable_dir`] is set.
pub(crate) struct DurableSession {
    tx: Option<mpsc::Sender<CheckpointJob>>,
    writer: Option<thread::JoinHandle<StoreCounters>>,
    resumed_from: Option<u64>,
}

impl DurableSession {
    /// With `resume`, reads the newest valid generation out of `store` as
    /// this run's resume point; then moves the store into the writer
    /// thread. `None` without `resume` and on a cold start (empty or fully
    /// invalid store). The payload passed manifest validation, so a parse
    /// failure means a foreign file wearing our manifest — surfaced as a
    /// cold start rather than a panic.
    pub fn with_store(
        mut store: CheckpointStore,
        resume: bool,
    ) -> io::Result<(Self, Option<Checkpoint>)> {
        let newest = if resume { store.latest_valid() } else { None };
        let (resumed_from, ckpt) = newest
            .and_then(|(g, bytes)| Some((g, Checkpoint::from_bytes(&bytes).ok()?)))
            .unzip();
        let (tx, rx) = mpsc::channel::<CheckpointJob>();
        let writer = thread::Builder::new()
            .name("async-checkpointer".into())
            .spawn(move || {
                // A job is skipped only when its generation is already
                // durable: a cadence save that failed leaves the run-end
                // save of the same generation a fresh attempt.
                let mut committed = resumed_from;
                while let Ok(job) = rx.recv() {
                    if committed == Some(job.updates) {
                        continue;
                    }
                    let bytes = checkpoint::encode(
                        job.solver,
                        job.updates,
                        job.version,
                        &job.w,
                        &job.history,
                        Some(&job.residuals),
                    );
                    // Release the pin before the (slow) disk commit so the
                    // snapshot ring can move on.
                    drop(job.w);
                    if store.save(job.updates, &bytes).is_ok() {
                        committed = Some(job.updates);
                    }
                }
                store.counters()
            })?;
        let session = Self {
            tx: Some(tx),
            writer: Some(writer),
            resumed_from,
        };
        Ok((session, ckpt))
    }

    /// Queues one capture for the background writer.
    pub fn submit(&self, job: CheckpointJob) {
        if let Some(tx) = self.tx.as_ref() {
            let _ = tx.send(job);
        }
    }

    /// Drains the writer (joining its thread) and returns the run's
    /// durability outcome.
    pub fn finish(mut self) -> DurableStats {
        drop(self.tx.take());
        let writer = self.writer.take();
        let store = writer.map(|w| w.join().expect("checkpoint writer panicked"));
        DurableStats {
            resumed_from: self.resumed_from,
            store: store.unwrap_or_default(),
        }
    }
}

impl Drop for DurableSession {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("async-durable-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| tag ^ (i as u8)).collect()
    }

    #[test]
    fn save_and_recover_roundtrips() {
        let dir = scratch_dir("roundtrip");
        let mut store = CheckpointStore::open(&dir).unwrap();
        assert!(store.latest_valid().is_none(), "cold store is empty");
        store.save(10, &payload(1, 100)).unwrap();
        store.save(20, &payload(2, 100)).unwrap();
        let (generation, bytes) = store.latest_valid().expect("two generations");
        assert_eq!(generation, 20);
        assert_eq!(bytes, payload(2, 100));
        assert_eq!(store.generations().unwrap(), vec![10, 20]);
        let c = store.counters();
        assert_eq!(c.saves_ok, 2);
        assert_eq!(c.saves_failed, 0);
        assert_eq!(c.bytes_written, 2 * (100 + MANIFEST_LEN as u64));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_store_sees_prior_generations() {
        let dir = scratch_dir("reopen");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save(7, &payload(3, 64)).unwrap();
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        let (generation, bytes) = store.latest_valid().expect("persisted");
        assert_eq!((generation, bytes), (7, payload(3, 64)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_is_detected_and_skipped() {
        let dir = scratch_dir("torn");
        let mut store =
            CheckpointStore::open(&dir)
                .unwrap()
                .with_fault_plan(DiskFaultPlan::scripted(&[(
                    1,
                    DiskFault::TornWrite { keep_bytes: 17 },
                )]));
        store.save(1, &payload(1, 100)).unwrap();
        // The torn save *believes* it succeeded...
        store.save(2, &payload(2, 100)).unwrap();
        assert_eq!(store.counters().saves_ok, 2);
        // ...but recovery falls back to the intact generation.
        assert!(!store.is_valid(2));
        let (generation, bytes) = store.latest_valid().expect("gen 1 intact");
        assert_eq!((generation, bytes), (1, payload(1, 100)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_byte_fails_the_checksum() {
        let dir = scratch_dir("rot");
        let mut store =
            CheckpointStore::open(&dir)
                .unwrap()
                .with_fault_plan(DiskFaultPlan::scripted(&[(
                    1,
                    DiskFault::CorruptByte { offset: 5, xor: 0 },
                )]));
        store.save(1, &payload(1, 50)).unwrap();
        store.save(2, &payload(2, 50)).unwrap();
        assert!(!store.is_valid(2), "rot must fail the checksum");
        assert_eq!(store.latest_valid().map(|(g, _)| g), Some(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_fsync_and_dropped_manifest_report_errors() {
        let dir = scratch_dir("errs");
        let mut store =
            CheckpointStore::open(&dir)
                .unwrap()
                .with_fault_plan(DiskFaultPlan::scripted(&[
                    (0, DiskFault::FailFsync),
                    (1, DiskFault::DropManifest),
                ]));
        assert!(store.save(1, &payload(1, 40)).is_err(), "fsync fault");
        assert!(store.save(2, &payload(2, 40)).is_err(), "manifest fault");
        assert!(store.latest_valid().is_none(), "nothing committed");
        assert_eq!(store.counters().saves_failed, 2);
        // The next (clean) attempt commits normally.
        store.save(3, &payload(3, 40)).unwrap();
        assert_eq!(store.latest_valid().map(|(g, _)| g), Some(3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_the_newest_valid_generations() {
        let dir = scratch_dir("retain");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let saved = KEEP_GENERATIONS as u64 + 3;
        for g in 1..=saved {
            store.save(g * 10, &payload(g as u8, 30)).unwrap();
        }
        let newest: Vec<u64> = (4..=saved).map(|g| g * 10).collect();
        assert_eq!(store.generations().unwrap(), newest);
        assert_eq!(store.latest_valid().map(|(g, _)| g), Some(saved * 10));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_never_deletes_the_newest_valid_generation() {
        // Faulted newer saves must not push the only intact generation
        // out of the window.
        let dir = scratch_dir("retain-valid");
        let faults: Vec<(usize, DiskFault)> = (1..8)
            .map(|i| (i, DiskFault::TornWrite { keep_bytes: 3 }))
            .collect();
        let mut store = CheckpointStore::open(&dir)
            .unwrap()
            .with_fault_plan(DiskFaultPlan::scripted(&faults));
        store.save(1, &payload(9, 30)).unwrap();
        for g in 2..=8u64 {
            let _ = store.save(g, &payload(g as u8, 30));
        }
        let (generation, bytes) = store.latest_valid().expect("gen 1 survives");
        assert_eq!((generation, bytes), (1, payload(9, 30)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scripted_and_random_plans_are_deterministic() {
        let a = DiskFaultPlan::random(42, 30);
        let b = DiskFaultPlan::random(42, 30);
        assert_eq!(a, b);
        assert_ne!(a, DiskFaultPlan::random(43, 30));
        assert!(!a.is_zero(), "a 30-slot random plan strikes somewhere");
        assert!(DiskFaultPlan::none().is_zero());
        let s = DiskFaultPlan::scripted(&[(2, DiskFault::FailFsync)]);
        assert_eq!(s.fault_for(2), Some(DiskFault::FailFsync));
        assert_eq!(s.fault_for(0), None);
        assert_eq!(s.fault_for(99), None);
    }

    #[test]
    fn failed_save_leaves_the_same_generation_a_fresh_attempt() {
        // A run ending on a cadence boundary submits that generation
        // twice. The first commit fails, so the second must be tried; only
        // once it is durable is a further submission a duplicate.
        let dir = scratch_dir("retry");
        let store = CheckpointStore::open(&dir)
            .unwrap()
            .with_fault_plan(DiskFaultPlan::scripted(&[(0, DiskFault::FailFsync)]));
        let (session, resumed) = DurableSession::with_store(store, true).unwrap();
        assert!(resumed.is_none(), "cold store");
        let bcast = async_core::AsyncBcast::new(0, vec![1.0, -2.0], 0);
        for _ in 0..3 {
            session.submit(CheckpointJob {
                solver: "asgd",
                updates: 8,
                version: 0,
                w: bcast.pin_read(),
                history: SolverHistory::None,
                residuals: Vec::new(),
            });
        }
        let stats = session.finish();
        assert_eq!((stats.store.saves_failed, stats.store.saves_ok), (1, 1));
        assert_eq!(stats.resumed_from, None);
        let store = CheckpointStore::open(&dir).unwrap();
        let (generation, bytes) = store.latest_valid().expect("the retry committed");
        assert_eq!(generation, 8);
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap().w, [1.0, -2.0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_for_wrong_generation_is_invalid() {
        let dir = scratch_dir("cross");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save(1, &payload(1, 20)).unwrap();
        store.save(2, &payload(2, 20)).unwrap();
        // Swap gen 2's manifest with gen 1's: the embedded generation
        // number no longer matches the filename.
        fs::copy(store.manifest_path(1), store.manifest_path(2)).unwrap();
        assert!(!store.is_valid(2));
        assert_eq!(store.latest_valid().map(|(g, _)| g), Some(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_and_manifests_survive_every_cut_and_bit_flip() {
        let ckpt = Checkpoint {
            solver: "asaga".into(),
            updates: 3,
            version: 2,
            w: vec![1.0, -0.5],
            history: SolverHistory::Saga {
                alpha_bar: vec![0.25, 0.0],
            },
            residuals: Some(vec![(0, vec![-0.0]), (3, vec![])]),
        };
        crate::remote::tests::every_cut_and_flip(&ckpt.to_bytes(), Checkpoint::from_bytes);
        let mut manifest = MANIFEST_MAGIC.to_vec();
        for field in [42u64, 100, 0xfeed] {
            manifest.extend_from_slice(&field.to_le_bytes());
        }
        assert_eq!(parse_manifest(&manifest), Some((42, 100, 0xfeed)));
        crate::remote::tests::every_cut_and_flip(&manifest, |b| parse_manifest(b).ok_or(()));
    }
}

//! Asynchronous SGD — the paper's Listing 3 walk-through.
//!
//! Workers compute mini-batch gradients against the model version captured
//! at task submission; the server applies each collected gradient as soon
//! as it arrives (plus the ridge term), bumps the model version, pushes
//! the new model through the history broadcast (only the 8-byte version ID
//! travels with later tasks; workers fetch-and-cache values on miss), and
//! refills whichever workers the barrier filter admits.
//!
//! Gradients travel as [`async_linalg::GradDelta`]s: over CSR partitions
//! the task runs the sparse gather kernel and ships only the batch support,
//! which the server scatters onto the model without densifying — the sparse
//! fast path. Dense partitions use the dense kernel, bit-identical to the
//! original implementation. The task is shared with [`crate::AsyncMsgd`];
//! the loop around the update is `server_loop`'s.

use async_core::{AsyncContext, Tagged};
use async_data::Dataset;

use crate::absorber::ShardedAbsorber;
use crate::checkpoint::{Checkpoint, SolverHistory};
use crate::compression::CompressorBank;
use crate::objective::Objective;
use crate::scratch::ScratchPool;
use crate::server_loop::{step_damp, GradMsg, ServerLoop, UpdateRule};
use crate::solver::{AsyncSolver, RunReport, SolverCfg, SolverError};

/// Asynchronous stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Asgd {
    /// The objective being minimized.
    pub objective: Objective,
    server: ServerLoop,
}

impl Asgd {
    /// An ASGD solver for `objective`.
    pub fn new(objective: Objective) -> Self {
        Self {
            objective,
            server: ServerLoop::default(),
        }
    }

    /// Injects the [`ScratchPool`] the next run recycles its buffers
    /// through, so a test can inspect [`ScratchPool::depth`] after the
    /// run; by default each run builds its own.
    pub fn with_scratch_pool(mut self, pool: ScratchPool) -> Self {
        self.server.pool = Some(pool);
        self
    }

    /// Injects the [`CompressorBank`] the next run's tasks compress
    /// through (only consulted when [`crate::SolverCfg::compress`] is on).
    /// Tests inject a tracked bank here and inspect the error-feedback
    /// residuals after the run; by default each run builds its own.
    pub fn with_compressor_bank(mut self, bank: CompressorBank) -> Self {
        self.server.bank = Some(bank);
        self
    }

    /// Seeds the next run from a checkpoint: the server model restores
    /// bit-identically (plain ASGD has no auxiliary history) and newly
    /// captured checkpoints keep counting updates from the checkpoint's
    /// total.
    ///
    /// Validated against the dataset at run time: a solver, dimension or
    /// history mismatch is a [`SolverError`].
    pub fn resume_from(mut self, ckpt: Checkpoint) -> Self {
        self.server.resume = Some(ckpt);
        self
    }
}

impl AsyncSolver for Asgd {
    fn name(&self) -> &'static str {
        AsgdRule::NAME
    }

    fn try_run(
        &mut self,
        ctx: &mut AsyncContext,
        dataset: &Dataset,
        cfg: &SolverCfg,
    ) -> Result<RunReport, SolverError> {
        let rule = AsgdRule {
            objective: self.objective,
            damps: Vec::new(),
        };
        self.server.run(rule, ctx, dataset, cfg)
    }
}

/// `w ← w − γ·d·(g + λ·w)` with `d` the optional staleness damping.
struct AsgdRule {
    objective: Objective,
    damps: Vec<f64>,
}

impl UpdateRule for AsgdRule {
    const NAME: &'static str = "asgd";
    const SPARSE_UPDATES: bool = true;

    fn objective(&self) -> Objective {
        self.objective
    }

    fn restore(
        &mut self,
        history: Option<SolverHistory>,
        _dataset: &Dataset,
        _w: &[f64],
    ) -> Result<(), &'static str> {
        match history {
            None | Some(SolverHistory::None) => Ok(()),
            Some(_) => Err("no solver history"),
        }
    }

    fn absorb(
        &mut self,
        server: &mut ShardedAbsorber,
        w: &mut [f64],
        wave: &[Tagged<GradMsg>],
        _ctx: &AsyncContext,
        cfg: &SolverCfg,
    ) -> bool {
        let lambda = self.objective.lambda();
        self.damps.clear();
        self.damps
            .extend(wave.iter().map(|t| step_damp(cfg, t.attrs.staleness)));
        // A single delta takes the exact serial expressions; larger waves
        // take the fused fold-then-apply pass, which reorders the f64
        // arithmetic — so here, unlike in the other rules, the branch is
        // observable.
        if let [t] = wave {
            server.asgd_step(w, &t.value.g, cfg.step * self.damps[0], lambda)
        } else {
            let delta = |k: usize| &wave[k].value.g;
            server.asgd_wave(w, wave.len(), delta, &self.damps, cfg.step, lambda)
        }
    }

    fn history(&self) -> SolverHistory {
        SolverHistory::None
    }
}

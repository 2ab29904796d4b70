//! Staleness-adaptive momentum SGD — the paper's second ASGD-family
//! solver, the one that reads the `STAT` table to adapt under delay.
//!
//! Plain momentum is notoriously fragile under asynchrony: a gradient that
//! arrives `s` updates late keeps compounding through the velocity for
//! `1/(1−β)` further steps, so stale heavy-ball runs diverge exactly where
//! asynchrony helps most (stragglers). The standard remedy — highlighted
//! by the delay-adaptive rules in Assran et al.'s asynchrony survey and
//! implemented here — is to *damp momentum by observed staleness*: on each
//! consumed result the server queries [`AsyncContext::stat`] (the paper's
//! Table-1 `AC.STAT`), takes the observed staleness `s` (the result's own
//! tag, or the worst in-flight staleness in the table if larger), and
//! applies
//!
//! ```text
//! βₜ = β₀ / (1 + s)                 — momentum damping (always on)
//! γₜ = γ  / (1 + s)                 — step damping (cfg.staleness_damping)
//! uₜ = βₜ·uₜ₋₁ + ∇f(w) + λw
//! wₜ = wₜ₋₁ − γₜ·uₜ
//! ```
//!
//! Under BSP (s ≡ 0) this is exactly classical heavy-ball SGD; under ASP
//! against a straggler the velocity forgets stale directions at the rate
//! staleness is observed. Gradient tasks are the same wave as
//! [`crate::Asgd`]'s, so the solver rides the sparse fast path on
//! CSR partitions (the velocity itself is dense — momentum mixes every
//! coordinate).

use async_core::{AsyncContext, Tagged};
use async_data::Dataset;

use crate::absorber::ShardedAbsorber;
use crate::checkpoint::{Checkpoint, SolverHistory};
use crate::compression::CompressorBank;
use crate::objective::Objective;
use crate::server_loop::{staleness_damp, step_damp, GradMsg, ServerLoop, UpdateRule};
use crate::solver::{AsyncSolver, RunReport, SolverCfg, SolverError};

/// Asynchronous momentum SGD with staleness-adaptive damping.
#[derive(Debug, Clone)]
pub struct AsyncMsgd {
    /// The objective being minimized.
    pub objective: Objective,
    /// Base momentum β₀, applied in full when a result arrives with zero
    /// observed staleness and damped as `β₀/(1+s)` otherwise.
    pub momentum: f64,
    server: ServerLoop,
}

impl AsyncMsgd {
    /// A staleness-adaptive momentum solver with the conventional β₀ = 0.9.
    pub fn new(objective: Objective) -> Self {
        Self {
            objective,
            momentum: 0.9,
            server: ServerLoop::default(),
        }
    }

    /// Injects the [`CompressorBank`] the next run's tasks compress
    /// through (only consulted when [`crate::SolverCfg::compress`] is on);
    /// by default each run builds its own.
    pub fn with_compressor_bank(mut self, bank: CompressorBank) -> Self {
        self.server.bank = Some(bank);
        self
    }

    /// Overrides the base momentum β₀.
    pub fn with_momentum(mut self, momentum: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum must be in [0, 1): {momentum}"
        );
        self.momentum = momentum;
        self
    }

    /// Seeds the next run from a checkpoint: the server model *and* the
    /// heavy-ball velocity restore bit-identically.
    ///
    /// Validated against the dataset at run time: a solver, dimension or
    /// history mismatch is a [`SolverError`].
    pub fn resume_from(mut self, ckpt: Checkpoint) -> Self {
        self.server.resume = Some(ckpt);
        self
    }
}

impl AsyncSolver for AsyncMsgd {
    fn name(&self) -> &'static str {
        MsgdRule::NAME
    }

    fn try_run(
        &mut self,
        ctx: &mut AsyncContext,
        dataset: &Dataset,
        cfg: &SolverCfg,
    ) -> Result<RunReport, SolverError> {
        let rule = MsgdRule {
            objective: self.objective,
            momentum: self.momentum,
            u: Vec::new(),
        };
        self.server.run(rule, ctx, dataset, cfg)
    }
}

/// The staleness-damped heavy-ball recurrence of the module docs.
struct MsgdRule {
    objective: Objective,
    momentum: f64,
    /// The velocity; dense by nature (momentum mixes every coordinate), so
    /// every version is a dense change.
    u: Vec<f64>,
}

impl UpdateRule for MsgdRule {
    const NAME: &'static str = "async-msgd";

    fn objective(&self) -> Objective {
        self.objective
    }

    fn restore(
        &mut self,
        history: Option<SolverHistory>,
        _dataset: &Dataset,
        w: &[f64],
    ) -> Result<(), &'static str> {
        self.u = match history {
            None => vec![0.0; w.len()],
            Some(SolverHistory::Momentum(u)) if u.len() == w.len() => u,
            Some(_) => return Err("a momentum history of the model's dimension"),
        };
        Ok(())
    }

    fn absorb(
        &mut self,
        server: &mut ShardedAbsorber,
        w: &mut [f64],
        t: &Tagged<GradMsg>,
        ctx: &AsyncContext,
        cfg: &SolverCfg,
    ) -> bool {
        // The staleness-adaptive rule: consult the STAT table for the
        // worst delay visible right now, fold in the result's own
        // staleness tag, and damp momentum (and optionally the step).
        let observed = t.attrs.staleness.max(ctx.stat().max_staleness());
        let beta = self.momentum * staleness_damp(observed);
        let gamma = cfg.step * step_damp(cfg, observed);
        let lambda = self.objective.lambda();
        server.msgd_step(w, &mut self.u, &t.value.g, beta, gamma, lambda);
        false
    }

    fn history(&self) -> SolverHistory {
        SolverHistory::Momentum(self.u.clone())
    }
}

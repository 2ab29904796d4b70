//! The `ASYNCcontext` (§4.2, §5 Table 1): the user-facing coordinator.
//!
//! [`AsyncContext`] owns a [`sparklet::Driver`] and layers the paper's
//! asynchronous programming model on top of its low-level submission API:
//!
//! * **Submission** ([`AsyncContext::async_reduce`],
//!   [`AsyncContext::async_aggregate`]): one task per worker admitted by a
//!   [`BarrierFilter`] over the current `STAT` snapshot — the
//!   `ASYNCscheduler`'s barrier control (§4.4). Each admitted worker runs
//!   the task on one of the partitions it owns, cycling through them as its
//!   clock advances.
//! * **The result pump** (§4.2): every completion the driver surfaces is
//!   tagged with [`TaskAttrs`] — worker id, staleness (model updates since
//!   issue), and mini-batch size — and the per-worker `STAT` table
//!   (availability, task clock, average completion time) is updated before
//!   the result is exposed. Failures are folded into `STAT` as dead
//!   workers, exactly like the coordinator's bookkeeping.
//! * **Consumption** ([`AsyncContext::collect`],
//!   [`AsyncContext::collect_all`], [`AsyncContext::has_next`]): the
//!   paper's `ASYNCcollect` / `ASYNCcollectAll` / `AC.hasNext()`.
//! * **History broadcast** ([`AsyncContext::async_broadcast`]): allocates
//!   an [`AsyncBcast`] (§4.3) with a context-unique id.
//!
//! The server's **model version** is explicit:
//! [`AsyncContext::advance_version`] is called by the optimizer after each
//! model update, and staleness is measured against it. This is the paper's
//! "number of updates to the model since the task was issued".
//!
//! The context assumes it is the only submitter on its driver; mixing
//! direct `Driver::submit_raw` calls with a live context desynchronizes
//! `STAT` from the engine.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use async_cluster::{ClusterSpec, VDur, VTime, WorkerId};
use sparklet::rdd::Data;
use sparklet::{Completion, DecodeError, Driver, Payload, Rdd, TaskFn, WireTask, WorkerCtx};

use crate::barrier::BarrierFilter;
use crate::broadcast::AsyncBcast;
use crate::stat::{StatSnapshot, StatTable};

/// The worker attributes the coordinator attaches to every result (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskAttrs {
    /// Worker that executed the task.
    pub worker: WorkerId,
    /// Partition the task ran over.
    pub partition: usize,
    /// Model updates applied between task issue and result consumption —
    /// the paper's staleness, what bounded-staleness step rules read.
    pub staleness: u64,
    /// Mini-batch size declared at submission.
    pub minibatch: u64,
    /// Model version the task was issued (and computed) at.
    pub issued_version: u64,
    /// Submission instant.
    pub issued_at: VTime,
    /// Result-arrival instant.
    pub finished_at: VTime,
    /// Modelled service time (dispatch → result arrival).
    pub service_time: VDur,
}

/// A task result paired with its [`TaskAttrs`].
#[derive(Debug)]
pub struct Tagged<R> {
    /// The task closure's output.
    pub value: R,
    /// Coordinator-attached worker attributes.
    pub attrs: TaskAttrs,
}

/// Per-submission knobs for [`AsyncContext::async_reduce`] /
/// [`AsyncContext::async_aggregate`]: what the task weighs on the modeled
/// wire and clock, and the mini-batch it declares. The model itself is not
/// listed here — tasks capture an `AsyncBcast` handle and are billed for
/// what they fetch.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOpts {
    /// Task payload bytes (e.g. history-broadcast version IDs).
    pub extra_bytes: u64,
    /// Multiplies the RDD cost hints; `0.0` is treated as `1.0` so
    /// `SubmitOpts::default()` does the expected thing.
    pub cost_scale: f64,
    /// Mini-batch size recorded in the task's bookkeeping.
    pub minibatch: u64,
}

impl SubmitOpts {
    fn effective_cost_scale(&self) -> f64 {
        if self.cost_scale == 0.0 {
            1.0
        } else {
            self.cost_scale
        }
    }
}

/// The wire form of a submission family, for networked engines: a routine
/// id registered in the worker binary, a request builder that runs
/// **driver-side** against the worker's cache mirror (resolving broadcast
/// versions into [`crate::broadcast::WirePlan`]s and serializing the task's
/// inputs), and a response decoder for the bytes the worker sends back.
/// In-process engines ignore it and run the submission's closure as usual —
/// one `async_reduce_wired` call site drives all three backends.
#[derive(Clone)]
pub struct RemoteRoutine {
    /// Routine id resolved by the worker's `RoutineRegistry`.
    pub routine: u32,
    /// Builds the request bytes for one partition (`&mut WorkerCtx` is the
    /// driver-side mirror of the target worker's cache).
    #[allow(clippy::type_complexity)]
    pub build: Arc<dyn Fn(&mut WorkerCtx, usize) -> Vec<u8> + Send + Sync>,
    /// Decodes the worker's response bytes into the task output consumed
    /// by [`AsyncContext::collect`].
    #[allow(clippy::type_complexity)]
    pub decode: Arc<dyn Fn(&[u8]) -> Result<Box<dyn Any + Send>, DecodeError> + Send + Sync>,
}

/// How the coordinator degrades when worker deaths shrink the alive set
/// mid-run — the policy consulted (through
/// [`AsyncContext::degrade_directive`]) wherever the pre-supervision code
/// gave up unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DegradePolicy {
    /// Any observed worker death halts the run at the next wave boundary.
    FailFast,
    /// Proceed while at least `ceil(frac × workers)` rows are alive
    /// (clamped to `[1, workers]`); below quorum, wait for a scheduled
    /// recovery when the engine has one, halt otherwise.
    Quorum(f64),
    /// Keep going with whoever is alive; only a fully dead cluster with no
    /// scheduled recovery halts the run. The default — identical to the
    /// pre-supervision behavior whenever at least one worker survives.
    #[default]
    BestEffort,
}

/// What a [`DegradePolicy`] tells the caller to do right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveDirective {
    /// The alive set satisfies the policy: submit the next wave.
    Proceed,
    /// The policy is violated but the engine has a scheduled membership
    /// event (e.g. a supervised respawn): wait for it
    /// ([`AsyncContext::await_recovery`]) instead of giving up.
    Wait,
    /// The policy is violated and no recovery is scheduled: stop.
    Halt,
}

impl RemoteRoutine {
    /// The wire form of one submission of this routine over partition
    /// `part` — the first, and every retry of it.
    fn wire_task(&self, part: usize) -> WireTask {
        let build = Arc::clone(&self.build);
        let decode = Arc::clone(&self.decode);
        WireTask {
            routine: self.routine,
            build: Box::new(move |mirror: &mut WorkerCtx| build(mirror, part)),
            decode: Box::new(move |bytes: &[u8]| decode(bytes)),
        }
    }
}

/// The run closure of one submission of `f` over partition `part` of
/// `rdd` — the first, and every retry of it.
fn run_closure<T, R, F>(rdd: Rdd<T>, f: F, part: usize) -> TaskFn
where
    T: Data,
    R: Send + 'static,
    F: Fn(&mut WorkerCtx, Vec<T>, usize) -> R + Send + 'static,
{
    Box::new(move |ctx: &mut WorkerCtx| {
        let data = rdd.compute(part);
        Box::new(f(ctx, data, part)) as Box<dyn Any + Send>
    })
}

/// Rebuilds a lost task's run closure for re-submission. Stored `Arc`'d so
/// one ticket can be replayed on every retry attempt.
type ReplayFn = Arc<dyn Fn() -> TaskFn + Send + Sync>;

/// Everything needed to re-submit one in-flight task if its worker dies:
/// captured at submission (only when retries are enabled), discarded on
/// normal completion, moved to the retry queue on [`Completion::Lost`].
struct RetryTicket {
    /// Worker currently running (or last assigned) this task.
    worker: WorkerId,
    /// Engine tag — the partition index, echoed back in completions.
    tag: u64,
    cost: f64,
    extra_bytes: u64,
    minibatch: u64,
    /// The model version of the *original* submission: retries keep it so
    /// staleness stays honest and the pin taken at first submission is
    /// consumed exactly once, by whichever incarnation finally lands.
    issued_version: u64,
    /// Re-submissions so far (bounded by the context's `retry_max`).
    attempts: u32,
    replay: ReplayFn,
    wire: Option<RemoteRoutine>,
}

/// The ASYNC coordinator. See the module docs.
pub struct AsyncContext {
    driver: Driver,
    stat: StatTable,
    version: u64,
    ready: VecDeque<Tagged<Box<dyn Any + Send>>>,
    next_bcast_id: u64,
    degrade: DegradePolicy,
    retry_max: u32,
    /// Replay tickets for in-flight tasks (empty unless retries are on).
    tickets: Vec<RetryTicket>,
    /// Lost tasks awaiting re-submission to a surviving worker.
    retry_queue: VecDeque<RetryTicket>,
    lost_tasks: u64,
    retried_tasks: u64,
}

impl AsyncContext {
    /// Wraps a driver. The `STAT` table starts with every engine worker
    /// alive and available.
    pub fn new(driver: Driver) -> Self {
        let n = driver.workers();
        Self {
            driver,
            stat: StatTable::new(n),
            version: 0,
            ready: VecDeque::new(),
            next_bcast_id: 0,
            degrade: DegradePolicy::default(),
            retry_max: 0,
            tickets: Vec::new(),
            retry_queue: VecDeque::new(),
            lost_tasks: 0,
            retried_tasks: 0,
        }
    }

    /// A context over the deterministic simulated engine.
    ///
    /// # Panics
    /// As [`Driver::sim`]: if the spec fails validation.
    pub fn sim(spec: ClusterSpec) -> Self {
        Self::new(Driver::sim(spec))
    }

    /// A context over the real-thread engine.
    ///
    /// # Panics
    /// As [`Driver::threaded`]: if the spec fails validation or
    /// `time_scale` is negative or NaN.
    pub fn threaded(spec: ClusterSpec, time_scale: f64) -> Self {
        Self::new(Driver::threaded(spec, time_scale))
    }

    /// The underlying driver (byte/task accounting, wait recorder).
    pub fn driver(&self) -> &Driver {
        &self.driver
    }

    /// Mutable driver access for cluster control (scheduled failures,
    /// recorder resets). Do not submit tasks through it directly.
    pub fn driver_mut(&mut self) -> &mut Driver {
        &mut self.driver
    }

    /// Total workers, dead or alive.
    pub fn workers(&self) -> usize {
        self.driver.workers()
    }

    /// Current engine time.
    pub fn now(&self) -> VTime {
        self.driver.now()
    }

    /// Current server model version (count of applied updates).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Records one model update and returns the new version. Called by the
    /// optimizer after folding a collected gradient into the model; all
    /// staleness accounting is relative to this counter.
    pub fn advance_version(&mut self) -> u64 {
        self.version += 1;
        self.version
    }

    /// Re-seats the model version counter at `version` — the durable-resume
    /// path: a solver restoring a checkpoint taken at model version `v`
    /// continues numbering (and seeding per-task RNG streams) from `v`
    /// instead of restarting at 0. Only legal while nothing is in flight;
    /// in-flight tasks carry their issued version, so re-seating under them
    /// would corrupt staleness accounting.
    ///
    /// # Panics
    /// Panics if any task is in flight.
    pub fn reseat_version(&mut self, version: u64) {
        assert_eq!(
            self.pending(),
            0,
            "reseat_version: context has in-flight tasks"
        );
        self.version = version;
    }

    /// Installs the [`DegradePolicy`] consulted by
    /// [`AsyncContext::degrade_directive`]. The default
    /// ([`DegradePolicy::BestEffort`]) reproduces the pre-supervision
    /// behavior.
    pub fn set_degrade_policy(&mut self, policy: DegradePolicy) {
        self.degrade = policy;
    }

    /// Enables task retry: a task surfacing as [`Completion::Lost`] is
    /// re-submitted to a surviving worker (at its *original* model version)
    /// up to `max_attempts` times before it is abandoned and counted in
    /// [`AsyncContext::lost_tasks`]. `0` (the default) disables retries —
    /// no replay state is captured at submission and losses surface
    /// exactly as before.
    pub fn set_retry_lost(&mut self, max_attempts: u32) {
        self.retry_max = max_attempts;
    }

    /// The configured retry bound (0 = retries off).
    pub fn retry_lost(&self) -> u32 {
        self.retry_max
    }

    /// Tasks abandoned to worker failures: every [`Completion::Lost`] that
    /// was not (or could no longer be) retried.
    pub fn lost_tasks(&self) -> u64 {
        self.lost_tasks
    }

    /// Successful re-submissions of lost tasks.
    pub fn retried_tasks(&self) -> u64 {
        self.retried_tasks
    }

    /// Lost tasks currently queued for re-submission (no surviving worker
    /// has had capacity yet).
    pub fn retries_pending(&self) -> usize {
        self.retry_queue.len()
    }

    /// Abandons every queued retry (counting each in
    /// [`AsyncContext::lost_tasks`]) and returns how many were dropped.
    /// Called when a run winds down so end-of-run drains don't re-issue
    /// work nobody will consume.
    pub fn cancel_retries(&mut self) -> usize {
        let n = self.retry_queue.len();
        self.lost_tasks += n as u64;
        self.retry_queue.clear();
        n
    }

    /// What the installed [`DegradePolicy`] says about the current alive
    /// set. Callers consult this at wave boundaries — most usefully when a
    /// collect came back empty (the pre-supervision "give up" points).
    /// "Recovery is scheduled" is read from
    /// [`sparklet::Driver::next_event_at`], so supervised respawns and
    /// scripted chaos revivals both count.
    pub fn degrade_directive(&self) -> WaveDirective {
        let snap = self.stat.snapshot(self.driver.now(), self.version);
        let total = snap.workers.len();
        let alive = snap.alive_count();
        let recovery = self.driver.next_event_at().is_some();
        match self.degrade {
            DegradePolicy::FailFast => {
                if alive == total {
                    WaveDirective::Proceed
                } else {
                    WaveDirective::Halt
                }
            }
            DegradePolicy::Quorum(frac) => {
                let need = ((frac * total as f64).ceil() as usize).clamp(1, total.max(1));
                if alive >= need {
                    WaveDirective::Proceed
                } else if recovery {
                    WaveDirective::Wait
                } else {
                    WaveDirective::Halt
                }
            }
            DegradePolicy::BestEffort => {
                if alive > 0 {
                    WaveDirective::Proceed
                } else if recovery {
                    WaveDirective::Wait
                } else {
                    WaveDirective::Halt
                }
            }
        }
    }

    /// Blocks until the alive set *grows* — a supervised respawn, scripted
    /// revival, or mid-run join surfacing as [`Completion::WorkerUp`] —
    /// and returns `true`; returns `false` when the engine has nothing
    /// scheduled that could ever grow it. Results absorbed while waiting
    /// land in the ready queue as usual, and queued retries are flushed as
    /// soon as the newcomer appears.
    ///
    /// On the simulated engine the completion pump itself advances time to
    /// the next scheduled event. Wall-clock engines return `None` from the
    /// pump when nothing is in flight even with a revival scheduled, so
    /// this sleeps toward [`sparklet::Driver::next_event_at`] and re-polls.
    pub fn await_recovery(&mut self) -> bool {
        let baseline = self
            .stat
            .snapshot(self.driver.now(), self.version)
            .alive_count();
        loop {
            if let Some(c) = self.driver.next_completion() {
                self.absorb(c);
                self.flush_retries();
                let alive = self
                    .stat
                    .snapshot(self.driver.now(), self.version)
                    .alive_count();
                if alive > baseline {
                    return true;
                }
                continue;
            }
            let Some(at) = self.driver.next_event_at() else {
                return false;
            };
            let wait = at.saturating_since(self.driver.now()).as_micros();
            // Cap each nap: wall-clock engines may scale virtual time, and
            // chaos fronts can move as faults land, so re-poll frequently.
            std::thread::sleep(std::time::Duration::from_micros(wait.clamp(100, 5_000)));
        }
    }

    /// Re-submits queued retries to idle alive workers (first-fit over the
    /// `STAT` table, engine-gated). Tickets that cannot be placed stay
    /// queued for the next flush. No-op (and allocation-free) when the
    /// queue is empty — i.e. always, unless retries are enabled and a task
    /// was lost.
    fn flush_retries(&mut self) {
        while !self.retry_queue.is_empty() {
            let target = {
                let snap = self.stat.snapshot(self.driver.now(), self.version);
                snap.workers.iter().enumerate().find_map(|(w, row)| {
                    (row.alive && row.available && self.driver.available(w)).then_some(w)
                })
            };
            let Some(w) = target else { break };
            let mut t = self
                .retry_queue
                .pop_front()
                .expect("queue checked non-empty");
            let wire = t.wire.as_ref().map(|r| r.wire_task(t.tag as usize));
            let issued_at = self.driver.now();
            if self
                .driver
                .submit_raw(w, t.tag, t.cost, t.extra_bytes, (t.replay)(), wire)
                .is_ok()
            {
                self.stat
                    .task_issued(w, t.issued_version, issued_at, t.minibatch);
                t.worker = w;
                t.attempts += 1;
                self.retried_tasks += 1;
                self.tickets.push(t);
            } else {
                self.retry_queue.push_front(t);
                break;
            }
        }
    }

    /// The paper's `AC.STAT`: a read-only snapshot of the worker table at
    /// the current instant and model version.
    ///
    /// # Example
    /// ```
    /// use async_cluster::{ClusterSpec, DelayModel};
    /// use async_core::AsyncContext;
    ///
    /// let ctx = AsyncContext::sim(ClusterSpec::homogeneous(3, DelayModel::None));
    /// let snap = ctx.stat();
    /// assert_eq!(snap.alive_count(), 3);
    /// assert_eq!(snap.available_workers(), vec![0, 1, 2]);
    /// assert_eq!(snap.max_staleness(), 0);
    /// ```
    pub fn stat(&self) -> StatSnapshot {
        self.stat.snapshot(self.driver.now(), self.version)
    }

    /// Creates a history broadcast (§4.3) with a context-unique id.
    /// `n_indices` is the sample universe size (see [`AsyncBcast::new`]).
    ///
    /// # Example
    /// ```
    /// use async_cluster::{ClusterSpec, DelayModel};
    /// use async_core::AsyncContext;
    ///
    /// let mut ctx = AsyncContext::sim(ClusterSpec::homogeneous(2, DelayModel::None));
    /// // A model history over a universe of 100 samples: only 8-byte
    /// // version IDs travel with tasks, values are fetched and cached.
    /// let w_br = ctx.async_broadcast(vec![0.0f64; 4], 100);
    /// assert_eq!(w_br.latest_version(), 0);
    /// assert_eq!(w_br.push(vec![1.0f64; 4]), 1);
    /// // Sample 7 has never been recorded, so it still references w₀.
    /// assert_eq!(w_br.version_for_index(7), 0);
    /// ```
    pub fn async_broadcast<T: Payload + Send + Sync + 'static>(
        &mut self,
        initial: T,
        n_indices: u64,
    ) -> AsyncBcast<T> {
        self.async_broadcast_at(initial, n_indices, 0)
    }

    /// Like [`AsyncContext::async_broadcast`], but seats the history's
    /// initial value at version `base` instead of 0 (see
    /// [`AsyncBcast::new_at`]) — used together with
    /// [`AsyncContext::reseat_version`] when resuming a checkpointed run,
    /// so broadcast version IDs continue the crashed run's numbering.
    pub fn async_broadcast_at<T: Payload + Send + Sync + 'static>(
        &mut self,
        initial: T,
        n_indices: u64,
        base: u64,
    ) -> AsyncBcast<T> {
        let id = self.next_bcast_id;
        self.next_bcast_id += 1;
        AsyncBcast::new_at(id, initial, n_indices, base)
    }

    /// The paper's `ASYNCreduce(f, AC)`: submits `f` as one task per worker
    /// admitted by `filter` over the current `STAT` snapshot. Each admitted
    /// worker runs `f` over one partition it owns (cycling with its clock);
    /// the per-partition result is consumed later through
    /// [`AsyncContext::collect`] with matching type `R`.
    ///
    /// Returns the workers that actually received tasks (empty when the
    /// barrier admits no one, e.g. BSP mid-round).
    ///
    /// # Example
    /// ```
    /// use async_cluster::{ClusterSpec, DelayModel};
    /// use async_core::{AsyncContext, BarrierFilter, SubmitOpts};
    /// use sparklet::Rdd;
    ///
    /// let mut ctx = AsyncContext::sim(ClusterSpec::homogeneous(2, DelayModel::None));
    /// let rdd = Rdd::parallelize(vec![vec![1i64, 2], vec![3, 4]]);
    /// // ASP: every available worker gets a task over one of its partitions.
    /// let submitted = ctx.async_reduce(
    ///     &rdd,
    ///     &BarrierFilter::Asp,
    ///     SubmitOpts::default(),
    ///     |_wctx, data, _part| data.into_iter().sum::<i64>(),
    /// );
    /// assert_eq!(submitted, vec![0, 1]);
    /// let mut partials = Vec::new();
    /// while let Some(t) = ctx.collect::<i64>() {
    ///     partials.push(t.value);
    /// }
    /// partials.sort_unstable();
    /// assert_eq!(partials, vec![3, 7]);
    /// ```
    pub fn async_reduce<T, R, F>(
        &mut self,
        rdd: &Rdd<T>,
        filter: &BarrierFilter,
        opts: SubmitOpts,
        f: F,
    ) -> Vec<WorkerId>
    where
        T: Data,
        R: Send + 'static,
        F: Fn(&mut WorkerCtx, Vec<T>, usize) -> R + Send + Sync + Clone + 'static,
    {
        self.async_reduce_wired(rdd, filter, opts, f, None)
    }

    /// [`AsyncContext::async_reduce`] with an optional wire form: when
    /// `remote` is `Some` and the driver's engine is networked, each
    /// submission additionally carries a [`WireTask`] built from the
    /// routine (request bytes assembled driver-side against the worker's
    /// cache mirror) and `f` is used for in-process bookkeeping only.
    /// In-process engines drop the wire form and run `f` — results,
    /// staleness accounting, and byte charges are identical either way.
    pub fn async_reduce_wired<T, R, F>(
        &mut self,
        rdd: &Rdd<T>,
        filter: &BarrierFilter,
        opts: SubmitOpts,
        f: F,
        remote: Option<&RemoteRoutine>,
    ) -> Vec<WorkerId>
    where
        T: Data,
        R: Send + 'static,
        F: Fn(&mut WorkerCtx, Vec<T>, usize) -> R + Send + Sync + Clone + 'static,
    {
        let nparts = rdd.num_partitions();
        if nparts == 0 {
            return Vec::new();
        }
        let snap = self.stat();
        let admitted = filter.select(&snap);
        let mut submitted = Vec::new();
        for w in admitted {
            let parts = self.driver.partitions_of(w, nparts);
            if parts.is_empty() {
                continue;
            }
            // Cycle through the worker's partitions as its clock advances,
            // so every partition is visited at the worker's own pace.
            let part = parts[(self.stat.get(w).clock as usize) % parts.len()];
            let cost = rdd.cost_hint(part) * opts.effective_cost_scale();
            let run = run_closure(rdd.clone(), f.clone(), part);
            let wire = remote.map(|r| r.wire_task(part));
            let issued_at = self.driver.now();
            if self
                .driver
                .submit_raw(w, part as u64, cost, opts.extra_bytes, run, wire)
                .is_ok()
            {
                self.stat
                    .task_issued(w, self.version, issued_at, opts.minibatch);
                // With retries on, capture everything needed to replay this
                // task if its worker dies. Off (the default), no state is
                // captured and losses surface exactly as before.
                if self.retry_max > 0 {
                    let (rdd, f) = (rdd.clone(), f.clone());
                    let replay: ReplayFn =
                        Arc::new(move || run_closure(rdd.clone(), f.clone(), part));
                    self.tickets.push(RetryTicket {
                        worker: w,
                        tag: part as u64,
                        cost,
                        extra_bytes: opts.extra_bytes,
                        minibatch: opts.minibatch,
                        issued_version: self.version,
                        attempts: 0,
                        replay,
                        wire: remote.cloned(),
                    });
                }
                submitted.push(w);
            }
        }
        submitted
    }

    /// The paper's `ASYNCaggregate(zeroVal, seqOp, combOp, AC)`: like
    /// [`AsyncContext::async_reduce`], but each admitted worker folds its
    /// partition from `zero` with `seq_op`. The driver-side `combOp` is
    /// whatever the caller does with the collected partials.
    ///
    /// # Example
    /// ```
    /// use async_cluster::{ClusterSpec, DelayModel};
    /// use async_core::{AsyncContext, BarrierFilter, SubmitOpts};
    /// use sparklet::Rdd;
    ///
    /// let mut ctx = AsyncContext::sim(ClusterSpec::homogeneous(2, DelayModel::None));
    /// let rdd = Rdd::parallelize(vec![vec![1i64, 2, 3], vec![4, 5]]);
    /// ctx.async_aggregate(
    ///     &rdd,
    ///     &BarrierFilter::Asp,
    ///     SubmitOpts::default(),
    ///     0i64,
    ///     |acc, x| acc + x,
    /// );
    /// // Driver-side combOp: fold the collected partials.
    /// let mut total = 0;
    /// while let Some(t) = ctx.collect::<i64>() {
    ///     total += t.value;
    /// }
    /// assert_eq!(total, 15);
    /// ```
    pub fn async_aggregate<T, U, F>(
        &mut self,
        rdd: &Rdd<T>,
        filter: &BarrierFilter,
        opts: SubmitOpts,
        zero: U,
        seq_op: F,
    ) -> Vec<WorkerId>
    where
        T: Data,
        U: Send + Sync + Clone + 'static,
        F: Fn(U, &T) -> U + Send + Sync + Clone + 'static,
    {
        self.async_reduce(rdd, filter, opts, move |_ctx, data, _part| {
            data.iter().fold(zero.clone(), &seq_op)
        })
    }

    /// True while unconsumed results exist or tasks are in flight — the
    /// paper's `AC.hasNext()`.
    ///
    /// # Example
    /// ```
    /// use async_cluster::{ClusterSpec, DelayModel};
    /// use async_core::{AsyncContext, BarrierFilter, SubmitOpts};
    /// use sparklet::Rdd;
    ///
    /// let mut ctx = AsyncContext::sim(ClusterSpec::homogeneous(1, DelayModel::None));
    /// assert!(!ctx.has_next());
    /// let rdd = Rdd::parallelize(vec![vec![1i64]]);
    /// ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(),
    ///     |_w, d, _p| d[0]);
    /// // The canonical consumption loop: while AC.hasNext() { collect() }.
    /// while ctx.has_next() {
    ///     ctx.collect::<i64>();
    /// }
    /// assert!(!ctx.has_next());
    /// ```
    pub fn has_next(&self) -> bool {
        !self.ready.is_empty() || self.driver.pending() > 0 || !self.retry_queue.is_empty()
    }

    /// Tasks currently in flight.
    pub fn pending(&self) -> usize {
        self.driver.pending()
    }

    /// The paper's `ASYNCcollect()`: the earliest unconsumed result,
    /// blocking (and advancing virtual time) until one arrives. Returns
    /// `None` when nothing is ready or in flight.
    ///
    /// # Panics
    /// Panics if the next result's type is not `R` — one context pipeline
    /// must collect with the type it submitted.
    ///
    /// # Example
    /// ```
    /// use async_cluster::{ClusterSpec, DelayModel};
    /// use async_core::{AsyncContext, BarrierFilter, SubmitOpts};
    /// use sparklet::Rdd;
    ///
    /// let mut ctx = AsyncContext::sim(ClusterSpec::homogeneous(1, DelayModel::None));
    /// let rdd = Rdd::parallelize(vec![vec![21i64]]);
    /// ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(),
    ///     |_w, d, _p| 2 * d[0]);
    /// // Results arrive tagged with the coordinator's worker attributes.
    /// let t = ctx.collect::<i64>().expect("one result");
    /// assert_eq!(t.value, 42);
    /// assert_eq!(t.attrs.worker, 0);
    /// assert_eq!(t.attrs.staleness, 0);
    /// assert!(ctx.collect::<i64>().is_none());
    /// ```
    pub fn collect<R: Send + 'static>(&mut self) -> Option<Tagged<R>> {
        self.flush_retries();
        while self.ready.is_empty() {
            let c = self.driver.next_completion()?;
            self.absorb(c);
            // A loss absorbed just now may have queued a retry: re-issue
            // immediately so the pump keeps blocking on the replacement.
            self.flush_retries();
        }
        self.ready.pop_front().map(downcast_tagged)
    }

    /// The paper's `ASYNCcollectAll()`: every result the server has
    /// received *as of now*, without blocking or advancing time.
    ///
    /// # Panics
    /// Panics if any drained result's type is not `R`.
    pub fn collect_all<R: Send + 'static>(&mut self) -> Vec<Tagged<R>> {
        while let Some(c) = self.driver.try_next_completion() {
            self.absorb(c);
        }
        self.flush_retries();
        self.ready.drain(..).map(downcast_tagged).collect()
    }

    /// Batched collection for the sharded server's absorption waves:
    /// blocks for the first result exactly like [`AsyncContext::collect`],
    /// then drains — **without blocking or advancing time further** —
    /// whatever additional results have already arrived, up to `max`
    /// total, appending them to `out` in arrival order.
    ///
    /// Absorption ordering and `STAT` coherence: completions are pumped
    /// through the same §4.2 result path as `collect`, so per-worker rows
    /// (availability, clocks, completion times) update in completion order
    /// *before* any result of the wave is exposed, and every result's
    /// staleness is measured against the model version at wave start —
    /// the optimizer advances the version only between waves.
    ///
    /// With `max == 1` this is exactly one `collect` call; `out` is left
    /// untouched (and the wave is empty) only when nothing is ready or in
    /// flight.
    ///
    /// # Panics
    /// Panics if a drained result's type is not `R`.
    pub fn collect_up_to_into<R: Send + 'static>(&mut self, max: usize, out: &mut Vec<Tagged<R>>) {
        if max == 0 {
            return;
        }
        let Some(first) = self.collect::<R>() else {
            return;
        };
        out.push(first);
        while out.len() < max {
            if let Some(t) = self.ready.pop_front() {
                out.push(downcast_tagged(t));
                continue;
            }
            match self.driver.try_next_completion() {
                Some(c) => self.absorb(c),
                None => break,
            }
        }
    }

    /// The §4.2 result pump: folds one engine completion into `STAT` and,
    /// for successful tasks, tags the result with [`TaskAttrs`].
    fn absorb(&mut self, c: Completion) {
        match c {
            Completion::Done(d) => {
                let inflight = self
                    .stat
                    .task_completed(d.worker, d.finished_at, d.service_time)
                    .expect("coordinator: completion from a worker with no in-flight task");
                if !self.tickets.is_empty() {
                    if let Some(i) = self
                        .tickets
                        .iter()
                        .position(|t| t.worker == d.worker && t.tag == d.tag)
                    {
                        self.tickets.swap_remove(i);
                    }
                }
                let attrs = TaskAttrs {
                    worker: d.worker,
                    partition: d.tag as usize,
                    staleness: self.version.saturating_sub(inflight.issued_version),
                    minibatch: inflight.minibatch,
                    issued_version: inflight.issued_version,
                    issued_at: d.issued_at,
                    finished_at: d.finished_at,
                    service_time: d.service_time,
                };
                self.ready.push_back(Tagged {
                    value: d.output,
                    attrs,
                });
            }
            Completion::Lost { worker, tag } => {
                self.stat.worker_died(worker);
                match self
                    .tickets
                    .iter()
                    .position(|t| t.worker == worker && t.tag == tag)
                {
                    Some(i) => {
                        let t = self.tickets.swap_remove(i);
                        if t.attempts < self.retry_max {
                            self.retry_queue.push_back(t);
                        } else {
                            self.lost_tasks += 1;
                        }
                    }
                    None => self.lost_tasks += 1,
                }
            }
            Completion::WorkerDown { worker } => {
                self.stat.worker_died(worker);
            }
            Completion::WorkerUp { worker } => {
                // A revival or a mid-run join: the worker returns as a
                // fresh executor. Its `STAT` row is reset (revival) or
                // appended (join), clock-seeded at the minimum alive clock
                // so SSP/BSP predicates over the new alive set neither
                // stall incumbents nor starve the newcomer.
                self.stat.worker_up(worker);
            }
        }
    }
}

fn downcast_tagged<R: Send + 'static>(t: Tagged<Box<dyn Any + Send>>) -> Tagged<R> {
    let Tagged { value, attrs } = t;
    let value = *value.downcast::<R>().unwrap_or_else(|_| {
        panic!(
            "collect::<{}>: result type mismatch",
            std::any::type_name::<R>()
        )
    });
    Tagged { value, attrs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_cluster::{CommModel, DelayModel};

    fn quiet_ctx(workers: usize, delay: DelayModel) -> AsyncContext {
        AsyncContext::sim(
            ClusterSpec::homogeneous(workers, delay)
                .with_comm(CommModel::free())
                .with_sched_overhead(VDur::ZERO),
        )
    }

    fn unit_rdd(nparts: usize) -> Rdd<i64> {
        // One element per partition, cost 2e8 = 1 virtual second each.
        Rdd::parallelize_with_cost(
            (0..nparts).map(|p| vec![p as i64]).collect(),
            vec![2e8; nparts],
        )
    }

    fn sum_task(_ctx: &mut WorkerCtx, data: Vec<i64>, _part: usize) -> i64 {
        data.into_iter().sum()
    }

    #[test]
    fn asp_submits_to_every_available_worker() {
        let mut ctx = quiet_ctx(3, DelayModel::None);
        let rdd = unit_rdd(3);
        let subs = ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        assert_eq!(subs, vec![0, 1, 2]);
        // Everyone is now busy: a second ASP wave admits no one.
        let again = ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        assert!(again.is_empty());
        assert!(ctx.has_next());
        let mut got = Vec::new();
        while let Some(t) = ctx.collect::<i64>() {
            got.push((t.attrs.worker, t.value));
        }
        got.sort_unstable();
        assert_eq!(got, vec![(0, 0), (1, 1), (2, 2)]);
        assert!(!ctx.has_next());
    }

    #[test]
    fn attrs_carry_staleness_and_minibatch() {
        let mut ctx = quiet_ctx(1, DelayModel::None);
        let rdd = unit_rdd(1);
        let opts = SubmitOpts {
            minibatch: 32,
            ..SubmitOpts::default()
        };
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, opts, sum_task);
        // Three model updates happen while the task is in flight.
        for _ in 0..3 {
            ctx.advance_version();
        }
        let t = ctx.collect::<i64>().expect("one result");
        assert_eq!(t.attrs.worker, 0);
        assert_eq!(t.attrs.minibatch, 32);
        assert_eq!(t.attrs.issued_version, 0);
        assert_eq!(t.attrs.staleness, 3);
        assert_eq!(t.attrs.service_time, VDur::from_micros(1_000_000));
        // STAT mirrors the completion.
        let snap = ctx.stat();
        assert_eq!(snap.workers[0].clock, 1);
        assert!(snap.workers[0].available);
    }

    #[test]
    fn bsp_holds_until_the_straggler_finishes() {
        // Worker 1 runs 2x slower; BSP admits new tasks only at full
        // barriers, so clocks stay in lockstep.
        let mut ctx = quiet_ctx(
            2,
            DelayModel::ControlledDelay {
                worker: 1,
                intensity: 1.0,
            },
        );
        let rdd = unit_rdd(2);
        let mut completed = 0;
        ctx.async_reduce(&rdd, &BarrierFilter::Bsp, SubmitOpts::default(), sum_task);
        while completed < 6 {
            let t = ctx.collect::<i64>().expect("result");
            completed += 1;
            let subs = ctx.async_reduce(&rdd, &BarrierFilter::Bsp, SubmitOpts::default(), sum_task);
            if t.attrs.worker == 0 {
                // Fast worker finished first; straggler still running.
                assert!(subs.is_empty(), "BSP must not release mid-round");
            } else {
                assert_eq!(subs, vec![0, 1], "barrier reached: full round released");
            }
        }
        let snap = ctx.stat();
        assert_eq!(snap.workers[0].clock, 3);
        assert_eq!(snap.workers[1].clock, 3);
    }

    #[test]
    fn asp_lets_the_fast_worker_run_ahead() {
        let mut ctx = quiet_ctx(
            2,
            DelayModel::ControlledDelay {
                worker: 1,
                intensity: 3.0,
            },
        );
        let rdd = unit_rdd(2);
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        for _ in 0..8 {
            let _ = ctx.collect::<i64>().expect("result");
            ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        }
        let snap = ctx.stat();
        assert!(
            snap.workers[0].clock > snap.workers[1].clock + 1,
            "fast worker should be several tasks ahead: {:?}",
            (snap.workers[0].clock, snap.workers[1].clock)
        );
        while ctx.collect::<i64>().is_some() {}
    }

    #[test]
    fn ssp_bounds_the_clock_gap() {
        let slack = 2u64;
        let mut ctx = quiet_ctx(
            2,
            DelayModel::ControlledDelay {
                worker: 1,
                intensity: 9.0,
            },
        );
        let rdd = unit_rdd(2);
        ctx.async_reduce(
            &rdd,
            &BarrierFilter::Ssp { slack },
            SubmitOpts::default(),
            sum_task,
        );
        for _ in 0..12 {
            let _ = ctx.collect::<i64>();
            ctx.async_reduce(
                &rdd,
                &BarrierFilter::Ssp { slack },
                SubmitOpts::default(),
                sum_task,
            );
            let snap = ctx.stat();
            let lead = snap.workers[0].clock.abs_diff(snap.workers[1].clock);
            // The leader may finish a task it was already granted, so the
            // observable gap is at most slack + 1.
            assert!(lead <= slack + 1, "clock gap {lead} exceeds slack bound");
        }
        while ctx.collect::<i64>().is_some() {}
    }

    #[test]
    fn collect_up_to_batches_ready_results_in_arrival_order() {
        let mut ctx = quiet_ctx(4, DelayModel::None);
        let rdd = unit_rdd(4);
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        // All four land at the same virtual instant; a wave capped at 3
        // takes three and leaves the fourth ready for the next wave.
        let mut wave = Vec::new();
        ctx.collect_up_to_into::<i64>(3, &mut wave);
        assert_eq!(wave.len(), 3);
        let mut second = Vec::new();
        ctx.collect_up_to_into::<i64>(3, &mut second);
        assert_eq!(second.len(), 1);
        assert!(!ctx.has_next());
        // STAT absorbed every completion of the wave.
        let snap = ctx.stat();
        assert!(snap.workers.iter().all(|w| w.clock == 1));
        // Empty cluster state: the wave comes back empty.
        let mut empty = Vec::new();
        ctx.collect_up_to_into::<i64>(4, &mut empty);
        assert!(empty.is_empty());
        ctx.collect_up_to_into::<i64>(0, &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn collect_all_drains_ready_results_without_blocking() {
        let mut ctx = quiet_ctx(4, DelayModel::None);
        let rdd = unit_rdd(4);
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        // Nothing has completed at time zero.
        assert!(ctx.collect_all::<i64>().is_empty());
        // Block for the first; the remaining three land at the same virtual
        // instant and drain together.
        let first = ctx.collect::<i64>().expect("first");
        let rest = ctx.collect_all::<i64>();
        assert_eq!(rest.len(), 3);
        let mut workers: Vec<_> = std::iter::once(first.attrs.worker)
            .chain(rest.iter().map(|t| t.attrs.worker))
            .collect();
        workers.sort_unstable();
        assert_eq!(workers, vec![0, 1, 2, 3]);
        assert!(!ctx.has_next());
    }

    #[test]
    fn worker_failure_updates_stat_and_filters() {
        let mut ctx = quiet_ctx(3, DelayModel::None);
        let rdd = unit_rdd(3);
        ctx.driver_mut().schedule_failure(2, VTime::from_micros(10));
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        // Two surviving results; the lost task is not resubmitted by the
        // async layer (the optimizer just keeps iterating).
        let mut n = 0;
        while let Some(t) = ctx.collect::<i64>() {
            assert_ne!(t.attrs.worker, 2);
            n += 1;
        }
        assert_eq!(n, 2);
        let snap = ctx.stat();
        assert!(!snap.workers[2].alive);
        assert_eq!(snap.alive_count(), 2);
        // Barrier filters only admit survivors.
        let subs = ctx.async_reduce(&rdd, &BarrierFilter::Bsp, SubmitOpts::default(), sum_task);
        assert_eq!(subs, vec![0, 1]);
        while ctx.collect::<i64>().is_some() {}
    }

    #[test]
    fn revival_and_join_flow_into_stat_and_submission() {
        let mut ctx = quiet_ctx(2, DelayModel::None);
        let rdd = unit_rdd(4);
        // Kill worker 1, drain, and check the alive set shrank.
        ctx.driver_mut().kill_worker(1);
        while ctx.collect::<i64>().is_some() {}
        assert_eq!(ctx.stat().alive_count(), 1);
        // Revive it and add a third worker: both surface through the
        // result pump and re-enter the STAT table as fresh rows.
        ctx.driver_mut().revive_worker(1).unwrap();
        ctx.driver_mut().add_worker();
        while ctx.collect::<i64>().is_some() {}
        let snap = ctx.stat();
        assert_eq!(snap.alive_count(), 3);
        assert_eq!(snap.available_workers(), vec![0, 1, 2]);
        // The next ASP wave admits all three, and partitions rebalance
        // over the grown alive set.
        let subs = ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        assert_eq!(subs, vec![0, 1, 2]);
        let mut seen = std::collections::HashSet::new();
        while let Some(t) = ctx.collect::<i64>() {
            seen.insert(t.attrs.worker);
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn revived_worker_resyncs_history_broadcast() {
        use crate::broadcast::AsyncBcast;
        let mut ctx = quiet_ctx(2, DelayModel::None);
        let rdd = unit_rdd(2);
        let bcast: AsyncBcast<Vec<f64>> = ctx.async_broadcast(vec![1.0, 2.0], 0);
        let handle = bcast.handle();
        let read_model = move |wctx: &mut WorkerCtx, _data: Vec<i64>, _part: usize| -> f64 {
            handle.value(wctx)[0]
        };
        ctx.async_reduce(
            &rdd,
            &BarrierFilter::Asp,
            SubmitOpts::default(),
            read_model.clone(),
        );
        while ctx.collect::<f64>().is_some() {}
        assert_eq!(bcast.stats().fetches, 2, "one cold fetch per worker");
        // Kill + revive worker 1: its cache is gone, so its first task
        // must pull the model again — the broadcast re-sync.
        ctx.driver_mut().kill_worker(1);
        while ctx.collect::<f64>().is_some() {}
        ctx.driver_mut().revive_worker(1).unwrap();
        while ctx.collect::<f64>().is_some() {}
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), read_model);
        let mut vals = Vec::new();
        while let Some(t) = ctx.collect::<f64>() {
            vals.push(t.value);
        }
        assert_eq!(vals, vec![1.0, 1.0], "both workers read the model");
        assert_eq!(
            bcast.stats().fetches,
            3,
            "the revived worker re-fetched; the survivor hit its cache"
        );
    }

    #[test]
    fn async_aggregate_folds_partitions() {
        let mut ctx = quiet_ctx(2, DelayModel::None);
        let rdd = Rdd::parallelize(vec![vec![1i64, 2, 3], vec![4, 5]]);
        ctx.async_aggregate(
            &rdd,
            &BarrierFilter::Asp,
            SubmitOpts::default(),
            0i64,
            |acc, x| acc + x,
        );
        let mut partials = Vec::new();
        while let Some(t) = ctx.collect::<i64>() {
            partials.push(t.value);
        }
        partials.sort_unstable();
        assert_eq!(partials, vec![6, 9]);
    }

    #[test]
    fn workers_cycle_through_their_partitions() {
        // 1 worker owning 3 partitions: successive tasks walk p0, p1, p2.
        let mut ctx = quiet_ctx(1, DelayModel::None);
        let rdd = unit_rdd(3);
        let mut seen = Vec::new();
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        for _ in 0..6 {
            let t = ctx.collect::<i64>().expect("result");
            seen.push(t.attrs.partition);
            ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        }
        assert_eq!(seen, vec![0, 1, 2, 0, 1, 2]);
        while ctx.collect::<i64>().is_some() {}
    }

    #[test]
    fn broadcast_ids_are_unique() {
        let mut ctx = quiet_ctx(1, DelayModel::None);
        let a = ctx.async_broadcast(vec![0.0f64; 4], 10);
        let b = ctx.async_broadcast(vec![1.0f64; 4], 10);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    #[should_panic(expected = "result type mismatch")]
    fn collect_with_wrong_type_panics() {
        let mut ctx = quiet_ctx(1, DelayModel::None);
        let rdd = unit_rdd(1);
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        let _ = ctx.collect::<String>();
    }

    #[test]
    fn defaults_leave_losses_unretried_but_counted() {
        let mut ctx = quiet_ctx(3, DelayModel::None);
        assert_eq!(ctx.degrade, DegradePolicy::BestEffort);
        assert_eq!(ctx.retry_lost(), 0);
        let rdd = unit_rdd(3);
        ctx.driver_mut().schedule_failure(2, VTime::from_micros(10));
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        let mut n = 0;
        while ctx.collect::<i64>().is_some() {
            n += 1;
        }
        assert_eq!(n, 2, "the lost task is not replayed by default");
        assert_eq!(ctx.lost_tasks(), 1);
        assert_eq!(ctx.retried_tasks(), 0);
        assert_eq!(ctx.retries_pending(), 0);
    }

    #[test]
    fn retry_reassigns_a_lost_task_to_a_survivor() {
        let mut ctx = quiet_ctx(2, DelayModel::None);
        ctx.set_retry_lost(2);
        let rdd = unit_rdd(2);
        // Worker 1 dies 10 µs in — its task (partition 1) is lost and must
        // resurface on worker 0 after worker 0 finishes its own task.
        ctx.driver_mut().schedule_failure(1, VTime::from_micros(10));
        let subs = ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        assert_eq!(subs, vec![0, 1]);
        let mut got = Vec::new();
        while let Some(t) = ctx.collect::<i64>() {
            got.push((t.attrs.worker, t.attrs.partition, t.value));
        }
        got.sort_unstable();
        // Both partitions complete, both on worker 0.
        assert_eq!(got, vec![(0, 0, 0), (0, 1, 1)]);
        assert_eq!(ctx.retried_tasks(), 1);
        assert_eq!(ctx.lost_tasks(), 0);
        assert!(!ctx.has_next());
    }

    #[test]
    fn retried_tasks_keep_their_original_issued_version() {
        let mut ctx = quiet_ctx(2, DelayModel::None);
        ctx.set_retry_lost(1);
        let rdd = unit_rdd(2);
        ctx.driver_mut().schedule_failure(1, VTime::from_micros(10));
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        // Model advances while the wave is in flight: the retried task
        // still reports staleness against its original submission version.
        ctx.advance_version();
        ctx.advance_version();
        let mut attrs = Vec::new();
        while let Some(t) = ctx.collect::<i64>() {
            attrs.push(t.attrs);
        }
        assert_eq!(attrs.len(), 2);
        for a in &attrs {
            assert_eq!(a.issued_version, 0);
            assert_eq!(a.staleness, 2);
        }
    }

    #[test]
    fn retry_attempts_are_bounded() {
        let mut ctx = quiet_ctx(2, DelayModel::None);
        ctx.set_retry_lost(1);
        let rdd = unit_rdd(2);
        // Worker 1 dies early; its task retries once onto worker 0 (after
        // worker 0's own 1 s task completes), and worker 0 dies mid-retry.
        ctx.driver_mut().schedule_failure(1, VTime::from_micros(10));
        ctx.driver_mut()
            .schedule_failure(0, VTime::from_micros(1_500_000));
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        let mut n = 0;
        while ctx.collect::<i64>().is_some() {
            n += 1;
        }
        assert_eq!(n, 1, "only worker 0's own task completes");
        assert_eq!(ctx.retried_tasks(), 1);
        assert_eq!(ctx.lost_tasks(), 1, "the exhausted retry is abandoned");
        assert_eq!(ctx.retries_pending(), 0);
    }

    #[test]
    fn unplaceable_retries_queue_then_cancel() {
        let mut ctx = quiet_ctx(1, DelayModel::None);
        ctx.set_retry_lost(3);
        let rdd = unit_rdd(1);
        ctx.driver_mut().schedule_failure(0, VTime::from_micros(10));
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        assert!(ctx.collect::<i64>().is_none());
        // The sole worker is dead: the retry cannot be placed anywhere.
        assert_eq!(ctx.retries_pending(), 1);
        assert!(ctx.has_next(), "a queued retry keeps the pipeline open");
        assert_eq!(ctx.cancel_retries(), 1);
        assert_eq!(ctx.lost_tasks(), 1);
        assert!(!ctx.has_next());
    }

    #[test]
    fn degrade_directives_follow_the_alive_set() {
        let mut ctx = quiet_ctx(4, DelayModel::None);
        assert_eq!(ctx.degrade_directive(), WaveDirective::Proceed);
        ctx.set_degrade_policy(DegradePolicy::FailFast);
        assert_eq!(ctx.degrade_directive(), WaveDirective::Proceed);
        // One death: FailFast halts, Quorum(0.5) and BestEffort proceed.
        ctx.driver_mut().kill_worker(3);
        while ctx.collect::<i64>().is_some() {}
        assert_eq!(ctx.degrade_directive(), WaveDirective::Halt);
        ctx.set_degrade_policy(DegradePolicy::Quorum(0.5));
        assert_eq!(ctx.degrade_directive(), WaveDirective::Proceed);
        // Two more deaths: 1/4 alive is below quorum, and with no
        // scheduled recovery the directive is Halt.
        ctx.driver_mut().kill_worker(2);
        ctx.driver_mut().kill_worker(1);
        while ctx.collect::<i64>().is_some() {}
        assert_eq!(ctx.degrade_directive(), WaveDirective::Halt);
        ctx.set_degrade_policy(DegradePolicy::BestEffort);
        assert_eq!(ctx.degrade_directive(), WaveDirective::Proceed);
        // Full blackout without recovery: even BestEffort halts.
        ctx.driver_mut().kill_worker(0);
        while ctx.collect::<i64>().is_some() {}
        assert_eq!(ctx.degrade_directive(), WaveDirective::Halt);
        // A scheduled revival turns Halt into Wait, and awaiting it
        // restores Proceed.
        let at = ctx.now() + VDur::from_millis(5);
        ctx.driver_mut().schedule_revival(0, at);
        assert_eq!(ctx.degrade_directive(), WaveDirective::Wait);
        assert!(ctx.await_recovery());
        assert_eq!(ctx.stat().alive_count(), 1);
        assert_eq!(ctx.degrade_directive(), WaveDirective::Proceed);
    }

    #[test]
    fn await_recovery_flushes_queued_retries_onto_the_newcomer() {
        let mut ctx = quiet_ctx(1, DelayModel::None);
        ctx.set_retry_lost(2);
        let rdd = unit_rdd(1);
        ctx.driver_mut().schedule_failure(0, VTime::from_micros(10));
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        assert!(ctx.collect::<i64>().is_none());
        assert_eq!(ctx.retries_pending(), 1);
        let at = ctx.now() + VDur::from_millis(2);
        ctx.driver_mut().schedule_revival(0, at);
        assert!(ctx.await_recovery());
        // The queued retry was re-issued onto the revived worker.
        assert_eq!(ctx.retries_pending(), 0);
        let t = ctx.collect::<i64>().expect("retried result");
        assert_eq!(t.value, 0);
        assert_eq!(ctx.retried_tasks(), 1);
        assert_eq!(ctx.lost_tasks(), 0);
    }
}

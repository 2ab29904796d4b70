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
//! * **The task ledger**: a running task's row is its worker's `STAT`
//!   in-flight slot, and every task ends in exactly one counted fate —
//!   delivered, lost or drained ([`TaskCounts`]).
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
use crate::stat::{InFlight, StatSnapshot, StatTable};

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

/// What [`AsyncContext::degrade_directive`] tells the caller to do right
/// now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveDirective {
    /// A worker is alive: submit the next wave.
    Proceed,
    /// Every worker is dead but the engine has a scheduled membership
    /// event (e.g. a supervised respawn): wait for it
    /// ([`AsyncContext::await_recovery`]) instead of giving up.
    Wait,
    /// Every worker is dead and no recovery is scheduled: stop.
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

/// What re-submitting a task takes beyond its `STAT` row: captured at
/// issue only when retries are on, kept beside the row while it runs.
struct Replay {
    cost: f64,
    extra_bytes: u64,
    run: Arc<dyn Fn() -> TaskFn + Send + Sync>,
    wire: Option<RemoteRoutine>,
}

/// The task ledger's counts. A task is issued once and ends in exactly one
/// of `delivered`, `lost` or `drained`; once a run's
/// [`AsyncContext::discard_in_flight`] returns,
/// `issued == delivered + lost + drained`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCounts {
    /// Tasks submitted by a reduce (re-submissions excluded).
    pub issued: u64,
    /// Re-submissions of lost tasks to a surviving worker.
    pub retried: u64,
    /// Results handed out by a collect.
    pub delivered: u64,
    /// Tasks whose worker died with no attempt left: the retry budget gave
    /// up on them.
    pub lost: u64,
    /// Tasks in flight, unconsumed or queued for a retry when the run
    /// stopped, whether they then finished or died: discarded, never
    /// re-issued.
    pub drained: u64,
    /// Notifications that match no running task — a `Done` or `Lost` from a
    /// worker with none, a `Lost` with another task's tag, a death of a dead
    /// worker. Counted and otherwise ignored; 0 on a correct engine.
    pub violations: u64,
}

/// The ASYNC coordinator. See the module docs.
pub struct AsyncContext {
    driver: Driver,
    stat: StatTable,
    version: u64,
    ready: VecDeque<Tagged<Box<dyn Any + Send>>>,
    next_bcast_id: u64,
    retry_max: u32,
    /// Per worker, the replay of its running task (retries on only).
    replays: Vec<Option<Replay>>,
    /// Lost tasks awaiting re-submission to a surviving worker.
    retry_queue: VecDeque<(InFlight, Replay)>,
    counts: TaskCounts,
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
            retry_max: 0,
            replays: Vec::new(),
            retry_queue: VecDeque::new(),
            counts: TaskCounts::default(),
        }
    }

    /// A context over the deterministic simulated engine.
    ///
    /// # Panics
    /// As [`Driver::sim`]: if the spec fails validation.
    pub fn sim(spec: ClusterSpec) -> Self {
        Self::new(Driver::sim(spec))
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
        // invariant: documented above; a caller re-seats between runs.
        assert_eq!(
            self.pending(),
            0,
            "reseat_version: context has in-flight tasks"
        );
        self.version = version;
    }

    /// Enables task retry: a task surfacing as [`Completion::Lost`] is
    /// re-submitted to a surviving worker (at its *original* model version)
    /// up to `max_attempts` times before it is counted lost in
    /// [`AsyncContext::task_counts`]. `0` (the default) disables retries —
    /// no replay state is captured at submission.
    pub fn set_retry_lost(&mut self, max_attempts: u32) {
        self.retry_max = max_attempts;
    }

    /// The configured retry bound (0 = retries off).
    pub fn retry_lost(&self) -> u32 {
        self.retry_max
    }

    /// The task ledger's counts so far.
    pub fn task_counts(&self) -> TaskCounts {
        self.counts
    }

    /// Ends a run: every task queued for a retry, in flight or unconsumed
    /// is drained — a running one pumped to its finish or death first —
    /// and discarded. Nothing is re-issued, so nothing is left pending,
    /// queued or ready.
    pub fn discard_in_flight(&mut self) {
        self.counts.drained += self.retry_queue.len() as u64;
        self.retry_queue.clear();
        while let Some(c) = self.driver.next_completion() {
            self.absorb(c, true);
        }
        self.counts.drained += self.ready.len() as u64;
        self.ready.clear();
    }

    /// What to do about the current alive set: proceed while any worker
    /// is alive, wait if every worker is dead and a recovery is scheduled,
    /// halt otherwise. Callers consult this at wave boundaries — most
    /// usefully when a collect came back empty. "Recovery is scheduled" is
    /// read from [`sparklet::Driver::next_event_at`], so supervised
    /// respawns and scripted chaos revivals both count.
    pub fn degrade_directive(&self) -> WaveDirective {
        let snap = self.stat.snapshot(self.driver.now(), self.version);
        if snap.alive_count() > 0 {
            WaveDirective::Proceed
        } else if self.driver.next_event_at().is_some() {
            WaveDirective::Wait
        } else {
            WaveDirective::Halt
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
                self.absorb(c, false);
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
    /// `STAT` table, engine-gated). Retries that cannot be placed stay
    /// queued for the next flush. No-op (and allocation-free) when the
    /// queue is empty — i.e. always, unless retries are enabled and a task
    /// was lost.
    fn flush_retries(&mut self) {
        while let Some((task, replay)) = self.retry_queue.pop_front() {
            let target = (0..self.stat.len()).find(|&w| {
                let row = self.stat.get(w);
                row.alive && row.available && self.driver.available(w)
            });
            let issued_at = self.driver.now();
            // Placed when there is a target and the engine accepts the task.
            let placed = target.filter(|&w| {
                let wire = replay.wire.as_ref().map(|r| r.wire_task(task.tag as usize));
                let (cost, bytes, run) = (replay.cost, replay.extra_bytes, (replay.run)());
                self.driver
                    .submit_raw(w, task.tag, cost, bytes, run, wire)
                    .is_ok()
            });
            let Some(w) = placed else {
                self.retry_queue.push_front((task, replay));
                break;
            };
            self.counts.retried += 1;
            let attempts = task.attempts + 1;
            let task = InFlight {
                issued_at,
                attempts,
                ..task
            };
            self.seat(w, task, Some(replay));
        }
    }

    /// Seats a submitted task in `w`'s `STAT` row, its replay beside it.
    fn seat(&mut self, w: WorkerId, task: InFlight, replay: Option<Replay>) {
        self.stat.task_issued(w, task);
        if self.replays.len() <= w {
            self.replays.resize_with(w + 1, || None);
        }
        self.replays[w] = replay;
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
                self.counts.issued += 1;
                // With retries on, keep what replaying this task takes if
                // its worker dies. Off (the default), nothing is captured.
                let replay = (self.retry_max > 0).then(|| {
                    let (rdd, f) = (rdd.clone(), f.clone());
                    Replay {
                        cost,
                        extra_bytes: opts.extra_bytes,
                        run: Arc::new(move || run_closure(rdd.clone(), f.clone(), part)),
                        wire: remote.cloned(),
                    }
                });
                let task = InFlight {
                    tag: part as u64,
                    issued_version: self.version,
                    issued_at,
                    minibatch: opts.minibatch,
                    attempts: 0,
                };
                self.seat(w, task, replay);
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

    /// True while unconsumed results exist, tasks are in flight, or a queued
    /// retry waits on a scheduled membership event that could place it —
    /// the paper's `AC.hasNext()`.
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
        !self.ready.is_empty()
            || self.driver.pending() > 0
            || (!self.retry_queue.is_empty() && self.driver.next_event_at().is_some())
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
            self.absorb(c, false);
            // A loss absorbed just now may have queued a retry: re-issue
            // immediately so the pump keeps blocking on the replacement.
            self.flush_retries();
        }
        self.deliver()
    }

    /// The paper's `ASYNCcollectAll()`: every result the server has
    /// received *as of now*, without blocking or advancing time.
    ///
    /// # Panics
    /// Panics if any collected result's type is not `R`.
    pub fn collect_all<R: Send + 'static>(&mut self) -> Vec<Tagged<R>> {
        while let Some(c) = self.driver.try_next_completion() {
            self.absorb(c, false);
        }
        self.flush_retries();
        std::iter::from_fn(|| self.deliver()).collect()
    }

    /// Hands out the earliest ready result: the *delivered* transition.
    fn deliver<R: Send + 'static>(&mut self) -> Option<Tagged<R>> {
        let Tagged { value, attrs } = self.ready.pop_front()?;
        self.counts.delivered += 1;
        let value = *value.downcast::<R>().unwrap_or_else(|_| {
            // invariant: a pipeline collects the type it submitted (every
            // collect documents the panic).
            panic!(
                "collect::<{}>: result type mismatch",
                std::any::type_name::<R>()
            )
        });
        Some(Tagged { value, attrs })
    }

    /// The §4.2 result pump: folds one engine notification into `STAT` and
    /// the ledger. A finished task's result is tagged with [`TaskAttrs`]
    /// and made ready; a dead worker's task is retried, lost, or — when
    /// `stopping` — drained. A notification that matches no running task
    /// is a counted violation and changes nothing else.
    fn absorb(&mut self, c: Completion, stopping: bool) {
        match c {
            Completion::Done(d) => {
                let completed = self
                    .stat
                    .task_completed(d.worker, d.finished_at, d.service_time);
                let Some(inflight) = completed else {
                    self.counts.violations += 1;
                    return;
                };
                self.replays[d.worker] = None;
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
            Completion::Lost { worker, tag } => self.worker_died(worker, Some(tag), stopping),
            Completion::WorkerDown { worker } => self.worker_died(worker, None, stopping),
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

    /// A death of `worker`, running the task tagged `tag` (`None`: idle).
    fn worker_died(&mut self, worker: WorkerId, tag: Option<u64>, stopping: bool) {
        let row = (worker < self.stat.len()).then(|| *self.stat.get(worker));
        let placed = match (row, tag) {
            (Some(row), Some(tag)) => row.inflight.is_some_and(|t| t.tag == tag),
            (Some(row), None) => row.alive,
            (None, _) => false,
        };
        if !placed {
            self.counts.violations += 1;
            return;
        }
        let Some(task) = self.stat.worker_died(worker) else {
            return;
        };
        match self.replays[worker].take() {
            _ if stopping => self.counts.drained += 1,
            Some(r) if task.attempts < self.retry_max => self.retry_queue.push_back((task, r)),
            _ => self.counts.lost += 1,
        }
    }
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

    /// Lost tasks waiting for a retry, read off the ledger: issued tasks
    /// with no fate yet that are not in flight (valid with nothing ready).
    fn queued(ctx: &AsyncContext) -> u64 {
        let c = ctx.task_counts();
        c.issued - c.delivered - c.lost - c.drained - ctx.pending() as u64
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
        assert_eq!(ctx.retry_lost(), 0);
        let rdd = unit_rdd(3);
        ctx.driver_mut().schedule_failure(2, VTime::from_micros(10));
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        let mut n = 0;
        while ctx.collect::<i64>().is_some() {
            n += 1;
        }
        assert_eq!(n, 2, "the lost task is not replayed by default");
        let c = ctx.task_counts();
        assert_eq!((c.issued, c.delivered, c.lost, c.retried), (3, 2, 1, 0));
        assert_eq!(queued(&ctx), 0);
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
        let c = ctx.task_counts();
        assert_eq!((c.issued, c.retried, c.delivered, c.lost), (2, 1, 2, 0));
        assert!(!ctx.has_next());
    }

    #[test]
    fn a_retried_task_keeps_its_original_issued_version() {
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
        let c = ctx.task_counts();
        assert_eq!(c.retried, 1);
        assert_eq!(c.lost, 1, "the exhausted retry is abandoned");
        assert_eq!(queued(&ctx), 0);
    }

    #[test]
    fn unplaceable_retries_queue_then_cancel() {
        let mut ctx = quiet_ctx(1, DelayModel::None);
        ctx.set_retry_lost(3);
        let rdd = unit_rdd(1);
        ctx.driver_mut().schedule_failure(0, VTime::from_micros(10));
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        assert!(ctx.collect::<i64>().is_none());
        // The sole worker is dead: the retry cannot be placed anywhere, and
        // with nothing scheduled it never will be.
        assert_eq!(queued(&ctx), 1);
        assert!(!ctx.has_next(), "nothing can place the queued retry");
        // A scheduled revival could: the pipeline is open again.
        ctx.driver_mut()
            .schedule_revival(0, VTime::from_micros(2_000_000));
        assert!(ctx.has_next(), "a revival is scheduled for the retry");
        // Stopping here drains the queued retry; the revival is not waited
        // on.
        ctx.discard_in_flight();
        let c = ctx.task_counts();
        assert_eq!((c.issued, c.lost, c.drained, c.retried), (1, 0, 1, 0));
        assert_eq!(queued(&ctx), 0);
    }

    #[test]
    fn the_canonical_has_next_loop_ends_when_a_retry_cannot_be_placed() {
        let mut ctx = quiet_ctx(1, DelayModel::None);
        ctx.set_retry_lost(3);
        let rdd = unit_rdd(1);
        ctx.driver_mut().schedule_failure(0, VTime::from_micros(10));
        ctx.async_reduce(&rdd, &BarrierFilter::Asp, SubmitOpts::default(), sum_task);
        let mut iterations = 0;
        while ctx.has_next() {
            ctx.collect::<i64>();
            iterations += 1;
            assert!(
                iterations < 1_000,
                "has_next() spins on an unplaceable retry"
            );
        }
        assert_eq!(queued(&ctx), 1);
    }

    #[test]
    fn discarding_drains_running_tasks_without_reissuing_them() {
        // Three tasks in flight when the run stops: one finishes, one's
        // worker dies (with retries on and a survivor idle), one finishes
        // and waits unconsumed. All three are drained; none is re-issued.
        let mut ctx = quiet_ctx(3, DelayModel::None);
        ctx.set_retry_lost(2);
        ctx.driver_mut().schedule_failure(1, VTime::from_micros(10));
        ctx.async_reduce(
            &unit_rdd(3),
            &BarrierFilter::Asp,
            SubmitOpts::default(),
            sum_task,
        );
        ctx.discard_in_flight();
        let c = ctx.task_counts();
        assert_eq!((c.issued, c.drained, c.lost, c.retried), (3, 3, 0, 0));
        assert_eq!((c.delivered, c.violations), (0, 0));
        assert_eq!(ctx.pending(), 0);
        assert!(!ctx.has_next());
    }

    #[test]
    fn degrade_directives_follow_the_alive_set() {
        let mut ctx = quiet_ctx(4, DelayModel::None);
        assert_eq!(ctx.degrade_directive(), WaveDirective::Proceed);
        // Three deaths: one survivor is enough to proceed.
        for worker in 1..4 {
            ctx.driver_mut().kill_worker(worker);
        }
        while ctx.collect::<i64>().is_some() {}
        assert_eq!(ctx.degrade_directive(), WaveDirective::Proceed);
        // Full blackout without recovery halts.
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
        assert_eq!(queued(&ctx), 1);
        let at = ctx.now() + VDur::from_millis(2);
        ctx.driver_mut().schedule_revival(0, at);
        assert!(ctx.await_recovery());
        // The queued retry was re-issued onto the revived worker.
        assert_eq!(ctx.pending(), 1);
        let t = ctx.collect::<i64>().expect("retried result");
        assert_eq!(t.value, 0);
        let c = ctx.task_counts();
        assert_eq!((c.retried, c.delivered, c.lost), (1, 1, 0));
    }

    /// An engine that accepts every submission and replays a fixed script
    /// of notifications, including ones a correct engine never sends.
    struct Scripted(VecDeque<Completion>);

    impl sparklet::Engine for Scripted {
        fn workers(&self) -> usize {
            2
        }
        fn now(&self) -> VTime {
            VTime::ZERO
        }
        fn available(&self, _w: WorkerId) -> bool {
            true
        }
        fn alive(&self, _w: WorkerId) -> bool {
            true
        }
        fn submit(
            &mut self,
            _w: WorkerId,
            _task: sparklet::Task,
        ) -> Result<(), sparklet::EngineError> {
            Ok(())
        }
        fn next(&mut self) -> Option<Completion> {
            self.0.pop_front()
        }
        fn try_next(&mut self) -> Option<Completion> {
            self.0.pop_front()
        }
        fn pending(&self) -> usize {
            self.0.len()
        }
        fn kill_worker(&mut self, _w: WorkerId) {}
        fn revive_worker(&mut self, w: WorkerId) -> Result<(), sparklet::EngineError> {
            Err(sparklet::EngineError::WorkerAlive(w))
        }
        fn add_worker(&mut self) -> WorkerId {
            2
        }
    }

    #[test]
    fn a_kill_and_revival_not_yet_read_seat_no_task_on_the_worker() {
        // The threaded and remote engines apply a kill and a revival at
        // once but report both through their queues; until they are read,
        // `STAT` shows worker 1 alive and idle. A task seated there would
        // absorb the old death as its own loss, and its result would then
        // be unplaceable.
        fn echo() -> sparklet::RoutineRegistry {
            let mut reg = sparklet::RoutineRegistry::new();
            reg.register(1, |_ctx, req| Ok(req.to_vec()));
            reg
        }
        let spec = || ClusterSpec::homogeneous(2, DelayModel::None);
        let remote = sparklet::EngineBuilder::remote()
            .spec(spec())
            .time_scale(0.0)
            .loopback_workers(Arc::new(echo))
            .build()
            .expect("loopback workers start");
        let routine = RemoteRoutine {
            routine: 1,
            build: Arc::new(|_, part| vec![part as u8]),
            decode: Arc::new(|b| Ok(Box::new(i64::from(b[0])) as Box<dyn Any + Send>)),
        };
        let threaded = sparklet::EngineBuilder::threaded()
            .spec(spec())
            .time_scale(0.0)
            .build()
            .expect("valid spec");
        for engine in [threaded, remote] {
            let mut ctx = AsyncContext::new(Driver::from_engine(engine));
            ctx.driver_mut().kill_worker(1);
            ctx.driver_mut()
                .revive_worker(1)
                .expect("a dead worker revives");
            let asp = BarrierFilter::Asp;
            ctx.async_reduce_wired(
                &unit_rdd(2),
                &asp,
                SubmitOpts::default(),
                sum_task,
                Some(&routine),
            );
            while ctx.collect::<i64>().is_some() {}
            let c = ctx.task_counts();
            assert_eq!(c.violations, 0, "{c:?}");
            assert_eq!(c.issued, c.delivered + c.lost + c.drained, "{c:?}");
        }
    }

    #[test]
    fn a_join_whose_spawn_fails_is_reported_not_panicked() {
        // Loopback workers whose third start panics before connecting: the
        // two founders start, and the joiner's handshake times out. The
        // joiner is an incarnation that died at birth — announced, then
        // down — so neither the driver nor `STAT` meets an id it never saw.
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let registry = Arc::new(move || {
            let call = calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            assert_ne!(call, 2, "the third worker start fails");
            let mut reg = sparklet::RoutineRegistry::new();
            reg.register(1, |_ctx, req| Ok(req.to_vec()));
            reg
        });
        let cfg = sparklet::RemoteConfig {
            handshake_timeout: std::time::Duration::from_millis(200),
            launcher: sparklet::remote::WorkerLauncher::Loopback(registry),
            ..sparklet::RemoteConfig::process(std::path::PathBuf::new())
        };
        let spec = ClusterSpec::homogeneous(2, DelayModel::None);
        let engine = sparklet::RemoteEngine::new(spec, 0.0, cfg).expect("the founders start");
        let mut ctx = AsyncContext::new(Driver::from_engine(Box::new(engine)));
        ctx.driver_mut().schedule_join(VTime::ZERO);
        while ctx.collect::<i64>().is_some() {}
        assert_eq!(ctx.driver().workers(), 3);
        assert_eq!(ctx.driver().alive_workers(), vec![0, 1]);
        // The survivors still take a wave; the dead joiner takes nothing.
        let routine = RemoteRoutine {
            routine: 1,
            build: Arc::new(|_, part| vec![part as u8]),
            decode: Arc::new(|b| Ok(Box::new(i64::from(b[0])) as Box<dyn Any + Send>)),
        };
        let asp = BarrierFilter::Asp;
        let subs = ctx.async_reduce_wired(
            &unit_rdd(3),
            &asp,
            SubmitOpts::default(),
            sum_task,
            Some(&routine),
        );
        assert_eq!(subs.len(), 2);
        while ctx.collect::<i64>().is_some() {}
        let c = ctx.task_counts();
        assert_eq!(c.violations, 0, "{c:?}");
        assert_eq!((c.issued, c.delivered), (2, 2), "{c:?}");
    }

    /// Runs `script` against a context that first issued one task to each
    /// of `busy`'s workers (partition = worker), with retries on; returns
    /// the ledger after everything is collected.
    fn scripted(busy: &[WorkerId], script: Vec<Completion>) -> TaskCounts {
        let engine = Scripted(script.into());
        let mut ctx = AsyncContext::new(Driver::from_engine(Box::new(engine)));
        ctx.set_retry_lost(1);
        for &w in busy {
            let only_w = BarrierFilter::custom(move |_snap, x| x == w);
            ctx.async_reduce(&unit_rdd(2), &only_w, SubmitOpts::default(), sum_task);
        }
        while ctx.collect::<i64>().is_some() {}
        ctx.task_counts()
    }

    fn done(worker: WorkerId) -> Completion {
        Completion::Done(sparklet::TaskDone {
            worker,
            tag: worker as u64,
            output: Box::new(7i64),
            issued_at: VTime::ZERO,
            finished_at: VTime::ZERO,
            service_time: VDur::ZERO,
            bytes_in: 0,
        })
    }

    #[test]
    fn a_result_from_an_idle_worker_is_a_violation_not_a_panic() {
        let c = scripted(&[0], vec![done(1), done(0)]);
        assert_eq!(c.violations, 1);
        assert_eq!((c.issued, c.delivered, c.lost), (1, 1, 0));
    }

    #[test]
    fn a_loss_with_no_running_task_is_a_violation_not_a_loss() {
        let c = scripted(&[0], vec![Completion::Lost { worker: 1, tag: 1 }, done(0)]);
        assert_eq!(c.violations, 1);
        assert_eq!((c.issued, c.delivered, c.lost), (1, 1, 0));
        // A loss carrying another task's tag cannot be placed either.
        let c = scripted(&[0], vec![Completion::Lost { worker: 0, tag: 9 }, done(0)]);
        assert_eq!(c.violations, 1);
        assert_eq!((c.issued, c.delivered, c.lost), (1, 1, 0));
    }

    #[test]
    fn one_death_reported_twice_is_one_loss_and_one_violation() {
        // Worker 1 dies once but is reported as a lost task and then as an
        // idle death. Worker 0 stays busy, so the retry cannot be placed.
        let script = vec![
            Completion::Lost { worker: 1, tag: 1 },
            Completion::WorkerDown { worker: 1 },
        ];
        let c = scripted(&[0, 1], script);
        assert_eq!(c.violations, 1);
        assert_eq!((c.issued, c.delivered, c.lost, c.retried), (2, 0, 0, 0));
    }
}

//! The driver: cluster membership, partition ownership, wait-time
//! bookkeeping, supervised respawn, and the submission API.
//!
//! The driver owns the engine and the cluster-wide wait-time recorder. It
//! schedules nothing itself: the asynchronous layer (`async-core`) decides
//! which worker runs which partition and when, through
//! [`Driver::submit_raw`] / [`Driver::next_completion`]. A synchronous job
//! is that same loop under `BarrierFilter::Bsp`.

use async_cluster::{
    ChaosAction, ChaosSchedule, ClusterSpec, VDur, VTime, WaitTimeRecorder, WorkerId,
};

use crate::builder::EngineBuilder;
use crate::engine::{Completion, Engine, EngineError, Task, TaskFn, WireTask};

/// Supervised auto-respawn policy: when a worker dies for *any* reason —
/// scripted chaos, a crashed process, a missed liveness or task deadline —
/// the driver schedules a revival after an exponentially backed-off,
/// jittered delay, unless the worker is crash-looping.
///
/// Delays are virtual durations, so the same policy is deterministic on
/// the simulator (byte-gateable) and maps to real elapsed time on the
/// threaded/remote backends. The jitter stream is seeded, never
/// wall-clock.
#[derive(Debug, Clone)]
pub struct SuperviseCfg {
    /// Delay before the first respawn attempt.
    pub backoff_base: VDur,
    /// Multiplier applied per consecutive crash (≥ 1).
    pub backoff_factor: f64,
    /// Ceiling on the backed-off delay (before jitter).
    pub backoff_max: VDur,
    /// Uniform jitter fraction: the delay is stretched by up to this
    /// fraction (e.g. `0.1` → ×[1.0, 1.1)). Keeps respawn herds apart.
    pub jitter_frac: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
    /// Circuit breaker: after this many consecutive crashes (each without
    /// `crash_window` of uptime in between) the worker is abandoned — no
    /// further respawns until something external revives it.
    pub max_crashes: u32,
    /// Uptime that counts as "recovered": a death after at least this much
    /// uptime starts a fresh crash streak.
    pub crash_window: VDur,
}

impl Default for SuperviseCfg {
    fn default() -> Self {
        Self {
            backoff_base: VDur::from_millis(10),
            backoff_factor: 2.0,
            backoff_max: VDur::from_millis(1_000),
            jitter_frac: 0.1,
            seed: 0x5EED_CAFE,
            max_crashes: 5,
            crash_window: VDur::from_millis(500),
        }
    }
}

/// Per-worker supervisor bookkeeping (see [`SuperviseCfg`]).
struct Supervisor {
    cfg: SuperviseCfg,
    rng: u64,
    /// A supervised revival is already scheduled; don't schedule another
    /// (one death can surface as several `Lost` completions when multiple
    /// tasks were in flight).
    scheduled: Vec<bool>,
    /// Consecutive crashes without `crash_window` of uptime in between.
    streak: Vec<u32>,
    /// When the worker last came (or started) up.
    up_since: Vec<VTime>,
    /// Circuit open: crash-looped past `max_crashes`, abandoned.
    broken: Vec<bool>,
    respawns: u64,
}

impl Supervisor {
    fn new(cfg: SuperviseCfg, workers: usize, now: VTime) -> Self {
        let rng = cfg.seed | 1;
        Self {
            cfg,
            rng,
            scheduled: vec![false; workers],
            streak: vec![0; workers],
            up_since: vec![now; workers],
            broken: vec![false; workers],
            respawns: 0,
        }
    }

    fn grow(&mut self, workers: usize, now: VTime) {
        while self.scheduled.len() < workers {
            self.scheduled.push(false);
            self.streak.push(0);
            self.up_since.push(now);
            self.broken.push(false);
        }
    }

    /// Next uniform sample in `[0, 1)` from the seeded jitter stream
    /// (splitmix64).
    fn unit(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Registers a death at `now`; returns the instant to schedule the
    /// respawn at, or `None` when the circuit is (now) open.
    fn on_death(&mut self, w: WorkerId, now: VTime) -> Option<VTime> {
        if self.broken[w] {
            return None;
        }
        if now.saturating_since(self.up_since[w]) >= self.cfg.crash_window {
            self.streak[w] = 0;
        }
        self.streak[w] += 1;
        if self.streak[w] > self.cfg.max_crashes {
            self.broken[w] = true;
            return None;
        }
        let exp = (self.streak[w] - 1).min(30);
        let backed = (self.cfg.backoff_base.as_micros() as f64
            * self.cfg.backoff_factor.powi(exp as i32))
        .min(self.cfg.backoff_max.as_micros() as f64);
        let jittered = backed * (1.0 + self.cfg.jitter_frac * self.unit());
        self.respawns += 1;
        Some(now + VDur::from_micros(jittered.round() as u64))
    }
}

/// The cluster driver. See the module docs.
pub struct Driver {
    engine: Box<dyn Engine>,
    wait: WaitTimeRecorder,
    total_bytes: u64,
    supervisor: Option<Supervisor>,
}

impl Driver {
    /// A driver over the deterministic simulated engine.
    ///
    /// # Panics
    /// Panics if the spec fails validation ([`EngineBuilder::build`]
    /// returns the error instead).
    pub fn sim(spec: ClusterSpec) -> Self {
        Self::from_engine(
            EngineBuilder::sim()
                .spec(spec)
                .build()
                .expect("invalid cluster spec"),
        )
    }

    /// A driver over any engine implementation.
    pub fn from_engine(engine: Box<dyn Engine>) -> Self {
        let n = engine.workers();
        Self {
            engine,
            wait: WaitTimeRecorder::new(n),
            total_bytes: 0,
            supervisor: None,
        }
    }

    /// Installs the supervised auto-respawn policy: every subsequent
    /// death observed through the completion stream schedules a backed-off
    /// jittered revival (see [`SuperviseCfg`]). Scripted
    /// [`ChaosSchedule`] revivals compose — reviving an alive worker is a
    /// no-op at fire time.
    pub fn supervise(&mut self, cfg: SuperviseCfg) {
        let now = self.engine.now();
        self.supervisor = Some(Supervisor::new(cfg, self.engine.workers(), now));
    }

    /// Respawns the supervisor has scheduled so far (0 when supervision is
    /// not installed).
    pub fn supervised_respawns(&self) -> u64 {
        self.supervisor.as_ref().map_or(0, |s| s.respawns)
    }

    /// True when the supervisor abandoned `w` after it crash-looped past
    /// [`SuperviseCfg::max_crashes`].
    pub fn circuit_open(&self, w: WorkerId) -> bool {
        self.supervisor
            .as_ref()
            .is_some_and(|s| w < s.broken.len() && s.broken[w])
    }

    /// Total workers (dead or alive).
    pub fn workers(&self) -> usize {
        self.engine.workers()
    }

    /// Ids of workers that have not failed.
    pub fn alive_workers(&self) -> Vec<WorkerId> {
        (0..self.engine.workers())
            .filter(|&w| self.engine.alive(w))
            .collect()
    }

    /// True when `w` is alive and idle.
    pub fn available(&self, w: WorkerId) -> bool {
        self.engine.available(w)
    }

    /// Current engine time.
    pub fn now(&self) -> VTime {
        self.engine.now()
    }

    /// Tasks currently in flight.
    pub fn pending(&self) -> usize {
        self.engine.pending()
    }

    /// The earliest still-scheduled membership event (including
    /// supervisor-scheduled revivals), or `None`. See
    /// [`Engine::next_event_at`].
    pub fn next_event_at(&self) -> Option<VTime> {
        self.engine.next_event_at()
    }

    /// The stable owner of partition `part` given the current set of alive
    /// workers (round-robin; reassigns automatically after failures,
    /// revivals, and joins).
    ///
    /// Returns [`EngineError::NoAliveWorkers`] when every worker has failed
    /// — ownership is undefined until a revival or join restores capacity.
    pub fn owner_of(&self, part: usize) -> Result<WorkerId, EngineError> {
        let alive = self.alive_workers();
        if alive.is_empty() {
            return Err(EngineError::NoAliveWorkers);
        }
        Ok(alive[part % alive.len()])
    }

    /// Partitions (out of `nparts`) owned by `w` under the current
    /// alive-worker assignment. Empty when no worker is alive (no owner
    /// exists) or `w` owns nothing.
    pub fn partitions_of(&self, w: WorkerId, nparts: usize) -> Vec<usize> {
        (0..nparts).filter(|&p| self.owner_of(p) == Ok(w)).collect()
    }

    /// Cumulative bytes shipped to workers.
    pub fn total_bytes_shipped(&self) -> u64 {
        self.total_bytes
    }

    /// The cluster-wide wait-time recorder.
    pub fn wait_recorder(&self) -> &WaitTimeRecorder {
        &self.wait
    }

    /// Immediately fails a worker.
    pub fn kill_worker(&mut self, w: WorkerId) {
        self.engine.kill_worker(w);
    }

    /// Brings a dead worker back as a fresh executor (an empty
    /// [`crate::WorkerCtx`] cache, so it re-receives every broadcast on
    /// first use). The revival surfaces as a [`Completion::WorkerUp`]
    /// through the completion stream.
    pub fn revive_worker(&mut self, w: WorkerId) -> Result<(), EngineError> {
        self.engine.revive_worker(w)
    }

    /// Adds a brand-new worker mid-run and returns its id. Driver-side
    /// bookkeeping (the wait recorder) grows immediately;
    /// [`Completion::WorkerUp`] surfaces through the completion stream for
    /// higher layers (e.g. the async coordinator's `STAT` table).
    pub fn add_worker(&mut self) -> WorkerId {
        let w = self.engine.add_worker();
        self.grow_bookkeeping();
        w
    }

    /// Schedules a failure at a virtual instant (real elapsed time on the
    /// threaded and remote backends).
    pub fn schedule_failure(&mut self, w: WorkerId, at: VTime) {
        self.engine.schedule_failure(w, at);
    }

    /// Schedules a revival at a virtual instant (no-op at fire time if the
    /// worker is alive).
    pub fn schedule_revival(&mut self, w: WorkerId, at: VTime) {
        self.engine.schedule_revival(w, at);
    }

    /// Schedules a brand-new worker to join at a virtual instant.
    ///
    /// Id-allocation timing differs by backend: the simulator assigns the
    /// joiner's id at *scheduling* time (so `workers()` grows immediately,
    /// though the worker stays dead until its instant), while the threaded
    /// and remote backends assign it when the event *fires*. Either way the
    /// worker only becomes schedulable once its [`Completion::WorkerUp`]
    /// pops; a joiner that fails to start is followed by its
    /// [`Completion::WorkerDown`].
    pub fn schedule_join(&mut self, at: VTime) {
        self.engine.schedule_join(at);
        self.grow_bookkeeping();
    }

    /// Installs a whole membership-churn script: every event is mapped to
    /// the engine's scheduling primitives (the simulator fires them at
    /// exact virtual instants inside its deterministic event queue; the
    /// threaded and remote backends apply them when real elapsed time
    /// passes them).
    pub fn install_chaos(&mut self, schedule: &ChaosSchedule) {
        for ev in schedule.events() {
            match ev.action {
                ChaosAction::Kill(w) => self.schedule_failure(w, ev.at),
                ChaosAction::Revive(w) => self.schedule_revival(w, ev.at),
                ChaosAction::Join => self.schedule_join(ev.at),
            }
        }
    }

    /// Grows driver bookkeeping to the engine's worker count (joins may
    /// have been requested engine-side; growth is idempotent).
    fn grow_bookkeeping(&mut self) {
        while self.wait.workers() < self.engine.workers() {
            self.wait.add_worker();
        }
    }

    /// Folds a membership notification into driver bookkeeping: a joined
    /// worker's row exists by its `WorkerUp` (the first notice naming it),
    /// and no wait spans a worker's downtime.
    fn note_membership(&mut self, c: &Completion) {
        if let Completion::Lost { worker, .. }
        | Completion::WorkerDown { worker }
        | Completion::WorkerUp { worker } = *c
        {
            self.grow_bookkeeping();
            // A dead worker is not waiting at a barrier, and a wait left
            // open by a revived worker's previous life is not a wait.
            self.wait.cancel_open(worker);
        }
        self.supervise_membership(c);
    }

    /// The supervisor's half of membership bookkeeping: deaths schedule
    /// backed-off revivals, ups reset the crash window. The `scheduled`
    /// latch keeps it to one respawn per death however the death was
    /// reported.
    fn supervise_membership(&mut self, c: &Completion) {
        let now = self.engine.now();
        let workers = self.engine.workers();
        let Some(sup) = self.supervisor.as_mut() else {
            return;
        };
        sup.grow(workers, now);
        match *c {
            Completion::WorkerUp { worker } => {
                sup.scheduled[worker] = false;
                sup.up_since[worker] = now;
            }
            Completion::Lost { worker, .. } | Completion::WorkerDown { worker } => {
                if !sup.scheduled[worker] {
                    if let Some(at) = sup.on_death(worker, now) {
                        sup.scheduled[worker] = true;
                        self.engine.schedule_revival(worker, at);
                    }
                }
            }
            Completion::Done(_) => {}
        }
    }

    // ------------------------------------------------------------------
    // Submission and completion (used by async-core).
    // ------------------------------------------------------------------

    /// Submits a raw task to worker `w`, charging `extra_bytes` of task
    /// payload (e.g. history-broadcast version IDs) and recording the
    /// worker's wait end. When `wire` is `Some` and the engine is networked
    /// (the remote backend), the wire form crosses the socket and `run` is
    /// used for its driver-side bookkeeping only; in-process engines drop
    /// the wire form and execute `run` as usual. See [`WireTask`].
    pub fn submit_raw(
        &mut self,
        w: WorkerId,
        tag: u64,
        cost: f64,
        extra_bytes: u64,
        run: TaskFn,
        wire: Option<WireTask>,
    ) -> Result<(), EngineError> {
        self.wait.task_received(w, self.engine.now());
        let task = Task {
            tag,
            cost,
            bytes_in: extra_bytes,
            run,
        };
        match wire {
            Some(wire) => self.engine.submit_wired(w, task, wire),
            None => self.engine.submit(w, task),
        }
    }

    /// Blocks for the next completion (advancing virtual time), recording
    /// wait starts for finished workers and folding membership changes
    /// (revivals, joins) into driver bookkeeping.
    pub fn next_completion(&mut self) -> Option<Completion> {
        let c = self.engine.next();
        if let Some(ref c) = c {
            self.note_membership(c);
            if let Completion::Done(d) = c {
                self.wait.result_submitted(d.worker, d.finished_at);
                self.total_bytes += d.bytes_in;
            }
        }
        c
    }

    /// Non-blocking completion poll ("has the server received results as of
    /// now" — the simulator does not advance its clock).
    pub fn try_next_completion(&mut self) -> Option<Completion> {
        let c = self.engine.try_next();
        if let Some(ref c) = c {
            self.note_membership(c);
            if let Completion::Done(d) = c {
                self.wait.result_submitted(d.worker, d.finished_at);
                self.total_bytes += d.bytes_in;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TaskDone;
    use async_cluster::{CommModel, DelayModel, VDur};

    fn sim_driver(workers: usize, delay: DelayModel) -> Driver {
        Driver::sim(
            ClusterSpec::homogeneous(workers, delay)
                .with_comm(CommModel::free())
                .with_sched_overhead(VDur::ZERO),
        )
    }

    /// Hands worker `w` one task of `cost` work units.
    fn submit(d: &mut Driver, w: WorkerId, cost: f64) {
        d.submit_raw(w, w as u64, cost, 0, Box::new(|_ctx| Box::new(())), None)
            .expect("worker takes the task");
    }

    /// Pumps completions until `n` tasks are done; losses and membership
    /// events surfacing meanwhile are folded in by the pump and skipped.
    fn finish(d: &mut Driver, n: usize) -> Vec<TaskDone> {
        let mut done = Vec::new();
        while done.len() < n {
            if let Completion::Done(t) = d.next_completion().expect("tasks are in flight") {
                done.push(t);
            }
        }
        done
    }

    #[test]
    fn wait_is_the_gap_between_a_result_and_the_next_task() {
        // Two BSP rounds: worker 0's wait between rounds = straggler finish
        // − its own finish. With a 100% straggler the wait equals one full
        // task time.
        let mut d = sim_driver(
            2,
            DelayModel::ControlledDelay {
                worker: 1,
                intensity: 1.0,
            },
        );
        for _ in 0..2 {
            submit(&mut d, 0, 2e8);
            submit(&mut d, 1, 2e8);
            finish(&mut d, 2);
        }
        let w0 = d.wait_recorder().mean_for(0);
        let w1 = d.wait_recorder().mean_for(1);
        assert_eq!(w0.as_micros(), 1_000_000, "fast worker waits one task time");
        assert_eq!(w1.as_micros(), 0, "straggler never waits");
    }

    #[test]
    fn owner_assignment_is_stable_and_rebalances() {
        let d = sim_driver(4, DelayModel::None);
        assert_eq!(d.owner_of(0), Ok(0));
        assert_eq!(d.owner_of(5), Ok(1));
        assert_eq!(d.partitions_of(1, 8), vec![1, 5]);
        let mut d = d;
        d.kill_worker(1);
        // Drain the WorkerDown completion.
        while d.next_completion().is_some() {}
        let alive = d.alive_workers();
        assert_eq!(alive, vec![0, 2, 3]);
        assert_eq!(d.owner_of(1), Ok(2));
    }

    #[test]
    fn owner_of_with_no_alive_workers_is_a_typed_error() {
        let mut d = sim_driver(2, DelayModel::None);
        d.kill_worker(0);
        d.kill_worker(1);
        while d.next_completion().is_some() {}
        assert_eq!(d.owner_of(0), Err(EngineError::NoAliveWorkers));
        assert!(d.partitions_of(0, 4).is_empty());
        let err = d
            .submit_raw(0, 0, 1.0, 0, Box::new(|_ctx| Box::new(())), None)
            .unwrap_err();
        assert_eq!(err, EngineError::WorkerDead(0));
    }

    #[test]
    fn joined_worker_owns_partitions_and_is_recorded() {
        let mut d = sim_driver(2, DelayModel::None);
        let w = d.add_worker();
        assert_eq!(w, 2);
        while d.next_completion().is_some() {}
        assert_eq!(d.alive_workers(), vec![0, 1, 2]);
        assert_eq!(d.owner_of(2), Ok(2), "join rebalances ownership");
        assert_eq!(
            d.wait_recorder().workers(),
            3,
            "the joiner's waits are kept"
        );
        submit(&mut d, w, 1.0);
        assert_eq!(finish(&mut d, 1)[0].worker, w, "a task runs on the joiner");
    }

    #[test]
    fn supervisor_respawns_an_unscripted_death_with_backoff() {
        let mut d = sim_driver(2, DelayModel::None);
        d.supervise(SuperviseCfg {
            backoff_base: VDur::from_millis(10),
            jitter_frac: 0.0,
            ..SuperviseCfg::default()
        });
        // An unscripted kill: no chaos schedule mentions a revival, only
        // the supervisor can bring worker 1 back.
        d.schedule_failure(1, VTime::from_micros(1_000));
        submit(&mut d, 0, 2e8);
        submit(&mut d, 1, 2e8);
        finish(&mut d, 1);
        assert_eq!(d.supervised_respawns(), 1);
        while d.next_completion().is_some() {}
        assert_eq!(d.alive_workers(), vec![0, 1], "worker 1 came back");
        assert!(!d.circuit_open(1));
    }

    #[test]
    fn supervisor_backoff_grows_and_jitter_is_deterministic() {
        let run = || {
            let mut d = sim_driver(1, DelayModel::None);
            d.supervise(SuperviseCfg {
                backoff_base: VDur::from_millis(10),
                backoff_factor: 2.0,
                backoff_max: VDur::from_millis(80),
                jitter_frac: 0.5,
                seed: 42,
                max_crashes: 10,
                crash_window: VDur::from_millis(100_000), // never recovers
            });
            let mut ups = Vec::new();
            for _ in 0..4 {
                d.kill_worker(0);
                loop {
                    match d.next_completion() {
                        Some(Completion::WorkerUp { .. }) => {
                            ups.push(d.now().as_micros());
                            break;
                        }
                        Some(_) => continue,
                        None => panic!("supervisor must revive worker 0"),
                    }
                }
            }
            ups
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded jitter must be reproducible");
        // Gaps between death (at the prior up instant) and the next up
        // grow roughly geometrically: each at least the un-jittered
        // backoff for its streak position.
        let mut prev = 0;
        for (i, &up) in a.iter().enumerate() {
            let gap = up - prev;
            let floor = (10_000u64 << i).min(80_000);
            assert!(
                gap >= floor,
                "respawn {i} came after {gap}us, backoff floor {floor}us"
            );
            prev = up;
        }
    }

    #[test]
    fn crash_loop_opens_the_circuit_breaker() {
        let mut d = sim_driver(2, DelayModel::None);
        d.supervise(SuperviseCfg {
            max_crashes: 2,
            jitter_frac: 0.0,
            crash_window: VDur::from_millis(100_000),
            ..SuperviseCfg::default()
        });
        // Worker 0 dies instantly every time it comes up.
        for _ in 0..3 {
            d.kill_worker(0);
            // Drain until the respawn lands (or nothing more happens).
            while d.next_completion().is_some() {}
        }
        assert!(d.circuit_open(0), "third crash must open the circuit");
        assert_eq!(d.supervised_respawns(), 2, "no respawn past the breaker");
        assert_eq!(d.alive_workers(), vec![1]);
        // External revival still works and the worker stays supervisable
        // for bookkeeping (the circuit stays open by design).
        d.revive_worker(0).unwrap();
        while d.next_completion().is_some() {}
        assert_eq!(d.alive_workers(), vec![0, 1]);
    }

    #[test]
    fn uptime_past_the_crash_window_resets_the_streak() {
        let mut d = sim_driver(1, DelayModel::None);
        d.supervise(SuperviseCfg {
            max_crashes: 2,
            jitter_frac: 0.0,
            crash_window: VDur::from_millis(1), // recovers almost instantly
            ..SuperviseCfg::default()
        });
        // Many kill/recover cycles separated by "long" uptime: the streak
        // resets each time, so the circuit never opens.
        for _ in 0..5 {
            d.kill_worker(0);
            while d.next_completion().is_some() {}
            // Run a task so virtual time advances well past the window.
            submit(&mut d, 0, 2e8);
            finish(&mut d, 1);
        }
        assert!(!d.circuit_open(0));
        assert_eq!(d.supervised_respawns(), 5);
    }

    #[test]
    fn a_supervised_revival_whose_spawn_fails_is_retried() {
        use crate::remote::{RemoteConfig, RemoteEngine, RoutineRegistry};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        // Loopback workers whose third start panics before connecting: the
        // two founders start, worker 1's first respawn times out in its
        // handshake, and its second respawn starts.
        let calls = Arc::new(AtomicUsize::new(0));
        let registry = Arc::new(move || {
            let call = calls.fetch_add(1, Ordering::SeqCst);
            assert_ne!(call, 2, "the third worker start fails");
            RoutineRegistry::new()
        });
        let cfg = RemoteConfig {
            handshake_timeout: Duration::from_millis(200),
            ..RemoteConfig::loopback(registry)
        };
        let engine = RemoteEngine::new(ClusterSpec::homogeneous(2, DelayModel::None), 0.0, cfg)
            .expect("the founders start");
        let mut d = Driver::from_engine(Box::new(engine));
        d.supervise(SuperviseCfg {
            backoff_base: VDur::from_millis(1),
            backoff_max: VDur::from_millis(5),
            ..SuperviseCfg::default()
        });
        d.kill_worker(1);
        let t0 = Instant::now();
        while d.alive_workers() != [0, 1] && t0.elapsed() < Duration::from_secs(3) {
            while d.next_completion().is_some() {}
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            d.alive_workers(),
            vec![0, 1],
            "the failed respawn is retried"
        );
        assert_eq!(d.supervised_respawns(), 2);
        assert!(!d.circuit_open(1));
    }
}

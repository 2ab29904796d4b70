//! Deterministic virtual-time engine.
//!
//! Task closures execute *eagerly at submission* on the driver thread —
//! which is exactly when a real worker would snapshot its inputs (Spark
//! ships the broadcast state captured at task-launch) — and the *result is
//! delivered* at the task's modelled completion instant through a
//! deterministic event queue. The asynchrony the paper studies is therefore
//! reproduced faithfully: the server sees results tagged with the model
//! version they were computed against, arbitrarily stale relative to the
//! advancing virtual clock, with straggler delays stretching exactly the
//! workers the delay model selects.
//!
//! Determinism: same spec + same submission sequence ⇒ identical completion
//! order and identical timestamps, bit for bit.

use async_cluster::straggler::DelayAssignment;
use async_cluster::{ClusterSpec, EventQueue, VDur, VTime, WorkerId};

use crate::engine::{Completion, Engine, EngineError, Roster, Task, TaskDone, TaskOutput};
use crate::worker::WorkerCtx;

enum SimEvent {
    Finish {
        worker: WorkerId,
        epoch: u64,
        tag: u64,
        output: TaskOutput,
        service_time: VDur,
        bytes_in: u64,
    },
    Fail {
        worker: WorkerId,
    },
    /// Activates a dead (or not-yet-activated joined) worker as a fresh
    /// executor. Dropped if the worker is already alive at fire time.
    Up {
        worker: WorkerId,
    },
}

/// The simulated engine. See the module docs for the execution model.
pub struct SimEngine {
    spec: ClusterSpec,
    assignment: DelayAssignment,
    clock: VTime,
    queue: EventQueue<SimEvent>,
    ctxs: Vec<WorkerCtx>,
    /// Membership and slots; a `Finish` event of a failed incarnation
    /// finishes nothing.
    roster: Roster,
}

impl SimEngine {
    /// Builds an engine from a validated [`ClusterSpec`].
    ///
    /// # Panics
    /// Panics if the spec fails validation.
    pub fn new(spec: ClusterSpec) -> Self {
        spec.validate().expect("invalid cluster spec");
        let n = spec.workers;
        let assignment = spec.delay.assign(n);
        Self {
            assignment,
            clock: VTime::ZERO,
            queue: EventQueue::new(),
            ctxs: (0..n).map(WorkerCtx::new).collect(),
            roster: Roster::new(n),
            spec,
        }
    }

    /// Read-only access to a worker's context (for cache statistics).
    pub fn worker_ctx(&self, w: WorkerId) -> &WorkerCtx {
        &self.ctxs[w]
    }
}

impl Engine for SimEngine {
    fn workers(&self) -> usize {
        self.roster.workers()
    }

    fn now(&self) -> VTime {
        self.clock
    }

    fn available(&self, w: WorkerId) -> bool {
        self.roster.available(w)
    }

    fn alive(&self, w: WorkerId) -> bool {
        self.roster.alive(w)
    }

    fn submit(&mut self, w: WorkerId, task: Task) -> Result<(), EngineError> {
        self.roster.check(w)?;
        let issued_at = self.clock;
        // Execute now: the closure sees exactly the state captured at
        // submission, like a task shipped to a real worker.
        let output = (task.run)(&mut self.ctxs[w]);
        let (extra_bytes, extra_time) = self.ctxs[w].take_charges();
        let bytes_in = task.bytes_in + extra_bytes;

        let factor = self.assignment.factor(w, self.roster.next_seq(w));
        let exec = self.spec.profiles[w].exec_time(task.cost).mul_f64(factor);
        let service_time = self.spec.sched_overhead
            + self.spec.comm.transfer_time(bytes_in)
            + exec
            + extra_time
            // Result submission message back to the server.
            + self.spec.comm.per_msg;

        self.queue.push(
            issued_at + service_time,
            SimEvent::Finish {
                worker: w,
                epoch: self.roster.epoch(w),
                tag: task.tag,
                output,
                service_time,
                bytes_in,
            },
        );
        self.roster.seat(w, task.tag, issued_at, ());
        Ok(())
    }

    fn next(&mut self) -> Option<Completion> {
        while let Some((t, ev)) = self.queue.pop() {
            match ev {
                SimEvent::Finish {
                    worker,
                    epoch,
                    tag,
                    output,
                    service_time,
                    bytes_in,
                } => {
                    let Some(seat) = self.roster.finish(worker, epoch, tag) else {
                        continue; // cancelled by a failure
                    };
                    self.clock = self.clock.max(t);
                    return Some(Completion::Done(TaskDone {
                        worker,
                        tag,
                        output,
                        issued_at: seat.issued_at,
                        finished_at: t,
                        service_time,
                        bytes_in,
                    }));
                }
                SimEvent::Fail { worker } => {
                    if !self.roster.kill(worker) {
                        continue;
                    }
                    self.clock = self.clock.max(t);
                }
                SimEvent::Up { worker } => {
                    if worker >= self.roster.workers() || self.roster.alive(worker) {
                        continue; // stale revival (already alive)
                    }
                    self.clock = self.clock.max(t);
                    // A fresh executor: empty cache. The incarnation the
                    // failure bumped already cancelled any queued result
                    // of the previous life.
                    self.ctxs[worker] = WorkerCtx::new(worker);
                    let _ = self.roster.revive(worker, Ok(()));
                }
            }
            // A failure or revival queued exactly one notice.
            return self.roster.pop();
        }
        None
    }

    fn try_next(&mut self) -> Option<Completion> {
        match self.queue.peek_time() {
            Some(t) if t <= self.clock => self.next(),
            _ => None,
        }
    }

    fn pending(&self) -> usize {
        self.roster.pending()
    }

    fn kill_worker(&mut self, w: WorkerId) {
        if self.roster.alive(w) {
            // Killing is immediate; surface the Lost/WorkerDown completion
            // through the normal queue so ordering stays deterministic.
            self.queue.push(self.clock, SimEvent::Fail { worker: w });
        }
    }

    fn revive_worker(&mut self, w: WorkerId) -> Result<(), EngineError> {
        if self.roster.alive(w) {
            return Err(EngineError::WorkerAlive(w));
        }
        // The revival flows through the event queue like failures do, so
        // its WorkerUp notification stays deterministically ordered with
        // task completions; the worker becomes available when it pops.
        self.queue.push(self.clock, SimEvent::Up { worker: w });
        Ok(())
    }

    fn add_worker(&mut self) -> WorkerId {
        self.schedule_join(self.clock);
        self.roster.workers() - 1
    }

    fn schedule_failure(&mut self, w: WorkerId, at: VTime) {
        self.queue.push(at, SimEvent::Fail { worker: w });
    }

    fn schedule_revival(&mut self, w: WorkerId, at: VTime) {
        self.queue.push(at, SimEvent::Up { worker: w });
    }

    fn schedule_join(&mut self, at: VTime) {
        // The id is assigned at scheduling time (dense, in schedule order);
        // the worker stays dead until its Up event fires.
        let w = self.roster.join();
        self.spec
            .profiles
            .push(async_cluster::WorkerProfile::default_speed());
        self.ctxs.push(WorkerCtx::new(w));
        self.queue.push(at, SimEvent::Up { worker: w });
    }

    fn next_event_at(&self) -> Option<VTime> {
        // The simulator's queue holds completions *and* membership events;
        // either way this is the instant `next()` would advance to, which
        // is what recovery-aware callers want to know.
        self.queue.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_cluster::{CommModel, DelayModel};

    fn quiet_spec(workers: usize, delay: DelayModel) -> ClusterSpec {
        ClusterSpec::homogeneous(workers, delay)
            .with_comm(CommModel::free())
            .with_sched_overhead(VDur::ZERO)
    }

    fn task(tag: u64, cost: f64, value: i64) -> Task {
        Task {
            tag,
            cost,
            bytes_in: 0,
            run: Box::new(move |_| Box::new(value)),
        }
    }

    fn run_to_done(engine: &mut SimEngine) -> Vec<(u64, i64, VTime)> {
        let mut out = Vec::new();
        while let Some(c) = engine.next() {
            if let Completion::Done(d) = c {
                out.push((d.tag, *d.output.downcast::<i64>().unwrap(), d.finished_at));
            }
        }
        out
    }

    #[test]
    fn completions_ordered_by_cost() {
        let mut e = SimEngine::new(quiet_spec(3, DelayModel::None));
        e.submit(0, task(0, 3e8, 10)).unwrap();
        e.submit(1, task(1, 1e8, 20)).unwrap();
        e.submit(2, task(2, 2e8, 30)).unwrap();
        let done = run_to_done(&mut e);
        let tags: Vec<u64> = done.iter().map(|d| d.0).collect();
        assert_eq!(tags, vec![1, 2, 0]);
        // Default speed 2e8/s → costs 1e8 = 0.5 s.
        assert_eq!(done[0].2, VTime::from_micros(500_000));
    }

    #[test]
    fn straggler_factor_stretches_exactly_target() {
        let delay = DelayModel::ControlledDelay {
            worker: 1,
            intensity: 1.0,
        };
        let mut e = SimEngine::new(quiet_spec(2, delay));
        e.submit(0, task(0, 2e8, 1)).unwrap();
        e.submit(1, task(1, 2e8, 2)).unwrap();
        let done = run_to_done(&mut e);
        assert_eq!(done[0].0, 0);
        assert_eq!(done[0].2, VTime::from_micros(1_000_000));
        assert_eq!(done[1].0, 1);
        assert_eq!(done[1].2, VTime::from_micros(2_000_000)); // 2x slower
    }

    #[test]
    fn failure_loses_inflight_task() {
        let mut e = SimEngine::new(quiet_spec(2, DelayModel::None));
        e.submit(0, task(7, 2e8, 1)).unwrap();
        e.schedule_failure(0, VTime::from_micros(1000));
        match e.next() {
            Some(Completion::Lost { worker: 0, tag: 7 }) => {}
            _ => panic!("expected Lost completion"),
        }
        assert_eq!(e.pending(), 0);
        // The cancelled Finish event must not surface.
        assert!(e.next().is_none());
        assert!(!e.alive(0));
        assert!(e.alive(1));
    }

    #[test]
    fn try_next_does_not_advance_clock() {
        let mut e = SimEngine::new(quiet_spec(1, DelayModel::None));
        e.submit(0, task(0, 2e8, 1)).unwrap();
        assert!(e.try_next().is_none());
        assert_eq!(e.now(), VTime::ZERO);
        assert!(matches!(e.next(), Some(Completion::Done(_))));
        assert_eq!(e.now(), VTime::from_micros(1_000_000));
    }

    #[test]
    fn try_next_returns_ready_completion_at_same_instant() {
        let mut e = SimEngine::new(quiet_spec(2, DelayModel::None));
        // Same cost → both finish at the same virtual instant.
        e.submit(0, task(0, 2e8, 1)).unwrap();
        e.submit(1, task(1, 2e8, 2)).unwrap();
        assert!(matches!(e.next(), Some(Completion::Done(_))));
        // Second completion is at the (now-current) clock: ready.
        assert!(matches!(e.try_next(), Some(Completion::Done(_))));
        assert!(e.try_next().is_none());
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let build = || {
            let mut e = SimEngine::new(quiet_spec(
                4,
                DelayModel::ProductionCluster(async_cluster::PcsConfig::paper(3)),
            ));
            for w in 0..4 {
                e.submit(w, task(w as u64, 1e8 + w as f64, w as i64))
                    .unwrap();
            }
            run_to_done(&mut e)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn comm_model_charges_bytes() {
        let spec = ClusterSpec::homogeneous(1, DelayModel::None)
            .with_comm(CommModel {
                per_msg: VDur::ZERO,
                ns_per_byte: 1000.0,
            })
            .with_sched_overhead(VDur::ZERO);
        let mut e = SimEngine::new(spec);
        // 1e6 bytes at 1000 ns/B = 1 s transfer; zero compute cost.
        e.submit(
            0,
            Task {
                tag: 0,
                cost: 0.0,
                bytes_in: 1_000_000,
                run: Box::new(|_| Box::new(())),
            },
        )
        .unwrap();
        match e.next() {
            Some(Completion::Done(d)) => {
                assert_eq!(d.finished_at, VTime::from_micros(1_000_000));
                assert_eq!(d.bytes_in, 1_000_000);
            }
            _ => panic!("expected Done"),
        }
    }

    #[test]
    fn revive_brings_back_a_fresh_worker() {
        let mut e = SimEngine::new(quiet_spec(2, DelayModel::None));
        e.kill_worker(0);
        assert!(matches!(
            e.next(),
            Some(Completion::WorkerDown { worker: 0 })
        ));
        assert!(!e.alive(0));
        assert_eq!(e.revive_worker(1).unwrap_err(), EngineError::WorkerAlive(1));
        e.revive_worker(0).unwrap();
        // State changes when the Up event pops, like failures.
        assert!(!e.alive(0));
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 0 })));
        assert!(e.alive(0));
        assert!(e.available(0));
        e.submit(0, task(5, 2e8, 77)).unwrap();
        let done = run_to_done(&mut e);
        assert_eq!(done, vec![(5, 77, VTime::from_micros(1_000_000))]);
    }

    #[test]
    fn stale_result_never_surfaces_after_revival() {
        // Kill mid-task, revive immediately: the pre-failure Finish event
        // is epoch-cancelled and must not reappear in the revived life.
        let mut e = SimEngine::new(quiet_spec(1, DelayModel::None));
        e.submit(0, task(9, 2e8, 111)).unwrap();
        e.schedule_failure(0, VTime::from_micros(1000));
        e.schedule_revival(0, VTime::from_micros(2000));
        assert!(matches!(
            e.next(),
            Some(Completion::Lost { worker: 0, tag: 9 })
        ));
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 0 })));
        // The only remaining event is the cancelled Finish: it must drop.
        assert!(e.next().is_none());
        // The revived worker runs fresh tasks normally.
        e.submit(0, task(10, 2e8, 5)).unwrap();
        match e.next() {
            Some(Completion::Done(d)) => assert_eq!(d.tag, 10),
            _ => panic!("expected the post-revival task"),
        }
    }

    #[test]
    fn revival_resets_worker_cache() {
        let mut e = SimEngine::new(quiet_spec(1, DelayModel::None));
        e.submit(
            0,
            Task {
                tag: 0,
                cost: 0.0,
                bytes_in: 0,
                run: Box::new(|ctx| {
                    ctx.cache_put_local((1, 0), std::sync::Arc::new(42u32));
                    Box::new(())
                }),
            },
        )
        .unwrap();
        let _ = e.next();
        assert_eq!(e.worker_ctx(0).cache_len(), 1);
        e.kill_worker(0);
        let _ = e.next();
        e.revive_worker(0).unwrap();
        let _ = e.next();
        assert_eq!(
            e.worker_ctx(0).cache_len(),
            0,
            "a revived executor starts with an empty cache"
        );
    }

    #[test]
    fn add_worker_joins_and_runs_tasks() {
        let mut e = SimEngine::new(quiet_spec(1, DelayModel::None));
        let w = e.add_worker();
        assert_eq!(w, 1);
        assert_eq!(e.workers(), 2);
        assert!(!e.alive(1), "joined worker activates when its event pops");
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 1 })));
        assert!(e.available(1));
        e.submit(1, task(3, 2e8, 30)).unwrap();
        let done = run_to_done(&mut e);
        assert_eq!(done, vec![(3, 30, VTime::from_micros(1_000_000))]);
    }

    #[test]
    fn scheduled_membership_fires_at_exact_instants() {
        let mut e = SimEngine::new(quiet_spec(2, DelayModel::None));
        e.schedule_failure(1, VTime::from_micros(500));
        e.schedule_revival(1, VTime::from_micros(1500));
        e.schedule_join(VTime::from_micros(2500));
        assert_eq!(e.workers(), 3, "join ids are assigned at scheduling");
        assert!(matches!(
            e.next(),
            Some(Completion::WorkerDown { worker: 1 })
        ));
        assert_eq!(e.now(), VTime::from_micros(500));
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 1 })));
        assert_eq!(e.now(), VTime::from_micros(1500));
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 2 })));
        assert_eq!(e.now(), VTime::from_micros(2500));
        assert!(e.next().is_none());
        for w in 0..3 {
            assert!(e.alive(w));
        }
    }

    #[test]
    fn charges_from_ctx_extend_duration() {
        let spec = ClusterSpec::homogeneous(1, DelayModel::None)
            .with_comm(CommModel::free())
            .with_sched_overhead(VDur::ZERO);
        let mut e = SimEngine::new(spec);
        e.submit(
            0,
            Task {
                tag: 0,
                cost: 0.0,
                bytes_in: 0,
                run: Box::new(|ctx| {
                    ctx.charge_time(VDur::from_millis(5));
                    Box::new(())
                }),
            },
        )
        .unwrap();
        match e.next() {
            Some(Completion::Done(d)) => assert_eq!(d.finished_at, VTime::from_micros(5_000)),
            _ => panic!("expected Done"),
        }
    }
}

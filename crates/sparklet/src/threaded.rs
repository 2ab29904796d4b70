//! Real-thread engine: one OS thread per worker.
//!
//! Gives the same [`Engine`] semantics as the simulator but with genuine
//! concurrency: tasks run on their worker's thread, straggler delays are
//! injected as real sleeps, and completion order is whatever the operating
//! system produces. Useful for validating that algorithm implementations
//! do not depend on the simulator's determinism, and as the "it actually
//! runs in parallel" backend for examples.
//!
//! Time reporting: [`Engine::now`] returns real elapsed time since engine
//! construction, as a [`VTime`]. The modelled cost of a task is converted
//! to a real sleep via `time_scale` (`1.0` = model microseconds sleep as
//! real microseconds; tests use small scales to stay fast). The straggler
//! factor additionally stretches the *measured* compute time, so "a 100 %
//! delay means the worker executes jobs at half speed" holds for real work
//! too.

use std::io;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use async_cluster::straggler::DelayAssignment;
use async_cluster::{ClusterSpec, CommModel, VTime, WorkerId, WorkerProfile};

use crate::engine::{
    Completion, Engine, EngineError, PendingChaos, Roster, Task, TaskDone, TaskFn, TaskOutput,
};
use crate::worker::WorkerCtx;

enum Msg {
    Run {
        tag: u64,
        cost: f64,
        bytes_in: u64,
        run: TaskFn,
        seq: u64,
    },
    Stop,
}

struct WireDone {
    worker: WorkerId,
    /// The worker incarnation that produced this result; a result from a
    /// pre-failure life finishes nothing (the epoch guard that makes
    /// revival safe — a revived executor never surfaces a stale result).
    epoch: u64,
    tag: u64,
    output: TaskOutput,
    bytes_in: u64,
}

/// What a worker thread sends the engine.
enum FromWorker {
    Done(WireDone),
    /// Incarnation `epoch` of `worker` left while unwinding — its task
    /// panicked: the thread's analogue of a remote worker's dropped socket.
    Gone {
        worker: WorkerId,
        epoch: u64,
    },
}

/// Held by a worker thread for its whole life: owns the result channel and
/// reports the thread's own exit when a panic is what ends it.
struct ExitNotice {
    worker: WorkerId,
    epoch: u64,
    res_tx: Sender<FromWorker>,
}

impl Drop for ExitNotice {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.res_tx.send(FromWorker::Gone {
                worker: self.worker,
                epoch: self.epoch,
            });
        }
    }
}

/// The threaded engine. See the module docs.
pub struct ThreadedEngine {
    spec: ClusterSpec,
    /// Shared straggler assignment: one allocation for the whole engine
    /// lifetime; worker (re)spawns clone the `Arc`, not the tables.
    assignment: Arc<DelayAssignment>,
    /// Shared communication model, likewise cloned by pointer per spawn.
    comm: Arc<CommModel>,
    time_scale: f64,
    start: Instant,
    /// Each worker's task channel and thread; a worker that never started
    /// keeps a closed placeholder channel and no thread.
    txs: Vec<Sender<Msg>>,
    handles: Vec<Option<std::thread::JoinHandle<()>>>,
    results_tx: Sender<FromWorker>,
    results_rx: Receiver<FromWorker>,
    /// Membership, slots, queued notices, and the scheduled membership
    /// events applied when elapsed real time passes them (checked at every
    /// `next`/`try_next`).
    roster: Roster,
}

impl ThreadedEngine {
    /// Spawns one worker thread per cluster worker. `time_scale` converts
    /// modelled task time into real sleep time (e.g. `0.01` sleeps 10 ms
    /// for every modelled second).
    ///
    /// # Panics
    /// Panics if the spec fails validation or `time_scale` is negative.
    pub fn new(spec: ClusterSpec, time_scale: f64) -> Self {
        spec.validate().expect("invalid cluster spec");
        assert!(time_scale >= 0.0, "time_scale must be nonnegative");
        let n = spec.workers;
        let assignment = Arc::new(spec.delay.assign(n));
        let comm = Arc::new(spec.comm.clone());
        let (res_tx, res_rx) = channel::<FromWorker>();
        let mut engine = Self {
            spec,
            assignment,
            comm,
            time_scale,
            start: Instant::now(),
            txs: (0..n).map(|_| channel().0).collect(),
            handles: (0..n).map(|_| None).collect(),
            results_tx: res_tx,
            results_rx: res_rx,
            roster: Roster::new(n),
        };
        for w in 0..n {
            engine
                .spawn_worker(w)
                .expect("failed to spawn worker thread");
        }
        engine
    }

    /// Spawns (or respawns) the thread for worker `w`'s current
    /// incarnation, replacing its task channel and joining the thread of
    /// the incarnation it replaces.
    fn spawn_worker(&mut self, w: WorkerId) -> io::Result<()> {
        let (tx, rx) = channel::<Msg>();
        let exit = ExitNotice {
            worker: w,
            epoch: self.roster.epoch(w),
            res_tx: self.results_tx.clone(),
        };
        // The comm/assignment tables were allocated once at engine
        // construction and are pointer-cloned here; the (tiny) profile is
        // wrapped in an `Arc` once per worker incarnation, reading
        // straight from the spec so there is no second profile list to
        // keep in sync.
        let profile = Arc::new(self.spec.profiles[w].clone());
        let comm = Arc::clone(&self.comm);
        let assignment = Arc::clone(&self.assignment);
        let time_scale = self.time_scale;
        let handle = std::thread::Builder::new()
            .name(format!("sparklet-worker-{w}-e{}", exit.epoch))
            .spawn(move || worker_loop(exit, rx, profile, comm, assignment, time_scale))?;
        self.txs[w] = tx;
        if let Some(old) = self.handles[w].replace(handle) {
            let _ = old.join();
        }
        Ok(())
    }

    fn elapsed(&self) -> VTime {
        VTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn accept(&mut self, msg: FromWorker) -> Option<Completion> {
        let d = match msg {
            FromWorker::Done(d) => d,
            FromWorker::Gone { worker, epoch } => {
                // A current incarnation's thread is gone: one death, whose
                // `Lost` the caller finds queued. A stale notice (the
                // engine killed that incarnation first) changes nothing.
                if self.roster.current(worker, epoch) {
                    self.kill_worker(worker);
                }
                return None;
            }
        };
        // An orphaned result from a killed (possibly since-revived)
        // incarnation finishes nothing: its loss was already reported.
        let seat = self.roster.finish(d.worker, d.epoch, d.tag)?;
        let finished_at = self.elapsed();
        Some(Completion::Done(TaskDone {
            worker: d.worker,
            tag: d.tag,
            output: d.output,
            issued_at: seat.issued_at,
            finished_at,
            service_time: finished_at.saturating_since(seat.issued_at),
            bytes_in: d.bytes_in,
        }))
    }
}

fn worker_loop(
    exit: ExitNotice,
    rx: Receiver<Msg>,
    profile: Arc<WorkerProfile>,
    comm: Arc<CommModel>,
    assignment: Arc<DelayAssignment>,
    time_scale: f64,
) {
    let (w, epoch) = (exit.worker, exit.epoch);
    let mut ctx = WorkerCtx::new(w);
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Stop => break,
            Msg::Run {
                tag,
                cost,
                bytes_in,
                run,
                seq,
            } => {
                let t0 = Instant::now();
                let output = run(&mut ctx);
                let measured = t0.elapsed();
                let (extra_bytes, extra_time) = ctx.take_charges();
                let total_bytes = bytes_in + extra_bytes;
                let factor = assignment.factor(w, seq);
                // Modelled time (cost + communication + explicit charges),
                // scaled into real time, all stretched by the straggler
                // factor; plus the stretch of the real compute time.
                let modelled =
                    profile.exec_time(cost) + comm.transfer_time(total_bytes) + extra_time;
                let sleep_us = modelled.as_micros() as f64 * time_scale * factor
                    + measured.as_secs_f64() * 1e6 * (factor - 1.0).max(0.0);
                if sleep_us >= 1.0 {
                    std::thread::sleep(Duration::from_micros(sleep_us as u64));
                }
                let done = WireDone {
                    worker: w,
                    epoch,
                    tag,
                    output,
                    bytes_in: total_bytes,
                };
                if exit.res_tx.send(FromWorker::Done(done)).is_err() {
                    break; // engine dropped
                }
            }
        }
    }
}

impl Engine for ThreadedEngine {
    fn workers(&self) -> usize {
        self.roster.workers()
    }

    fn now(&self) -> VTime {
        self.elapsed()
    }

    fn available(&self, w: WorkerId) -> bool {
        self.roster.available(w)
    }

    fn alive(&self, w: WorkerId) -> bool {
        self.roster.alive(w)
    }

    fn submit(&mut self, w: WorkerId, task: Task) -> Result<(), EngineError> {
        self.roster.check(w)?;
        let msg = Msg::Run {
            tag: task.tag,
            cost: task.cost,
            bytes_in: task.bytes_in,
            run: task.run,
            seq: self.roster.next_seq(w),
        };
        if self.txs[w].send(msg).is_err() {
            // The thread is gone and its notice not yet read: surface the
            // death now. The task was never accepted, so no loss is queued
            // for it.
            self.kill_worker(w);
            return Err(EngineError::Disconnected(w));
        }
        let now = self.elapsed();
        self.roster.seat(w, task.tag, now, ());
        Ok(())
    }

    fn next(&mut self) -> Option<Completion> {
        loop {
            PendingChaos::apply_due(self, |e| &mut e.roster);
            if let Some(c) = self.roster.pop() {
                return Some(c);
            }
            if self.roster.pending() == 0 {
                // Nothing in flight: return rather than block real time
                // until a *future* scheduled membership event (a drain at
                // run end must not stall through the chaos horizon). Due
                // events were already applied above; remaining ones apply
                // at later next/try_next calls once their instant
                // passes. This is the one place the threaded backend
                // diverges from the simulator, which jumps its virtual
                // clock to such events for free.
                return None;
            }
            // Bounded wait so due membership events apply even while a
            // straggler's result is pending.
            match self.results_rx.recv_timeout(Duration::from_micros(500)) {
                Ok(d) => {
                    if let Some(c) = self.accept(d) {
                        return Some(c);
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    fn try_next(&mut self) -> Option<Completion> {
        loop {
            PendingChaos::apply_due(self, |e| &mut e.roster);
            if let Some(c) = self.roster.pop() {
                return Some(c);
            }
            match self.results_rx.try_recv() {
                Ok(d) => {
                    if let Some(c) = self.accept(d) {
                        return Some(c);
                    }
                }
                Err(_) => return None,
            }
        }
    }

    fn pending(&self) -> usize {
        self.roster.pending()
    }

    fn kill_worker(&mut self, w: WorkerId) {
        // The roster bumps the incarnation: any result the dying thread
        // still delivers finishes nothing, even after a later revival.
        if self.roster.kill(w) {
            let _ = self.txs[w].send(Msg::Stop);
        }
    }

    fn revive_worker(&mut self, w: WorkerId) -> Result<(), EngineError> {
        if self.roster.alive(w) {
            return Err(EngineError::WorkerAlive(w));
        }
        // A fresh incarnation: new thread, empty worker cache.
        let started = self.spawn_worker(w);
        self.roster.revive(w, started)
    }

    fn add_worker(&mut self) -> WorkerId {
        let w = self.roster.join();
        self.spec.profiles.push(WorkerProfile::default_speed());
        self.txs.push(channel().0);
        self.handles.push(None);
        let started = self.spawn_worker(w);
        let _ = self.roster.revive(w, started);
        w
    }

    fn schedule_failure(&mut self, w: WorkerId, at: VTime) {
        self.roster.schedule(at, PendingChaos::Fail(w));
    }

    fn schedule_revival(&mut self, w: WorkerId, at: VTime) {
        self.roster.schedule(at, PendingChaos::Revive(w));
    }

    fn schedule_join(&mut self, at: VTime) {
        self.roster.schedule(at, PendingChaos::Join);
    }

    fn next_event_at(&self) -> Option<VTime> {
        self.roster.next_event_at()
    }
}

impl Drop for ThreadedEngine {
    fn drop(&mut self) {
        for (w, tx) in self.txs.iter().enumerate() {
            if self.roster.alive(w) {
                let _ = tx.send(Msg::Stop);
            }
        }
        for h in self.handles.iter_mut() {
            if let Some(h) = h.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_cluster::{CommModel, DelayModel, VDur};

    fn spec(workers: usize, delay: DelayModel) -> ClusterSpec {
        ClusterSpec::homogeneous(workers, delay)
            .with_comm(CommModel::free())
            .with_sched_overhead(VDur::ZERO)
    }

    fn task(tag: u64, value: i64) -> Task {
        Task {
            tag,
            cost: 0.0,
            bytes_in: 0,
            run: Box::new(move |_| Box::new(value)),
        }
    }

    #[test]
    fn runs_tasks_and_returns_results() {
        let mut e = ThreadedEngine::new(spec(4, DelayModel::None), 0.0);
        for w in 0..4 {
            e.submit(w, task(w as u64, w as i64 * 10)).unwrap();
        }
        let mut seen = std::collections::HashMap::new();
        while let Some(Completion::Done(d)) = e.next() {
            seen.insert(d.tag, *d.output.downcast::<i64>().unwrap());
        }
        assert_eq!(seen.len(), 4);
        for w in 0..4u64 {
            assert_eq!(seen[&w], w as i64 * 10);
        }
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn tasks_actually_run_concurrently() {
        // Two tasks that each sleep ~30 ms must finish in well under 60 ms
        // of wall time if they truly overlap.
        let mut e = ThreadedEngine::new(spec(2, DelayModel::None), 0.0);
        let t0 = Instant::now();
        for w in 0..2 {
            e.submit(
                w,
                Task {
                    tag: w as u64,
                    cost: 0.0,
                    bytes_in: 0,
                    run: Box::new(|_| {
                        std::thread::sleep(Duration::from_millis(30));
                        Box::new(())
                    }),
                },
            )
            .unwrap();
        }
        let mut n = 0;
        while let Some(Completion::Done(_)) = e.next() {
            n += 1;
        }
        assert_eq!(n, 2);
        assert!(
            t0.elapsed() < Duration::from_millis(55),
            "took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn straggler_sleep_injection_slows_target() {
        // Worker 1 at 100% delay on a modelled 20 ms task; worker 0 fast.
        let delay = DelayModel::ControlledDelay {
            worker: 1,
            intensity: 1.0,
        };
        let mut sp = spec(2, delay);
        sp.profiles = vec![async_cluster::WorkerProfile { speed: 1e6 }; 2];
        let mut e = ThreadedEngine::new(sp, 1.0);
        // cost 20_000 units at 1e6 units/s = 20 ms modelled.
        for w in 0..2 {
            e.submit(
                w,
                Task {
                    tag: w as u64,
                    cost: 20_000.0,
                    bytes_in: 0,
                    run: Box::new(|_| Box::new(())),
                },
            )
            .unwrap();
        }
        let first = match e.next() {
            Some(Completion::Done(d)) => d.tag,
            _ => panic!(),
        };
        assert_eq!(first, 0, "non-straggler should finish first");
        let second = match e.next() {
            Some(Completion::Done(d)) => d,
            _ => panic!(),
        };
        assert_eq!(second.tag, 1);
        assert!(
            second.service_time >= VDur::from_micros(35_000),
            "straggler too fast: {}",
            second.service_time
        );
    }

    #[test]
    fn kill_worker_reports_lost_task() {
        let mut e = ThreadedEngine::new(spec(2, DelayModel::None), 0.0);
        e.submit(
            0,
            Task {
                tag: 9,
                cost: 0.0,
                bytes_in: 0,
                run: Box::new(|_| {
                    std::thread::sleep(Duration::from_millis(20));
                    Box::new(())
                }),
            },
        )
        .unwrap();
        e.kill_worker(0);
        match e.next() {
            Some(Completion::Lost { worker: 0, tag: 9 }) => {}
            _ => panic!("expected Lost"),
        }
        assert!(!e.alive(0));
        assert!(e.submit(0, task(0, 0)).is_err());
        // The orphaned real result must not surface.
        std::thread::sleep(Duration::from_millis(40));
        assert!(e.try_next().is_none());
        assert!(e.next().is_none());
    }

    #[test]
    fn a_task_that_panics_is_one_lost_task_and_a_revivable_worker() {
        let mut e = ThreadedEngine::new(spec(2, DelayModel::None), 0.0);
        let panics = Task {
            tag: 7,
            cost: 0.0,
            bytes_in: 0,
            run: Box::new(|_| panic!("a task body that panics")),
        };
        e.submit(0, panics).unwrap();
        // Polled, not `next()`: without the exit notice the engine waits on
        // a result that never comes, and this test must fail, not hang.
        let t0 = Instant::now();
        let first = loop {
            if let Some(c) = e.try_next() {
                break c;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "a panicked worker thread never reported its exit"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(matches!(first, Completion::Lost { worker: 0, tag: 7 }));
        assert_eq!(e.pending(), 0);
        assert!(!e.alive(0) && e.alive(1));
        assert!(e.next().is_none(), "one death is one notification");
        assert_eq!(
            e.submit(0, task(8, 0)).unwrap_err(),
            EngineError::WorkerDead(0)
        );
        e.revive_worker(0).unwrap();
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 0 })));
        e.submit(0, task(9, 90)).unwrap();
        match e.next() {
            Some(Completion::Done(d)) => {
                assert_eq!((d.worker, d.tag), (0, 9));
                assert_eq!(*d.output.downcast::<i64>().unwrap(), 90);
            }
            _ => panic!("expected the post-revival task"),
        }
        assert!(e.next().is_none());
    }

    #[test]
    fn revival_runs_fresh_tasks_and_drops_orphans() {
        let mut e = ThreadedEngine::new(spec(2, DelayModel::None), 0.0);
        // A slow task whose real result arrives after the kill+revival.
        e.submit(
            0,
            Task {
                tag: 1,
                cost: 0.0,
                bytes_in: 0,
                run: Box::new(|_| {
                    std::thread::sleep(Duration::from_millis(25));
                    Box::new(0i64)
                }),
            },
        )
        .unwrap();
        e.kill_worker(0);
        assert!(matches!(
            e.next(),
            Some(Completion::Lost { worker: 0, tag: 1 })
        ));
        assert_eq!(e.revive_worker(1).unwrap_err(), EngineError::WorkerAlive(1));
        e.revive_worker(0).unwrap();
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 0 })));
        assert!(e.alive(0) && e.available(0));
        // Give the orphaned pre-kill result time to land, then submit a
        // fresh task: only the fresh (current-epoch) result may surface.
        std::thread::sleep(Duration::from_millis(40));
        e.submit(0, task(2, 42)).unwrap();
        match e.next() {
            Some(Completion::Done(d)) => {
                assert_eq!(d.tag, 2, "stale-epoch result surfaced after revival");
                assert_eq!(*d.output.downcast::<i64>().unwrap(), 42);
            }
            _ => panic!("expected the post-revival task"),
        }
        assert!(e.next().is_none());
    }

    #[test]
    fn add_worker_joins_and_runs_tasks() {
        let mut e = ThreadedEngine::new(spec(1, DelayModel::None), 0.0);
        let w = e.add_worker();
        assert_eq!(w, 1);
        assert_eq!(e.workers(), 2);
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 1 })));
        e.submit(1, task(7, 70)).unwrap();
        match e.next() {
            Some(Completion::Done(d)) => assert_eq!((d.worker, d.tag), (1, 7)),
            _ => panic!("expected a result from the joined worker"),
        }
    }

    #[test]
    fn scheduled_chaos_applies_on_elapsed_time() {
        let mut e = ThreadedEngine::new(spec(2, DelayModel::None), 0.0);
        e.schedule_failure(1, VTime::from_micros(1_000));
        e.schedule_revival(1, VTime::from_micros(5_000));
        e.schedule_join(VTime::from_micros(8_000));
        // next() never blocks on *future* chaos with nothing in flight;
        // once the instants pass, due events apply in order at the next
        // poll.
        std::thread::sleep(Duration::from_millis(10));
        assert!(matches!(
            e.next(),
            Some(Completion::WorkerDown { worker: 1 })
        ));
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 1 })));
        assert!(matches!(e.next(), Some(Completion::WorkerUp { worker: 2 })));
        assert!(e.next().is_none());
        assert_eq!(e.workers(), 3);
        assert!((0..3).all(|w| e.alive(w)));
    }

    #[test]
    fn drain_does_not_block_on_future_chaos() {
        let mut e = ThreadedEngine::new(spec(1, DelayModel::None), 0.0);
        // An event far in the future must not stall an idle drain.
        e.schedule_join(VTime::from_micros(60_000_000));
        let t0 = Instant::now();
        assert!(e.next().is_none());
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "next() blocked toward the chaos horizon: {:?}",
            t0.elapsed()
        );
    }
}

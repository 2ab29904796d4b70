//! The worker roster: every engine's membership, its workers' one slot,
//! the completions owed to the caller and (on the wall-clock engines) the
//! scheduled membership changes. Its methods are the only transitions, so
//! their rules hold on all three backends: a death bumps the incarnation
//! and ends the seated task as one `Lost` (an idle death is one
//! `WorkerDown`); a finish from another incarnation or for another tag
//! changes nothing; a worker named by an undelivered completion takes no
//! task; and a start that fails is an incarnation that died at birth,
//! `WorkerUp` then `WorkerDown`.

use std::collections::VecDeque;
use std::io;

use async_cluster::{VTime, WorkerId};

use super::{Completion, Engine, EngineError};

/// A membership change scheduled against elapsed engine time.
pub(crate) enum PendingChaos {
    Fail(WorkerId),
    Revive(WorkerId),
    Join,
}

impl PendingChaos {
    /// Applies to `engine`, in schedule order, every change its roster
    /// (reached through `roster`) has due by the engine's clock. Reviving a
    /// worker that is alive by then is a no-op; a revival that fails to
    /// start is already a notice.
    pub fn apply_due<E: Engine, P>(engine: &mut E, roster: impl Fn(&mut E) -> &mut Roster<P>) {
        loop {
            let now = engine.now();
            match roster(engine).due(now) {
                None => return,
                Some(PendingChaos::Fail(w)) => engine.kill_worker(w),
                Some(PendingChaos::Revive(w)) => {
                    let _ = engine.revive_worker(w);
                }
                Some(PendingChaos::Join) => {
                    engine.add_worker();
                }
            }
        }
    }
}

/// A task in a worker's one slot.
pub(crate) struct Seat<P> {
    /// The task's tag.
    pub tag: u64,
    /// When it was seated.
    pub issued_at: VTime,
    /// What the engine keeps with it (the remote engine's decoder).
    pub payload: P,
}

/// One worker's row.
struct Row<P> {
    alive: bool,
    /// Bumped by every death.
    incarnation: u64,
    /// Tasks seated on this id over all its lives: the next task's
    /// straggler sequence number.
    seated: u64,
    seat: Option<Seat<P>>,
    /// Completions naming this worker that are queued undelivered.
    owed: usize,
}

impl<P> Row<P> {
    fn new(alive: bool) -> Self {
        Self {
            alive,
            incarnation: 0,
            seated: 0,
            seat: None,
            owed: 0,
        }
    }
}

/// The worker roster. See the module docs.
pub(crate) struct Roster<P = ()> {
    rows: Vec<Row<P>>,
    pending: usize,
    queued: VecDeque<Completion>,
    chaos: VecDeque<(VTime, PendingChaos)>,
}

fn worker_of(c: &Completion) -> WorkerId {
    match c {
        Completion::Done(d) => d.worker,
        Completion::Lost { worker, .. }
        | Completion::WorkerDown { worker }
        | Completion::WorkerUp { worker } => *worker,
    }
}

impl<P> Roster<P> {
    /// `workers` founding workers, alive and idle.
    pub fn new(workers: usize) -> Self {
        Self {
            rows: (0..workers).map(|_| Row::new(true)).collect(),
            pending: 0,
            queued: VecDeque::new(),
            chaos: VecDeque::new(),
        }
    }

    /// Total workers, dead or alive.
    pub fn workers(&self) -> usize {
        self.rows.len()
    }

    /// True when `w` has not failed.
    pub fn alive(&self, w: WorkerId) -> bool {
        self.rows[w].alive
    }

    /// True when `w` is alive, idle, and owed nothing.
    pub fn available(&self, w: WorkerId) -> bool {
        let row = &self.rows[w];
        row.alive && row.seat.is_none() && row.owed == 0
    }

    /// Whether `w` takes a task: `WorkerDead`, `WorkerBusy` (seated, or
    /// owed a completion), or `Ok`.
    pub fn check(&self, w: WorkerId) -> Result<(), EngineError> {
        if !self.alive(w) {
            Err(EngineError::WorkerDead(w))
        } else if !self.available(w) {
            Err(EngineError::WorkerBusy(w))
        } else {
            Ok(())
        }
    }

    /// `w`'s current incarnation.
    pub fn epoch(&self, w: WorkerId) -> u64 {
        self.rows[w].incarnation
    }

    /// True when `epoch` is `w`'s live incarnation.
    pub fn current(&self, w: WorkerId, epoch: u64) -> bool {
        let row = &self.rows[w];
        row.alive && row.incarnation == epoch
    }

    /// The straggler sequence number of the next task seated on `w`.
    pub fn next_seq(&self, w: WorkerId) -> u64 {
        self.rows[w].seated
    }

    /// Tasks seated.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The task `w` is running (`None` when dead or idle).
    pub fn seat_of(&self, w: WorkerId) -> Option<&Seat<P>> {
        self.rows[w].seat.as_ref()
    }

    /// Seats a task on `w`, which [`Roster::check`] has just passed.
    pub fn seat(&mut self, w: WorkerId, tag: u64, issued_at: VTime, payload: P) {
        let row = &mut self.rows[w];
        row.seated += 1;
        row.seat = Some(Seat {
            tag,
            issued_at,
            payload,
        });
        self.pending += 1;
    }

    /// Ends the seat a result from incarnation `epoch` of `w` tagged `tag`
    /// answers. `None` — nothing changes — for a result of an earlier
    /// incarnation or one no seat is waiting for.
    pub fn finish(&mut self, w: WorkerId, epoch: u64, tag: u64) -> Option<Seat<P>> {
        if !self.current(w, epoch) {
            return None;
        }
        let slot = &mut self.rows[w].seat;
        let seat = slot.take_if(|s| s.tag == tag)?;
        self.pending -= 1;
        Some(seat)
    }

    /// Fails `w` at a bumped incarnation and queues its notice: the seated
    /// task as [`Completion::Lost`], else [`Completion::WorkerDown`].
    /// False, changing nothing, when `w` is already dead.
    pub fn kill(&mut self, w: WorkerId) -> bool {
        let row = &mut self.rows[w];
        if !row.alive {
            return false;
        }
        row.alive = false;
        row.incarnation += 1;
        let notice = match row.seat.take() {
            Some(seat) => {
                self.pending -= 1;
                Completion::Lost {
                    worker: w,
                    tag: seat.tag,
                }
            }
            None => Completion::WorkerDown { worker: w },
        };
        self.notify(notice);
        true
    }

    /// Adds a row for a new worker with the next dense id. It is dead until
    /// [`Roster::revive`] brings it up.
    pub fn join(&mut self) -> WorkerId {
        self.rows.push(Row::new(false));
        self.rows.len() - 1
    }

    /// Brings dead `w` up at its current incarnation and queues
    /// [`Completion::WorkerUp`]. `started` is the engine's start of that
    /// incarnation: when it failed, the incarnation died at birth — a
    /// [`Completion::WorkerDown`] follows — and the failure is returned.
    pub fn revive(&mut self, w: WorkerId, started: io::Result<()>) -> Result<(), EngineError> {
        self.rows[w].alive = true;
        self.notify(Completion::WorkerUp { worker: w });
        started.map_err(|e| {
            self.kill(w);
            EngineError::Io(e.kind())
        })
    }

    /// Queues `c` for the caller; its worker takes no task until it is read.
    pub fn notify(&mut self, c: Completion) {
        self.rows[worker_of(&c)].owed += 1;
        self.queued.push_back(c);
    }

    /// The oldest queued completion.
    pub fn pop(&mut self) -> Option<Completion> {
        let c = self.queued.pop_front()?;
        self.rows[worker_of(&c)].owed -= 1;
        Some(c)
    }

    /// Schedules `ev` at `at`, after everything already scheduled at or
    /// before that instant.
    pub fn schedule(&mut self, at: VTime, ev: PendingChaos) {
        let pos = self.chaos.partition_point(|&(t, _)| t <= at);
        self.chaos.insert(pos, (at, ev));
    }

    /// The instant of the earliest scheduled change.
    pub fn next_event_at(&self) -> Option<VTime> {
        self.chaos.front().map(|&(at, _)| at)
    }

    /// Takes the earliest scheduled change if its instant is not after
    /// `now`.
    pub fn due(&mut self, now: VTime) -> Option<PendingChaos> {
        if self.next_event_at()? > now {
            return None;
        }
        self.chaos.pop_front().map(|(_, ev)| ev)
    }
}

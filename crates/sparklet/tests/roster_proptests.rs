//! Model-based properties of the worker roster, the one place every engine
//! keeps membership and its workers' slots. Random sequences of seat /
//! finish (current and stale incarnation) / kill / revive (started or
//! failed) / join / pop run against a plain `Vec` model; after every step
//! the roster and the model must agree, and:
//!
//! * `pending()` is the number of seated tasks;
//! * every seat ends exactly once, as a finish or as one `Lost`;
//! * a finish from a stale incarnation returns nothing and changes nothing;
//! * `available(w)` is false while a completion naming `w` is undelivered;
//! * no popped completion names a joined id before that id's `WorkerUp`.
//!
//! The roster is crate-private, so this test compiles its source directly.

use std::collections::{HashMap, VecDeque};
use std::io;

use async_cluster::{VDur, VTime, WorkerId};
use proptest::prelude::*;
use sparklet::{Completion, Engine, EngineError, TaskDone};

#[allow(dead_code)]
#[path = "../src/engine/roster.rs"]
mod roster;

use roster::{PendingChaos, Roster};

/// A completion reduced to what the model compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Notice {
    Done(WorkerId, u64),
    Lost(WorkerId, u64),
    Down(WorkerId),
    Up(WorkerId),
}

impl Notice {
    fn of(c: &Completion) -> Self {
        match *c {
            Completion::Done(ref d) => Notice::Done(d.worker, d.tag),
            Completion::Lost { worker, tag } => Notice::Lost(worker, tag),
            Completion::WorkerDown { worker } => Notice::Down(worker),
            Completion::WorkerUp { worker } => Notice::Up(worker),
        }
    }

    fn worker(self) -> WorkerId {
        match self {
            Notice::Done(w, _) | Notice::Lost(w, _) | Notice::Down(w) | Notice::Up(w) => w,
        }
    }
}

/// The plain model: one entry per worker in each `Vec`.
struct Model {
    alive: Vec<bool>,
    epoch: Vec<u64>,
    seat: Vec<Option<u64>>,
    queue: VecDeque<Notice>,
}

impl Model {
    fn owed(&self, w: WorkerId) -> bool {
        self.queue.iter().any(|n| n.worker() == w)
    }

    fn available(&self, w: WorkerId) -> bool {
        self.alive[w] && self.seat[w].is_none() && !self.owed(w)
    }

    fn kill(&mut self, w: WorkerId) {
        self.alive[w] = false;
        self.epoch[w] += 1;
        let notice = match self.seat[w].take() {
            Some(tag) => Notice::Lost(w, tag),
            None => Notice::Down(w),
        };
        self.queue.push_back(notice);
    }
}

fn done(w: WorkerId, tag: u64) -> Completion {
    Completion::Done(TaskDone {
        worker: w,
        tag,
        output: Box::new(()),
        issued_at: VTime::ZERO,
        finished_at: VTime::ZERO,
        service_time: VDur::ZERO,
        bytes_in: 0,
    })
}

fn started(fails: bool) -> io::Result<()> {
    if fails {
        Err(io::Error::from(io::ErrorKind::TimedOut))
    } else {
        Ok(())
    }
}

/// Pops one completion from both sides; a `Lost` ends its task, a
/// `WorkerUp` announces its id.
fn pop(
    r: &mut Roster,
    m: &mut Model,
    announced: &mut [bool],
    ended: &mut HashMap<u64, u32>,
) -> Result<(), String> {
    let got = r.pop().map(|c| Notice::of(&c));
    if got != m.queue.pop_front() {
        return Err(format!("pop gave {got:?}"));
    }
    match got {
        Some(Notice::Up(w)) => announced[w] = true,
        Some(n) if !announced[n.worker()] => {
            return Err(format!("{n:?} before the id's WorkerUp"));
        }
        Some(Notice::Lost(_, tag)) => *ended.entry(tag).or_default() += 1,
        _ => {}
    }
    Ok(())
}

/// Runs `ops` (kind, worker pick, flag) from `founders` workers; returns
/// the first disagreement.
fn run(founders: usize, ops: &[(u8, usize, u8)]) -> Result<(), String> {
    let mut r: Roster = Roster::new(founders);
    let mut m = Model {
        alive: vec![true; founders],
        epoch: vec![0; founders],
        seat: vec![None; founders],
        queue: VecDeque::new(),
    };
    // Founders need no `WorkerUp`; a joined id does.
    let mut announced = vec![true; founders];
    let mut ended: HashMap<u64, u32> = HashMap::new();
    let mut next_tag = 0u64;
    for &(kind, pick, flag) in ops {
        let w = pick % m.alive.len();
        match kind % 7 {
            0 => {
                let want = if !m.alive[w] {
                    Err(EngineError::WorkerDead(w))
                } else if !m.available(w) {
                    Err(EngineError::WorkerBusy(w))
                } else {
                    Ok(())
                };
                if r.check(w) != want {
                    return Err(format!("check({w}) = {:?}, want {want:?}", r.check(w)));
                }
                if want.is_ok() {
                    r.seat(w, next_tag, VTime::ZERO, ());
                    m.seat[w] = Some(next_tag);
                    ended.insert(next_tag, 0);
                    next_tag += 1;
                }
            }
            1 => {
                // A current-incarnation result: a wrong tag finishes
                // nothing, the seated tag finishes its seat. With the flag
                // set the result is queued for the caller, as the remote
                // engine does with results drained ahead of a pop.
                let epoch = m.epoch[w];
                let tag = m.seat[w].unwrap_or(u64::MAX);
                if r.finish(w, epoch, tag ^ (1 << 40)).is_some() {
                    return Err(format!("a wrong tag finished worker {w}'s seat"));
                }
                let got = r.finish(w, epoch, tag).map(|s| s.tag);
                let want = m.seat[w].take();
                if got != want {
                    return Err(format!("finish({w}) = {got:?}, want {want:?}"));
                }
                if let Some(tag) = got {
                    *ended.entry(tag).or_default() += 1;
                    if flag % 2 == 1 {
                        r.notify(done(w, tag));
                        m.queue.push_back(Notice::Done(w, tag));
                    }
                }
            }
            2 => {
                // A result from an earlier incarnation, with the seated tag.
                if m.epoch[w] > 0 {
                    let stale = u64::from(flag) % m.epoch[w];
                    let tag = m.seat[w].unwrap_or(0);
                    if r.finish(w, stale, tag).is_some() {
                        return Err(format!("incarnation {stale} of {w} finished a seat"));
                    }
                }
            }
            3 => {
                let killed = r.kill(w);
                if killed != m.alive[w] {
                    return Err(format!("kill({w}) = {killed}"));
                }
                if killed {
                    m.kill(w);
                }
            }
            4 => {
                // The engines refuse to revive a live worker before the
                // roster sees it.
                if !m.alive[w] {
                    let fails = flag % 3 == 0;
                    let got = r.revive(w, started(fails));
                    m.alive[w] = true;
                    m.queue.push_back(Notice::Up(w));
                    if fails {
                        m.kill(w);
                    }
                    let want = if fails {
                        Err(EngineError::Io(io::ErrorKind::TimedOut))
                    } else {
                        Ok(())
                    };
                    if got != want {
                        return Err(format!("revive({w}) = {got:?}, want {want:?}"));
                    }
                }
            }
            5 => {
                let id = r.join();
                if id != m.alive.len() {
                    return Err(format!("join gave id {id}"));
                }
                m.alive.push(false);
                m.epoch.push(0);
                m.seat.push(None);
                announced.push(false);
            }
            _ => pop(&mut r, &mut m, &mut announced, &mut ended)?,
        }
        let seated = m.seat.iter().flatten().count();
        if r.pending() != seated {
            return Err(format!("pending {} with {seated} seated", r.pending()));
        }
        if r.workers() != m.alive.len() {
            return Err(format!("{} workers, model {}", r.workers(), m.alive.len()));
        }
        for v in 0..m.alive.len() {
            if r.alive(v) != m.alive[v] || r.epoch(v) != m.epoch[v] {
                return Err(format!("worker {v}: alive/epoch disagree"));
            }
            if r.seat_of(v).map(|s| s.tag) != m.seat[v] {
                return Err(format!("worker {v}: seat disagrees"));
            }
            if r.available(v) != m.available(v) {
                return Err(format!("available({v}) = {}", r.available(v)));
            }
            if m.owed(v) && r.available(v) {
                return Err(format!(
                    "worker {v} is available with a completion undelivered"
                ));
            }
        }
        if let Some((tag, n)) = ended.iter().find(|&(_, &n)| n > 1) {
            return Err(format!("task {tag} ended {n} times"));
        }
    }
    while !m.queue.is_empty() {
        pop(&mut r, &mut m, &mut announced, &mut ended)?;
    }
    if r.pop().is_some() {
        return Err("the roster queued a completion the model did not".into());
    }
    for (tag, n) in &ended {
        let seated = m.seat.contains(&Some(*tag));
        if n + u32::from(seated) != 1 {
            return Err(format!("task {tag} ended {n} times, seated: {seated}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_roster_agrees_with_a_plain_model(
        founders in 1usize..5,
        ops in collection::vec((0u8..7, 0usize..8, 0u8..6), 0usize..120),
    ) {
        if let Err(msg) = run(founders, &ops) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn scheduled_changes_come_due_in_time_then_schedule_order(
        ats in collection::vec(0u64..20, 0usize..24),
        nows in collection::vec(0u64..24, 1usize..8),
    ) {
        let mut r: Roster = Roster::new(1);
        for (i, &at) in ats.iter().enumerate() {
            r.schedule(VTime::from_micros(at), PendingChaos::Fail(i));
        }
        let mut order: Vec<usize> = (0..ats.len()).collect();
        order.sort_by_key(|&i| ats[i]);
        let mut popped = Vec::new();
        let mut now = 0;
        for step in nows {
            now += step;
            while let Some(ev) = r.due(VTime::from_micros(now)) {
                let PendingChaos::Fail(i) = ev else {
                    return Err("only failures were scheduled".into());
                };
                prop_assert!(ats[i] <= now, "event at {} came due at {}", ats[i], now);
                popped.push(i);
            }
            if let Some(at) = r.next_event_at() {
                prop_assert!(at.as_micros() > now);
            }
        }
        prop_assert_eq!(&popped[..], &order[..popped.len()]);
    }
}

//! The [`ShardPool`]: a persistent thread pool for coordinate-sharded
//! work, kept only for the frozen `benchmark/` harness.
//!
//! The server absorbs every update on one thread
//! (`async_optim::ShardedAbsorber`): a pool wave dispatch costs several
//! times the whole absorb it would split. Nothing in the engine runs on
//! this pool. It stays because `benchmark/`'s microbenchmark
//! `linalg.shard_pool_wave_us` times one wave at two threads, and goes
//! when that harness is re-frozen (ROADMAP item 10).
//!
//! Dispatching a wave is a condvar wake plus an atomic claim loop over
//! threads kept alive for the pool's whole life, and performs **zero heap
//! allocations** once constructed. [`ShardPool::for_each`] runs
//! `f(i, &mut items[i])` exactly once per item, whatever the thread count
//! or claim order.
//!
//! Ownership rules:
//!
//! * the pool owns its threads; dropping it shuts them down (joining);
//! * a wave borrows `items` and `f` only until `for_each` returns — the
//!   completion wait is what makes the lifetime erasure inside sound.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One wave of shard jobs, shared between the caller and the pool threads.
///
/// The closure travels as a lifetime-erased raw pointer; it is only ever
/// dereferenced for a successfully claimed index `i < len`, which implies
/// the installing `for_each` call is still blocked in its completion wait
/// (so the closure is alive). A worker that claims `i >= len` exits
/// without touching the pointer.
struct Cell {
    /// Lifetime-erased wave closure (`None` between waves).
    job: Option<*const (dyn Fn(usize) + Sync)>,
    /// Items in the current wave.
    len: usize,
    /// Wave sequence number: a worker joins each wave at most once (it
    /// records the last generation it saw), and within a wave every index
    /// is claimed exactly once.
    generation: u64,
    /// Pool threads currently inside the claim loop. A new wave is only
    /// installed once this returns to zero, so a slow thread can never
    /// claim indices of a later wave through a stale counter.
    claimers: usize,
    /// Set to request thread shutdown (pool drop).
    shutdown: bool,
}

// SAFETY: the raw closure pointer is only dereferenced under the claim
// protocol described on [`Cell`]; all other fields are plain data guarded
// by the mutex.
unsafe impl Send for Cell {}

struct Shared {
    cell: Mutex<Cell>,
    /// Wakes pool threads when a wave is installed (or shutdown).
    work_cv: Condvar,
    /// Wakes the caller when the wave completes or a claimer retires.
    done_cv: Condvar,
    /// Next unclaimed item index of the current wave.
    next: AtomicUsize,
    /// Items completed in the current wave.
    done: AtomicUsize,
    /// A wave job panicked (re-thrown on the caller).
    poisoned: AtomicBool,
}

impl Shared {
    /// The claim loop: executes wave items until none remain. `job`/`len`
    /// were read under the lock for the generation being run. The raw
    /// closure pointer is dereferenced only *after* a successful claim —
    /// a thread that arrives once every index is taken (possibly after
    /// the installing `for_each` already returned and the closure died)
    /// never materializes a reference to it.
    fn drain(&self, job: *const (dyn Fn(usize) + Sync), len: usize) {
        loop {
            let i = self.next.fetch_add(1, Ordering::AcqRel);
            if i >= len {
                return;
            }
            // SAFETY: a successful claim means this item has not completed,
            // so `done < len` holds until we finish it — the installing
            // `for_each` is still blocked in its completion wait and the
            // closure it erased is alive.
            let job = unsafe { &*job };
            if catch_unwind(AssertUnwindSafe(|| job(i))).is_err() {
                self.poisoned.store(true, Ordering::SeqCst);
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == len {
                // Lock before notifying so the caller's condition check
                // and wait are atomic with respect to this signal.
                let _guard = self.cell.lock().expect("shard pool poisoned");
                self.done_cv.notify_all();
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut seen = 0u64;
    loop {
        let (job, len) = {
            let mut cell = shared.cell.lock().expect("shard pool poisoned");
            loop {
                if cell.shutdown {
                    return;
                }
                if cell.generation != seen {
                    if let Some(job) = cell.job {
                        seen = cell.generation;
                        cell.claimers += 1;
                        break (job, cell.len);
                    }
                }
                cell = shared.work_cv.wait(cell).expect("shard pool poisoned");
            }
        };
        // `job` was installed for the generation this thread is registered
        // on as a claimer; `drain` dereferences it only after claiming an
        // index `< len`, which can only happen while the installing
        // `for_each` is still blocked on completion.
        shared.drain(job, len);
        let mut cell = shared.cell.lock().expect("shard pool poisoned");
        cell.claimers -= 1;
        if cell.claimers == 0 {
            shared.done_cv.notify_all();
        }
        drop(cell);
    }
}

/// A persistent pool of shard-worker threads. See the module docs.
pub struct ShardPool {
    shared: Arc<Shared>,
    /// Serializes whole waves: `for_each` takes `&self` (so the pool can
    /// be shared), but the claim counters support exactly one wave at a
    /// time — a second concurrent caller parks here until the first wave
    /// fully completes. Consequence: `for_each` must not be re-entered
    /// from within a wave job (it would deadlock on this gate).
    wave_gate: Mutex<()>,
    threads: usize,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ShardPool {
    /// A pool with `threads` total participants (clamped to at least 1):
    /// the calling thread plus `threads − 1` persistent workers. With
    /// `threads == 1` no threads are spawned and every wave runs inline on
    /// the caller, in item order — the serial code path, byte for byte.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            cell: Mutex::new(Cell {
                job: None,
                len: 0,
                generation: 0,
                claimers: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("shard-{k}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawning shard pool thread")
            })
            .collect();
        Self {
            shared,
            wave_gate: Mutex::new(()),
            threads,
            workers,
        }
    }

    /// Total participants (caller included) a wave may use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(i, &mut items[i])` exactly once for every item, spread
    /// across the pool's threads (the caller participates), and returns
    /// when all items completed. With one participant — or one item — the
    /// wave runs inline in index order. Waves are serialized: concurrent
    /// callers on a shared pool queue behind one another (and calling
    /// `for_each` from *inside* a wave job deadlocks — don't).
    ///
    /// # Panics
    /// Panics if any wave job panicked (the panic is surfaced on the
    /// caller after the wave drains).
    pub fn for_each<T: Send, F: Fn(usize, &mut T) + Sync>(&self, items: &mut [T], f: F) {
        let len = items.len();
        if self.workers.is_empty() || len <= 1 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        // One wave at a time: the claim counters and the installed job
        // are single-wave state, so a concurrent caller must not reset
        // them mid-drain (exactly-once would break and its completion
        // wait could be satisfied by the other wave's counts). The gate
        // guards no data, and a poisoning panic (the wave-job re-throw
        // below unwinds while holding it) happens only after its wave
        // fully completed — so poison is safe to clear.
        let _wave = self
            .wave_gate
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let base = items.as_mut_ptr() as usize;
        let call = move |i: usize| {
            // SAFETY: the claim protocol hands each index to exactly one
            // participant, so this is the only live `&mut` to item `i`.
            let item = unsafe { &mut *(base as *mut T).add(i) };
            f(i, item);
        };
        let erased: &(dyn Fn(usize) + Sync) = &call;
        // SAFETY: the pointer is only dereferenced for claimed indices,
        // and every claimable index completes before this function
        // returns — `call` outlives all uses.
        let erased = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(erased)
        };
        {
            let mut cell = self.shared.cell.lock().expect("shard pool poisoned");
            // A thread still draining a *previous* wave would otherwise
            // race the counter reset below and claim fresh indices with
            // its stale closure.
            while cell.claimers > 0 {
                cell = self.shared.done_cv.wait(cell).expect("shard pool poisoned");
            }
            self.shared.next.store(0, Ordering::SeqCst);
            self.shared.done.store(0, Ordering::SeqCst);
            self.shared.poisoned.store(false, Ordering::SeqCst);
            cell.job = Some(erased as *const (dyn Fn(usize) + Sync));
            cell.len = len;
            cell.generation += 1;
            self.shared.work_cv.notify_all();
        }
        // The caller is a participant too: it drains alongside the pool
        // threads, then waits for stragglers.
        self.shared
            .drain(erased as *const (dyn Fn(usize) + Sync), len);
        let mut cell = self.shared.cell.lock().expect("shard pool poisoned");
        while self.shared.done.load(Ordering::SeqCst) < len {
            cell = self.shared.done_cv.wait(cell).expect("shard pool poisoned");
        }
        cell.job = None;
        drop(cell);
        if self.shared.poisoned.load(Ordering::SeqCst) {
            panic!("shard pool: a wave job panicked");
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        {
            let mut cell = self.shared.cell.lock().expect("shard pool poisoned");
            cell.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_visits_every_item_once() {
        for threads in [1usize, 2, 4, 7] {
            let pool = ShardPool::new(threads);
            let mut items: Vec<u64> = vec![0; 33];
            pool.for_each(&mut items, |i, it| *it += i as u64 + 1);
            let want: Vec<u64> = (0..33).map(|i| i + 1).collect();
            assert_eq!(items, want, "threads={threads}");
            // A second wave reuses the same machinery.
            pool.for_each(&mut items, |_, it| *it *= 2);
            assert_eq!(items[0], 2);
            assert_eq!(items[32], 66);
        }
    }

    #[test]
    fn sharded_axpy_is_bit_identical_to_serial() {
        let n: usize = 1003;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut serial: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let sharded = serial.clone();
        crate::dense::axpy(0.37, &x, &mut serial);
        for threads in [2usize, 3, 8] {
            let pool = ShardPool::new(threads);
            let mut got = sharded.clone();
            // Disjoint (destination, source) chunk pairs, one per thread.
            let chunk = n.div_ceil(threads);
            let mut parts: Vec<(&mut [f64], &[f64])> =
                got.chunks_mut(chunk).zip(x.chunks(chunk)).collect();
            pool.for_each(&mut parts, |_, (dst, src)| {
                crate::dense::axpy(0.37, &src[..], &mut dst[..])
            });
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn concurrent_callers_serialize_into_exact_waves() {
        // Two threads hammering for_each on one shared pool: the wave
        // gate must keep every wave exactly-once (no lost or doubled
        // increments across 2 × 100 waves).
        let pool = std::sync::Arc::new(ShardPool::new(3));
        let totals: Vec<std::sync::Mutex<Vec<u64>>> = (0..2)
            .map(|_| std::sync::Mutex::new(vec![0u64; 24]))
            .collect();
        let totals = std::sync::Arc::new(totals);
        std::thread::scope(|s| {
            for t in 0..2usize {
                let pool = std::sync::Arc::clone(&pool);
                let totals = std::sync::Arc::clone(&totals);
                s.spawn(move || {
                    for _ in 0..100 {
                        let mut items = totals[t].lock().unwrap();
                        pool.for_each(&mut items, |_, x| *x += 1);
                    }
                });
            }
        });
        for t in 0..2 {
            let items = totals[t].lock().unwrap();
            assert!(items.iter().all(|&x| x == 100), "caller {t}: {items:?}");
        }
    }

    #[test]
    fn many_waves_stay_consistent() {
        let pool = ShardPool::new(4);
        let mut acc = vec![0u64; 16];
        for wave in 0..200u64 {
            pool.for_each(&mut acc, |_, a| *a += wave);
        }
        let want: u64 = (0..200).sum();
        assert!(acc.iter().all(|&a| a == want), "{acc:?}");
    }

    #[test]
    fn single_item_wave_runs_inline() {
        let pool = ShardPool::new(4);
        let mut one = [0u32];
        pool.for_each(&mut one, |i, it| *it = i as u32 + 7);
        assert_eq!(one[0], 7);
        let mut none: [u32; 0] = [];
        pool.for_each(&mut none, |_, _| unreachable!());
    }

    #[test]
    fn wave_panic_surfaces_on_the_caller() {
        let pool = ShardPool::new(3);
        let mut items = vec![0u8; 8];
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each(&mut items, |i, _| {
                if i == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err(), "job panic must re-throw on the caller");
        // The pool survives a poisoned wave.
        pool.for_each(&mut items, |_, it| *it = 1);
        assert!(items.iter().all(|&b| b == 1));
    }
}

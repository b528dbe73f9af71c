//! A small `std::thread` work-stealing pool.
//!
//! This crate backs the workspace's parallel iterators (the vendored
//! `rayon` facade) and the halo-sharded frame runner in `sw-core`. It is
//! deliberately tiny: one global injector queue plus one deque per worker,
//! condvar parking, and a *caller-helps* batch primitive
//! ([`ThreadPool::par_map_indexed`]) that guarantees forward progress even
//! with zero workers — the calling thread claims and runs items itself, so
//! nested parallel calls can never deadlock. A fire-and-forget
//! [`ThreadPool::spawn`] rides the same queues for detached closures (the
//! serving reactor's dispatch primitive); it needs at least one worker.
//!
//! # Scheduling model
//!
//! A batch of `len` items is represented by a single atomic claim counter.
//! Up to `min(len, workers)` *tickets* are pushed onto the queues; each
//! ticket (and the caller) loops `fetch_add`-claiming indices until the
//! counter passes `len`. Workers prefer their own deque (LIFO), then the
//! injector, then steal from sibling deques (FIFO) — steals are counted in
//! [`PoolStats`]. Tickets pushed from inside a worker (nested batches) go
//! to that worker's own deque so siblings can steal them.
//!
//! # Determinism
//!
//! `par_map_indexed` writes the result of item `i` into slot `i`, so the
//! collected output order is always the input order, independent of how
//! the items were interleaved across threads. Panics in items are caught
//! and re-raised on the calling thread after the batch drains.
//!
//! # Pool sizing
//!
//! `jobs` counts *participating threads*: the calling thread plus
//! `jobs − 1` workers. `jobs = 1` therefore means fully sequential
//! execution on the caller with no threads spawned. The process-wide
//! [`global`] pool is sized from `SWC_JOBS` or `available_parallelism`
//! (see [`default_jobs`]) unless [`configure_global`] ran first.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

/// How long an idle worker sleeps before re-polling the queues. A missed
/// wakeup therefore costs at most one interval; correctness never depends
/// on `notify` delivery.
const PARK_INTERVAL: Duration = Duration::from_millis(10);

/// Work that can be driven by claiming item indices.
///
/// # Safety contract (internal)
///
/// Implementations are only ever dereferenced through a [`WorkPtr`] after a
/// successful index claim (`i < len`), and the owning batch cannot be
/// dropped until every claimed index has called `finish_one` — see
/// [`Ticket::run`].
trait IndexWork: Sync {
    fn run_index(&self, i: usize);
}

/// Type- and lifetime-erased pointer to a stack-borrowed [`IndexWork`].
///
/// Safety: the pointee lives on the stack frame of `par_map_indexed`,
/// which does not return until the batch counter proves no ticket will
/// dereference this pointer again (every index claimed → every claim
/// finished). Stale tickets left on a queue after a batch completes never
/// dereference: their first claim already yields `i >= len`.
#[derive(Clone, Copy)]
struct WorkPtr(*const (dyn IndexWork + 'static));

// Safety: see `WorkPtr` — the pointee is `Sync` and outlives every deref.
unsafe impl Send for WorkPtr {}
unsafe impl Sync for WorkPtr {}

/// Shared completion state of one batch.
struct BatchState {
    /// Next index to claim; claims at or past `len` are no-ops.
    next: AtomicUsize,
    len: usize,
    done: Mutex<DoneState>,
    cv: Condvar,
}

struct DoneState {
    completed: usize,
    /// First captured panic payload (subsequent ones are dropped).
    panic: Option<Box<dyn Any + Send + 'static>>,
}

impl BatchState {
    fn new(len: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            len,
            done: Mutex::new(DoneState {
                completed: 0,
                panic: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut d = self.done.lock().expect("batch lock");
        d.panic.get_or_insert(payload);
    }

    fn finish_one(&self) {
        let mut d = self.done.lock().expect("batch lock");
        d.completed += 1;
        if d.completed == self.len {
            self.cv.notify_all();
        }
    }
}

/// One borrowed batch: the mapping function plus one result slot per item.
struct Batch<'f, R> {
    func: &'f (dyn Fn(usize) -> R + Sync),
    slots: Vec<Mutex<Option<R>>>,
    state: Arc<BatchState>,
}

impl<R: Send> IndexWork for Batch<'_, R> {
    fn run_index(&self, i: usize) {
        match panic::catch_unwind(AssertUnwindSafe(|| (self.func)(i))) {
            Ok(v) => *self.slots[i].lock().expect("slot lock") = Some(v),
            Err(payload) => self.state.record_panic(payload),
        }
        self.state.finish_one();
    }
}

/// A queued invitation to help drain one batch.
struct Ticket {
    state: Arc<BatchState>,
    work: WorkPtr,
}

/// One unit of queued work: either a batch ticket (caller-helps, borrowed
/// from a blocked `par_map_indexed` frame) or a detached owned closure
/// submitted via [`ThreadPool::spawn`].
enum Task {
    Batch(Ticket),
    Detached(Box<dyn FnOnce() + Send + 'static>),
}

impl Ticket {
    /// Claim-and-run items until the batch counter is exhausted.
    fn run(&self, shared: &Shared, is_worker: bool) {
        loop {
            let i = self.state.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.state.len {
                return;
            }
            shared.stats.items.fetch_add(1, Ordering::Relaxed);
            if is_worker {
                shared.stats.worker_items.fetch_add(1, Ordering::Relaxed);
            }
            // Safety: `i < len`, so the batch owner is still blocked in
            // `par_map_indexed` waiting for this index to finish — the
            // pointee is alive (see `WorkPtr`).
            unsafe { (*self.work.0).run_index(i) };
        }
    }
}

#[derive(Default)]
struct StatsCells {
    batches: AtomicU64,
    items: AtomicU64,
    worker_items: AtomicU64,
    steals: AtomicU64,
    injected: AtomicU64,
    local_pushes: AtomicU64,
    queue_depth_high_water: AtomicU64,
    detached: AtomicU64,
    detached_panics: AtomicU64,
}

/// A point-in-time snapshot of a pool's scheduling counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Participating threads (caller + workers).
    pub jobs: usize,
    /// Spawned worker threads (`jobs − 1`).
    pub workers: usize,
    /// Batches executed via [`ThreadPool::par_map_indexed`].
    pub batches: u64,
    /// Items executed, on any thread.
    pub items: u64,
    /// Items executed on worker threads (the rest ran on callers).
    pub worker_items: u64,
    /// Tickets taken from a *sibling* worker's deque.
    pub steals: u64,
    /// Tickets pushed onto the global injector (from non-worker threads).
    pub injected: u64,
    /// Tickets pushed onto a worker's own deque (nested batches).
    pub local_pushes: u64,
    /// High-water mark of tickets simultaneously queued.
    pub queue_depth_high_water: u64,
    /// Detached closures executed via [`ThreadPool::spawn`].
    pub detached: u64,
    /// Detached closures that panicked (caught; the worker survives).
    pub detached_panics: u64,
}

struct Shared {
    /// Identity used to match `WORKER` thread-locals to this pool.
    pool_id: u64,
    injector: Mutex<VecDeque<Task>>,
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// Tickets currently queued anywhere (injector + locals).
    pending: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    stats: StatsCells,
}

thread_local! {
    /// `(pool_id, worker_index)` when the current thread is a pool worker.
    static WORKER: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

static POOL_IDS: AtomicU64 = AtomicU64::new(1);

impl Shared {
    /// The current thread's worker index *in this pool*, if any.
    fn worker_index(&self) -> Option<usize> {
        WORKER
            .get()
            .and_then(|(id, idx)| (id == self.pool_id).then_some(idx))
    }

    fn push(&self, task: Task) {
        // Count the task before it becomes visible: a worker may take it
        // (and decrement) the moment it is queued.
        let depth = self.pending.fetch_add(1, Ordering::SeqCst) as u64 + 1;
        match self.worker_index() {
            Some(idx) => {
                self.locals[idx]
                    .lock()
                    .expect("local deque lock")
                    .push_back(task);
                self.stats.local_pushes.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.injector.lock().expect("injector lock").push_back(task);
                self.stats.injected.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.stats
            .queue_depth_high_water
            .fetch_max(depth, Ordering::Relaxed);
        let _guard = self.sleep.lock().expect("sleep lock");
        self.wake.notify_all();
    }

    /// Pop a task: own deque first (LIFO), then the injector, then steal
    /// from siblings (FIFO).
    fn take(&self, me: Option<usize>) -> Option<Task> {
        if let Some(m) = me {
            if let Some(t) = self.locals[m].lock().expect("local deque lock").pop_back() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some(t);
            }
        }
        if let Some(t) = self.injector.lock().expect("injector lock").pop_front() {
            self.pending.fetch_sub(1, Ordering::SeqCst);
            return Some(t);
        }
        for (j, deque) in self.locals.iter().enumerate() {
            if Some(j) == me {
                continue;
            }
            if let Some(t) = deque.lock().expect("sibling deque lock").pop_front() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                self.stats.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// Execute one task a worker dequeued. Detached closures run under
    /// `catch_unwind` so a panicking submission can never kill a worker.
    fn run_task(&self, task: Task) {
        match task {
            Task::Batch(ticket) => ticket.run(self, true),
            Task::Detached(f) => {
                self.stats.detached.fetch_add(1, Ordering::Relaxed);
                if panic::catch_unwind(AssertUnwindSafe(f)).is_err() {
                    self.stats.detached_panics.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

fn worker_main(shared: Arc<Shared>, me: usize) {
    WORKER.set(Some((shared.pool_id, me)));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some(task) = shared.take(Some(me)) {
            shared.run_task(task);
            continue;
        }
        let guard = shared.sleep.lock().expect("sleep lock");
        if shared.shutdown.load(Ordering::SeqCst) || shared.pending.load(Ordering::SeqCst) > 0 {
            continue;
        }
        // Timed park: even a lost notification only costs PARK_INTERVAL.
        let _ = shared
            .wake
            .wait_timeout(guard, PARK_INTERVAL)
            .expect("sleep lock");
    }
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool shuts the workers down and joins them. Batches in
/// flight cannot outlive the pool: `par_map_indexed` borrows `self` for
/// its whole duration.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    jobs: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("jobs", &self.jobs)
            .finish()
    }
}

impl ThreadPool {
    /// Build a pool with `jobs` participating threads (the caller plus
    /// `jobs − 1` spawned workers).
    ///
    /// # Panics
    ///
    /// Panics if `jobs == 0` — zero threads cannot make progress. CLI
    /// layers should validate with [`parse_jobs`] first.
    pub fn new(jobs: usize) -> Self {
        assert!(jobs >= 1, "a thread pool needs at least 1 job");
        let workers = jobs - 1;
        let shared = Arc::new(Shared {
            pool_id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: StatsCells::default(),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("sw-pool-{me}"))
                    .spawn(move || worker_main(shared, me))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            jobs,
        }
    }

    /// Participating threads (caller + workers).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Spawned worker threads (`jobs() − 1`).
    pub fn workers(&self) -> usize {
        self.jobs - 1
    }

    /// Snapshot the scheduling counters.
    pub fn stats(&self) -> PoolStats {
        let s = &self.shared.stats;
        PoolStats {
            jobs: self.jobs,
            workers: self.jobs - 1,
            batches: s.batches.load(Ordering::Relaxed),
            items: s.items.load(Ordering::Relaxed),
            worker_items: s.worker_items.load(Ordering::Relaxed),
            steals: s.steals.load(Ordering::Relaxed),
            injected: s.injected.load(Ordering::Relaxed),
            local_pushes: s.local_pushes.load(Ordering::Relaxed),
            queue_depth_high_water: s.queue_depth_high_water.load(Ordering::Relaxed),
            detached: s.detached.load(Ordering::Relaxed),
            detached_panics: s.detached_panics.load(Ordering::Relaxed),
        }
    }

    /// Submit a detached closure for execution on a worker thread.
    ///
    /// Unlike [`par_map_indexed`](Self::par_map_indexed) this does not
    /// block: the closure is queued and the call returns immediately.
    /// Panics inside the closure are caught and counted in
    /// [`PoolStats::detached_panics`]; they never poison the pool or kill
    /// a worker.
    ///
    /// # Panics
    ///
    /// Panics on a pool without workers (`jobs == 1`): no thread could
    /// ever run the closure.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        assert!(self.workers() > 0, "spawn needs at least one worker thread");
        self.shared.push(Task::Detached(Box::new(f)));
    }

    /// Run `f(0..len)` across the pool, returning results in index order.
    ///
    /// The calling thread participates (it claims items like any worker),
    /// so this never deadlocks — including when called from inside another
    /// `par_map_indexed` item, or on a pool with zero workers, where it
    /// simply degenerates to a sequential loop.
    ///
    /// # Panics
    ///
    /// If any item panics, the first payload is re-raised on the calling
    /// thread once the whole batch has drained.
    pub fn par_map_indexed<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if len == 0 {
            return Vec::new();
        }
        self.shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(BatchState::new(len));
        let mut slots = Vec::with_capacity(len);
        for _ in 0..len {
            slots.push(Mutex::new(None));
        }
        let batch = Batch {
            func: &f,
            slots,
            state: state.clone(),
        };
        // Erase the batch's lifetime so tickets can sit on the queues.
        // Safety: justified at `WorkPtr` — this frame blocks below until
        // no live claim can dereference the pointer again.
        let work = {
            let obj: &(dyn IndexWork + '_) = &batch;
            #[allow(clippy::missing_transmute_annotations)]
            WorkPtr(unsafe { std::mem::transmute(obj as *const (dyn IndexWork + '_)) })
        };
        // One ticket per worker that could usefully help.
        for _ in 0..self.workers().min(len) {
            self.shared.push(Task::Batch(Ticket {
                state: state.clone(),
                work,
            }));
        }
        // The caller helps until the claim counter is exhausted…
        Ticket {
            state: state.clone(),
            work,
        }
        .run(&self.shared, false);
        // …then waits for items claimed by workers to finish.
        let mut done = state.done.lock().expect("batch lock");
        while done.completed < state.len {
            let (guard, _) = state
                .cv
                .wait_timeout(done, PARK_INTERVAL)
                .expect("batch lock");
            done = guard;
        }
        let panicked = done.panic.take();
        drop(done);
        let Batch { slots, .. } = batch;
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("every index claimed exactly once")
            })
            .collect()
    }

    /// Map `f` over a slice on the pool, preserving input order.
    pub fn par_map<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        self.par_map_indexed(items.len(), |i| f(&items[i]))
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.shared.sleep.lock().expect("sleep lock");
            self.shared.wake.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Parse a user-supplied `--jobs` value with friendly errors.
///
/// Rejects `0` (zero threads cannot make progress) and anything that is
/// not a positive integer.
pub fn parse_jobs(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(0) => Err("--jobs must be at least 1 (0 threads cannot make progress)".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "invalid --jobs value '{s}': expected a positive integer"
        )),
    }
}

/// The default pool size: `SWC_JOBS` when set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("SWC_JOBS") {
        if let Ok(n) = parse_jobs(&v) {
            return n;
        }
        eprintln!("warning: ignoring invalid SWC_JOBS='{v}' (expected a positive integer)");
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool used by the `rayon` facade's `par_iter`.
///
/// First use initialises it with [`default_jobs`] threads unless
/// [`configure_global`] ran earlier.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(default_jobs()))
}

/// Size the global pool explicitly (e.g. from a `--jobs` flag) before its
/// first use.
///
/// Succeeds if the pool is not yet initialised, or is already initialised
/// with the same size; errs if a differently-sized global pool exists.
pub fn configure_global(jobs: usize) -> Result<(), String> {
    assert!(jobs >= 1, "a thread pool needs at least 1 job");
    let mut fresh = false;
    let pool = GLOBAL.get_or_init(|| {
        fresh = true;
        ThreadPool::new(jobs)
    });
    if !fresh && pool.jobs() != jobs {
        return Err(format!(
            "global pool already initialised with {} jobs (requested {jobs})",
            pool.jobs()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    #[test]
    fn zero_items_is_a_noop() {
        let pool = ThreadPool::new(2);
        let out: Vec<u32> = pool.par_map_indexed(0, |_| unreachable!("no items"));
        assert!(out.is_empty());
    }

    #[test]
    fn results_come_back_in_input_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..257).collect();
        let out = pool.par_map(&items, |&x| x * 3);
        assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn single_job_pool_runs_everything_on_the_caller() {
        let pool = ThreadPool::new(1);
        let caller = thread::current().id();
        let out = pool.par_map_indexed(16, |i| (i, thread::current().id()));
        assert!(out.iter().all(|&(_, id)| id == caller));
        let stats = pool.stats();
        assert_eq!(stats.workers, 0);
        assert_eq!(stats.items, 16);
        assert_eq!(stats.worker_items, 0);
        assert_eq!(stats.injected, 0, "no tickets queued with no workers");
    }

    #[test]
    fn each_item_runs_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.par_map_indexed(100, |i| hits[i].fetch_add(1, Ordering::SeqCst));
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        assert_eq!(pool.stats().items, 100);
    }

    /// The acceptance-criteria assertion: a parallel batch demonstrably
    /// runs on more than one OS thread. Two items rendezvous — each blocks
    /// until both have *started*, which is only possible if two distinct
    /// threads are executing them concurrently.
    #[test]
    fn batch_uses_more_than_one_os_thread() {
        let pool = ThreadPool::new(2);
        let started = AtomicUsize::new(0);
        let ids = pool.par_map_indexed(2, |i| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(20);
            while started.load(Ordering::SeqCst) < 2 {
                assert!(
                    Instant::now() < deadline,
                    "item {i} waited 20s for a second thread: pool is sequential"
                );
                thread::yield_now();
            }
            thread::current().id()
        });
        assert_ne!(ids[0], ids[1], "both items ran on the same OS thread");
        assert!(pool.stats().worker_items >= 1);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = ThreadPool::new(3);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_indexed(8, |i| {
                if i == 5 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must cross par_map_indexed");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 5"), "got payload message {msg:?}");
        // The pool survives a panicked batch.
        assert_eq!(pool.par_map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let pool = ThreadPool::new(3);
        let pool = &pool;
        let out = pool.par_map_indexed(6, |i| {
            let inner = pool.par_map_indexed(5, move |j| i * 10 + j);
            inner.into_iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..6).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn deeply_nested_on_a_workerless_pool_still_progresses() {
        let pool = ThreadPool::new(1);
        let pool = &pool;
        let out = pool.par_map_indexed(2, |i| {
            pool.par_map_indexed(2, move |j| {
                pool.par_map_indexed(2, move |k| i * 100 + j * 10 + k)
                    .into_iter()
                    .sum::<usize>()
            })
            .into_iter()
            .sum::<usize>()
        });
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn distinct_worker_threads_are_spawned() {
        // With enough rendezvousing items, a 4-job pool must show >= 2
        // distinct thread ids even on a single hardware core.
        let pool = ThreadPool::new(4);
        let started = AtomicUsize::new(0);
        let ids = pool.par_map_indexed(4, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(20);
            while started.load(Ordering::SeqCst) < 2 {
                assert!(Instant::now() < deadline, "no concurrency after 20s");
                thread::yield_now();
            }
            thread::current().id()
        });
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() >= 2, "expected >= 2 OS threads");
    }

    #[test]
    fn parse_jobs_accepts_positive_integers() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs(" 8 "), Ok(8));
    }

    #[test]
    fn parse_jobs_rejects_zero_and_garbage() {
        assert!(parse_jobs("0").unwrap_err().contains("at least 1"));
        assert!(parse_jobs("four").unwrap_err().contains("positive integer"));
        assert!(parse_jobs("").unwrap_err().contains("positive integer"));
        assert!(parse_jobs("-2").unwrap_err().contains("positive integer"));
    }

    #[test]
    fn queue_depth_high_water_is_recorded() {
        let pool = ThreadPool::new(4);
        pool.par_map_indexed(64, |i| i * i);
        let stats = pool.stats();
        assert!(stats.queue_depth_high_water >= 1);
        assert!(stats.queue_depth_high_water <= 64);
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn spawn_runs_detached_work() {
        let pool = ThreadPool::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..8usize {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).expect("receiver alive"));
        }
        let mut got: Vec<usize> = (0..8)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("detached task ran")
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert_eq!(pool.stats().detached, 8);
        assert_eq!(pool.stats().detached_panics, 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn spawn_without_workers_is_rejected() {
        ThreadPool::new(1).spawn(|| {});
    }

    #[test]
    fn spawn_panic_is_contained() {
        let pool = ThreadPool::new(2);
        pool.spawn(|| panic!("detached boom"));
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.stats().detached_panics == 0 {
            assert!(Instant::now() < deadline, "panic never recorded");
            thread::yield_now();
        }
        // The worker survives and the pool stays usable.
        assert_eq!(pool.par_map_indexed(3, |i| i), vec![0, 1, 2]);
        assert_eq!(pool.stats().detached_panics, 1);
    }

    #[test]
    fn drop_joins_workers_quickly() {
        let pool = ThreadPool::new(8);
        pool.par_map_indexed(16, |i| i);
        let t0 = Instant::now();
        drop(pool);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "drop should join promptly"
        );
    }
}

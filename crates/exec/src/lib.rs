//! A fixed-size work-stealing thread pool built from the `cds` structure
//! zoo — the runtime the scheduler literature motivates work-stealing
//! deques with.
//!
//! # Architecture
//!
//! * One [`cds_queue::ChaseLevDeque`] **worker** per pool thread holds its
//!   local tasks (LIFO for the owner — cache-warm child tasks run first);
//!   every other thread holds that deque's [`cds_queue::Stealer`].
//! * External submissions land in a shared bounded **injector**
//!   ([`cds_queue::BoundedQueue`]); when it is full, [`Executor::spawn`]
//!   falls through to an unbounded lock-free **overflow** queue
//!   ([`cds_queue::MsQueue`]) instead of blocking — `spawn` never waits.
//! * Idle workers probe victims in seeded-random order with
//!   [`cds_queue::Stealer::steal_batch_and_pop`] (up to half the victim's
//!   tasks, amortizing the probe) and, finding nothing, **wait**: one
//!   [`Parker::wait_until`] on the shared [`cds_sync::Parker`]
//!   eventcount, whose attempt is the shutdown flag plus every task
//!   source. A spawner makes its task visible and calls
//!   [`Parker::notify`]. (The protocol, its lost-wakeup argument and the
//!   spin-then-park wait policy are described once, in the module docs
//!   of `crates/sync/src/parker.rs`.)
//! * The whole pool is generic over `R:`[`Reclaimer`] like the structures
//!   it composes, so the deque buffers and overflow nodes are managed by
//!   whichever backend the application standardized on.
//!
//! # Termination detection
//!
//! [`Steal::Retry`] is never treated as emptiness (the
//! [`Steal`](cds_queue::Steal) contract): a worker only exits on shutdown
//! after a scan in which every source reported empty and every steal
//! returned `Empty` — a `Retry` means another thread took the element, so
//! the worker rescans.
//!
//! # Example
//!
//! ```
//! use cds_exec::Executor;
//! use cds_atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let pool = Executor::new(2);
//! let hits = Arc::new(AtomicU64::new(0));
//! for _ in 0..100 {
//!     let hits = Arc::clone(&hits);
//!     pool.spawn(move || {
//!         hits.fetch_add(1, Ordering::Relaxed);
//!     });
//! }
//! pool.quiesce();
//! assert_eq!(hits.load(Ordering::Relaxed), 100);
//! assert_eq!(pool.spawned(), pool.executed());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use cds_atomic::{AtomicBool, AtomicU64, Ordering};
use std::cell::Cell;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

use cds_atomic::stress;
use cds_core::ConcurrentQueue;
use cds_obs::Event;
use cds_queue::{BoundedQueue, ChaseLevDeque, MsQueue, Steal, Stealer, Worker};
use cds_reclaim::{Ebr, Reclaimer};
use cds_sync::{Backoff, CachePadded, Parker};

/// A unit of work: a boxed closure run exactly once on some pool thread.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Pool geometry and seeding.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Number of worker threads (must be positive).
    pub threads: usize,
    /// Seed of the per-worker victim-selection RNG streams; two pools
    /// with the same seed and thread count probe victims in the same
    /// order, which is what makes scheduled executor runs replayable.
    pub seed: u64,
    /// Capacity of the bounded injector (rounded up to a power of two).
    /// Spawns that find it full overflow into the unbounded queue.
    pub injector_capacity: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 4,
            seed: 0,
            injector_capacity: 256,
        }
    }
}

/// State shared by the pool handle and every worker thread. `spawned`
/// (spawners write it), `executed` (workers write it) and the `parker`
/// each own a cache line, so a waiting worker's spin reads no line its
/// spawner is writing.
struct Shared<R: Reclaimer> {
    injector: BoundedQueue<Task>,
    overflow: MsQueue<Task, R>,
    stealers: Vec<Stealer<Task, R>>,
    parker: Parker,
    spawned: CachePadded<AtomicU64>,
    executed: CachePadded<AtomicU64>,
    shutdown: AtomicBool,
    seed: u64,
}

impl<R: Reclaimer> Shared<R> {
    /// Submits a task: local deque when called from a worker of this
    /// pool, else the bounded injector, else the overflow queue. Never
    /// blocks.
    fn spawn_task(self: &Arc<Self>, task: Task) {
        self.spawned.fetch_add(1, Ordering::SeqCst);
        cds_obs::count(Event::ExecTasksSpawned);
        stress::yield_point();
        let pool = Arc::as_ptr(self) as *const () as usize;
        let mut task = Some(task);
        let local = LOCAL.with(|l| match l.get() {
            Some(slot) if slot.pool == pool => {
                // SAFETY: the slot is published only while the worker
                // loop (and thus the pointed-to deque owner) is live on
                // this very thread, and cleared before it exits.
                unsafe { (slot.push)(slot.worker, task.take().expect("task present")) };
                true
            }
            _ => false,
        });
        if !local {
            if let Err(t) = self
                .injector
                .try_enqueue(task.take().expect("task present"))
            {
                cds_obs::count(Event::ExecInjectorOverflow);
                self.overflow.enqueue(t);
            }
        }
        self.parker.notify();
    }

    /// Whether any task source is visibly non-empty. Used by the park
    /// re-check; all the emptiness reads are racy, which is fine — work
    /// arriving after the prepare is covered by the epoch protocol.
    fn has_visible_work(&self, own_index: usize) -> bool {
        if !self.injector.is_empty() || !self.overflow.is_empty() {
            return true;
        }
        self.stealers
            .iter()
            .enumerate()
            .any(|(i, s)| i != own_index && !s.is_empty())
    }
}

impl<R: Reclaimer> fmt::Debug for Shared<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("workers", &self.stealers.len())
            .field("spawned", &self.spawned.load(Ordering::Relaxed))
            .field("executed", &self.executed.load(Ordering::Relaxed))
            .field("reclaimer", &R::NAME)
            .finish()
    }
}

/// The worker-thread hook `spawn` uses to detect "called from inside
/// this pool" and push to the local deque. Type-erased so the
/// thread-local does not depend on `R`.
#[derive(Clone, Copy)]
struct LocalSlot {
    /// Identity of the owning pool (`Arc::as_ptr` of its `Shared`).
    pool: usize,
    /// Type-erased `*const Worker<Task, R>` owned by this thread's loop.
    worker: *const (),
    push: unsafe fn(*const (), Task),
}

thread_local! {
    static LOCAL: Cell<Option<LocalSlot>> = const { Cell::new(None) };
}

/// # Safety
/// `worker` must point to a live `Worker<Task, R>` owned by the calling
/// thread.
unsafe fn push_local<R: Reclaimer>(worker: *const (), task: Task) {
    // SAFETY: per the caller contract; the worker loop publishes the
    // pointer only for its own thread's lifetime.
    unsafe { (*worker.cast::<Worker<Task, R>>()).push(task) }
}

/// Clears the thread-local spawn hook on scope exit (including panic),
/// before the deque it points into is dropped.
struct LocalGuard;

impl Drop for LocalGuard {
    fn drop(&mut self) {
        LOCAL.with(|l| l.set(None));
    }
}

/// One scan over every task source.
enum ScanOutcome {
    /// Got a task.
    Found(Task),
    /// Nothing obtained, but some steal returned [`Steal::Retry`] — work
    /// may remain, so the worker must rescan before idling or exiting.
    Contended,
    /// Every source empty and every steal returned [`Steal::Empty`].
    Empty,
}

/// One pass over the task sources: local deque, injector, overflow, then
/// every other worker's deque in seeded-random rotation (batch steals).
fn scan<R: Reclaimer>(
    shared: &Shared<R>,
    worker: &Worker<Task, R>,
    index: usize,
    rng: &mut stress::SplitMix64,
) -> ScanOutcome {
    if let Some(task) = worker.pop() {
        return ScanOutcome::Found(task);
    }
    if let Some(task) = shared.injector.try_dequeue() {
        return ScanOutcome::Found(task);
    }
    if let Some(task) = shared.overflow.dequeue() {
        return ScanOutcome::Found(task);
    }
    let n = shared.stealers.len();
    let start = rng.below(n as u64) as usize;
    let mut contended = false;
    for k in 0..n {
        let victim = (start + k) % n;
        if victim == index {
            continue;
        }
        match shared.stealers[victim].steal_batch_and_pop(worker) {
            Steal::Success(task) => {
                cds_obs::count(Event::ExecStealHit);
                return ScanOutcome::Found(task);
            }
            Steal::Retry => contended = true,
            Steal::Empty => {}
        }
    }
    cds_obs::count(Event::ExecStealMiss);
    if contended {
        ScanOutcome::Contended
    } else {
        ScanOutcome::Empty
    }
}

fn run_task<R: Reclaimer>(shared: &Shared<R>, task: Task) {
    // A panicking task must not take its worker thread (and the pool's
    // conservation invariant) down with it; the panic is contained to
    // the task and the completion is still counted.
    let _ = std::panic::catch_unwind(AssertUnwindSafe(task));
    // Telemetry before the completion count: `quiesce` returns as soon as
    // a reader observes the final `executed` increment, and anything
    // sequenced after it (on the worker) may not be visible to a snapshot
    // taken right after quiesce — which would break the spawned ==
    // executed conservation invariant the telemetry otherwise satisfies
    // at every quiescent point.
    cds_obs::count(Event::ExecTasksExecuted);
    shared.executed.fetch_add(1, Ordering::SeqCst);
}

fn worker_loop<R: Reclaimer>(
    shared: Arc<Shared<R>>,
    worker: Worker<Task, R>,
    index: usize,
    start: Arc<Barrier>,
) {
    // Register with a live stress scheduler (inert otherwise) and
    // rendezvous before touching shared state, so schedules depend on
    // the seed rather than on OS thread-start timing.
    let _slot = stress::register(index);
    start.wait();

    LOCAL.with(|l| {
        l.set(Some(LocalSlot {
            pool: Arc::as_ptr(&shared) as *const () as usize,
            worker: std::ptr::addr_of!(worker).cast(),
            push: push_local::<R>,
        }))
    });
    let _cleanup = LocalGuard;

    let mut rng =
        stress::SplitMix64::new(stress::mix_seed(shared.seed, 0x5eed_0000 + index as u64));
    let backoff = Backoff::new();
    loop {
        match scan(&shared, &worker, index, &mut rng) {
            ScanOutcome::Found(task) => {
                backoff.reset();
                run_task(&shared, task);
            }
            ScanOutcome::Contended => {
                // Someone else is making progress; never park (and never
                // exit) off a Retry — the Steal termination contract.
                backoff.snooze();
            }
            ScanOutcome::Empty => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                stress::yield_point();
                shared.parker.wait_until(None, Event::ExecParks, || {
                    (shared.shutdown.load(Ordering::SeqCst) || shared.has_visible_work(index))
                        .then_some(())
                });
            }
        }
    }
}

/// A fixed-size work-stealing thread pool; see the crate docs for the
/// architecture and protocols.
///
/// Dropping the pool shuts it down: in-flight tasks (including tasks they
/// spawn) are drained, then the worker threads are joined.
///
/// # Stress scheduling
///
/// Under an installed [`cds_atomic::stress`] scheduler the workers register
/// as threads `0..threads`, so a test driving the pool should register
/// its own thread at an index `>= threads` and must not run a second
/// registered pool concurrently.
pub struct Executor<R: Reclaimer = Ebr> {
    shared: Arc<Shared<R>>,
    handles: Vec<JoinHandle<()>>,
}

impl Executor<Ebr> {
    /// Creates a pool of `threads` workers on the default ([`Ebr`])
    /// backend.
    pub fn new(threads: usize) -> Self {
        Executor::with_config(ExecConfig {
            threads,
            ..ExecConfig::default()
        })
    }
}

impl<R: Reclaimer> Executor<R> {
    /// Creates a pool on the reclamation backend `R`.
    ///
    /// Construction returns only after every worker has registered (see
    /// the type docs) and passed the start barrier, so a scheduled test
    /// observes a fully-assembled pool.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.threads` is zero.
    pub fn with_config(cfg: ExecConfig) -> Self {
        assert!(cfg.threads > 0, "executor needs at least one worker");
        let mut workers = Vec::with_capacity(cfg.threads);
        let mut stealers = Vec::with_capacity(cfg.threads);
        for _ in 0..cfg.threads {
            let (w, s) = ChaseLevDeque::<Task, R>::with_reclaimer();
            workers.push(w);
            stealers.push(s);
        }
        let shared = Arc::new(Shared {
            injector: BoundedQueue::with_capacity(cfg.injector_capacity.max(1)),
            overflow: MsQueue::with_reclaimer(),
            stealers,
            parker: Parker::new(),
            spawned: CachePadded::new(AtomicU64::new(0)),
            executed: CachePadded::new(AtomicU64::new(0)),
            shutdown: AtomicBool::new(false),
            seed: cfg.seed,
        });
        let start = Arc::new(Barrier::new(cfg.threads + 1));
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(index, worker)| {
                let shared = Arc::clone(&shared);
                let start = Arc::clone(&start);
                std::thread::Builder::new()
                    .name(format!("cds-exec-{index}"))
                    .spawn(move || worker_loop(shared, worker, index, start))
                    .expect("spawn executor worker")
            })
            .collect();
        start.wait();
        Executor { shared, handles }
    }

    /// Submits a task. Never blocks: a full injector overflows into the
    /// unbounded queue. Called from inside one of this pool's own tasks,
    /// the task goes to that worker's local (LIFO) deque instead.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.shared.spawn_task(Box::new(f));
    }

    /// A cloneable, `Send` submission handle — what tasks capture to
    /// spawn children (fork/join style).
    pub fn handle(&self) -> Handle<R> {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Scoped fork-join over a [`cds_chan`] channel: runs every job on
    /// the pool and blocks until all results are in, returned in
    /// submission order. Each job sends its indexed result over a
    /// bounded channel sized to the batch (so sends never block) and the
    /// caller plays consumer — the canonical scatter/gather wiring of
    /// channels into the executor.
    ///
    /// # Panics
    ///
    /// If a job panics, the panic is re-raised here (the worker thread
    /// itself survives, as with [`spawn`](Self::spawn)).
    ///
    /// # Example
    ///
    /// ```
    /// let pool = cds_exec::Executor::new(2);
    /// let squares = pool.scoped((0..8u64).map(|i| move || i * i).collect());
    /// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    /// ```
    pub fn scoped<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        let results = cds_chan::bounded::<(usize, Option<T>)>(n.max(1));
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = results.clone();
            self.spawn(move || {
                let out = std::panic::catch_unwind(AssertUnwindSafe(job)).ok();
                // A closed channel would mean the caller gave up; it
                // never does, but a lost send must not panic the worker.
                let _ = tx.send((i, out));
            });
        }
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, v) = results.recv().expect("scoped channel closed early");
            out[i] = v;
        }
        out.into_iter()
            .map(|slot| slot.expect("scoped job panicked"))
            .collect()
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.stealers.len()
    }

    /// Total tasks submitted so far.
    pub fn spawned(&self) -> u64 {
        self.shared.spawned.load(Ordering::SeqCst)
    }

    /// Total tasks that finished executing so far.
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::SeqCst)
    }

    /// Waits until every task spawned so far — transitively including
    /// tasks spawned by tasks — has executed (`spawned == executed`,
    /// the conservation invariant). The caller must ensure no *other*
    /// thread keeps spawning concurrently, or quiesce may chase the
    /// moving target indefinitely.
    pub fn quiesce(&self) {
        let backoff = Backoff::new();
        loop {
            // `executed` is read first: it trails `spawned` (a task is
            // counted spawned before it can run), so an equal pair here
            // cannot be a torn in-between state.
            let executed = self.shared.executed.load(Ordering::SeqCst);
            let spawned = self.shared.spawned.load(Ordering::SeqCst);
            if executed == spawned {
                return;
            }
            stress::yield_point();
            backoff.snooze();
        }
    }

    /// Drains all outstanding tasks, stops the workers, and joins them.
    /// Equivalent to dropping the pool, but explicit.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.parker.force_unpark_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<R: Reclaimer> Drop for Executor<R> {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

impl<R: Reclaimer> fmt::Debug for Executor<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("shared", &self.shared)
            .finish()
    }
}

/// A cloneable submission handle to an [`Executor`]; see
/// [`Executor::handle`].
///
/// Holding a handle does not keep the workers alive — once the pool is
/// shut down, spawned tasks are counted but never run, so handles should
/// not outlive their pool's useful life.
pub struct Handle<R: Reclaimer = Ebr> {
    shared: Arc<Shared<R>>,
}

impl<R: Reclaimer> Handle<R> {
    /// Submits a task; identical semantics to [`Executor::spawn`].
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.shared.spawn_task(Box::new(f));
    }
}

impl<R: Reclaimer> Clone for Handle<R> {
    fn clone(&self) -> Self {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<R: Reclaimer> fmt::Debug for Handle<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Handle")
            .field("shared", &self.shared)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::AtomicU64 as Counter;

    #[test]
    fn runs_every_task_once() {
        let pool = Executor::new(4);
        let hits = Arc::new(Counter::new(0));
        for _ in 0..1_000 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.quiesce();
        assert_eq!(hits.load(Ordering::Relaxed), 1_000);
        assert_eq!(pool.spawned(), 1_000);
        assert_eq!(pool.executed(), 1_000);
        pool.shutdown();
    }

    #[test]
    fn fork_join_from_tasks_conserves() {
        // Each root task forks children from inside the pool (exercising
        // the local-deque spawn path); quiesce waits for the transitive
        // closure.
        let pool = Executor::new(3);
        let hits = Arc::new(Counter::new(0));
        let handle = pool.handle();
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            let handle = handle.clone();
            pool.spawn(move || {
                for _ in 0..8 {
                    let hits = Arc::clone(&hits);
                    handle.spawn(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.quiesce();
        assert_eq!(hits.load(Ordering::Relaxed), 64 * 9);
        assert_eq!(pool.spawned(), 64 * 9);
        assert_eq!(pool.executed(), 64 * 9);
    }

    #[test]
    fn tiny_injector_overflows_without_blocking_or_loss() {
        let pool: Executor = Executor::with_config(ExecConfig {
            threads: 2,
            seed: 7,
            injector_capacity: 2,
        });
        let hits = Arc::new(Counter::new(0));
        // Far more spawns than injector slots: the overflow queue must
        // absorb the excess and the workers must drain both.
        for _ in 0..5_000 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.quiesce();
        assert_eq!(hits.load(Ordering::Relaxed), 5_000);
    }

    #[test]
    fn drop_drains_outstanding_tasks() {
        let hits = Arc::new(Counter::new(0));
        {
            let pool = Executor::new(2);
            for _ in 0..500 {
                let hits = Arc::clone(&hits);
                pool.spawn(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            // No quiesce: Drop must still run everything before joining.
        }
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn panicking_task_is_contained() {
        let pool = Executor::new(2);
        let hits = Arc::new(Counter::new(0));
        pool.spawn(|| panic!("task panic must not kill the worker"));
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.quiesce();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(pool.executed(), 101);
    }

    #[test]
    fn runs_on_every_reclamation_backend() {
        fn run<R: Reclaimer>() {
            let pool: Executor<R> = Executor::with_config(ExecConfig {
                threads: 3,
                seed: 1,
                injector_capacity: 8,
            });
            let hits = Arc::new(Counter::new(0));
            let handle = pool.handle();
            for _ in 0..200 {
                let hits = Arc::clone(&hits);
                let handle = handle.clone();
                pool.spawn(move || {
                    let hits2 = Arc::clone(&hits);
                    handle.spawn(move || {
                        hits2.fetch_add(1, Ordering::Relaxed);
                    });
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.quiesce();
            assert_eq!(hits.load(Ordering::Relaxed), 400, "{} backend", R::NAME);
            pool.shutdown();
            R::collect();
        }
        run::<Ebr>();
        run::<cds_reclaim::Hazard>();
        run::<cds_reclaim::Leak>();
        run::<cds_reclaim::DebugReclaim>();
    }

    #[test]
    fn counters_and_parker_sit_on_lines_of_their_own() {
        let pool = Executor::new(1);
        let spawned = &*pool.shared.spawned as *const AtomicU64 as usize;
        let executed = &*pool.shared.executed as *const AtomicU64 as usize;
        let parker = &pool.shared.parker as *const Parker as usize;
        for (a, b) in [(spawned, executed), (spawned, parker), (executed, parker)] {
            assert!(a.abs_diff(b) >= 128, "{a:#x} and {b:#x} share a line");
        }
    }

    #[test]
    fn spawn_from_foreign_pool_goes_to_injector() {
        // A task on pool A spawning into pool B must not touch A's local
        // deque hook (different pool identity).
        let a = Executor::new(2);
        let b = Executor::new(2);
        let hits = Arc::new(Counter::new(0));
        let bh = b.handle();
        let hits2 = Arc::clone(&hits);
        a.spawn(move || {
            bh.spawn(move || {
                hits2.fetch_add(1, Ordering::Relaxed);
            });
        });
        a.quiesce();
        b.quiesce();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(b.executed(), 1);
    }
}

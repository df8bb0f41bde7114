//! The executor's unit of work: a type-erased `FnOnce()` kept inline in
//! the task queues' own slots. The crate docs ("Architecture") say why.

use std::fmt;
use std::mem::{self, ManuallyDrop, MaybeUninit};

/// Words of inline storage. The request/reply pipeline's closure is three:
/// an `Arc` and a 16-byte request. With the two function pointers a task
/// is five words, so a task and the bounded ring's 8-byte stamp share one
/// 64-byte line.
const INLINE_WORDS: usize = 3;

type Storage = MaybeUninit<[usize; INLINE_WORDS]>;

/// A closure run at most once on some pool thread; dropped unrun, it
/// drops what it captured.
pub(crate) struct Task {
    data: Storage,
    /// Moves the closure out of `data` and calls it.
    run: unsafe fn(*mut u8),
    /// Drops the closure in `data` in place.
    drop: unsafe fn(*mut u8),
}

// SAFETY: `data` holds an `F` or a `Box<F>`, and `Task::new` takes only
// `F: Send` closures, so both are `Send`; `run` and `drop` are plain
// function pointers. Moving a task to another thread moves only `Send`
// values there.
unsafe impl Send for Task {}

/// Whether an `F` can be written into a task's inline words.
const fn fits<F>() -> bool {
    mem::size_of::<F>() <= mem::size_of::<Storage>()
        && mem::align_of::<F>() <= mem::align_of::<Storage>()
}

/// # Safety
/// `data` must hold a live `F`, which the call takes over.
unsafe fn run_inline<F: FnOnce()>(data: *mut u8) {
    // SAFETY: per the caller contract. The closure is moved onto this
    // frame before it is called, so a panic unwinds through a frame that
    // owns it and drops it there, once.
    let f = unsafe { data.cast::<F>().read() };
    f();
}

/// # Safety
/// `data` must hold a live `F`, which the call drops.
unsafe fn drop_inline<F>(data: *mut u8) {
    // SAFETY: per the caller contract.
    unsafe { data.cast::<F>().drop_in_place() }
}

impl Task {
    /// Wraps `f`: in place if it fits the inline words, else boxed.
    pub(crate) fn new<F: FnOnce() + Send + 'static>(f: F) -> Self {
        if fits::<F>() {
            Task::inline(f)
        } else {
            Task::inline(Box::new(f))
        }
    }

    fn inline<F: FnOnce() + Send + 'static>(f: F) -> Self {
        // Constant per `F`, so it folds away; `new` only calls this when it
        // holds (a `const` block would reject `new`'s other branch too).
        assert!(fits::<F>());
        let mut data = Storage::uninit();
        // SAFETY: `fits::<F>()` holds, so the storage is large and aligned
        // enough for an `F`; it is uninitialised, so nothing is overwritten.
        unsafe { data.as_mut_ptr().cast::<F>().write(f) };
        Task {
            data,
            run: run_inline::<F>,
            drop: drop_inline::<F>,
        }
    }

    /// Runs the closure, consuming the task.
    pub(crate) fn run(self) {
        // The closure is moved out by `run`, so the task's own `Drop` must
        // not see it again, whether the call returns or unwinds.
        let mut task = ManuallyDrop::new(self);
        // SAFETY: `data` holds the live closure `run` was instantiated
        // for, and `task` is never dropped, so `run` is its only consumer.
        unsafe { (task.run)(task.data.as_mut_ptr().cast()) }
    }
}

impl Drop for Task {
    fn drop(&mut self) {
        // SAFETY: a task that reaches `Drop` never ran (`run` forgets it),
        // so `data` still holds the live closure `drop` was instantiated for.
        unsafe { (self.drop)(self.data.as_mut_ptr().cast()) }
    }
}

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Counts its drops; the `String` puts a heap allocation behind every
    /// capture, so a double drop is a double free under AddressSanitizer.
    struct Tracked {
        drops: Arc<AtomicUsize>,
        name: String,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            assert_eq!(self.name, "tracked");
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn tracked() -> (Tracked, Arc<AtomicUsize>) {
        let drops = Arc::new(AtomicUsize::new(0));
        let t = Tracked {
            drops: Arc::clone(&drops),
            name: "tracked".to_string(),
        };
        (t, drops)
    }

    fn fits_val<F>(_: &F) -> bool {
        fits::<F>()
    }

    #[repr(align(16))]
    struct Aligned(u64);

    /// Runs `make(capture, runs)` as a task and checks it ran once and
    /// dropped its capture once; then checks the same for a task of the
    /// same shape dropped unrun.
    fn run_and_drop_once<F: FnOnce() + Send + 'static>(
        make: impl Fn(Tracked, Arc<AtomicUsize>) -> F,
        inline: bool,
    ) {
        assert_eq!(fits::<F>(), inline);

        let (t, drops) = tracked();
        let runs = Arc::new(AtomicUsize::new(0));
        Task::new(make(t, Arc::clone(&runs))).run();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "ran once");
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "dropped once after running"
        );

        let (t, drops) = tracked();
        let runs = Arc::new(AtomicUsize::new(0));
        drop(Task::new(make(t, Arc::clone(&runs))));
        assert_eq!(runs.load(Ordering::SeqCst), 0, "never ran");
        assert_eq!(drops.load(Ordering::SeqCst), 1, "dropped once unrun");
    }

    #[test]
    fn inline_task_runs_once_and_drops_once() {
        // A `Tracked` is four words, so the closure captures it boxed: two
        // words with the run counter.
        run_and_drop_once(
            |t, runs| {
                let t = Box::new(t);
                move || {
                    assert_eq!(t.name, "tracked");
                    runs.fetch_add(1, Ordering::SeqCst);
                }
            },
            true,
        );
    }

    #[test]
    fn large_closure_is_boxed_runs_once_and_drops_once() {
        run_and_drop_once(
            |t, runs| {
                let pad = [7u64; 8];
                move || {
                    assert_eq!(pad.iter().sum::<u64>(), 56);
                    assert_eq!(t.name, "tracked");
                    runs.fetch_add(1, Ordering::SeqCst);
                }
            },
            false,
        );
    }

    #[test]
    fn over_aligned_closure_is_boxed_runs_once_and_drops_once() {
        run_and_drop_once(
            |t, runs| {
                let t = Box::new(t);
                let aligned = Aligned(5);
                move || {
                    // Moved whole: `aligned.0` alone would capture a `u64`.
                    let aligned = aligned;
                    assert_eq!(aligned.0, 5);
                    assert_eq!(t.name, "tracked");
                    runs.fetch_add(1, Ordering::SeqCst);
                }
            },
            false,
        );
    }

    #[test]
    fn panicking_inline_task_is_contained_and_drops_once() {
        let pool = crate::Executor::new(2);
        let (t, drops) = tracked();
        let t = Box::new(t);
        let f = move || {
            assert_eq!(t.name, "tracked");
            panic!("an inline task's panic must not kill the worker");
        };
        assert!(fits_val(&f));
        pool.spawn(f);
        pool.quiesce();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "dropped once by the unwind"
        );
        assert_eq!(pool.executed(), 1, "counted as run");
    }

    #[test]
    fn task_left_in_a_queue_drops_once_with_the_pool() {
        // Spawned through a handle after shutdown, a task is counted but
        // never runs; the queue that holds it drops it with the pool.
        let pool = crate::Executor::new(1);
        let handle = pool.handle();
        pool.shutdown();
        let (t, drops) = tracked();
        let t = Box::new(t);
        handle.spawn(move || unreachable!("{} ran after shutdown", t.name));
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(handle);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn task_and_ring_stamp_fit_one_line() {
        assert!(mem::size_of::<Task>() + mem::size_of::<usize>() <= 64);
        // The pipeline's closure, an `Arc` and 16 bytes, goes inline.
        let shared = Arc::new(0u8);
        let request = [0u64; 2];
        let f = move || {
            let _ = (&shared, request);
        };
        assert!(fits_val(&f));
    }
}

//! Epoch-based memory reclamation.
//!
//! The scheme (Fraser's epochs, as popularized by crossbeam and Keir
//! Fraser's KCAS work) in one paragraph: a global epoch counter advances
//! through time; every thread *pins* the current epoch before it reads
//! shared pointers and unpins when done. When a thread unlinks a node it
//! *defers* the node's destruction, stamping it with the epoch at unlink
//! time. Because the epoch can only advance when every pinned thread has
//! caught up with it, a node stamped with epoch `e` can no longer be
//! referenced by anyone once the global epoch reaches `e + 2` — at that
//! point it is actually freed.
//!
//! Most users interact with three things:
//!
//! * [`pin`] — enter an epoch-protected critical section, returning a
//!   [`Guard`];
//! * [`Atomic`] / [`Owned`] / [`Shared`] — the pointer types whose API makes
//!   it impossible to dereference shared nodes while unpinned;
//! * [`Guard::defer_destroy`] — hand an unlinked node to the collector.
//!
//! A process-wide default [`Collector`] backs [`pin`]; tests that need
//! deterministic reclamation can create their own collector and register
//! explicit [`LocalHandle`]s.
//!
//! # Example: swapping out a node
//!
//! ```
//! use cds_reclaim::epoch::{self, Atomic, Owned};
//! use cds_atomic::Ordering;
//!
//! let head = Atomic::new("old");
//! let guard = epoch::pin();
//! let prev = head.swap(Owned::new("new").into_shared(&guard), Ordering::AcqRel, &guard);
//! unsafe { guard.defer_destroy(prev) };
//! drop(guard);
//! # let g = epoch::pin();
//! # unsafe { drop(head.swap(epoch::Shared::null(), Ordering::AcqRel, &g).into_owned()) };
//! ```

mod atomic;
mod internal;

pub use atomic::{Atomic, Owned, Shared};

use crate::reclaimer::drop_box;
use internal::{Deferred, Global, Local};
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// An epoch-based garbage collector instance.
///
/// Distinct collectors are fully independent: pinning one does not delay
/// reclamation in another. The data structure crates use the process-wide
/// default collector (via [`pin`]); create explicit collectors for tests or
/// to isolate reclamation domains.
#[derive(Clone)]
pub struct Collector {
    global: Arc<Global>,
}

impl Collector {
    /// Creates a new, independent collector.
    pub fn new() -> Self {
        Collector {
            global: Arc::new(Global::new()),
        }
    }

    /// Registers the current thread, returning its participation handle.
    pub fn register(&self) -> LocalHandle {
        LocalHandle {
            local: self.global.register(),
            _owner_thread_only: PhantomData,
        }
    }

    /// The current global epoch (diagnostics and tests).
    pub fn epoch(&self) -> usize {
        self.global.epoch()
    }

    /// Number of deferred items not yet freed: the global queue plus the
    /// local bag of every registered participant (diagnostics).
    pub fn garbage_len(&self) -> usize {
        self.global.garbage_len()
    }

    /// Attempts to advance the epoch and free eligible garbage, returning
    /// the number of items freed.
    pub fn collect(&self) -> usize {
        self.global.collect()
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

/// A thread's registration with a [`Collector`].
///
/// Cheap to pin from repeatedly; dropped automatically with the thread for
/// the default collector.
///
/// The participant record behind a handle keeps unsynchronized per-thread
/// state, so a handle stays on the thread that registered it:
///
/// ```compile_fail
/// let handle = cds_reclaim::epoch::Collector::new().register();
/// std::thread::spawn(move || drop(handle));
/// ```
///
/// ```compile_fail
/// let handle = cds_reclaim::epoch::Collector::new().register();
/// std::thread::scope(|s| {
///     s.spawn(|| drop(handle.pin()));
/// });
/// ```
pub struct LocalHandle {
    local: Arc<Local>,
    /// `Local` is `Send + Sync` for the registry's sake; the handle, which
    /// reaches its `Cell`s, must be neither.
    _owner_thread_only: PhantomData<*mut ()>,
}

impl LocalHandle {
    /// Pins the current epoch, returning a guard.
    ///
    /// Pinning is reentrant: nested guards share the outermost pin.
    pub fn pin(&self) -> Guard {
        self.local.pin();
        Guard {
            local: Arc::as_ptr(&self.local),
        }
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        self.local.handle_dropped();
    }
}

impl fmt::Debug for LocalHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalHandle").finish_non_exhaustive()
    }
}

/// A pinned epoch section.
///
/// While a guard is alive the collector will not free any object deferred
/// during or after the guard's epoch, so [`Shared`] pointers loaded under
/// the guard remain valid. Dropping the guard unpins (for the outermost
/// guard of the thread).
///
/// A guard may outlive the [`LocalHandle`] it came from, but not the
/// thread: unpinning writes the participant's unsynchronized counters.
///
/// ```compile_fail
/// let guard = cds_reclaim::epoch::pin();
/// std::thread::spawn(move || drop(guard));
/// ```
///
/// ```compile_fail
/// let guard = cds_reclaim::epoch::pin();
/// std::thread::scope(|s| {
///     s.spawn(|| guard.flush());
/// });
/// ```
pub struct Guard {
    /// The pinned participant; null for [`Guard::unprotected`]. Borrowed
    /// rather than reference-counted, so pinning touches no shared count:
    /// the collector's registry keeps the record alive while any guard of
    /// it exists (see `Local`), even after the handle is gone.
    local: *const Local,
}

impl Guard {
    /// Creates a guard that performs no pinning.
    ///
    /// Useful when the caller has unique access to a structure (e.g. inside
    /// `Drop` or when holding `&mut`): loads still need a `&Guard`
    /// argument, but no epoch bookkeeping is required because no other
    /// thread can be reclaiming.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that no concurrent thread can retire
    /// objects reachable from the pointers accessed under this guard.
    pub unsafe fn unprotected() -> Guard {
        Guard {
            local: std::ptr::null(),
        }
    }

    fn local(&self) -> Option<&Local> {
        // SAFETY: null or a record that `pin` counted this guard on; the
        // registry does not let go of it before the matching `unpin`.
        unsafe { self.local.as_ref() }
    }

    /// Defers destruction of the object behind `shared` until no pinned
    /// thread can still hold a reference to it.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that the object has been made unreachable
    /// for threads that pin *after* this call (i.e. it was unlinked from
    /// the structure), that it was allocated via [`Owned`]/[`Atomic::new`],
    /// that no thread will call `defer_destroy` on it again, and that the
    /// object is safe to drop on *any* thread (morally `T: Send`; the bound
    /// is not expressed in the signature because node types routinely
    /// contain raw pointers managed by the same protocol).
    pub unsafe fn defer_destroy<T>(&self, shared: Shared<'_, T>) {
        debug_assert!(!shared.is_null(), "defer_destroy of null");
        // SAFETY: the caller contract; `drop_box::<T>` undoes `Owned::new`.
        unsafe { self.defer_raw(shared.as_raw().cast(), drop_box::<T>) }
    }

    /// Defers `dtor(ptr)` until no pinned thread can still hold a reference
    /// to the object behind `ptr`, however it was allocated.
    ///
    /// # Safety
    ///
    /// [`defer_destroy`](Guard::defer_destroy)'s contract, with `dtor(ptr)`
    /// as the object's destruction in place of dropping a `Box`.
    pub(crate) unsafe fn defer_raw(&self, ptr: *mut u8, dtor: unsafe fn(*mut u8)) {
        // SAFETY: ownership of the object passes to the collector, per the
        // caller contract.
        let deferred = unsafe { Deferred::new(ptr, dtor) };
        match self.local() {
            Some(local) => local.defer(deferred),
            // Unprotected guard: unique access, destroy immediately.
            None => deferred.call(),
        }
    }

    /// Flushes this thread's deferred items to the global queue and runs a
    /// collection cycle.
    pub fn flush(&self) {
        if let Some(local) = self.local() {
            local.flush();
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(local) = self.local() {
            // The last guard of a participant whose handle is already gone
            // is handed the registry's reference, possibly the last one to
            // the record and its collector: drop it only now that `unpin`
            // has returned.
            drop(local.unpin());
        }
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard")
            .field("pinned", &!self.local.is_null())
            .finish()
    }
}

pub(crate) fn default_collector() -> &'static Collector {
    static DEFAULT: OnceLock<Collector> = OnceLock::new();
    DEFAULT.get_or_init(Collector::new)
}

thread_local! {
    static LOCAL_HANDLE: LocalHandle = default_collector().register();
}

/// Pins the current thread to the default collector's epoch.
///
/// This is the entry point the data structure crates use on every
/// operation. The first call on a thread registers it with the process-wide
/// default collector; subsequent calls are cheap (no locks, one fence).
pub fn pin() -> Guard {
    LOCAL_HANDLE.with(|h| h.pin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::{AtomicUsize, Ordering};

    /// A payload that counts drops, for leak/double-free detection.
    struct DropCounter(Arc<AtomicUsize>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn pin_is_reentrant() {
        let g1 = pin();
        let g2 = pin();
        drop(g1);
        drop(g2);
    }

    #[test]
    fn deferred_runs_after_two_advances() {
        let collector = Collector::new();
        let handle = collector.register();
        let drops = Arc::new(AtomicUsize::new(0));

        let guard = handle.pin();
        let node = Owned::new(DropCounter(Arc::clone(&drops))).into_shared(&guard);
        unsafe { guard.defer_destroy(node) };
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(guard);

        // With no pinned participants, a few collect cycles advance the
        // epoch far enough to free the item.
        for _ in 0..4 {
            collector.collect();
        }
        // Flush the local bag first: items may still be thread-local.
        let guard = handle.pin();
        guard.flush();
        drop(guard);
        for _ in 0..4 {
            collector.collect();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    /// `collect` reads the epoch before it locks the queue, so an item
    /// deferred in between can carry a newer epoch than the one it is aged
    /// against. That age is negative, not astronomically large: the item
    /// stays until the epoch is two past its own.
    #[test]
    fn garbage_newer_than_the_collecting_epoch_is_kept() {
        let collector = Collector::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let newer = collector.epoch() + 3;
        let item = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
        // SAFETY: a fresh box, handed to the collector and to nobody else.
        let deferred = unsafe { Deferred::new(item.cast(), drop_box::<DropCounter>) };
        collector.global.push_garbage([(newer, deferred)]);

        collector.collect(); // ages the item against epoch 1
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed ahead of its epoch");
        while collector.epoch() < newer + 2 {
            collector.collect();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pinned_thread_blocks_reclamation() {
        let collector = Collector::new();
        let h1 = collector.register();
        let h2 = collector.register();
        let drops = Arc::new(AtomicUsize::new(0));

        // h2 pins and stays pinned.
        let blocker = h2.pin();

        let guard = h1.pin();
        let node = Owned::new(DropCounter(Arc::clone(&drops))).into_shared(&guard);
        unsafe { guard.defer_destroy(node) };
        guard.flush();
        drop(guard);

        let e_before = collector.epoch();
        for _ in 0..8 {
            collector.collect();
        }
        // The epoch may advance at most once past the blocker's pin epoch.
        assert!(collector.epoch().wrapping_sub(e_before) <= 1);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "item freed while a thread was still pinned"
        );

        drop(blocker);
        for _ in 0..4 {
            collector.collect();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unprotected_guard_destroys_immediately() {
        let drops = Arc::new(AtomicUsize::new(0));
        // SAFETY: no other thread is involved.
        let guard = unsafe { Guard::unprotected() };
        let node = Owned::new(DropCounter(Arc::clone(&drops))).into_shared(&guard);
        unsafe { guard.defer_destroy(node) };
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropping_collector_frees_outstanding_garbage() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let collector = Collector::new();
            let handle = collector.register();
            let guard = handle.pin();
            for _ in 0..10 {
                let node = Owned::new(DropCounter(Arc::clone(&drops))).into_shared(&guard);
                unsafe { guard.defer_destroy(node) };
            }
            guard.flush();
            drop(guard);
            drop(handle);
            drop(collector);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn many_threads_defer_concurrently() {
        let drops = Arc::new(AtomicUsize::new(0));
        let collector = Collector::new();
        const THREADS: usize = 4;
        const PER_THREAD: usize = 1000;

        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let collector = collector.clone();
                let drops = Arc::clone(&drops);
                std::thread::spawn(move || {
                    let handle = collector.register();
                    for _ in 0..PER_THREAD {
                        let guard = handle.pin();
                        let node = Owned::new(DropCounter(Arc::clone(&drops))).into_shared(&guard);
                        unsafe { guard.defer_destroy(node) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(collector);
        assert_eq!(drops.load(Ordering::SeqCst), THREADS * PER_THREAD);
    }

    #[test]
    fn epoch_advances_when_quiescent() {
        let collector = Collector::new();
        let before = collector.epoch();
        for _ in 0..3 {
            collector.collect();
        }
        assert!(collector.epoch().wrapping_sub(before) >= 1);
    }
}

//! Internal machinery of the epoch-based collector: the global state shared
//! by all participants and the per-thread participant record.

use cds_atomic::{fence, AtomicUsize, Ordering};
use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// How many deferred items a participant accumulates locally before it
/// flushes them to the global queue (and attempts collection).
const LOCAL_BAG_CAP: usize = 64;

/// Every `PINNINGS_BETWEEN_COLLECT` pinnings a participant attempts to
/// advance the epoch and collect, so garbage is reclaimed even on workloads
/// that never overflow a local bag.
const PINNINGS_BETWEEN_COLLECT: usize = 128;

/// A deferred destruction: a type-erased pointer plus its destructor.
///
/// Stored without allocation (two words).
pub(crate) struct Deferred {
    ptr: *mut u8,
    dtor: unsafe fn(*mut u8),
}

// SAFETY: a `Deferred` is only created for objects that are safe to destroy
// on any thread (the contract of `Guard::defer_raw`), so executing the
// destructor on another thread is sound.
unsafe impl Send for Deferred {}

impl Deferred {
    /// Creates a deferred `dtor(ptr)`.
    ///
    /// # Safety
    ///
    /// Running `dtor(ptr)` once, later and on any thread, must be sound, and
    /// nobody else may destroy the object behind `ptr`.
    pub(crate) unsafe fn new(ptr: *mut u8, dtor: unsafe fn(*mut u8)) -> Self {
        Deferred { ptr, dtor }
    }

    /// Runs the deferred destructor.
    pub(crate) fn call(self) {
        // SAFETY: per `new`'s contract; `self` is consumed, so it runs once.
        unsafe { (self.dtor)(self.ptr) }
    }
}

impl fmt::Debug for Deferred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deferred").finish_non_exhaustive()
    }
}

/// Locks a registry, taking a poisoned one over: each critical section
/// leaves its vector whole, so a panic that unwound through one (an
/// aborted stress window, say) left nothing half done, and passing the
/// poison on would make every later registration, thread exit and
/// collection panic too.
fn lock<T>(registry: &Mutex<T>) -> MutexGuard<'_, T> {
    registry.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Global collector state shared by all participants.
pub(crate) struct Global {
    /// The global epoch. Plain counter; wrapping arithmetic throughout.
    epoch: AtomicUsize,
    /// Registry of active participants. Locked only on registration,
    /// unregistration, and epoch-advance scans — never on the pin/defer
    /// fast path.
    participants: Mutex<Vec<Arc<Local>>>,
    /// Garbage that has been flushed out of local bags, tagged with the
    /// epoch at which it was deferred.
    garbage: Mutex<Vec<(usize, Deferred)>>,
}

impl Global {
    pub(crate) fn new() -> Self {
        Global {
            epoch: AtomicUsize::new(0),
            participants: Mutex::new(Vec::new()),
            garbage: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn epoch(&self) -> usize {
        self.epoch.load(Ordering::Relaxed)
    }

    pub(crate) fn register(self: &Arc<Self>) -> Arc<Local> {
        let local = Arc::new(Local {
            epoch: AtomicUsize::new(0),
            bag_len: AtomicUsize::new(0),
            global: Arc::clone(self),
            guard_count: Cell::new(0),
            pin_count: Cell::new(0),
            handle_dropped: Cell::new(false),
            bag: UnsafeCell::new(Vec::new()),
        });
        lock(&self.participants).push(Arc::clone(&local));
        local
    }

    /// Removes `local` from the registry and returns the registry's
    /// reference to it, so the record is dropped by the caller — outside
    /// the `participants` lock and after its last use of `local` — rather
    /// than here.
    fn unregister(&self, local: &Local) -> Option<Arc<Local>> {
        let mut parts = lock(&self.participants);
        let at = parts.iter().position(|p| std::ptr::eq(&**p, local))?;
        Some(parts.swap_remove(at))
    }

    /// Attempts to advance the global epoch by one.
    ///
    /// Succeeds only if every *pinned* participant has observed the current
    /// epoch; otherwise leaves the epoch unchanged. Returns the epoch value
    /// in force after the call.
    pub(crate) fn try_advance(&self) -> usize {
        let global_epoch = self.epoch.load(Ordering::Relaxed);
        fence(Ordering::SeqCst);

        let parts = lock(&self.participants);
        for p in parts.iter() {
            let e = p.epoch.load(Ordering::Relaxed);
            if e & 1 == 1 && e >> 1 != global_epoch {
                // A participant is pinned in an older epoch.
                return global_epoch;
            }
        }
        drop(parts);
        fence(Ordering::Acquire);

        // Multiple threads may race here; `compare_exchange` keeps the epoch
        // monotonic (each success advances by exactly one).
        let _ = self.epoch.compare_exchange(
            global_epoch,
            global_epoch.wrapping_add(1),
            Ordering::Release,
            Ordering::Relaxed,
        );
        self.epoch.load(Ordering::Relaxed)
    }

    /// Moves `items` onto the global garbage queue.
    pub(crate) fn push_garbage(&self, items: impl IntoIterator<Item = (usize, Deferred)>) {
        lock(&self.garbage).extend(items);
    }

    /// Frees every queued item that is at least two epochs old.
    ///
    /// An item deferred at epoch `e` was unreachable for threads pinning at
    /// epochs `> e`; once the global epoch reaches `e + 2`, every thread
    /// pinned at `e` or earlier has unpinned, so no live reference can
    /// remain.
    pub(crate) fn collect(&self) -> usize {
        let global_epoch = self.try_advance();
        let eligible: Vec<Deferred> = {
            let mut garbage = lock(&self.garbage);
            let mut eligible = Vec::new();
            garbage.retain_mut(|(e, d)| {
                // Signed distance: `global_epoch` was read before the queue
                // was locked, so an item deferred since may carry a *newer*
                // epoch, and that is a negative age, not a huge one.
                if global_epoch.wrapping_sub(*e) as isize >= 2 {
                    // Move the deferred item out; the slot is removed.
                    eligible.push(std::mem::replace(
                        d,
                        Deferred {
                            ptr: std::ptr::null_mut(),
                            dtor: |_| {},
                        },
                    ));
                    false
                } else {
                    true
                }
            });
            eligible
        };
        let n = eligible.len();
        cds_obs::add(cds_obs::Event::FreedEbr, n as u64);
        for d in eligible {
            d.call();
        }
        n
    }

    /// Number of deferred items not yet freed: the global queue plus every
    /// registered participant's local bag (diagnostics; the bag lengths are
    /// relaxed reads of each owner's mirror, so the sum is approximate while
    /// threads are retiring).
    pub(crate) fn garbage_len(&self) -> usize {
        let queued = lock(&self.garbage).len();
        let parts = lock(&self.participants);
        let bagged: usize = parts
            .iter()
            .map(|p| p.bag_len.load(Ordering::Relaxed))
            .sum();
        queued + bagged
    }
}

impl Drop for Global {
    fn drop(&mut self) {
        // No participants can remain (each holds an `Arc<Global>`), so all
        // garbage is unreachable and safe to free.
        let garbage = self
            .garbage
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        cds_obs::add(cds_obs::Event::FreedEbr, garbage.len() as u64);
        for (_, d) in garbage.drain(..) {
            d.call();
        }
    }
}

impl fmt::Debug for Global {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Global")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

/// A per-thread participant record.
///
/// Only the owning thread touches the `Cell`/`UnsafeCell` fields and only
/// it writes the atomics; other threads read `epoch` during
/// [`Global::try_advance`] scans and `bag_len` in [`Global::garbage_len`].
///
/// The registry's `Arc` keeps the record alive from `register` until
/// `retire_record`, which runs only once no guard is active; guards rely
/// on that and borrow the record without counting a reference.
pub(crate) struct Local {
    /// `0` when unpinned; `(epoch << 1) | 1` when pinned.
    epoch: AtomicUsize,
    /// `bag.len()`, mirrored by the owner whenever it changes.
    bag_len: AtomicUsize,
    global: Arc<Global>,
    guard_count: Cell<usize>,
    pin_count: Cell<usize>,
    handle_dropped: Cell<bool>,
    bag: UnsafeCell<Vec<(usize, Deferred)>>,
}

// SAFETY: see the type-level comment — cross-thread access is limited to
// loads of the `epoch` and `bag_len` atomics.
unsafe impl Send for Local {}
unsafe impl Sync for Local {}

impl Local {
    /// Pins the participant (reentrant).
    pub(crate) fn pin(&self) {
        let count = self.guard_count.get();
        self.guard_count.set(count + 1);
        if count > 0 {
            return;
        }

        // Publish the epoch we are entering. The SeqCst fence makes the
        // store visible to `try_advance` scans before we read any shared
        // pointers; the re-check loop bounds how stale our published epoch
        // can be.
        let mut e = self.global.epoch.load(Ordering::Relaxed);
        loop {
            self.epoch.store((e << 1) | 1, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            let current = self.global.epoch.load(Ordering::Relaxed);
            if current == e {
                break;
            }
            e = current;
        }

        let pinnings = self.pin_count.get().wrapping_add(1);
        self.pin_count.set(pinnings);
        if pinnings.is_multiple_of(PINNINGS_BETWEEN_COLLECT) {
            // Seal the bag as well: a thread that retires rarely (one
            // multi-megabyte table per migration, say) must not sit on it
            // until `LOCAL_BAG_CAP` more retires come along.
            self.flush();
        }
    }

    /// Unpins the participant (reentrant). When the outermost guard drops,
    /// the participant leaves the epoch and, if its handle has been
    /// dropped, unregisters.
    ///
    /// In that last case the registry's reference is returned: it may be
    /// the only thing keeping `self` (and through it the `Global`) alive,
    /// so the caller must drop it after its last use of `self`.
    #[must_use]
    pub(crate) fn unpin(&self) -> Option<Arc<Local>> {
        let count = self.guard_count.get();
        debug_assert!(count > 0, "unpin without matching pin");
        self.guard_count.set(count - 1);
        if count == 1 {
            self.epoch.store(0, Ordering::Release);
            if self.handle_dropped.get() {
                return self.retire_record();
            }
        }
        None
    }

    /// Defers destruction of `deferred` until the current epoch is two
    /// advances old.
    ///
    /// Must be called while pinned.
    pub(crate) fn defer(&self, deferred: Deferred) {
        debug_assert!(self.guard_count.get() > 0, "defer while unpinned");
        let epoch = self.global.epoch.load(Ordering::Relaxed);
        // SAFETY: the bag is only touched by the owning thread.
        let bag = unsafe { &mut *self.bag.get() };
        bag.push((epoch, deferred));
        self.bag_len.store(bag.len(), Ordering::Relaxed);
        if bag.len() >= LOCAL_BAG_CAP {
            self.flush();
        }
    }

    /// Moves the local bag, if it holds anything, onto the global queue.
    fn seal_bag(&self) {
        // SAFETY: the bag is only touched by the owning thread, and the
        // borrow ends before anything that could re-enter `defer` runs.
        let bag = unsafe { &mut *self.bag.get() };
        if !bag.is_empty() {
            // `drain` keeps the allocation for the next `LOCAL_BAG_CAP`
            // retires.
            self.global.push_garbage(bag.drain(..));
            self.bag_len.store(0, Ordering::Relaxed);
        }
    }

    /// Flushes the local bag to the global queue and runs a collection.
    pub(crate) fn flush(&self) {
        self.seal_bag();
        self.global.collect();
    }

    /// Called when the owning `LocalHandle` is dropped.
    pub(crate) fn handle_dropped(&self) {
        self.handle_dropped.set(true);
        if self.guard_count.get() == 0 {
            // The handle's own reference is still alive in the caller, so
            // the registry's can go right here.
            drop(self.retire_record());
        }
        // Otherwise the last guard's `unpin` retires the record.
    }

    /// Donates the bag and removes this participant from the registry,
    /// returning the registry's reference (see [`Local::unpin`]).
    fn retire_record(&self) -> Option<Arc<Local>> {
        debug_assert_eq!(self.guard_count.get(), 0, "retired while pinned");
        self.seal_bag();
        self.global.unregister(self)
    }
}

impl fmt::Debug for Local {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Local")
            .field("pinned", &(self.epoch.load(Ordering::Relaxed) & 1 == 1))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A thread that panics while it holds `lock` leaves it poisoned.
    fn poison<T: Send>(lock: &Mutex<T>) {
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = lock.lock();
                panic!("poisoning the lock on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(lock.is_poisoned());
    }

    unsafe fn free_u64(ptr: *mut u8) {
        // SAFETY: the caller passes a pointer from `Box::<u64>::into_raw`.
        unsafe { drop(Box::from_raw(ptr.cast::<u64>())) };
    }

    /// A panic that unwinds through a registry lock (an aborted stress
    /// window, say) must not turn every later registration, thread exit
    /// and collection into a panic of its own.
    #[test]
    fn poisoned_registry_locks_are_taken_over() {
        let global = Arc::new(Global::new());
        poison(&global.participants);
        poison(&global.garbage);

        let local = global.register();
        local.pin();
        // SAFETY: a fresh box, handed over once.
        local.defer(unsafe { Deferred::new(Box::into_raw(Box::new(7u64)).cast(), free_u64) });
        assert!(local.unpin().is_none());
        local.flush();
        assert_eq!(global.garbage_len(), 1);
        local.handle_dropped();
        let freed: usize = (0..3).map(|_| global.collect()).sum();
        assert_eq!(freed, 1);
        assert_eq!(global.garbage_len(), 0);
    }
}

use cds_atomic::{AtomicUsize, Ordering};
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::Backoff;

// State layout: bit 0 = writer held, bits 1.. = reader count.
const WRITER: usize = 1;
const READER: usize = 2;

/// A reader-writer spin lock.
///
/// Multiple readers may hold the lock simultaneously; writers are exclusive.
/// Writers take priority for *acquisition ordering* in the weak sense that a
/// waiting writer first claims the writer bit and then waits for readers to
/// drain, preventing writer starvation under a steady reader stream.
///
/// Used by the data structure crates wherever a structure distinguishes
/// read-only operations (e.g. `contains`) from mutating ones.
///
/// # Example
///
/// ```
/// use cds_sync::RwSpinLock;
///
/// let lock = RwSpinLock::new(vec![1, 2, 3]);
/// {
///     let r1 = lock.read();
///     let r2 = lock.read(); // concurrent readers are fine
///     assert_eq!(r1.len() + r2.len(), 6);
/// }
/// lock.write().push(4);
/// assert_eq!(lock.read().len(), 4);
/// ```
pub struct RwSpinLock<T = ()> {
    state: AtomicUsize,
    data: UnsafeCell<T>,
}

// SAFETY: standard RwLock bounds — readers share `&T` across threads.
unsafe impl<T: Send> Send for RwSpinLock<T> {}
unsafe impl<T: Send + Sync> Sync for RwSpinLock<T> {}

impl<T: Default> Default for RwSpinLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> RwSpinLock<T> {
    /// Creates a new unlocked reader-writer lock protecting `value`.
    pub fn new(value: T) -> Self {
        RwSpinLock {
            state: AtomicUsize::new(0),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires shared (read) access, spinning while a writer is active.
    pub fn read(&self) -> RwReadGuard<'_, T> {
        let backoff = Backoff::new();
        loop {
            let s = self.state.load(Ordering::Relaxed);
            if s & WRITER == 0
                && self
                    .state
                    .compare_exchange_weak(s, s + READER, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                cds_obs::count(cds_obs::Event::RwReadAcquire);
                return RwReadGuard { lock: self };
            }
            cds_obs::count(cds_obs::Event::RwSpin);
            // Not `Blocked`: the CAS above may fail spuriously, so a
            // retry can succeed with no other thread stepping.
            backoff.snooze_tagged(cds_atomic::stress::YieldTag::Write(
                self as *const Self as usize,
            ));
        }
    }

    /// Attempts to acquire shared access without waiting.
    pub fn try_read(&self) -> Option<RwReadGuard<'_, T>> {
        let s = self.state.load(Ordering::Relaxed);
        if s & WRITER == 0
            && self
                .state
                .compare_exchange(s, s + READER, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            cds_obs::count(cds_obs::Event::RwReadAcquire);
            Some(RwReadGuard { lock: self })
        } else {
            None
        }
    }

    /// Acquires exclusive (write) access.
    ///
    /// Claims the writer bit first, blocking new readers, then waits for
    /// active readers to drain.
    pub fn write(&self) -> RwWriteGuard<'_, T> {
        let backoff = Backoff::new();
        // Phase 1: claim the writer bit.
        loop {
            let s = self.state.load(Ordering::Relaxed);
            if s & WRITER == 0
                && self
                    .state
                    .compare_exchange_weak(s, s | WRITER, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break;
            }
            cds_obs::count(cds_obs::Event::RwSpin);
            // Not `Blocked`: the CAS above may fail spuriously.
            backoff.snooze_tagged(cds_atomic::stress::YieldTag::Write(
                self as *const Self as usize,
            ));
        }
        // Phase 2: wait for readers to drain — a pure recheck.
        backoff.reset();
        while self.state.load(Ordering::Acquire) != WRITER {
            cds_obs::count(cds_obs::Event::RwSpin);
            backoff.snooze_tagged(cds_atomic::stress::YieldTag::Blocked(
                self as *const Self as usize,
            ));
        }
        cds_obs::count(cds_obs::Event::RwWriteAcquire);
        RwWriteGuard { lock: self }
    }

    /// Attempts to acquire exclusive access without waiting.
    pub fn try_write(&self) -> Option<RwWriteGuard<'_, T>> {
        if self
            .state
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            cds_obs::count(cds_obs::Event::RwWriteAcquire);
            Some(RwWriteGuard { lock: self })
        } else {
            None
        }
    }

    /// Returns a mutable reference to the data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: fmt::Debug> fmt::Debug for RwSpinLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_struct("RwSpinLock").field("data", &&*g).finish(),
            None => f
                .debug_struct("RwSpinLock")
                .field("data", &format_args!("<write-locked>"))
                .finish(),
        }
    }
}

/// Shared-access RAII guard for [`RwSpinLock`].
pub struct RwReadGuard<'a, T> {
    lock: &'a RwSpinLock<T>,
}

impl<T> Deref for RwReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: readers exclude writers.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for RwReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.state.fetch_sub(READER, Ordering::Release);
    }
}

impl<T: fmt::Debug> fmt::Debug for RwReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("RwReadGuard").field(&&**self).finish()
    }
}

/// Exclusive-access RAII guard for [`RwSpinLock`].
pub struct RwWriteGuard<'a, T> {
    lock: &'a RwSpinLock<T>,
}

impl<T> Deref for RwWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the writer excludes all other access.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for RwWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for RwWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.state.fetch_and(!WRITER, Ordering::Release);
    }
}

impl<T: fmt::Debug> fmt::Debug for RwWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("RwWriteGuard").field(&&**self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn readers_coexist() {
        let l = RwSpinLock::new(5);
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 10);
        assert!(l.try_write().is_none());
    }

    #[test]
    fn writer_excludes_readers() {
        let l = RwSpinLock::new(0);
        let w = l.try_write().unwrap();
        assert!(l.try_read().is_none());
        drop(w);
        assert!(l.try_read().is_some());
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let l = Arc::new(RwSpinLock::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        if i % 2 == 0 {
                            *l.write() += 1;
                        } else {
                            let _ = *l.read();
                            *l.write() += 1;
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*l.read(), 2000);
    }

    #[test]
    fn get_mut_into_inner() {
        let mut l = RwSpinLock::new(1);
        *l.get_mut() = 2;
        assert_eq!(l.into_inner(), 2);
    }
}

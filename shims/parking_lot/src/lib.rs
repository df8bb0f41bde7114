//! In-tree stand-in for the [`parking_lot`] crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace replaces `parking_lot` with this shim: the same non-poisoning
//! `Mutex`/`RwLock` surface the structure crates use, implemented over
//! `std::sync`.
//!
//! Two deliberate behaviours beyond plain delegation:
//!
//! * **Poisoned-lock recovery.** `parking_lot` locks do not poison; this
//!   shim matches that by *recovering* from `std` poisoning — if a thread
//!   panicked while holding the lock, the next `lock()` simply takes over
//!   the inner data. The fault-injection tests rely on this to prove the
//!   lock-based structures survive a worker dying mid-critical-section.
//! * **Stress yield points.** Every acquisition routes through
//!   [`cds_core::stress::yield_point`], so when the PCT-style stress
//!   scheduler is active (the `stress` feature plus an installed
//!   scheduler), lock-based structures get preemption points at exactly
//!   the moments that matter — immediately before entering and after
//!   leaving the lock queue.
//!
//! [`parking_lot`]: https://docs.rs/parking_lot

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::TryLockError;

/// A mutual-exclusion primitive, API-compatible with the subset of
/// `parking_lot::Mutex` this workspace uses.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`]; releases the lock on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value (recovering it
    /// if a panicking holder poisoned the inner `std` lock).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    ///
    /// Unlike `std`, never fails: a poisoned inner lock (holder panicked)
    /// is recovered, matching `parking_lot`'s non-poisoning semantics.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // The entry tag: the step up to the next yield is exactly one
        // try_lock attempt on this lock word. The post-acquire yields
        // stay untagged because the step after them is the caller's
        // critical section, which may touch anything.
        cds_core::stress::yield_point_tagged(cds_core::stress::YieldTag::Write(
            self as *const Self as *const () as usize,
        ));
        // Under an active stress scheduler, never block in the kernel:
        // no step is granted while a registered thread sleeps on a lock
        // held by a paused worker, and the round is aborted as stalled.
        // Spin-acquire through try_lock instead, pausing at each failed
        // attempt so the scheduler can grant the current holder its steps.
        #[cfg(feature = "stress")]
        if cds_core::stress::is_active() {
            loop {
                match self.inner.try_lock() {
                    Ok(inner) => {
                        cds_core::stress::yield_point();
                        return MutexGuard { inner };
                    }
                    Err(TryLockError::Poisoned(poison)) => {
                        cds_core::stress::yield_point();
                        return MutexGuard {
                            inner: poison.into_inner(),
                        };
                    }
                    Err(TryLockError::WouldBlock) => {
                        // Pure recheck until the holder releases.
                        cds_core::stress::yield_point_tagged(cds_core::stress::YieldTag::Blocked(
                            self as *const Self as *const () as usize,
                        ));
                        std::thread::yield_now();
                    }
                }
            }
        }
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        cds_core::stress::yield_point();
        MutexGuard { inner }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        cds_core::stress::yield_point();
        match self.inner.try_lock() {
            Ok(inner) => Some(MutexGuard { inner }),
            Err(TryLockError::Poisoned(poison)) => Some(MutexGuard {
                inner: poison.into_inner(),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poison) => poison.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Reader-writer lock, API-compatible with the subset of
/// `parking_lot::RwLock` this workspace uses.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Shared-read guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access (recovers from poisoning).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        // `Write`, not `Read`: acquiring shared access still writes the
        // reader count in the lock word.
        cds_core::stress::yield_point_tagged(cds_core::stress::YieldTag::Write(
            self as *const Self as *const () as usize,
        ));
        // Same no-kernel-blocking rule as `Mutex::lock` under an active
        // stress scheduler.
        #[cfg(feature = "stress")]
        if cds_core::stress::is_active() {
            loop {
                match self.inner.try_read() {
                    Ok(inner) => return RwLockReadGuard { inner },
                    Err(TryLockError::Poisoned(poison)) => {
                        return RwLockReadGuard {
                            inner: poison.into_inner(),
                        }
                    }
                    Err(TryLockError::WouldBlock) => {
                        cds_core::stress::yield_point_tagged(cds_core::stress::YieldTag::Blocked(
                            self as *const Self as *const () as usize,
                        ));
                        std::thread::yield_now();
                    }
                }
            }
        }
        RwLockReadGuard {
            inner: self
                .inner
                .read()
                .unwrap_or_else(|poison| poison.into_inner()),
        }
    }

    /// Acquires exclusive write access (recovers from poisoning).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        cds_core::stress::yield_point_tagged(cds_core::stress::YieldTag::Write(
            self as *const Self as *const () as usize,
        ));
        #[cfg(feature = "stress")]
        if cds_core::stress::is_active() {
            loop {
                match self.inner.try_write() {
                    Ok(inner) => return RwLockWriteGuard { inner },
                    Err(TryLockError::Poisoned(poison)) => {
                        return RwLockWriteGuard {
                            inner: poison.into_inner(),
                        }
                    }
                    Err(TryLockError::WouldBlock) => {
                        cds_core::stress::yield_point_tagged(cds_core::stress::YieldTag::Blocked(
                            self as *const Self as *const () as usize,
                        ));
                        std::thread::yield_now();
                    }
                }
            }
        }
        RwLockWriteGuard {
            inner: self
                .inner
                .write()
                .unwrap_or_else(|poison| poison.into_inner()),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn try_lock_contended_returns_none() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn lock_recovers_after_holder_panics() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("die holding the lock");
        })
        .join();
        // parking_lot semantics: no poisoning observable by later holders.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(5);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 10);
        }
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }
}
